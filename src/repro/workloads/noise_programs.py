"""Static noise-domain twins of the shipped functionality workloads.

Each :class:`NoiseProgram` drives a
:class:`repro.check.noise_check.NoiseCheckEvaluator` through the same
operation structure its empirical sibling executes under the
calibrated :class:`repro.ckks.noise.NoisyEvaluator` — the same
iteration/stage/layer counts, the same bootstrap cadence, the same
``INSTABILITY_GAIN`` drift steps, and the very same fitted Chebyshev
interpolants (characterized numerically, never evaluated on
ciphertext data) at the depth of the plan the engine runs for them
(:func:`repro.ckks.poly_eval.fitted_plan`).  The structural constants are imported from the
workload modules themselves, so the two paths cannot drift apart.

Magnitude declarations (``encrypt(mag=...)``, ``out_mag``) are the
only workload-specific inputs the empirical path does not share; each
is a conservative bound on the corresponding empirical value range,
written into the program below, and the analyzer takes it on trust.

Soundness notes for the two loop macros used here:

* HELR models its weight update with ``descend`` — gradient descent on
  a smooth convex loss at a stable learning rate is non-expansive in
  the iterate, so carried weight noise re-enters with gain one and the
  32-iteration loop accumulates noise linearly (a naive Lipschitz
  chain through the gradient would compound exponentially and prove
  nothing);
* sorting models each comparator with ``compare_exchange`` — the exact
  min/max map is 1-Lipschitz, so per-stage cost is the polynomial
  comparator's measured mis-resolution bias plus injected op noise,
  again linear across the 105 stages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.check.noise_check import NoiseCheckEvaluator, fitted_poly_spec, fitted_sign_spec
from repro.workloads import helr, resnet, sorting

__all__ = [
    "NoiseProgram",
    "noise_programs",
    "HELR_W_MAG",
    "HELR_MARGIN_MAG",
    "RESNET_PRE_ACT_MAG",
    "SORT_VALUE_MAG",
]

# Conservative magnitude bounds on the empirical value ranges (the
# trained HELR weights stay within ~+/-1.5 including drift; margins are
# y <x, w> with normalized features; ResNet pre-activations are
# pre-scaled into the fitted ReLU interval's lower half; sort inputs
# are normalized into [0, 1]).
HELR_W_MAG = 2.0
HELR_MARGIN_MAG = 4.0
RESNET_PRE_ACT_MAG = 4.0
RESNET_CONV_GAIN = 2.0  # operator-norm bound of one He-normalized conv + residual
RESNET_CONV_FAN_IN = 108  # 12 channels x 3x3 taps of rotation-ladder PMADDs
SORT_VALUE_MAG = 1.0


@dataclass(frozen=True)
class NoiseProgram:
    """One workload's static noise program."""

    name: str
    message_ratio: float  # q0/scale stable range its evaluator runs at
    target_bits: float  # precision floor the word-length audit demands
    build: Callable[[NoiseCheckEvaluator], None]


def _helr_program(ev: NoiseCheckEvaluator) -> None:
    spec = fitted_poly_spec(
        helr.sigmoid_neg,
        helr.SIGMOID_DEGREE,
        helr.SIGMOID_INTERVAL,
        out_mag=1.0,
        cap=1.0,  # a bounded sigmoid can never be off by more than its range
        preserve_drift=False,
    )
    w = ev.encrypt(mag=HELR_W_MAG)
    for it in range(helr.HELR_ITERATIONS):
        # Margins are inner products against the weights: the carrier
        # tracks the weights' magnitude and drift, while the carried
        # weight noise re-enters through the non-expansive update below.
        carrier = ev.ghost(w)
        margins = ev.linear(
            carrier,
            out_mag=HELR_MARGIN_MAG,
            gain=math.sqrt(float(helr.HELR_FEATURES)),
            fan_in=helr.HELR_FEATURES,
            label=f"iteration {it} margins",
        )
        sig = ev.poly_eval(margins, spec, label=f"iteration {it} sigmoid")
        grad = ev.linear(
            sig, out_mag=1.0, gain=1.0, fan_in=1, label=f"iteration {it} gradient"
        )
        w = ev.descend(w, grad, lr=1.0, label=f"iteration {it} update")
        w = ev.amplify(w, helr.INSTABILITY_GAIN, label=f"iteration {it} drift")
        if (it + 1) % helr.HELR_BOOT_EVERY == 0:
            w = ev.bootstrap(w, label=f"iteration {it} bootstrap")


def _resnet_program(ev: NoiseCheckEvaluator) -> None:
    spec = fitted_poly_spec(
        resnet.relu,
        resnet.RELU_DEGREE,
        resnet.RELU_INTERVAL,
        out_mag=RESNET_PRE_ACT_MAG,
        cap=None,
        # Polynomial ReLU is quasi-linear: a uniform scale error on the
        # input scales the output, so drift survives the activation.
        preserve_drift=True,
    )
    x = ev.encrypt(mag=RESNET_PRE_ACT_MAG)
    for layer in range(resnet.RESNET_ACT_LAYERS):
        # The empirical path applies drift**2 per activation layer.
        x = ev.amplify(x, resnet.INSTABILITY_GAIN, label=f"layer {layer} drift")
        x = ev.amplify(x, resnet.INSTABILITY_GAIN, label=f"layer {layer} drift")
        x = ev.poly_eval(x, spec, label=f"layer {layer} relu")
        x = ev.bootstrap(x, label=f"layer {layer} bootstrap")
        if layer + 1 < resnet.RESNET_ACT_LAYERS:
            x = ev.linear(
                x,
                out_mag=RESNET_PRE_ACT_MAG,
                gain=RESNET_CONV_GAIN,
                fan_in=RESNET_CONV_FAN_IN,
                label=f"layer {layer + 1} conv",
            )


def _sorting_program(ev: NoiseCheckEvaluator) -> None:
    spec = fitted_sign_spec(
        sorting.sign_stage, sorting.SIGN_DEGREE, tuple(sorting.SIGN_STAGES)
    )
    ct = ev.encrypt(mag=SORT_VALUE_MAG)
    stages = sorting.sort_stages(sorting.SORT_LOG2N)
    for stage in range(stages):
        ct = ev.compare_exchange(ct, spec, label=f"stage {stage}")
        ct = ev.amplify(ct, sorting.INSTABILITY_GAIN, label=f"stage {stage} drift")
        if (stage + 1) % sorting.SORT_BOOT_EVERY == 0:
            ct = ev.bootstrap(ct, label=f"stage {stage} bootstrap")


def _bootstrapping_program(ev: NoiseCheckEvaluator) -> None:
    """Table 2's boot column: a fresh ciphertext through one refresh."""
    ct = ev.encrypt(mag=1.0)
    rotated = ev.rotate(ct)
    ct = ev.add(rotated, ct)
    ev.bootstrap(ct, label="refresh")


def noise_programs() -> Mapping[str, NoiseProgram]:
    """The shipped workload programs, keyed by Table 2 row name."""
    return {
        "helr": NoiseProgram(
            "helr", helr.HELR_MESSAGE_RATIO, target_bits=6.0, build=_helr_program
        ),
        "resnet20": NoiseProgram(
            "resnet20",
            resnet.RESNET_MESSAGE_RATIO,
            target_bits=6.0,
            build=_resnet_program,
        ),
        "sorting": NoiseProgram(
            "sorting",
            sorting.SORT_MESSAGE_RATIO,
            target_bits=6.0,
            build=_sorting_program,
        ),
        "bootstrapping": NoiseProgram(
            "bootstrapping",
            helr.HELR_MESSAGE_RATIO,
            target_bits=18.0,
            build=_bootstrapping_program,
        ),
    }
