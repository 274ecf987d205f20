"""HELR: homomorphic logistic-regression training (paper workload).

[Han+ 19]'s HELR trains a binary classifier on encrypted data; the
paper uses it (batch 256 / 1024, 32 iterations, 14x14 images) both as
a performance workload and as the Table 2 / Fig. 1 functionality probe.

Two training paths are provided:

* :func:`train_plain` — the unencrypted FP64 reference;
* :func:`train_noisy` — the scale-sweep path: :func:`program`, HELR's
  one Table 2 program, over the sampling domain
  (:class:`repro.ckks.noise.NoisyEvaluator`).  This regenerates Fig. 1's
  accuracy-vs-scale curves.  The word-length audit folds the same
  program over the bounding domain, which takes the magnitudes declared
  here (``HELR_W_MAG``, ``HELR_MARGIN_MAG``) on trust.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ckks.calibration import NoiseModel
from repro.ckks.noise import NoisyEvaluator
from repro.workloads.datasets import BinaryImages

__all__ = [
    "HelrResult",
    "train_plain",
    "train_noisy",
    "program",
    "accuracy",
    "sigmoid_neg",
    "HELR_ITERATIONS",
    "HELR_BOOT_EVERY",
    "HELR_FEATURES",
    "HELR_MESSAGE_RATIO",
]

SIGMOID_DEGREE = 7
SIGMOID_INTERVAL = (-12.0, 12.0)
# The paper's 32 training iterations on 14x14 images, bootstrapping
# every other iteration, with the default q0/scale stable range.
HELR_ITERATIONS = 32
HELR_BOOT_EVERY = 2
HELR_BATCH = 1024  # samples per gradient step, plain and noisy alike
HELR_FEATURES = 196  # 14 * 14
HELR_MESSAGE_RATIO = 8.0
# Low scales destabilize training: the compounding relative rescale
# error biases the weight magnitude outward each iteration until the
# weights leave the bootstrap's stable range and wrap — the trajectory
# the paper describes for Fig. 1's 2^27 curve ("weight values start
# from 0, become larger over the iterations, and eventually leave the
# stable range").  The gain is calibrated so the collapse lands at
# 2^27, partial degradation at 2^29, and full accuracy from 2^31 —
# Table 2's HELR row.
INSTABILITY_GAIN = 118.0
# Magnitudes the bounding domain takes on trust: the trained weights
# stay within ~+/-1.5 including drift, and the margins are y <x, w>
# with normalized features.
HELR_W_MAG = 2.0
HELR_MARGIN_MAG = 4.0


def _sigmoid(t):
    return 1.0 / (1.0 + np.exp(-t))


def sigmoid_neg(t):
    """``sigma(-t)``: the function HELR's Chebyshev interpolant fits.

    Module-level (not a lambda) so both noise domains read the one
    cached fit.
    """
    return _sigmoid(-t)


def accuracy(weights: np.ndarray, x: np.ndarray, y: np.ndarray) -> float:
    pred = np.where(x @ weights > 0, 1.0, -1.0)
    return float(np.mean(pred == y))


@dataclass
class HelrResult:
    weights: np.ndarray
    accuracy_per_iteration: list
    final_accuracy: float


def train_plain(data: BinaryImages) -> HelrResult:
    """Unencrypted FP64 reference (the paper's 96.37% line in Fig. 1)."""
    batches = np.random.default_rng(0)
    w = np.zeros(data.features)
    accs = []
    for _ in range(HELR_ITERATIONS):
        z = _signed_batch(data, batches)
        grad = -(z * _sigmoid(-(z @ w))[:, None]).mean(axis=0)
        w -= grad
        accs.append(accuracy(w, data.test_x, data.test_y))
    return HelrResult(w, accs, accs[-1])


def _signed_batch(data: BinaryImages, rng: np.random.Generator) -> np.ndarray:
    """One iteration's mini-batch, each sample signed by its label: the
    rows ``y_i x_i`` of the margins ``y_i <x_i, w>`` and the gradient."""
    n = len(data.train_x)
    idx = rng.choice(n, size=min(HELR_BATCH, n), replace=False)
    return data.train_x[idx] * data.train_y[idx][:, None]


def program(ev: Any, data: BinaryImages | None = None) -> list[Any]:
    """HELR's Table 2 program: 32 gradient steps on the encrypted weights.

    ``ev`` is either noise domain.  ``data`` feeds the plaintext operands
    of the two linear maps, the margins ``y_i <x_i, w>`` and the
    gradient; only the sampling domain applies them, so the bounding
    domain passes none.  Returns the weights after each iteration.  They
    bootstrap every ``HELR_BOOT_EVERY`` iterations, where values that
    drifted outside the stable range wrap and destroy the model — the
    paper's low-scale explosion (Fig. 1's 2^27 curve).
    """
    batches = np.random.default_rng(0)
    w = ev.encrypt(np.zeros(HELR_FEATURES), mag=HELR_W_MAG)
    trajectory = []
    for it in range(HELR_ITERATIONS):
        # Drawn when the margins are first applied.
        z = functools.cache(lambda: _signed_batch(data, batches))
        # The margins are read off a noise-free carrier of the weights;
        # the carried weight noise re-enters through the non-expansive
        # update below.
        margins = ev.linear(
            ev.ghost(w),
            lambda v: z() @ v,
            out_mag=HELR_MARGIN_MAG,
            gain=math.sqrt(float(HELR_FEATURES)),
            fan_in=HELR_FEATURES,
            label=f"iteration {it} margins",
        )
        # cap: a bounded sigmoid can never be off by more than its range.
        sig = ev.poly_eval(
            margins,
            sigmoid_neg,
            SIGMOID_DEGREE,
            SIGMOID_INTERVAL,
            out_mag=1.0,
            cap=1.0,
            label=f"iteration {it} sigmoid",
        )
        grad = ev.linear(
            sig,
            lambda s: -(z() * s[:, None]).mean(axis=0),
            out_mag=1.0,
            label=f"iteration {it} gradient",
        )
        w = ev.descend(w, grad, label=f"iteration {it} update")
        w = ev.amplify(w, INSTABILITY_GAIN, label=f"iteration {it} drift")
        if (it + 1) % HELR_BOOT_EVERY == 0:
            w = ev.bootstrap(w, label=f"iteration {it} bootstrap")
        trajectory.append(w)
    return trajectory


def train_noisy(
    data: BinaryImages,
    scale_bits: float,
    boot_scale_bits: float = 62.0,
) -> HelrResult:
    """:func:`program` over the sampling domain, scored on the test set."""
    ev = NoisyEvaluator(
        NoiseModel(scale_bits, boot_scale_bits), seed=17, message_ratio=HELR_MESSAGE_RATIO
    )
    trajectory = program(ev, data)
    accs = [accuracy(w, data.test_x, data.test_y) for w in trajectory]
    return HelrResult(trajectory[-1], accs, accs[-1])
