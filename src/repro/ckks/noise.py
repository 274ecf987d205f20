"""Calibrated CKKS noise-injection executor (for Table 2 / Fig. 1).

Running ResNet-20 or 32 HELR training iterations under the real
Python CKKS stack at the paper's ``N = 2**16`` is computationally out
of reach, so the scale-sweep functionality experiments use this
executor: computations run on plain numpy vectors while every HE op
injects the noise the real scheme would add, and every polynomial
approximation evaluates its *fitted Chebyshev interpolant* (not the
ideal function), so values that leave the approximation interval
diverge exactly the way the paper's "error explosions" do (S3.1).

Noise magnitudes are :class:`repro.ckks.calibration.NoiseModel`'s, the
one calibration the static :mod:`repro.check.noise_check` pass reads
too: fitted to the paper's Table 2 measurements at ``N = 2**16`` (fresh
precision ~ ``log2(scale) - 12.6`` bits, bootstrap precision
~ ``log2(scale) - 13.3`` bits).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import chebyshev as C

from repro.ckks.calibration import NoiseModel
from repro.ckks.poly_eval import fitted_plan

__all__ = ["NoisyVector", "NoisyEvaluator"]


@dataclass
class NoisyVector:
    """A 'ciphertext' of the noisy executor: values plus op depth."""

    values: np.ndarray
    ops: int = 0


class NoisyEvaluator:
    """Mirrors the Evaluator API on plain vectors with injected noise."""

    def __init__(
        self, model: NoiseModel, seed: int = 0, message_ratio: float = 8.0
    ) -> None:
        # message_ratio = q0 / scale: the bootstrap's stable range
        # (Lattigo-style message ratio; values beyond it wrap).
        self.model = model
        self.rng = np.random.default_rng(seed)
        self.message_ratio = message_ratio

    # -- noise helpers ----------------------------------------------------------

    def _noise(self, shape: object, std: float) -> np.ndarray:
        return self.rng.normal(0.0, std, shape)

    def encrypt(self, values: object) -> NoisyVector:
        v = np.asarray(values, dtype=np.float64)
        return NoisyVector(v + self._noise(v.shape, self.model.fresh_std))

    def decrypt(self, ct: NoisyVector) -> np.ndarray:
        return ct.values

    # -- ops ---------------------------------------------------------------------

    def add(self, a: NoisyVector, b: NoisyVector) -> NoisyVector:
        return NoisyVector(a.values + b.values, max(a.ops, b.ops) + 1)

    def sub(self, a: NoisyVector, b: NoisyVector) -> NoisyVector:
        return NoisyVector(a.values - b.values, max(a.ops, b.ops) + 1)

    def add_plain(self, a: NoisyVector, plain: object) -> NoisyVector:
        return NoisyVector(a.values + np.asarray(plain), a.ops)

    def _rescale_jitter(self, values: np.ndarray) -> np.ndarray:
        """Multiplicative prime-vs-scale deviation of one rescale."""
        return values * (
            1.0 + self._noise(values.shape, self.model.relative_std)
        )

    def multiply(self, a: NoisyVector, b: NoisyVector) -> NoisyVector:
        out = self._rescale_jitter(a.values * b.values)
        out = out + self._noise(out.shape, self.model.op_std)
        return NoisyVector(out, max(a.ops, b.ops) + 1)

    def multiply_plain(self, a: NoisyVector, plain: object) -> NoisyVector:
        out = self._rescale_jitter(a.values * np.asarray(plain))
        out = out + self._noise(out.shape, self.model.op_std)
        return NoisyVector(out, a.ops + 1)

    def multiply_scalar(self, a: NoisyVector, c: float) -> NoisyVector:
        out = self._rescale_jitter(a.values * c)
        out = out + self._noise(a.values.shape, self.model.op_std)
        return NoisyVector(out, a.ops + 1)

    def rotate(self, a: NoisyVector, r: int) -> NoisyVector:
        out = np.roll(a.values, -r) + self._noise(a.values.shape, self.model.op_std)
        return NoisyVector(out, a.ops)

    def bootstrap(self, a: NoisyVector) -> NoisyVector:
        """Refresh; values outside the EvalMod range explode.

        The base modulus gives ``2**7`` headroom over the scale (the
        same margin the functional presets use): coefficients beyond it
        wrap modulo ``q0`` and the message is destroyed — the paper's
        instability for values outside the stable range.
        """
        headroom = self.message_ratio
        v = a.values
        wrapped = np.mod(v + headroom, 2 * headroom) - headroom
        out = wrapped + self._noise(v.shape, self.model.boot_std)
        return NoisyVector(out, 0)

    # -- polynomial approximation --------------------------------------------------

    def poly_eval(
        self,
        a: NoisyVector,
        fn: Callable[[float], float],
        degree: int,
        interval: tuple[float, float],
    ) -> NoisyVector:
        """Evaluate ``fn`` via its Chebyshev interpolant on ``interval``.

        The *fitted polynomial* is evaluated at the actual inputs: it
        matches ``fn`` inside the interval and diverges violently
        outside it — the genuine error-explosion mechanism.  The noise
        charged is one rescale deviation per level of the interpolant's
        :class:`~repro.ckks.poly_eval.PolyPlan`.
        """
        plan = fitted_plan(fn, degree, interval)
        lo, hi = interval
        x = (a.values - lo) * 2.0 / (hi - lo) - 1.0
        out = C.chebval(x, plan.coeffs)
        rel = self.model.relative_std * math.sqrt(plan.depth)
        out = out * (1.0 + self._noise(out.shape, rel))
        std = self.model.op_std * math.sqrt(plan.depth)
        out = out + self._noise(out.shape, std)
        return NoisyVector(out, a.ops + plan.depth)
