"""The sampling domain of the Table 2 / Fig. 1 programs.

Running ResNet-20 or 32 HELR training iterations under the real
Python CKKS stack at the paper's ``N = 2**16`` is computationally out
of reach, so each workload's one Table 2 program (``helr.program`` and
its siblings) is folded over this domain: a ciphertext is the numpy
array of its values, every HE op injects the noise the real scheme
would add, and every polynomial approximation evaluates its *fitted
Chebyshev interpolant* (not the ideal function), so values that leave
the approximation interval diverge exactly the way the paper's "error
explosions" do (S3.1).  :mod:`repro.check.noise_check` is the bounding
domain of the same programs.

Every sampled transfer function lives here.  Noise magnitudes are
:class:`repro.ckks.calibration.NoiseModel`'s, the one calibration the
bounding domain reads too: fitted to the paper's Table 2 measurements
at ``N = 2**16`` (fresh precision ~ ``log2(scale) - 12.6`` bits,
bootstrap precision ~ ``log2(scale) - 13.3`` bits).
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import chebyshev as C

from repro.ckks.calibration import NoiseModel
from repro.ckks.poly_eval import fitted_plan

__all__ = ["NoisyEvaluator", "fitted_eval"]


def fitted_eval(
    fn: Callable[[float], float], degree: int, interval: tuple[float, float], x: np.ndarray
) -> np.ndarray:
    """``fn``'s fitted interpolant on ``interval`` at ``x``, noise-free: the
    one cached fit (:func:`repro.ckks.poly_eval.fitted_plan`) both domains read."""
    lo, hi = interval
    return C.chebval((x - lo) * 2.0 / (hi - lo) - 1.0, fitted_plan(fn, degree, interval).coeffs)


class NoisyEvaluator:
    """The evaluator vocabulary on plain vectors with injected noise.

    What only the bounding domain reads (declared magnitudes, gains,
    labels) is accepted and ignored, so one program runs over both.
    """

    def __init__(
        self, model: NoiseModel, seed: int = 0, message_ratio: float = 8.0
    ) -> None:
        # message_ratio = q0 / scale: the bootstrap's stable range
        # (Lattigo-style message ratio; values beyond it wrap).
        self.model = model
        self.rng = np.random.default_rng(seed)
        self.message_ratio = message_ratio

    def _noise(self, shape: object, std: float) -> np.ndarray:
        return self.rng.normal(0.0, std, shape)

    def encrypt(self, values: object, mag: float = 1.0) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        return v + self._noise(v.shape, self.model.fresh_std)

    def ghost(self, ct: np.ndarray) -> np.ndarray:
        """The bounding domain's noise-free carrier; a sample is its own."""
        return ct

    # -- ops ---------------------------------------------------------------------

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def sub(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a - b

    def add_plain(self, a: np.ndarray, plain: object) -> np.ndarray:
        return a + np.asarray(plain)

    def _rescale_jitter(self, values: np.ndarray) -> np.ndarray:
        """Multiplicative prime-vs-scale deviation of one rescale."""
        return values * (
            1.0 + self._noise(values.shape, self.model.relative_std)
        )

    def multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        out = self._rescale_jitter(a * b)
        return out + self._noise(out.shape, self.model.op_std)

    def multiply_plain(self, a: np.ndarray, plain: object) -> np.ndarray:
        out = self._rescale_jitter(a * np.asarray(plain))
        return out + self._noise(out.shape, self.model.op_std)

    def multiply_scalar(self, a: np.ndarray, c: float) -> np.ndarray:
        out = self._rescale_jitter(a * c)
        return out + self._noise(a.shape, self.model.op_std)

    def rotate(self, a: np.ndarray, r: int) -> np.ndarray:
        return np.roll(a, -r) + self._noise(a.shape, self.model.op_std)

    def linear(
        self,
        ct: np.ndarray,
        plain: Callable[[np.ndarray], np.ndarray],
        out_mag: float,
        gain: float = 1.0,
        fan_in: int = 1,
        label: str | None = None,
    ) -> np.ndarray:
        """The plaintext map ``plain``, plus its ``fan_in``-term rotation
        ladder's key-switch noise."""
        out = plain(ct)
        return out + self._noise(out.shape, self.model.op_std * math.sqrt(fan_in))

    def amplify(self, ct: np.ndarray, gain: float, label: str | None = None) -> np.ndarray:
        """One workload-calibrated drift step: ``x * (1 + gain * rel)``."""
        return ct * (1.0 + gain * self.model.relative_std)

    def descend(self, w: np.ndarray, step: np.ndarray, label: str | None = None) -> np.ndarray:
        return w - step

    def bootstrap(self, a: np.ndarray, label: str | None = None) -> np.ndarray:
        """Refresh; values outside the EvalMod range explode.

        The base modulus gives ``message_ratio`` headroom over the
        scale: coefficients beyond it wrap modulo ``q0`` and the message
        is destroyed — the paper's instability for values outside the
        stable range.
        """
        headroom = self.message_ratio
        wrapped = np.mod(a + headroom, 2 * headroom) - headroom
        return wrapped + self._noise(a.shape, self.model.boot_std)

    # -- polynomial approximation --------------------------------------------------

    def poly_eval(
        self,
        a: np.ndarray,
        fn: Callable[[float], float],
        degree: int,
        interval: tuple[float, float],
        out_mag: float,
        cap: float | None = None,
        preserve_drift: bool = False,
        label: str | None = None,
    ) -> np.ndarray:
        """Evaluate ``fn`` via its Chebyshev interpolant on ``interval``.

        The *fitted polynomial* is evaluated at the actual inputs: it
        matches ``fn`` inside the interval and diverges violently
        outside it — the genuine error-explosion mechanism.  The noise
        charged is one rescale deviation per level of the interpolant's
        :class:`~repro.ckks.poly_eval.PolyPlan`.
        """
        depth = math.sqrt(fitted_plan(fn, degree, interval).depth)
        out = fitted_eval(fn, degree, interval, a)
        out = out * (1.0 + self._noise(out.shape, self.model.relative_std * depth))
        return out + self._noise(out.shape, self.model.op_std * depth)

    def compare_exchange(
        self,
        ct: np.ndarray,
        fn: Callable[[float], float],
        degree: int,
        stages: Sequence[tuple[float, float]],
        partner: np.ndarray,
        want_lo: np.ndarray,
        label: str | None = None,
    ) -> np.ndarray:
        """One bitonic compare-exchange: each slot meets ``ct[partner]``,
        ``(min, max) = (a + b -/+ (a - b) * sign(a - b)) / 2`` with the
        composite sign (``fn``'s interpolant on each of ``stages``), and
        the slots where ``want_lo`` holds keep the minimum."""
        b = ct[partner]
        diff = ct - b
        s = diff
        for interval in stages:
            s = self.poly_eval(s, fn, degree, interval, out_mag=1.0)
        prod = self.multiply(diff, s)
        return np.where(want_lo, (ct + b - prod) / 2.0, (ct + b + prod) / 2.0)
