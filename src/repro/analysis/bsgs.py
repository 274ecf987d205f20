"""Memory-capacity-aware BSGS fine-tuning (paper S5, observation (12)).

The baby-step giant-step linear-transform subroutine with ``bs * gs =
D`` costs ``O(bs + gs)`` rotations, minimized by the balanced split
``bs = gs = sqrt(D)``.  But holding ``bs + 1`` ciphertexts on-chip lets
them be reused ``gs`` times; when they do not fit, every giant step
re-fetches the baby set from HBM.  SHARP picks the largest ``bs`` whose
working set fits, accepting extra compute to avoid the traffic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.params.presets import WordLengthSetting

__all__ = ["BsgsPlan", "plan_bsgs", "balanced_split"]

DIAGONALS = 64  # nonzero diagonals of the transform being planned


@dataclass(frozen=True)
class BsgsPlan:
    """One BSGS configuration and its cost model."""

    bs: int
    gs: int
    rotations: int  # O(bs + gs) rotation cost
    working_set_bytes: float
    fits_on_chip: bool
    spill_bytes: float  # traffic when the baby set does not fit


def balanced_split(d: int) -> tuple[int, int]:
    bs = 1 << round(math.log2(max(1.0, math.sqrt(d))))
    return bs, math.ceil(d / bs)


def _plan(
    bs: int, d: int, ct_bytes: float, evk_bytes: float, capacity: float
) -> BsgsPlan:
    gs = math.ceil(d / bs)
    ws = (bs + 1) * ct_bytes + evk_bytes
    fits = ws <= capacity
    spill = 0.0 if fits else gs * bs * ct_bytes * (1.0 - capacity / ws)
    return BsgsPlan(
        bs=bs,
        gs=gs,
        rotations=bs + gs,
        working_set_bytes=ws,
        fits_on_chip=fits,
        spill_bytes=spill,
    )


def plan_bsgs(
    setting: WordLengthSetting,
    limbs: int,
    capacity_bytes: float,
    fine_tune: bool = True,
) -> BsgsPlan:
    """Choose the BSGS split for a ``DIAGONALS``-diagonal transform at
    ``limbs`` active limbs, its key PRNG-compressed.

    With ``fine_tune`` the largest power-of-two ``bs`` whose ``bs + 1``
    ciphertexts (plus the evk) fit on-chip is selected; otherwise the
    compute-optimal balanced split is used regardless of capacity.
    """
    d = DIAGONALS
    ct_bytes = setting.ciphertext_bytes(limbs)
    evk_bytes = setting.evk_bytes(prng=True, limbs=limbs)
    bs_balanced, _ = balanced_split(d)
    if not fine_tune:
        return _plan(bs_balanced, d, ct_bytes, evk_bytes, capacity_bytes)
    bs = bs_balanced
    while bs > 1:
        candidate = _plan(bs, d, ct_bytes, evk_bytes, capacity_bytes)
        if candidate.fits_on_chip:
            return candidate
        bs //= 2
    return _plan(1, d, ct_bytes, evk_bytes, capacity_bytes)
