"""Word-length efficiency synthesis (paper Fig. 3, observation (6)).

Combines the ALU cost model (Fig. 2(a)) with the operational counts
(Fig. 2(c)) under the paper's iso-area assumption: each word-length
setting fills the *same* chip area with its own synthesized ALUs, so

* delay  ~ (weighted ops) * alu_area(w)   [fewer ALUs fit -> slower]
* energy ~ (weighted ops) * alu_power(w) * alu_area(w) / alu_area(w)
         = ops * energy-per-op, with energy-per-op ~ power(w) at fixed
           frequency

both divided by L_eff (real workloads consume levels, not ops), and
EDP = energy * delay.  The 36-bit setting minimizes all three for both
the narrow and wide workloads — the paper's central claim.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.alu_model import alu_area, alu_power
from repro.core.opcount import (
    NARROW_HMULTS_PER_LEVEL,
    WIDE_HMULTS_PER_LEVEL,
    weighted_ops,
    workload_counts,
)
from repro.params.presets import WORD_LENGTHS, build_sharp_setting

__all__ = ["EfficiencyPoint", "efficiency_sweep", "best_word_length"]


@dataclass(frozen=True)
class EfficiencyPoint:
    """Energy/delay/EDP of one word-length setting (relative units)."""

    word_bits: int
    l_eff: int
    weighted_ops_per_level: float
    energy: float  # per level
    delay: float  # per level
    edp: float


def efficiency_point(word_bits: int, hmults_per_level: int) -> EfficiencyPoint:
    setting = build_sharp_setting(word_bits)
    counts = workload_counts(setting, hmults_per_level)
    ops = weighted_ops(counts, word_bits) / setting.l_eff
    # Iso-area: number of ALUs on chip ~ 1/area(w); time ~ ops/ALUs.
    delay = ops * alu_area("mult", word_bits)
    # Energy per op ~ power(w) / frequency; total ~ ops * power(w).
    energy = ops * alu_power("mult", word_bits)
    return EfficiencyPoint(
        word_bits=word_bits,
        l_eff=setting.l_eff,
        weighted_ops_per_level=ops,
        energy=energy,
        delay=delay,
        edp=energy * delay,
    )


def efficiency_sweep(
    workload: str = "narrow", word_lengths=WORD_LENGTHS
) -> list[EfficiencyPoint]:
    """Fig. 3 data for the narrow (1 HMult/level) or wide (30) workload."""
    per_level = {
        "narrow": NARROW_HMULTS_PER_LEVEL,
        "wide": WIDE_HMULTS_PER_LEVEL,
    }[workload]
    return [efficiency_point(w, per_level) for w in word_lengths]


def best_word_length(workload: str = "narrow") -> int:
    """The EDP-minimizing word length (the paper finds 36)."""
    sweep = efficiency_sweep(workload)
    return min(sweep, key=lambda p: p.edp).word_bits
