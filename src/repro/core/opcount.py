"""Operational-count model (paper Fig. 2(c), observation (5)).

Counts word-length integer operations — Montgomery reductions (NTT
butterflies), Barrett reductions (BConv MACs and element-wise
multiplies) and additions — for complete FHE workloads on any
word-length setting, weighting each op kind by its logic-area cost
relative to an integer multiplier exactly as the paper does.

This module owns neither the prices nor the workloads:
:func:`counts_of` folds :meth:`repro.hw.lowering.OpLowering.lower` —
the per-op costs the simulator charges — over
:class:`repro.hw.isa.HeOp` records, and the bootstrap and narrow/wide
workloads are the traces :mod:`repro.workloads.traces` hands the
simulator, so Fig. 2(c) and Fig. 6 price the same bootstrap.  Costs
derive from the setting's actual RNS chain: double-prime scaling
doubles limb counts, short words inflate L and the BConv width.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.alu_model import alu_area
from repro.hw.isa import HeOp, OpKind
from repro.hw.lowering import FuWork, OpLowering, ntt_butterflies
from repro.params.presets import WordLengthSetting
from repro.workloads.traces import bootstrap_trace, synthetic_trace

__all__ = [
    "WorkCounts",
    "counts_of",
    "hmult_counts",
    "hrot_counts",
    "bootstrap_counts",
    "workload_counts",
    "weighted_ops",
    "NARROW_HMULTS_PER_LEVEL",
    "WIDE_HMULTS_PER_LEVEL",
]

NARROW_HMULTS_PER_LEVEL = 1
WIDE_HMULTS_PER_LEVEL = 30


@dataclass
class WorkCounts:
    """Raw op counts by kind (not yet weighted)."""

    ntt_butterfly_muls: float = 0.0  # Montgomery modular mults
    bconv_muls: float = 0.0  # Barrett modular mults (MACs)
    elementwise_muls: float = 0.0  # Barrett modular mults
    adds: float = 0.0
    automorphism_words: float = 0.0  # permutation traffic, no mults

    @property
    def total_muls(self) -> float:
        return self.ntt_butterfly_muls + self.bconv_muls + self.elementwise_muls

    def share(self, which: str) -> float:
        return getattr(self, which) / max(self.total_muls, 1e-12)


def counts_of(setting: WordLengthSetting, ops: Iterable[HeOp]) -> WorkCounts:
    """Price ``ops`` with the simulator's lowering, read as op counts.

    Additions: two per butterfly, one per BConv MAC and per element-wise
    multiply (each rides a MAD/AccQ/AccP pass), plus the standalone
    adds.  DSU words are not multiplier work and stay out.
    """
    lowering = OpLowering(setting)
    work = sum((lowering.lower(op) for op in ops), FuWork())
    butterflies = ntt_butterflies(work.ntt_words, setting.degree)
    return WorkCounts(
        ntt_butterfly_muls=butterflies,
        bconv_muls=work.bconv_macs,
        elementwise_muls=work.ew_mults,
        adds=2 * butterflies + work.bconv_macs + work.ew_mults + work.ew_adds,
        automorphism_words=work.auto_words,
    )


def hmult_counts(setting: WordLengthSetting, limbs: int, drop: int) -> WorkCounts:
    """One HMult (tensor + relinearize + rescale) at ``limbs`` active limbs."""
    return counts_of(setting, [HeOp(OpKind.HMULT, limbs, drop)])


def hrot_counts(setting: WordLengthSetting, limbs: int) -> WorkCounts:
    return counts_of(setting, [HeOp(OpKind.HROT, limbs)])


def bootstrap_counts(setting: WordLengthSetting) -> WorkCounts:
    """Full bootstrapping: ModRaise, CtS, EvalMod, StC."""
    return counts_of(setting, bootstrap_trace(setting).ops)


def workload_counts(
    setting: WordLengthSetting, hmults_per_level: int
) -> WorkCounts:
    """Synthetic workload: bootstrap + ``hmults_per_level`` HMults/level.

    The paper's *narrow* workload uses 1, *wide* uses 30 (S3.2).
    """
    return counts_of(
        setting,
        bootstrap_trace(setting).ops + synthetic_trace(setting, hmults_per_level).ops,
    )


def weighted_ops(counts: WorkCounts, word_bits: int) -> float:
    """Paper-style weighted op count: each kind costed in multiplier
    equivalents via its relative logic area."""
    w_mont = alu_area("montgomery", word_bits) / alu_area("mult", word_bits)
    w_barrett = alu_area("barrett", word_bits) / alu_area("mult", word_bits)
    w_add = alu_area("adder", word_bits) / alu_area("mult", word_bits)
    return (
        counts.ntt_butterfly_muls * w_mont
        + (counts.bconv_muls + counts.elementwise_muls) * w_barrett
        + counts.adds * w_add
    )
