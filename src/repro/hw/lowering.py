"""Lowering of HE ops to per-functional-unit work (paper S6.1).

The simulator's first stage: each :class:`repro.hw.isa.HeOp` becomes a
:class:`FuWork` vector quantifying how many words each functional-unit
class must move or compute — NTTU limb-transforms, BConvU MACs, EWE
element-wise multiplies/adds, AutoU permutation words, and DSU
double-word accumulations, in unit-level work so throughputs (Table 4)
convert them to cycles.

This is the repo's one price list: the simulator charges it per op,
:mod:`repro.core.opcount` folds it over the same traces for the
Fig. 2(c)/Fig. 3 op counts, and ``tests/test_price_list.py`` holds its
NTT and BConv terms equal to what the CKKS engine executes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.hw.isa import HeOp, OpKind
from repro.params.presets import WordLengthSetting

__all__ = ["FuWork", "OpLowering", "ntt_butterflies", "op_shape"]


@dataclass(frozen=True)
class FuWork:
    """Work per FU class, in that unit's natural quanta."""

    ntt_words: float = 0.0  # words through an NTTU (limbs * N)
    bconv_macs: float = 0.0
    ew_mults: float = 0.0
    ew_adds: float = 0.0
    auto_words: float = 0.0
    dsu_words: float = 0.0
    # Traffic accounting (bytes move through RFs regardless of FU).
    rf_words: float = 0.0

    def __add__(self, other: "FuWork") -> "FuWork":
        return FuWork(
            self.ntt_words + other.ntt_words,
            self.bconv_macs + other.bconv_macs,
            self.ew_mults + other.ew_mults,
            self.ew_adds + other.ew_adds,
            self.auto_words + other.auto_words,
            self.dsu_words + other.dsu_words,
            self.rf_words + other.rf_words,
        )

    def scaled(self, f: float) -> "FuWork":
        return FuWork(
            self.ntt_words * f,
            self.bconv_macs * f,
            self.ew_mults * f,
            self.ew_adds * f,
            self.auto_words * f,
            self.dsu_words * f,
            self.rf_words * f,
        )


def op_shape(op: HeOp) -> tuple[OpKind, int, int, float]:
    """Every field of ``op`` that :meth:`OpLowering.lower` reads: ops of
    one shape lower to equal work, so a price may be keyed on it."""
    return (op.kind, op.limbs, op.drop, op.count)


def ntt_butterflies(ntt_words: float, degree: int) -> float:
    """Butterfly (Montgomery) multiplications behind ``ntt_words``:
    each limb-transform of N words is (N/2) * log2(N) butterflies."""
    return ntt_words * math.log2(degree) / 2.0


class OpLowering:
    """Caches the per-setting constants and lowers ops to work vectors."""

    def __init__(self, setting: WordLengthSetting):
        self.setting = setting
        self.n = setting.degree
        self.k = setting.k
        self.alpha = setting.alpha

    # -- primary functions -----------------------------------------------------

    def _ntt(self, limbs: float) -> FuWork:
        words = limbs * self.n
        return FuWork(ntt_words=words, rf_words=2 * words)

    def _bconv(self, src: float, dst: float) -> FuWork:
        return FuWork(
            bconv_macs=(src * dst + src) * self.n,
            rf_words=(src + dst) * self.n,
        )

    def _ew(self, limbs: float, mults: float = 1.0, adds: float = 0.0) -> FuWork:
        """Element-wise work; ``adds`` counts *standalone* additions only.

        Additions paired with multiplications ride the same EWE
        datapath pass (the MAD/AccQ/AccP instructions of Table 3), so
        they cost RF traffic and energy but no extra issue slots.
        """
        return FuWork(
            ew_mults=mults * limbs * self.n,
            ew_adds=adds * limbs * self.n,
            rf_words=(mults + adds + 1) * limbs * self.n,
        )

    def _mod_up(self, limbs: int) -> FuWork:
        """INTT of the input polynomial, then per digit BConv + NTT to ``C + P``."""
        out = self._ntt(limbs)
        for d in range(math.ceil(limbs / self.alpha)):
            width = min(self.alpha, limbs - d * self.alpha)
            ext = limbs + self.k - width
            out = out + self._bconv(width, ext) + self._ntt(ext)
        return out

    def _keyswitch(self, limbs: int) -> FuWork:
        # Inner product with the evk digits (2 polynomials each); the
        # accumulations fuse with the multiplies (AccQ/AccP).
        digits = math.ceil(limbs / self.alpha)
        out = self._mod_up(limbs) + self._ew(digits * (limbs + self.k), mults=2)
        # ModDown of both halves: INTT(K) + BConv(K->limbs) + NTT + mult.
        for _ in range(2):
            out = (
                out
                + self._ntt(self.k)
                + self._bconv(self.k, limbs)
                + self._ntt(limbs)
                + self._ew(limbs, mults=1)  # (u - w) * P^-1 fuses (ModD)
            )
        return out

    def _rescale(self, limbs: int, drop: int) -> FuWork:
        rest = limbs - drop
        out = FuWork()
        for _ in range(2):
            out = out + self._ntt(drop) + self._ntt(rest)
            out = out + self._ew(rest, mults=1)  # fused subtract-multiply
            if drop == 2:  # DS step: Garner CRT accumulation on the DSU
                out = out + FuWork(dsu_words=rest * self.n)
        return out

    # -- HE ops -------------------------------------------------------------------

    def lower(self, op: HeOp) -> FuWork:
        """The op's work; it reads only the fields :func:`op_shape` names."""
        n = self.n
        limbs = op.limbs
        if op.kind is OpKind.HADD:
            work = self._ew(limbs, mults=0, adds=2)  # standalone adds
        elif op.kind is OpKind.HMULT:
            work = self._ew(limbs, mults=4, adds=1) + self._keyswitch(limbs)
            if op.drop:
                work = work + self._rescale(limbs, op.drop)
        elif op.kind is OpKind.PMULT:
            # Plaintext multiplications accumulate into one result and
            # share a single trailing rescale (operation fusion, S5),
            # so the rescale does not scale with the repeat count.
            work = self._ew(limbs, mults=2).scaled(op.count)
            if op.drop:
                work = work + self._rescale(limbs, op.drop)
            return work
        elif op.kind is OpKind.PMADD:
            # Fused PMult + accumulate: EWE's MAD instruction (Table 3).
            work = self._ew(limbs, mults=2).scaled(op.count)  # MAD-fused
            if op.drop:
                work = work + self._rescale(limbs, op.drop)
            return work
        elif op.kind is OpKind.HROT or op.kind is OpKind.CONJ:
            work = FuWork(auto_words=2 * limbs * n, rf_words=2 * limbs * n)
            work = work + self._keyswitch(limbs)
        elif op.kind is OpKind.RESCALE:
            work = self._rescale(limbs, max(op.drop, 1))
        elif op.kind is OpKind.MOD_RAISE:
            work = self._ntt(2 * limbs)
        elif op.kind is OpKind.DS_ACCUM:
            work = FuWork(dsu_words=limbs * n, rf_words=2 * limbs * n)
        else:  # pragma: no cover - exhaustive over OpKind
            raise ValueError(f"unhandled op kind {op.kind}")
        return work.scaled(op.count)

