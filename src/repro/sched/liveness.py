"""Liveness analysis over SSA-annotated HE-op traces.

Computes, for every value in a trace, its live range (definition op to
last consuming op) and byte size.  An op's working set is the bytes of
the ranges live across it plus the evk it streams, which reproduces the
paper's Fig. 5(b) working-set curve mechanistically: the (bs + 1)
simultaneously-live BSGS temporaries fall out of the rotation-ladder
dataflow instead of being asserted.

Future-use distances (:meth:`LiveRange.next_use`) are what the Belady
allocator in :mod:`repro.sched.alloc` keys its evictions off.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.hw.isa import Trace
from repro.params.presets import WordLengthSetting

__all__ = ["LiveRange", "Liveness", "analyze_liveness"]

INFINITY = float("inf")


@dataclass(frozen=True)
class LiveRange:
    """One SSA value's lifetime and storage footprint."""

    value: str
    size_bytes: float
    def_index: int  # -1 for external inputs (live from trace start)
    uses: tuple[int, ...]  # op indices that consume the value, ascending

    @property
    def last_use(self) -> int:
        return self.uses[-1] if self.uses else self.def_index

    def next_use(self, after: int) -> float:
        """First use strictly after op ``after`` (inf if none)."""
        i = bisect.bisect_right(self.uses, after)
        return self.uses[i] if i < len(self.uses) else INFINITY


class Liveness:
    """Live ranges of one trace's ciphertexts and evaluation keys."""

    def __init__(
        self, ranges: dict[str, LiveRange], evk_ranges: dict[str, LiveRange]
    ) -> None:
        self.ranges = ranges  # ciphertext values
        self.evk_ranges = evk_ranges  # evaluation keys (one per key_id)

    def range_of(self, value: str) -> LiveRange:
        return self.ranges.get(value) or self.evk_ranges[value]


def analyze_liveness(
    trace: Trace, setting: WordLengthSetting, prng_evk: bool = True
) -> Liveness:
    """Build live ranges for an SSA-annotated trace.

    Ciphertext values are sized from the limb count of their defining
    op (post-rescale); external inputs from their first consumer; an
    evaluation key at the highest limb count it is used at (a
    lower-level use reads a prefix of the same rows).  Raises
    ``ValueError`` on a trace without SSA annotations.
    """
    if not trace.annotated:
        raise ValueError(
            f"trace {trace.name!r} has no SSA annotations; "
            "liveness needs dst/srcs on every op"
        )

    defs: dict[str, int] = {}
    sizes: dict[str, float] = {}
    uses: dict[str, list[int]] = {}
    evk_uses: dict[str, list[int]] = {}
    evk_limbs: dict[str, int] = {}

    for i, op in enumerate(trace.ops):
        for src in op.srcs:
            if src not in defs:
                # External input: live from the start, sized at the
                # limb count of its first consumer.
                defs[src] = -1
                sizes[src] = setting.ciphertext_bytes(op.limbs)
            uses.setdefault(src, [])
            if not uses[src] or uses[src][-1] != i:
                uses[src].append(i)
        if op.dst is None:  # pragma: no cover - guarded by trace.annotated
            raise ValueError(f"op {i} of {trace.name!r} lacks a dst value")
        if op.dst in defs:
            raise ValueError(
                f"value {op.dst!r} redefined at op {i} of {trace.name!r}"
            )
        defs[op.dst] = i
        sizes[op.dst] = setting.ciphertext_bytes(op.result_limbs)
        uses.setdefault(op.dst, [])
        if op.key_id is not None:
            key = f"evk:{op.key_id}"
            evk_uses.setdefault(key, [])
            if not evk_uses[key] or evk_uses[key][-1] != i:
                evk_uses[key].append(i)
            evk_limbs[key] = max(evk_limbs.get(key, 0), op.limbs)

    ranges = {
        v: LiveRange(v, sizes[v], defs[v], tuple(uses[v])) for v in defs
    }
    evk_ranges = {
        key: LiveRange(
            key,
            setting.evk_bytes(prng=prng_evk, limbs=evk_limbs[key]),
            -1,
            tuple(indices),
        )
        for key, indices in evk_uses.items()
    }
    return Liveness(ranges, evk_ranges)
