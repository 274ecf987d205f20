"""Scratchpad allocation with pluggable eviction (Belady / LRU).

Models the paper's Belady data scheduling (S5, observation (10)): the
compiler knows the whole trace, so on-chip eviction can use *future*
use distances — the provably miss-minimal MIN policy for uniform
lines — instead of recency.  Ciphertext temporaries and evaluation
keys share one capacity budget, and residency is decided op by op.

Mechanics shared by both policies:

* values are fetched on first use (cold miss) and re-fetched when a
  previous eviction pushed them off-chip;
* values produced on-chip are *dirty* — evicting one that still has a
  future use writes it back (spill traffic) and re-fetching it later
  is attributed to the same spill;
* evks are clean (HBM always holds them) — eviction is free, re-use
  after eviction pays a fresh stream;
* dead values are freed the moment their last consumer retires, for
  both policies, so the LRU baseline is a fair ablation of the
  eviction decision alone.

Every decision lands in one :class:`repro.sched.events.ScheduleEvent`
per op.
"""

from __future__ import annotations

import math

from repro.hw.isa import Trace
from repro.sched.events import ScheduleEvent
from repro.sched.liveness import INFINITY, Liveness

__all__ = ["POLICIES", "allocate", "check_budget"]

POLICIES = ("belady", "lru")


def check_budget(capacity_bytes: float, policy: str) -> None:
    """Raise ``ValueError`` unless ``policy`` is known and the capacity
    is a positive finite byte count."""
    if policy not in POLICIES:
        raise ValueError(f"unknown eviction policy {policy!r}; pick from {POLICIES}")
    # NaN slips through a plain `<= 0` comparison, so demand a
    # finite positive capacity explicitly.
    if not math.isfinite(capacity_bytes) or capacity_bytes <= 0:
        raise ValueError(
            f"scratchpad capacity must be a positive finite byte "
            f"count, got {capacity_bytes!r}"
        )


def allocate(
    trace: Trace, live: Liveness, capacity_bytes: float, policy: str
) -> list[ScheduleEvent]:
    """Walk an annotated trace, deciding residency op by op.

    ``live`` holds the trace's live ranges, which size every value and
    give Belady its next uses; the result is one event per op.
    """
    check_budget(capacity_bytes, policy)
    capacity = float(capacity_bytes)
    events: list[ScheduleEvent] = []

    resident: dict[str, float] = {}  # value id -> bytes
    dirty: set[str] = set()  # produced on-chip, not yet written back
    spilled: set[str] = set()  # evicted dirty; re-fetch is spill traffic
    streamed: set[str] = set()  # larger than the whole scratchpad
    clock = 0
    last_touch: dict[str, int] = {}
    occupancy = 0.0

    def touch(value: str) -> None:
        nonlocal clock
        clock += 1
        last_touch[value] = clock

    def victim_order(value: str, index: int) -> tuple[float, str]:
        if policy == "belady":
            # Farthest future use goes first; dead-end values
            # (inf) beat everything.  Ties break on the id so the
            # schedule is deterministic.
            return (live.range_of(value).next_use(index), value)
        # LRU: negate recency so the least recent ranks highest.
        return (float(-last_touch[value]), value)

    def evict_for(
        size: float, index: int, pinned: set[str], ev: ScheduleEvent
    ) -> None:
        nonlocal occupancy
        if occupancy + size <= capacity:
            return
        # Evicting moves no score, so residents are ranked once per
        # call; if they run out, the op's working set overflows.
        unpinned = (v for v in resident if v not in pinned)
        for victim in sorted(
            unpinned, key=lambda v: victim_order(v, index), reverse=True
        ):
            if occupancy + size <= capacity:
                break
            vsize = resident.pop(victim)
            occupancy -= vsize
            ev.evictions.append(victim)
            if victim in dirty and live.range_of(victim).next_use(index) != INFINITY:
                dirty.discard(victim)
                spilled.add(victim)
                ev.writeback_bytes += vsize
                ev.spill_bytes += vsize
            else:
                dirty.discard(victim)

    def bring_in(
        value: str, size: float, index: int, pinned: set[str], ev: ScheduleEvent
    ) -> None:
        nonlocal occupancy
        ev.misses += 1
        ev.fetch_bytes += size
        ev.fetched.append(value)
        if value in spilled:
            ev.spill_bytes += size  # re-fetch of spilled data
        if size > capacity:
            streamed.add(value)  # stream through, never resident
            return
        evict_for(size, index, pinned, ev)
        resident[value] = size
        occupancy += size

    for i, op in enumerate(trace.ops):
        dst = op.dst
        if dst is None:  # pragma: no cover - liveness demands annotations
            raise ValueError(f"op {i} of {trace.name!r} lacks a dst value")
        ev = ScheduleEvent(i, op.kind)
        srcs = dict.fromkeys(op.srcs)
        needed = [(src, live.ranges[src].size_bytes) for src in srcs]
        key = None if op.key_id is None else f"evk:{op.key_id}"
        if key is not None:
            needed.append((key, live.evk_ranges[key].size_bytes))
        pinned = {v for v, _ in needed} | {dst}

        for value, size in needed:
            touch(value)
            if value in resident:
                ev.hits += 1
            elif value in streamed:
                ev.misses += 1
                ev.fetch_bytes += size  # re-streamed every use
            else:
                bring_in(value, size, i, pinned, ev)

        # Define the result on-chip (dirty until written back).
        dsize = live.ranges[dst].size_bytes
        touch(dst)
        if dsize > capacity:
            streamed.add(dst)
            ev.writeback_bytes += dsize  # can only live off-chip
            ev.spill_bytes += dsize
            spilled.add(dst)
        else:
            evict_for(dsize, i, pinned, ev)
            resident[dst] = dsize
            occupancy += dsize
            dirty.add(dst)

        # Retire dead values: anything whose last use just passed.
        for value in [*srcs, dst]:
            r = live.ranges.get(value)
            if r is not None and r.last_use <= i and value in resident:
                occupancy -= resident.pop(value)
                dirty.discard(value)
        if key is not None and live.evk_ranges[key].last_use <= i and key in resident:
            occupancy -= resident.pop(key)

        ev.occupancy_bytes = occupancy
        ev.live_values = len(resident)
        events.append(ev)
    return events
