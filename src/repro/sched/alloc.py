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
from repro.sched.liveness import Liveness

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
    belady = policy == "belady"
    events: list[ScheduleEvent] = []

    # Ciphertexts and keys in one map (a ciphertext id shadows a key id).
    ranges = {**live.evk_ranges, **live.ranges}

    resident: dict[str, float] = {}  # value id -> bytes
    dirty: set[str] = set()  # produced on-chip, not yet written back
    spilled: set[str] = set()  # evicted dirty; re-fetch is spill traffic
    streamed: set[str] = set()  # larger than the whole scratchpad
    # Eviction score, set at each touch: Belady's next use (an untouched
    # resident is unused in between, so it stays its next use; inf for
    # none) or LRU's negated recency.  Highest goes first; ties on the id.
    score: dict[str, float] = {}
    clock = 0
    occupancy = 0.0

    def evict_for(
        need: float, index: int, pinned: set[str], ev: ScheduleEvent
    ) -> None:
        """Evict until ``need`` more bytes fit (called when they do not)."""
        nonlocal occupancy
        # Evicting moves no score, so residents are ranked once per call;
        # if they run out, the op's working set overflows.
        ranked = [(score[v], v) for v in resident if v not in pinned]
        ranked.sort(reverse=True)
        for _, victim in ranked:
            if occupancy + need <= capacity:
                break
            vsize = resident.pop(victim)
            occupancy -= vsize
            ev.evictions.append(victim)
            if victim in dirty:
                dirty.discard(victim)
                later = ranges[victim].uses
                if later and later[-1] > index:  # used again: write it back
                    spilled.add(victim)
                    ev.writeback_bytes += vsize
                    ev.spill_bytes += vsize

    for i, op in enumerate(trace.ops):
        dst = op.dst
        if dst is None:  # pragma: no cover - liveness demands annotations
            raise ValueError(f"op {i} of {trace.name!r} lacks a dst value")
        ev = ScheduleEvent(i, op.kind)
        srcs = op.unique_srcs
        key = None if op.key_id is None else f"evk:{op.key_id}"
        needed = srcs if key is None else (*srcs, key)
        pinned = {*needed, dst}

        for value in needed:
            score[value] = ranges[value].next_use(i) if belady else -(clock := clock + 1)
            if value in resident:
                ev.hits += 1
                continue
            vsize = ranges[value].size_bytes
            ev.misses += 1
            ev.fetch_bytes += vsize
            if value in streamed:
                continue  # re-streamed every use
            ev.fetched.append(value)
            if value in spilled:
                ev.spill_bytes += vsize  # re-fetch of spilled data
            if vsize > capacity:
                streamed.add(value)  # stream through, never resident
                continue
            if occupancy + vsize > capacity:
                evict_for(vsize, i, pinned, ev)
            resident[value] = vsize
            occupancy += vsize

        # Define the result on-chip (dirty until written back).
        dsize = ranges[dst].size_bytes
        score[dst] = ranges[dst].next_use(i) if belady else -(clock := clock + 1)
        if dsize > capacity:
            streamed.add(dst)
            ev.writeback_bytes += dsize  # can only live off-chip
            ev.spill_bytes += dsize
            spilled.add(dst)
        else:
            if occupancy + dsize > capacity:
                evict_for(dsize, i, pinned, ev)
            resident[dst] = dsize
            occupancy += dsize
            dirty.add(dst)

        # Retire dead values: anything whose last use just passed.
        for value in (*srcs, dst):
            if value in resident and ranges[value].last_use <= i:
                occupancy -= resident.pop(value)
                dirty.discard(value)
        if key is not None and key in resident and ranges[key].last_use <= i:
            occupancy -= resident.pop(key)

        ev.occupancy_bytes = occupancy
        ev.live_values = len(resident)
        events.append(ev)
    return events
