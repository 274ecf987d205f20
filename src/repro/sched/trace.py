"""The scheduler's product: a trace plus its allocation decisions.

A :class:`ScheduledTrace` is an (optionally fused) annotated trace,
the policy, capacity and key sizing it was scheduled under, and the
scratchpad allocator's events.  ``Simulator.run`` prices it: each op's
off-chip bytes and spill traffic are the recorded decisions (a plain
trace handed to ``run`` is scheduled first).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.hw.isa import HeOp, Trace, json_text
from repro.params.presets import WordLengthSetting
from repro.sched.alloc import allocate, check_budget
from repro.sched.events import ScheduleEvent, Signature, signature
from repro.sched.fusion import fuse_trace
from repro.sched.liveness import analyze_liveness

__all__ = ["ScheduledTrace", "schedule_digest", "schedule_trace", "trace_digest"]


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace: name, normalize, and every op field.

    The canonical form is what ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` writes for ``{"name", "normalize", "ops":
    [op, ...]}``, assembled key by key (each op's object is
    :attr:`HeOp.canonical_json`); two traces share a digest iff they are
    op-for-op identical.  Certificates bind to it, so its bytes are pinned.
    """
    ops = ",".join(op.canonical_json for op in trace.ops)
    name, normalize = json_text(trace.name), json_text(trace.normalize)
    blob = f'{{"name":{name},"normalize":{normalize},"ops":[{ops}]}}'
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class ScheduledTrace:
    """An annotated trace with its schedule fully decided: the eviction
    policy, capacity and key sizing (PRNG-compressed evks or not) it was
    scheduled under, and one allocator event per op."""

    trace: Trace
    policy: str
    capacity_bytes: float
    prng_evk: bool
    events: list[ScheduleEvent]

    # -- Trace-compatible surface -------------------------------------------------

    @property
    def name(self) -> str:
        return self.trace.name

    @property
    def ops(self) -> list[HeOp]:
        return self.trace.ops

    # -- aggregate views ---------------------------------------------------------

    @property
    def offchip_bytes(self) -> float:
        return sum(e.offchip_bytes for e in self.events)

    @property
    def spill_bytes(self) -> float:
        return sum(e.spill_bytes for e in self.events)

    def hit_rate(self) -> float:
        hits = sum(e.hits for e in self.events)
        total = hits + sum(e.misses for e in self.events)
        return hits / total if total else 1.0

    def digest(self) -> str:
        """Content digest of the whole scheduling artifact.

        Covers the (possibly fused) trace, the eviction policy and
        capacity, and the full per-op decision signature of the
        events — any tampering with an op, a fetch list, or a byte
        count lands on a different digest (the key sizing stays out:
        the events' bytes bind it, and the replay refuses a flag that
        disagrees).  Equivalence certificates bind to this.
        """
        return schedule_digest(self, signature(self.events))


def schedule_digest(sched: ScheduledTrace, decisions: Signature) -> str:
    """:meth:`ScheduledTrace.digest`, given the signature of its events:
    the canonical JSON of ``{"capacity_bytes", "events": decisions,
    "policy", "trace": trace_digest(sched.trace)}``, keys sorted."""
    events = json.dumps(decisions, separators=(",", ":"))  # tuples as arrays
    blob = (
        f'{{"capacity_bytes":{json_text(sched.capacity_bytes)},"events":{events},'
        f'"policy":{json_text(sched.policy)},"trace":{json_text(trace_digest(sched.trace))}}}'
    )
    return hashlib.sha256(blob.encode()).hexdigest()


def schedule_trace(
    trace: Trace,
    setting: WordLengthSetting,
    capacity_bytes: float,
    policy: str = "belady",
    prng_evk: bool = True,
    fuse: bool = False,
) -> ScheduledTrace:
    """Run the scheduling pipeline: (fusion) -> liveness -> allocation.

    Rejects non-positive / non-finite capacities and unknown policies
    up front, before any fusion or liveness work runs.
    """
    check_budget(capacity_bytes, policy)
    if fuse:
        trace, _ = fuse_trace(trace)
    live = analyze_liveness(trace, setting, prng_evk=prng_evk)
    events = allocate(trace, live, capacity_bytes, policy)
    return ScheduledTrace(trace, policy, float(capacity_bytes), prng_evk, events)
