"""The scheduler's product: a trace plus its allocation decisions.

A :class:`ScheduledTrace` bundles an (optionally fused) annotated
trace with the liveness analysis and the scratchpad allocator's event
log.  ``Simulator.run`` prices it: each op's off-chip bytes and spill
traffic are the recorded decisions (a plain trace handed to ``run`` is
scheduled first).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from repro.hw.isa import HeOp, Trace
from repro.params.presets import WordLengthSetting
from repro.sched.alloc import POLICIES, ScratchpadAllocator
from repro.sched.events import ScheduleLog, Signature
from repro.sched.fusion import FusionReport, fuse_trace
from repro.sched.liveness import Liveness, analyze_liveness

__all__ = ["ScheduledTrace", "schedule_digest", "schedule_trace", "trace_digest"]


def trace_digest(trace: Trace) -> str:
    """Content digest of a trace: name, normalize, and every op field.

    The canonical form is JSON with sorted keys, so the digest is
    stable across processes and Python versions; two traces share a
    digest iff they are op-for-op identical.  Equivalence certificates
    (:mod:`repro.check.equiv`) bind to this.
    """
    payload = {
        "name": trace.name,
        "normalize": trace.normalize,
        "ops": [
            {
                "kind": op.kind.value,
                "limbs": op.limbs,
                "drop": op.drop,
                "key_id": op.key_id,
                "count": op.count,
                "dst": op.dst,
                "srcs": list(op.srcs),
            }
            for op in trace.ops
        ],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass
class ScheduledTrace:
    """An annotated trace with its schedule fully decided."""

    trace: Trace
    liveness: Liveness
    log: ScheduleLog
    fusion: FusionReport | None = None

    # -- Trace-compatible surface -------------------------------------------------

    @property
    def name(self) -> str:
        return self.trace.name

    @property
    def ops(self) -> list[HeOp]:
        return self.trace.ops

    @property
    def policy(self) -> str:
        return self.log.policy

    @property
    def capacity_bytes(self) -> float:
        return self.log.capacity_bytes

    @property
    def offchip_bytes(self) -> float:
        return self.log.offchip_bytes

    @property
    def spill_bytes(self) -> float:
        return self.log.spill_bytes

    def digest(self) -> str:
        """Content digest of the whole scheduling artifact.

        Covers the (possibly fused) trace, the eviction policy and
        capacity, and the full per-op decision signature of the
        schedule log — any tampering with an op, a fetch list, or a
        byte count lands on a different digest.  Equivalence
        certificates bind to this.
        """
        return schedule_digest(self, self.log.signature())


def schedule_digest(sched: ScheduledTrace, signature: Signature) -> str:
    """:meth:`ScheduledTrace.digest`, given ``sched.log``'s signature."""
    payload = {
        "trace": trace_digest(sched.trace),
        "policy": sched.log.policy,
        "capacity_bytes": sched.log.capacity_bytes,
        "events": signature,  # JSON writes tuples as arrays
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
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
    if policy not in POLICIES:
        raise ValueError(
            f"unknown eviction policy {policy!r}; pick from {POLICIES}"
        )
    if not math.isfinite(capacity_bytes) or capacity_bytes <= 0:
        raise ValueError(
            f"scratchpad capacity must be a positive finite byte count, "
            f"got {capacity_bytes!r}"
        )
    report = None
    if fuse:
        trace, report = fuse_trace(trace)
    liveness = analyze_liveness(trace, setting, prng_evk=prng_evk)
    log = ScratchpadAllocator(capacity_bytes, policy=policy).run(
        trace, setting, prng_evk=prng_evk, liveness=liveness
    )
    return ScheduledTrace(trace=trace, liveness=liveness, log=log, fusion=report)
