"""Schedule events — per-op observability for the trace scheduler.

Every scheduling decision the scratchpad allocator makes is recorded
as one :class:`ScheduleEvent` per trace op: which values hit or missed
on-chip, what was fetched, what was evicted (and whether the eviction
had to write dirty data back), and the occupancy after the op retired.
The allocator fills each event in place while it places the op; the
list of them is :attr:`repro.sched.trace.ScheduledTrace.events`, which
benchmarks and tests read to explain *why* off-chip traffic happens —
per-op occupancy, hit rates, and spill attribution by op kind —
instead of trusting a closed-form estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.isa import OpKind

__all__ = ["ScheduleEvent", "Signature", "signature"]

# One entry per event: every decision, byte counts rounded to 1e-3.
Signature = tuple[
    tuple[int, str, int, int, float, float, tuple[str, ...], tuple[str, ...], float], ...
]


@dataclass
class ScheduleEvent:
    """The allocator's decisions for one trace op."""

    index: int
    kind: OpKind
    hits: int = 0
    misses: int = 0
    fetch_bytes: float = 0.0  # off-chip reads (cold fetches + re-fetches)
    writeback_bytes: float = 0.0  # dirty evictions written off-chip
    spill_bytes: float = 0.0  # writebacks + re-fetches of spilled values
    evictions: list[str] = field(default_factory=list)  # evicted placing this op
    fetched: list[str] = field(default_factory=list)  # brought on-chip for this op
    occupancy_bytes: float = 0.0  # scratchpad occupancy after the op
    live_values: int = 0  # resident value count after the op

    @property
    def offchip_bytes(self) -> float:
        """Total off-chip traffic this op caused."""
        return self.fetch_bytes + self.writeback_bytes


def signature(events: list[ScheduleEvent]) -> Signature:
    """Hashable digest of every decision — for determinism checks."""
    return tuple(
        (
            e.index,
            e.kind.value,
            e.hits,
            e.misses,
            round(e.fetch_bytes, 3),
            round(e.writeback_bytes, 3),
            tuple(e.evictions),
            tuple(e.fetched),
            round(e.occupancy_bytes, 3),
        )
        for e in events
    )
