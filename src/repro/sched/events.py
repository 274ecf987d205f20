"""Schedule event log — per-op observability for the trace scheduler.

Every scheduling decision the scratchpad allocator makes is recorded
as one :class:`ScheduleEvent` per trace op: which values hit or missed
on-chip, what was fetched, what was evicted (and whether the eviction
had to write dirty data back), and the occupancy after the op retired.
Benchmarks and tests consume the :class:`ScheduleLog` to explain *why*
off-chip traffic happens — per-op occupancy, hit rates, and spill
attribution by op kind — instead of trusting a closed-form estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hw.isa import OpKind

__all__ = ["ScheduleEvent", "ScheduleLog", "Signature"]

# One entry per event: every decision, byte counts rounded to 1e-3.
Signature = tuple[
    tuple[int, str, int, int, float, float, tuple[str, ...], tuple[str, ...], float], ...
]


@dataclass(frozen=True)
class ScheduleEvent:
    """The allocator's decisions for one trace op."""

    index: int
    kind: OpKind
    hits: int = 0
    misses: int = 0
    fetch_bytes: float = 0.0  # off-chip reads (cold fetches + re-fetches)
    writeback_bytes: float = 0.0  # dirty evictions written off-chip
    spill_bytes: float = 0.0  # writebacks + re-fetches of spilled values
    evictions: tuple[str, ...] = ()  # value ids evicted while placing this op
    fetched: tuple[str, ...] = ()  # value ids brought on-chip for this op
    occupancy_bytes: float = 0.0  # scratchpad occupancy after the op
    live_values: int = 0  # resident value count after the op

    @property
    def offchip_bytes(self) -> float:
        """Total off-chip traffic this op caused."""
        return self.fetch_bytes + self.writeback_bytes


@dataclass
class ScheduleLog:
    """Ordered event log for one scheduled trace."""

    policy: str
    capacity_bytes: float
    events: list[ScheduleEvent] = field(default_factory=list)

    def append(self, event: ScheduleEvent) -> None:
        self.events.append(event)

    # -- aggregate views ---------------------------------------------------------

    @property
    def offchip_bytes(self) -> float:
        return sum(e.offchip_bytes for e in self.events)

    @property
    def spill_bytes(self) -> float:
        return sum(e.spill_bytes for e in self.events)

    @property
    def hits(self) -> int:
        return sum(e.hits for e in self.events)

    @property
    def misses(self) -> int:
        return sum(e.misses for e in self.events)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 1.0

    def spill_by_kind(self) -> dict[OpKind, float]:
        """Spill-byte attribution per op kind (who caused the traffic)."""
        out: dict[OpKind, float] = {}
        for e in self.events:
            if e.spill_bytes:
                out[e.kind] = out.get(e.kind, 0.0) + e.spill_bytes
        return out

    def signature(self) -> Signature:
        """Hashable digest of every decision — for determinism checks."""
        return tuple(
            (
                e.index,
                e.kind.value,
                e.hits,
                e.misses,
                round(e.fetch_bytes, 3),
                round(e.writeback_bytes, 3),
                e.evictions,
                e.fetched,
                round(e.occupancy_bytes, 3),
            )
            for e in self.events
        )
