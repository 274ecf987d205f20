"""What the four workloads share: units, phases, and failure accounting.

A *unit* is the piece of work a caller waits for (a round, a bootstrap,
a served job, one compiled column).  A workload runs a fixed number of
units derived from ``--seconds`` by its nominal unit cost on the
reference box, so call counts repeat exactly for a given command line;
a deadline only cuts a run short on a machine several times slower.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any


@dataclass
class Unit:
    key: str  # units with equal keys do equal work (traced vs untraced pairs)
    seconds: float
    timed: bool = True  # refused jobs are attempted but have no service latency


@dataclass
class Phase:
    """One measured stretch: wall clock, its units, and what verify() needs."""

    wall_s: float = 0.0
    work: float = 0.0  # numerator of work_per_s
    units: list[Unit] = field(default_factory=list)
    outputs: list[Any] = field(default_factory=list)
    info: dict[str, float] = field(default_factory=dict)  # feeds Workload.extras()

    def timed_seconds(self) -> list[float]:
        return [unit.seconds for unit in self.units if unit.timed]


class Workload:
    """Base class; subclasses fill in set-up, measure and verify."""

    name = ""
    unit = ""  # what one unit is called
    work_unit = ""  # what work_per_s counts
    unit_cost_s = 1.0  # nominal seconds per unit on the reference box
    aliases: dict[str, str] = {}  # end-to-end metric -> the name ISSUE 11 gave it here

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.attempted = 0
        self.failures: list[str] = []
        self.worst_error = 0.0  # max |decrypted - reference| over verified outputs

    # -- sizing ---------------------------------------------------------------

    def count(self, seconds: float) -> int:
        return max(1, round(seconds / self.unit_cost_s))

    def trace_split(self, count: int) -> tuple[range, range]:
        """Units run untraced first, then traced, in a ``--trace 1`` run."""
        half = count // 2
        return range(0, half), range(half, count)

    # -- lifecycle ------------------------------------------------------------

    def setup(self, count: int) -> None:
        """Build contexts and keys, draw ``count`` units of input, warm up."""
        raise NotImplementedError

    def measure(self, which: range, deadline: float) -> Phase:
        raise NotImplementedError

    def verify(self, phase: Phase) -> None:
        raise NotImplementedError

    def extras(self, phase: Phase) -> dict[str, float]:
        """Per-layer values only the workload can see (server stats, digests)."""
        return {}

    def report(self, summary: Any) -> list[str]:
        """Extra human-readable lines for a traced run."""
        return []

    def close(self) -> None:
        pass

    # -- accounting -----------------------------------------------------------

    def check(self, ok: bool, message: str) -> None:
        """Count one attempted operation; record it as failed unless ``ok``."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def note_error(self, error: float) -> None:
        self.worst_error = max(self.worst_error, float(error))

    @property
    def precision_bits(self) -> float:
        return -math.log2(self.worst_error) if self.worst_error > 0 else 0.0


def expired(deadline: float) -> bool:
    return time.perf_counter() > deadline
