"""``compile_sweep``: schedule -> certify -> simulate, no ciphertext anywhere.

The compiler / verifier / simulator stack with the engine bypassed:
ROADMAP's "one IR per stage" and interpreter-merging refactors must hold
this rate, and every engine optimisation must leave it unmoved.  A unit
is one column — the five evaluation traces under one (word length,
explicit rescale, eviction policy) design point — because single cells
differ a hundredfold in size and their median would be one cell's time.
Simulated statistics are exact, so they double as the correctness
check: a cell simulated twice must give identical numbers, and the
fingerprint over all cells moves only when the modelled design does.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
from tracer import UNIT
from workload import Phase, Unit, Workload, expired

COLUMNS = [
    (word_bits, explicit_rescale, policy)
    for word_bits in (28, 36, 48, 64)
    for explicit_rescale in (False, True)
    for policy in ("belady", "lru")
]
WARM_COLUMN = (36, False, "belady")


class CompileSweep(Workload):
    name = "compile_sweep"
    unit = "column (five traces scheduled, certified, simulated)"
    work_unit = "source HE ops"
    unit_cost_s = 1.25
    aliases = {"work_per_s": "compile_ops_per_s"}

    def setup(self, count: int) -> None:
        from repro.core.config import sharp_config
        from repro.params.presets import build_sharp_setting

        self.config = sharp_config()
        self.settings = {bits: build_sharp_setting(bits) for bits in (28, 36, 48, 64)}
        # The seed draws the order the columns are compiled in; the set
        # of cells is the same for every seed.
        order = np.random.default_rng([self.seed, 80]).permutation(len(COLUMNS))
        self.columns = [COLUMNS[order[i % len(COLUMNS)]] for i in range(count)]
        self.stats: dict[str, tuple[float, float, str]] = {}
        warm = Phase()
        self._column(WARM_COLUMN, warm)
        self.verify(warm)

    def trace_split(self, count: int) -> tuple[range, range]:
        """Trace the whole sweep; time a quarter of it untraced beforehand."""
        return range(0, count // 4), range(0, count)

    def _column(self, column: tuple[int, bool, str], phase: Phase) -> None:
        from repro.check import equiv
        from repro.hw.sim import Simulator
        from repro.sched import trace as sched_trace
        from repro.workloads import traces

        word_bits, explicit_rescale, policy = column
        label = f"{word_bits}-{'explicit' if explicit_rescale else 'folded'}-{policy}"
        setting = self.settings[word_bits]
        capacity = self.config.onchip_capacity_bytes
        t0 = time.perf_counter()
        # Module attributes are looked up per call, so the traced run's
        # wrappers are the ones invoked.
        simulator = Simulator(self.config, setting)
        sources = traces.evaluation_traces(setting, explicit_rescale=explicit_rescale)
        for name, source in sources.items():
            cell = f"{label}-{name}"
            UNIT.set(cell)
            try:
                scheduled = sched_trace.schedule_trace(
                    source, setting, capacity, policy=policy, fuse=True
                )
                certificate = equiv.certify_schedule(source, scheduled, setting)
                result = simulator.run(scheduled)
            except equiv.EquivError as exc:
                phase.outputs.append((cell, None, f"{type(exc).__name__}: {exc}"))
                continue
            phase.work += len(source.ops)
            stats = (result.seconds, result.offchip_bytes, certificate.schedule_digest)
            phase.outputs.append((cell, stats, ""))
        phase.units.append(Unit(label, time.perf_counter() - t0))

    def measure(self, which: range, deadline: float) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        for index in which:
            if expired(deadline):
                break
            self._column(self.columns[index], phase)
        phase.wall_s = time.perf_counter() - start
        return phase

    def verify(self, phase: Phase) -> None:
        for cell, stats, error in phase.outputs:
            if stats is None:
                self.check(False, f"cell {cell}: {error}")
                continue
            first = self.stats.setdefault(cell, stats)
            self.check(first == stats, f"cell {cell}: simulated statistics differ: {first} {stats}")

    def extras(self, phase: Phase) -> dict[str, float]:
        cells = sorted((cell, stats) for cell, stats, _ in phase.outputs if stats is not None)
        digest = hashlib.sha256(repr(cells).encode()).hexdigest()
        # 48 bits of the digest: exact in a float, so it survives JSON.
        return {"stats_fingerprint": float(int(digest[:12], 16))}
