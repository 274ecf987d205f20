"""``bootstrap_n9``: full bootstraps on a small ring — deep, cache-hostile.

One bootstrap is 169 key-switches over 32 distinct evaluation keys
(against an 8-entry evk cache per chain) and 1 140 on-the-fly encodes:
the same ``ckks.keyswitch`` layer as ``ops_n14`` in the opposite cache
regime, so a key-cache or pre-encoding gain shows here, and so does what
such caching costs in memory and set-up.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np
from model import model_table
from tracer import UNIT
from workload import Phase, Unit, Workload, expired

PARAMS = dict(
    degree=1 << 9, slots=256, scale_bits=23, depth=2,
    boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
)  # fmt: skip
OUTPUT_LEVEL = 2
MIN_PRECISION_BITS = 12.0


class BootstrapN9(Workload):
    name = "bootstrap_n9"
    unit = "bootstrap"
    work_unit = "bootstraps"
    unit_cost_s = 7.0
    aliases = {"unit_ms_p50": "bootstrap_s_p50 (x1000)"}

    def setup(self, count: int) -> None:
        from repro.ckks.bootstrap import Bootstrapper
        from repro.ckks.context import CkksContext, make_params
        from repro.ckks.ops import Evaluator

        params = make_params(**PARAMS)
        self.context = CkksContext(params, seed=self.seed)
        self.bootstrapper = Bootstrapper(self.context, Evaluator(self.context))
        rng = np.random.default_rng([self.seed, 9])
        shape = (count + 1, params.slots)
        self.messages = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
        self.bootstrapper.bootstrap(self.context.encrypt(self.messages[count], level=0))

    def measure(self, which: range, deadline: float) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        for index in which:
            if expired(deadline):
                break
            UNIT.set(f"bootstrap-{index}")
            ct = self.context.encrypt(self.messages[index], level=0)
            t0 = time.perf_counter()
            out, report = self.bootstrapper.bootstrap(ct)
            phase.units.append(Unit("bootstrap", time.perf_counter() - t0))
            phase.outputs.append((index, out, report))
        phase.wall_s = time.perf_counter() - start
        phase.work = len(phase.units)
        return phase

    def verify(self, phase: Phase) -> None:
        for index, out, report in phase.outputs:
            error = np.max(np.abs(self.context.decrypt(out) - self.messages[index]))
            self.note_error(error)
            self.check(
                report.output_level == OUTPUT_LEVEL and error < 2.0**-MIN_PRECISION_BITS,
                f"bootstrap {index}: level {report.output_level}, error {error:.3e}",
            )

    def report(self, summary: Any) -> list[str]:
        return model_table(self.name, summary)
