"""``ops_n14``: evaluator rounds at N = 2^14, 36-bit words — kernel-bound.

Three key-switches on three hot keys per round (relinearization,
rotate-by-1, rotate-by-2), so the evaluation-key cache always hits and
the time is NTT, BConv and the key-switch inner product.  This is where
``ntt.plan`` / ``rns.bconv`` / ``rns.kernels`` changes must show, and
where ckks-level bookkeeping changes must not.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np
from model import model_table
from tracer import UNIT
from workload import Phase, Unit, Workload, expired

DEGREE = 1 << 14
WORD_BITS = 36
DEPTH = 6
MIN_PRECISION_BITS = 20.0


class OpsN14(Workload):
    name = "ops_n14"
    unit = "round"
    work_unit = "rounds"
    unit_cost_s = 0.55
    aliases = {"unit_ms_p50": "round_ms_p50"}

    def setup(self, count: int) -> None:
        from repro.ckks.context import CkksContext
        from repro.ckks.ops import Evaluator
        from repro.params.presets import build_native_ckks_params

        self.params = build_native_ckks_params(WORD_BITS, degree=DEGREE, depth=DEPTH)
        self.context = CkksContext(self.params, seed=self.seed)
        self.evaluator = Evaluator(self.context)
        rng = np.random.default_rng([self.seed, 14])
        slots = self.params.slots
        self.message = rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)
        self.weights = rng.uniform(-1, 1, (count + 1, slots))
        self.x = self.context.encrypt(self.message)
        self._round(self.weights[count])  # warm: builds the three keys and all plans

    def _round(self, weights: np.ndarray) -> Any:
        ev, x = self.evaluator, self.x
        r = ev.multiply(x, x)
        s = ev.add(ev.rotate(r, 1), ev.rotate(r, 2))
        scale = self.params.step_at(s.level).scale
        pt = self.context.encode(weights, level=s.level, scale=scale)
        return ev.multiply_plain(s, pt, rescale=True)

    def measure(self, which: range, deadline: float) -> Phase:
        phase = Phase()
        start = time.perf_counter()
        for index in which:
            if expired(deadline):
                break
            UNIT.set(f"round-{index}")
            t0 = time.perf_counter()
            out = self._round(self.weights[index])
            phase.units.append(Unit("round", time.perf_counter() - t0))
            phase.outputs.append((index, out))
        phase.wall_s = time.perf_counter() - start
        phase.work = len(phase.units)
        return phase

    def verify(self, phase: Phase) -> None:
        squared = self.message * self.message
        rotated = np.roll(squared, -1) + np.roll(squared, -2)
        for index, out in phase.outputs:
            error = np.max(np.abs(self.context.decrypt(out) - rotated * self.weights[index]))
            self.note_error(error)
            self.check(
                error < 2.0**-MIN_PRECISION_BITS,
                f"round {index}: error {error:.3e} exceeds 2^-{MIN_PRECISION_BITS:g}",
            )

    def report(self, summary: Any) -> list[str]:
        return model_table(self.name, summary)
