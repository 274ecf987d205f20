"""``serve_mix``: two tenants against an in-process ``FheServer``, closed loop.

The only workload that crosses ``serve.wire`` -> ``check.admission`` ->
``serve.batching`` -> certificate cache -> ``sched.execute`` -> the
ingress/egress bridge.  Three uses of one server — slot-packed
(``poly``), exclusive (``rotsum``) and refused (``too_deep``) — so a gain
for one that taxes another shows.

Closed loop, two clients (= ``nproc`` of the reference box; one
connection each, everything on one asyncio thread): a tenant sends its
next job when the previous reply arrived.  An open-loop rate sweep needs
more connections than cores and is left out on purpose.
"""

from __future__ import annotations

import asyncio
import statistics
import time
from dataclasses import dataclass
from typing import Any

import numpy as np
from tracer import UNIT
from workload import Phase, Unit, Workload, expired

CLIENTS = 2
WORD_BITS = 36
LANE_WIDTH = 4
MIX = (("poly", 0.85), ("rotsum", 0.10), ("too_deep", 0.05))


def _programs() -> dict[str, Any]:
    from repro.serve.program import ProgramBuilder

    b = ProgramBuilder("poly")  # 0.5 x^2 + x: depth 2, no rotation, batchable
    poly = b.build(b.add_matched(b.multiply_scalar(b.square(b.input), 0.5), b.input))
    b = ProgramBuilder("rotsum")  # rotations force an exclusive batch
    pair = b.add(b.input, b.rotate(b.input, 1))
    rotsum = b.build(b.add(pair, b.rotate(pair, 2)))
    b = ProgramBuilder("too_deep")  # 12 squarings: admission must refuse it
    value = b.input
    for _ in range(12):
        value = b.square(value)
    return {"poly": poly, "rotsum": rotsum, "too_deep": b.build(value)}


def _reference(kind: str, values: np.ndarray) -> np.ndarray:
    if kind == "poly":
        return 0.5 * values * values + values
    padded = np.concatenate([values, np.zeros(3)])  # lanes past the width hold zeros
    pair = padded + np.roll(padded, -1)
    return (pair + np.roll(pair, -2))[: len(values)]


@dataclass
class JobRecord:
    client: int
    kind: str
    values: np.ndarray
    seconds: float
    result: Any  # JobResult, or None when refused
    codes: tuple[str, ...]
    batches: tuple[int, int]  # server batches executed before / after
    engine: tuple[int, int]  # server engine invocations before / after


class ServeMix(Workload):
    name = "serve_mix"
    unit = "admitted job, client-observed"
    work_unit = "completed jobs"
    unit_cost_s = 1 / 5.5  # per client: two clients complete about 11 jobs/s
    aliases = {
        "unit_ms_p50": "latency_ms_p50",
        "unit_ms_tail": "latency_ms_p95",
        "work_per_s": "req_per_s",
    }

    def setup(self, count: int) -> None:
        from repro.serve.client import FheClient
        from repro.serve.offline import ServeOffline
        from repro.serve.server import FheServer

        self.programs = _programs()
        self.loop = asyncio.new_event_loop()
        self.server = FheServer(offline=ServeOffline(seed=self.seed))
        self.loop.run_until_complete(self.server.start())
        self.clients = [
            FheClient("127.0.0.1", self.server.port, seed=1000 * self.seed + index)
            for index in range(CLIENTS)
        ]
        self.jobs = [self._draw_jobs(index, count) for index in range(CLIENTS)]
        self.loop.run_until_complete(self._warm())

    def _draw_jobs(self, client: int, count: int) -> list[tuple[str, np.ndarray]]:
        """Exactly the MIX shares per client, in an order drawn from the seed."""
        rng = np.random.default_rng([self.seed, client])
        rare = {kind: max(1, round(share * count)) for kind, share in MIX[1:]}
        kinds = [kind for kind, n in rare.items() for _ in range(n)]
        kinds += ["poly"] * (count - len(kinds))
        order = rng.permutation(count)
        values = rng.uniform(-1, 1, (count, LANE_WIDTH))
        return [(kinds[slot], values[i]) for i, slot in enumerate(order)]

    async def _warm(self) -> None:
        await asyncio.gather(*(c.enroll(WORD_BITS, width=LANE_WIDTH) for c in self.clients))
        warm = np.full(LANE_WIDTH, 0.25)
        records: list[JobRecord] = []
        for kind in ("poly", "rotsum"):  # fills the certificate cache and key plans
            await asyncio.gather(
                *(self._submit(i, kind, warm, records) for i in range(CLIENTS))
            )
        # Alone on the server, a refusal must leave the engine counter untouched.
        await self._submit(0, "too_deep", warm, records)
        self._verify_records(records)

    async def _submit(
        self, client: int, kind: str, values: np.ndarray, records: list[JobRecord]
    ) -> None:
        from repro.serve.client import JobRejected

        metrics = self.server.metrics
        before = (metrics.batches_executed, metrics.engine_invocations)
        result, codes = None, ()
        t0 = time.perf_counter()
        try:
            result = await self.clients[client].submit(self.programs[kind], values)
        except JobRejected as exc:
            codes = exc.codes
        seconds = time.perf_counter() - t0
        after = (metrics.batches_executed, metrics.engine_invocations)
        records.append(
            JobRecord(client, kind, values, seconds, result, codes,
                      (before[0], after[0]), (before[1], after[1]))
        )  # fmt: skip

    async def _client_loop(
        self, client: int, which: range, deadline: float, records: list[JobRecord]
    ) -> None:
        for index in which:
            if expired(deadline):
                break
            UNIT.set(f"client{client}-job{index}")
            kind, values = self.jobs[client][index]
            await self._submit(client, kind, values, records)

    def measure(self, which: range, deadline: float) -> Phase:
        phase = Phase()
        metrics = self.server.metrics
        engine_before = metrics.engine_invocations

        async def clients() -> None:
            await asyncio.gather(
                *(self._client_loop(i, which, deadline, phase.outputs) for i in range(CLIENTS))
            )

        start = time.perf_counter()
        self.loop.run_until_complete(clients())
        phase.wall_s = time.perf_counter() - start
        for record in phase.outputs:
            admitted = record.result is not None
            phase.units.append(Unit(record.kind, record.seconds, timed=admitted))
            phase.work += admitted
        phase.info["engine_ops"] = metrics.engine_invocations - engine_before
        return phase

    def verify(self, phase: Phase) -> None:
        self._verify_records(phase.outputs)

    def _verify_records(self, records: list[JobRecord]) -> None:
        for record in records:
            label = f"client {record.client} {record.kind}"
            if record.kind == "too_deep":
                quiet = record.batches[0] != record.batches[1] or (
                    record.engine[0] == record.engine[1]
                )
                self.check(
                    record.result is None and bool(record.codes) and quiet,
                    f"{label}: admitted={record.result is not None} codes={record.codes} "
                    f"engine {record.engine}",
                )
                continue
            if record.result is None:
                self.check(False, f"{label}: refused with {record.codes}")
                continue
            floor = record.result.proven_floor_bits
            error = np.max(np.abs(record.result.values - _reference(record.kind, record.values)))
            self.note_error(error)
            self.check(
                floor is not None and error <= 2.0**-floor,
                f"{label}: error {error:.3e} outside proven floor {floor}",
            )

    def extras(self, phase: Phase) -> dict[str, float]:
        metas = [r.result.meta for r in phase.outputs if r.result is not None]
        refused = [r.seconds for r in phase.outputs if r.result is None]

        def p50_ms(samples: list[float]) -> float:
            return statistics.median(samples) * 1e3 if samples else 0.0

        return {
            "queue_wait_ms_p50": p50_ms([float(m["queue_wait_seconds"]) for m in metas]),
            "execute_ms_p50": p50_ms([float(m["execute_seconds"]) for m in metas]),
            "reject_ms_p50": p50_ms(refused),
            "engine_ops_per_job": phase.info["engine_ops"] / max(len(metas), 1),
        }

    def close(self) -> None:
        async def shutdown() -> None:
            await asyncio.gather(*(client.close() for client in self.clients))
            await self.server.close()

        self.loop.run_until_complete(shutdown())
        self.loop.close()
