"""The online phase: an asyncio FHE service with verified admission.

Request lifecycle (the load-bearing design point is step 3):

1. **enroll** — the connection runs the offline ceremony of
   :mod:`repro.serve.offline` and gets a :class:`TenantSession`;
2. **submit** — a ``JOB`` frame carries the program IR plus one
   ciphertext encrypted under the tenant's own key;
3. **admit** — the program, wrapped in the batching pipeline's fixed
   overhead (:func:`repro.serve.batching.service_wrapped`), is folded
   over the abstract domains of :mod:`repro.check.admission`.  A
   rejected job is answered from the verdict's diagnostic codes and
   *never reaches the engine*: the rejection path executes zero
   evaluator operations, zero NTTs — the server's compute stays
   reserved for jobs that are proven to succeed;
4. **batch** — admitted jobs wait up to ``batch_window`` seconds for
   lane-mates with the same ``(word_bits, program digest)`` batch key,
   then :func:`repro.serve.batching.plan_batches` packs them;
5. **execute** — the program body is lowered to an HE-op trace, fused
   and scheduled by :func:`repro.sched.schedule_trace` against the
   configured on-chip capacity, *proven equivalent to the source
   lowering* by :mod:`repro.check.equiv` (certificates are cached per
   program digest, least recently used evicted), and only then run
   through the certificate-gated executor
   :func:`repro.sched.execute.execute_scheduled`;
   ingress/egress key switches bridge tenant and batch keys;
6. **respond** — each tenant gets its masked lane back under its own
   key, with per-request metrics (queue wait, verify time, execute
   time, batch occupancy) echoed in the result metadata and aggregated
   behind the ``STATS`` endpoint.
"""

from __future__ import annotations

import asyncio
import logging
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Collection

from repro.check.admission import AdmissionVerdict, admit_program
from repro.serve import wire
from repro.serve.batching import BatchJob, BatchPlan, plan_batches, service_wrapped
from repro.serve.offline import ServeOffline, ServePreset
from repro.serve.program import EvalProgram
from repro.serve.session import TenantSession

if TYPE_CHECKING:
    from repro.check.equiv import EquivCertificate
    from repro.ckks.cipher import Ciphertext
    from repro.hw.isa import Trace
    from repro.sched.trace import ScheduledTrace

__all__ = ["FheServer", "ServerMetrics"]

# Server-side log discipline: every line identifies work by *digest* —
# session ids, job ids, program digests, diagnostic codes — never by
# content.  Program bodies, ciphertext limbs, key material, and peer
# payload bytes must not reach a log record; repro.check.secflow
# verifies this statically.
_log = logging.getLogger("repro.serve.server")

# A long-lived server's memory must not grow with the number of jobs or
# of distinct programs it has seen.
CERTIFICATE_CACHE_SIZE = 64  # certified schedules kept, least recently used out
METRIC_WINDOW = 4096  # most recent samples each STATS series keeps


def _window() -> "deque[Any]":
    return deque(maxlen=METRIC_WINDOW)


def _percentile(samples: Collection[float], fraction: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


@dataclass
class ServerMetrics:
    """Aggregated online-phase counters (the ``STATS`` payload)."""

    jobs_submitted: int = 0
    jobs_admitted: int = 0
    jobs_rejected: int = 0
    jobs_completed: int = 0
    jobs_failed: int = 0
    engine_invocations: int = 0  # evaluator ops run for job execution
    batches_executed: int = 0
    schedules_certified: int = 0  # equivalence certificates minted
    # Digest-only audit trail of what was certified: program *digests*,
    # never program bodies, reach the metrics/STATS surface.
    certified_digests: "deque[str]" = field(default_factory=_window)
    verify_seconds_total: float = 0.0
    queue_wait: "deque[float]" = field(default_factory=_window)
    execute_seconds: "deque[float]" = field(default_factory=_window)
    total_latency: "deque[float]" = field(default_factory=_window)
    occupancies: "deque[float]" = field(default_factory=_window)

    def to_dict(self) -> dict[str, Any]:
        mean_occ = (
            sum(self.occupancies) / len(self.occupancies) if self.occupancies else 0.0
        )
        return {
            "jobs": {
                "submitted": self.jobs_submitted,
                "admitted": self.jobs_admitted,
                "rejected": self.jobs_rejected,
                "completed": self.jobs_completed,
                "failed": self.jobs_failed,
            },
            "engine_invocations": self.engine_invocations,
            "batches_executed": self.batches_executed,
            "schedules_certified": self.schedules_certified,
            "certified_digests": list(self.certified_digests),
            "verify_seconds_total": self.verify_seconds_total,
            "latency_p50_s": _percentile(self.total_latency, 0.50),
            "latency_p95_s": _percentile(self.total_latency, 0.95),
            "queue_wait_p50_s": _percentile(self.queue_wait, 0.50),
            "execute_p50_s": _percentile(self.execute_seconds, 0.50),
            "mean_batch_occupancy": mean_occ,
        }


@dataclass
class _PendingJob:
    """An admitted job waiting for the batch worker."""

    word_bits: int
    job: BatchJob
    verdict: AdmissionVerdict
    future: "asyncio.Future[tuple[Ciphertext, dict[str, Any]]]"
    enqueued_at: float
    submitted_at: float


class FheServer:
    """Multi-tenant CKKS service over the :mod:`repro.serve.wire` protocol."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        offline: ServeOffline | None = None,
        batch_window: float = 0.05,
        max_batch: int = 16,
        min_floor_bits: float = 1.0,
    ):
        self.host = host
        self.port = port
        self.offline = offline if offline is not None else ServeOffline()
        self.batch_window = batch_window
        self.max_batch = max_batch
        self.min_floor_bits = min_floor_bits
        self.metrics = ServerMetrics()
        self.sessions: dict[str, TenantSession] = {}
        self._certified: OrderedDict[
            "tuple[int, str]", "tuple[Trace, ScheduledTrace, EquivCertificate]"
        ] = OrderedDict()
        self._queue: asyncio.Queue[_PendingJob] = asyncio.Queue()
        self._server: asyncio.AbstractServer | None = None
        self._worker: asyncio.Task[None] | None = None

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        sockets = self._server.sockets or ()
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._worker = asyncio.get_running_loop().create_task(self._batch_worker())

    async def close(self) -> None:
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
            self._worker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # -- connection handling -------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            session, preset = await self._enroll(reader, writer)
            if session is None or preset is None:
                return
            while True:
                try:
                    kind, payload = await wire.read_frame(reader)
                except asyncio.IncompleteReadError:
                    break  # clean hang-up
                if kind == wire.Kind.BYE:
                    break
                if kind == wire.Kind.STATS_REQUEST:
                    wire.write_frame(
                        writer, wire.Kind.STATS, wire.encode_json(self.stats())
                    )
                    await writer.drain()
                    continue
                if kind == wire.Kind.JOB:
                    await self._handle_job(session, preset, payload, writer)
                    continue
                self._send_error(writer, f"unexpected frame {kind.name} mid-session")
                await writer.drain()
        except wire.WireError as exc:
            self._send_error(writer, str(exc))
            try:
                await writer.drain()
            except ConnectionError:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _enroll(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[TenantSession | None, ServePreset | None]:
        kind, payload = await wire.read_frame(reader)
        if kind != wire.Kind.HELLO:
            self._send_error(writer, f"expected HELLO, got {kind.name}")
            await writer.drain()
            return None, None
        hello = wire.decode_json(payload)
        try:
            requested = int(hello["requested_bits"])  # type: ignore[arg-type]
            width = int(hello["width"])  # type: ignore[arg-type]
            word_bits = self.offline.negotiate(requested)
            preset = self.offline.preset(word_bits)
            if width < 1 or width > preset.slots:
                raise ValueError(
                    f"lane width {width} out of range [1, {preset.slots}]"
                )
        except (KeyError, TypeError, ValueError) as exc:
            self._send_error(writer, f"negotiation failed: {exc}")
            await writer.drain()
            return None, None

        wire.write_frame(
            writer,
            wire.Kind.PARAMS,
            wire.encode_json(
                {
                    "word_bits": word_bits,
                    "slots": preset.slots,
                    "scale_bits": float(preset.params.scale_bits),
                    "spec": preset.params.to_spec(),
                }
            ),
        )
        wire.write_frame(
            writer,
            wire.Kind.PUBLIC_KEY,
            wire.encode_public_key(preset.batch_public_key()),
        )
        await writer.drain()

        ring = preset.context.ring
        kind, payload = await wire.read_frame(reader)
        if kind != wire.Kind.PUBLIC_KEY:
            self._send_error(writer, f"expected PUBLIC_KEY, got {kind.name}")
            await writer.drain()
            return None, None
        tenant_pk = wire.decode_public_key(payload, ring)
        kind, payload = await wire.read_frame(reader)
        if kind != wire.Kind.SWITCH_KEY:
            self._send_error(writer, f"expected SWITCH_KEY, got {kind.name}")
            await writer.drain()
            return None, None
        evk_in = wire.decode_switch_key(payload, ring)

        session = self.offline.enroll(word_bits, width, tenant_pk, evk_in)
        self.sessions[session.session_id] = session
        _log.info(
            "enrolled session=%s word_bits=%d width=%d",
            session.session_id,
            word_bits,
            width,
        )
        wire.write_frame(
            writer,
            wire.Kind.ENROLLED,
            wire.encode_json(
                {
                    "session_id": session.session_id,
                    "word_bits": word_bits,
                    "width": width,
                    "slots": preset.slots,
                }
            ),
        )
        await writer.drain()
        return session, preset

    async def _handle_job(
        self,
        session: TenantSession,
        preset: ServePreset,
        payload: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        submitted_at = time.perf_counter()
        self.metrics.jobs_submitted += 1
        session.jobs_submitted += 1
        job_id = session.next_job_id()

        blobs = wire.decode_blobs(payload)
        if len(blobs) != 3:
            self._send_error(writer, f"JOB frame needs 3 blobs, got {len(blobs)}")
            await writer.drain()
            return
        _meta, program_blob, ct_blob = blobs
        program = wire.decode_program(program_blob)

        # Admission: static verification of the program as the batching
        # pipeline will actually run it.  Nothing past this point
        # executes unless every pass is clean.
        verdict = admit_program(
            lambda ev: service_wrapped(program, ev, ev.fresh()),
            preset.abstract,
            noise_program=lambda ev: service_wrapped(program, ev, ev.encrypt()),
            noise_params=preset.noise,
            min_floor_bits=self.min_floor_bits,
            label=job_id,
        )
        self.metrics.verify_seconds_total += verdict.verify_seconds
        if not verdict.admitted:
            self.metrics.jobs_rejected += 1
            session.jobs_rejected += 1
            _log.info(
                "job rejected job=%s program=%s codes=%s",
                job_id,
                program.digest(),
                ",".join(sorted(verdict.error_codes)),
            )
            wire.write_frame(
                writer,
                wire.Kind.ERROR,
                wire.encode_json(
                    {
                        "job_id": job_id,
                        "error": "admission rejected",
                        "verdict": verdict.to_dict(),
                    }
                ),
            )
            await writer.drain()
            return

        # Only now is the ciphertext worth decoding.
        ct_in = wire.decode_ciphertext(ct_blob, preset.context.ring)
        self.metrics.jobs_admitted += 1
        session.jobs_admitted += 1
        _log.info(
            "job admitted job=%s program=%s", job_id, program.digest()
        )

        loop = asyncio.get_running_loop()
        future: asyncio.Future[tuple[Ciphertext, dict[str, Any]]] = loop.create_future()
        pending = _PendingJob(
            word_bits=session.word_bits,
            job=BatchJob(
                job_id=job_id, session=session, program=program, ciphertext=ct_in
            ),
            verdict=verdict,
            future=future,
            enqueued_at=time.perf_counter(),
            submitted_at=submitted_at,
        )
        await self._queue.put(pending)
        try:
            ct_out, meta = await future
        except Exception as exc:  # noqa: BLE001 - surfaced to the tenant
            self.metrics.jobs_failed += 1
            self._send_rejection(writer, job_id, ["EXEC-FAILED"], str(exc))
            await writer.drain()
            return
        total = time.perf_counter() - submitted_at
        self.metrics.jobs_completed += 1
        self.metrics.total_latency.append(total)
        meta = dict(meta)
        meta.update(
            {
                "job_id": job_id,
                "verify_seconds": verdict.verify_seconds,
                "proven_floor_bits": verdict.proven_floor_bits,
                "total_seconds": total,
            }
        )
        wire.write_frame(
            writer,
            wire.Kind.RESULT,
            wire.encode_blobs(
                [wire.encode_json(meta), wire.encode_ciphertext(ct_out)]
            ),
        )
        await writer.drain()

    # -- batching and execution ----------------------------------------------

    async def _batch_worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            batch = [first]
            deadline = loop.time() + self.batch_window
            while len(batch) < self.max_batch:
                remaining = deadline - loop.time()
                if remaining <= 0:
                    break
                try:
                    batch.append(
                        await asyncio.wait_for(self._queue.get(), timeout=remaining)
                    )
                except asyncio.TimeoutError:
                    break
            by_word: dict[int, list[_PendingJob]] = {}
            for item in batch:
                by_word.setdefault(item.word_bits, []).append(item)
            for word_bits, items in by_word.items():
                preset = self.offline.preset(word_bits)
                plans = plan_batches(
                    [(word_bits, item.job) for item in items],
                    preset.slots,
                    self.max_batch,
                )
                lookup = {item.job.job_id: item for item in items}
                for plan in plans:
                    self._run_plan(preset, plan, lookup)
            # Yield so handlers can ship finished results promptly.
            await asyncio.sleep(0)

    def _run_plan(
        self,
        preset: ServePreset,
        plan: BatchPlan,
        lookup: dict[str, _PendingJob],
    ) -> None:
        t0 = time.perf_counter()
        try:
            outputs = self._execute_plan(preset, plan)
        except Exception as exc:  # noqa: BLE001 - propagate per-job
            for job in plan.jobs:
                item = lookup[job.job_id]
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        execute_s = time.perf_counter() - t0
        self.metrics.batches_executed += 1
        self.metrics.execute_seconds.append(execute_s)
        self.metrics.occupancies.append(plan.occupancy)
        for job, ct_out in zip(plan.jobs, outputs):
            item = lookup[job.job_id]
            queue_wait = t0 - item.enqueued_at
            self.metrics.queue_wait.append(queue_wait)
            meta = {
                "batch_size": plan.size,
                "batch_occupancy": plan.occupancy,
                "queue_wait_seconds": queue_wait,
                "execute_seconds": execute_s,
                "lane_offset": job.offset,
                "lane_width": job.width,
            }
            if not item.future.done():
                item.future.set_result((ct_out, meta))

    def _execute_plan(
        self, preset: ServePreset, plan: BatchPlan
    ) -> list["Ciphertext"]:
        """Ingress-switch, pack, run the scheduled trace, unpack-switch."""
        ev = preset.evaluator

        packed: Ciphertext | None = None
        for job in plan.jobs:
            ct = ev.apply_switch_key(job.ciphertext, job.session.evk_in)
            self.metrics.engine_invocations += 1
            if job.offset:
                ct = ev.rotate(ct, -job.offset)
                self.metrics.engine_invocations += 1
            if packed is None:
                packed = ct
            else:
                packed = ev.add(packed, ct)
                self.metrics.engine_invocations += 1
        assert packed is not None

        out = self._execute_scheduled(preset, plan.program, packed)

        results: list[Ciphertext] = []
        for job in plan.jobs:
            mask = [0.0] * preset.slots
            for lane in range(job.offset, job.offset + job.width):
                mask[lane] = 1.0
            pt = preset.context.encode(mask, level=out.level)
            lane_ct = ev.multiply_plain(out, pt)
            self.metrics.engine_invocations += 1
            if job.offset:
                lane_ct = ev.rotate(lane_ct, job.offset)
                self.metrics.engine_invocations += 1
            lane_ct = ev.apply_switch_key(lane_ct, job.session.evk_out)
            self.metrics.engine_invocations += 1
            results.append(lane_ct)
        return results

    def _certified_schedule(
        self, preset: ServePreset, program: EvalProgram
    ) -> "tuple[Trace, ScheduledTrace, EquivCertificate]":
        """Lower, fuse, schedule, and certify — cached per program digest.

        Certification is static work, so programs that batch repeatedly
        (the common case: equal digests share a batch key) pay for the
        equivalence proof once and re-verify only the cheap digest gate
        on every execution.
        """
        from repro.check.admission import certify_for_execution
        from repro.core.config import sharp_config
        from repro.params.presets import build_sharp_setting

        digest = program.digest()
        key = (preset.word_bits, digest)
        cached = self._certified.get(key)
        if cached is not None:
            self._certified.move_to_end(key)
        else:
            setting = build_sharp_setting(preset.word_bits)
            cached = certify_for_execution(
                program, setting, sharp_config().onchip_capacity_bytes
            )
            self._certified[key] = cached
            if len(self._certified) > CERTIFICATE_CACHE_SIZE:
                self._certified.popitem(last=False)
            self.metrics.schedules_certified += 1
            self.metrics.certified_digests.append(digest)
            _log.info(
                "schedule certified word_bits=%d program=%s",
                preset.word_bits,
                digest,
            )
        return cached

    def _execute_scheduled(
        self, preset: ServePreset, program: EvalProgram, packed: "Ciphertext"
    ) -> "Ciphertext":
        """Run the program body through the certificate-gated executor.

        The body is lowered to an HE-op trace, fused, and scheduled
        against the configured on-chip capacity; the resulting
        ``ScheduledTrace`` is *proven equivalent* to the source lowering
        by :mod:`repro.check.equiv` before
        :func:`repro.sched.execute.execute_scheduled` lets it drive the
        evaluator — an uncertified schedule cannot reach ciphertext.
        """
        from repro.sched.execute import execute_scheduled

        source, scheduled, certificate = self._certified_schedule(preset, program)
        out = execute_scheduled(
            program, source, scheduled, preset.evaluator, packed, certificate
        )
        self.metrics.engine_invocations += len(program.ops)
        return out

    # -- misc ----------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        payload = self.metrics.to_dict()
        payload["sessions"] = len(self.sessions)
        payload["presets_built"] = sorted(self.offline._presets)
        return payload

    def _send_error(self, writer: asyncio.StreamWriter, message: str) -> None:
        wire.write_frame(
            writer, wire.Kind.ERROR, wire.encode_json({"error": message})
        )

    def _send_rejection(
        self,
        writer: asyncio.StreamWriter,
        job_id: str,
        codes: list[str],
        message: str,
    ) -> None:
        wire.write_frame(
            writer,
            wire.Kind.ERROR,
            wire.encode_json(
                {"job_id": job_id, "error": message, "codes": codes}
            ),
        )
