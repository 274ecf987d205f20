"""The online phase: an asyncio FHE service with verified admission.

Request lifecycle (the load-bearing design point is step 3):

1. **enroll** — the connection runs the offline ceremony of
   :mod:`repro.serve.offline` and gets a :class:`TenantSession`;
2. **submit** — a ``JOB`` frame carries the program IR plus one
   ciphertext the tenant encrypted to the preset's batch public key;
3. **admit** — the program, wrapped in the batching pipeline's fixed
   overhead (:func:`repro.serve.batching.service_wrapped`), is folded
   over :class:`repro.check.admission.ProductFold` on the preset's own
   chain: one abstract run yields the level / scale verdict, the noise
   verdict and the body's source trace.  A rejected job is answered
   from the verdict's diagnostic codes and *never reaches the engine*:
   the rejection path executes zero evaluator operations, zero NTTs —
   the server's compute stays reserved for jobs that are proven to
   succeed.  So is a ciphertext not in the preset's fresh state
   (``WIRE-CT-STATE``): ingress is a bare add, and it would fail its
   batch-mates too;
4. **batch** — admitted jobs wait in the batch window.  A connection
   has one job in flight, so the window closes at the first of:
   ``MAX_BATCH`` jobs or a ring's worth of lanes (``full``), every live
   session already in it (``drained``), ``batch_window`` seconds
   (``deadline``); :func:`repro.serve.batching.plan_batches` then packs
   jobs sharing a ``(word_bits, program digest)`` batch key at their
   sessions' home lanes;
5. **execute** — ingress drops each ciphertext to the level admission
   proved sufficient and adds it into the shared ciphertext (it is
   already under the batch key); the trace admission recorded for the
   body is certified (certificates are cached per program digest, least
   recently used evicted), and the body runs through the certificate
   gate (:meth:`FheServer._execute_plan`), which re-records the
   trace from the packed ciphertext at the engine's own parameters;
   egress masks each session's lanes and switches them to the tenant
   key, the one key switch the service adds to a job;
6. **respond** — each tenant gets its lanes back under its own key,
   with per-request metrics (queue wait and what closed the window,
   verify time, ingress / program / egress time, batch occupancy) in
   the result metadata and aggregated behind the ``STATS`` endpoint.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Collection

import numpy as np

from repro.check.admission import AdmissionVerdict, admit_program
from repro.serve import wire
from repro.serve.batching import BatchJob, BatchPlan, plan_batches
from repro.serve.offline import ServeOffline, ServePreset
from repro.serve.session import TenantSession

if TYPE_CHECKING:
    from repro.check.equiv import EquivCertificate
    from repro.ckks.cipher import Ciphertext, Plaintext
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
MAX_BATCH = 16  # jobs packed into one batch at most
MIN_FLOOR_BITS = 1.0  # admission refuses a program whose proven floor is lower
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
    schedules_certified: int = 0  # equivalence certificates minted (cache misses)
    certificate_hits: int = 0
    window_closed_by: dict[str, int] = field(
        default_factory=lambda: {"full": 0, "drained": 0, "deadline": 0}
    )
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
            "certificate_cache": {
                "hits": self.certificate_hits,
                "misses": self.schedules_certified,
            },
            "window_closed_by": dict(self.window_closed_by),
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
    ):
        self.host = host
        self.port = port
        self.offline = offline if offline is not None else ServeOffline()
        self.batch_window = batch_window
        self.metrics = ServerMetrics()
        self.sessions: dict[str, TenantSession] = {}  # live connections only
        self._certified: OrderedDict[
            "tuple[int, str]", "tuple[ScheduledTrace, EquivCertificate]"
        ] = OrderedDict()
        # ``None`` wakes the batch worker when a session leaves.
        self._queue: asyncio.Queue[_PendingJob | None] = asyncio.Queue()
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
        session = None
        try:
            session, preset = await self._enroll(reader, writer)
            # Live (its home lanes taken, its vote in the window rule) from
            # here to the ``finally``: no await since the lanes were chosen.
            self.sessions[session.session_id] = session
            _log.info(
                "enrolled session=%s word_bits=%d width=%d",
                session.session_id,
                session.word_bits,
                session.width,
            )
            wire.write_frame(
                writer,
                wire.Kind.ENROLLED,
                wire.encode_json(
                    {
                        "session_id": session.session_id,
                        "word_bits": session.word_bits,
                        "width": session.width,
                        "lane_offset": session.lane_offset,
                        "slots": preset.slots,
                    }
                ),
            )
            await writer.drain()
            limit = wire.frame_limit(preset.params)
            while True:
                try:
                    kind, payload = await wire.read_frame(reader, limit)
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
        except ConnectionError:
            pass  # hung up while a reply was on its way
        finally:
            if session is not None:
                # The window rule counts live sessions: let it re-count.
                del self.sessions[session.session_id]
                self._queue.put_nowait(None)
            writer.close()
            try:
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _enroll(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> tuple[TenantSession, ServePreset]:
        """Negotiate and exchange public keys; any deviation is a
        :class:`~repro.serve.wire.WireError` (one ``ERROR``, then closed)."""
        kind, payload = await wire.read_frame(reader, wire.HANDSHAKE_FRAME_LIMIT)
        if kind != wire.Kind.HELLO:
            raise wire.WireError(f"expected HELLO, got {kind.name}")
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
            raise wire.WireError(f"negotiation failed: {exc}") from exc

        wire.write_frame(
            writer, wire.Kind.PARAMS, wire.encode_params(preset.params, word_bits)
        )
        wire.write_frame(
            writer,
            wire.Kind.PUBLIC_KEY,
            wire.encode_public_key(preset.batch_public_key()),
        )
        await writer.drain()

        kind, payload = await wire.read_frame(reader, wire.frame_limit(preset.params))
        if kind != wire.Kind.PUBLIC_KEY:
            raise wire.WireError(f"expected PUBLIC_KEY, got {kind.name}")
        tenant_pk = wire.decode_public_key(payload, preset.context.ring)
        live = [s for s in self.sessions.values() if s.word_bits == word_bits]
        try:
            return self.offline.enroll(word_bits, width, tenant_pk, live), preset
        except ValueError as exc:  # a key over the wrong basis or in the wrong form
            raise wire.WireError(f"enrollment failed: {exc}") from exc

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
            program, preset.fold_params, min_floor_bits=MIN_FLOOR_BITS, label=job_id
        )
        self.metrics.verify_seconds_total += verdict.verify_seconds
        if not verdict.admitted:
            await self._refuse(
                session,
                writer,
                job_id,
                sorted(verdict.error_codes),
                "admission rejected",
                verdict=verdict.to_dict(),
            )
            return

        # Only now is the ciphertext worth decoding.  Ingress is a bare
        # add into a ciphertext shared with other tenants, so anything
        # but the preset's fresh state is refused here, for this job only.
        ct_in = wire.decode_ciphertext(ct_blob, preset.context.ring)
        fresh = preset.params.usable_level
        if not (
            ct_in.level == fresh
            and ct_in.moduli == preset.params.active_moduli(fresh)
            and ct_in.scale == preset.params.scale
            and ct_in.c0.ntt_form
            and ct_in.c1.ntt_form
        ):
            await self._refuse(
                session,
                writer,
                job_id,
                ["WIRE-CT-STATE"],
                f"ciphertext is not a fresh level-{fresh} encryption at the "
                f"negotiated scale and chain, in NTT form",
            )
            return
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
            self._send_error(writer, str(exc), job_id=job_id, codes=["EXEC-FAILED"])
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

    def _window_closed(self, batch: list[_PendingJob], slots: int) -> str | None:
        """Why the batch window is shut already, or ``None`` to keep waiting."""
        if len(batch) >= MAX_BATCH or sum(item.job.width for item in batch) >= slots:
            return "full"
        # One job in flight per connection: when every live session is
        # in the window, nobody is left who could join it.
        if self.sessions.keys() <= {item.job.session.session_id for item in batch}:
            return "drained"
        return None

    async def _batch_worker(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            first = await self._queue.get()
            if first is None:
                continue
            batch = [first]
            slots = self.offline.preset(first.word_bits).slots  # one ring degree, all tiers
            deadline = loop.time() + self.batch_window
            while (closed_by := self._window_closed(batch, slots)) is None:
                try:
                    item = await asyncio.wait_for(self._queue.get(), deadline - loop.time())
                except asyncio.TimeoutError:
                    closed_by = "deadline"
                    break
                if item is not None:
                    batch.append(item)
            self.metrics.window_closed_by[closed_by] += 1
            lookup = {item.job.job_id: item for item in batch}
            plans = plan_batches(
                [(item.word_bits, item.job) for item in batch], slots, MAX_BATCH
            )
            for plan in plans:
                self._run_plan(self.offline.preset(plan.word_bits), plan, lookup, closed_by)
            # Yield so handlers can ship finished results promptly.
            await asyncio.sleep(0)

    def _run_plan(
        self,
        preset: ServePreset,
        plan: BatchPlan,
        lookup: dict[str, _PendingJob],
        closed_by: str,
    ) -> None:
        t0 = time.perf_counter()
        verdict = lookup[plan.jobs[0].job_id].verdict  # same digest, same verdict
        try:
            outputs, stages = self._execute_plan(preset, plan, verdict)
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
                "window_closed_by": closed_by,
                "execute_seconds": execute_s,
                **stages,
                "lane_offset": job.offset,
                "lane_width": job.width,
            }
            if not item.future.done():
                item.future.set_result((ct_out, meta))

    def _execute_plan(
        self, preset: ServePreset, plan: BatchPlan, verdict: AdmissionVerdict
    ) -> tuple[list["Ciphertext"], dict[str, float]]:
        """Trim and pack (HADD); certify admission's trace (once per program
        digest) and run the body through the gate of
        :func:`repro.sched.execute.execute_scheduled`; mask, egress-switch."""
        from repro.check.admission import certify_for_execution
        from repro.core.config import sharp_config
        from repro.sched.execute import execute_scheduled

        ev = preset.evaluator
        level = preset.params.usable_level - verdict.spare_levels
        t0 = time.perf_counter()
        packed = functools.reduce(
            ev.add, (ev.drop_to_level(job.ciphertext, level) for job in plan.jobs)
        )
        self.metrics.engine_invocations += plan.size - 1
        t1 = time.perf_counter()

        digest = plan.program.digest()
        key = (preset.word_bits, digest)
        cached = self._certified.get(key)
        if cached is not None:
            self._certified.move_to_end(key)
            self.metrics.certificate_hits += 1
        else:
            capacity = sharp_config().onchip_capacity_bytes
            cached = certify_for_execution(verdict.trace, preset.fold_params.setting, capacity)
            self._certified[key] = cached
            if len(self._certified) > CERTIFICATE_CACHE_SIZE:
                self._certified.popitem(last=False)
            self.metrics.schedules_certified += 1
            self.metrics.certified_digests.append(digest)
            _log.info("schedule certified word_bits=%d program=%s", preset.word_bits, digest)
        scheduled, certificate = cached
        out = execute_scheduled(plan.program, scheduled, ev, packed, certificate)
        self.metrics.engine_invocations += len(plan.program.ops)
        t2 = time.perf_counter()

        results: list[Ciphertext] = []
        for job in plan.jobs:
            lane_ct = ev.multiply_plain(out, self._lane_mask(preset, job.session, out.level))
            results.append(ev.apply_switch_key(lane_ct, job.session.evk_out))
        self.metrics.engine_invocations += 2 * plan.size
        stages = {
            "ingress_seconds": t1 - t0,
            "program_seconds": t2 - t1,
            "egress_seconds": time.perf_counter() - t2,
        }
        return results, stages

    @staticmethod
    def _lane_mask(preset: ServePreset, session: TenantSession, level: int) -> "Plaintext":
        """One-hot mask of the session's home lanes, encoded once per level at
        the step scale (the rescale then restores the scale exactly, as
        admission's ``consume_level`` assumes)."""
        if level not in session.masks:
            mask = np.zeros(preset.slots)
            mask[session.lane_offset : session.lane_offset + session.width] = 1.0
            session.masks[level] = preset.context.encode(
                mask, level=level, scale=preset.params.step_at(level).scale
            )
        return session.masks[level]

    # -- misc ----------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        payload = self.metrics.to_dict()
        payload["sessions"] = len(self.sessions)
        payload["presets_built"] = sorted(self.offline._presets)
        return payload

    def _send_error(self, writer: asyncio.StreamWriter, message: str, **fields: Any) -> None:
        wire.write_frame(
            writer, wire.Kind.ERROR, wire.encode_json({"error": message, **fields})
        )

    async def _refuse(
        self,
        session: TenantSession,
        writer: asyncio.StreamWriter,
        job_id: str,
        codes: list[str],
        message: str,
        **fields: Any,
    ) -> None:
        """Answer a job nothing has run for with its diagnostic codes."""
        self.metrics.jobs_rejected += 1
        session.jobs_rejected += 1
        _log.info("job rejected job=%s codes=%s", job_id, ",".join(codes))
        self._send_error(writer, message, job_id=job_id, codes=codes, **fields)
        await writer.drain()
