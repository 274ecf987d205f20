"""Tenant-side client: enrollment ceremony plus job submission.

The client owns the only copy of the tenant secret.  Enrollment builds
a local :class:`~repro.ckks.context.CkksContext` from the negotiated
parameter spec, keeps the server's batch public key, and sends exactly
one artifact back: the tenant public key — the only image of the tenant
secret that ever leaves this process.  The server answers with the
session's home lanes.  After that, :meth:`FheClient.submit` is encrypt
into those lanes *to the batch key* - send - await - decrypt with the
tenant secret - read them back.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.serve import wire
from repro.serve.offline import TenantKeys
from repro.serve.program import EvalProgram

__all__ = ["FheClient", "JobRejected", "JobResult"]


class JobRejected(Exception):
    """The server refused a job (admission or protocol error)."""

    def __init__(self, payload: dict[str, Any]):
        self.payload = payload
        codes = payload.get("codes")
        if codes is None:
            verdict = payload.get("verdict")
            if isinstance(verdict, dict):
                codes = verdict.get("error_codes")
        self.codes: tuple[str, ...] = tuple(codes or ())
        super().__init__(
            f"{payload.get('error', 'rejected')} (codes: {', '.join(self.codes) or '-'})"
        )


@dataclass
class JobResult:
    """Decrypted values plus the server's per-request metrics."""

    values: np.ndarray
    meta: dict[str, Any]

    @property
    def proven_floor_bits(self) -> float | None:
        floor = self.meta.get("proven_floor_bits")
        return None if floor is None else float(floor)


class FheClient:
    """One tenant session against a running :class:`FheServer`."""

    def __init__(self, host: str, port: int, *, seed: int):
        self.host = host
        self.port = port
        self.seed = seed
        self.keys: TenantKeys | None = None
        self.session_id: str | None = None
        self.word_bits: int | None = None
        self.width: int | None = None
        self.lane_offset: int | None = None
        self.slots: int | None = None
        self._frame_limit = wire.HANDSHAKE_FRAME_LIMIT
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    # -- offline phase -------------------------------------------------------

    async def enroll(self, requested_bits: int, width: int) -> None:
        """Run the full ceremony; afterwards :meth:`submit` is live."""
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        wire.write_frame(
            self._writer,
            wire.Kind.HELLO,
            wire.encode_json({"requested_bits": requested_bits, "width": width}),
        )
        await self._writer.drain()

        kind, payload = await wire.read_frame(self._reader, self._frame_limit)
        if kind == wire.Kind.ERROR:
            raise JobRejected(wire.decode_json(payload))
        if kind != wire.Kind.PARAMS:
            raise wire.WireError(f"expected PARAMS, got {kind.name}")
        params, self.word_bits = wire.decode_params(payload)
        self.slots = params.slots

        # The spec alone determines the ring, so the tenant context can
        # be built before the batch key arrives.
        from repro.ckks.context import CkksContext

        context = CkksContext(params, seed=self.seed)
        self._frame_limit = wire.frame_limit(params)

        kind, payload = await wire.read_frame(self._reader, self._frame_limit)
        if kind != wire.Kind.PUBLIC_KEY:
            raise wire.WireError(f"expected PUBLIC_KEY, got {kind.name}")
        batch_pk = wire.decode_public_key(payload, context.ring)

        self.keys = TenantKeys(context=context, batch_pk=batch_pk)
        wire.write_frame(
            self._writer,
            wire.Kind.PUBLIC_KEY,
            wire.encode_public_key(context.keys.public_key()),
        )
        await self._writer.drain()

        kind, payload = await wire.read_frame(self._reader, self._frame_limit)
        if kind == wire.Kind.ERROR:
            raise JobRejected(wire.decode_json(payload))
        if kind != wire.Kind.ENROLLED:
            raise wire.WireError(f"expected ENROLLED, got {kind.name}")
        ack = wire.decode_json(payload)
        self.session_id = str(ack["session_id"])
        self.width = int(ack["width"])  # type: ignore[arg-type]
        self.lane_offset = int(ack["lane_offset"])  # type: ignore[arg-type]

    # -- online phase --------------------------------------------------------

    async def submit(
        self, program: EvalProgram, values: Sequence[complex]
    ) -> JobResult:
        """Encrypt ``values`` into the session's home lanes, run ``program``.

        The ciphertext is encrypted to the batch public key and every
        other slot is sent as zero: the server packs by adding tenants'
        ciphertexts (see :mod:`repro.serve.batching`).

        Raises :class:`JobRejected` when admission (or execution)
        refuses the job; the exception carries the verdict's diagnostic
        codes verbatim.
        """
        if self.keys is None or self._reader is None or self._writer is None:
            raise RuntimeError("enroll() first")
        if self.width is None or self.slots is None or self.lane_offset is None:
            raise RuntimeError("enroll() first")
        if len(values) > self.width:
            raise ValueError(f"{len(values)} values exceed lane width {self.width}")
        message = np.zeros(self.slots, dtype=np.complex128)
        start = self.lane_offset
        message[start : start + len(values)] = np.asarray(values, dtype=np.complex128)
        ct = self.keys.context.encrypt(message, public_key=self.keys.batch_pk)

        wire.write_frame(
            self._writer,
            wire.Kind.JOB,
            wire.encode_blobs(
                [
                    wire.encode_json({"program": program.name}),
                    wire.encode_program(program),
                    wire.encode_ciphertext(ct),
                ]
            ),
        )
        await self._writer.drain()

        kind, payload = await wire.read_frame(self._reader, self._frame_limit)
        if kind == wire.Kind.ERROR:
            raise JobRejected(wire.decode_json(payload))
        if kind != wire.Kind.RESULT:
            raise wire.WireError(f"expected RESULT, got {kind.name}")
        meta_blob, ct_blob = wire.decode_blobs(payload)
        meta = wire.decode_json(meta_blob)
        ct_out = wire.decode_ciphertext(ct_blob, self.keys.context.ring)
        values_out = self.keys.context.decrypt(ct_out)[start : start + self.width]
        return JobResult(values=values_out, meta=meta)

    async def stats(self) -> dict[str, Any]:
        if self._reader is None or self._writer is None:
            raise RuntimeError("enroll() first")
        wire.write_frame(self._writer, wire.Kind.STATS_REQUEST)
        await self._writer.drain()
        kind, payload = await wire.read_frame(self._reader, self._frame_limit)
        if kind != wire.Kind.STATS:
            raise wire.WireError(f"expected STATS, got {kind.name}")
        return wire.decode_json(payload)

    async def close(self) -> None:
        if self._writer is not None:
            try:
                wire.write_frame(self._writer, wire.Kind.BYE)
                await self._writer.drain()
            except ConnectionError:
                pass
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
        self._reader = None
        self._writer = None
