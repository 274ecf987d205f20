"""End-to-end serve tests: two tenants, one shared ciphertext.

Exercises the whole tentpole path over real sockets: enrollment
ceremony (distinct tenant keys), concurrent submission, SIMD
slot-packing into a shared batch ciphertext, scheduled-trace execution,
egress re-encryption, and the precision contract — each tenant decrypts
within the floor the admission pass proved.
"""

from __future__ import annotations

import asyncio
import struct
from typing import Awaitable, Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.cipher import Ciphertext
from repro.ckks.context import CkksParams
from repro.rns.poly import RnsPolynomial
from repro.serve import wire
from repro.serve.batching import BatchJob, plan_batches
from repro.serve.client import FheClient, JobRejected
from repro.serve.offline import ServeOffline
from repro.serve.program import EvalProgram, ProgramBuilder
from repro.serve.server import FheServer
from repro.serve.session import TenantSession

# One offline state for the whole module: presets are loop-independent
# pure compute, and the 36-bit tier takes seconds to build.
OFFLINE = ServeOffline(seed=4242)


def _poly_program() -> EvalProgram:
    b = ProgramBuilder("poly")
    x = b.input
    half = b.multiply_scalar(b.square(x), 0.5)
    return b.build(b.add_matched(half, x))


def _rotation_program() -> EvalProgram:
    b = ProgramBuilder("rotsum")
    x = b.input
    return b.build(b.add(x, b.rotate(x, 1)))


def _too_deep() -> EvalProgram:
    b = ProgramBuilder("deep")
    v = b.input
    for _ in range(9):
        v = b.square(v)
    return b.build(v)


def _run(scenario: Callable[[FheServer], Awaitable[None]], **server_kw: object) -> None:
    async def runner() -> None:
        server = FheServer(offline=OFFLINE, **server_kw)  # type: ignore[arg-type]
        await server.start()
        try:
            await scenario(server)
        finally:
            await server.close()

    asyncio.run(runner())


class TestTwoTenantEndToEnd:
    def test_concurrent_tenants_share_a_batch(self):
        async def scenario(server: FheServer) -> None:
            alice = FheClient("127.0.0.1", server.port, seed=11)
            bob = FheClient("127.0.0.1", server.port, seed=22)
            await asyncio.gather(
                alice.enroll(36, width=4), bob.enroll(36, width=4)
            )
            assert alice.session_id != bob.session_id
            assert alice.keys is not None and bob.keys is not None
            # Distinct tenant keys: the secrets differ.
            s_a = alice.keys.context.keys.secret_coeffs
            s_b = bob.keys.context.keys.secret_coeffs
            assert not np.array_equal(s_a, s_b)

            program = _poly_program()
            a_vals = [0.5, -0.25, 0.125, 0.75]
            b_vals = [0.1, 0.2, 0.3, 0.4]
            res_a, res_b = await asyncio.gather(
                alice.submit(program, a_vals), bob.submit(program, b_vals)
            )

            # Both jobs ran in ONE shared ciphertext.
            assert res_a.meta["batch_size"] == 2
            assert res_b.meta["batch_size"] == 2
            # Each at its session's home lanes, no rotation to get there.
            assert {res_a.meta["lane_offset"], res_b.meta["lane_offset"]} == {
                alice.lane_offset,
                bob.lane_offset,
            }
            assert alice.lane_offset != bob.lane_offset
            assert server.metrics.batches_executed == 1
            # ... which closed because both live sessions were in it, not on the timer.
            for res in (res_a, res_b):
                assert res.meta["window_closed_by"] == "drained"
                assert res.meta["queue_wait_seconds"] < 0.25 / 4
            expected_occ = 8 / server.offline.preset(36).slots
            assert res_a.meta["batch_occupancy"] == pytest.approx(expected_occ)

            # The precision contract: error within the proven floor.
            for res, vals in ((res_a, a_vals), (res_b, b_vals)):
                want = np.array([0.5 * v * v + v for v in vals])
                err = float(np.abs(res.values[: len(vals)] - want).max())
                floor = res.proven_floor_bits
                assert floor is not None and floor > 0
                assert err <= 2.0**-floor

            await asyncio.gather(alice.close(), bob.close())

        _run(scenario, batch_window=0.25)

    def test_lane_isolation(self):
        # Each tenant sees only its own lane values, not its batch
        # neighbour's.
        async def scenario(server: FheServer) -> None:
            alice = FheClient("127.0.0.1", server.port, seed=31)
            bob = FheClient("127.0.0.1", server.port, seed=32)
            await asyncio.gather(alice.enroll(36, width=2), bob.enroll(36, width=2))
            program = _poly_program()
            res_a, res_b = await asyncio.gather(
                alice.submit(program, [0.5, 0.5]), bob.submit(program, [-0.5, -0.5])
            )
            assert res_a.meta["batch_size"] == 2
            a_out = 0.5 * 0.25 + 0.5
            b_out = 0.5 * 0.25 - 0.5
            assert np.allclose(res_a.values.real, a_out, atol=1e-4)
            assert np.allclose(res_b.values.real, b_out, atol=1e-4)
            await asyncio.gather(alice.close(), bob.close())

        _run(scenario, batch_window=0.25)

    def test_rotation_programs_run_exclusively(self):
        async def scenario(server: FheServer) -> None:
            alice = FheClient("127.0.0.1", server.port, seed=41)
            bob = FheClient("127.0.0.1", server.port, seed=42)
            await asyncio.gather(alice.enroll(36, width=2), bob.enroll(36, width=2))
            program = _rotation_program()
            res_a, res_b = await asyncio.gather(
                alice.submit(program, [1.0, 2.0]), bob.submit(program, [3.0, 4.0])
            )
            # Same digest, but rotation crosses lanes: never batched.
            assert res_a.meta["batch_size"] == 1
            assert res_b.meta["batch_size"] == 1
            assert server.metrics.batches_executed == 2
            # x + rot(x): lane 0 becomes x0 + x1.
            assert res_a.values[0].real == pytest.approx(3.0, abs=1e-3)
            assert res_b.values[0].real == pytest.approx(7.0, abs=1e-3)
            await asyncio.gather(alice.close(), bob.close())

        _run(scenario, batch_window=0.25)

    def test_rejection_midstream_then_recovery(self):
        async def scenario(server: FheServer) -> None:
            client = FheClient("127.0.0.1", server.port, seed=51)
            await client.enroll(36, width=2)
            with pytest.raises(JobRejected) as exc_info:
                await client.submit(_too_deep(), [0.5, 0.5])
            assert "CKKS-LEVEL-UNDERFLOW" in exc_info.value.codes
            # The session survives a rejection.
            res = await client.submit(_poly_program(), [0.5, 0.5])
            assert res.meta["batch_size"] == 1
            stats = await client.stats()
            assert stats["jobs"]["rejected"] == 1
            assert stats["jobs"]["completed"] == 1
            await client.close()

        _run(scenario, batch_window=0.01)

    def test_negotiation_rounds_up(self):
        async def scenario(server: FheServer) -> None:
            client = FheClient("127.0.0.1", server.port, seed=61)
            await client.enroll(30, width=2)  # 30 -> next tier, 36
            assert client.word_bits == 36
            await client.close()

        _run(scenario, batch_window=0.01)

    def test_stats_endpoint_shape(self):
        async def scenario(server: FheServer) -> None:
            client = FheClient("127.0.0.1", server.port, seed=71)
            await client.enroll(36, width=2)
            res = await client.submit(_poly_program(), [0.25, 0.5])
            # The only live session is in the window: nobody to wait for.
            assert res.meta["window_closed_by"] == "drained"
            assert res.meta["queue_wait_seconds"] < 1.0 / 4
            stages = [res.meta[f"{s}_seconds"] for s in ("ingress", "program", "egress")]
            assert min(stages) > 0 and sum(stages) <= res.meta["execute_seconds"]
            stats = await client.stats()
            assert stats["sessions"] == 1
            assert stats["window_closed_by"] == {"full": 0, "drained": 1, "deadline": 0}
            assert stats["certificate_cache"] == {"hits": 0, "misses": 1}
            assert stats["engine_invocations"] > 0
            assert stats["jobs"]["submitted"] == stats["jobs"]["admitted"] == 1
            for key in ("latency_p50_s", "latency_p95_s", "mean_batch_occupancy"):
                assert isinstance(stats[key], float)
            assert stats["verify_seconds_total"] > 0
            await client.close()

        _run(scenario, batch_window=1.0)


class TestBatchWindow:
    """The window closes when nobody is left to wait for, not on a timer.
    (One live session, and two that both submit: see ``drained`` above.)"""

    def test_an_idle_live_session_holds_the_window_to_its_deadline(self):
        async def scenario(server: FheServer) -> None:
            alice = FheClient("127.0.0.1", server.port, seed=94)
            idle = FheClient("127.0.0.1", server.port, seed=95)
            await asyncio.gather(alice.enroll(36, width=2), idle.enroll(36, width=2))
            res = await alice.submit(_poly_program(), [0.5, 0.25])
            assert res.meta["window_closed_by"] == "deadline"
            assert res.meta["queue_wait_seconds"] >= 0.9 * 0.2
            assert server.metrics.window_closed_by["deadline"] == 1
            await asyncio.gather(alice.close(), idle.close())

        _run(scenario, batch_window=0.2)

    def test_hang_up_mid_window(self):
        # Bob queues a job and drops the connection; carol never submits
        # and drops hers a moment later.  Alice, bob's batch-mate, must
        # not be held to the deadline by either, and the server must
        # forget both.
        async def scenario(server: FheServer) -> None:
            alice, bob, carol = (
                FheClient("127.0.0.1", server.port, seed=seed) for seed in (96, 97, 98)
            )
            await asyncio.gather(*(c.enroll(36, width=2) for c in (alice, bob, carol)))
            assert len(server.sessions) == 3
            tasks_before = len(asyncio.all_tasks())

            doomed = asyncio.ensure_future(bob.submit(_poly_program(), [0.1, 0.2]))
            while server.metrics.jobs_admitted < 1:  # bob's job is in the window
                await asyncio.sleep(0.01)
            bob._writer.close()
            doomed.cancel()
            asyncio.get_running_loop().call_later(0.1, carol._writer.close)

            res = await alice.submit(_poly_program(), [0.5, 0.25])
            assert res.meta["batch_size"] == 2  # bob's job ran beside alice's
            assert res.meta["window_closed_by"] == "drained"
            assert res.meta["queue_wait_seconds"] < 0.5
            assert res.values[0].real == pytest.approx(0.625, abs=1e-3)

            for _ in range(100):  # bob's handler notices once its reply bounces
                if len(server.sessions) == 1:
                    break
                await asyncio.sleep(0.01)
            assert list(server.sessions) == [alice.session_id]
            assert (await alice.stats())["sessions"] == 1
            assert len(asyncio.all_tasks()) == tasks_before - 2  # both handlers ended
            await alice.close()

        _run(scenario, batch_window=1.0)


class TestPlanBatchesProperties:
    SLOTS = 16
    PROGRAMS = (_poly_program(), _rotation_program(), _too_deep())

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 5),  # session: six of them on a 16-slot ring
                st.integers(0, len(PROGRAMS) - 1),
                st.sampled_from([28, 36]),
            ),
            min_size=1,
            max_size=24,
        ),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_plans(self, draws, max_batch):
        # Width-4 home lanes handed out the way enrollment does: the
        # fifth session wraps onto the first one's lanes and must split.
        sessions = [
            TenantSession(f"s{i}", 36, 4, (4 * i) % self.SLOTS, None)  # type: ignore[arg-type]
            for i in range(6)
        ]
        pending = [
            (bits, BatchJob(f"j{n}", sessions[who], self.PROGRAMS[what], None))  # type: ignore[arg-type]
            for n, (who, what, bits) in enumerate(draws)
        ]
        plans = plan_batches(pending, self.SLOTS, max_batch)

        placed = [job.job_id for plan in plans for job in plan.jobs]
        assert sorted(placed) == sorted(job.job_id for _, job in pending)
        for plan in plans:
            key = (plan.word_bits, plan.program.digest())
            assert all((plan.word_bits, j.program.digest()) == key for j in plan.jobs)
            assert 1 <= plan.size <= (1 if plan.program.uses_rotation else max_batch)
            lanes = [lane for j in plan.jobs for lane in range(j.offset, j.offset + j.width)]
            assert len(lanes) == len(set(lanes)) and max(lanes) < self.SLOTS
        # Arrival order survives within every batch key.
        for key in {(b, j.program.digest()) for b, j in pending}:
            arrived = [j.job_id for b, j in pending if (b, j.program.digest()) == key]
            assert [i for i in placed if i in arrived] == arrived


class TestBoundedMemory:
    def test_certificate_cache_and_metric_windows_are_capped(self, monkeypatch):
        # A long-lived server sees unboundedly many programs and jobs;
        # what it remembers about them must not grow with either.
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "CERTIFICATE_CACHE_SIZE", 2)
        monkeypatch.setattr(server_module, "METRIC_WINDOW", 2)

        def scaled(c: float) -> EvalProgram:
            b = ProgramBuilder(f"scale_{c}")
            return b.build(b.multiply_scalar(b.input, c))

        async def scenario(server: FheServer) -> None:
            client = FheClient("127.0.0.1", server.port, seed=81)
            await client.enroll(36, width=2)
            programs = [scaled(c) for c in (0.25, 0.5, 0.75)]
            for program in programs:  # cap + 1 distinct programs
                res = await client.submit(program, [0.5, 1.0])
                assert res.values[0].real == pytest.approx(
                    0.5 * program.ops[0].value.real, abs=1e-3
                )
            assert server.metrics.schedules_certified == 3
            digests = [key[1] for key in server._certified]
            assert digests == [p.digest() for p in programs[1:]]  # oldest evicted
            # A cached program is a hit; the evicted one certifies again.
            await client.submit(programs[2], [0.5, 1.0])
            assert server.metrics.schedules_certified == 3
            await client.submit(programs[0], [0.5, 1.0])
            assert server.metrics.schedules_certified == 4
            assert len(server._certified) == 2

            metrics = server.metrics
            assert metrics.jobs_completed == metrics.batches_executed == 5
            for series in (
                metrics.queue_wait,
                metrics.execute_seconds,
                metrics.total_latency,
                metrics.occupancies,
                metrics.certified_digests,
            ):
                assert len(series) == 2
            stats = await client.stats()
            assert stats["certified_digests"] == [
                programs[2].digest(),
                programs[0].digest(),
            ]
            assert stats["latency_p50_s"] > 0 and stats["mean_batch_occupancy"] > 0
            await client.close()

        _run(scenario, batch_window=0.01)


def _raw_frame(version: int, kind: int, payload: bytes = b"") -> bytes:
    return struct.pack("<4sHHQ", wire.MAGIC, version, kind, len(payload)) + payload


async def _replies(port: int, *frames: bytes) -> list[tuple[wire.Kind, bytes]]:
    """Send raw bytes, then read frames to EOF: the server must answer and hang up."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(b"".join(frames))
    await writer.drain()

    async def to_eof() -> list[tuple[wire.Kind, bytes]]:
        replies = []
        while True:
            try:
                replies.append(await wire.read_frame(reader, 1 << 32))
            except asyncio.IncompleteReadError:
                return replies

    replies = await asyncio.wait_for(to_eof(), timeout=10)  # never a hang
    writer.close()
    return replies


class TestCeremony:
    """Version 2: the tenant sends HELLO and its public key, nothing else."""

    HELLO = wire.encode_frame(
        wire.Kind.HELLO, wire.encode_json({"requested_bits": 36, "width": 2})
    )

    def test_client_sends_hello_and_public_key_only(self, monkeypatch):
        sent: list[tuple[int, wire.Kind]] = []  # (sender's port, kind)
        original = wire.write_frame

        def recording(writer, kind, payload=b""):
            sent.append((writer.get_extra_info("sockname")[1], kind))
            return original(writer, kind, payload)

        monkeypatch.setattr(wire, "write_frame", recording)

        async def scenario(server: FheServer) -> None:
            client = FheClient("127.0.0.1", server.port, seed=101)
            await client.enroll(36, width=2)
            assert [kind for port, kind in sent if port != server.port] == [
                wire.Kind.HELLO,
                wire.Kind.PUBLIC_KEY,
            ]
            assert [kind for port, kind in sent if port == server.port] == [
                wire.Kind.PARAMS,
                wire.Kind.PUBLIC_KEY,
                wire.Kind.ENROLLED,
            ]
            # One bridge key per session, and it never left the server.
            (session,) = server.sessions.values()
            assert not hasattr(session, "evk_in") and len(session.evk_out) > 0
            await client.close()

        _run(scenario)

    def test_malformed_params_is_a_wire_error(self):
        async def peer(reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
            await wire.read_frame(reader, wire.HANDSHAKE_FRAME_LIMIT)
            message = wire.encode_json({"word_bits": 36, "slots": 8, "spec": {}})
            wire.write_frame(writer, wire.Kind.PARAMS, message)
            await writer.drain()
            await reader.read()  # until the client hangs up
            writer.close()

        async def scenario() -> None:
            server = await asyncio.start_server(peer, "127.0.0.1", 0)
            client = FheClient("127.0.0.1", server.sockets[0].getsockname()[1], seed=5)
            with pytest.raises(wire.WireError, match="malformed PARAMS"):
                await client.enroll(36, width=2)
            await client.close()
            server.close()
            await server.wait_closed()

        asyncio.run(scenario())

    def test_old_peers_and_retired_frames_get_one_error_and_a_closed_door(self):
        async def scenario(server: FheServer) -> None:
            assert wire.VERSION == 2 and 4 not in set(wire.Kind)
            for frames, prefix, needle in (
                # a version-1 client's HELLO
                ([_raw_frame(1, 1, self.HELLO[16:])], [], "version 1"),
                # version 1's SWITCH_KEY, where version 2 expects the tenant key
                ([self.HELLO, _raw_frame(2, 4, b"\0" * 64)],
                 [wire.Kind.PARAMS, wire.Kind.PUBLIC_KEY], "kind 4"),
            ):  # fmt: skip
                replies = await _replies(server.port, *frames)
                assert [kind for kind, _ in replies] == [*prefix, wire.Kind.ERROR]
                assert needle in wire.decode_json(replies[-1][1])["error"]
            assert not server.sessions

        _run(scenario)

    def test_a_length_claim_is_refused_before_it_is_read(self):
        # Only headers are sent: a server that tried to read the claimed
        # payload would wait for it, and _replies would time out.
        async def scenario(server: FheServer) -> None:
            params = server.offline.preset(36).params
            limit = wire.frame_limit(params)
            assert limit == 2 * len(params.full_basis) * params.degree * 8 + (1 << 16)
            early = struct.pack("<4sHHQ", wire.MAGIC, wire.VERSION, 1, (1 << 16) + 1)
            late = struct.pack("<4sHHQ", wire.MAGIC, wire.VERSION, 3, limit + 1)
            for frames, count in (([early], 1), ([self.HELLO, late], 3)):
                replies = await _replies(server.port, *frames)
                assert len(replies) == count and replies[-1][0] == wire.Kind.ERROR
                assert "cap" in wire.decode_json(replies[-1][1])["error"]

        _run(scenario)


class TestCiphertextState:
    """Ingress is a bare add into a ciphertext shared with other tenants:
    a job whose ciphertext is not a fresh encryption is refused alone."""

    @staticmethod
    def _tamper(how: str, ct: Ciphertext, params: CkksParams) -> Ciphertext:
        if how == "level":
            keep = len(params.active_moduli(ct.level - 1))
            c0, c1 = (p.drop_limbs(len(ct.moduli) - keep) for p in (ct.c0, ct.c1))
            return Ciphertext(c0, c1, ct.level - 1, ct.scale)
        if how == "level-header":
            return Ciphertext(ct.c0, ct.c1, ct.level - 1, ct.scale)
        if how == "scale":
            return Ciphertext(ct.c0, ct.c1, ct.level, ct.scale * 2)
        if how == "form":
            return Ciphertext(ct.c0.from_ntt(), ct.c1.from_ntt(), ct.level, ct.scale)
        assert how == "chain"
        moduli = ct.moduli[:-1] + params.aux_primes[:1]
        zero = np.zeros((len(moduli), ct.c0.ring.degree), dtype=np.uint64)
        c0, c1 = (RnsPolynomial(p.ring, moduli, zero, True) for p in (ct.c0, ct.c1))
        return Ciphertext(c0, c1, ct.level, ct.scale)

    @pytest.mark.parametrize("how", ["level", "level-header", "scale", "form", "chain"])
    def test_refused_alone_at_zero_engine_calls(self, how):
        async def scenario(server: FheServer) -> None:
            alice = FheClient("127.0.0.1", server.port, seed=121)
            bob = FheClient("127.0.0.1", server.port, seed=122)
            await asyncio.gather(alice.enroll(36, width=2), bob.enroll(36, width=2))
            context = alice.keys.context
            honest = context.encrypt
            context.encrypt = lambda *args, **kwargs: self._tamper(
                how, honest(*args, **kwargs), context.params
            )
            before = server.metrics.engine_invocations
            with pytest.raises(JobRejected) as exc_info:
                await alice.submit(_poly_program(), [0.5, 0.25])
            assert exc_info.value.codes == ("WIRE-CT-STATE",)
            assert server.metrics.engine_invocations == before
            assert (server.metrics.jobs_admitted, server.metrics.jobs_rejected) == (0, 1)

            # Side by side with an honest tenant: only alice's job fails.
            refused, served = await asyncio.gather(
                alice.submit(_poly_program(), [0.5, 0.25]),
                bob.submit(_poly_program(), [0.5, 0.25]),
                return_exceptions=True,
            )
            assert isinstance(refused, JobRejected) and refused.codes == ("WIRE-CT-STATE",)
            assert served.meta["batch_size"] == 1
            assert served.values[0].real == pytest.approx(0.625, abs=1e-3)
            assert server.metrics.jobs_failed == 0

            # ... and her session outlives it.
            del context.encrypt
            again = await alice.submit(_poly_program(), [0.5, 0.25])
            assert again.values[0].real == pytest.approx(0.625, abs=1e-3)
            await asyncio.gather(alice.close(), bob.close())

        _run(scenario, batch_window=0.05)


class TestHomeLanes:
    def test_blocks_go_to_the_least_held_lanes(self):
        preset = OFFLINE.preset(36)
        width = preset.slots // 4

        def session(offset: int, width: int = width) -> TenantSession:
            return TenantSession("s", 36, width, offset, None)  # type: ignore[arg-type]

        live: list[TenantSession] = []
        for _ in range(5):
            live.append(session(preset.assign_lanes(width, live)))
        # Four fill the ring; the fifth has to share, lowest block first.
        assert [s.lane_offset for s in live] == [0, width, 2 * width, 3 * width, 0]
        del live[2]
        live.append(session(preset.assign_lanes(width, live)))
        assert live[-1].lane_offset == 2 * width  # the one free block
        assert preset.assign_lanes(width, live) == width  # then the least shared
        # Another width aligns to itself and still avoids what it can.
        assert preset.assign_lanes(2 * width, [session(0)]) == 2 * width
        assert preset.assign_lanes(preset.slots, [session(0)]) == 0

    def test_a_hang_up_returns_its_lanes(self):
        async def scenario(server: FheServer) -> None:
            width = server.offline.preset(36).slots // 2
            offsets = []
            for cycle in range(3):  # slots / width + 1 sessions, one at a time
                client = FheClient("127.0.0.1", server.port, seed=130 + cycle)
                await client.enroll(36, width=width)
                offsets.append(client.lane_offset)
                await client.close()
                for _ in range(200):  # the handler notices the hang-up
                    if not server.sessions:
                        break
                    await asyncio.sleep(0.01)
                assert not server.sessions
            assert offsets == [0, 0, 0]  # more sessions than blocks, none shared
            # Lanes are shared only while that many are live at once.
            clients = [FheClient("127.0.0.1", server.port, seed=140 + i) for i in range(3)]
            for client in clients:
                await client.enroll(36, width=width)
            assert [c.lane_offset for c in clients] == [0, width, 0]
            await asyncio.gather(*(c.close() for c in clients))

        _run(scenario)
