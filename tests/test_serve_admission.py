"""Admission control: every bad program is rejected statically.

The table drives the load-bearing claim of the serve subsystem: a
malformed job is refused with the right diagnostic code *before* the
engine runs — zero evaluator invocations, zero NTTs.
"""

from __future__ import annotations

import asyncio
import functools

import numpy as np
import pytest

from repro.check import AbstractParams, NoiseParams, admit_program
from repro.check.admission import AdmissionVerdict
from repro.check.ckks_check import SymbolicEvaluator
from repro.ckks.context import CkksContext
from repro.params.presets import boot_plan, build_native_ckks_params
from repro.serve import wire
from repro.serve.batching import BatchJob, plan_batches, service_wrapped
from repro.serve.client import FheClient, JobRejected
from repro.serve.offline import ServeOffline, TenantKeys
from repro.serve.program import EvalProgram, ProgramBuilder, ProgramError
from repro.serve.server import FheServer
from repro.workloads.noise_programs import noise_programs

# Mirrors the serve preset shape: depth-4 chain on real 36-bit primes
# (real primes matter — a synthetic power-of-two chain has no RNS scale
# drift, so the scale-mismatch rejection would never fire).
PARAMS = AbstractParams.from_params(
    build_native_ckks_params(36, degree=1 << 10, depth=4)
)
NOISE = NoiseParams(
    scale_bits=35.0, boot_scale_bits=boot_plan(36)[0], word_bits=36
)


def _scale_mismatch() -> EvalProgram:
    """Adds a squared (scale-drifted) branch with a plain ``add``."""
    b = ProgramBuilder("scale_mismatch")
    x = b.input
    half = b.multiply_scalar(b.square(x), 0.5)
    return b.build(b.add(half, b.consume_level(b.consume_level(x))))


def _level_underflow(depth: int = 8) -> EvalProgram:
    b = ProgramBuilder("too_deep")
    v = b.input
    for _ in range(depth):
        v = b.square(v)
    return b.build(v)


def _well_formed() -> EvalProgram:
    b = ProgramBuilder("poly")
    x = b.input
    half = b.multiply_scalar(b.square(x), 0.5)
    return b.build(b.add_matched(half, x))


def _rotate_conjugate() -> EvalProgram:
    b = ProgramBuilder("rotconj")
    x = b.input
    return b.build(b.add(b.rotate(x, 1), b.conjugate(b.negate(b.add_scalar(x, 0.25)))))


class TestAdmissionTable:
    def _admit(self, program: EvalProgram, **kwargs: object) -> AdmissionVerdict:
        return admit_program(
            lambda ev, level: service_wrapped(program, ev, ev.fresh(), level),
            PARAMS,
            noise_program=lambda ev, level: service_wrapped(program, ev, ev.encrypt(), level),
            noise_params=NOISE,
            label=program.name,
            **kwargs,  # type: ignore[arg-type]
        )

    def test_well_formed_admitted(self):
        verdict = self._admit(_well_formed())
        assert verdict.admitted
        assert verdict.error_codes == ()
        assert verdict.proven_floor_bits is not None
        assert verdict.proven_floor_bits > 0

    def test_scale_mismatch_rejected(self):
        verdict = self._admit(_scale_mismatch())
        assert not verdict.admitted
        assert "CKKS-SCALE-MISMATCH" in verdict.error_codes

    def test_level_underflow_rejected(self):
        verdict = self._admit(_level_underflow())
        assert not verdict.admitted
        assert "CKKS-LEVEL-UNDERFLOW" in verdict.error_codes

    def test_exactly_full_depth_needs_egress_level(self):
        # Depth 4 fits the raw chain but not the egress mask; the
        # service wrapper must surface that *before* execution.
        verdict = self._admit(_level_underflow(depth=4))
        assert not verdict.admitted
        assert "CKKS-LEVEL-UNDERFLOW" in verdict.error_codes

    def test_noise_explosion_at_28_bits(self):
        # The HELR workload's budget explodes at 28-bit words — the
        # paper's robustness boundary, reproduced as a rejection.
        helr = noise_programs()["helr"]
        verdict = admit_program(
            lambda ev, level: _well_formed().run(ev, ev.fresh()),
            PARAMS,
            noise_program=lambda ev, level: helr.build(ev),
            noise_params=NoiseParams(
                scale_bits=27.0,
                boot_scale_bits=boot_plan(28)[0],
                word_bits=28,
                message_ratio=helr.message_ratio,
            ),
            label="helr@28",
        )
        assert not verdict.admitted
        assert "NOISE-EXPLOSION" in verdict.error_codes
        assert verdict.noise is not None and verdict.noise.exploded

    def test_floor_rule(self):
        # Healthy program, but the negotiated floor demands more bits
        # than it provably retains.
        verdict = self._admit(_well_formed(), min_floor_bits=40.0)
        assert not verdict.admitted
        assert "NOISE-FLOOR" in verdict.error_codes

    def test_verdict_is_machine_readable(self):
        verdict = self._admit(_scale_mismatch())
        payload = verdict.to_dict()
        assert payload["admitted"] is False
        assert "CKKS-SCALE-MISMATCH" in payload["error_codes"]
        assert isinstance(payload["verify_seconds"], float)

    # Verdicts pinned to the last digit: the one fold over the abstract
    # domains must keep returning what the per-domain interpreters did.

    @pytest.mark.parametrize(
        "build, floor",
        [(_well_formed, 13.244646770509181), (_rotate_conjugate, 13.624410577092497)],
        ids=["poly", "rotconj"],
    )
    def test_same_floor(self, build, floor):
        verdict = self._admit(build(), min_floor_bits=1.0)
        assert verdict.admitted and verdict.codes == ()
        assert verdict.proven_floor_bits == floor

    def test_the_service_charges_one_key_switch(self):
        """The ``rotconj`` floor by hand, at K = 8 sigmas.

        Two fresh operands meet in the program's ``add`` (``16 f``); the
        ``8 o`` terms are the program's rotate and conjugate, the egress
        mask multiply, and *one* service key switch, the egress one —
        ingress is an add of ciphertexts already under the batch key.
        The mask multiply's rescale jitters the bound it sees: the
        message (1 + 1.25) plus the noise accumulated so far.
        """
        f, o, r = NOISE.fresh_std, NOISE.op_std, NOISE.relative_std
        worst = 16 * f + 32 * o + 8 * r * (2.25 + 16 * f + 16 * o)
        verdict = self._admit(_rotate_conjugate())
        assert verdict.proven_floor_bits == pytest.approx(-np.log2(worst), rel=1e-12)

    def test_same_rejection_provenance(self):
        verdict = self._admit(_scale_mismatch(), min_floor_bits=1.0)
        assert verdict.error_codes == ("CKKS-SCALE-MISMATCH",)
        (diag,) = verdict.reports[0].errors
        assert diag.op_index == 6  # pipeline coordinates: the ingress trim is call 1


def _rotsum() -> EvalProgram:
    b = ProgramBuilder("rotsum")
    pair = b.add(b.input, b.rotate(b.input, 1))
    return b.build(b.add(pair, b.rotate(pair, 2)))


class TestAdmissionModelsWhatRuns:
    """The abstract fold and the engine walk the same trimmed pipeline:
    the ``(level, scale)`` admission proves is the one that comes back."""

    OFFLINE = ServeOffline(word_lengths=(28, 36), seed=99)

    @pytest.mark.parametrize("bits", [28, 36])
    @pytest.mark.parametrize(
        "build, spare, lane0",  # lane0: the first home lane's value, from the four sent
        [
            (_well_formed, 1, lambda v: 0.5 * v[0] ** 2 + v[0]),
            (_rotsum, 3, sum),
            (functools.partial(_level_underflow, 3), 0, lambda v: v[0] ** 8),
        ],
        ids=["poly", "rotsum", "depth3"],
    )
    def test_abstract_end_state_is_the_real_one(self, bits, build, spare, lane0):
        program = build()
        preset = self.OFFLINE.preset(bits)
        verdict = admit_program(
            lambda ev, level: service_wrapped(program, ev, ev.fresh(), level),
            preset.abstract,
            noise_program=lambda ev, level: service_wrapped(program, ev, ev.encrypt(), level),
            noise_params=preset.noise,
        )
        assert verdict.admitted and verdict.spare_levels == spare
        ev = SymbolicEvaluator(preset.abstract)
        proven = service_wrapped(program, ev, ev.fresh(), preset.abstract.fresh_level - spare)
        assert ev.report.ok and proven.level == 0

        tenant = TenantKeys(CkksContext(preset.params, seed=bits), preset.batch_public_key())
        session = self.OFFLINE.enroll(bits, 4, tenant.context.keys.public_key())
        values = [0.5, -0.25, 0.125, 0.75]
        message = np.zeros(preset.slots)
        message[session.lane_offset : session.lane_offset + 4] = values
        ct = tenant.context.encrypt(message, public_key=tenant.batch_pk)
        job = BatchJob("j", session, program, ct)
        (plan,) = plan_batches([(bits, job)], preset.slots, 16)
        server = FheServer(offline=self.OFFLINE)
        (ct_out,), _ = server._execute_plan(preset, plan, verdict.spare_levels)
        assert ct_out.level == proven.level
        assert ct_out.scale == pytest.approx(proven.scale, rel=1e-12)
        # ... and it still decrypts to the program's value inside the floor.
        got = tenant.context.decrypt(ct_out)[session.lane_offset]
        assert abs(got - lane0(values)) <= 2.0 ** -verdict.proven_floor_bits


class TestNonFiniteConstants:
    """Every comparison against NaN is false, so a non-finite constant
    used to pass both static passes; it is refused at every door."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), complex(0, -float("inf"))])
    @pytest.mark.parametrize("kind", ["multiply_scalar", "add_scalar"])
    def test_builder(self, kind, value):
        b = ProgramBuilder("bad")
        out = getattr(b, kind)(b.input, value)
        with pytest.raises(ProgramError, match="not finite"):
            b.build(out)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
    @pytest.mark.parametrize("field", ["value", "amount"])
    def test_from_json_and_wire(self, field, literal):
        b = ProgramBuilder("bad")
        text = b.build(b.rotate(b.multiply_scalar(b.input, 0.5), 7)).to_json()
        old = {"value": "[0.5,0.0]", "amount": '"amount":7'}[field]
        new = {"value": f"[{literal},0.0]", "amount": f'"amount":{literal}'}[field]
        assert old in text
        bad = text.replace(old, new)
        with pytest.raises(ProgramError):
            EvalProgram.from_json(bad)
        with pytest.raises(wire.WireError, match="invalid program"):
            wire.decode_program(bad.encode("utf-8"))

    def test_server_refuses_raw_job_frame(self):
        async def scenario() -> None:
            server = FheServer(batch_window=0.01)
            await server.start()
            try:
                client = FheClient("127.0.0.1", server.port, seed=78)
                await client.enroll(36, width=2)
                good = _well_formed().to_json()
                assert "[0.5,0.0]" in good
                ct = client.keys.context.encrypt(np.zeros(client.slots))
                wire.write_frame(
                    client._writer,
                    wire.Kind.JOB,
                    wire.encode_blobs(
                        [
                            wire.encode_json({"program": "poly"}),
                            good.replace("[0.5,0.0]", "[NaN,0.0]").encode("utf-8"),
                            wire.encode_ciphertext(ct),
                        ]
                    ),
                )
                await client._writer.drain()
                kind, payload = await wire.read_frame(client._reader, client._frame_limit)
                assert kind == wire.Kind.ERROR
                assert "invalid program" in wire.decode_json(payload)["error"]
                assert server.metrics.engine_invocations == 0
                assert server.metrics.jobs_admitted == 0
                await client.close()
            finally:
                await server.close()

        asyncio.run(scenario())


class TestRejectionBurnsNothing:
    """Server-level: rejected jobs cost zero engine invocations."""

    # The last one uses every level of the chain: nothing left for egress.
    BAD_PROGRAMS = [
        (_scale_mismatch, "CKKS-SCALE-MISMATCH"),
        (_level_underflow, "CKKS-LEVEL-UNDERFLOW"),
        (functools.partial(_level_underflow, 4), "CKKS-LEVEL-UNDERFLOW"),
    ]

    def test_rejections_execute_nothing(self):
        async def scenario() -> None:
            server = FheServer(batch_window=0.01)
            await server.start()
            try:
                client = FheClient("127.0.0.1", server.port, seed=77)
                await client.enroll(36, width=2)
                for build, code in self.BAD_PROGRAMS:
                    with pytest.raises(JobRejected) as exc_info:
                        await client.submit(build(), [0.1, 0.2])
                    assert code in exc_info.value.codes
                assert server.metrics.engine_invocations == 0
                assert server.metrics.jobs_rejected == len(self.BAD_PROGRAMS)
                assert server.metrics.jobs_admitted == 0
                await client.close()
            finally:
                await server.close()

        asyncio.run(scenario())
