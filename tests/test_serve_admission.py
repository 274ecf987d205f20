"""Admission control: every bad program is rejected statically.

The table drives the load-bearing claim of the serve subsystem: a
malformed job is refused with the right diagnostic code *before* the
engine runs — zero evaluator invocations, zero NTTs.  The audit holds
the other direction: an admitted program runs as admission proved, at
every word length the service sells.
"""

from __future__ import annotations

import asyncio
import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import FoldParams, admit_program
from repro.check.admission import AdmissionVerdict, ProductFold, fold_body
from repro.check.ckks_check import SymbolicEvaluator
from repro.ckks.context import CkksContext
from repro.params.presets import NATIVE_WORD_LENGTHS, build_native_ckks_params
from repro.sched import trace_digest
from repro.serve import wire
from repro.serve.batching import BatchJob, plan_batches, service_wrapped
from repro.serve.client import FheClient, JobRejected
from repro.serve.offline import ServeOffline, TenantKeys
from repro.serve.program import OPS, EvalProgram, ProgramBuilder, ProgramError
from repro.serve.server import FheServer

# Mirrors the serve preset shape: depth-4 chain on real 36-bit primes
# (real primes matter — a synthetic power-of-two chain has no RNS scale
# drift, so the scale-mismatch rejection would never fire).
FOLD = FoldParams.from_params(build_native_ckks_params(36, degree=1 << 10, depth=4), 36)
NOISE = FOLD.noise
# Every tier the service sells, built once for the tests that run jobs.
OFFLINE = ServeOffline(seed=99)


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
            program, FOLD, label=program.name, **kwargs  # type: ignore[arg-type]
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

    def test_noise_floor_at_28_bits(self):
        # The paper's robustness boundary, reproduced as a rejection: a
        # depth-3 program keeps 11.8 proven bits on 36-bit words and 3.8
        # on 28-bit ones, so a 5-bit target refuses it at 28 bits only.
        program = _level_underflow(3)
        verdicts = {
            bits: admit_program(program, OFFLINE.preset(bits).fold_params, 5.0)
            for bits in (28, 36)
        }
        assert verdicts[36].admitted
        assert verdicts[28].error_codes == ("NOISE-FLOOR",)

    def test_floor_rule(self):
        # Healthy program, but the negotiated floor demands more bits
        # than it provably retains.
        verdict = self._admit(_well_formed(), min_floor_bits=40.0)
        assert not verdict.admitted
        assert "NOISE-FLOOR" in verdict.error_codes

    def test_one_product_fold_per_admission(self, monkeypatch):
        """Spare levels are read off the level rule alone, so the product
        fold runs once, at the trimmed level."""
        folds = []
        init = ProductFold.__init__
        monkeypatch.setattr(
            ProductFold, "__init__", lambda self, *args: folds.append(init(self, *args))
        )
        verdict = self._admit(_well_formed())
        assert verdict.admitted and verdict.spare_levels == 1 and len(folds) == 1

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


def _serve(program: EvalProgram, bits: int, values, verdict: AdmissionVerdict):
    """Run one job end to end on the ``bits`` tier exactly as the server's
    batch worker does; returns the tenant-decrypted slots and the
    ciphertexts in and out."""
    preset = OFFLINE.preset(bits)
    tenant = _tenant(bits)
    session = OFFLINE.enroll(bits, 4, tenant.context.keys.public_key())
    message = np.zeros(preset.slots, dtype=complex)
    message[session.lane_offset : session.lane_offset + 4] = values
    ct = tenant.context.encrypt(message, public_key=tenant.batch_pk)
    job = BatchJob("j", session, program, ct)
    (plan,) = plan_batches([(bits, job)], preset.slots, 16)
    (ct_out,), _ = FheServer(offline=OFFLINE)._execute_plan(preset, plan, verdict)
    lanes = slice(session.lane_offset, session.lane_offset + 4)
    return message, tenant.context.decrypt(ct_out), lanes, ct, ct_out


@functools.lru_cache(maxsize=None)
def _tenant(bits: int) -> TenantKeys:
    preset = OFFLINE.preset(bits)
    return TenantKeys(CkksContext(preset.params, seed=bits), preset.batch_public_key())


class TestAdmissionModelsWhatRuns:
    """The abstract fold and the engine walk the same trimmed pipeline:
    the ``(level, scale)`` admission proves is the one that comes back,
    at every word length the service sells."""

    @pytest.mark.parametrize("bits", NATIVE_WORD_LENGTHS)
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
        preset = OFFLINE.preset(bits)
        verdict = admit_program(program, preset.fold_params)
        assert verdict.admitted and verdict.spare_levels == spare
        ev = SymbolicEvaluator(preset.fold_params.abstract)
        level = preset.params.usable_level - spare
        proven = service_wrapped(program, ev, ev.fresh(), level)
        assert ev.report.ok and proven.level == 0

        values = [0.5, -0.25, 0.125, 0.75]
        _, got, lanes, ct, ct_out = _serve(program, bits, values, verdict)
        # The certified trace starts on the packed ciphertext's limbs.
        packed = preset.evaluator.drop_to_level(ct, level)
        assert verdict.trace.ops[0].limbs == len(packed.moduli)
        assert ct_out.level == proven.level
        assert ct_out.scale == pytest.approx(proven.scale, rel=1e-12)
        # ... and it still decrypts to the program's value inside the floor.
        assert abs(got[lanes][0] - lane0(values)) <= 2.0 ** -verdict.proven_floor_bits


def test_wide_complex_constants_encode_on_62_bit_words():
    # |2 + 0.5i| at a 2^61 scale overflowed the slot encoder's 2^62
    # coefficient range, so an admitted job failed to execute.
    preset = OFFLINE.preset(62)
    ev, ctx = preset.evaluator, preset.context
    z = np.linspace(-1, 1, preset.slots)
    ct = ctx.encrypt(z)
    for out, want in (
        (ev.add_scalar(ct, 2 + 0.5j), z + 2 + 0.5j),
        (ev.multiply_scalar(ct, -3 + 2j), z * (-3 + 2j)),
    ):
        assert np.max(np.abs(ctx.decrypt(out) - want)) < 2.0**-40


class Plain:
    """What a program means on the slot vector: the reference fold."""

    def match(self, a, b):
        return a, b

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def multiply(self, a, b):
        return a * b

    def square(self, a):
        return a * a

    def negate(self, a):
        return -a

    def multiply_scalar(self, a, value):
        return a * value

    def add_scalar(self, a, value):
        return a + value

    def rotate(self, a, amount):
        return np.roll(a, -amount)

    def conjugate(self, a):
        return np.conj(a)

    def consume_level(self, a):
        return a


SPENDS = {"add_matched", "sub_matched", "multiply", "square", "multiply_scalar", "consume_level"}


@st.composite
def served_programs(draw) -> EvalProgram:
    """Programs over every OPS kind: each op reads the latest value, and a
    two-operand op's second operand reaches back anywhere (a DAG)."""
    b = ProgramBuilder("audit")
    values = [b.input]
    spent = 0
    for kind in draw(st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=6)):
        spec = OPS[kind]
        if kind in SPENDS:
            if spent == 3:  # the egress mask needs the fourth level
                kind, spec = "negate", OPS["negate"]
            spent += 1
        args: list[object] = [values[-1]]
        if spec.arity == 2:
            args.append(draw(st.sampled_from(values)))
        if spec.operand == "value":
            args.append(complex(draw(st.floats(-2, 2)), draw(st.sampled_from((0.0, 0.5)))))
        elif spec.operand == "amount":
            args.append(draw(st.sampled_from((1, 2))))
        values.append(getattr(b, kind)(*args))
    return b.build(values[-1])


def _audit(bits: int, program: EvalProgram, values: list[float]) -> None:
    preset = OFFLINE.preset(bits)
    verdict = admit_program(program, preset.fold_params, min_floor_bits=1.0)
    if not verdict.admitted:
        return
    domain = ProductFold(preset.fold_params)
    level = preset.params.usable_level - verdict.spare_levels
    _, end, _ = service_wrapped(program, domain, domain.fresh(), level)
    message, got, lanes, ct, ct_out = _serve(program, bits, values, verdict)
    assert ct_out.level == end.level
    assert ct_out.scale == pytest.approx(end.scale, rel=1e-12)
    want = program.run(Plain(), message)
    assert np.max(np.abs(got[lanes] - want[lanes])) <= 2.0 ** -verdict.proven_floor_bits
    # The gate's re-record is the trace admission recorded.
    packed = preset.evaluator.drop_to_level(ct, level)
    gate_params = FoldParams.from_params(preset.evaluator.params, bits)
    report, source = fold_body(program, gate_params, packed.level, packed.scale)
    assert report.ok and trace_digest(source) == trace_digest(verdict.trace)


AUDIT_VALUES = st.lists(st.floats(-1, 1), min_size=4, max_size=4)


class TestAdmissionAudit:
    """Every static verdict audited against the engine: an admitted
    program ends at the fold's level and scale, every served lane is
    within the proven floor, and the gate re-records admission's trace."""

    @pytest.mark.parametrize("bits", NATIVE_WORD_LENGTHS)
    @settings(max_examples=12, deadline=None)
    @given(program=served_programs(), values=AUDIT_VALUES)
    def test_admitted_programs_run_as_proven(self, bits, program, values):
        _audit(bits, program, values)

    @pytest.mark.slow
    @pytest.mark.parametrize("bits", NATIVE_WORD_LENGTHS)
    @settings(max_examples=60, deadline=None)
    @given(program=served_programs(), values=AUDIT_VALUES)
    def test_admitted_programs_run_as_proven_wide(self, bits, program, values):
        _audit(bits, program, values)


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
        # Each malformed JOB is refused alone, as that job; the session
        # stays open and the next job on it runs.
        async def scenario() -> None:
            server = FheServer(batch_window=0.01)
            await server.start()
            try:
                client = FheClient("127.0.0.1", server.port, seed=78)
                await client.enroll(36, width=2)
                good = _well_formed().to_json()
                assert "[0.5,0.0]" in good
                ct = client.keys.context.encrypt(np.zeros(client.slots))
                bad_programs = {
                    "invalid program": good.replace("[0.5,0.0]", "[NaN,0.0]").encode("utf-8"),
                    "not valid JSON": b'{"ops": [',
                }
                for expected, program_blob in bad_programs.items():
                    wire.write_frame(
                        client._writer,
                        wire.Kind.JOB,
                        wire.encode_blobs(
                            [
                                wire.encode_json({"program": "poly"}),
                                program_blob,
                                wire.encode_ciphertext(ct),
                            ]
                        ),
                    )
                    await client._writer.drain()
                    kind, payload = await wire.read_frame(client._reader, client._frame_limit)
                    assert kind == wire.Kind.ERROR
                    error = wire.decode_json(payload)
                    assert expected in error["error"]
                    assert error["job_id"].startswith(client.session_id)
                    assert error["codes"] == ["WIRE-JOB"]
                assert server.metrics.engine_invocations == 0
                assert server.metrics.jobs_admitted == 0
                values = [0.5, -0.25]
                result = await client.submit(_well_formed(), values)
                want = [0.5 * v * v + v for v in values]
                assert np.allclose(result.values[: len(values)].real, want, atol=1e-3)
                jobs = (await client.stats())["jobs"]
                assert (jobs["submitted"], jobs["admitted"], jobs["rejected"]) == (3, 1, 2)
                assert jobs["submitted"] == jobs["admitted"] + jobs["rejected"]
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
