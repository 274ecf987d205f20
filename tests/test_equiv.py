"""Tests for repro.check.equiv — translation validation of schedules.

Covers the acceptance criteria of the translation-validation gate:
zero false positives over every shipped workload trace (both rescale
modes, both eviction policies), detection of *any* single-op schedule
perturbation, certificate serialization and digest binding, the
certificate-gated real-engine executor, and Hypothesis properties over
random serve programs (fuse + schedule always certifies; a perturbed
schedule never does).
"""

import hashlib
import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.check import (
    CHECKER_VERSION,
    EquivError,
    FoldParams,
    certify_for_execution,
    certify_schedule,
    check_equivalence,
    verify_certificate,
)
from repro.core.config import sharp_config
from repro.hw.isa import HeOp, OpKind, Trace
from repro.params.presets import build_sharp_setting
from repro.sched import (
    CertificateError,
    execute_scheduled,
    schedule_trace,
    trace_digest,
)
from repro.sched.trace import ScheduledTrace, schedule_digest
from repro.check.admission import fold_body
from repro.serve.program import EvalProgram, ProgramBuilder, ProgramOp
from repro.workloads.traces import evaluation_traces

WORKLOADS = ("bootstrap", "helr256", "helr1024", "resnet20", "sorting")


@pytest.fixture(scope="module")
def setting():
    return build_sharp_setting(36)


@pytest.fixture(scope="module")
def capacity():
    return sharp_config().onchip_capacity_bytes


@pytest.fixture(scope="module")
def pair(setting):
    """A fused + scheduled HELR trace at a spill-inducing capacity."""
    trace = evaluation_traces(setting, explicit_rescale=True)["helr256"]
    tight = setting.evk_bytes(prng=True) * 3.0
    sched = schedule_trace(trace, setting, tight, fuse=True)
    return trace, sched


def forged(sched: ScheduledTrace, ops) -> ScheduledTrace:
    """The same schedule with a tampered op list (events kept verbatim)."""
    trace = Trace(name=sched.trace.name, ops=list(ops), normalize=sched.trace.normalize)
    return replace(sched, trace=trace)


# ---------------------------------------------------------------------------
# Zero false positives on everything we ship
# ---------------------------------------------------------------------------


class TestZeroFalsePositives:
    @pytest.mark.parametrize("explicit_rescale", [False, True])
    @pytest.mark.parametrize("policy", ["belady", "lru"])
    def test_every_workload_certifies(
        self, setting, capacity, explicit_rescale, policy
    ):
        traces = evaluation_traces(setting, explicit_rescale=explicit_rescale)
        assert set(traces) == set(WORKLOADS)
        for name, trace in traces.items():
            sched = schedule_trace(
                trace, setting, capacity, policy=policy, fuse=True
            )
            certificate = certify_schedule(trace, sched, setting)
            assert certificate.checker_version == CHECKER_VERSION
            assert certificate.source_digest == trace_digest(trace)
            assert certificate.schedule_digest == sched.digest()
            # The proven floor must never weaken across the transform.
            assert (
                certificate.scheduled_floor_bits
                >= certificate.source_floor_bits - 0.01
            ), name

    def test_fusion_is_actually_exercised(self, setting, capacity):
        trace = evaluation_traces(setting, explicit_rescale=True)["sorting"]
        sched = schedule_trace(trace, setting, capacity, fuse=True)
        assert len(sched.trace.ops) < len(trace.ops)
        certify_schedule(trace, sched, setting)

    def test_tight_capacity_spilling_schedule_certifies(self, setting, pair):
        trace, sched = pair
        assert sched.spill_bytes > 0  # the replay layer has real work
        report = check_equivalence(trace, sched, setting)
        assert report.ok, report.render()

    @pytest.mark.parametrize(
        "name",
        [
            "bootstrap",
            # The noise walk treats MOD_RAISE as a noise identity, so no
            # bootstrap resets the noise and the floor reaches ~ -1000 bits.
            *(
                pytest.param(n, marks=pytest.mark.xfail(strict=True, reason="ROADMAP 5"))
                for n in ("helr256", "helr1024", "resnet20", "sorting")
            ),
        ],
    )
    def test_proven_floor_is_a_precision(self, setting, capacity, name):
        trace = evaluation_traces(setting)[name]
        sched = schedule_trace(trace, setting, capacity, fuse=True)
        floor = certify_schedule(trace, sched, setting).source_floor_bits
        assert 0 < floor < float("inf"), floor


# ---------------------------------------------------------------------------
# Every single-op perturbation is flagged
# ---------------------------------------------------------------------------


class TestPerturbations:
    def test_every_count_bump_is_flagged(self, setting, pair):
        """Exhaustive: one extra accumulation pass anywhere is caught."""
        trace, sched = pair
        base_ops = list(sched.trace.ops)
        missed = []
        for i, op in enumerate(base_ops):
            if op.kind is OpKind.RESCALE:
                continue  # counts are meaningless on a pure level drop
            ops = list(base_ops)
            ops[i] = replace(op, count=op.count + 1)
            if check_equivalence(trace, forged(sched, ops), setting).ok:
                missed.append((i, op.kind.value))
        assert not missed, f"accepted perturbed schedules: {missed}"

    def test_operand_rewire_is_flagged(self, setting, pair):
        trace, sched = pair
        ops = list(sched.trace.ops)
        limbs_at = {}
        target = None
        for i, op in enumerate(ops):
            for s in op.srcs:
                alt = limbs_at.get(op.limbs)
                if alt is not None and alt != s and target is None:
                    target = (i, s, alt)
            if op.dst is not None:
                limbs_at[op.limbs] = op.dst
        assert target is not None
        i, old, new = target
        ops[i] = replace(
            ops[i], srcs=tuple(new if s == old else s for s in ops[i].srcs)
        )
        report = check_equivalence(trace, forged(sched, ops), setting)
        assert "EQV-DAG" in report.error_codes()

    def test_rescale_misalignment_is_flagged(self, setting, pair):
        trace, sched = pair
        ops = list(sched.trace.ops)
        at = next(
            i
            for i, op in enumerate(ops)
            if op.kind in (OpKind.PMADD, OpKind.PMULT) and op.drop > 0
        )
        ops[at] = replace(ops[at], drop=0)
        report = check_equivalence(trace, forged(sched, ops), setting)
        assert "EQV-LEVEL" in report.error_codes()

    def test_dropped_refill_is_flagged(self, setting, pair):
        trace, sched = pair
        events = list(sched.events)
        at = next(
            i
            for i, e in enumerate(events)
            if any(not f.startswith("evk:") for f in e.fetched)
        )
        keep = next(f for f in events[at].fetched if not f.startswith("evk:"))
        events[at] = replace(
            events[at], fetched=[f for f in events[at].fetched if f != keep]
        )
        mutant = replace(sched, events=events)
        report = check_equivalence(trace, mutant, setting)
        assert {"EQV-RESIDENCY", "EQV-SPILL"} & report.error_codes()

    def test_hidden_spill_is_flagged(self, setting, pair):
        trace, sched = pair
        events = list(sched.events)
        at = next(i for i, e in enumerate(events) if e.spill_bytes > 0)
        events[at] = replace(events[at], spill_bytes=0.0, writeback_bytes=0.0)
        mutant = replace(sched, events=events)
        report = check_equivalence(trace, mutant, setting)
        assert "EQV-SPILL" in report.error_codes()


# ---------------------------------------------------------------------------
# Certificates: serialization + digest binding
# ---------------------------------------------------------------------------


# The evaluation traces' digests at 36 bits, per rescale mode.
TRACE_DIGESTS = {
    False: {
        "bootstrap": "12852de9c7f3d42603080f70b0ed5ef73387fb7dd5974bc959e011c202183db6",
        "helr256": "1df3a59509c20750fb8e0b9f0ab51b69ca811bb248e93e3971854a7db6abe3ef",
        "helr1024": "ff0c67bc786e86c203f5c5793f689075c7be6b45d806d46355d0e3ccda43fe2b",
        "resnet20": "49efa68d056d4001ae7a56280d76138db7d90f5a2603bdef6517d8325820b8be",
        "sorting": "d8646de0f43ad985e87192244a06598c30529ddae8f9c8758627b5663afcaa65",
    },
    True: {
        "bootstrap": "cb906e1336e3b62e97e6aa7863cae999a6b5353e06b4f8f7616496b47c41e81f",
        "helr256": "0dcc14feaad26db35429bfee8b6348dbd726ec44c4d1f8fcbcaccde3514f7805",
        "helr1024": "b901b539b70052d4cb2afcbb71eab2f15b0e224d064c75bc632138a5f80f8878",
        "resnet20": "c2afeebd9cd3fc5d4f8ca192d79b366aaa21f35924ccd2707ca6ea3500bb2f8e",
        "sorting": "13322bf5b8c46c5f0c586dabb7b15ff4a15594d5fbd9ee9749df710483fe7418",
    },
}


def _sha256_json(payload: object) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def reference_trace_digest(trace: Trace) -> str:
    """The canonical form as ``json.dumps`` writes it."""
    ops = [
        {
            "kind": op.kind.value,
            "limbs": op.limbs,
            "drop": op.drop,
            "key_id": op.key_id,
            "count": op.count,
            "dst": op.dst,
            "srcs": list(op.srcs),
        }
        for op in trace.ops
    ]
    return _sha256_json({"name": trace.name, "normalize": trace.normalize, "ops": ops})


def reference_schedule_digest(sched: ScheduledTrace) -> str:
    return _sha256_json(
        {
            "trace": reference_trace_digest(sched.trace),
            "policy": sched.policy,
            "capacity_bytes": sched.capacity_bytes,
            "events": [],
        }
    )


# Ids that need escaping (quote, backslash, control and non-ASCII
# characters) beside plain ones.
value_ids = st.one_of(
    st.sampled_from(["x", '"', "\\", 'a"b\\c', "é", "\u2028", "\n", "日本"]),
    st.text(max_size=6),
)
counts = st.one_of(
    st.integers(-3, 1 << 70), st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def canonical_traces(draw) -> Trace:
    ops = [
        HeOp(
            draw(st.sampled_from(list(OpKind))),
            draw(st.integers(-2, 70)),
            drop=draw(st.integers(-1, 3)),
            key_id=draw(st.none() | value_ids),
            count=draw(counts),
            dst=draw(st.none() | value_ids),
            srcs=tuple(draw(st.lists(value_ids, max_size=3))),
        )
        for _ in range(draw(st.integers(0, 4)))
    ]
    return Trace(draw(value_ids), ops, normalize=draw(counts))


class TestCertificate:
    def test_transplanted_certificate_is_refused(self, setting, capacity):
        traces = evaluation_traces(setting)
        pairs = {}
        for name in ("bootstrap", "helr256"):
            sched = schedule_trace(traces[name], setting, capacity, fuse=True)
            pairs[name] = (traces[name], sched)
        certificate = certify_schedule(*pairs["bootstrap"], setting)
        report = verify_certificate(certificate, *pairs["helr256"])
        assert "EQV-CERT" in report.error_codes()

    def test_version_drift_is_refused(self, setting, pair):
        trace, sched = pair
        certificate = certify_schedule(trace, sched, setting)
        stale = replace(certificate, checker_version="equiv-0")
        report = verify_certificate(stale, trace, sched)
        assert "EQV-CERT" in report.error_codes()

    @pytest.mark.parametrize(
        "policy, digest",
        [
            ("belady", "05c334407f0804c4565dee50ca9a4cd3fded4748b131c695569a8f998533a314"),
            ("lru", "2841085ea9ce59a45bf881b996415f1f29847a0101bb89c2fdfff048d848a7ac"),
        ],
    )
    def test_schedule_digest_is_pinned(self, setting, capacity, policy, digest):
        """The fused 36-bit HELR schedule certifies to these exact bytes."""
        trace = evaluation_traces(setting)["helr256"]
        sched = schedule_trace(trace, setting, capacity, policy=policy, fuse=True)
        assert certify_schedule(trace, sched, setting).schedule_digest == digest

    @pytest.mark.parametrize("explicit", [False, True], ids=["folded", "explicit"])
    def test_trace_digests_are_pinned(self, setting, explicit):
        """The 36-bit evaluation traces digest to these exact bytes (read
        when the canonical form was built by ``json.dumps``)."""
        traces = evaluation_traces(setting, explicit_rescale=explicit)
        assert {name: trace_digest(t) for name, t in traces.items()} == TRACE_DIGESTS[explicit]

    @settings(max_examples=60, deadline=None)
    @given(trace=canonical_traces(), capacity=counts, policy=value_ids)
    def test_canonical_form_is_json_dumps(self, trace, capacity, policy):
        """The hand-built canonical bytes are ``json.dumps(sort_keys=True)``'s."""
        assert trace_digest(trace) == reference_trace_digest(trace)
        sched = ScheduledTrace(trace, policy, capacity, True, [])
        assert schedule_digest(sched, ()) == reference_schedule_digest(sched)

    def test_empty_side_never_certifies(self, setting, capacity):
        """A schedule with no ops does not stand in for a program, nor
        does a program with no ops stand in for a schedule."""
        trace = evaluation_traces(setting)["bootstrap"]
        empty = Trace(trace.name, [])
        for source, sched in (
            (trace, schedule_trace(empty, setting, capacity)),
            (empty, schedule_trace(trace, setting, capacity)),
        ):
            with pytest.raises(EquivError) as excinfo:
                certify_schedule(source, sched, setting)
            assert "EQV-OUTPUT" in excinfo.value.report.error_codes()

    def test_certify_raises_on_tampered_schedule(self, setting, pair):
        trace, sched = pair
        ops = list(sched.trace.ops)
        ops[0] = replace(ops[0], count=ops[0].count + 1)
        with pytest.raises(EquivError) as excinfo:
            certify_schedule(trace, forged(sched, ops), setting)
        assert not excinfo.value.report.ok


# ---------------------------------------------------------------------------
# The execution gate
# ---------------------------------------------------------------------------


def _poly_program() -> EvalProgram:
    b = ProgramBuilder("gatepoly")
    x = b.input
    half = b.multiply_scalar(b.square(x), 0.5)
    return b.build(b.add_matched(half, x))


@pytest.fixture(scope="module")
def chain(small_context):
    """The engine's own chain, as the gate reads it: the small context's
    parameters on 32-bit words (its primes stay below 2^30)."""
    return FoldParams.from_params(small_context.params, 32)


def record(program: EvalProgram, chain: FoldParams):
    """The body's trace from a fresh ciphertext on ``chain``."""
    report, trace = fold_body(
        program, chain, chain.abstract.fresh_level, chain.abstract.default_scale
    )
    assert report.ok
    return trace


def certify(program: EvalProgram, chain: FoldParams, capacity: float):
    return certify_for_execution(record(program, chain), chain.setting, capacity)


def stubs(small_context):
    """An engine holding only its parameters and a fresh ciphertext's
    ``(level, scale)``: any evaluator call would be an AttributeError."""
    params = small_context.params
    return (
        SimpleNamespace(params=params),
        SimpleNamespace(level=params.usable_level, scale=params.scale),
    )


class TestGatedExecution:
    def test_no_certificate_no_engine(self, chain, capacity):
        program = _poly_program()
        scheduled, _ = certify(program, chain, capacity)
        # evaluator=None proves the gate fires before any engine call.
        with pytest.raises(CertificateError, match="no equivalence certificate"):
            execute_scheduled(program, scheduled, None, None, None)

    def test_forged_certificate_is_refused(self, chain, capacity, small_context):
        program = _poly_program()
        scheduled, certificate = certify(program, chain, capacity)
        forged_cert = replace(certificate, schedule_digest="0" * 64)
        with pytest.raises(CertificateError):
            execute_scheduled(program, scheduled, *stubs(small_context), forged_cert)

    def test_transplanted_certificate_is_refused(self, chain, capacity, small_context):
        program = _poly_program()
        scheduled, _ = certify(program, chain, capacity)
        b = ProgramBuilder("other")
        other = b.build(b.negate(b.input))
        _, other_cert = certify(other, chain, capacity)
        with pytest.raises(CertificateError):
            execute_scheduled(program, scheduled, *stubs(small_context), other_cert)

    def test_unrecordable_certificate_is_refused(self, chain, capacity, small_context):
        # A certificate naming a word length that cannot hold the
        # engine's chain: the gate cannot re-record the source, so
        # nothing runs.
        program = _poly_program()
        scheduled, certificate = certify(program, chain, capacity)
        with pytest.raises(CertificateError, match="word length"):
            execute_scheduled(
                program,
                scheduled,
                *stubs(small_context),
                replace(certificate, word_bits=99),
            )

    def test_relabelled_word_length_is_refused(self, chain, capacity, small_context):
        # The source trace is named by its word length too, so a
        # certificate relabelled to another word that holds the chain
        # re-records a different source.
        program = _poly_program()
        scheduled, certificate = certify(program, chain, capacity)
        relabelled = replace(certificate, word_bits=36)
        with pytest.raises(CertificateError, match="source digest mismatch"):
            execute_scheduled(program, scheduled, *stubs(small_context), relabelled)

    @pytest.mark.parametrize(
        "certified, impostor",
        [
            (("negate", {}), ("square", {})),  # another trace kind
            (("negate", {}), ("consume_level", {})),  # same kind, spends a level
            (("rotate", {"amount": 1}), ("rotate", {"amount": 2})),  # another key
            (  # same trace, another plaintext constant
                ("multiply_scalar", {"value": 0.5}),
                ("multiply_scalar", {"value": 2.0}),
            ),
        ],
        ids=["kind", "level", "key", "constant"],
    )
    def test_transplanted_program_is_refused(
        self, chain, capacity, small_context, certified, impostor
    ):
        # A valid certificate for one program must not run another that
        # merely reuses its value names: the gate re-records the source
        # from the program it is given, named by that program's digest.
        kind, operands = certified
        program = EvalProgram("A", (ProgramOp(kind, "out", ("in",), **operands),))
        scheduled, certificate = certify(program, chain, capacity)
        kind, operands = impostor
        other = EvalProgram("A", (ProgramOp(kind, "out", ("in",), **operands),))
        with pytest.raises(CertificateError, match="source digest mismatch"):
            execute_scheduled(other, scheduled, *stubs(small_context), certificate)

    def test_certified_execution_matches_reference(
        self, chain, capacity, small_context, small_evaluator, rng
    ):
        program = _poly_program()
        scheduled, certificate = certify(program, chain, capacity)
        m = rng.uniform(-1, 1, 256)
        ct = small_context.encrypt(m)
        out = execute_scheduled(program, scheduled, small_evaluator, ct, certificate)
        got = np.real(small_context.decrypt(out))
        expected = 0.5 * m * m + m
        assert np.max(np.abs(got - expected)) < 1e-2


# ---------------------------------------------------------------------------
# Hypothesis: random serve programs always certify; perturbed never do
# ---------------------------------------------------------------------------

_UNARY = ("square", "mul_scalar", "negate", "conjugate", "add_self")


def _random_program(choices: list[str]) -> EvalProgram:
    """A deterministic program from a Hypothesis-drawn op sequence."""
    b = ProgramBuilder("hyp")
    cur = b.input
    mults = 0
    for i, choice in enumerate(choices):
        if choice == "square":
            if mults >= 3:
                continue  # stay well inside the level budget
            cur = b.square(cur)
            mults += 1
        elif choice == "mul_scalar":
            if mults >= 3:
                continue
            cur = b.multiply_scalar(cur, 0.5 + 0.25 * (i % 3))
            mults += 1
        elif choice == "negate":
            cur = b.negate(cur)
        elif choice == "conjugate":
            cur = b.conjugate(cur)
        else:  # add_self
            cur = b.add_matched(cur, cur)
    return b.build(cur)


@st.composite
def program_traces(draw):
    choices = draw(
        st.lists(st.sampled_from(_UNARY), min_size=1, max_size=8)
    )
    return _random_program(choices)


class TestHypothesis:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(program=program_traces())
    def test_random_programs_certify(self, chain, capacity, program):
        source = record(program, chain)
        scheduled, certificate = certify_for_execution(source, chain.setting, capacity)
        assert verify_certificate(certificate, source, scheduled).ok

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(program=program_traces(), data=st.data())
    def test_any_perturbation_is_flagged(self, chain, capacity, program, data):
        source = record(program, chain)
        scheduled, _ = certify_for_execution(source, chain.setting, capacity)
        ops = list(scheduled.trace.ops)
        targets = [
            i for i, op in enumerate(ops) if op.kind is not OpKind.RESCALE
        ]
        at = data.draw(st.sampled_from(targets))
        ops[at] = replace(ops[at], count=ops[at].count + 1)
        report = check_equivalence(source, forged(scheduled, ops), chain.setting)
        assert not report.ok
