"""The serve IR has one table and one fold: both are checked here.

* completeness — every :data:`OPS` row names something that exists in
  every domain and in the builder;
* the recorded trace rows of the two programs ``serve_mix`` runs;
* a Hypothesis differential over programs drawn from all twelve kinds:
  the product domain's symbolic component and the real evaluator must
  agree on ``(level, scale)``, and the trace it records must hold each
  value at the limbs of its symbolic level.
"""

from __future__ import annotations

import hashlib
import inspect
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.check.admission import (
    FoldParams,
    ProductFold,
    admit_program,
    certify_for_execution,
    fold_body,
)
from repro.check.ckks_check import AbstractParams, SymbolicEvaluator
from repro.check.noise_check import NoiseCheckEvaluator
from repro.ckks.context import make_params
from repro.ckks.ops import Evaluator
from repro.core.config import sharp_config
from repro.params.presets import boot_plan, build_native_ckks_params
from repro.sched import CertificateError, execute_scheduled
from repro.serve.offline import SERVE_DEGREE, SERVE_DEPTH
from repro.serve.program import OPS, EvalProgram, ProgramBuilder

DOMAINS = (Evaluator, SymbolicEvaluator, NoiseCheckEvaluator, ProductFold)
LEVEL_BUDGET = 5  # small_context has 6 levels; stay inside them
# Kinds that may spend a level: the generator keeps them within the budget.
SPENDS = {
    "add_matched", "sub_matched", "multiply", "square", "multiply_scalar", "consume_level"
}
# The 36-bit serve preset's chain: 2 base primes, 4 single-prime levels.
SERVE_PARAMS = build_native_ckks_params(36, degree=SERVE_DEGREE, depth=SERVE_DEPTH)
FOLD = FoldParams.from_params(SERVE_PARAMS, 36)


def record(program: EvalProgram):
    """The fold's report and the body's trace from a fresh ciphertext on
    the 36-bit serve chain."""
    return fold_body(program, FOLD, FOLD.abstract.fresh_level, FOLD.abstract.default_scale)


def ssa_shape(input_id: str, defs) -> list[tuple[int, ...]]:
    """Each op's operands as def indices (0 = the input): SSA structure
    up to value renaming."""
    index = {input_id: 0}
    shape = []
    for k, (dst, srcs) in enumerate(defs, 1):
        shape.append(tuple(index[s] for s in srcs))
        index[dst] = k
    return shape


class TestTableCompleteness:
    @pytest.mark.parametrize("kind", sorted(OPS))
    def test_row_resolves_everywhere(self, kind):
        spec = OPS[kind]
        assert spec.operand in (None, "value", "amount")
        assert callable(getattr(ProgramBuilder, kind))
        for domain in DOMAINS:
            method = getattr(domain, spec.method)
            # self + ciphertext operands + the scalar / rotation operand
            inspect.signature(method).bind(
                *[None] * (1 + spec.arity + (spec.operand is not None))
            )
            if spec.matched:
                inspect.signature(domain.match).bind(None, None, None)

    def test_builder_emits_only_table_kinds(self):
        emitters = {
            name
            for name, member in vars(ProgramBuilder).items()
            if inspect.isfunction(member) and not name.startswith("_")
        }
        assert emitters - {"build"} == set(OPS)


def test_lowering_refuses_what_the_chain_cannot_hold():
    # The fold's level rule is the depth check: the chain's last level
    # lands on the base, one more is CKKS-LEVEL-UNDERFLOW, and the gate
    # refuses such a program before any evaluator call.
    levels = FOLD.abstract.fresh_level

    def squares(n: int) -> EvalProgram:
        b = ProgramBuilder("deep")
        v = b.input
        for _ in range(n):
            v = b.square(v)
        return b.build(v)

    report, trace = record(squares(levels))
    assert report.ok
    assert trace.ops[-1].result_limbs == FOLD.setting.base_prime_count
    report, _ = record(squares(levels + 1))
    assert "CKKS-LEVEL-UNDERFLOW" in {d.code for d in report.errors}

    scheduled, certificate = certify_for_execution(
        trace, FOLD.setting, sharp_config().onchip_capacity_bytes
    )
    # Only params: any evaluator call would be an AttributeError.
    engine = SimpleNamespace(params=SERVE_PARAMS)
    ct_in = SimpleNamespace(level=levels, scale=SERVE_PARAMS.scale)
    with pytest.raises(CertificateError, match="CKKS-LEVEL-UNDERFLOW"):
        execute_scheduled(squares(levels + 1), scheduled, engine, ct_in, certificate)


def test_projected_chain_declares_one_boot_scale():
    """A chain with boot levels keeps its own boot scale in the group, the
    setting and the noise domain; one without them reads the word's plan."""
    params = make_params(
        scale_bits=35.0, word_bits=36, degree=1 << 10, depth=3, boot_scale_bits=45, boot_depth=4
    )
    fold = FoldParams.from_params(params, 36)
    assert fold.setting.group("boot").levels == 4
    assert (
        fold.setting.group("boot").scale_bits
        == fold.setting.boot_scale_bits
        == fold.noise.boot_scale_bits
        == 45
    )
    assert FOLD.setting.group("boot").levels == 0
    assert FOLD.setting.boot_scale_bits == FOLD.noise.boot_scale_bits == boot_plan(36)[0]


def test_serve_mix_programs_record_their_rows():
    # The two programs serve_mix runs, as admission records them on the
    # 36-bit serve chain after the ingress trim: (kind, limbs, drop, key).
    b = ProgramBuilder("poly")
    poly = b.build(b.add_matched(b.multiply_scalar(b.square(b.input), 0.5), b.input))
    b = ProgramBuilder("rotsum")
    pair = b.add(b.input, b.rotate(b.input, 1))
    rotsum = b.build(b.add(pair, b.rotate(pair, 2)))

    def rows(program: EvalProgram) -> list[tuple]:
        trace = admit_program(program, FOLD).trace
        return [(h.kind.name, h.limbs, h.drop, h.key_id) for h in trace.ops]

    assert rows(poly) == [  # spare 1: the body starts at level 3
        ("HMULT", 5, 1, "mult"),
        ("PMULT", 4, 1, None),
        ("PMADD", 3, 0, None),  # x is scale-corrected on its way down to level 1
    ]
    assert rows(rotsum) == [  # spare 3: the body runs at level 1
        ("HROT", 3, 0, "rot_1"),
        ("HADD", 3, 0, None),
        ("HROT", 3, 0, "rot_2"),
        ("HADD", 3, 0, None),
    ]
    assert admit_program(poly, FOLD).trace.name == f"serve_poly_36b_{poly.digest()}"


def test_program_digest_is_derived_once(monkeypatch):
    """A served job reads its program's digest at admission, batching,
    trace naming, the certificate cache and the gate: it is taken once,
    when the program is built, and never re-serialised."""
    b = ProgramBuilder("poly")
    poly = b.build(b.add_matched(b.multiply_scalar(b.square(b.input), 0.5), b.input))
    assert poly.digest() == hashlib.sha256(poly.to_json().encode("utf-8")).hexdigest()
    serialised = []
    monkeypatch.setattr(EvalProgram, "to_json", lambda self: serialised.append(self))
    digest = poly.digest()
    assert admit_program(poly, FOLD).trace.name.endswith(digest)
    assert poly.digest() == digest and serialised == []


@st.composite
def programs(draw) -> EvalProgram:
    """A chain over all twelve kinds; second operands reach back anywhere."""
    b = ProgramBuilder("hyp")
    values = [b.input]
    spent = 0
    for kind in draw(st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=8)):
        spec = OPS[kind]
        if kind in SPENDS:
            if spent == LEVEL_BUDGET:
                kind, spec = "negate", OPS["negate"]
            else:
                spent += 1
        args: list[object] = [values[-1]]
        if spec.arity == 2:
            args.append(draw(st.sampled_from(values)))
        if spec.operand == "value":
            args.append(draw(st.floats(-2, 2)))
        elif spec.operand == "amount":
            args.append(draw(st.sampled_from((1, 2))))
        values.append(getattr(b, kind)(*args))
    return b.build(values[-1])


class TestThreeReadingsAgree:
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(program=programs())
    def test_symbolic_real_and_trace(self, small_context, small_evaluator, program):
        params = small_context.params
        fold = FoldParams.from_params(params, 32)

        def symbolic(prog: EvalProgram):
            ev = SymbolicEvaluator(AbstractParams.from_params(params))
            return ev.report, prog.run(ev, ev.fresh())

        report, abstract = symbolic(program)
        assume(report.ok)
        folded_report, trace = fold_body(program, fold, params.usable_level, params.scale)
        assert folded_report.diagnostics == report.diagnostics

        ct = small_context.encrypt(np.linspace(-0.5, 0.5, small_context.params.slots))
        out = program.run(small_evaluator, ct)  # clean report: must not raise
        assert out.level == abstract.level
        assert out.scale == pytest.approx(abstract.scale, rel=1e-9)

        assert ssa_shape(trace.ops[0].srcs[0], [(h.dst, h.srcs) for h in trace.ops]) == (
            ssa_shape(program.input, [(op.dst, op.srcs) for op in program.ops])
        )
        # Every recorded value sits at the limbs of its symbolic level.
        for k, (op, hop) in enumerate(zip(program.ops, trace.ops)):
            prefix = EvalProgram("prefix", program.ops[: k + 1], output=op.dst)
            level = symbolic(prefix)[1].level
            assert hop.result_limbs == len(params.active_moduli(level))
