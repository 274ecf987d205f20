"""The serve IR has one table and one fold: both are checked here.

* completeness — every :data:`OPS` row names something that exists in
  all four domains and in the builder;
* the recorded trace rows of the two programs ``serve_mix`` runs;
* a Hypothesis differential over programs drawn from all twelve kinds:
  the symbolic domain, the real evaluator and the trace recorder are
  three readings of one program and must agree on ``(level, scale)``.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.check.ckks_check import AbstractParams, SymbolicEvaluator
from repro.check.noise_check import NoiseCheckEvaluator
from repro.ckks.ops import Evaluator
from repro.params.presets import build_sharp_setting
from repro.serve.program import (
    OPS,
    EvalProgram,
    ProgramBuilder,
    ProgramError,
    TraceRecorder,
)

DOMAINS = (Evaluator, SymbolicEvaluator, NoiseCheckEvaluator, TraceRecorder)
LEVEL_BUDGET = 5  # small_context has 6 levels; stay inside them
# Kinds that spend a level (in the recorder: a non-zero drop).
SPENDS = {
    "add_matched", "sub_matched", "multiply", "square", "multiply_scalar", "consume_level"
}


def record(program: EvalProgram):
    return TraceRecorder(build_sharp_setting(36)).record(program)


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
    # The recorder's level walk is the only depth check left.
    setting = build_sharp_setting(36)
    levels = setting.group("normal").levels

    def squares(n: int) -> EvalProgram:
        b = ProgramBuilder("deep")
        v = b.input
        for _ in range(n):
            v = b.square(v)
        return b.build(v)

    assert record(squares(levels)).ops[-1].result_limbs == setting.base_prime_count
    with pytest.raises(ProgramError, match="depth exceeds"):
        record(squares(levels + 1))


def test_serve_mix_programs_record_their_rows():
    # The two programs serve_mix runs, at 36 bits: (kind, limbs, drop, key).
    b = ProgramBuilder("poly")
    poly = b.build(b.add_matched(b.multiply_scalar(b.square(b.input), 0.5), b.input))
    b = ProgramBuilder("rotsum")
    pair = b.add(b.input, b.rotate(b.input, 1))
    rotsum = b.build(b.add(pair, b.rotate(pair, 2)))

    def rows(program: EvalProgram) -> list[tuple]:
        return [(h.kind.name, h.limbs, h.drop, h.key_id) for h in record(program).ops]

    assert rows(poly) == [
        ("HMULT", 10, 1, "mult"),
        ("PMULT", 9, 1, None),
        ("PMADD", 8, 1, None),
    ]
    assert rows(rotsum) == [
        ("HROT", 10, 0, "rot_1"),
        ("HADD", 10, 0, None),
        ("HROT", 10, 0, "rot_2"),
        ("HADD", 10, 0, None),
    ]
    assert record(poly).name == f"serve_poly_{poly.digest()}"


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
        params = AbstractParams.from_params(small_context.params)

        def symbolic(prog: EvalProgram):
            ev = SymbolicEvaluator(params)
            return ev.report, prog.run(ev, ev.fresh())

        report, abstract = symbolic(program)
        assume(report.ok)

        ct = small_context.encrypt(np.linspace(-0.5, 0.5, small_context.params.slots))
        out = program.run(small_evaluator, ct)  # clean report: must not raise
        assert out.level == abstract.level
        assert out.scale == pytest.approx(abstract.scale, rel=1e-9)

        setting = build_sharp_setting(36)
        normal = setting.group("normal")
        trace = record(program)
        assert ssa_shape(trace.ops[0].srcs[0], [(h.dst, h.srcs) for h in trace.ops]) == (
            ssa_shape(program.input, [(op.dst, op.srcs) for op in program.ops])
        )
        assert [h.drop > 0 for h in trace.ops] == [op.kind in SPENDS for op in program.ops]
        for k, (op, hop) in enumerate(zip(program.ops, trace.ops)):
            prefix = EvalProgram("prefix", program.ops[: k + 1], output=op.dst)
            charged = normal.levels - (
                (hop.result_limbs - setting.base_prime_count) // normal.primes_per_level
            )
            consumed = params.fresh_level - symbolic(prefix)[1].level
            assert charged >= consumed
