"""The serve IR has one table and one fold: both are checked here.

* completeness — every :data:`OPS` row names something that exists in
  all three domains, in the builder and in the trace ISA;
* a Hypothesis differential over programs drawn from all twelve kinds:
  the symbolic domain, the real evaluator and the trace lowering are
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
from repro.hw.isa import OpKind
from repro.params.presets import build_sharp_setting
from repro.serve.program import OPS, EvalProgram, ProgramBuilder, ProgramError

DOMAINS = (Evaluator, SymbolicEvaluator, NoiseCheckEvaluator)
LEVEL_BUDGET = 5  # small_context has 6 levels; stay inside them


class TestTableCompleteness:
    @pytest.mark.parametrize("kind", sorted(OPS))
    def test_row_resolves_everywhere(self, kind):
        spec = OPS[kind]
        assert spec.trace in OpKind.__members__
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
    # The level walk of lower_to_trace is the only depth check left.
    setting = build_sharp_setting(36)
    levels = setting.group("normal").levels

    def squares(n: int) -> EvalProgram:
        b = ProgramBuilder("deep")
        v = b.input
        for _ in range(n):
            v = b.square(v)
        return b.build(v)

    assert squares(levels).lower_to_trace(setting).ops[-1].result_limbs == (
        setting.base_prime_count
    )
    with pytest.raises(ProgramError, match="depth exceeds"):
        squares(levels + 1).lower_to_trace(setting)


@st.composite
def programs(draw) -> EvalProgram:
    """A chain over all twelve kinds; second operands reach back anywhere."""
    b = ProgramBuilder("hyp")
    values = [b.input]
    spent = 0
    for kind in draw(st.lists(st.sampled_from(sorted(OPS)), min_size=1, max_size=8)):
        spec = OPS[kind]
        if spec.consumes_level:
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
        trace = program.lower_to_trace(setting)
        assert [(h.dst, h.srcs) for h in trace.ops] == [
            (op.dst, op.srcs) for op in program.ops
        ]
        for k, hop in enumerate(trace.ops):
            prefix = EvalProgram("prefix", program.ops[: k + 1], output=hop.dst)
            charged = normal.levels - (
                (hop.result_limbs - setting.base_prime_count) // normal.primes_per_level
            )
            consumed = params.fresh_level - symbolic(prefix)[1].level
            assert charged >= consumed
