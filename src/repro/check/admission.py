"""Admission: one abstract run of a served program, before any ciphertext.

:class:`ProductFold` folds a program over ``(ssa id, AbstractCiphertext,
NoiseState)`` values: each evaluator method applies
:mod:`repro.check.ckks_check`'s level / scale rule and
:mod:`repro.check.noise_check`'s transfer function, and emits one op of
the program's source trace at the symbolic level, on the chain of the
preset's own ``CkksParams`` (:meth:`FoldParams.from_params`).
:func:`admit_program` folds the program as the batching pipeline runs
it.  Its verdict carries both rules' diagnostic codes (the vocabulary
``python -m repro.check`` prints), the floor rule's ``NOISE-FLOOR`` and
the body's trace, which the server certifies once the job is admitted
(:func:`certify_for_execution`) and the execution gate re-records
(:func:`fold_body`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.check.ckks_check import AbstractCiphertext, AbstractParams, SymbolicEvaluator
from repro.check.diagnostics import CheckReport
from repro.check.noise_check import NoiseCheckEvaluator, NoiseParams, NoiseState, NoiseSummary
from repro.hw.isa import OpKind, Trace
from repro.params.presets import WORD_LENGTHS, LevelGroup, WordLengthSetting, boot_plan
from repro.params.security import max_log_pq
from repro.workloads.traces import SsaEmitter

if TYPE_CHECKING:
    from repro.check.equiv import EquivCertificate
    from repro.ckks.context import CkksParams, LevelStep
    from repro.sched.trace import ScheduledTrace
    from repro.serve.program import EvalProgram

__all__ = [
    "AdmissionVerdict",
    "FoldParams",
    "ProductFold",
    "admit_program",
    "certify_for_execution",
    "fold_body",
]

Folded = tuple[str, AbstractCiphertext, NoiseState]  # a ProductFold value


@dataclass(frozen=True)
class FoldParams:
    """What the product domain reads of one parameter set."""

    abstract: AbstractParams
    noise: NoiseParams
    setting: WordLengthSetting

    @classmethod
    def from_params(cls, params: "CkksParams", word_bits: int) -> "FoldParams":
        """Project a functional ``CkksParams`` on ``word_bits``-bit words:
        the setting is its own chain, not the paper's N = 2^16 one
        (``ValueError`` when no such word holds the chain's primes)."""
        widest = max(p.bit_length() for p in params.full_basis)
        if not widest <= word_bits <= max(WORD_LENGTHS):
            raise ValueError(f"{word_bits} bits is not a word length for {widest}-bit primes")
        if params.boot_levels and params.boot_scale_bits:
            boot_scale = params.boot_scale_bits
        else:
            boot_scale, _ = boot_plan(word_bits)
        usable, base = params.usable_level, params.base_primes

        def group(name: str, scale_bits: float, steps: "tuple[LevelStep, ...]") -> LevelGroup:
            per_level = len(steps[0].primes) if steps else 1
            primes = tuple(p for step in steps for p in step.primes)
            return LevelGroup(name, scale_bits, len(steps), per_level, primes)

        groups = (
            LevelGroup("base", math.log2(math.prod(base)), 1, len(base), base),
            group("boot", boot_scale, params.steps[usable:]),
            group("stc", params.scale_bits, ()),
            group("normal", params.scale_bits, params.steps[:usable]),
        )
        setting = WordLengthSetting(
            word_bits=word_bits,
            degree=params.degree,
            dnum=params.dnum,
            normal_scale_bits=params.scale_bits,
            boot_scale_bits=boot_scale,
            groups=groups,
            aux_primes=params.aux_primes,
            l_eff=usable,
            security_budget=max_log_pq(params.degree),
        )
        noise = NoiseParams(float(params.scale_bits), boot_scale, word_bits)
        return cls(AbstractParams.from_params(params), noise, setting)


class ProductFold:
    """The one abstract run of a served program.

    Each method applies both component rules — violations accumulate in
    their reports, with their call provenance — and emits one SSA op at
    its operands' shallower symbolic level, dropping to the level the
    rule leaves.  ``match`` emits nothing: the add it feeds is a
    ``PMADD`` when it corrects a scale and an ``HADD`` when the scales
    agree.
    """

    def __init__(self, params: FoldParams, label: str = "program") -> None:
        self.symbolic = SymbolicEvaluator(params.abstract, CheckReport("ckks", label))
        self.noise = NoiseCheckEvaluator(params.noise, CheckReport("noise", label))
        self._word_bits = params.setting.word_bits
        self._base = params.setting.base_prime_count
        self._per_level = params.setting.group("normal").primes_per_level
        self._ssa = SsaEmitter()
        self._match: tuple[int, bool] | None = None  # operands' level, scale corrected

    def fresh(self, level: int | None = None, scale: float | None = None) -> Folded:
        return self._ssa.fresh("in"), self.symbolic.fresh(level, scale), self.noise.encrypt()

    def trace(self, program: "EvalProgram") -> Trace:
        """The body's trace, named by the word length and the program's
        digest: one op per program op and none for the ingress trim, so
        the egress ops of :func:`repro.serve.batching.service_wrapped`
        come after it."""
        name = f"serve_{program.name}_{self._word_bits}b_{program.digest()}"
        return Trace(name=name, ops=self._ssa.ops[: len(program.ops)])

    def _apply(
        self,
        kind: OpKind,
        method: str,
        srcs: tuple[Folded, ...],
        *operand: object,
        key_id: str | None = None,
        level: int | None = None,
    ) -> Folded:
        sym = getattr(self.symbolic, method)(*(a for _, a, _ in srcs), *operand)
        noise = getattr(self.noise, method)(*(n for _, _, n in srcs), *operand)
        if level is None:
            level = min(a.level for _, a, _ in srcs)
        limbs, drop = self._base + level * self._per_level, (level - sym.level) * self._per_level
        dst = self._ssa.emit(kind, limbs, tuple(v for v, _, _ in srcs), drop, key_id)
        return dst, sym, noise

    def drop_to_level(self, x: Folded, level: int) -> Folded:
        """The ingress trim: the trimmed ciphertext is the trace's input."""
        v, a, n = x
        return v, self.symbolic.drop_to_level(a, level), self.noise.drop_to_level(n, level)

    def match(self, x: Folded, y: Folded) -> tuple[Folded, Folded]:
        (u, a, n), (v, b, m) = x, y
        a2, b2 = self.symbolic.match(a, b)
        n2, m2 = self.noise.match(n, m)
        corrected = (a2.scale, b2.scale) != (a.scale, b.scale)
        self._match = (min(a.level, b.level), corrected)
        return (u, a2, n2), (v, b2, m2)

    def add(self, x: Folded, y: Folded) -> Folded:
        level, corrected = self._match or (None, False)
        self._match = None
        kind = OpKind.PMADD if corrected else OpKind.HADD
        return self._apply(kind, "add", (x, y), level=level)

    sub = add  # neither rule nor the trace tells a sub from an add

    def multiply(self, x: Folded, y: Folded) -> Folded:
        return self._apply(OpKind.HMULT, "multiply", (x, y), key_id="mult")

    def square(self, x: Folded) -> Folded:
        return self._apply(OpKind.HMULT, "square", (x,), key_id="mult")

    def negate(self, x: Folded) -> Folded:
        return self._apply(OpKind.PMULT, "negate", (x,))

    def multiply_scalar(self, x: Folded, value: complex) -> Folded:
        return self._apply(OpKind.PMULT, "multiply_scalar", (x,), value)

    def add_scalar(self, x: Folded, value: complex) -> Folded:
        return self._apply(OpKind.HADD, "add_scalar", (x,), value)

    def rotate(self, x: Folded, amount: int) -> Folded:
        return self._apply(OpKind.HROT, "rotate", (x,), amount, key_id=f"rot_{amount}")

    def conjugate(self, x: Folded) -> Folded:
        return self._apply(OpKind.CONJ, "conjugate", (x,), key_id="conj")

    def consume_level(self, x: Folded) -> Folded:
        return self._apply(OpKind.PMULT, "consume_level", (x,))


@dataclass(frozen=True)
class AdmissionVerdict:
    """What the static rules decided about one submitted program."""

    label: str
    admitted: bool
    reports: tuple[CheckReport, ...]
    noise: NoiseSummary | None
    verify_seconds: float
    trace: Trace  # the body's source trace, certified once the job is admitted
    spare_levels: int = 0  # fresh levels the verified pipeline drops at ingress

    @property
    def codes(self) -> tuple[str, ...]:
        """Every diagnostic code raised, errors and warnings, in order."""
        return tuple(dict.fromkeys(d.code for r in self.reports for d in r.diagnostics))

    @property
    def error_codes(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(d.code for r in self.reports for d in r.errors))

    @property
    def proven_floor_bits(self) -> float | None:
        return None if self.noise is None else self.noise.proven_floor_bits

    def to_dict(self) -> dict[str, object]:
        """The wire-facing (JSON-able) verdict."""
        return {
            "label": self.label,
            "admitted": self.admitted,
            "codes": list(self.codes),
            "error_codes": list(self.error_codes),
            "proven_floor_bits": self.proven_floor_bits,
            "verify_seconds": self.verify_seconds,
            "reports": [report.to_dict() for report in self.reports],
        }


def admit_program(
    program: "EvalProgram",
    params: FoldParams,
    min_floor_bits: float | None = None,
    label: str = "job",
) -> AdmissionVerdict:
    """Statically verify one served program; nothing here touches ciphertext.

    The program is folded as the batching pipeline runs it
    (:func:`repro.serve.batching.service_wrapped`), from a fresh
    ciphertext at the full chain, by the level rule alone first; the
    level that run ends at is spare, and the verdict — with the body's
    trace — is the one product fold *trimmed* by that many levels, the
    pipeline the server runs.  ``min_floor_bits`` (if set) rejects a
    program whose *proven* precision floor lands below it with
    ``NOISE-FLOOR``.
    """
    from repro.serve.batching import service_wrapped

    t0 = time.perf_counter()
    fresh_level = params.abstract.fresh_level
    levels = SymbolicEvaluator(params.abstract, CheckReport("ckks", label))
    end = service_wrapped(program, levels, levels.fresh(), fresh_level)
    spare = end.level if levels.report.ok else 0
    domain = ProductFold(params, label)
    service_wrapped(program, domain, domain.fresh(), fresh_level - spare)

    noise_report, summary = domain.noise.report, domain.noise.summary()
    if min_floor_bits is not None and noise_report.ok:
        if summary.proven_floor_bits < min_floor_bits:
            noise_report.error(
                "NOISE-FLOOR",
                f"proven precision floor {summary.proven_floor_bits:.2f} "
                f"bits is below the negotiated target "
                f"{min_floor_bits:.2f} bits",
            )
    reports = (domain.symbolic.report, noise_report)
    admitted = all(report.ok for report in reports)
    return AdmissionVerdict(
        label=label,
        admitted=admitted,
        reports=reports,
        noise=summary,
        trace=domain.trace(program),
        verify_seconds=time.perf_counter() - t0,
        spare_levels=spare,
    )


def fold_body(
    program: "EvalProgram", params: FoldParams, level: int, scale: float
) -> tuple[CheckReport, Trace]:
    """Fold the bare body from a ciphertext at ``(level, scale)``: the
    symbolic rule's report and the body's trace."""
    domain = ProductFold(params, program.name)
    program.run(domain, domain.fresh(level, scale))
    return domain.symbolic.report, domain.trace(program)


def certify_for_execution(
    source: Trace,
    setting: WordLengthSetting,
    capacity_bytes: float,
) -> "tuple[ScheduledTrace, EquivCertificate]":
    """Fuse, schedule, and *prove* an admitted body's trace for the engine.

    Returns the schedule and the certificate the gated executor
    (:func:`repro.sched.execute.execute_scheduled`) demands; raises
    :class:`repro.check.equiv.EquivError` — and returns nothing
    executable — if the schedule cannot be proven equivalent.
    """
    from repro.check.equiv import certify_schedule
    from repro.sched.trace import schedule_trace

    scheduled = schedule_trace(source, setting, capacity_bytes, fuse=True)
    return scheduled, certify_schedule(source, scheduled, setting)
