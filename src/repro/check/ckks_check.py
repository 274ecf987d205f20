"""CKKS program checker: abstract (level, scale) interpretation.

The functional :class:`repro.ckks.ops.Evaluator` discovers scale
mismatches and exhausted chains at *runtime*, deep inside an encrypted
computation.  This pass runs the same call sequence through a
:class:`SymbolicEvaluator` whose ciphertexts are just ``(level,
scale)`` pairs — the abstract domain of the discipline CKKS imposes —
and reports every violation with the index of the evaluator call that
caused it:

* ``CKKS-SCALE-MISMATCH`` — additive operands whose scales differ
  beyond the evaluator's relative tolerance (the exact condition that
  raises ``"scale mismatch"`` at runtime), or a ``rescale_to`` pin as far off;
* ``CKKS-LEVEL-UNDERFLOW`` — a rescale (explicit, or implied by a
  multiply with ``rescale=True``) at level 0, or an ``adjust`` without
  its spare level;
* ``CKKS-LEVEL-RANGE`` — a level raised other than by a level-0
  ``mod_raise``, or the terms of one sum at different levels;
* ``CKKS-SCALE-OVERFLOW`` — an accumulated scale exceeding the active
  modulus at the value's level: the signal of a *missing rescale* that
  would corrupt the message;
* ``CKKS-SCALE-STACKED`` (warning) — more than two scale factors
  pending on one value: legal (BSGS ladders hold products at scale²)
  but a drift site worth an explicit rescale;
* ``CKKS-SCALE-DRIFT`` (warning) — a rescaled value landing measurably
  off its level's working scale (:meth:`AbstractParams.working_scale`),
  the drift ``adjust``/``match`` exist to repair.

Programs are plain callables taking the symbolic evaluator, so the
same closure can drive the real evaluator afterwards; the bootstrap
(``repro.ckks.bootstrap.Bootstrapper``) is one, step for step.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Callable

from repro.check.diagnostics import CheckReport

__all__ = ["AbstractCiphertext", "AbstractParams", "SymbolicEvaluator", "check_program"]

_SCALE_MATCH_TOLERANCE = 1e-9  # mirrors repro.ckks.ops
_DRIFT_WARN_BITS = 0.5


@dataclass(frozen=True)
class AbstractCiphertext:
    """A ciphertext reduced to the checked state: level and scale."""

    level: int
    scale: float
    origin: int  # index of the evaluator call that produced it


@dataclass(frozen=True)
class AbstractParams:
    """The slice of a parameter set the abstract domain needs."""

    step_scales: tuple[float, ...]  # steps[level-1] is consumed from `level`
    default_scale: float
    base_log2: float  # log2 of the never-rescaled base modulus
    fresh_level: int  # level of a freshly encrypted ciphertext

    @property
    def max_level(self) -> int:
        return len(self.step_scales)

    def working_scale(self, level: int) -> float:
        """The scale values at ``level`` work at: the step they rescale by
        next (so a bootstrap's levels work at its larger scale), or the
        default scale at level 0."""
        return self.step_scales[level - 1] if level >= 1 else self.default_scale

    def budget_log2(self, level: int) -> float:
        """log2 of the active modulus at ``level`` remaining steps."""
        return self.base_log2 + sum(
            math.log2(s) for s in self.step_scales[:level]
        )

    @classmethod
    def from_params(cls, params: object) -> "AbstractParams":
        """Project a functional ``CkksParams`` into the abstract domain."""
        step_scales = tuple(step.scale for step in params.steps)  # type: ignore[attr-defined]
        base_log2 = sum(math.log2(p) for p in params.base_primes)  # type: ignore[attr-defined]
        return cls(
            step_scales=step_scales,
            default_scale=params.scale,  # type: ignore[attr-defined]
            base_log2=base_log2,
            fresh_level=params.usable_level,  # type: ignore[attr-defined]
        )

    @classmethod
    def synthetic(
        cls, depth: int = 8, scale_bits: float = 35.0, base_bits: float = 42.0
    ) -> "AbstractParams":
        """An exact power-of-two chain — no prime search, for tests."""
        scale = 2.0**scale_bits
        return cls(
            step_scales=(scale,) * depth,
            default_scale=scale,
            base_log2=base_bits,
            fresh_level=depth,
        )


class SymbolicEvaluator:
    """Mirror of :class:`repro.ckks.ops.Evaluator` over the abstract domain.

    Every public method advances a call counter used as provenance;
    violations never raise — they accumulate in the report so one run
    surfaces every problem in the program.
    """

    def __init__(
        self, params: AbstractParams, report: CheckReport | None = None
    ) -> None:
        self.params = params
        self.report = report if report is not None else CheckReport("ckks", "program")
        self._call = -1

    # -- bookkeeping ---------------------------------------------------------

    def _next(self, name: str) -> int:
        self._call += 1
        return self._call

    def _make(self, level: int, scale: float, call: int) -> AbstractCiphertext:
        level = max(level, 0)
        ct = AbstractCiphertext(level=level, scale=scale, origin=call)
        self._check_budget(ct, call)
        return ct

    def _check_budget(self, ct: AbstractCiphertext, call: int) -> None:
        if ct.scale <= 0 or not math.isfinite(ct.scale):
            self.report.error(
                "CKKS-SCALE-RANGE",
                f"scale degenerated to {ct.scale!r}",
                op_index=call,
            )
            return
        budget = self.params.budget_log2(ct.level)
        if math.log2(ct.scale) >= budget:
            self.report.error(
                "CKKS-SCALE-OVERFLOW",
                f"scale 2^{math.log2(ct.scale):.1f} exceeds the active "
                f"modulus 2^{budget:.1f} at level {ct.level} — a rescale "
                "is missing upstream",
                op_index=call,
            )
        elif ct.scale > self.params.working_scale(ct.level) ** 2 * 2.0:
            self.report.warning(
                "CKKS-SCALE-STACKED",
                f"more than two scale factors pending "
                f"(2^{math.log2(ct.scale):.1f}); consider rescaling",
                op_index=call,
            )

    def _check_scales(self, a: float, b: float, call: int) -> float:
        if abs(a - b) > _SCALE_MATCH_TOLERANCE * max(a, b):
            self.report.error(
                "CKKS-SCALE-MISMATCH",
                f"additive operands at scales {a:g} vs {b:g}; insert "
                "adjust/match before combining",
                op_index=call,
            )
        return max(a, b)

    # -- ciphertext sources --------------------------------------------------

    def fresh(
        self, level: int | None = None, scale: float | None = None
    ) -> AbstractCiphertext:
        call = self._next("fresh")
        lvl = self.params.fresh_level if level is None else level
        sc = self.params.default_scale if scale is None else scale
        if not 0 <= lvl <= self.params.max_level:
            self.report.error(
                "CKKS-LEVEL-RANGE",
                f"encryption level {lvl} outside [0, {self.params.max_level}]",
                op_index=call,
            )
            lvl = min(max(lvl, 0), self.params.max_level)
        return self._make(lvl, sc, call)

    # -- level and scale alignment -------------------------------------------

    def drop_to_level(
        self, ct: AbstractCiphertext, level: int
    ) -> AbstractCiphertext:
        call = self._next("drop_to_level")
        if level > ct.level:
            self.report.error(
                "CKKS-LEVEL-RANGE",
                f"cannot raise a ciphertext's level ({ct.level} -> {level})",
                op_index=call,
            )
            return ct
        return self._make(level, ct.scale, call)

    def align(
        self, a: AbstractCiphertext, b: AbstractCiphertext
    ) -> tuple[AbstractCiphertext, AbstractCiphertext]:
        level = min(a.level, b.level)
        return (
            AbstractCiphertext(level, a.scale, a.origin),
            AbstractCiphertext(level, b.scale, b.origin),
        )

    def adjust(self, ct: AbstractCiphertext, level: int, scale: float) -> AbstractCiphertext:
        return self._adjust(ct, level, scale, self._next("adjust"))

    def _adjust(
        self, ct: AbstractCiphertext, level: int, scale: float, call: int
    ) -> AbstractCiphertext:
        if level > ct.level:
            self.report.error(
                "CKKS-LEVEL-RANGE",
                f"cannot raise a ciphertext's level ({ct.level} -> {level})",
                op_index=call,
            )
            return ct
        if abs(ct.scale - scale) <= 1e-12 * scale:
            return self._make(level, ct.scale, call)
        if level + 1 > ct.level:
            self.report.error(
                "CKKS-LEVEL-UNDERFLOW",
                "scale correction needs one spare level",
                op_index=call,
            )
            return ct
        return self._make(level, scale, call)

    def match(
        self, a: AbstractCiphertext, b: AbstractCiphertext
    ) -> tuple[AbstractCiphertext, AbstractCiphertext]:
        call = self._next("match")
        target = min(a.level, b.level)
        if abs(a.scale - b.scale) <= 1e-12 * max(a.scale, b.scale):
            return self.align(a, b)
        if a.level > target:
            return self._adjust(a, target, b.scale, call), b
        if b.level > target:
            return a, self._adjust(b, target, a.scale, call)
        if target < 1:
            self.report.error(
                "CKKS-LEVEL-UNDERFLOW",
                "cannot reconcile scales at level 0",
                op_index=call,
            )
            return a, b
        return (
            self._adjust(a, target - 1, a.scale, call),
            self._adjust(b, target - 1, a.scale, call),
        )

    # -- additive ops ----------------------------------------------------------

    def add(
        self, a: AbstractCiphertext, b: AbstractCiphertext
    ) -> AbstractCiphertext:
        call = self._next("add")
        a, b = self.align(a, b)
        scale = self._check_scales(a.scale, b.scale, call)
        return self._make(a.level, scale, call)

    sub = add  # the same level / scale rule

    def negate(self, ct: AbstractCiphertext) -> AbstractCiphertext:
        call = self._next("negate")
        return self._make(ct.level, ct.scale, call)

    def add_plain(
        self, ct: AbstractCiphertext, pt_scale: float | None = None
    ) -> AbstractCiphertext:
        call = self._next("add_plain")
        scale = self._check_scales(
            ct.scale, ct.scale if pt_scale is None else pt_scale, call
        )
        return self._make(ct.level, scale, call)

    def add_scalar(self, ct: AbstractCiphertext, value: complex) -> AbstractCiphertext:
        """A constant is encoded at the ciphertext's own scale."""
        return self.add_plain(ct)

    # -- multiplicative ops -----------------------------------------------------

    def _step_scale(self, level: int, call: int) -> float:
        if level < 1:
            self.report.error(
                "CKKS-LEVEL-UNDERFLOW",
                "no rescaling levels left (bootstrap needed)",
                op_index=call,
            )
            return self.params.default_scale
        return self.params.step_scales[level - 1]

    def _rescale_state(self, level: int, scale: float, call: int) -> tuple[int, float]:
        step = self._step_scale(level, call)
        if level < 1:
            return level, scale
        new_scale = scale / step
        drift = abs(math.log2(new_scale) - math.log2(self.params.working_scale(level - 1)))
        if drift > _DRIFT_WARN_BITS:
            self.report.warning(
                "CKKS-SCALE-DRIFT",
                f"rescaled value lands {drift:.2f} bits off its level's "
                "working scale; adjust/match before mixing branches",
                op_index=call,
            )
        return level - 1, new_scale

    def multiply(
        self, a: AbstractCiphertext, b: AbstractCiphertext, rescale: bool = True
    ) -> AbstractCiphertext:
        call = self._next("multiply")
        a, b = self.align(a, b)
        level, scale = a.level, a.scale * b.scale
        if rescale:
            level, scale = self._rescale_state(level, scale, call)
        return self._make(level, scale, call)

    def square(
        self, ct: AbstractCiphertext, rescale: bool = True
    ) -> AbstractCiphertext:
        return self.multiply(ct, ct, rescale=rescale)

    def multiply_plain(
        self,
        ct: AbstractCiphertext,
        pt_scale: float | None = None,
        rescale: bool = True,
    ) -> AbstractCiphertext:
        call = self._next("multiply_plain")
        if pt_scale is None:
            pt_scale = self.params.working_scale(ct.level)
        level, scale = ct.level, ct.scale * pt_scale
        if rescale:
            level, scale = self._rescale_state(level, scale, call)
        return self._make(level, scale, call)

    def multiply_scalar(
        self, ct: AbstractCiphertext, value: complex, rescale: bool = True
    ) -> AbstractCiphertext:
        """A constant is encoded at the step scale, whatever its value."""
        return self.multiply_plain(ct, pt_scale=None, rescale=rescale)

    def encode(self, values: object, ct: AbstractCiphertext, scale: float) -> float:
        """The operand landing a product with ``ct``, rescaled, at ``scale``:
        a plaintext is its scale."""
        call = self._next("encode")
        return scale * self._step_scale(ct.level, call) / ct.scale

    def _sum(
        self, cts: Sequence[AbstractCiphertext], scales: Iterable[float], what: str, call: int
    ) -> AbstractCiphertext:
        """One sum of terms over ``cts``: their one level, their one scale."""
        levels = sorted({ct.level for ct in cts})
        if len(levels) > 1:
            self.report.error(
                "CKKS-LEVEL-RANGE", f"{what} operands at levels {levels}", op_index=call
            )
        scale = functools.reduce(lambda a, b: self._check_scales(a, b, call), scales)
        return self._make(levels[0], scale, call)

    def multiply_plain_sum(
        self, cts: Sequence[AbstractCiphertext], pts: Sequence[float]
    ) -> AbstractCiphertext:
        call = self._next("multiply_plain_sum")
        scales = (ct.scale * pt for ct, pt in zip(cts, pts))
        return self._sum(cts, scales, "multiply-accumulate", call)

    # -- rescaling / rotations --------------------------------------------------

    def rescale(self, ct: AbstractCiphertext) -> AbstractCiphertext:
        call = self._next("rescale")
        level, scale = self._rescale_state(ct.level, ct.scale, call)
        return self._make(level, scale, call)

    def rescale_to(self, ct: AbstractCiphertext, scale: float) -> AbstractCiphertext:
        call = self._next("rescale_to")
        landed = ct.scale / self._step_scale(ct.level, call)
        if ct.level >= 1 and abs(landed - scale) > _SCALE_MATCH_TOLERANCE * max(landed, scale):
            self.report.error(
                "CKKS-SCALE-MISMATCH",
                f"rescale lands at {landed:g}, too far to pin at {scale:g}",
                op_index=call,
            )
        return self._make(ct.level - 1, scale, call)

    def consume_level(self, ct: AbstractCiphertext) -> AbstractCiphertext:
        call = self._next("consume_level")
        step = self._step_scale(ct.level, call)
        if ct.level < 1:
            return ct
        del step  # scale is restored exactly by construction
        return self._make(ct.level - 1, ct.scale, call)

    def rotate(self, ct: AbstractCiphertext, amount: int = 1) -> AbstractCiphertext:
        call = self._next("rotate")
        return self._make(ct.level, ct.scale, call)

    def conjugate(self, ct: AbstractCiphertext) -> AbstractCiphertext:
        call = self._next("conjugate")
        return self._make(ct.level, ct.scale, call)

    def rotate_sum(
        self, cts: Iterable[AbstractCiphertext], amounts: Iterable[int]
    ) -> AbstractCiphertext:
        call = self._next("rotate_sum")
        terms = [ct for ct, _ in zip(cts, amounts)]
        return self._sum(terms, (ct.scale for ct in terms), "rotation sum", call)

    # -- bootstrapping steps ----------------------------------------------------

    def mod_raise(self, ct: AbstractCiphertext) -> AbstractCiphertext:
        call = self._next("mod_raise")
        if ct.level != 0:
            self.report.error(
                "CKKS-LEVEL-RANGE",
                f"mod_raise expects a level-0 ciphertext, not level {ct.level}",
                op_index=call,
            )
        return self._make(self.params.max_level, ct.scale, call)

    def multiply_by_i(self, ct: AbstractCiphertext, sign: int) -> AbstractCiphertext:
        call = self._next("multiply_by_i")
        return self._make(ct.level, ct.scale, call)


def check_program(
    program: Callable[[SymbolicEvaluator], object],
    params: AbstractParams,
    label: str = "program",
) -> CheckReport:
    """Symbolically execute ``program`` and return its report."""
    report = CheckReport("ckks", label)
    evaluator = SymbolicEvaluator(params, report)
    program(evaluator)
    return report
