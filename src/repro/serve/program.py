"""The portable evaluator-program IR clients submit to the service.

A submitted job is *code*, not data: a straight-line SSA program over
the CKKS evaluator ops of Table 1.  Everything kind-specific lives in
one table, :data:`OPS` (operand count, scalar/rotation operand, scale
matching, level cost, trace kind, evaluation key), and everything that
walks a program is one of two folds over it:

* :meth:`EvalProgram.run` — ``run(domain, x)`` calls the evaluator
  method each op names on ``domain``.  The domains speak the real
  evaluator's vocabulary: :class:`repro.ckks.ops.Evaluator`
  (ciphertexts; only reached through admission and the certificate
  gate), :class:`repro.check.ckks_check.SymbolicEvaluator` (``(level,
  scale)``) and :class:`repro.check.noise_check.NoiseCheckEvaluator`
  (the noise budget).  What an op *means* in a domain is that domain's
  method and nowhere else;
* :meth:`EvalProgram.lower_to_trace` — an SSA-annotated
  :class:`repro.hw.isa.Trace` for :func:`repro.sched.schedule_trace`.

Programs are single-input (one packed message vector per request —
the unit the slot-packing batcher multiplexes), single-output, and
must be dead-code-free; :meth:`EvalProgram.validate` enforces the SSA
discipline so a malformed program is rejected before any fold runs.
``to_json``/``from_json`` round-trip the IR over the wire, and
:meth:`EvalProgram.digest` names it content-addressably — jobs with
equal digests run the same SIMD program and may share a batch.
"""

from __future__ import annotations

import cmath
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, TypeVar

if TYPE_CHECKING:
    from repro.hw.isa import Trace
    from repro.params.presets import WordLengthSetting

__all__ = ["ProgramError", "OpSpec", "OPS", "ProgramOp", "EvalProgram", "ProgramBuilder"]

T = TypeVar("T")


class ProgramError(ValueError):
    """A structurally invalid program (bad SSA, unknown op, bad arity)."""


@dataclass(frozen=True)
class OpSpec:
    """Everything the IR's consumers need to know about one op kind."""

    arity: int  # ciphertext operands
    trace: str  # name of the repro.hw.isa.OpKind the lowering emits
    method: str  # evaluator method the fold calls on the domain
    operand: str | None = None  # ProgramOp field passed after the ciphertexts
    matched: bool = False  # operands are reconciled by ``match`` first
    consumes_level: bool = False  # fused rescale in the lowered trace
    key: str | None = None  # evk identity, formatted with the op's amount


OPS: Mapping[str, OpSpec] = {
    "add": OpSpec(2, "HADD", "add"),
    "sub": OpSpec(2, "HADD", "sub"),
    # ``match`` spends a plaintext multiply and a level only when both
    # operands sit at the same level with drifted scales — the lowering
    # charges that worst case (a PMADD with a level drop).
    "add_matched": OpSpec(2, "PMADD", "add", matched=True, consumes_level=True),
    "sub_matched": OpSpec(2, "PMADD", "sub", matched=True, consumes_level=True),
    "multiply": OpSpec(2, "HMULT", "multiply", consumes_level=True, key="mult"),
    "square": OpSpec(1, "HMULT", "square", consumes_level=True, key="mult"),
    "negate": OpSpec(1, "PMULT", "negate"),
    "multiply_scalar": OpSpec(
        1, "PMULT", "multiply_scalar", operand="value", consumes_level=True
    ),
    "add_scalar": OpSpec(1, "HADD", "add_scalar", operand="value"),
    "rotate": OpSpec(1, "HROT", "rotate", operand="amount", key="rot_{amount}"),
    "conjugate": OpSpec(1, "CONJ", "conjugate", key="conj"),
    "consume_level": OpSpec(1, "PMULT", "consume_level", consumes_level=True),
}


@dataclass(frozen=True)
class ProgramOp:
    """One SSA evaluator call: ``dst = kind(*srcs, value?, amount?)``."""

    kind: str
    dst: str
    srcs: tuple[str, ...]
    value: complex | None = None  # multiply_scalar / add_scalar constant
    amount: int | None = None  # rotate slot count

    @property
    def key_id(self) -> str | None:
        """The evaluation key this op switches with, if any."""
        key = OPS[self.kind].key
        return None if key is None else key.format(amount=self.amount)

    def to_dict(self) -> dict[str, object]:
        value: list[float] | None = None
        if self.value is not None:
            value = [float(self.value.real), float(self.value.imag)]
        return {
            "kind": self.kind,
            "dst": self.dst,
            "srcs": list(self.srcs),
            "value": value,
            "amount": self.amount,
        }

    @classmethod
    def from_dict(cls, raw: Mapping[str, object]) -> "ProgramOp":
        raw_value = raw.get("value")
        value: complex | None = None
        if raw_value is not None:
            re, im = raw_value  # type: ignore[misc]
            value = complex(float(re), float(im))
        raw_amount = raw.get("amount")
        return cls(
            kind=str(raw["kind"]),
            dst=str(raw["dst"]),
            srcs=tuple(str(s) for s in raw["srcs"]),  # type: ignore[union-attr]
            value=value,
            amount=None if raw_amount is None else int(raw_amount),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class EvalProgram:
    """A validated straight-line SSA program over one input ciphertext."""

    name: str
    ops: tuple[ProgramOp, ...]
    input: str = "in"
    output: str = "out"

    def __post_init__(self) -> None:
        self.validate()

    # -- structure -----------------------------------------------------------

    def validate(self) -> None:
        """SSA discipline: reject before any fold ever runs."""
        if not self.ops:
            raise ProgramError("program has no ops")
        defined: set[str] = {self.input}
        used: set[str] = set()
        for i, op in enumerate(self.ops):
            spec = OPS.get(op.kind)
            if spec is None:
                raise ProgramError(f"op {i}: unknown kind {op.kind!r}")
            if len(op.srcs) != spec.arity:
                raise ProgramError(
                    f"op {i} ({op.kind}): expected {spec.arity} operands, "
                    f"got {len(op.srcs)}"
                )
            for src in op.srcs:
                if src not in defined:
                    raise ProgramError(f"op {i} ({op.kind}): undefined value {src!r}")
                used.add(src)
            if op.dst in defined:
                raise ProgramError(f"op {i} ({op.kind}): redefines {op.dst!r}")
            for name in ("value", "amount"):
                if (getattr(op, name) is not None) != (spec.operand == name):
                    raise ProgramError(
                        f"op {i} ({op.kind}): {name} "
                        f"{'missing' if spec.operand == name else 'not allowed'}"
                    )
            # Every comparison against NaN is false, so a non-finite
            # constant would sail through both static passes.
            if op.value is not None and not cmath.isfinite(op.value):
                raise ProgramError(f"op {i} ({op.kind}): value is not finite")
            defined.add(op.dst)
        if self.output not in defined:
            raise ProgramError(f"output {self.output!r} is never defined")
        used.add(self.output)
        for op in self.ops:
            if op.dst not in used:
                raise ProgramError(f"dead value {op.dst!r} (defined, never used)")

    @property
    def uses_rotation(self) -> bool:
        """Rotating programs cross slot-lane boundaries, so the batcher
        must run them exclusively (a shared ciphertext would leak slots
        between tenants)."""
        return any(OPS[op.kind].trace in ("HROT", "CONJ") for op in self.ops)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "input": self.input,
            "output": self.output,
            "ops": [op.to_dict() for op in self.ops],
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "EvalProgram":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ProgramError(f"program payload is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ProgramError("program payload must be a JSON object")
        try:
            ops = tuple(ProgramOp.from_dict(o) for o in raw["ops"])
            return cls(
                name=str(raw["name"]),
                ops=ops,
                input=str(raw["input"]),
                output=str(raw["output"]),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            if isinstance(exc, ProgramError):
                raise
            raise ProgramError(f"malformed program payload: {exc}") from exc

    def digest(self) -> str:
        """Content address (sha256 of the canonical JSON form)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()

    # -- the fold and the lowering ---------------------------------------------

    def run(self, domain: Any, x: T) -> T:
        """Fold the ops over ``domain``, starting from the input value ``x``.

        ``domain`` is anything with :class:`repro.ckks.ops.Evaluator`'s
        methods; the result is whatever the domain's values are (a
        ciphertext, a ``(level, scale)`` pair, a noise state).
        """
        env: dict[str, T] = {self.input: x}
        for op in self.ops:
            spec = OPS[op.kind]
            args: list[Any] = [env[src] for src in op.srcs]
            if spec.matched:
                args = list(domain.match(*args))
            if spec.operand is not None:
                args.append(getattr(op, spec.operand))
            env[op.dst] = getattr(domain, spec.method)(*args)
        return env[self.output]

    def lower_to_trace(self, setting: "WordLengthSetting") -> "Trace":
        """An SSA-annotated HE-op trace for the scheduler.

        Values start at the setting's full normal-level budget; ops with
        a fused rescale drop one level's worth of limbs.  Mixed-level
        operands take the shallower operand's chain position (the
        implicit align/mod-drop the trace checker permits).
        """
        from repro.hw.isa import HeOp, OpKind, Trace

        normal = setting.group("normal")
        base = setting.base_prime_count
        ppl = normal.primes_per_level
        level: dict[str, int] = {self.input: normal.levels}
        ops: list[HeOp] = []
        for op in self.ops:
            spec = OPS[op.kind]
            lvl = min(level[s] for s in op.srcs)
            consumes = int(spec.consumes_level)
            if lvl < consumes:
                raise ProgramError(
                    f"program depth exceeds the setting's {normal.levels} "
                    f"normal levels at {op.dst!r}"
                )
            ops.append(
                HeOp(
                    OpKind[spec.trace],
                    base + lvl * ppl,
                    drop=ppl * consumes,
                    key_id=op.key_id,
                    dst=op.dst,
                    srcs=op.srcs,
                )
            )
            level[op.dst] = lvl - consumes
        return Trace(name=f"serve_{self.name}_{self.digest()[:12]}", ops=ops)

    def lowers_to(self, trace: "Trace") -> bool:
        """Does ``trace`` have the shape :meth:`lower_to_trace` gives this
        program — op for op the same kind, names, key and level spending?
        Limb counts depend on the setting and are not compared."""
        shape = [
            (OPS[op.kind].trace, op.dst, op.srcs, op.key_id, OPS[op.kind].consumes_level)
            for op in self.ops
        ]
        return shape == [
            (hop.kind.name, hop.dst, hop.srcs, hop.key_id, hop.drop > 0)
            for hop in trace.ops
        ]


@dataclass
class ProgramBuilder:
    """Convenience SSA builder so clients don't hand-number values."""

    name: str
    input: str = "in"
    _counter: int = 0
    _ops: list[ProgramOp] = field(default_factory=list)

    def _fresh(self, hint: str) -> str:
        self._counter += 1
        return f"v{self._counter}_{hint}"

    def _emit(
        self,
        kind: str,
        srcs: tuple[str, ...],
        value: complex | None = None,
        amount: int | None = None,
    ) -> str:
        dst = self._fresh(kind)
        self._ops.append(ProgramOp(kind, dst, srcs, value=value, amount=amount))
        return dst

    def add(self, a: str, b: str) -> str:
        return self._emit("add", (a, b))

    def sub(self, a: str, b: str) -> str:
        return self._emit("sub", (a, b))

    def add_matched(self, a: str, b: str) -> str:
        return self._emit("add_matched", (a, b))

    def sub_matched(self, a: str, b: str) -> str:
        return self._emit("sub_matched", (a, b))

    def multiply(self, a: str, b: str) -> str:
        return self._emit("multiply", (a, b))

    def square(self, a: str) -> str:
        return self._emit("square", (a,))

    def negate(self, a: str) -> str:
        return self._emit("negate", (a,))

    def multiply_scalar(self, a: str, value: complex) -> str:
        return self._emit("multiply_scalar", (a,), value=complex(value))

    def add_scalar(self, a: str, value: complex) -> str:
        return self._emit("add_scalar", (a,), value=complex(value))

    def rotate(self, a: str, amount: int) -> str:
        return self._emit("rotate", (a,), amount=amount)

    def conjugate(self, a: str) -> str:
        return self._emit("conjugate", (a,))

    def consume_level(self, a: str) -> str:
        return self._emit("consume_level", (a,))

    def build(self, output: str) -> EvalProgram:
        return EvalProgram(
            name=self.name, ops=tuple(self._ops), input=self.input, output=output
        )
