"""The portable evaluator-program IR clients submit to the service.

A submitted job is *code*, not data: a straight-line SSA program over
the CKKS evaluator ops of Table 1.  Everything kind-specific lives in
one table, :data:`OPS` (operand count, evaluator method, scalar or
rotation operand, scale matching), and everything that walks a program
is one fold over it, :meth:`EvalProgram.run`: ``run(domain, x)`` calls
the evaluator method each op names on ``domain``.  The domains speak
the real evaluator's vocabulary:

* :class:`repro.ckks.ops.Evaluator` — ciphertexts; only reached
  through admission and the certificate gate;
* :class:`repro.check.ckks_check.SymbolicEvaluator` — ``(level,
  scale)``; :class:`repro.check.noise_check.NoiseCheckEvaluator` — the
  noise budget;
* :class:`repro.check.admission.ProductFold` — their product plus an
  SSA value id: each call applies both rules and emits one
  :class:`repro.hw.isa.HeOp`, so one fold is admission's verdict and
  the program's source trace for :func:`repro.sched.schedule_trace`.

What an op *means* in a domain is that domain's method and nowhere
else.

Programs are single-input (one packed message vector per request —
the unit the slot-packing batcher multiplexes), single-output, and
must be dead-code-free; :meth:`EvalProgram.validate` enforces the SSA
discipline so a malformed program is rejected before any fold runs.
``to_json``/``from_json`` round-trip the IR over the wire, and
:meth:`EvalProgram.digest` names it content-addressably — jobs with
equal digests run the same SIMD program and may share a batch, and a
recorded trace carries the digest in its name.
"""

from __future__ import annotations

import cmath
import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Mapping, TypeVar

__all__ = [
    "ProgramError",
    "OpSpec",
    "OPS",
    "ProgramOp",
    "EvalProgram",
    "ProgramBuilder",
]

T = TypeVar("T")


class ProgramError(ValueError):
    """A structurally invalid program (bad SSA, unknown op, bad arity)."""


@dataclass(frozen=True)
class OpSpec:
    """Everything the IR's consumers need to know about one op kind."""

    arity: int  # ciphertext operands
    method: str  # evaluator method the fold calls on the domain
    operand: str | None = None  # ProgramOp field passed after the ciphertexts
    matched: bool = False  # operands are reconciled by ``match`` first


OPS: Mapping[str, OpSpec] = {
    "add": OpSpec(2, "add"),
    "sub": OpSpec(2, "sub"),
    "add_matched": OpSpec(2, "add", matched=True),
    "sub_matched": OpSpec(2, "sub", matched=True),
    "multiply": OpSpec(2, "multiply"),
    "square": OpSpec(1, "square"),
    "negate": OpSpec(1, "negate"),
    "multiply_scalar": OpSpec(1, "multiply_scalar", operand="value"),
    "add_scalar": OpSpec(1, "add_scalar", operand="value"),
    "rotate": OpSpec(1, "rotate", operand="amount"),
    "conjugate": OpSpec(1, "conjugate"),
    "consume_level": OpSpec(1, "consume_level"),
}


@dataclass(frozen=True)
class ProgramOp:
    """One SSA evaluator call: ``dst = kind(*srcs, value?, amount?)``."""

    kind: str
    dst: str
    srcs: tuple[str, ...]
    value: complex | None = None  # multiply_scalar / add_scalar constant
    amount: int | None = None  # rotate slot count

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
    _digest: str = field(init=False, repr=False, compare=False)  # a served job reads it 5x

    def __post_init__(self) -> None:
        self.validate()
        object.__setattr__(self, "_digest", hashlib.sha256(self.to_json().encode()).hexdigest())

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
        return any(op.kind in ("rotate", "conjugate") for op in self.ops)

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
        return self._digest

    # -- the fold ----------------------------------------------------------------

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
