"""Diagnostic records shared by every :mod:`repro.check` pass.

Each pass walks an artifact (a trace, a schedule log, an evaluator
program, a kernel configuration) and appends :class:`Diagnostic`
records to a :class:`CheckReport`.  A diagnostic carries a stable
machine-readable ``code`` (``TRC-*`` for the trace verifier, ``SCH-*``
for schedule feasibility, ``CKKS-*`` for the program checker, ``KB-*``
for the kernel bound prover), a severity, and — where it applies —
op-index provenance so a violation points at the exact instruction
that caused it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = ["Severity", "Diagnostic", "CheckReport"]


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a stable code, a severity, and provenance."""

    code: str
    severity: Severity
    message: str
    op_index: int | None = None  # index of the offending op, if any
    value: str | None = None  # SSA value id involved, if any

    def render(self) -> str:
        where = f" @op{self.op_index}" if self.op_index is not None else ""
        who = f" [{self.value}]" if self.value is not None else ""
        return f"{self.severity.value.upper()} {self.code}{where}{who}: {self.message}"

    def to_dict(self) -> dict[str, object]:
        return {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
            "op_index": self.op_index,
            "value": self.value,
        }


@dataclass
class CheckReport:
    """All diagnostics one pass produced for one subject."""

    pass_name: str  # "trace" | "schedule" | "ckks" | "bounds"
    subject: str  # trace name / program label / config description
    diagnostics: list[Diagnostic] = field(default_factory=list)

    def error(
        self,
        code: str,
        message: str,
        op_index: int | None = None,
        value: str | None = None,
    ) -> None:
        self.diagnostics.append(
            Diagnostic(code, Severity.ERROR, message, op_index, value)
        )

    def warning(self, code: str, message: str, op_index: int | None = None) -> None:
        self.diagnostics.append(Diagnostic(code, Severity.WARNING, message, op_index))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def ok(self) -> bool:
        """True when the pass found no errors (warnings allowed)."""
        return not self.errors

    def error_codes(self) -> set[str]:
        return {d.code for d in self.errors}

    def merge(self, other: "CheckReport") -> None:
        self.diagnostics.extend(other.diagnostics)

    def render(self) -> str:
        status = "OK" if self.ok else "FAIL"
        lines = [f"[{self.pass_name}] {self.subject}: {status}"]
        lines.extend(f"  {d.render()}" for d in self.diagnostics)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, object]:
        return {
            "pass": self.pass_name,
            "subject": self.subject,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
