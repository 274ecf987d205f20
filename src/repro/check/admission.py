"""Callable admission API: static verification as a service gate.

The serve front-end (:mod:`repro.serve`) must decide — *before* a job
touches the scheduler or burns a single NTT — whether a submitted
program is well-formed at the tenant's negotiated parameters.  This
module packages the two program-level passes behind one call:

* :mod:`repro.check.ckks_check` — level/scale discipline;
* :mod:`repro.check.noise_check` — the noise budget at the negotiated
  word length, including an optional *floor rule*: the program's proven
  precision floor must clear a target (``NOISE-FLOOR`` when it doesn't).

The result is a machine-readable :class:`AdmissionVerdict` carrying the
verbatim diagnostic codes of both passes, so a rejected tenant sees the
same vocabulary ``python -m repro.check`` prints in CI.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.check.ckks_check import AbstractCiphertext, AbstractParams, SymbolicEvaluator
from repro.check.diagnostics import CheckReport
from repro.check.noise_check import (
    NoiseCheckEvaluator,
    NoiseParams,
    NoiseSummary,
    check_noise_program,
)

if TYPE_CHECKING:
    from repro.check.equiv import EquivCertificate
    from repro.params.presets import WordLengthSetting
    from repro.sched.trace import ScheduledTrace
    from repro.serve.program import EvalProgram

__all__ = ["AdmissionVerdict", "admit_program", "certify_for_execution"]


@dataclass(frozen=True)
class AdmissionVerdict:
    """What the static passes decided about one submitted program."""

    label: str
    admitted: bool
    reports: tuple[CheckReport, ...]
    noise: NoiseSummary | None
    verify_seconds: float
    spare_levels: int = 0  # fresh levels the verified pipeline drops at ingress

    @property
    def codes(self) -> tuple[str, ...]:
        """Every diagnostic code raised, errors and warnings, in order."""
        out: list[str] = []
        for report in self.reports:
            for diag in report.diagnostics:
                if diag.code not in out:
                    out.append(diag.code)
        return tuple(out)

    @property
    def error_codes(self) -> tuple[str, ...]:
        out: list[str] = []
        for report in self.reports:
            for diag in report.errors:
                if diag.code not in out:
                    out.append(diag.code)
        return tuple(out)

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
    program: Callable[[SymbolicEvaluator, int], AbstractCiphertext],
    params: AbstractParams,
    noise_program: Callable[[NoiseCheckEvaluator, int], object] | None = None,
    noise_params: NoiseParams | None = None,
    min_floor_bits: float | None = None,
    label: str = "job",
) -> AdmissionVerdict:
    """Statically verify one program; nothing here touches ciphertext.

    ``program(evaluator, level)`` drives the symbolic ``(level, scale)``
    evaluator from a fresh ciphertext dropped to ``level``.  It is folded
    at the full chain first; the level that fold ends at is spare, and
    the verdict is about the fold *trimmed* by that many levels — the
    pipeline the caller then runs (``spare_levels`` says how to).  When
    ``noise_program`` and ``noise_params`` are given, the noise pass
    runs too, and ``min_floor_bits`` (if set) imposes the floor rule:
    a program whose *proven* precision floor lands below the target is
    rejected with ``NOISE-FLOOR`` even if its budget never explodes.
    """
    t0 = time.perf_counter()
    summary: NoiseSummary | None = None

    def fold(level: int) -> tuple[CheckReport, AbstractCiphertext]:
        report = CheckReport("ckks", label)
        return report, program(SymbolicEvaluator(params, report), level)

    ckks_report, end = fold(params.fresh_level)
    spare = end.level if ckks_report.ok else 0
    if spare:
        ckks_report, _ = fold(params.fresh_level - spare)
    reports = [ckks_report]

    if noise_program is not None and noise_params is not None:
        noise_report = CheckReport("noise", label)
        noise_params.validate_into(noise_report)
        if noise_report.ok:
            noise_report, summary = check_noise_program(
                lambda ev: noise_program(ev, params.fresh_level - spare),
                noise_params,
                label=label,
            )
            if min_floor_bits is not None and not summary.exploded:
                if summary.proven_floor_bits < min_floor_bits:
                    noise_report.error(
                        "NOISE-FLOOR",
                        f"proven precision floor {summary.proven_floor_bits:.2f} "
                        f"bits is below the negotiated target "
                        f"{min_floor_bits:.2f} bits",
                    )
        reports.append(noise_report)

    admitted = all(report.ok for report in reports)
    return AdmissionVerdict(
        label=label,
        admitted=admitted,
        reports=tuple(reports),
        noise=summary,
        verify_seconds=time.perf_counter() - t0,
        spare_levels=spare,
    )


def certify_for_execution(
    program: "EvalProgram",
    setting: "WordLengthSetting",
    capacity_bytes: float,
) -> "tuple[ScheduledTrace, EquivCertificate]":
    """Record, fuse, schedule, and *prove* a program for the real engine.

    The one-call path the service uses: the program's source trace is
    recorded (:class:`repro.serve.program.TraceRecorder`), scheduled
    with fusion enabled, and the pair is run through
    :func:`repro.check.equiv.certify_schedule`.  Returns the schedule
    and the certificate the gated executor
    (:func:`repro.sched.execute.execute_scheduled`) demands — the gate
    re-records the source itself, so none is handed on; raises
    :class:`repro.check.equiv.EquivError` if the transformed trace
    cannot be proven equivalent — in which case nothing executable is
    returned at all.
    """
    from repro.check.equiv import certify_schedule
    from repro.sched.trace import schedule_trace
    from repro.serve.program import TraceRecorder

    source = TraceRecorder(setting).record(program)
    scheduled = schedule_trace(source, setting, capacity_bytes, fuse=True)
    return scheduled, certify_schedule(source, scheduled, setting)
