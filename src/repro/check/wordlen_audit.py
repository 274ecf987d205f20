"""Word-length robustness audit: the static Table 2 / Fig. 1 twin.

Re-derives the paper's scale sweep *statically*: for each word-length
preset the sweep runs every shipped workload's Table 2 program
(registered in :mod:`repro.workloads.noise_programs`; the same programs
Table 2's sampled rows run) through the
:mod:`repro.check.noise_check` abstract interpreter at the largest
normal scale the word can host (``word - 1`` bits, SS-realized) and
the bootstrapping scale the chain builder actually plans for that word
(:func:`repro.params.presets.boot_plan`).  Each run yields an
:class:`AuditEntry`: a mean (average-case) precision floor, a proven
worst-case floor, the drift budget consumed, and — in the explosion
regimes — the op index where the value bound first escapes a fitted
interval or the bootstrap stable range.

The audit is the machine-checkable form of SHARP's S3 claim: 28-bit
words are *proved* to explode (every iterative workload's drift leaves
its fitted interval mid-run), while 36-bit and wider words prove
precision floors that clear every workload's target — with the
bootstrapping floor landing within a bit of Table 2's measurement.
Table 2's published precision column is stated here once
(:data:`PAPER_FRESH_PRECISION` / :data:`PAPER_BOOT_PRECISION`, keyed by
scale bits): the CLI's anchor gate and :mod:`repro.analysis.paper_rows`
both read it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Mapping

from repro.check.diagnostics import CheckReport
from repro.check.noise_check import NoiseParams, check_noise_program
from repro.params.presets import NATIVE_WORD_LENGTHS, boot_plan, native_scale_bits

__all__ = [
    "EXPECTED_REGIMES",
    "PAPER_FRESH_PRECISION",
    "PAPER_BOOT_PRECISION",
    "AuditEntry",
    "AuditResult",
    "audit_params",
    "run_audit",
    "scale_audit",
]

# What SHARP's S3 / Table 2 says each regime must look like.
EXPECTED_REGIMES: Mapping[int, str] = {
    28: "explosion",
    36: "robust",
    50: "robust",
    62: "robust",
}

# Table 2's measured fresh and bootstrapped precision (bits), keyed by
# the normal scale's bits.  The audit's 36-bit row (scale 2^35) must land
# within one bit of the 35 entries.
PAPER_FRESH_PRECISION: Mapping[int, float] = {
    27: 14.19, 29: 16.32, 31: 18.44, 33: 20.34, 35: 22.39, 37: 24.43, 39: 26.43,
}
PAPER_BOOT_PRECISION: Mapping[int, float] = {
    27: 13.37, 29: 14.86, 31: 17.28, 33: 19.29, 35: 21.86, 37: 23.78, 39: 25.50,
}


@dataclass(frozen=True)
class AuditEntry:
    """One (word length, workload) cell of the static sweep."""

    word_bits: int | None
    scale_bits: float
    boot_scale_bits: float
    workload: str
    target_bits: float
    mean_floor_bits: float  # -inf when exploded
    proven_floor_bits: float  # -inf when exploded
    fresh_precision_bits: float
    boot_precision_bits: float
    drift_bits: float
    exploded: bool
    explosion_op: int | None
    report: CheckReport

    @property
    def passed(self) -> bool:
        return (
            not self.exploded
            and self.report.ok
            and self.mean_floor_bits >= self.target_bits
        )

    @property
    def verdict(self) -> str:
        if self.exploded:
            return "explosion"
        if not self.report.ok:
            return "rejected"
        return "ok" if self.passed else "below-target"

    def to_dict(self) -> dict[str, object]:
        return {
            "word_bits": self.word_bits,
            "scale_bits": self.scale_bits,
            "boot_scale_bits": self.boot_scale_bits,
            "workload": self.workload,
            "target_bits": self.target_bits,
            "mean_floor_bits": _json_float(self.mean_floor_bits),
            "proven_floor_bits": _json_float(self.proven_floor_bits),
            "fresh_precision_bits": self.fresh_precision_bits,
            "boot_precision_bits": self.boot_precision_bits,
            "drift_bits": self.drift_bits,
            "exploded": self.exploded,
            "explosion_op": self.explosion_op,
            "verdict": self.verdict,
        }


def _json_float(x: float) -> float | None:
    return x if math.isfinite(x) else None


@dataclass(frozen=True)
class AuditResult:
    """The full sweep plus per-word regime verdicts."""

    entries: tuple[AuditEntry, ...]

    def for_word(self, word_bits: int) -> tuple[AuditEntry, ...]:
        return tuple(e for e in self.entries if e.word_bits == word_bits)

    def entry(self, word_bits: int, workload: str) -> AuditEntry:
        for e in self.entries:
            if e.word_bits == word_bits and e.workload == workload:
                return e
        raise KeyError(f"no audit entry for ({word_bits}, {workload})")

    def regime(self, word_bits: int) -> str:
        """``explosion`` | ``robust`` | ``degraded`` for one word length."""
        entries = self.for_word(word_bits)
        if any(e.exploded for e in entries):
            return "explosion"
        if all(e.passed for e in entries):
            return "robust"
        return "degraded"

    def words(self) -> tuple[int, ...]:
        seen: list[int] = []
        for e in self.entries:
            if e.word_bits is not None and e.word_bits not in seen:
                seen.append(e.word_bits)
        return tuple(seen)

    def render(self) -> str:
        lines = [
            f"{'word':>5} {'scale':>6} {'workload':<14} {'verdict':<13} "
            f"{'mean floor':>10} {'proven':>8} {'drift':>7}"
        ]
        for e in self.entries:
            mean = f"{e.mean_floor_bits:.2f}" if math.isfinite(e.mean_floor_bits) else "-"
            worst = (
                f"{e.proven_floor_bits:.2f}"
                if math.isfinite(e.proven_floor_bits)
                else "-"
            )
            where = f" @op{e.explosion_op}" if e.explosion_op is not None else ""
            lines.append(
                f"{e.word_bits if e.word_bits is not None else '-':>5} "
                f"{e.scale_bits:>6.0f} {e.workload:<14} "
                f"{e.verdict + where:<13} {mean:>10} {worst:>8} "
                f"{e.drift_bits:>7.3f}"
            )
        return "\n".join(lines)


def audit_params(word_bits: int) -> NoiseParams:
    """The noise parameters one word-length preset sweeps at."""
    boot_scale, _ = boot_plan(word_bits)
    return NoiseParams(
        scale_bits=native_scale_bits(word_bits),
        boot_scale_bits=boot_scale,
        word_bits=word_bits,
    )


def _audit_one(params: NoiseParams, workload: str) -> AuditEntry:
    from repro.workloads.noise_programs import noise_programs

    program = noise_programs()[workload]
    run_params = replace(params, message_ratio=program.message_ratio)
    label = f"{workload}@{params.scale_bits:g}"
    report, summary = check_noise_program(program.build, run_params, label)
    return AuditEntry(
        word_bits=params.word_bits,
        scale_bits=params.scale_bits,
        boot_scale_bits=params.boot_scale_bits,
        workload=workload,
        target_bits=program.target_bits,
        mean_floor_bits=summary.mean_floor_bits,
        proven_floor_bits=summary.proven_floor_bits,
        fresh_precision_bits=-math.log2(params.fresh_std),
        boot_precision_bits=-math.log2(params.boot_std),
        drift_bits=summary.drift_bits,
        exploded=summary.exploded,
        explosion_op=summary.explosion_op,
        report=report,
    )


def run_audit() -> AuditResult:
    """Run every shipped workload noise program at every native word length."""
    from repro.workloads.noise_programs import noise_programs

    entries = [
        _audit_one(audit_params(word), workload)
        for word in NATIVE_WORD_LENGTHS
        for workload in noise_programs()
    ]
    return AuditResult(entries=tuple(entries))


def scale_audit(scale_bits: float, boot_scale_bits: float) -> tuple[AuditEntry, ...]:
    """One Fig. 1 scale point: every workload at an explicit scale pair."""
    from repro.workloads.noise_programs import noise_programs

    params = NoiseParams(scale_bits=scale_bits, boot_scale_bits=boot_scale_bits)
    return tuple(_audit_one(params, workload) for workload in noise_programs())
