"""Word-length robustness audit: the static Table 2 / Fig. 1 twin.

Re-derives the paper's scale sweep *statically*: for each word-length
preset the sweep runs every shipped workload noise program
(:mod:`repro.workloads.noise_programs`) through the
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

:func:`verify_claims` closes the loop the same way the schedule
verifier replays its allocator: any externally-presented set of
precision claims is re-derived with the trusted analyzer, so a claim
produced by an analyzer that "forgot" the rescale jitter or the
bootstrap noise (the mutation corpus manufactures exactly those) is
flagged rather than trusted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.ckks import calibration
from repro.check.diagnostics import CheckReport
from repro.check.noise_check import (
    NoiseParams,
    NoiseSummary,
    check_noise_program,
)
from repro.params.presets import NATIVE_WORD_LENGTHS, boot_plan, native_scale_bits

__all__ = [
    "EXPECTED_REGIMES",
    "PAPER_FRESH_PRECISION_AT_35",
    "PAPER_BOOT_PRECISION_AT_35",
    "AuditEntry",
    "AuditResult",
    "PrecisionClaim",
    "audit_params",
    "run_audit",
    "scale_audit",
    "claims_from_audit",
    "verify_claims",
]

CLAIM_TOLERANCE_BITS = 0.25  # an over-claimed floor within this passes

# What SHARP's S3 / Table 2 says each regime must look like.
EXPECTED_REGIMES: Mapping[int, str] = {
    28: "explosion",
    36: "robust",
    50: "robust",
    62: "robust",
}

# Table 2 anchors at the paper's 2^35 scale (bits of precision): the
# audit's 36-bit row must land within one bit of these.
PAPER_FRESH_PRECISION_AT_35 = 22.39
PAPER_BOOT_PRECISION_AT_35 = 21.86


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
    summary: NoiseSummary

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


def audit_params(
    word_bits: int,
    include_jitter: bool = True,
    include_boot_noise: bool = True,
) -> NoiseParams:
    """The noise parameters one word-length preset sweeps at."""
    boot_scale, _ = boot_plan(word_bits)
    return NoiseParams(
        scale_bits=native_scale_bits(word_bits),
        boot_scale_bits=boot_scale,
        word_bits=word_bits,
        include_jitter=include_jitter,
        include_boot_noise=include_boot_noise,
    )


def _audit_one(params: NoiseParams, workload: str) -> AuditEntry:
    from repro.workloads.noise_programs import noise_programs

    program = noise_programs()[workload]
    run_params = NoiseParams(
        scale_bits=params.scale_bits,
        boot_scale_bits=params.boot_scale_bits,
        word_bits=params.word_bits,
        message_ratio=program.message_ratio,
        include_jitter=params.include_jitter,
        include_boot_noise=params.include_boot_noise,
    )
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
        fresh_precision_bits=-math.log2(calibration.fresh_std(params.scale_bits)),
        boot_precision_bits=-math.log2(
            calibration.boot_std(params.scale_bits, params.boot_scale_bits)
        ),
        drift_bits=summary.drift_bits,
        exploded=summary.exploded,
        explosion_op=summary.explosion_op,
        report=report,
        summary=summary,
    )


def run_audit(
    words: Iterable[int] = NATIVE_WORD_LENGTHS,
    include_jitter: bool = True,
    include_boot_noise: bool = True,
) -> AuditResult:
    """Run every shipped workload noise program at every word length."""
    from repro.workloads.noise_programs import noise_programs

    entries = [
        _audit_one(
            audit_params(word, include_jitter, include_boot_noise), workload
        )
        for word in words
        for workload in noise_programs()
    ]
    return AuditResult(entries=tuple(entries))


def scale_audit(scale_bits: float, boot_scale_bits: float) -> tuple[AuditEntry, ...]:
    """One Fig. 1 scale point: every workload at an explicit scale pair."""
    from repro.workloads.noise_programs import noise_programs

    params = NoiseParams(scale_bits=scale_bits, boot_scale_bits=boot_scale_bits)
    return tuple(_audit_one(params, workload) for workload in noise_programs())


# ---------------------------------------------------------------------------
# Claim verification (re-derivation, like schedule replay)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PrecisionClaim:
    """An externally-presented claim about one sweep cell."""

    word_bits: int
    workload: str
    exploded: bool
    mean_floor_bits: float  # -inf allowed when claiming an explosion


def claims_from_audit(result: AuditResult) -> tuple[PrecisionClaim, ...]:
    return tuple(
        PrecisionClaim(
            word_bits=e.word_bits,
            workload=e.workload,
            exploded=e.exploded,
            mean_floor_bits=e.mean_floor_bits,
        )
        for e in result.entries
        if e.word_bits is not None
    )


def verify_claims(claims: Iterable[PrecisionClaim]) -> CheckReport:
    """Re-derive every claim with the trusted analyzer.

    A claim that hides an explosion the trusted analyzer proves
    (``NOISE-EXPLOSION-HIDDEN``), invents one it refutes, or overstates
    a precision floor by more than ``CLAIM_TOLERANCE_BITS``
    (``NOISE-CLAIM``) is an error.  Conservative *under*-claims within
    reason are accepted — an analyzer may legitimately be looser than
    this one, never tighter than the noise allows.
    """
    report = CheckReport("noise", "precision-claims")
    claims = list(claims)
    words = sorted({c.word_bits for c in claims})
    trusted = run_audit(words)
    for claim in claims:
        try:
            actual = trusted.entry(claim.word_bits, claim.workload)
        except KeyError:
            report.error(
                "NOISE-CLAIM",
                f"claim for unknown workload {claim.workload!r} at "
                f"{claim.word_bits}-bit words",
            )
            continue
        where = f"{claim.workload}@{claim.word_bits}"
        if actual.exploded and not claim.exploded:
            report.error(
                "NOISE-EXPLOSION-HIDDEN",
                f"{where}: claim reports a finite floor but the trusted "
                f"analyzer proves an explosion at op {actual.explosion_op}",
                op_index=actual.explosion_op,
            )
            continue
        if claim.exploded and not actual.exploded:
            report.error(
                "NOISE-CLAIM",
                f"{where}: claim invents an explosion the trusted analyzer "
                f"refutes (floor {actual.mean_floor_bits:.2f} bits)",
            )
            continue
        if claim.exploded:
            continue
        if claim.mean_floor_bits > actual.mean_floor_bits + CLAIM_TOLERANCE_BITS:
            report.error(
                "NOISE-CLAIM",
                f"{where}: claimed floor {claim.mean_floor_bits:.2f} bits "
                f"overstates the derived {actual.mean_floor_bits:.2f} bits "
                f"by more than {CLAIM_TOLERANCE_BITS:g}",
            )
    return report
