"""``python -m repro.check [PASS ...]`` — the static verification gate.

Runs the named passes — all of them when none is named — without
executing any encryption.  :data:`PASSES` is the whole gate, one row
per pass:

* ``bounds`` — kernel bound certificates for the word-length presets
  (must prove), plus the consistency check that the derived safe bound
  equals the shipped ``kernels.FAST_MODULUS_BITS``;
* ``traces`` — every shipped workload trace, in plain, explicit-
  rescale, and fused form, through the SSA/chain verifier; each is
  then scheduled at the SHARP scratchpad capacity and its recorded
  schedule events verified (structure + deterministic replay);
* ``ckks`` — a representative evaluator program over the abstract
  (level, scale) domain of a functional parameter set;
* ``noise`` — the word-length robustness audit: every shipped
  workload noise program abstract-interpreted over the noise domain
  at each word-length preset; the 28-bit regime must be *proved* to
  explode, the 36/50/62-bit regimes must prove their precision floors
  with zero false positives, the 36-bit bootstrapping floor must land
  within a bit of Table 2, and the audit's claims must survive
  re-derivation;
* ``equiv`` — translation validation: every shipped workload trace is
  fused + scheduled at the SHARP capacity and the pair must *certify*
  (value-graph bisimulation, level/scale and noise-floor preservation,
  scratchpad dataflow replay);
* ``secflow`` — information-flow verification: the whole serve/ckks
  stack is taint-analyzed to prove no secret key material, sampling
  seed, or pre-encryption plaintext reaches a wire frame, log line,
  exception, repr, metrics counter, or JSON artifact.

After its own gates, each pass runs the seeded mutants that guard it
(:mod:`repro.check.mutations`): known-bad artifacts its checker must
flag with an expected code.  The pass's ``mutants`` gate demands every
one be caught, so a checker that accepts everything fails its own pass.

``--json PATH`` additionally writes the run as a machine-readable
report (``-`` for stdout, human output moves to stderr): the gates,
each pass's summary rows (kernel-chain headrooms, audit cells, schedule
certificates, information-flow findings) and every mutant's verdict;
``--summary-md PATH`` renders the same gates and rows as a
GitHub-flavored markdown job summary.  Exit status 0 means every gate
passed; any failed proof, hidden explosion, dirty trace, uncertifiable
schedule, leak, or accepted mutant is a non-zero exit, which is what CI
gates on.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.check.bounds import certify_word_bits, max_safe_word_bits
from repro.check.ckks_check import AbstractParams, SymbolicEvaluator, check_program
from repro.check.diagnostics import CheckReport
from repro.check.equiv import EquivError, certify_schedule
from repro.check.mutations import (
    MutationCase,
    bounds_cases,
    ckks_cases,
    equiv_cases,
    noise_cases,
    secflow_cases,
    trace_cases,
)
from repro.check.secflow import DEFAULT_MODULES, check_default
from repro.check.trace_check import verify_schedule, verify_trace
from repro.check.wordlen_audit import (
    EXPECTED_REGIMES,
    PAPER_BOOT_PRECISION_AT_35,
    claims_from_audit,
    run_audit,
    verify_claims,
)
from repro.core.config import sharp_config
from repro.params.presets import WordLengthSetting, build_sharp_setting
from repro.rns import kernels
from repro.sched.fusion import fuse_trace
from repro.sched.trace import schedule_trace
from repro.workloads.traces import evaluation_traces

__all__ = ["PASSES", "Pass", "PassRun", "main", "render_markdown_summary"]

Row = dict[str, Any]

PROVE_BITS = (28, 36, 50, 62)

# The shipped traces are verified at SHARP's operating point: the
# 36-bit Set_k chain, Belady eviction.
SETTING_BITS = 36
POLICY = "belady"

# How far the statically-derived 36-bit bootstrapping floor may sit
# from Table 2's measured precision (acceptance criterion: +/- 1 bit).
ANCHOR_TOLERANCE_BITS = 1.0


@dataclass
class PassRun:
    """What one pass reports: its gates, human-readable lines and
    summary rows."""

    name: str
    verbose: bool
    gates: list[Row] = field(default_factory=list)
    lines: list[str] = field(default_factory=list)
    rows: list[Row] = field(default_factory=list)

    def gate(
        self, subject: str, ok: bool, note: str = "", pass_name: str = ""
    ) -> None:
        pass_name = pass_name or self.name
        self.gates.append({"pass": pass_name, "subject": subject, "ok": ok})
        status = "OK" if ok else "FAIL"
        self.lines.append(
            f"[{pass_name}] {subject}: {status}" + (f" — {note}" if note else "")
        )

    def report(self, report: CheckReport) -> None:
        self.gate(report.subject, report.ok, pass_name=report.pass_name)
        self.lines.extend(f"  {d.render()}" for d in report.diagnostics)

    def mutants(self, cases: list[MutationCase]) -> list[Row]:
        """Run the pass's negative control; every case must be caught."""
        results = [case.check() for case in cases]
        caught = sum(r.caught for r in results)
        self.gate(
            "mutants",
            bool(results) and caught == len(results),
            f"{caught}/{len(results)} injected violations caught",
        )
        rows: list[Row] = []
        for r in results:
            codes = sorted(r.report.error_codes())
            if not r.caught:
                self.lines.append(
                    f"  MISSED {r.case.name} ({r.case.kind}): expected "
                    f"{r.case.expect_codes}, saw {codes or 'nothing'}"
                )
            elif self.verbose:
                self.lines.append(f"  caught {r.case.name}: {codes}")
            rows.append(
                {
                    "name": r.case.name,
                    "kind": r.case.kind,
                    "caught": r.caught,
                    "error_codes": codes,
                }
            )
        return rows


def _setting() -> WordLengthSetting:
    return build_sharp_setting(SETTING_BITS)


def _bounds(out: PassRun) -> None:
    headroom: dict[str, Row] = {}
    for bits in PROVE_BITS:
        certificate = certify_word_bits(bits)
        out.gate(f"word_bits={bits}", certificate.ok)
        out.lines.extend(
            f"  {chain}: {step.label} -> {step.magnitude}"
            for chain, step in certificate.failures()
        )
        for proof in certificate.proofs:
            finite = [
                s.headroom_bits for s in proof.steps if math.isfinite(s.headroom_bits)
            ]
            row = headroom.setdefault(proof.chain, {"chain": proof.chain})
            row[f"{bits}-bit headroom"] = min(finite, default=None)
    out.rows = list(headroom.values())
    derived = max_safe_word_bits()
    out.gate(
        "derived-safe-bound",
        derived == kernels.FAST_MODULUS_BITS,
        f"derived safe word length {derived} bits, "
        f"kernels.FAST_MODULUS_BITS {kernels.FAST_MODULUS_BITS}",
    )


def _traces(out: PassRun) -> None:
    setting = _setting()
    for variant, traces in (
        ("", evaluation_traces(setting)),
        ("+rescale", evaluation_traces(setting, explicit_rescale=True)),
    ):
        for name, trace in traces.items():
            report = verify_trace(trace, setting)
            report.subject = f"{name}{variant}"
            out.report(report)
            if variant:
                fused, _ = fuse_trace(trace)
                fused_report = verify_trace(fused, setting)
                fused_report.subject = f"{name}{variant}+fused"
                out.report(fused_report)

    capacity = sharp_config().onchip_capacity_bytes
    for name, trace in evaluation_traces(setting).items():
        sched = schedule_trace(trace, setting, capacity, policy=POLICY)
        report = verify_schedule(sched, setting)
        report.subject = f"{name}@{POLICY}"
        out.report(report)


def _demo_program(ev: SymbolicEvaluator) -> None:
    """A clean multiply/rotate/accumulate chain down the whole budget."""
    ct = ev.fresh()
    acc = ev.rotate(ct, 1)
    acc = ev.add(acc, ct)
    while acc.level > 1:
        acc = ev.multiply(acc, ev.fresh(level=acc.level), rescale=True)
    ev.multiply_scalar(acc, 1.0, rescale=True)


def _ckks(out: PassRun) -> None:
    abstract = AbstractParams.synthetic(depth=8, scale_bits=35.0, base_bits=42.0)
    out.report(check_program(_demo_program, abstract, "demo-chain"))


def _noise(out: PassRun) -> None:
    audit = run_audit()
    if out.verbose:
        out.lines.extend(audit.render().splitlines())
    for entry in audit.entries:
        # Zero-false-positive gate: robust regimes must pass cleanly,
        # the short-word regime must be *proved* to explode.
        word = entry.word_bits
        if EXPECTED_REGIMES.get(word if word is not None else -1) == "explosion":
            ok = entry.workload == "bootstrapping" or entry.exploded
        else:
            ok = entry.passed
        where = f" (explodes @op{entry.explosion_op})" if entry.exploded else ""
        floor = (
            f"floor {entry.mean_floor_bits:.2f} bits"
            if math.isfinite(entry.mean_floor_bits)
            else "no floor"
        )
        out.gate(f"{entry.workload}@{word}", ok, f"{entry.verdict}{where}, {floor}")
        out.rows.append(entry.to_dict())
    for word in audit.words():
        regime, expected = audit.regime(word), EXPECTED_REGIMES[word]
        out.gate(
            f"regime word={word}",
            regime == expected,
            f"derived {regime}, Table 2 says {expected}",
        )
    boot36 = audit.entry(36, "bootstrapping").mean_floor_bits
    delta = abs(boot36 - PAPER_BOOT_PRECISION_AT_35)
    out.gate(
        "table2-boot-anchor",
        delta <= ANCHOR_TOLERANCE_BITS,
        f"36-bit bootstrapping floor {boot36:.2f} bits, Table 2 "
        f"{PAPER_BOOT_PRECISION_AT_35}, delta {delta:.2f} "
        f"(tolerance {ANCHOR_TOLERANCE_BITS})",
    )
    claim_report = verify_claims(claims_from_audit(audit))
    claim_report.subject = "claims-rederive"
    out.report(claim_report)


def _equiv(out: PassRun) -> None:
    setting = _setting()
    capacity = sharp_config().onchip_capacity_bytes
    for variant, explicit in (("", False), ("+rescale", True)):
        traces = evaluation_traces(setting, explicit_rescale=explicit)
        for name, trace in traces.items():
            subject = f"{name}{variant}"
            sched = schedule_trace(trace, setting, capacity, policy=POLICY, fuse=True)
            row: Row = {
                "trace": subject,
                "source_ops": len(trace.ops),
                "scheduled_ops": len(sched.trace.ops),
            }
            out.rows.append(row)
            try:
                certificate = certify_schedule(trace, sched, setting)
            except EquivError as exc:
                out.gate(subject, False, "refused to certify")
                out.lines.extend(f"  {d.render()}" for d in exc.report.errors)
                row["error_codes"] = sorted(exc.report.error_codes())
                continue
            row.update(certificate.to_dict())
            out.gate(
                subject,
                True,
                f"certified {len(trace.ops)} -> {len(sched.trace.ops)} ops, "
                f"proven floor {certificate.source_floor_bits:.2f} -> "
                f"{certificate.scheduled_floor_bits:.2f} bits",
            )


def _secflow(out: PassRun) -> None:
    report = check_default()
    report.subject = f"{len(DEFAULT_MODULES)} modules"
    out.report(report)
    out.rows = [d.to_dict() for d in report.diagnostics]


@dataclass(frozen=True)
class Pass:
    """One row of the gate: a runner and the mutants that guard it."""

    name: str
    run: Callable[[PassRun], None]
    cases: Callable[[], list[MutationCase]]


PASSES: tuple[Pass, ...] = (
    Pass("bounds", _bounds, bounds_cases),
    Pass("traces", _traces, lambda: trace_cases(_setting())),
    Pass("ckks", _ckks, ckks_cases),
    Pass("noise", _noise, noise_cases),
    Pass("equiv", _equiv, lambda: equiv_cases(_setting())),
    Pass("secflow", _secflow, secflow_cases),
)


def _cell(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def _table(rows: list[Row]) -> list[str]:
    """Markdown table over the union of the rows' keys."""
    columns = list(dict.fromkeys(key for row in rows for key in row))
    lines = ["| " + " | ".join(columns) + " |", "|" + " --- |" * len(columns)]
    lines.extend(
        "| " + " | ".join(_cell(row.get(c)) for c in columns) + " |" for row in rows
    )
    return lines


def render_markdown_summary(payload: dict[str, Any]) -> str:
    """GitHub job-summary markdown for one ``--json`` payload."""
    verdict = payload["verdict"]
    icon = "✅" if verdict == "PASS" else "❌"
    lines = [
        f"## repro.check: {icon} {verdict}",
        "",
        f"{payload['gates_passed']}/{payload['gates_total']} gates passed "
        f"in {payload['elapsed_s']:.1f}s.",
        "",
        *_table(payload["gates"]),
    ]
    for name, section in payload["passes"].items():
        if section["rows"]:
            lines += ["", f"### {name}", "", *_table(section["rows"])]
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    names = [p.name for p in PASSES]
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Static verification: kernel overflow bounds, traces and "
        "schedules, CKKS discipline, noise budgets, schedule equivalence, "
        "information flow.",
    )
    parser.add_argument(
        "passes",
        nargs="*",
        metavar="PASS",
        help=f"passes to run, from {', '.join(names)} (default: all)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="write a machine-readable report to PATH ('-' for stdout; "
        "human output then moves to stderr)",
    )
    parser.add_argument(
        "--summary-md",
        metavar="PATH",
        default=None,
        help="write a GitHub job-summary markdown file to PATH",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true", help="print every diagnostic"
    )
    args = parser.parse_args(argv)
    unknown = sorted(set(args.passes) - set(names))
    if unknown:
        parser.error(
            f"unknown pass {', '.join(unknown)}; choose from {', '.join(names)}"
        )

    human_out = sys.stderr if args.json == "-" else sys.stdout
    started = time.perf_counter()
    gates: list[Row] = []
    sections: dict[str, Row] = {}
    for p in PASSES:
        if args.passes and p.name not in args.passes:
            continue
        out = PassRun(p.name, args.verbose)
        p.run(out)
        sections[p.name] = {"rows": out.rows, "mutants": out.mutants(p.cases())}
        gates += out.gates
        print("\n".join(out.lines), file=human_out, flush=True)

    elapsed = time.perf_counter() - started
    failures = sum(not g["ok"] for g in gates)
    payload = {
        "verdict": "PASS" if failures == 0 else "FAIL",
        "elapsed_s": elapsed,
        "gates": gates,
        "gates_passed": len(gates) - failures,
        "gates_total": len(gates),
        "passes": sections,
    }

    verdict = "PASS" if failures == 0 else f"FAIL ({failures} gate(s))"
    print(f"\nrepro.check: {verdict} in {elapsed:.1f}s", file=human_out)

    if args.json is not None:
        text = json.dumps(payload, indent=2)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    if args.summary_md is not None:
        with open(args.summary_md, "w", encoding="utf-8") as fh:
            fh.write(render_markdown_summary(payload) + "\n")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
