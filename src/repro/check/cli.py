"""``python -m repro.check`` — the static verification gate.

Runs all passes without executing any encryption:

1. **bounds** — kernel bound certificates for the word-length presets
   (must prove) and a synthetic over-wide configuration (must refute),
   plus the consistency check that the derived safe bound equals the
   shipped ``kernels.FAST_MODULUS_BITS``;
2. **traces** — every shipped workload trace, in plain, explicit-
   rescale, and fused form, through the SSA/chain verifier; each is
   then scheduled at the SHARP scratchpad capacity and its recorded
   schedule log verified (structure + deterministic replay);
3. **ckks** — a representative evaluator program over the abstract
   (level, scale) domain of a functional parameter set;
4. **noise** — the word-length robustness audit: every shipped
   workload noise program abstract-interpreted over the noise domain
   at each word-length preset; the 28-bit regime must be *proved* to
   explode, the 36/50/62-bit regimes must prove their precision floors
   with zero false positives, the 36-bit bootstrapping floor must land
   within a bit of Table 2, and the audit's claims must survive
   re-derivation;
5. **mutations** — the seeded corpus of known-bad artifacts, all of
   which must be caught;
6. **equiv** — translation validation: every shipped workload trace is
   fused + scheduled at the SHARP capacity and the pair must *certify*
   (value-graph bisimulation, level/scale and noise-floor preservation,
   scratchpad dataflow replay), plus a tampered negative control that
   must be refused;
7. **secflow** — information-flow verification: the whole serve/ckks
   stack is taint-analyzed to prove no secret key material, sampling
   seed, or pre-encryption plaintext reaches a wire frame, log line,
   exception, repr, metrics counter, or JSON artifact; the seeded
   leak-mutant corpus doubles as the pass's negative control (every
   injected leak must be caught).

``--equiv`` runs only pass 6 — the fast gating surface CI uses to
refuse any scheduled trace that cannot be proven equivalent to its
source.  ``--secflow`` likewise runs only pass 7, the information-flow
gate.  ``--json PATH`` additionally writes the whole run as a
machine-readable report (``-`` for stdout, human output moves to
stderr), including per-chain kernel bound headrooms (the float chains
among them) and the equiv certificates; ``--summary-md PATH`` writes a
GitHub-flavored markdown job summary.  Exit status 0 means every gate
passed; any accepted mutant, failed proof, hidden explosion, dirty
trace, or uncertifiable schedule is a non-zero exit, which is what CI
gates on.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import Sequence

from repro.check.bounds import (
    BoundCertificate,
    certify_word_bits,
    max_safe_word_bits,
)
from repro.check.ckks_check import AbstractParams, SymbolicEvaluator, check_program
from repro.check.diagnostics import CheckReport
from repro.check.mutations import run_corpus
from repro.check.trace_check import verify_schedule, verify_trace
from repro.rns import kernels

__all__ = ["main", "render_markdown_summary"]

PROVE_BITS = (28, 36, 50, 62)
REJECT_BITS = (63,)

# The shipped traces are verified at SHARP's operating point: the
# 36-bit Set_k chain, Belady eviction.
SETTING_BITS = 36
POLICY = "belady"

# How far the statically-derived 36-bit bootstrapping floor may sit
# from Table 2's measured precision (acceptance criterion: +/- 1 bit).
ANCHOR_TOLERANCE_BITS = 1.0


def _demo_program(ev: SymbolicEvaluator) -> None:
    """A clean multiply/rotate/accumulate chain down the whole budget."""
    ct = ev.fresh()
    acc = ev.rotate(ct, 1)
    acc = ev.add(acc, ct)
    while acc.level > 1:
        acc = ev.multiply(acc, ev.fresh(level=acc.level), rescale=True)
    ev.multiply_scalar(acc, 1.0, rescale=True)


def _report_lines(report: CheckReport, verbose: bool) -> list[str]:
    if verbose or not report.ok or report.warnings:
        return [report.render()]
    return [f"[{report.pass_name}] {report.subject}: OK"]


def render_markdown_summary(payload: dict) -> str:
    """GitHub job-summary markdown for one ``--json`` payload."""
    verdict = payload["verdict"]
    icon = "✅" if verdict == "PASS" else "❌"
    lines = [
        f"## repro.check: {icon} {verdict}",
        "",
        f"{payload['gates_passed']}/{payload['gates_total']} gates passed "
        f"in {payload['elapsed_s']:.1f}s.",
        "",
        "| gate | subject | status |",
        "| --- | --- | --- |",
    ]
    for gate in payload["gates"]:
        status = "ok" if gate["ok"] else "**FAIL**"
        lines.append(f"| {gate['pass']} | {gate['subject']} | {status} |")
    bounds = payload.get("bounds")
    if bounds:
        proved = [w for w in bounds["words"] if w["expected"] == "prove"]
        chains = [c["chain"] for c in proved[0]["chains"]] if proved else []
        lines += [
            "",
            "### Kernel bound chains (min headroom, bits)",
            "",
            "| chain | " + " | ".join(str(w["word_bits"]) for w in proved) + " |",
            "| --- |" + " --- |" * len(proved),
        ]
        for chain in chains:
            cells = []
            for word in proved:
                entry = next(c for c in word["chains"] if c["chain"] == chain)
                head = entry["min_headroom_bits"]
                cell = "-" if head is None else f"{head:.2f}"
                if not entry["ok"]:
                    cell = f"**{cell}**"
                cells.append(cell)
            lines.append(f"| {chain} | " + " | ".join(cells) + " |")
        lines.append(
            f"\nDerived safe word length: {bounds['derived_safe_bits']} bits "
            f"(shipped: {bounds['shipped_fast_modulus_bits']})."
        )
    equiv = payload.get("equiv")
    if equiv:
        lines += [
            "",
            f"### Translation validation ({equiv['checker_version']})",
            "",
            "| trace | ops (src → sched) | proven floor, bits (src → sched) "
            "| status |",
            "| --- | --- | --- | --- |",
        ]
        for e in equiv["entries"]:
            status = "certified" if e["ok"] else "**REFUSED**"
            floors = (
                f"{e['source_floor_bits']:.2f} → {e['scheduled_floor_bits']:.2f}"
                if e["ok"]
                else "-"
            )
            lines.append(
                f"| {e['trace']} | {e['source_ops']} → {e['scheduled_ops']} "
                f"| {floors} | {status} |"
            )
        control = "caught" if equiv["tamper_control_caught"] else "**MISSED**"
        lines.append(f"\nTampered-schedule negative control: {control}.")
    secflow = payload.get("secflow")
    if secflow:
        status = "clean" if secflow["clean"] else "**LEAKS FOUND**"
        lines += [
            "",
            "### Information-flow verification (secflow)",
            "",
            f"{len(secflow['modules'])} modules analyzed: {status}.",
        ]
        for diag in secflow["diagnostics"]:
            lines.append(f"- `{diag['code']}`: {diag['message']}")
        if secflow["corpus_cases"]:
            rate = secflow["corpus_caught"] / secflow["corpus_cases"]
            control = "holds" if rate == 1.0 else "**BROKEN**"
            lines.append(
                f"\nSeeded leak corpus: {secflow['corpus_caught']}/"
                f"{secflow['corpus_cases']} caught ({rate:.0%}) — "
                f"negative control {control}."
            )
    audit = payload.get("noise_audit")
    if audit:
        lines += [
            "",
            "### Static word-length audit (Table 2 twin)",
            "",
            "| word | scale | workload | verdict | mean floor (bits) "
            "| proven floor (bits) | drift (bits) |",
            "| --- | --- | --- | --- | --- | --- | --- |",
        ]
        for e in audit["entries"]:
            mean = e["mean_floor_bits"]
            worst = e["proven_floor_bits"]
            verdict_cell = e["verdict"]
            if e["explosion_op"] is not None:
                verdict_cell += f" @op{e['explosion_op']}"
            lines.append(
                f"| {e['word_bits']} | 2^{e['scale_bits']:.0f} "
                f"| {e['workload']} | {verdict_cell} "
                f"| {'-' if mean is None else f'{mean:.2f}'} "
                f"| {'-' if worst is None else f'{worst:.2f}'} "
                f"| {e['drift_bits']:.3f} |"
            )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.check",
        description="Static verification: traces, schedules, CKKS discipline, "
        "noise budgets, kernel overflow bounds.",
    )
    parser.add_argument(
        "--skip-mutations",
        action="store_true",
        help="skip the seeded-mutation corpus (faster local runs)",
    )
    parser.add_argument(
        "--equiv",
        action="store_true",
        help="run only the translation-validation pass (schedule "
        "certificates for every shipped workload trace)",
    )
    parser.add_argument(
        "--secflow",
        action="store_true",
        help="run only the information-flow pass (secret material must "
        "be unreachable from wire/log/artifact sinks)",
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

    started = time.perf_counter()
    failures = 0
    lines: list[str] = []
    gates: list[dict] = []
    noise_audit_payload: dict | None = None
    bounds_payload: dict | None = None
    equiv_payload: dict | None = None
    secflow_payload: dict | None = None
    run_full = not args.equiv and not args.secflow

    def gate(pass_name: str, subject: str, ok: bool) -> bool:
        gates.append({"pass": pass_name, "subject": subject, "ok": bool(ok)})
        return ok

    def gate_report(report: CheckReport, verbose: bool) -> None:
        nonlocal failures
        lines.extend(_report_lines(report, verbose))
        if not gate(report.pass_name, report.subject, report.ok):
            failures += 1

    def _chain_payload(certificate: BoundCertificate) -> list[dict]:
        return [
            {
                "chain": proof.chain,
                "ok": proof.ok,
                "steps": len(proof.steps),
                "min_headroom_bits": min(
                    (
                        step.headroom_bits
                        for step in proof.steps
                        if math.isfinite(step.headroom_bits)
                    ),
                    default=None,
                ),
            }
            for proof in certificate.proofs
        ]

    # -- pass 1: kernel bound prover ---------------------------------------
    if run_full:
        bounds_words: list[dict] = []
        for bits in PROVE_BITS:
            certificate = certify_word_bits(bits)
            bounds_words.append(
                {
                    "word_bits": bits,
                    "expected": "prove",
                    "ok": certificate.ok,
                    "chains": _chain_payload(certificate),
                }
            )
            status = "proved" if certificate.ok else "FAILED TO PROVE"
            lines.append(f"[bounds] word_bits={bits}: {status}")
            if not gate("bounds", f"word_bits={bits}", certificate.ok):
                failures += 1
                for chain, step in certificate.failures():
                    lines.append(f"  {chain}: {step.label} -> {step.magnitude}")
        for bits in REJECT_BITS:
            certificate = certify_word_bits(bits)
            bounds_words.append(
                {
                    "word_bits": bits,
                    "expected": "reject",
                    "ok": not certificate.ok,
                    "chains": _chain_payload(certificate),
                }
            )
            if not gate(
                "bounds", f"word_bits={bits} (must reject)", not certificate.ok
            ):
                failures += 1
                lines.append(
                    f"[bounds] word_bits={bits}: PROVED BUT MUST WRAP — "
                    "the prover lost its teeth"
                )
            else:
                lines.append(
                    f"[bounds] word_bits={bits}: rejected (as it must be)"
                )
        derived = max_safe_word_bits()
        bounds_payload = {
            "words": bounds_words,
            "derived_safe_bits": derived,
            "shipped_fast_modulus_bits": kernels.FAST_MODULUS_BITS,
        }
        if not gate(
            "bounds", "derived-safe-bound", derived == kernels.FAST_MODULUS_BITS
        ):
            failures += 1
            lines.append(
                f"[bounds] derived safe bound {derived} != shipped "
                f"FAST_MODULUS_BITS {kernels.FAST_MODULUS_BITS}"
            )
        else:
            lines.append(
                f"[bounds] derived safe word length = {derived} bits "
                "(matches kernels.FAST_MODULUS_BITS)"
            )

    # -- pass 2: shipped traces + schedules --------------------------------
    # Imported lazily: building the Set_k chain costs a prime search —
    # skipped entirely on the --secflow fast surface.
    if not args.secflow:
        from repro.core.config import sharp_config
        from repro.params.presets import build_sharp_setting
        from repro.sched.fusion import fuse_trace
        from repro.sched.trace import schedule_trace
        from repro.workloads.traces import evaluation_traces

        setting = build_sharp_setting(SETTING_BITS)
        capacity = sharp_config().onchip_capacity_bytes

    if run_full:
        for variant, traces in (
            ("", evaluation_traces(setting)),
            ("+rescale", evaluation_traces(setting, explicit_rescale=True)),
        ):
            for name, trace in traces.items():
                report = verify_trace(trace, setting)
                report.subject = f"{name}{variant}"
                gate_report(report, args.verbose)
                if variant:
                    fused, _ = fuse_trace(trace)
                    fused_report = verify_trace(fused, setting)
                    fused_report.subject = f"{name}{variant}+fused"
                    gate_report(fused_report, args.verbose)

        for name, trace in evaluation_traces(setting).items():
            sched = schedule_trace(trace, setting, capacity, policy=POLICY)
            report = verify_schedule(sched, setting)
            report.subject = f"{name}@{POLICY}"
            gate_report(report, args.verbose)

    # -- pass 3: CKKS program discipline -----------------------------------
    if run_full:
        abstract = AbstractParams.synthetic(
            depth=8, scale_bits=35.0, base_bits=42.0
        )
        report = check_program(_demo_program, abstract, "demo-chain")
        gate_report(report, args.verbose)

    # -- pass 4: noise-budget audit (static Table 2 twin) ------------------
    if run_full:
        from repro.check.wordlen_audit import (
            EXPECTED_REGIMES,
            PAPER_BOOT_PRECISION_AT_35,
            claims_from_audit,
            run_audit,
            verify_claims,
        )

        audit = run_audit()
        if args.verbose:
            lines.extend(audit.render().splitlines())
        for entry in audit.entries:
            # Zero-false-positive gate: robust regimes must pass cleanly,
            # the short-word regime must be *proved* to explode.
            word = entry.word_bits
            expected = EXPECTED_REGIMES.get(word if word is not None else -1)
            if expected == "explosion":
                ok = entry.workload == "bootstrapping" or entry.exploded
            else:
                ok = entry.passed
            subject = f"{entry.workload}@{word}"
            if not gate("noise", subject, ok):
                failures += 1
                lines.append(
                    f"[noise] {subject}: unexpected verdict {entry.verdict}"
                )
            elif not args.verbose:
                where = (
                    f" (explodes @op{entry.explosion_op})"
                    if entry.exploded
                    else ""
                )
                floor = (
                    f"floor {entry.mean_floor_bits:.2f} bits"
                    if math.isfinite(entry.mean_floor_bits)
                    else "no floor"
                )
                lines.append(f"[noise] {subject}: {entry.verdict}{where}, {floor}")
        for word in audit.words():
            regime = audit.regime(word)
            expected = EXPECTED_REGIMES[word]
            expected_ok = regime == (
                "robust" if expected == "robust" else "explosion"
            )
            if not gate("noise", f"regime word={word}", expected_ok):
                failures += 1
                lines.append(
                    f"[noise] word={word}: derived regime {regime!r}, "
                    f"paper says {expected!r}"
                )
            else:
                lines.append(f"[noise] word={word}: {regime} (matches Table 2)")
        boot36 = audit.entry(36, "bootstrapping")
        anchor_delta = abs(boot36.mean_floor_bits - PAPER_BOOT_PRECISION_AT_35)
        if not gate(
            "noise", "table2-boot-anchor", anchor_delta <= ANCHOR_TOLERANCE_BITS
        ):
            failures += 1
            lines.append(
                f"[noise] 36-bit bootstrapping floor "
                f"{boot36.mean_floor_bits:.2f} bits is {anchor_delta:.2f} bits "
                f"from Table 2's {PAPER_BOOT_PRECISION_AT_35} "
                f"(tolerance {ANCHOR_TOLERANCE_BITS})"
            )
        else:
            lines.append(
                f"[noise] 36-bit bootstrapping floor "
                f"{boot36.mean_floor_bits:.2f} bits "
                f"(Table 2: {PAPER_BOOT_PRECISION_AT_35}, "
                f"delta {anchor_delta:.2f})"
            )
        claim_report = verify_claims(claims_from_audit(audit))
        claim_report.subject = "claims-rederive"
        gate_report(claim_report, args.verbose)
        noise_audit_payload = {
            "entries": [e.to_dict() for e in audit.entries],
            "regimes": {str(w): audit.regime(w) for w in audit.words()},
            "table2_boot_anchor": {
                "derived_bits": boot36.mean_floor_bits,
                "paper_bits": PAPER_BOOT_PRECISION_AT_35,
                "delta_bits": anchor_delta,
            },
        }

    # -- pass 5: seeded mutations ------------------------------------------
    if run_full and not args.skip_mutations:
        results = run_corpus(setting)
        caught = sum(1 for r in results if r.caught)
        lines.append(f"[mutations] {caught}/{len(results)} injected violations caught")
        if not gate("mutations", f"{caught}/{len(results)} caught", caught == len(results)):
            pass  # failures counted per-case below
        for result in results:
            if not result.caught:
                failures += 1
                lines.append(
                    f"  MISSED {result.case.name} ({result.case.kind}): "
                    f"expected {result.case.expect_codes}, saw "
                    f"{sorted(result.report.codes()) or 'nothing'}"
                )
            elif args.verbose:
                fired = sorted(
                    result.report.error_codes() & set(result.case.expect_codes)
                )
                lines.append(f"  caught {result.case.name}: {fired}")

    # -- pass 6: translation validation (equiv certificates) ---------------
    from dataclasses import replace as _replace

    from repro.check.equiv import (
        CHECKER_VERSION,
        EquivError,
        certify_schedule,
        check_equivalence,
    )
    from repro.hw.isa import OpKind, Trace
    from repro.sched.trace import ScheduledTrace

    equiv_entries: list[dict] = []
    control_pair: tuple[Trace, ScheduledTrace] | None = None
    variants = () if args.secflow else (("", False), ("+rescale", True))
    for variant, explicit in variants:
        for name, trace in evaluation_traces(
            setting, explicit_rescale=explicit
        ).items():
            subject = f"{name}{variant}"
            sched = schedule_trace(
                trace, setting, capacity, policy=POLICY, fuse=True
            )
            entry: dict = {
                "trace": subject,
                "policy": POLICY,
                "source_ops": len(trace.ops),
                "scheduled_ops": len(sched.trace.ops),
            }
            try:
                certificate = certify_schedule(trace, sched, setting)
            except EquivError as exc:
                failures += 1
                gate("equiv", subject, False)
                entry.update(ok=False, error_codes=sorted(exc.report.error_codes()))
                equiv_entries.append(entry)
                lines.append(f"[equiv] {subject}: REFUSED TO CERTIFY")
                lines.extend(
                    f"  {diag.code}: {diag.message}" for diag in exc.report.errors
                )
                continue
            gate("equiv", subject, True)
            entry.update(ok=True, **certificate.to_dict())
            equiv_entries.append(entry)
            lines.append(
                f"[equiv] {subject}: certified "
                f"{len(trace.ops)} -> {len(sched.trace.ops)} ops, "
                f"proven floor {certificate.source_floor_bits:.2f} -> "
                f"{certificate.scheduled_floor_bits:.2f} bits"
            )
            if control_pair is None:
                control_pair = (trace, sched)

    # Negative control: one extra accumulation pass in the scheduled
    # trace must be refused, or the certifier has lost its teeth.
    control_caught = False
    if control_pair is not None:
        src, sched = control_pair
        ops = list(sched.trace.ops)
        at = next(
            i for i, op in enumerate(ops) if op.kind is not OpKind.RESCALE
        )
        ops[at] = _replace(ops[at], count=ops[at].count + 1)
        forged = ScheduledTrace(
            trace=Trace(
                name=sched.trace.name,
                ops=ops,
                normalize=sched.trace.normalize,
            ),
            liveness=sched.liveness,
            log=sched.log,
        )
        control_caught = not check_equivalence(src, forged, setting).ok
    if not args.secflow:
        if not gate("equiv", "tamper-control (must refuse)", control_caught):
            failures += 1
            lines.append(
                "[equiv] tamper-control: a forged schedule CERTIFIED — "
                "the bisimulation lost its teeth"
            )
        else:
            lines.append(
                "[equiv] tamper-control: forged schedule refused (as it must be)"
            )
        equiv_payload = {
            "checker_version": CHECKER_VERSION,
            "entries": equiv_entries,
            "tamper_control_caught": control_caught,
        }

    # -- pass 7: information-flow verification -----------------------------
    if not args.equiv:
        from repro.check.mutations import secflow_cases
        from repro.check.secflow import DEFAULT_MODULES, check_default

        secflow_report = check_default()
        secflow_report.subject = f"{len(DEFAULT_MODULES)} modules"
        gate_report(secflow_report, args.verbose)
        leak_results = (
            []
            if run_full and args.skip_mutations
            else [(case, case.run()) for case in secflow_cases()]
        )
        leak_caught = sum(
            1
            for case, rep in leak_results
            if rep.error_codes() & set(case.expect_codes)
        )
        if leak_results:
            # The leak corpus is this pass's negative control: an
            # analyzer that flags nothing and catches nothing must not
            # gate anything.
            if not gate(
                "secflow",
                f"leak corpus ({leak_caught}/{len(leak_results)} caught)",
                leak_caught == len(leak_results),
            ):
                failures += 1
                for case, rep in leak_results:
                    if not rep.error_codes() & set(case.expect_codes):
                        lines.append(
                            f"[secflow] MISSED {case.name}: expected "
                            f"{case.expect_codes}, saw "
                            f"{sorted(rep.codes()) or 'nothing'}"
                        )
            else:
                lines.append(
                    f"[secflow] leak corpus: {leak_caught}/"
                    f"{len(leak_results)} injected leaks caught "
                    "(negative control holds)"
                )
        secflow_payload = {
            "modules": list(DEFAULT_MODULES),
            "clean": secflow_report.ok,
            "diagnostics": [d.to_dict() for d in secflow_report.diagnostics],
            "corpus_cases": len(leak_results),
            "corpus_caught": leak_caught,
        }

    elapsed = time.perf_counter() - started
    verdict = "PASS" if failures == 0 else f"FAIL ({failures} gate(s))"
    payload = {
        "verdict": "PASS" if failures == 0 else "FAIL",
        "failures": failures,
        "elapsed_s": elapsed,
        "gates": gates,
        "gates_passed": sum(1 for g in gates if g["ok"]),
        "gates_total": len(gates),
        "noise_audit": noise_audit_payload,
        "bounds": bounds_payload,
        "equiv": equiv_payload,
        "secflow": secflow_payload,
    }

    human_out = sys.stderr if args.json == "-" else sys.stdout
    for line in lines:
        print(line, file=human_out)
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
