"""Tests for the repro.check static verification subsystem.

Covers the kernel bound prover, the trace/schedule verifier over every
shipped workload, the CKKS (level, scale) discipline checker, the
seeded-mutation corpus (100% detection demanded), robustness of the
scheduler entry points, and Hypothesis properties: well-formed random
traces verify clean while randomly injected violations always flag.
"""

import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import (
    EquivError,
    certify_report,
    certify_schedule,
    certify_word_bits,
    chain_regions,
    check_program,
    max_safe_word_bits,
    verify_schedule,
    verify_trace,
)
from repro.check.bounds import prove_variable_product
from repro.check.ckks_check import AbstractParams, SymbolicEvaluator
from repro.check.cli import PASSES
from repro.check.diagnostics import CheckReport, Diagnostic, Severity
from repro.core.config import sharp_config
from repro.hw.isa import HeOp, OpKind, Trace
from repro.params.presets import build_sharp_setting
from repro.rns import kernels
from repro.sched import allocate, analyze_liveness, fuse_trace, schedule_trace
from repro.sched.liveness import Liveness
from repro.workloads.traces import evaluation_traces, helr_trace

LIMBS = 8  # fixed limb count for hand-built SSA chains

WORKLOADS = ("bootstrap", "helr256", "helr1024", "resnet20", "sorting")


@pytest.fixture(scope="module")
def setting():
    return build_sharp_setting(36)


def _warnings(report: CheckReport) -> list[Diagnostic]:
    return [d for d in report.diagnostics if d.severity is Severity.WARNING]


def _corpus() -> list:
    """Every pass's mutants, read off the gate's own table."""
    return [case for p in PASSES for case in p.cases()]


@pytest.fixture(scope="module")
def scheduled_helr(setting):
    """A scheduled HELR trace that crosses a bootstrap, at a capacity
    tight enough that occupancy genuinely exceeds single-op working
    sets (so capacity mutations below are always detectable)."""
    trace = helr_trace(setting, 256, iterations=2)
    capacity = setting.evk_bytes(prng=True) * 3.0
    return schedule_trace(trace, setting, capacity)


def chain_trace(n=6, kind=OpKind.PMULT, limbs=LIMBS):
    """x0 -> t1 -> t2 -> ... (each op consumes the previous value)."""
    ops, cur = [], "x0"
    for i in range(n):
        dst = f"t{i + 1}"
        ops.append(HeOp(kind, limbs, dst=dst, srcs=(cur,)))
        cur = dst
    return Trace("chain", ops)


# ---------------------------------------------------------------------------
# Kernel bound prover
# ---------------------------------------------------------------------------


class TestBounds:
    @pytest.mark.parametrize("bits", [28, 36, 50, 62])
    def test_preset_word_lengths_prove(self, bits):
        certificate = certify_word_bits(bits)
        assert certificate.ok, certificate.failures()
        assert certify_report(bits).ok

    @pytest.mark.parametrize("bits", [63, 64])
    def test_over_wide_words_are_refuted(self, bits):
        certificate = certify_word_bits(bits)
        assert not certificate.ok
        assert certificate.failures()
        report = certify_report(bits)
        assert "KB-OVERFLOW" in report.error_codes()

    def test_63_bits_fails_in_the_variable_product(self):
        # The binding constraint: s = t + u = 4q - 2 wraps at 63 bits.
        proof = prove_variable_product(2**63 - 1)
        failed = [step.label for step in proof.failures()]
        assert any("t + u" in label for label in failed)

    def test_62_bits_has_slim_positive_headroom(self):
        proof = prove_variable_product(2**62 - 1)
        assert proof.ok
        sum_step = next(s for s in proof.steps if "t + u" in s.label)
        # 4q - 2 = 2**64 - 6: six ULPs of slack, i.e. < 1 bit.
        assert sum_step.limit - sum_step.magnitude < 8
        assert 0 <= sum_step.headroom_bits < 1.0

    def test_derived_bound_matches_shipped_constant(self):
        assert max_safe_word_bits() == kernels.FAST_MODULUS_BITS == 62

    def test_tiny_word_bits_rejected(self):
        with pytest.raises(ValueError):
            certify_word_bits(2)


# ---------------------------------------------------------------------------
# Shipped traces and schedules (zero false positives)
# ---------------------------------------------------------------------------


class TestShippedTraces:
    @pytest.mark.parametrize("name", WORKLOADS)
    @pytest.mark.parametrize("explicit_rescale", [False, True])
    def test_traces_verify_clean(self, setting, name, explicit_rescale):
        trace = evaluation_traces(setting, explicit_rescale=explicit_rescale)[name]
        report = verify_trace(trace, setting)
        assert report.ok, report.render()

    @pytest.mark.parametrize("name", WORKLOADS)
    def test_fused_traces_verify_clean(self, setting, name):
        trace = evaluation_traces(setting, explicit_rescale=True)[name]
        fused, _ = fuse_trace(trace)
        report = verify_trace(fused, setting)
        assert report.ok, report.render()

    @pytest.mark.parametrize("policy", ["belady", "lru"])
    def test_schedules_verify_clean(self, setting, policy):
        trace = evaluation_traces(setting)["helr256"]
        capacity = setting.evk_bytes(prng=True) * 4.0
        sched = schedule_trace(trace, setting, capacity, policy=policy)
        report = verify_schedule(sched, setting)
        assert report.ok, report.render()

    def test_chain_regions_are_bottom_up(self, setting):
        regions = chain_regions(setting)
        assert [r.name for r in regions] == ["base", "normal", "stc", "boot"]
        assert regions[0].start == 0
        for prev, cur in zip(regions, regions[1:]):
            assert cur.start == prev.stop
        assert regions[-1].stop == setting.max_level


# ---------------------------------------------------------------------------
# Targeted diagnostics
# ---------------------------------------------------------------------------


class TestTraceDiagnostics:
    def test_empty_trace_warns_but_passes(self, setting):
        report = verify_trace(Trace("empty"), setting)
        assert report.ok
        assert "TRC-EMPTY" in {d.code for d in report.diagnostics}

    def test_unannotated_trace_rejected(self, setting):
        trace = Trace("plain", [HeOp(OpKind.HMULT, LIMBS)])
        report = verify_trace(trace, setting)
        assert "TRC-UNANNOTATED" in report.error_codes()

    def test_use_before_def_flagged(self, setting):
        trace = chain_trace(4)
        trace.ops.append(HeOp(OpKind.HADD, LIMBS, dst="t9", srcs=("never_defined",)))
        report = verify_trace(trace, setting)
        assert "TRC-UNDEF" in report.error_codes()
        bad = next(d for d in report.errors if d.code == "TRC-UNDEF")
        assert bad.op_index == 4 and bad.value == "never_defined"

    def test_double_def_flagged(self, setting):
        trace = chain_trace(4)
        trace.ops[2] = replace(trace.ops[2], dst=trace.ops[1].dst)
        report = verify_trace(trace, setting)
        assert "TRC-REDEF" in report.error_codes()

    def test_dead_output_flagged_except_final_op(self, setting):
        trace = chain_trace(4)
        trace.ops.insert(
            2, HeOp(OpKind.HADD, LIMBS, dst="orphan", srcs=(trace.ops[1].dst,))
        )
        report = verify_trace(trace, setting)
        dead = [d for d in report.errors if d.code == "TRC-DEAD"]
        assert [d.value for d in dead] == ["orphan"]

    def test_level_src_mismatch_flagged(self, setting):
        trace = chain_trace(4)
        trace.ops[2] = replace(trace.ops[2], limbs=LIMBS + 1)
        report = verify_trace(trace, setting)
        assert "TRC-LEVEL-SRC" in report.error_codes()

    def test_rescale_must_match_region_width(self, setting):
        # LIMBS = 8 sits in the SS normal region (one prime per level),
        # so a two-limb drop is over-wide.
        trace = chain_trace(3)
        trace.ops[1] = replace(trace.ops[1], drop=2)
        report = verify_trace(trace, setting)
        assert "TRC-RESCALE" in report.error_codes()

    def test_schedule_log_tamper_detected_by_replay(self, setting, scheduled_helr):
        events = list(scheduled_helr.events)
        target = next(i for i, e in enumerate(events) if e.fetched)
        events[target] = replace(events[target], fetched=[])
        forged = replace(scheduled_helr, events=events)
        report = verify_schedule(forged, setting)
        assert "SCH-REPLAY" in report.error_codes()

    def test_forged_liveness_is_rejected(self, setting):
        """A schedule built over live ranges it made up is consistent
        with them, so the verifier must size every value from the
        ranges the trace itself defines."""
        trace = evaluation_traces(setting)["helr1024"]
        capacity = 0.1 * sharp_config().onchip_capacity_bytes
        honest = schedule_trace(trace, setting, capacity)
        live = analyze_liveness(trace, setting)
        shrunk = Liveness(
            *(
                {v: replace(r, size_bytes=r.size_bytes / 100) for v, r in ranges.items()}
                for ranges in (live.ranges, live.evk_ranges)
            )
        )
        lying = replace(honest, events=allocate(trace, shrunk, capacity, honest.policy))
        assert lying.offchip_bytes < honest.offchip_bytes / 1000
        assert verify_schedule(lying, setting).error_codes() == {"SCH-REPLAY"}
        with pytest.raises(EquivError) as excinfo:
            certify_schedule(trace, lying, setting)
        assert excinfo.value.report.error_codes() == {"EQV-SPILL", "SCH-REPLAY"}

    def test_in_place_redefinition_of_an_input_fails_closed(self, setting):
        """``x = x + y`` on a trace input is a redefinition: the trace
        check flags it, and the schedule check, which cannot derive live
        ranges for it, rejects the artifact instead of skipping its events."""
        clean = Trace(
            "clean",
            [
                HeOp(OpKind.HADD, LIMBS, dst="z", srcs=("x", "y")),
                HeOp(OpKind.PMULT, LIMBS, dst="out", srcs=("z",)),
            ],
        )
        in_place = Trace(
            "in-place",
            [
                HeOp(OpKind.HADD, LIMBS, dst="x", srcs=("x", "y")),
                HeOp(OpKind.PMULT, LIMBS, dst="out", srcs=("x",)),
            ],
        )
        assert "TRC-REDEF" in verify_trace(in_place, setting).error_codes()
        honest = schedule_trace(clean, setting, setting.evk_bytes(prng=True) * 3.0)
        forged = replace(honest, trace=in_place)
        assert {"TRC-REDEF", "SCH-LIVENESS"} <= verify_schedule(forged, setting).error_codes()
        for source in (clean, in_place):
            with pytest.raises(EquivError):
                certify_schedule(source, forged, setting)

    def test_diagnostic_render_carries_provenance(self):
        d = Diagnostic("TRC-UNDEF", Severity.ERROR, "boom", op_index=7, value="v1")
        assert d.render() == "ERROR TRC-UNDEF @op7 [v1]: boom"
        report = CheckReport("trace", "unit")
        assert report.ok
        report.warning("W-ONLY", "just a warning")
        assert report.ok and [d.code for d in report.diagnostics] == ["W-ONLY"]
        report.error("E-NOW", "an error")
        assert not report.ok and report.error_codes() == {"E-NOW"}


class TestCkksDiagnostics:
    def params(self, depth=4):
        return AbstractParams.synthetic(depth=depth, scale_bits=35.0, base_bits=42.0)

    def test_disciplined_program_is_clean(self):
        def program(ev):
            ct = ev.fresh()
            acc = ev.add(ev.rotate(ct), ct)
            while acc.level > 0:
                acc = ev.multiply(acc, ev.fresh(level=acc.level), rescale=True)

        report = check_program(program, self.params(), "clean")
        assert report.ok and not report.diagnostics, report.render()

    def test_scale_mismatch_with_provenance(self):
        p = self.params()

        def program(ev):
            a = ev.fresh()
            b = ev.fresh(scale=p.default_scale * 3.0)
            ev.add(a, b)

        report = check_program(program, p, "mismatch")
        bad = next(d for d in report.errors if d.code == "CKKS-SCALE-MISMATCH")
        assert bad.op_index == 2  # the add is the third evaluator call

    def test_level_underflow_on_exhausted_chain(self):
        def program(ev):
            ev.rescale(ev.fresh(level=0))

        report = check_program(program, self.params(), "underflow")
        assert "CKKS-LEVEL-UNDERFLOW" in report.error_codes()

    def test_missing_rescale_overflows_the_budget(self):
        def program(ev):
            ct = ev.fresh()
            for _ in range(3):
                ct = ev.square(ct, rescale=False)

        report = check_program(program, self.params(), "no-rescale")
        assert "CKKS-SCALE-OVERFLOW" in report.error_codes()

    def test_stacked_scales_warn_before_they_overflow(self):
        report = CheckReport("ckks", "stacked")
        ev = SymbolicEvaluator(self.params(depth=8), report)
        ct = ev.fresh()
        ct = ev.square(ct, rescale=False)
        ev.multiply(ct, ev.fresh(), rescale=False)
        assert report.ok
        assert any(d.code == "CKKS-SCALE-STACKED" for d in _warnings(report))

    def test_drift_warning_on_uneven_step(self):
        params = AbstractParams(
            step_scales=(2.0**33,),  # 2 bits below the default scale
            default_scale=2.0**35,
            base_log2=42.0,
            fresh_level=1,
        )

        def program(ev):
            ev.rescale(ev.fresh())

        report = check_program(program, params, "drift")
        assert report.ok
        assert any(d.code == "CKKS-SCALE-DRIFT" for d in _warnings(report))


# ---------------------------------------------------------------------------
# Seeded-mutation corpus: 100% detection
# ---------------------------------------------------------------------------


class TestMutationCorpus:
    def test_corpus_is_broad(self, setting):
        """Each pass guards itself with exactly these mutants."""
        names = {p.name: sorted(c.name for c in p.cases()) for p in PASSES}
        assert names == {
            "bounds": [
                "bconv-wide-digits",
                "ntt-late-reduction",
                "plain-inner-long-chunk",
                "word-bits-63",
                "word-bits-64",
            ],
            "traces": [
                "below-base",
                "dangling-src",
                "dead-output",
                "double-def",
                "dropped-def",
                "dropped-event",
                "forged-liveness",
                "kind-swap",
                "level-out-of-range",
                "misaligned-rescale",
                "negative-traffic",
                "occupancy-tamper",
                "raise-not-top",
                "rescale-width",
                "shrunk-capacity",
                "swapped-level",
                "unknown-policy",
                "use-before-def",
            ],
            "ckks": ["ckks-level-underflow", "ckks-missing-rescale", "ckks-scale-mismatch"],
            "noise": [
                "noise-hidden-explosion",
                "noise-inflated-scale",
                "noise-overclaimed-floor",
                "noise-skipped-jitter",
                "noise-understated-boot",
            ],
            "equiv": [
                "equiv-dropped-op",
                "equiv-dropped-refill",
                "equiv-emptied-schedule",
                "equiv-evicted-evk-keyswitch",
                "equiv-extra-accumulation",
                "equiv-hidden-spill",
                "equiv-missing-output",
                "equiv-phantom-refill",
                "equiv-reordered-ops",
                "equiv-scale-drift-swap",
                "equiv-unaligned-fused-rescale",
                "equiv-wrong-evk",
                "equiv-wrong-operand",
            ],
            "secflow": [
                "secflow-dataclass-repr",
                "secflow-declassifier-removed",
                "secflow-declassifier-rogue",
                "secflow-mask-dropped",
                "secflow-raw-evk",
                "secflow-secret-log",
                "secflow-secret-metrics",
                "secflow-secret-wire",
                "secflow-seed-exception",
                "secflow-tenant-meta-wire",
            ],
        }
        assert {c.kind for c in _corpus()} == {
            "ssa",
            "level",
            "schedule",
            "ckks",
            "bounds",
            "noise",
            "equiv",
            "secflow",
        }

    def test_every_mutation_is_caught(self, setting):
        results = [case.check() for case in _corpus()]
        missed = [r.case.name for r in results if not r.caught]
        assert not missed, f"verifier accepted mutants: {missed}"

    def test_expected_codes_actually_fire(self, setting):
        for result in (case.check() for case in _corpus()):
            fired = result.report.error_codes() & set(result.case.expect_codes)
            assert fired, result.case.name


# ---------------------------------------------------------------------------
# Robustness of the scheduler entry points
# ---------------------------------------------------------------------------


class TestRobustness:
    BAD_CAPACITIES = [0, -1.0, float("nan"), float("inf"), -float("inf")]

    @pytest.mark.parametrize("capacity", BAD_CAPACITIES)
    def test_allocator_rejects_bad_capacity(self, setting, capacity):
        trace = chain_trace(3)
        with pytest.raises(ValueError, match="capacity"):
            allocate(trace, analyze_liveness(trace, setting), capacity, "belady")

    @pytest.mark.parametrize("capacity", BAD_CAPACITIES)
    def test_schedule_trace_rejects_bad_capacity(self, setting, capacity):
        with pytest.raises(ValueError, match="capacity"):
            schedule_trace(chain_trace(3), setting, capacity)

    def test_allocator_rejects_unknown_policy(self, setting):
        trace = chain_trace(3)
        with pytest.raises(ValueError, match="policy"):
            allocate(trace, analyze_liveness(trace, setting), 1e6, "fifo")

    def test_schedule_trace_rejects_unknown_policy(self, setting):
        with pytest.raises(ValueError, match="policy"):
            schedule_trace(chain_trace(3), setting, 1e6, policy="mru")


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------


HYPO = settings(derandomize=True, deadline=None, max_examples=25)


class TestProperties:
    @HYPO
    @given(
        n=st.integers(min_value=2, max_value=24),
        capacity_factor=st.floats(min_value=0.25, max_value=16.0),
    )
    def test_well_formed_chains_always_verify(self, setting, n, capacity_factor):
        trace = chain_trace(n)
        assert verify_trace(trace, setting).ok
        capacity = setting.ciphertext_bytes(LIMBS) * capacity_factor
        sched = schedule_trace(trace, setting, capacity)
        report = verify_schedule(sched, setting)
        assert report.ok, report.render()

    @HYPO
    @given(
        n=st.integers(min_value=4, max_value=24),
        pos=st.floats(min_value=0.0, max_value=1.0),
        mutation=st.sampled_from(["drop-def", "redefine", "dangling", "limb-bump"]),
    )
    def test_injected_trace_violations_always_flag(self, setting, n, pos, mutation):
        trace = chain_trace(n)
        # Interior op: its dst feeds op i+1 and its srcs come from i-1.
        i = 1 + round(pos * (n - 3))
        ops = list(trace.ops)
        if mutation == "drop-def":
            del ops[i]
            expected = "TRC-UNDEF"
        elif mutation == "redefine":
            ops[i] = replace(ops[i], dst=ops[i - 1].dst)
            expected = "TRC-REDEF"
        elif mutation == "dangling":
            ops[i] = replace(ops[i], srcs=("ghost",))
            expected = "TRC-UNDEF"
        else:  # limb-bump: op claims a level its operand doesn't hold
            ops[i] = replace(ops[i], limbs=LIMBS + 1)
            expected = "TRC-LEVEL-SRC"
        report = verify_trace(Trace("mutant", ops), setting)
        assert expected in report.error_codes(), report.render()

    @HYPO
    @given(fraction=st.floats(min_value=0.01, max_value=0.99))
    def test_capacity_shrink_always_flags(self, setting, scheduled_helr, fraction):
        """Forging a smaller capacity onto recorded events must be caught.

        The forged capacity is chosen below the events' best occupancy
        margin (occupancy minus that op's own pinned working set), so
        the transient-overflow allowance provably cannot excuse it.
        """
        from repro.check.trace_check import _pinned_bytes

        live = analyze_liveness(scheduled_helr.trace, setting)
        margins = [
            (e.occupancy_bytes, _pinned_bytes(op, live))
            for op, e in zip(scheduled_helr.trace.ops, scheduled_helr.events)
        ]
        best_occ = max(
            (occ for occ, pinned in margins if occ > pinned + 1.0), default=None
        )
        assert best_occ is not None  # fixture capacity guarantees this
        forged_capacity = max(1.0, (best_occ - 1.0) * fraction)
        forged = replace(scheduled_helr, capacity_bytes=forged_capacity)
        report = verify_schedule(forged, setting)
        assert {"SCH-OCCUPANCY", "SCH-REPLAY"} & report.error_codes()


# ---------------------------------------------------------------------------
# The CLI gate itself
# ---------------------------------------------------------------------------


class TestCli:
    def test_cli_passes_end_to_end(self, capsys):
        from repro.check.cli import main

        assert main([]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_every_mutant_runs_once_under_its_pass(self, setting, tmp_path):
        from repro.check.cli import main

        path = tmp_path / "check.json"
        assert main(["--json", str(path)]) == 0
        passes = json.loads(path.read_text())["passes"]
        owner = {"ssa": "traces", "level": "traces", "schedule": "traces"}
        listed = [(name, m) for name, p in passes.items() for m in p["mutants"]]
        names = [m["name"] for _, m in listed]
        assert sorted(names) == sorted(c.name for c in _corpus())
        assert len(set(names)) == len(names)
        for name, mutant in listed:
            assert mutant["caught"] is True, mutant["name"]
            assert owner.get(mutant["kind"], mutant["kind"]) == name

    def test_named_passes_run_with_their_mutants(self, tmp_path):
        from repro.check.cli import main

        path = tmp_path / "check.json"
        assert main(["equiv", "secflow", "--json", str(path)]) == 0
        payload = json.loads(path.read_text())
        gates = [(g["pass"], g["subject"]) for g in payload["gates"]]
        assert {p for p, _ in gates} == {"equiv", "secflow"}
        assert ("equiv", "mutants") in gates and ("secflow", "mutants") in gates
        assert sum(p == "equiv" for p, _ in gates) == 11  # 10 certificates
        assert sum(p == "secflow" for p, _ in gates) == 2  # the analysis
        assert len(payload["passes"]["equiv"]["mutants"]) == 13
        assert len(payload["passes"]["secflow"]["mutants"]) == 10
        assert payload["verdict"] == "PASS"

    def test_unknown_pass_is_refused(self):
        from repro.check.cli import main

        with pytest.raises(SystemExit):
            main(["mutations"])

    def test_json_and_markdown_reports(self, tmp_path):
        from repro.check.cli import main

        report, summary = tmp_path / "check.json", tmp_path / "check.md"
        argv = ["bounds", "ckks", "--json", str(report), "--summary-md", str(summary)]
        assert main(argv) == 0
        payload = json.loads(report.read_text())
        assert payload["verdict"] == "PASS"
        assert [(g["pass"], g["subject"], g["ok"]) for g in payload["gates"]] == [
            *(("bounds", f"word_bits={bits}", True) for bits in (28, 36, 50, 62)),
            ("bounds", "derived-safe-bound", True),
            ("bounds", "mutants", True),
            ("ckks", "demo-chain", True),
            ("ckks", "mutants", True),
        ]
        assert payload["gates_passed"] == payload["gates_total"] == 8
        rows = {row["chain"]: row for row in payload["passes"]["bounds"]["rows"]}
        assert {"mul_hi", "kernel_variable_mul", "lazy_plain_inner"} <= set(rows)
        # 62-bit words prove the variable product with under a bit to spare.
        assert 0 <= rows["kernel_variable_mul"]["62-bit headroom"] < 1.0
        assert rows["kernel_variable_mul"]["36-bit headroom"] > 20.0

        text = summary.read_text()
        assert "## repro.check: ✅ PASS" in text
        assert "8/8 gates passed" in text
        assert "| pass | subject | ok |" in text
        assert "| bounds | word_bits=62 | True |" in text
        assert "| ckks | mutants | True |" in text
        assert "### bounds" in text and "| kernel_variable_mul |" in text

    def test_cli_math_is_checked_not_asserted(self):
        # The CLI derives the safe bound instead of trusting the constant.
        assert max_safe_word_bits(limit=63) == 62
