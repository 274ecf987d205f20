"""Tests for the word-length analysis engine (paper S3)."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alu_model import alu_area, alu_power, scaling_table
from repro.core.efficiency import efficiency_point, efficiency_sweep
from repro.core.opcount import (
    WorkCounts,
    bootstrap_counts,
    counts_of,
    hmult_counts,
    hrot_counts,
    weighted_ops,
    workload_counts,
)
from repro.hw.isa import HeOp, OpKind
from repro.params.presets import build_sharp_setting
from repro.workloads.traces import bootstrap_trace


class TestAluModel:
    def test_monotone_in_word_length(self):
        for kind in ("mult", "montgomery", "barrett"):
            areas = [alu_area(kind, w) for w in (28, 36, 48, 64)]
            assert areas == sorted(areas)

    def test_modular_units_cost_more(self):
        for w in (28, 36, 64):
            assert alu_area("barrett", w) > alu_area("montgomery", w) > alu_area("mult", w)

    def test_adder_scales_linearly(self):
        assert alu_area("adder", 56) / alu_area("adder", 28) == pytest.approx(2.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            alu_area("divider", 32)

    def test_scaling_table_shape(self):
        rows = scaling_table()
        assert len(rows) == 10
        assert rows[0]["word_bits"] == 28

    @given(st.integers(min_value=8, max_value=64))
    @settings(max_examples=20)
    def test_power_exceeds_area_scaling(self, w):
        # Power has the slightly super-quadratic exponent.
        if w > 28:
            assert alu_power("mult", w) >= alu_area("mult", w) * 0.999


class TestOpCounts:
    @pytest.fixture(scope="class")
    def s36(self):
        return build_sharp_setting(36)

    def test_hmult_dominated_by_ntt(self, s36):
        c = hmult_counts(s36, s36.max_level, 1)
        assert c.share("ntt_butterfly_muls") > 0.35

    def test_hmult_grows_with_level(self, s36):
        low = hmult_counts(s36, 10, 1).total_muls
        high = hmult_counts(s36, s36.max_level, 1).total_muls
        assert high > 2 * low

    def test_hrot_cheaper_than_hmult(self, s36):
        assert (
            hrot_counts(s36, 20).total_muls < hmult_counts(s36, 20, 1).total_muls
        )

    def test_bootstrap_is_most_of_narrow_workload(self, s36):
        boot = bootstrap_counts(s36).total_muls
        total = workload_counts(s36, 1).total_muls
        assert 0.55 < boot / total < 0.99  # paper: 59-95% of runtime

    def test_bconv_share_rises_for_short_words(self):
        shares = {
            w: workload_counts(build_sharp_setting(w), 1).share("bconv_muls")
            for w in (28, 36, 64)
        }
        assert shares[28] > shares[36] > shares[64]

    def test_workcounts_algebra(self):
        c = WorkCounts(ntt_butterfly_muls=20, bconv_muls=8, elementwise_muls=12, adds=5)
        assert c.total_muls == 40
        assert c.share("bconv_muls") == 0.2


# (word, op, limbs, drop, (NTT butterflies, BConv MACs, element-wise
# multiplies), weighted_ops) as the hand-written per-op table computed
# them at commit 33b8b9a, before opcount became a fold over
# hw.lowering: the top of the normal region (the operating point
# benchmarks/e2e/model.py prints) per word length, and Set_36's top of
# chain.  Multiplications must not move by a unit; the weighted figure
# may by the re-derived `adds` field only.
PARENT_PER_OP_COUNTS = [
    (28, "hmult", 14, 2, (60_293_120, 44_171_264, 10_878_976), 2.771439e08),
    (28, "hrot", 14, 2, (45_613_056, 44_171_264, 5_636_096), 2.304298e08),
    (28, "pmult", 14, 2, (14_680_064, 0, 3_407_872), 4.205314e07),
    (36, "hmult", 10, 1, (45_088_768, 25_821_184, 7_995_392), 1.875529e08),
    (36, "hrot", 10, 1, (34_603_008, 25_821_184, 4_194_304), 1.542423e08),
    (36, "pmult", 10, 1, (10_485_760, 0, 2_490_368), 2.999258e07),
    (36, "hmult", 35, 1, (159_907_840, 139_919_360, 36_700_160), 8.087947e08),
    (36, "hrot", 35, 1, (123_207_680, 139_919_360, 23_068_672), 6.913778e08),
    (36, "pmult", 35, 1, (36_700_160, 0, 9_043_968), 1.058035e08),
    (64, "hmult", 8, 1, (39_845_888, 13_369_344, 7_995_392), 1.428811e08),
    (64, "hrot", 8, 1, (31_457_280, 13_369_344, 4_980_736), 1.165475e08),
    (64, "pmult", 8, 1, (8_388_608, 0, 1_966_080), 2.369305e07),
]


class TestOnePriceList:
    @pytest.mark.parametrize("word,op,limbs,drop,muls,weighted", PARENT_PER_OP_COUNTS)
    def test_per_op_multiplications_are_the_parents(
        self, word, op, limbs, drop, muls, weighted
    ):
        setting = build_sharp_setting(word)
        counts = {
            "hmult": lambda: hmult_counts(setting, limbs, drop),
            "hrot": lambda: hrot_counts(setting, limbs),
            "pmult": lambda: counts_of(setting, [HeOp(OpKind.PMULT, limbs, drop)]),
        }[op]()
        assert (
            counts.ntt_butterfly_muls,
            counts.bconv_muls,
            counts.elementwise_muls,
        ) == muls
        assert weighted_ops(counts, word) == pytest.approx(weighted, rel=5e-3)

    def test_bootstrap_is_the_simulators_trace(self):
        # Wiring smoke only; the literals above are the proof.
        setting = build_sharp_setting(36)
        priced = counts_of(setting, bootstrap_trace(setting).ops)
        assert bootstrap_counts(setting).total_muls == priced.total_muls

    @pytest.mark.parametrize(
        "module",
        [
            "repro.workloads",
            "repro.workloads.traces",
            "repro.workloads.datasets",
            "repro.core.opcount",
            "repro.core.efficiency",
            "repro.core",
            "repro.hw",
            "repro.analysis.workingset",
        ],
    )
    def test_importable_first_in_a_fresh_process(self, module):
        # opcount reads workloads.traces and hw reads core.alu_model, so
        # core/__init__ re-exporting core.efficiency closes a cycle; the suite
        # itself always imports repro.core or repro.hw first and hides it.
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        done = subprocess.run(
            [sys.executable, "-c", f"import {module}"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 0, done.stderr


class TestEfficiency:
    def test_set64_ratios_in_paper_band(self):
        p36 = efficiency_point(36, 1)
        p64 = efficiency_point(64, 1)
        # Paper: 2.37x energy / 2.31x delay / 5.47x EDP; our analytic
        # substrate lands within ~25%.
        assert 1.7 < p64.energy / p36.energy < 2.6
        assert 1.7 < p64.delay / p36.delay < 2.6
        assert 3.0 < p64.edp / p36.edp < 6.0

    def test_set28_close_to_set36(self):
        p36 = efficiency_point(36, 30)
        p28 = efficiency_point(28, 30)
        # Paper (wide): 1.03x energy, 1.03x delay, 1.06x EDP.
        assert 0.95 < p28.energy / p36.energy < 1.25
        assert p28.edp > p36.edp

    def test_sweep_covers_requested_lengths(self):
        points = efficiency_sweep("narrow", word_lengths=(28, 36, 64))
        assert [p.word_bits for p in points] == [28, 36, 64]
