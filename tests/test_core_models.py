"""Tests for the word-length analysis engine (paper S3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.alu_model import (
    alu_area,
    alu_power,
    area_ratio_64_to_28,
    power_ratio_64_to_28,
    scaling_table,
)
from repro.core.efficiency import best_word_length, efficiency_point, efficiency_sweep
from repro.core.opcount import (
    WorkCounts,
    bootstrap_counts,
    hmult_counts,
    hrot_counts,
    weighted_ops,
    workload_counts,
)
from repro.params.presets import build_sharp_setting


class TestAluModel:
    def test_calibrated_to_paper_ratios(self):
        assert area_ratio_64_to_28() == pytest.approx(5.01, abs=0.02)
        assert power_ratio_64_to_28() == pytest.approx(5.37, abs=0.02)

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

    def test_paper_ratio_narrow(self):
        s28, s36 = build_sharp_setting(28), build_sharp_setting(36)
        r = (
            weighted_ops(workload_counts(s28, 1), 28) / s28.l_eff
        ) / (weighted_ops(workload_counts(s36, 1), 36) / s36.l_eff)
        assert r == pytest.approx(1.95, abs=0.25)

    def test_bconv_share_rises_for_short_words(self):
        shares = {
            w: workload_counts(build_sharp_setting(w), 1).share("bconv_muls")
            for w in (28, 36, 64)
        }
        assert shares[28] > shares[36] > shares[64]

    def test_workcounts_algebra(self):
        a = WorkCounts(ntt_butterfly_muls=10, bconv_muls=4)
        b = WorkCounts(elementwise_muls=6)
        c = (a + b).scaled(2.0)
        assert c.ntt_butterfly_muls == 20 and c.elementwise_muls == 12
        assert c.total_muls == 40


class TestEfficiency:
    @pytest.mark.slow
    def test_36_is_the_minimum(self):
        assert best_word_length("narrow") == 36
        assert best_word_length("wide") == 36

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
