"""Tests for the accelerator model: configs, area, lowering, simulator."""

import pytest

from repro.core.config import (
    ark36_config,
    sharp28_config,
    sharp64_config,
    sharp_8cluster_config,
    sharp_config,
)
from repro.hw.area import chip_area
from repro.hw.isa import HeOp, OpKind, Trace
from repro.hw.lowering import FuWork, OpLowering, op_shape
from repro.hw.sim import Simulator
from repro.params.presets import build_sharp_setting
from repro.workloads.traces import (
    bootstrap_trace,
    evaluation_traces,
    helr_trace,
    resnet20_trace,
    sorting_trace,
    synthetic_trace,
)


@pytest.fixture(scope="module")
def sharp():
    return sharp_config()


@pytest.fixture(scope="module")
def sharp_sim(sharp):
    return Simulator(sharp)


@pytest.fixture(scope="module")
def sharp_results(sharp_sim):
    return {
        name: sharp_sim.run(tr)
        for name, tr in evaluation_traces(sharp_sim.setting).items()
    }


class TestConfigs:
    def test_table4_geometry(self, sharp):
        assert sharp.total_lanes == 1024
        assert sharp.lane_group == 16  # sqrt(256): the hierarchy
        assert sharp.nttu_words_per_cycle == 1024
        assert sharp.bconv_macs_per_lane == 16  # 2 x 8 systolic

    def test_flat_config_has_no_groups(self):
        ark = ark36_config(180)
        assert ark.lane_group == 256
        assert not ark.two_d_bconv and not ark.ewe

    def test_with_features(self, sharp):
        flat = sharp.with_features(hierarchical_nttu=False)
        assert not flat.hierarchical_nttu and sharp.hierarchical_nttu


class TestArea:
    def test_sharp28_smaller(self):
        a28 = chip_area(sharp28_config()).total
        a36 = chip_area(sharp_config()).total
        assert a28 < a36
        assert a28 == pytest.approx(147.0, abs=10)

    def test_sharp64_much_larger(self):
        a64 = chip_area(sharp64_config()).total
        a28 = chip_area(sharp28_config()).total
        assert a64 / a28 == pytest.approx(2.12, abs=0.3)

    def test_flat_nttu_penalty(self):
        hier = chip_area(sharp_config())
        flat = chip_area(sharp_config().with_features(hierarchical_nttu=False))
        assert flat.nttu / hier.nttu == pytest.approx(2.04, abs=0.01)

    def test_8cluster_area(self):
        assert chip_area(sharp_8cluster_config()).total == pytest.approx(
            251.5, abs=20
        )


class TestLowering:
    @pytest.fixture(scope="class")
    def lowering(self, sharp):
        return OpLowering(sharp.setting())

    def test_hmult_exercises_all_units(self, lowering):
        w = lowering.lower(HeOp(OpKind.HMULT, 35, drop=1, key_id="mult"))
        assert w.ntt_words > 0 and w.bconv_macs > 0 and w.ew_mults > 0
        assert lowering.setting.evk_bytes(prng=True, limbs=35) > 0

    def test_hrot_uses_autou(self, lowering):
        w = lowering.lower(HeOp(OpKind.HROT, 20, key_id="r1"))
        assert w.auto_words == 2 * 20 * lowering.n

    def test_ds_rescale_uses_dsu(self, lowering):
        w = lowering.lower(HeOp(OpKind.RESCALE, 35, drop=2))
        assert w.dsu_words > 0

    def test_hadd_is_adds_only(self, lowering):
        w = lowering.lower(HeOp(OpKind.HADD, 20))
        assert w.ew_mults == 0 and w.ew_adds > 0 and w.ntt_words == 0

    def test_count_scales_work(self, lowering):
        one = lowering.lower(HeOp(OpKind.HMULT, 20, drop=1, key_id="mult"))
        two = lowering.lower(HeOp(OpKind.HMULT, 20, drop=1, key_id="mult", count=2))
        assert two.ntt_words == pytest.approx(2 * one.ntt_words)

    def test_pmult_rescale_fused_once(self, lowering):
        one = lowering.lower(HeOp(OpKind.PMULT, 20, drop=1))
        many = lowering.lower(HeOp(OpKind.PMULT, 20, drop=1, count=16))
        nodrop_one = lowering.lower(HeOp(OpKind.PMULT, 20))
        nodrop_many = lowering.lower(HeOp(OpKind.PMULT, 20, count=16))
        # EW work scales with the count ...
        assert nodrop_many.ew_mults == pytest.approx(16 * nodrop_one.ew_mults)
        # ... but the rescale's NTT work is charged once (fusion).
        assert many.ntt_words == pytest.approx(one.ntt_words)
        assert many.ntt_words > 0

    @pytest.mark.parametrize("word_bits", [28, 36, 48, 64])
    def test_ops_of_one_shape_lower_to_equal_work(self, word_bits):
        """``op_shape`` names every field ``lower`` reads, so the
        simulator may price each shape once."""
        setting = build_sharp_setting(word_bits)
        lowering = OpLowering(setting)
        first: dict[tuple, FuWork] = {}
        for trace in evaluation_traces(setting).values():
            for op in trace.ops:
                work = first.setdefault(op_shape(op), lowering.lower(op))
                assert lowering.lower(op) == work, op

    def test_prng_halves_evk_traffic(self, sharp):
        setting = sharp.setting()
        assert setting.evk_bytes(prng=False, limbs=35) == pytest.approx(
            2 * setting.evk_bytes(prng=True, limbs=35)
        )


class TestTraces:
    @pytest.fixture(scope="class")
    def setting(self, sharp):
        return sharp.setting()

    def test_bootstrap_trace_consumes_budget(self, setting):
        tr = bootstrap_trace(setting)
        assert tr.normalize == setting.l_eff
        assert tr.ops[0].kind is OpKind.MOD_RAISE

    def test_helr_steady_state_has_bootstraps(self, setting):
        tr = helr_trace(setting, 1024, iterations=4)
        kinds = {op.kind for op in tr.ops}
        assert OpKind.MOD_RAISE in kinds  # bootstraps were inserted

    def test_resnet_and_sorting_build(self, setting):
        assert resnet20_trace(setting).op_count() > 100
        assert sorting_trace(setting).op_count() > 300

    def test_synthetic_narrow_wide(self, setting):
        narrow = synthetic_trace(setting, 1)
        wide = synthetic_trace(setting, 30)
        assert wide.op_count() > narrow.op_count()

    def test_level_tracking_never_negative(self, setting):
        for tr in evaluation_traces(setting).values():
            for op in tr.ops:
                assert op.limbs >= setting.base_prime_count
                assert op.limbs <= setting.max_level


class TestSimulator:
    def test_results_well_formed(self, sharp_results):
        for r in sharp_results.values():
            assert r.seconds > 0 and r.energy_j > 0
            assert 0 < r.power_w < 200
            assert all(0 <= u <= 1.01 for u in r.utilization.values())

    def test_statistics_are_bit_identical(self, sharp_results):
        """Exact floats of the five 36-bit cells: pricing each op shape
        once must add the same terms in the same order as pricing every
        op afresh.  A model change that moves these moves them on purpose."""
        pinned = {
            "bootstrap": (0.0016760016640000016, 1321500672.0, 0.1546346086360533),
            "helr256": (0.005491594271999997, 4249092096.0, 0.5087253791885656),
            "helr1024": (0.021833538335999988, 17049157632.0, 2.032757319235545),
            "resnet20": (0.030782313824000023, 23483842560.0, 2.8554036263210185),
            "sorting": (0.1792060427520031, 136693776384.0, 16.572920572559283),
        }
        measured = {
            name: (r.seconds, r.offchip_bytes, r.energy_j)
            for name, r in sharp_results.items()
        }
        assert measured == pinned

    def test_nttu_is_busiest(self, sharp_results):
        for r in sharp_results.values():
            u = r.utilization
            assert u["nttu"] >= max(u["bconvu"], u["autou"], u["dsu"])

    def test_bootstrap_dominates_workloads(self, sharp_sim):
        boot = sharp_sim.run(bootstrap_trace(sharp_sim.setting))
        helr = sharp_sim.run(helr_trace(sharp_sim.setting, 1024))
        # Four iterations contain >= 3 bootstrap invocations.
        assert helr.seconds > 2.5 * boot.seconds

    def test_sharp_beats_ark36_on_edp(self):
        workloads = ("bootstrap", "helr1024", "resnet20")
        sharp_sim = Simulator(sharp_config())
        ark_sim = Simulator(ark36_config(180))
        for w in workloads:
            s = sharp_sim.run(evaluation_traces(sharp_sim.setting)[w])
            a = ark_sim.run(evaluation_traces(ark_sim.setting)[w])
            assert a.edp > s.edp

    def test_8cluster_faster(self, sharp_results):
        sim8 = Simulator(sharp_8cluster_config())
        tr = evaluation_traces(sim8.setting)["bootstrap"]
        assert sim8.run(tr).seconds < sharp_results["bootstrap"].seconds

    def test_key_reuse_bounds_offchip_traffic(self, sharp_sim):
        tr = bootstrap_trace(sharp_sim.setting)
        r = sharp_sim.run(tr)
        evk = sharp_sim.setting.evk_bytes(prng=True)
        # Off-chip traffic stays within a small multiple of the unique
        # key set (observation (10): evks are reused, not re-streamed).
        unique_keys = len({op.key_id for op in tr.ops if op.key_id})
        assert r.offchip_bytes < 3 * unique_keys * evk

    def test_empty_trace_reports_zero_power(self, sharp_sim):
        """Regression: power_w on a zero-second run raised ZeroDivisionError."""
        r = sharp_sim.run(Trace("empty"))
        assert r.seconds == 0 and r.cycles == 0
        assert r.power_w == 0.0
        assert all(u == 0.0 for u in r.utilization.values())

    def test_rf_bottleneck_serializes_all_fus(self, sharp_sim):
        """Regression: when RF bandwidth bounds the op, the largest FU
        used to be exempted from the serialization penalty."""
        fu = {"nttu": 10.0, "bconvu": 5.0, "ewe": 0.0, "autou": 0.0, "dsu": 0.0}
        # FU-bound: bottleneck 10, others exclude the bottleneck unit.
        assert sharp_sim._compute_cycles(fu, 1.0) == pytest.approx(10 + 0.30 * 5)
        # RF-bound: every FU is a non-bottleneck unit now.
        assert sharp_sim._compute_cycles(fu, 100.0) == pytest.approx(100 + 0.30 * 15)
