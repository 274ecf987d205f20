"""Tests for the functional workloads, noise model, and analysis layer."""

import math

import numpy as np
import pytest

from repro.analysis.bsgs import balanced_split, plan_bsgs
from repro.analysis.published import PRIOR_ACCELERATORS, baseline_runtime
from repro.analysis.workingset import fig5_data, hmult_breakdown, working_set_curve
from repro.ckks.noise import NoiseModel, NoisyEvaluator
from repro.params.presets import build_sharp_setting
from repro.workloads.datasets import make_cifar_like, make_mnist_like
from repro.workloads.helr import accuracy, train_noisy, train_plain
from repro.workloads.resnet import noisy_inference, train_plain_cnn
from repro.workloads.sorting import noisy_bitonic_sort


@pytest.fixture(scope="module")
def s36():
    return build_sharp_setting(36)


class TestNoiseModel:
    def test_precision_tracks_table2(self):
        # Table 2: fresh 22.39 bits at 2^35, boot 21.86.
        m = NoiseModel(35, 62)
        assert -math.log2(m.fresh_std) == pytest.approx(22.4, abs=0.3)
        assert -math.log2(m.boot_std) == pytest.approx(21.86, abs=1.0)

    def test_low_boot_scale_caps_precision(self):
        generous = NoiseModel(35, 62)
        capped = NoiseModel(35, 48)
        assert capped.boot_std > generous.boot_std

    def test_executor_roundtrip_precision(self):
        ev = NoisyEvaluator(NoiseModel(35, 62), seed=1)
        v = np.linspace(-1, 1, 256)
        err = np.max(np.abs(ev.decrypt(ev.encrypt(v)) - v))
        assert err < 2**-18

    def test_multiplication_jitter_scales(self):
        big = NoisyEvaluator(NoiseModel(27, 55), seed=1)
        small = NoisyEvaluator(NoiseModel(39, 64), seed=1)
        v = np.full(4096, 0.5)
        eb = np.std(big.multiply_plain(big.encrypt(v), 1.0).values - 0.5)
        es = np.std(small.multiply_plain(small.encrypt(v), 1.0).values - 0.5)
        assert eb > 100 * es

    def test_bootstrap_wraps_outside_stable_range(self):
        ev = NoisyEvaluator(NoiseModel(35, 62), seed=1, message_ratio=8.0)
        inside = ev.bootstrap(ev.encrypt(np.full(8, 3.0)))
        outside = ev.bootstrap(ev.encrypt(np.full(8, 9.0)))
        assert np.allclose(inside.values, 3.0, atol=1e-3)
        assert not np.allclose(outside.values, 9.0, atol=1.0)  # wrapped

    def test_poly_eval_diverges_outside_interval(self):
        ev = NoisyEvaluator(NoiseModel(35, 62), seed=1)
        ct = ev.encrypt(np.array([0.5, 3.0]))
        out = ev.poly_eval(ct, np.tanh, 23, (-1.0, 1.0))
        assert abs(out.values[0] - np.tanh(0.5)) < 1e-3
        assert abs(out.values[1]) > 10  # Chebyshev divergence


class TestHelr:
    @pytest.fixture(scope="class")
    def data(self):
        return make_mnist_like(train=1024, test=512, separation=0.75)

    def test_plain_reference_accuracy(self, data):
        r = train_plain(data, iterations=16)
        assert r.final_accuracy > 0.9

    def test_scale_cliff(self, data):
        low = train_noisy(data, 27, 55, iterations=24)
        high = train_noisy(data, 35, 62, iterations=24)
        assert low.final_accuracy < 0.75
        assert high.final_accuracy > 0.9

    def test_accuracy_helper(self):
        x = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1.0, -1.0])
        assert accuracy(np.array([1.0, 0.0]), x, y) == 1.0


class TestResnet:
    @pytest.fixture(scope="class")
    def net_data(self):
        data = make_cifar_like(train=2400, test=600)
        net, clean = train_plain_cnn(data)
        return net, data, clean

    def test_clean_accuracy(self, net_data):
        _, _, clean = net_data
        assert clean > 0.65

    def test_scale_cliff_above_helr(self, net_data):
        net, data, _ = net_data
        low = noisy_inference(net, data, 31, 60, samples=200)
        high = noisy_inference(net, data, 37, 64, samples=200)
        assert low.accuracy < 0.45  # collapsed at 2^31 (HELR works there)
        assert high.accuracy > 0.6


class TestSorting:
    def test_explosion_at_low_scale(self):
        # The compounding drift needs the full 78-stage network (2^12
        # elements) to escape the sign interval at 2^27.
        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 1, 1 << 12)
        assert noisy_bitonic_sort(vals, 27, 55).exploded
        assert not noisy_bitonic_sort(vals, 35, 62).exploded

    def test_error_decreases_with_scale(self):
        rng = np.random.default_rng(2)
        vals = rng.uniform(0, 1, 1 << 10)
        e29 = noisy_bitonic_sort(vals, 29, 59).max_error
        e39 = noisy_bitonic_sort(vals, 39, 64).max_error
        assert e39 <= e29

    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            noisy_bitonic_sort(np.zeros(1000), 35, 62)


class TestWorkingSet:
    def test_capacity_binds_only_high_levels(self, s36):
        data = fig5_data(s36)
        assert data["binding_limbs"]
        assert min(data["binding_limbs"]) > 12

    def test_breakdown_sums_to_one(self, s36):
        b = hmult_breakdown(s36, 20)
        assert sum(b.values()) == pytest.approx(1.0)

    def test_curve_monotone_in_limbs(self, s36):
        pts = working_set_curve(s36)
        sizes = [p.working_set_mib[8] for p in pts]
        assert sizes == sorted(sizes, reverse=True)


class TestBsgs:
    def test_balanced_split(self):
        assert balanced_split(64) == (8, 8)

    def test_low_levels_stay_balanced(self, s36):
        cap = 198 * (1 << 20)
        plan = plan_bsgs(s36, 10, cap, fine_tune=True)
        assert plan.bs == 8  # plenty of room at low levels


class TestPublished:
    def test_reported_ratios_present(self):
        assert PRIOR_ACCELERATORS["ARK"].sharp_speedup_gmean == 1.57
        assert PRIOR_ACCELERATORS["BTS"].sharp_speedup_gmean == 11.5

    def test_baseline_reconstruction(self):
        t = baseline_runtime("ARK", "bootstrap", 1.0e-3)
        assert t == pytest.approx(1.45e-3)

    def test_gmean_consistency(self):
        for acc in PRIOR_ACCELERATORS.values():
            g = math.exp(
                sum(math.log(v) for v in acc.speedup_by_workload.values())
                / len(acc.speedup_by_workload)
            )
            assert g == pytest.approx(acc.sharp_speedup_gmean, rel=0.08)
