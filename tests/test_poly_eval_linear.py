"""Tests for homomorphic Chebyshev evaluation and BSGS linear transforms."""

import numpy as np
import pytest
from numpy.polynomial import chebyshev as C

from repro.ckks.linear import LinearTransform, bsgs_split
from repro.ckks.ops import Evaluator
from repro.ckks.poly_eval import ChebyshevEvaluator, PolyPlan, chebyshev_fit, fitted_plan
from repro.workloads import helr, resnet, sorting
from tests.test_residency import _count_calls


class TestChebyshevFit:
    def test_fits_sin(self):
        coeffs = chebyshev_fit(np.sin, 15)
        x = np.linspace(-1, 1, 500)
        assert np.max(np.abs(C.chebval(x, coeffs) - np.sin(x))) < 1e-12

    def test_interval_mapping(self):
        coeffs = chebyshev_fit(lambda t: t * t, 4, interval=(0.0, 4.0))
        # x = -1 maps to t = 0; x = 1 maps to t = 4.
        assert C.chebval(-1.0, coeffs) == pytest.approx(0.0, abs=1e-9)
        assert C.chebval(1.0, coeffs) == pytest.approx(16.0, abs=1e-9)

    def test_sigmoid_accuracy_grows_with_degree(self):
        def sig(t):
            return 1.0 / (1.0 + np.exp(-6 * t))

        x = np.linspace(-1, 1, 300)
        errs = [
            np.max(np.abs(C.chebval(x, chebyshev_fit(sig, d)) - sig(x)))
            for d in (7, 15, 31)
        ]
        assert errs[0] > errs[1] > errs[2]

    @pytest.mark.parametrize(
        "fn, degree, interval, counts",
        [
            *(
                (sorting.sign_stage, sorting.SIGN_DEGREE, iv, (9, 12, 6))
                for iv in sorted(set(sorting.SIGN_STAGES))
            ),
            (helr.sigmoid_neg, helr.SIGMOID_DEGREE, helr.SIGMOID_INTERVAL, (5, 4, 4)),
            (resnet.relu, resnet.RELU_DEGREE, resnet.RELU_INTERVAL, (8, 11, 6)),
        ],
        ids=["sign-1.6", "sign-1.02", "sigmoid", "relu"],
    )
    def test_activation_plans_carry_no_rounding_noise(self, fn, degree, interval, counts):
        """(products, plain terms, depth) of each workload activation's
        plan: the fit keeps no coefficient at the float64 rounding level,
        so the plan builds no T_k and encodes no term for rounding noise
        (with it: sign 10 / 21, sigmoid 6 / 7, ReLU 11 / 24)."""
        plan = fitted_plan(fn, degree, interval)
        assert (plan.products, plan.plain_terms, plan.depth) == counts


class TestChebyshevEvaluator:
    @pytest.mark.parametrize("degree", [3, 8, 15, 21])
    def test_matches_plain_eval(self, small_context, small_evaluator, rng, degree):
        x = rng.uniform(-1, 1, 256)
        coeffs = chebyshev_fit(lambda t: np.tanh(2 * t), degree)
        cheb = ChebyshevEvaluator(small_evaluator)
        out = cheb.evaluate(small_context.encrypt(x), PolyPlan(coeffs, baby_steps=4))
        want = C.chebval(x, coeffs)
        got = small_context.decrypt(out).real
        assert np.max(np.abs(got - want)) < 1e-3

    def test_constant_polynomial(self, small_context, small_evaluator, rng):
        x = rng.uniform(-1, 1, 256)
        cheb = ChebyshevEvaluator(small_evaluator)
        out = cheb.evaluate(small_context.encrypt(x), PolyPlan(np.array([0.75])))
        assert np.max(np.abs(small_context.decrypt(out).real - 0.75)) < 1e-3

    def test_linear_polynomial(self, small_context, small_evaluator, rng):
        x = rng.uniform(-1, 1, 256)
        cheb = ChebyshevEvaluator(small_evaluator)
        out = cheb.evaluate(small_context.encrypt(x), PolyPlan(np.array([0.25, 0.5])))
        want = 0.25 + 0.5 * x
        assert np.max(np.abs(small_context.decrypt(out).real - want)) < 1e-3

    def test_depth_is_logarithmic(self, small_context, small_evaluator, rng):
        x = rng.uniform(-1, 1, 256)
        cheb = ChebyshevEvaluator(small_evaluator)
        coeffs = chebyshev_fit(lambda t: np.sin(3 * t), 15)
        out = cheb.evaluate(small_context.encrypt(x), PolyPlan(coeffs, baby_steps=4))
        used = small_context.params.usable_level - out.level
        assert used <= 6  # log2(15) + margin, far below 15

    @pytest.mark.parametrize(
        "parity, fn, degree, baby_steps",
        [
            (1, lambda t: np.sin(3 * t), 15, 4),
            (0, lambda t: np.cos(3 * t), 12, 8),
            (None, lambda t: np.exp(t) / 3, 21, 4),
        ],
        ids=["odd", "even", "dense"],
    )
    def test_spends_what_its_plan_says(
        self, small_context, small_evaluator, monkeypatch, rng, parity, fn, degree, baby_steps
    ):
        coeffs = chebyshev_fit(fn, degree)
        if parity is not None:
            coeffs[1 - parity :: 2] = 0.0
        plan = PolyPlan(coeffs, baby_steps=baby_steps)
        calls = {
            name: _count_calls(monkeypatch, Evaluator, name)
            for name in ("multiply", "square", "multiply_plain_sum")
        }
        x = rng.uniform(-1, 1, 256)
        ct = small_context.encrypt(x)
        out = ChebyshevEvaluator(small_evaluator).evaluate(ct, plan)
        # ``square`` calls ``multiply``, so the multiply count is every product.
        assert {name: len(seen) for name, seen in calls.items()} == {
            "multiply": plan.products,
            "square": plan.squares,
            "multiply_plain_sum": plan.plain_sums,
        }
        assert sum(len(pts) for _, _, pts in calls["multiply_plain_sum"]) == plan.plain_terms
        assert ct.level - out.level == plan.depth
        got = small_context.decrypt(out).real
        assert np.max(np.abs(got - C.chebval(x, coeffs))) < 1e-3

    def test_rejects_bad_baby_steps(self):
        with pytest.raises(ValueError):
            PolyPlan(np.ones(12), baby_steps=3)


class TestBsgsSplit:
    def test_covers_all_diagonals(self):
        for n in (4, 16, 64, 100, 256):
            bs, gs = bsgs_split(n)
            assert bs * gs >= n

    def test_balanced_default(self):
        bs, gs = bsgs_split(64)
        assert bs == 8 and gs == 8

    def test_explicit_baby(self):
        bs, gs = bsgs_split(64, baby=4)
        assert bs == 4 and gs == 16


class TestLinearTransform:
    def test_identity(self, small_context, small_evaluator, rng):
        z = rng.uniform(-1, 1, 256) + 1j * rng.uniform(-1, 1, 256)
        lt = LinearTransform.from_matrix(np.eye(256))
        out = lt.apply(small_evaluator, small_context.encrypt(z))
        assert np.max(np.abs(small_context.decrypt(out) - z)) < 1e-4

    def test_permutation_matrix(self, small_context, small_evaluator, rng):
        z = rng.uniform(-1, 1, 256)
        perm = np.roll(np.eye(256), 3, axis=1)  # shift
        lt = LinearTransform.from_matrix(perm)
        out = lt.apply(small_evaluator, small_context.encrypt(z))
        want = perm @ z
        assert np.max(np.abs(small_context.decrypt(out) - want)) < 1e-4

    def test_dense_random(self, small_context, small_evaluator, rng):
        n = 256
        m = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))) / n
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        lt = LinearTransform.from_matrix(m)
        out = lt.apply(small_evaluator, small_context.encrypt(z))
        assert np.max(np.abs(small_context.decrypt(out) - m @ z)) < 1e-4

    def test_conjugate_part(self, small_context, small_evaluator, rng):
        n = 256
        m = rng.normal(size=(n, n)) / n
        mc = rng.normal(size=(n, n)) / n
        z = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
        lt = LinearTransform.from_matrix(m, mc)
        out = lt.apply(small_evaluator, small_context.encrypt(z))
        want = m @ z + mc @ np.conj(z)
        assert np.max(np.abs(small_context.decrypt(out) - want)) < 1e-4

    def test_consumes_one_level(self, small_context, small_evaluator, rng):
        z = rng.uniform(-1, 1, 256)
        lt = LinearTransform.from_matrix(np.eye(256))
        ct = small_context.encrypt(z)
        out = lt.apply(small_evaluator, ct)
        assert out.level == ct.level - 1

    def test_output_scale_override(self, small_context, small_evaluator, rng):
        z = rng.uniform(-1, 1, 256)
        lt = LinearTransform.from_matrix(np.eye(256))
        target = 2.0**30
        out = lt.apply(small_evaluator, small_context.encrypt(z), output_scale=target)
        assert out.scale == target
        assert np.max(np.abs(small_context.decrypt(out) - z)) < 1e-4

    def test_sparse_matrix_skips_rotations(self, small_context, small_evaluator, rng):
        """A diagonal-only matrix needs no rotations at all."""
        z = rng.uniform(-1, 1, 256)
        d = rng.uniform(0.5, 1.5, 256)
        lt = LinearTransform.from_matrix(np.diag(d))
        out = lt.apply(small_evaluator, small_context.encrypt(z))
        assert np.max(np.abs(small_context.decrypt(out) - d * z)) < 1e-4

    def test_reference_apply(self, rng):
        n = 8
        m = rng.normal(size=(n, n))
        mc = rng.normal(size=(n, n))
        z = rng.normal(size=n) + 1j * rng.normal(size=n)
        lt = LinearTransform.from_matrix(m, mc)
        assert np.allclose(lt.reference_apply(z), m @ z + mc @ np.conj(z))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            LinearTransform.from_matrix(np.zeros((3, 4)))

    def test_rejects_size_mismatch(self, small_context, small_evaluator, rng):
        lt = LinearTransform.from_matrix(np.eye(8))
        with pytest.raises(ValueError):
            lt.apply(small_evaluator, small_context.encrypt(rng.uniform(-1, 1, 256)))
