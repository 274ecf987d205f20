"""Tests for the NTT models: reference, ten-step (a Bailey split over the
reference butterflies), OF-Twist, NTTU dataflow."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntt.reference import NttContext, bit_reverse_indices
from repro.ntt.tenstep import (
    TenStepNtt,
    flat_nttu_dataflow,
    hierarchical_nttu_dataflow,
)
from repro.ntt.twiddle import (
    DoubleOfTwistUnit,
    geometric_sequence,
    phase2_twist_factors,
)
from repro.rns.modmath import nth_root_of_unity

CASES = [(16, 97), (64, 257), (256, 7681), (4096, 40961)]


def brute_negacyclic_mult(a, b, q):
    n = len(a)
    out = np.zeros(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] += int(a[i]) * int(b[j])
            else:
                out[k - n] -= int(a[i]) * int(b[j])
    return (out % q).astype(np.uint64)


class TestBitReverse:
    def test_small(self):
        assert bit_reverse_indices(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]

    def test_involution(self):
        rev = bit_reverse_indices(256)
        assert np.array_equal(rev[rev], np.arange(256))

    def test_rejects_non_power(self):
        with pytest.raises(ValueError):
            bit_reverse_indices(12)


class TestReferenceNtt:
    @pytest.mark.parametrize("n,q", CASES)
    def test_roundtrip(self, n, q):
        rng = np.random.default_rng(n)
        ctx = NttContext(n, q)
        a = rng.integers(0, q, n).astype(np.uint64)
        assert np.array_equal(ctx.inverse(ctx.forward(a)), a)

    def test_forward_evaluates_at_odd_psi_powers(self):
        n, q = 16, 97
        ctx = NttContext(n, q)
        rng = np.random.default_rng(0)
        a = rng.integers(0, q, n).astype(np.uint64)
        for k, e in enumerate(ctx.evaluation_points()):
            x = pow(ctx.psi, int(e), q)
            val = 0
            for c in reversed(a.tolist()):
                val = (val * x + int(c)) % q
            assert ctx.forward(a)[k] == val

    @pytest.mark.parametrize("n,q", [(16, 97), (64, 257)])
    def test_negacyclic_multiply_matches_schoolbook(self, n, q):
        rng = np.random.default_rng(7)
        ctx = NttContext(n, q)
        a = rng.integers(0, q, n).astype(np.uint64)
        b = rng.integers(0, q, n).astype(np.uint64)
        assert np.array_equal(
            ctx.negacyclic_multiply(a, b), brute_negacyclic_mult(a, b, q)
        )

    def test_linearity(self):
        n, q = 256, 7681
        ctx = NttContext(n, q)
        rng = np.random.default_rng(3)
        a = rng.integers(0, q, n).astype(np.uint64)
        b = rng.integers(0, q, n).astype(np.uint64)
        lhs = ctx.forward((a + b) % q)
        rhs = (ctx.forward(a) + ctx.forward(b)) % q
        assert np.array_equal(lhs, rhs)

    def test_rejects_modulus_beyond_fast_path(self):
        # 2^62 + 2^8 + 1 is = 1 mod 32, so only the width check can reject it.
        with pytest.raises(ValueError):
            NttContext(16, (1 << 62) + (1 << 8) + 1)

    def test_accepts_wide_modulus_below_limit(self):
        # A 34-bit NTT prime: above the historical 2^31 cap, inside the
        # kernel fast path.
        q = 8589934721  # = 1 mod 32, prime
        ctx = NttContext(16, q)
        a = np.arange(16, dtype=np.uint64)
        assert np.array_equal(ctx.inverse(ctx.forward(a)), a)

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=16, deadline=None)
    def test_monomial_transform(self, k):
        """NTT of X^k is the k-th power of the evaluation points."""
        n, q = 16, 97
        ctx = NttContext(n, q)
        a = np.zeros(n, dtype=np.uint64)
        a[k] = 1
        f = ctx.forward(a)
        for slot, e in enumerate(ctx.evaluation_points()):
            assert f[slot] == pow(ctx.psi, int(e) * k, q)


class TestTenStep:
    CASES = [(16, 97), (256, 7681), (4096, 40961), (65536, 786433)]

    @pytest.mark.parametrize("n,q", CASES)
    def test_bit_exact_vs_reference(self, n, q):
        rng = np.random.default_rng(n)
        ref = NttContext(n, q)
        ts = TenStepNtt(n, q)
        a = rng.integers(0, q, n).astype(np.uint64)
        assert np.array_equal(ts.forward(a), ref.forward(a))

    @pytest.mark.parametrize("n,q", CASES)
    def test_inner_root_is_outer_root_power(self, n, q):
        """psi_S = psi**S: the identity the Bailey split over
        ``NttContext(S, q)`` depends on."""
        s = TenStepNtt(n, q).m ** 2
        assert pow(nth_root_of_unity(2 * n, q), s, q) == NttContext(s, q).psi

    def test_lane_group_geometry(self):
        ts = TenStepNtt(65536, 786433)
        assert ts.m == 16  # M = N^(1/4) = 16 lane groups of 16 lanes

    def test_rejects_non_fourth_power(self):
        with pytest.raises(ValueError):
            TenStepNtt(2048, 40961)


class TestNttuDataflow:
    def test_wiring_reduction_order_of_magnitude(self):
        """Paper: 9.17x shorter horizontal wiring; our model gives ~8.5x
        for the local networks."""
        flat = flat_nttu_dataflow(256, 65536)
        hier = hierarchical_nttu_dataflow(256, 65536)
        local = hier.horizontal_wire_length - hier.semi_global_wire_length
        ratio = flat.horizontal_wire_length / local
        assert 6.0 < ratio < 12.0

    def test_inter_group_traffic_reduced(self):
        flat = flat_nttu_dataflow(256, 65536)
        hier = hierarchical_nttu_dataflow(256, 65536)
        assert hier.inter_group_words_per_limb < flat.inter_group_words_per_limb

    def test_rejects_non_square_lanes(self):
        with pytest.raises(ValueError):
            hierarchical_nttu_dataflow(200, 65536)


class TestOfTwist:
    Q = 7681

    def test_phase2_ratios_form_geometric_sequence(self):
        """The paper's key observation enabling the double OF-Twist."""
        zeta = pow(17, 5, self.Q)
        seq = phase2_twist_factors(zeta, 4, self.Q)
        # Each row is geometric, and its ratio is the odd power zeta^(2j+1):
        # the ratios form a geometric sequence of ratio zeta^2.
        rows = [seq[i : i + 4] for i in range(0, len(seq), 4)]
        ratios = [pow(zeta, e, self.Q) for e in (1, 3, 5, 7)]
        assert rows == [geometric_sequence(1, r, 4, self.Q) for r in ratios]

    def test_double_of_twist_unit_streams_exactly(self):
        zeta = pow(17, 5, self.Q)
        for m in (4, 8, 16):
            want = phase2_twist_factors(zeta, m, self.Q)
            unit = DoubleOfTwistUnit(zeta, zeta * zeta % self.Q, m, self.Q)
            assert unit.stream(len(want)) == want

    def test_double_of_twist_multiplier_budget(self):
        """One multiply per emitted factor: the unit's hardware cost."""
        zeta = pow(17, 5, self.Q)
        unit = DoubleOfTwistUnit(zeta, zeta * zeta % self.Q, 8, self.Q)
        unit.stream(64)
        assert unit.multiplies == 64
