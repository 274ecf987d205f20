"""Cross-stack property-based tests (hypothesis).

Invariants that must hold for *any* input, spanning the RNS substrate,
the NTT engines, the encoder, and the parameter machinery.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.encoder import CkksEncoder
from repro.params.primes import find_ss_primes
from repro.rns.bconv import BaseConverter
from repro.rns.modmath import mod_inverse
from repro.rns.poly import RingContext, RnsPolynomial

N = 64
RING = RingContext(N)
MODULI = tuple(find_ss_primes(2 * N, 20, 3, word_bits=31))
Q_BIG = math.prod(MODULI)

coeff_lists = st.lists(
    st.integers(min_value=-(10**6), max_value=10**6), min_size=N, max_size=N
)


def poly_of(coeffs, ntt=False):
    p = RnsPolynomial.from_int_coeffs(RING, MODULI, coeffs)
    return p.to_ntt() if ntt else p


class TestRingAxioms:
    @given(coeff_lists, coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_addition_commutes(self, a, b):
        pa, pb = poly_of(a), poly_of(b)
        assert np.array_equal((pa + pb).limbs, (pb + pa).limbs)

    @given(coeff_lists, coeff_lists, coeff_lists)
    @settings(max_examples=20, deadline=None)
    def test_multiplication_distributes(self, a, b, c):
        pa, pb, pc = (poly_of(x, ntt=True) for x in (a, b, c))
        lhs = pa * (pb + pc)
        rhs = pa * pb + pa * pc
        assert np.array_equal(lhs.limbs, rhs.limbs)

    @given(coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_ntt_roundtrip(self, a):
        p = poly_of(a)
        assert np.array_equal(p.to_ntt().from_ntt().limbs, p.limbs)

    @given(coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_neg_is_additive_inverse(self, a):
        p = poly_of(a)
        assert not ((p + (-p)).limbs).any()

    @given(coeff_lists, st.integers(min_value=0, max_value=N - 1))
    @settings(max_examples=30, deadline=None)
    def test_automorphism_is_ring_homomorphism(self, a, rot):
        g = RING.galois_element(rot)
        pa = poly_of(a, ntt=True)
        sq_then_auto = (pa * pa).automorphism(g)
        auto_then_sq = pa.automorphism(g) * pa.automorphism(g)
        assert np.array_equal(sq_then_auto.limbs, auto_then_sq.limbs)


class TestCrtProperties:
    @given(coeff_lists)
    @settings(max_examples=30, deadline=None)
    def test_crt_reconstruction_is_centered(self, a):
        recon = poly_of(a).to_int_coeffs()
        for v in recon:
            assert -Q_BIG // 2 <= v <= Q_BIG // 2

    @given(st.integers(min_value=-(10**6), max_value=10**6))
    @settings(max_examples=30, deadline=None)
    def test_constant_roundtrip(self, c):
        recon = poly_of([c] * N).to_int_coeffs()
        assert recon == [c] * N

    @given(coeff_lists)
    @settings(max_examples=20, deadline=None)
    def test_bconv_congruence(self, a):
        dst = tuple(
            find_ss_primes(2 * N, 24, 2, word_bits=31, exclude=set(MODULI))
        )
        src = poly_of(a)
        limbs = src.ring.backend.bconv(BaseConverter(MODULI, dst), src.limbs)
        out = RnsPolynomial(src.ring, dst, limbs, ntt_form=False)
        p_big = math.prod(dst)
        for got, want in zip(out.to_int_coeffs(), a):
            # Congruent modulo P up to at most one slip of Q.
            assert any(
                (got - want - e * Q_BIG) % p_big == 0 for e in (-1, 0, 1)
            )


class TestEncoderProperties:
    ENC = CkksEncoder(RING, slots=N // 2)

    @given(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=N // 2,
            max_size=N // 2,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_embedding_roundtrip(self, values):
        z = np.array(values)
        back = self.ENC.slots_from_coeffs(self.ENC.coeffs_from_slots(z))
        assert np.max(np.abs(back - z)) < 1e-9

    @given(
        st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                 min_size=N // 2, max_size=N // 2),
        st.lists(st.floats(min_value=-1, max_value=1, allow_nan=False),
                 min_size=N // 2, max_size=N // 2),
    )
    @settings(max_examples=20, deadline=None)
    def test_embedding_is_linear(self, a, b):
        za, zb = np.array(a), np.array(b)
        lhs = self.ENC.coeffs_from_slots(za + zb)
        rhs = self.ENC.coeffs_from_slots(za) + self.ENC.coeffs_from_slots(zb)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    @given(st.floats(min_value=2.0**18, max_value=2.0**26, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_encode_error_bounded_by_scale(self, scale):
        z = np.linspace(-1, 1, N // 2)
        pt = self.ENC.encode(z, MODULI, scale)
        err = np.max(np.abs(self.ENC.decode(pt, scale) - z))
        # Rounding bound: ~ N / (2 * scale) in the worst slot.
        assert err < N / scale


class TestModmathProperties:
    @given(st.integers(min_value=1, max_value=MODULI[0] - 1))
    @settings(max_examples=50, deadline=None)
    def test_inverse_of_inverse(self, a):
        q = MODULI[0]
        assert mod_inverse(mod_inverse(a, q), q) == a % q
