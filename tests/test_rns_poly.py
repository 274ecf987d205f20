"""Tests for RNS polynomials and base conversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns.bconv import CONVERTERS, BaseConverter
from repro.rns.poly import RingContext, RnsPolynomial

MODULI = (40961, 65537, 114689)  # all = 1 mod 2^13 and mod 2N for N<=2^12
DEGREE = 64
# 40961 = 1 mod 2048? 40961-1 = 40960 = 2^13*5 -> 1 mod 2^13 yes; use N=64 (2N=128 | 40960 yes)


@pytest.fixture(scope="module")
def ring():
    return RingContext(DEGREE)


def rand_poly(ring, moduli, seed=0, ntt=False):
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-1000, 1000, ring.degree)
    p = RnsPolynomial.from_int_coeffs(ring, moduli, coeffs)
    return p.to_ntt() if ntt else p


class TestConstruction:
    def test_from_int_coeffs_residues(self, ring):
        coeffs = np.arange(-32, 32)
        p = RnsPolynomial.from_int_coeffs(ring, MODULI, coeffs)
        for i, q in enumerate(MODULI):
            assert np.array_equal(p.limbs[i], np.mod(coeffs, q).astype(np.uint64))

    def test_shape_validation(self, ring):
        with pytest.raises(ValueError):
            RnsPolynomial(ring, MODULI, np.zeros((2, DEGREE), dtype=np.uint64), False)

    def test_roundtrip_int_coeffs(self, ring):
        coeffs = list(range(-32, 32))
        p = RnsPolynomial.from_int_coeffs(ring, MODULI, coeffs)
        assert p.to_int_coeffs() == coeffs


class TestArithmetic:
    def test_add_matches_integer_add(self, ring):
        a = rand_poly(ring, MODULI, 1)
        b = rand_poly(ring, MODULI, 2)
        got = (a + b).to_int_coeffs()
        want = [x + y for x, y in zip(a.to_int_coeffs(), b.to_int_coeffs())]
        assert got == want

    def test_sub_neg(self, ring):
        a = rand_poly(ring, MODULI, 3)
        b = rand_poly(ring, MODULI, 4)
        assert (a - b).to_int_coeffs() == (a + (-b)).to_int_coeffs()

    def test_ntt_mult_matches_schoolbook(self, ring):
        rng = np.random.default_rng(5)
        ca = rng.integers(-50, 50, DEGREE)
        cb = rng.integers(-50, 50, DEGREE)
        a = RnsPolynomial.from_int_coeffs(ring, MODULI, ca).to_ntt()
        b = RnsPolynomial.from_int_coeffs(ring, MODULI, cb).to_ntt()
        got = (a * b).from_ntt().to_int_coeffs()
        want = [0] * DEGREE
        for i in range(DEGREE):
            for j in range(DEGREE):
                k = i + j
                if k < DEGREE:
                    want[k] += int(ca[i]) * int(cb[j])
                else:
                    want[k - DEGREE] -= int(ca[i]) * int(cb[j])
        assert got == want

    def test_mult_requires_ntt_form(self, ring):
        a = rand_poly(ring, MODULI, 6)
        with pytest.raises(ValueError):
            _ = a * a

    def test_mixed_representation_rejected(self, ring):
        a = rand_poly(ring, MODULI, 7)
        with pytest.raises(ValueError):
            _ = a + a.to_ntt()

    def test_scalar_mul_per_limb(self, ring):
        a = rand_poly(ring, MODULI, 8)
        s = [3, 5, 7]
        out = a.scalar_mul(s)
        for i, q in enumerate(MODULI):
            assert np.array_equal(out.limbs[i], a.limbs[i] * np.uint64(s[i]) % np.uint64(q))

    @given(st.integers(min_value=-10000, max_value=10000))
    @settings(max_examples=25, deadline=None)
    def test_scalar_mul_shared(self, ring, c):
        a = rand_poly(RingContext(DEGREE), MODULI, 9)
        got = a.scalar_mul(c).to_int_coeffs()
        q_big = int(np.prod([int(m) for m in MODULI]))
        half = q_big // 2
        for g, orig in zip(got, a.to_int_coeffs()):
            assert (g - c * orig) % q_big == 0


class TestChainSurgery:
    def test_drop_limbs(self, ring):
        a = rand_poly(ring, MODULI, 10)
        d = a.drop_limbs(1)
        assert d.moduli == MODULI[:2]
        assert np.array_equal(d.limbs, a.limbs[:2])

    def test_drop_all_rejected(self, ring):
        a = rand_poly(ring, MODULI, 11)
        with pytest.raises(ValueError):
            a.drop_limbs(3)

    def test_keep_limbs(self, ring):
        a = rand_poly(ring, MODULI, 12)
        k = a.keep_limbs([0, 2])
        assert k.moduli == (MODULI[0], MODULI[2])


class TestAutomorphism:
    def test_coeff_eval_consistency(self, ring):
        a = rand_poly(ring, MODULI, 13)
        for rot in (1, 3, 7):
            g = ring.galois_element(rot)
            via_coeff = a.automorphism(g).to_ntt()
            via_eval = a.to_ntt().automorphism(g)
            assert np.array_equal(via_coeff.limbs, via_eval.limbs)

    def test_conjugation_involution(self, ring):
        a = rand_poly(ring, MODULI, 14, ntt=True)
        g = ring.conjugation_element
        assert np.array_equal(a.automorphism(g).automorphism(g).limbs, a.limbs)

    def test_eval_form_is_pure_permutation(self, ring):
        a = rand_poly(ring, MODULI, 15, ntt=True)
        out = a.automorphism(ring.galois_element(2))
        assert sorted(out.limbs[0].tolist()) == sorted(a.limbs[0].tolist())

    def test_rejects_even_galois(self, ring):
        a = rand_poly(ring, MODULI, 16)
        with pytest.raises(ValueError):
            a.automorphism(2)

    def test_composition(self, ring):
        a = rand_poly(ring, MODULI, 17, ntt=True)
        g1 = ring.galois_element(1)
        g2 = ring.galois_element(2)
        lhs = a.automorphism(g1).automorphism(g1)
        rhs = a.automorphism(g2)
        assert np.array_equal(lhs.limbs, rhs.limbs)


def _bconv(src: RnsPolynomial, dst: tuple[int, ...]) -> RnsPolynomial:
    """BConv through the backend entry point the key switch calls."""
    conv = BaseConverter(src.moduli, dst)
    limbs = src.ring.backend.bconv(conv, src.limbs)
    return RnsPolynomial(src.ring, dst, limbs, ntt_form=False)


class TestBaseConversion:
    DST = (163841, 786433)  # 1 mod 2^15 / 2^18 -> both = 1 mod 128

    def test_exact_for_small_values(self, ring):
        rng = np.random.default_rng(20)
        coeffs = rng.integers(-500, 500, DEGREE)
        src = RnsPolynomial.from_int_coeffs(ring, MODULI, coeffs)
        out = _bconv(src, self.DST)
        for i, p in enumerate(self.DST):
            assert np.array_equal(out.limbs[i], np.mod(coeffs, p).astype(np.uint64))

    def test_centered_congruent_up_to_one_q(self, ring):
        """Converted values match mod P, up to at most one slip of Q."""
        rng = np.random.default_rng(21)
        q_big = int(np.prod([int(m) for m in MODULI]))
        p_big = int(np.prod([int(m) for m in self.DST]))
        vals = rng.integers(-q_big // 2 + 1, q_big // 2, DEGREE)
        src = RnsPolynomial.from_int_coeffs(ring, MODULI, list(map(int, vals)))
        out = _bconv(src, self.DST)
        for got, val in zip(out.to_int_coeffs(), map(int, vals)):
            slips = [(got - val - e * q_big) % p_big for e in (-1, 0, 1)]
            assert 0 in slips

    def test_exact_congruence_away_from_wrap(self, ring):
        """Away from +-Q/2 the centered overflow estimate never slips."""
        rng = np.random.default_rng(22)
        q_big = int(np.prod([int(m) for m in MODULI]))
        p_big = int(np.prod([int(m) for m in self.DST]))
        vals = rng.integers(-q_big // 4, q_big // 4, DEGREE)
        src = RnsPolynomial.from_int_coeffs(ring, MODULI, list(map(int, vals)))
        out = _bconv(src, self.DST)
        exact = sum(
            1
            for got, val in zip(out.to_int_coeffs(), map(int, vals))
            if (got - val) % p_big == 0
        )
        assert exact == DEGREE

    def test_disjoint_bases_required(self):
        with pytest.raises(ValueError):
            BaseConverter(MODULI, MODULI[:1])

    def test_converter_cache(self):
        c1 = CONVERTERS.get(MODULI, self.DST)
        c2 = CONVERTERS.get(MODULI, self.DST)
        assert c1 is c2
