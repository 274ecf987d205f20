"""Tests for the CKKS canonical-embedding encoder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.encoder import CkksEncoder
from repro.params.primes import find_ss_primes
from repro.rns.poly import RingContext, RnsPolynomial

# Two ~2^30 NTT primes for N = 2^11.
MODULI = tuple(find_ss_primes(1 << 12, 30, 2, word_bits=31))


@pytest.fixture(scope="module")
def ring():
    return RingContext(1 << 11)


@pytest.fixture(scope="module")
def encoder(ring):
    return CkksEncoder(ring, slots=256)


class TestFloatEmbedding:
    def test_roundtrip(self, encoder, rng):
        z = rng.uniform(-1, 1, 256) + 1j * rng.uniform(-1, 1, 256)
        coeffs = encoder.coeffs_from_slots(z)
        back = encoder.slots_from_coeffs(coeffs)
        assert np.max(np.abs(back - z)) < 1e-10

    def test_coeffs_are_real(self, encoder, rng):
        z = rng.uniform(-1, 1, 256) + 1j * rng.uniform(-1, 1, 256)
        coeffs = encoder.coeffs_from_slots(z)
        assert coeffs.dtype == np.float64

    def test_constant_message_is_constant_poly(self, encoder):
        coeffs = encoder.coeffs_from_slots(np.full(256, 2.5))
        assert coeffs[0] == pytest.approx(2.5)
        assert np.max(np.abs(coeffs[1:])) < 1e-12

    def test_multiplication_is_slotwise(self, ring, encoder, rng):
        """Negacyclic product of encodings = slot-wise message product."""
        a = rng.uniform(-1, 1, 256)
        b = rng.uniform(-1, 1, 256)
        ca = encoder.coeffs_from_slots(a)
        cb = encoder.coeffs_from_slots(b)
        n = ring.degree
        prod = np.zeros(n)
        for k in range(n):  # negacyclic convolution via polynomial mult
            pass
        conv = np.convolve(ca, cb)
        full = np.zeros(n)
        full += conv[:n]
        full[: len(conv) - n] -= conv[n:]
        got = encoder.slots_from_coeffs(full)
        assert np.max(np.abs(got - a * b)) < 1e-8


class TestPlaintextEncode:
    def test_encode_decode_precision(self, encoder, rng):
        z = rng.uniform(-1, 1, 256) + 1j * rng.uniform(-1, 1, 256)
        pt = encoder.encode(z, MODULI, scale=2.0**28)
        back = encoder.decode(pt, 2.0**28)
        err = np.max(np.abs(back - z))
        assert err < 2**-20  # rounding-limited

    def test_higher_scale_higher_precision(self, encoder, rng):
        z = rng.uniform(-1, 1, 256)
        errs = []
        for bits in (20, 24, 28):
            pt = encoder.encode(z, MODULI, scale=2.0**bits)
            errs.append(np.max(np.abs(encoder.decode(pt, 2.0**bits) - z)))
        assert errs[0] > errs[1] > errs[2]

    def test_encode_is_ntt_form(self, encoder):
        pt = encoder.encode(np.zeros(256), MODULI, scale=2.0**20)
        assert pt.ntt_form

    def test_sparse_packing_replicates(self, ring, rng):
        enc_small = CkksEncoder(ring, slots=64)
        enc_full = CkksEncoder(ring, slots=ring.degree // 2)
        z = rng.uniform(-1, 1, 64)
        coeffs = enc_small.coeffs_from_slots(z)
        full = enc_full.slots_from_coeffs(coeffs)
        reps = (ring.degree // 2) // 64
        for r in range(reps):
            assert np.max(np.abs(full[r * 64 : (r + 1) * 64] - z)) < 1e-9

    def test_overflow_guard(self, encoder):
        with pytest.raises(OverflowError):
            encoder.encode(np.full(256, 1.0), MODULI, scale=2.0**63)

    def test_slot_count_validation(self, ring):
        with pytest.raises(ValueError):
            CkksEncoder(ring, slots=300)  # does not divide N/2
        with pytest.raises(ValueError):
            CkksEncoder(ring, slots=0)

    @given(st.floats(min_value=-10, max_value=10, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_scalar_roundtrip(self, encoder, value):
        pt = encoder.encode(np.full(256, value), MODULI, scale=2.0**24)
        back = encoder.decode(pt, 2.0**24)
        assert np.max(np.abs(back - value)) < 1e-4


class TestDecodeReconstruction:
    """One or two limbs below 2**31 reconstruct in uint64 lanes (Garner);
    the result must be the big-integer CRT's, to the last bit."""

    # (moduli, takes the vectorised path)
    CHAINS = [
        ((2056193,), True),
        ((2056193, 2101249), True),  # the 36-bit serve preset's base pair
        ((2147483647, 2147483629), True),  # both just under 2**31
        ((2101249, 5), True),  # lopsided: the centring wrap is a0-dominated
        ((2147483659, 2056193), False),  # one limb past 2**31: big-int path
        (MODULI + (2056193,), False),  # three limbs: big-int path
    ]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_equals_to_int_coeffs(self, ring, encoder, data):
        moduli, _ = data.draw(st.sampled_from(self.CHAINS))
        half = math.prod(moduli) // 2
        edges = [-half, -half + 1, -1, 0, 1, half - 1, half]
        coeff = st.one_of(st.sampled_from(edges), st.integers(-half, half))
        head = data.draw(st.lists(coeff, min_size=len(edges), max_size=32))
        coeffs = edges + head + [0] * (ring.degree - len(edges) - len(head))
        poly = RnsPolynomial.from_int_coeffs(ring, moduli, coeffs)
        assert poly.to_int_coeffs() == coeffs
        want = encoder.slots_from_coeffs(np.array([float(c) for c in coeffs]) / 2.0**20)
        assert np.array_equal(encoder.decode(poly, 2.0**20), want)

    @pytest.mark.parametrize("moduli, vectorised", CHAINS)
    def test_path_taken(self, ring, encoder, monkeypatch, moduli, vectorised):
        calls = []
        original = RnsPolynomial.to_int_coeffs
        monkeypatch.setattr(
            RnsPolynomial, "to_int_coeffs", lambda self: calls.append(1) or original(self)
        )
        zero = np.zeros((len(moduli), ring.degree), dtype=np.uint64)
        encoder.decode(RnsPolynomial(ring, moduli, zero, ntt_form=False), 2.0**20)
        assert bool(calls) != vectorised
