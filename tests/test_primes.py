"""Tests for the NTT-friendly prime search (paper S3.1 machinery)."""

import time

import pytest

from repro.ckks.context import make_params
from repro.params.presets import build_native_ckks_params
from repro.params.primes import (
    MAX_DS_PRODUCT_DEVIATION,
    MAX_SS_DEVIATION,
    PrimeScarcityError,
    find_aux_primes,
    find_ds_pairs,
    find_ntt_primes,
    find_ss_primes,
    min_ds_scale_bits,
    relative_deviation,
)
from repro.rns.modmath import is_probable_prime

TWO_N_FULL = 1 << 17  # the paper's N = 2^16
TWO_N_SMALL = 1 << 12


class TestFindNttPrimes:
    def test_congruence_and_primality(self):
        primes = find_ntt_primes(TWO_N_SMALL, 2**28, 10, max_value=2**31)
        assert len(primes) == 10
        for p in primes:
            assert p % TWO_N_SMALL == 1
            assert is_probable_prime(p)

    def test_sorted_and_distinct(self):
        primes = find_ntt_primes(TWO_N_SMALL, 2**28, 8, max_value=2**31)
        assert primes == sorted(set(primes))

    def test_respects_exclusions(self):
        first = find_ntt_primes(TWO_N_SMALL, 2**28, 4, max_value=2**31)
        second = find_ntt_primes(
            TWO_N_SMALL, 2**28, 4, max_value=2**31, exclude=set(first)
        )
        assert not set(first) & set(second)

    def test_deviation_bound(self):
        primes = find_ntt_primes(
            TWO_N_SMALL, 2**28, 5, max_value=2**31, max_deviation=0.01
        )
        for p in primes:
            assert relative_deviation(p, 2**28) <= 0.01

    def test_scarcity_raises(self):
        with pytest.raises(PrimeScarcityError):
            find_ntt_primes(TWO_N_FULL, 2**18, 5, max_value=2**19)


class TestSsPrimes:
    def test_near_scale(self):
        primes = find_ss_primes(TWO_N_SMALL, 28, 6, word_bits=31)
        for p in primes:
            assert relative_deviation(p, 2**28) <= MAX_SS_DEVIATION

    def test_scale_must_fit_word(self):
        with pytest.raises(PrimeScarcityError):
            find_ss_primes(TWO_N_FULL, 35, 1, word_bits=28)


class TestDsPairs:
    def test_products_near_scale(self):
        pairs = find_ds_pairs(TWO_N_FULL, 62, 11, word_bits=36)
        assert len(pairs) == 11
        seen = set()
        for a, b in pairs:
            assert a % TWO_N_FULL == 1 and b % TWO_N_FULL == 1
            assert relative_deviation(a * b, 2**62) <= MAX_DS_PRODUCT_DEVIATION
            assert a < 2**36 and b < 2**36
            assert a not in seen and b not in seen
            seen.update((a, b))

    def test_paper_min_scale_is_47_bits(self):
        """Observation (3): Set_28/Set_32 cannot scale below 2^47."""
        assert min_ds_scale_bits(TWO_N_FULL, 8, 32) == 47
        assert min_ds_scale_bits(TWO_N_FULL, 8, 28) == 47

    def test_scale_35_unreachable_on_short_words(self):
        with pytest.raises(PrimeScarcityError):
            find_ds_pairs(TWO_N_FULL, 35, 8, word_bits=28)

    def test_small_ring_has_plenty(self):
        pairs = find_ds_pairs(TWO_N_SMALL, 40, 12, word_bits=31)
        assert len(pairs) == 12


class TestLazySmallSidePool:
    """The small-side pool is walked lazily from the top; these chains
    were computed with the eager pool (PR 20's tree) and must not move."""

    def test_pairs_are_the_eager_pool_s(self):
        assert find_ds_pairs(2048, 60.0, 3, 62) == [
            (1073707009, 1073754113), (1073698817, 1073815553), (1073692673, 1073750017),
        ]  # fmt: skip
        assert find_ds_pairs(TWO_N_FULL, 62, 11, word_bits=36) == [
            (2147352577, 2146959361), (2146041857, 2148794369), (2144468993, 2150760449),
            (2142502913, 2152071169), (2135818241, 2158231553), (2135162881, 2161508353),
            (2135031809, 2156265473), (2134638593, 2155610113), (2132279297, 2165702657),
            (2130706433, 2166620161), (2130444289, 2167013377),
        ]  # fmt: skip

    def test_bootstrap_n9_chain(self):
        """The DS boot levels of ``benchmarks/e2e``'s bootstrap parameters."""
        params = make_params(
            degree=1 << 9, slots=256, scale_bits=23, depth=2,
            boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
        )  # fmt: skip
        assert params.q_primes == (
            1073738753, 8380417, 8383489,
            33550337, 33564673, 33540097, 33573889, 33538049, 33574913, 33533953,
            33586177, 33519617, 33604609, 33510401, 33616897, 33481729, 33617921,
            33469441, 33650689, 33461249, 33657857, 33458177, 33673217, 33445889,
            33681409, 33433601, 33684481, 33426433, 33687553, 33411073, 33697793,
        )  # fmt: skip
        assert params.aux_primes == (
            1073750017, 1073753089, 1073754113, 1073759233, 1073775617,
            1073814529, 1073815553, 1073820673, 1073842177,
        )  # fmt: skip

    def test_native_62_bit_preset_builds_fast(self):
        """Its 68-bit base pair cost 85 s (16.8 M primality tests) eagerly."""
        start = time.perf_counter()
        params = build_native_ckks_params(62, degree=1 << 10, depth=3)
        assert time.perf_counter() - start < 5.0
        assert params.q_primes == (
            17179826177, 17179912193,
            2305843009213683713, 2305843009213704193, 2305843009213745153,
        )  # fmt: skip
        assert params.aux_primes == (
            2305843009213757441, 2305843009213800449, 2305843009213806593,
        )  # fmt: skip


class TestAuxPrimes:
    def test_above_min_value(self):
        aux = find_aux_primes(TWO_N_SMALL, 4, min_value=2**28, word_bits=31)
        assert len(aux) == 4
        assert all(p > 2**28 for p in aux)
        assert aux == sorted(aux)

    def test_word_cap_respected(self):
        with pytest.raises(PrimeScarcityError):
            find_aux_primes(TWO_N_SMALL, 4, min_value=2**31 - 2, word_bits=31)
