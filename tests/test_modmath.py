"""Unit and property tests for modular arithmetic primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rns.modmath import (
    find_primitive_root,
    is_probable_prime,
    mod_inverse,
    nth_root_of_unity,
)

PRIMES = [97, 257, 7681, 40961, 786433, 2147352577]


class TestPrimality:
    def test_small_primes(self):
        for p in (2, 3, 5, 7, 11, 13, 97, 101):
            assert is_probable_prime(p)

    def test_small_composites(self):
        for c in (0, 1, 4, 9, 15, 91, 561, 1105, 131072):
            assert not is_probable_prime(c)

    def test_carmichael_numbers_rejected(self):
        # Classic Fermat pseudoprimes must not fool Miller-Rabin.
        for c in (561, 1729, 2465, 6601, 8911, 41041):
            assert not is_probable_prime(c)

    def test_large_ntt_primes(self):
        assert is_probable_prime(786433)  # 3 * 2^18 + 1
        assert is_probable_prime(2147352577)
        assert not is_probable_prime(786433 * 7681)

    @given(st.integers(min_value=2, max_value=100000))
    @settings(max_examples=200)
    def test_matches_trial_division(self, n):
        by_trial = n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))
        assert is_probable_prime(n) == by_trial


class TestModInverse:
    @pytest.mark.parametrize("p", PRIMES)
    def test_inverse_roundtrip(self, p):
        for a in (1, 2, 17, p - 1, p // 2):
            inv = mod_inverse(a, p)
            assert a * inv % p == 1

    def test_zero_has_no_inverse(self):
        with pytest.raises(ValueError):
            mod_inverse(0, 97)
        with pytest.raises(ValueError):
            mod_inverse(97, 97)

    @given(st.integers(min_value=1, max_value=7680))
    def test_property_7681(self, a):
        assert a * mod_inverse(a, 7681) % 7681 == 1


class TestRoots:
    @pytest.mark.parametrize("p", PRIMES)
    def test_primitive_root_order(self, p):
        g = find_primitive_root(p)
        # g^(p-1) = 1 but no smaller prime-quotient power is 1.
        assert pow(g, p - 1, p) == 1
        n = p - 1
        d = 2
        factors = set()
        while d * d <= n:
            if n % d == 0:
                factors.add(d)
                while n % d == 0:
                    n //= d
            d += 1
        if n > 1:
            factors.add(n)
        for f in factors:
            assert pow(g, (p - 1) // f, p) != 1

    def test_nth_root_of_unity(self):
        root = nth_root_of_unity(32, 97)
        assert pow(root, 32, 97) == 1
        assert pow(root, 16, 97) != 1

    def test_nth_root_requires_divisibility(self):
        with pytest.raises(ValueError):
            nth_root_of_unity(64, 97)  # 96 not divisible by 64
