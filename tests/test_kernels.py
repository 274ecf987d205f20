"""Property tests for the wide-modulus kernel layer (repro.rns.kernels).

Every primitive is cross-validated against the Python-int golden model
(arbitrary precision, trivially correct) at 28-, 36-, 50-, and 62-bit
primes — below, at, and near the ends of the ``q < 2**62`` fast-path
range the emulated 128-bit arithmetic must cover.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ntt.reference import NttChain, NttContext
from repro.params.primes import find_ntt_primes
from repro.rns import kernels


def _prime(bits: int, two_n: int = 64, index: int = 0) -> int:
    primes = find_ntt_primes(
        two_n,
        float(2**bits * 0.9),
        index + 1,
        max_value=min(2 ** (bits + 1), kernels.FAST_MODULUS_LIMIT) - 1,
        min_value=2 ** (bits - 1),
    )
    return primes[index]


# One prime per width class; 62-bit sits just under FAST_MODULUS_LIMIT.
PRIMES = {bits: _prime(bits) for bits in (28, 36, 50, 62)}

u64 = st.integers(min_value=0, max_value=2**64 - 1)


class TestWideMultiply:
    @given(u64, u64)
    @settings(max_examples=200, deadline=None)
    def test_mul_hi_matches_python_ints(self, a, b):
        assert int(kernels.mul_hi(np.uint64(a), np.uint64(b))) == (a * b) >> 64


@pytest.mark.parametrize("bits", sorted(PRIMES))
class TestModulusKernel:
    def _samples(self, q, rng, count=512):
        a = rng.integers(0, q, count, dtype=np.uint64)
        b = rng.integers(0, q, count, dtype=np.uint64)
        return a, b

    def test_mul_matches_golden(self, bits):
        q = PRIMES[bits]
        kern = kernels.kernel_for(q)
        a, b = self._samples(q, np.random.default_rng(bits))
        got = kern.mul(a, b)
        ref = [int(x) * int(y) % q for x, y in zip(a, b)]
        assert [int(v) for v in got] == ref

    def test_mul_edge_residues(self, bits):
        q = PRIMES[bits]
        kern = kernels.kernel_for(q)
        edge = np.array([0, 1, 2, q - 2, q - 1, q // 2], dtype=np.uint64)
        a, b = np.meshgrid(edge, edge)
        got = kern.mul(a.ravel(), b.ravel())
        ref = [int(x) * int(y) % q for x, y in zip(a.ravel(), b.ravel())]
        assert [int(v) for v in got] == ref

    def test_barrett_reduce64_matches_golden(self, bits):
        q = PRIMES[bits]
        kern = kernels.kernel_for(q)
        rng = np.random.default_rng(bits + 1)
        x = rng.integers(0, 2**64, 512, dtype=np.uint64)
        lazy = kern.reduce64_lazy(x)
        assert all(int(v) < 2 * q for v in lazy)
        assert all(int(v) % q == int(x_) % q for v, x_ in zip(lazy, x))

    def test_shoup_mul_matches_golden(self, bits):
        q = PRIMES[bits]
        rng = np.random.default_rng(bits + 2)
        a = rng.integers(0, q, 512, dtype=np.uint64)
        for w in (1, 2, q - 1, int(rng.integers(0, q))):
            w_shoup = kernels.shoup_precompute(w, q)
            got = kernels.shoup_mul(a, np.uint64(w), w_shoup, np.uint64(q))
            assert [int(v) for v in got] == [int(x) * w % q for x in a]
            lazy = kernels.shoup_mul_lazy(a, np.uint64(w), w_shoup, np.uint64(q))
            assert all(int(v) < 2 * q for v in lazy)

    def test_add_sub_neg_match_golden(self, bits):
        q = PRIMES[bits]
        kern = kernels.kernel_for(q)
        a, b = self._samples(q, np.random.default_rng(bits + 3), 256)
        assert [int(v) for v in kern.add(a, b)] == [
            (int(x) + int(y)) % q for x, y in zip(a, b)
        ]
        assert [int(v) for v in kern.sub(a, b)] == [
            (int(x) - int(y)) % q for x, y in zip(a, b)
        ]
        assert [int(v) for v in kern.neg(a)] == [(-int(x)) % q for x in a]

    def test_sum_mod_matches_golden(self, bits):
        q = PRIMES[bits]
        kern = kernels.kernel_for(q)
        rng = np.random.default_rng(bits + 4)
        # terms up to 2q (the lazy range sum_mod accepts), 40 rows deep
        terms = rng.integers(0, min(2 * q, 2**63), (40, 64), dtype=np.uint64)
        got = kern.sum_mod(terms, axis=0)
        ref = [int(sum(int(v) for v in terms[:, k])) % q for k in range(64)]
        assert [int(v) for v in got] == ref


@pytest.mark.parametrize(
    "q_max, terms",
    [((1 << 36) - 1, 126), ((1 << 31) - 1, 4094), (kernels.NARROW_SPLIT_LIMIT - 1, 2)],
    ids=["36-bit", "31-bit", "split-limit"],
)
def test_lazy_inner_terms_are_the_documented_counts(q_max, terms):
    """A lower count is still correct, only slower: pin the docstring's."""
    assert kernels.lazy_inner_terms(q_max) == terms


class TestChainKernel:
    def test_chain_mode_matches_scalar_kernels(self):
        mods = [PRIMES[28], PRIMES[36], PRIMES[50]]
        chain = kernels.ModulusKernel(mods)
        rng = np.random.default_rng(9)
        a = np.stack([rng.integers(0, q, 128, dtype=np.uint64) for q in mods])
        b = np.stack([rng.integers(0, q, 128, dtype=np.uint64) for q in mods])
        got = chain.mul(a, b)
        for i, q in enumerate(mods):
            expect = kernels.kernel_for(q).mul(a[i], b[i])
            assert np.array_equal(got[i], expect)

    def test_rejects_out_of_range_moduli(self):
        with pytest.raises(ValueError):
            kernels.ModulusKernel(1 << 62)
        with pytest.raises(ValueError):
            kernels.ModulusKernel([97, 2])


@pytest.mark.parametrize(
    "bits",
    [pytest.param(bits, marks=pytest.mark.slow) if bits == 62 else bits for bits in sorted(PRIMES)],
)
class TestNttRoundtrip:
    def test_roundtrip_bit_exact(self, bits):
        ctx = NttContext(64, _prime(bits, two_n=128))
        rng = np.random.default_rng(bits + 6)
        a = rng.integers(0, ctx.modulus, 64, dtype=np.uint64)
        assert np.array_equal(ctx.inverse(ctx.forward(a)), a)

    def test_forward_matches_golden_evaluation(self, bits):
        q = _prime(bits, two_n=32)
        n = 16
        ctx = NttContext(n, q)
        rng = np.random.default_rng(bits + 7)
        a = rng.integers(0, q, n, dtype=np.uint64)
        got = ctx.forward(a)
        for k in range(n):
            x = pow(ctx.psi, 2 * k + 1, q)
            acc = 0
            for c in reversed([int(v) for v in a]):
                acc = (acc * x + c) % q
            assert int(got[k]) == acc


class TestNttChain:
    def test_chain_matches_per_plan_transforms(self):
        mods = [_prime(b, two_n=128) for b in (28, 36, 50)]
        plans = [NttContext(64, q) for q in mods]
        chain = NttChain(plans)
        rng = np.random.default_rng(13)
        limbs = np.stack([rng.integers(0, q, 64, dtype=np.uint64) for q in mods])
        fwd = chain.forward_all(limbs)
        for i, p in enumerate(plans):
            assert np.array_equal(fwd[i], p.forward(limbs[i]))
        assert np.array_equal(chain.inverse_all(fwd), limbs)

    def test_stacked_and_fallback_paths_agree(self):
        """The cache-size dispatch must be invisible to callers."""
        mods = [_prime(b, two_n=128) for b in (36, 50)]
        chain = NttChain([NttContext(64, q) for q in mods])
        rng = np.random.default_rng(14)
        limbs = np.stack([rng.integers(0, q, 64, dtype=np.uint64) for q in mods])
        stacked_fwd = chain.forward_all(limbs)
        chain.STACKED_MAX_ELEMS = 0  # force the limb-at-a-time path
        assert np.array_equal(chain.forward_all(limbs), stacked_fwd)
        assert np.array_equal(chain.inverse_all(stacked_fwd), limbs)


@given(st.integers(min_value=0), st.integers(min_value=0))
@settings(max_examples=100, deadline=None)
def test_hypothesis_mulmod_wide_prime(a, b):
    q = PRIMES[36]
    x, y = a % q, b % q
    got = kernels.kernel_for(q).mul(np.uint64(x), np.uint64(y))
    assert int(got) == x * y % q
