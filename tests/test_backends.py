"""The kernel backend against exact arithmetic, and the evaluator against the oracle.

``NumpyBackend``'s hot operations must return the canonical residues of
plain integer arithmetic across the word lengths the service catalogue
spans (28/36/50/62 bits — float-quotient lane on and off); on top of
them ``Evaluator.rescale`` / ``_tensor_cross`` / ``multiply`` / ``rotate``
must match ``tests/oracle.py`` bit for bit.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.ops import Evaluator
from repro.ntt.plan import NttPlan
from repro.ntt.reference import NttChain, NttContext
from repro.params.presets import NATIVE_WORD_LENGTHS
from repro.params.primes import find_ntt_primes
from repro.rns import kernels
from repro.rns.backend import NumpyBackend, resolve_backend
from repro.rns.bconv import BaseConverter
from repro.rns.poly import RnsPolynomial
from tests.oracle import rescale_oracle, rotate_oracle, switch_oracle
from tests.test_residency import _levels, _message, _preset

N = 64  # elementwise / keyswitch degree (two_n = 128 NTT-friendly)


def _primes(two_n: int, bits: int, count: int, exclude=None) -> tuple[int, ...]:
    return tuple(
        find_ntt_primes(
            two_n,
            float(2**bits * 0.9),
            count,
            max_value=min(2 ** (bits + 1), kernels.FAST_MODULUS_LIMIT) - 1,
            min_value=2 ** (bits - 1),
            exclude=exclude,
        )
    )


_CHAINS: dict[tuple[int, int], tuple[int, ...]] = {}


def _chain(two_n: int, bits: int, count: int) -> tuple[int, ...]:
    key = (two_n, bits)
    if key not in _CHAINS or len(_CHAINS[key]) < count:
        _CHAINS[key] = _primes(two_n, bits, count)
    return _CHAINS[key][:count]


def _limbs(moduli, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.stack(
        [rng.integers(0, q, n, dtype=np.uint64) for q in moduli]
    )


# -- elementwise parity ------------------------------------------------------


class TestElementwiseParity:
    @pytest.mark.parametrize("bits", NATIVE_WORD_LENGTHS)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_mul_add_match_numpy(self, bits, seed):
        moduli = _chain(2 * N, bits, 3)
        kern = kernels.ModulusKernel(moduli)
        a = _limbs(moduli, N, seed)
        b = _limbs(moduli, N, seed + 1)
        backend = NumpyBackend()
        q_col = np.array(moduli, dtype=object).reshape(-1, 1)
        assert np.array_equal(
            backend.mul(kern, a, b),
            (a.astype(object) * b.astype(object) % q_col).astype(np.uint64),
        )
        assert np.array_equal(
            backend.add(kern, a, b),
            ((a.astype(object) + b.astype(object)) % q_col).astype(np.uint64),
        )


# -- NTT parity: plan and backend vs reference chain -------------------------


class TestNttParity:
    @pytest.mark.parametrize("bits", NATIVE_WORD_LENGTHS)
    @pytest.mark.parametrize("degree", (256, 1024))
    def test_plan_matches_reference_chain(self, bits, degree):
        """Plan output == NttChain output, forward and inverse.

        degree = 256 and 1024 split at different transpose points
        (T = 4 and 8); 50/62-bit chains run the reference transforms
        inside the plan.
        """
        moduli = _chain(2 * degree, bits, 2)
        contexts = [NttContext(degree, q) for q in moduli]
        plan = NttPlan(contexts)
        chain = NttChain(contexts)
        x = _limbs(moduli, degree, seed=bits * degree)
        fwd_plan = plan.forward_all(x.copy())
        fwd_chain = chain.forward_all(x.copy())
        assert np.array_equal(fwd_plan, fwd_chain)
        inv_plan = plan.inverse_all(fwd_plan.copy())
        inv_chain = chain.inverse_all(fwd_chain.copy())
        assert np.array_equal(inv_plan, inv_chain)
        assert np.array_equal(inv_plan, x)  # round trip

    @pytest.mark.parametrize("bits", (36, 62))
    def test_backends_match_numpy(self, bits):
        degree = 1024
        moduli = _chain(2 * degree, bits, 2)
        contexts = [NttContext(degree, q) for q in moduli]
        plan, chain = NttPlan(contexts), NttChain(contexts)
        x = _limbs(moduli, degree, seed=17)
        backend = NumpyBackend()
        forward = backend.ntt_forward_all(plan, x.copy())
        assert np.array_equal(forward, chain.forward_all(x.copy()))
        assert np.array_equal(backend.ntt_inverse_all(plan, forward.copy()), x)


# -- BConv parity ------------------------------------------------------------


class TestBconvParity:
    @pytest.mark.parametrize("bits", NATIVE_WORD_LENGTHS)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_backends_match_legacy_rows(self, bits, seed):
        src = _chain(2 * N, bits, 3)
        dst = _primes(2 * N, bits - 1, 2, exclude=set(src))
        conv = BaseConverter(src, dst)
        limbs = _limbs(src, N, seed)
        want = conv._convert_rows_wide(limbs)
        assert np.array_equal(conv.convert_rows(limbs), want)
        assert np.array_equal(NumpyBackend().bconv(conv, limbs), want)


# -- key-switch inner product parity -----------------------------------------


class TestKeyswitchInnerParity:
    @pytest.mark.parametrize("bits", NATIVE_WORD_LENGTHS)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=5, deadline=None)
    def test_backends_match_naive_sum(self, bits, seed):
        """Full-basis key tensors (3 q-primes + 2 aux), a lower level and the top one."""
        basis = _chain(2 * N, bits, 5)
        total, digits = 3, 3
        b_stack = np.stack([_limbs(basis, N, seed + 10 + d) for d in range(digits)])
        a_stack = np.stack([_limbs(basis, N, seed + 20 + d) for d in range(digits)])
        full = kernels.ModulusKernel(basis)
        tables = (None, None)
        if full.float_ok:  # the calling convention of KeySwitcher.apply
            tables = tuple(
                kernels.shoup_precompute(stack, full.q).astype(np.float64) * 2.0**-64
                for stack in (b_stack, a_stack)
            )
        for level in (1, total):
            keep = [*range(level), *range(total, len(basis))]
            moduli = tuple(basis[i] for i in keep)
            used = 2 if level == 1 else digits  # fewer active digits below the top
            ext = np.stack([_limbs(moduli, N, seed + d) for d in range(used)])
            q_col = np.array(moduli, dtype=object).reshape(-1, 1)
            got = NumpyBackend().keyswitch_inner(
                kernels.ModulusKernel(moduli), ext, b_stack, a_stack, *tables, level
            )
            for out, stack in zip(got, (b_stack, a_stack)):
                exact = (ext.astype(object) * stack[:used, keep].astype(object)).sum(axis=0)
                assert np.array_equal(out, (exact % q_col).astype(np.uint64))


# -- lazy plaintext inner product parity --------------------------------------


def _plain_inner_oracle(moduli, xs, ps) -> np.ndarray:
    """``sum_j xs[j] * ps[j] mod q`` in Python integers."""
    q_col = np.array(moduli, dtype=object).reshape(-1, 1)
    total = sum(x.astype(object) * p.astype(object) for x, p in zip(xs, ps))
    return (total % q_col).astype(np.uint64)


class TestPlainInnerParity:
    """28/36/40 bits accumulate lazily (40 bits: a chunk of a few terms);
    50/62 bits take canonical mul + add."""

    @staticmethod
    def _term_counts(kern) -> tuple[int, ...]:
        if not (kern.float_ok and kern.split):
            return (1, 2, 7)
        n = kernels.lazy_inner_terms(kern.q_max)
        return (1, n, n + 1, 2 * n + 3) if n < 200 else (1, 2, 7)

    @pytest.mark.parametrize("bits", (28, 36, 40, *NATIVE_WORD_LENGTHS[2:]))
    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_matches_python_integers(self, bits, data):
        moduli = _chain(2 * N, bits, 3)
        kern = kernels.ModulusKernel(moduli)
        terms = data.draw(st.sampled_from(self._term_counts(kern)))
        seed = data.draw(st.integers(min_value=0, max_value=2**32 - 1))
        scalar = data.draw(st.lists(st.booleans(), min_size=terms, max_size=terms))
        xs = [_limbs(moduli, N, seed + j) for j in range(terms)]
        # A scalar-constant plaintext arrives as its (L, 1) column.
        ps = [_limbs(moduli, 1 if scalar[j] else N, seed + 1000 + j) for j in range(terms)]
        got = NumpyBackend().plain_inner(kern, xs, ps)
        assert got.dtype == np.uint64
        assert np.array_equal(got, _plain_inner_oracle(moduli, xs, ps))

    @pytest.mark.parametrize("bits", (28, 36, 40))
    def test_a_full_chunk_of_worst_case_residues(self, bits):
        """Every operand ``q - 1``: the partial sums the bound chain walks."""
        moduli = _chain(2 * N, bits, 3)
        kern = kernels.ModulusKernel(moduli)
        n = min(kernels.lazy_inner_terms(kern.q_max), 300)
        top = np.array(moduli, dtype=np.uint64).reshape(-1, 1) - np.uint64(1)
        x = np.broadcast_to(top, (len(moduli), N)).copy()
        for terms in (n, n + 1):
            got = NumpyBackend().plain_inner(kern, [x] * terms, [x] * terms)
            assert np.array_equal(got, _plain_inner_oracle(moduli, [x] * terms, [x] * terms))


# -- the contract benchmarks/e2e relies on -----------------------------------


class TestBackendContract:
    def test_single_engine_no_environment(self):
        """No module under src/repro reads the environment, and the one
        backend keeps the name and the six methods the traced benchmark
        (``benchmarks/e2e/hooks.py`` / ``worker.py``) wraps from outside."""
        src = Path(__file__).resolve().parents[1] / "src" / "repro"
        for path in sorted(src.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                names = set()
                if isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.ImportFrom) and node.module == "os":
                    names = {alias.name for alias in node.names}
                assert not names & {"environ", "getenv"}, f"{path}:{node.lineno}"
        backend = resolve_backend()
        assert backend.name == "numpy"
        hooked = ("ntt_forward_all", "ntt_inverse_all", "bconv", "mul", "add", "keyswitch_inner")
        assert all(callable(vars(type(backend)).get(method)) for method in hooked)


class TestRegistry:
    def test_kernel_for_lru_identity_and_stats(self):
        q = _chain(2 * N, 36, 1)[0]
        before = kernels._kernel_cached.cache_info()
        k1 = kernel = kernels.kernel_for(q)
        k2 = kernels.kernel_for(q)
        assert k1 is k2
        after = kernels._kernel_cached.cache_info()
        assert after.hits > before.hits
        assert after.currsize <= after.maxsize
        assert kernel.q == np.uint64(q)


# -- end-to-end: the evaluator against the integer oracle --------------------


def _exact_mul(a, b):
    q_col = np.array(a.moduli, dtype=object).reshape(-1, 1)
    return (a.limbs.astype(object) * b.limbs.astype(object)) % q_col


class TestEvaluatorVsOracle:
    @pytest.mark.parametrize("bits", (*NATIVE_WORD_LENGTHS, "ds"))
    def test_rescale_and_tensor_cross_bit_exact(self, bits):
        """SS single primes on the four word lengths, a DS pair on ``ds``."""
        ctx = _preset(bits)
        ev = Evaluator(ctx)
        for level in _levels(ctx):
            a, b = (ctx.encrypt(_message(ctx, seed), level=level) for seed in (1, 2))
            q_col = np.array(a.moduli, dtype=object).reshape(-1, 1)
            cross = (_exact_mul(a.c0, b.c1) + _exact_mul(a.c1, b.c0)) % q_col
            assert np.array_equal(ev._tensor_cross(a, b).limbs, cross.astype(np.uint64))
            if level:
                count = len(ctx.params.step_at(level).primes)
                assert count == (2 if bits == "ds" else 1)
                out = ev.rescale(a)
                assert np.array_equal(out.c0.limbs, rescale_oracle(a.c0, count))
                assert np.array_equal(out.c1.limbs, rescale_oracle(a.c1, count))

    def test_hmult_and_rotate_bit_exact(self):
        """``multiply`` = tensor, oracle switch of ``d2``, oracle rescale;
        ``rotate`` / ``conjugate`` = the decompose-first ``rotate_oracle``
        on every word length, including a second rotation of the same
        ciphertext (the memoised digits)."""
        ctx = _preset(36)
        params, ev = ctx.params, Evaluator(ctx)
        a, b = (ctx.encrypt(_message(ctx, seed)) for seed in (3, 4))
        q_col = np.array(a.moduli, dtype=object).reshape(-1, 1)

        def poly(values):
            return RnsPolynomial(ctx.ring, a.moduli, (values % q_col).astype(np.uint64), True)

        u0, u1 = switch_oracle(params, poly(_exact_mul(a.c1, b.c1)), ctx.keys.relinearization_key())
        d1 = _exact_mul(a.c0, b.c1) + _exact_mul(a.c1, b.c0)
        product = ev.multiply(a, b)
        assert np.array_equal(product.c0.limbs, rescale_oracle(poly(_exact_mul(a.c0, b.c0) + u0), 1))
        assert np.array_equal(product.c1.limbs, rescale_oracle(poly(d1 + u1), 1))

        for bits in NATIVE_WORD_LENGTHS:
            ctx = _preset(bits)
            ev, ct = Evaluator(ctx), ctx.encrypt(_message(ctx, 3))
            for galois, rotated in (
                (ctx.ring.galois_element(1), lambda: ev.rotate(ct, 1)),
                (ctx.ring.galois_element(5), lambda: ev.rotate(ct, 5)),
                (ctx.ring.conjugation_element, lambda: ev.conjugate(ct)),
            ):
                want = rotate_oracle(ctx.params, ct, galois, ctx.keys.galois_key(galois))
                got = rotated()
                assert np.array_equal(got.c0.limbs, want[0]), (bits, galois)
                assert np.array_equal(got.c1.limbs, want[1]), (bits, galois)
