"""End-to-end tests for the native 36-bit preset (SHARP's robust word).

The same 35-bit scale is realized two ways: as single native 36-bit
primes on the wide kernel path (``build_native_ckks_params``) and as
double-prime pairs under the historical 31-bit word (``make_params``
default).  Both must decrypt — and bootstrap — to the same tolerance;
the native chain is the one SHARP actually runs, the DS chain is the
emulation it replaces.
"""

import math

import numpy as np
import pytest

from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.context import CkksContext, make_params
from repro.ckks.ops import Evaluator
from repro.params.presets import build_native_ckks_params

SLOTS = 256
DEPTH = 4


@pytest.fixture(scope="module")
def native_context() -> CkksContext:
    params = build_native_ckks_params(
        word_bits=36, degree=1 << 11, slots=SLOTS, depth=DEPTH
    )
    return CkksContext(params, seed=1234)


@pytest.fixture(scope="module")
def ds_twin_context() -> CkksContext:
    """Same degree/slots/scale, realized as DS pairs under a 31-bit word."""
    params = make_params(degree=1 << 11, slots=SLOTS, scale_bits=35, depth=DEPTH)
    return CkksContext(params, seed=1234)


def _msg(seed, n=SLOTS):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


class TestNativeChainShape:
    def test_all_levels_single_prime(self, native_context):
        params = native_context.params
        assert all(len(s.primes) == 1 for s in params.steps)

    def test_primes_fit_the_word(self, native_context):
        params = native_context.params
        for q in params.q_primes + params.aux_primes:
            assert q.bit_length() <= 36

    def test_scale_is_word_minus_one(self, native_context):
        assert native_context.params.scale_bits == 35

    def test_ds_twin_actually_uses_pairs(self, ds_twin_context):
        assert all(len(s.primes) == 2 for s in ds_twin_context.params.steps)


class TestNativeMatchesDsTolerance:
    def test_encrypt_decrypt(self, native_context, ds_twin_context):
        m = _msg(7)
        errs = {}
        for name, ctx in (("native", native_context), ("ds", ds_twin_context)):
            back = ctx.decrypt(ctx.encrypt(m))[:SLOTS]
            errs[name] = np.max(np.abs(back - m))
        assert errs["native"] < 1e-6
        assert errs["native"] < 16 * errs["ds"] + 1e-9

    def test_multiply_chain_to_exhaustion(self, native_context, ds_twin_context):
        m = _msg(8)
        errs = {}
        for name, ctx in (("native", native_context), ("ds", ds_twin_context)):
            ev = Evaluator(ctx)
            ct = ctx.encrypt(m)
            acc = m.copy()
            for _ in range(DEPTH - 1):
                ct = ev.multiply(ct, ctx.encrypt(m, level=ct.level))
                acc = acc * m
            errs[name] = np.max(np.abs(ctx.decrypt(ct)[:SLOTS] - acc))
        assert errs["native"] < 1e-4
        assert errs["native"] < 16 * errs["ds"] + 1e-9

    def test_rotation(self, native_context, ds_twin_context):
        m = _msg(9)
        for ctx in (native_context, ds_twin_context):
            ev = Evaluator(ctx)
            out = ctx.decrypt(ev.rotate(ctx.encrypt(m), 3))[:SLOTS]
            assert np.max(np.abs(out - np.roll(m, -3))) < 1e-5


class TestNativeBootstrap:
    """Bootstrapping over the native chain reaches the DS chain's precision."""

    BOOT = dict(
        degree=1 << 10, slots=512, depth=2, boot_scale_bits=50, boot_depth=14,
        dnum=4, hamming_weight=16,
    )

    @pytest.fixture(scope="class")
    def boot_pair(self):
        native = CkksContext(make_params(scale_bits=35.0, word_bits=36, **self.BOOT), seed=99)
        ds = CkksContext(make_params(scale_bits=35, **self.BOOT), seed=99)
        return native, ds

    def test_native_normal_levels_are_ss(self, boot_pair):
        native, _ = boot_pair
        normal = native.params.steps[: self.BOOT["depth"]]
        assert all(len(s.primes) == 1 for s in normal)

    @pytest.mark.slow
    def test_bootstrap_same_tolerance(self, boot_pair):
        rng = np.random.default_rng(21)
        m = rng.uniform(-1, 1, 512) + 1j * rng.uniform(-1, 1, 512)
        errs = {}
        for name, ctx in zip(("native", "ds"), boot_pair):
            ev = Evaluator(ctx)
            bts = Bootstrapper(ctx, ev)
            ct = ctx.encrypt(m)
            while ct.level > 0:
                ct = ev.consume_level(ct)
            out, _ = bts.bootstrap(ct)
            errs[name] = np.max(np.abs(ctx.decrypt(out) - m))
        assert -math.log2(errs["native"]) > 10
        # The 21.03 bits of the degree-69 sine with the arcsine, which the
        # cosine keeps here (25.2 bits with it, 19.0 without).
        assert -math.log2(errs["native"]) >= 21
        assert errs["native"] < 8 * errs["ds"] + 1e-9
