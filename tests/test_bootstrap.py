"""Tests for CKKS bootstrapping (ModRaise / CtS / EvalMod / StC)."""

import math

import numpy as np
import pytest

from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.context import CkksContext, make_params
from repro.ckks.ops import Evaluator


@pytest.fixture(scope="module")
def bts(boot_context, boot_evaluator):
    return Bootstrapper(boot_context, boot_evaluator)


def full_msg(rng, n=512):
    return rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)


class TestModRaise:
    def test_raises_to_max_level(self, boot_context, boot_evaluator, bts, rng):
        m = full_msg(rng)
        ct = boot_context.encrypt(m)
        ev = boot_evaluator
        while ct.level > 0:
            ct = ev.consume_level(ct)
        raised = bts.mod_raise(ct)
        assert raised.level == boot_context.params.max_level
        assert raised.scale == ct.scale

    def test_raised_value_congruent_mod_q0(self, boot_context, boot_evaluator, bts, rng):
        """Decrypting the raised ciphertext mod q0 recovers the message."""
        m = full_msg(rng)
        ev = boot_evaluator
        ct = boot_context.encrypt(m)
        while ct.level > 0:
            ct = ev.consume_level(ct)
        raised = bts.mod_raise(ct)
        s = boot_context.keys.secret_poly(raised.moduli)
        coeffs = (raised.c0 + raised.c1 * s).to_int_coeffs()
        q0 = bts.q0
        centered = [((c + q0 // 2) % q0) - q0 // 2 for c in coeffs]
        n = boot_context.params.degree
        back = boot_context.encoder.slots_from_coeffs(
            np.array(centered, dtype=np.float64) / ct.scale
        )
        assert np.max(np.abs(back - m)) < 1e-3

    def test_requires_level_zero(self, boot_context, bts, rng):
        ct = boot_context.encrypt(full_msg(rng))
        with pytest.raises(ValueError):
            bts.mod_raise(ct)


@pytest.mark.slow
class TestBootstrap:
    def test_precision(self, boot_context, boot_evaluator, bts, rng):
        """Bootstrapping keeps >= 10 bits at the 2^23 working scale,
        mirroring Table 2's low-scale row (13.37 bits at 2^27)."""
        m = full_msg(rng)
        ev = boot_evaluator
        ct = boot_context.encrypt(m)
        while ct.level > 0:
            ct = ev.consume_level(ct)
        out, report = bts.bootstrap(ct)
        err = np.max(np.abs(boot_context.decrypt(out) - m))
        assert -math.log2(err) > 10

    def test_restores_usable_levels(self, boot_context, boot_evaluator, bts, rng):
        m = full_msg(rng)
        ev = boot_evaluator
        ct = boot_context.encrypt(m)
        while ct.level > 0:
            ct = ev.consume_level(ct)
        out, report = bts.bootstrap(ct)
        assert out.level == boot_context.params.usable_level
        assert out.scale == boot_context.params.scale
        assert report.levels_consumed <= boot_context.params.boot_levels + 1

    def test_auto_adjusts_input_above_level_zero(
        self, boot_context, boot_evaluator, bts, rng
    ):
        m = full_msg(rng)
        ct = boot_context.encrypt(m)  # level 2, not exhausted
        out, _ = bts.bootstrap(ct)
        assert np.max(np.abs(boot_context.decrypt(out) - m)) < 2e-3

    def test_repeated_cycles_stable(self, boot_context, boot_evaluator, bts, rng):
        """Error does not explode across bootstrap cycles."""
        m = full_msg(rng)
        ev = boot_evaluator
        ct = boot_context.encrypt(m)
        errs = []
        for _ in range(2):
            ct = ev.multiply_plain(
                ct, boot_context.encode(np.full(512, 0.8), level=ct.level)
            )
            m = m * 0.8
            ct, _ = bts.bootstrap(ct)
            errs.append(np.max(np.abs(boot_context.decrypt(ct) - m)))
        assert errs[-1] < 4 * max(errs[0], 1e-4)

    def test_computation_after_bootstrap(self, boot_context, boot_evaluator, bts, rng):
        m = full_msg(rng)
        ev = boot_evaluator
        ct, _ = bts.bootstrap(boot_context.encrypt(m))
        m2 = full_msg(rng)
        out = ev.multiply(ct, boot_context.encrypt(m2, level=ct.level))
        assert np.max(np.abs(boot_context.decrypt(out) - m * m2)) < 3e-3


@pytest.mark.slow
@pytest.mark.parametrize("seed", (11, 12))
def test_precision_floor_at_the_benchmark_parameters(seed):
    """``bootstrap_n9``'s parameters: one rescale and one ModDown per BSGS
    stage round less often than one per giant step (13.9-14.1 bits then,
    15.0-15.5 now)."""
    params = make_params(
        degree=1 << 9, slots=256, scale_bits=23, depth=2,
        boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
    )  # fmt: skip
    ctx = CkksContext(params, seed=seed)
    m = full_msg(np.random.default_rng(seed), n=256)
    out, report = Bootstrapper(ctx, Evaluator(ctx)).bootstrap(ctx.encrypt(m, level=0))
    assert report.output_level == 2
    assert -math.log2(np.max(np.abs(ctx.decrypt(out) - m))) >= 14.5


def test_coeff_to_slot_and_slot_to_coeff_are_c_linear():
    """Full packing puts ``i`` at every slot root's ``N/2``-th power, so
    ``z -> m[:n] + i*m[n:]`` and its inverse need no conjugate part."""
    params = make_params(
        degree=1 << 9, slots=256, scale_bits=23, depth=2,
        boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
    )  # fmt: skip
    ctx = CkksContext(params, seed=5)
    bts = Bootstrapper(ctx, Evaluator(ctx))
    assert bts.cts.conj_matrix is None and bts.stc.conj_matrix is None
    n = params.slots
    nu = params.scale / (2.0 * bts.q0 * bts.k_range)
    back = bts.q0 * bts.k_range / params.scale
    rng = np.random.default_rng(5)
    for _ in range(3):
        z = full_msg(rng, n=n)
        m = ctx.encoder.coeffs_from_slots(z)
        c = m[:n] + 1j * m[n:]
        assert np.allclose(bts.cts.reference_apply(z), nu * c, rtol=0, atol=1e-12 * nu)
        assert np.allclose(bts.stc.reference_apply(c), back * z, rtol=0, atol=1e-12 * back)


class TestConstruction:
    def test_requires_full_packing(self):
        params = make_params(
            degree=1 << 10, slots=128, scale_bits=23, depth=2,
            boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
        )
        ctx = CkksContext(params)
        with pytest.raises(ValueError):
            Bootstrapper(ctx, Evaluator(ctx))

    def test_requires_boot_levels(self):
        params = make_params(degree=1 << 10, slots=512, scale_bits=23, depth=3)
        ctx = CkksContext(params)
        with pytest.raises(ValueError):
            Bootstrapper(ctx, Evaluator(ctx))

    def test_k_range_tracks_hamming_weight(self, boot_context, boot_evaluator):
        b = Bootstrapper(boot_context, boot_evaluator, k_range=11)
        assert b.k_range == 11
        assert b.sin_degree > 2 * math.pi * 11
