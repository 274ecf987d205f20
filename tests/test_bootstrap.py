"""Tests for CKKS bootstrapping (ModRaise / CtS / EvalMod / StC)."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

from repro.ckks.bootstrap import Bootstrapper, butterfly_stages
from repro.ckks.context import CkksContext, make_params
from repro.ckks.encoder import CkksEncoder
from repro.ckks.keyswitch import KeySwitcher
from repro.ckks.linear import LinearTransform
from repro.ckks.ops import Evaluator
from repro.rns.backend import NumpyBackend
from repro.rns.poly import RingContext
from repro.workloads.traces import CTS_STAGES
from tests.test_residency import _count_calls


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
    15.0-15.6 now, with two butterfly stages per transform)."""
    params = make_params(
        degree=1 << 9, slots=256, scale_bits=23, depth=2,
        boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
    )  # fmt: skip
    ctx = CkksContext(params, seed=seed)
    m = full_msg(np.random.default_rng(seed), n=256)
    out, report = Bootstrapper(ctx, Evaluator(ctx)).bootstrap(ctx.encrypt(m, level=0))
    assert report.output_level == 2
    assert -math.log2(np.max(np.abs(ctx.decrypt(out) - m))) >= 14.5


@pytest.fixture(scope="module")
def n9():
    """``bootstrap_n9``'s parameters and a bootstrapper over them."""
    params = make_params(
        degree=1 << 9, slots=256, scale_bits=23, depth=2,
        boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
    )  # fmt: skip
    ctx = CkksContext(params, seed=5)
    return ctx, Bootstrapper(ctx, Evaluator(ctx))


def _bit_reversal(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    return np.array([int(f"{j:0{bits}b}"[::-1], 2) for j in range(n)])


def _chain(stages, x: np.ndarray) -> np.ndarray:
    return functools.reduce(lambda v, lt: lt.reference_apply(v), stages, x)


def test_coeff_to_slot_and_slot_to_coeff_are_butterfly_stages(n9):
    """``z = U c`` (``c = m[:n] + i*m[n:]``; full packing puts ``i`` at
    every slot root's ``N/2``-th power, so no conjugate part) factors as
    ``S_8 ... S_1 BR``.  The two spare levels make CtS and StC two merged
    stages each: four butterflies, 31 diagonals ``{-15 .. 15}`` below and
    16 at stride 16 above.  Neither applies ``BR``."""
    ctx, bts = n9
    params = ctx.params
    n = params.slots
    nu = params.scale / (2.0 * bts.q0 * bts.k_range)
    back = bts.q0 * bts.k_range / params.scale
    low, high = sorted(d % n for d in range(-15, 16)), list(range(0, n, 16))
    assert [sorted(lt.diagonals) for lt in bts.cts] == [high, low]
    assert [sorted(lt.diagonals) for lt in bts.stc] == [low, high]
    assert len(low) == 2 ** (4 + 1) - 1
    assert all(lt.conj_diagonals is None for lt in bts.cts + bts.stc)
    br = _bit_reversal(n)
    rng = np.random.default_rng(5)
    for _ in range(3):
        z = full_msg(rng, n=n)
        m = ctx.encoder.coeffs_from_slots(z)
        c = (m[:n] + 1j * m[n:])[br]
        assert np.allclose(_chain(bts.cts, z), nu * c, rtol=0, atol=1e-12 * nu)
        assert np.allclose(_chain(bts.stc, c), back * z, rtol=0, atol=1e-12 * back)


def test_eval_mod_is_two_levels_shallower_than_the_budget(n9):
    """``c3*y^3`` as ``y^2 * (c3*y)``: the arcsine correction costs two
    levels, so EvalMod consumes 8 + 2 = 10 (11 with ``(y^2*y)*c3``) and
    ``boot_depth`` 14 leaves two spare levels for the transforms."""
    ctx, bts = n9
    params = ctx.params
    level = params.max_level - len(bts.cts)
    x = np.random.default_rng(7).uniform(-0.002, 0.002, params.slots)
    shift = np.random.default_rng(8).integers(-3, 4, params.slots) / bts.k_range
    ct = ctx.encrypt(x + shift, level=level, scale=2.0**params.boot_scale_bits)
    out = bts._eval_mod(ct)
    assert level - out.level == bts._evalmod_depth() == 10
    assert params.boot_levels - 10 - 2 == len(bts.cts) + len(bts.stc) - 2
    assert np.max(np.abs(ctx.decrypt(out).real - x)) < 1e-6


@pytest.mark.slow
def test_a_warm_bootstrap_counts_two_stages_per_transform(n9, monkeypatch):
    """Per transform 16 inner products and 8 ModDowns where the dense
    stage took 30 and 16; one rescale more per extra stage."""
    ctx, bts = n9
    z = full_msg(np.random.default_rng(6), n=ctx.params.slots)
    bts.bootstrap(ctx.encrypt(z, level=0))  # compile the stages, generate the keys
    seams = (
        (NumpyBackend, "keyswitch_inner"),
        (KeySwitcher, "mod_down"),
        (NumpyBackend, "plain_inner"),
        (Evaluator, "rescale"),
    )
    calls = [_count_calls(monkeypatch, owner, name) for owner, name in seams]
    out, report = bts.bootstrap(ctx.encrypt(z, level=0))
    assert [len(seen) for seen in calls] == [71, 55, 106, 78]
    assert report.output_level == ctx.params.usable_level
    assert -math.log2(np.max(np.abs(ctx.decrypt(out) - z))) >= 14.5


@pytest.mark.slow
def test_the_paper_scale_stage_plan_is_built_from_twiddles():
    """Set_36's ring (N = 2^16) in the model's ``CTS_STAGES`` stages: no
    2^15 x 2^15 matrix (16 GiB) is formed, and the chained stages are
    the encoder's map."""
    n = 1 << 15
    tracemalloc.start()
    cts = [LinearTransform(stage) for stage in butterfly_stages(n, CTS_STAGES, inverse=True)]
    stc = [LinearTransform(stage) for stage in butterfly_stages(n, CTS_STAGES)]
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 2**28
    # Five butterflies a stage: 2^5 offsets at stride 2^10 on top (they
    # wrap), 2^6 - 1 at strides 2^5 and 1 below.
    assert [len(lt.diagonals) for lt in cts] == [32, 63, 63]
    assert [lt.baby_step() for lt in cts] == [4 << 10, 8 << 5, 8]
    encoder = CkksEncoder(RingContext(2 * n), n)
    rng = np.random.default_rng(36)
    z = full_msg(rng, n=n)
    m = encoder.coeffs_from_slots(z)
    c = (m[:n] + 1j * m[n:])[_bit_reversal(n)]
    assert np.max(np.abs(_chain(cts, z) - c)) < 1e-9
    assert np.max(np.abs(_chain(stc, c) - z)) < 1e-9


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
