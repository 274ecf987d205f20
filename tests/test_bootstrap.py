"""Tests for CKKS bootstrapping (ModRaise / CtS / EvalMod / StC)."""

import functools
import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro.check.ckks_check import AbstractParams, SymbolicEvaluator
from repro.ckks.bootstrap import Bootstrapper, EvalModPlan, butterfly_stages
from repro.ckks.cipher import Plaintext
from repro.ckks.context import CkksContext, make_params
from repro.ckks.encoder import CkksEncoder
from repro.ckks.keyswitch import KeySwitcher
from repro.ckks.linear import LinearTransform
from repro.ckks.ops import Evaluator
from repro.rns.backend import NumpyBackend
from repro.rns.poly import RingContext
from repro.workloads.traces import CTS_STAGES
from tests.recorder import Recorder
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


def test_a_bootstrap_at_the_benchmark_parameters_is_bit_stable():
    """One bootstrap at ``bootstrap_n9``'s parameters, seed 1: the sha256
    of both halves' limbs, the level and the scale.  A restructuring of
    the bootstrap program that keeps its arithmetic leaves it unmoved."""
    params = make_params(
        degree=1 << 9, slots=256, scale_bits=23, depth=2,
        boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
    )  # fmt: skip
    ctx = CkksContext(params, seed=1)
    m = full_msg(np.random.default_rng(1), n=params.slots)
    out, _ = Bootstrapper(ctx, Evaluator(ctx)).bootstrap(ctx.encrypt(m, level=0))
    digest = hashlib.sha256()
    for poly in (out.c0, out.c1):
        digest.update(np.ascontiguousarray(poly.limbs).tobytes())
    digest.update(repr((out.level, out.scale)).encode())
    assert (out.level, out.scale) == (2, 2.0**23)
    assert digest.hexdigest() == (
        "0375b1842fb7c12093358a13ac57dd29658171b6acbad613f7fff1d879532a15"
    )


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
    ``S_8 ... S_1 BR``.  EvalMod's 10 levels leave two spare, which make
    CtS and StC two merged stages each: four butterflies, 31 diagonals
    ``{-15 .. 15}`` below and 16 at stride 16 above.  Neither applies
    ``BR``; StC's last stage also takes the sine's ``1/(2*pi*K)``."""
    ctx, bts = n9
    params = ctx.params
    n = params.slots
    spare = params.boot_levels - bts.eval_mod.depth - 2
    assert (bts.eval_mod.depth, spare) == (10, 2)
    assert (len(bts.cts), len(bts.stc)) == (1 + (spare + 1) // 2, 1 + spare // 2) == (2, 2)
    nu = params.scale / (2.0 * bts.q0 * bts.k_range)
    back = bts.q0 * bts.k_range / params.scale / (2.0 * math.pi * bts.k_range)
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
    """EvalMod is the cosine's 5 levels and 5 double angles, with no
    arcsine correction at this scale: 10 levels, so ``boot_depth`` 14
    leaves two spare levels for the transforms.  Its output is
    ``sin(2*pi*K*x)``, which StC scales back by ``1/(2*pi*K)``."""
    ctx, bts = n9
    params = ctx.params
    plan = bts.eval_mod
    level = params.max_level - len(bts.cts)
    x = np.random.default_rng(7).uniform(-0.002, 0.002, params.slots)
    shift = np.random.default_rng(8).integers(-3, 4, params.slots) / bts.k_range
    ct = ctx.encrypt(x + shift, level=level, scale=2.0**params.boot_scale_bits)
    out = bts._eval_mod(ct)
    assert level - out.level == plan.depth == plan.cosine.depth + plan.doublings == 5 + 5
    assert not plan.arcsine
    assert params.boot_levels - 10 - 2 == len(bts.cts) + len(bts.stc) - 2
    want = np.sin(2.0 * math.pi * bts.k_range * x)
    assert np.max(np.abs(ctx.decrypt(out).real - want)) < 1e-6 * 2.0 * math.pi * bts.k_range


def test_the_cosine_plan_is_the_derived_series(n9):
    """At K = 7 and ``q0 = 2^30`` the derivation keeps 5 double angles of
    a degree-12 cosine: 6 products (3 of them squares), 10 plaintext
    terms and depth 5.  The shifted cosine is neither odd nor even, so
    its plan reads every T_k up to its baby step."""
    _, bts = n9
    plan = bts.eval_mod
    cosine = plan.cosine
    assert (bts.k_range, plan.doublings, len(cosine.coeffs) - 1) == (7, 5, 12)
    assert (cosine.products, cosine.squares, cosine.plain_terms, cosine.depth) == (6, 3, 10, 5)
    assert cosine.ladder == (2, 3, 4, 8) and cosine.baby_steps == 4
    assert np.all(cosine.coeffs != 0)
    assert (plan.products, plan.depth) == (6 + 5, 5 + 5)


def _cosine_then_doubled(plan: EvalModPlan, x: np.ndarray) -> np.ndarray:
    c = np.polynomial.chebyshev.chebval(x, plan.cosine.coeffs)
    for _ in range(plan.doublings):
        c = 2.0 * c * c - 1.0
    return c


@pytest.mark.parametrize("scale_bits", (23, 35))
def test_the_derived_eval_mod_meets_its_target(scale_bits):
    """For K = 4 .. 13 at ``q0 = 2^7 Delta``, the derived cosine doubled
    ``doublings`` times in float64 is ``sin(2*pi*K*x)`` on [-1, 1] to the
    derived target ``pi / q0``; the arcsine correction is kept at
    ``Delta = 2^35`` (its cubic error is above the target) and dropped
    at ``2^23``."""
    x = np.linspace(-1.0, 1.0, 20001)
    scale = 2.0**scale_bits
    q0 = scale * 2.0**7
    for k_range in range(4, 14):
        plan = EvalModPlan.derive(k_range, scale, q0, 1 << 10, 2.0**50)
        err = np.max(np.abs(_cosine_then_doubled(plan, x) - np.sin(2.0 * math.pi * k_range * x)))
        assert plan.target == math.pi / q0
        assert err <= plan.target, (k_range, err)
        assert plan.arcsine == (scale_bits == 35)


def test_the_arcsine_is_kept_only_where_it_buys_bits():
    """``bootstrap_n9``'s parameters (``Delta = 2^23``, ``q0 = 2^30``, N =
    2^9) drop the correction; the 35-bit native pair of
    ``test_native_preset`` (``Delta = 2^35``, ``q0 = 2^42``, N = 2^10)
    keeps it, two levels deeper (K = 7 at h = 16 for both)."""
    boot = dict(depth=2, boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16)
    n9 = make_params(degree=1 << 9, slots=256, scale_bits=23, **boot)
    native = make_params(degree=1 << 10, slots=512, scale_bits=35.0, word_bits=36, **boot)
    plans = []
    for params in (n9, native):
        q0 = math.prod(params.base_primes)
        assert round(math.log2(q0 / params.scale)) == 7
        plans.append(EvalModPlan.derive(7, params.scale, q0, params.degree, 2.0**50))
    assert [plan.arcsine for plan in plans] == [False, True]
    assert [plan.depth for plan in plans] == [5 + 5, 6 + 3 + 2]


def test_a_bootstrap_spends_what_the_eval_mod_plan_says(n9):
    """Folded over the symbolic domain (no keys), both EvalMods run the
    cosine plan as planned, 6 products (3 of them squares), 3
    multiply-accumulates and 5 levels, then 5 double angles, a square
    and a level each.  A bootstrap makes 22 ciphertext products: 6
    ``multiply`` calls and 16 squares."""
    ctx, _ = n9
    params = ctx.params
    symbolic = SymbolicEvaluator(AbstractParams.from_params(params))
    rec = Recorder(symbolic)
    bts = Bootstrapper(ctx, rec)
    plan = bts.eval_mod.cosine

    def spent(run, ct) -> tuple[dict, list]:
        start = len(rec.steps)
        out = run(ct)
        ops = [op for op, _, _ in rec.steps[start:]]
        count = Counter(ops)
        return {
            "multiply": count["multiply"] + count["square"],  # every product
            "square": count["square"],
            "multiply_plain_sum": count["multiply_plain_sum"],
            "levels": ct.level - out.level,
        }, ops

    x = symbolic.fresh(level=params.max_level - len(bts.cts), scale=2.0**params.boot_scale_bits)
    per_evaluate, _ = spent(lambda ct: bts._cheb.evaluate(ct, plan), x)
    per_eval_mod, eval_mod_ops = spent(bts._eval_mod, x)
    per_bootstrap, ops = spent(lambda ct: bts.bootstrap(ct)[0], symbolic.fresh(level=0))
    planned = {
        "multiply": plan.products,
        "square": plan.squares,
        "multiply_plain_sum": plan.plain_sums,
        "levels": plan.depth,
    }
    assert per_evaluate == planned
    assert list(planned.values()) == [6, 3, 3, 5]
    r = bts.eval_mod.doublings
    doubled = {**planned, "multiply": plan.products + r, "square": plan.squares + r}
    assert per_eval_mod == {**doubled, "levels": plan.depth + r}
    assert bts.eval_mod.products == plan.products + r == 11
    # The bootstrap runs that EvalMod twice, back to back.
    twice = eval_mod_ops * 2
    assert any(ops[i : i + len(twice)] == twice for i in range(len(ops)))
    products, squares = per_bootstrap["multiply"], per_bootstrap["square"]
    assert products == 2 * bts.eval_mod.products
    assert (products - squares, squares) == (6, 16)
    assert not symbolic.report.diagnostics


def _points(out) -> list:
    """Each ``(level, scale)`` one op returned; a plaintext operand is its
    scale (and has no level of its own)."""
    if isinstance(out, tuple):
        return [point for x in out for point in _points(x)]
    if isinstance(out, (float, Plaintext)):
        return [(None, getattr(out, "scale", out))]
    return [(out.level, out.scale)]


@pytest.mark.parametrize("chain", ["n9", pytest.param("boot_context", marks=pytest.mark.slow)])
def test_the_bootstrap_runs_step_for_step_over_both_domains(chain, request):
    """The bootstrap is a program over the evaluator's vocabulary: folded
    over the engine and over the symbolic domain it makes the same calls,
    and every call returns the same levels and scales (to the scale-match
    tolerance), with no diagnostic, ending at the usable level and the
    working scale."""
    ctx = request.getfixturevalue(chain)
    ctx = ctx[0] if isinstance(ctx, tuple) else ctx
    params = ctx.params
    real = Recorder(Evaluator(ctx))
    symbolic = Recorder(SymbolicEvaluator(AbstractParams.from_params(params)))
    m = full_msg(np.random.default_rng(3), n=params.slots)
    bts = Bootstrapper(ctx, real)
    bts.bootstrap(ctx.encrypt(m, level=0))
    out, _ = Bootstrapper(ctx, symbolic).bootstrap(symbolic.ev.fresh(level=0))
    assert [op for op, _, _ in real.steps] == [op for op, _, _ in symbolic.steps]
    # 278 calls at both chains, 22 of them products (both EvalMods).
    products = sum(op in ("multiply", "square") for op, _, _ in real.steps)
    assert len(real.steps) > 250 and products == 2 * bts.eval_mod.products == 22
    for (op, _, x), (_, _, y) in zip(real.steps, symbolic.steps):
        xs, ys = _points(x), _points(y)
        assert len(xs) == len(ys)
        for (lx, sx), (ly, sy) in zip(xs, ys):
            assert lx == ly, op
            assert abs(sx - sy) <= 1e-9 * max(sx, sy), op
    assert not symbolic.ev.report.diagnostics, symbolic.ev.report.render()
    assert (out.level, out.scale) == (params.usable_level, params.scale)


@pytest.mark.parametrize("boot_depth", (12, 11))
def test_a_boot_budget_short_of_a_stage_per_transform_is_refused(boot_depth):
    """EvalMod takes 10 levels here and each transform at least one: 12
    boot levels fold to the usable level, 11 are refused at construction
    (run anyway, they land at level 1 with about 2 bits)."""
    params = make_params(
        degree=1 << 9, slots=256, scale_bits=23, depth=2,
        boot_scale_bits=50, boot_depth=boot_depth, dnum=4, hamming_weight=16,
    )  # fmt: skip
    ctx = CkksContext(params, seed=1)
    symbolic = SymbolicEvaluator(AbstractParams.from_params(params))
    if boot_depth < 12:
        with pytest.raises(ValueError, match="needs 12 levels .* has 11 boot levels"):
            Bootstrapper(ctx, symbolic)
        return
    out, _ = Bootstrapper(ctx, symbolic).bootstrap(symbolic.fresh(level=0))
    assert (out.level, out.scale) == (params.usable_level, params.scale)
    assert not symbolic.report.diagnostics


@pytest.mark.slow
def test_a_warm_bootstrap_counts_two_stages_per_transform(n9, monkeypatch):
    """Per transform 16 inner products and 8 ModDowns where the dense
    stage took 30 and 16; one rescale more per extra stage.  Each of
    EvalMod's 22 products is one inner product and one ModDown (with the
    degree-69 sine and the arcsine, 38 products: 71 / 55 / 106 / 78)."""
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
    assert [len(seen) for seen in calls] == [55, 39, 82, 38]
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
        b = Bootstrapper(boot_context, boot_evaluator)
        h = boot_context.params.hamming_weight
        assert b.k_range == max(4, int(1.6 * math.sqrt(h)) + 1) == 7
        # Each double angle halves the cosine's width 2*pi*K; past the
        # width its Chebyshev coefficients fall off factorially.
        width = 2 * math.pi * b.k_range / 2**b.eval_mod.doublings
        assert len(b.eval_mod.cosine.coeffs) - 1 > width
        assert (b.eval_mod.doublings, len(b.eval_mod.cosine.coeffs) - 1) == (5, 12)
