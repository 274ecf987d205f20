"""One pass per BSGS stage: the fused evaluator ops and the stage shape.

``multiply_plain_sum`` must be the ``multiply_plain`` + ``add`` chain bit
for bit, ``rotate_sum`` a sum of ``rotate``s with one ModDown's rounding,
and a whole ``LinearTransform.apply`` / ``ChebyshevEvaluator`` block one
multiply-accumulate per giant step and **one** rescale — counted at the
backend seam the way ``tests/test_price_list.py`` counts.  A conjugate
part that is round-off costs nothing, and the Chebyshev ladder builds
only the T_k a polynomial reads.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.check.noise_check import NoiseCheckEvaluator, NoiseParams
from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.context import CkksContext, make_params
from repro.ckks.keyswitch import KeySwitcher
from repro.ckks.linear import LinearTransform, bsgs_split
from repro.ckks.ops import Evaluator
from repro.ckks.poly_eval import ChebyshevEvaluator, PolyPlan, chebyshev_fit
from repro.rns.backend import NumpyBackend
from tests.test_residency import _count_calls, _message, _preset


def _same_bits(a, b) -> bool:
    return (
        (a.level, a.scale) == (b.level, b.scale)
        and np.array_equal(a.c0.limbs, b.c0.limbs)
        and np.array_equal(a.c1.limbs, b.c1.limbs)
    )


# -- (b) multiply_plain_sum ----------------------------------------------------


@pytest.mark.parametrize("bits", (28, 36, 50))
def test_multiply_plain_sum_is_the_pmult_add_chain(bits):
    ctx = _preset(bits)
    ev = Evaluator(ctx)
    level = ctx.params.max_level
    scale = ctx.params.step_at(level).scale
    cts = [ctx.encrypt(_message(ctx, seed=j)) for j in range(5)]
    pts = [ctx.encode(_message(ctx, seed=10 + j), level=level, scale=scale) for j in range(3)]
    pts += [ev.encode_scalar(value, level, scale) for value in (0.75, -1.5)]
    chain = functools.reduce(
        ev.add, (ev.multiply_plain(ct, pt, rescale=False) for ct, pt in zip(cts, pts))
    )
    assert _same_bits(ev.multiply_plain_sum(cts, pts), chain)
    assert _same_bits(
        ev.multiply_plain_sum(cts[:1], pts[:1]), ev.multiply_plain(cts[0], pts[0], rescale=False)
    )
    lower = ev.drop_to_level(cts[1], level - 1)
    with pytest.raises(ValueError):
        ev.multiply_plain_sum([cts[0], lower], pts[:2])
    with pytest.raises(ValueError):  # products at different scales
        ev.multiply_plain_sum(cts[:2], [pts[0], ev.encode_scalar(1.0, level, 2 * scale)])


# -- (c) rotate_sum ------------------------------------------------------------


@pytest.mark.parametrize("bits", (28, 50))
def test_rotate_sum_of_one_term_is_rotate(bits):
    ctx = _preset(bits)
    ev = Evaluator(ctx)
    ct = ctx.encrypt(_message(ctx, seed=2))
    for amount in (0, 1, 7):
        assert _same_bits(ev.rotate_sum([ct], [amount]), ev.rotate(ct, amount))


def test_rotate_sum_within_static_rotate_bound(small_context, small_evaluator, monkeypatch):
    ctx, ev = small_context, small_evaluator
    amounts = [0, 1, 5, 16]
    zs = [_message(ctx, seed=20 + i) for i in range(len(amounts))]
    cts = [ctx.encrypt(z) for z in zs]
    static = NoiseCheckEvaluator(NoiseParams(scale_bits=28.0))
    bound = functools.reduce(
        static.add, (static.rotate(static.encrypt(mag=2.0)) for _ in amounts)
    ).worst_error
    mod_downs = _count_calls(monkeypatch, KeySwitcher, "mod_down")
    got = ev.rotate_sum(iter(cts), iter(amounts))  # consumed one term at a time
    assert len(mod_downs) == 1
    assert (got.level, got.scale) == (cts[0].level, cts[0].scale)
    want = sum(np.roll(z, -amount) for z, amount in zip(zs, amounts))
    assert np.max(np.abs(ctx.decrypt(got) - want)) <= bound
    separately = functools.reduce(ev.add, map(ev.rotate, cts, amounts))
    assert np.max(np.abs(ctx.decrypt(separately) - want)) <= bound


# -- (d) structure of a stage --------------------------------------------------


@pytest.mark.parametrize("baby_steps", (None, 4))
def test_a_bsgs_stage_is_one_pass(small_context, small_evaluator, monkeypatch, baby_steps):
    ctx, ev = small_context, small_evaluator
    n = ctx.params.slots
    rng = np.random.default_rng(5)
    lt = LinearTransform.from_matrix(
        rng.standard_normal((n, n)) / n, rng.standard_normal((n, n)) / n, baby_steps=baby_steps
    )
    z = _message(ctx, seed=4)
    ct = ctx.encrypt(z)
    lt.apply(ev, ct)  # compile the diagonals, generate the keys
    inners = _count_calls(monkeypatch, NumpyBackend, "keyswitch_inner")
    plain_inners = _count_calls(monkeypatch, NumpyBackend, "plain_inner")
    mod_downs = _count_calls(monkeypatch, KeySwitcher, "mod_down")
    rescales = _count_calls(monkeypatch, Evaluator, "rescale")
    out = lt.apply(ev, ct)
    bs, gs = bsgs_split(n, baby_steps)
    assert bs * gs == n
    # Conjugation, both parts' baby rotations, one rotation per giant step.
    assert len(inners) == 1 + 2 * (bs - 1) + (gs - 1)
    # ... of which the giant steps share one ModDown.
    assert len(mod_downs) == 1 + 2 * (bs - 1) + 1
    assert len(rescales) == 1
    # Both matrices' terms of a giant step go through one inner product
    # per ciphertext half.
    assert len(plain_inners) == 2 * gs
    assert all(len(ps) == 2 * bs for _, _, _, ps in plain_inners)
    assert out.level == ct.level - 1 and out.scale == ct.scale
    assert np.max(np.abs(ctx.decrypt(out) - lt.reference_apply(z))) < 1e-4


def test_a_round_off_conjugate_part_costs_nothing(small_context, small_evaluator, monkeypatch):
    """A conjugate part below the whole transform's cut compiles to no
    terms: no conjugation, no baby rotations of ``conj(z)`` — the
    C-linear stage's ``(bs-1) + (gs-1)`` inner products and
    ``(bs-1) + 1`` ModDowns."""
    ctx, ev = small_context, small_evaluator
    n = ctx.params.slots
    rng = np.random.default_rng(7)
    m = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / n
    noise = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z = _message(ctx, seed=7)
    ct = ctx.encrypt(z)
    bs, gs = bsgs_split(n)
    seams = (
        (NumpyBackend, "keyswitch_inner"),
        (KeySwitcher, "mod_down"),
        (NumpyBackend, "plain_inner"),
    )
    counts = []
    for conj in (None, 1e-20 * noise):
        lt = LinearTransform.from_matrix(m, conj)
        lt.apply(ev, ct)  # compile the diagonals, generate the keys
        with monkeypatch.context() as patch:
            calls = [_count_calls(patch, owner, name) for owner, name in seams]
            out = lt.apply(ev, ct)
        counts.append([len(seen) for seen in calls])
        assert np.max(np.abs(ctx.decrypt(out) - m @ z)) < 1e-4
    assert counts[0] == counts[1] == [(bs - 1) + (gs - 1), (bs - 1) + 1, 2 * gs]


def test_a_chebyshev_block_rescales_once(small_context, small_evaluator, monkeypatch):
    ctx, ev = small_context, small_evaluator
    x = np.random.default_rng(6).uniform(-1, 1, ctx.params.slots)
    coeffs = chebyshev_fit(lambda t: np.tanh(2 * t), 21)
    cheb = ChebyshevEvaluator(ev)
    rescales = _count_calls(monkeypatch, Evaluator, "rescale")
    per_block = []
    direct = ChebyshevEvaluator._eval_direct

    def counted(self, block_coeffs, basis):
        before = len(rescales)
        out = direct(self, block_coeffs, basis)
        per_block.append((len(block_coeffs) - 1, len(rescales) - before))
        return out

    monkeypatch.setattr(ChebyshevEvaluator, "_eval_direct", counted)
    out = cheb.evaluate(ctx.encrypt(x), PolyPlan(coeffs, baby_steps=4))
    assert len(per_block) >= 4 and max(degree for degree, _ in per_block) >= 3
    assert all(count == 1 for _, count in per_block)
    want = np.polynomial.chebyshev.chebval(x, coeffs)
    assert np.max(np.abs(ctx.decrypt(out).real - want)) < 1e-3


def _built_bases(monkeypatch) -> list:
    """Record the indices of every basis ``ChebyshevEvaluator`` builds."""
    built: list = []
    build = ChebyshevEvaluator._build_basis

    def recorded(self, x, ladder):
        basis = build(self, x, ladder)
        built.append(sorted(basis))
        return basis

    monkeypatch.setattr(ChebyshevEvaluator, "_build_basis", recorded)
    return built


def test_the_evalmod_ladder_builds_only_the_t_k_the_cosine_uses(monkeypatch):
    params = make_params(
        degree=1 << 9, slots=256, scale_bits=23, depth=2,
        boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
    )  # fmt: skip
    ctx = CkksContext(params, seed=3)
    ev = Evaluator(ctx)
    plan = Bootstrapper(ctx, ev).eval_mod.cosine  # degree 12, baby steps 4
    x = np.random.default_rng(3).uniform(-1, 1, params.slots)
    # Where CoeffToSlot leaves EvalMod's input.
    ct = ctx.encrypt(x, level=params.max_level - 1, scale=2.0**params.boot_scale_bits)
    built = _built_bases(monkeypatch)
    multiplies = _count_calls(monkeypatch, Evaluator, "multiply")
    squares = _count_calls(monkeypatch, Evaluator, "square")
    out = ChebyshevEvaluator(ev).evaluate(ct, plan)
    babies, powers = [3], [2, 4, 8]
    assert plan.ladder == tuple(sorted(babies + powers))
    assert built == [sorted([1, *babies, *powers])]
    # 4 basis products (a square per power of two), 2 giant-step products.
    assert len(squares) == len(powers)
    assert len(multiplies) == len(babies) + len(powers) + 2 == plan.products
    want = np.polynomial.chebyshev.chebval(x, plan.coeffs)
    assert np.max(np.abs(ctx.decrypt(out).real - want)) < 1e-3


def test_an_even_polynomial_builds_no_odd_t_k(small_context, small_evaluator, monkeypatch):
    ctx, ev = small_context, small_evaluator
    coeffs = chebyshev_fit(lambda t: np.cos(3 * t), 12)
    coeffs[1::2] = 0.0
    x = np.random.default_rng(8).uniform(-1, 1, ctx.params.slots)
    built = _built_bases(monkeypatch)
    out = ChebyshevEvaluator(ev).evaluate(ctx.encrypt(x), PolyPlan(coeffs, baby_steps=8))
    assert built == [[1, 2, 4, 6, 8]]  # T_6 = 2*T_4*T_2 - T_2
    want = np.polynomial.chebyshev.chebval(x, coeffs)
    assert np.max(np.abs(ctx.decrypt(out).real - want)) < 1e-3


# -- (e) degenerate transforms -------------------------------------------------


def _banded(n: int, diagonals, rng) -> np.ndarray:
    """A matrix whose only non-zero (cyclic) diagonals are ``diagonals``."""
    m = np.zeros((n, n), dtype=np.complex128)
    j = np.arange(n)
    for d in diagonals:
        m[j, (j + d) % n] = rng.uniform(0.5, 1.5, n) + 1j * rng.uniform(-1, 1, n)
    return m / max(1, len(diagonals))


@pytest.mark.parametrize(
    "diagonals, conj_diagonals, baby_steps, inner_products",
    [
        # zero-shift only: no giant rotation, no key-switch sum
        ((0, 3, 9), None, 16, 2),
        # a single diagonal: bs is one stride, so one giant step and no baby
        ((37,), None, None, 1),
        # baby amounts 0 and 1 missing, parts differ: conj + 2 + 1 babies, 3 giants
        ((2, 19, 35), (5, 240), 16, 1 + 2 + 1 + 3),
        # 64 giant steps, most of them empty: conj + 3 + 1 babies, 3 giants
        ((1, 6, 11, 200), (0, 7), 4, 1 + 3 + 1 + 3),
        # stride 16: bs = 4 strides (64 slots), gs = 4
        (tuple(range(0, 256, 16)), None, None, (4 - 1) + (4 - 1)),
    ],
    ids=("zero-shift", "single-diagonal", "missing-babies", "baby-steps-4", "stride-16"),
)
def test_degenerate_transforms_match_reference(
    small_context, small_evaluator, monkeypatch, diagonals, conj_diagonals, baby_steps,
    inner_products,
):  # fmt: skip
    ctx, ev = small_context, small_evaluator
    n = ctx.params.slots
    rng = np.random.default_rng(len(diagonals))
    conj = None if conj_diagonals is None else _banded(n, conj_diagonals, rng)
    lt = LinearTransform.from_matrix(_banded(n, diagonals, rng), conj, baby_steps=baby_steps)
    assert sorted(lt.diagonals) == sorted(diagonals)
    z = _message(ctx, seed=9)
    ct = ctx.encrypt(z)
    lt.apply(ev, ct)  # compile the diagonals, generate the keys
    inners = _count_calls(monkeypatch, NumpyBackend, "keyswitch_inner")
    out = lt.apply(ev, ct)
    assert len(inners) == inner_products
    assert out.level == ct.level - 1 and out.scale == ct.scale
    assert np.max(np.abs(ctx.decrypt(out) - lt.reference_apply(z))) < 1e-4
