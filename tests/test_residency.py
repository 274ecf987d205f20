"""Operand residency of the key-switch layer.

Evaluation-key tables live on the key (one per key, every level a row
slice), linear transforms compile their diagonals once, every rotation
of a ciphertext shares its one memoised decomposition (which dies with
the ciphertext), and the scratch pools are bounded by their largest
request.  Bit-identity claims are checked against the
Python-integer oracle in ``tests/oracle.py``.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.noise_check import NoiseCheckEvaluator, NoiseParams
from repro.ckks.bootstrap import Bootstrapper
from repro.ckks.context import CkksContext, EvalKey, make_params
from repro.ckks.linear import LinearTransform
from repro.ckks.ops import Evaluator
from repro.params.presets import build_native_ckks_params
from repro.params.primes import find_ntt_primes
from repro.rns import bconv, kernels
from repro.rns.backend import NumpyBackend
from repro.rns.bconv import BaseConverter
from repro.rns.poly import RnsPolynomial
from tests.oracle import decompose_oracle, switch_oracle


_PRESETS: dict[object, CkksContext] = {}


def _preset(bits) -> CkksContext:
    """The ``bits``-wide preset at N = 2^9 (``"ds"``: a 35-bit scale on DS prime pairs)."""
    if bits not in _PRESETS:
        if bits == "ds":
            params = make_params(degree=1 << 9, scale_bits=35, depth=3)
        elif bits == 62:
            # The native 62-bit preset's 68-bit base is a DS pair; a 54-bit
            # scale keeps every prime single and still exercises the widest
            # (128-bit product) kernel regime.
            params = make_params(degree=1 << 9, scale_bits=54, depth=3, word_bits=62)
        else:
            params = build_native_ckks_params(bits, degree=1 << 9, depth=3)
        _PRESETS[bits] = CkksContext(params, seed=17)
    return _PRESETS[bits]


def _message(ctx: CkksContext, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-1, 1, ctx.params.slots) + 1j * rng.uniform(-1, 1, ctx.params.slots)


def _count_calls(monkeypatch, owner, name: str) -> list:
    """Wrap ``owner.name`` so each call appends its arguments to the returned list."""
    calls: list = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


# -- (i) evk tables on the key ------------------------------------------------


@pytest.mark.parametrize("bits", (28, 36))
def test_table_row_slices_match_per_level_stacks(bits):
    ctx = _preset(bits)
    params = ctx.params
    evk = ctx.keys.galois_key(5)
    total, aux = len(params.q_primes), len(params.aux_primes)
    assert evk.b.shape == (params.dnum, total + aux, params.degree)
    assert all(np.shares_memory(b_j.limbs, evk.b) for b_j, _ in evk)  # no second copy
    tables = evk.shoup_tables()
    assert evk.shoup_tables() is tables
    for level in range(params.max_level + 1):
        active = params.active_moduli(level)
        keep = list(range(len(active))) + [total + i for i in range(aux)]
        digits = sum(start < len(active) for start, _ in params.digit_spans())
        q = np.array(active + params.aux_primes, dtype=object).reshape(-1, 1)
        for index, tensor in enumerate((evk.b, evk.a)):
            former = np.stack([pair[index].limbs[keep] for pair in list(evk)[:digits]])
            rows = np.concatenate(
                [tensor[:digits, : len(active)], tensor[:digits, total:]], axis=1
            )
            assert np.array_equal(rows, former)
            # The former float-Shoup stack, through arbitrary precision.
            exact = ((former.astype(object) << 64) // q).astype(np.uint64)
            shoup_rows = np.concatenate(
                [tables[index][:digits, : len(active)], tables[index][:digits, total:]],
                axis=1,
            )
            assert np.array_equal(shoup_rows, exact.astype(np.float64) * 2.0**-64)


def _levels(ctx: CkksContext) -> tuple[int, int, int]:
    top = ctx.params.max_level
    return top, top // 2, 0


@pytest.mark.parametrize("bits", (28, 36, 50, 62))
def test_switch_bit_identical_to_oracle(bits):
    ctx = _preset(bits)
    switcher = Evaluator(ctx).switcher
    for level in _levels(ctx):
        c1 = ctx.encrypt(_message(ctx), level=level).c1
        for evk in (ctx.keys.relinearization_key(), ctx.keys.galois_key(25)):
            u0, u1 = switcher.switch(c1, evk)
            w0, w1 = switch_oracle(ctx.params, c1, evk)
            assert np.array_equal(u0.limbs, w0)
            assert np.array_equal(u1.limbs, w1)


# -- (ii) decompose / apply: one memoised ModUp per ciphertext ------------------


def test_decompose_equals_mod_up():
    for bits in (28, 36, 50, 62):
        ctx = _preset(bits)
        switcher = Evaluator(ctx).switcher
        for level in _levels(ctx):
            c1 = ctx.encrypt(_message(ctx), level=level).c1
            assert np.array_equal(switcher.decompose(c1), decompose_oracle(ctx.params, c1))


@pytest.mark.parametrize("slots", (256, 1 << 10), ids=("sparse", "full"))
def test_repeated_rotations_within_static_rotate_bound(slots):
    params = make_params(degree=1 << 11, slots=slots, scale_bits=28, depth=3, dnum=3)
    ctx = CkksContext(params, seed=4)
    ev = Evaluator(ctx)
    z = _message(ctx, seed=3)
    ct = ctx.encrypt(z)
    static = NoiseCheckEvaluator(NoiseParams(scale_bits=28.0))
    bound = static.rotate(static.encrypt(mag=2.0)).worst_error
    for amount in (1, 2, 5):  # one ModUp, three switches
        got = ev.rotate(ct, amount)
        assert (got.level, got.scale) == (ct.level, ct.scale)
        assert np.max(np.abs(ctx.decrypt(got) - np.roll(z, -amount))) <= bound
    assert ev.rotate(ct, 0) is ct
    assert ev.rotate(ct, slots) is ct


@pytest.mark.parametrize("op", ("rotate", "conjugate", "apply_switch_key"))
def test_second_switch_of_a_ciphertext_skips_mod_up(op, monkeypatch):
    """Counted at the backend seam: only the ModDown's ``2K`` INTT rows,
    one BConv and ``2l`` NTT rows — no ModUp work."""
    ctx = _preset(36)
    ev = Evaluator(ctx)
    keys = ctx.keys
    evk = keys.make_switch_key(CkksContext(ctx.params, seed=5).keys.public_key())
    keys.galois_key(ctx.ring.galois_element(2))  # keys are made before counting
    keys.galois_key(ctx.ring.conjugation_element)
    second = {
        "rotate": lambda ct: ev.rotate(ct, 2),
        "conjugate": ev.conjugate,
        "apply_switch_key": lambda ct: ev.apply_switch_key(ct, evk),
    }[op]
    ct = ctx.encrypt(_message(ctx), level=2)
    ev.rotate(ct, 1)  # the one ModUp of ct.c1
    rows = {
        name: _count_calls(monkeypatch, NumpyBackend, name)
        for name in ("ntt_inverse_all", "ntt_forward_all", "bconv")
    }
    second(ct)
    aux, level = len(ctx.params.aux_primes), len(ct.moduli)
    assert [args[2].shape[0] for args in rows["ntt_inverse_all"]] == [2 * aux]
    assert [args[2].shape[0] for args in rows["ntt_forward_all"]] == [2 * level]
    assert len(rows["bconv"]) == 1
    fresh = ctx.encrypt(_message(ctx), level=2)
    second(fresh)  # a first switch pays the ModUp on top
    assert len(rows["bconv"]) > 2


def test_memo_never_serves_a_dead_or_different_polynomial():
    ctx = _preset(36)
    switcher = Evaluator(ctx).switcher
    c1 = None
    for seed in range(12):
        source = ctx.encrypt(_message(ctx, seed), level=1).c1
        del c1
        gc.collect()
        # Allocated right after the previous array died (its address may be reused).
        c1 = RnsPolynomial(ctx.ring, source.moduli, source.limbs.copy(), True)
        assert np.array_equal(switcher.decompose(c1), decompose_oracle(ctx.params, c1))
    # What a reused address looks like, planted under a live array's id so
    # it does not hang on the allocator: an entry whose array is dead, and
    # one whose array is a different, live one.  Neither is served.
    dead = np.zeros_like(c1.limbs)
    dead_ref = weakref.ref(dead)
    del dead
    gc.collect()
    assert dead_ref() is None
    stale = np.zeros_like(c1.limbs)
    for ref in (dead_ref, weakref.ref(stale)):
        switcher._digits[id(c1.limbs)] = (ref, np.zeros((1, 1, 1), np.uint64))
        assert np.array_equal(switcher.decompose(c1), decompose_oracle(ctx.params, c1))
    del c1, source
    gc.collect()
    assert not switcher._digits


def test_memo_is_empty_once_the_ciphertext_is_gone():
    ctx = _preset(36)
    ev = Evaluator(ctx)
    ct = ctx.encrypt(_message(ctx))
    ev.multiply(ct, ct)  # d2 is a temporary: its digits leave with it
    assert not ev.switcher._digits
    rotated = ev.rotate(ct, 1)
    digits = weakref.ref(ev.switcher.decompose(ct.c1))
    assert len(ev.switcher._digits) == 1 and digits() is not None
    del ct, rotated
    gc.collect()
    assert not ev.switcher._digits
    assert digits() is None


def test_memoised_digits_are_read_only():
    ctx = _preset(36)
    switcher = Evaluator(ctx).switcher
    c1 = ctx.encrypt(_message(ctx)).c1
    ext = switcher.decompose(c1)
    assert switcher.decompose(c1) is ext
    with pytest.raises(ValueError, match="read-only"):
        ext[0, 0, 0] = 1
    with pytest.raises(ValueError, match="read-only"):
        ext += 1


# -- (iii) compiled linear transforms -----------------------------------------


def test_linear_transform_compiles_once(small_context, small_evaluator, monkeypatch):
    ctx, ev = small_context, small_evaluator
    n = ctx.params.slots
    rng = np.random.default_rng(8)
    lt = LinearTransform.from_matrix(
        rng.standard_normal((n, n)) / n, rng.standard_normal((n, n)) / n, baby_steps=8
    )
    z = _message(ctx, seed=1)
    ct = ctx.encrypt(z)
    encodes = _count_calls(monkeypatch, CkksContext, "encode")
    first = lt.apply(ev, ct)
    assert len(encodes) == 2 * n
    plan = lt._compiled
    second = lt.apply(ev, ct)
    assert len(encodes) == 2 * n  # zero new encodes
    assert lt._compiled is plan
    assert np.array_equal(first.c0.limbs, second.c0.limbs)
    assert np.array_equal(first.c1.limbs, second.c1.limbs)
    assert np.max(np.abs(ctx.decrypt(first) - lt.reference_apply(z))) < 1e-3
    # A new operating point recompiles and replaces the plan.
    lower = ev.drop_to_level(ct, ct.level - 1)
    lt.apply(ev, lower)
    assert len(encodes) == 4 * n
    assert lt._compiled is not plan and lt._compiled[0][1] == lower.level
    lt.apply(ev, lower, output_scale=ct.scale * 2)
    assert len(encodes) == 6 * n
    held = sum(len(terms) for _, giants in lt._compiled[1] for _, terms in giants)
    assert held <= 2 * n


# -- (iv) steady-state bootstrap -----------------------------------------------


@pytest.mark.slow
def test_second_bootstrap_rebuilds_nothing(monkeypatch):
    params = make_params(
        degree=1 << 9, slots=256, scale_bits=23, depth=2,
        boot_scale_bits=50, boot_depth=14, dnum=4, hamming_weight=16,
    )  # fmt: skip
    ctx = CkksContext(params, seed=2)
    boot = Bootstrapper(ctx, Evaluator(ctx))
    z = _message(ctx, seed=5)
    boot.bootstrap(ctx.encrypt(z, level=0))
    precomputes = _count_calls(monkeypatch, kernels, "shoup_precompute")
    encodes = _count_calls(monkeypatch, CkksContext, "encode")
    out, report = boot.bootstrap(ctx.encrypt(z, level=0))
    assert len(precomputes) == 0
    assert len(encodes) <= 120
    assert report.output_level == 2
    assert np.max(np.abs(ctx.decrypt(out) - z)) < 2.0**-12


# -- (v) table lifetime ---------------------------------------------------------


def test_tables_die_with_their_key(small_context, small_evaluator, monkeypatch):
    ctx, ev = small_context, small_evaluator
    other = CkksContext(ctx.params, seed=77)
    precomputes = _count_calls(monkeypatch, kernels, "shoup_precompute")
    keys = [ctx.keys.make_switch_key(other.keys.public_key()) for _ in range(3)]
    for level in range(ctx.params.max_level + 1):
        c1 = ctx.encrypt(_message(ctx), level=level).c1
        for key in keys:
            ev.switcher.switch(c1, key)
    # One table pair per key, however many levels used it (the other
    # calls are the per-chain plan constants, columns not tensors).
    assert sum(np.ndim(args[0]) == 3 for args in precomputes) == 2 * len(keys)
    assert all(isinstance(key, EvalKey) for key in keys)
    key_ref = weakref.ref(keys[0])
    table_refs = [weakref.ref(table) for table in keys[0].shoup_tables()]
    survivor = weakref.ref(keys[1].shoup_tables()[0])
    del keys[0], key
    gc.collect()
    # The switcher and its per-level plans are still alive; nothing pins the key.
    assert key_ref() is None
    assert all(ref() is None for ref in table_refs)
    assert survivor() is not None


def test_wire_rejects_digits_on_different_bases(small_context):
    from repro.serve import wire

    evk = small_context.keys.galois_key(5)
    b, a = next(iter(evk))
    short = (b.drop_limbs(1), a.drop_limbs(1))
    blob = wire._KEY_COUNT.pack(2) + b"".join(
        wire.encode_poly(p) for pair in ((b, a), short) for p in pair
    )
    with pytest.raises(wire.WireError, match="malformed switch key"):
        wire.decode_switch_key(blob, small_context.ring)


# -- (vi) bounded scratch ---------------------------------------------------------


def test_scratch_high_water_independent_of_converter_count():
    degree = 1 << 8
    primes = tuple(find_ntt_primes(2 * degree, 2.0**29, 36, max_value=1 << 30))
    limbs = np.stack(
        [np.random.default_rng(i).integers(0, 1 << 20, degree, dtype=np.uint64) for i in range(2)]
    )
    marks = []
    for i in range(12):
        src, dst = primes[3 * i : 3 * i + 2], primes[3 * i + 2 : 3 * i + 3]
        conv = BaseConverter(src, dst)
        assert conv._matmul_ok
        conv.convert_rows(limbs)
        marks.append(bconv._POOL.nbytes)
    assert len(set(marks)) == 1

    pool = kernels.ScratchPool()
    a, b = pool.take(np.uint64, (4, 8), (8,))
    assert a.shape == (4, 8) and b.shape == (8,) and not np.shares_memory(a, b)
    high = pool.nbytes
    pool.take(np.uint64, (2, 3))
    pool.take(np.uint64, (5, 8))
    assert pool.nbytes == high == 40 * 8


# -- satellites: exact vectorised Shoup quotients, real-scalar fast path -----------


@settings(max_examples=40, deadline=None)
@given(bits=st.integers(min_value=14, max_value=47), seed=st.integers(0, 2**32 - 1))
def test_vectorised_shoup_precompute_is_exact(bits, seed):
    (q,) = find_ntt_primes(
        2, 0.75 * 2.0**bits, 1, max_value=(1 << bits) - 1, min_value=1 << (bits - 1)
    )
    rng = np.random.default_rng(seed)
    w = rng.integers(0, q, 64, dtype=np.uint64)
    w[:2] = (0, q - 1)
    got = kernels.shoup_precompute(w, q)
    want = [(int(x) << 64) // q for x in w]
    assert got.dtype == np.uint64 and [int(x) for x in got] == want
    # Column moduli broadcast like the evk tables do, and agree with big ints.
    column = np.array([q, 65537], dtype=np.uint64).reshape(-1, 1)
    both = kernels.shoup_precompute(np.stack([w, w % np.uint64(65537)]), column)
    assert np.array_equal(both[0], got)
    assert [int(x) for x in both[1]] == [(int(x) % 65537 << 64) // 65537 for x in w]
    # prove_float_qhat_shoup's operand: fl(floor(w * 2**64 / q)) * 2**-64 keeps
    # the quotient estimate within one unit for any lazy a < 4q.
    table = got.astype(np.float64) * 2.0**-64
    a = rng.integers(0, 4 * q, 64, dtype=np.uint64)
    estimate = (a * table).astype(np.uint64)
    for a_i, w_i, e_i in zip(a, w, estimate):
        assert abs(int(e_i) - int(a_i) * int(w_i) // q) <= 1


def test_wide_moduli_keep_the_bigint_path():
    q = (1 << 61) - 1
    w = np.array([0, 1, q - 1, 123456789012345678], dtype=np.uint64)
    assert [int(x) for x in kernels.shoup_precompute(w, q)] == [(int(x) << 64) // q for x in w]


def _general_encoding(ctx: CkksContext, value: float, ct):
    """The general encoder's plaintext of ``value`` at ``ct``'s point."""
    return ctx.encode(np.full(ctx.params.slots, value), level=ct.level, scale=ct.scale)


@pytest.mark.parametrize("value", (1.0, -0.37, 123.456))
def test_real_scalar_fast_path(small_context, small_evaluator, value, monkeypatch):
    ctx, ev = small_context, small_evaluator
    z = _message(ctx, seed=6)
    ct = ctx.encrypt(z)
    step_scale = ctx.params.step_at(ct.level).scale
    old_pt = ctx.encode(np.full(ctx.params.slots, value), level=ct.level, scale=step_scale)
    encodes = _count_calls(monkeypatch, CkksContext, "encode")
    pt = ev.encode_scalar(value, ct.level, step_scale)
    constant = [round(value * step_scale)] + [0] * (ctx.params.degree - 1)
    reference = RnsPolynomial.from_int_coeffs(ctx.ring, ct.moduli, constant).to_ntt()
    assert pt.moduli == reference.moduli and np.array_equal(pt.poly.limbs, reference.limbs)
    for new, old in (
        (ev.multiply_scalar(ct, value), ev.multiply_plain(ct, old_pt)),
        (
            ev.add_scalar(ct, value),
            ev.add_plain(ct, _general_encoding(ctx, value, ct)),
        ),
    ):
        got, want = ctx.decrypt(new), ctx.decrypt(old)
        assert np.max(np.abs(got - want)) <= 2.0**-40 * max(1.0, np.max(np.abs(want)))
    assert len(encodes) == 1  # only _general_encoding's reference encode
    # Complex constants still go through the encoder.
    rotated = ev.multiply_scalar(ct, 1j)
    assert len(encodes) == 2
    assert np.max(np.abs(ctx.decrypt(rotated) - 1j * z)) < 1e-4



@pytest.mark.parametrize("bits", (28, 36))
def test_level_management_encodes_nothing(bits, monkeypatch):
    """``adjust`` / ``consume_level`` multiply by the constant 1: the
    direct constant plaintext is the general encoder's, bit for bit, and
    neither op reaches the encoder any more."""
    params = build_native_ckks_params(bits, degree=1 << 10, depth=3)
    ctx = CkksContext(params, seed=bits)
    ev = Evaluator(ctx)
    ones = np.ones(params.slots)
    z = _message(ctx, seed=8)
    ct = ctx.encrypt(z)
    squared = ev.square(ct)  # off the nominal scale: adjust has work to do
    step = params.step_at(squared.level).scale
    for level, scale in (
        (ct.level, params.step_at(ct.level).scale),  # consume_level's plaintext
        (squared.level, params.scale * step / squared.scale),  # adjust's
    ):
        direct = ev.encode_scalar(1.0, level, scale)
        general = ctx.encode(ones, level=level, scale=scale)
        assert direct.scale == general.scale and direct.moduli == general.moduli
        assert np.array_equal(direct.poly.limbs, general.poly.limbs)
    encodes = _count_calls(monkeypatch, CkksContext, "encode")
    burned = ev.consume_level(ct)
    adjusted = ev.adjust(squared, squared.level - 1, params.scale)
    assert not encodes
    assert (burned.level, burned.scale) == (ct.level - 1, ct.scale)
    assert (adjusted.level, adjusted.scale) == (squared.level - 1, params.scale)
    assert np.max(np.abs(ctx.decrypt(burned) - z)) < 2.0 ** -(bits - 18)
    assert np.max(np.abs(ctx.decrypt(adjusted) - z * z)) < 2.0 ** -(bits - 18)


def test_constant_one_is_exact_at_the_boot_scale(boot_context, boot_evaluator):
    """At a 2**50 step the encoder's float FFT leaves off-coefficients of
    order ``scale * 1e-16`` — a rounding step from flipping to 1 — and
    jitters coefficient 0; the direct plaintext is the constant
    ``round(scale)`` and nothing else."""
    params = boot_context.params
    level = params.max_level
    scale = params.step_at(level).scale
    assert scale > 2.0**49
    pt = boot_evaluator.encode_scalar(1.0, level, scale)
    coeffs = pt.poly.from_ntt().to_int_coeffs()
    assert coeffs == [round(scale)] + [0] * (params.degree - 1)
