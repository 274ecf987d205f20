"""Exactness of the short-word kernels: lazy blocked NTT, matmul BConv.

Both kernels keep unreduced values in flight (the NTT for whole
transforms, BConv inside a float64 matrix product), so "fast" is only
interesting if the canonical outputs are *exactly* those of the
reference chain and of plain Python-integer arithmetic — on the inputs
that stress the lazy bounds (all ``q - 1``, alternating ``0 / q - 1``)
as much as on random ones, for every row count that changes the block
walk, at every degree (each has its own transpose point), and with the
wide-word chains still routed to the reference path.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.bounds import prove_bconv_matmul, prove_lazy_ntt_schedule
from repro.ntt import plan as plan_module
from repro.ntt.plan import NttPlan, lazy_schedule
from repro.ntt.reference import NttChain, NttContext
from repro.params.primes import find_ntt_primes
from repro.rns import kernels
from repro.rns.bconv import BaseConverter
from tests.oracle import bconv_oracle, ntt_oracle
from tests.test_backends import _limbs

WORD_BITS = (28, 36)
DEGREES = (1 << 9, 1 << 12, 1 << 14)
ROW_COUNTS = (1, 3, 12, 21)
# Every transpose point T = 1 .. 32 at 1, 3 and 12 rows; 21 rows (a
# partial last block at 2**14) at the three DEGREES.
NTT_CASES = [(1 << k, rows) for k in range(3, 16) for rows in ROW_COUNTS[:3]] + [
    (degree, ROW_COUNTS[3]) for degree in DEGREES
]
DST_ROWS = 5

_PRIMES: dict[tuple[int, int], tuple[int, ...]] = {}
_CONTEXTS: dict[tuple[int, int], NttContext] = {}


def _chain(degree: int, bits: int, count: int, skip: int = 0) -> tuple[int, ...]:
    """``count`` NTT primes just below ``2**bits`` (cached; ``skip`` offsets)."""
    key = (degree, bits)
    need = skip + count
    if len(_PRIMES.get(key, ())) < need:
        _PRIMES[key] = tuple(
            find_ntt_primes(
                2 * degree,
                float(2**bits * 0.9),
                max(need, ROW_COUNTS[-1] + DST_ROWS),
                max_value=min(2**bits, kernels.FAST_MODULUS_LIMIT) - 1,
                min_value=2 ** (bits - 1),
            )
        )
    return _PRIMES[key][skip:need]


def _contexts(degree: int, moduli: tuple[int, ...]) -> list[NttContext]:
    for q in moduli:
        if (degree, q) not in _CONTEXTS:
            _CONTEXTS[degree, q] = NttContext(degree, q)
    return [_CONTEXTS[degree, q] for q in moduli]


def _edge_inputs(moduli: tuple[int, ...], width: int) -> dict[str, np.ndarray]:
    top = np.array(moduli, dtype=np.uint64).reshape(-1, 1) - np.uint64(1)
    full = np.broadcast_to(top, (len(moduli), width)).copy()
    alternating = full.copy()
    alternating[:, ::2] = 0
    return {"zero": np.zeros_like(full), "q-1": full, "alternating": alternating}


# -- NTT -----------------------------------------------------------------------


def _check_ntt(degree: int, moduli: tuple[int, ...], x: np.ndarray) -> None:
    contexts = _contexts(degree, moduli)
    plan, chain = NttPlan(contexts), NttChain(contexts)
    forward = plan.forward_all(x)
    assert forward.dtype == np.uint64 and forward is not x
    assert np.array_equal(forward, chain.forward_all(x.copy()))
    assert np.array_equal(plan.inverse_all(x), chain.inverse_all(x.copy()))
    assert np.array_equal(plan.inverse_all(forward), x)  # forward . inverse = id
    row = len(moduli) - 1
    for slot in (0, degree // 3, degree - 1):
        assert int(forward[row, slot]) == ntt_oracle(contexts[row], x[row], slot)


@pytest.mark.parametrize(("degree", "rows"), NTT_CASES)
@pytest.mark.parametrize("bits", WORD_BITS)
def test_ntt_matches_reference_and_oracle(bits, degree, rows):
    moduli = _chain(degree, bits, rows)
    assert NttPlan(_contexts(degree, moduli)).float_lane
    for x in _edge_inputs(moduli, degree).values():
        _check_ntt(degree, moduli, x)
    _check_ntt(degree, moduli, _limbs(moduli, degree, seed=rows))


@pytest.mark.parametrize("bits", WORD_BITS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_ntt_drawn_inputs(bits, seed):
    degree, rows = 1 << 9, 3
    moduli = _chain(degree, bits, rows)
    _check_ntt(degree, moduli, _limbs(moduli, degree, seed))


@pytest.mark.parametrize("bits", (40, 44, 47))
def test_ntt_wide_float_lane_reduces_on_schedule(bits):
    """Wider words leave less headroom: the derived schedule reduces
    mid-transform (every other stage at 47 bits) and stays exact."""
    degree, rows = 1 << 11, 3
    moduli = _chain(degree, bits, rows)
    forward, inverse = lazy_schedule(max(moduli), 11)
    assert inverse and bool(forward) == (bits == 47)
    assert prove_lazy_ntt_schedule(max(moduli), 11).ok
    for x in (*_edge_inputs(moduli, degree).values(), _limbs(moduli, degree, 5)):
        _check_ntt(degree, moduli, x)


def test_ntt_schedule_is_derived_and_minimal():
    q36 = (1 << 36) - 1
    assert lazy_schedule(q36, 14) == ((), ())  # ops_n14: no reduction in flight
    assert lazy_schedule(q36, 16) == ((), (14,))
    late = ((), (15,))
    assert not prove_lazy_ntt_schedule(q36, 16, schedule=late).ok
    for bits in (20, 28, 36, 41, 45, 48):
        for log_n in (9, 14, 17):
            assert prove_lazy_ntt_schedule((1 << bits) - 1, log_n).ok, (bits, log_n)


def test_ntt_blocks_cover_partial_last_block(monkeypatch):
    """A block size that does not divide the row count, and one row per
    block, walk the same rows to the same bits."""
    degree, rows = 1 << 9, 7
    moduli = _chain(degree, 36, rows)
    x = _limbs(moduli, degree, seed=9)
    plan = NttPlan(_contexts(degree, moduli))
    want = plan.forward_all(x)
    for block_rows in (1, 3, 4):
        monkeypatch.setattr(plan_module, "_block_rows", lambda degree, r=block_rows: r)
        assert np.array_equal(plan.forward_all(x), want)
        assert np.array_equal(plan.inverse_all(want), x)


@pytest.mark.parametrize("degree", (2, 4))
def test_degree_below_transpose_range_takes_reference_path(degree):
    """No T >= 1 has 8 T**2 <= N below N = 8: the plan runs the
    reference chain there, bit-identically, instead of a layout."""
    moduli = _chain(degree, 36, 3)
    contexts = _contexts(degree, moduli)
    plan = NttPlan(contexts)
    assert not plan.float_lane and not hasattr(plan, "_fwd")
    x = _limbs(moduli, degree, seed=degree)
    forward = plan.forward_all(x)
    assert np.array_equal(forward, NttChain(contexts).forward_all(x.copy()))
    assert np.array_equal(plan.inverse_all(forward), x)


def _transpose_point(degree: int) -> int:
    """The largest power of two T with 8 T**2 <= N."""
    t = 1
    while 8 * (2 * t) ** 2 <= degree:
        t *= 2
    return t


def _run_words(view: np.ndarray) -> int:
    """Length of the contiguous runs a view's innermost axes form."""
    run = 1
    for size, stride in zip(view.shape[::-1], view.strides[::-1]):
        if stride != run * view.itemsize:
            break
        run *= size
    return run


@pytest.mark.parametrize("log_n", range(3, 17))
def test_every_stage_streams_runs_of_at_least_2t_words(log_n):
    """Each butterfly pass reads its u and v halves in contiguous runs of
    at least 2T words — none of the 1 .. 16-word strides a flat layout
    runs its late stages on."""
    degree = 1 << log_n
    plan = NttPlan(_contexts(degree, _chain(degree, 36, 1)))
    assert len(plan._fwd) == log_n and len(plan._inv) == log_n - 1
    floor = 2 * _transpose_point(degree)
    row = np.zeros((1, degree), dtype=np.uint64)
    for shape, _, _ in plan._fwd + plan._inv:
        view = row.reshape((1,) + shape)
        runs = {_run_words(view[:, :, half]) for half in (0, 1)}
        assert min(runs) >= floor, (degree, shape, runs)


@pytest.mark.parametrize("degree", (1 << 9, 1 << 11, 1 << 14))
def test_plan_holds_its_twiddles_once(degree):
    """The stage tables, counted once per owning buffer, are four (L, N)
    tables' worth (twiddles and float mirrors, forward and inverse);
    the degree-only gathers are shared by every plan of the degree."""
    rows = 10
    moduli = _chain(degree, 36, rows + 1)
    plan = NttPlan(_contexts(degree, moduli[:rows]))
    owners = {}
    for _, *tables in plan._fwd + plan._inv:
        for table in tables:
            owner = table if table.base is None else table.base
            owners[id(owner)] = owner
    assert sum(owner.nbytes for owner in owners.values()) <= 4 * rows * degree * 8
    other = NttPlan(_contexts(degree, moduli[1:]))
    assert other._fwd_perm is plan._fwd_perm and other._inv_perm is plan._inv_perm


def test_wide_chain_takes_reference_path():
    degree = 1 << 9
    moduli = _chain(degree, 50, 3)
    contexts = _contexts(degree, moduli)
    plan = NttPlan(contexts)
    assert not plan.float_lane and not hasattr(plan, "_fwd")
    x = _limbs(moduli, degree, seed=3)
    assert np.array_equal(plan.forward_all(x.copy()), NttChain(contexts).forward_all(x.copy()))
    conv = BaseConverter(moduli[:2], moduli[2:])
    assert not conv._matmul_ok
    assert np.array_equal(conv.convert_rows(x[:2]), conv._convert_rows_wide(x[:2]))


# -- BConv ---------------------------------------------------------------------


def _check_bconv(conv: BaseConverter, x: np.ndarray) -> None:
    got = conv.convert_rows(x)
    assert got.dtype == np.uint64
    assert np.array_equal(got, conv._convert_rows_wide(x))
    columns = [0, 1, x.shape[1] // 2, x.shape[1] - 1]
    want = bconv_oracle(conv.src_moduli, conv.dst_moduli, x, columns)
    assert np.array_equal(got[:, columns], want)


# Every converter is centered; the one-value parameter keeps each id's
# "-True" suffix from when a non-centered converter existed beside it.
@pytest.mark.parametrize("centered", (True,))
@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("degree", DEGREES)
@pytest.mark.parametrize("bits", WORD_BITS)
def test_bconv_matches_row_loop_and_oracle(bits, degree, rows, centered):
    src = _chain(degree, bits, rows)
    dst = _chain(degree, bits, DST_ROWS, skip=rows)
    conv = BaseConverter(src, dst)
    assert conv._matmul_ok
    for x in _edge_inputs(src, degree).values():
        _check_bconv(conv, x)
    _check_bconv(conv, _limbs(src, degree, seed=rows))


@pytest.mark.parametrize("bits", WORD_BITS)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_bconv_drawn_inputs(bits, seed):
    degree = 1 << 9
    src, dst = _chain(degree, bits, 3), _chain(degree, bits, DST_ROWS, skip=3)
    _check_bconv(BaseConverter(src, dst), _limbs(src, degree, seed))


def test_bconv_matmul_gate_tracks_the_proof():
    """The converter takes the matmul path exactly where the proof holds."""
    degree = 1 << 9
    narrow = _chain(degree, 36, 4)
    assert BaseConverter(narrow[:2], narrow[2:])._matmul_ok
    assert prove_bconv_matmul(max(narrow), src_count=2).ok
    wide = _chain(degree, 38, 4)
    assert not BaseConverter(wide[:2], wide[2:])._matmul_ok
    assert not BaseConverter(wide[:2], narrow[2:])._matmul_ok
    assert not prove_bconv_matmul((1 << 54) - 1, src_count=8, digit_bits=27).ok
    assert prove_bconv_matmul((1 << 36) - 1, src_count=255).ok
    assert not prove_bconv_matmul((1 << 36) - 1, src_count=256).ok


# -- kernels: out= and the int64 conversion lane -----------------------------------


@pytest.mark.parametrize("bits", (28, 36, 40))
def test_float_lane_out_matches_fresh_result(bits):
    degree = 1 << 9
    moduli = _chain(degree, bits, 3)
    kern = kernels.ModulusKernel(moduli)
    a, b = _limbs(moduli, degree, 1), _limbs(moduli, degree, 2)
    q_col = np.array(moduli, dtype=object).reshape(-1, 1)
    want = (a.astype(object) * b.astype(object) % q_col).astype(np.uint64)
    assert np.array_equal(kern.mul_f(a, b), want)
    w = np.array([q // 3 for q in moduli], dtype=np.uint64).reshape(-1, 1)
    want = (a.astype(object) * w.astype(object) % q_col).astype(np.uint64)
    w_shoup_f = kern.shoup(w.ravel()).astype(np.float64) * 2.0**-64
    assert np.array_equal(kern.shoup_mul_f(a, w, w_shoup_f), want)
    scratch = a.copy()
    assert kern.shoup_mul_f(scratch, w, w_shoup_f, out=scratch) is scratch
    assert np.array_equal(scratch, want)
    big = a * np.uint64(1 << 20) + b  # < 2**61
    want = (big.astype(object) % q_col).astype(np.uint64)
    assert np.array_equal(kern.reduce64_f(big), want)
    assert kern.reduce64_f(big, out=big) is big and np.array_equal(big, want)
