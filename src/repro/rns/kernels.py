"""Vectorized wide-modulus arithmetic: emulated 128-bit products in numpy.

SHARP's whole premise is that a **36-bit machine word** is the robust
word length for FHE (paper S3) — yet a numpy ``uint64`` lane overflows
as soon as two residues above ``2**32`` are multiplied, which is why the
functional library historically capped its fast path at ``q < 2**31``
and emulated wider scales with double-prime pairs.  This module removes
that cap the same way multi-precision NTT datapaths do in hardware
(Alexakis et al.; BASALISC's Montgomery NTT units): every wide modular
product is decomposed into narrow-word partial products.

Three primitive families, all exact and all vectorized:

* ``mul_hi`` — the high half of a 64x64 -> 128-bit product via 32-bit
  half-words (the systolic-array partial-product decomposition).
* Barrett reduction with a precomputed ``floor(2**64 / q)`` ratio — the
  EWE/BConvU reduction path — correct for any 64-bit input when
  ``q < 2**63``.
* Shoup multiplication for *constant* operands (twiddles, BConv table
  entries, rescale inverses): a precomputed quotient
  ``floor(w * 2**64 / q)`` turns the reduction into one high-half
  multiply plus two wrapping low multiplies, with a *lazy* variant whose
  ``[0, 2q)`` output range enables Harvey-style lazy NTT butterflies.

The resulting fast-path bound is ``q < 2**62`` (``FAST_MODULUS_LIMIT``):
lazy butterflies let intermediate values grow to ``4q``, which must stay
below ``2**64``.  SHARP's 36-bit primes therefore run natively, with
~2 bits of headroom beyond the largest bootstrapping scale (``2**62``).

:class:`ModulusKernel` bundles the per-modulus precomputations.  It
operates in two shapes: a *scalar* kernel (one modulus, any array
shape) and a *chain* kernel (one modulus per row of an ``(L, N)`` limb
matrix, constants stored as ``(L, 1)`` columns so every ring op is a
single broadcast expression over the whole matrix).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from functools import lru_cache
from typing import Any, Callable, TypeVar

import numpy as np

_F = TypeVar("_F", bound=Callable[..., Any])


def _wrapping(fn: _F) -> _F:
    """Silence numpy's scalar overflow warnings: uint64 wraparound is
    the *mechanism* here (low products are taken mod 2**64 by design),
    and numpy only warns for scalar operands anyway — array paths never
    check."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with np.errstate(over="ignore"):
            return fn(*args, **kwargs)

    return wrapper  # type: ignore[return-value]

__all__ = [
    "FAST_MODULUS_BITS",
    "FAST_MODULUS_LIMIT",
    "NARROW_SPLIT_BITS",
    "NARROW_SPLIT_LIMIT",
    "SPLIT_SHIFT",
    "lazy_inner_terms",
    "FLOAT_QHAT_BITS",
    "FLOAT_QHAT_LIMIT",
    "FLOAT_BARRETT_MIN_BITS",
    "FLOAT_OPERAND_LIMIT",
    "BCONV_DIGIT_BITS",
    "mul_hi",
    "neg_mod",
    "shoup_precompute",
    "shoup_mul_lazy",
    "shoup_mul",
    "float_qhat_times_q",
    "ScratchPool",
    "ModulusKernel",
    "kernel_for",
]

FAST_MODULUS_BITS = 62
FAST_MODULUS_LIMIT = 1 << FAST_MODULUS_BITS

# The float-quotient lane: for moduli in [2**14, 2**48) the Shoup /
# Barrett quotient estimate can be computed in float64 instead of an
# emulated 128-bit high multiply.  With w_f = RN(w_shoup * 2**-64) the
# product ``RN(v * w_f)`` carries a relative error below ``2**-52 +
# 2**-106``; for ``v < 4q < 2**50`` the absolute error stays below one,
# so ``floor`` of the float product is the true quotient up to +-1 and
# the remainder ``v*w - qhat*q`` lands in ``(-q, 3q)`` — repaired by the
# ``min(r, r + q)`` wrap trick and collapsed with conditional
# subtractions (see :meth:`ModulusKernel._collapse`).  That is
# ~half the vector passes of the integer half-word decomposition.  The
# lower bound 2**14 keeps the Barrett variant exact for any input below
# ``2**63`` (quotients up to ``2**49`` keep the float error under 3/8).
# ``repro.check.bounds`` proves both error chains exactly.
FLOAT_QHAT_BITS = 48
FLOAT_QHAT_LIMIT = 1 << FLOAT_QHAT_BITS
FLOAT_BARRETT_MIN_BITS = 14
FLOAT_BARRETT_MIN = 1 << FLOAT_BARRETT_MIN_BITS
# Largest operand a float-Shoup multiply takes (``4q`` at the window
# ceiling): the budget the lazy NTT spends between reductions.
FLOAT_OPERAND_LIMIT = 4 * FLOAT_QHAT_LIMIT
# BConv-as-matmul digit width: a short word is two 18-bit digits whose
# pairwise products (< 2**36) sum exactly in a float64 mantissa.
BCONV_DIGIT_BITS = 18

# Moduli below 2**41 admit a cheaper variable product than the full
# 128-bit decomposition: split one operand at SPLIT_SHIFT bits, fold the
# high part through lazy Barrett, and recombine — two vector multiplies
# and two reductions instead of four 32-bit partial products.  The
# bound chain (`repro.check.bounds.prove_narrow_split_mul`) keeps both
# partials below 2**63, so the float lane may convert them through
# int64 views (see `_i64`):
#   a * b_hi  <= (2**41 - 1) * (2**21 - 1)          < 2**62
#   (r1 << SPLIT_SHIFT) + a * b_lo < 2q * 2**20 + q * 2**20 < 2**63
NARROW_SPLIT_BITS = 41
NARROW_SPLIT_LIMIT = 1 << NARROW_SPLIT_BITS
SPLIT_SHIFT = 20


def lazy_inner_terms(q_max: int) -> int:
    """Products ``x * p`` a split inner product may sum before it reduces.

    ``NumpyBackend.plain_inner`` sums ``x * (p >> SPLIT_SHIFT)`` and ``x *
    (p & mask)`` over ``n`` terms as plain uint64 and reduces the totals
    like one split product; both stay float-Barrett operands while
    ``n * q * ceil(q / 2**20) < 2**63`` and ``(2 + n) * q * 2**20 <
    2**63`` (`repro.check.bounds.prove_lazy_plain_inner`): 126 terms for
    a 36-bit word, 4094 at 31 bits, 2 at the split limit.
    """
    limit = (1 << 63) - 1
    return min(
        limit // (q_max * -(-q_max >> SPLIT_SHIFT)), limit // (q_max << SPLIT_SHIFT) - 2
    )


def _i64(a: np.ndarray) -> np.ndarray:
    """Signed view of a uint64 array, for conversions to and from float64.

    numpy converts int64 about 1.5x faster than uint64 in either
    direction (no unsigned fix-up per element), and the results are
    identical below ``2**63`` — which ``repro.check.bounds`` proves of
    every float-lane operand.
    """
    return a.view(np.int64)


def float_qhat_times_q(x, ratio_f, q, qhat, f, floor: bool = False) -> None:
    """``qhat = trunc(x * ratio_f) * q``: the float-lane quotient pass.

    ``x`` is any operand below ``2**63`` in magnitude (see :func:`_i64`),
    ``ratio_f`` the float mirror of a Barrett ratio or Shoup quotient;
    the estimate is within one (Shoup) or two (Barrett) of the true
    quotient, so ``x*w - qhat`` lands in ``(-q, 3q)`` for ``x >= 0``.
    ``floor`` rounds a signed estimate down instead of toward zero.
    """
    np.copyto(f, _i64(x))
    np.multiply(f, ratio_f, out=f)
    if floor:
        np.floor(f, out=f)
    np.copyto(_i64(qhat), f, casting="unsafe")
    np.multiply(qhat, q, out=qhat)


_MASK32 = np.uint64(0xFFFFFFFF)
_U32 = np.uint64(32)
_U16 = np.uint64(16)
_SPLIT_SHIFT = np.uint64(SPLIT_SHIFT)
_SPLIT_MASK = np.uint64((1 << SPLIT_SHIFT) - 1)
_INV_2_64 = 2.0**-64


@_wrapping
def mul_hi(a, b) -> np.ndarray:
    """High 64 bits of the 128-bit product ``a * b`` (elementwise).

    Schoolbook 32-bit half-word decomposition; every partial sum fits
    ``uint64`` by construction, so the result is exact.
    """
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    a_lo = a & _MASK32
    a_hi = a >> _U32
    b_lo = b & _MASK32
    b_hi = b >> _U32
    ll = a_lo * b_lo
    lh = a_lo * b_hi
    hl = a_hi * b_lo
    # carry chain: three values < 2**32 summed, still < 2**64
    mid = (ll >> _U32) + (lh & _MASK32) + (hl & _MASK32)
    return a_hi * b_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)


@_wrapping
def neg_mod(a, q) -> np.ndarray:
    """``-a mod q`` for canonical residues."""
    zero = np.uint64(0)
    return np.where(a == zero, zero, q - a)


def shoup_precompute(w, q):
    """Shoup quotient ``floor(w * 2**64 / q)`` for constants ``w < q``.

    ``w`` may be a Python int or an integer array, ``q`` an int or an
    array broadcasting against it.  Fixed-width arrays over moduli
    below ``2**48`` take four rounds of exact 16-bit uint64 long
    division; everything else divides in arbitrary precision
    (setup-time only).  Returned as uint64.
    """
    if isinstance(w, np.ndarray):
        fixed_width = w.dtype != object and np.asarray(q).dtype != object
        if fixed_width and np.max(q) < FLOAT_QHAT_LIMIT:
            divisor = np.asarray(q, dtype=np.uint64)
            rem = w.astype(np.uint64)
            quotient = np.zeros(np.broadcast(rem, divisor).shape, dtype=np.uint64)
            for _ in range(4):
                rem = rem << _U16  # rem < q < 2**48, so no bit is lost
                digit = rem // divisor
                rem -= digit * divisor
                quotient = (quotient << _U16) | digit
            return quotient
        if w.dtype == object:
            wide = w << 64
        else:
            wide = w.astype(object) << 64
        if isinstance(q, np.ndarray):
            return (wide // q.astype(object)).astype(np.uint64)
        return (wide // int(q)).astype(np.uint64)
    return np.uint64((int(w) << 64) // int(q))


@_wrapping
def shoup_mul_lazy(a, w, w_shoup, q) -> np.ndarray:
    """``a * w mod q`` up to one extra ``q``: result in ``[0, 2q)``.

    Exact for any ``a < 2**64`` and constant ``w < q < 2**63``; the two
    low products wrap mod ``2**64`` by design.
    """
    qhat = mul_hi(a, w_shoup)
    return a * w - qhat * q


@_wrapping
def shoup_mul(a, w, w_shoup, q) -> np.ndarray:
    """``a * w mod q`` canonical, via one conditional subtraction."""
    r = shoup_mul_lazy(a, w, w_shoup, q)
    return np.where(r >= q, r - q, r)


class ScratchPool:
    """Grow-only flat scratch: one buffer per dtype, viewed per call.

    The high-water mark is the largest single request, however many
    shapes pass through.  Views from one :meth:`take` alias the next
    call's, so a pool serves one non-reentrant code path; every user is
    single-threaded by invariant.
    """

    def __init__(self) -> None:
        self._flat: dict[Any, np.ndarray] = {}

    def take(self, dtype: Any, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        """Disjoint ``dtype`` arrays of the given shapes (contents undefined)."""
        sizes = [math.prod(shape) for shape in shapes]
        total = sum(sizes)
        flat = self._flat.get(dtype)
        if flat is None or flat.size < total:
            flat = self._flat[dtype] = np.empty(total, dtype=dtype)
        views, start = [], 0
        for shape, size in zip(shapes, sizes):
            views.append(flat[start : start + size].reshape(shape))
            start += size
        return views


# Intermediate scratch shared by every ModulusKernel: the float-lane ops
# run entirely on ``out=`` passes and allocate only their result array.
_POOL = ScratchPool()


class ModulusKernel:
    """Per-modulus (or per-chain) precomputed reduction constants.

    Scalar mode (``ModulusKernel(q)``): constants are uint64 scalars and
    broadcast with arrays of any shape.  Chain mode
    (``ModulusKernel([q_0, ..., q_{L-1}])``): constants are ``(L, 1)``
    columns and broadcast row-wise over an ``(L, N)`` limb matrix.
    """

    def __init__(self, moduli: int | Sequence[int]) -> None:
        if isinstance(moduli, (int, np.integer)):
            mods = (int(moduli),)
            scalar = True
        else:
            mods = tuple(int(q) for q in moduli)
            scalar = False
        if not mods:
            raise ValueError("at least one modulus required")
        for q in mods:
            if not 3 <= q < FAST_MODULUS_LIMIT:
                raise ValueError(
                    f"modulus {q} outside the kernel range [3, 2**{FAST_MODULUS_BITS})"
                )
        self.moduli = mods
        self.q_max = max(mods)
        self.narrow = self.q_max < (1 << 31)
        self.split = self.q_max < NARROW_SPLIT_LIMIT
        # Float-quotient lane eligibility (see module constants): every
        # modulus of the chain must sit in [2**14, 2**48).
        self.float_ok = (
            min(mods) >= FLOAT_BARRETT_MIN and self.q_max < FLOAT_QHAT_LIMIT
        )

        def col(vals):
            arr = np.array(vals, dtype=np.uint64)
            return np.uint64(vals[0]) if scalar else arr.reshape(-1, 1)

        self.q = col(mods)
        self.two_q = col([2 * q for q in mods])
        # Barrett ratio for reducing any 64-bit value: floor(2**64 / q).
        self.v64 = col([(1 << 64) // q for q in mods])
        # 2**64 mod q and 2**32 mod q with their Shoup quotients, for
        # folding the high product half / split accumulator halves.
        self.r64 = col([(1 << 64) % q for q in mods])
        self.r64_shoup = col([((((1 << 64) % q) << 64) // q) for q in mods])
        self.r32 = col([(1 << 32) % q for q in mods])
        self.r32_shoup = col([((((1 << 32) % q) << 64) // q) for q in mods])
        # Float mirror of the Barrett ratio: RN(v64) * 2**-64.  The
        # power-of-two scaling is exact, so this is v64 rounded once to
        # 53 bits — precisely the operand the float-lane error analysis
        # (repro.check.bounds.prove_float_barrett) models.
        self.v64_f = self.v64.astype(np.float64) * _INV_2_64

    # -- element-wise ring ops -------------------------------------------

    @_wrapping
    def add(self, a, b) -> np.ndarray:
        """``(a + b) mod q`` for canonical residues (min-trick)."""
        shape = np.broadcast(a, b, self.q).shape
        (u1,) = _POOL.take(np.uint64, shape)
        s = np.empty(shape, dtype=np.uint64)
        np.add(a, b, out=s)
        np.subtract(s, self.q, out=u1)
        np.minimum(s, u1, out=s)
        return s

    @_wrapping
    def sub(self, a, b) -> np.ndarray:
        """``(a - b) mod q`` for canonical residues (min-trick)."""
        shape = np.broadcast(a, b, self.q).shape
        (u1,) = _POOL.take(np.uint64, shape)
        d = np.empty(shape, dtype=np.uint64)
        np.subtract(a, b, out=d)
        np.add(d, self.q, out=u1)
        np.minimum(d, u1, out=d)
        return d

    def neg(self, a) -> np.ndarray:
        return neg_mod(a, self.q)

    @_wrapping
    def reduce64_lazy(self, x) -> np.ndarray:
        """Any uint64 ``x`` to ``x mod q`` plus at most one ``q``."""
        return x - mul_hi(x, self.v64) * self.q

    def _collapse(self, r, tmp, lazy: bool) -> None:
        """Wrapped remainder in ``(-q, 3q)`` to ``[0, 2q)`` or canonical.

        A negative remainder wrapped mod ``2**64`` sits at or above
        ``2**64 - q``, so adding ``q`` wraps it back to the true value
        plus ``q`` (in ``[0, q)``), while a non-negative one lands in
        ``[q, 4q)`` without wrapping — the minimum picks the repaired
        branch unambiguously; conditional subtractions do the rest.
        """
        np.add(r, self.q, out=tmp)
        np.minimum(r, tmp, out=r)  # wrap fix: [0, 3q)
        np.subtract(r, self.two_q, out=tmp)
        np.minimum(r, tmp, out=r)
        if not lazy:
            np.subtract(r, self.q, out=tmp)
            np.minimum(r, tmp, out=r)

    @_wrapping
    def reduce64_f(self, x, lazy: bool = False, out=None) -> np.ndarray:
        """Float-lane Barrett: ``x < 2**63`` to ``[0, q)`` (``lazy``: ``[0, 2q)``).

        Requires ``float_ok``.  ``out`` may be ``x`` itself.
        """
        shape = np.broadcast(x, self.v64_f).shape
        (u1,), (f,) = _POOL.take(np.uint64, shape), _POOL.take(np.float64, shape)
        r = np.empty(shape, dtype=np.uint64) if out is None else out
        float_qhat_times_q(x, self.v64_f, self.q, u1, f)
        np.subtract(x, u1, out=r)
        self._collapse(r, u1, lazy)
        return r

    @_wrapping
    def shoup_mul_f(self, a, w, w_shoup_f, out=None) -> np.ndarray:
        """Constant multiply on the float-quotient lane.

        ``w_shoup_f`` is the Shoup quotient of :meth:`shoup` scaled by
        ``2**-64`` in float64; ``a`` may be lazy up to ``4q``.  Requires
        ``float_ok``; the result is canonical; ``out`` may be ``a``
        itself.
        """
        shape = np.broadcast(a, w, self.q).shape
        (u1,), (f,) = _POOL.take(np.uint64, shape), _POOL.take(np.float64, shape)
        r = np.empty(shape, dtype=np.uint64) if out is None else out
        float_qhat_times_q(a, w_shoup_f, self.q, u1, f)
        np.multiply(a, w, out=r)
        r -= u1
        self._collapse(r, u1, lazy=False)
        return r

    @_wrapping
    def mul_f(self, a, b) -> np.ndarray:
        """Variable product on the float-quotient lane (``q < 2**41``).

        Same split-operand shape as the integer split regime, but both
        reductions run on float64 quotients: ~60% of the vector passes.
        Requires ``float_ok and split``.
        """
        shape = np.broadcast(a, b, self.q).shape
        (u1, u2), (f,) = _POOL.take(np.uint64, shape, shape), _POOL.take(np.float64, shape)
        t = np.empty(shape, dtype=np.uint64)
        if np.shape(b) == shape:
            bh = np.right_shift(b, _SPLIT_SHIFT, out=u2)
        else:
            bh = b >> _SPLIT_SHIFT
        np.multiply(a, bh, out=t)
        float_qhat_times_q(t, self.v64_f, self.q, u1, f)
        t -= u1
        self._collapse(t, u1, lazy=True)  # r1 in [0, 2q)
        np.left_shift(t, _SPLIT_SHIFT, out=t)
        if np.shape(b) == shape:
            bl = np.bitwise_and(b, _SPLIT_MASK, out=u2)
        else:
            bl = b & _SPLIT_MASK
        np.multiply(a, bl, out=u1)
        t += u1  # < 3q * 2**20
        float_qhat_times_q(t, self.v64_f, self.q, u1, f)
        t -= u1
        self._collapse(t, u1, lazy=False)
        return t

    @_wrapping
    def mul(self, a, b) -> np.ndarray:
        """Variable x variable modular product, exact for ``q < 2**62``.

        Three regimes, fastest applicable wins:

        * ``q < 2**31`` — both residues fit 32 bits, plain numpy.
        * ``q < 2**41`` — split ``b`` at ``SPLIT_SHIFT``; the high part
          folds through lazy Barrett before recombining, so no 128-bit
          emulation is needed (SHARP's 36-bit primes land here).
        * otherwise — full 128-bit product: the high half folds through
          the constant ``2**64 mod q`` (Shoup), the low half through
          Barrett, and both lazy halves share one final reduction.
        """
        if self.narrow:
            return (a * b) % self.q
        if self.split:
            r1 = self.reduce64_lazy(a * (b >> _SPLIT_SHIFT))
            r = self.reduce64_lazy((r1 << _SPLIT_SHIFT) + a * (b & _SPLIT_MASK))
            return np.where(r >= self.q, r - self.q, r)
        hi = mul_hi(a, b)
        lo = a * b  # wraps mod 2**64 == the low product half
        t = shoup_mul_lazy(hi, self.r64, self.r64_shoup, self.q)
        u = self.reduce64_lazy(lo)
        s = t + u  # < 4q < 2**64
        s = np.where(s >= self.two_q, s - self.two_q, s)
        return np.where(s >= self.q, s - self.q, s)

    # -- constant-operand ops --------------------------------------------

    def shoup(self, w) -> np.ndarray:
        """Shoup quotients for per-row constants ``w`` (ints or array)."""
        if isinstance(w, np.ndarray):
            arr = w
        else:
            arr = np.array([int(x) for x in np.atleast_1d(w)], dtype=np.uint64)
        if np.isscalar(self.q) or self.q.ndim == 0:
            return shoup_precompute(arr if arr.ndim else int(arr), self.moduli[0])
        return shoup_precompute(arr.reshape(-1, 1).astype(object), self.q.astype(object))

    @_wrapping
    def mul_const(self, a, w) -> np.ndarray:
        """``a * w mod q`` with constant ``w`` (per-row in chain mode)."""
        w_shoup = self.shoup(w)
        if not (np.isscalar(self.q) or self.q.ndim == 0):
            w = np.asarray(w, dtype=np.uint64).reshape(-1, 1)
        return shoup_mul(a, w, w_shoup, self.q)

    # -- wide accumulation -----------------------------------------------

    @_wrapping
    def sum_mod(self, terms: np.ndarray, axis: int = 0) -> np.ndarray:
        """Exact ``terms.sum(axis) mod q`` for terms below ``2**63``.

        The matmul-style accumulation of BConv: each term splits into
        32-bit halves whose per-half sums cannot overflow (up to ``2**32``
        terms), and the two half-sums fold back together through the
        constant ``2**32 mod q`` — hi/lo carry handling without any
        per-limb Python loop or 128-bit accumulator.
        """
        if not (np.isscalar(self.q) or self.q.ndim == 0):
            raise ValueError("sum_mod requires a scalar-mode kernel")
        lo = (terms & _MASK32).sum(axis=axis, dtype=np.uint64)
        hi = (terms >> _U32).sum(axis=axis, dtype=np.uint64)
        s = shoup_mul_lazy(hi, self.r32, self.r32_shoup, self.q)
        s = s + self.reduce64_lazy(lo)  # < 4q
        s = np.where(s >= self.two_q, s - self.two_q, s)
        return np.where(s >= self.q, s - self.q, s)


_KERNEL_CACHE_SIZE = 128


@lru_cache(maxsize=_KERNEL_CACHE_SIZE)
def _kernel_cached(moduli: tuple, scalar: bool) -> ModulusKernel:
    return ModulusKernel(moduli[0] if scalar else list(moduli))


def kernel_for(moduli) -> ModulusKernel:
    """Bounded process-wide kernel cache keyed on the modulus tuple.

    Accepts a single modulus (scalar kernel) or a sequence of chain
    moduli (column-constant kernel).  The LRU bound keeps long-lived
    services (``repro.serve``) from accumulating one kernel per modulus
    value forever.
    """
    if isinstance(moduli, (int, np.integer)):
        return _kernel_cached((int(moduli),), True)
    return _kernel_cached(tuple(int(q) for q in moduli), False)
