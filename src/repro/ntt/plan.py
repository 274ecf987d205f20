"""Precomputed NTT plans: lazy short-word butterflies over cache-sized blocks.

An :class:`NttPlan` freezes everything the hot transform loop needs for
one (moduli chain, degree) pair at context-build time: stacked twiddle
tables with their float64 Shoup mirrors, the bit-reversal permutation
and the reduction schedule.  ``forward_all``/``inverse_all`` then run
strided butterfly passes with ``out=`` ufuncs — no table recomputation,
no per-call shape dispatch, no allocation beyond the result.

Three things keep the transform cheap:

* **Long runs in every stage.**  A stage of butterfly span ``t`` read
  straight off a row streams runs of ``t`` words, so the late stages
  would crawl through 1 .. 16-word strides.  The plan splits at a
  transpose point ``T`` derived from the degree alone — the largest
  power of two with ``8 T**2 <= N`` (8 / 16 / 32 at ``N = 2**9`` /
  ``2**11`` / ``2**14``): the head stages (span ``>= 2T``) run on the
  row as it is, then one transpose turns each row into ``2T`` rows of
  ``C = N / 2T >= 4T`` contiguous words and the tail stages (span
  ``<= T``) run across those.  Every pass reads runs of at least
  ``2T`` words, the transpose composes with the bit-reversal gather on
  both ends, and each stage holds a compact copy of exactly the
  twiddle columns it reads, already in its layout.  (SHARP's ten-step
  NTTU splits the transform the same way so that every sub-transform
  runs on local lanes, paper S4.2.)
* **Lazy reduction.**  A 36-bit residue leaves 28 bits of a 64-bit lane
  unused, so the butterflies never repair their outputs.  Values are
  signed two's-complement representatives; a twiddle multiply is the
  float-quotient Shoup product (``repro.rns.kernels``) left at ``|r| <
  2q``, a CT stage is ``v = u - r; u += r`` (magnitudes grow by ``2q``)
  and a GS stage is ``t = u - v; u += v; v = t * w`` (magnitudes
  double).  :func:`lazy_schedule` derives from ``(q_max, log N)`` the
  stages before which a float-Barrett pass must bring magnitudes back
  under ``2q`` so that every multiplied operand stays below
  ``kernels.FLOAT_OPERAND_LIMIT`` — never for a 36-bit chain up to
  ``N = 2**14``, every other stage for a 47-bit one — and
  ``repro.check.bounds.prove_lazy_ntt_schedule`` proves the result.
* **Row blocking.**  Rows transform independently, so the matrix is
  walked in blocks of :func:`_block_rows` rows whose data and scratch
  stay L2-resident across all ``log N`` stages; scratch is one block,
  not one matrix.

Canonical outputs are bit-identical to
:class:`repro.ntt.reference.NttChain` (residues are unique), which
``tests/test_kernels_exact.py`` asserts.  Chains containing a modulus
outside ``[2**14, 2**48)`` (the 50/62-bit presets), and degrees below 8
where no transpose point exists, run the reference chain transforms
behind the same interface.
"""

from __future__ import annotations

import contextlib
import functools
from collections.abc import Iterator
from typing import Any

import numpy as np

from repro.ntt.reference import NttChain, NttContext, bit_reverse_indices
from repro.rns import kernels

__all__ = ["NttPlan", "lazy_schedule"]

_INV_2_64 = 2.0**-64

# Working set of one block: half of a 2 MiB L2, the other half left to
# the twiddles streaming through (each entry is read once per row).  Per
# coefficient a row holds its data, the transposed copy and three
# half-length scratch lanes.  Derived, not configurable: a larger block
# only trades cache misses for fewer Python dispatches and the optimum
# is flat around it (EXPERIMENTS "Short-word kernels").
_BLOCK_BYTES = 1 << 20
_BYTES_PER_COEFF = 8 + 8 + 3 * 4

_POOL = kernels.ScratchPool()
_ONE = np.uint64(1)


@contextlib.contextmanager
def _unbuffered() -> Iterator[None]:
    """The ufunc buffer at its minimum (and uint64 wraparound silenced).

    numpy stages a broadcast or strided operand through its cast buffer
    whenever an inner run is shorter than the buffer (8192 elements by
    default) — one extra copy per pass for every twiddle column and
    every u / v half below that span.  No pass here casts inside a
    ufunc, so with the smallest buffer each reads its operands in place.
    """
    with np.errstate(over="ignore"):
        saved = np.setbufsize(16)
        try:
            yield
        finally:
            np.setbufsize(saved)


_Stage = tuple[tuple[int, ...], np.ndarray, np.ndarray]


def _block_rows(degree: int) -> int:
    return max(1, _BLOCK_BYTES // (_BYTES_PER_COEFF * degree))


@functools.cache
def _layout(n: int) -> tuple[int, np.ndarray, np.ndarray]:
    """Transpose point ``T`` of degree ``n`` (``8 T**2 <= n``) and the
    gathers that fold the ``(2T, C)`` chunk transpose into the
    bit-reversal: forward output ``j`` reads transposed ``p * C + c``
    where ``rev[j] = c * 2T + p``; inverse input ``(p, c)`` reads
    ``rev[c * 2T + p]``.  Shared read-only by every plan of the degree."""
    t_split = 1 << (n.bit_length() - 4) // 2
    chunk, rev = 2 * t_split, bit_reverse_indices(n)
    fwd_perm = (rev % chunk) * (n // chunk) + rev // chunk
    inv_perm = rev.reshape(-1, chunk).T.ravel()
    fwd_perm.flags.writeable = inv_perm.flags.writeable = False
    return t_split, fwd_perm, inv_perm


def _columns(table: np.ndarray, m: int, shape: tuple[int, ...]) -> np.ndarray:
    """A compact copy of the twiddle columns ``m:2m`` in the layout of
    the stage view ``shape``: group ``g`` at ``[g]`` for a head stage
    ``(m, 2, t)``, group ``g = c * B + b`` at ``[b, c]`` for a tail stage
    ``(B, 2, t, C)``."""
    s = table[:, m : 2 * m]
    if len(shape) == 3:
        return s[:, :, None].copy()
    return s.reshape(len(s), shape[3], shape[0]).transpose(0, 2, 1)[:, :, None, :].copy()


def lazy_schedule(q_max: int, log_n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Stages before which the forward / inverse transform must reduce.

    Walks the worst-case magnitude ``|x| < bound`` through the ``log_n``
    stages: canonical input (``q``), ``+2q`` per CT stage, ``x2`` per GS
    stage, back to ``2q`` after a float-Barrett pass.  A stage's
    multiplied operand (``v``, resp. ``u - v``) must not exceed
    ``kernels.FLOAT_OPERAND_LIMIT``.
    """
    limit = kernels.FLOAT_OPERAND_LIMIT
    forward: list[int] = []
    inverse: list[int] = []
    bound = q_max
    for stage in range(log_n):
        if bound > limit:
            forward.append(stage)
            bound = 2 * q_max
        bound += 2 * q_max
    bound = q_max
    for stage in range(log_n):
        if 2 * bound > limit:
            inverse.append(stage)
            bound = 2 * q_max
        bound *= 2
    return tuple(forward), tuple(inverse)


def _lazy_mul(
    x: np.ndarray, w: np.ndarray | np.uint64, w_f: np.ndarray, q: np.ndarray,
    out: np.ndarray, qhat: np.ndarray, f: np.ndarray, canonical: bool = False,
) -> None:  # fmt: skip
    """``out = x * w mod q`` for signed ``|x| <= FLOAT_OPERAND_LIMIT + 2q``.

    The float quotient is within one of ``x * w / q``, so truncation
    leaves ``|out| < 2q``; ``canonical`` floors instead (remainder in
    ``(-q, 2q)``) and collapses to ``[0, q)``.  ``w = 1`` with the
    float reciprocal of ``q`` is the float-Barrett reduction.  ``out``
    may be ``x``; ``qhat`` and ``f`` are scratch of its shape.
    """
    kernels.float_qhat_times_q(x, w_f, q, qhat, f, floor=canonical)
    np.multiply(x, w, out=out)
    np.subtract(out, qhat, out=out)
    if canonical:
        np.add(out, q, out=qhat)
        np.minimum(out, qhat, out=out)  # wrap fix: [0, 2q)
        np.subtract(out, q, out=qhat)
        np.minimum(out, qhat, out=out)


class NttPlan:
    """Fused, blocked (L, N) limb-matrix transform plan.

    Built once per (chain, degree) by :meth:`repro.rns.poly.RingContext.plan`
    and cached for the life of the ring.  It holds each stage's twiddle
    columns once (four ``(L, N)`` tables' worth, float mirrors included);
    the degree-only gathers are shared by every plan of the degree.

    Plans are single-threaded objects (block scratch is module-wide).
    """

    def __init__(self, contexts: list[NttContext]) -> None:
        if not contexts:
            raise ValueError("a plan needs at least one NTT context")
        degree = contexts[0].degree
        if any(c.degree != degree for c in contexts):
            raise ValueError("all contexts must share one degree")
        self.degree = degree
        self.moduli = tuple(c.modulus for c in contexts)
        self.float_lane = degree >= 8 and all(
            kernels.FLOAT_BARRETT_MIN <= q < kernels.FLOAT_QHAT_LIMIT
            for q in self.moduli
        )
        self._chain = NttChain(list(contexts))
        if not self.float_lane:
            return

        n = degree
        self._fwd_reduce, self._inv_reduce = lazy_schedule(
            max(self.moduli), n.bit_length() - 1
        )
        self._q = np.array(self.moduli, dtype=np.uint64)
        self._q_inv_f = 1.0 / self._q.astype(np.float64)
        psi = np.stack([c._psi_rev for c in contexts])
        psi_inv = np.stack([c._psi_inv_rev for c in contexts])
        psi_f = np.stack([c._psi_rev_shoup for c in contexts]).astype(np.float64)
        psi_inv_f = np.stack([c._psi_inv_rev_shoup for c in contexts]).astype(np.float64)
        psi_f *= _INV_2_64
        psi_inv_f *= _INV_2_64
        # Last-GS-stage constants with n^{-1} folded in: the inverse's
        # final scaling comes for free inside the stage's Shoup multiply
        # (the u half pays one extra multiply by n^{-1} alone).
        n_inv = [int(c.n_inv) for c in contexts]
        last = [int(c._psi_inv_rev[1]) * ni % c.modulus for c, ni in zip(contexts, n_inv)]
        self._n_inv, self._last = (
            (
                np.array(vals, dtype=np.uint64)[:, None],
                np.array([(v << 64) // q for v, q in zip(vals, self.moduli)], dtype=np.uint64)
                .astype(np.float64)[:, None] * _INV_2_64,
            )
            for vals in (n_inv, last)
        )  # fmt: skip

        # One entry per CT stage and its mirror GS stage: (view shape of
        # a row, twiddles, float mirrors).  A view shape is (groups, 2,
        # span...) — axis 1 picks the u / v half.  Head stages view the
        # row as it is, tail stages the transposed (2T, C) chunk matrix.
        t_split, self._fwd_perm, self._inv_perm = _layout(n)
        self._chunk = 2 * t_split
        self._head = (n // (2 * self._chunk)).bit_length()  # the stages of span >= 2T
        fwd: list[_Stage] = []
        inv: list[_Stage] = []
        for stage in range(n.bit_length() - 1):
            m, t = 1 << stage, n >> (stage + 1)
            shape = (m, 2, t) if stage < self._head else (t_split // t, 2, t, n // self._chunk)
            fwd.append((shape, _columns(psi, m, shape), _columns(psi_f, m, shape)))
            inv.append((shape, _columns(psi_inv, m, shape), _columns(psi_inv_f, m, shape)))
        self._fwd = fwd
        self._inv = inv[:0:-1]  # GS runs the CT stages backwards; stage 0 is fused

    # -- transforms --------------------------------------------------------

    def _blocks(self, limbs: np.ndarray) -> Iterator[tuple[Any, ...]]:
        """Per row block: its rows, then work, spare, qhat, r and f scratch."""
        rows, n = limbs.shape
        step = _block_rows(n)
        for lo in range(0, rows, step):
            r = min(step, rows - lo)
            a, b, qhat, rem = _POOL.take(
                np.uint64, (r, n), (r, n), (r, n // 2), (r, n // 2)
            )
            (f,) = _POOL.take(np.float64, (r, n // 2))
            yield slice(lo, lo + r), a, b, qhat, rem, f

    def _reduce(
        self, a: np.ndarray, rows: slice, qhat: np.ndarray, f: np.ndarray, canonical: bool = False
    ) -> None:
        """Float-Barrett over the block, half a row at a time."""
        half = self.degree // 2
        q, q_inv_f = self._q[rows, None], self._q_inv_f[rows, None]
        for part in (a[:, :half], a[:, half:]):
            _lazy_mul(part, _ONE, q_inv_f, q, part, qhat, f, canonical)

    @staticmethod
    def _halves(
        a: np.ndarray, shape: tuple[int, ...], q: np.ndarray, *scratch: np.ndarray
    ) -> tuple[np.ndarray, ...]:
        """The u and v halves of a stage view, then the moduli as a
        column against them and scratch shaped like one."""
        view = a.reshape(a.shape[:1] + shape)
        lane = view.shape[:2] + view.shape[3:]
        column = q.reshape((-1,) + (1,) * (len(lane) - 1))
        return (view[:, :, 0], view[:, :, 1], column, *(s.reshape(lane) for s in scratch))

    @_unbuffered()
    def forward_all(self, limbs: np.ndarray) -> np.ndarray:
        """Forward-transform every limb row; natural order in and out."""
        if not self.float_lane:
            return self._chain.forward_all(limbs)
        limbs = np.asarray(limbs, dtype=np.uint64)
        rows, n = limbs.shape
        out = np.empty((rows, n), dtype=np.uint64)
        chunk = self._chunk
        for block, a, b, qhat, rem, f in self._blocks(limbs):
            np.copyto(a, limbs[block])
            for index, (shape, w, w_f) in enumerate(self._fwd):
                if index in self._fwd_reduce:
                    self._reduce(a, block, qhat, f)
                if index == self._head:
                    np.copyto(
                        b.reshape(-1, chunk, n // chunk),
                        a.reshape(-1, n // chunk, chunk).transpose(0, 2, 1),
                    )
                    a = b
                u, v, q, qb, r, fb = self._halves(a, shape, self._q[block], qhat, rem, f)
                _lazy_mul(v, w[block], w_f[block], q, r, qb, fb)
                np.subtract(u, r, out=v)
                np.add(u, r, out=u)
            self._reduce(a, block, qhat, f, canonical=True)
            np.take(a, self._fwd_perm, axis=1, out=out[block], mode="clip")
        return out

    @_unbuffered()
    def inverse_all(self, limbs: np.ndarray) -> np.ndarray:
        """Inverse-transform every limb row; natural order in and out."""
        if not self.float_lane:
            return self._chain.inverse_all(limbs)
        limbs = np.asarray(limbs, dtype=np.uint64)
        rows, n = limbs.shape
        out = np.empty((rows, n), dtype=np.uint64)
        chunk, half = self._chunk, n // 2
        tail_stages = len(self._fwd) - self._head
        for block, a, b, qhat, rem, f in self._blocks(limbs):
            np.take(limbs[block], self._inv_perm, axis=1, out=a, mode="clip")
            for index, (shape, w, w_f) in enumerate(self._inv):
                if index in self._inv_reduce:
                    self._reduce(a, block, qhat, f)
                if index == tail_stages:
                    np.copyto(
                        b.reshape(-1, n // chunk, chunk),
                        a.reshape(-1, chunk, n // chunk).transpose(0, 2, 1),
                    )
                    a = b
                u, v, q, qb, t, fb = self._halves(a, shape, self._q[block], qhat, rem, f)
                np.subtract(u, v, out=t)
                np.add(u, v, out=u)
                _lazy_mul(t, w[block], w_f[block], q, v, qb, fb)
            # Fused last stage: u' = (u + v) * n^{-1}, v' = (u - v) * s_1 *
            # n^{-1}, both canonicalized in place of the separate n^{-1}
            # fold the plain GS recursion would need.
            if len(self._inv) in self._inv_reduce:
                self._reduce(a, block, qhat, f)
            u, v, q = a[:, :half], a[:, half:], self._q[block, None]
            np.subtract(u, v, out=rem)
            np.add(u, v, out=u)
            for x, (w, w_f), dst in (
                (u, self._n_inv, out[block, :half]),
                (rem, self._last, out[block, half:]),
            ):
                _lazy_mul(x, w[block], w_f[block], q, dst, qhat, f, canonical=True)
        return out
