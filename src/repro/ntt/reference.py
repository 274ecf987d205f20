"""Reference negacyclic number-theoretic transform.

The NTT maps a polynomial in ``Z_q[X]/(X^N + 1)`` to its evaluations at
the odd powers of a primitive ``2N``-th root of unity ``psi``, turning
negacyclic convolution into element-wise multiplication (paper S2.2).
This module implements the merged Cooley-Tukey / Gentleman-Sande
algorithms of Longa & Naehrig, vectorized with numpy, as the bit-exact
golden model against which the fused :class:`~repro.ntt.plan.NttPlan`
and the ten-step model are validated; the ten-step model's inner
transforms are this module's butterflies.

Butterflies use Harvey-style *lazy reduction* with Shoup precomputed
twiddle quotients (:mod:`repro.rns.kernels`): intermediate values live
in ``[0, 4q)`` and are only brought back to canonical form at the end
of the transform.  That removes every per-butterfly integer division
*and* lifts the fast-path modulus bound from the historical ``2**31``
to ``kernels.FAST_MODULUS_LIMIT`` (``2**62``), so SHARP's native
36-bit primes — and the ``2**62`` bootstrapping scale itself — run on
the vectorized path instead of falling back to object arrays or
double-prime emulation.

Transforms are batched: ``forward``/``inverse`` accept any ``(..., N)``
stack of rows sharing one modulus, and :class:`NttChain` stacks the
per-limb plans of an RNS chain so an entire ``(L, N)`` limb matrix is
transformed in one set of strided numpy passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rns import kernels
from repro.rns.modmath import mod_inverse, nth_root_of_unity

__all__ = ["NttContext", "NttChain", "bit_reverse_indices"]

_FAST_MODULUS_LIMIT = kernels.FAST_MODULUS_LIMIT


def bit_reverse_indices(n: int) -> np.ndarray:
    """Index array ``r`` with ``r[i]`` = bit-reversal of ``i`` in log2(n) bits."""
    if n & (n - 1) or n < 1:
        raise ValueError("n must be a power of two")
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for b in range(bits):
        rev |= ((idx >> b) & 1) << (bits - 1 - b)
    return rev


def _forward_core_lazy(a, psi, psi_shoup, q, two_q):
    """CT butterflies over ``(R, n)`` rows, natural -> bit-reversed order.

    ``psi``/``psi_shoup`` are ``(n,)`` (shared modulus) or ``(R, n)``
    (one modulus per row, :class:`NttChain`); ``q``/``two_q`` broadcast
    accordingly (scalar or ``(R, 1, 1)``).  Input rows must be canonical;
    intermediate values stay in ``[0, 4q)`` and the caller reduces.
    """
    n = a.shape[-1]
    rows = a.shape[0]
    per_row = psi.ndim == 2
    t = n
    m = 1
    while m < n:
        t //= 2
        view = a.reshape(rows, m, 2 * t)
        if per_row:
            s = psi[:, m : 2 * m, None]
            s_sh = psi_shoup[:, m : 2 * m, None]
        else:
            s = psi[m : 2 * m, None]
            s_sh = psi_shoup[m : 2 * m, None]
        u = view[:, :, :t]
        u = np.where(u >= two_q, u - two_q, u)  # [0, 2q)
        v = kernels.shoup_mul_lazy(view[:, :, t:], s, s_sh, q)  # [0, 2q)
        view[:, :, :t] = u + v
        view[:, :, t:] = u + two_q - v
        m *= 2
    return a


def _inverse_core_lazy(a, psi_inv, psi_inv_shoup, q, two_q):
    """GS butterflies over ``(R, n)`` rows, bit-reversed -> natural order.

    Input rows must be below ``2q``; outputs stay in ``[0, 2q)`` and
    still carry the ``n`` factor (the caller folds in ``n^{-1}``).
    """
    n = a.shape[-1]
    rows = a.shape[0]
    per_row = psi_inv.ndim == 2
    t = 1
    m = n
    while m > 1:
        h = m // 2
        view = a.reshape(rows, h, 2 * t)
        if per_row:
            s = psi_inv[:, h : 2 * h, None]
            s_sh = psi_inv_shoup[:, h : 2 * h, None]
        else:
            s = psi_inv[h : 2 * h, None]
            s_sh = psi_inv_shoup[h : 2 * h, None]
        u = view[:, :, :t]
        v = view[:, :, t:]
        total = u + v  # < 4q
        diff = u + two_q - v  # < 4q
        view[:, :, :t] = np.where(total >= two_q, total - two_q, total)
        view[:, :, t:] = kernels.shoup_mul_lazy(diff, s, s_sh, q)
        t *= 2
        m = h
    return a


def _canonicalize(a, q, two_q):
    """Reduce lazy values in ``[0, 4q)`` to canonical ``[0, q)``."""
    a = np.where(a >= two_q, a - two_q, a)
    return np.where(a >= q, a - q, a)


@dataclass
class NttContext:
    """Per-modulus NTT plan: roots, Shoup twiddle tables, and transforms.

    Forward/inverse transforms use the *natural* index order on both
    sides; the evaluation at slot ``k`` is the polynomial evaluated at
    ``psi ** (2 * bitrev(k) + 1)`` internally, but callers never need
    that detail (paper observation (8): any consistent ordering works
    for everything except (I)NTT and automorphism themselves).
    """

    degree: int
    modulus: int

    def __post_init__(self):
        n, q = self.degree, self.modulus
        if n & (n - 1) or n < 2:
            raise ValueError("degree must be a power of two >= 2")
        if q >= _FAST_MODULUS_LIMIT:
            raise ValueError(
                f"modulus {q} >= 2^{kernels.FAST_MODULUS_BITS}; lazy butterflies "
                "would overflow uint64"
            )
        psi = nth_root_of_unity(2 * n, q)
        rev = bit_reverse_indices(n)
        powers = np.empty(n, dtype=np.uint64)
        acc = 1
        for i in range(n):
            powers[i] = acc
            acc = acc * psi % q
        psi_inv = mod_inverse(psi, q)
        inv_powers = np.empty(n, dtype=np.uint64)
        acc = 1
        for i in range(n):
            inv_powers[i] = acc
            acc = acc * psi_inv % q

        self.psi = psi
        self.psi_inv = psi_inv
        self.n_inv = mod_inverse(n, q)
        self.kernel = kernels.kernel_for(q)
        self._rev = rev
        # Longa-Naehrig tables: psi powers in bit-reversed index order,
        # with their Shoup quotients for lazy butterflies.
        self._psi_rev = powers[rev].copy()
        self._psi_inv_rev = inv_powers[rev].copy()
        self._psi_rev_shoup = kernels.shoup_precompute(self._psi_rev, q)
        self._psi_inv_rev_shoup = kernels.shoup_precompute(self._psi_inv_rev, q)
        self._n_inv_shoup = kernels.shoup_precompute(self.n_inv, q)

    # -- core butterflies ---------------------------------------------------

    def _forward_core(self, values: np.ndarray) -> np.ndarray:
        """CT butterflies: natural-order input -> bit-reversed output."""
        q = np.uint64(self.modulus)
        two_q = np.uint64(2 * self.modulus)
        shape = np.shape(values)
        a = np.ascontiguousarray(values, dtype=np.uint64).reshape(-1, shape[-1]).copy()
        a = _forward_core_lazy(a, self._psi_rev, self._psi_rev_shoup, q, two_q)
        return _canonicalize(a, q, two_q).reshape(shape)

    def _inverse_core(self, values: np.ndarray) -> np.ndarray:
        """GS butterflies: bit-reversed input -> natural output (scaled)."""
        q = np.uint64(self.modulus)
        two_q = np.uint64(2 * self.modulus)
        shape = np.shape(values)
        a = np.ascontiguousarray(values, dtype=np.uint64).reshape(-1, shape[-1]).copy()
        a = _inverse_core_lazy(a, self._psi_inv_rev, self._psi_inv_rev_shoup, q, two_q)
        out = kernels.shoup_mul(a, np.uint64(self.n_inv), self._n_inv_shoup, q)
        return out.reshape(shape)

    # -- public natural-order API --------------------------------------------

    def forward(self, coeffs: np.ndarray) -> np.ndarray:
        """Negacyclic NTT over the last axis, natural order in and out."""
        return self._forward_core(coeffs)[..., self._rev]

    def inverse(self, evals: np.ndarray) -> np.ndarray:
        """Inverse negacyclic NTT, natural order in and out."""
        return self._inverse_core(np.asarray(evals, dtype=np.uint64)[..., self._rev])

    def negacyclic_multiply(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Polynomial product in ``Z_q[X]/(X^N + 1)`` via the NTT."""
        fa = self._forward_core(a)
        fb = self._forward_core(b)
        return self._inverse_core(self.kernel.mul(fa, fb))

    def evaluation_points(self) -> np.ndarray:
        """psi exponents evaluated at each natural-order output slot.

        slot ``k`` of :meth:`forward` holds the evaluation of the input
        polynomial at ``psi ** evaluation_points()[k]``.
        """
        n = self.degree
        return (2 * np.arange(n, dtype=np.int64) + 1) % (2 * n)


class NttChain:
    """Stacked per-limb NTT plans transforming an ``(L, N)`` limb matrix.

    An RNS polynomial's limbs share the transform *schedule* (it only
    depends on ``N``) but not the twiddles, so stacking the per-modulus
    tables into ``(L, N)`` matrices lets one set of strided butterfly
    passes process every limb at once — the software analogue of an
    accelerator running all RNS lanes in lockstep.

    The stacked pass amortizes numpy call overhead and wins ~3x while
    the whole limb matrix stays cache-resident; past that the strided
    all-limb sweeps thrash the cache and limb-at-a-time transforms win
    ~1.4x instead (measured break-even ~2^15 elements).  ``forward_all``
    and ``inverse_all`` dispatch on the matrix size accordingly.
    """

    # Largest limb-matrix element count the stacked pass handles before
    # falling back to limb-at-a-time transforms (~256 KiB of uint64).
    STACKED_MAX_ELEMS = 1 << 15

    def __init__(self, plans: list[NttContext]):
        if not plans:
            raise ValueError("a chain needs at least one plan")
        degree = plans[0].degree
        if any(p.degree != degree for p in plans):
            raise ValueError("all plans must share one degree")
        self.degree = degree
        self.moduli = tuple(p.modulus for p in plans)
        self._plans = list(plans)
        self._rev = plans[0]._rev
        self._q = np.array(self.moduli, dtype=np.uint64).reshape(-1, 1, 1)
        self._two_q = np.array(
            [2 * q for q in self.moduli], dtype=np.uint64
        ).reshape(-1, 1, 1)
        self._psi = np.stack([p._psi_rev for p in plans])
        self._psi_shoup = np.stack([p._psi_rev_shoup for p in plans])
        self._psi_inv = np.stack([p._psi_inv_rev for p in plans])
        self._psi_inv_shoup = np.stack([p._psi_inv_rev_shoup for p in plans])
        self._n_inv = np.array(
            [p.n_inv for p in plans], dtype=np.uint64
        ).reshape(-1, 1)
        self._n_inv_shoup = np.array(
            [p._n_inv_shoup for p in plans], dtype=np.uint64
        ).reshape(-1, 1)

    def forward_all(self, limbs: np.ndarray) -> np.ndarray:
        """Forward-transform every limb row; natural order in and out."""
        if limbs.size > self.STACKED_MAX_ELEMS:
            return np.stack(
                [p.forward(limbs[i]) for i, p in enumerate(self._plans)]
            )
        a = np.ascontiguousarray(limbs, dtype=np.uint64).copy()
        a = _forward_core_lazy(a, self._psi, self._psi_shoup, self._q, self._two_q)
        q2 = self._q.reshape(-1, 1)
        two_q2 = self._two_q.reshape(-1, 1)
        return _canonicalize(a, q2, two_q2)[:, self._rev]

    def inverse_all(self, limbs: np.ndarray) -> np.ndarray:
        """Inverse-transform every limb row; natural order in and out."""
        if limbs.size > self.STACKED_MAX_ELEMS:
            return np.stack(
                [p.inverse(limbs[i]) for i, p in enumerate(self._plans)]
            )
        a = np.ascontiguousarray(limbs[:, self._rev], dtype=np.uint64)
        a = _inverse_core_lazy(
            a, self._psi_inv, self._psi_inv_shoup, self._q, self._two_q
        )
        q2 = self._q.reshape(-1, 1)
        return kernels.shoup_mul(a, self._n_inv, self._n_inv_shoup, q2)
