"""Fast RNS base conversion (BConv, paper S2.2).

Converts a polynomial's residues from one RNS basis ``{q_i}`` to
another ``{p_j}`` without leaving RNS:

    BConv(a)_j = sum_i [ a_i * (Q/q_i)^(-1) ]_{q_i} * (Q/q_i  mod p_j)   (mod p_j)

which is a matrix-matrix multiplication between the ``L x N`` limb
matrix and a precomputed ``K x L`` *base table* — the computation
SHARP's 2-D systolic BConvU streams (S4.5).  Both factors of each term
are constants known at setup, so the inner products run entirely on
Shoup precomputed-quotient multiplies (:mod:`repro.rns.kernels`) with a
split-accumulator reduction (``ModulusKernel.sum_mod``) instead of a
per-limb Python loop — valid for any modulus below ``2**62``, covering
SHARP's native 36-bit primes.  The conversion is the *approximate*
(HPS-style) variant: the result may be off by a small multiple
``e * Q`` with ``0 <= e < L``, which downstream CKKS noise absorbs —
the same behaviour as every RNS-CKKS library.

BConv requires coefficient representation (the INTT -> BConv -> NTT
pattern the paper's dataflow optimizes for).
"""

from __future__ import annotations

import numpy as np

from repro.rns import kernels
from repro.rns.modmath import mod_inverse
from repro.rns.poly import RnsPolynomial

__all__ = ["BaseConverter"]

# (K, L, N) scratch of the fused path, shared by every converter (ModUp
# and ModDown between them keep hundreds alive): allocation-free in
# steady state at the footprint of the single largest conversion.
_POOL = kernels.ScratchPool()


class BaseConverter:
    """Precomputed base conversion from ``src_moduli`` to ``dst_moduli``.

    The *centered* variant (default) estimates the CRT overflow count
    ``e = round(sum_i y_i / q_i)`` in floating point and subtracts
    ``e * Q``, producing the representative nearest zero.  Without it
    the output carries a positive bias of up to ``L/2 * Q`` which — once
    divided down in ModDown — becomes a low-frequency error that the
    canonical embedding amplifies by ``O(N)`` in the worst slot.
    """

    def __init__(self, src_moduli, dst_moduli, centered: bool = True):
        self.src_moduli = tuple(src_moduli)
        self.dst_moduli = tuple(dst_moduli)
        self.centered = centered
        if set(self.src_moduli) & set(self.dst_moduli):
            raise ValueError("source and destination bases must be disjoint")
        for q in self.src_moduli + self.dst_moduli:
            if q >= kernels.FAST_MODULUS_LIMIT:
                raise ValueError(
                    f"modulus {q} >= 2^{kernels.FAST_MODULUS_BITS} is outside "
                    "the vectorized BConv range"
                )
        q_big = 1
        for q in self.src_moduli:
            q_big *= q
        # y_i = [a_i * q_hat_i^(-1)]_{q_i}: per-row constants with Shoup
        # quotients, consumed by the chain-mode source kernel.
        self._src_kernel = kernels.ModulusKernel(self.src_moduli)
        inv = [mod_inverse((q_big // q) % q, q) for q in self.src_moduli]
        self._inv = np.array(inv, dtype=np.uint64)
        self._inv_col = self._inv.reshape(-1, 1)
        self._inv_shoup = np.array(
            [(v << 64) // q for v, q in zip(inv, self.src_moduli)],
            dtype=np.uint64,
        ).reshape(-1, 1)
        # Base table: table[j][i] = q_hat_i mod p_j  (the K x L matrix),
        # plus its Shoup quotients w.r.t. each destination prime.
        table = [
            [(q_big // q) % p for q in self.src_moduli] for p in self.dst_moduli
        ]
        self.table = np.array(table, dtype=np.uint64)
        self.table_shoup = np.array(
            [[(w << 64) // p for w in row] for row, p in zip(table, self.dst_moduli)],
            dtype=np.uint64,
        )
        self._dst_kernels = [kernels.kernel_for(p) for p in self.dst_moduli]
        self._q_mod_dst = np.array(
            [q_big % p for p in self.dst_moduli], dtype=np.uint64
        )
        # Centered correction constant (-Q mod p_j) with Shoup quotient.
        corr = [(p - q_big % p) % p for p in self.dst_moduli]
        self._corr = np.array(corr, dtype=np.uint64)
        self._corr_shoup = np.array(
            [(c << 64) // p for c, p in zip(corr, self.dst_moduli)],
            dtype=np.uint64,
        )
        self._src_inv_float = np.array(
            [1.0 / q for q in self.src_moduli]
        ).reshape(-1, 1)
        # Fused (K, L, N) path: all destination Shoup multiplies run on
        # the float-quotient lane with lazy terms in [0, 3p_j), summed as
        # plain uint64 and reduced once per destination row.  Safe iff
        # every p_j admits the float lane, the canonical y_i (< q_src)
        # fit the float-Shoup operand bound, and the L-term lazy sum
        # stays below 2**63 (cf. prove_bconv_accumulator).
        p_max = max(self.dst_moduli)
        self._dst_chain_kernel = kernels.kernel_for(self.dst_moduli)
        self._fused_ok = (
            all(
                kernels.FLOAT_BARRETT_MIN <= p < kernels.FLOAT_QHAT_LIMIT
                for p in self.dst_moduli
            )
            and max(self.src_moduli) < kernels.FLOAT_QHAT_LIMIT
            and len(self.src_moduli) * 3 * p_max < (1 << 63)
        )
        self._src_float = self._src_kernel.float_ok
        self._inv_shoup_f = self._inv_shoup.astype(np.float64) * 2.0**-64
        if self._fused_ok:
            self._table3 = self.table[:, :, None]
            self._table_f = (
                self.table_shoup.astype(np.float64)[:, :, None] * 2.0**-64
            )
            self._dst_q3 = np.array(
                self.dst_moduli, dtype=np.uint64
            ).reshape(-1, 1, 1)
            self._corr_col = self._corr.reshape(-1, 1)
            self._corr_shoup_f = (
                self._corr_shoup.reshape(-1, 1).astype(np.float64) * 2.0**-64
            )

    @property
    def flop_shape(self) -> tuple[int, int]:
        """(K, L): the matrix dimensions a BConvU must stream."""
        return (len(self.dst_moduli), len(self.src_moduli))

    def convert(self, poly: RnsPolynomial) -> RnsPolynomial:
        """Convert limbs to the destination basis (coefficient form only)."""
        if poly.ntt_form:
            raise ValueError("BConv requires the coefficient representation")
        if poly.moduli != self.src_moduli:
            raise ValueError("polynomial basis does not match the converter")
        if poly.ring.use_plans:
            rows = poly.ring.backend.bconv(self, poly.limbs)
        else:
            rows = self._convert_rows_legacy(poly.limbs)
        return RnsPolynomial(poly.ring, self.dst_moduli, rows, ntt_form=False)

    def convert_rows(self, limbs: np.ndarray) -> np.ndarray:
        """Raw ``(L, N) -> (K, N)`` conversion (backend entry point)."""
        if self._fused_ok:
            return self._convert_rows_fused(limbs)
        return self._convert_rows_legacy(limbs)

    def _scaled_src(self, limbs: np.ndarray):
        """``y_i = [a_i * q_hat_i^(-1)]_{q_i}`` plus the overflow estimate."""
        if self._src_float:
            y = self._src_kernel.shoup_mul_f(
                limbs, self._inv_col, self._inv_shoup_f
            )
        else:
            y = kernels.shoup_mul(
                limbs, self._inv_col, self._inv_shoup, self._src_kernel.q
            )
        overflow = None
        if self.centered:
            overflow = np.rint((y * self._src_inv_float).sum(axis=0)).astype(
                np.uint64
            )
        return y, overflow

    @kernels._wrapping
    def _convert_rows_fused(self, limbs: np.ndarray) -> np.ndarray:
        """One broadcast (K, L, N) pass on the float-quotient lane.

        Terms stay lazy in ``[0, 3p_j)`` — the wrap fix after the float
        Shoup multiply is enough, no conditional subtract — and the sum
        over the ``L`` source limbs is a plain uint64 reduction bounded
        by ``3 * L * p_max < 2**63``, paying exactly one float-Barrett
        reduction per destination row.  Canonical outputs match the
        legacy per-row loop bit for bit.
        """
        y, overflow = self._scaled_src(limbs)
        shape = (len(self.dst_moduli), len(self.src_moduli), limbs.shape[-1])
        (f,) = _POOL.take(np.float64, shape)
        qhat, r, acc = _POOL.take(np.uint64, shape, shape, shape[::2])
        np.multiply(y, self._table_f, out=f)
        np.copyto(qhat, f, casting="unsafe")
        qhat *= self._dst_q3
        np.multiply(y, self._table3, out=r)
        r -= qhat
        np.add(r, self._dst_q3, out=qhat)
        np.minimum(r, qhat, out=r)  # wrap fix: [0, 3p)
        # Unrolled middle-axis sum: contiguous-slice adds beat numpy's
        # strided reduce ~2x at these (K, L, N) shapes.
        src_count = r.shape[1]
        if src_count == 1:
            np.copyto(acc, r[:, 0])
        else:
            np.add(r[:, 0], r[:, 1], out=acc)
            for i in range(2, src_count):
                acc += r[:, i]
        # (K, N), < 3*L*p < 2**63
        kern = self._dst_chain_kernel
        out = kern.reduce64_f(acc)
        if overflow is not None:
            corr = kern.shoup_mul_f(
                overflow, self._corr_col, self._corr_shoup_f
            )
            out = kern.add(out, corr)
        return out

    def _convert_rows_legacy(self, limbs: np.ndarray) -> np.ndarray:
        """Per-destination-row Shoup/sum_mod loop (any modulus < 2**62)."""
        y, overflow = self._scaled_src(limbs)
        out_rows = []
        for j, kern in enumerate(self._dst_kernels):
            # terms[i] = y_i * table[j, i] mod p_j, lazy in [0, 2p_j):
            # still < 2**63, which sum_mod's split accumulator requires.
            terms = kernels.shoup_mul_lazy(
                y,
                self.table[j].reshape(-1, 1),
                self.table_shoup[j].reshape(-1, 1),
                kern.q,
            )
            acc = kern.sum_mod(terms, axis=0)
            if self.centered:
                corr = kernels.shoup_mul(
                    overflow, self._corr[j], self._corr_shoup[j], kern.q
                )
                acc = kern.add(acc, corr)
            out_rows.append(acc)
        return np.stack(out_rows)


class _ConverterCache:
    """Process-wide cache keyed by (src, dst) bases."""

    def __init__(self):
        self._cache: dict[tuple, BaseConverter] = {}

    def get(self, src_moduli, dst_moduli) -> BaseConverter:
        key = (tuple(src_moduli), tuple(dst_moduli))
        conv = self._cache.get(key)
        if conv is None:
            conv = BaseConverter(*key)
            self._cache[key] = conv
        return conv


CONVERTERS = _ConverterCache()
