"""Fast RNS base conversion (BConv, paper S2.2).

Converts a polynomial's residues from one RNS basis ``{q_i}`` to
another ``{p_j}`` without leaving RNS:

    BConv(a)_j = sum_i [ a_i * (Q/q_i)^(-1) ]_{q_i} * (Q/q_i  mod p_j)   (mod p_j)

which is a matrix-matrix multiplication between the ``L x N`` limb
matrix and a precomputed ``K x L`` *base table* — the computation
SHARP's 2-D systolic BConvU streams (S4.5).  For short words (every
modulus below ``2**36``) it runs as exactly that: residues and table
entries split into 18-bit digits, one float64 matrix product whose
digit sums stay below ``2**53``, one reduction per destination row
(:meth:`BaseConverter._convert_rows_matmul`).  Wider moduli, up to
``2**62``, take a per-destination-row loop of Shoup multiplies
(:mod:`repro.rns.kernels`) with a split-accumulator reduction
(``ModulusKernel.sum_mod``).  The conversion is the *approximate*
(HPS-style) variant: the result may be off by a small multiple
``e * Q`` with ``0 <= e < L``, which downstream CKKS noise absorbs —
the same behaviour as every RNS-CKKS library.

BConv requires coefficient representation (the INTT -> BConv -> NTT
pattern the paper's dataflow optimizes for).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.rns import kernels
from repro.rns.kernels import _i64
from repro.rns.modmath import mod_inverse

__all__ = ["BaseConverter"]

# Operand and digit-sum scratch of the matmul path, shared by every
# converter (ModUp and ModDown between them keep hundreds alive): the
# only per-call allocation is the result, at the footprint of the single
# largest conversion.
_POOL = kernels.ScratchPool()

_DIGIT_BITS = kernels.BCONV_DIGIT_BITS
_DIGIT_SHIFT = np.uint64(_DIGIT_BITS)
_DIGIT_MASK = np.uint64((1 << _DIGIT_BITS) - 1)


class BaseConverter:
    """Precomputed base conversion from ``src_moduli`` to ``dst_moduli``.

    The conversion is *centered*: it estimates the CRT overflow count
    ``e = round(sum_i y_i / q_i)`` in floating point and subtracts
    ``e * Q``, producing the representative nearest zero.  Without that
    the output would carry a positive bias of up to ``L/2 * Q`` which — once
    divided down in ModDown — becomes a low-frequency error that the
    canonical embedding amplifies by ``O(N)`` in the worst slot.
    """

    def __init__(self, src_moduli: Sequence[int], dst_moduli: Sequence[int]) -> None:
        self.src_moduli = tuple(src_moduli)
        self.dst_moduli = tuple(dst_moduli)
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
        self._inv_col = np.array(inv, dtype=np.uint64).reshape(-1, 1)
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
        self._dst_chain_kernel = kernels.kernel_for(self.dst_moduli)
        self._inv_shoup_f = self._inv_shoup.astype(np.float64) * 2.0**-64
        # Matmul path: exact iff every residue and table entry is two
        # digits, each digit dot product (2L + 1 terms) fits a float64
        # mantissa and the recombined S0 + (S1 << 18) an int64
        # (cf. prove_bconv_matmul); the one reduction per destination
        # row runs on the float lane.
        dot = (2 * len(self.src_moduli) + 1) * int(_DIGIT_MASK) ** 2
        self._matmul_ok = (
            self._dst_chain_kernel.float_ok
            and max(self.src_moduli + self.dst_moduli) < 1 << (2 * _DIGIT_BITS)
            and dot < 1 << 53
            and dot + (dot << _DIGIT_BITS) < 1 << 63
        )
        if self._matmul_ok:
            self._digits = self._digit_matrix(table, corr)

    def _digit_matrix(self, table: list[list[int]], corr: list[int]) -> np.ndarray:
        """The ``2K x (2L + 1)`` float64 left operand of the matmul path.

        With ``y = y0 + y1 * 2**18`` and ``T' = T * 2**18 mod p`` a term
        ``y * T`` is congruent to ``y0 * T + y1 * T'``; splitting ``T``
        and ``T'`` into digits too gives ``S0 + S1 * 2**18`` with ``S0``
        (rows ``[0, K)``) and ``S1`` (rows ``[K, 2K)``) plain sums of
        digit products.  The last column carries the centered
        correction ``-Q mod p`` against the overflow count ``e``.
        """
        shifted = [
            [(w << _DIGIT_BITS) % p for w in row]
            for row, p in zip(table, self.dst_moduli)
        ]
        words = np.array(
            [row + high + [c] for row, high, c in zip(table, shifted, corr)],
            dtype=np.uint64,
        )
        return np.concatenate([words & _DIGIT_MASK, words >> _DIGIT_SHIFT]).astype(np.float64)

    def convert_rows(self, limbs: np.ndarray) -> np.ndarray:
        """Raw ``(L, N) -> (K, N)`` conversion (backend entry point)."""
        if self._matmul_ok:
            return self._convert_rows_matmul(limbs)
        return self._convert_rows_wide(limbs)

    def _scaled_src(self, limbs: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``y_i = [a_i * q_hat_i^(-1)]_{q_i}``, canonical."""
        kern = self._src_kernel
        if kern.float_ok:
            return kern.shoup_mul_f(limbs, self._inv_col, self._inv_shoup_f, out=out)
        return kernels.shoup_mul(limbs, self._inv_col, self._inv_shoup, kern.q)

    @kernels._wrapping
    def _convert_rows_matmul(self, limbs: np.ndarray) -> np.ndarray:
        """Word-split dense matmul: one dgemm, one reduction per row.

        The right operand stacks the low digits of ``y``, its high
        digits and the overflow count; ``_digits @ operand``
        yields ``S0`` over ``S1`` exactly (sums below ``2**53``), and
        ``S0 + (S1 << 18) < 2**63`` is congruent to the converted value,
        so one float-Barrett pass canonicalizes it.  Canonical outputs
        match the per-row loop bit for bit.
        """
        src_count, width = limbs.shape
        dst_count = len(self.dst_moduli)
        y, digit = _POOL.take(np.uint64, limbs.shape, limbs.shape)
        (hi,) = _POOL.take(np.uint64, (dst_count, width))
        operand, sums, ratio = _POOL.take(
            np.float64,
            (self._digits.shape[1], width),
            (2 * dst_count, width),
            limbs.shape,
        )
        y = self._scaled_src(limbs, out=y)
        np.bitwise_and(y, _DIGIT_MASK, out=digit)
        np.copyto(operand[:src_count], _i64(digit))
        np.right_shift(y, _DIGIT_SHIFT, out=digit)
        np.copyto(operand[src_count : 2 * src_count], _i64(digit))
        # overflow count e = round(sum_i y_i / q_i)
        np.copyto(ratio, _i64(y))
        ratio *= self._src_inv_float
        np.rint(np.sum(ratio, axis=0, out=operand[-1]), out=operand[-1])
        np.matmul(self._digits, operand, out=sums)
        out = np.empty((dst_count, width), dtype=np.uint64)
        np.copyto(_i64(out), sums[:dst_count], casting="unsafe")
        np.copyto(_i64(hi), sums[dst_count:], casting="unsafe")
        np.left_shift(hi, _DIGIT_SHIFT, out=hi)
        out += hi
        return self._dst_chain_kernel.reduce64_f(out, out=out)

    def _convert_rows_wide(self, limbs: np.ndarray) -> np.ndarray:
        """Per-destination-row Shoup/sum_mod loop (any modulus < 2**62)."""
        y = self._scaled_src(limbs)
        overflow = np.rint((y * self._src_inv_float).sum(axis=0)).astype(np.uint64)
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
            corr = kernels.shoup_mul(overflow, self._corr[j], self._corr_shoup[j], kern.q)
            out_rows.append(kern.add(acc, corr))
        return np.stack(out_rows)


class _ConverterCache:
    """Process-wide cache keyed by (src, dst) bases."""

    def __init__(self) -> None:
        self._cache: dict[tuple[tuple[int, ...], tuple[int, ...]], BaseConverter] = {}

    def get(self, src_moduli: Sequence[int], dst_moduli: Sequence[int]) -> BaseConverter:
        key = (tuple(src_moduli), tuple(dst_moduli))
        conv = self._cache.get(key)
        if conv is None:
            conv = BaseConverter(*key)
            self._cache[key] = conv
        return conv


CONVERTERS = _ConverterCache()
