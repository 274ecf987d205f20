"""The kernel backend: the seven hot operations behind a ``RingContext``.

:class:`NumpyBackend` owns the hot operations of the RNS-CKKS evaluator
— elementwise modular mul/add over an ``(L, N)`` limb matrix, the
batched forward/inverse NTT over a precomputed
:class:`~repro.ntt.plan.NttPlan`, base conversion through a
:class:`~repro.rns.bconv.BaseConverter`, the key-switch inner product
over the digit decomposition, and the plaintext inner product of a BSGS
stage.  Every ``RingContext`` holds one and every polynomial op
dispatches through it, which makes these seven methods the seam a
compiled butterfly would replace and the points the traced benchmark
wraps from outside.

Short words (every modulus below ``kernels.FLOAT_QHAT_LIMIT``) run on
the float-quotient lane; wider moduli take the exact 128-bit paths of
:mod:`repro.rns.kernels`.  The choice follows from the moduli alone, and
canonical residues are unique, so both produce the bits of plain integer
arithmetic (``tests/oracle.py``).
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import TYPE_CHECKING

import numpy as np

from repro.rns import kernels

if TYPE_CHECKING:
    from repro.ntt.plan import NttPlan
    from repro.rns.bconv import BaseConverter
    from repro.rns.kernels import ModulusKernel

__all__ = ["NumpyBackend", "resolve_backend"]


class NumpyBackend:
    """Single-process vectorized baseline (float-quotient lane where safe)."""

    name = "numpy"

    def __init__(self) -> None:
        # Scratch of the two inner products — steady state allocates
        # only results.
        self._scratch = kernels.ScratchPool()

    def mul(self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if kern.float_ok and kern.split:
            return kern.mul_f(a, b)
        return kern.mul(a, b)

    def add(self, kern: ModulusKernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return kern.add(a, b)

    def ntt_forward_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray:
        return plan.forward_all(limbs)

    def ntt_inverse_all(self, plan: NttPlan, limbs: np.ndarray) -> np.ndarray:
        return plan.inverse_all(limbs)

    def bconv(self, conv: BaseConverter, limbs: np.ndarray) -> np.ndarray:
        return conv.convert_rows(limbs)

    @kernels._wrapping
    def keyswitch_inner(
        self,
        kern: ModulusKernel,
        ext: np.ndarray,
        b_stack: np.ndarray,
        a_stack: np.ndarray,
        b_shoup_f: np.ndarray | None,
        a_shoup_f: np.ndarray | None,
        level: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(sum_d ext_d * b_d, sum_d ext_d * a_d)`` mod the chain.

        ``ext`` is the ``(D, level + K, N)`` decomposition and the stacks
        are a key's full-basis ``(dnum, L+K, N)`` tensors: ``ext``'s
        first ``level`` rows pair with the stacks' first rows and its
        remaining (auxiliary) rows with their last ``K`` rows, so one
        table per key serves every level without a gather.

        With the key's float Shoup quotients (short words; ``None`` for
        wide moduli) each digit product is a 6-pass Shoup multiply left
        lazy in ``[0, 3q)``, the ``D`` products sum as plain uint64 (the
        gate guarantees no wraparound) and each output row pays one
        float-Barrett reduction.  Wide moduli take ``2D`` canonical
        multiplies and ``2(D-1)`` modular additions.
        """
        digits, rows = ext.shape[:2]
        aux = b_stack.shape[1] - (rows - level)
        if (
            b_shoup_f is not None
            and a_shoup_f is not None
            and kern.float_ok
            and digits * 3 * int(kern.q_max) < (1 << 63)
        ):
            (f,) = self._scratch.take(np.float64, ext.shape)
            qhat, r, acc = self._scratch.take(np.uint64, ext.shape, ext.shape, ext.shape[1:])
            # (ext rows, stack rows): the q-part, then the auxiliary part.
            blocks = (
                (slice(0, level), slice(0, level)),
                (slice(level, rows), slice(aux, None)),
            )
            outs = []
            for stack, shoup_f in ((b_stack, b_shoup_f), (a_stack, a_shoup_f)):
                for mine, theirs in blocks:
                    x, q = ext[:, mine], kern.q[mine]
                    f_, qhat_, r_ = f[:, mine], qhat[:, mine], r[:, mine]
                    np.multiply(x, shoup_f[:digits, theirs], out=f_)
                    np.copyto(qhat_, f_, casting="unsafe")
                    qhat_ *= q
                    np.multiply(x, stack[:digits, theirs], out=r_)
                    r_ -= qhat_
                    np.add(r_, q, out=qhat_)
                    np.minimum(r_, qhat_, out=r_)  # wrap fix: [0, 3q)
                # Unrolled digit sum, < digits*3*q < 2**63.
                if digits == 1:
                    np.copyto(acc, r[0])
                else:
                    np.add(r[0], r[1], out=acc)
                    for d in range(2, digits):
                        acc += r[d]
                outs.append(kern.reduce64_f(acc))
            return outs[0], outs[1]
        # Wide moduli: gather the rows, the 128-bit products dominate.
        b_stack, a_stack = (
            np.concatenate([stack[:digits, :level], stack[:digits, aux:]], axis=1)
            for stack in (b_stack, a_stack)
        )
        acc0 = kern.mul(ext[0], b_stack[0])
        acc1 = kern.mul(ext[0], a_stack[0])
        for d in range(1, digits):
            acc0 = kern.add(acc0, kern.mul(ext[d], b_stack[d]))
            acc1 = kern.add(acc1, kern.mul(ext[d], a_stack[d]))
        return acc0, acc1

    @kernels._wrapping
    def plain_inner(
        self, kern: ModulusKernel, xs: Sequence[np.ndarray], ps: Sequence[np.ndarray]
    ) -> np.ndarray:
        """``sum_j xs[j] * ps[j]`` mod the chain, reduced once.

        Every ``xs[j]`` is an ``(L, N)`` limb matrix, a ``ps[j]`` one too
        or the ``(L, 1)`` column of a constant.  Short words split each
        ``p`` at ``SPLIT_SHIFT`` as ``mul_f`` does, but add the partial
        products up as plain uint64 sums and reduce only the two totals:
        six integer passes per term and two float-Barrett passes per
        ``lazy_inner_terms`` of them.  Wide moduli take canonical ``mul``
        + ``add``; either way the residues of the same integer.
        """
        if not (kern.float_ok and kern.split):
            out = self.mul(kern, xs[0], ps[0])
            for x, p in zip(xs[1:], ps[1:]):
                out = self.add(kern, out, self.mul(kern, x, p))
            return out
        chunk = kernels.lazy_inner_terms(kern.q_max)
        if len(ps) > chunk:
            head = self.plain_inner(kern, xs[:chunk], ps[:chunk])
            return kern.add(head, self.plain_inner(kern, xs[chunk:], ps[chunk:]))
        half, t, high, low = self._scratch.take(np.uint64, *[xs[0].shape] * 4)
        halves = (
            (np.right_shift, kernels._SPLIT_SHIFT, high),
            (np.bitwise_and, kernels._SPLIT_MASK, low),
        )
        for j, (x, p) in enumerate(zip(xs, ps)):
            for split, by, acc in halves:
                part = split(p, by, out=half) if p.shape == x.shape else split(p, by)
                if j:
                    acc += np.multiply(x, part, out=t)
                else:
                    np.multiply(x, part, out=acc)
        r = kern.reduce64_f(high, lazy=True)
        r <<= kernels._SPLIT_SHIFT
        r += low
        return kern.reduce64_f(r, out=r)


def resolve_backend() -> NumpyBackend:
    """A fresh backend for one ``RingContext``."""
    return NumpyBackend()
