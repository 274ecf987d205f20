"""Homomorphic polynomial evaluation in the Chebyshev basis.

Bootstrapping's EvalMod and the nonlinear functions of the workloads
(sigmoid in HELR, sign/comparison in sorting, polynomial ReLU in
ResNet) are all evaluated as Chebyshev interpolants with the
Paterson-Stockmeyer strategy: split the coefficient vector recursively
by Chebyshev-basis division at the giants ``T_bs, T_2bs, T_4bs, ...``,
then build exactly the Chebyshev polynomials the leaves and giants read
(an odd polynomial needs no even baby) with ``log2(degree)``
multiplicative depth (paper S2.3's "polynomial approximation ... to
enable evaluation with HE ops").

Scale discipline: every addition aligns operands to an exact (level,
scale) point via :meth:`Evaluator.adjust`, so prime-vs-scale deviation
never accumulates.
"""

from __future__ import annotations

from typing import Any

import numpy as np
from numpy.polynomial import chebyshev as C

from repro.ckks.cipher import Ciphertext
from repro.ckks.ops import Evaluator

__all__ = ["ChebyshevEvaluator", "chebyshev_fit"]


def chebyshev_fit(fn, degree: int, interval=(-1.0, 1.0)):
    """Chebyshev interpolation of ``fn`` over ``interval``, sampled at
    ``2 * degree + 16`` Chebyshev nodes.

    Returns coefficients in the Chebyshev basis *on the normalized
    domain* [-1, 1]; callers must map their inputs accordingly.
    """
    lo, hi = interval
    samples = 2 * degree + 16
    # Chebyshev nodes on [-1, 1] mapped into the interval.
    theta = (np.arange(samples) + 0.5) * np.pi / samples
    x = np.cos(theta)
    t = (x + 1) * (hi - lo) / 2 + lo
    y = np.array([fn(v) for v in t], dtype=np.float64)
    return C.chebfit(x, y, degree)


class ChebyshevEvaluator:
    """Evaluates Chebyshev-basis polynomials on ciphertexts."""

    def __init__(self, evaluator: Evaluator, baby_steps: int = 8):
        if baby_steps < 2 or baby_steps & (baby_steps - 1):
            raise ValueError("baby_steps must be a power of two >= 2")
        self.ev = evaluator
        self.baby_steps = baby_steps

    # -- Chebyshev power ladder ----------------------------------------------------

    def _build_basis(self, x: Ciphertext, used: set[int]) -> dict[int, Ciphertext]:
        """T_k for every k in ``used``, and only what building them needs.

        ``x`` must hold values in [-1, 1].  With ``a`` the largest power
        of two below ``k``, ``T_k = 2*T_a*T_{k-a} - T_{2a-k}`` (``T_0 = 1``,
        so ``T_{2a} = 2*T_a^2 - 1``): every operand has a smaller index,
        and T_k sits at depth ``ceil(log2 k)``.  ``adjust`` fixes residual
        scale drift.
        """
        need = set(used)
        for k in range(max(need), 1, -1):  # close under the recurrence
            if k in need:
                a = 1 << ((k - 1).bit_length() - 1)
                need.update((a, k - a, 2 * a - k))
        ev = self.ev
        basis: dict[int, Ciphertext] = {1: x}
        for k in sorted(need - {0, 1}):
            a = 1 << ((k - 1).bit_length() - 1)
            if 2 * a == k:
                sq = ev.square(basis[a])
                basis[k] = ev.add_scalar(ev.add(sq, sq), -1.0)
                continue
            prod = ev.multiply(basis[a], basis[k - a])
            lhs, corr = ev.match(ev.add(prod, prod), basis[2 * a - k])
            basis[k] = ev.sub(lhs, corr)
        return basis

    # -- recursive Paterson-Stockmeyer ----------------------------------------------

    def evaluate(self, x: Ciphertext, cheb_coeffs: np.ndarray) -> Ciphertext:
        """Evaluate ``sum_k c_k T_k(x)`` homomorphically.

        ``x`` holds values in [-1, 1]; ``cheb_coeffs`` is a numpy
        Chebyshev coefficient vector (as from :func:`chebyshev_fit`).
        """
        coeffs = np.trim_zeros(np.asarray(cheb_coeffs, dtype=np.float64), "b")
        if len(coeffs) == 0:
            coeffs = np.zeros(1)
        used = {1}
        plan = self._plan(coeffs, used)
        return self._run(plan, self._build_basis(x, used))

    def _plan(self, coeffs: np.ndarray, used: set[int]) -> Any:
        """The Chebyshev-division recursion, run once.

        A leaf is a coefficient block of degree <= bs, evaluated
        directly; a node ``(split, quot, rem)`` is
        ``quot * T_split + rem`` with ``rem`` a plan or a constant.
        ``used`` collects every T_k a leaf or node reads.
        """
        degree = len(coeffs) - 1
        if degree <= self.baby_steps:
            used.update(k for k in range(1, degree + 1) if coeffs[k])
            return coeffs
        split = self.baby_steps
        while split * 2 <= degree:
            split *= 2
        used.add(split)
        quot, rem = C.chebdiv(coeffs, self._t_poly(split))
        rem = np.trim_zeros(np.asarray(rem), "b")
        tail = self._plan(rem, used) if len(rem) > 1 else float(rem.sum())
        return split, self._plan(np.asarray(quot), used), tail

    def _run(self, plan: Any, basis: dict[int, Ciphertext]) -> Ciphertext:
        if isinstance(plan, np.ndarray):
            return self._eval_direct(plan, basis)
        split, quot, rem = plan
        prod = self.ev.multiply(self._run(quot, basis), basis[split])
        if isinstance(rem, float):  # a constant remainder folds into the product
            return self.ev.add_scalar(prod, rem) if rem else prod
        lhs, r_adj = self.ev.match(prod, self._run(rem, basis))
        return self.ev.add(lhs, r_adj)

    @staticmethod
    def _t_poly(k: int) -> np.ndarray:
        out = np.zeros(k + 1)
        out[k] = 1.0
        return out

    def _eval_direct(
        self, coeffs: np.ndarray, basis: dict[int, Ciphertext]
    ) -> Ciphertext:
        """Direct inner product against the baby basis at one level."""
        ev = self.ev
        used = [k for k in range(len(coeffs) - 1, 0, -1) if coeffs[k]]
        if not used:  # constant carried on T_1's level
            zero = ev.multiply_scalar(basis[1], 0.0)
            return ev.add_scalar(zero, float(coeffs[0]))
        # All terms are PMults of baby T's; evaluate each at the deepest
        # level among the T_k used so the sum aligns.
        level = min(basis[k].level for k in used)
        srcs = [ev.drop_to_level(basis[k], level) for k in used]
        # Every product sits at the ladder's working scale (the first
        # term's) times the step scale: one multiply-accumulate, one rescale.
        target_scale = srcs[0].scale
        product_scale = target_scale * ev.params.step_at(level).scale
        pts = [
            ev.encode_scalar(float(coeffs[k]), level, product_scale / src.scale)
            for k, src in zip(used, srcs)
        ]
        acc = ev.rescale(ev.multiply_plain_sum(srcs, pts))
        acc = Ciphertext(acc.c0, acc.c1, acc.level, target_scale)
        if abs(float(coeffs[0])) > 0:
            acc = ev.add_scalar(acc, float(coeffs[0]))
        return acc
