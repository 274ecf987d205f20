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

:class:`PolyPlan` is that strategy without a ciphertext, and the one
statement of a polynomial's depth and operation counts:
:class:`ChebyshevEvaluator` runs it, the bootstrap's level budget reads
it, and the workloads' noise twins charge :func:`fitted_plan`'s depth.

Scale discipline: every addition aligns operands to an exact (level,
scale) point via :meth:`Evaluator.match`, so prime-vs-scale deviation
never accumulates.  Over the evaluator's vocabulary alone, the
evaluator also runs on ``SymbolicEvaluator`` (no keys).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable

import numpy as np
from numpy.polynomial import chebyshev as C

from repro.ckks.cipher import Ciphertext
from repro.ckks.ops import Evaluator

__all__ = ["ChebyshevEvaluator", "PolyPlan", "chebyshev_fit", "fitted_plan"]


def chebyshev_fit(fn, degree: int, interval=(-1.0, 1.0)):
    """Chebyshev interpolation of ``fn`` over ``interval``, sampled at
    ``2 * degree + 16`` Chebyshev nodes.

    Returns coefficients in the Chebyshev basis *on the normalized
    domain* [-1, 1]; callers must map their inputs accordingly.  A
    coefficient within the fit's rounding error (``samples`` float64
    epsilons of the largest) is zero, so the fit of an odd or even
    target has exactly that target's parity and its plan builds no T_k
    for noise.
    """
    lo, hi = interval
    samples = 2 * degree + 16
    # Chebyshev nodes on [-1, 1] mapped into the interval.
    theta = (np.arange(samples) + 0.5) * np.pi / samples
    x = np.cos(theta)
    t = (x + 1) * (hi - lo) / 2 + lo
    y = np.array([fn(v) for v in t], dtype=np.float64)
    coeffs = C.chebfit(x, y, degree)
    coeffs[np.abs(coeffs) <= samples * np.finfo(np.float64).eps * np.max(np.abs(coeffs))] = 0.0
    return coeffs


class PolyPlan:
    """The Paterson-Stockmeyer plan of one Chebyshev coefficient vector.

    ``tree`` is the division recursion: a leaf is a coefficient block of
    degree <= ``baby_steps``, evaluated directly; a node ``(split, quot,
    rem)`` is ``quot * T_split + rem``, ``rem`` a tree or a constant.
    ``ladder`` is every T_k (k >= 2) they read, closed under ``T_k =
    2*T_a*T_(k-a) - T_(2a-k)`` (``a`` the largest power of two below k).

    The counts are what :meth:`ChebyshevEvaluator.evaluate` spends:
    ``products`` ciphertext products (``squares`` of them squares),
    ``plain_sums`` multiply-accumulates over ``plain_terms`` encoded
    coefficients, and ``depth`` levels.  T_k sits at depth ``ceil(log2
    k)``; a leaf or a product adds one level, and so does matching two
    equally deep branches, since their scales differ.
    """

    def __init__(self, cheb_coeffs: np.ndarray, baby_steps: int = 8):
        if baby_steps < 2 or baby_steps & (baby_steps - 1):
            raise ValueError("baby_steps must be a power of two >= 2")
        coeffs = np.trim_zeros(np.array(cheb_coeffs, dtype=np.float64), "b")
        self.coeffs = coeffs if len(coeffs) else np.zeros(1)
        self.coeffs.flags.writeable = False  # plans are shared through fitted_plan
        self.baby_steps = baby_steps
        need = {1}
        self.tree = self._divide(self.coeffs, need)
        for k in range(max(need), 1, -1):  # close under the recurrence
            if k in need:
                a = 1 << ((k - 1).bit_length() - 1)
                need.update((a, k - a, 2 * a - k))
        self.ladder = tuple(sorted(need - {0, 1}))
        self.squares = sum(1 for k in self.ladder if k & (k - 1) == 0)
        self.products = len(self.ladder)
        self.plain_sums = self.plain_terms = 0
        self.depth = self._walk(self.tree)

    def _divide(self, coeffs: np.ndarray, used: set[int]) -> Any:
        degree = len(coeffs) - 1
        if degree <= self.baby_steps:
            used.update(k for k in range(1, degree + 1) if coeffs[k])
            return coeffs
        split = self.baby_steps
        while split * 2 <= degree:
            split *= 2
        used.add(split)
        quot, rem = C.chebdiv(coeffs, [0.0] * split + [1.0])  # by T_split
        rem = np.trim_zeros(np.asarray(rem), "b")
        tail = self._divide(rem, used) if len(rem) > 1 else float(rem.sum())
        return split, self._divide(np.asarray(quot), used), tail

    def _walk(self, tree: Any) -> int:
        """Depth of ``tree``, counting its products and leaves on the way."""
        if isinstance(tree, np.ndarray):
            terms = np.flatnonzero(tree[1:]) + 1
            self.plain_sums += int(len(terms) > 0)
            self.plain_terms += len(terms)
            return 1 + max(((int(k) - 1).bit_length() for k in terms), default=0)
        split, quot, rem = tree
        self.products += 1
        prod = 1 + max(self._walk(quot), (split - 1).bit_length())
        if isinstance(rem, float):  # a constant folds into the product
            return prod
        tail = self._walk(rem)
        return max(prod, tail) + (tail == prod)


@lru_cache(maxsize=64)
def fitted_plan(
    fn: Callable[[float], float], degree: int, interval: tuple[float, float]
) -> PolyPlan:
    """The plan of ``fn``'s degree-``degree`` interpolant on ``interval``,
    fitted once: the workloads' activations, whose noise twins charge
    its depth and characterize its coefficients."""
    return PolyPlan(chebyshev_fit(fn, degree, interval=interval))


class ChebyshevEvaluator:
    """Runs :class:`PolyPlan` s on ciphertexts."""

    def __init__(self, evaluator: Evaluator):
        self.ev = evaluator

    # -- Chebyshev power ladder ----------------------------------------------------

    def _build_basis(self, x: Ciphertext, ladder: tuple[int, ...]) -> dict[int, Ciphertext]:
        """T_1 = ``x`` (values in [-1, 1]) and T_k for each k in the
        ascending ``ladder``: ``T_k = 2*T_a*T_{k-a} - T_{2a-k}`` (``T_0 =
        1``, so ``T_{2a} = 2*T_a^2 - 1``) reads only smaller indices, and
        ``match`` fixes residual scale drift."""
        ev = self.ev
        basis: dict[int, Ciphertext] = {1: x}
        for k in ladder:
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

    def evaluate(self, x: Ciphertext, plan: PolyPlan) -> Ciphertext:
        """Evaluate ``plan``'s ``sum_k c_k T_k(x)`` homomorphically;
        ``x`` holds values in [-1, 1]."""
        return self._run(plan.tree, self._build_basis(x, plan.ladder))

    def _run(self, tree: Any, basis: dict[int, Ciphertext]) -> Ciphertext:
        if isinstance(tree, np.ndarray):
            return self._eval_direct(tree, basis)
        split, quot, rem = tree
        prod = self.ev.multiply(self._run(quot, basis), basis[split])
        if isinstance(rem, float):  # a constant remainder folds into the product
            return self.ev.add_scalar(prod, rem) if rem else prod
        lhs, r_adj = self.ev.match(prod, self._run(rem, basis))
        return self.ev.add(lhs, r_adj)

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
        # Every product lands at the ladder's working scale (the first
        # term's): one multiply-accumulate, one rescale.
        scale = srcs[0].scale
        pts = [ev.encode(float(coeffs[k]), src, scale) for k, src in zip(used, srcs)]
        acc = ev.rescale_to(ev.multiply_plain_sum(srcs, pts), scale)
        if abs(float(coeffs[0])) > 0:
            acc = ev.add_scalar(acc, float(coeffs[0]))
        return acc
