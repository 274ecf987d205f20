"""Homomorphic polynomial evaluation in the Chebyshev basis.

Bootstrapping's EvalMod and the nonlinear functions of the workloads
(sigmoid in HELR, sign/comparison in sorting, polynomial ReLU in
ResNet) are all evaluated as Chebyshev interpolants with the
Paterson-Stockmeyer strategy: build the baby Chebyshev polynomials
``T_1 .. T_bs`` and the giants ``T_bs, T_2bs, T_4bs, ...`` with
``log2(degree)`` multiplicative depth, then fold the coefficient vector
recursively with Chebyshev-basis division (paper S2.3's "polynomial
approximation ... to enable evaluation with HE ops").

Scale discipline: every addition aligns operands to an exact (level,
scale) point via :meth:`Evaluator.adjust`, so prime-vs-scale deviation
never accumulates.
"""

from __future__ import annotations

import numpy as np
from numpy.polynomial import chebyshev as C

from repro.ckks.cipher import Ciphertext
from repro.ckks.ops import Evaluator

__all__ = ["ChebyshevEvaluator", "chebyshev_fit"]


def chebyshev_fit(fn, degree: int, interval=(-1.0, 1.0), samples: int | None = None):
    """Chebyshev interpolation of ``fn`` over ``interval``.

    Returns coefficients in the Chebyshev basis *on the normalized
    domain* [-1, 1]; callers must map their inputs accordingly.
    """
    lo, hi = interval
    if samples is None:
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

    def _build_basis(self, x: Ciphertext, degree: int) -> dict[int, Ciphertext]:
        """T_1 .. T_bs and giant T_{2^j * bs} up to ``degree``.

        ``x`` must hold values in [-1, 1].  Every T_k is produced at the
        deepest level it needs so later products meet naturally;
        ``adjust`` fixes residual scale drift.
        """
        ev = self.ev
        basis: dict[int, Ciphertext] = {1: x}
        top = 2
        while top <= min(degree, self.baby_steps):
            half = top // 2
            t_half = basis[half]
            sq = ev.square(t_half)  # scale back to ~x.scale after rescale
            doubled = ev.add(sq, sq)
            basis[top] = ev.add_scalar(doubled, -1.0)
            top *= 2
        # Remaining baby indices via balanced splits (depth log2(k)):
        # T_{a+b} = 2 T_a T_b - T_{a-b} with a-b in {0, 1}.
        for k in range(3, min(degree, self.baby_steps) + 1):
            if k in basis:
                continue
            a = (k + 1) // 2
            b = k - a
            basis[k] = self._cheb_product(basis[a], basis[b], basis.get(a - b))
        giant = self.baby_steps
        while giant * 2 <= degree:
            sq = self.ev.square(basis[giant])
            doubled = self.ev.add(sq, sq)
            basis[giant * 2] = self.ev.add_scalar(doubled, -1.0)
            giant *= 2
        return basis

    def _cheb_product(
        self, ta: Ciphertext, tb: Ciphertext, ta_minus_b: Ciphertext | None
    ) -> Ciphertext:
        """2*T_a*T_b - T_{a-b} (``T_0 = 1`` when the index hits zero)."""
        ev = self.ev
        prod = ev.multiply(ta, tb)
        doubled = ev.add(prod, prod)
        if ta_minus_b is None:  # a == b, T_0 = 1
            return ev.add_scalar(doubled, -1.0)
        lhs, corr = ev.match(doubled, ta_minus_b)
        return ev.sub(lhs, corr)

    # -- recursive Paterson-Stockmeyer ----------------------------------------------

    def evaluate(self, x: Ciphertext, cheb_coeffs: np.ndarray) -> Ciphertext:
        """Evaluate ``sum_k c_k T_k(x)`` homomorphically.

        ``x`` holds values in [-1, 1]; ``cheb_coeffs`` is a numpy
        Chebyshev coefficient vector (as from :func:`chebyshev_fit`).
        """
        coeffs = np.trim_zeros(np.asarray(cheb_coeffs, dtype=np.float64), "b")
        if len(coeffs) == 0:
            coeffs = np.zeros(1)
        degree = len(coeffs) - 1
        if degree == 0:
            zero = self.ev.multiply_scalar(x, 0.0)
            return self.ev.add_scalar(zero, float(coeffs[0]))
        basis = self._build_basis(x, max(degree, 2))
        return self._eval_rec(coeffs, basis)

    def _eval_rec(
        self, coeffs: np.ndarray, basis: dict[int, Ciphertext]
    ) -> Ciphertext:
        degree = len(coeffs) - 1
        if degree <= self.baby_steps:
            return self._eval_direct(coeffs, basis)
        split = self.baby_steps
        while split * 2 <= degree:
            split *= 2
        # coeffs = quot * T_split + rem  (Chebyshev-basis division)
        quot, rem = C.chebdiv(coeffs, self._t_poly(split))
        q_ct = self._eval_rec(np.asarray(quot), basis)
        prod = self.ev.multiply(q_ct, basis[split])
        rem = np.trim_zeros(np.asarray(rem), "b")
        if len(rem) <= 1:  # constant remainder folds into the product
            if len(rem) and abs(float(rem[0])) > 0:
                prod = self.ev.add_scalar(prod, float(rem[0]))
            return prod
        r_ct = self._eval_rec(rem, basis)
        lhs, r_adj = self.ev.match(prod, r_ct)
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
        degree = len(coeffs) - 1
        if degree == 0:  # constant carried on T_1's level
            zero = ev.multiply_scalar(basis[1], 0.0)
            return ev.add_scalar(zero, float(coeffs[0]))
        # All terms are PMults of baby T's; evaluate each at the deepest
        # baby level so the sum aligns.
        target_level = min(basis[k].level for k in range(1, degree + 1)) - 1
        target_scale = None
        srcs, pts = [], []
        for k in range(degree, 0, -1):
            c = float(coeffs[k])
            if abs(c) < 1e-300:
                continue
            src = ev.drop_to_level(basis[k], target_level + 1)
            step_scale = ev.params.step_at(src.level).scale
            if target_scale is None:
                target_scale = src.scale  # keep the ladder's working scale
            # Every product sits at target_scale * step_scale: one
            # multiply-accumulate, one rescale.
            srcs.append(src)
            pts.append(ev.encode_scalar(c, src.level, target_scale * step_scale / src.scale))
        if srcs:
            acc = ev.rescale(ev.multiply_plain_sum(srcs, pts))
            acc = Ciphertext(acc.c0, acc.c1, acc.level, target_scale)
        else:  # only the constant term survives
            any_t = basis[1]
            acc = ev.multiply_scalar(ev.drop_to_level(any_t, target_level + 1), 0.0)
        if abs(float(coeffs[0])) > 0:
            acc = ev.add_scalar(acc, float(coeffs[0]))
        return acc
