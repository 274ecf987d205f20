"""CKKS bootstrapping (paper S2.3): ModRaise -> CoeffToSlot -> EvalMod
-> SlotToCoeff.

A ciphertext that has exhausted its rescaling levels decrypts to
``p = Delta*m + e  (mod q0)``.  Bootstrapping re-expresses it modulo the
full chain:

1. **ModRaise** — reinterpret the base-modulus residues over every
   prime.  The plaintext becomes ``p + q0*I`` for a small integer
   polynomial ``I`` (``|I| <~ sqrt(h)``, h the secret Hamming weight).
2. **CoeffToSlot** — a C-linear map moving coefficients into slots as
   ``c_j = w_j + i*w_{j+n}``.  ``z = U c`` is the special FFT,
   ``U = S_L ... S_1 BR`` [Cheon+ 19]: a bit reversal, then ``log2 n``
   butterflies of three diagonals ``{0, +-2^(k-1)}`` built from the
   encoder's twiddles.  CtS applies ``S_k^-1 = S_k^H / 2`` merged into a
   few sparse stages, a level each, the normalization ``Delta /
   (2*q0*K)`` folded into the first so EvalMod sees values in [-1, 1].
   ``BR`` is never applied: everything up to SlotToCoeff is slot-wise.
3. **EvalMod** — Chebyshev approximation of ``sin(2*pi*K*x)/(2*pi*K)``
   removes the ``q0*I`` multiples; an odd arcsine-style correction
   polynomial [Bae+ 22 / Kim+ 22-flavored] cancels the leading
   ``sin(x) != x`` error, the technique the paper credits for reaching
   high precision at modest scales.
4. **SlotToCoeff** — ``S_1 ... S_L`` in order, merged the same way and
   without ``BR``, return slots to the message domain; the residual
   ``q0/Delta`` factor is folded into the last stage.

Levels EvalMod leaves spare become extra CtS / StC stages, CtS first
(it runs on the widest chain); a budget without a level for each
transform is refused.  Fully packed (``slots = N/2``) only; the real and
imaginary EvalMod pipelines are the [Cheon+ 18] flow.
The pipeline is a program over the evaluator's vocabulary (it reads
only the context's parameters), so ``SymbolicEvaluator`` runs it too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.linear import Diagonals, LinearTransform
from repro.ckks.ops import Evaluator
from repro.ckks.poly_eval import ChebyshevEvaluator, PolyPlan, chebyshev_fit

if TYPE_CHECKING:
    from repro.ckks.context import CkksContext

__all__ = ["Bootstrapper", "BootstrapReport", "butterfly_stages"]


def _compose(a: Diagonals, b: Diagonals, n: int) -> Diagonals:
    """Diagonals of ``A @ B``: ``diag_{x+y} += a_x * roll(b_y, -x)``."""
    out: Diagonals = {}
    for x, va in a.items():
        for y, vb in b.items():
            out[(x + y) % n] = out.get((x + y) % n, 0) + va * np.roll(vb, -x)
    return out


def butterfly_stages(n: int, stages: int, inverse: bool = False) -> list[Diagonals]:
    """The special FFT's ``log2 n`` butterflies merged into ``stages``
    contiguous groups, as diagonals in the order they are applied.

    Butterfly ``k`` (half-width ``h = 2^(k-1)``) maps ``(u, v)`` at block
    positions ``(p, p + h)`` to ``u +- w_p v``, ``w_p = zeta^(5^p (n/2h))``
    with ``zeta = exp(i pi / 2n)``; ``S_L ... S_1`` is ``U BR``.  With
    ``inverse`` the groups hold ``S_k^-1 = S_k^H / 2`` for ``U^-1``, last
    butterfly first.
    """
    log_n = n.bit_length() - 1
    rot = np.array([pow(5, p, 4 * n) for p in range(n // 2)])
    bounds = [round(i * log_n / stages) for i in range(stages + 1)]
    groups = []
    for lo, hi in zip(bounds, bounds[1:]):
        group: Diagonals = {0: np.ones(n, dtype=np.complex128)}
        for h in (1 << k for k in range(lo, hi)):
            p = np.arange(n) % (2 * h)
            top = p < h
            w = np.exp(1j * np.pi * (rot[p % h] % (8 * h)) / (4 * h))
            terms = (np.where(top, 1, -w), np.where(top, w, 0), np.where(top, 0, 1))
            stage: Diagonals = {}
            for d, v in zip((0, h, n - h), terms):  # h = n - h at the last butterfly
                stage[d] = stage.get(d, 0) + v
            if inverse:  # diag_{-d}(S^H) = conj(roll(diag_d(S), d))
                stage = {(n - d) % n: np.conj(np.roll(v, d)) / 2 for d, v in stage.items()}
            group = _compose(group, stage, n) if inverse else _compose(stage, group, n)
        groups.append(group)
    return groups[::-1] if inverse else groups


@dataclass
class BootstrapReport:
    """Level/scale accounting of one bootstrapping invocation."""

    input_level: int
    output_level: int
    levels_consumed: int
    sin_degree: int
    k_range: int


class Bootstrapper:
    """Bootstraps fully packed ciphertexts of one context."""

    def __init__(self, context: CkksContext, evaluator: Evaluator):
        params = context.params
        if params.slots != params.degree // 2:
            raise ValueError("bootstrapping requires full packing (slots = N/2)")
        if not params.boot_levels or params.boot_scale_bits is None:
            raise ValueError("parameters carry no bootstrapping levels")
        self.ev = evaluator
        self.params = params
        # |I| <~ sqrt(h) with overwhelming probability; one extra unit
        # absorbs the message itself.
        self.k_range = max(4, int(1.6 * math.sqrt(params.hamming_weight)) + 1)
        # Chebyshev coefficients of sin(a*x) die once n > a = 2*pi*K.
        a = 2.0 * math.pi * self.k_range
        self.sin_degree = int(a) + 26
        # sin is odd, so its fit has no even part to evaluate.
        sin_coeffs = chebyshev_fit(lambda x: math.sin(a * x) * (1.0 / a), self.sin_degree)
        self._sin_plan = PolyPlan(sin_coeffs, baby_steps=16)
        self.q0 = math.prod(params.base_primes)
        self._cheb = ChebyshevEvaluator(evaluator)
        self._build_transforms()

    # -- precomputation -----------------------------------------------------------

    def _build_transforms(self) -> None:
        """CtS / StC as merged butterfly stages, one per level the budget
        allows: two, plus EvalMod's spare levels handed out CtS first."""
        n, delta = self.params.slots, self.params.scale
        log_n = n.bit_length() - 1
        # EvalMod is the sine plan plus the arcsine correction's two levels.
        need = self._sin_plan.depth + 2 + 2
        if self.params.boot_levels < need:
            raise ValueError(
                f"bootstrapping needs {need} levels (EvalMod {need - 2} and a stage per "
                f"transform), the chain has {self.params.boot_levels} boot levels"
            )
        spare = self.params.boot_levels - need
        cts = butterfly_stages(n, min(log_n, 1 + (spare + 1) // 2), inverse=True)
        stc = butterfly_stages(n, min(log_n, 1 + spare // 2))
        # Fold normalizations: CtS divides by 2*q0*K/Delta (EvalMod
        # domain); StC multiplies back by q0/Delta.
        nu = delta / (2.0 * self.q0 * self.k_range)
        cts[0] = {d: v * nu for d, v in cts[0].items()}
        back = self.q0 * self.k_range / delta
        stc[-1] = {d: v * back for d, v in stc[-1].items()}
        self.cts = [LinearTransform(stage) for stage in cts]
        self.stc = [LinearTransform(stage) for stage in stc]

    # -- building blocks -----------------------------------------------------------

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret base-level residues over the full chain."""
        return self.ev.mod_raise(ct)

    def _eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """sin-based modular reduction on values in [-1, 1]."""
        y = self._cheb.evaluate(ct, self._sin_plan)
        # x ~ y + (2*pi*K)^2 / 6 * y^3 cancels the cubic sine error; as
        # y^2 * (c3*y) it is two levels deep, not three.
        ev = self.ev
        c3 = (2.0 * math.pi * self.k_range) ** 2 / 6.0
        corr = ev.multiply(ev.square(y), ev.multiply_scalar(y, c3, rescale=True))
        return ev.add(ev.adjust(y, corr.level, corr.scale), corr)

    def _transform(
        self, stages: list[LinearTransform], ct: Ciphertext, scale: float
    ) -> Ciphertext:
        """Apply ``stages``, one level each, landing at ``scale``.  Earlier
        stages land at their input scale over their largest entry, which
        so encodes at the step scale: CtS's first stage (entries
        ``nu / 2^r``) lifts off ``Delta``, a unit-entry StC stage stays."""
        for i, lt in enumerate(stages, 1):
            peak = max(np.max(np.abs(v)) for v in lt.diagonals.values())
            ct = lt.apply(self.ev, ct, output_scale=scale if i == len(stages) else ct.scale / peak)
        return ct

    # -- the full pipeline ------------------------------------------------------------

    def bootstrap(self, ct: Ciphertext) -> tuple[Ciphertext, BootstrapReport]:
        """Refresh a level-0 ciphertext to a high level.

        The input must be at the context's base scale; the output keeps
        the same scale with the message error limited by the EvalMod
        approximation quality.
        """
        params, ev = self.params, self.ev
        input_level = ct.level
        # Burn remaining levels while pinning the scale exactly to the
        # canonical working point the CtS matrices assume (a level-0
        # input off it has no level to spend and is refused).
        raised = self.mod_raise(ev.adjust(ct, 0, params.scale))

        # CoeffToSlot (a level per stage): slots become (w_j + i*w_{j+n})
        # * nu in bit-reversed order, lifted to the EvalMod working scale.
        c = self._transform(self.cts, raised, 2.0 ** float(params.boot_scale_bits))

        c_conj = ev.conjugate(c)
        ct_r = ev.add(c, c_conj)
        ct_i = ev.multiply_by_i(ev.sub(c, c_conj), -1)

        # EvalMod on both coefficient halves, recombined and returned to
        # coefficient order (a level per stage).
        m_r, m_i = ev.match(self._eval_mod(ct_r), self._eval_mod(ct_i))
        combined = ev.add(m_r, ev.multiply_by_i(m_i, 1))
        # The pipeline's normalizations cancel exactly: (2*q0*K/Delta)
        # in, sin prefactor 1/(2*pi*K) folded into the fit, (q0/Delta)
        # out — net slot values are the original message at scale Delta.
        out = self._transform(self.stc, combined, params.scale)
        # Any unused bootstrap budget is dropped: the application only
        # ever sees normal levels (the paper's L_eff).
        out = ev.drop_to_level(out, min(out.level, params.usable_level))
        return out, BootstrapReport(
            input_level=input_level,
            output_level=out.level,
            levels_consumed=params.max_level - out.level,
            sin_degree=self.sin_degree,
            k_range=self.k_range,
        )
