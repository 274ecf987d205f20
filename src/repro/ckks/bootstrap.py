"""CKKS bootstrapping (paper S2.3): ModRaise -> CoeffToSlot -> EvalMod
-> SlotToCoeff.

A ciphertext that has exhausted its rescaling levels decrypts to
``p = Delta*m + e  (mod q0)``.  Bootstrapping re-expresses it modulo the
full chain:

1. **ModRaise** — reinterpret the base-modulus residues over every
   prime.  The plaintext becomes ``p + q0*I`` for a small integer
   polynomial ``I`` (``|I| <~ sqrt(h)``, h the secret Hamming weight).
2. **CoeffToSlot** — a C-linear transform (one complex matrix, no
   conjugate part) moving coefficients into slots as
   ``c_j = w_j + i*w_{j+n}``, folded with the normalization
   ``Delta / (2*q0*K)`` so EvalMod sees values in [-1, 1].
3. **EvalMod** — Chebyshev approximation of ``sin(2*pi*K*x)/(2*pi*K)``
   removes the ``q0*I`` multiples; an odd arcsine-style correction
   polynomial [Bae+ 22 / Kim+ 22-flavored] cancels the leading
   ``sin(x) != x`` error, the technique the paper credits for reaching
   high precision at modest scales.
4. **SlotToCoeff** — the inverse transform returns slots to the message
   domain; the residual ``q0/Delta`` factor is folded into its matrix.

The implementation bootstraps fully packed ciphertexts
(``slots = N/2``); the two EvalMod pipelines (real and imaginary parts)
are the classical [Cheon+ 18] flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.context import CkksContext
from repro.ckks.linear import LinearTransform
from repro.ckks.ops import Evaluator
from repro.ckks.poly_eval import ChebyshevEvaluator, chebyshev_fit
from repro.rns.poly import RnsPolynomial

__all__ = ["Bootstrapper", "BootstrapReport"]


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

    def __init__(
        self,
        context: CkksContext,
        evaluator: Evaluator,
        k_range: int | None = None,
        sin_degree: int | None = None,
        arcsine_correction: bool = True,
        baby_steps: int | None = None,
    ):
        params = context.params
        if params.slots != params.degree // 2:
            raise ValueError("bootstrapping requires full packing (slots = N/2)")
        if not params.boot_levels or params.boot_scale_bits is None:
            raise ValueError("parameters carry no bootstrapping levels")
        self.context = context
        self.ev = evaluator
        self.params = params
        n = params.slots
        h = params.hamming_weight
        if k_range is None:
            # |I| <~ sqrt(h) with overwhelming probability; one extra
            # unit absorbs the message itself.
            k_range = max(4, int(1.6 * math.sqrt(h)) + 1)
        self.k_range = k_range
        if sin_degree is None:
            # Chebyshev coefficients of sin(a*x) die once n > a = 2*pi*K.
            sin_degree = int(2 * math.pi * k_range) + 26
        self.sin_degree = sin_degree
        self.arcsine_correction = arcsine_correction
        self.q0 = math.prod(params.base_primes)
        self._monomials: dict[tuple, RnsPolynomial] = {}  # (chain, sign) -> +-X^(N/2)
        self._build_transforms(baby_steps)
        self._build_evalmod()

    # -- precomputation -----------------------------------------------------------

    def _build_transforms(self, baby_steps: int | None) -> None:
        """Numerically derive the CtS / StC matrices from the encoder.

        With full packing both maps are C-linear (every slot root
        satisfies ``zeta^(N/2) = i``), so each is one complex matrix,
        swept column by column, with no conjugate part.
        """
        enc = self.context.encoder
        n = self.params.slots
        delta = self.params.scale

        # G: slots z -> c with c_j = m_j + i*m_{j+n}, m = coeffs(z).
        def g_map(z: np.ndarray) -> np.ndarray:
            m = enc.coeffs_from_slots(z)
            return m[:n] + 1j * m[n:]

        # H = G^-1: c -> z = slots(coeffs reassembled from Re/Im of c).
        def h_map(c: np.ndarray) -> np.ndarray:
            return enc.slots_from_coeffs(np.concatenate([np.real(c), np.imag(c)]))

        eye = np.eye(n, dtype=np.complex128)
        cts = np.stack([g_map(e) for e in eye], axis=1)
        stc = np.stack([h_map(e) for e in eye], axis=1)

        # Fold normalizations: CtS divides by 2*q0*K/Delta (EvalMod
        # domain); StC multiplies back by q0/Delta.
        nu = delta / (2.0 * self.q0 * self.k_range)
        self.cts = LinearTransform(cts * nu, baby_steps=baby_steps)
        back = self.q0 * self.k_range / delta
        self.stc = LinearTransform(stc * back, baby_steps=baby_steps)

    def _build_evalmod(self) -> None:
        k = self.k_range
        scale = 1.0 / (2.0 * math.pi * k)
        self._sin_coeffs = chebyshev_fit(
            lambda x: math.sin(2.0 * math.pi * k * x) * scale, self.sin_degree
        )
        # Keep only the odd part: sin is odd, and dropping the noise in
        # even coefficients halves the evaluation cost.
        self._sin_coeffs[0::2] = 0.0

    # -- building blocks -----------------------------------------------------------

    def mod_raise(self, ct: Ciphertext) -> Ciphertext:
        """Reinterpret base-level residues over the full chain."""
        if ct.level != 0:
            raise ValueError("mod_raise expects a level-0 ciphertext")
        target = self.params.active_moduli(self.params.max_level)
        ring = self.context.ring

        def raise_poly(poly: RnsPolynomial) -> RnsPolynomial:
            ints = poly.to_int_coeffs()  # centered lift mod q0
            return RnsPolynomial.from_int_coeffs(ring, target, ints).to_ntt()

        return Ciphertext(
            raise_poly(ct.c0),
            raise_poly(ct.c1),
            self.params.max_level,
            ct.scale,
        )

    def _mul_by_i(self, ct: Ciphertext, sign: int) -> Ciphertext:
        """Exact multiplication by +-i (the monomial X^(N/2))."""
        mono = self._monomials.get((ct.moduli, sign))
        if mono is None:
            n = self.params.degree
            coeffs = np.zeros(n, dtype=np.int64)
            coeffs[n // 2] = sign
            mono = RnsPolynomial.from_int_coeffs(
                self.context.ring, ct.moduli, coeffs
            ).to_ntt()
            self._monomials[(ct.moduli, sign)] = mono
        return Ciphertext(ct.c0 * mono, ct.c1 * mono, ct.level, ct.scale)

    def _eval_mod(self, ct: Ciphertext) -> Ciphertext:
        """sin-based modular reduction on values in [-1, 1]."""
        cheb = ChebyshevEvaluator(self.ev, baby_steps=16)
        y = cheb.evaluate(ct, self._sin_coeffs)
        if not self.arcsine_correction:
            return y
        # x ~ y + (2*pi*K)^2 / 6 * y^3 cancels the cubic sine error.
        ev = self.ev
        c3 = (2.0 * math.pi * self.k_range) ** 2 / 6.0
        y2 = ev.square(y)
        y3 = ev.multiply(y2, y)
        corr = ev.multiply_scalar(y3, c3, rescale=True)
        y_al = ev.adjust(y, corr.level, corr.scale)
        return ev.add(y_al, corr)

    # -- the full pipeline ------------------------------------------------------------

    def bootstrap(self, ct: Ciphertext) -> tuple[Ciphertext, BootstrapReport]:
        """Refresh a level-0 ciphertext to a high level.

        The input must be at the context's base scale; the output keeps
        the same scale with the message error limited by the EvalMod
        approximation quality.
        """
        params = self.params
        input_level = ct.level
        if ct.level > 0:
            # Burn remaining levels while pinning the scale exactly to
            # the canonical working point the CtS matrices assume.
            ct = self.ev.adjust(ct, 0, params.scale)
        elif abs(ct.scale - params.scale) > 1e-9 * params.scale:
            raise ValueError(
                "level-0 ciphertext scale differs from the canonical scale; "
                "adjust before the last rescale"
            )
        raised = self.mod_raise(ct)

        # CoeffToSlot (1 level): slots become (w_j + i*w_{j+n}) * nu,
        # lifted to the EvalMod working scale.
        work_scale = 2.0 ** float(params.boot_scale_bits)
        c = self.cts.apply(self.ev, raised, output_scale=work_scale)

        ev = self.ev
        c_conj = ev.conjugate(c)
        ct_r = ev.add(c, c_conj)
        ct_i = self._mul_by_i(ev.sub(c, c_conj), -1)

        # EvalMod on both coefficient halves.
        m_r = self._eval_mod(ct_r)
        m_i = self._eval_mod(ct_i)

        # Recombine and return to coefficient order (1 level).
        m_r, m_i = ev.match(m_r, m_i)
        combined = ev.add(m_r, self._mul_by_i(m_i, 1))
        out = self.stc.apply(ev, combined, output_scale=params.scale)

        # The pipeline's normalizations cancel exactly: (2*q0*K/Delta)
        # in, sin prefactor 1/(2*pi*K) folded into the fit, (q0/Delta)
        # out — net slot values are the original message at scale Delta.
        out = Ciphertext(out.c0, out.c1, out.level, params.scale)
        # Any unused bootstrap budget is dropped: the application only
        # ever sees normal levels (the paper's L_eff).
        out = ev.drop_to_level(out, min(out.level, params.usable_level))
        report = BootstrapReport(
            input_level=input_level,
            output_level=out.level,
            levels_consumed=params.max_level - out.level,
            sin_degree=self.sin_degree,
            k_range=self.k_range,
        )
        return out, report
