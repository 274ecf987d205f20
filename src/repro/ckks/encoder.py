"""CKKS encoder: canonical embedding of complex vectors into ``R_Q``.

A message ``m`` of ``n <= N/2`` complex numbers is mapped to a real
polynomial whose evaluations at the primitive ``2N``-th roots of unity
``zeta**(5**j)`` equal the slots (paper S2.1).  The embedding and its
inverse are computed with a single length-``N`` FFT each:

    a(zeta**(2t+1)) = N * IFFT(a_k * zeta**k)[t]

so slot ``j`` is the evaluation at index ``t_j = ((5**j mod 2N)-1)/2``.
Messages with ``n < N/2`` are replicated ``N/(2n)`` times across the
slot space (sparse packing), which commutes with every HE op.

Coefficients are scaled by Delta and rounded; the rounding error is the
encoding noise whose interaction with the scale choice drives the
paper's Table 2 precision study.
"""

from __future__ import annotations

import math

import numpy as np

from repro.rns.poly import RingContext, RnsPolynomial, garner_pair

__all__ = ["CkksEncoder"]


class CkksEncoder:
    """Encode/decode between complex vectors and RNS plaintexts."""

    def __init__(self, ring: RingContext, slots: int):
        n = ring.degree
        if slots < 1 or slots > n // 2 or (n // 2) % slots:
            raise ValueError("slots must divide N/2")
        self.ring = ring
        self.slots = slots
        two_n = 2 * n
        # zeta = exp(i*pi/N): primitive 2N-th root of unity.
        k = np.arange(n)
        self._zeta_pows = np.exp(1j * np.pi * k / n)
        # Slot j evaluates at zeta^(5^j); its FFT bucket is t_j.
        exps = np.empty(n // 2, dtype=np.int64)
        acc = 1
        for j in range(n // 2):
            exps[j] = acc
            acc = acc * 5 % two_n
        self._t_fwd = (exps - 1) // 2
        conj_exps = (two_n - exps) % two_n
        self._t_conj = (conj_exps - 1) // 2

    # -- float-domain embedding ------------------------------------------------

    def slots_from_coeffs(self, coeffs: np.ndarray) -> np.ndarray:
        """Evaluate a real coefficient vector at the slot roots."""
        n = self.ring.degree
        evals = n * np.fft.ifft(np.asarray(coeffs, dtype=np.complex128) * self._zeta_pows)
        full = evals[self._t_fwd]
        return full[: self.slots]

    def coeffs_from_slots(self, values: np.ndarray) -> np.ndarray:
        """Real coefficient vector whose slot evaluations are ``values``.

        ``values`` (length ``slots``) is replicated to fill N/2 slots.
        """
        n = self.ring.degree
        z = np.asarray(values, dtype=np.complex128)
        if len(z) != self.slots:
            raise ValueError(f"expected {self.slots} slot values")
        reps = (n // 2) // self.slots
        z_full = np.tile(z, reps)
        spectrum = np.zeros(n, dtype=np.complex128)
        spectrum[self._t_fwd] = z_full
        spectrum[self._t_conj] = np.conj(z_full)
        b = np.fft.fft(spectrum) / n
        return np.real(b / self._zeta_pows)

    # -- plaintext encode/decode -------------------------------------------------

    def encode_coeffs(self, values, moduli, scale: float) -> RnsPolynomial:
        """Scale, round, and reduce a message into a coefficient-form plaintext."""
        coeffs = self.coeffs_from_slots(np.asarray(values)) * scale
        max_mag = np.max(np.abs(coeffs)) if len(coeffs) else 0.0
        if max_mag >= 2**62:
            raise OverflowError(
                "scaled coefficients exceed the exact-integer range; "
                "reduce the scale or message magnitude"
            )
        if max_mag < 2**52:
            ints = np.rint(coeffs).astype(np.int64)
        else:
            ints = [int(round(float(c))) for c in coeffs]
        return RnsPolynomial.from_int_coeffs(self.ring, tuple(moduli), ints)

    def encode(self, values, moduli, scale: float) -> RnsPolynomial:
        """:meth:`encode_coeffs` in evaluation (NTT) form, ready for
        element-wise HE ops."""
        return self.encode_coeffs(values, moduli, scale).to_ntt()

    def decode(self, poly: RnsPolynomial, scale: float) -> np.ndarray:
        """Reconstruct the message from a plaintext (exact CRT).

        One or two limbs below ``2**31`` — every base modulus a result
        comes back at — reconstruct in ``uint64`` lanes (Garner); longer
        or wider chains take the big-integer path.
        """
        poly = poly.from_ntt()
        if len(poly.moduli) <= 2 and max(poly.moduli) < 2**31:
            q_big = math.prod(poly.moduli)
            x = poly.limbs[0] if len(poly.moduli) == 1 else garner_pair(poly.limbs, poly.moduli)
            coeffs = (x.astype(np.int64) - np.where(x > q_big // 2, q_big, 0)).astype(np.float64)
        else:
            coeffs = np.array([float(c) for c in poly.to_int_coeffs()])
        return self.slots_from_coeffs(coeffs / scale)
