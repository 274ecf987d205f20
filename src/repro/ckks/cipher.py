"""Ciphertext and plaintext containers for RNS-CKKS."""

from __future__ import annotations

from dataclasses import dataclass

from repro.rns.poly import RnsPolynomial

__all__ = ["Ciphertext", "Plaintext"]


@dataclass
class Plaintext:
    """An encoded message: one RNS polynomial plus its scale."""

    poly: RnsPolynomial
    scale: float

    @property
    def moduli(self):
        return self.poly.moduli


@dataclass
class Ciphertext:
    """An RLWE ciphertext ``(b, a)`` with ``b + a*s ~ Delta*m``.

    ``level`` counts the rescaling steps still available (the paper's
    ``l`` is the limb count; here a *step* is one rescale unit, which
    spans two limbs under double-prime scaling).  Both polynomials stay
    in the evaluation (NTT) representation between operations.
    """

    c0: RnsPolynomial
    c1: RnsPolynomial
    level: int
    scale: float

    def __post_init__(self):
        if self.c0.moduli != self.c1.moduli:
            raise ValueError("ciphertext halves disagree on the modulus chain")

    @property
    def moduli(self):
        return self.c0.moduli
