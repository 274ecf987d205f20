"""RNS polynomial arithmetic over cyclotomic rings.

A polynomial in ``R_Q = Z_Q[X]/(X^N + 1)`` with ``Q = q_0 * ... *
q_{L-1}`` is stored as an ``L x N`` matrix of residues (paper S2.2):
row ``i`` — a *limb* — is the polynomial reduced mod ``q_i``.  Limbs are
independent, so every ring operation is a batch of per-limb vector
operations, exactly the parallelism an FHE accelerator's lanes exploit.

All limb arithmetic dispatches through :mod:`repro.rns.kernels`, whose
emulated 128-bit products keep the vectorized path exact for any
modulus below ``2**62`` — SHARP's 36-bit primes (and the 62-bit
bootstrapping scale) run natively, with no object-array fallback.
Per-chain state (modulus columns, kernels, NTT plans) is cached
on the shared :class:`RingContext` so repeated ops rebuild nothing.

Polynomials carry a representation flag: *coefficient* or *evaluation*
(NTT-applied).  Element-wise ops work in either (both operands must
match); ring multiplication requires the evaluation representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.rns import kernels
from repro.rns.backend import NumpyBackend, resolve_backend
from repro.rns.modmath import mod_inverse

if TYPE_CHECKING:  # deferred at runtime: repro.ntt.reference imports kernels
    from repro.ntt.plan import NttPlan
    from repro.ntt.reference import NttContext

__all__ = ["RingContext", "RnsPolynomial", "garner_pair"]


def garner_pair(limbs: np.ndarray, pair) -> np.ndarray:
    """Garner CRT combine of two limbs: ``x < q_a * q_b``.

    Exact in ``uint64`` lanes while ``2 * q_b**2 < 2**64`` — any pair of
    moduli below ``2**31``, which covers every DS prime pair.
    """
    qa, qb = int(pair[0]), int(pair[1])
    a = limbs[0]
    b = limbs[1]
    qa_inv = mod_inverse(qa % qb, qb)
    t = (b + np.uint64(qb) - a % np.uint64(qb)) * np.uint64(qa_inv) % np.uint64(qb)
    return a + np.uint64(qa) * t  # < qa*qb < 2**62


class RingContext:
    """Shared per-ring state: NTT plans, kernels, and automorphism maps.

    One context serves every modulus chain over the same degree; NTT
    plans, modulus kernels, and permutation tables are created lazily
    and cached.
    """

    def __init__(self, degree: int):
        if degree & (degree - 1) or degree < 4:
            raise ValueError("degree must be a power of two >= 4")
        self.degree = degree
        # Every hot path dispatches through it (see repro.rns.backend).
        self.backend: NumpyBackend = resolve_backend()
        self._ntt: dict[int, NttContext] = {}
        self._plans: dict[tuple[int, ...], NttPlan] = {}
        self._kernels: dict[tuple[int, ...], kernels.ModulusKernel] = {}
        self._auto_eval: dict[int, np.ndarray] = {}
        self._auto_coeff: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def ntt(self, modulus: int) -> NttContext:
        plan = self._ntt.get(modulus)
        if plan is None:
            from repro.ntt.reference import NttContext

            plan = NttContext(self.degree, modulus)
            self._ntt[modulus] = plan
        return plan

    def plan(self, moduli: tuple[int, ...]) -> NttPlan:
        """Cached fused NTT plan for a chain (built once per moduli tuple)."""
        plan = self._plans.get(moduli)
        if plan is None:
            from repro.ntt.plan import NttPlan

            plan = NttPlan([self.ntt(q) for q in moduli])
            self._plans[moduli] = plan
        return plan

    def chain_kernel(self, moduli: tuple[int, ...]) -> kernels.ModulusKernel:
        """Cached chain-mode modular kernel (constants as (L, 1) columns)."""
        kern = self._kernels.get(moduli)
        if kern is None:
            kern = kernels.ModulusKernel(moduli)
            self._kernels[moduli] = kern
        return kern

    def mod_column(self, moduli: tuple[int, ...]) -> np.ndarray:
        """The cached ``(L, 1)`` uint64 modulus column of a chain.

        Shared and read-only by convention — callers must not mutate it.
        """
        return self.chain_kernel(moduli).q

    def galois_element(self, rotation: int) -> int:
        """The ring automorphism exponent for a cyclic slot rotation.

        Rotating message slots left by ``r`` corresponds to the map
        ``X -> X**(5**r mod 2N)``; conjugation to ``X -> X**(2N - 1)``.
        """
        n2 = 2 * self.degree
        return pow(5, rotation % self.degree, n2)

    @property
    def conjugation_element(self) -> int:
        return 2 * self.degree - 1

    def automorphism_eval_permutation(self, galois: int) -> np.ndarray:
        """Index map applying ``X -> X**galois`` in evaluation form.

        Slot ``k`` of the output takes the input slot whose evaluation
        point is ``psi**((2k+1) * galois)`` — automorphism is a pure
        lane permutation in the evaluation representation, the property
        SHARP's AutoU exploits (S4.3).
        """
        perm = self._auto_eval.get(galois)
        if perm is None:
            n = self.degree
            k = np.arange(n, dtype=np.int64)
            src = ((2 * k + 1) * galois % (2 * n) - 1) // 2
            perm = src
            self._auto_eval[galois] = perm
        return perm

    def automorphism_coeff_maps(self, galois: int) -> tuple[np.ndarray, np.ndarray]:
        """(destination index, sign) arrays for coefficient-form automorphism.

        Coefficient ``i`` lands at ``i * galois mod 2N``; exponents at or
        above ``N`` wrap with a sign flip because ``X**N = -1``.
        """
        maps = self._auto_coeff.get(galois)
        if maps is None:
            n = self.degree
            i = np.arange(n, dtype=np.int64)
            e = i * galois % (2 * n)
            dest = np.where(e < n, e, e - n)
            negate = e >= n
            maps = (dest, negate)
            self._auto_coeff[galois] = maps
        return maps


@dataclass
class RnsPolynomial:
    """An RNS polynomial: ``len(moduli)`` limbs of ``ring.degree`` words.

    ``limbs`` has shape ``(len(moduli), degree)`` and dtype ``uint64``;
    residues are canonical (``0 <= limb < q_i``).  Instances are
    immutable by convention — all operations return new polynomials.
    """

    ring: RingContext
    moduli: tuple[int, ...]
    limbs: np.ndarray
    ntt_form: bool

    def __post_init__(self):
        expected = (len(self.moduli), self.ring.degree)
        if self.limbs.shape != expected:
            raise ValueError(f"limb matrix shape {self.limbs.shape} != {expected}")
        if self.limbs.dtype != np.uint64:
            raise TypeError("limbs must be uint64")

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_int_coeffs(
        cls, ring: RingContext, moduli: tuple[int, ...], coeffs
    ) -> "RnsPolynomial":
        """Reduce signed integer coefficients into every limb (coeff form).

        ``coeffs`` may be a list of Python ints (arbitrary precision) or
        an integer numpy array of length ``degree``.
        """
        moduli = tuple(moduli)
        rows = []
        if isinstance(coeffs, np.ndarray) and coeffs.dtype != object:
            signed = coeffs.astype(np.int64)
            for q in moduli:
                rows.append(np.mod(signed, q).astype(np.uint64))
        else:
            arr = np.array([int(c) for c in coeffs], dtype=object)
            for q in moduli:
                rows.append((arr % q).astype(np.uint64))
        return cls(ring, moduli, np.stack(rows), ntt_form=False)

    # -- representation changes -----------------------------------------------

    def to_ntt(self) -> "RnsPolynomial":
        if self.ntt_form:
            return self
        out = self.ring.backend.ntt_forward_all(self.ring.plan(self.moduli), self.limbs)
        return RnsPolynomial(self.ring, self.moduli, out, True)

    def from_ntt(self) -> "RnsPolynomial":
        if not self.ntt_form:
            return self
        out = self.ring.backend.ntt_inverse_all(self.ring.plan(self.moduli), self.limbs)
        return RnsPolynomial(self.ring, self.moduli, out, False)

    # -- arithmetic ------------------------------------------------------------

    def _check_compatible(self, other: "RnsPolynomial") -> None:
        if self.moduli != other.moduli:
            raise ValueError("modulus chains differ")
        if self.ntt_form != other.ntt_form:
            raise ValueError("representations differ (coeff vs evaluation)")

    def _kernel(self) -> kernels.ModulusKernel:
        return self.ring.chain_kernel(self.moduli)

    def __add__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        return RnsPolynomial(
            self.ring,
            self.moduli,
            self.ring.backend.add(self._kernel(), self.limbs, other.limbs),
            self.ntt_form,
        )

    def __sub__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        self._check_compatible(other)
        return RnsPolynomial(
            self.ring,
            self.moduli,
            self._kernel().sub(self.limbs, other.limbs),
            self.ntt_form,
        )

    def __neg__(self) -> "RnsPolynomial":
        return RnsPolynomial(
            self.ring, self.moduli, self._kernel().neg(self.limbs), self.ntt_form
        )

    def __mul__(self, other: "RnsPolynomial") -> "RnsPolynomial":
        """Ring product; both operands must be in evaluation form."""
        self._check_compatible(other)
        if not self.ntt_form:
            raise ValueError("ring multiplication requires evaluation form")
        out = self.ring.backend.mul(self._kernel(), self.limbs, other.limbs)
        return RnsPolynomial(self.ring, self.moduli, out, True)

    def scalar_mul(self, scalars) -> "RnsPolynomial":
        """Multiply limb ``i`` by ``scalars[i]`` (or one shared scalar).

        Scalars are per-limb constants, so the product uses Shoup's
        precomputed-quotient multiplication (exact for q < 2**62).
        """
        if np.isscalar(scalars):
            svec = [int(scalars) % q for q in self.moduli]
        else:
            svec = [int(s) % q for s, q in zip(scalars, self.moduli)]
        return RnsPolynomial(
            self.ring,
            self.moduli,
            self._kernel().mul_const(self.limbs, svec),
            self.ntt_form,
        )

    # -- chain surgery -----------------------------------------------------------

    def drop_limbs(self, count: int) -> "RnsPolynomial":
        """Remove the last ``count`` limbs (modulus reduction, no rescale)."""
        if count <= 0 or count >= len(self.moduli):
            raise ValueError("must drop between 1 and len-1 limbs")
        return RnsPolynomial(
            self.ring,
            self.moduli[:-count],
            self.limbs[:-count].copy(),
            self.ntt_form,
        )

    def keep_limbs(self, indices) -> "RnsPolynomial":
        idx = list(indices)
        return RnsPolynomial(
            self.ring,
            tuple(self.moduli[i] for i in idx),
            self.limbs[idx].copy(),
            self.ntt_form,
        )

    # -- automorphism -----------------------------------------------------------

    def automorphism(self, galois: int) -> "RnsPolynomial":
        """Apply ``X -> X**galois`` (``galois`` odd) in either representation."""
        if galois % 2 == 0:
            raise ValueError("galois element must be odd")
        if self.ntt_form:
            perm = self.ring.automorphism_eval_permutation(galois)
            return RnsPolynomial(
                self.ring, self.moduli, self.limbs[:, perm].copy(), True
            )
        dest, negate = self.ring.automorphism_coeff_maps(galois)
        out = np.zeros_like(self.limbs)
        vals = np.where(negate, self._kernel().neg(self.limbs), self.limbs)
        out[:, dest] = vals
        return RnsPolynomial(self.ring, self.moduli, out, False)

    # -- reconstruction (for decryption / testing) -------------------------------

    def to_int_coeffs(self) -> list[int]:
        """CRT-reconstruct signed centered coefficients (Python ints)."""
        poly = self.from_ntt()
        q_big = 1
        for q in poly.moduli:
            q_big *= q
        acc = np.zeros(self.ring.degree, dtype=object)
        for i, q in enumerate(poly.moduli):
            other = q_big // q
            factor = other * mod_inverse(other % q, q)
            acc = (acc + poly.limbs[i].astype(object) * factor) % q_big
        half = q_big // 2
        return [int(a) - q_big if a > half else int(a) for a in acc]
