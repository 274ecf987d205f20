"""CKKS parameter sets, key material, and encryption/decryption.

This is the *functional* side of the reproduction: a complete, working
RNS-CKKS implementation.  Parameter sets here are built for reduced
ring degrees (``N = 2**10 .. 2**13``) so that Python-speed experiments
finish; they reuse the same prime-search machinery as the full-size
``Set_k`` analysis and keep every prime below ``2**31`` so limb
arithmetic stays on the fast ``uint64`` path.  Scales larger than a
prime are realized by double-prime scaling (DS), exactly like a
short-word accelerator would (paper S3.1).
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from repro.ckks.cipher import Ciphertext, Plaintext
from repro.ckks.encoder import CkksEncoder
from repro.params.primes import find_aux_primes, max_scale_bits, realize_levels
from repro.rns import kernels
from repro.rns.modmath import mod_inverse
from repro.rns.poly import RingContext, RnsPolynomial
from repro.secrecy import declassified, redacted_digest

__all__ = [
    "LevelStep",
    "CkksParams",
    "SecretKey",
    "EvalKey",
    "KeySet",
    "CkksContext",
    "make_params",
]

_BASE_HEADROOM_BITS = 7  # base modulus margin above the scale for decode


@dataclass(frozen=True)
class LevelStep:
    """One rescale unit: a single prime (SS) or a prime pair (DS)."""

    primes: tuple[int, ...]

    def __post_init__(self):
        if len(self.primes) not in (1, 2):
            raise ValueError("a level step holds one (SS) or two (DS) primes")

    @property
    def scale(self) -> float:
        return float(math.prod(self.primes))


@dataclass(frozen=True)
class CkksParams:
    """A functional CKKS parameter set.

    The modulus chain is ``base_primes`` followed by the primes of each
    step in order; rescaling consumes steps from the *end*.  ``steps``
    may mix scales (normal levels first, bootstrap levels last) — the
    ciphertext ``level`` indexes into this list.
    """

    degree: int
    slots: int
    scale_bits: float
    base_primes: tuple[int, ...]
    steps: tuple[LevelStep, ...]
    aux_primes: tuple[int, ...]
    dnum: int
    hamming_weight: int
    sigma: float = 3.2
    boot_levels: int = 0
    boot_scale_bits: float | None = None

    @property
    def max_level(self) -> int:
        return len(self.steps)

    @property
    def usable_level(self) -> int:
        """Levels available to the application (bootstrap budget excluded).

        The last ``boot_levels`` steps of the chain are reserved for the
        CtS / EvalMod / StC pipeline; fresh ciphertexts start below them
        and bootstrapping returns ciphertexts here (the paper's L_eff).
        """
        return len(self.steps) - self.boot_levels

    @property
    def q_primes(self) -> tuple[int, ...]:
        out = list(self.base_primes)
        for s in self.steps:
            out.extend(s.primes)
        return tuple(out)

    @property
    def full_basis(self) -> tuple[int, ...]:
        return self.q_primes + self.aux_primes

    @property
    def scale(self) -> float:
        return 2.0 ** self.scale_bits

    @property
    def alpha(self) -> int:
        """Digit width (primes per key-switching digit)."""
        return math.ceil(len(self.q_primes) / self.dnum)

    @property
    def aux_product(self) -> int:
        return math.prod(self.aux_primes)

    def active_moduli(self, level: int) -> tuple[int, ...]:
        """q-basis of a ciphertext at ``level`` remaining steps."""
        if level < 0 or level > self.max_level:
            raise ValueError(f"level {level} out of range")
        out = list(self.base_primes)
        for s in self.steps[:level]:
            out.extend(s.primes)
        return tuple(out)

    def step_at(self, level: int) -> LevelStep:
        """The step consumed when rescaling *from* ``level``."""
        return self.steps[level - 1]

    def digit_spans(self) -> list[tuple[int, int]]:
        """(start, stop) limb index ranges of the key-switch digits."""
        total = len(self.q_primes)
        spans = []
        for start in range(0, total, self.alpha):
            spans.append((start, min(start + self.alpha, total)))
        return spans

    @property
    def log_q(self) -> float:
        return sum(math.log2(q) for q in self.q_primes)

    @property
    def log_pq(self) -> float:
        return self.log_q + sum(math.log2(p) for p in self.aux_primes)

    # -- serialization hooks (used by repro.serve.wire) ----------------------

    def to_spec(self) -> dict[str, object]:
        """A JSON-able description that round-trips through ``from_spec``.

        Carries the realized primes, so a peer reconstructs the exact
        parameter set without re-running the prime search.
        """
        return {
            "degree": self.degree,
            "slots": self.slots,
            "scale_bits": self.scale_bits,
            "base_primes": list(self.base_primes),
            "steps": [list(s.primes) for s in self.steps],
            "aux_primes": list(self.aux_primes),
            "dnum": self.dnum,
            "hamming_weight": self.hamming_weight,
            "sigma": self.sigma,
            "boot_levels": self.boot_levels,
            "boot_scale_bits": self.boot_scale_bits,
        }

    @classmethod
    def from_spec(cls, spec: dict) -> "CkksParams":
        steps = tuple(
            LevelStep(tuple(int(p) for p in primes)) for primes in spec["steps"]
        )
        boot_scale = spec["boot_scale_bits"]
        return cls(
            degree=int(spec["degree"]),
            slots=int(spec["slots"]),
            scale_bits=float(spec["scale_bits"]),
            base_primes=tuple(int(p) for p in spec["base_primes"]),
            steps=steps,
            aux_primes=tuple(int(p) for p in spec["aux_primes"]),
            dnum=int(spec["dnum"]),
            hamming_weight=int(spec["hamming_weight"]),
            sigma=float(spec["sigma"]),
            boot_levels=int(spec["boot_levels"]),
            boot_scale_bits=None if boot_scale is None else float(boot_scale),
        )


def make_params(
    degree: int = 1 << 12,
    slots: int | None = None,
    scale_bits: float = 28,
    depth: int = 8,
    boot_scale_bits: float | None = None,
    boot_depth: int = 0,
    dnum: int = 3,
    hamming_weight: int | None = None,
    word_bits: int = 31,
) -> CkksParams:
    """Build a functional parameter set.

    ``depth`` normal levels at ``2**scale_bits`` sit at the *end* of the
    chain (consumed first); ``boot_depth`` levels at the bootstrap scale
    sit between them and the base.  ``word_bits`` caps every prime's
    width; the default (31) matches the historical narrow fast path,
    while e.g. 36 — SHARP's robust word — realizes a 35-bit scale with
    single native primes on the wide kernel path (q < 2^62).  Scales
    that do not fit the word become DS pairs automatically.
    """
    if slots is None:
        slots = degree // 4
    two_n = 2 * degree
    if not 4 <= word_bits <= 62:
        raise ValueError("word_bits must be in [4, 62]")
    if scale_bits + _BASE_HEADROOM_BITS > (limit := max_scale_bits(word_bits, double=True)):
        raise ValueError(
            f"scale 2^{scale_bits:g} plus the base's {_BASE_HEADROOM_BITS} bits of headroom "
            f"exceeds the {word_bits}-bit word's DS limit of 2^{limit}"
        )
    exclude: set[int] = set()

    def realize(bits: float, count: int) -> list[LevelStep]:
        levels = realize_levels(two_n, bits, count, word_bits, exclude)
        return [LevelStep(level) for level in levels]

    (base,) = realize(scale_bits + _BASE_HEADROOM_BITS, 1)
    base_primes = base.primes

    boot_steps: list[LevelStep] = []
    if boot_depth:
        if boot_scale_bits is None:
            raise ValueError("boot_depth > 0 requires boot_scale_bits")
        boot_steps = realize(boot_scale_bits, boot_depth)

    normal_steps = realize(scale_bits, depth)

    # Normal levels first, bootstrap levels last: rescaling consumes the
    # chain from the end, and after ModRaise the bootstrap pipeline must
    # burn its own budget before the application reuses normal levels.
    steps = tuple(normal_steps + boot_steps)
    q_primes = list(base_primes)
    for s in steps:
        q_primes.extend(s.primes)
    # One aux prime beyond the digit width: P ~ 2^30 * D_max, so the
    # ModDown-divided key-switching noise stays below the fresh noise
    # (matching library behaviour; with P ~ D_max rotations would cost
    # ~7 bits of precision).
    alpha = math.ceil(len(q_primes) / dnum)
    aux = find_aux_primes(
        two_n, alpha + 1, min_value=max(q_primes), word_bits=word_bits
    )

    if hamming_weight is None:
        hamming_weight = min(64, degree // 8)
    return CkksParams(
        degree=degree,
        slots=slots,
        scale_bits=scale_bits,
        base_primes=tuple(base_primes),
        steps=steps,
        aux_primes=tuple(aux),
        dnum=dnum,
        hamming_weight=hamming_weight,
        boot_levels=len(boot_steps),
        boot_scale_bits=boot_scale_bits if boot_depth else None,
    )


@dataclass
class SecretKey:
    """The ternary RLWE secret — the one value that must never leave.

    ``repr``/``str`` print a truncated digest only: key material must
    not reach a log line, an exception message, or a serialized frame,
    and the digest is the single sanctioned way to *name* a key in
    human-readable output (:mod:`repro.check.secflow` enforces the
    rest of that contract statically).
    """

    coeffs: np.ndarray

    def digest(self) -> str:
        """Safe-to-print fingerprint of the key (``sha256:<8 hex>``)."""
        return redacted_digest(np.ascontiguousarray(self.coeffs).tobytes())

    def __repr__(self) -> str:
        return f"SecretKey({self.digest()}, redacted)"

    __str__ = __repr__


class EvalKey:
    """A hybrid key-switching key: ``dnum`` digits over the full basis.

    The digits live once, as the stacked ``(dnum, L+K, N)`` tensors
    ``b`` and ``a`` the key-switch inner product consumes; iterating
    yields the per-digit ``(b_j, a_j)`` polynomials as row views of
    them.  On float-lane chains the key also owns its exact
    float-Shoup quotients (:meth:`shoup_tables`), built on first use and
    freed with the key.  A quotient depends only on its row's modulus,
    so the key at any level is the row slice ``[:d, :level]`` plus
    ``[:d, L:]`` of the same tensors — one table per key, however many
    levels use it.
    """

    def __init__(self, digits: Sequence[tuple[RnsPolynomial, RnsPolynomial]]):
        if not digits:
            raise ValueError("an evaluation key needs at least one digit")
        first = digits[0][0]
        for poly in (poly for pair in digits for poly in pair):
            if poly.moduli != first.moduli or poly.ntt_form != first.ntt_form:
                raise ValueError("evaluation-key digits disagree on basis or form")
        self.ring = first.ring
        self.moduli = first.moduli
        self.b = np.stack([b_j.limbs for b_j, _ in digits])
        self.a = np.stack([a_j.limbs for _, a_j in digits])
        self._digits = [
            (
                RnsPolynomial(self.ring, self.moduli, b_rows, first.ntt_form),
                RnsPolynomial(self.ring, self.moduli, a_rows, first.ntt_form),
            )
            for b_rows, a_rows in zip(self.b, self.a)
        ]
        self._shoup_f: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self._digits)

    def __iter__(self) -> Iterator[tuple[RnsPolynomial, RnsPolynomial]]:
        return iter(self._digits)

    def shoup_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """``fl(floor(w * 2**64 / q)) * 2**-64`` for every word of ``b`` and ``a``."""
        if self._shoup_f is None:
            q = self.ring.mod_column(self.moduli)
            b_f, a_f = (
                kernels.shoup_precompute(stack, q).astype(np.float64) * 2.0**-64
                for stack in (self.b, self.a)
            )
            self._shoup_f = (b_f, a_f)
        return self._shoup_f


class KeySet:
    """Secret key plus lazily generated public/evaluation keys.

    Evaluation keys follow the hybrid (dnum-digit) key-switching
    construction: ``evk_j = (-a_j*s + e_j + P*g_j*s_src, a_j)`` over the
    full ``PQ`` basis, where ``g_j`` is the CRT selector of digit ``j``
    (``= 1`` mod the digit's primes, ``= 0`` mod the others).  One evk
    serves every level (paper S2.2).
    """

    def __init__(self, params: CkksParams, ring: RingContext, rng: np.random.Generator):
        self.params = params
        self.ring = ring
        self.rng = rng
        self.secret = SecretKey(coeffs=self._sample_secret())
        self._secret_cache: dict[tuple[int, ...], RnsPolynomial] = {}
        self._evk_cache: dict[object, EvalKey] = {}
        self._public_key: tuple[RnsPolynomial, RnsPolynomial] | None = None
        # Digit selectors g_j as big ints over the full Q.
        q_primes = params.q_primes
        q_big = math.prod(q_primes)
        self._g: list[int] = []
        for start, stop in params.digit_spans():
            d_j = math.prod(q_primes[start:stop])
            q_tilde = q_big // d_j
            self._g.append(q_tilde * mod_inverse(q_tilde % d_j, d_j))
        self._q_big = q_big

    @property
    def secret_coeffs(self) -> np.ndarray:
        """The raw ternary secret coefficients (SECRET — never serialize)."""
        return self.secret.coeffs

    def __repr__(self) -> str:
        return (
            f"KeySet(secret={self.secret.digest()}, redacted, "
            f"degree={self.params.degree})"
        )

    __str__ = __repr__

    # -- sampling ---------------------------------------------------------------

    def _sample_secret(self) -> np.ndarray:
        n = self.params.degree
        h = self.params.hamming_weight
        coeffs = np.zeros(n, dtype=np.int64)
        idx = self.rng.choice(n, size=h, replace=False)
        coeffs[idx] = self.rng.choice((-1, 1), size=h)
        return coeffs

    def _sample_error(self) -> np.ndarray:
        return np.rint(
            self.rng.normal(0.0, self.params.sigma, self.params.degree)
        ).astype(np.int64)

    @declassified("uniform RLWE mask: coefficients are i.i.d. uniform mod q")
    def uniform_poly(self, moduli: tuple[int, ...]) -> RnsPolynomial:
        rows = [
            self.rng.integers(0, q, self.params.degree, dtype=np.uint64)
            for q in moduli
        ]
        return RnsPolynomial(self.ring, tuple(moduli), np.stack(rows), ntt_form=True)

    def error_poly(self, moduli: tuple[int, ...]) -> RnsPolynomial:
        """Fresh Gaussian noise, in coefficient form (callers add what rides
        through the transform with it first)."""
        return RnsPolynomial.from_int_coeffs(self.ring, moduli, self._sample_error())

    # -- key material ------------------------------------------------------------

    def secret_poly(self, moduli: tuple[int, ...]) -> RnsPolynomial:
        key = tuple(moduli)
        poly = self._secret_cache.get(key)
        if poly is None:
            poly = RnsPolynomial.from_int_coeffs(
                self.ring, key, self.secret_coeffs
            ).to_ntt()
            self._secret_cache[key] = poly
        return poly

    @declassified(
        "hybrid ksk digit: P*g_j*s_src is masked by -a_j*s + e_j "
        "(uniform pad plus fresh noise)"
    )
    def _make_evk(self, src_secret: RnsPolynomial) -> EvalKey:
        """Key-switching key from ``src_secret`` to the main secret."""
        params = self.params
        basis = params.full_basis
        s = self.secret_poly(basis)
        p_big = params.aux_product
        digits = []
        for g_j in self._g:
            a_j = self.uniform_poly(basis)
            e_j = self.error_poly(basis).to_ntt()
            factor = p_big * g_j  # reduced per limb inside scalar_mul
            msg = src_secret.scalar_mul([factor % q for q in basis])
            b_j = -(a_j * s) + e_j + msg
            digits.append((b_j, a_j))
        return EvalKey(digits)

    def relinearization_key(self) -> EvalKey:
        """evk_mult: switches ``s**2`` back to ``s``."""
        key = "mult"
        if key not in self._evk_cache:
            basis = self.params.full_basis
            s = self.secret_poly(basis)
            self._evk_cache[key] = self._make_evk(s * s)
        return self._evk_cache[key]

    def galois_key(self, galois: int) -> EvalKey:
        """evk_rot for one automorphism: switches ``s(X**g)`` back to ``s``."""
        key = ("galois", galois)
        if key not in self._evk_cache:
            basis = self.params.full_basis
            s_g = self.secret_poly(basis).automorphism(galois)
            self._evk_cache[key] = self._make_evk(s_g)
        return self._evk_cache[key]

    # -- public-key material (the repro.serve key ceremony) ----------------------

    @declassified("RLWE public key: s is masked by a uniform pad and fresh noise")
    def public_key(self) -> tuple[RnsPolynomial, RnsPolynomial]:
        """RLWE public key ``(b, a) = (-a*s + e, a)`` over the full basis.

        Limb-wise restriction to any prefix of the basis stays a valid
        public key, so one key serves every level and the extended
        key-switching basis alike.
        """
        if self._public_key is None:
            basis = self.params.full_basis
            s = self.secret_poly(basis)
            a = self.uniform_poly(basis)
            e = self.error_poly(basis).to_ntt()
            self._public_key = (-(a * s) + e, a)
        return self._public_key

    def ephemeral_poly(self, moduli: tuple[int, ...]) -> RnsPolynomial:
        """Fresh ternary encryption randomness (same shape as a secret)."""
        return RnsPolynomial.from_int_coeffs(self.ring, moduli, self._sample_secret()).to_ntt()

    @declassified(
        "public-key RLWE encryption: msg is masked by v*pk + fresh noise"
    )
    def pk_encrypt_poly(
        self,
        msg: RnsPolynomial,
        pk: tuple[RnsPolynomial, RnsPolynomial],
    ) -> tuple[RnsPolynomial, RnsPolynomial]:
        """Encrypt a coefficient-form polynomial under someone else's public key.

        ``(c0, c1) = (v*pk_b + e0 + msg, v*pk_a + e1)`` satisfies
        ``c0 + c1*s = v*e + e0 + e1*s + msg`` — the same contract a
        key-switching digit has, just with slightly more noise.  ``msg``
        may live on any prefix of the public key's basis; it joins
        ``e0`` before the transform, so it costs none of its own.
        """
        moduli = msg.moduli
        pk_b, pk_a = pk
        if pk_b.moduli[: len(moduli)] != moduli:
            raise ValueError("message basis is not a prefix of the public key basis")
        keep = range(len(moduli))
        b = pk_b.keep_limbs(keep)
        a = pk_a.keep_limbs(keep)
        v = self.ephemeral_poly(moduli)
        e0 = self.error_poly(moduli)
        e1 = self.error_poly(moduli).to_ntt()
        return (b * v + (e0 + msg).to_ntt(), a * v + e1)

    def make_switch_key(
        self, target_pk: tuple[RnsPolynomial, RnsPolynomial]
    ) -> EvalKey:
        """Key-switching key from *this* secret to a public key's owner.

        Each hybrid digit ``P * g_j * s`` is public-key-encrypted under
        ``target_pk``.  Whoever holds the target *secret* can decrypt
        the digits and read ``s`` off them, so the key goes to the party
        doing the switching and never to the target: ``repro.serve``
        makes one per session, from its own batch secret to the tenant's
        public key, and keeps it server-side.
        """
        params = self.params
        basis = params.full_basis
        src = RnsPolynomial.from_int_coeffs(self.ring, basis, self.secret_coeffs)
        p_big = params.aux_product
        digits = []
        for g_j in self._g:
            factor = p_big * g_j
            msg = src.scalar_mul([factor % q for q in basis])
            digits.append(self.pk_encrypt_poly(msg, target_pk))
        return EvalKey(digits)


class CkksContext:
    """Top-level handle: parameters, ring, encoder, keys, enc/dec."""

    def __init__(self, params: CkksParams, seed: int = 2023):
        self.params = params
        self.ring = RingContext(params.degree)
        self.encoder = CkksEncoder(self.ring, params.slots)
        self.rng = np.random.default_rng(seed)
        self.keys = KeySet(params, self.ring, self.rng)

    # -- encoding ---------------------------------------------------------------

    def encode(self, values, level: int | None = None, scale: float | None = None) -> Plaintext:
        if level is None:
            level = self.params.usable_level
        if scale is None:
            scale = self.params.scale
        moduli = self.params.active_moduli(level)
        return Plaintext(self.encoder.encode(values, moduli, scale), scale)

    def decode(self, plaintext: Plaintext) -> np.ndarray:
        return self.encoder.decode(plaintext.poly, plaintext.scale)

    # -- encryption ---------------------------------------------------------------

    @declassified(
        "RLWE encryption: plaintext is masked by -a*s + fresh noise, "
        "or by pk_encrypt_poly's v*pk + fresh noise"
    )
    def encrypt(
        self,
        values,
        level: int | None = None,
        scale: float | None = None,
        public_key: tuple[RnsPolynomial, RnsPolynomial] | None = None,
    ) -> Ciphertext:
        """RLWE encryption of a message vector, to ``public_key``'s owner.

        ``None`` encrypts to this context's own secret (symmetric-style:
        one noise term).  Either way message and noise meet in
        coefficient form and share a forward transform.
        """
        if level is None:
            level = self.params.usable_level
        if scale is None:
            scale = self.params.scale
        moduli = self.params.active_moduli(level)
        msg = self.encoder.encode_coeffs(values, moduli, scale)
        if public_key is not None:
            return Ciphertext(*self.keys.pk_encrypt_poly(msg, public_key), level, scale)
        a = self.keys.uniform_poly(moduli)
        e = self.keys.error_poly(moduli)
        s = self.keys.secret_poly(moduli)
        b = -(a * s) + (e + msg).to_ntt()
        return Ciphertext(b, a, level, scale)

    def decrypt(self, ct: Ciphertext) -> np.ndarray:
        """Decrypt and decode to a complex message vector."""
        s = self.keys.secret_poly(ct.moduli)
        return self.decode(Plaintext(ct.c0 + ct.c1 * s, ct.scale))
