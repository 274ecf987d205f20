"""The offline phase: presets, key material, parameter negotiation.

Everything here happens once per tenant (or once per preset), before
any job is submitted:

1. the client asks for a word length; the server answers with the
   smallest catalogued preset that covers it
   (:meth:`ServeOffline.negotiate`) and ships the
   full parameter spec plus the batch public key;
2. the client builds its own :class:`~repro.ckks.context.CkksContext`
   from the spec (the tenant secret is sampled client-side and never
   serialized), keeps the batch public key — every job is encrypted
   *to* it — and sends back its own public key, nothing else;
3. the server makes the session's one bridge key, ``evk_out``
   (batch-to-tenant, under the tenant's public key, never sent
   anywhere), assigns the session its home lanes and opens it.

Presets are built lazily and cached: a server that only ever sees
36-bit tenants never pays for the 62-bit modulus chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from repro.check.admission import FoldParams
from repro.params.presets import NATIVE_WORD_LENGTHS
from repro.serve.session import TenantSession

if TYPE_CHECKING:
    from repro.ckks.context import CkksContext, CkksParams
    from repro.ckks.ops import Evaluator
    from repro.rns.poly import RnsPolynomial

__all__ = [
    "SERVE_DEGREE",
    "SERVE_DEPTH",
    "ServePreset",
    "ServeOffline",
    "TenantKeys",
]

# The service sells every native word length, at a ring small enough for
# interactive latency.
SERVE_DEGREE = 1 << 11
SERVE_DEPTH = 4


@dataclass
class ServePreset:
    """One lazily-built word-length tier of the service."""

    word_bits: int
    params: "CkksParams" = field(repr=False)
    context: "CkksContext" = field(repr=False)  # holds the shared batch secret
    evaluator: "Evaluator" = field(repr=False)
    fold_params: FoldParams = field(repr=False)  # what admission's fold reads

    @classmethod
    def build(cls, word_bits: int, seed: int) -> "ServePreset":
        from repro.ckks.context import CkksContext
        from repro.ckks.ops import Evaluator
        from repro.params.presets import build_native_ckks_params

        params = build_native_ckks_params(
            word_bits, degree=SERVE_DEGREE, depth=SERVE_DEPTH
        )
        context = CkksContext(params, seed=seed)
        return cls(
            word_bits=word_bits,
            params=params,
            context=context,
            evaluator=Evaluator(context),
            fold_params=FoldParams.from_params(params, word_bits),
        )

    @property
    def slots(self) -> int:
        return self.params.slots

    def assign_lanes(self, width: int, live: Iterable[TenantSession] = ()) -> int:
        """Offset of a new session's home lanes: the ``width``-aligned block
        the fewest ``live`` sessions of this preset hold, lowest first.
        Lanes are therefore shared only while more sessions are live than
        the ring has blocks (the batcher never packs two overlapping
        sessions together)."""

        def holders(offset: int) -> int:
            return sum(
                s.lane_offset < offset + width and offset < s.lane_offset + s.width
                for s in live
            )

        return min(range(0, self.slots - width + 1, width), key=holders)

    def batch_public_key(self) -> tuple["RnsPolynomial", "RnsPolynomial"]:
        return self.context.keys.public_key()


class ServeOffline:
    """The server's offline state: preset cache plus enrollment."""

    def __init__(self, seed: int = 2023):
        self.seed = seed
        self._presets: dict[int, ServePreset] = {}

    def negotiate(self, requested_bits: int) -> int:
        """Smallest catalogued word length at least ``requested_bits`` wide.

        A tenant states the narrowest word it accepts (a proxy for its
        precision demand: the native scale is one bit below the word);
        an impossible demand raises ``ValueError`` here rather than at
        admission."""
        for bits in NATIVE_WORD_LENGTHS:
            if bits >= requested_bits:
                return bits
        raise ValueError(
            f"no word length >= {requested_bits} bits in the catalogue {NATIVE_WORD_LENGTHS}"
        )

    def preset(self, word_bits: int) -> ServePreset:
        if word_bits not in NATIVE_WORD_LENGTHS:
            raise ValueError(
                f"word length {word_bits} is not in the catalogue "
                f"{NATIVE_WORD_LENGTHS}"
            )
        if word_bits not in self._presets:
            # Distinct seed per preset so batch secrets never repeat
            # across tiers.
            self._presets[word_bits] = ServePreset.build(
                word_bits, seed=self.seed + word_bits
            )
        return self._presets[word_bits]

    def enroll(
        self,
        word_bits: int,
        width: int,
        tenant_pk: tuple["RnsPolynomial", "RnsPolynomial"],
        live: Iterable[TenantSession] = (),
    ) -> TenantSession:
        """Finish the ceremony server-side and open the session, its home
        lanes clear of the preset's ``live`` sessions where the ring allows."""
        preset = self.preset(word_bits)
        if width < 1 or width > preset.slots:
            raise ValueError(
                f"lane width {width} out of range [1, {preset.slots}]"
            )
        evk_out = preset.context.keys.make_switch_key(tenant_pk)
        return TenantSession(
            session_id=TenantSession.fresh_id(),
            word_bits=word_bits,
            width=width,
            lane_offset=preset.assign_lanes(width, live),
            evk_out=evk_out,
        )


@dataclass
class TenantKeys:
    """Client-side product of the offline ceremony (see module doc)."""

    context: "CkksContext" = field(repr=False)  # holds the tenant secret
    batch_pk: tuple["RnsPolynomial", "RnsPolynomial"] = field(repr=False)

    def __repr__(self) -> str:
        # Digest-only: the context holds the tenant secret, and a public
        # key is megabytes of limbs — neither belongs in a log line.
        return f"TenantKeys(secret={self.context.keys.secret.digest()}, redacted)"

    __str__ = __repr__
