"""Per-tenant session state on the server side.

A session is the product of the offline enrollment ceremony: the tenant
holds its own :class:`~repro.ckks.context.CkksContext` (secret never
leaves the client), the server holds the two proxy re-encryption keys
that bridge the tenant's secret and the preset's shared batch secret:

* ``evk_in`` — made *client-side* under the batch public key; switches
  a tenant-encrypted ciphertext onto the batch secret for packing;
* ``evk_out`` — made *server-side* under the tenant public key;
  switches each tenant's masked slice of the batch result back so only
  that tenant can decrypt it.

Neither party ever sees the other's secret key; both switch keys are
public-key encryptions of key material, which is exactly why the
ceremony is safe to run over the wire.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.ckks.context import EvalKey as SwitchKey

if TYPE_CHECKING:
    from repro.ckks.cipher import Plaintext
    from repro.rns.poly import RnsPolynomial

__all__ = ["SwitchKey", "TenantSession"]

_session_counter = itertools.count(1)


@dataclass
class TenantSession:
    """One enrolled tenant at one negotiated preset."""

    session_id: str
    word_bits: int
    width: int  # slots this tenant owns in any shared ciphertext
    lane_offset: int  # home lanes: [lane_offset, lane_offset + width), fixed for life
    # Key material is excluded from repr: switch keys are safe to hold
    # (public-key encryptions) but megabytes of limbs have no business in
    # a log line or a debugger echo.
    tenant_pk: tuple["RnsPolynomial", "RnsPolynomial"] = field(repr=False)
    evk_in: SwitchKey = field(repr=False)  # tenant secret -> batch secret
    evk_out: SwitchKey = field(repr=False)  # batch secret -> tenant secret
    # Egress lane masks by level: encoded on first use, freed with the session.
    masks: dict[int, "Plaintext"] = field(default_factory=dict, repr=False)
    jobs_submitted: int = 0
    jobs_admitted: int = 0
    jobs_rejected: int = 0
    _job_counter: itertools.count = field(
        default_factory=lambda: itertools.count(1), repr=False
    )

    @classmethod
    def fresh_id(cls) -> str:
        return f"s{next(_session_counter):04d}"

    def next_job_id(self) -> str:
        return f"{self.session_id}-j{next(self._job_counter):04d}"
