"""Per-tenant session state on the server side.

A session is the product of the offline enrollment ceremony.  The
tenant holds its own :class:`~repro.ckks.context.CkksContext` (its
secret never leaves the client) and encrypts every job *to the batch
public key*, so its ciphertexts arrive already under the preset's
shared batch secret and ingress needs no key at all.  The server holds
one bridge key per session:

* ``evk_out`` — made *server-side* under the tenant public key;
  switches the tenant's masked slice of the batch result onto the
  tenant's secret, so only that tenant can decrypt it.

``evk_out`` is a public-key encryption of the *batch* secret's digits
under the tenant's key: it stays on the server and must never be sent
to a tenant, who could decrypt it.  The only image of a tenant secret
that ever leaves the client is its public key.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.ckks.cipher import Plaintext
    from repro.ckks.context import EvalKey

__all__ = ["TenantSession"]

_session_counter = itertools.count(1)


@dataclass
class TenantSession:
    """One enrolled tenant at one negotiated preset."""

    session_id: str
    word_bits: int
    width: int  # slots this tenant owns in any shared ciphertext
    lane_offset: int  # home lanes: [lane_offset, lane_offset + width), fixed for life
    # Excluded from repr: megabytes of limbs have no business in a log
    # line or a debugger echo.
    evk_out: "EvalKey" = field(repr=False)  # batch secret -> tenant secret
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
