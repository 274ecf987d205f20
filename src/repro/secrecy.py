"""Runtime secrecy markers consumed by :mod:`repro.check.secflow`.

This module is deliberately dependency-free: it is imported by the key
material code in :mod:`repro.ckks.context` and by :mod:`repro.serve`,
neither of which may pull in the static checker at import time.

Two things live here:

* :func:`declassified` — the *annotation* half of the information-flow
  contract.  Decorating a function asserts that its return value is
  ``PUBLIC`` even though the body reads ``SECRET`` key material (an
  RLWE encryption, a hybrid key-switching digit, a uniform mask).  The
  assertion is **not trusted**: :mod:`repro.check.secflow` re-checks
  every decorated function against an allow-list and a syntactic
  masking discipline (the secret must leave through a fresh-noise or
  uniform-mask combination), and flags ``SEC-DECLASSIFY-UNSOUND``
  when a refactor breaks the pattern.  A decorated function that the
  checker's allow-list does not know is itself a finding.
* :func:`redacted_digest` — the one sanctioned way to *mention* secret
  bytes in human-readable output.  ``repr``/``str`` of key material
  must print ``sha256:<8 hex chars>`` and nothing else; the checker
  treats this transform (and only this transform) as erasing the
  ``SECRET`` label for the repr sink.
"""

from __future__ import annotations

import hashlib
from typing import Callable, TypeVar

__all__ = ["declassified", "redacted_digest", "DECLASSIFIED_ATTR"]

_F = TypeVar("_F", bound=Callable[..., object])

# Attribute set on decorated callables; the AST checker matches the
# decorator *syntactically*, this runtime marker exists for
# introspection and tests.
DECLASSIFIED_ATTR = "__secflow_declassified__"


def declassified(reason: str) -> Callable[[_F], _F]:
    """Mark a function whose return is PUBLIC despite SECRET inputs.

    ``reason`` names the cryptographic argument (e.g. ``"RLWE public
    key: s is masked by a uniform pad and fresh noise"``).  The marker
    changes nothing at runtime; it is the anchor the static
    information-flow pass verifies against.
    """

    def mark(fn: _F) -> _F:
        setattr(fn, DECLASSIFIED_ATTR, reason)
        return fn

    return mark


def redacted_digest(data: bytes) -> str:
    """A short, safe-to-print fingerprint of secret bytes.

    Returns ``sha256:<hex>`` truncated to 32 bits — enough to tell two
    keys apart in a log, far too little to invert.
    """
    return f"sha256:{hashlib.sha256(data).hexdigest()[:8]}"
