"""Versioned wire format: streaming ciphertext/key/program I/O.

No serialization existed in :mod:`repro.ckks` before the service layer;
this module defines it.  Every message is one *frame*:

    +--------+---------+--------+--------------+----------------+
    | b"SHRP" | version | kind   | payload_len  | payload bytes  |
    |  4 B    |  u16    |  u16   |  u64         |  payload_len B |
    +--------+---------+--------+--------------+----------------+

(all little-endian).  A reader rejects — with :class:`WireError`, never
a crash — bad magic, unknown versions, unknown kinds, truncated
payloads, and length claims past its connection's limit
(:data:`HANDSHAKE_FRAME_LIMIT` until the parameters are negotiated,
:func:`frame_limit` of them after), so a malformed peer can neither
wedge the server loop nor make it reserve memory.

Payloads compose from two building blocks:

* *blob sequences* — ``u32`` length-prefixed byte strings, used to
  nest JSON metadata next to binary ciphertext in one frame;
* *poly blocks* — an ``(limb_count, degree, ntt_flag)`` header, the
  modulus chain as ``u64`` words, then the limb matrix verbatim; the
  self-describing unit ciphertexts, public keys, and evaluation-key
  digit lists are built from (no frame carries an evaluation key; the
  codec serves tests and tooling).

Scales travel as IEEE doubles (they are floats in the library), limbs
as canonical ``uint64`` residues; decode validates residue ranges so a
hostile payload cannot smuggle non-canonical limbs past the kernels.
"""

from __future__ import annotations

import json
import struct
from enum import IntEnum
from typing import TYPE_CHECKING, Any, Iterable

import numpy as np

from repro.ckks.cipher import Ciphertext
from repro.ckks.context import CkksParams, EvalKey
from repro.rns.poly import RnsPolynomial
from repro.serve.program import EvalProgram, ProgramError

if TYPE_CHECKING:
    import asyncio

    from repro.rns.poly import RingContext

__all__ = [
    "MAGIC",
    "VERSION",
    "Kind",
    "WireError",
    "encode_frame",
    "encode_blobs",
    "decode_blobs",
    "encode_json",
    "decode_json",
    "encode_poly",
    "encode_ciphertext",
    "decode_ciphertext",
    "encode_public_key",
    "decode_public_key",
    "encode_switch_key",
    "decode_switch_key",
    "encode_params",
    "decode_params",
    "encode_program",
    "decode_program",
    "HANDSHAKE_FRAME_LIMIT",
    "frame_limit",
    "read_frame",
    "write_frame",
]

MAGIC = b"SHRP"
VERSION = 2

_HEADER = struct.Struct("<4sHHQ")
_BLOB_LEN = struct.Struct("<I")
_POLY_HEADER = struct.Struct("<IIB")
_CT_HEADER = struct.Struct("<Id")
_KEY_COUNT = struct.Struct("<I")

# The largest payload a peer may announce before the parameters are
# agreed (HELLO, PARAMS, ERROR: small JSON), and the slack granted on top
# of the key material afterwards (poly headers, job metadata, program).
HANDSHAKE_FRAME_LIMIT = 1 << 16


def frame_limit(params: CkksParams) -> int:
    """Payload cap once ``params`` are negotiated: a public key over the
    full basis — the largest thing either side sends — plus slack."""
    return 2 * len(params.full_basis) * params.degree * 8 + HANDSHAKE_FRAME_LIMIT


class Kind(IntEnum):
    """Frame kinds of protocol version 2 (4 was version 1's ``SWITCH_KEY``,
    the tenant-made switch key: retired, not to be reused)."""

    HELLO = 1  # client -> server: negotiation request (JSON)
    PARAMS = 2  # server -> client: negotiated preset (JSON + spec)
    PUBLIC_KEY = 3  # batch key to the client, then tenant key back (poly pair)
    ENROLLED = 5  # server -> client: session acknowledgement (JSON)
    JOB = 6  # client -> server: [meta JSON, program JSON, ciphertext]
    RESULT = 7  # server -> client: [meta JSON, ciphertext]
    ERROR = 8  # server -> client: admission / protocol error (JSON)
    STATS_REQUEST = 9  # client -> server: empty
    STATS = 10  # server -> client: metrics (JSON)
    BYE = 11  # client -> server: end of session (empty)


class WireError(Exception):
    """Malformed, truncated, or version-incompatible wire data."""


# -- framing -----------------------------------------------------------------


def encode_frame(kind: Kind, payload: bytes = b"") -> bytes:
    return _HEADER.pack(MAGIC, VERSION, int(kind), len(payload)) + payload


def _parse_header(header: bytes) -> tuple[Kind, int]:
    """Frame kind and payload length claim; rejects anything malformed."""
    magic, version, kind_raw, length = _HEADER.unpack(header)
    if magic != MAGIC:
        # Never echo the received bytes: a frame that missed its magic is
        # attacker- (or bug-) controlled content and must not reach logs.
        raise WireError(f"bad magic in frame header (want {MAGIC!r})")
    if version != VERSION:
        raise WireError(f"unsupported wire version {version} (speak {VERSION})")
    try:
        return Kind(kind_raw), length
    except ValueError as exc:
        raise WireError(f"unknown frame kind {kind_raw}") from exc


# -- blob sequences ----------------------------------------------------------


def encode_blobs(blobs: Iterable[bytes]) -> bytes:
    out = bytearray()
    for blob in blobs:
        out += _BLOB_LEN.pack(len(blob))
        out += blob
    return bytes(out)


def decode_blobs(data: bytes) -> list[bytes]:
    out: list[bytes] = []
    offset = 0
    while offset < len(data):
        if offset + _BLOB_LEN.size > len(data):
            raise WireError("truncated blob length prefix")
        (length,) = _BLOB_LEN.unpack_from(data, offset)
        offset += _BLOB_LEN.size
        if offset + length > len(data):
            raise WireError(
                f"truncated blob: {length} bytes claimed, "
                f"{len(data) - offset} remain"
            )
        out.append(data[offset : offset + length])
        offset += length
    return out


def encode_json(obj: object) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def decode_json(data: bytes) -> dict[str, Any]:
    try:
        obj = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        # str(UnicodeDecodeError) prints the offending byte — report the
        # position only, never payload content.
        raise WireError(f"JSON payload is not UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise WireError(
            f"malformed JSON payload at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(obj, dict):
        raise WireError("JSON payload must be an object")
    return obj


# -- polynomial blocks -------------------------------------------------------


def encode_poly(poly: RnsPolynomial) -> bytes:
    limbs = np.ascontiguousarray(poly.limbs, dtype="<u8")
    moduli = np.array(poly.moduli, dtype="<u8")
    header = _POLY_HEADER.pack(
        len(poly.moduli), poly.ring.degree, 1 if poly.ntt_form else 0
    )
    return header + moduli.tobytes() + limbs.tobytes()


def _decode_poly_at(
    data: bytes, offset: int, ring: "RingContext"
) -> tuple[RnsPolynomial, int]:
    if offset + _POLY_HEADER.size > len(data):
        raise WireError("truncated poly header")
    limb_count, degree, ntt_flag = _POLY_HEADER.unpack_from(data, offset)
    offset += _POLY_HEADER.size
    if degree != ring.degree:
        raise WireError(f"poly degree {degree} != ring degree {ring.degree}")
    if limb_count == 0 or limb_count > 4096:
        raise WireError(f"implausible limb count {limb_count}")
    mod_bytes = limb_count * 8
    limb_bytes = limb_count * degree * 8
    if offset + mod_bytes + limb_bytes > len(data):
        raise WireError("truncated poly body")
    moduli_arr = np.frombuffer(data, dtype="<u8", count=limb_count, offset=offset)
    moduli = tuple(int(q) for q in moduli_arr)
    offset += mod_bytes
    limbs = (
        np.frombuffer(data, dtype="<u8", count=limb_count * degree, offset=offset)
        .reshape(limb_count, degree)
        .astype(np.uint64)
    )
    offset += limb_bytes
    for i, q in enumerate(moduli):
        if q < 3:
            raise WireError(f"limb {i}: implausible modulus {q}")
        if int(limbs[i].max(initial=0)) >= q:
            raise WireError(f"limb {i}: residue out of range for modulus {q}")
    return RnsPolynomial(ring, moduli, limbs, ntt_form=bool(ntt_flag)), offset


# -- ciphertexts and keys ----------------------------------------------------


def encode_ciphertext(ct: Ciphertext) -> bytes:
    return (
        _CT_HEADER.pack(ct.level, float(ct.scale))
        + encode_poly(ct.c0)
        + encode_poly(ct.c1)
    )


def decode_ciphertext(data: bytes, ring: "RingContext") -> Ciphertext:
    if len(data) < _CT_HEADER.size:
        raise WireError("truncated ciphertext header")
    level, scale = _CT_HEADER.unpack_from(data)
    if level < 0 or not scale > 0:
        raise WireError(f"implausible ciphertext state (level={level}, scale={scale})")
    c0, offset = _decode_poly_at(data, _CT_HEADER.size, ring)
    c1, offset = _decode_poly_at(data, offset, ring)
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes after ciphertext")
    if c0.moduli != c1.moduli:
        raise WireError("ciphertext halves disagree on the modulus chain")
    return Ciphertext(c0, c1, int(level), float(scale))


def encode_public_key(pk: tuple[RnsPolynomial, RnsPolynomial]) -> bytes:
    return encode_poly(pk[0]) + encode_poly(pk[1])


def decode_public_key(
    data: bytes, ring: "RingContext"
) -> tuple[RnsPolynomial, RnsPolynomial]:
    b, offset = _decode_poly_at(data, 0, ring)
    a, offset = _decode_poly_at(data, offset, ring)
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes after public key")
    if b.moduli != a.moduli:
        raise WireError("public key halves disagree on the modulus chain")
    return (b, a)


def encode_switch_key(digits: EvalKey) -> bytes:
    out = bytearray(_KEY_COUNT.pack(len(digits)))
    for b_j, a_j in digits:
        out += encode_poly(b_j)
        out += encode_poly(a_j)
    return bytes(out)


def decode_switch_key(data: bytes, ring: "RingContext") -> EvalKey:
    if len(data) < _KEY_COUNT.size:
        raise WireError("truncated switch-key digit count")
    (count,) = _KEY_COUNT.unpack_from(data)
    if count == 0 or count > 64:
        raise WireError(f"implausible switch-key digit count {count}")
    offset = _KEY_COUNT.size
    digits: list[tuple[RnsPolynomial, RnsPolynomial]] = []
    for _ in range(count):
        b_j, offset = _decode_poly_at(data, offset, ring)
        a_j, offset = _decode_poly_at(data, offset, ring)
        digits.append((b_j, a_j))
    if offset != len(data):
        raise WireError(f"{len(data) - offset} trailing bytes after switch key")
    try:
        return EvalKey(digits)
    except ValueError as exc:
        raise WireError(f"malformed switch key: {exc}") from exc


# -- parameters and programs -------------------------------------------------


def encode_params(params: CkksParams, word_bits: int) -> bytes:
    """The PARAMS message: the negotiated word length and the parameter spec."""
    return encode_json({"word_bits": word_bits, "spec": params.to_spec()})


def decode_params(data: bytes) -> tuple[CkksParams, int]:
    """``(params, word_bits)`` of a PARAMS message."""
    message = decode_json(data)
    try:
        return CkksParams.from_spec(message["spec"]), int(message["word_bits"])
    except (KeyError, TypeError, ValueError) as exc:
        raise WireError(f"malformed PARAMS message: {exc}") from exc


def encode_program(program: EvalProgram) -> bytes:
    return program.to_json().encode("utf-8")


def decode_program(data: bytes) -> EvalProgram:
    try:
        return EvalProgram.from_json(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise WireError(f"program payload is not UTF-8 at byte {exc.start}") from exc
    except ProgramError as exc:
        raise WireError(f"invalid program: {exc}") from exc


# -- stream I/O --------------------------------------------------------------


async def read_frame(reader: "asyncio.StreamReader", limit: int) -> tuple[Kind, bytes]:
    """Read exactly one frame of at most ``limit`` payload bytes.

    Raises :class:`WireError` on any protocol violation — a longer
    length claim is refused before a byte of it is read — and
    ``asyncio.IncompleteReadError`` only for a clean EOF before the
    first header byte (so servers can tell hang-ups from attacks).
    """
    import asyncio

    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise
        raise WireError(
            f"truncated header: {len(exc.partial)} < {_HEADER.size} bytes"
        ) from exc
    kind, length = _parse_header(header)
    if length > limit:
        raise WireError(f"payload length {length} exceeds this connection's {limit} cap")
    try:
        payload = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise WireError(
            f"payload truncated mid-frame: wanted {length} bytes, "
            f"got {len(exc.partial)}"
        ) from exc
    return kind, payload


def write_frame(
    writer: "asyncio.StreamWriter", kind: Kind, payload: bytes = b""
) -> None:
    writer.write(encode_frame(kind, payload))
