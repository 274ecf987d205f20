"""Wire-format round-trips (hypothesis) across the serve presets.

Every serialized artifact — ciphertexts, public keys, switch keys,
parameter messages, programs — must decode back bit-identical at each
word length the service catalogues, and every malformed byte stream
must be rejected with :class:`WireError`, never an exception escape.
Frames go through :func:`wire.read_frame`, the parser the server runs.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ckks.context import CkksContext
from repro.params.presets import NATIVE_WORD_LENGTHS, build_native_ckks_params
from repro.serve import wire
from repro.serve.program import EvalProgram, ProgramBuilder

PER_WORD_LENGTH = pytest.mark.parametrize("word_bits", NATIVE_WORD_LENGTHS)

_CONTEXTS: dict[int, CkksContext] = {}


def _context(word_bits: int) -> CkksContext:
    if word_bits not in _CONTEXTS:
        params = build_native_ckks_params(word_bits, degree=1 << 10, depth=3)
        _CONTEXTS[word_bits] = CkksContext(params, seed=500 + word_bits)
    return _CONTEXTS[word_bits]


def _read(data: bytes, limit: int = wire.HANDSHAKE_FRAME_LIMIT) -> tuple[wire.Kind, bytes]:
    """One frame through the server's parser, from a stream that ends after ``data``."""

    async def read() -> tuple[wire.Kind, bytes]:
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await wire.read_frame(reader, limit)

    return asyncio.run(read())


def _random_message(ctx: CkksContext, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    slots = ctx.params.slots
    return rng.uniform(-1, 1, slots) + 1j * rng.uniform(-1, 1, slots)


class TestCiphertextRoundTrip:
    @given(
        word_bits=st.sampled_from(NATIVE_WORD_LENGTHS),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=12, deadline=None)
    def test_ciphertext(self, word_bits: int, seed: int):
        ctx = _context(word_bits)
        ct = ctx.encrypt(_random_message(ctx, seed))
        blob = wire.encode_ciphertext(ct)
        out = wire.decode_ciphertext(blob, ctx.ring)
        assert out.level == ct.level
        assert out.scale == ct.scale
        for mine, theirs in ((ct.c0, out.c0), (ct.c1, out.c1)):
            assert theirs.moduli == mine.moduli
            assert theirs.ntt_form == mine.ntt_form
            assert (theirs.limbs == mine.limbs).all()

    @given(
        word_bits=st.sampled_from(NATIVE_WORD_LENGTHS),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=8, deadline=None)
    def test_decrypts_identically(self, word_bits: int, seed: int):
        ctx = _context(word_bits)
        msg = _random_message(ctx, seed)
        ct = ctx.encrypt(msg)
        out = wire.decode_ciphertext(wire.encode_ciphertext(ct), ctx.ring)
        assert np.array_equal(ctx.decrypt(out), ctx.decrypt(ct))


class TestKeyRoundTrip:
    @PER_WORD_LENGTH
    def test_public_key(self, word_bits: int):
        ctx = _context(word_bits)
        pk = ctx.keys.public_key()
        out = wire.decode_public_key(wire.encode_public_key(pk), ctx.ring)
        for mine, theirs in zip(pk, out):
            assert theirs.moduli == mine.moduli
            assert (theirs.limbs == mine.limbs).all()

    @PER_WORD_LENGTH
    def test_switch_key(self, word_bits: int):
        ctx = _context(word_bits)
        other = CkksContext(ctx.params, seed=9000 + word_bits)
        evk = ctx.keys.make_switch_key(other.keys.public_key())
        out = wire.decode_switch_key(wire.encode_switch_key(evk), ctx.ring)
        assert len(out) == len(evk)
        for (b1, a1), (b2, a2) in zip(evk, out):
            assert (b2.limbs == b1.limbs).all()
            assert (a2.limbs == a1.limbs).all()

    @PER_WORD_LENGTH
    def test_params_spec(self, word_bits: int):
        params = _context(word_bits).params
        blob = wire.encode_params(params, word_bits)
        assert wire.decode_params(blob) == (params, word_bits)


# Program strategy: random well-formed straight-line chains.
_UNARY = st.sampled_from(["square", "negate", "conjugate", "consume_level"])


@st.composite
def programs(draw: st.DrawFn) -> EvalProgram:
    b = ProgramBuilder(draw(st.text("ab", min_size=1, max_size=6)))
    v = b.input
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        choice = draw(st.integers(min_value=0, max_value=4))
        if choice == 0:
            v = b.add_matched(v, b.square(v))
        elif choice == 1:
            v = b.multiply_scalar(v, complex(draw(st.floats(-2, 2)), 0))
        elif choice == 2:
            v = b.add_scalar(v, complex(0, draw(st.floats(-2, 2))))
        elif choice == 3:
            v = b.rotate(v, draw(st.integers(min_value=-8, max_value=8)))
        else:
            v = getattr(b, draw(_UNARY))(v)
    return b.build(v)


class TestProgramRoundTrip:
    @given(program=programs())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip(self, program: EvalProgram):
        out = wire.decode_program(wire.encode_program(program))
        assert out == program
        assert out.digest() == program.digest()

    @given(program=programs())
    @settings(max_examples=20, deadline=None)
    def test_frame_roundtrip(self, program: EvalProgram):
        payload = wire.encode_program(program)
        kind, payload = _read(wire.encode_frame(wire.Kind.JOB, payload), len(payload))
        assert kind == wire.Kind.JOB
        assert wire.decode_program(payload) == program


class TestRejection:
    def _frame(self) -> bytes:
        return wire.encode_frame(wire.Kind.STATS, wire.encode_json({"x": 1}))

    @given(cut=st.integers(min_value=1, max_value=22))
    @settings(max_examples=22, deadline=None)
    def test_truncation(self, cut: int):
        frame = self._frame()
        assert len(frame) == 23
        with pytest.raises(wire.WireError, match="truncated"):
            _read(frame[: len(frame) - cut])

    def test_header_cut_is_not_a_hang_up(self):
        """Only an EOF before the first header byte is a clean hang-up."""
        frame = self._frame()
        with pytest.raises(asyncio.IncompleteReadError):
            _read(b"")
        for kept in range(1, 16):
            with pytest.raises(wire.WireError, match="truncated header"):
                _read(frame[:kept])

    @given(version=st.integers(min_value=0, max_value=2**16 - 1))
    @settings(max_examples=20, deadline=None)
    def test_version_mismatch(self, version: int):
        frame = bytearray(self._frame())
        frame[4:6] = int(version).to_bytes(2, "little")
        if version == wire.VERSION:
            assert _read(bytes(frame)) == (wire.Kind.STATS, frame[16:])
        else:
            with pytest.raises(wire.WireError, match="version"):
                _read(bytes(frame))

    def test_bad_magic(self):
        frame = b"EVIL" + self._frame()[4:]
        with pytest.raises(wire.WireError, match="magic"):
            _read(frame)

    def test_unknown_kind(self):
        frame = bytearray(self._frame())
        frame[6:8] = (4242).to_bytes(2, "little")
        with pytest.raises(wire.WireError, match="kind"):
            _read(bytes(frame))

    def test_malformed_params_message(self):
        spec = _context(36).params.to_spec()
        for message in ({"word_bits": 36}, {"word_bits": 36, "spec": {}},
                        {"word_bits": 36, "spec": 7}, {"spec": spec},
                        {"word_bits": "x", "spec": spec}):  # fmt: skip
            with pytest.raises(wire.WireError, match="malformed PARAMS"):
                wire.decode_params(wire.encode_json(message))

    @pytest.mark.parametrize(
        "where, match",
        [("c1 header", "truncated poly header"), ("c1 body", "truncated poly body")],
        ids=["header", "body"],
    )
    def test_truncated_ciphertext_body(self, where: str, match: str):
        ctx = _context(36)
        ct = ctx.encrypt(_random_message(ctx, 1))
        blob = wire.encode_ciphertext(ct)
        # 4 of c1's 9 header bytes, or all of c1 but its last residue.
        c1_at = len(blob) - len(wire.encode_poly(ct.c1))
        kept = c1_at + 4 if where == "c1 header" else len(blob) - 8
        with pytest.raises(wire.WireError, match=match):
            wire.decode_ciphertext(blob[:kept], ctx.ring)

    def test_tampered_residue_rejected(self):
        ctx = _context(36)
        blob = bytearray(wire.encode_ciphertext(ctx.encrypt(_random_message(ctx, 2))))
        blob[-8:] = (2**63).to_bytes(8, "little")  # residue >= every modulus
        with pytest.raises(wire.WireError, match="residue"):
            wire.decode_ciphertext(bytes(blob), ctx.ring)

    def test_wrong_ring_rejected(self):
        ctx = _context(36)
        other = _context(28)  # same degree, fine — so shrink instead
        assert other.ring.degree == ctx.ring.degree
        from repro.rns.poly import RingContext

        small_ring = RingContext(1 << 9)
        blob = wire.encode_ciphertext(ctx.encrypt(_random_message(ctx, 3)))
        with pytest.raises(wire.WireError, match="degree"):
            wire.decode_ciphertext(blob, small_ring)

    def test_malformed_program_payload(self):
        with pytest.raises(wire.WireError):
            wire.decode_program(b"{not json")
        with pytest.raises(wire.WireError, match="invalid program"):
            wire.decode_program(b'{"name":"x","input":"in","output":"out","ops":[]}')
