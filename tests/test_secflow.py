"""Information-flow verification tests.

Three layers:

1. the static analyzer itself — zero false positives on the shipped
   serve/ckks stack, targeted synthetic-module behaviors (helper
   laundering, declassifier audit, TENANT policy), and 100% detection
   on the seeded leak-mutant corpus;
2. the redaction hygiene the analyzer assumes — digest-only reprs,
   content-free wire errors;
3. a dynamic Hypothesis cross-check: a real two-tenant end-to-end run
   captures every wire frame, server log line, and surfaced exception,
   then samples byte windows of the tenants' (and the batch's) secret
   key encodings and asserts none appears in anything observable.
"""

from __future__ import annotations

import asyncio
import logging
from typing import Awaitable, Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.mutations import secflow_cases
from repro.check.secflow import (
    ALLOWED_DECLASSIFIERS,
    DEFAULT_MODULES,
    check_default,
    check_source,
    check_sources,
    load_default_sources,
)
from repro.ckks.context import CkksContext, SecretKey
from repro.secrecy import redacted_digest
from repro.serve import wire
from repro.serve.client import FheClient, JobRejected
from repro.serve.offline import ServeOffline, TenantKeys
from repro.serve.program import ProgramBuilder
from repro.serve.server import FheServer

OFFLINE = ServeOffline(seed=7117)


# -- the analyzer: shipped stack is clean ------------------------------------


class TestCleanStack:
    def test_default_universe_has_zero_findings(self):
        report = check_default()
        assert report.ok, report.render()
        assert not report.diagnostics

    def test_default_universe_covers_the_whole_serve_stack(self):
        sources = load_default_sources()
        assert set(sources) == set(DEFAULT_MODULES)
        assert len(DEFAULT_MODULES) >= 12
        for module, text in sources.items():
            assert text.strip(), module

    def test_every_allowed_declassifier_exists_and_is_annotated(self):
        # The allow-list must point at real, currently-annotated code:
        # a stale entry is itself flagged by the pass, so a clean
        # default report implies each one resolved.
        report = check_default()
        assert report.ok
        assert all(
            qual.startswith("repro.ckks.context.")
            for qual in ALLOWED_DECLASSIFIERS
        )


# -- the analyzer: targeted synthetic behaviors ------------------------------


class TestSyntheticFlows:
    def test_helper_laundering_is_caught_interprocedurally(self):
        source = (
            "import logging\n"
            "log = logging.getLogger('x')\n"
            "\n"
            "def shout(v):\n"
            "    log.info('value=%s', v)\n"
            "\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self.secret = [1, -1, 0]\n"
            "\n"
            "def leak(holder):\n"
            "    shout(holder.secret)\n"
        )
        report = check_sources({"synthetic.mod": source})
        assert "SEC-LOG" in report.error_codes(), report.render()

    def test_secret_in_fstring_exception(self):
        source = (
            "class Holder:\n"
            "    def __init__(self, rng):\n"
            "        self.seed = 7\n"
            "\n"
            "def boom(holder):\n"
            "    raise ValueError(f'bad state {holder.seed}')\n"
        )
        report = check_sources({"synthetic.mod": source})
        assert {"SEC-REPR", "SEC-LOG"} & report.error_codes()

    def test_tenant_data_may_be_printed_but_not_wired(self):
        # `decrypt` is a declared TENANT boundary: printing the result
        # back to the tenant is fine, serializing it into a frame is not.
        shared = (
            "class Ctx:\n"
            "    def decrypt(self, ct):\n"
            "        return ct\n"
            "\n"
        )
        ok_source = shared + (
            "def show(ctx, ct):\n"
            "    print(ctx.decrypt(ct))\n"
        )
        report = check_sources({"synthetic.mod": ok_source})
        assert report.ok, report.render()

        wire_stub = "def encode_json(obj):\n    return b''\n"
        bad_source = shared + (
            "from repro.serve import wire\n"
            "def ship(ctx, ct):\n"
            "    return encode_json(ctx.decrypt(ct))\n"
        )
        report = check_sources(
            {"repro.serve.wire": wire_stub, "synthetic.mod": bad_source}
        )
        assert "SEC-LEAK" in report.error_codes(), report.render()

    def test_unlisted_declassifier_is_unsound(self):
        source = (
            "from repro.secrecy import declassified\n"
            "\n"
            "@declassified('trust me')\n"
            "def launder(secret):\n"
            "    return secret\n"
        )
        report = check_sources({"synthetic.mod": source})
        assert "SEC-DECLASSIFY-UNSOUND" in report.error_codes()

    def test_unparseable_source_is_an_error_not_a_pass(self):
        report = check_sources({"synthetic.mod": "def broken(:\n"})
        assert not report.ok


# -- the analyzer: seeded leak corpus ----------------------------------------


class TestLeakCorpus:
    CASES = secflow_cases()

    def test_corpus_is_large_enough(self):
        assert len(self.CASES) >= 6

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_injected_leak_is_caught(self, case):
        report = case.run()
        fired = report.error_codes() & set(case.expect_codes)
        assert fired, (
            f"{case.name}: expected one of {case.expect_codes}, "
            f"saw {sorted(d.code for d in report.diagnostics) or 'nothing'}"
        )

    def test_clean_reinjection_stays_clean(self):
        # check_source with the *unmutated* module must not introduce
        # findings — the corpus's signal is the mutation, not the rig.
        sources = load_default_sources()
        report = check_source(
            sources["repro.serve.server"], "repro.serve.server"
        )
        assert report.ok, report.render()


# -- redaction hygiene -------------------------------------------------------


class TestRedaction:
    def test_redacted_digest_format(self):
        d = redacted_digest(b"some secret bytes")
        assert d.startswith("sha256:") and len(d) == len("sha256:") + 8
        assert d == redacted_digest(b"some secret bytes")
        assert d != redacted_digest(b"other secret bytes")

    def test_secret_key_repr_is_digest_only(self):
        coeffs = np.array([1, 0, -1, 1], dtype=np.int64)
        sk = SecretKey(coeffs=coeffs)
        for text in (repr(sk), str(sk)):
            assert "redacted" in text
            assert "sha256:" in text
            assert "-1" not in text and "[" not in text

    def test_keyset_and_tenantkeys_reprs_carry_no_coefficients(self):
        context = OFFLINE.preset(36).context
        keys = context.keys
        blobs = [repr(keys), str(keys), repr(TenantKeys(context, keys.public_key()))]
        coeff_text = np.array2string(keys.secret.coeffs[:8])
        for text in blobs:
            assert "redacted" in text
            assert coeff_text not in text
            assert "array(" not in text

    def test_wire_errors_never_echo_payload_bytes(self):
        payload = b"\xde\xad\xbe\xefSECRETSECRET" * 4

        async def read() -> None:
            reader = asyncio.StreamReader()
            reader.feed_data(payload)
            reader.feed_eof()
            await wire.read_frame(reader, wire.HANDSHAKE_FRAME_LIMIT)

        with pytest.raises(wire.WireError) as exc_info:
            asyncio.run(read())
        assert b"SECRET" not in str(exc_info.value).encode()

        bad_json = b"\xff\xfe" + b"notutf8" + b"\xff" * 8
        with pytest.raises(wire.WireError) as exc_info:
            wire.decode_json(bad_json)
        message = str(exc_info.value)
        assert "notutf8" not in message
        assert "byte" in message  # offsets, not content


# -- dynamic cross-check: two tenants, captured observables ------------------


def _too_deep():
    b = ProgramBuilder("deep")
    v = b.input
    for _ in range(9):
        v = b.square(v)
    return b.build(v)


def _poly_program():
    b = ProgramBuilder("poly")
    x = b.input
    half = b.multiply_scalar(b.square(x), 0.5)
    return b.build(b.add_matched(half, x))


def _secret_encodings(context: CkksContext) -> list[bytes]:
    """Every byte encoding of this context's secret that could leak."""
    keys = context.keys
    out = [np.ascontiguousarray(keys.secret.coeffs).tobytes()]
    # The RNS limb image actually used by key operations.  (Not the
    # wire.encode_poly form: its header — degree + moduli table — is
    # shared with every legitimate public poly and would self-collide.)
    poly = keys.secret_poly(context.params.full_basis)
    out.append(np.ascontiguousarray(poly.limbs).tobytes())
    return out


class _CaptureHandler(logging.Handler):
    def __init__(self, sink: list[str]):
        super().__init__()
        self.sink = sink

    def emit(self, record: logging.LogRecord) -> None:
        self.sink.append(self.format(record))


def _run_captured() -> dict[str, object]:
    """One two-tenant e2e run with every observable surface recorded."""
    frames: list[bytes] = []
    logs: list[str] = []
    exceptions: list[str] = []
    secrets: list[bytes] = []

    original_write = wire.write_frame

    def recording_write(writer, kind, payload=b""):
        frames.append(bytes(payload))
        return original_write(writer, kind, payload)

    handler = _CaptureHandler(logs)
    logger = logging.getLogger("repro.serve.server")
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    wire.write_frame = recording_write
    try:

        async def scenario() -> None:
            server = FheServer(offline=OFFLINE)
            await server.start()
            try:
                alice = FheClient("127.0.0.1", server.port, seed=31)
                bob = FheClient("127.0.0.1", server.port, seed=32)
                await asyncio.gather(
                    alice.enroll(36, width=4), bob.enroll(36, width=4)
                )
                assert alice.keys is not None and bob.keys is not None
                secrets.extend(_secret_encodings(alice.keys.context))
                secrets.extend(_secret_encodings(bob.keys.context))
                secrets.extend(
                    _secret_encodings(server.offline.preset(36).context)
                )
                res_a, res_b = await asyncio.gather(
                    alice.submit(_poly_program(), [0.5, -0.25, 0.125, 0.75]),
                    bob.submit(_poly_program(), [0.1, 0.2, 0.3, 0.4]),
                )
                exceptions.append(repr(res_a.meta) + repr(res_b.meta))
                try:
                    await alice.submit(_too_deep(), [0.1])
                except JobRejected as exc:
                    exceptions.append(str(exc) + repr(exc.codes))
                await asyncio.gather(alice.close(), bob.close())
            finally:
                await server.close()

        asyncio.run(scenario())
    finally:
        wire.write_frame = original_write
        logger.removeHandler(handler)

    observable = b"\x00".join(
        frames
        + [line.encode("utf-8", "replace") for line in logs]
        + [text.encode("utf-8", "replace") for text in exceptions]
    )
    assert frames and logs and exceptions
    return {"observable": observable, "secrets": secrets}


@pytest.fixture(scope="module")
def captured():
    return _run_captured()


WINDOW = 48


class TestDynamicNonLeakage:
    def test_no_full_secret_encoding_in_observables(self, captured):
        observable = captured["observable"]
        for secret in captured["secrets"]:
            assert secret not in observable

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_no_secret_byte_window_in_observables(self, captured, data):
        secrets = captured["secrets"]
        observable = captured["observable"]
        which = data.draw(st.integers(0, len(secrets) - 1))
        secret = secrets[which]
        offset = data.draw(st.integers(0, max(0, len(secret) - WINDOW)))
        window = secret[offset : offset + WINDOW]
        # Low-entropy windows (runs of zero coefficients) can collide
        # with unrelated data by chance; identifying windows cannot.
        if sum(1 for b in window if b) < 8:
            return
        assert window not in observable

    def test_log_lines_are_digest_only(self, captured):
        # Every server log line identifies work by id/digest — no raw
        # program bodies, no key material, no payload bytes.
        logs = [
            seg
            for seg in captured["observable"].split(b"\x00")
            if seg.startswith(b"enrolled ") or seg.startswith(b"job ")
            or seg.startswith(b"schedule ")
        ]
        assert logs, "expected server log lines in the capture"
        for line in logs:
            assert b"coeffs" not in line and b"array(" not in line
