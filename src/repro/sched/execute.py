"""Certificate-gated execution of scheduled traces on the real engine.

This is the bridge the roadmap calls "close the loop": a fused +
scratchpad-scheduled trace driving the actual CKKS evaluator instead
of the performance simulator.  The load-bearing rule is the gate — a
:class:`ScheduledTrace` is a *transformed* program, and this module
refuses to let one near ciphertext until a
:class:`repro.check.equiv.EquivCertificate` proves the transformation
preserved the source program's semantics:

* no certificate -> :class:`CertificateError`, zero evaluator calls;
* a certificate for a *different* source or schedule (digest
  mismatch), or from a different checker version -> same refusal.

The gate takes no source trace from its caller: it records ``program``
over :class:`repro.serve.program.TraceRecorder` at
``build_sharp_setting(certificate.word_bits)`` and checks the
certificate against that (a schedule certified at any other setting is
refused).  The recorded
trace is named by the program's digest, so a certificate minted for
any other program — another kind, level, key or constant — fails the
source-digest check by construction.

Execution is then ``program.run(evaluator, ct_in)`` — the one fold over
the serve IR.  Fusion is a peephole that never reorders surviving ops
(which is what the certificate's bisimulation layer proved), so running
the source program in order computes exactly what the certified
schedule computes; the schedule's own order and residency decisions
matter to the accelerator model, not to the software evaluator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.check.equiv import EquivCertificate
    from repro.ckks.cipher import Ciphertext
    from repro.ckks.ops import Evaluator
    from repro.sched.trace import ScheduledTrace
    from repro.serve.program import EvalProgram

__all__ = ["CertificateError", "execute_scheduled"]


class CertificateError(RuntimeError):
    """A scheduled trace reached the execution gate without a valid
    equivalence certificate.  Raised before any evaluator call."""


def execute_scheduled(
    program: "EvalProgram",
    scheduled: "ScheduledTrace",
    evaluator: "Evaluator",
    ct_in: "Ciphertext",
    certificate: "EquivCertificate | None",
) -> "Ciphertext":
    """Run a certified program on the real evaluator: gate, then fold.

    ``scheduled`` is the fused + allocated schedule of ``program``'s
    source trace.  The certificate is re-verified here — the source is
    re-recorded and both digests re-derived — so a stale or
    transplanted certificate is refused even if the caller believed it
    valid.
    """
    from repro.check.equiv import verify_certificate
    from repro.params.presets import build_sharp_setting
    from repro.serve.program import TraceRecorder

    refusal = f"refusing to execute scheduled trace {scheduled.name!r}: "
    if certificate is None:
        raise CertificateError(refusal + "no equivalence certificate was presented")
    try:
        setting = build_sharp_setting(certificate.word_bits)
        source = TraceRecorder(setting).record(program)
    except ValueError as exc:  # no such word length, or a ProgramError
        raise CertificateError(refusal + str(exc)) from exc
    gate = verify_certificate(certificate, source, scheduled)
    if not gate.ok:
        raise CertificateError(refusal + "; ".join(d.message for d in gate.errors))
    return program.run(evaluator, ct_in)
