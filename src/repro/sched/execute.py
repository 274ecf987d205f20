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

The gate takes no source trace from its caller: it folds ``program``
over :class:`repro.check.admission.ProductFold` at the evaluator's own
parameters (on ``certificate.word_bits``-bit words) from ``ct_in``'s
level and scale — the abstract run admission recorded the certified
trace with — so the certificate describes the run it gates, and a
program that fold refuses (too deep for the chain) is refused.  The
trace is named by the program's digest, so a certificate minted for
any other program — another kind, level, key or constant — fails the
source-digest check by construction.

Execution is then ``program.run(evaluator, ct_in)``: fusion never
reorders surviving ops (the certificate's bisimulation layer proved
it), so running the source program in order computes what the
certified schedule computes; the schedule's order and residency
decisions matter to the accelerator model, not to the software
evaluator.
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
    from repro.check.admission import FoldParams, fold_body
    from repro.check.equiv import verify_certificate

    refusal = f"refusing to execute scheduled trace {scheduled.name!r}: "
    if certificate is None:
        raise CertificateError(refusal + "no equivalence certificate was presented")
    try:
        params = FoldParams.from_params(evaluator.params, certificate.word_bits)
    except ValueError as exc:  # no word of that length holds the chain
        raise CertificateError(refusal + str(exc)) from exc
    report, source = fold_body(program, params, ct_in.level, ct_in.scale)
    gate = verify_certificate(certificate, source, scheduled) if report.ok else report
    if not gate.ok:
        raise CertificateError(refusal + "; ".join(f"{d.code}: {d.message}" for d in gate.errors))
    return program.run(evaluator, ct_in)
