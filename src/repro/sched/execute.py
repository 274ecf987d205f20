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

A certificate speaks about traces, so the gate is followed by a *bind*
step: ``program`` must be the program ``source`` was lowered from, op
for op (trace kind, ``dst``, ``srcs``, key identity, whether a level is
spent).  A certificate minted for one program therefore cannot admit
another that merely reuses its value names.

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
    from repro.hw.isa import Trace
    from repro.sched.trace import ScheduledTrace
    from repro.serve.program import EvalProgram

__all__ = ["CertificateError", "execute_scheduled"]


class CertificateError(RuntimeError):
    """A scheduled trace reached the execution gate without a valid
    equivalence certificate.  Raised before any evaluator call."""


def execute_scheduled(
    program: "EvalProgram",
    source: "Trace",
    scheduled: "ScheduledTrace",
    evaluator: "Evaluator",
    ct_in: "Ciphertext",
    certificate: "EquivCertificate | None",
) -> "Ciphertext":
    """Run a certified program on the real evaluator: gate, bind, fold.

    ``source`` is the unfused lowering of ``program`` (the artifact the
    certificate's source digest binds to); ``scheduled`` is its fused +
    allocated schedule.  The certificate is re-verified here — cheap
    digest re-derivation — so a stale or transplanted certificate is
    refused even if the caller believed it valid.
    """
    from repro.check.equiv import verify_certificate

    if certificate is None:
        raise CertificateError(
            f"refusing to execute scheduled trace {scheduled.name!r}: "
            "no equivalence certificate was presented"
        )
    gate = verify_certificate(certificate, source, scheduled)
    if not gate.ok:
        raise CertificateError(
            f"refusing to execute scheduled trace {scheduled.name!r}: "
            + "; ".join(d.message for d in gate.errors)
        )

    if not program.lowers_to(source):
        raise CertificateError(
            f"refusing to execute program {program.name!r}: it is not the "
            f"program the certified source trace {source.name!r} was lowered from"
        )
    return program.run(evaluator, ct_in)
