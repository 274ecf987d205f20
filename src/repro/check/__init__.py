"""Static analysis for the FHE stack (``python -m repro.check``).

Checkers, none of which execute any encryption:

* :mod:`repro.check.trace_check` — SSA well-formedness, modulus-chain
  bookkeeping and rescale legality over HE-op traces, plus structural
  and replay verification of recorded schedules;
* :mod:`repro.check.ckks_check` — abstract ``(level, scale)``
  interpretation of evaluator call sequences;
* :mod:`repro.check.bounds` — exact worst-case magnitude proofs for
  the lazy-reduction kernel and butterfly chains;
* :mod:`repro.check.noise_check` — abstract interpretation over the
  noise domain (worst-case bound + average-case estimate, drift from
  the relative rescale jitter), whose ``NoiseParams`` extends the one
  calibrated :class:`repro.ckks.calibration.NoiseModel` the sampling
  domain injects from — the bounding domain of the Table 2 programs;
* :mod:`repro.check.wordlen_audit` — the word-length robustness sweep
  that statically re-derives Table 2 / Fig. 1, and the one statement of
  Table 2's published precision column;
* :mod:`repro.check.secflow` — whole-stack information-flow
  verification: an interprocedural taint analysis proving secret key
  material, sampling state, and pre-encryption plaintexts cannot reach
  a wire frame, log line, exception, repr, metrics counter, or JSON
  artifact, with every declassification point allow-listed *and*
  re-checked against the RLWE masking discipline.

With :mod:`repro.check.equiv` (translation validation of schedules:
dataflow, levels and residency; a certificate proves equivalence, and
the precision floors stay with ``noise_check`` and admission's fold)
they run as the six passes of :mod:`repro.check.cli` — ``bounds``,
``traces``, ``ckks``, ``noise``, ``equiv``, ``secflow`` — and
:mod:`repro.check.mutations` keeps each pass honest: one builder per
pass of seeded violations (including injected secret leaks) that must
all be caught.
"""

from repro.check.admission import (
    AdmissionVerdict,
    FoldParams,
    admit_program,
    certify_for_execution,
)
from repro.check.bounds import (
    BoundCertificate,
    BoundProof,
    BoundStep,
    certify_report,
    certify_word_bits,
    max_safe_word_bits,
)
from repro.check.ckks_check import (
    AbstractCiphertext,
    AbstractParams,
    SymbolicEvaluator,
    check_program,
)
from repro.check.diagnostics import CheckReport, Diagnostic, Severity
from repro.check.equiv import (
    CHECKER_VERSION,
    EquivCertificate,
    EquivError,
    certify_schedule,
    check_equivalence,
    verify_certificate,
)
from repro.check.mutations import (
    MutationCase,
    MutationResult,
    secflow_cases,
)
from repro.check.secflow import (
    check_default as secflow_check_default,
    check_source as secflow_check_source,
    check_sources as secflow_check_sources,
)
from repro.check.noise_check import (
    NoiseCheckEvaluator,
    NoiseParams,
    NoiseState,
    NoiseSummary,
    PolySpec,
    SignSpec,
    check_noise_program,
)
from repro.check.trace_check import (
    ChainRegion,
    chain_regions,
    verify_schedule,
    verify_trace,
)
from repro.check.wordlen_audit import (
    AuditEntry,
    AuditResult,
    run_audit,
    scale_audit,
)

__all__ = [
    "AdmissionVerdict",
    "FoldParams",
    "admit_program",
    "certify_for_execution",
    "CHECKER_VERSION",
    "EquivCertificate",
    "EquivError",
    "certify_schedule",
    "check_equivalence",
    "verify_certificate",
    "BoundCertificate",
    "BoundProof",
    "BoundStep",
    "certify_report",
    "certify_word_bits",
    "max_safe_word_bits",
    "AbstractCiphertext",
    "AbstractParams",
    "SymbolicEvaluator",
    "check_program",
    "CheckReport",
    "Diagnostic",
    "Severity",
    "MutationCase",
    "MutationResult",
    "secflow_cases",
    "secflow_check_default",
    "secflow_check_source",
    "secflow_check_sources",
    "ChainRegion",
    "chain_regions",
    "verify_schedule",
    "verify_trace",
    "NoiseCheckEvaluator",
    "NoiseParams",
    "NoiseState",
    "NoiseSummary",
    "PolySpec",
    "SignSpec",
    "check_noise_program",
    "AuditEntry",
    "AuditResult",
    "run_audit",
    "scale_audit",
]
