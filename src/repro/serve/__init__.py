"""Multi-tenant FHE-as-a-service with statically-verified admission.

The service splits the paper's stack into the classic two-phase shape:

* **offline** (:mod:`repro.serve.offline`) — parameter negotiation
  against the word-length catalogue, per-tenant key generation, and the
  ceremony that bridges each tenant to the preset's shared batch secret:
  tenants encrypt *to* the batch public key, and one server-side
  re-encryption key per session brings results back under the tenant's;
* **online** (:mod:`repro.serve.server`) — an asyncio request queue
  where every submitted program is *statically verified* by
  :mod:`repro.check` before it may touch the engine, admitted jobs are
  SIMD slot-packed into shared ciphertexts
  (:mod:`repro.serve.batching`), scheduled, certified and run through
  the gate of :func:`repro.sched.execute.execute_scheduled`, and
  returned to each tenant re-encrypted under its own key.

Programs travel as the SSA IR of :mod:`repro.serve.program`; all bytes
on the wire use the versioned frames of :mod:`repro.serve.wire`.

Run ``python -m repro.serve --smoke`` for a self-contained two-tenant
demo plus one job at every word length sold (also the CI smoke gate).
"""

from repro.serve.batching import BatchJob, BatchPlan, plan_batches, service_wrapped
from repro.serve.client import FheClient, JobRejected, JobResult
from repro.serve.offline import ServeOffline, ServePreset, TenantKeys
from repro.serve.program import EvalProgram, ProgramBuilder, ProgramError, ProgramOp
from repro.serve.server import FheServer, ServerMetrics
from repro.serve.session import TenantSession
from repro.serve.wire import Kind, WireError

__all__ = [
    "BatchJob",
    "BatchPlan",
    "plan_batches",
    "service_wrapped",
    "FheClient",
    "JobRejected",
    "JobResult",
    "ServeOffline",
    "ServePreset",
    "TenantKeys",
    "EvalProgram",
    "ProgramBuilder",
    "ProgramError",
    "ProgramOp",
    "FheServer",
    "ServerMetrics",
    "TenantSession",
    "Kind",
    "WireError",
]
