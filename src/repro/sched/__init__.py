"""Trace-level scheduling compiler (paper S5's software techniques).

The pipeline between workload traces and the performance simulator:

* :mod:`repro.sched.liveness` — SSA live ranges and exact per-op
  working sets (mechanistic Fig. 5(b));
* :mod:`repro.sched.fusion` — operation fusion (PMADD formation,
  trailing-rescale folding);
* :mod:`repro.sched.alloc` — scratchpad allocation with Belady (MIN)
  or LRU eviction over a unified temporary + evk capacity budget, one
  function from a trace and its live ranges to its events;
* :mod:`repro.sched.events` — :class:`ScheduleEvent`, the allocator's
  decisions for one op, which benchmarks and tests observe;
* :mod:`repro.sched.trace` — :class:`ScheduledTrace`, the one schedule
  record ``(trace, policy, capacity_bytes, prng_evk, events)`` that
  ``Simulator.run`` prices and :mod:`repro.check.equiv` certifies.
"""

from repro.sched.alloc import POLICIES, allocate
from repro.sched.events import ScheduleEvent, signature
from repro.sched.fusion import FusionReport, fuse_trace
from repro.sched.liveness import LiveRange, Liveness, analyze_liveness
from repro.sched.execute import CertificateError, execute_scheduled
from repro.sched.trace import ScheduledTrace, schedule_trace, trace_digest

__all__ = [
    "CertificateError",
    "execute_scheduled",
    "trace_digest",
    "POLICIES",
    "allocate",
    "ScheduleEvent",
    "signature",
    "FusionReport",
    "fuse_trace",
    "LiveRange",
    "Liveness",
    "analyze_liveness",
    "ScheduledTrace",
    "schedule_trace",
]
