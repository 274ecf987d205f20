"""SIMD slot-packing: many tenants' requests in one shared ciphertext.

The packing scheme (documented in DESIGN.md):

* Jobs are batchable together only when they share a *batch key* —
  ``(word_bits, program digest)`` — because one SIMD program runs once
  over the packed vector and every lane must want the same circuit at
  the same parameters.
* Each job owns a contiguous lane block ``[offset, offset + width)``;
  offsets are assigned greedily in submission order.  Tenants encrypt
  their ``width`` values in slots ``[0, width)`` (the rest zero), so
  ingress is ``switch-to-batch-key, rotate by -offset, HADD`` into the
  accumulating shared ciphertext — no masking needed on the way in.
* Programs that rotate or conjugate cross lane boundaries, which would
  leak one tenant's slots into another's; such jobs run *exclusively*
  (a batch of one).
* Egress re-isolates each lane: multiply by the one-hot lane mask
  (burns one level — the admission wrapper charges for it), rotate by
  ``+offset`` back to the tenant's frame, then switch to the tenant's
  key via its ``evk_out``.

The admission wrapper :func:`service_wrapped` makes the static passes
see the same pipeline the batcher executes: a key switch on the way
in, the tenant's program (:meth:`EvalProgram.run` over the pass's own
domain), then mask-multiply and key switch on the way out.  A program
that only balances at the service's full level budget with nothing to
spare is therefore rejected up front.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Sequence, TypeVar

from repro.serve.program import EvalProgram

if TYPE_CHECKING:
    from repro.ckks.cipher import Ciphertext
    from repro.serve.session import TenantSession

__all__ = ["BatchJob", "BatchPlan", "plan_batches", "service_wrapped"]

T = TypeVar("T")


@dataclass
class BatchJob:
    """One admitted job waiting in (or placed into) a batch."""

    job_id: str
    session: "TenantSession"
    program: EvalProgram
    ciphertext: "Ciphertext"
    offset: int = -1  # lane offset; assigned by plan_batches

    @property
    def width(self) -> int:
        return self.session.width


@dataclass
class BatchPlan:
    """A group of jobs that will share one packed execution."""

    word_bits: int
    program: EvalProgram
    jobs: list[BatchJob]
    slots: int

    @property
    def occupancy(self) -> float:
        """Fraction of SIMD lanes doing useful work."""
        return sum(job.width for job in self.jobs) / self.slots

    @property
    def size(self) -> int:
        return len(self.jobs)


def plan_batches(
    pending: Sequence[tuple[int, BatchJob]],
    slots: int,
    max_batch: int,
) -> list[BatchPlan]:
    """Greedily pack pending ``(word_bits, job)`` pairs into batch plans.

    Jobs group by ``(word_bits, program digest)`` in arrival order; a
    group splits whenever the next job would overflow the slot budget
    or the ``max_batch`` cap.  Rotation-using programs always get a
    batch of exactly one.
    """
    groups: dict[tuple[int, str], list[BatchJob]] = {}
    order: list[tuple[int, str]] = []
    for word_bits, job in pending:
        key = (word_bits, job.program.digest())
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(job)

    plans: list[BatchPlan] = []
    for key in order:
        word_bits, _ = key
        jobs = groups[key]
        exclusive = jobs[0].program.uses_rotation
        current: list[BatchJob] = []
        offset = 0
        for job in jobs:
            overflow = offset + job.width > slots or len(current) >= max_batch
            if current and (exclusive or overflow):
                plans.append(BatchPlan(word_bits, current[0].program, current, slots))
                current, offset = [], 0
            if job.width > slots:
                raise ValueError(
                    f"job {job.job_id} wants {job.width} lanes; "
                    f"the ring only has {slots}"
                )
            job.offset = offset
            offset += job.width
            current.append(job)
        if current:
            plans.append(BatchPlan(word_bits, current[0].program, current, slots))
    return plans


def service_wrapped(program: EvalProgram, domain: Any, x: T) -> T:
    """Fold the program as the service actually runs it, for admission.

    Wraps the tenant's circuit in the batching pipeline's fixed
    overhead so whichever ``domain`` is folded charges for it:

    * ingress ``rotate`` — stands in for the ingress key switch and
      lane placement (one key-switch noise term, no level);
    * egress ``consume_level`` — the egress lane mask is a plaintext
      multiply and burns one level, so any program that ends at level 0
      fails admission with ``CKKS-LEVEL-UNDERFLOW`` instead of failing
      at egress time;
    * egress ``rotate`` — the rotate-back plus egress key switch.
    """
    served = program.run(domain, domain.rotate(x, 1))
    return domain.rotate(domain.consume_level(served), 1)
