"""SIMD slot-packing: many tenants' requests in one shared ciphertext.

The packing scheme (documented in DESIGN.md):

* Every session owns fixed *home lanes* ``[lane_offset, lane_offset +
  width)``, assigned at enrollment.  The tenant encrypts its values
  there *to the batch public key* and leaves every other slot zero, so
  ingress is ``drop the limbs no op will use, HADD`` into the shared
  ciphertext — no key switch, no rotation, no masking on the way in.
  The zero slots
  are an *integrity* assumption (a tenant that breaks it corrupts its
  batch-mates' inputs), not a confidentiality one: egress masks every
  lane.
* Jobs are batchable together only when they share a *batch key* —
  ``(word_bits, program digest)`` — because one SIMD program runs once
  over the packed vector, and only when their home lanes are disjoint
  (lanes are reused once more sessions enrolled than the ring holds).
* Programs that rotate or conjugate cross lane boundaries, which would
  leak one tenant's slots into another's; such jobs run *exclusively*
  (a batch of one).
* Egress re-isolates each lane: multiply by the one-hot lane mask
  (burns one level — the admission wrapper charges for it), then switch
  to the tenant's key via its ``evk_out``.

The admission wrapper :func:`service_wrapped` is that pipeline, folded
over admission's abstract domain: level trim, the tenant's program
(:meth:`EvalProgram.run`), mask-multiply, one key switch.  A program
that only balances at the service's full level
budget with nothing to spare is therefore rejected up front.
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

    @property
    def offset(self) -> int:
        return self.session.lane_offset

    @property
    def width(self) -> int:
        return self.session.width

    def overlaps(self, other: "BatchJob") -> bool:
        return (
            self.offset < other.offset + other.width
            and other.offset < self.offset + self.width
        )


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
    """Pack pending ``(word_bits, job)`` pairs into batch plans.

    Jobs group by ``(word_bits, program digest)`` in arrival order, each
    at its session's home lanes; a group splits whenever the next job's
    lanes overlap one already placed or the ``max_batch`` cap is hit.
    Rotation-using programs always get a batch of exactly one.
    """
    groups: dict[tuple[int, str], list[BatchJob]] = {}
    for word_bits, job in pending:
        groups.setdefault((word_bits, job.program.digest()), []).append(job)

    plans: list[BatchPlan] = []
    for (word_bits, _), jobs in groups.items():
        exclusive = jobs[0].program.uses_rotation
        current: list[BatchJob] = []
        for job in jobs:
            split = exclusive or len(current) >= max_batch or any(
                job.overlaps(placed) for placed in current
            )
            if current and split:
                plans.append(BatchPlan(word_bits, current[0].program, current, slots))
                current = []
            current.append(job)
        plans.append(BatchPlan(word_bits, current[0].program, current, slots))
    return plans


def service_wrapped(program: EvalProgram, domain: Any, x: T, level: int) -> T:
    """Fold the program as the service actually runs it, for admission.

    Wraps the tenant's circuit in the batching pipeline's fixed overhead
    so the fold charges for it: the ingress ``drop_to_level`` trims the
    fresh ciphertext to ``level`` (the lowest the pipeline balances at;
    packing is a HADD under the batch key, costing neither a level nor
    key-switch noise); the egress ``consume_level`` is the lane-mask
    multiply, so a program ending at level 0 fails admission with
    ``CKKS-LEVEL-UNDERFLOW`` instead of at egress; the egress ``rotate``
    stands in for the egress key switch (one key-switch noise term).
    """
    served = program.run(domain, domain.drop_to_level(x, level))
    return domain.rotate(domain.consume_level(served), 1)
