"""Translation validation: fused + scheduled traces against their source.

The scheduler (:mod:`repro.sched`) transforms programs — PMADD/rescale
fusion rewrites the op list, Belady allocation decides residency — and
until now nothing proved the transformed artifact still *computes the
source program*.  This pass closes that gap with a static equivalence
check; neither trace is executed.  Four layers, each with its own
``EQV-*`` diagnostic vocabulary:

* **Value-graph bisimulation modulo fusion** (``EQV-DAG`` /
  ``EQV-OUTPUT``) — both traces are canonicalized into a message-domain
  expression DAG in which a ``PMADD`` node expands to its unfused
  ``PMULT`` + accumulation semantics, standalone rescales are erased
  (they are message-identities; their *level* effect is checked
  separately), and additive accumulations are flattened modulo
  associativity/commutativity with their repeat counts merged.  Every
  SSA value surviving in the scheduled trace must denote the identical
  canonical expression as in the source, and the two outputs must
  coincide.  Reordered dependent ops, dropped or duplicated ops,
  swapped operands, wrong evaluation keys and count tampering all
  surface here.
* **Symbolic (level, scale) preservation** (``EQV-LEVEL``) — each
  matched value's post-rescale chain position (``result_limbs``) must
  be identical in both traces, so fusion may move a rescale *into* an
  op but never change the net drop along any path; region alignment of
  every fused rescale is enforced by running the scheduled trace
  through :func:`repro.check.trace_check.verify_trace`'s chain rules.
* **Noise-envelope preservation** (``EQV-NOISE``) — both traces are
  abstract-interpreted op-by-op with the transfer functions of
  :class:`repro.check.noise_check.NoiseCheckEvaluator` (the same
  calibration the admission pass trusts); the scheduled trace's proven
  worst-case precision floor must be no weaker than the source's.
* **Scratchpad-safety dataflow** (``EQV-RESIDENCY`` / ``EQV-EVK`` /
  ``EQV-SPILL``) — the recorded :class:`~repro.sched.events.ScheduleEvent`
  list is replayed from its *decisions alone* (fetch and eviction lists),
  independent of any eviction policy: no value may be read after an
  eviction without a refill, the evaluation key must be resident (or
  legitimately streamed) at every key-switch, every dirty eviction with
  a future use must pair with a writeback and its refetch with spill
  traffic, and the derived hit/miss/byte/occupancy accounting must
  reproduce the recorded events.

A clean check issues a serializable :class:`EquivCertificate` binding
the source trace digest, the schedule digest, the proven floors and the
checker version.  :func:`verify_certificate` is the gate the
real-engine execution path (:mod:`repro.sched.execute`,
``repro.serve``) demands before a scheduled trace may drive the
evaluator.

What is *not* checked: the program→trace recording itself (the source
trace is the trusted reference), plaintext constant values below the
trace name (the trace IR carries operand structure, not scalar
payloads; a recorded serve trace binds them only through the program
digest in its name), and additive ``sub``-vs-``add`` polarity (both
record as ``HADD`` in the trace IR).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.check.diagnostics import CheckReport
from repro.check.noise_check import NoiseCheckEvaluator, NoiseParams, NoiseState
from repro.check.trace_check import check_schedule
from repro.hw.isa import OpKind, Trace
from repro.params.presets import WordLengthSetting
from repro.sched.events import Signature
from repro.sched.liveness import INFINITY, Liveness
from repro.sched.trace import ScheduledTrace, schedule_digest, trace_digest

__all__ = [
    "CHECKER_VERSION",
    "EquivCertificate",
    "EquivError",
    "check_equivalence",
    "certify_schedule",
    "verify_certificate",
]

CHECKER_VERSION = "equiv-1"

# The scheduled trace's proven floor may sit this far below the
# source's before the check fails.  Both walks are deterministic over
# the same calibration, so this only absorbs float bookkeeping noise.
FLOOR_TOLERANCE_BITS = 0.01

_BYTES_EPS = 0.5


class EquivError(ValueError):
    """Raised when certification is demanded for a non-equivalent pair."""

    def __init__(self, report: CheckReport) -> None:
        self.report = report
        super().__init__(
            "scheduled trace is not provably equivalent to its source:\n"
            + report.render()
        )


# ---------------------------------------------------------------------------
# Canonical message-domain expression DAG
# ---------------------------------------------------------------------------

_NodeKey = tuple[object, ...]


class _ExprBuilder:
    """Hash-consed canonical expressions for one trace's SSA values.

    Node ids are interned per *builder pair* (share one builder across
    the two traces being compared) so structural equality is id
    equality, and deep DAGs never trigger recursive comparisons.
    """

    def __init__(self) -> None:
        self._intern: dict[_NodeKey, int] = {}
        self._acc: dict[int, tuple[float, tuple[int, ...]]] = {}

    def _node(self, key: _NodeKey) -> int:
        node = self._intern.get(key)
        if node is None:
            node = len(self._intern)
            self._intern[key] = node
        return node

    def leaf(self, value: str) -> int:
        return self._node(("leaf", value))

    def op(
        self,
        kind: str,
        key_id: str | None,
        count: float,
        children: tuple[int, ...],
        commutative: bool = False,
    ) -> int:
        if commutative:
            children = tuple(sorted(children))
        return self._node(("op", kind, key_id, round(count, 9), children))

    def acc(self, count: float, children: tuple[int, ...]) -> int:
        """An additive accumulation, flattened modulo associativity.

        Nested accumulations merge: their repeat counts add and their
        operand multisets union — the reading under which PMADD
        formation's count split (one accumulation rides the fused op,
        the rest stay HAdds) is an identity.
        """
        total = count
        flat: list[int] = []
        for child in children:
            nested = self._acc.get(child)
            if nested is not None:
                total += nested[0]
                flat.extend(nested[1])
            else:
                flat.append(child)
        ordered = tuple(sorted(flat))
        node = self._node(("acc", round(total, 9), ordered))
        self._acc.setdefault(node, (total, ordered))
        return node


def _message_exprs(trace: Trace, builder: _ExprBuilder) -> dict[str, int]:
    """Canonical expression id for every SSA value of ``trace``."""
    env: dict[str, int] = {}

    def get(value: str) -> int:
        node = env.get(value)
        if node is None:
            node = builder.leaf(value)  # external input
            env[value] = node
        return node

    for op in trace.ops:
        srcs = tuple(get(s) for s in op.srcs)
        if op.kind is OpKind.RESCALE:
            # Message identity; the level effect is checked separately.
            node = srcs[0]
        elif op.kind is OpKind.HADD:
            node = builder.acc(op.count, srcs)
        elif op.kind in (OpKind.PMULT, OpKind.PMADD):
            # The defining equation of PMADD formation:
            #   PMADD(c, s0..sn) == HADD_1(PMULT(c, s0), s1..sn)
            # and a multi-src PMULT absorbs its trailing operands
            # without spending an accumulation pass — so both expand to
            # a plaintext multiply of the first operand plus an
            # accumulation over the rest, with pass count 1 vs 0.
            mul = builder.op(OpKind.PMULT.value, op.key_id, op.count, srcs[:1])
            passes = 1.0 if op.kind is OpKind.PMADD else 0.0
            node = builder.acc(passes, (mul,) + srcs[1:])
        elif op.kind is OpKind.HMULT:
            node = builder.op(
                op.kind.value, op.key_id, op.count, srcs, commutative=True
            )
        else:
            node = builder.op(op.kind.value, op.key_id, op.count, srcs)
        if op.dst is not None:
            env[op.dst] = node
    return env


def _value_limbs(trace: Trace) -> dict[str, int]:
    """Post-rescale chain position of every value (externals at first use)."""
    limbs: dict[str, int] = {}
    for op in trace.ops:
        for src in op.srcs:
            limbs.setdefault(src, op.limbs)
        if op.dst is not None:
            limbs[op.dst] = op.result_limbs
    return limbs


# ---------------------------------------------------------------------------
# Noise-envelope walk (reusing the admission pass's transfer functions)
# ---------------------------------------------------------------------------


def _trace_noise_floor(trace: Trace, setting: WordLengthSetting) -> float:
    """Proven precision floor of one trace's noise walk.

    Each HE op maps onto the :class:`NoiseCheckEvaluator` transfer
    function of the evaluator call it lowers: ``HADD`` accumulates,
    ``PMULT``/``PMADD`` charge a plaintext multiply (the fused op adds
    its accumulands afterwards), ``HMULT`` the full cross-noise +
    key-switch product, rotations one key switch, ``RESCALE`` the
    relative jitter.  ``MOD_RAISE`` and ``DS_ACCUM`` are
    noise-identities here — the bootstrap noise lives in the EvalMod
    multiplies the trace already spells out.  Repeat counts describe
    parallel identical ops and do not compound per-value noise.
    """
    params = NoiseParams(
        scale_bits=setting.normal_scale_bits,
        boot_scale_bits=setting.boot_scale_bits,
        word_bits=setting.word_bits,
    )
    ev = NoiseCheckEvaluator(params, CheckReport("noise", trace.name))
    env: dict[str, NoiseState] = {}

    def get(value: str) -> NoiseState:
        state = env.get(value)
        if state is None:
            state = ev.encrypt(mag=1.0)
            env[value] = state
        return state

    for op in trace.ops:
        operands = [get(s) for s in op.srcs]
        first = operands[0]
        if op.kind is OpKind.HADD:
            out = first
            for other in operands[1:]:
                out = ev.add(out, other)
        elif op.kind is OpKind.PMULT:
            out = ev.multiply_plain(first, pt_mag=1.0)
        elif op.kind is OpKind.PMADD:
            out = ev.multiply_plain(first, pt_mag=1.0)
            for other in operands[1:]:
                out = ev.add(out, other)
        elif op.kind is OpKind.HMULT:
            out = ev.multiply(first, operands[1] if len(operands) > 1 else first)
        elif op.kind in (OpKind.HROT, OpKind.CONJ):
            out = ev.rotate(first)
        elif op.kind is OpKind.RESCALE:
            out = ev.rescale(first)
        else:  # MOD_RAISE / DS_ACCUM: noise-identities in this walk
            out = first
        if op.dst is not None:
            env[op.dst] = out
    return ev.summary().proven_floor_bits


# ---------------------------------------------------------------------------
# Scratchpad-safety dataflow over the recorded schedule events
# ---------------------------------------------------------------------------


def _verify_dataflow(
    sched: ScheduledTrace, live: Liveness, report: CheckReport
) -> None:
    """Replay the recorded decisions, policy-independently.

    Unlike the deterministic-replay check (which re-runs the allocator
    and therefore trusts its policy code), this walk takes the recorded
    fetch and eviction lists as ground truth and derives everything
    else — residency, dirtiness, spill pairing, traffic bytes and
    occupancy — demanding consistency with the rest of each event.
    Values are sized by ``live``, the liveness derived from the trace.
    """
    ops = sched.trace.ops
    if len(sched.events) != len(ops):
        return  # SCH-COUNT already reported by the structural check

    capacity = sched.capacity_bytes
    resident: dict[str, float] = {}
    dirty: set[str] = set()
    spilled: set[str] = set()
    streamed: set[str] = set()
    occupancy = 0.0

    for i, (op, event) in enumerate(zip(ops, sched.events)):
        hits = 0
        misses = 0
        fetch_bytes = 0.0
        writeback_bytes = 0.0
        spill_bytes = 0.0

        # 1. Apply the recorded evictions.  The allocator pins the op's
        # own working set, so an eviction never touches this op's
        # operands and applying them up front is order-independent.  A
        # victim that is dirty *now* and still has a future use pays a
        # writeback and becomes spilled; a clean re-eviction is free.
        for victim in event.evictions:
            size = resident.pop(victim, None)
            if size is None:
                report.error(
                    "EQV-SPILL",
                    f"recorded eviction of {victim!r}, which is not "
                    "on-chip at this point",
                    op_index=i,
                    value=victim,
                )
                continue
            occupancy -= size
            if victim in dirty and live.range_of(victim).next_use(i) != INFINITY:
                spilled.add(victim)
                writeback_bytes += size
                spill_bytes += size
            dirty.discard(victim)

        # 2. Operand residency: every read must be a hit, a recorded
        # refill, or a legitimate stream (value wider than the whole
        # scratchpad).
        refills = list(event.fetched)
        srcs = dict.fromkeys(op.srcs)
        needed = [(src, live.ranges[src].size_bytes) for src in srcs]
        key = None if op.key_id is None else f"evk:{op.key_id}"
        if key is not None:
            needed.append((key, live.evk_ranges[key].size_bytes))

        for value, size in needed:
            if value in resident:
                hits += 1
                continue
            misses += 1
            fetch_bytes += size
            if value in streamed:
                continue  # re-streamed on every use, no refill entry
            if value in refills:
                refills.remove(value)
            else:
                code = "EQV-EVK" if value.startswith("evk:") else "EQV-RESIDENCY"
                what = (
                    "key switch runs with its evaluation key off-chip"
                    if value.startswith("evk:")
                    else "value is read after eviction without a recorded refill"
                )
                report.error(code, what, op_index=i, value=value)
            if value in spilled:
                spill_bytes += size  # the fill half of a spill pair
            if size > capacity:
                streamed.add(value)
            else:
                resident[value] = size
                occupancy += size
        for value in refills:
            report.error(
                "EQV-SPILL",
                f"recorded refill of {value!r}, which this op never reads",
                op_index=i,
                value=value,
            )

        # 3. Define the result on-chip (or stream it, spilling).
        dst = op.dst
        if dst is not None:
            dsize = live.ranges[dst].size_bytes
            if dsize > capacity:
                streamed.add(dst)
                spilled.add(dst)
                writeback_bytes += dsize
                spill_bytes += dsize
            else:
                resident[dst] = dsize
                occupancy += dsize
                dirty.add(dst)

        # 4. Retire values whose last use just passed (both policies do).
        retire = [*srcs] + ([dst] if dst is not None else [])
        for value in retire:
            r = live.ranges.get(value)
            if r is not None and r.last_use <= i and value in resident:
                occupancy -= resident.pop(value)
                dirty.discard(value)
        if key is not None and live.evk_ranges[key].last_use <= i and key in resident:
            occupancy -= resident.pop(key)

        # 5. The derived accounting must reproduce the recorded event.
        checks: tuple[tuple[str, float, float], ...] = (
            ("hits", float(hits), float(event.hits)),
            ("misses", float(misses), float(event.misses)),
            ("fetch_bytes", fetch_bytes, event.fetch_bytes),
            ("writeback_bytes", writeback_bytes, event.writeback_bytes),
            ("spill_bytes", spill_bytes, event.spill_bytes),
            ("occupancy_bytes", occupancy, event.occupancy_bytes),
            ("live_values", float(len(resident)), float(event.live_values)),
        )
        for label, derived, recorded in checks:
            if abs(derived - recorded) > _BYTES_EPS:
                report.error(
                    "EQV-SPILL",
                    f"{label} derived from the recorded decisions is "
                    f"{derived:.1f} but the event claims {recorded:.1f}",
                    op_index=i,
                )


# ---------------------------------------------------------------------------
# The equivalence check
# ---------------------------------------------------------------------------


def check_equivalence(
    source: Trace, sched: ScheduledTrace, setting: WordLengthSetting
) -> CheckReport:
    """Prove the scheduled trace computes the source program.

    Layered: structural/chain verification of both artifacts (the
    ``TRC-*``/``SCH-*`` rules), value-graph bisimulation modulo fusion,
    per-value level preservation, noise-floor preservation, and the
    policy-independent scratchpad dataflow over the recorded events.
    """
    return _check(source, sched, setting)[0]


def _check(
    source: Trace, sched: ScheduledTrace, setting: WordLengthSetting
) -> tuple[CheckReport, tuple[float, float] | None, Signature | None]:
    """:func:`check_equivalence`'s report, the (source, scheduled) proven
    floors if it passed, and the recorded signature: what a certificate binds."""
    report = CheckReport("equiv", f"{source.name} -> {sched.name}")
    schedule_report, live, signature = check_schedule(sched, setting)
    report.merge(schedule_report)
    if not source.annotated:
        report.error(
            "TRC-UNANNOTATED",
            "source trace lacks SSA annotations; equivalence needs dataflow",
        )
        return report, None, signature
    if source.ops and sched.trace.ops:
        if live is not None:
            _verify_dataflow(sched, live, report)
        _check_values(source, sched.trace, report)
    elif source.ops or sched.trace.ops:  # fail closed: one side computes nothing
        report.error(
            "EQV-OUTPUT",
            f"source has {len(source.ops)} ops but the scheduled trace "
            f"has {len(sched.trace.ops)}: one side has no output",
        )
    if not report.ok:
        return report, None, signature

    # -- noise-envelope preservation ----------------------------------------
    src_floor = _trace_noise_floor(source, setting)
    new_floor = _trace_noise_floor(sched.trace, setting)
    if new_floor < src_floor - FLOOR_TOLERANCE_BITS:
        report.error(
            "EQV-NOISE",
            f"scheduled trace's proven floor ({new_floor:.2f} bits) "
            f"is weaker than the source's ({src_floor:.2f} bits)",
        )
    return report, (src_floor, new_floor), signature


def _check_values(source: Trace, scheduled: Trace, report: CheckReport) -> None:
    """Value-graph bisimulation and per-value level preservation."""
    builder = _ExprBuilder()
    src_exprs = _message_exprs(source, builder)
    new_exprs = _message_exprs(scheduled, builder)
    src_defined = {op.dst for op in source.ops if op.dst is not None}
    dag_clean = True
    for i, op in enumerate(scheduled.ops):
        dst = op.dst
        if dst is None or dst not in src_defined:
            continue  # fusion-fresh intermediates match via their consumers
        if new_exprs[dst] != src_exprs[dst]:
            dag_clean = False
            report.error(
                "EQV-DAG",
                "scheduled trace computes a different expression for "
                "this value than the source program",
                op_index=i,
                value=dst,
            )
    src_out = source.ops[-1].dst
    new_out = scheduled.ops[-1].dst
    if src_out is not None and new_out is not None:
        if src_exprs.get(src_out) != new_exprs.get(new_out):
            if dag_clean:  # don't bury the root cause twice
                report.error(
                    "EQV-OUTPUT",
                    f"output {new_out!r} does not denote the source "
                    f"output {src_out!r}",
                    op_index=len(scheduled.ops) - 1,
                    value=new_out,
                )

    # -- symbolic level preservation ----------------------------------------
    src_limbs = _value_limbs(source)
    new_limbs = _value_limbs(scheduled)
    for i, op in enumerate(scheduled.ops):
        dst = op.dst
        if dst is None or dst not in src_limbs or dst not in src_defined:
            continue
        if new_limbs[dst] != src_limbs[dst]:
            report.error(
                "EQV-LEVEL",
                f"value lands at {new_limbs[dst]} limbs but the source "
                f"program puts it at {src_limbs[dst]} — a fused rescale "
                "changed the net drop",
                op_index=i,
                value=dst,
            )


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivCertificate:
    """A serializable witness that one schedule passed :func:`check_equivalence`.

    The certificate binds content digests of both artifacts, so it is
    only meaningful for the exact (source, schedule) pair it was issued
    for — :func:`verify_certificate` re-derives the digests and rejects
    any drift, and a checker-version bump invalidates old certificates.
    """

    source_digest: str
    schedule_digest: str
    word_bits: int
    policy: str
    capacity_bytes: float
    source_floor_bits: float
    scheduled_floor_bits: float
    checker_version: str = CHECKER_VERSION

    def to_dict(self) -> dict[str, object]:
        return {
            "source_digest": self.source_digest,
            "schedule_digest": self.schedule_digest,
            "word_bits": self.word_bits,
            "policy": self.policy,
            "capacity_bytes": self.capacity_bytes,
            "source_floor_bits": self.source_floor_bits,
            "scheduled_floor_bits": self.scheduled_floor_bits,
            "checker_version": self.checker_version,
        }


def certify_schedule(
    source: Trace, sched: ScheduledTrace, setting: WordLengthSetting
) -> EquivCertificate:
    """Run the equivalence check and mint a certificate, or raise.

    A certificate exists *only* for pairs that passed — a failing check
    raises :class:`EquivError` carrying the full report, so no caller
    can accidentally treat a failed run as a weaker certificate.
    """
    report, floors, signature = _check(source, sched, setting)
    if not report.ok or floors is None or signature is None:
        raise EquivError(report)
    return EquivCertificate(
        source_digest=trace_digest(source),
        schedule_digest=schedule_digest(sched, signature),
        word_bits=setting.word_bits,
        policy=sched.policy,
        capacity_bytes=sched.capacity_bytes,
        source_floor_bits=floors[0],
        scheduled_floor_bits=floors[1],
    )


def verify_certificate(
    certificate: EquivCertificate,
    source: Trace,
    sched: ScheduledTrace,
) -> CheckReport:
    """The execution gate: does this certificate cover this exact pair?

    Cheap (digest re-derivation only) — run it at every execution; the
    expensive :func:`check_equivalence` ran once at certification time.
    """
    report = CheckReport("equiv", f"certificate for {sched.name}")
    if certificate.checker_version != CHECKER_VERSION:
        report.error(
            "EQV-CERT",
            f"certificate minted by checker {certificate.checker_version!r}; "
            f"this gate requires {CHECKER_VERSION!r}",
        )
        return report
    if certificate.source_digest != trace_digest(source):
        report.error(
            "EQV-CERT",
            "certificate does not cover this source program "
            "(source digest mismatch)",
        )
    if certificate.schedule_digest != sched.digest():
        report.error(
            "EQV-CERT",
            "certificate does not cover this schedule "
            "(schedule digest mismatch)",
        )
    if not math.isfinite(certificate.scheduled_floor_bits):
        report.error(
            "EQV-CERT", "certificate carries a non-finite proven floor"
        )
    return report
