"""Translation validation: fused + scheduled traces against their source.

The scheduler (:mod:`repro.sched`) transforms programs — PMADD/rescale
fusion rewrites the op list, Belady allocation decides residency — and
until now nothing proved the transformed artifact still *computes the
source program*.  This pass closes that gap with a static equivalence
check; neither trace is executed.  Three layers, each with its own
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
the source trace digest, the schedule digest and the checker version.
:func:`verify_certificate` is the gate the real-engine execution path
(:mod:`repro.sched.execute`, ``repro.serve``) demands before a
scheduled trace may drive the evaluator.

What is *not* checked: precision (a certificate proves equivalence; the
noise pass owns the workloads' floors and admission's fold a served
program's), the program→trace recording itself (the source trace is the
trusted reference), plaintext constant values below the trace name (the
trace IR carries operand structure, not scalar payloads; a recorded
serve trace binds them only through the program digest in its name),
and additive ``sub``-vs-``add`` polarity (both record as ``HADD`` in the
trace IR).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.check.diagnostics import CheckReport
from repro.check.trace_check import TraceWalk, check_events
from repro.hw.isa import HeOp, OpKind, Trace
from repro.params.presets import WordLengthSetting
from repro.sched.events import Signature
from repro.sched.liveness import Liveness
from repro.sched.trace import ScheduledTrace, schedule_digest, trace_digest

__all__ = [
    "CHECKER_VERSION",
    "EquivCertificate",
    "EquivError",
    "check_equivalence",
    "certify_schedule",
    "verify_certificate",
]

CHECKER_VERSION = "equiv-2"

_BYTES_EPS = 0.5
_ACCOUNTS = (
    "hits", "misses", "fetch_bytes", "writeback_bytes", "spill_bytes", "occupancy_bytes",
    "live_values",
)  # fmt: skip


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

    def leaf(self, value: str) -> int:
        return self._intern.setdefault(("leaf", value), len(self._intern))

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
        key = ("op", kind, key_id, round(count, 9), children)
        return self._intern.setdefault(key, len(self._intern))

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
        key = ("acc", round(total, 9), ordered)
        node = self._intern.setdefault(key, len(self._intern))
        self._acc.setdefault(node, (total, ordered))
        return node


@dataclass
class _TraceFacts:
    """What one walk of a trace yields for the equivalence layers."""

    exprs: dict[str, int]  # canonical expression id of every SSA value
    defs: dict[str, HeOp]  # each defined value's (last) defining op


def _walk(
    trace: Trace,
    builder: _ExprBuilder,
    check: TraceWalk | None = None,
) -> _TraceFacts:
    """One pass over ``trace``: each value's canonical expression and
    defining op (whose ``result_limbs`` is its chain position), and —
    given ``check`` — the trace verifier's rules.

    ``RESCALE`` is a message identity (its level effect is checked
    separately); ``PMULT`` and ``PMADD`` expand by the defining equation
    of PMADD formation, ``PMADD(c, s0..sn) == HADD_1(PMULT(c, s0),
    s1..sn)`` — a multi-src ``PMULT`` absorbs its trailing operands
    without an accumulation pass — so each is a plaintext multiply of
    the first operand plus an accumulation over the rest (1 vs 0
    passes).  A value no op defines enters as a leaf at its first use.
    """
    exprs: dict[str, int] = {}
    defs: dict[str, HeOp] = {}
    step = check.step if check is not None and check.active else None

    for i, op in enumerate(trace.ops):
        if step is not None:
            step(i, op)
        for src in op.srcs:
            if src not in exprs:  # an external input, at its first use
                exprs[src] = builder.leaf(src)
        nodes = tuple(map(exprs.__getitem__, op.srcs))
        kind = op.kind
        if kind is OpKind.PMULT or kind is OpKind.PMADD:
            mul = builder.op(OpKind.PMULT.value, op.key_id, op.count, nodes[:1])
            passes = 1.0 if kind is OpKind.PMADD else 0.0
            node = builder.acc(passes, (mul,) + nodes[1:])
        elif kind is OpKind.HMULT:
            node = builder.op(kind.value, op.key_id, op.count, nodes, commutative=True)
        elif kind is OpKind.HADD:
            node = builder.acc(op.count, nodes)
        elif kind is OpKind.RESCALE:
            node = nodes[0]
        else:  # HROT / CONJ / MOD_RAISE / DS_ACCUM
            node = builder.op(kind.value, op.key_id, op.count, nodes)
        dst = op.dst
        if dst is not None:
            exprs[dst] = node
            defs[dst] = op
    return _TraceFacts(exprs, defs)


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
    # Ciphertexts and keys in one map (a ciphertext id shadows a key id).
    ranges = {**live.evk_ranges, **live.ranges}
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
            if victim in dirty:
                dirty.discard(victim)
                later = ranges[victim].uses
                if later and later[-1] > i:  # used again
                    spilled.add(victim)
                    writeback_bytes += size
                    spill_bytes += size

        # 2. Operand residency: every read must be a hit, a recorded
        # refill, or a legitimate stream (value wider than the whole
        # scratchpad).
        refills = list(event.fetched)
        srcs = op.unique_srcs
        key = None if op.key_id is None else f"evk:{op.key_id}"
        for value in srcs if key is None else (*srcs, key):
            if value in resident:
                hits += 1
                continue
            size = ranges[value].size_bytes
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
            dsize = ranges[dst].size_bytes
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
        for value in srcs if dst is None else (*srcs, dst):
            if value in resident and ranges[value].last_use <= i:
                occupancy -= resident.pop(value)
                dirty.discard(value)
        if key is not None and key in resident and ranges[key].last_use <= i:
            occupancy -= resident.pop(key)

        # 5. The derived accounting must reproduce the recorded event.
        derived = (hits, misses, fetch_bytes, writeback_bytes, spill_bytes, occupancy)
        recorded = (
            event.hits, event.misses, event.fetch_bytes, event.writeback_bytes,
            event.spill_bytes, event.occupancy_bytes,
        )  # fmt: skip
        if derived != recorded or len(resident) != event.live_values:
            for label, mine, theirs in zip(
                _ACCOUNTS,
                (*map(float, derived), float(len(resident))),
                (*map(float, recorded), float(event.live_values)),
            ):
                if abs(mine - theirs) > _BYTES_EPS:
                    report.error(
                        "EQV-SPILL",
                        f"{label} derived from the recorded decisions is "
                        f"{mine:.1f} but the event claims {theirs:.1f}",
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
    per-value level preservation, and the policy-independent scratchpad
    dataflow over the recorded events.
    """
    return _check(source, sched, setting)[0]


def _check(
    source: Trace, sched: ScheduledTrace, setting: WordLengthSetting
) -> tuple[CheckReport, Signature | None]:
    """:func:`check_equivalence`'s report and the recorded signature: what
    a certificate binds.  Each trace is walked once (:func:`_walk`, the scheduled one with the
    trace verifier); the events get their own passes (:func:`check_events`,
    then the dataflow)."""
    report = CheckReport("equiv", f"{source.name} -> {sched.name}")
    builder = _ExprBuilder()
    src = _walk(source, builder) if source.annotated else None
    verifier = TraceWalk(sched.trace, setting)
    new = _walk(sched.trace, builder, verifier)
    report.merge(verifier.finish())
    live, signature = check_events(sched, setting, report)
    if src is None:
        report.error(
            "TRC-UNANNOTATED",
            "source trace lacks SSA annotations; equivalence needs dataflow",
        )
        return report, signature
    if source.ops and sched.trace.ops:
        if live is not None:
            _verify_dataflow(sched, live, report)
        _check_values(source, sched.trace, src, new, report)
    elif source.ops or sched.trace.ops:  # fail closed: one side computes nothing
        report.error(
            "EQV-OUTPUT",
            f"source has {len(source.ops)} ops but the scheduled trace "
            f"has {len(sched.trace.ops)}: one side has no output",
        )
    return report, signature


def _check_values(
    source: Trace,
    scheduled: Trace,
    src: _TraceFacts,
    new: _TraceFacts,
    report: CheckReport,
) -> None:
    """Value-graph bisimulation and per-value level preservation."""
    dag_clean = True
    moved: list[tuple[int, str]] = []  # (op index, value) whose level moved
    for i, op in enumerate(scheduled.ops):
        dst = op.dst
        if dst is None or dst not in src.defs:
            continue  # fusion-fresh intermediates match via their consumers
        if new.exprs[dst] != src.exprs[dst]:
            dag_clean = False
            report.error(
                "EQV-DAG",
                "scheduled trace computes a different expression for "
                "this value than the source program",
                op_index=i,
                value=dst,
            )
        if new.defs[dst].result_limbs != src.defs[dst].result_limbs:
            moved.append((i, dst))
    src_out = source.ops[-1].dst
    new_out = scheduled.ops[-1].dst
    if src_out is not None and new_out is not None:
        if src.exprs.get(src_out) != new.exprs.get(new_out):
            if dag_clean:  # don't bury the root cause twice
                report.error(
                    "EQV-OUTPUT",
                    f"output {new_out!r} does not denote the source "
                    f"output {src_out!r}",
                    op_index=len(scheduled.ops) - 1,
                    value=new_out,
                )

    # -- symbolic level preservation ----------------------------------------
    for i, dst in moved:
        report.error(
            "EQV-LEVEL",
            f"value lands at {new.defs[dst].result_limbs} limbs but the source "
            f"program puts it at {src.defs[dst].result_limbs} — a fused rescale "
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
    checker_version: str = CHECKER_VERSION

    def to_dict(self) -> dict[str, object]:
        return {
            "source_digest": self.source_digest,
            "schedule_digest": self.schedule_digest,
            "word_bits": self.word_bits,
            "policy": self.policy,
            "capacity_bytes": self.capacity_bytes,
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
    report, signature = _check(source, sched, setting)
    if not report.ok or signature is None:
        raise EquivError(report)
    return EquivCertificate(
        source_digest=trace_digest(source),
        schedule_digest=schedule_digest(sched, signature),
        word_bits=setting.word_bits,
        policy=sched.policy,
        capacity_bytes=sched.capacity_bytes,
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
    return report
