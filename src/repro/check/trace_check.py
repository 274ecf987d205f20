"""Trace verifier: SSA + modulus-chain abstract interpretation.

Walks an annotated :class:`repro.hw.isa.Trace` once, op by op, carrying
two abstract states:

* an **SSA environment** mapping every value id to the op index that
  defined it — use-before-def, double-def, dangling mid-trace inputs
  and dead outputs all fall out of this map;
* a **chain position** per value (its active limb count), checked
  against the bottom-up modulus-chain layout of the
  :class:`~repro.params.presets.WordLengthSetting` — rescales must drop
  exactly one level group-aligned step of the region they sit in,
  ``MOD_RAISE`` must land on the full chain, and no result may dip
  below the never-rescaled base.

For a :class:`~repro.sched.trace.ScheduledTrace` the recorded events
are additionally verified against the live ranges the trace defines
(the artifact carries none): structural alignment with the ops,
non-negative traffic, occupancy within the declared capacity (modulo
the allocator's documented single-op transient overflow), and — the
strong check — a full deterministic *replay* of the allocator whose
decision signature must reproduce the recorded one bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.check.diagnostics import CheckReport
from repro.hw.isa import HeOp, OpKind, Trace
from repro.params.presets import WordLengthSetting
from repro.sched.alloc import POLICIES, allocate, check_budget
from repro.sched.events import Signature, signature
from repro.sched.liveness import Liveness, analyze_liveness
from repro.sched.trace import ScheduledTrace

__all__ = ["ChainRegion", "chain_regions", "check_schedule", "verify_trace", "verify_schedule"]

# Occupancy comparisons tolerate float bookkeeping noise.
_BYTES_EPS = 0.5


@dataclass(frozen=True)
class ChainRegion:
    """One level group's span of the bottom-up limb axis."""

    name: str  # "base" | "normal" | "stc" | "boot"
    start: int  # first limb index of the region (inclusive)
    stop: int  # one past the last limb index
    primes_per_level: int  # 1 = SS, 2 = DS

    def contains(self, limb_index: int) -> bool:
        return self.start <= limb_index < self.stop


def chain_regions(setting: WordLengthSetting) -> tuple[ChainRegion, ...]:
    """The modulus chain as bottom-up regions of the limb axis.

    Rescaling consumes the chain from the top: a fresh (mod-raised)
    ciphertext holds all ``max_level`` limbs, bootstrapping burns the
    boot region first, SlotToCoeff the stc region, applications the
    normal region, and the base is never dropped.  The bottom-up order
    is therefore base, normal, stc, boot — *not* the storage order of
    ``WordLengthSetting.q_primes``.
    """
    regions: list[ChainRegion] = []
    start = 0
    for name in ("base", "normal", "stc", "boot"):
        group = setting.group(name)
        stop = start + len(group.primes)
        regions.append(ChainRegion(name, start, stop, group.primes_per_level))
        start = stop
    return tuple(regions)


def _region_of(regions: tuple[ChainRegion, ...], limb_index: int) -> ChainRegion | None:
    for region in regions:
        if region.contains(limb_index):
            return region
    return None


def verify_trace(trace: Trace, setting: WordLengthSetting) -> CheckReport:
    """Run the SSA + chain abstract interpreter over one trace."""
    report = CheckReport("trace", trace.name)
    if not trace.ops:
        report.warning("TRC-EMPTY", "trace has no ops")
        return report
    if not trace.annotated:
        report.error(
            "TRC-UNANNOTATED",
            "trace lacks SSA dst/srcs annotations on every op; "
            "the verifier (and the scheduler) need full dataflow",
        )
        return report

    regions = chain_regions(setting)
    max_level = setting.max_level
    base_count = setting.base_prime_count

    defs: dict[str, int] = {}  # value id -> defining op index
    value_limbs: dict[str, int] = {}  # value id -> active limbs
    externals: dict[str, int] = {}  # trace inputs -> first-use op index
    used: set[str] = set()

    for i, op in enumerate(trace.ops):
        if op.dst is None:
            continue
        if op.dst in defs:
            report.error(
                "TRC-REDEF",
                f"value defined twice (first at op {defs[op.dst]})",
                op_index=i,
                value=op.dst,
            )
        else:
            defs[op.dst] = i

    defs.clear()

    for i, op in enumerate(trace.ops):
        # -- SSA environment ------------------------------------------------
        for src in dict.fromkeys(op.srcs):
            used.add(src)
            if src in defs:
                continue
            if src in externals:
                continue
            if i == 0:
                # Trace inputs enter through the first op's operands.
                externals[src] = i
                value_limbs[src] = op.limbs
            else:
                report.error(
                    "TRC-UNDEF",
                    "value is used but was never defined by an earlier op "
                    "(trace inputs must enter at op 0)",
                    op_index=i,
                    value=src,
                )

        # -- chain position -------------------------------------------------
        if op.count <= 0:
            report.error(
                "TRC-COUNT", f"non-positive repeat count {op.count}", op_index=i
            )
        if not 1 <= op.limbs <= max_level:
            report.error(
                "TRC-LEVEL-RANGE",
                f"op at {op.limbs} limbs, outside the chain [1, {max_level}]",
                op_index=i,
            )
        elif op.kind is OpKind.MOD_RAISE:
            if op.drop != 0:
                report.error(
                    "TRC-RAISE", "mod-raise must not rescale (drop != 0)", op_index=i
                )
            if op.limbs != max_level:
                report.error(
                    "TRC-RAISE",
                    f"mod-raise lands at {op.limbs} limbs, not the full "
                    f"chain ({max_level})",
                    op_index=i,
                )
            for src in op.srcs:
                src_limbs = value_limbs.get(src)
                if src_limbs is not None and src_limbs > op.limbs:
                    report.error(
                        "TRC-RAISE",
                        f"mod-raise source already holds {src_limbs} limbs",
                        op_index=i,
                        value=src,
                    )
        else:
            # Consuming a value at a *higher* level is legal (implicit
            # modulus drop / align); a lower one means stale dataflow.
            for src in op.srcs:
                src_limbs = value_limbs.get(src)
                if src_limbs is not None and src_limbs < op.limbs:
                    report.error(
                        "TRC-LEVEL-SRC",
                        f"op at {op.limbs} limbs consumes a value holding "
                        f"only {src_limbs}",
                        op_index=i,
                        value=src,
                    )
            if op.drop < 0:
                report.error("TRC-RESCALE", f"negative drop {op.drop}", op_index=i)
            elif op.drop > 0:
                _check_rescale(report, regions, base_count, i, op.limbs, op.drop)

        if op.result_limbs < base_count and op.kind is not OpKind.MOD_RAISE:
            report.error(
                "TRC-BASE",
                f"result at {op.result_limbs} limbs dips below the "
                f"never-rescaled base ({base_count})",
                op_index=i,
            )

        if op.dst is not None and op.dst in externals:
            report.error(
                "TRC-REDEF", "op redefines a trace input", op_index=i, value=op.dst
            )
        if op.dst is not None and op.dst not in defs:
            defs[op.dst] = i
            value_limbs[op.dst] = op.result_limbs

    # -- dead outputs -------------------------------------------------------
    last = len(trace.ops) - 1
    for dst, index in defs.items():
        if dst not in used and index != last:
            report.error(
                "TRC-DEAD",
                "op defines a value no later op consumes",
                op_index=index,
                value=dst,
            )
    return report


def _check_rescale(
    report: CheckReport,
    regions: tuple[ChainRegion, ...],
    base_count: int,
    op_index: int,
    limbs: int,
    drop: int,
) -> None:
    """Rescale legality against the chain layout.

    The dropped limbs are the top ``drop`` of the value, so the region
    is the one holding limb ``limbs - 1``.  A legal rescale drops
    exactly one level's worth of that region's primes, stays
    group-aligned, and never reaches into the base.
    """
    region = _region_of(regions, limbs - 1)
    if region is None:
        return  # TRC-LEVEL-RANGE already covers out-of-chain ops
    if region.name == "base":
        report.error(
            "TRC-RESCALE", "rescale would drop base limbs", op_index=op_index
        )
        return
    if drop != region.primes_per_level:
        report.error(
            "TRC-RESCALE",
            f"drop of {drop} limbs in the {region.name} region, whose "
            f"levels are {region.primes_per_level} prime(s) wide",
            op_index=op_index,
        )
        return
    if (limbs - region.start) % region.primes_per_level != 0:
        report.error(
            "TRC-RESCALE",
            f"op at {limbs} limbs is not aligned to the {region.name} "
            f"region's {region.primes_per_level}-prime levels "
            f"(region starts at limb {region.start})",
            op_index=op_index,
        )
        return
    if limbs - drop < max(region.start, base_count):
        report.error(
            "TRC-RESCALE",
            f"drop of {drop} limbs crosses below the {region.name} region",
            op_index=op_index,
        )


def verify_schedule(sched: ScheduledTrace, setting: WordLengthSetting) -> CheckReport:
    """Verify a recorded schedule: structure, liveness, feasibility, replay.

    Values are sized by the live ranges the trace defines; a trace that
    defines none is rejected (``SCH-LIVENESS``).  The replay check is
    the strong one — it re-runs the allocator under the declared policy
    and capacity and demands the identical decision signature, so any
    tampered or stale event is caught even when it looks locally
    plausible.
    """
    return check_schedule(sched, setting)[0]


def check_schedule(
    sched: ScheduledTrace, setting: WordLengthSetting
) -> tuple[CheckReport, Liveness | None, Signature | None]:
    """:func:`verify_schedule`'s report, the derived liveness (None if the
    trace has none) and the recorded signature, for callers that go on."""
    report = CheckReport("schedule", sched.name)
    report.merge(verify_trace(sched.trace, setting))
    rejected = (report, None, None)

    capacity = sched.capacity_bytes
    try:
        check_budget(capacity, sched.policy)
    except ValueError as exc:
        code = "SCH-POLICY" if sched.policy not in POLICIES else "SCH-CAPACITY"
        report.error(code, str(exc))
        return rejected
    ops = sched.trace.ops
    if len(sched.events) != len(ops):
        report.error(
            "SCH-COUNT",
            f"{len(sched.events)} events recorded for {len(ops)} ops",
        )
        return rejected
    try:
        live = analyze_liveness(sched.trace, setting)
    except ValueError as exc:  # fail closed: nothing below can run without it
        report.error("SCH-LIVENESS", f"trace defines no live ranges: {exc}")
        return rejected

    for i, (op, event) in enumerate(zip(ops, sched.events)):
        if event.index != i:
            report.error(
                "SCH-INDEX", f"event carries index {event.index}", op_index=i
            )
        if event.kind is not op.kind:
            report.error(
                "SCH-KIND",
                f"event kind {event.kind.value} but op is {op.kind.value}",
                op_index=i,
            )
        for label, amount in (
            ("hits", float(event.hits)),
            ("misses", float(event.misses)),
            ("fetch_bytes", event.fetch_bytes),
            ("writeback_bytes", event.writeback_bytes),
            ("spill_bytes", event.spill_bytes),
            ("occupancy_bytes", event.occupancy_bytes),
        ):
            if not math.isfinite(amount) or amount < 0:
                report.error(
                    "SCH-NEG", f"{label} is {amount!r}", op_index=i
                )
        operands = len(dict.fromkeys(op.srcs)) + (1 if op.key_id is not None else 0)
        if event.hits + event.misses != operands:
            report.error(
                "SCH-OPERANDS",
                f"{event.hits} hits + {event.misses} misses for "
                f"{operands} operands",
                op_index=i,
            )
        # Occupancy may exceed capacity only when one op's own pinned
        # working set does (the allocator's documented transient).
        if event.occupancy_bytes > capacity + _BYTES_EPS:
            pinned = _pinned_bytes(op, live)
            if event.occupancy_bytes > pinned + _BYTES_EPS:
                report.error(
                    "SCH-OCCUPANCY",
                    f"occupancy {event.occupancy_bytes:.0f} B exceeds the "
                    f"{capacity:.0f} B capacity beyond the op's own "
                    f"working set ({pinned:.0f} B)",
                    op_index=i,
                )

    recorded = signature(sched.events)
    if report.ok:
        replayed = signature(allocate(sched.trace, live, capacity, sched.policy))
        if recorded != replayed:
            index = _first_divergence(recorded, replayed)
            report.error(
                "SCH-REPLAY",
                "recorded schedule does not replay deterministically "
                "under its declared policy and capacity",
                op_index=index,
            )
    return report, live, recorded


def _pinned_bytes(op: HeOp, live: Liveness) -> float:
    """Bytes one op pins at once: unique srcs + evk + dst."""
    total = 0.0
    for src in dict.fromkeys(op.srcs):
        total += live.ranges[src].size_bytes
    if op.key_id is not None:
        total += live.evk_ranges[f"evk:{op.key_id}"].size_bytes
    if op.dst is not None and op.dst not in op.srcs:
        total += live.ranges[op.dst].size_bytes
    return total


def _first_divergence(
    a: tuple[tuple[object, ...], ...], b: tuple[tuple[object, ...], ...]
) -> int | None:
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    if len(a) != len(b):
        return min(len(a), len(b))
    return None
