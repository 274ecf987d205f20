"""Seeded-mutation corpus: every injected violation must be caught.

A verifier that accepts everything is worthless, so :mod:`repro.check`
ships its own adversarial test load: a corpus of known-bad artifacts,
each derived from a *clean* shipped workload trace (or schedule, or
program, or kernel configuration, or module source) by one surgical
mutation, paired with the diagnostic codes the verifier must raise.

The corpus is one case builder per pass of ``python -m repro.check``
(:func:`bounds_cases`, :func:`trace_cases`, :func:`ckks_cases`,
:func:`noise_cases`, :func:`equiv_cases`, :func:`secflow_cases`); a
pass's cases are its negative control, and ``repro.check.cli.PASSES``
names each pass's builder.  The CLI and the test suite both demand a
100% detection rate — any silently accepted mutant is a regression in the
verifier itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.check.bounds import (
    certify_report,
    proofs_report,
    prove_bconv_matmul,
    prove_lazy_ntt_schedule,
    prove_lazy_plain_inner,
)
from repro.check.ckks_check import AbstractParams, SymbolicEvaluator, check_program
from repro.check.diagnostics import CheckReport
from repro.check.equiv import check_equivalence
from repro.check.noise_check import NoiseParams, check_noise_program
from repro.check.trace_check import verify_schedule, verify_trace
from repro.check.wordlen_audit import (
    PrecisionClaim,
    claims_from_audit,
    run_audit,
    verify_claims,
)
from repro.hw.isa import HeOp, OpKind, Trace
from repro.params.presets import WordLengthSetting
from repro.rns import kernels
from repro.sched.alloc import allocate
from repro.sched.events import ScheduleEvent
from repro.sched.liveness import LiveRange, Liveness, analyze_liveness
from repro.sched.trace import ScheduledTrace, schedule_trace
from repro.workloads.traces import helr_trace

__all__ = [
    "MutationCase",
    "MutationResult",
    "bounds_cases",
    "ckks_cases",
    "equiv_cases",
    "noise_cases",
    "secflow_cases",
    "trace_cases",
]


@dataclass(frozen=True)
class MutationCase:
    """One known-bad artifact and the codes that must flag it."""

    name: str
    kind: str  # "ssa" | "level" | "schedule" | "ckks" | "bounds" | "noise" | "equiv" | "secflow"
    run: Callable[[], CheckReport]
    expect_codes: tuple[str, ...]

    def check(self) -> MutationResult:
        """Run the case; ``caught`` means an *expected* error code fired."""
        report = self.run()
        caught = bool(report.error_codes() & set(self.expect_codes))
        return MutationResult(case=self, report=report, caught=caught)


@dataclass(frozen=True)
class MutationResult:
    case: MutationCase
    report: CheckReport
    caught: bool


def _mutant(base: Trace, name: str, ops: list[HeOp]) -> Trace:
    return Trace(name=f"{base.name}:{name}", ops=ops)


def _def_limbs(ops: list[HeOp], value: str) -> int:
    for op in ops:
        if op.dst == value:
            return op.result_limbs
    return ops[0].limbs  # external input


def _corpus_base(setting: WordLengthSetting) -> tuple[Trace, float]:
    """The clean HELR trace every trace mutant derives from, and a
    scratchpad capacity of three evaluation keys to schedule it at.

    Two training iterations deplete the level cursor, so the base
    trace crosses a full bootstrap: it contains ``MOD_RAISE``, DS-wide
    boot rescales and rotation-ladder fan-out — every region a
    mutation needs to land in.
    """
    base = helr_trace(setting, 256, iterations=2)
    clean = verify_trace(base, setting)
    if not clean.ok:
        raise RuntimeError(
            "mutation corpus base trace fails verification:\n" + clean.render()
        )
    return base, setting.evk_bytes(prng=True) * 3.0


def bounds_cases() -> list[MutationCase]:
    """Kernel configurations whose overflow proofs must fail."""

    def late_ntt_reduction() -> CheckReport:
        # The inverse NTT's one reduction at 36 bits, taken a stage late:
        # the doubled operand passes the float-quotient limit.
        from repro.ntt.plan import lazy_schedule

        q_max = (1 << 36) - 1
        forward, inverse = lazy_schedule(q_max, 16)
        late = (forward, tuple(stage + 1 for stage in inverse))
        return proofs_report(
            "ntt-late-reduction", (prove_lazy_ntt_schedule(q_max, 16, schedule=late),)
        )

    def wide_bconv_digits() -> CheckReport:
        # 54-bit words as two 27-bit digits: eight source limbs already
        # push a digit sum past the float64 mantissa.
        proof = prove_bconv_matmul((1 << 54) - 1, src_count=8, digit_bits=27)
        return proofs_report("bconv-wide-digits", (proof,))

    def long_plain_inner() -> CheckReport:
        # The lazy plaintext inner product's chunk one term too long at
        # 36 bits: the shifted high part plus the low sum passes 2**63.
        q_max = (1 << 36) - 1
        proof = prove_lazy_plain_inner(q_max, kernels.lazy_inner_terms(q_max) + 1)
        return proofs_report("plain-inner-long-chunk", (proof,))

    return [
        MutationCase(name, "bounds", run, ("KB-OVERFLOW",))
        for name, run in (
            ("word-bits-63", lambda: certify_report(63)),
            ("word-bits-64", lambda: certify_report(64)),
            ("ntt-late-reduction", late_ntt_reduction),
            ("bconv-wide-digits", wide_bconv_digits),
            ("plain-inner-long-chunk", long_plain_inner),
        )
    ]


def trace_cases(setting: WordLengthSetting) -> list[MutationCase]:
    """SSA, level and schedule mutants of the corpus base trace."""
    base, capacity = _corpus_base(setting)
    ops = base.ops
    max_level = setting.max_level
    cases: list[MutationCase] = []

    def mutant(
        name: str, kind: str, mutated: list[HeOp], expect: tuple[str, ...]
    ) -> None:
        trace = _mutant(base, name, mutated)
        cases.append(
            MutationCase(name, kind, lambda: verify_trace(trace, setting), expect)
        )

    # -- SSA violations -----------------------------------------------------
    drop_at = next(
        i
        for i, op in enumerate(ops)
        if i > 0 and any(op.dst in later.srcs for later in ops[i + 1 :])
    )
    mutant(
        "dropped-def", "ssa", ops[:drop_at] + ops[drop_at + 1 :], ("TRC-UNDEF",)
    )
    mutant(
        "double-def",
        "ssa",
        [ops[0], replace(ops[1], dst=ops[0].dst), *ops[2:]],
        ("TRC-REDEF", "TRC-UNDEF"),
    )
    mutant(
        "use-before-def",
        "ssa",
        ops[:drop_at] + ops[drop_at + 1 :] + [ops[drop_at]],
        ("TRC-UNDEF",),
    )

    ghost = [*ops]
    mid = len(ghost) // 2
    ghost[mid] = replace(ghost[mid], srcs=("ghost_value",) + ghost[mid].srcs[1:])
    mutant("dangling-src", "ssa", ghost, ("TRC-UNDEF",))

    feeder = ops[-1].srcs[0]
    dead = HeOp(
        OpKind.HADD, _def_limbs(ops, feeder), dst="dead_value", srcs=(feeder,)
    )
    mutant("dead-output", "ssa", [*ops[:-1], dead, ops[-1]], ("TRC-DEAD",))

    # -- level / chain violations -------------------------------------------
    bump_at = next(
        i
        for i, op in enumerate(ops)
        if i > 0
        and op.limbs < max_level
        and op.srcs
        and all(_def_limbs(ops[:i], s) == op.limbs for s in op.srcs)
    )
    bumped = [*ops]
    bumped[bump_at] = replace(bumped[bump_at], limbs=bumped[bump_at].limbs + 1)
    mutant("swapped-level", "level", bumped, ("TRC-LEVEL-SRC", "TRC-RESCALE"))

    ranged = [*ops]
    ranged[2] = replace(ranged[2], limbs=max_level + 5)
    mutant("level-out-of-range", "level", ranged, ("TRC-LEVEL-RANGE",))

    rescale_at = next(i for i, op in enumerate(ops) if op.drop > 0)
    sunk = [*ops]
    sunk[rescale_at] = replace(sunk[rescale_at], drop=sunk[rescale_at].limbs)
    mutant("below-base", "level", sunk, ("TRC-BASE", "TRC-RESCALE"))

    wide = [*ops]
    wide[rescale_at] = replace(wide[rescale_at], drop=wide[rescale_at].drop + 1)
    mutant("rescale-width", "level", wide, ("TRC-RESCALE",))

    boot_ppl = setting.group("boot").primes_per_level
    if boot_ppl > 1:
        ds_at = next(i for i, op in enumerate(ops) if op.drop == boot_ppl)
        shifted = [*ops]
        shifted[ds_at] = replace(shifted[ds_at], limbs=shifted[ds_at].limbs - 1)
        mutant("misaligned-rescale", "level", shifted, ("TRC-RESCALE",))

    raise_at = next(
        i for i, op in enumerate(ops) if op.kind is OpKind.MOD_RAISE
    )
    lowered = [*ops]
    lowered[raise_at] = replace(lowered[raise_at], limbs=max_level - 1)
    mutant("raise-not-top", "level", lowered, ("TRC-RAISE", "TRC-LEVEL-SRC"))

    # -- schedule violations ------------------------------------------------
    sched = schedule_trace(base, setting, capacity)

    def forged(
        events: list[ScheduleEvent],
        name: str,
        expect: tuple[str, ...],
        policy: str = sched.policy,
        capacity: float = capacity,
    ) -> None:
        fake = ScheduledTrace(sched.trace, policy, capacity, events)
        cases.append(
            MutationCase(
                name, "schedule", lambda: verify_schedule(fake, setting), expect
            )
        )

    events = sched.events
    forged(
        events,
        "shrunk-capacity",
        ("SCH-OCCUPANCY", "SCH-REPLAY"),
        capacity=capacity / 8.0,
    )
    forged(events[:-1], "dropped-event", ("SCH-COUNT",))
    negative = [*events]
    negative[3] = replace(negative[3], fetch_bytes=-1.0)
    forged(negative, "negative-traffic", ("SCH-NEG", "SCH-REPLAY"))
    inflated = [*events]
    inflated[5] = replace(inflated[5], occupancy_bytes=capacity * 10.0)
    forged(inflated, "occupancy-tamper", ("SCH-OCCUPANCY", "SCH-REPLAY"))
    forged(events, "unknown-policy", ("SCH-POLICY",), policy="fifo")
    other_kind = (
        OpKind.CONJ if sched.trace.ops[4].kind is not OpKind.CONJ else OpKind.HADD
    )
    mixed = [*events]
    mixed[4] = replace(mixed[4], kind=other_kind)
    forged(mixed, "kind-swap", ("SCH-KIND", "SCH-REPLAY"))

    # Events the allocator made over lying live ranges, a hundredth of
    # every size: they are self-consistent with the lie, but not with
    # the ranges the trace defines, which are the only ones checked.
    def shrink(ranges: dict[str, LiveRange]) -> dict[str, LiveRange]:
        return {v: replace(r, size_bytes=r.size_bytes / 100) for v, r in ranges.items()}

    honest = analyze_liveness(sched.trace, setting)
    shrunk = Liveness(shrink(honest.ranges), shrink(honest.evk_ranges))
    lying = allocate(sched.trace, shrunk, capacity, sched.policy)
    forged(lying, "forged-liveness", ("SCH-REPLAY",))
    return cases


def ckks_cases() -> list[MutationCase]:
    """Evaluator programs that break the (level, scale) discipline."""
    abstract = AbstractParams.synthetic(depth=4, scale_bits=35.0, base_bits=42.0)

    def mismatch(ev: SymbolicEvaluator) -> None:
        a = ev.fresh()
        b = ev.fresh(scale=abstract.default_scale * 3.0)
        ev.add(a, b)

    def underflow(ev: SymbolicEvaluator) -> None:
        ct = ev.fresh(level=0)
        ev.rescale(ct)

    def missing_rescale(ev: SymbolicEvaluator) -> None:
        ct = ev.fresh()
        for _ in range(3):
            ct = ev.square(ct, rescale=False)

    def case(
        name: str, program: Callable[[SymbolicEvaluator], None], code: str
    ) -> MutationCase:
        return MutationCase(
            f"ckks-{name}",
            "ckks",
            lambda: check_program(program, abstract, name),
            (code,),
        )

    return [
        case("scale-mismatch", mismatch, "CKKS-SCALE-MISMATCH"),
        case("level-underflow", underflow, "CKKS-LEVEL-UNDERFLOW"),
        case("missing-rescale", missing_rescale, "CKKS-SCALE-OVERFLOW"),
    ]


def noise_cases() -> list[MutationCase]:
    """Noise programs and precision claims the noise domain must refuse."""

    def inflated_scale() -> CheckReport:
        # A 60-bit scale claimed on 28-bit words: no SS prime fits and a
        # DS pair would need primes wider than the word.
        from repro.workloads.noise_programs import noise_programs

        program = noise_programs()["bootstrapping"]
        params = NoiseParams(
            scale_bits=60.0, boot_scale_bits=55.0, word_bits=28
        )
        report, _ = check_noise_program(program.build, params, "inflated-scale")
        return report

    def claim(word_bits: int, workload: str, floor: float) -> CheckReport:
        return verify_claims(
            [
                PrecisionClaim(
                    word_bits=word_bits,
                    workload=workload,
                    exploded=False,
                    mean_floor_bits=floor,
                )
            ]
        )

    return [
        MutationCase(
            "noise-inflated-scale",
            "noise",
            inflated_scale,
            ("NOISE-SCALE-UNREALIZABLE",),
        ),
        MutationCase(
            # An analyzer that forgot the relative rescale-jitter term
            # sees no drift, so it certifies the 28-bit explosion regime
            # as clean — its claims must not survive re-derivation.
            "noise-skipped-jitter",
            "noise",
            lambda: verify_claims(
                claims_from_audit(run_audit((28, 36), include_jitter=False))
            ),
            ("NOISE-EXPLOSION-HIDDEN",),
        ),
        MutationCase(
            # An analyzer that understates bootstrap noise overstates the
            # bootstrapping precision floor at the robust scale.
            "noise-understated-boot",
            "noise",
            lambda: verify_claims(
                claims_from_audit(run_audit((36,), include_boot_noise=False))
            ),
            ("NOISE-CLAIM",),
        ),
        MutationCase(
            "noise-hidden-explosion",
            "noise",
            lambda: claim(28, "helr", 14.7),
            ("NOISE-EXPLOSION-HIDDEN",),
        ),
        MutationCase(
            "noise-overclaimed-floor",
            "noise",
            lambda: claim(36, "bootstrapping", 23.5),
            ("NOISE-CLAIM",),
        ),
    ]


def equiv_cases(setting: WordLengthSetting) -> list[MutationCase]:
    """Tampered fused + scheduled artifacts the certifier must refuse.

    Each mutant tampers with the transformed program the equivalence
    checker must refuse to certify against the clean source.  Trace
    mutants are re-scheduled from scratch so the schedule layer stays
    self-consistent and the catch is genuinely the equivalence layer's;
    event mutants keep the clean fused trace and forge the recorded
    decisions.
    """
    base, capacity = _corpus_base(setting)
    esched = schedule_trace(base, setting, capacity, fuse=True)
    fops = esched.trace.ops
    cases: list[MutationCase] = []

    def equiv_case(
        name: str, mutant: ScheduledTrace, expect: tuple[str, ...]
    ) -> None:
        cases.append(
            MutationCase(
                name,
                "equiv",
                lambda: check_equivalence(base, mutant, setting),
                expect,
            )
        )

    def reschedule(tampered: list[HeOp]) -> ScheduledTrace:
        t = _mutant(base, "equiv", tampered)
        return schedule_trace(t, setting, capacity, fuse=False)

    def forged(events: list[ScheduleEvent]) -> ScheduledTrace:
        return ScheduledTrace(esched.trace, esched.policy, capacity, events)

    # Wrong operand: rewire one op's input to a different live value of
    # the same chain position — SSA-clean, level-clean, caught only by
    # the value-graph bisimulation.
    tampered = [*fops]
    swap_at = next(
        i
        for i, op in enumerate(tampered)
        if i > 4
        and op.srcs
        and any(
            o.dst is not None
            and o.dst not in op.srcs
            and o.result_limbs == _def_limbs(tampered, op.srcs[0])
            for o in tampered[:i]
        )
    )
    alt = next(
        o.dst
        for o in tampered[:swap_at]
        if o.dst is not None
        and o.dst not in tampered[swap_at].srcs
        and o.result_limbs == _def_limbs(tampered, tampered[swap_at].srcs[0])
    )
    assert alt is not None
    tampered[swap_at] = replace(
        tampered[swap_at], srcs=(alt,) + tampered[swap_at].srcs[1:]
    )
    equiv_case("equiv-wrong-operand", reschedule(tampered), ("EQV-DAG",))

    # Reordered dependent ops: swap a producer with its consumer.  The
    # stale events keep the op count so the bisimulation runs and sees a
    # use of the value before the program defines it.
    tampered = [*fops]
    dep_at = next(
        i
        for i in range(1, len(tampered))
        if tampered[i - 1].dst in tampered[i].srcs
    )
    tampered[dep_at - 1], tampered[dep_at] = tampered[dep_at], tampered[dep_at - 1]
    reordered = ScheduledTrace(
        _mutant(base, "equiv-reorder", tampered),
        esched.policy,
        capacity,
        esched.events,
    )
    equiv_case("equiv-reordered-ops", reordered, ("EQV-DAG", "TRC-UNDEF"))

    # Dropped op: delete one fused multiply-add and wire its consumers
    # straight through to its first operand.
    tampered = [*fops]
    victim_at = next(
        i for i, op in enumerate(tampered) if op.kind is OpKind.PMADD
    )
    victim_dst = tampered[victim_at].dst
    victim_src = tampered[victim_at].srcs[0]
    assert victim_dst is not None
    tampered.pop(victim_at)
    tampered = [
        replace(
            op, srcs=tuple(victim_src if s == victim_dst else s for s in op.srcs)
        )
        for op in tampered
    ]
    equiv_case("equiv-dropped-op", reschedule(tampered), ("EQV-DAG",))

    # Extra accumulation: bump one HAdd's repeat count.  Structurally
    # and level-wise pristine — only the canonical expression's
    # accumulation-pass count disagrees with the source.
    tampered = [*fops]
    hadd_at = next(
        i for i, op in enumerate(tampered) if op.kind is OpKind.HADD
    )
    tampered[hadd_at] = replace(
        tampered[hadd_at], count=tampered[hadd_at].count + 1
    )
    equiv_case("equiv-extra-accumulation", reschedule(tampered), ("EQV-DAG",))

    # Wrong rescale alignment in a fused region: a fused op forgets its
    # folded rescale, so its result lands one level too high.
    tampered = [*fops]
    fused_at = next(
        i
        for i, op in enumerate(tampered)
        if op.kind in (OpKind.PMADD, OpKind.PMULT) and op.drop > 0
    )
    tampered[fused_at] = replace(tampered[fused_at], drop=0)
    equiv_case(
        "equiv-unaligned-fused-rescale", reschedule(tampered), ("EQV-LEVEL",)
    )

    # Scale-drift swap: two ops at different chain positions trade
    # their rescale drops, preserving total drop but drifting every
    # value in between.
    tampered = [*fops]
    drops_at = [i for i, op in enumerate(tampered) if op.drop > 0]
    a_at, b_at = drops_at[0], drops_at[1]
    tampered[a_at] = replace(
        tampered[a_at], drop=tampered[a_at].drop + tampered[b_at].drop
    )
    tampered[b_at] = replace(tampered[b_at], drop=0)
    equiv_case("equiv-scale-drift-swap", reschedule(tampered), ("EQV-LEVEL",))

    # Wrong evaluation key: a rotation runs under a different key id.
    tampered = [*fops]
    rot_at = next(
        i for i, op in enumerate(tampered) if op.kind is OpKind.HROT
    )
    tampered[rot_at] = replace(tampered[rot_at], key_id="rot_9999")
    equiv_case("equiv-wrong-evk", reschedule(tampered), ("EQV-DAG",))

    # Truncated trace: the scheduled artifact retires without ever
    # computing the source output.
    equiv_case(
        "equiv-missing-output", reschedule(list(fops[:-1])), ("EQV-OUTPUT",)
    )

    # Emptied schedule: the artifact computes nothing at all, so every
    # per-value layer has nothing to compare.
    equiv_case(
        "equiv-emptied-schedule",
        schedule_trace(Trace(base.name, []), setting, capacity),
        ("EQV-OUTPUT",),
    )

    # Dropped refill: the events claim a value was read on-chip at an op
    # where the recorded decisions never brought it back.
    events = list(esched.events)
    ct_fetch_at = next(
        i
        for i, e in enumerate(events)
        if any(not f.startswith("evk:") for f in e.fetched)
    )
    e = events[ct_fetch_at]
    keep = next(f for f in e.fetched if not f.startswith("evk:"))
    events[ct_fetch_at] = replace(e, fetched=[f for f in e.fetched if f != keep])
    equiv_case("equiv-dropped-refill", forged(events), ("EQV-RESIDENCY",))

    # Evicted-evk key switch: the events pretend a key switch ran while
    # its evaluation key was never (re)fetched on-chip.
    events = list(esched.events)
    evk_fetch_at = next(
        i
        for i, e in enumerate(events)
        if any(f.startswith("evk:") for f in e.fetched)
    )
    e = events[evk_fetch_at]
    events[evk_fetch_at] = replace(
        e, fetched=[f for f in e.fetched if not f.startswith("evk:")]
    )
    equiv_case("equiv-evicted-evk-keyswitch", forged(events), ("EQV-EVK",))

    # Hidden spill: an event's spill traffic is zeroed even though its
    # recorded evictions wrote dirty data back.
    events = list(esched.events)
    spill_at = next(
        i for i, e in enumerate(events) if e.spill_bytes > 0
    )
    events[spill_at] = replace(
        events[spill_at], spill_bytes=0.0, writeback_bytes=0.0
    )
    equiv_case("equiv-hidden-spill", forged(events), ("EQV-SPILL",))

    # Phantom refill: the events invent a fetch of a value the op never
    # reads.
    events = list(esched.events)
    e = events[6]
    events[6] = replace(e, fetched=[*e.fetched, "phantom_value"])
    equiv_case("equiv-phantom-refill", forged(events), ("EQV-SPILL",))
    return cases


def secflow_cases() -> list[MutationCase]:
    """Seeded information-flow leaks: each must trip the secflow pass.

    Every case is a surgical source mutation of one shipped module; the
    analyzer re-checks the *whole* default universe with that module
    swapped in, so interprocedural leaks (a helper in one file feeding a
    sink in another) are exercised, not just local ones.
    """
    from repro.check.secflow import check_source, load_default_sources

    sources = load_default_sources()
    cases: list[MutationCase] = []

    def mutate(
        name: str,
        module: str,
        old: str,
        new: str,
        expect: tuple[str, ...],
    ) -> None:
        base = sources[module]
        if old not in base:
            raise AssertionError(
                f"secflow corpus needle missing in {module}: {old!r}"
            )
        mutated = base.replace(old, new)
        cases.append(
            MutationCase(
                name,
                "secflow",
                lambda: check_source(mutated, module),
                expect,
            )
        )

    # Raw secret-key limbs serialized into an ERROR frame by a debug
    # helper — laundering through a helper must still be caught at the
    # wire boundary.
    mutate(
        "secflow-secret-wire",
        "repro.serve.server",
        "    async def _handle(",
        "    def _debug_dump(self, writer, word_bits):\n"
        "        preset = self.offline.preset(word_bits)\n"
        "        blob = wire.encode_poly(\n"
        "            preset.context.keys.secret_poly(preset.params.moduli)\n"
        "        )\n"
        "        wire.write_frame(writer, wire.Kind.ERROR, blob)\n\n"
        "    async def _handle(",
        ("SEC-LEAK",),
    )
    # The client's sampling seed echoed in an exception message.
    mutate(
        "secflow-seed-exception",
        "repro.serve.client",
        'raise RuntimeError("enroll() first")',
        'raise RuntimeError(f"enroll() first (seed={self.seed})")',
        ("SEC-LOG", "SEC-REPR"),
    )
    # Secret coefficients interpolated into a server log line.
    mutate(
        "secflow-secret-log",
        "repro.serve.server",
        '"job admitted job=%s program=%s", job_id, program.digest()',
        '"job admitted job=%s keys=%s", job_id,'
        " preset.context.keys.secret.coeffs",
        ("SEC-LOG",),
    )
    # An allow-listed declassifier lost its annotation.
    mutate(
        "secflow-declassifier-removed",
        "repro.ckks.context",
        '@declassified("RLWE public key: s is masked by a uniform pad'
        ' and fresh noise")\n    ',
        "",
        ("SEC-DECLASSIFY-UNSOUND",),
    )
    # @declassified smuggled onto a helper the allow-list never vetted.
    mutate(
        "secflow-declassifier-rogue",
        "repro.ckks.context",
        "    def secret_poly(",
        '    @declassified("totally fine")\n    def secret_poly(',
        ("SEC-DECLASSIFY-UNSOUND",),
    )
    # An evk digit returned bare: the uniform pad and fresh noise that
    # justify the declassification are gone.
    mutate(
        "secflow-mask-dropped",
        "repro.ckks.context",
        "b_j = -(a_j * s) + e_j + msg",
        "b_j = msg",
        ("SEC-DECLASSIFY-UNSOUND",),
    )
    # make_switch_key ships raw key digits instead of pk-encrypting
    # them — the ceremony's central invariant, violated outside any
    # declassifier body.
    mutate(
        "secflow-raw-evk",
        "repro.ckks.context",
        "digits.append(self.pk_encrypt_poly(msg, target_pk))",
        "digits.append((msg, msg))",
        ("SEC-LEAK",),
    )
    # Pre-encryption plaintext slots echoed into wire-visible job
    # metadata (a TENANT leak, not a SECRET one).
    mutate(
        "secflow-tenant-meta-wire",
        "repro.serve.client",
        'wire.encode_json({"program": program.name}),',
        'wire.encode_json({"program": program.name,'
        ' "preview": list(message)}),',
        ("SEC-LEAK",),
    )
    # Secret coefficients pushed into a metrics series that stats()
    # later serializes.
    mutate(
        "secflow-secret-metrics",
        "repro.serve.server",
        "self.metrics.jobs_admitted += 1",
        "self.metrics.jobs_admitted += 1\n"
        "        self.metrics.total_latency.append("
        "preset.context.keys.secret.coeffs)",
        ("SEC-LEAK",),
    )

    # SecretKey's redacted __repr__ deleted: the generated dataclass
    # repr would print every ternary coefficient.
    base = sources["repro.ckks.context"]
    start = base.index('def __repr__(self) -> str:\n        return f"SecretKey')
    stop = base.index("__str__ = __repr__", start) + len("__str__ = __repr__")
    repr_stripped = base[:start] + base[stop:]
    cases.append(
        MutationCase(
            "secflow-dataclass-repr",
            "secflow",
            lambda: check_source(repr_stripped, "repro.ckks.context"),
            ("SEC-REPR",),
        )
    )
    return cases
