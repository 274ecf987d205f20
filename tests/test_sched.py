"""Tests for the repro.sched scheduling compiler.

Covers liveness analysis, the Belady/LRU scratchpad allocator (unit
behaviour plus Hypothesis properties), operation fusion, and the
simulator integration of :class:`ScheduledTrace`.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import sharp_config
from repro.hw.isa import HeOp, OpKind, Trace
from repro.hw.sim import Simulator
from repro.sched import (
    ScratchpadAllocator,
    analyze_liveness,
    fuse_trace,
    schedule_trace,
)
from repro.workloads.traces import (
    TraceBuilder,
    bootstrap_trace,
    evaluation_traces,
    helr_trace,
)

LIMBS = 8  # fixed limb count -> uniform ciphertext sizes


@pytest.fixture(scope="module")
def sharp():
    return sharp_config()


@pytest.fixture(scope="module")
def setting(sharp):
    return sharp.setting()


def ct_bytes(setting):
    return setting.ciphertext_bytes(LIMBS)


def chain_trace(n=6, kind=OpKind.PMULT):
    """x0 -> t1 -> t2 -> ... (each op consumes the previous value)."""
    ops, cur = [], "x0"
    for i in range(n):
        dst = f"t{i + 1}"
        ops.append(HeOp(kind, LIMBS, dst=dst, srcs=(cur,)))
        cur = dst
    return Trace("chain", ops)


def _live_curve(live, size) -> list:
    """Per op, ``size`` summed over the ciphertexts live across it."""
    delta = [0] * (len(live.trace.ops) + 1)
    for r in live.ranges.values():
        delta[max(r.def_index, 0)] += size(r)
        delta[r.last_use + 1] -= size(r)
    return list(itertools.accumulate(delta))[:-1]


def _peak_live(live) -> int:
    """Most ciphertexts live across any one op."""
    return max(_live_curve(live, lambda r: 1))


class TestLiveness:
    def test_ranges_of_chain(self, setting):
        live = analyze_liveness(chain_trace(4), setting)
        x0 = live.ranges["x0"]
        assert x0.def_index == -1 and x0.uses == (0,)
        t1 = live.ranges["t1"]
        assert t1.def_index == 0 and t1.last_use == 1
        # A chain keeps at most two ciphertexts live across any op.
        assert _peak_live(live) == 2

    def test_rotation_ladder_widens_working_set(self, setting):
        b = TraceBuilder(setting, "ladder")
        b.rotations(8, "ip")
        b.op(OpKind.PMADD, consumes=1)
        live = analyze_liveness(b.build(), setting)
        # input + 8 rotation temps live when the accumulate runs.
        assert _peak_live(live) >= 9

    def test_evk_tracked_separately(self, setting):
        tr = bootstrap_trace(setting)
        live = analyze_liveness(tr, setting)
        assert "evk:mult" in live.evk_ranges
        # Sized at the key's highest use, not at the full chain.
        top = max(op.limbs for op in tr.ops if op.key_id == "mult")
        assert top < setting.max_level
        assert live.evk_ranges["evk:mult"].size_bytes == setting.evk_bytes(
            prng=True, limbs=top
        )

    def test_working_set_matches_fig5_scale(self, setting):
        """Measured peak working set lands where Fig. 5(b) puts it."""
        live = analyze_liveness(bootstrap_trace(setting), setting)
        # The working set of an op: live ciphertexts plus the evk it streams.
        evk = [
            live.evk_ranges[f"evk:{op.key_id}"].size_bytes if op.key_id else 0.0
            for op in live.trace.ops
        ]
        ct_bytes = _live_curve(live, lambda r: r.size_bytes)
        peak_mib = max(map(sum, zip(ct_bytes, evk))) / (1 << 20)
        temps = _peak_live(live)
        assert 4 <= temps <= 16  # the temporary counts Fig. 5(b) plots
        # Peak must exceed RF_main (that is why scheduling exists) but
        # stay within the same order of magnitude.
        assert 150 < peak_mib < 500

    def test_unannotated_trace_rejected(self, setting):
        tr = Trace("bare", [HeOp(OpKind.HADD, LIMBS)])
        with pytest.raises(ValueError, match="SSA"):
            analyze_liveness(tr, setting)

    def test_redefinition_rejected(self, setting):
        tr = Trace(
            "dup",
            [
                HeOp(OpKind.HADD, LIMBS, dst="a", srcs=("x",)),
                HeOp(OpKind.HADD, LIMBS, dst="a", srcs=("x",)),
            ],
        )
        with pytest.raises(ValueError, match="redefined"):
            analyze_liveness(tr, setting)


class TestAllocator:
    def test_everything_fits_no_spill(self, setting):
        tr = chain_trace(10)
        log = ScratchpadAllocator(100 * ct_bytes(setting)).run(tr, setting)
        assert log.spill_bytes == 0
        assert all(e.writeback_bytes == 0 for e in log.events)
        # Only the external input is ever fetched.
        assert sum(e.fetch_bytes for e in log.events) == ct_bytes(setting)
        assert log.hit_rate() > 0.8

    def test_chain_needs_only_two_slots(self, setting):
        """Dead values are freed: a chain runs spill-free in 2 ct slots."""
        log = ScratchpadAllocator(2.5 * ct_bytes(setting)).run(
            chain_trace(20), setting
        )
        assert log.spill_bytes == 0
        assert max(e.occupancy_bytes for e in log.events) <= 2.5 * ct_bytes(setting)

    def test_capacity_pressure_causes_spills(self, setting):
        """Many long-lived values in a tight scratchpad must spill."""
        # fan-out: one producer, many later consumers keep values live
        ops = [HeOp(OpKind.PMULT, LIMBS, dst=f"p{i}", srcs=("x0",)) for i in range(8)]
        ops += [
            HeOp(OpKind.HADD, LIMBS, dst=f"s{i}", srcs=(f"p{i}", f"p{7 - i}"))
            for i in range(8)
        ]
        tr = Trace("fanout", ops)
        log = ScratchpadAllocator(3.2 * ct_bytes(setting)).run(tr, setting)
        assert log.spill_bytes > 0
        assert any(e.evictions for e in log.events)

    def test_belady_beats_lru_on_adversarial_pattern(self, setting):
        """Scanning pattern where recency is the wrong signal."""
        ops = [HeOp(OpKind.PMULT, LIMBS, dst=f"p{i}", srcs=("x0",)) for i in range(4)]
        # Round-robin re-uses: LRU evicts exactly the next value needed.
        for r in range(6):
            for i in range(4):
                ops.append(
                    HeOp(OpKind.PMULT, LIMBS, dst=f"r{r}_{i}", srcs=(f"p{i}",))
                )
        tr = Trace("scan", ops)
        cap = 3.5 * ct_bytes(setting)
        bel = ScratchpadAllocator(cap, "belady").run(tr, setting)
        lru = ScratchpadAllocator(cap, "lru").run(tr, setting)
        assert bel.offchip_bytes < lru.offchip_bytes

    def test_oversized_value_streams(self, setting):
        tr = chain_trace(3)
        log = ScratchpadAllocator(0.5 * ct_bytes(setting)).run(tr, setting)
        # Nothing fits: every value streams through, occupancy stays 0.
        assert all(e.occupancy_bytes == 0 for e in log.events)
        assert log.offchip_bytes > 0

    def test_log_observability(self, setting):
        tr = helr_trace(setting, 256, iterations=1)
        log = ScratchpadAllocator(64 * (1 << 20), "belady").run(tr, setting)
        assert len(log.events) == len(tr.ops)
        assert log.offchip_bytes == pytest.approx(
            sum(e.fetch_bytes + e.writeback_bytes for e in log.events)
        )
        assert log.offchip_bytes > 0
        assert all(e.occupancy_bytes >= 0 for e in log.events)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            ScratchpadAllocator(1.0, "fifo")


# -- Hypothesis: random annotated traces ------------------------------------------


@st.composite
def random_traces(draw, with_keys=False):
    n_ops = draw(st.integers(min_value=5, max_value=40))
    ops = []
    values = ["x0"]
    for i in range(n_ops):
        kind = draw(
            st.sampled_from([OpKind.HADD, OpKind.PMULT, OpKind.PMADD, OpKind.HROT])
        )
        n_src = 2 if kind in (OpKind.HADD, OpKind.PMADD) else 1
        srcs = tuple(
            values[draw(st.integers(min_value=0, max_value=len(values) - 1))]
            for _ in range(n_src)
        )
        key = None
        if with_keys and kind is OpKind.HROT:
            key = f"rot{draw(st.integers(min_value=0, max_value=3))}"
        dst = f"t{i + 1}"
        ops.append(HeOp(kind, LIMBS, key_id=key, dst=dst, srcs=srcs))
        values.append(dst)
    return Trace("random", ops)


class TestProperties:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(tr=random_traces(), slots=st.floats(min_value=1.5, max_value=6.0))
    def test_belady_traffic_never_worse_than_lru(self, tr, slots, setting):
        """Belady's off-chip (and evicted) bytes <= LRU's, any trace."""
        cap = slots * ct_bytes(setting)
        bel = ScratchpadAllocator(cap, "belady").run(tr, setting)
        lru = ScratchpadAllocator(cap, "lru").run(tr, setting)
        # Note: only *total* traffic is compared.  Belady's writeback
        # component alone can exceed LRU's (it may evict a dirty value
        # with a distant use where LRU evicts a clean one), but the
        # fetches that choice saves always pay for the writeback.
        assert bel.offchip_bytes <= lru.offchip_bytes + 1e-6

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(tr=random_traces(with_keys=True), slots=st.floats(min_value=2.0, max_value=8.0))
    def test_belady_holds_with_evk_pressure(self, tr, slots, setting):
        """Same property with evks sharing the capacity budget."""
        cap = slots * ct_bytes(setting) + setting.evk_bytes(prng=True)
        bel = ScratchpadAllocator(cap, "belady").run(tr, setting)
        lru = ScratchpadAllocator(cap, "lru").run(tr, setting)
        assert bel.offchip_bytes <= lru.offchip_bytes + 1e-6

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(tr=random_traces(with_keys=True))
    def test_schedule_is_deterministic(self, tr, setting):
        cap = 4 * ct_bytes(setting) + setting.evk_bytes(prng=True)
        for policy in ("belady", "lru"):
            a = ScratchpadAllocator(cap, policy).run(tr, setting)
            b = ScratchpadAllocator(cap, policy).run(tr, setting)
            assert a.signature() == b.signature()


def _add(a, b):
    return OpKind.HADD, (a, b), None


def _rot(a, key):
    return OpKind.HROT, (a,), key


class TestMixedSizeWitness:
    @pytest.mark.xfail(strict=True, reason="ROADMAP 14")
    def test_belady_not_worse_than_lru_on_evk_witness(self, setting):
        """Fixed 24-op trace with rotation keys at 6 ciphertext slots.

        Next-use MIN is optimal only when every block has one size; here
        Belady moves 31 850 496 off-chip bytes against LRU's 28 311 552.
        """
        x = "x0"
        rows = [
            _add(x, x), _add(x, x), _add(x, x), _rot(x, "rot3"),
            _add(x, x), _add(x, x), _add(x, x), _rot(x, "rot1"),
            _add(x, x), _add(x, x), _add(x, x), _add(x, x),
            _add(x, x), _add(x, x), _add(x, "t1"), _rot("t2", "rot0"),
            _add(x, "t5"), _add("t8", "t9"), _rot("t11", "rot3"), _add("t7", x),
            _add(x, "t1"), _add("t4", "t6"), _rot("t10", "rot1"),
            (OpKind.PMULT, (x,), None),
        ]
        ops = [
            HeOp(kind, LIMBS, key_id=key, dst=f"t{i + 1}", srcs=srcs)
            for i, (kind, srcs, key) in enumerate(rows)
        ]
        tr = Trace("evk_witness", ops)
        cap = 6.0 * ct_bytes(setting) + setting.evk_bytes(prng=True)
        bel = ScratchpadAllocator(cap, "belady").run(tr, setting)
        lru = ScratchpadAllocator(cap, "lru").run(tr, setting)
        assert bel.offchip_bytes <= lru.offchip_bytes


class TestDeterminism:
    def test_evaluation_trace_schedules_identically(self, sharp, setting):
        """Same trace, same config -> byte-identical event log."""
        sim = Simulator(sharp)
        tr = evaluation_traces(setting)["helr256"]
        first = sim.schedule(tr, "belady")
        second = sim.schedule(tr, "belady")
        assert first.log.signature() == second.log.signature()

    def test_regenerated_trace_schedules_identically(self, sharp, setting):
        """Trace generators are deterministic end to end."""
        sim = Simulator(sharp)
        a = sim.schedule(helr_trace(setting, 256), "belady")
        b = sim.schedule(helr_trace(setting, 256), "belady")
        assert a.log.signature() == b.log.signature()


class TestFusion:
    def test_rescale_folding(self, setting):
        tr = helr_trace(setting, 256, iterations=1, explicit_rescale=True)
        fused, report = fuse_trace(tr)
        assert report.rescales_folded > 0
        assert report.after_ops < report.before_ops
        assert report.after_count < report.before_count
        # No standalone rescale survives whose producer could absorb it.
        assert fused.annotated

    def test_pmadd_formation(self, setting):
        ops = [
            HeOp(OpKind.PMULT, LIMBS, dst="p", srcs=("x0",)),
            HeOp(OpKind.HADD, LIMBS, dst="s", srcs=("p", "acc")),
        ]
        fused, report = fuse_trace(Trace("mad", ops))
        assert report.pmadds_formed == 1
        assert len(fused.ops) == 1
        op = fused.ops[0]
        assert op.kind is OpKind.PMADD
        assert op.dst == "s" and set(op.srcs) == {"x0", "acc"}

    def test_fusion_preserves_dataflow(self, setting):
        """The fused trace still liveness-checks and schedules."""
        tr = evaluation_traces(setting, explicit_rescale=True)["sorting"]
        fused, report = fuse_trace(tr)
        live = analyze_liveness(fused, setting)  # raises on broken SSA
        assert _peak_live(live) >= 2
        assert report.pmadds_formed > 0

    def test_fusion_never_fires_on_multi_use_values(self, setting):
        ops = [
            HeOp(OpKind.PMULT, LIMBS, dst="p", srcs=("x0",)),
            HeOp(OpKind.HADD, LIMBS, dst="s", srcs=("p", "acc")),
            HeOp(OpKind.HADD, LIMBS, dst="u", srcs=("p", "s")),  # p reused
        ]
        _, report = fuse_trace(Trace("reuse", ops))
        assert report.pmadds_formed == 0

    def test_unannotated_rejected(self):
        with pytest.raises(ValueError, match="SSA"):
            fuse_trace(Trace("bare", [HeOp(OpKind.HADD, LIMBS)]))


class TestSimulatorIntegration:
    def test_scheduled_result_uses_allocator_bytes(self, sharp, setting):
        sim = Simulator(sharp)
        tr = evaluation_traces(setting)["bootstrap"]
        sched = sim.schedule(tr, "belady")
        res = sim.run(sched)
        assert res.schedule_policy == "belady"
        assert res.offchip_bytes == pytest.approx(sched.log.offchip_bytes)
        assert res.spill_bytes == pytest.approx(sched.log.spill_bytes)

    def test_plain_trace_is_scheduled_then_priced(self, sharp, setting):
        """One path: run(trace) is run(schedule(trace)), field for field."""
        sim = Simulator(sharp)
        tr = evaluation_traces(setting)["helr256"]
        assert sim.run(tr) == sim.run(sim.schedule(tr))

    def test_unannotated_trace_rejected_by_run(self, sharp):
        tr = Trace("bare", [HeOp(OpKind.HADD, LIMBS)])
        with pytest.raises(ValueError, match="SSA"):
            Simulator(sharp).run(tr)

    def test_schedule_trace_function_fuses(self, sharp, setting):
        tr = helr_trace(setting, 256, iterations=1, explicit_rescale=True)
        sched = schedule_trace(
            tr,
            setting,
            capacity_bytes=sharp.onchip_capacity_bytes,
            policy="belady",
            fuse=True,
        )
        assert sched.fusion is not None
        assert sched.fusion.rescales_folded > 0
        assert len(sched.log.events) == len(sched.trace.ops)
