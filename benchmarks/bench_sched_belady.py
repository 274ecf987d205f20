"""S5 memory techniques — Belady vs LRU scheduling and operation fusion.

Paper anchors: SHARP fits FHE in 180+18 MB on-chip because the
compiler schedules data with Belady's MIN policy (observation (10)),
fuses operations (PMADD, trailing rescales), and shapes BSGS to the
capacity.  This bench quantifies the first two with the repro.sched
pipeline: off-chip traffic under Belady vs the LRU baseline at the
SHARP scratchpad and at a constrained 96 MiB sweep point, and the
scheduled-op savings of the fusion pass on every evaluation workload.
"""

from conftest import print_table

from repro.core.config import sharp_config
from repro.hw.sim import Simulator
from repro.sched import fuse_trace, schedule_trace
from repro.workloads.traces import evaluation_traces

MIB = 1 << 20
GB = 1e9


def test_belady_vs_lru_traffic(benchmark, sharp_setting):
    """Off-chip traffic gap between Belady and LRU eviction."""
    config = sharp_config()
    traces = evaluation_traces(sharp_setting)

    benchmark(
        schedule_trace,
        traces["bootstrap"],
        sharp_setting,
        capacity_bytes=config.onchip_capacity_bytes,
        policy="belady",
    )

    rows = []
    for capacity_mib in (198, 96):
        capacity = capacity_mib * MIB
        for name, tr in traces.items():
            sched = {
                policy: schedule_trace(
                    tr, sharp_setting, capacity_bytes=capacity, policy=policy
                )
                for policy in ("belady", "lru")
            }
            bel, lru = sched["belady"], sched["lru"]
            gap = (lru.offchip_bytes - bel.offchip_bytes) / max(lru.offchip_bytes, 1)
            rows.append(
                [
                    f"{capacity_mib} MiB",
                    name,
                    f"{bel.offchip_bytes / GB:.2f}",
                    f"{lru.offchip_bytes / GB:.2f}",
                    f"{100 * gap:.1f}%",
                    f"{bel.hit_rate() * 100:.1f}%",
                    f"{bel.spill_bytes / GB:.3f}",
                ]
            )
            # The acceptance bar: Belady never moves more bytes.
            assert bel.offchip_bytes <= lru.offchip_bytes
    print_table(
        "S5: off-chip traffic, Belady vs LRU (GB; spill = dirty evictions)",
        ["capacity", "workload", "belady", "lru", "saved", "hit rate", "spill"],
        rows,
    )


def test_fusion_savings(benchmark, sharp_setting):
    """Operation fusion: scheduled-op savings per workload."""
    unfused = evaluation_traces(sharp_setting, explicit_rescale=True)
    benchmark(fuse_trace, unfused["bootstrap"])

    rows = []
    for name, tr in unfused.items():
        fused, rep = fuse_trace(tr)
        rows.append(
            [
                name,
                rep.before_ops,
                rep.after_ops,
                f"{100 * (1 - rep.after_ops / rep.before_ops):.1f}%",
                rep.rescales_folded,
                rep.pmadds_formed,
            ]
        )
        assert rep.after_ops < rep.before_ops
        assert rep.after_count < rep.before_count
    print_table(
        "S5: operation fusion savings (scheduled trace entries)",
        ["workload", "ops before", "ops after", "saved", "rescales folded", "pmadds"],
        rows,
    )


def test_scheduled_simulation(benchmark, sharp_setting):
    """Simulator consumes the schedule: spill comes from events."""
    config = sharp_config()
    sim = Simulator(config)
    traces = evaluation_traces(sharp_setting)

    rows = []
    for name, tr in traces.items():
        sched = sim.schedule(tr)
        res = benchmark(sim.run, sched) if name == "bootstrap" else sim.run(sched)
        assert res.spill_bytes == sched.spill_bytes  # allocator-attributed
        by_kind: dict = {}  # spill bytes per op kind: who caused the traffic
        for e in sched.events:
            if e.spill_bytes:
                by_kind[e.kind] = by_kind.get(e.kind, 0.0) + e.spill_bytes
        top = max(by_kind, key=by_kind.get).value if by_kind else "-"
        rows.append(
            [
                name,
                f"{res.seconds * 1e3 / tr.normalize:.2f}",
                f"{res.offchip_bytes / GB:.2f}",
                f"{res.spill_bytes / GB:.3f}",
                top,
            ]
        )
    print_table(
        "Scheduled simulation on SHARP (ms/unit; traffic GB)",
        ["workload", "ms", "offchip", "spill", "top spiller"],
        rows,
    )
