"""Every quantitative claim of the paper next to the model's value, once.

Each section below derives the rows of one figure or table: the
paper's value, the model's value at the precision the paper reports,
and the check the model must pass (a tolerance, a bound or a
direction; rows with no check only print).  ``paper_rows()`` is every
row of every section, in order.

``python -m repro.analysis.paper_rows`` writes them to ``PAPER_ROWS.md``
in the current directory, one row per line, and exits 1 naming every
row whose check fails.  The file is committed, so a change that moves
the model shows as the diff of the rows it moved.

No row comes from an evaluation trace that fails ``verify_trace``, or
whose fused schedule fails ``certify_schedule``: the traces pass both
before anything is simulated.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from repro.analysis.bsgs import plan_bsgs
from repro.analysis.published import (
    PAPER_GMEAN_SPEEDUP,
    PAPER_PERF_PER_AREA_GAIN,
    PAPER_PERF_PER_WATT_GAIN,
    PRIOR_ACCELERATORS,
    SHARP_8C_AREA_MM2,
    SHARP_AREA_MM2,
    SHARP_AVG_POWER_W,
    baseline_runtime,
)
from repro.analysis.workingset import fig5_data
from repro.check import certify_schedule, verify_trace
from repro.check.wordlen_audit import scale_audit
from repro.ckks.noise import NoiseModel
from repro.core.alu_model import area_ratio_64_to_28, power_ratio_64_to_28, scaling_table
from repro.core.config import (
    AcceleratorConfig,
    ark36_config,
    sharp28_config,
    sharp64_config,
    sharp_8cluster_config,
    sharp_config,
)
from repro.core.efficiency import best_word_length, efficiency_sweep
from repro.core.opcount import hmult_counts, weighted_ops, workload_counts
from repro.hw.area import chip_area
from repro.hw.isa import HeOp, OpKind, Trace
from repro.hw.lowering import OpLowering
from repro.hw.sim import SimulationResult, Simulator
from repro.ntt.tenstep import flat_nttu_dataflow, hierarchical_nttu_dataflow
from repro.params.presets import build_setting, build_sharp_setting
from repro.sched import fuse_trace, schedule_trace
from repro.workloads.datasets import make_cifar_like, make_mnist_like
from repro.workloads.helr import train_noisy, train_plain
from repro.workloads.resnet import noisy_inference, train_plain_cnn
from repro.workloads.sorting import noisy_bitonic_sort
from repro.workloads.traces import evaluation_traces

__all__ = ["Row", "SECTIONS", "paper_rows", "render", "main"]

MIB = 1 << 20
GB = 1e9
WORKLOADS = ("bootstrap", "helr256", "helr1024", "resnet20", "sorting")
SWEEP_WORDS = (28, 32, 36, 48, 64)
# (normal scale bits, boot scale bits): Table 2's SS / DS pairs, and the
# paper's fresh and bootstrapped precision at each (bits).
SCALE_POINTS = [(27, 55), (29, 59), (31, 60), (33, 62), (35, 62), (37, 64), (39, 64)]
PAPER_FRESH = [14.19, 16.32, 18.44, 20.34, 22.39, 24.43, 26.43]
PAPER_BOOT = [13.37, 14.86, 17.28, 19.29, 21.86, 23.78, 25.50]
UNCHECKED = ("", True)


@dataclass(frozen=True)
class Row:
    """One paper claim: where it is, what the paper and the model say,
    and what the model is checked against ("" when nothing is)."""

    figure: str
    name: str
    paper: str
    model: str
    check: str = ""
    ok: bool = True

    def line(self) -> str:
        check = self.check or "—"
        if not self.ok:
            check += " **FAILS**"
        return f"| {self.figure} | {self.name} | {self.paper} | {self.model} | {check} |"


def near(value: float, target: float, tol: float) -> tuple[str, bool]:
    return f"{target:g} ± {tol:g}", abs(value - target) < tol


def between(value: float, low: float, high: float) -> tuple[str, bool]:
    return f"{low:g} – {high:g}", low < value < high


def above(value: float, bound: float) -> tuple[str, bool]:
    return f"> {bound:g}", value > bound


def below(value: float, bound: float) -> tuple[str, bool]:
    return f"< {bound:g}", value < bound


def gmean(values: Iterable[float]) -> float:
    logs = [math.log(v) for v in values]
    return math.exp(sum(logs) / len(logs))


@cache
def certified_traces(word_bits: int, explicit_rescale: bool = False) -> dict[str, Trace]:
    """The five evaluation traces at ``word_bits``, each verified and
    its fused schedule at SHARP's capacity certified (``EquivError``
    otherwise): numbers from a malformed trace are worse than none."""
    setting = build_sharp_setting(word_bits)
    capacity = sharp_config().onchip_capacity_bytes
    traces = evaluation_traces(setting, explicit_rescale=explicit_rescale)
    for name, trace in traces.items():
        report = verify_trace(trace, setting)
        if not report.ok:
            raise ValueError(f"trace {name!r} fails verification:\n{report.render()}")
        certify_schedule(trace, schedule_trace(trace, setting, capacity, fuse=True), setting)
    return traces


@cache
def simulate(config: AcceleratorConfig) -> dict[str, SimulationResult]:
    sim = Simulator(config)
    return {name: sim.run(trace) for name, trace in certified_traces(config.word_bits).items()}


# The four figures of merit of Figs. 7 and 8, in their order.
METRICS: dict[str, Callable[[SimulationResult], float]] = {
    "delay": lambda r: r.seconds,
    "energy": lambda r: r.energy_j,
    "EDP": lambda r: r.edp,
    "EDAP": lambda r: r.edap,
}


def relative(
    results: dict[str, SimulationResult],
    base: dict[str, SimulationResult],
    metric: Callable[[SimulationResult], float],
) -> list[float]:
    return [metric(results[w]) / metric(base[w]) for w in WORKLOADS]


# -- Fig. 2 / Fig. 3: the word-length analysis --------------------------------


def fig2a() -> Iterator[Row]:
    for r in scaling_table():
        yield Row(
            "Fig. 2(a)",
            f"{r['word_bits']:.0f}-bit ALU / 28-bit mult: area mult / Mont / Barr, "
            "power mult / Barr",
            "—",
            f"{r['area_mult']:.2f} / {r['area_montgomery']:.2f} / {r['area_barrett']:.2f}, "
            f"{r['power_mult']:.2f} / {r['power_barrett']:.2f}",
        )
    area, power = area_ratio_64_to_28(), power_ratio_64_to_28()
    for name, ratio, paper in (("area", area, 5.01), ("power", power, 5.37)):
        yield Row(
            "Fig. 2(a)", f"64b / 28b ALU {name}, gmean", f"{paper}×", f"{ratio:.2f}×",
            *near(ratio, paper, 0.05),
        )


def fig2b() -> Iterator[Row]:
    paper_leff = {28: 6, 32: 5, 36: 8, 48: 8, 64: 7}
    for w in SWEEP_WORDS:
        s = build_sharp_setting(w)
        yield Row(
            "Fig. 2(b)",
            f"Set_{w} primes base / SS / DS, L, K",
            "— / 11 / —, 35, 12" if w == 36 else "—",
            f"{s.base_prime_count} / {s.ss_prime_count} / {s.ds_prime_count}, "
            f"{s.max_level}, {s.k}",
        )
        yield Row(
            "Fig. 2(b)", f"Set_{w} L_eff", str(paper_leff[w]), str(s.l_eff),
            "= paper", s.l_eff == paper_leff[w],
        )


def fig2c() -> Iterator[Row]:
    paper_ops = {("narrow", 28): "1.95×", ("wide", 28): "1.73×"}
    paper_bconv = {("narrow", 28): "30%", ("narrow", 36): "27%", ("narrow", 64): "20%"}
    bands = {"narrow": (1.6, 2.3), "wide": (1.4, 2.1)}
    for label, hmults in (("narrow", 1), ("wide", 30)):
        ops: dict[int, float] = {}
        bconv: dict[int, float] = {}
        for w in SWEEP_WORDS:
            s = build_sharp_setting(w)
            counts = workload_counts(s, hmults)
            ops[w] = weighted_ops(counts, w) / s.l_eff
            bconv[w] = counts.share("bconv_muls")
        for w in SWEEP_WORDS:
            ratio = ops[w] / ops[36]
            check = between(ratio, *bands[label]) if w == 28 else UNCHECKED
            yield Row(
                "Fig. 2(c)", f"{label}: Set_{w} / Set_36 weighted ops per level",
                paper_ops.get((label, w), "—"), f"{ratio:.2f}×", *check,
            )
        for w in SWEEP_WORDS:
            yield Row(
                "Fig. 2(c)", f"{label}: Set_{w} BConv share of multiplications",
                paper_bconv.get((label, w), "—"), f"{bconv[w] * 100:.0f}%",
            )
        yield Row(
            "Fig. 2(c)", f"{label}: Set_28 / Set_64 weighted ops per level",
            {"narrow": "2.59×", "wide": "2.38×"}[label], f"{ops[28] / ops[64]:.2f}×",
        )


def fig3() -> Iterator[Row]:
    paper = {
        ("narrow", 28): "1.15 / 1.19 / 1.37",
        ("wide", 28): "1.03 / 1.03 / 1.06",
        ("narrow", 64): "2.37 / 2.31 / 5.47",
    }
    for workload in ("narrow", "wide"):
        points = efficiency_sweep(workload)
        ref = next(p for p in points if p.word_bits == 36)
        for p in points:
            yield Row(
                "Fig. 3", f"{workload}: Set_{p.word_bits} / Set_36 energy / delay / EDP",
                paper.get((workload, p.word_bits), "—"),
                f"{p.energy / ref.energy:.2f} / {p.delay / ref.delay:.2f} / {p.edp / ref.edp:.2f}",
            )
        best = best_word_length(workload)
        yield Row(
            "Fig. 3", f"{workload}: EDP-minimising word length", "36", str(best),
            "= 36", best == 36,
        )


# -- Table 2 / Fig. 1: functionality against the scale ------------------------


def table2_precision() -> Iterator[Row]:
    for (bits, boot), pf, pb in zip(SCALE_POINTS, PAPER_FRESH, PAPER_BOOT):
        m = NoiseModel(bits, boot)
        fresh, booted = -math.log2(m.fresh_std), -math.log2(m.boot_std)
        yield Row(
            "Table 2", f"fresh precision at 2^{bits} (bits)", f"{pf:.2f}", f"{fresh:.2f}",
            *near(fresh, pf, 1.2),
        )
        yield Row(
            "Table 2", f"bootstrapped precision at 2^{bits} (bits)", f"{pb:.2f}", f"{booted:.2f}",
            *near(booted, pb, 2.2),
        )


def table2_helr() -> Iterator[Row]:
    paper = ["50.58%", "90.01%", "95.24%", "95.76%", "95.88%"]
    data = make_mnist_like(separation=0.75)
    ref = train_plain(data)
    yield Row("Fig. 1", "HELR accuracy, FP64", "96.37%", f"{ref.final_accuracy * 100:.2f}%")
    for (bits, boot), p in zip(SCALE_POINTS[:5], paper):
        acc = train_noisy(data, bits, boot).final_accuracy * 100
        check = {27: below(acc, 70), 31: above(acc, 90), 35: above(acc, 90)}.get(bits, UNCHECKED)
        yield Row("Fig. 1", f"HELR accuracy at 2^{bits}, 32 iterations", p, f"{acc:.2f}%", *check)


def table2_resnet() -> Iterator[Row]:
    paper = ["10.37%", "9.97%", "10.87%", "89.53%", "91.90%"]
    data = make_cifar_like()
    net, clean = train_plain_cnn(data)
    yield Row("Table 2", "ResNet-20 stand-in accuracy, clean", "92.18% (FP32)", f"{clean:.2%}")
    for (bits, boot), p in zip(SCALE_POINTS[:5], paper):
        acc = noisy_inference(net, data, bits, boot, samples=300).accuracy * 100
        check = {27: below(acc, 30), 29: below(acc, 30), 35: above(acc, 60)}.get(bits, UNCHECKED)
        yield Row("Table 2", f"ResNet-20 stand-in accuracy at 2^{bits}", p, f"{acc:.2f}%", *check)


def table2_sorting() -> Iterator[Row]:
    paper = ["5.2e+75", "4.4e-4", "1.4e-4", "2.9e-5", "8.0e-6"]
    values = np.random.default_rng(1).uniform(0, 1, 1 << 12)
    with np.errstate(over="ignore", invalid="ignore"):  # the 2^27 explosion overflows
        results = {bits: noisy_bitonic_sort(values, bits, boot) for bits, boot in SCALE_POINTS[:5]}
    for (bits, _), p in zip(SCALE_POINTS[:5], paper):
        r = results[bits]
        check = {
            27: ("explodes", r.exploded),
            31: ("no explosion", not r.exploded),
            35: ("≤ the error at 2^29", r.max_error <= results[29].max_error),
        }.get(bits, UNCHECKED)
        yield Row("Table 2", f"sorting max error at 2^{bits}", p, f"{r.max_error:.2e}", *check)


def table2_static() -> Iterator[Row]:
    """``repro.check.wordlen_audit``'s proven floors: the twin of the
    rows above, with no encryption executed."""
    # Where the empirical rows put the cliffs: all explode at 2^27,
    # HELR / sorting recover at 2^29, ResNet-20 only at 2^33.
    explodes = {(27, "helr"), (27, "resnet20"), (27, "sorting"), (29, "resnet20"), (31, "resnet20")}
    survives = {(29, "helr"), (29, "sorting"), (33, "resnet20")}
    for (bits, boot), pb in zip(SCALE_POINTS, PAPER_BOOT):
        entries = {e.workload: e for e in scale_audit(float(bits), float(boot))}
        for workload in ("helr", "resnet20", "sorting", "bootstrapping"):
            e = entries[workload]
            floor = "explosion" if e.exploded else f"{e.mean_floor_bits:.2f}"
            paper, check = "—", UNCHECKED
            if (bits, workload) in explodes:
                check = ("explodes", e.exploded)
            elif (bits, workload) in survives:
                check = ("no explosion", not e.exploded)
            elif workload == "bootstrapping":
                paper = f"{pb:.2f}"
                if bits >= 29:
                    check = near(e.mean_floor_bits, pb, 1.5)
            name = f"static {workload} mean floor at 2^{bits} (bits)"
            yield Row("Table 2", name, paper, floor, *check)


# -- Table 3 / §4.2: the EWE and the ten-step NTTU ----------------------------

# Table 3: instruction -> (multiplications, additions) per element; the
# EWE datapath offers 4 multipliers and 2 adders.
EWE_INSTRUCTIONS = {
    "Tensor": (4, 1),  # D0=BB', D1=AB'+A'B, D2=AA'
    "AccQ": (4, 2),  # E0=D2*Bk+c*D0, E1=D2*Ak+c*D1
    "AccP": (2, 2),  # E0=D2*Bk+D0, E1=D2*Ak+D1
    "ModD": (2, 1),  # D0=c*B-c*B'
    "MAD": (4, 2),  # D0=P*B+c*B', D1=P*A+c*A'
}


def table3() -> Iterator[Row]:
    for name, (mults, adds) in EWE_INSTRUCTIONS.items():
        yield Row(
            "Table 3", f"EWE {name}: mults / adds per element", "fits", f"{mults} / {adds}",
            "≤ 4 / 2", mults <= 4 and adds <= 2,
        )


def nttu_dataflow() -> Iterator[Row]:
    flat, hier = flat_nttu_dataflow(256, 65536), hierarchical_nttu_dataflow(256, 65536)
    cut = flat.bisection_words_per_cycle / hier.bisection_words_per_cycle
    yield Row(
        "§4.2", "NTTU horizontal bisection, flat → ten-step (words / cycle)", "768 → 128",
        f"{flat.bisection_words_per_cycle} → {hier.bisection_words_per_cycle}",
        "6× cut", cut == 6.0,
    )
    local = hier.horizontal_wire_length - hier.semi_global_wire_length
    yield Row(
        "§4.2", "horizontal wire length, flat → ten-step", "—",
        f"{flat.horizontal_wire_length} → {hier.horizontal_wire_length}",
    )
    yield Row(
        "§4.2", "horizontal wiring, flat / ten-step local networks", "9.17×",
        f"{flat.horizontal_wire_length / local:.1f}×",
    )


# -- Fig. 5: complexity and working set ---------------------------------------


def fig5() -> Iterator[Row]:
    setting = build_sharp_setting(36)
    data = fig5_data(setting)
    points = data["points"]
    for p in points[::4]:
        yield Row(
            "Fig. 5(a)", f"HMult work at {p.limbs} limbs: NTT / BConv / element-wise", "—",
            f"{p.ntt_share * 100:.0f}% / {p.bconv_share * 100:.0f}% / "
            f"{p.elementwise_share * 100:.0f}%",
        )
    ntt = min(p.ntt_share for p in points) * 100
    yield Row(
        "Fig. 5(a)", "NTT share of HMult, lowest over levels", "dominant", f"{ntt:.0f}%",
        *above(ntt, 35),
    )
    bconv = [p.bconv_share for p in points]
    swing = max(bconv) / min(bconv)
    yield Row(
        "Fig. 5(a)", "BConv share of HMult, highest / lowest level", "fluctuates",
        f"{swing:.2f}×", *above(swing, 1.5),
    )
    for p in points[::4]:
        ws = p.working_set_mib
        yield Row(
            "Fig. 5(b)", f"working set at {p.limbs} limbs (MiB): ct / 4 / 8 / 16 cts", "—",
            f"{p.ciphertext_mib:.1f} / {ws[4]:.0f} / {ws[8]:.0f} / {ws[16]:.0f}",
        )
    ct, evk = data["max_ciphertext_mib"], data["evk_mib"]
    yield Row("Fig. 5(b)", "max-level ciphertext", "19.7 MB", f"{ct:.1f} MiB", *near(ct, 19.7, 0.3))
    yield Row("Fig. 5(b)", "evk with PRNG", "40.3 MB", f"{evk:.1f} MiB", *near(evk, 40.3, 1.5))
    binding = data["binding_limbs"]
    lowest = min(binding) if binding else 0
    yield Row(
        "Fig. 5(b)", "fewest limbs at which 16 temporaries overflow 180 MiB",
        "high levels only", str(lowest), *above(lowest, setting.max_level // 3),
    )


# -- Fig. 6 / Table 4: SHARP against prior accelerators -----------------------


def fig6() -> Iterator[Row]:
    config = sharp_config()
    results, traces = simulate(config), certified_traces(config.word_bits)
    for name in WORKLOADS:
        t = results[name].seconds / traces[name].normalize
        baselines = " / ".join(
            f"{baseline_runtime(acc, name, t) * 1e3:.2f}" for acc in ("BTS", "CLake+", "ARK")
        )
        yield Row(
            "Fig. 6(a)", f"{name} runtime (ms): SHARP / BTS / CLake+ / ARK at reported ratios",
            "—", f"{t * 1e3:.3f} / {baselines}",
        )
    area = chip_area(config)
    power = [results[n].power_w for n in WORKLOADS]
    avg_power = gmean(power)
    for acc_name, acc in PRIOR_ACCELERATORS.items():
        speedup = gmean(acc.speedup_by_workload[w] for w in WORKLOADS)
        yield Row(
            "Fig. 6(a)", f"gmean speedup over {acc_name}",
            f"{PAPER_GMEAN_SPEEDUP[acc_name]}×", f"{speedup:.2f}×",
        )
        yield Row(
            "Fig. 6(a)", f"perf / area over {acc_name}",
            f"{PAPER_PERF_PER_AREA_GAIN[acc_name]}×",
            f"{speedup * acc.area_mm2 / area.total:.1f}×",
        )
        yield Row(
            "Fig. 6(a)", f"perf / W over {acc_name}",
            f"{PAPER_PERF_PER_WATT_GAIN[acc_name]}×",
            f"{speedup * acc.avg_power_w / avg_power:.1f}×",
        )
    yield Row(
        "Fig. 6(b)", "SHARP power, gmean over workloads", f"{SHARP_AVG_POWER_W} W",
        f"{avg_power:.1f} W", *below(avg_power, 98),
    )
    yield Row(
        "Fig. 6(b)", "SHARP power, highest workload", "< 98 W", f"{max(power):.1f} W",
        *below(max(power), 98),
    )
    yield Row(
        "Fig. 6(b)", "SHARP die area", f"{SHARP_AREA_MM2} mm²", f"{area.total:.1f} mm²",
        *near(area.total, SHARP_AREA_MM2, 8),
    )
    memory = area.memory_fraction * 100
    yield Row(
        "Fig. 6(b)", "RF + HBM PHY share of the die", "66%", f"{memory:.0f}%", *near(memory, 66, 4)
    )
    for component, mm2 in area.as_dict().items():
        if component != "total":
            yield Row("Fig. 6(b)", f"area of {component}", "—", f"{mm2:.1f} mm²")
    util = {
        fu: gmean(max(results[n].utilization[fu], 1e-4) for n in WORKLOADS) * 100
        for fu in ("nttu", "bconvu", "ewe", "autou", "dsu")
    }
    paper_util = {"nttu": "69%", "bconvu": "26%"}
    for fu, u in util.items():
        check = between(u, 30, 85) if fu == "nttu" else UNCHECKED
        yield Row(
            "Fig. 6(b)", f"{fu} utilization, gmean", paper_util.get(fu, "—"), f"{u:.0f}%", *check
        )
    yield Row(
        "Fig. 6(b)", "utilization order nttu > bconvu > dsu", "holds",
        f"{util['nttu']:.0f}% > {util['bconvu']:.0f}% > {util['dsu']:.0f}%",
        "holds", util["nttu"] > util["bconvu"] > util["dsu"],
    )


def table4() -> Iterator[Row]:
    cfg = sharp_config()
    setting = cfg.setting()
    for name, paper, model in (
        ("word length", "36-bit", f"{cfg.word_bits}-bit"),
        ("lanes", "1024", str(cfg.total_lanes)),
        ("on-chip capacity", "198 MB", f"{cfg.onchip_capacity_bytes / MIB:.0f} MiB"),
        ("NTTU throughput", "1024 w/c", f"{cfg.nttu_words_per_cycle:.0f} w/c"),
        ("BConvU", "2x8", f"2x8 systolic ({cfg.bconv_macs_per_lane} MAC/lane)"),
        ("EWE", "4 & 2", f"{cfg.ew_mults_per_lane} mult & {cfg.ew_adds_per_lane} add/lane"),
        ("L / K / dnum", "35/12/3", f"{setting.max_level}/{setting.k}/{setting.dnum}"),
    ):
        yield Row("Table 4", f"SHARP {name}", paper, model)


# -- Fig. 7 / Fig. 8: word-length variants and the feature ablation -----------


def fig7() -> Iterator[Row]:
    base = simulate(sharp_config())
    paper = {
        ("SHARP_28", "delay"): "1.64–1.87×", ("SHARP_28", "EDP"): "2.04–2.69×",
        ("SHARP_28", "EDAP"): "1.68–2.21×", ("SHARP_64", "delay"): "0.95–1.21×",
        ("SHARP_64", "EDP"): "1.69–2.80×", ("SHARP_64", "EDAP"): "2.95–4.88×",
    }
    bounds = {("SHARP_28", "EDP"): 1.4, ("SHARP_64", "EDP"): 1.4, ("SHARP_64", "EDAP"): 2.0}
    for config in (sharp28_config(), sharp64_config()):
        results = simulate(config)
        ratios = {m: relative(results, base, f) for m, f in METRICS.items()}
        for i, w in enumerate(WORKLOADS):
            yield Row(
                "Fig. 7", f"{config.name} / SHARP_36 on {w}: delay / energy / EDP / EDAP", "—",
                " / ".join(f"{ratios[m][i]:.2f}×" for m in METRICS),
            )
        for m, values in ratios.items():
            g = gmean(values)
            bound = bounds.get((config.name, m))
            yield Row(
                "Fig. 7", f"{config.name} / SHARP_36 {m}, gmean (range)",
                paper.get((config.name, m), "—"),
                f"{g:.2f}× ({min(values):.2f}–{max(values):.2f})",
                *(above(g, bound) if bound is not None else UNCHECKED),
            )
    a28, a64 = chip_area(sharp28_config()).total, chip_area(sharp64_config()).total
    yield Row("Fig. 7", "SHARP_28 die area", "147.0 mm²", f"{a28:.1f} mm²")
    yield Row("Fig. 7", "SHARP_64 / SHARP_28 die area", "2.12×", f"{a64 / a28:.2f}×")


def fig8() -> Iterator[Row]:
    ark180 = ark36_config(180)
    steps = {
        "ARK36-180": ark180,
        "+Hierarchy": ark180.with_features(hierarchical_nttu=True),
        "+2D-BConv": ark180.with_features(
            hierarchical_nttu=True, two_d_bconv=True, bconv_macs_per_lane=16
        ),
        "+EWE": ark180.with_features(
            hierarchical_nttu=True, two_d_bconv=True, bconv_macs_per_lane=16,
            ewe=True, ew_mults_per_lane=4,
        ),
        "SHARP": sharp_config(),
        "ARK36-512": ark36_config(512),
        "8-cluster": sharp_8cluster_config(),
    }
    data = {name: simulate(config) for name, config in steps.items()}
    base = data["ARK36-180"]
    for name, results in data.items():
        delay, energy, edp, edap = (gmean(relative(results, base, f)) for f in METRICS.values())
        yield Row(
            "Fig. 8", f"{name} / ARK36-180: delay / energy / EDP / EDAP, gmean",
            "EDP 0.68 (1 / 1.47)" if name == "SHARP" else "—",
            f"{delay:.2f} / {energy:.2f} / {edp:.2f} / {edap:.2f}",
            *(below(edp, 0.95) if name == "SHARP" else UNCHECKED),
        )
    for rival, paper in (("ARK36-180", "1.47× EDP"), ("ARK36-512", "1.45× EDP")):
        edp = gmean(relative(data[rival], data["SHARP"], METRICS["EDP"]))
        edap = gmean(relative(data[rival], data["SHARP"], METRICS["EDAP"]))
        yield Row(
            "Fig. 8", f"SHARP's EDP / EDAP advantage over {rival}", paper,
            f"{edp:.2f}× / {edap:.2f}×",
        )
    eight = gmean(relative(data["8-cluster"], data["SHARP"], METRICS["delay"]))
    yield Row(
        "Fig. 8", "8-cluster / SHARP delay, gmean", "0.71 (1.40× faster)",
        f"{eight:.2f} ({1 / eight:.2f}× faster)", *below(eight, 0.95),
    )
    eight_area = chip_area(steps["8-cluster"]).total
    yield Row("Fig. 8", "8-cluster die area", f"{SHARP_8C_AREA_MM2} mm²", f"{eight_area:.1f} mm²")
    flat, hier = chip_area(ark180), chip_area(steps["+Hierarchy"])
    cut = flat.nttu / hier.nttu
    yield Row(
        "Fig. 8", "NTTU area, flat / hierarchical", "2.04×", f"{cut:.2f}×", *near(cut, 2.04, 0.05)
    )
    yield Row(
        "Fig. 8", "chip area, ARK36-180 → +Hierarchy", "—",
        f"{flat.total:.1f} → {hier.total:.1f} mm²",
    )


def bsgs() -> Iterator[Row]:
    """Observation (12): fine-tuned BSGS avoids bootstrap-level spills."""
    setting = build_sharp_setting(36)
    capacity = 198 * MIB
    tuned = plan_bsgs(setting, setting.max_level, capacity, fine_tune=True)
    balanced = plan_bsgs(setting, setting.max_level, capacity, fine_tune=False)
    yield Row(
        "§5", "top-level BSGS at 198 MiB, balanced", "overflows",
        f"bs={balanced.bs}, spills {balanced.spill_bytes / MIB:.0f} MiB",
        "overflows", not balanced.fits_on_chip,
    )
    yield Row(
        "§5", "top-level BSGS at 198 MiB, fine-tuned", "fits",
        f"bs={tuned.bs}, {'fits' if tuned.fits_on_chip else 'spills'}",
        "fits, bs < balanced", tuned.fits_on_chip and tuned.bs < balanced.bs,
    )
    extra = tuned.rotations - balanced.rotations
    yield Row("§5", "fine-tuning's extra rotations", "pays compute", f"+{extra}", *above(extra, 0))


# -- §5: Belady scheduling and fusion -----------------------------------------


def scheduling() -> Iterator[Row]:
    setting = build_sharp_setting(36)
    traces = certified_traces(36)
    for capacity_mib in (198, 96):
        for name, trace in traces.items():
            bel, lru = (
                schedule_trace(trace, setting, capacity_mib * MIB, policy=policy)
                for policy in ("belady", "lru")
            )
            saved = (lru.offchip_bytes - bel.offchip_bytes) / max(lru.offchip_bytes, 1)
            yield Row(
                "§5", f"{capacity_mib} MiB {name}: off-chip GB, Belady / LRU", "—",
                f"{bel.offchip_bytes / GB:.2f} / {lru.offchip_bytes / GB:.2f} "
                f"({100 * saved:.1f}% saved; hit rate {bel.hit_rate() * 100:.1f}%; "
                f"spill {bel.spill_bytes / GB:.3f} GB)",
                "Belady ≤ LRU", bel.offchip_bytes <= lru.offchip_bytes,
            )
            if capacity_mib == 198:
                spills: dict[OpKind, float] = {}
                for e in bel.events:
                    if e.spill_bytes:
                        spills[e.kind] = spills.get(e.kind, 0.0) + e.spill_bytes
                top = max(spills, key=lambda k: spills[k]).value if spills else "-"
                yield Row("§5", f"198 MiB {name}: op kind spilling most", "—", top)
    for name, trace in certified_traces(36, explicit_rescale=True).items():
        _, rep = fuse_trace(trace)
        yield Row(
            "§5", f"{name}: fusion, scheduled ops before → after", "—",
            f"{rep.before_ops} → {rep.after_ops} "
            f"({100 * (1 - rep.after_ops / rep.before_ops):.1f}% saved; "
            f"{rep.rescales_folded} rescales folded, {rep.pmadds_formed} PMADDs)",
            "fewer ops and op count",
            rep.after_ops < rep.before_ops and rep.after_count < rep.before_count,
        )


# -- §2.3 / §4.1 / §4.5: ablations the paper discusses in passing -------------


def ablations() -> Iterator[Row]:
    settings = {d: build_setting(36, dnum=d) for d in (2, 3, 4)}
    for d, s in settings.items():
        previous = settings.get(d - 1)
        grows = previous is None or (
            s.l_eff >= previous.l_eff and s.evk_bytes() >= previous.evk_bytes()
        )
        yield Row(
            "§2.3", f"dnum={d}: L_eff / L / K, evk with PRNG, top-level HMult", "—",
            f"{s.l_eff} / {s.max_level} / {s.k}, {s.evk_bytes(prng=True) / MIB:.1f} MiB, "
            f"{hmult_counts(s, s.max_level, 1).total_muls / 1e6:.0f}M muls",
            *(UNCHECKED if previous is None else ("L_eff, evk ≥ dnum − 1's", grows)),
        )
    setting = build_setting(36)
    prng = setting.evk_bytes(prng=True, limbs=setting.max_level)
    plain = setting.evk_bytes(prng=False, limbs=setting.max_level)
    yield Row(
        "§4.1", "evk stream per top-level HMult, without → with PRNG", "halved",
        f"{plain / MIB:.1f} → {prng / MIB:.1f} MiB", "exactly ½", plain == 2 * prng,
    )
    lowering = OpLowering(setting)
    ds = lowering.lower(HeOp(OpKind.RESCALE, setting.max_level, drop=2)).dsu_words
    ss = lowering.lower(HeOp(OpKind.RESCALE, 14, drop=1)).dsu_words
    yield Row(
        "§4.5", "DSU words, DS rescale / SS rescale", "DS only", f"{ds:.0f} / {ss:.0f}",
        "DS > 0, SS = 0", ds > 0 and ss == 0,
    )


SECTIONS: dict[str, Callable[[], Iterator[Row]]] = {
    "fig2a": fig2a,
    "fig2b": fig2b,
    "fig2c": fig2c,
    "fig3": fig3,
    "table2_precision": table2_precision,
    "table2_helr": table2_helr,
    "table2_resnet": table2_resnet,
    "table2_sorting": table2_sorting,
    "table2_static": table2_static,
    "table3": table3,
    "nttu_dataflow": nttu_dataflow,
    "fig5": fig5,
    "fig6": fig6,
    "table4": table4,
    "fig7": fig7,
    "fig8": fig8,
    "bsgs": bsgs,
    "scheduling": scheduling,
    "ablations": ablations,
}

HEADER = """\
# PAPER_ROWS — SHARP's claims, paper against model

Generated by `python -m repro.analysis.paper_rows`; do not edit by hand.
One row per claim. A check is what the model must satisfy: a tolerance,
a bound or a direction ("—": the row only prints). A change that moves
the model moves these rows; their diff is its old / new / paper table.

| figure | row | paper | model | check |
|---|---|---|---|---|
"""


def paper_rows() -> Iterator[Row]:
    for section in SECTIONS.values():
        yield from section()


def render(rows: Iterable[Row]) -> str:
    return HEADER + "".join(row.line() + "\n" for row in rows)


def main() -> int:
    rows = list(paper_rows())
    Path("PAPER_ROWS.md").write_text(render(rows), encoding="utf-8")
    failed = [row for row in rows if not row.ok]
    for row in failed:
        sys.stderr.write(f"check fails: {row.figure} {row.name}: {row.model}, not {row.check}\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
