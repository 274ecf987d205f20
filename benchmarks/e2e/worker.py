"""One workload in one process: set up, measure, verify, print a JSON result.

``run.py`` starts this with a scrubbed environment; run by hand it
refuses to start while any ``REPRO_*`` variable is set, because those
select another kernel backend or the legacy path and the numbers would
describe a different program.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from workload import Phase

# name -> (module, class); imported inside run() so that set-up time
# covers importing numpy and repro.
WORKLOADS = {
    "ops_n14": ("wl_ops", "OpsN14"),
    "bootstrap_n9": ("wl_bootstrap", "BootstrapN9"),
    "serve_mix": ("wl_serve", "ServeMix"),
    "compile_sweep": ("wl_compile", "CompileSweep"),
}
ROOT = Path(__file__).resolve().parents[2]
TAIL_BEYOND = 10


def tail(samples: list[float]) -> float:
    """The highest percentile that still has ten samples beyond it.

    On ``serve_mix`` (about 208 admitted jobs) that is p95.  Fewer than
    22 samples support nothing above the median, which is then returned.
    """
    if len(samples) < 2 * TAIL_BEYOND + 2:
        return statistics.median(samples)
    return sorted(samples)[-TAIL_BEYOND - 1]


def end_to_end(phase: Phase, setup_s: float) -> dict[str, float]:
    times = phase.timed_seconds()
    return {
        "unit_ms_p50": statistics.median(times) * 1e3,
        "unit_ms_tail": tail(times) * 1e3,
        "work_per_s": phase.work / phase.wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def trace_overhead(base: Phase, traced: Phase) -> float:
    """Traced over untraced median unit time, minus one, over shared unit keys."""

    def medians(phase: Phase) -> dict[str, float]:
        by_key: dict[str, list[float]] = {}
        for unit in phase.units:
            by_key.setdefault(unit.key, []).append(unit.seconds)
        return {key: statistics.median(values) for key, values in by_key.items()}

    plain, hooked = medians(base), medians(traced)
    shared = plain.keys() & hooked.keys()
    if not shared:
        return 0.0
    return sum(hooked[key] for key in shared) / sum(plain[key] for key in shared) - 1.0


def fingerprint(args: argparse.Namespace) -> dict[str, Any]:
    import numpy
    from repro.rns.backend import resolve_backend

    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"  # the driver's checkout is not a repository
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": resolve_backend().name,
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def run(args: argparse.Namespace) -> dict[str, Any]:
    process_start = time.perf_counter()
    from hooks import HOOKS
    from layers import layer_metrics, layer_table
    from tracer import Tracer, summarize

    module, cls = WORKLOADS[args.workload]
    workload = getattr(importlib.import_module(module), cls)(args.seed)
    count = workload.count(args.seconds)
    tracer = Tracer()

    if args.trace:
        tracer.install(HOOKS)
        setup_root = tracer.open("bench:setup")
    workload.setup(count)
    if args.trace:
        tracer.close(setup_root)
        tracer.remove()
        tracer.counters.clear()  # counters describe the measured phase only
    setup_s = time.perf_counter() - process_start

    # Fixed work normally ends near --seconds; the deadline only matters on
    # a box several times slower than the one the unit costs were taken on.
    deadline = time.perf_counter() + max(3.0 * args.seconds, 30.0)
    report: list[str] = []
    if not args.trace:
        phase = workload.measure(range(count), deadline)
        workload.verify(phase)
        metrics = end_to_end(phase, setup_s)
        samples = {"units": len(phase.timed_seconds())}
    else:
        base_units, traced_units = workload.trace_split(count)
        base = workload.measure(base_units, deadline)
        tracer.install(HOOKS)
        cpu_start = time.process_time()
        with tracer.span("bench:measure") as measure_root:
            phase = workload.measure(traced_units, deadline)
        cpu_s = time.process_time() - cpu_start
        tracer.remove()
        workload.verify(base)
        workload.verify(phase)
        spans = tracer.spans
        summary = summarize(spans, measure_root)
        extras = workload.extras(phase)
        extras.update(
            trace_overhead_share=trace_overhead(base, phase),
            idle_share=max(0.0, 1.0 - cpu_s / summary.wall_s),
            precision_bits=workload.precision_bits,
            units_traced=len(phase.units),
        )
        metrics = layer_metrics(summary, tracer.counters, summarize(spans, setup_root), extras)
        samples = {"units": len(phase.timed_seconds()), "untraced_units": len(base.timed_seconds())}
        report = layer_table(summary) + workload.report(summary) + tracer.notes
        if args.spans:
            with open(args.spans, "w") as out:
                for span in summary.spans:
                    out.write(json.dumps(span._asdict()) + "\n")
    workload.close()

    return {
        "workload": workload.name,
        "trace": args.trace,
        "correct": not workload.failures,
        "attempted": workload.attempted,
        "failed": len(workload.failures),
        "failures": workload.failures[:10],
        "metrics": metrics,
        "samples": samples,
        "unit": workload.unit,
        "work_unit": workload.work_unit,
        "aliases": workload.aliases,
        "precision_bits": workload.precision_bits,
        "report": report,
        "fingerprint": fingerprint(args),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", help="write the traced phase's spans here as JSON lines")
    args = parser.parse_args()
    forbidden = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if forbidden:
        print(f"refusing to run with {', '.join(forbidden)} set", file=sys.stderr)
        return 2
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
