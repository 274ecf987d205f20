"""Span accounting self-test: a breakdown that does not sum to wall-clock is a bug.

    python3 benchmarks/e2e/selftest.py

Not collected by the tier-1 suite.  Three checks: synthetic nested spans
on an integer clock sum to their root exactly; every hook installed and
then removed leaves the patched attribute the identical object; and a
short traced run of each workload writes spans that nest properly, whose
self times sum to the measured wall clock within 1 %, with at most 10 %
of ``ops_n14`` unattributed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import tempfile
from pathlib import Path

import run
import tracer
from tracer import Hook, Span, Tracer, self_times, summarize

SECONDS = 5.0  # per traced workload run; bootstrap_n9 still makes one whole bootstrap


def check_synthetic_spans() -> None:
    real_time = tracer.time
    ticks = itertools.count()

    class IntegerClock:
        @staticmethod
        def perf_counter() -> int:
            return next(ticks)

    tracer.time = IntegerClock  # type: ignore[assignment]
    try:
        spans = Tracer()
        with spans.span("bench:root") as root:
            for _ in range(3):
                with spans.span("outer:a"):
                    with spans.span("inner:b"):
                        with spans.span("outer:c"):
                            pass
                    with spans.span("inner:d"):
                        pass
    finally:
        tracer.time = real_time
    summary = summarize(spans.spans, root)
    assert sum(summary.self_s) == summary.wall_s, "self times do not sum to the root"
    layers = sum(stat.self_s for stat in summary.by_layer.values())
    assert layers + summary.root_self_s == summary.wall_s, "layers do not sum to the root"
    # outer:c sits beneath outer:a, so the layer's inclusive time counts it once.
    outer_a = summary.name("outer:a")
    assert summary.layer("outer").total_s == outer_a.total_s, "nested layer time counted twice"
    assert summary.layer("outer").calls == 6 and summary.layer("inner").calls == 6


def check_install_remove() -> None:
    sys.path.insert(0, str(run.ROOT / "src"))
    from hooks import HOOKS

    missing = Hook("bench", "missing", "repro.rns.kernels", "no_such_function")
    resolved = [tracer.resolve(hook) for hook in HOOKS]
    spans = Tracer()
    spans.install([*HOOKS, missing])
    assert len(spans.notes) == 1 and spans.notes[0].startswith("hook bench:missing skipped")
    for owner, attr, original in resolved:
        wrapped = vars(owner)[attr]
        assert wrapped is not original and wrapped.__wrapped__ is original, (owner, attr)
    spans.remove()
    for owner, attr, original in resolved:
        assert vars(owner)[attr] is original, f"{owner}.{attr} was not restored"


def check_workload(workload: str, directory: Path) -> None:
    args = argparse.Namespace(seed=7, seconds=SECONDS, spans=str(directory))
    result = run.run_worker(workload, 1, args)
    assert result["correct"], result["failures"]
    lines = (directory / f"{workload}.spans.jsonl").read_text().splitlines()
    spans = [Span(**json.loads(line)) for line in lines]
    for span in spans[1:]:
        parent = spans[span.parent]
        assert parent.start <= span.start <= span.end <= parent.end, f"{span} escapes {parent}"
    own = self_times(spans)
    assert min(own) >= -1e-9, "a span is shorter than its children"
    wall = spans[0].seconds
    assert abs(sum(own) - wall) <= 0.01 * wall, f"{workload}: self times sum to {sum(own)}"
    unattributed = result["metrics"]["bench.unattributed_share"]
    assert abs(unattributed - own[0] / wall) < 1e-9
    if workload == "ops_n14":
        assert unattributed <= 0.10, f"ops_n14: {unattributed:.3f} of wall is unattributed"
    print(f"ok {workload}: {len(spans)} spans, {unattributed:.4f} unattributed", flush=True)


def main() -> None:
    check_synthetic_spans()
    print("ok synthetic spans sum to their root exactly", flush=True)
    check_install_remove()
    print("ok every hook installs and is removed without a trace", flush=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    with tempfile.TemporaryDirectory(dir=run.HERE) as directory:
        for workload in spec["workloads"]:
            check_workload(workload["name"], Path(directory))


if __name__ == "__main__":
    main()
