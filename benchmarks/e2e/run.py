"""The repo's end-to-end benchmark: one command, every metric, every output checked.

    python3 benchmarks/e2e/run.py --seed S [--workload W] [--trace 0|1] [--seconds T]

Each workload runs in a fresh single-threaded ``worker.py`` process whose
environment has every ``REPRO_*`` variable removed, so the default numpy
backend and the planned kernel path are what is measured.  ``--trace 0``
gives the end-to-end metrics, ``--trace 1`` the per-layer ones; without
``--trace`` both runs are made, without ``--workload`` all four
workloads.  ``BENCHMARK.json`` at the root of the checkout names the
workloads and metrics and fixes their units; this file refuses a worker
result that does not carry exactly those.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 only if every timed output was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKER_TIMEOUT_S = 170  # the driver allows a run 180 s
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def worker_environment() -> dict[str, str]:
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(workload: str, trace: int, args: argparse.Namespace) -> dict[str, Any]:
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
    ]  # fmt: skip
    if args.spans and trace:
        Path(args.spans).mkdir(parents=True, exist_ok=True)
        command += ["--spans", str(Path(args.spans) / f"{workload}.spans.jsonl")]
    done = subprocess.run(
        command, env=worker_environment(), stdout=subprocess.PIPE, text=True,
        timeout=WORKER_TIMEOUT_S, check=False,
    )  # fmt: skip
    if done.returncode != 0:
        raise SystemExit(f"{workload}: worker exited with code {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def with_units(result: dict[str, Any], declared: list[dict[str, str]]) -> dict[str, Any]:
    """The worker's numbers under the names and units BENCHMARK.json declares."""
    measured = result["metrics"]
    names = [metric["name"] for metric in declared]
    if set(names) != set(measured):
        odd = sorted(set(names) ^ set(measured))
        raise SystemExit(f"{result['workload']}: metrics differ from BENCHMARK.json: {odd}")
    return {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared}


def describe(result: dict[str, Any], metrics: dict[str, Any]) -> list[str]:
    kind = "traced, per-layer" if result["trace"] else "untraced, end-to-end"
    lines = [
        f"== {result['workload']} ({kind}) ==",
        f"  unit: {result['unit']}; work: {result['work_unit']}; samples: {result['samples']}",
        f"  fingerprint: {json.dumps(result['fingerprint'])}",
    ]
    for name, metric in metrics.items():
        if metric["value"] == 0:
            continue
        alias = result["aliases"].get(name)
        label = f"{name} [{alias}]" if alias else name
        lines.append(f"  {label:44s} {metric['value']:.6g} {metric['unit']}")
    zeros = [name for name, metric in metrics.items() if metric["value"] == 0]
    if zeros:
        lines.append(f"  0 (layer not entered, or nothing to count): {' '.join(zeros)}")
    lines += result["report"]
    share = result["failed"] / result["attempted"]
    bits = result["precision_bits"]  # 0 where nothing is decrypted
    lines.append(
        f"  precision_bits {f'{bits:.2f}' if bits else 'n/a'}; failed_share {share:.4f} "
        f"({result['failed']} of {result['attempted']} checks)"
    )
    lines += [f"  FAILED {message}" for message in result["failures"]]
    return lines


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--seed", type=int, required=True, help="draws every input")
    parser.add_argument("--workload", choices=workloads, help="default: all of them")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: 0, then 1")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long a run measures; sizes the fixed work")  # fmt: skip
    parser.add_argument("--spans", help="directory for the traced runs' spans, as JSON lines")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"{ROOT} holds no src/repro: nothing to measure")

    single = args.workload is not None and args.trace is not None
    attempted = failed = 0
    merged: dict[str, Any] = {}
    for workload in [args.workload] if args.workload else workloads:
        for trace in (0, 1) if args.trace is None else (args.trace,):
            result = run_worker(workload, trace, args)
            metrics = with_units(result, spec["per_layer" if trace else "end_to_end"])
            print("\n".join(describe(result, metrics)), flush=True)
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = "" if single else f"{workload}/"
            merged.update({prefix + name: metric for name, metric in metrics.items()})
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": merged}
    ))  # fmt: skip
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
