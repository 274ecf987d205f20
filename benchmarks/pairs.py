"""Alternating parent / change pairs of the end-to-end benchmark, with verdicts.

    python3 benchmarks/pairs.py --parent REF --workload W --seeds A-B [--reuse-seeds]

The parent side is ``git archive REF`` unpacked into a temporary
directory; the change side is the working tree this file sits in.  There
is one pair per seed of ``A-B``: pair ``i`` runs ``benchmarks/e2e/run.py
--trace 0`` once in each tree at seed ``A + i``, for the ``run_seconds``
that ``BENCHMARK.json`` sets; the parent runs first in even pairs and
second in odd ones, so neither side always meets a cold or a warm
machine.  Both trees run their own ``run.py``, and this script only reads
its output.

It prints one row per end-to-end metric of ``BENCHMARK.json``: each
side's median [q1, q3], change / parent, wins, the metric's bound and a
verdict (:func:`verdict`), and writes ``BENCH_<workload>.json`` at the
root of the checkout with every raw row, the machine's fingerprint and
the two sides' identities (the change side is the working tree: its
``HEAD`` and whether it had uncommitted changes).

Seeds named in ``EXPERIMENTS.md`` or in an earlier ``BENCH_*.json`` are
refused unless ``--reuse-seeds`` is given: a claim must hold on seeds the
change was not tuned on.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Any, NamedTuple

ROOT = Path(__file__).resolve().parents[1]
RUN = Path("benchmarks") / "e2e" / "run.py"
FINGERPRINT_PREFIX = "  fingerprint: "
RUN_TIMEOUT_S = 600


class Quartiles(NamedTuple):
    median: float
    q1: float
    q3: float


def quartiles(values: list[float]) -> Quartiles:
    """Median and the inclusive quartiles of a sample."""
    if len(values) == 1:
        return Quartiles(values[0], values[0], values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return Quartiles(median, q1, q3)


def verdict(
    parent: list[float],
    change: list[float],
    better: str,
    bound: float,
    failed_share: tuple[float, float] = (0.0, 0.0),
) -> tuple[str, int]:
    """The verdict on one metric over paired runs, and the change's wins.

    A pair is a win when the change reads strictly better; ties count
    for neither side.  ``failed_share`` is the (parent, change) share of
    attempted operations that failed, over all runs.  In order:

    * ``more failures``: the change fails a larger share of its
      operations, whatever the metric reads;
    * ``better``: over at least ten pairs, the change wins at least nine
      tenths of them and its median beats the parent's by more than the
      parent's interquartile range;
    * ``unresolved``: the parent's interquartile range, relative to its
      median, is wider than ``bound``, unless every change run reads
      better than every parent run;
    * ``worse``: the change's median is worse than the parent's by more
      than ``bound``, relative to the parent's median;
    * ``within bound`` otherwise.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("verdict needs the same non-zero number of runs per side")
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    if failed_share[1] > failed_share[0]:
        return "more failures", wins
    p, c = quartiles(parent), quartiles(change)
    spread = p.q3 - p.q1
    gain = sign * (c.median - p.median)
    if len(parent) >= 10 and 10 * wins >= 9 * len(parent) and gain > spread:
        return "better", wins
    all_better = all(sign * (cv - pv) > 0 for cv in change for pv in parent)
    if spread / p.median > bound and not all_better:
        return "unresolved", wins
    if -gain / p.median > bound:
        return "worse", wins
    return "within bound", wins


def used_seeds(text: str) -> set[int]:
    """Seeds a document names: ``seed 7``, ``seeds 3, 4 and 101-104``."""
    seeds: set[int] = set()
    number = r"\d+(?:\s*[-–]\s*\d+)?"
    for match in re.finditer(rf"\bseeds?\s+({number}(?:(?:,\s*|\s+and\s+){number})*)", text):
        for part in re.split(r",\s*|\s+and\s+", match.group(1)):
            low, _, high = re.sub(r"\s", "", part).replace("–", "-").partition("-")
            seeds.update(range(int(low), int(high or low) + 1))
    return seeds


def parse_seeds(spec: str) -> list[int]:
    low, _, high = spec.partition("-")
    seeds = list(range(int(low), int(high or low) + 1))
    if not seeds:
        raise SystemExit(f"--seeds {spec}: empty range")
    return seeds


def unpack(ref: str, into: Path) -> str:
    """Write ``ref``'s committed files into ``into``; return its commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{ref}^{{commit}}"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()  # fmt: skip
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", commit],
        capture_output=True, check=True,
    ).stdout  # fmt: skip
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return commit


def working_tree() -> dict[str, Any]:
    """The change side: this checkout's ``HEAD`` and whether files differ from it."""
    git = ["git", "-C", str(ROOT)]
    head = subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True, check=True)
    status = subprocess.run(
        [*git, "status", "--porcelain", "--untracked-files=no"],
        capture_output=True, text=True, check=True,
    )  # fmt: skip
    return {"tree": "working tree", "head": head.stdout.strip(), "uncommitted": bool(status.stdout)}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict[str, Any]:
    """One untraced ``run.py`` in ``tree``: its metrics, correctness and
    machine fingerprint (without the commit id, which names the side)."""
    done = subprocess.run(
        [sys.executable, str(tree / RUN), "--seed", str(seed), "--workload", workload,
         "--trace", "0", "--seconds", str(seconds)],
        capture_output=True, text=True, timeout=RUN_TIMEOUT_S, check=False,
    )  # fmt: skip
    lines = done.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{tree}: run.py printed nothing (exit {done.returncode})\n{done.stderr}")
    last = json.loads(lines[-1])
    fingerprint = next(
        (json.loads(line[len(FINGERPRINT_PREFIX):]) for line in lines
         if line.startswith(FINGERPRINT_PREFIX)),
        {},
    )  # fmt: skip
    fingerprint.pop("git_commit", None)
    return {
        "correct": last["correct"],
        "attempted": last["attempted"],
        "failed": last["failed"],
        "metrics": {name: metric["value"] for name, metric in last["metrics"].items()},
        "fingerprint": fingerprint,
    }


def failed_share(rows: list[dict[str, Any]], side: str) -> float:
    """Share of one side's attempted operations that failed, over all pairs."""
    attempted = sum(row[side]["attempted"] for row in rows)
    return sum(row[side]["failed"] for row in rows) / attempted if attempted else 0.0


def table(workload: str, rows: list[dict[str, Any]], spec: dict[str, Any]) -> list[dict]:
    """One verdict per end-to-end metric over the pairs' raw rows."""
    shares = (failed_share(rows, "parent"), failed_share(rows, "change"))
    out = []
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [row["parent"]["metrics"][name] for row in rows]
        change = [row["change"]["metrics"][name] for row in rows]
        result, wins = verdict(parent, change, metric["better"], metric["bound"], shares)
        p, c = quartiles(parent), quartiles(change)
        out.append({
            "workload": workload, "metric": name, "parent": p._asdict(),
            "change": c._asdict(), "ratio": c.median / p.median,
            "wins": wins, "pairs": len(rows), "bound": metric["bound"], "verdict": result,
        })  # fmt: skip
    return out


def render(verdicts: list[dict]) -> str:
    lines = [
        "| workload | metric | parent median [q1, q3] | change median [q1, q3] "
        "| change / parent | wins | bound | verdict |",
        "|---|---|---|---|---|---|---|---|",
    ]
    for v in verdicts:
        p, c = v["parent"], v["change"]
        lines.append(
            f"| {v['workload']} | {v['metric']} "
            f"| {p['median']:.4g} [{p['q1']:.4g}, {p['q3']:.4g}] "
            f"| {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}] "
            f"| {v['ratio']:.3f} | {v['wins']}/{v['pairs']} | {v['bound']:.0%} | {v['verdict']} |"
        )
    return "\n".join(lines)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])  # fmt: skip
    parser.add_argument("--seeds", required=True, help="A-B: one pair per seed, from A")
    parser.add_argument("--reuse-seeds", action="store_true",
                        help="allow seeds that EXPERIMENTS.md or a BENCH_*.json names")  # fmt: skip
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    seconds = spec["run_seconds"]
    if not args.reuse_seeds:
        experiments = ROOT / "EXPERIMENTS.md"
        used = used_seeds(experiments.read_text()) if experiments.exists() else set()
        for bench in ROOT.glob("BENCH_*.json"):
            used.update(row["seed"] for row in json.loads(bench.read_text()).get("rows", []))
        clash = sorted(used & set(seeds))
        if clash:
            raise SystemExit(f"seeds {clash} are already used; pick others or pass --reuse-seeds")

    rows: list[dict[str, Any]] = []
    with tempfile.TemporaryDirectory(prefix="pairs-parent-") as scratch:
        parent_tree = Path(scratch)
        commit = unpack(args.parent, parent_tree)
        for index, seed in enumerate(seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            row: dict[str, Any] = {"pair": index, "seed": seed, "first": order[0]}
            for side in order:
                tree = parent_tree if side == "parent" else ROOT
                row[side] = run_once(tree, args.workload, seed, seconds)
            rows.append(row)
            p50 = {side: row[side]["metrics"]["unit_ms_p50"] for side in order}
            print(f"pair {index} seed {seed}: unit_ms_p50 {p50}", flush=True)

    verdicts = table(args.workload, rows, spec)
    print(render(verdicts))
    incorrect = [
        row["seed"] for row in rows for side in ("parent", "change") if not row[side]["correct"]
    ]  # fmt: skip
    report = {
        "workload": args.workload,
        "parent": {"ref": args.parent, "commit": commit},
        "change": working_tree(),
        "seconds": seconds,
        "fingerprint": rows[0]["change"]["fingerprint"],
        "verdicts": verdicts,
        "rows": rows,
    }
    out = ROOT / f"BENCH_{args.workload}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out.name}; {len(rows)} pairs; incorrect runs at seeds {incorrect or 'none'}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
