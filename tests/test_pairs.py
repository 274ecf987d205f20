"""The pair runner's verdict rule and seed bookkeeping, on synthetic rows.

``benchmarks/pairs.py`` turns ten alternating parent / change runs into
one verdict per metric; these tests pin that rule without running any
benchmark.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "pairs.py"
_SPEC = importlib.util.spec_from_file_location("pairs", _PATH)
pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairs)

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_quartiles_are_inclusive():
    q = pairs.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (q.median, q.q1, q.q3) == (3.0, 2.0, 4.0)


def test_a_clear_gain_is_better():
    change = [p * 0.7 for p in PARENT]
    assert pairs.verdict(PARENT, change, "lower", 0.25) == ("better", 10)
    higher = [p * 1.3 for p in PARENT]
    assert pairs.verdict(PARENT, higher, "higher", 0.25) == ("better", 10)


def test_a_gain_with_more_failures_is_refused():
    change = [p * 0.7 for p in PARENT]
    assert pairs.verdict(PARENT, change, "lower", 0.25, (0.0, 0.01)) == ("more failures", 10)
    assert pairs.verdict(PARENT, change, "lower", 0.25, (0.02, 0.01)) == ("better", 10)
    assert pairs.verdict(PARENT, change, "lower", 0.25, (0.01, 0.01)) == ("better", 10)


def test_failed_share_is_over_all_attempts_of_one_side():
    rows = [
        {"parent": {"attempted": 10, "failed": 0}, "change": {"attempted": 30, "failed": 3}},
        {"parent": {"attempted": 10, "failed": 1}, "change": {"attempted": 10, "failed": 0}},
    ]
    assert pairs.failed_share(rows, "parent") == pytest.approx(0.05)
    assert pairs.failed_share(rows, "change") == pytest.approx(0.075)
    assert pairs.failed_share([], "change") == 0.0


def test_fewer_than_ten_pairs_claim_no_gain():
    change = [p * 0.7 for p in PARENT]
    assert pairs.verdict(PARENT[:9], change[:9], "lower", 0.25) == ("within bound", 9)


def test_eight_wins_of_ten_is_not_a_gain():
    change = [p * 0.7 for p in PARENT]
    change[0], change[1] = PARENT[0] + 1, PARENT[1] + 1
    assert pairs.verdict(PARENT, change, "lower", 0.25) == ("within bound", 8)


def test_ties_count_for_neither_side():
    change = [p * 0.7 for p in PARENT]
    change[0] = PARENT[0]
    assert pairs.verdict(PARENT, change, "lower", 0.25) == ("better", 9)
    change[1] = PARENT[1]
    assert pairs.verdict(PARENT, change, "lower", 0.25)[1] == 8


def test_a_gain_inside_the_parents_spread_is_not_better():
    parent = [100.0, 140.0] * 5  # IQR 40
    change = [p - 30.0 for p in parent]  # wins every pair, medians 30 apart
    assert pairs.verdict(parent, change, "lower", 0.5)[0] == "within bound"


def test_a_wide_parent_spread_is_unresolved():
    parent = [100.0, 150.0] * 5  # IQR 50 % of the median
    change = [p * 1.01 for p in parent]
    assert pairs.verdict(parent, change, "lower", 0.25) == ("unresolved", 0)


def test_every_change_run_better_than_every_parent_run_resolves():
    parent = [100.0, 150.0] * 5
    change = [99.0] * 10
    assert pairs.verdict(parent, change, "lower", 0.25)[0] == "within bound"


def test_a_regression_beyond_the_bound_is_worse():
    change = [p * 1.3 for p in PARENT]
    assert pairs.verdict(PARENT, change, "lower", 0.25) == ("worse", 0)
    assert pairs.verdict(PARENT, change, "lower", 0.35)[0] == "within bound"
    lower = [p * 0.7 for p in PARENT]
    assert pairs.verdict(PARENT, lower, "higher", 0.25) == ("worse", 0)


def test_the_parent_against_itself_is_within_bound():
    assert pairs.verdict(PARENT, list(PARENT), "lower", 0.25) == ("within bound", 0)


def test_unpaired_rows_are_refused():
    with pytest.raises(ValueError):
        pairs.verdict(PARENT, PARENT[:-1], "lower", 0.25)


def test_used_seeds_reads_ranges_and_lists():
    text = "seeds 3, 4 and 101-103; seed 7; seeds 41–43, none used"
    assert pairs.used_seeds(text) == {3, 4, 7, 41, 42, 43, 101, 102, 103}
