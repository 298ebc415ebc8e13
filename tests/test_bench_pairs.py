"""``scripts/bench_pairs.py``, which every speed and no-regression figure
rests on: its pair count, medians, spread, the two rules it states
(``gain_shown``, ``within_bound``), its ``unresolved`` record and each side's
share of failed ops on synthetic runs, and its ``src/`` line
count and harness digest on temporary trees.  The script is loaded by path and
not run, and no bytecode is written next to it."""

import importlib.util
import sys

import pytest

from .test_golden import ROOT


@pytest.fixture(scope="module")
def bench_pairs():
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        path = ROOT / "scripts" / "bench_pairs.py"
        spec = importlib.util.spec_from_file_location("bench_pairs", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


PARENT = [1, 2, 3, 4, 5]
CHANGE = [4, 1, 3, 6, 7]  # pair 3 is a tie; the change is higher in pairs 1, 4 and 5


def _compare(bench_pairs, better, parent=PARENT, change=CHANGE, bound=0.25):
    runs = {
        "parent": [{"metrics": {"m": v}} for v in parent],
        "change": [{"metrics": {"m": v}} for v in change],
    }
    metric = {"name": "m", "unit": "1/s", "better": better, "bound": bound}
    return bench_pairs.compare(runs, metric)


def test_a_tie_counts_for_neither_side(bench_pairs):
    for better in ("higher", "lower"):
        wins = _compare(bench_pairs, better)["pairs_won"]
        assert wins["parent"] + wins["change"] == len(PARENT) - 1


def test_the_better_direction_credits_each_pair(bench_pairs):
    assert _compare(bench_pairs, "higher")["pairs_won"] == {"parent": 1, "change": 3}
    assert _compare(bench_pairs, "lower")["pairs_won"] == {"parent": 3, "change": 1}


def test_median_change_and_spread_by_hand(bench_pairs):
    out = _compare(bench_pairs, "higher")
    # inclusive quartiles: parent 2, 3, 4; change (sorted 1 3 4 6 7) 3, 4, 6
    assert (out["parent"]["q1"], out["parent"]["median"], out["parent"]["q3"]) == (2, 3, 4)
    assert (out["change"]["q1"], out["change"]["median"], out["change"]["q3"]) == (3, 4, 6)
    assert out["parent"]["runs"] == PARENT and out["change"]["runs"] == CHANGE
    assert out["median_change"] == pytest.approx((4 - 3) / 3)
    assert out["parent_spread"] == pytest.approx((4 - 2) / 3)
    assert (out["unit"], out["better"], out["bound"]) == ("1/s", "higher", 0.25)


# ten parent runs with quartiles 10.25, 11.5 and 12.75: a spread of 2.5 around 11.5
PARENT_10 = [10, 11, 12, 13, 14, 9, 10, 11, 12, 13]


@pytest.mark.parametrize(
    "better, change, shown",
    [
        # the change wins all ten pairs by 3, beyond the spread of 2.5
        ("higher", [v + 3 for v in PARENT_10], True),
        ("lower", [v - 3 for v in PARENT_10], True),
        # nine wins and a tie still show a gain; the tie counts for neither side
        ("higher", [v + 4 for v in PARENT_10[:9]] + PARENT_10[9:], True),
        # eight wins and two losses do not, however far the median moves
        ("higher", [v + 9 for v in PARENT_10[:8]] + [v - 1 for v in PARENT_10[8:]], False),
        # every pair won, but by 2, inside the parent's spread of 2.5
        ("higher", [v + 2 for v in PARENT_10], False),
        # every pair moved the worse way
        ("lower", [v + 3 for v in PARENT_10], False),
    ],
    ids=["higher", "lower", "nine-and-a-tie", "eight-of-ten", "inside-spread", "worse-way"],
)
def test_a_gain_shows_only_with_nine_in_ten_pairs_and_a_move_past_the_spread(
    bench_pairs, better, change, shown
):
    assert _compare(bench_pairs, better, PARENT_10, change)["gain_shown"] is shown


def test_a_gain_needs_every_pair_of_five(bench_pairs):
    # four wins of five pairs are below nine in ten
    change = [v + 5 for v in PARENT[:4]] + [PARENT[4] - 1]
    assert _compare(bench_pairs, "higher", PARENT, change)["pairs_won"]["change"] == 4
    assert not _compare(bench_pairs, "higher", PARENT, change)["gain_shown"]
    assert _compare(bench_pairs, "higher", PARENT, [v + 5 for v in PARENT])["gain_shown"]


@pytest.mark.parametrize(
    "better, change_median, within",
    [
        # the parent's median is 3, so a bound of 0.25 allows a move of 0.75 the worse way
        ("higher", 2.25, True),
        ("higher", 2.2, False),
        ("higher", 9, True),
        ("lower", 3.75, True),
        ("lower", 3.8, False),
        ("lower", 0.5, True),
    ],
)
def test_within_bound_allows_the_bound_as_a_share_of_the_parents_median(
    bench_pairs, better, change_median, within
):
    change = [change_median] * len(PARENT)
    assert _compare(bench_pairs, better, PARENT, change)["within_bound"] is within


def test_src_lines_counts_every_python_file_under_src(bench_pairs, tmp_path):
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("z = 3\nw = 4")  # no final newline
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "tool.py").write_text("outside src\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 5


def _harness_tree(root):
    (root / "perfbench" / "_work").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text('{"run_seconds": 35}\n')
    (root / "perfbench" / "gen.py").write_text("SEEDS = range(10)\n")
    (root / "perfbench" / "run.py").write_text("import gen\n")
    (root / "perfbench" / "_work" / "out.py").write_text("not part of the harness\n")
    return str(root)


def test_the_harness_digest_reads_benchmark_json_and_perfbench_sources(bench_pairs, tmp_path):
    trees = {side: _harness_tree(tmp_path / side) for side in bench_pairs.SIDES}
    same = bench_pairs.harness(trees)
    assert same["harness_identical"] is True
    assert same["harness_digest"]["parent"] == same["harness_digest"]["change"]
    # what the runs leave under perfbench/_work/ is no part of the harness
    (tmp_path / "change" / "perfbench" / "_work" / "out.py").write_text("changed\n")
    assert bench_pairs.harness(trees)["harness_identical"] is True
    (tmp_path / "change" / "perfbench" / "gen.py").write_text("SEEDS = range(11)\n")
    changed = bench_pairs.harness(trees)
    assert changed["harness_identical"] is False
    assert changed["harness_digest"]["parent"] == same["harness_digest"]["parent"]
    assert changed["harness_digest"]["change"] != same["harness_digest"]["change"]


# quartiles 10, 10 and 14: a spread of 0.4 around a median of 10
WIDE = [10, 14, 10, 16, 9]


@pytest.mark.parametrize(
    "better, parent, change, unresolved",
    [
        # both sides spread by 0.2 or less, inside the bound of 0.25
        ("higher", PARENT_10, [v + 1 for v in PARENT_10], False),
        # the parent spreads by 0.4, past the bound, and the runs overlap
        ("higher", WIDE, [v + 1 for v in WIDE], True),
        # the change alone spreads past the bound
        ("lower", [10] * 5, WIDE, True),
        # wide on both sides, but every change run beats every parent run
        ("higher", WIDE, [v + 20 for v in WIDE], False),
        ("lower", WIDE, [v - 3 for v in WIDE], True),
        ("lower", [v + 20 for v in WIDE], WIDE, False),
        # a change run equal to a parent run does not beat it
        ("higher", WIDE, [v + 7 for v in WIDE], True),
    ],
)
def test_a_metric_is_unresolved_when_a_side_spreads_past_the_bound(
    bench_pairs, better, parent, change, unresolved
):
    assert _compare(bench_pairs, better, parent, change)["unresolved"] is unresolved


def test_the_unresolved_rule_reads_the_metrics_bound(bench_pairs):
    # a spread of 0.4 is unresolved under a bound of 0.25 but not under 0.5
    assert _compare(bench_pairs, "higher", WIDE, WIDE, bound=0.25)["unresolved"]
    assert not _compare(bench_pairs, "higher", WIDE, WIDE, bound=0.5)["unresolved"]


def _failures(bench_pairs, parent, change):
    """``failures`` on each side's runs, given as (attempted, failed) pairs."""
    runs = {
        side: [{"attempted": a, "failed": f} for a, f in pairs]
        for side, pairs in (("parent", parent), ("change", change))
    }
    return bench_pairs.failures(runs)


@pytest.mark.parametrize(
    "parent, change, share, rose",
    [
        # summed over the runs, not averaged per run: 2 of 400 against 3 of 200
        ([(100, 0), (300, 2)], [(100, 3), (100, 0)], {"parent": 2 / 400, "change": 3 / 200}, True),
        ([(100, 1), (100, 1)], [(50, 0), (150, 0)], {"parent": 0.01, "change": 0.0}, False),
        # an equal share did not rise
        ([(200, 2)], [(100, 1)], {"parent": 0.01, "change": 0.01}, False),
        ([(100, 0)], [(100, 0)], {"parent": 0.0, "change": 0.0}, False),
        # a side that attempted nothing has no share, and no rise is read from it
        ([(0, 0)], [(100, 5)], {"parent": None, "change": 0.05}, False),
    ],
)
def test_each_side_records_its_share_of_failed_ops(bench_pairs, parent, change, share, rose):
    out = _failures(bench_pairs, parent, change)
    assert out == {"failed_share": share, "failed_share_rose": rose}
