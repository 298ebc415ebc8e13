"""``scripts/bench_pairs.py``, which every speed and no-regression figure
rests on: its pair count, medians and spread on synthetic runs, and its
``src/`` line count on a temporary tree.  The script is loaded by path and
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


def _compare(bench_pairs, better):
    runs = {
        "parent": [{"metrics": {"m": v}} for v in PARENT],
        "change": [{"metrics": {"m": v}} for v in CHANGE],
    }
    metric = {"name": "m", "unit": "1/s", "better": better, "bound": 0.25}
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


def test_src_lines_counts_every_python_file_under_src(bench_pairs, tmp_path):
    (tmp_path / "src" / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "src" / "pkg" / "a.py").write_text("x = 1\n\ny = 2\n")
    (tmp_path / "src" / "pkg" / "sub" / "b.py").write_text("z = 3\nw = 4")  # no final newline
    (tmp_path / "src" / "pkg" / "notes.txt").write_text("not\ncounted\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "scripts" / "tool.py").write_text("outside src\n")
    assert bench_pairs.src_lines(str(tmp_path)) == 5
