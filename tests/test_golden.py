"""Golden corpus: exact CLI output (exit code and stdout) on fixed inputs.

Each case stores ``exit N`` on its first line followed by the bytes the
CLI prints.  The corpus pins behaviour across refactors: a change that
alters any of these outputs on purpose regenerates the affected files and
says why.  Regenerate with

    PYTHONPATH=src python -m tests.test_golden --write
"""

import itertools
import json
import os
import sys
from pathlib import Path

import pytest

from hamfano.cli import run

GOLDEN = Path(__file__).resolve().parent / "golden"

CATALOG = ("CP2", "CP1xCP1", "Bl1CP2", "Bl2CP2", "Bl3CP2")


def _truncated_cube():
    # [0,3]^3 with every corner cut at lattice distance one: 24 vertices
    verts = []
    for corner in itertools.product((0, 3), repeat=3):
        for axis in range(3):
            v = list(corner)
            v[axis] += 1 if corner[axis] == 0 else -1
            verts.append(v)
    return verts


POLYTOPES = {
    "cp3": [[-1, -1, -1], [3, -1, -1], [-1, 3, -1], [-1, -1, 3]],
    "cube": [list(v) for v in itertools.product((-1, 1), repeat=3)],
    "truncated_cube": _truncated_cube(),
    "rectangle": [[-1, -1], [2, -1], [2, 1], [-1, 1]],  # Delzant, not reflexive
    "triangle_nondelzant": [[0, 0], [2, 0], [0, 1]],
}

DATASETS = {
    # generated by the package from Bl2CP2 with xi = (1, 0): two fixed spheres
    "bl2cp2_10": {
        "half_dim": 2,
        "relative_fano": True,
        "fano": True,
        "components": [
            {
                "id": "s-1_0__-1_2",
                "kind": "surface",
                "H": -1,
                "weights": [1],
                "genus": 0,
                "normal_degrees": [0],
                "area": 2,
            },
            {"id": "v0_-1", "kind": "point", "H": 0, "weights": [-1, 1]},
            {
                "id": "s1_-1__1_0",
                "kind": "surface",
                "H": 1,
                "weights": [-1],
                "genus": 0,
                "normal_degrees": [-1],
                "area": 1,
            },
        ],
        "edges": [
            {"bottom": "s-1_0__-1_2", "top": "s1_-1__1_0", "weight": 1},
            {"bottom": "s-1_0__-1_2", "top": "v0_-1", "weight": 1},
            {"bottom": "v0_-1", "top": "s1_-1__1_0", "weight": 1},
        ],
    },
    "inconsistent": {
        "half_dim": 2,
        "relative_fano": True,
        "components": [
            {"id": "lo", "kind": "point", "H": -2, "weights": [1, 1]},
            {"id": "hi", "kind": "point", "H": 1, "weights": [-1, -1]},
        ],
    },
}

CASES = {
    **{f"scan_{name}": ["toric", "scan", name, "--bound", "5"] for name in CATALOG},
    "scan_cp3": ["toric", "scan", "cp3.json", "--bound", "2"],
    "scan_cube": ["toric", "scan", "cube.json", "--bound", "2"],
    "scan_truncated_cube": ["toric", "scan", "truncated_cube.json", "--bound", "1"],
    "scan_rectangle": ["toric", "scan", "rectangle.json", "--bound", "3"],
    "scan_triangle_nondelzant": ["toric", "scan", "triangle_nondelzant.json", "--bound", "2"],
    "normalize_bl2cp2_10": ["normalize", "bl2cp2_10.json"],
    "normalize_inconsistent": ["normalize", "inconsistent.json"],
}


def _render(argv):
    code, out = run(argv)
    return f"exit {code}\n{out}\n"


def write_corpus() -> None:
    for name, vertices in POLYTOPES.items():
        doc = {"schema_version": "1", "polytope": {"vertices": vertices}}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc) + "\n")
    for name, payload in DATASETS.items():
        doc = {"schema_version": "1", "fixed_point_data": payload}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc) + "\n")
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.golden").write_text(_render(argv))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{case}.golden").read_text()
    assert _render(CASES[case]) == expected


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_golden --write")
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)  # documents are named relative to the corpus
    write_corpus()
