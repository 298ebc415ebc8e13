"""Golden corpus: exact CLI output (exit code and stdout) on fixed inputs.

Each case stores ``exit N`` on its first line followed by the bytes the
CLI prints.  The inputs are the catalog polygons and a few 3-polytopes,
X x Sigma_g products from ``tests/lifts.py`` (a genuine one, one with a
perturbed normal degree, one with degrees missing and one with fixed
spheres, whose suites carry inconclusive records) and ``build_04_data``
rows.  The stdout of the README's experiment scripts, run as
subprocesses, is stored the same way without the exit line.  The corpus
pins behaviour across refactors: a change that alters any of these outputs
on purpose regenerates the affected files and says why.  Regenerate with

    PYTHONPATH=src python -m tests.test_golden --write
"""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hamfano.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"

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


def _prism(base):
    return [[x, y, z] for x, y in base for z in (-1, 1)]


POLYTOPES = {
    "cp3": [[-1, -1, -1], [3, -1, -1], [-1, 3, -1], [-1, -1, 3]],
    "cube": [list(v) for v in itertools.product((-1, 1), repeat=3)],
    "truncated_cube": _truncated_cube(),
    "cp2xcp1": _prism([(-1, -1), (2, -1), (-1, 2)]),
    "bl3cp2xcp1": _prism([(-1, -4), (0, -1), (1, 3), (1, 4), (0, 1), (-1, -3)]),
    "rectangle": [[-1, -1], [2, -1], [2, 1], [-1, 1]],  # Delzant, not reflexive
    "triangle_nondelzant": [[0, 0], [2, 0], [0, 1]],
    "cp2": [[-1, -1], [2, -1], [-1, 2]],
    # the other catalog polygons, for DH functions of directions that fix spheres
    "cp1xcp1": [[-1, -1], [1, -1], [1, 1], [-1, 1]],
    "bl1cp2": [[-1, 0], [0, -1], [2, -1], [-1, 2]],
    "bl2cp2": [[-1, 0], [0, -1], [1, -1], [1, 0], [-1, 2]],
    "bl3cp2": [[-1, -4], [0, -1], [1, 3], [1, 4], [0, 1], [-1, -3]],
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
    # edges x->y and y->x: the second one climbs back up the Hamiltonian
    "two_cycle": {
        "half_dim": 3,
        "components": [
            {"id": "x", "kind": "point", "H": 0, "weights": [-2, 1, 1]},
            {"id": "y", "kind": "point", "H": 1, "weights": [-2, 1, 1]},
        ],
        "edges": [
            {"bottom": "x", "top": "y", "weight": 2},
            {"bottom": "y", "top": "x", "weight": 2},
        ],
    },
    # CP2 x Sigma_1 under (1, 2) with every level shifted by -1/2, so the
    # constant is a p/q string; a p/q area, a fibre class and interior points
    "fractional": {
        "half_dim": 3,
        "relative_fano": True,
        "components": [
            {
                "id": "lo",
                "kind": "surface",
                "H": "-7/2",
                "weights": [1, 2],
                "genus": 1,
                "normal_degrees": [0, -1],
                "area": "3/2",
                "fibre_class": True,
            },
            {"id": "mid", "kind": "surface", "H": "-1/2", "weights": [-1, 1], "genus": 1},
            {"id": "hi", "kind": "surface", "H": "5/2", "weights": [-2, -1], "genus": 1},
        ],
        "edges": [{"bottom": "lo", "top": "hi", "weight": 2, "interior_points": [[1, -1]]}],
    },
}



def _generated_datasets():
    """Product and A/B/C-row documents, rendered by the package itself.

    Only ``write_corpus`` calls this: the tests read the stored documents.
    """
    from dataclasses import replace

    from hamfano.cli import render_fixed_point_data
    from hamfano.fano6 import build_04_data
    from hamfano.fixed_data import FixedComponent
    from hamfano.toric import catalog_entry

    from .lifts import lift_product

    cp2 = catalog_entry("CP2").polytope
    prod = lift_product(cp2, (1, 2), genus=1)

    def with_components(comps):
        return prod.replace_components(comps)

    def sphere(cid, h, weights, nd):
        return FixedComponent(
            id=cid, kind="surface", H=h, weights=weights, genus=0, normal_degrees=nd, area=1
        )

    datasets = {
        "prod_cp2_g1": prod,
        "prod_bl1cp2_g2": lift_product(catalog_entry("Bl1CP2").polytope, (1, 3), genus=2),
        # one normal degree changed: the localisation sum becomes -n/w^2
        "prod_cp2_g1_perturbed": with_components(
            replace(c, normal_degrees=(-1, 0)) if c.id == "v2_-1" else c
            for c in prod.components
        ),
        # degrees dropped on the middle surface: the cycle estimate is inconclusive
        "prod_cp2_g1_nodeg": with_components(
            replace(c, normal_degrees=None) if c.id == "v2_-1" else c
            for c in prod.components
        ),
        # fixed spheres below, on and above level 0
        "prod_cp2_g1_spheres": with_components(
            prod.components
            + (
                sphere("sa", -2, (-1, 2), (0, 0)),
                sphere("sb", -1, (-1, 2), (-1, 0)),
                sphere("sc", 0, (-1, 1), None),
                sphere("sd", 1, (-1, 1), (0, 0)),
            )
        ),
        "abc_3_1_1_2": build_04_data((-1, -1, -1), 1, 1, 2),
        "abc_4_1_2_1": build_04_data((-2, -1, -1), 1, 2, 1),
    }
    out = {name: render_fixed_point_data(d) for name, d in datasets.items()}
    out["suite_cp2_g2"] = {
        "suite_request": {
            "data": render_fixed_point_data(lift_product(cp2, (1, 2), genus=2)),
            "fibre": {"dim": 2, "vertices": POLYTOPES["cp2"]},
            "fibre_xi": [1, 2],
            "levels": [0, "5/2"],
        }
    }
    return out


PRODUCTS = (
    "prod_cp2_g1",
    "prod_bl1cp2_g2",
    "prod_cp2_g1_perturbed",
    "prod_cp2_g1_nodeg",
    "prod_cp2_g1_spheres",
)
PRODUCT_COMMANDS = {
    "validate": ["validate"],
    "normalize": ["normalize"],
    "localize6d": ["localize", "6d"],
    "chiy": ["chi-y"],
    "graph": ["fano6", "graph"],
    "chains": ["fano6", "chains"],
    "suite": ["fano6", "suite"],
}
ROWS = ("abc_3_1_1_2", "abc_4_1_2_1")
ROW_COMMANDS = {
    "abc": ["fano6", "abc"],
    "validate": ["validate"],
    "chiy": ["chi-y"],
    "normalize": ["normalize"],
}

CASES = {
    **{f"scan_{name}": ["toric", "scan", name, "--bound", "5"] for name in CATALOG},
    "scan_cp3": ["toric", "scan", "cp3.json", "--bound", "2"],
    "scan_cube": ["toric", "scan", "cube.json", "--bound", "2"],
    "scan_truncated_cube": ["toric", "scan", "truncated_cube.json", "--bound", "1"],
    "scan_truncated_cube_b2": ["toric", "scan", "truncated_cube.json", "--bound", "2"],
    "scan_cp2xcp1": ["toric", "scan", "cp2xcp1.json", "--bound", "2"],
    "scan_bl3cp2xcp1": ["toric", "scan", "bl3cp2xcp1.json", "--bound", "2"],
    "scan_rectangle": ["toric", "scan", "rectangle.json", "--bound", "3"],
    "scan_triangle_nondelzant": ["toric", "scan", "triangle_nondelzant.json", "--bound", "2"],
    "normalize_bl2cp2_10": ["normalize", "bl2cp2_10.json"],
    "validate_bl2cp2_10": ["validate", "bl2cp2_10.json"],
    "localize4d_bl2cp2_10": ["localize", "4d", "bl2cp2_10.json"],
    "chiy_bl2cp2_10": ["chi-y", "bl2cp2_10.json"],
    "normalize_inconsistent": ["normalize", "inconsistent.json"],
    "normalize_fractional": ["normalize", "fractional.json"],
    **{
        f"{cmd}_{doc}": argv + [f"{doc}.json"]
        for docs, commands in ((PRODUCTS, PRODUCT_COMMANDS), (ROWS, ROW_COMMANDS))
        for doc in docs
        for cmd, argv in commands.items()
    },
    "validate_two_cycle": ["validate", "two_cycle.json"],
    "chains_two_cycle": ["fano6", "chains", "two_cycle.json"],
    "suite_suite_cp2_g2": ["fano6", "suite", "suite_cp2_g2.json"],
    "dh_cp2_generic": ["dh", "toric", "cp2.json", "--xi", "1,2"],
    "dh_cp2_nongeneric": ["dh", "toric", "cp2.json", "--xi", "0,1"],
    # fixed spheres at both extremes, at the minimum only, at the maximum only,
    # and on both opposite edges of the hexagon
    "dh_cp1xcp1_nongeneric": ["dh", "toric", "cp1xcp1.json", "--xi", "1,0"],
    "dh_bl1cp2_nongeneric": ["dh", "toric", "bl1cp2.json", "--xi", "1,0"],
    "dh_bl2cp2_nongeneric": ["dh", "toric", "bl2cp2.json", "--xi", "0,-1"],
    "dh_bl3cp2_nongeneric": ["dh", "toric", "bl3cp2.json", "--xi", "1,0"],
    "enumerate_04": ["enumerate-04"],
}


SCRIPTS = {
    "script_sweep_catalog_bound5": ["scripts/sweep_catalog.py", "--bound", "5", "--verbose"],
    "script_delpezzo_bound": ["scripts/delpezzo_bound.py"],
}


def _render(argv):
    code, out = run(argv)
    return f"exit {code}\n{out}\n"


def _script_stdout(argv) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=120
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


def write_corpus() -> None:
    for name, vertices in POLYTOPES.items():
        doc = {"schema_version": "1", "polytope": {"vertices": vertices}}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc) + "\n")
    for name, payload in DATASETS.items():
        doc = {"schema_version": "1", "fixed_point_data": payload}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc) + "\n")
    for name, payload in _generated_datasets().items():
        if "suite_request" not in payload:
            payload = {"fixed_point_data": payload}
        doc = {"schema_version": "1", **payload}
        (GOLDEN / f"{name}.json").write_text(json.dumps(doc) + "\n")
    for case, argv in CASES.items():
        (GOLDEN / f"{case}.golden").write_text(_render(argv))
    for case, argv in SCRIPTS.items():
        (GOLDEN / f"{case}.golden").write_bytes(_script_stdout(argv))


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_output(case, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    expected = (GOLDEN / f"{case}.golden").read_text()
    assert _render(CASES[case]) == expected


@pytest.mark.parametrize("case", sorted(SCRIPTS))
def test_script_output(case):
    assert _script_stdout(SCRIPTS[case]) == (GOLDEN / f"{case}.golden").read_bytes()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python -m tests.test_golden --write")
    GOLDEN.mkdir(exist_ok=True)
    os.chdir(GOLDEN)  # documents are named relative to the corpus
    write_corpus()
