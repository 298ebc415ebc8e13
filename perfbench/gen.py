"""Seeded inputs for the hamfano benchmark, built without the package.

Every polytope, document and expected result here is derived from first
principles (vertex lists, edge directions, the toric recipe for fixed-point
data), so the oracles that consume this metadata share no code with
``hamfano``.  The same workload name and seed always give byte-identical
files and the same op list.

An op is a dict:

* ``kind`` is ``"cli"`` (argv for ``hamfano.cli.run``) or ``"corr"`` (the
  library call ``fibre_correspondence(surface_graph(d), karshon_graph(P, xi))``);
* ``expect`` is the exit code the op must return (``"corr"`` ops expect 0,
  meaning "no exception");
* ``check`` names the oracle in ``oracles.py`` and carries its facts;
* ``dirs`` is how many circle directions the op's input names.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Vec = Tuple[int, ...]

# Anticanonical toric del Pezzo polygons, vertices in cyclic order.
POLYGONS: Dict[str, List[Vec]] = {
    "CP2": [(-1, -1), (2, -1), (-1, 2)],
    "CP1xCP1": [(-1, -1), (1, -1), (1, 1), (-1, 1)],
    "Bl1CP2": [(-1, 0), (0, -1), (2, -1), (-1, 2)],
    "Bl2CP2": [(-1, 0), (0, -1), (1, -1), (1, 0), (-1, 2)],
    "Bl3CP2": [(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)],
}

# Bounds of one scan cycle, per polytope.  Small bounds repeat, so that most
# ops are quick while the large bounds carry most of the directions; a cycle
# has at least 100 ops, ten of them beyond its 90th percentile, and stays
# short enough (a few seconds) for a run to hold several.
SCAN2D_BOUNDS = [2] * 8 + [3] * 4 + [4] * 2 + [5] * 2 + [6, 8, 10, 12, 14, 16]
SCAN3D_BOUNDS = [1] * 10 + [2] * 6 + [3] * 3 + [4]

PRODUCT_GENERA = (1, 2, 3)
PRODUCT_DIRECTIONS = 4  # generic directions per (polygon, genus)
PRODUCT_PERTURBED = 12  # of the 5 * 3 * 4 = 60 products
DH_GENERIC, DH_NONGENERIC = 3, 2  # dh ops per polygon


# -- lattice helpers -----------------------------------------------------------


def dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


# A seeded signed permutation moves each polytope to another lattice
# position.  It keeps the combinatorics and every invariant, and it maps the
# max-norm ball of directions to itself, so a scan does the same amount of
# work whatever the seed.
def _signed_permutations(dim: int) -> List[tuple]:
    out = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            out.append(tuple(tuple(signs[i] if j == perm[i] else 0 for j in range(dim)) for i in range(dim)))
    return out


def primitive(v: Sequence[int]) -> Vec:
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in v)


def primitive_directions(dim: int, bound: int) -> List[Vec]:
    """Primitive vectors of max-norm <= bound, one per +- pair, sorted."""
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=dim):
        if any(v) and math.gcd(*v) == 1 and next(x for x in v if x) > 0:
            out.append(v)
    return sorted(out)


def _apply(m, v: Sequence[int]) -> Vec:
    return tuple(dot(row, v) for row in m)


class Polytope:
    """Vertices plus edges (index pairs) known from the construction."""

    def __init__(self, name: str, vertices: List[Vec], edges: List[Tuple[int, int]], reflexive: bool):
        self.name = name
        self.vertices = vertices
        self.edges = edges
        self.reflexive = reflexive
        self.dim = len(vertices[0])

    def transformed(self, m) -> "Polytope":
        return Polytope(self.name, [_apply(m, v) for v in self.vertices], self.edges, self.reflexive)

    def edge_directions(self) -> List[Vec]:
        return [primitive(tuple(b - a for a, b in zip(self.vertices[i], self.vertices[j]))) for i, j in self.edges]

    def is_generic(self, xi: Sequence[int]) -> bool:
        return all(dot(xi, d) != 0 for d in self.edge_directions())

    def document(self) -> dict:
        return {"schema_version": "1", "polytope": {"dim": self.dim, "vertices": [list(v) for v in self.vertices]}}


def polygon(name: str) -> Polytope:
    vs = POLYGONS[name]
    k = len(vs)
    return Polytope(name, list(vs), [(i, (i + 1) % k) for i in range(k)], True)


def _prism(name: str, base: str) -> Polytope:
    vs = POLYGONS[base]
    k = len(vs)
    verts = [v + (-1,) for v in vs] + [v + (1,) for v in vs]
    edges = [(i, (i + 1) % k) for i in range(k)]
    edges += [(k + i, k + (i + 1) % k) for i in range(k)]
    edges += [(i, k + i) for i in range(k)]
    return Polytope(name, verts, edges, True)


def polytopes_3d() -> List[Polytope]:
    cp3 = [(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)]
    cube = list(itertools.product((-1, 1), repeat=3))
    cube_edges = [
        (i, j)
        for i, j in itertools.combinations(range(8), 2)
        if sum(a != b for a, b in zip(cube[i], cube[j])) == 1
    ]
    # [0,3]^3 with every corner cut at lattice distance one: 24 vertices,
    # 36 edges, Delzant but not reflexive.
    trunc: List[Vec] = []
    for corner in itertools.product((0, 3), repeat=3):
        for axis in range(3):
            v = list(corner)
            v[axis] += 1 if corner[axis] == 0 else -1
            trunc.append(tuple(v))
    trunc_edges = []
    for c in range(8):
        trunc_edges += [(3 * c, 3 * c + 1), (3 * c, 3 * c + 2), (3 * c + 1, 3 * c + 2)]
    corners = list(itertools.product((0, 3), repeat=3))
    for a, b in itertools.combinations(range(8), 2):
        diff = [i for i in range(3) if corners[a][i] != corners[b][i]]
        if len(diff) == 1:
            trunc_edges.append((3 * a + diff[0], 3 * b + diff[0]))
    return [
        Polytope("CP3", cp3, list(itertools.combinations(range(4), 2)), True),
        Polytope("cube", cube, cube_edges, True),
        _prism("CP2xCP1", "CP2"),
        _prism("Bl3CP2xCP1", "Bl3CP2"),
        Polytope("truncated_cube", trunc, trunc_edges, False),
    ]


# -- fixed-point data of products X x Sigma_g ----------------------------------


def vertex_id(v: Vec) -> str:
    return "v" + "_".join(str(x) for x in v)


def polygon_points(p: Polytope, xi: Vec) -> List[dict]:
    """Isolated fixed points of (P, xi) for a generic xi: id, H and weights."""
    k = len(p.vertices)
    pts = []
    for i, v in enumerate(p.vertices):
        nbrs = [p.vertices[(i - 1) % k], p.vertices[(i + 1) % k]]
        ws = sorted(dot(xi, primitive(tuple(b - a for a, b in zip(v, w)))) for w in nbrs)
        pts.append({"id": vertex_id(v), "H": dot(xi, v), "weights": ws})
    return pts


def product_data(p: Polytope, xi: Vec, genus: int) -> dict:
    """X x Sigma_g with the circle acting on X: one fixed surface per vertex,
    one isotropy 4-manifold per polygon edge of weight >= 2."""
    comps = [
        {
            "id": pt["id"],
            "kind": "surface",
            "H": pt["H"],
            "weights": pt["weights"],
            "genus": genus,
            "normal_degrees": [0, 0],
            "fibre_intersection": 1,
        }
        for pt in sorted(polygon_points(p, xi), key=lambda c: (c["H"], c["id"]))
    ]
    edges = []
    for i, j in p.edges:
        a, b = p.vertices[i], p.vertices[j]
        w = dot(xi, primitive(tuple(y - x for x, y in zip(a, b))))
        if abs(w) >= 2:
            lo, hi = (a, b) if w > 0 else (b, a)
            edges.append({"bottom": vertex_id(lo), "top": vertex_id(hi), "weight": abs(w)})
    edges.sort(key=lambda e: (e["bottom"], e["top"], e["weight"]))
    return {
        "half_dim": 3,
        "relative_fano": True,
        "fano": False,
        "components": comps,
        "edges": edges,
    }


# -- type A/B/C rows -------------------------------------------------------------

_TYPE_A, _TYPE_B, _TYPE_C = [-2, -1, 1], [-1, -1, 2], [-1, -1, 1]


def abc_rows() -> List[Tuple[Tuple[int, ...], int, int, int]]:
    """(max type, n_A, n_B, n_C) with positive level-0 reduced volume.

    Above level 0 sit the maximum and the type-A (H=2) and type-C (H=1)
    points; the volume is -sum H(p)^2 / prod weights(p) over them.
    """
    rows = []
    for mt, h_max in (((-1, -1, -1), 3), ((-2, -1, -1), 4)):
        n_b_extra = 0 if h_max == 3 else 1
        for n_a in range(5):
            for n_c in range(9):
                vol = (
                    -Fraction(h_max * h_max, math.prod(mt))
                    - n_a * Fraction(4, math.prod(_TYPE_A))
                    - n_c * Fraction(1, math.prod(_TYPE_C))
                )
                if vol > 0:
                    rows.append((mt, n_a, n_a + n_b_extra, n_c))
    return rows


def abc_data(mt: Tuple[int, ...], n_a: int, n_b: int, n_c: int) -> dict:
    comps = [
        {"id": "min", "kind": "fourfold", "H": -1, "weights": [1], "b2": n_a + n_b + n_c + 1},
        {"id": "max", "kind": "point", "H": -sum(mt), "weights": sorted(mt)},
    ]
    comps += [{"id": f"a{i}", "kind": "point", "H": 2, "weights": _TYPE_A} for i in range(n_a)]
    comps += [{"id": f"b{i}", "kind": "point", "H": 0, "weights": _TYPE_B} for i in range(n_b)]
    comps += [{"id": f"c{i}", "kind": "point", "H": 1, "weights": _TYPE_C} for i in range(n_c)]
    edges = [{"bottom": f"b{i}", "top": f"a{i}", "weight": 2} for i in range(n_a)]
    if n_b > n_a:
        edges.append({"bottom": f"b{n_a}", "top": "max", "weight": 2})
    return {"half_dim": 3, "relative_fano": True, "fano": True, "components": comps, "edges": edges}


# -- op lists ------------------------------------------------------------------------


def _write(out_dir: str, name: str, doc: dict) -> str:
    """Write doc as out_dir/name; ops refer to it by name, relative to out_dir."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
        fh.write("\n")
    return name


def _data_doc(payload: dict) -> dict:
    return {"schema_version": "1", "fixed_point_data": payload}


def _random_generic(rng: random.Random, p: Polytope, bound: int) -> Vec:
    choices = [xi for xi in primitive_directions(p.dim, bound) if p.is_generic(xi)]
    xi = rng.choice(choices)
    return xi if rng.random() < 0.5 else tuple(-x for x in xi)


def _scan_ops(rng: random.Random, out_dir: str, polys: List[Polytope], bounds: List[int]) -> List[dict]:
    ops = []
    for p in polys:
        p = p.transformed(rng.choice(_signed_permutations(p.dim)))
        path = _write(out_dir, f"{p.name}.json", p.document())
        for b in bounds:
            dirs = primitive_directions(p.dim, b)
            ops.append(
                {
                    "kind": "cli",
                    "argv": ["toric", "scan", path, "--bound", str(b)],
                    "expect": 0,
                    "dirs": len(dirs),
                    "check": {
                        "type": "scan",
                        "bound": b,
                        "dim": p.dim,
                        "reflexive": p.reflexive,
                        "edge_dirs": [list(d) for d in p.edge_directions()],
                    },
                }
            )
    return ops


def _docs6_ops(rng: random.Random, out_dir: str) -> List[dict]:
    ops: List[dict] = []
    polys = {name: polygon(name).transformed(rng.choice(_signed_permutations(2))) for name in POLYGONS}
    for name, p in polys.items():
        path = _write(out_dir, f"{name}.json", p.document())
        for k in range(DH_GENERIC + DH_NONGENERIC):
            if k < DH_GENERIC:
                xi = _random_generic(rng, p, 4)
            else:
                i, j = rng.choice(p.edges)
                d = primitive(tuple(b - a for a, b in zip(p.vertices[i], p.vertices[j])))
                xi = (-d[1], d[0]) if rng.random() < 0.5 else (d[1], -d[0])
            ops.append(
                {
                    "kind": "cli",
                    "argv": ["dh", "toric", path, "--xi", f"{xi[0]},{xi[1]}"],
                    "expect": 0,
                    "dirs": 1,
                    "check": {"type": "dh", "vertices": [list(v) for v in p.vertices], "xi": list(xi)},
                }
            )

    products = [
        (name, genus, n)
        for name in POLYGONS
        for genus in PRODUCT_GENERA
        for n in range(PRODUCT_DIRECTIONS)
    ]
    perturbed = set(rng.sample(range(len(products)), PRODUCT_PERTURBED))
    for idx, (name, genus, n) in enumerate(products):
        p = polys[name]
        xi = _random_generic(rng, p, 3)
        data = product_data(p, xi, genus)
        shift = None
        if idx in perturbed:
            comp = rng.choice(data["components"])
            slot = rng.randrange(2)
            degree = rng.choice((-2, -1, 1, 2))
            comp["normal_degrees"][slot] = degree
            w = comp["weights"][slot]
            shift = [-degree, w * w]
        stem = f"prod_{name}_g{genus}_{n}"
        data_path = _write(out_dir, stem + ".json", _data_doc(data))
        suite_path = _write(
            out_dir,
            stem + "_suite.json",
            {
                "schema_version": "1",
                "suite_request": {
                    "data": data,
                    "fibre": p.document()["polytope"],
                    "fibre_xi": list(xi),
                },
            },
        )
        hs = [c["H"] for c in data["components"]]
        facts = {
            "data": data,
            "genus": genus,
            "shift": shift,
            "in_range": -3 <= min(hs) and max(hs) <= 3,
        }
        # A perturbed product's localisation sum is -n/w^2, so `localize` and
        # the suite's global identity fail on it.  On a genuine product every
        # conclusion of the small-Hamiltonian suite holds, and the one
        # hypothesis it can flag is the level range [-3, 3].
        bad = 1 if shift else 0
        for argv, expect, check, dirs in (
            (["validate", data_path], 0, "validate", 0),
            (["normalize", data_path], 0, "normalize", 0),
            (["localize", "6d", data_path], bad, "localize", 0),
            (["chi-y", data_path], 0, "chi_y_product", 0),
            (["fano6", "graph", data_path], 0, "graph", 0),
            (["fano6", "chains", data_path], 0, "chains", 0),
            (["fano6", "suite", suite_path], 0 if facts["in_range"] and not shift else 1, "suite", 1),
        ):
            ops.append({"kind": "cli", "argv": argv, "expect": expect, "dirs": dirs, "check": dict(facts, type=check)})
        ops.append(
            {
                "kind": "corr",
                "data": data_path,
                "polytope": f"{name}.json",
                "xi": list(xi),
                "expect": 0,
                "dirs": 1,
                "check": dict(facts, type="corr"),
            }
        )

    for mt, n_a, n_b, n_c in abc_rows():
        data = abc_data(mt, n_a, n_b, n_c)
        path = _write(out_dir, f"abc_{-sum(mt)}_{n_a}_{n_b}_{n_c}.json", _data_doc(data))
        facts = {"data": data, "counts": [n_a, n_b, n_c]}
        for argv, check in (
            (["fano6", "abc", path], "abc"),
            (["validate", path], "validate"),
            (["chi-y", path], "chi_y_abc"),
            (["normalize", path], "normalize"),
        ):
            ops.append({"kind": "cli", "argv": argv, "expect": 0, "dirs": 0, "check": dict(facts, type=check)})
    return ops


WORKLOADS = ("scan2d", "scan3d", "docs6")


def generate(workload: str, seed: int, out_dir: str) -> List[dict]:
    """Write the workload's input files under out_dir and return one cycle of
    ops.  File names in the ops are relative to out_dir, the directory the
    ops must run in."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    os.makedirs(out_dir, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan2d":
        ops = _scan_ops(rng, out_dir, [polygon(n) for n in POLYGONS], SCAN2D_BOUNDS)
    elif workload == "scan3d":
        ops = _scan_ops(rng, out_dir, polytopes_3d(), SCAN3D_BOUNDS)
    else:
        ops = _docs6_ops(rng, out_dir)
    rng.shuffle(ops)
    _write(out_dir, "ops.json", {"workload": workload, "seed": seed, "ops": ops})
    return ops
