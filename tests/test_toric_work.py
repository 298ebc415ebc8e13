"""Work the toric scan path must not redo, and the polytope build and the
generated data against a brute-force facet enumeration that shares no code
with the package."""

import itertools
import json
import math
import random

import pytest

import hamfano.dh
import hamfano.fixed_data
import hamfano.toric
from hamfano.cli import run
from hamfano.dh import fibre_area_bound_check
from hamfano.localization import weight_sum_constant, weight_sum_normalize
from hamfano.reports import StructuralError
from hamfano.toric import (
    CATALOG,
    LatticePolytope,
    UnsupportedDirectionError,
    boundary_selfint_2d,
    catalog_entry,
    delzant_check,
    fixed_data_from_polytope,
    primitive_directions,
    scan_directions,
)

from .test_golden import GOLDEN, POLYTOPES


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


# -- work counts ------------------------------------------------------------------


def test_scan_generates_each_direction_once(monkeypatch):
    calls = _counting(monkeypatch, hamfano.toric, "fixed_data_from_polytope")
    code, _out = run(["toric", "scan", "Bl3CP2", "--bound", "4"])
    assert code == 0
    assert len(calls) == len(primitive_directions(2, 4))


def test_fibre_area_bound_check_generates_once(monkeypatch):
    calls = _counting(monkeypatch, hamfano.dh, "fixed_data_from_polytope")
    assert fibre_area_bound_check(catalog_entry("Bl3CP2").polytope, (1, 2)).ok
    assert len(calls) == 1


def test_generation_reads_weights_from_the_edge_pairings(monkeypatch):
    p = catalog_entry("Bl3CP2").polytope
    calls = _counting(monkeypatch, LatticePolytope, "vertex_edges")
    for xi in primitive_directions(2, 3):
        fixed_data_from_polytope(p, xi)
    assert calls == []


def test_weight_sum_constant_builds_no_component(monkeypatch):
    data = fixed_data_from_polytope(catalog_entry("Bl3CP2").polytope, (1, 2))
    expected, _shifted = weight_sum_normalize(data)
    calls = _counting(monkeypatch, hamfano.fixed_data.FixedComponent, "__init__")
    assert weight_sum_constant(data) == expected
    assert calls == []


def test_catalog_entry_builds_only_the_named_polygon(monkeypatch):
    calls = _counting(monkeypatch, LatticePolytope, "__init__")
    entry = catalog_entry("Bl3CP2")
    assert len(calls) == 1
    assert entry.polytope.vertices == tuple(sorted(hamfano.toric.CATALOG["Bl3CP2"][0]))


def test_vertex_basis_test_runs_once_per_vertex(monkeypatch):
    vertices = catalog_entry("Bl3CP2").polytope.vertices
    calls = _counting(monkeypatch, hamfano.toric, "_is_lattice_basis")
    p = LatticePolytope(vertices)
    for xi in primitive_directions(2, 2):
        assert delzant_check(p)
        fixed_data_from_polytope(p, xi)
    assert len(calls) == len(p.vertices)


def test_3d_build_turns_each_ridge_once(monkeypatch):
    # gift wrapping: whole-set plane tests only for the first facet, all
    # through the lex-least vertex, then one turn about each ridge, and the
    # turned ridges are the edges
    sides = _counting(monkeypatch, hamfano.toric, "_supporting_side")
    turns = _counting(monkeypatch, hamfano.toric, "_wrap_ridge")
    p = LatticePolytope(POLYTOPES_3D["truncated_cube"])
    first = p.vertices[0]
    assert sides and all(level == sum(x * y for x, y in zip(n, first)) for n, level, _ in sides)
    assert len(sides) <= math.comb(len(p.vertices) - 1, 2)
    assert len(turns) == len(p.edges) == 36
    ends = {tuple(sorted((p.vertices.index(a), p.vertices.index(b)))) for a, b, _q, _off in turns}
    assert ends == {(e.i, e.j) for e in p.edges}


def _golden_vertices(name):
    doc = json.loads((GOLDEN / f"{name}.json").read_text())
    return [tuple(v) for v in doc["polytope"]["vertices"]]


def test_scan_constructs_each_gradient_edge_once(monkeypatch):
    calls = _counting(monkeypatch, hamfano.fixed_data.GradientEdge, "__init__")
    for p, bound in ((catalog_entry("Bl3CP2").polytope, 8), (LatticePolytope(_golden_vertices("cube")), 4)):
        calls.clear()
        keys = {
            (e.bottom, e.top, e.weight)
            for item in scan_directions(p, bound)
            if item.data is not None
            for e in item.data.edges
        }
        assert sorted(args[1:] for args in calls) == sorted(keys)


def test_a_scanned_polytope_scans_as_a_fresh_one(monkeypatch, tmp_path):
    for vertices in (CATALOG["Bl3CP2"][0], POLYTOPES["cube"]):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"schema_version": "1", "polytope": {"vertices": vertices}}))
        argv = ["toric", "scan", str(path), "--bound", "3"]
        fresh = run(argv)
        p = LatticePolytope(vertices)
        for bound in (2, 4, 1):
            list(scan_directions(p, bound))
        assert p._gradient_edges
        with monkeypatch.context() as m:
            m.setattr(hamfano.cli, "load_polytope", lambda _path: p)
            assert run(argv) == fresh


def _generated(p, xi):
    try:
        return fixed_data_from_polytope(p, xi)
    except UnsupportedDirectionError as exc:
        return str(exc)


def test_each_dataset_equals_one_built_without_kept_edges():
    for vertices in (CATALOG["Bl3CP2"][0], POLYTOPES["cube"]):
        kept, cleared = LatticePolytope(vertices), LatticePolytope(vertices)
        for xi in primitive_directions(kept.dim, 4):
            cleared._gradient_edges.clear()
            assert _generated(kept, xi) == _generated(cleared, xi), xi


def test_non_delzant_polygon_constructs():
    p = LatticePolytope([(0, 0), (2, 0), (0, 1)])
    assert not delzant_check(p)
    assert not p.reflexive
    assert len(p.vertex_edges(0)) == 2


# -- the polytope build ------------------------------------------------------------


def _oracle_faces(points):
    """Facets and edges of the hull of points in dimension 2 or 3, by checking
    every line through two of them, or plane through three, against all the
    others; an edge is a pair of points on dim - 1 common facets."""
    pts = sorted(set(points))
    dim = len(pts[0])

    def gcd(v):
        g = 0
        for x in v:
            g = math.gcd(g, x)
        return g

    facets = set()
    for a, *rest in itertools.combinations(pts, dim):
        if dim == 2:
            (b,) = rest
            n = (a[1] - b[1], b[0] - a[0])
        else:
            b, c = rest
            ab = [b[k] - a[k] for k in range(3)]
            ac = [c[k] - a[k] for k in range(3)]
            n = (
                ab[1] * ac[2] - ab[2] * ac[1],
                ab[2] * ac[0] - ab[0] * ac[2],
                ab[0] * ac[1] - ab[1] * ac[0],
            )
        if not any(n):
            continue
        values = [sum(n[k] * (q[k] - a[k]) for k in range(dim)) for q in pts]
        if min(values) >= 0:
            sign = 1
        elif max(values) <= 0:
            sign = -1
        else:
            continue
        g = gcd(n)
        u = tuple(sign * x // g for x in n)
        c_val = -sum(u[k] * a[k] for k in range(dim))
        on = frozenset(q for q in pts if sum(u[k] * q[k] for k in range(dim)) == -c_val)
        facets.add((u, c_val, on))
    edges = set()
    for p, q in itertools.combinations(pts, 2):
        if sum(1 for f in facets if p in f[2] and q in f[2]) >= dim - 1:
            d = tuple(q[k] - p[k] for k in range(dim))
            g = gcd(d)
            edges.add((p, q, tuple(x // g for x in d), g))
    return facets, edges


POLYTOPES_3D = {
    name: [tuple(v) for v in POLYTOPES[key]]
    for name, key in (
        ("CP3", "cp3"),
        ("cube", "cube"),
        ("CP2xCP1", "cp2xcp1"),
        ("Bl3CP2xCP1", "bl3cp2xcp1"),
        ("truncated_cube", "truncated_cube"),
    )
}


POLYGONS = {
    **{name: vertices for name, (vertices, _b2, _degree) in CATALOG.items()},
    "rectangle": [
        tuple(v) for v in json.loads((GOLDEN / "rectangle.json").read_text())["polytope"]["vertices"]
    ],
    "triangle_nondelzant": [tuple(v) for v in POLYTOPES["triangle_nondelzant"]],
}


def _assert_build_matches_brute_force(name, verts):
    p = LatticePolytope(verts)
    facets, edges = _oracle_faces(verts)
    got_facets = {
        (f.normal, f.c, frozenset(p.vertices[i] for i in f.vertex_ids)) for f in p.facets
    }
    got_edges = {
        (p.vertices[e.i], p.vertices[e.j], e.direction, e.length) for e in p.edges
    }
    assert got_facets == facets, name
    assert got_edges == edges, name
    assert [(e.i, e.j) for e in p.edges] == sorted((e.i, e.j) for e in p.edges), name
    assert [(f.normal, f.c) for f in p.facets] == sorted((f.normal, f.c) for f in p.facets), name
    return p


SOLIDS_3D = {
    "octahedron": [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
    "square pyramid": [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 2)],
    "hexagonal bipyramid": [
        (2, 0, 0), (1, 2, 0), (-1, 2, 0), (-2, 0, 0), (-1, -2, 0), (1, -2, 0), (0, 0, 3), (0, 0, -3)
    ],
    "box": [(x, y, z) for x in (0, 2) for y in (0, 3) for z in (0, 5)],
}


def _oracle_vertices(points):
    """The points that lie on three or more of the brute-force facets: none
    when the points are coplanar."""
    facets, _edges = _oracle_faces(points)
    return sorted(p for p in set(points) if sum(1 for f in facets if p in f[2]) >= 3)


def test_build_3d_matches_brute_force():
    # the solids add vertices on four or more facets; the truncated cube has octagons
    for name, verts in {**POLYTOPES_3D, **SOLIDS_3D}.items():
        p = _assert_build_matches_brute_force(name, verts)
        assert delzant_check(p) == (name in POLYTOPES_3D or name == "box"), name


def test_build_3d_matches_brute_force_on_seeded_point_sets():
    # a set with a point that is no vertex is refused; its vertices alone build
    valid = refused = 0
    for seed in range(400):
        rng = random.Random(seed)
        r = rng.choice((1, 2, 3, 5))
        size = rng.randint(4, 13)
        points = sorted({tuple(rng.randint(-r, r) for _ in range(3)) for _ in range(size)})
        vertices = _oracle_vertices(points)
        if vertices != points:
            with pytest.raises(StructuralError):
                LatticePolytope(points)
            refused += 1
        if vertices:
            _assert_build_matches_brute_force(f"seed {seed}", vertices)
            valid += 1
    assert valid >= 300 and refused >= 100, (valid, refused)


def test_build_2d_matches_brute_force():
    for name, verts in POLYGONS.items():
        p = _assert_build_matches_brute_force(name, verts)
        assert delzant_check(p) == (name != "triangle_nondelzant"), name


DEGENERATE = {
    "collinear 2D points": [(0, 0), (1, 1), (3, 3)],
    "coplanar 3D points": [(0, 0, 1), (2, 0, 1), (0, 2, 1), (2, 2, 1), (1, 1, 1)],
    "2D interior point": [(0, 0), (3, 0), (0, 3), (1, 1)],
    "2D mid-edge point": [(0, 0), (2, 0), (0, 2), (1, 0)],
    "3D interior point": [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1)],
    "3D mid-edge point": [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 0)],
    "3D mid-facet point": [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 0)],
    "octahedron mid-edge point": [
        (2, 0, 0), (-2, 0, 0), (0, 2, 0), (0, -2, 0), (0, 0, 2), (0, 0, -2), (1, 1, 0)
    ],
    "cube square-facet point": [*itertools.product((-1, 1), repeat=3), (0, 0, 1)],
    "one 2D point": [(1, 2)],
    "two 2D points": [(0, 0), (1, 0)],
    "one 3D point": [(0, 0, 0)],
    "two 3D points": [(0, 0, 0), (1, 2, 3)],
    "three 3D points": [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
}


@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_polytopes_are_structural_errors(case, tmp_path):
    with pytest.raises(StructuralError):
        LatticePolytope(DEGENERATE[case])
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"schema_version": "1", "polytope": {"vertices": DEGENERATE[case]}}))
    code, out = run(["toric", "scan", str(path), "--bound", "1"])
    assert code == 2
    assert "error" in json.loads(out)


def _oracle_selfint(verts):
    """D^2 of each boundary divisor from the brute-force facets: with u the
    normal of its facet and u', u'' those of the other facets at its two
    ends, u' + u'' = -D^2 u."""
    facets, _edges = _oracle_faces(verts)
    out = {}
    for u, _c, on in facets:
        s = [0, 0]
        for u2, _c2, on2 in facets:
            if u2 != u and on & on2:
                s = [s[0] + u2[0], s[1] + u2[1]]
        k, r = divmod(-(s[0] * u[0] + s[1] * u[1]), u[0] * u[0] + u[1] * u[1])
        assert r == 0 and [k * u[0], k * u[1]] == [-s[0], -s[1]]
        out[tuple(sorted(on))] = k
    return out


def test_boundary_selfintersections_match_the_oracle_and_sum_to_12_minus_3v():
    sums = []
    for name, (verts, _b2, _degree) in CATALOG.items():
        expected = _oracle_selfint(verts)
        p = catalog_entry(name).polytope
        got = {(p.vertices[e.i], p.vertices[e.j]): boundary_selfint_2d(p, e) for e in p.edges}
        assert got == expected, name
        assert sum(got.values()) == 12 - 3 * len(verts), name
        sums.append(sum(got.values()))
    assert sums == [3, 0, 0, -3, -6]


# -- generated data ----------------------------------------------------------------


def _oracle_directions(dim, bound):
    """Primitive vectors of max-norm <= bound whose first nonzero entry is positive."""
    return [
        xi
        for xi in itertools.product(range(-bound, bound + 1), repeat=dim)
        if math.gcd(*xi) == 1 and next(x for x in xi if x) > 0
    ]


def _oracle_id(v):
    return "v" + "_".join(str(x) for x in v)


def _assert_generation_matches_oracle(name, vertices, bound):
    corners = sorted({tuple(v) for v in vertices})
    p = LatticePolytope(corners)
    _facets, edges = _oracle_faces(corners)
    dim = len(corners[0])
    for xi in _oracle_directions(dim, bound):
        height = {v: sum(a * b for a, b in zip(xi, v)) for v in corners}
        pairing = {(a, b): sum(x * y for x, y in zip(xi, d)) for a, b, d, _g in edges}
        fixed = [(a, b, g) for (a, b, _d, g) in edges if pairing[a, b] == 0]
        if dim == 3 and fixed:
            with pytest.raises(UnsupportedDirectionError):
                fixed_data_from_polytope(p, xi)
            continue
        data = fixed_data_from_polytope(p, xi)
        owner = {v: _oracle_id(v) for v in corners}
        surfaces = {}
        for a, b, g in fixed:
            sid = "s" + _oracle_id(a)[1:] + "__" + _oracle_id(b)[1:]
            owner[a] = owner[b] = sid
            surfaces[sid] = (height[a], g)
        assert {c.id: (c.H, c.area) for c in data.surfaces()} == surfaces, (name, xi)
        points = {c.id: c for c in data.points()}
        assert set(points) == {owner[v] for v in corners} - set(surfaces), (name, xi)
        for v in corners:
            if owner[v] not in points:
                continue
            leaving = [w if v == a else -w for (a, b), w in pairing.items() if v in (a, b)]
            assert points[owner[v]].H == height[v], (name, xi, v)
            assert points[owner[v]].sorted_weights() == tuple(sorted(leaving)), (name, xi, v)
        expected = sorted(
            (owner[a], owner[b], w) if w > 0 else (owner[b], owner[a], -w)
            for (a, b), w in pairing.items()
            if w != 0
        )
        got = sorted((e.bottom, e.top, e.weight) for e in data.edges)
        assert got == expected, (name, xi)


def test_generation_matches_the_oracle_on_catalog_polygons():
    for name, (vertices, _b2, _degree) in CATALOG.items():
        _assert_generation_matches_oracle(name, vertices, 6)


def test_generation_matches_the_oracle_on_golden_3_polytopes():
    for name in ("cp3", "cube", "truncated_cube"):
        _assert_generation_matches_oracle(name, _golden_vertices(name), 4)
