"""Work the toric scan path must not redo, and the polytope build against a
brute-force facet enumeration that shares no code with the package."""

import itertools
import json
import math

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
    boundary_selfint_2d,
    catalog_entry,
    delzant_check,
    fixed_data_from_polytope,
    primitive_directions,
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


def test_non_delzant_polygon_constructs():
    p = LatticePolytope([(0, 0), (2, 0), (0, 1)])
    assert not delzant_check(p)
    assert not p.is_reflexive()
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


def _prism(base):
    return [(x, y, z) for x, y in base for z in (-1, 1)]


POLYTOPES_3D = {
    "CP3": [tuple(v) for v in POLYTOPES["cp3"]],
    "cube": [tuple(v) for v in POLYTOPES["cube"]],
    "CP2xCP1": _prism([(-1, -1), (2, -1), (-1, 2)]),
    "Bl3CP2xCP1": _prism([(-1, -4), (0, -1), (1, 3), (1, 4), (0, 1), (-1, -3)]),
    "truncated_cube": [tuple(v) for v in POLYTOPES["truncated_cube"]],
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


def test_build_3d_matches_brute_force():
    for name, verts in POLYTOPES_3D.items():
        assert delzant_check(_assert_build_matches_brute_force(name, verts)), name


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
