"""Work the toric scan path must not redo, and the 3-polytope build against
a brute-force facet enumeration that shares no code with the package."""

import itertools
import math

import hamfano.dh
import hamfano.fixed_data
import hamfano.toric
from hamfano.cli import run
from hamfano.dh import fibre_area_bound_check
from hamfano.localization import weight_sum_constant, weight_sum_normalize
from hamfano.toric import (
    LatticePolytope,
    catalog_entry,
    delzant_check,
    fixed_data_from_polytope,
    primitive_directions,
)

from .test_golden import POLYTOPES


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


# -- the 3-polytope build ------------------------------------------------------------


def _oracle_faces(points):
    """Facets and edges of the hull of points, by checking every plane
    through three of them against all the others."""
    pts = sorted(set(points))

    def gcd(v):
        g = 0
        for x in v:
            g = math.gcd(g, x)
        return g

    facets = set()
    for a, b, c in itertools.combinations(pts, 3):
        ab = [b[k] - a[k] for k in range(3)]
        ac = [c[k] - a[k] for k in range(3)]
        n = (
            ab[1] * ac[2] - ab[2] * ac[1],
            ab[2] * ac[0] - ab[0] * ac[2],
            ab[0] * ac[1] - ab[1] * ac[0],
        )
        if n == (0, 0, 0):
            continue
        values = [sum(n[k] * (q[k] - a[k]) for k in range(3)) for q in pts]
        if min(values) >= 0:
            sign = 1
        elif max(values) <= 0:
            sign = -1
        else:
            continue
        g = gcd(n)
        u = tuple(sign * x // g for x in n)
        c_val = -sum(u[k] * a[k] for k in range(3))
        on = frozenset(q for q in pts if sum(u[k] * q[k] for k in range(3)) == -c_val)
        facets.add((u, c_val, on))
    edges = set()
    for p, q in itertools.combinations(pts, 2):
        if sum(1 for f in facets if p in f[2] and q in f[2]) >= 2:
            d = tuple(q[k] - p[k] for k in range(3))
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


def test_build_3d_matches_brute_force():
    for name, verts in POLYTOPES_3D.items():
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
        assert delzant_check(p), name
