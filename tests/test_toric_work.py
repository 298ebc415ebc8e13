"""Work the toric scan path must not redo, and the polytope build and the
generated data against a brute-force facet enumeration that shares no code
with the package."""

import importlib.util
import itertools
import json
import math
import operator
import random
import sys

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

from .oracle import (
    affine_automorphisms,
    apply_matrix,
    direction_orbits,
    hull_faces,
    hull_vertices,
    transpose,
)
from .test_golden import GOLDEN, POLYTOPES, ROOT
from .test_toric_orbits import CASES, LOPSIDED_HEXAGON, TRAPEZOID, flat_transposes


def _counting(monkeypatch, owner, name):
    calls = []
    inner = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


# -- work counts ------------------------------------------------------------------


def _refusals(monkeypatch):
    """The directions the package refuses from here on, through the one owner of the
    refusal text."""
    refused = []
    inner = hamfano.toric._edge_line_refusal

    def recording(p, x):
        text = inner(p, x)
        if text is not None:
            refused.append(x)
        return text

    monkeypatch.setattr(hamfano.toric, "_edge_line_refusal", recording)
    return refused


def test_scan_generates_each_orbit_once(monkeypatch, tmp_path):
    # a scan generates the first direction of each orbit {g^T xi} over the linear parts g
    # of the polytope's affine lattice automorphisms, counted here by brute force, and
    # refuses each unsupported direction itself, without generating it
    calls = _counting(monkeypatch, hamfano.toric, "fixed_data_from_polytope")
    refused = _refusals(monkeypatch)
    path = tmp_path / "p.json"
    for name, (vertices, bound, _order) in CASES.items():
        dim = len(vertices[0])
        _facets, edges = hull_faces([tuple(v) for v in vertices])
        orbits = direction_orbits(affine_automorphisms(vertices), dim, bound)
        unsupported = [
            xi for xi in orbits if dim == 3 and any(_dot(xi, d) == 0 for _a, _b, d, _g in edges)
        ]
        firsts = {rep for xi, (rep, _g) in orbits.items() if xi not in unsupported}
        path.write_text(json.dumps({"schema_version": "1", "polytope": {"vertices": vertices}}))
        calls.clear()
        refused.clear()
        code, _out = run(["toric", "scan", str(path), "--bound", str(bound)])
        assert code == 0, name
        assert len(calls) == len(firsts), name
        assert refused == unsupported, name


def test_a_polytope_with_no_symmetry_generates_every_direction(monkeypatch, tmp_path):
    # the lopsided hexagon has no symmetry; the trapezoid's one besides the identity,
    # x -> g x + (3, 0), has g^T = [[-1, 0], [-2, 1]], which fixes (0, 1) and takes every
    # other listed direction, whose first entry is positive, out of the listed half
    identity = ((1, 0), (0, 1))
    assert affine_automorphisms(LOPSIDED_HEXAGON) == [identity]
    assert affine_automorphisms(TRAPEZOID) == [identity, ((-1, -2), (0, 1))]
    listed = set(primitive_directions(2, 4))
    for xi in listed:
        image = apply_matrix(transpose(((-1, -2), (0, 1))), xi)
        assert image == xi if xi == (0, 1) else image not in listed, xi
    calls = _counting(monkeypatch, hamfano.toric, "fixed_data_from_polytope")
    path = tmp_path / "p.json"
    for polygon in (TRAPEZOID, LOPSIDED_HEXAGON):
        path.write_text(json.dumps({"schema_version": "1", "polytope": {"vertices": polygon}}))
        calls.clear()
        code, _out = run(["toric", "scan", str(path), "--bound", "4"])
        assert code == 0
        assert len(calls) == len(primitive_directions(2, 4)), polygon


def _load_bench_generator():
    """perfbench/gen.py, loaded by path without writing bytecode next to it."""
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        path = ROOT / "perfbench" / "gen.py"
        spec = importlib.util.spec_from_file_location("perfbench_gen", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


REFUSED_PER_CYCLE = {"scan2d": 0, "scan3d": 3220}


@pytest.mark.parametrize("workload, generated", [("scan2d", 3288), ("scan3d", 465)])
def test_a_benchmark_scan_cycle_generates_the_counted_datasets(
    workload, generated, monkeypatch, tmp_path
):
    # one cycle of the benchmark's own ops at seed 7, each run once: the scans generate
    # the first direction of each orbit {g^T xi} whose report they share, and refuse
    # each unsupported direction through the one owner of its text, raising nothing
    ops = _load_bench_generator().generate(workload, 7, str(tmp_path))
    monkeypatch.chdir(tmp_path)  # the ops name their files relative to it
    calls = _counting(monkeypatch, hamfano.toric, "fixed_data_from_polytope")
    refused = _refusals(monkeypatch)
    raised = _counting(monkeypatch, UnsupportedDirectionError, "__init__")
    for op in ops:
        assert run(op["argv"])[0] == op["expect"], op["argv"]
    assert len(calls) == generated
    assert len(refused) == REFUSED_PER_CYCLE[workload]
    assert raised == []


def test_the_search_finds_the_oracle_group_on_the_benchmark_polytopes():
    gen = _load_bench_generator()
    for q in [gen.polygon(name) for name in gen.POLYGONS] + gen.polytopes_3d():
        found = hamfano.toric._lattice_automorphisms(LatticePolytope(q.vertices))
        expected = flat_transposes(affine_automorphisms(q.vertices))
        assert len(found) == len(expected) and set(found) == expected, q.name


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


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


def test_3d_build_turns_one_ridge_per_new_facet(monkeypatch):
    # gift wrapping: whole-set plane tests only for the first facet, all
    # through the lex-least vertex, then one turn about a ridge per facet not
    # yet found, F - 1 in all, each about a different ridge; the ridges
    # found are the edges
    sides = _counting(monkeypatch, hamfano.toric, "_supporting_side")
    turns = _counting(monkeypatch, hamfano.toric, "_wrap_ridge")
    for name, faces in (("truncated_cube", 14), ("cube", 6), ("CP3", 4)):
        sides.clear()
        turns.clear()
        p = LatticePolytope(POLYTOPES_3D[name])
        first = p.vertices[0]
        assert sides and all(level == sum(x * y for x, y in zip(n, first)) for n, level, _ in sides)
        assert len(sides) <= math.comb(len(p.vertices) - 1, 2)
        assert len(turns) == len(p.facets) - 1 == faces - 1, name
        turned = {tuple(sorted((p.vertices.index(a), p.vertices.index(b)))) for a, b, _q, _o in turns}
        edges = {(e.i, e.j) for e in p.edges}
        assert len(turned) == len(turns) and turned <= edges, name
        _facets, _on, ridges = hamfano.toric._polytope_facets(p.vertices)
        assert sorted(ridges) == sorted(edges), name


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
            if item.error is None
            for e in fixed_data_from_polytope(p, item.xi).edges
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
    facets, edges = hull_faces(verts)
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


def test_build_3d_matches_brute_force():
    # the solids add vertices on four or more facets; the truncated cube has octagons
    for name, verts in {**POLYTOPES_3D, **SOLIDS_3D}.items():
        p = _assert_build_matches_brute_force(name, verts)
        assert delzant_check(p) == (name in POLYTOPES_3D or name == "box"), name


def _assert_gift_wrap_matches_brute_force(name, verts):
    # the facets, each point's normals and the ridges, straight from the wrap
    pts = sorted(verts)
    facets, on, ridges = hamfano.toric._polytope_facets(pts)
    want_facets, want_edges = hull_faces(pts)
    got = {(f.normal, f.c, frozenset(pts[i] for i in f.vertex_ids)) for f in facets}
    assert got == want_facets and len(facets) == len(want_facets), name
    assert on == [{u for u, _c, held in want_facets if q in held} for q in pts], name
    want_ridges = sorted((pts.index(a), pts.index(b)) for a, b, _d, _l in want_edges)
    assert sorted(ridges) == want_ridges and len(ridges) == len(want_edges), name


def test_gift_wrap_matches_the_brute_force_facet_search():
    for name, verts in POLYTOPES_3D.items():
        _assert_gift_wrap_matches_brute_force(name, verts)
    # convex lattice point sets of 4 to 14 points in [-4, 4]^3: the hull vertices of a
    # random set, kept when they span space and number 4 to 14
    rng = random.Random(1)
    checked = 0
    while checked < 100:
        size = rng.randint(4, 20)
        points = {tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(size)}
        vertices = hull_vertices(points)
        if 4 <= len(vertices) <= 14:
            _assert_gift_wrap_matches_brute_force(f"{vertices}", vertices)
            checked += 1


def test_build_3d_matches_brute_force_on_seeded_point_sets():
    # a set with a point that is no vertex is refused; its vertices alone build
    valid = refused = 0
    for seed in range(400):
        rng = random.Random(seed)
        r = rng.choice((1, 2, 3, 5))
        size = rng.randint(4, 13)
        points = sorted({tuple(rng.randint(-r, r) for _ in range(3)) for _ in range(size)})
        vertices = hull_vertices(points)
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
    facets, _edges = hull_faces(verts)
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
    _facets, edges = hull_faces(corners)
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


# -- the scan's directions and a 3-polytope's refusals, against the old rules -------


def test_primitive_directions_build_the_brute_force_half():
    for dim, top in ((2, 30), (3, 8)):
        for bound in range(1, top + 1):
            assert primitive_directions(dim, bound) == _oracle_directions(dim, bound), (dim, bound)


GOLDEN_3_POLYTOPES = ("cp3", "cube", "cp2xcp1", "bl3cp2xcp1", "truncated_cube")


def test_a_3_polytope_refuses_exactly_the_directions_that_fix_an_edge():
    # the rule before edge lines: every height, every pairing, then the first zero
    directions = _oracle_directions(3, 4)
    assert len(directions) == 289
    for name in GOLDEN_3_POLYTOPES:
        p = LatticePolytope(_golden_vertices(name))
        for xi in directions:
            heights = [sum(map(operator.mul, xi, v)) for v in p.vertices]
            fixed = [e for e in p.edges if (heights[e.j] - heights[e.i]) // e.length == 0]
            if not fixed:
                assert fixed_data_from_polytope(p, xi).half_dim == 3
                continue
            e = fixed[0]
            with pytest.raises(UnsupportedDirectionError) as refused:
                fixed_data_from_polytope(p, xi)
            assert str(refused.value) == (
                f"direction {xi} fixes the edge through vertices "
                f"{p.vertices[e.i]}, {p.vertices[e.j]}; positive-dimensional "
                f"fixed loci of 6-manifolds are not generated"
            ), (name, xi)


def test_a_scan_refuses_with_the_text_generation_raises():
    # one owner of the refusal text: a scan item's error is what fixed_data_from_polytope
    # raises on its direction, and None exactly when that call returns data
    for name in GOLDEN_3_POLYTOPES:
        p = LatticePolytope(_golden_vertices(name))
        items = list(scan_directions(p, 4))
        assert [item.xi for item in items] == _oracle_directions(3, 4), name
        for item in items:
            try:
                fixed_data_from_polytope(p, item.xi)
            except UnsupportedDirectionError as exc:
                assert item.error == str(exc), (name, item.xi)
            else:
                assert item.error is None, (name, item.xi)


SQUARE_PYRAMID = [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize(
    "bound, error",
    [
        ("1", "fixed_data_from_polytope needs a Delzant polytope"),
        ("0", "bound must be at least 1"),
    ],
)
def test_a_scan_checks_its_precondition_after_the_bound(bound, error, monkeypatch, tmp_path):
    # the scan refuses a non-Delzant polytope once, before its first item, and a bad
    # bound first; it tests no direction
    p = LatticePolytope(SQUARE_PYRAMID)
    assert not p.delzant
    refused = _refusals(monkeypatch)
    calls = _counting(monkeypatch, hamfano.toric, "fixed_data_from_polytope")
    path = tmp_path / "pyramid.json"
    doc = {"schema_version": "1", "polytope": {"vertices": SQUARE_PYRAMID}}
    path.write_text(json.dumps(doc))
    assert run(["toric", "scan", str(path), "--bound", bound]) == (2, f'{{"error":"{error}"}}')
    assert refused == [] and calls == []


def test_a_3_polytope_keeps_one_line_per_edge_direction_up_to_sign():
    counts = {"cp3": 6, "cube": 3, "cp2xcp1": 4, "bl3cp2xcp1": 4, "truncated_cube": 9}
    for name in GOLDEN_3_POLYTOPES:
        p = LatticePolytope(_golden_vertices(name))
        unsigned = {frozenset((e.direction, tuple(-x for x in e.direction))) for e in p.edges}
        lines = [d for d, _tail in p._edge_lines]
        assert len(lines) == len(unsigned) == counts[name], name
        assert {frozenset((d, tuple(-x for x in d))) for d in lines} == unsigned, name
    assert len(LatticePolytope(_golden_vertices("truncated_cube")).edges) == 36
    assert catalog_entry("Bl3CP2").polytope._edge_lines == ()
