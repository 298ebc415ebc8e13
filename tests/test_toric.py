"""Lattice polytopes, the del Pezzo catalog and generated fixed-point data."""

from datetime import timedelta
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfano.dh import dh_function_toric, fibre_area_bound_check
from hamfano.fano6 import sphere_area_vs_fibre
from hamfano.fixed_data import FixedComponent, FixedPointData, GradientEdge, validate
from hamfano.reports import InconsistencyError, PreconditionError, StructuralError
from hamfano.toric import (
    LatticePolytope,
    MAX_DIRECTION_CANDIDATES,
    UnsupportedDirectionError,
    boundary_selfint_2d,
    catalog_entry,
    delpezzo_catalog,
    delpezzo_lemma_suite,
    delzant_check,
    fixed_data_from_polytope,
    graph_of_points,
    karshon_graph,
    primitive_directions,
    _lemma_checks,
    scan_directions,
)

from .oracle import LEMMA_CHECKS, lemma_suite_by_checks

CP2 = LatticePolytope([(-1, -1), (2, -1), (-1, 2)])
SQUARE = LatticePolytope([(-1, -1), (1, -1), (1, 1), (-1, 1)])
CP3 = LatticePolytope([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
CUBE = LatticePolytope([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


# -- polytope construction ------------------------------------------------------


def test_vertices_must_be_hull_vertices():
    with pytest.raises(StructuralError):
        LatticePolytope([(0, 0), (2, 0), (0, 2), (1, 0)])  # (1,0) interior to an edge
    with pytest.raises(StructuralError):
        LatticePolytope([(0, 0), (3, 0), (0, 3), (1, 1)])  # (1,1) interior


def test_full_dimensionality_required():
    with pytest.raises(StructuralError):
        LatticePolytope([(0, 0), (1, 0), (2, 0)])
    with pytest.raises(StructuralError):
        LatticePolytope([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_edges_and_facets_of_square():
    assert len(SQUARE.edges) == 4
    assert sorted(f.normal for f in SQUARE.facets) == [(-1, 0), (0, -1), (0, 1), (1, 0)]
    assert all(f.c == 1 for f in SQUARE.facets)


def test_cube_combinatorics():
    assert len(CUBE.facets) == 6
    assert len(CUBE.edges) == 12
    assert all(e.length == 2 for e in CUBE.edges)


# -- Delzant and reflexive checks -------------------------------------------------


def test_delzant_examples():
    assert delzant_check(CP2)
    assert delzant_check(CUBE)
    assert not delzant_check(LatticePolytope([(0, 0), (1, 0), (0, 2)]))


def test_reflexive_examples():
    assert CP2.reflexive
    assert SQUARE.reflexive
    assert not LatticePolytope([(-2, -2), (2, -2), (2, 2), (-2, 2)]).reflexive


def test_reflexive_needs_interior_origin():
    # every facet of this triangle has lattice distance 1 from (1, 1), but
    # the origin lies on its boundary
    shifted = LatticePolytope([(0, 0), (3, 0), (0, 3)])
    assert min(f.c for f in shifted.facets) == 0
    assert not shifted.reflexive


# -- generated data ----------------------------------------------------------------


def test_cp2_direction_12():
    data = fixed_data_from_polytope(CP2, (1, 2))
    table = {c.id: (c.H, c.weights) for c in data.components}
    assert table == {
        "v-1_-1": (Fraction(-3), (1, 2)),
        "v2_-1": (Fraction(0), (-1, 1)),
        "v-1_2": (Fraction(3), (-2, -1)),
    }
    assert data.relative_fano and data.fano


def test_cp3_levels():
    data = fixed_data_from_polytope(CP3, (1, 2, 4))
    assert [c.H for c in data.ordered()] == [-7, -3, 1, 9]
    assert validate(data).ok


def test_square_horizontal_direction_fixed_spheres():
    # the two edges orthogonal to xi become fixed spheres of area 2 and
    # self-intersection 0, absorbing all four vertices
    data = fixed_data_from_polytope(SQUARE, (1, 0))
    assert len(data.points()) == 0
    spheres = data.surfaces()
    assert len(spheres) == 2
    assert sorted(c.H for c in spheres) == [-1, 1]
    for c in spheres:
        assert c.area == 2 and c.normal_degrees == (0,) and c.genus == 0
        assert c.weights == ((1,) if c.H == -1 else (-1,))
    assert len(data.edges) == 2
    assert all(e.weight == 1 for e in data.edges)
    assert validate(data).ok


def test_nongeneric_direction_in_dim3_rejected():
    with pytest.raises(UnsupportedDirectionError):
        fixed_data_from_polytope(CUBE, (1, 0, 0))


# every public function that takes a direction, applied to CP2
DIRECTION_ENTRIES = {
    "fixed_data_from_polytope": lambda xi: fixed_data_from_polytope(CP2, xi),
    "karshon_graph": lambda xi: karshon_graph(CP2, xi),
    "delpezzo_lemma_suite": lambda xi: delpezzo_lemma_suite(CP2, xi),
    "dh_function_toric": lambda xi: dh_function_toric(CP2, xi),
    "fibre_area_bound_check": lambda xi: fibre_area_bound_check(CP2, xi),
    "sphere_area_vs_fibre": lambda xi: sphere_area_vs_fibre(
        fixed_data_from_polytope(CP2, (1, 2)), CP2, xi
    ),
}


@pytest.mark.parametrize("entry", sorted(DIRECTION_ENTRIES))
@pytest.mark.parametrize(
    "xi, message",
    [
        pytest.param((2, 4), "direction (2, 4) is not primitive", id="non-primitive"),
        pytest.param((0, 0), "direction (0, 0) is not primitive", id="zero"),
        pytest.param((1.0, 2), "integer vector expected, got (1.0, 2)", id="float"),
        pytest.param((True, 2), "integer vector expected, got (True, 2)", id="bool"),
    ],
)
def test_every_entry_refuses_a_malformed_direction(entry, xi, message):
    with pytest.raises(StructuralError) as caught:
        DIRECTION_ENTRIES[entry](xi)
    assert str(caught.value) == message


@pytest.mark.parametrize("entry", sorted(DIRECTION_ENTRIES))
def test_every_entry_takes_a_direction_as_any_int_sequence(entry):
    call = DIRECTION_ENTRIES[entry]
    results = [call(xi) for xi in ([1, 2], (1, 2), range(1, 3))]
    assert results[0] == results[1] == results[2]


def test_generation_needs_delzant():
    with pytest.raises(PreconditionError):
        fixed_data_from_polytope(LatticePolytope([(0, 0), (1, 0), (0, 2)]), (1, 1))


# -- boundary self-intersections ----------------------------------------------------


def test_selfint_line_in_cp2():
    for e in CP2.edges:
        assert boundary_selfint_2d(CP2, e) == 1


def test_selfint_ruling_in_quadric():
    for e in SQUARE.edges:
        assert boundary_selfint_2d(SQUARE, e) == 0


def test_selfint_exceptional_in_blowup():
    bl1 = catalog_entry("Bl1CP2").polytope
    ints = sorted(boundary_selfint_2d(bl1, e) for e in bl1.edges)
    assert ints == [-1, 0, 0, 1]  # exceptional, two rulings, strict transform


def test_noether_degree_equals_selfint_sum():
    # sum of D^2 over boundary divisors is 12 - 2V + degree on a smooth
    # toric surface; cross-check degree = 12 - V differently: the
    # anticanonical degree equals the boundary perimeter
    for entry in delpezzo_catalog():
        perimeter = sum(e.length for e in entry.polytope.edges)
        assert perimeter == entry.degree == 12 - len(entry.polytope.vertices)


# -- catalog -----------------------------------------------------------------------


def test_catalog_oracle_checks():
    names = [e.name for e in delpezzo_catalog()]
    assert names == ["CP2", "CP1xCP1", "Bl1CP2", "Bl2CP2", "Bl3CP2"]
    for entry in delpezzo_catalog():
        p = entry.polytope
        assert delzant_check(p), entry.name
        assert p.reflexive, entry.name
        assert entry.degree == 12 - len(p.vertices)
        assert all(e.length <= 3 for e in p.edges)
    assert all(e.length == 3 for e in catalog_entry("CP2").polytope.edges)
    assert all(e.length == 2 for e in catalog_entry("CP1xCP1").polytope.edges)
    bl1 = catalog_entry("Bl1CP2").polytope
    assert min(e.length for e in bl1.edges) == 1


def test_catalog_b2_vertex_relation():
    # V = b2 + 2 for smooth complete toric surfaces
    for entry in delpezzo_catalog():
        assert len(entry.polytope.vertices) == entry.b2 + 2


# -- Karshon graphs ------------------------------------------------------------------


def test_karshon_graph_cp2():
    g = karshon_graph(CP2, (1, 2))
    assert sorted(e.weight for e in g.edges) == [1, 1, 2]
    assert g.v_min == "v-1_-1" and g.v_max == "v-1_2"


def test_karshon_graph_holds_the_generated_points():
    data = fixed_data_from_polytope(CP2, (1, 2))
    g = graph_of_points(data)
    assert g.vertices == data.ordered()
    assert all(v is c for v, c in zip(g.vertices, data.ordered()))
    assert all(any(e is d for d in data.edges) for e in g.edges)
    assert karshon_graph(CP2, (1, 2)) == g


def test_karshon_graph_square_diagonal():
    g = karshon_graph(SQUARE, (1, 1))
    assert len(g.vertices) == 4
    assert [e.weight for e in g.edges] == [1, 1, 1, 1]
    levels = sorted(v.H for v in g.vertices)
    assert levels == [-2, 0, 0, 2]


# -- lemma suite ----------------------------------------------------------------------


def test_lemma_suite_square_diagonal():
    report = delpezzo_lemma_suite(catalog_entry("CP1xCP1").polytope, (1, 1))
    assert report.ok
    data = fixed_data_from_polytope(catalog_entry("CP1xCP1").polytope, (1, 1))
    assert sorted(c.H for c in data.components) == [-2, 0, 0, 2]
    assert any(c.sorted_weights() == (1, 1) for c in data.components)


def test_lemma_suite_cp2_equallemma():
    report = delpezzo_lemma_suite(CP2, (1, 2))
    assert report.ok
    assert "equallemma: pass" in report.notes


def test_lemma_suite_skips_nongeneric():
    report = delpezzo_lemma_suite(CP2, (1, 1))
    assert report.ok
    assert any("skipped" in n for n in report.notes)


def test_lemma_suite_rejects_non_delpezzo():
    with pytest.raises(PreconditionError):
        delpezzo_lemma_suite(LatticePolytope([(0, 0), (1, 0), (0, 1)]), (1, 2))
    # the polytope is checked before the direction
    with pytest.raises(PreconditionError, match="del Pezzo"):
        delpezzo_lemma_suite(LatticePolytope([(0, 0), (1, 0), (0, 1)]), (2, 4))


def _lemma_suite_matches_the_oracle(points, edges):
    """Run the lemma suite on the point dataset and compare its records, their
    order and its notes, or the error it raises, with the oracle's; returns the
    oracle's records, or None when both raised."""
    data = FixedPointData(
        half_dim=2,
        components=tuple(FixedComponent(i, "point", h, ws) for i, h, ws in points),
        edges=tuple(GradientEdge(b, t, w) for b, t, w in edges),
    )
    try:
        records, notes = lemma_suite_by_checks(points, edges)
    except ValueError as exc:
        with pytest.raises(InconsistencyError) as err:
            _lemma_checks(data)
        assert str(err.value) == str(exc)
        return None
    report = _lemma_checks(data)
    assert not report.inconclusive
    assert [(v.code, v.message, v.subject) for v in report.violations] == records
    assert report.notes == notes
    return records


def test_lemma_suite_every_check_fires_as_the_oracle_says():
    # a {1,1} minimum below -3, a {-1,1} point, twin {-1,2} points at level 1
    # 5 above it, a weight-1 edge off the extrema, a long edge and a weight-3 one
    points = [
        ("a", -4, (1, 1)),
        ("b", -3, (-1, 1)),
        ("c", 1, (-1, 2)),
        ("d", 1, (2, -1)),
        ("e", 5, (-1, -1)),
    ]
    edges = [("b", "c", 1), ("a", "e", 1), ("a", "b", 3)]
    records = _lemma_suite_matches_the_oracle(points, edges)
    assert {check for check, _m, _s in records} == set(LEMMA_CHECKS)


_LEVELS = [-4, -3, -2, -1, 0, 1, 2, 3, 4, Fraction(-7, 2), Fraction(1, 2), Fraction(5, 2)]
_WEIGHTS = [-1, -1, -1, 1, 1, -2, 2, 2, -3, 3]


@st.composite
def _point_dataset(draw):
    """Points of a 4-manifold with two nonzero weights each, some of them
    copies of an earlier point's level and weights, and edges that mostly
    climb, now and then one that does not."""
    points = []
    for pid in draw(st.permutations("abcdef"))[: draw(st.integers(1, 6))]:
        if points and draw(st.integers(0, 3)) == 0:
            _id, h, ws = draw(st.sampled_from(points))
        else:
            h = draw(st.sampled_from(_LEVELS))
            ws = (draw(st.sampled_from(_WEIGHTS)), draw(st.sampled_from(_WEIGHTS)))
        points.append((pid, h, ws))
    pairs = [(a, b) for a, h, _ in points for b, k, _ in points if h < k]
    edges = []
    for _ in range(draw(st.integers(0, 6))):
        if not pairs or draw(st.integers(0, 19)) == 0:
            a, b = draw(st.sampled_from(points))[0], draw(st.sampled_from(points))[0]
        else:
            a, b = draw(st.sampled_from(pairs))
        edges.append((a, b, draw(st.sampled_from([1, 1, 1, 2, 2, 3, 4]))))
    return points, edges


@settings(max_examples=400, derandomize=True, deadline=timedelta(seconds=5))
@given(_point_dataset())
def test_lemma_suite_matches_the_oracle_on_random_points(dataset):
    _lemma_suite_matches_the_oracle(*dataset)


def test_lemma_suite_matches_the_oracle_on_scanned_polygons():
    for entry in delpezzo_catalog():
        for item in scan_directions(entry.polytope, 6):
            data = item.data
            if any(c.kind == "surface" for c in data.components):
                assert _lemma_checks(data).notes == [
                    "skipped: direction is not generic (fixed boundary spheres)"
                ]
                continue
            points = [(c.id, c.H, c.weights) for c in data.components]
            edges = [(e.bottom, e.top, e.weight) for e in data.edges]
            assert _lemma_suite_matches_the_oracle(points, edges) == []


# -- direction scans --------------------------------------------------------------------


def test_scan_cp2_bound_one():
    items = list(scan_directions(CP2, 1))
    assert [item.xi for item in items] == [(0, 1), (1, -1), (1, 0), (1, 1)]


def test_primitive_directions_square_bound_two():
    assert len(primitive_directions(2, 2)) == 8


def test_primitive_directions_bound_cap():
    # (2b+1)^dim candidates: 181^2 and 31^3 fit under the cap, 183^2 and 33^3 do not
    assert (2 * 90 + 1) ** 2 <= MAX_DIRECTION_CANDIDATES < (2 * 91 + 1) ** 2
    assert (2 * 15 + 1) ** 3 <= MAX_DIRECTION_CANDIDATES < (2 * 16 + 1) ** 3
    assert primitive_directions(3, 15)
    for dim, bound in ((2, 91), (3, 16)):
        with pytest.raises(PreconditionError, match=str(MAX_DIRECTION_CANDIDATES)):
            primitive_directions(dim, bound)


def test_scan_dim3_reports_unsupported():
    items = list(scan_directions(CUBE, 1))
    unsupported = [i for i in items if i.error is not None]
    generic = [i for i in items if i.data is not None]
    assert unsupported and generic
    for item in generic:
        assert validate(item.data).ok
