"""Lattice polytopes, the del Pezzo catalog and generated fixed-point data."""

from fractions import Fraction

import pytest

from hamfano.fixed_data import validate
from hamfano.reports import PreconditionError, StructuralError
from hamfano.toric import (
    CircleDirection,
    LatticePolytope,
    UnsupportedDirectionError,
    boundary_selfint_2d,
    catalog_entry,
    delpezzo_catalog,
    delpezzo_lemma_suite,
    delzant_check,
    fixed_data_from_polytope,
    karshon_graph,
    primitive_directions,
    scan_directions,
)

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
    assert CP2.is_reflexive()
    assert SQUARE.is_reflexive()
    assert not LatticePolytope([(-2, -2), (2, -2), (2, 2), (-2, 2)]).is_reflexive()


def test_reflexive_needs_interior_origin():
    # every facet of this triangle has lattice distance 1 from (1, 1), but
    # the origin lies on its boundary
    shifted = LatticePolytope([(0, 0), (3, 0), (0, 3)])
    assert not shifted.origin_interior()
    assert not shifted.is_reflexive()


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


def test_direction_must_be_primitive():
    with pytest.raises(StructuralError):
        CircleDirection((2, 4))


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
        assert p.is_reflexive(), entry.name
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


# -- direction scans --------------------------------------------------------------------


def test_scan_cp2_bound_one():
    items = list(scan_directions(CP2, 1))
    assert [item.xi for item in items] == [(0, 1), (1, -1), (1, 0), (1, 1)]


def test_primitive_directions_square_bound_two():
    assert len(primitive_directions(2, 2)) == 8


def test_scan_dim3_reports_unsupported():
    items = list(scan_directions(CUBE, 1))
    unsupported = [i for i in items if i.error is not None]
    generic = [i for i in items if i.data is not None]
    assert unsupported and generic
    for item in generic:
        assert validate(item.data).ok
