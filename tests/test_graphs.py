"""Labelled graphs: their ends, isomorphism search and its re-verification."""

import dataclasses
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfano.fano6 import surface_graph
from hamfano.fixed_data import FixedComponent, GradientEdge, extremal
from hamfano.graphs import (
    LabelledGraph,
    first_isomorphism,
    is_mapping_isomorphism,
    isomorphisms,
    nontrivial_involutions,
)
from hamfano.reports import StructuralError
from hamfano.toric import (
    CATALOG,
    catalog_entry,
    fixed_data_from_polytope,
    karshon_graph,
    primitive_directions,
)

from .lifts import lift_product


def path_graph(ids, levels, weights, edge_weights):
    vs = tuple(
        FixedComponent(id=i, kind="point", H=Fraction(h), weights=w)
        for i, h, w in zip(ids, levels, weights)
    )
    es = tuple(
        GradientEdge(bottom=a, top=b, weight=w)
        for (a, b), w in zip(zip(ids, ids[1:]), edge_weights)
    )
    return LabelledGraph(vertices=vs, edges=es)


A = path_graph(["a", "b", "c"], [-2, 0, 2], [(1, 2), (-2, 1), (-1, -1)], [2, 1])
B = path_graph(["x", "y", "z"], [-2, 0, 2], [(1, 2), (-2, 1), (-1, -1)], [2, 1])


def test_isomorphism_found_and_verified():
    m = first_isomorphism(A, B)
    assert m == {"a": "x", "b": "y", "c": "z"}
    assert is_mapping_isomorphism(A, B, m)


def test_edge_labels_matter():
    c = path_graph(["x", "y", "z"], [-2, 0, 2], [(1, 2), (-2, 1), (-1, -1)], [2, 2])
    assert first_isomorphism(A, c) is None


def test_vertex_weights_matter():
    c = path_graph(["x", "y", "z"], [-2, 0, 2], [(1, 2), (-1, 1), (-1, -1)], [2, 1])
    assert first_isomorphism(A, c) is None


def test_vertex_weights_match_as_a_multiset():
    c = path_graph(["x", "y", "z"], [-2, 0, 2], [(2, 1), (1, -2), (-1, -1)], [2, 1])
    m = first_isomorphism(A, c)
    assert m == {"a": "x", "b": "y", "c": "z"}
    assert is_mapping_isomorphism(A, c, m)
    assert c.as_dict()["vertices"][0]["weights"] == [1, 2]


def test_mapping_reverification_rejects_shuffles():
    m = {"a": "x", "b": "z", "c": "y"}
    assert not is_mapping_isomorphism(A, B, m)


def test_all_isomorphisms_of_symmetric_square():
    square = LabelledGraph(
        vertices=(
            FixedComponent(id="lo", kind="point", H=Fraction(-2), weights=(1, 1)),
            FixedComponent(id="m1", kind="point", H=Fraction(0), weights=(-1, 1)),
            FixedComponent(id="m2", kind="point", H=Fraction(0), weights=(-1, 1)),
            FixedComponent(id="hi", kind="point", H=Fraction(2), weights=(-1, -1)),
        ),
        edges=(
            GradientEdge(bottom="lo", top="m1", weight=1),
            GradientEdge(bottom="lo", top="m2", weight=1),
            GradientEdge(bottom="m1", top="hi", weight=1),
            GradientEdge(bottom="m2", top="hi", weight=1),
        ),
    )
    autos = list(isomorphisms(square, square))
    assert len(autos) == 2
    invs = list(nontrivial_involutions(square))
    assert len(invs) == 1
    assert invs[0]["m1"] == "m2"


def test_graph_rejects_misoriented_edges():
    # a downhill edge and a level one (H(a) = H(b)), in validate's wording
    for h_b in (0, 1):
        message = f"edge a->b must increase the Hamiltonian: H(a) = 1 !< H(b) = {h_b}"
        with pytest.raises(StructuralError, match=re.escape(message)):
            LabelledGraph(
                vertices=(
                    FixedComponent(id="a", kind="point", H=Fraction(1), weights=(1,)),
                    FixedComponent(id="b", kind="point", H=Fraction(h_b), weights=(-1,)),
                ),
                edges=(GradientEdge(bottom="a", top="b", weight=1),),
            )


def test_graph_rejects_duplicate_ids_and_dangling_edges():
    a = FixedComponent(id="a", kind="point", H=0, weights=(1,))
    with pytest.raises(StructuralError, match="duplicate"):
        LabelledGraph(vertices=(a, a), edges=())
    with pytest.raises(StructuralError, match="does not resolve"):
        LabelledGraph(vertices=(a,), edges=(GradientEdge(bottom="a", top="b", weight=1),))


def test_subgraph_selectors():
    g = LabelledGraph(
        vertices=(
            FixedComponent(id="a", kind="surface", H=Fraction(-1), weights=(1, 1), genus=2),
            FixedComponent(id="b", kind="surface", H=Fraction(0), weights=(-1, 1), genus=0),
            FixedComponent(id="c", kind="surface", H=Fraction(1), weights=(-1, -1), genus=3),
        ),
        edges=(),
    )
    assert [v.id for v in g.positive_genus().vertices] == ["a", "c"]
    assert [v.id for v in g.subgraph(lambda v: v.genus == 2).vertices] == ["a"]


def _double_edge(second):
    """Two points joined by two edges, of weights `second` and 2."""
    return LabelledGraph(
        vertices=(
            FixedComponent(id="u", kind="point", H=0, weights=(1, 1)),
            FixedComponent(id="v", kind="point", H=1, weights=(-1, -1)),
        ),
        edges=(GradientEdge("u", "v", second), GradientEdge("u", "v", 2)),
    )


def test_parallel_edges_match_with_every_weight():
    a, b = _double_edge(3), _double_edge(5)
    assert a.edge_weight("u", "v") == a.edge_weight("v", "u") == [2, 3]
    assert a.edge_weight("u", "u") == []
    assert first_isomorphism(a, b) is None
    assert not is_mapping_isomorphism(a, b, {"u": "u", "v": "v"})
    assert first_isomorphism(a, _double_edge(3)) == {"u": "u", "v": "v"}


@st.composite
def multigraphs(draw):
    """Point graphs of 1-7 vertices on three levels, drawn in any order: edges
    climb between drawn pairs, parallel ones and repeated weights included,
    and a vertex may be isolated."""
    n = draw(st.integers(1, 7))
    levels = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(n) for j in range(n) if levels[i] < levels[j]]
    edges = draw(
        st.lists(st.tuples(st.sampled_from(pairs), st.integers(1, 3)), max_size=10)
        if pairs
        else st.just([])
    )
    return LabelledGraph(
        vertices=tuple(
            FixedComponent(id=f"p{i}", kind="point", H=h, weights=(1, -1))
            for i, h in draw(st.permutations(list(enumerate(levels))))
        ),
        edges=tuple(GradientEdge(f"p{i}", f"p{j}", w) for (i, j), w in edges),
    )


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(multigraphs())
def test_graph_queries_agree_with_scans_of_the_edges(g):
    ids = [v.id for v in g.vertices] + ["unknown"]
    for a in ids:
        assert g.degree(a) == sum(a in (e.bottom, e.top) for e in g.edges)
        for b in ids:
            # a vertex against itself, and an unknown id, have no edges
            ends = {a, b}
            expected = sorted(e.weight for e in g.edges if {e.bottom, e.top} == ends)
            assert g.edge_weight(a, b) == expected
    # the components, each sorted, in the order of their first vertex
    components = []
    for v in g.vertices:
        if any(v.id in c for c in components):
            continue
        comp = {v.id}
        while grown := {
            end
            for e in g.edges
            if e.bottom in comp or e.top in comp
            for end in (e.bottom, e.top)
        } - comp:
            comp |= grown
        components.append(sorted(comp))
    assert g.connected_components() == components


def test_a_graph_s_ends_are_no_field_a_caller_can_set():
    # reflective_check and fibre_correspondence trust a graph's ends, so no
    # caller may leave them out or name the wrong vertices
    assert [f.name for f in dataclasses.fields(LabelledGraph)] == ["vertices", "edges"]
    with pytest.raises(TypeError):
        LabelledGraph(vertices=A.vertices, edges=A.edges, v_min="b")
    assert A.ends() == ("a", "c") and A.as_dict()["min"] == "a"

def test_every_graph_the_package_builds_ends_at_its_data_s_extrema():
    # a graph's ends are read off its vertices; on the Karshon graphs of the catalog
    # polygons and the surface graphs of their products with a curve, they are the
    # unique extrema of the data the graph was built from, and as_dict writes them
    karshon = lifted = 0
    for name in CATALOG:
        polygon = catalog_entry(name).polytope
        for xi in primitive_directions(2, 4):
            data = fixed_data_from_polytope(polygon, xi)
            if data.surfaces():
                continue
            assert karshon_graph(polygon, xi).ends() == extremal(data)
            karshon += 1
            if max(map(abs, xi)) > 2:
                continue
            for genus in (1, 2, 3):
                lift = lift_product(polygon, xi, genus)
                graph, _ = surface_graph(lift)
                written = graph.as_dict()
                assert graph.ends() == (written["min"], written["max"]) == extremal(lift)
                lifted += 1
    assert (karshon, lifted) == (106, 84)
