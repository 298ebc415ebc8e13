"""Labelled-graph isomorphism search and its re-verification."""

import re
from fractions import Fraction

import pytest

from hamfano.fixed_data import FixedComponent, GradientEdge
from hamfano.graphs import (
    LabelledGraph,
    first_isomorphism,
    is_mapping_isomorphism,
    isomorphisms,
    nontrivial_involutions,
)
from hamfano.reports import StructuralError


def path_graph(ids, levels, weights, edge_weights):
    vs = tuple(
        FixedComponent(id=i, kind="point", H=Fraction(h), weights=w)
        for i, h, w in zip(ids, levels, weights)
    )
    es = tuple(
        GradientEdge(bottom=a, top=b, weight=w)
        for (a, b), w in zip(zip(ids, ids[1:]), edge_weights)
    )
    return LabelledGraph(vertices=vs, edges=es, v_min=ids[0], v_max=ids[-1])


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
        v_min="lo",
        v_max="hi",
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
    assert [v.id for v in g.genus_part(2).vertices] == ["a"]
