"""The graph isomorphism and involution searches against networkx.

Small labelled graphs are drawn by a derandomized Hypothesis strategy,
together with a relabelled copy that may be perturbed in one edge or one
vertex.  networkx matches nodes on (H, sorted weights) and edges on weight,
and is built from the raw drawn data, not from the package's graphs.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hamfano.fixed_data import FixedComponent, GradientEdge
from hamfano.graphs import (
    LabelledGraph,
    first_isomorphism,
    is_mapping_isomorphism,
    nontrivial_involutions,
)

nx = pytest.importorskip("networkx")
from networkx.algorithms.isomorphism import DiGraphMatcher  # noqa: E402

WEIGHTS = (-1, 1, 2)

# a directed 6-cycle of alternating weights: its automorphisms are the three
# rotations, so none is an involution
ROTATIONS_ONLY = (
    {i: (0, (1, 1)) for i in range(3)} | {3 + i: (1, (-1, -1)) for i in range(3)},
    {(i, 3 + i): 1 for i in range(3)} | {(i, 3 + (i + 1) % 3): 2 for i in range(3)},
)


@st.composite
def graph_specs(draw):
    """(vertices, edges, copy): vertices are (H, sorted weights) by index,
    edges map index pairs with H increasing to weights 1-3, and copy is a
    relabelled twin, perturbed in one edge or one vertex or not at all."""
    n = draw(st.integers(1, 7))
    weights = st.lists(st.sampled_from(WEIGHTS), min_size=2, max_size=2)
    vertices = [(draw(st.integers(-1, 1)), tuple(sorted(draw(weights)))) for _ in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(n) if vertices[i][0] < vertices[j][0]]
    edges = {}
    for pair in pairs:
        w = draw(st.integers(0, 3))  # 0: no edge
        if w:
            edges[pair] = w
    copy_vertices, copy_edges = list(vertices), dict(edges)
    change = draw(st.sampled_from(("none", "edge", "vertex")))
    if change == "edge" and pairs:
        pair = draw(st.sampled_from(pairs))
        w = (edges.get(pair, 0) + draw(st.integers(1, 3))) % 4
        copy_edges.pop(pair, None)
        if w:
            copy_edges[pair] = w
    elif change == "vertex":
        k = draw(st.integers(0, n - 1))
        copy_vertices[k] = (vertices[k][0], (2, 2) if vertices[k][1] != (2, 2) else (-1, 1))
    perm = draw(st.permutations(range(n)))
    copy = (
        {perm[i]: v for i, v in enumerate(copy_vertices)},
        {(perm[i], perm[j]): w for (i, j), w in copy_edges.items()},
    )
    return dict(enumerate(vertices)), edges, copy


def _labelled(spec, prefix):
    vertices, edges = spec
    return LabelledGraph(
        vertices=tuple(
            FixedComponent(id=f"{prefix}{i}", kind="point", H=h, weights=ws)
            for i, (h, ws) in vertices.items()
        ),
        edges=tuple(
            GradientEdge(bottom=f"{prefix}{i}", top=f"{prefix}{j}", weight=w)
            for (i, j), w in edges.items()
        ),
    )


def _nx(spec):
    vertices, edges = spec
    g = nx.DiGraph()
    for i, label in vertices.items():
        g.add_node(i, label=label)
    for (i, j), w in edges.items():
        g.add_edge(i, j, weight=w)
    return g


def _node_match(x, y):
    return x["label"] == y["label"]


def _edge_match(x, y):
    return x["weight"] == y["weight"]


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(graph_specs())
def test_isomorphism_search_agrees_with_networkx(specs):
    vertices, edges, copy = specs
    a, b = _labelled((vertices, edges), "a"), _labelled(copy, "b")
    mapping = first_isomorphism(a, b)
    expected = nx.is_isomorphic(
        _nx((vertices, edges)), _nx(copy), node_match=_node_match, edge_match=_edge_match
    )
    assert (mapping is not None) == expected
    if mapping is not None:
        assert is_mapping_isomorphism(a, b, mapping)


@settings(derandomize=True, max_examples=80, deadline=None, database=None)
@given(graph_specs())
@example(ROTATIONS_ONLY + (ROTATIONS_ONLY,))
def test_involution_search_agrees_with_networkx(specs):
    vertices, edges, _copy = specs
    g = _nx((vertices, edges))
    expected = any(
        any(m[k] != k for k in m) and all(m[m[k]] == k for k in m)
        for m in DiGraphMatcher(g, g, _node_match, _edge_match).isomorphisms_iter()
    )
    found = next(nontrivial_involutions(_labelled((vertices, edges), "q")), None)
    assert (found is not None) == expected
