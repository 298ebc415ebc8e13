"""Refusals that no other test reaches, each with its exact text."""

import pytest

from hamfano.fano6 import reflective_check
from hamfano.fixed_data import FixedComponent, FixedPointData, extremal
from hamfano.graphs import LabelledGraph, is_mapping_isomorphism
from hamfano.localization import abbv_sum_4d, abbv_sum_6d, beta
from hamfano.reports import InconsistencyError, PreconditionError, StructuralError
from hamfano.toric import (
    CATALOG,
    LatticePolytope,
    boundary_selfint_2d,
    catalog_entry,
    fixed_data_from_polytope,
    karshon_graph,
    primitive_directions,
)

CUBE = LatticePolytope([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
TRIANGLE = LatticePolytope([(0, 0), (2, 0), (0, 1)])  # not Delzant at (2, 0) and (0, 1)
CP2_DATA = fixed_data_from_polytope(catalog_entry("CP2").polytope, (1, 2))


def point(cid, h, ws):
    return FixedComponent(id=cid, kind="point", H=h, weights=ws)


def _edge(p, a, b):
    """The edge of p between the vertices a and b."""
    (e,) = (e for e in p.edges if {p.vertices[e.i], p.vertices[e.j]} == {a, b})
    return e


# a reflective graph: the two middle points swap, the minimum has weights {1,1}
# and the maximum {-2,-1}
_REFLECTIVE = LabelledGraph(
    vertices=(
        point("lo", -1, (1, 1)),
        point("a", 0, (1, -1)),
        point("b", 0, (1, -1)),
        point("hi", 1, (-2, -1)),
    ),
    edges=(),
)

_REFUSALS = [
    (
        lambda: LatticePolytope([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]),
        StructuralError,
        "vertices must all lie in dimension 2 or 3",
    ),
    (
        lambda: boundary_selfint_2d(CUBE, CUBE.edges[0]),
        PreconditionError,
        "boundary_selfint_2d applies to polygons",
    ),
    (
        lambda: boundary_selfint_2d(TRIANGLE, _edge(TRIANGLE, (0, 0), (0, 1))),
        StructuralError,
        "normal fan is not smooth along this edge",
    ),
    (
        lambda: extremal(
            FixedPointData(
                half_dim=3,
                components=(
                    point("lo", -1, (1, 1, 1)),
                    point("hi", 1, (-1, -1, -1)),
                    point("hi2", 1, (-1, -1, -1)),
                ),
            )
        ),
        PreconditionError,
        "maximum attained by ['hi', 'hi2']",
    ),
    (lambda: abbv_sum_6d(CP2_DATA), PreconditionError, "abbv_sum_6d needs half_dim 3"),
    (
        lambda: abbv_sum_4d(
            FixedPointData(
                half_dim=2,
                components=(
                    FixedComponent(id="s", kind="surface", H=-1, weights=(1,), genus=0, area=1),
                    point("hi", 1, (-1, -1)),
                ),
            )
        ),
        PreconditionError,
        "s: fixed surface needs its normal degree",
    ),
    (
        lambda: beta(point("p", 0, (1, 1, -1))),
        PreconditionError,
        "p: beta needs a fixed surface with 2 weights",
    ),
    (lambda: _REFLECTIVE.vertex("nope"), StructuralError, "no vertex 'nope'"),
    (
        lambda: reflective_check(_REFLECTIVE),
        InconsistencyError,
        "reflective graph has maximum weights [-2, -1] instead of {-1,-1}",
    ),
]


@pytest.mark.parametrize("call, error, message", _REFUSALS, ids=[m for _c, _e, m in _REFUSALS])
def test_each_refusal_raises_its_exact_text(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert str(caught.value) == message


def test_a_mapping_with_the_wrong_keys_or_images_is_no_isomorphism():
    ids = {v.id: v.id for v in _REFLECTIVE.vertices}
    assert is_mapping_isomorphism(_REFLECTIVE, _REFLECTIVE, ids)
    assert not is_mapping_isomorphism(_REFLECTIVE, _REFLECTIVE, dict(ids, extra="lo"))
    assert not is_mapping_isomorphism(_REFLECTIVE, _REFLECTIVE, dict(ids, a="lo"))


def test_karshon_graph_refuses_every_direction_that_fixes_a_sphere():
    # a direction fixes a boundary sphere of a polygon exactly when its lowest
    # or its highest level holds two vertices, the ends of that edge
    refused = 0
    for name, (vertices, _b2, _degree) in CATALOG.items():
        polygon = catalog_entry(name).polytope
        for xi in primitive_directions(2, 3):
            heights = [xi[0] * x + xi[1] * y for x, y in vertices]
            if heights.count(min(heights)) == heights.count(max(heights)) == 1:
                karshon_graph(polygon, xi)
                continue
            with pytest.raises(PreconditionError) as caught:
                karshon_graph(polygon, xi)
            assert str(caught.value) == (
                f"karshon_graph needs isolated fixed points; direction {xi} fixes a boundary sphere"
            )
            refused += 1
    assert refused == 13
