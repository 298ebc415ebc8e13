"""Structural and semantic validation of fixed-point datasets."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hamfano.fixed_data import (
    FixedComponent,
    FixedPointData,
    GradientEdge,
    extremal,
    extremum_violations,
    index,
    validate,
)
from hamfano.graphs import LabelledGraph
from hamfano.reports import NonUniqueExtremumError, StructuralError
from hamfano.toric import LatticePolytope, fixed_data_from_polytope

CP2 = LatticePolytope([(-1, -1), (2, -1), (-1, 2)])


def point(cid, h, weights, **kw):
    return FixedComponent(id=cid, kind="point", H=Fraction(h), weights=tuple(weights), **kw)


def surface(cid, h, weights, genus=0, **kw):
    return FixedComponent(
        id=cid, kind="surface", H=Fraction(h), weights=tuple(weights), genus=genus, **kw
    )


# -- structural ---------------------------------------------------------------


def test_zero_weight_rejected():
    with pytest.raises(StructuralError):
        point("p", 0, (0, 1))


def test_genus_only_on_surfaces():
    with pytest.raises(StructuralError):
        FixedComponent(id="p", kind="point", H=Fraction(0), weights=(1, 1), genus=0)
    with pytest.raises(StructuralError):
        FixedComponent(id="s", kind="surface", H=Fraction(0), weights=(1,))


def test_normal_degree_length_must_match():
    with pytest.raises(StructuralError):
        surface("s", 0, (1, -1), genus=1, normal_degrees=(0,))


def test_duplicate_ids_rejected():
    with pytest.raises(StructuralError):
        FixedPointData(
            half_dim=2,
            components=(point("p", 0, (1, 1)), point("p", 1, (-1, -1))),
        )


def test_weight_arity_follows_kind():
    # a point in a 4-manifold carries 2 weights, a surface 1
    with pytest.raises(StructuralError):
        FixedPointData(half_dim=2, components=(point("p", 0, (1, 1, 1)),))
    with pytest.raises(StructuralError):
        FixedPointData(half_dim=2, components=(surface("s", 0, (1, -1), genus=0),))
    with pytest.raises(StructuralError):
        FixedPointData(
            half_dim=2,
            components=(
                FixedComponent(id="f", kind="fourfold", H=Fraction(0), weights=(1,)),
            ),
        )


def test_unresolved_edge_endpoint():
    with pytest.raises(StructuralError):
        FixedPointData(
            half_dim=2,
            components=(point("p", 0, (1, 1)), point("q", 2, (-1, -1))),
            edges=(GradientEdge(bottom="p", top="nowhere", weight=1),),
        )


FOURFOLD_F = FixedComponent(id="f", kind="fourfold", H=Fraction(0), weights=(1,))


# (components, edges, the one message): with two structural faults, the
# constructor reports the duplicate id first, then the first component of the
# wrong kind or arity, then the first unresolved edge end, bottom before top
TWO_FAULTS = {
    "duplicate-after-arity": (
        (point("p", 0, (1,)), point("q", 1, (1, -1)), point("q", 2, (-1, -1))),
        (),
        "duplicate component id 'q'",
    ),
    "duplicate-and-endpoint": (
        (point("p", 0, (1, 1)), point("p", 2, (-1, -1))),
        (GradientEdge(bottom="p", top="nowhere", weight=1),),
        "duplicate component id 'p'",
    ),
    "fourfold-after-arity": (
        (point("p", 0, (1, 1, 1)), FOURFOLD_F),
        (),
        "p: a point in a 4-manifold carries 2 nonzero weights, got 3",
    ),
    "arity-after-fourfold": (
        (FOURFOLD_F, point("p", 0, (1, 1, 1))),
        (),
        "f: fourfold components need half_dim 3",
    ),
    "fourfold-and-endpoint": (
        (point("p", 0, (1, 1)), FOURFOLD_F),
        (GradientEdge(bottom="nowhere", top="p", weight=1),),
        "f: fourfold components need half_dim 3",
    ),
    "endpoint-and-arity": (
        (point("p", 0, (1, 1)), surface("s", 2, (-1, -1))),
        (GradientEdge(bottom="p", top="nowhere", weight=1),),
        "s: a surface in a 4-manifold carries 1 nonzero weight, got 2",
    ),
    "both-endpoints": (
        (point("p", 0, (1, 1)),),
        (GradientEdge(bottom="below", top="above", weight=1),),
        "edge endpoint 'below' does not resolve",
    ),
    "top-before-next-bottom": (
        (point("p", 0, (1, 1)),),
        (
            GradientEdge(bottom="p", top="above", weight=1),
            GradientEdge(bottom="below", top="p", weight=1),
        ),
        "edge endpoint 'above' does not resolve",
    ),
}


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_structural_faults_are_reported_in_a_fixed_order(case):
    components, edges, message = TWO_FAULTS[case]
    with pytest.raises(StructuralError) as err:
        FixedPointData(half_dim=2, components=components, edges=edges)
    assert str(err.value) == message


# -- index --------------------------------------------------------------------


def test_index_examples():
    assert index(point("p", 0, (1, 2, 4))) == 0
    assert index(point("p", 0, (-1, -1, 2))) == 2
    assert index(surface("s", 0, (-1, 1), genus=1)) == 1


@given(st.lists(st.integers(-9, 9).filter(lambda w: w != 0), min_size=1, max_size=3))
def test_index_plus_positive_count_is_total(ws):
    c = FixedComponent(id="c", kind="point", H=Fraction(0), weights=tuple(ws))
    positives = sum(1 for w in ws if w > 0)
    assert index(c) + positives == len(ws)


# -- extremal -----------------------------------------------------------------


def test_extremal_on_cp2_dataset():
    data = fixed_data_from_polytope(CP2, (1, 2))
    assert extremal(data) == ("v-1_-1", "v-1_2")


def test_extremal_tie_is_an_error():
    data = FixedPointData(
        half_dim=2,
        components=(point("a", 0, (1, 1)), point("b", 0, (1, -1)), point("c", 2, (-1, -1))),
    )
    with pytest.raises(NonUniqueExtremumError):
        extremal(data)


def test_extremal_mid_ties_are_fine():
    data = FixedPointData(
        half_dim=2,
        components=(
            point("lo", -2, (1, 1)),
            point("m1", 0, (1, -1)),
            point("m2", 0, (-1, 1)),
            point("hi", 2, (-1, -1)),
        ),
    )
    assert extremal(data) == ("lo", "hi")


def test_single_component_rejected_by_validate():
    data = FixedPointData(half_dim=2, components=(point("p", 0, (1, 1)),))
    report = validate(data)
    assert any(v.code == "extremum" for v in report.violations)
    with pytest.raises(NonUniqueExtremumError):
        extremal(data)


@given(st.lists(st.integers(-2, 2), min_size=1, max_size=6))
@example([0, 0, 1])  # a tied minimum
@example([0, 1, 1])  # a tied maximum
@example([0, 0, 1, 1])  # both
@example([0])  # one component
@example([1, 1, 1])  # every component on one level
def test_every_reader_words_the_extremum_rule_as_its_owner(levels):
    comps = tuple(point(f"c{i}", h, (1, 1)) for i, h in enumerate(levels))
    lows = sorted(c.id for c in comps if c.H == min(levels))
    highs = sorted(c.id for c in comps if c.H == max(levels))
    expected = [f"minimum attained by {lows}"] * (len(lows) > 1)
    expected += [f"maximum attained by {highs}"] * (len(highs) > 1)
    expected += ["single component attains both extrema (trivial action)"] * (len(comps) == 1)
    data = FixedPointData(half_dim=2, components=comps)
    assert extremum_violations(data.ordered()) == expected
    assert [v.message for v in validate(data).violations if v.code == "extremum"] == expected
    # the same components as a graph, whose ends are read off its vertices
    graph = LabelledGraph(vertices=comps, edges=())
    for read, subject in ((extremal, data), (LabelledGraph.ends, graph)):
        if expected:
            with pytest.raises(NonUniqueExtremumError) as caught:
                read(subject)
            assert str(caught.value) == expected[0]
        else:
            assert read(subject) == (lows[0], highs[0])


def test_an_empty_graph_has_no_extremum():
    with pytest.raises(NonUniqueExtremumError) as caught:
        LabelledGraph(vertices=(), edges=()).ends()
    assert str(caught.value) == "no components"


# -- validate -----------------------------------------------------------------


def test_duplicate_minimum_is_a_violation():
    data = FixedPointData(
        half_dim=2,
        components=(point("a", 0, (1, 1)), point("b", 0, (1, 2)), point("c", 1, (-1, -1))),
    )
    codes = [v.code for v in validate(data).violations]
    assert "extremum" in codes


def test_effectiveness_gcd():
    data = FixedPointData(
        half_dim=2,
        components=(point("a", 0, (2, 2)), point("b", 2, (-2, -2))),
    )
    assert any(v.code == "effectiveness" for v in validate(data).violations)


def test_effectiveness_is_checked_at_each_component():
    # the weights have gcd 1 overall, but Z_3 fixes a neighbourhood of the minimum
    data = FixedPointData(
        half_dim=3,
        components=(
            point("lo", 0, (3, 3, 3)),
            point("mid", 1, (-3, 1, 2)),
            point("hi", 2, (-1, -1, -1)),
        ),
    )
    records = [
        (v.subject, v.message) for v in validate(data).violations if v.code == "effectiveness"
    ]
    assert records == [
        (
            "lo",
            "lo: weights [3, 3, 3] share the factor 3; an effective action has weights "
            "with gcd 1 at each fixed component",
        )
    ]


def test_edge_must_increase_h():
    data = FixedPointData(
        half_dim=2,
        components=(point("a", 0, (1, 1)), point("b", 2, (-1, -1))),
        edges=(GradientEdge(bottom="b", top="a", weight=1),),
    )
    assert any(v.code == "edge-order" for v in validate(data).violations)


def test_surface_surface_edge_weight_two_in_dim6():
    data = FixedPointData(
        half_dim=3,
        components=(
            surface("lo", -2, (1, 1), genus=1),
            surface("hi", 2, (-1, -1), genus=1),
        ),
        edges=(GradientEdge(bottom="lo", top="hi", weight=1),),
    )
    assert any(v.code == "edge-weight" for v in validate(data).violations)


def test_missinglemma_boundary_case_passes():
    # weight -3 at H = 1 with H_min = -2 sits exactly on the bound 3 <= 3
    data = FixedPointData(
        half_dim=3,
        components=(
            point("lo", -2, (1, 1, 1)),
            point("p", 1, (-3, 1, 1)),
            point("hi", 2, (-1, -1, -1)),
        ),
        relative_fano=True,
    )
    assert not any(v.code == "missinglemma" for v in validate(data).violations)


def test_missinglemma_violation_when_bound_fails():
    data = FixedPointData(
        half_dim=3,
        components=(
            point("lo", Fraction(-3, 2), (1, 1, 1)),
            point("p", 1, (-3, 1, 1)),
            point("hi", 2, (-1, -1, -1)),
        ),
        relative_fano=True,
    )
    bad = [v for v in validate(data).violations if v.code == "missinglemma"]
    assert [v.subject for v in bad] == ["p"]


def test_missinglemma_silent_without_relative_fano():
    data = FixedPointData(
        half_dim=3,
        components=(
            point("lo", Fraction(-3, 2), (1, 1, 1)),
            point("p", 1, (-3, 1, 1)),
            point("hi", 2, (-1, -1, -1)),
        ),
    )
    assert not any(v.code == "missinglemma" for v in validate(data).violations)


def test_chain_lower_point_passes_missinglemma():
    # the {-1,-1,2} point on level 0 with a surface minimum of weights {1,1}
    data = FixedPointData(
        half_dim=3,
        components=(
            surface("lo", -2, (1, 1), genus=1),
            point("p", 0, (-1, -1, 2)),
            surface("hi", 2, (-1, -1), genus=1),
        ),
        relative_fano=True,
    )
    assert not any(v.code == "missinglemma" for v in validate(data).violations)


def test_resweight_codim2_minimum():
    data = FixedPointData(
        half_dim=3,
        components=(
            FixedComponent(id="lo", kind="fourfold", H=Fraction(-1), weights=(1,)),
            point("p", 0, (-1, -1, 2)),
            point("hi", 3, (-1, -1, -1)),
        ),
        edges=(GradientEdge(bottom="lo", top="p", weight=2),),
        relative_fano=True,
    )
    assert any(v.code == "resweight" for v in validate(data).violations)


def test_resweight_codim4_minimum_allows_one_and_m():
    def build(w):
        return FixedPointData(
            half_dim=3,
            components=(
                surface("lo", -4, (1, 3), genus=1),
                point("p", 0, (-1, -1, 2)),
                surface("hi", 2, (-1, -1), genus=1),
            ),
            edges=(GradientEdge(bottom="lo", top="p", weight=w),),
            relative_fano=True,
        )

    assert not any(v.code == "resweight" for v in validate(build(3)).violations)
    assert any(v.code == "resweight" for v in validate(build(2)).violations)


# -- purity -------------------------------------------------------------------


@given(
    st.lists(
        st.tuples(
            st.integers(-4, 4),
            st.integers(-3, 3).filter(lambda w: w != 0),
            st.integers(-3, 3).filter(lambda w: w != 0),
        ),
        min_size=1,
        max_size=5,
    ),
    st.booleans(),
)
def test_validate_is_pure_and_idempotent(specs, rel):
    comps = tuple(
        point(f"p{i}", h, (w1, w2)) for i, (h, w1, w2) in enumerate(specs)
    )
    data = FixedPointData(half_dim=2, components=comps, relative_fano=rel)
    assert validate(data) == validate(data)


def test_toric_data_always_validates():
    from hamfano.toric import delpezzo_catalog, scan_directions

    for entry in delpezzo_catalog():
        for item in scan_directions(entry.polytope, 2):
            assert item.error is None
            data = fixed_data_from_polytope(entry.polytope, item.xi)
            assert validate(data).ok, (entry.name, item.xi)


def test_constructors_canonicalise_their_fields():
    c = FixedComponent(id="p", kind="point", H=Fraction(4, 2), weights=[1, -2])
    assert c.H == 2 and type(c.H) is int
    assert c.weights == (1, -2) and type(c.weights) is tuple
    s = FixedComponent(
        id="s", kind="surface", H="3/2", weights=[1], genus=0, normal_degrees=[-1], area="1/2"
    )
    assert (s.H, s.area) == (Fraction(3, 2), Fraction(1, 2))
    assert type(s.H) is Fraction and type(s.area) is Fraction
    assert s.weights == (1,) and s.normal_degrees == (-1,) and type(s.normal_degrees) is tuple
    e = GradientEdge(bottom="s", top="p", weight=2, interior_points=[[1, -1]])
    assert e.interior_points == ((1, -1),) and type(e.interior_points[0]) is tuple
    data = FixedPointData(half_dim=2, components=[s, c], edges=[e])
    assert type(data.components) is tuple and type(data.edges) is tuple
    assert data.components == (s, c) and data.edges == (e,)
    weights = (1, 1)
    kept = FixedComponent(id="q", kind="point", H=Fraction(1, 3), weights=weights)
    assert kept.weights is weights and type(kept.H) is Fraction


def test_edge_interior_points_are_written_back_only_when_changed():
    points = ((1, -1), (2, 3))
    assert GradientEdge("a", "b", 2, points).interior_points is points
    for raw in ([[1, -1], [2, 3]], [(1, -1), [2, 3]], ((1, -1), [2, 3])):
        pts = GradientEdge("a", "b", 2, raw).interior_points
        assert pts == points and type(pts) is tuple
        assert all(type(p) is tuple for p in pts)
    for raw, message in (
        ([5], "edge a->b: interior_points must be an array, got 5"),
        (((1, -1), 5), "edge a->b: interior_points must be an array, got 5"),
        (((1, -1), (2,)), "edge a->b: interior point weights must be pairs of nonzero integers"),
        ([[1, 0]], "edge a->b: interior point weights must be pairs of nonzero integers"),
    ):
        with pytest.raises(StructuralError) as err:
            GradientEdge("a", "b", 2, raw)
        assert str(err.value) == message


@pytest.mark.parametrize("h", [True, False, 1.0, 0.5])
def test_bool_or_float_hamiltonian_is_structural(h):
    with pytest.raises(StructuralError):
        FixedComponent(id="p", kind="point", H=h, weights=(1, 1))
