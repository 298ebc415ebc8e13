"""Six-dimensional analyses: graphs, chains, type counting, inequality suites."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hamfano.fano6 import (
    Chain,
    IncompleteDataError,
    build_04_data,
    c1_of_surface,
    chainres_check,
    cycle_inequality,
    enumerate_04,
    fibre_correspondence,
    maximal_downward_chains,
    nosphere_check,
    reflective_check,
    semifree_check,
    small_hamiltonian_suite,
    sphere_area_vs_fibre,
    surface_graph,
    type_abc_classify,
)
from hamfano.fixed_data import FixedComponent, FixedPointData, GradientEdge
from hamfano.graphs import LabelledGraph
from hamfano.reports import InconsistencyError, PreconditionError, StructuralError
from hamfano.toric import (
    LatticePolytope,
    catalog_entry,
    delpezzo_catalog,
    fixed_data_from_polytope,
    karshon_graph,
    primitive_directions,
)

from .lifts import lift_product
from .oracle import chain_estimate_sums, is_maximal_downward_chain

SQUARE = catalog_entry("CP1xCP1").polytope
CP2 = catalog_entry("CP2").polytope
STD_HEXAGON = LatticePolytope([(-1, 0), (0, -1), (1, -1), (1, 0), (0, 1), (-1, 1)])


def point(cid, h, ws):
    return FixedComponent(id=cid, kind="point", H=Fraction(h), weights=tuple(ws))


def surf(cid, h, ws, genus, nd=None, **kw):
    return FixedComponent(
        id=cid,
        kind="surface",
        H=Fraction(h),
        weights=tuple(ws),
        genus=genus,
        normal_degrees=None if nd is None else tuple(nd),
        **kw,
    )


# -- surface graph ---------------------------------------------------------------


def test_surface_graph_degree_matches_weight_count():
    data = FixedPointData(
        half_dim=3,
        components=(
            surf("lo", -2, (1, 2), 1, (0, 0)),
            surf("hi", 2, (-2, -1), 1, (0, 0)),
        ),
        edges=(GradientEdge(bottom="lo", top="hi", weight=2),),
    )
    graph, report = surface_graph(data)
    assert report.ok
    assert graph.degree("lo") == 1 == graph.degree("hi")


def test_surface_graph_holds_the_datasets_own_objects():
    data = lift_product(CP2, (1, 2), genus=1)
    graph, _ = surface_graph(data)
    by_id = {c.id: c for c in data.components}
    assert {v.id for v in graph.vertices} == set(by_id)
    assert all(v is by_id[v.id] for v in graph.vertices)
    assert graph.edges and all(any(e is d for d in data.edges) for e in graph.edges)


def test_surface_graph_flags_missing_edge():
    data = FixedPointData(
        half_dim=3,
        components=(
            surf("lo", -5, (2, 3), 1, (0, 0)),
            surf("hi", 5, (-2, -3), 1, (0, 0)),
        ),
        edges=(GradientEdge(bottom="lo", top="hi", weight=2),),
    )
    _graph, report = surface_graph(data)
    # both surfaces have two weights of modulus > 1 but only one edge
    assert sum(1 for v in report.violations if v.code == "degree") == 2


@pytest.mark.parametrize(
    "lo_ws, hi_ws, edges, message",
    [
        ((1, 2), (-2, -1), (), "lo: degree 0 in the surface graph, but 1 weight of modulus > 1"),
        (
            (2, 3),
            (-3, -2),
            (GradientEdge(bottom="lo", top="hi", weight=2),),
            "lo: degree 1 in the surface graph, but 2 weights of modulus > 1",
        ),
    ],
    ids=["one", "two"],
)
def test_surface_graph_degree_record_counts_weights_in_number(lo_ws, hi_ws, edges, message):
    data = FixedPointData(
        half_dim=3,
        components=(surf("lo", -5, lo_ws, 1, (0, 0)), surf("hi", 5, hi_ws, 1, (0, 0))),
        edges=edges,
    )
    _graph, report = surface_graph(data)
    assert [v.message for v in report.violations if v.subject == "lo"] == [message]


def test_surface_graph_flags_genus_mixing():
    data = FixedPointData(
        half_dim=3,
        components=(
            surf("lo", -2, (1, 2), 1, (0, 0)),
            surf("hi", 2, (-2, -1), 2, (0, 0)),
        ),
        edges=(GradientEdge(bottom="lo", top="hi", weight=2),),
    )
    _graph, report = surface_graph(data)
    assert any(v.code == "genus-constancy" for v in report.violations)


# -- reflectivity ------------------------------------------------------------------


def test_reflective_square_diagonal():
    assert reflective_check(karshon_graph(SQUARE, (1, 1))) is True


def test_reflective_cp2_false():
    assert reflective_check(karshon_graph(CP2, (1, 2))) is False


def test_reflective_path_with_distinct_weights_false():
    g = LabelledGraph(
        vertices=(
            point("a", -2, (1, 2)),
            point("b", 0, (-1, 1)),
            point("c", 2, (-2, -1)),
        ),
        edges=(
            GradientEdge(bottom="a", top="b", weight=1),
            GradientEdge(bottom="b", top="c", weight=1),
        ),
        v_min="a",
        v_max="c",
    )
    assert reflective_check(g) is False


def test_reflective_standard_hexagon_chi6():
    # the degree-six del Pezzo with boundary weights {1,1,2} is reflective;
    # this is the chi = 6 case of the reflective-fibre branch
    g = karshon_graph(STD_HEXAGON, (1, -1))
    assert len(g.vertices) == 6
    assert reflective_check(g) is True


@given(st.permutations(["a", "b", "c", "d"]))
def test_reflective_invariant_under_relabelling(names):
    ids = dict(zip(["a", "b", "c", "d"], names))
    g = LabelledGraph(
        vertices=(
            point(ids["a"], -2, (1, 1)),
            point(ids["b"], 0, (-1, 1)),
            point(ids["c"], 0, (-1, 1)),
            point(ids["d"], 2, (-1, -1)),
        ),
        edges=(
            GradientEdge(bottom=ids["a"], top=ids["b"], weight=1),
            GradientEdge(bottom=ids["a"], top=ids["c"], weight=1),
            GradientEdge(bottom=ids["b"], top=ids["d"], weight=1),
            GradientEdge(bottom=ids["c"], top=ids["d"], weight=1),
        ),
        v_min=ids["a"],
        v_max=ids["d"],
    )
    assert reflective_check(g) is True


def test_reflective_message_lists_sorted_weights():
    g = LabelledGraph(
        vertices=(
            point("a", -4, (3, 2)),
            point("b", 0, (-2, 1)),
            point("c", 0, (-2, 1)),
        ),
        edges=(
            GradientEdge(bottom="a", top="b", weight=2),
            GradientEdge(bottom="a", top="c", weight=2),
        ),
        v_min="a",
    )
    with pytest.raises(InconsistencyError, match=r"minimum weights \[2, 3\] instead"):
        reflective_check(g)


def test_reflective_asserts_minimum_weights():
    g = LabelledGraph(
        vertices=(
            point("a", -4, (2, 2)),
            point("b", 0, (-2, 1)),
            point("c", 0, (-2, 1)),
        ),
        edges=(
            GradientEdge(bottom="a", top="b", weight=2),
            GradientEdge(bottom="a", top="c", weight=2),
        ),
        v_min="a",
    )
    with pytest.raises(InconsistencyError):
        reflective_check(g)


# -- fibre correspondence -----------------------------------------------------------


def test_correspondence_case2_identity_square():
    data = lift_product(SQUARE, (1, 1), genus=2)
    g, report = surface_graph(data)
    assert report.ok
    q = karshon_graph(SQUARE, (1, 1))
    result = fibre_correspondence(g, q)
    assert result.case == 2
    assert result.report.ok
    assert result.mapping == {v.id: v.id for v in q.vertices}


def test_correspondence_case2_counts_gplus():
    data = lift_product(CP2, (1, 2), genus=1)
    g, _ = surface_graph(data)
    q = karshon_graph(CP2, (1, 2))
    result = fibre_correspondence(g, q)
    assert result.case == 2 and result.report.ok
    assert len(result.mapping) == 3


def test_correspondence_mismatched_weights_reported():
    data = lift_product(CP2, (1, 2), genus=1)
    g, _ = surface_graph(data)
    q = karshon_graph(CP2, (1, 3))  # different action: levels disagree
    result = fibre_correspondence(g, q)
    assert not result.report.ok
    assert any(v.code == "no-isomorphism" for v in result.report.violations)


def _case1_data_and_graph(polytope, xi, genus):
    """Halve a reflective lift: one surface per involution orbit, meeting the
    fibre twice."""
    q = karshon_graph(polytope, xi)
    from hamfano.graphs import nontrivial_involutions

    sigma = next(nontrivial_involutions(q))
    q_min, q_max = q.v_min, q.v_max
    orbit_rep = {}
    for v in q.vertices:
        rep = min(v.id, sigma[v.id])
        orbit_rep[v.id] = rep
    comps = []
    seen = set()
    for v in q.vertices:
        rep = orbit_rep[v.id]
        if rep in seen:
            continue
        seen.add(rep)
        extremal = v.id in (q_min, q_max)
        comps.append(
            FixedComponent(
                id=rep,
                kind="surface",
                H=v.H,
                weights=v.weights,
                genus=genus,
                normal_degrees=(0, 0),
                fibre_intersection=1 if extremal else 2,
            )
        )
    edges = []
    seen_e = set()
    for e in q.edges:
        if e.weight < 2:
            continue
        key = (orbit_rep[e.bottom], orbit_rep[e.top], e.weight)
        if key in seen_e:
            continue
        seen_e.add(key)
        edges.append(GradientEdge(bottom=key[0], top=key[1], weight=e.weight))
    data = FixedPointData(
        half_dim=3,
        components=tuple(comps),
        edges=tuple(edges),
        relative_fano=True,
    )
    return data, q


def test_correspondence_case1_hexagon():
    data, q = _case1_data_and_graph(STD_HEXAGON, (1, -1), genus=2)
    g, report = surface_graph(data)
    assert report.ok
    result = fibre_correspondence(g, q)
    assert result.case == 1
    assert result.report.ok, result.report.violations
    # chi = 6: exactly 6/2 - 1 = 2 non-extremal surfaces
    nonext = [v for v in g.positive_genus().vertices if v.id not in (g.v_min, g.v_max)]
    assert len(nonext) == 2
    # both non-extremal fibre points on one level map onto the same surface
    assert len(result.mapping) == len(q.vertices)


def test_correspondence_case1_wrong_count_flagged():
    data, q = _case1_data_and_graph(STD_HEXAGON, (1, -1), genus=2)
    extra = data.replace_components(
        data.components
        + (surf("extra", Fraction(1, 2), (-1, 1), 2, (0, 0), fibre_intersection=2),)
    )
    g, _ = surface_graph(extra)
    result = fibre_correspondence(g, q)
    assert any(v.code == "count" for v in result.report.violations)


# -- chains ------------------------------------------------------------------------


def test_chain_from_type_a_to_type_b():
    data = build_04_data((-1, -1, -1), 1, 1, 0)
    chains = maximal_downward_chains(data)
    assert [c.points for c in chains] == [("a0", "b0")]
    assert chains[0].edge_weights == (2,)
    assert all(is_maximal_downward_chain(data, c) for c in chains)


def test_chain_terminates_at_terminal_weights():
    data = FixedPointData(
        half_dim=3,
        components=(
            point("lo", -1, (1, 1, 1)),
            point("q", 0, (-1, -1, 2)),
            point("p", 2, (1, -1, -2)),
            point("hi", 3, (-1, -1, -1)),
        ),
        edges=(GradientEdge(bottom="q", top="p", weight=2),),
        fano=True,
    )
    chains = maximal_downward_chains(data)
    assert [c.points for c in chains] == [("p", "q")]


def test_chain_missing_continuation_is_incomplete_data():
    data = FixedPointData(
        half_dim=3,
        components=(
            point("p1", 3, (-2, 1, 1)),
            point("p2", 0, (2, -3, -1)),
        ),
        edges=(GradientEdge(bottom="p2", top="p1", weight=2),),
    )
    with pytest.raises(IncompleteDataError):
        maximal_downward_chains(data)


def test_chain_walk_stops_at_a_downhill_edge():
    # the CLI refuses such data up front; the library walk keeps its own
    # guard, for a downhill edge and for a level one (H(x) = H(y))
    for h_y, edges, key in (
        (1, (("x", "y"), ("y", "x")), "y->x"),
        (0, (("x", "y"),), "x->y"),
    ):
        data = FixedPointData(
            half_dim=3,
            components=(point("x", 0, (-2, 1, 1)), point("y", h_y, (-2, 1, 1))),
            edges=tuple(GradientEdge(bottom=b, top=t, weight=2) for b, t in edges),
        )
        with pytest.raises(InconsistencyError, match=f"{key} must increase .*no downward chain"):
            maximal_downward_chains(data)


def test_chain_value_constraints():
    with pytest.raises(StructuralError):
        Chain(points=("a",), edge_weights=())
    with pytest.raises(StructuralError):
        Chain(points=("a", "b"), edge_weights=(1,))


@given(st.integers(0, 4), st.integers(0, 4), st.sampled_from([(-1, -1, -1), (-2, -1, -1)]))
def test_chains_satisfy_definition(n_a, n_c, max_type):
    n_b = n_a if max_type == (-1, -1, -1) else n_a + 1
    data = build_04_data(max_type, n_a, n_b, n_c)
    for chain in maximal_downward_chains(data):
        assert is_maximal_downward_chain(data, chain)


# -- chainres ------------------------------------------------------------------------


def test_chainres_passes_on_04_menu():
    for max_type, n_a in (((-1, -1, -1), 2), ((-2, -1, -1), 1)):
        n_b = n_a if max_type == (-1, -1, -1) else n_a + 1
        data = build_04_data(max_type, n_a, n_b, 2)
        assert chainres_check(data).ok


def test_chainres_rejects_lower_point_with_minus113():
    # the lower point of a chain with weights {-1,-1,3} contradicts the
    # forced tuple {-1,-1,2} (and carries a modulus-3 weight)
    data = FixedPointData(
        half_dim=3,
        components=(
            FixedComponent(id="min", kind="fourfold", H=Fraction(-1), weights=(1,)),
            point("p2", 0, (-1, -1, 3)),
            point("p1", 2, (1, -1, -2)),
            point("max", 3, (-1, -1, -1)),
        ),
        edges=(GradientEdge(bottom="p2", top="p1", weight=2),),
        fano=True,
    )
    report = chainres_check(data)
    codes = [v.code for v in report.violations]
    assert codes.count("chainres") >= 2  # wrong tuple + modulus 3
    assert any("[-1, -1, 3]" in v.message for v in report.violations)


def test_chainres_rejects_wrong_lower_weights():
    data = FixedPointData(
        half_dim=3,
        components=(
            FixedComponent(id="min", kind="fourfold", H=Fraction(-1), weights=(1,)),
            point("p2", 0, (-1, -1, 2)),
            point("bad", 0, (-1, 2, 2)),
            point("p1", 2, (1, -1, -2)),
            point("max", 3, (-1, -1, -1)),
        ),
        edges=(
            GradientEdge(bottom="p2", top="p1", weight=2),
            GradientEdge(bottom="bad", top="p1", weight=2),
        ),
        fano=True,
    )
    report = chainres_check(data)
    assert any("weights" in v.message for v in report.violations)


def test_chainres_modulus_three_single_violation():
    data = build_04_data((-1, -1, -1), 1, 1, 1)
    tweaked = data.replace_components(
        tuple(
            point(c.id, c.H, (3, -1, -1)) if c.id == "c0" else c
            for c in data.components
        )
    )
    report = chainres_check(tweaked)
    assert len(report.violations) == 1
    assert report.violations[0].code == "chainres"
    assert "modulus" in report.violations[0].message


# -- type A/B/C -------------------------------------------------------------------------


def test_abc_classify_counts_and_b2():
    data = build_04_data((-1, -1, -1), 1, 1, 2)
    n_a, n_b, n_c, report = type_abc_classify(data)
    assert (n_a, n_b, n_c) == (1, 1, 2)
    assert report.ok
    assert "b2(M_min) = 5" in report.notes
    levels = sorted(
        (c.H for c in data.components if c.kind == "point" and c.id != "max")
    )
    assert levels == [0, 1, 1, 2]


def test_abc_nanb_violation():
    data = FixedPointData(
        half_dim=3,
        components=(
            FixedComponent(id="min", kind="fourfold", H=Fraction(-1), weights=(1,)),
            point("max", 4, (-1, -1, -2)),
        ),
        fano=True,
    )
    _, _, _, report = type_abc_classify(data)
    assert any(v.code == "nAnB" for v in report.violations)


def test_abc_rejects_wrong_tuple():
    data = build_04_data((-1, -1, -1), 1, 1, 0)
    extra = data.replace_components(data.components + (point("x", 2, (1, 1, -2)),))
    _, _, _, report = type_abc_classify(extra)
    assert any(v.code == "listofweights" for v in report.violations)


def test_abc_surface_must_sit_on_level_zero():
    data = build_04_data((-1, -1, -1), 0, 0, 0)
    extra = data.replace_components(
        data.components + (surf("s", 1, (-1, 1), 0, (0, 0)),)
    )
    _, _, _, report = type_abc_classify(extra)
    assert any(v.code == "surface-level" for v in report.violations)


# -- enumeration --------------------------------------------------------------------------


def test_enumerate_04_bounds():
    rows = enumerate_04()
    assert all(r["total"] <= 8 for r in rows)
    assert all(r["b2_min"] <= 9 for r in rows)
    assert max(r["total"] for r in rows) == 8
    included = {(tuple(r["max_type"]), r["n_A"], r["n_C"]) for r in rows}
    assert ((-1, -1, -1), 4, 0) in included  # volume 9 - 8 - 0 = 1 keeps it
    assert ((-1, -1, -1), 4, 1) not in included  # volume 0 drops it


def test_enumerate_04_volume_identity():
    for row in enumerate_04():
        base = 9 if row["max_type"] == [-1, -1, -1] else 8
        assert row["volume"] == base - 2 * row["n_A"] - row["n_C"]


def test_abc_counts_determine_reduced_volume():
    # cross-module identity: classification counts fix the level-0 volume
    from hamfano.dh import reduced_volume

    for mt, base in (((-1, -1, -1), 9), ((-2, -1, -1), 8)):
        for n_a, n_c in ((0, 0), (1, 2), (2, 3)):
            n_b = n_a if mt == (-1, -1, -1) else n_a + 1
            data = build_04_data(mt, n_a, n_b, n_c)
            got_a, got_b, got_c, report = type_abc_classify(data)
            assert report.ok
            assert (got_a, got_b, got_c) == (n_a, n_b, n_c)
            assert reduced_volume(data, 0) == base - 2 * got_a - got_c


# -- semifree ---------------------------------------------------------------------------


def test_semifree_check():
    data = FixedPointData(
        half_dim=3,
        components=(
            FixedComponent(id="min", kind="fourfold", H=Fraction(-2), weights=(1,)),
            point("p", -1, (-1, 1, 1)),
            surf("s", 0, (-1, 1), 0, (0, 0)),
            surf("max", 1, (-1, -1), 1, (0, 0)),
        ),
        fano=True,
    )
    # the {-1,1,1} point on level -1 is allowed by semi-freeness
    assert semifree_check(data).ok

    bad = data.replace_components(
        tuple(
            point("p", -1, (-2, 1, 1)) if c.id == "p" else c for c in data.components
        )
    )
    report = semifree_check(bad)
    assert any(v.code == "newref" for v in report.violations)


# -- c1 of a surface ----------------------------------------------------------------------


def test_c1_of_surface_examples():
    assert c1_of_surface(surf("s", 0, (1, -1), 1, (0, 0))) == 0
    assert c1_of_surface(surf("s", 0, (1, -1), 2, (1, -3))) == -4
    assert c1_of_surface(surf("s", 0, (1, -1), 0, (0, 0))) == 2


# -- cycle inequality -----------------------------------------------------------------------


def _four_cycle_data():
    return FixedPointData(
        half_dim=3,
        components=(
            surf("s1", -4, (2, 2), 2, (0, 0)),
            surf("s2", 0, (-2, 2), 2, (0, -1)),
            surf("s4", 0, (-2, 2), 2, (0, -1)),
            surf("s3", 4, (-2, -2), 2, (0, 0)),
        ),
        edges=(
            GradientEdge(bottom="s1", top="s2", weight=2),
            GradientEdge(bottom="s1", top="s4", weight=2),
            GradientEdge(
                bottom="s2", top="s3", weight=2, interior_points=((1, -2), (1, -2))
            ),
            GradientEdge(
                bottom="s4", top="s3", weight=2, interior_points=((1, -2), (1, -2))
            ),
        ),
        relative_fano=True,
    )


def test_cycle_inequality_four_cycle_witness():
    report = cycle_inequality(_four_cycle_data())
    assert report.ok, report.violations
    assert any("witness" in n for n in report.notes)
    # per-step sums are {0, -1, 0, -1}; best c1 is -3 <= 2 - 2*2
    assert any("c1 = -3" in n for n in report.notes)


def test_cycle_inequality_empty_interior_sum_is_zero():
    from hamfano.fano6 import isotropy_edge_sum

    data = _four_cycle_data()
    e = data.edges[0]
    assert isotropy_edge_sum(e) == 0
    assert isotropy_edge_sum(data.edges[2]) == -1


_WEIGHTS = st.sampled_from([-3, -2, -1, 1, 2, 3])


@given(st.integers(2, 5), st.lists(st.tuples(_WEIGHTS, _WEIGHTS), max_size=4))
@example(2, [])
@example(3, [(1, -1), (1, -1)])
def test_isotropy_edge_sum_matches_the_induced_4d_sum(weight, interior):
    # the isotropy 4-manifold with both end surfaces at normal degree 0 and
    # the interior points as points: its 4D sum is the recovered n_bot + n_top
    from types import SimpleNamespace

    from hamfano.fano6 import isotropy_edge_sum

    from .oracle import abbv_sum_4d_by_terms

    e = GradientEdge(bottom="lo", top="hi", weight=weight, interior_points=tuple(interior))
    ends = [SimpleNamespace(kind="surface", normal_degrees=(0,)) for _ in range(2)]
    points = [SimpleNamespace(kind="point", weights=p) for p in interior]
    assert isotropy_edge_sum(e) == abbv_sum_4d_by_terms(ends + points)


def test_cycle_inequality_positive_interior_flagged():
    data = FixedPointData(
        half_dim=3,
        components=(
            surf("lo", -4, (2, 2), 2, (0, 0)),
            surf("m1", 0, (-2, 2), 2, (0, 1)),
            surf("m2", 0, (-2, 2), 2, (0, 0)),
            surf("hi", 4, (-2, -2), 2, (1, 0)),
        ),
        edges=(
            GradientEdge(bottom="lo", top="m1", weight=2),
            GradientEdge(bottom="lo", top="m2", weight=2),
            GradientEdge(
                bottom="m1", top="hi", weight=2, interior_points=((1, 2),)
            ),
            GradientEdge(bottom="m2", top="hi", weight=2),
        ),
        relative_fano=True,
    )
    report = cycle_inequality(data)
    codes = {v.code for v in report.violations}
    assert "isotropy-sum" in codes  # 1/(1*2) > 0
    assert "fourcor-mismatch" in codes  # stored degrees give 1+1=2 != 1/2


def test_cycle_inequality_weight_one_links_close():
    data = lift_product(CP2, (1, 2), genus=1)
    report = cycle_inequality(data)
    assert report.ok
    assert any("witness" in n for n in report.notes)


def test_cycle_inequality_pure_isotropy_triangle():
    # under (5,3) every boundary weight of CP2 is >= 2: the surfaces close
    # into a cycle of three isotropy 4-manifolds with no weight-1 links
    data = lift_product(CP2, (5, 3), genus=2)
    report = cycle_inequality(data)
    assert report.ok
    assert not report.inconclusive
    assert any("witness" in n and "c1 = -2" in n for n in report.notes)


def test_small_suite_cycle_component_longeq():
    # same data: the Hamiltonian range [-8, 7] breaks the range hypothesis,
    # but the chain estimate runs over the cycle component and holds
    data = lift_product(CP2, (5, 3), genus=2)
    report = small_hamiltonian_suite(data)
    assert [v.code for v in report.violations] == ["hyp-range"]


def test_cycle_inequality_open_chain_inconclusive():
    data = lift_product(CP2, (1, 2), genus=1)
    # drop the degrees of one surface: the weight-1 link cannot be evaluated
    comps = tuple(
        surf(c.id, c.H, c.weights, c.genus, None, fibre_intersection=1)
        if c.id == "v2_-1"
        else c
        for c in data.components
    )
    report = cycle_inequality(data.replace_components(comps))
    assert report.ok
    assert any(i.code in ("weight-one-link", "open-chain") for i in report.inconclusive)


def _shuffles(data, count=6, seed=0):
    """Copies of data with its components and edges in random file orders."""
    rng = random.Random(seed)
    for _ in range(count):
        comps, edges = list(data.components), list(data.edges)
        rng.shuffle(comps)
        rng.shuffle(edges)
        yield replace(data, components=tuple(comps), edges=tuple(edges))


def _two_weight_two_edges(edges):
    # the minimum has the weights (2, 2) with the degrees (0, -3); the
    # interior points of lo->a recover n_lo + n_a = -3, those of lo->b none
    comps = (
        surf("lo", -2, (2, 2), 1, (0, -3)),
        surf("a", 0, (-2, 1), 1, (0, 0)),
        surf("b", 0, (-2, 1), 1, (0, 0)),
        surf("hi", 2, (-1, -1), 1, (0, 0)),
    )
    return FixedPointData(half_dim=3, components=comps, edges=edges, relative_fano=True)


def _degree_three_data():
    # m carries the weights (-2, 2) but lies on three isotropy 4-manifolds
    return FixedPointData(
        half_dim=3,
        components=(
            surf("lo", -2, (1, 2), 1, (0, 0)),
            surf("m", 0, (-2, 2), 1, (0, 0)),
            surf("x", 1, (-2, 1), 1, (0, 0)),
            surf("y", 1, (-2, 1), 1, (0, 0)),
            surf("hi", 2, (-1, -1), 1, (0, 0)),
        ),
        edges=(
            GradientEdge(bottom="lo", top="m", weight=2),
            GradientEdge(bottom="m", top="x", weight=2),
            GradientEdge(bottom="m", top="y", weight=2),
        ),
        relative_fano=True,
    )


def _order_cases():
    to_a = GradientEdge(bottom="lo", top="a", weight=2, interior_points=((1, -1),) * 3)
    to_b = GradientEdge(bottom="lo", top="b", weight=2)
    triangle = lift_product(CP2, (5, 3), genus=2)
    return [
        _two_weight_two_edges((to_a, to_b)),
        _four_cycle_data(),
        triangle,
        replace(triangle, edges=triangle.edges[1:]),  # two surfaces short of an edge
        lift_product(STD_HEXAGON, (1, 2), genus=2),
        _degree_three_data(),
    ]


def test_cycle_inequality_ignores_component_order():
    # the two interior surfaces compete for the weight-1 slots of the
    # minimum, whose degrees differ: the canonical (H, id) order decides
    # which link is checked against which, whatever the file order
    comps = (
        surf("lo", -2, (1, 1), 1, (0, -5)),
        surf("a", 0, (-1, 1), 1, (3, -5)),
        surf("b", 0, (-1, 1), 1, (-5, -5)),
        surf("hi", 2, (-1, -1), 1, (0, 0)),
    )
    data = FixedPointData(half_dim=3, components=comps, relative_fano=True)
    report = cycle_inequality(data)
    assert [v.code for v in report.violations] == ["isotropy-inequality"]
    shuffled = data.replace_components((comps[2], comps[3], comps[1], comps[0]))
    assert cycle_inequality(shuffled).as_dict() == report.as_dict()
    # with isotropy edges too, neither order moves a record
    for data in _order_cases():
        report = cycle_inequality(data).as_dict()
        for shuffled in _shuffles(data):
            assert cycle_inequality(shuffled).as_dict() == report


def test_cycle_inequality_matches_slots_in_canonical_edge_order():
    to_a = GradientEdge(bottom="lo", top="a", weight=2, interior_points=((1, -1),) * 3)
    to_b = GradientEdge(bottom="lo", top="b", weight=2)
    report = cycle_inequality(_two_weight_two_edges((to_a, to_b)))
    # lo->a comes first and takes the first weight-2 slot, of degree 0
    assert [v.code for v in report.violations] == ["fourcor-mismatch"] * 2
    swapped = cycle_inequality(_two_weight_two_edges((to_b, to_a)))
    assert swapped.as_dict() == report.as_dict()


def test_small_suite_ignores_component_and_edge_order():
    for data in _order_cases():
        report = small_hamiltonian_suite(data).as_dict()
        for shuffled in _shuffles(data):
            assert small_hamiltonian_suite(shuffled).as_dict() == report


def test_small_suite_degree_three_surface_is_not_left_out():
    # no path or cycle runs through all four surfaces; the estimate is not
    # evaluated on part of the component, the unmatched edge is reported
    report = small_hamiltonian_suite(_degree_three_data())
    assert not report.ok
    assert ("degree", "m") in [(v.code, v.subject) for v in report.violations]
    assert [v.message for v in report.violations if v.code == "edge-weight"] == [
        "edge between m and y does not match the surface weights"
    ]
    assert not any(v.code in ("liapp", "longeq") for v in report.violations)
    assert [v.subject for v in report.violations if v.code == "edge-weight"] == ["m->y"]


def test_small_suite_reports_a_missing_weight_once():
    # the weight-2 edge's bottom surface carries the weight 3 instead: the
    # surface graph flags the edge, and the chain estimate adds no second record
    data = lift_product(CP2, (1, 2), genus=1)
    data = data.replace_components(
        replace(c, weights=(1, 3)) if c.id == "v-1_-1" else c for c in data.components
    )
    (edge,) = data.edges
    records = [v for v in small_hamiltonian_suite(data).violations if v.code == "edge-weight"]
    assert [(v.message, v.subject) for v in records] == [
        (f"edge {edge.key}: bottom surface lacks the weight 2", edge.key)
    ]


def test_chain_estimate_agrees_with_oracle_on_catalog_lifts():
    # random degrees on lifts of the catalog polygons: longeq is reported
    # exactly for the components whose oracle sum is positive
    rng = random.Random(11)
    seen = {True: 0, False: 0}
    for entry in delpezzo_catalog():
        for xi in primitive_directions(2, 3):
            try:
                base = lift_product(entry.polytope, xi, genus=rng.randint(1, 3))
            except ValueError:
                continue  # a fixed sphere: not a generic direction
            for _ in range(3):
                data = base.replace_components(
                    replace(c, normal_degrees=(rng.randint(-3, 2), rng.randint(-3, 2)))
                    for c in base.components
                )
                report = small_hamiltonian_suite(data)
                reported = sorted(
                    Fraction(v.message.split("right-hand side ")[1].split(" ")[0])
                    for v in report.violations
                    if v.code == "longeq"
                )
                assert reported == sorted(s for s in chain_estimate_sums(data) if s > 0)
                seen[bool(reported)] += 1
    assert seen[True] and seen[False], seen


# -- nosphere and sphere areas ----------------------------------------------------------------


def _with_sphere(h, area=None, nd=(0, 0), weights=(-1, 2), fibre_class=False):
    base = lift_product(CP2, (1, 2), genus=1)
    sphere = FixedComponent(
        id="sph",
        kind="surface",
        H=Fraction(h),
        weights=weights,
        genus=0,
        normal_degrees=nd,
        area=None if area is None else Fraction(area),
        fibre_class=fibre_class,
    )
    return base.replace_components(base.components + (sphere,))


def test_nosphere_check():
    assert nosphere_check(lift_product(CP2, (1, 2), genus=1)).ok
    assert nosphere_check(_with_sphere(0, weights=(-1, 1))).ok
    report = nosphere_check(_with_sphere(-1))
    assert [v.code for v in report.violations] == ["nosphere"]


def test_sphere_area_vs_fibre():
    fibre, xi = CP2, (1, 2)
    # slice length at level -1 is 1; an area-2 sphere there is impossible
    report = sphere_area_vs_fibre(_with_sphere(-1, area=2), fibre, xi)
    assert [v.code for v in report.violations] == ["sphere-area"]
    # equality requires the fibre-class flag
    report = sphere_area_vs_fibre(_with_sphere(0, area=Fraction(3, 2)), fibre, xi)
    assert not report.ok
    report = sphere_area_vs_fibre(
        _with_sphere(0, area=Fraction(3, 2), fibre_class=True), fibre, xi
    )
    assert report.ok
    # no spheres at all passes
    assert sphere_area_vs_fibre(lift_product(CP2, (1, 2), 1), fibre, xi).ok


def test_sphere_area_needs_level_in_range():
    with pytest.raises(PreconditionError):
        sphere_area_vs_fibre(_with_sphere(Fraction(7, 2), area=1), CP2, (1, 2))


# -- small Hamiltonian suite --------------------------------------------------------------------


def test_small_suite_passes_and_emits_witness():
    data = lift_product(CP2, (1, 2), genus=2)
    report = small_hamiltonian_suite(data)
    assert report.ok, report.violations
    wit = [n for n in report.notes if n.startswith("witness")]
    assert wit and "c1 = -2" in wit[0] and "<= -2" in wit[0]


def test_small_suite_point_fixture_exactly_isosimp():
    base = lift_product(CP2, (1, 2), genus=1)
    data = base.replace_components(base.components + (point("bad", -1, (3, -1, -1)),))
    report = small_hamiltonian_suite(data)
    assert [v.code for v in report.violations] == ["isosimp"]
    assert report.violations[0].subject == "bad"


def test_small_suite_sphere_fixture_exactly_nosphere():
    base = lift_product(CP2, (1, 2), genus=1)
    sphere = FixedComponent(
        id="sph",
        kind="surface",
        H=Fraction(-1),
        weights=(-1, 2),
        genus=0,
        normal_degrees=(-1, 0),  # beta = 0: the localisation sum stays 0
        area=Fraction(1),
    )
    data = base.replace_components(base.components + (sphere,))
    report = small_hamiltonian_suite(data)
    assert [v.code for v in report.violations] == ["nosphere"]
    assert report.violations[0].subject == "sph"


def test_small_suite_alpha_zero_point_passes():
    base = lift_product(CP2, (1, 2), genus=1)
    # alpha({1,1,-2}) = 0 and the point pairs with {-1,-1,2} to keep the sum 0
    data = base.replace_components(
        base.components + (point("x", 0, (1, 1, -2)), point("y", 0, (-1, -1, 2)))
    )
    report = small_hamiltonian_suite(data)
    assert not any(
        v.code in ("isosimp", "isolatedloc", "bigloc") for v in report.violations
    )


def test_small_suite_range_hypothesis_flagged():
    data = lift_product(CP2, (1, 4), genus=1)  # H range [-5, 5]
    report = small_hamiltonian_suite(data)
    assert any(v.code == "hyp-range" for v in report.violations)


def test_small_suite_reflective_branch():
    data = lift_product(SQUARE, (1, 1), genus=3)
    report = small_hamiltonian_suite(data)
    assert report.ok
    assert not any(v.code == "inclaim" for v in report.violations)


def test_small_suite_reflective_bound_flags_inclaim():
    # terms ((w1 w2 + 1)(2 - 2g), w1 w2): the genus-2 minimum (1, 1) gives -4,
    # the genus-1 maximum 0, and a genus-2 surface (3, -1) gives (-2)(-2)/(-3);
    # the bound is 4 (2 - 2g) = -8 with g = 2, the minimum's genus
    ends = (surf("min", -2, (1, 1), 2), surf("max", 2, (-1, -1), 1))
    for extra, total in (((), "-4"), ((surf("mid", 0, (3, -1), 2),), "-16/3")):
        data = FixedPointData(half_dim=3, components=ends + extra, relative_fano=True)
        report = small_hamiltonian_suite(data)
        records = [v.message for v in report.violations if v.code == "inclaim"]
        assert records == [f"reflective bound fails: {total} > -8"]


def test_small_suite_betapos_violation_detected():
    base = lift_product(SQUARE, (1, 1), genus=2)
    comps = []
    for c in base.components:
        if c.H == 0:
            comps.append(surf(c.id, c.H, c.weights, 2, (1, 1), fibre_intersection=1))
        else:
            comps.append(c)
    data = base.replace_components(tuple(comps))
    report = small_hamiltonian_suite(data)
    codes = {v.code for v in report.violations}
    assert "betapos" in codes and "bigloc" in codes


def test_small_suite_longeq_violation_detected():
    base = lift_product(CP2, (1, 2), genus=1)
    comps = []
    for c in base.components:
        if c.weights == (1, 2):
            comps.append(surf(c.id, c.H, c.weights, 1, (0, 3), fibre_intersection=1))
        elif c.weights == (-2, -1):
            comps.append(surf(c.id, c.H, c.weights, 1, (3, 0), fibre_intersection=1))
        else:
            comps.append(c)
    data = base.replace_components(tuple(comps))
    report = small_hamiltonian_suite(data)
    assert any(v.code == "longeq" for v in report.violations)


# -- every precondition gate -------------------------------------------------------------------

_FOURFOLD_MIN = FixedComponent(id="min", kind="fourfold", H=-1, weights=(1,))
# a fourfold minimum under a point maximum: symplectic Fano
_FOUR_POINT = build_04_data((-1, -1, -1), 0, 0, 0)
# isolated extrema in dimension 6, relative Fano and Fano
_POINTS_6D = FixedPointData(
    half_dim=3,
    components=(point("lo", -1, (1, 1, 1)), point("hi", 1, (-1, -1, -1))),
    relative_fano=True,
    fano=True,
)
_GENUS_ONE = lift_product(CP2, (1, 2), genus=1)
_FIBRE = karshon_graph(CP2, (1, 2))


def _genus_graph(*surfaces, ends=False):
    """A surface graph without edges; with ends, its first and last surfaces are
    its extremal vertices."""
    return LabelledGraph(
        vertices=surfaces,
        edges=(),
        v_min=surfaces[0].id if ends else None,
        v_max=surfaces[-1].id if ends else None,
    )


_GATES = [
    (
        lambda: surface_graph(fixed_data_from_polytope(CP2, (1, 2))),
        "surface_graph applies to 6-dimensional data",
    ),
    (lambda: surface_graph(_POINTS_6D), "surface_graph needs both extrema to be surfaces"),
    (
        lambda: fibre_correspondence(
            _genus_graph(
                surf("a", 0, (1, 1), 1, fibre_intersection=1),
                surf("b", 0, (1, 1), 1, fibre_intersection=1),
            ),
            _FIBRE,
        ),
        "graph extremes are not unique",
    ),
    (
        lambda: fibre_correspondence(
            _genus_graph(surf("a", 0, (1, 1), 0), surf("b", 1, (-1, -1), 0)), _FIBRE
        ),
        "no positive-genus surfaces in the surface graph",
    ),
    (
        lambda: fibre_correspondence(
            _genus_graph(surf("a", 0, (1, 1), 1), surf("b", 1, (-1, -1), 1)), _FIBRE
        ),
        "every positive-genus surface needs its fibre_intersection",
    ),
    (
        lambda: fibre_correspondence(
            _genus_graph(surf("a", 0, (1, 1), 1, fibre_intersection=0)), _FIBRE
        ),
        "fibre intersections must be 1 or 2, got {0}",
    ),
    (
        lambda: fibre_correspondence(
            _genus_graph(
                surf("a", 0, (1, 1), 1, fibre_intersection=2),
                surf("b", 1, (-1, -1), 1, fibre_intersection=1),
            ),
            _FIBRE,
        ),
        "surface graph lacks its extremal vertices",
    ),
    (
        lambda: chainres_check(replace(_FOUR_POINT, fano=False)),
        "chainres_check applies to symplectic Fano data",
    ),
    (lambda: chainres_check(_POINTS_6D), "chainres_check needs a 4-dimensional minimum"),
    (
        lambda: type_abc_classify(replace(_FOUR_POINT, fano=False)),
        "type_abc_classify applies to symplectic Fano data",
    ),
    (lambda: type_abc_classify(_POINTS_6D), "type_abc_classify needs a 4-dimensional minimum"),
    (
        lambda: type_abc_classify(
            FixedPointData(
                half_dim=3, components=(_FOURFOLD_MIN, surf("max", 1, (-1, -1), 0)), fano=True
            )
        ),
        "type_abc_classify needs the maximum to be a point",
    ),
    (
        lambda: build_04_data((-1, -3, -1), 0, 0, 0),
        "maximum type must be one of ((-1, -1, -1), (-2, -1, -1)), got (-3, -1, -1)",
    ),
    (
        lambda: build_04_data((-2, -1, -1), 1, 1, 0),
        "a {-1,-1,-2} maximum needs n_B = n_A + 1",
    ),
    (lambda: build_04_data((-1, -1, -1), 1, 0, 0), "a {-1,-1,-1} maximum needs n_B = n_A"),
    (
        lambda: semifree_check(replace(_FOUR_POINT, fano=False)),
        "semifree_check applies to symplectic Fano data",
    ),
    (lambda: semifree_check(_POINTS_6D), "semifree_check needs a 4-dimensional minimum"),
    (lambda: semifree_check(_FOUR_POINT), "semifree_check needs dim(M_max) >= 2"),
    (
        lambda: c1_of_surface(point("p", 0, (1, 1, -1))),
        "p: needs a fixed surface with two weights",
    ),
    (lambda: c1_of_surface(surf("s", 0, (1, -1), 1)), "s: needs both normal degrees"),
    (
        lambda: cycle_inequality(fixed_data_from_polytope(CP2, (1, 2))),
        "cycle_inequality applies to 6-dimensional data",
    ),
    (lambda: cycle_inequality(_POINTS_6D), "cycle_inequality needs positive-genus extrema"),
    (
        lambda: nosphere_check(replace(_GENUS_ONE, relative_fano=False)),
        "nosphere_check applies to relative Fano data",
    ),
    (lambda: nosphere_check(_POINTS_6D), "nosphere_check needs a positive-genus minimum"),
    (
        lambda: small_hamiltonian_suite(replace(_GENUS_ONE, relative_fano=False)),
        "small_hamiltonian_suite applies to relative Fano data",
    ),
    (
        lambda: small_hamiltonian_suite(_POINTS_6D),
        "small_hamiltonian_suite needs positive-genus extremal surfaces",
    ),
    (
        lambda: sphere_area_vs_fibre(_GENUS_ONE, LatticePolytope([(0, 0), (2, 0), (0, 1)]), (1, 2)),
        "the fibre must be a toric del Pezzo polygon",
    ),
    (
        lambda: sphere_area_vs_fibre(_with_sphere(0), CP2, (1, 2)),
        "sph: fixed sphere must carry its area",
    ),
    (
        # the fibre CP2 under (1, 2) spans the levels -3, 0 and 3
        lambda: sphere_area_vs_fibre(_with_sphere(Fraction(7, 2), area=1), CP2, (1, 2)),
        "sph: level 7/2 outside the fibre range [-3, 3]",
    ),
]


@pytest.mark.parametrize("call, message", _GATES, ids=[m for _c, m in _GATES])
def test_every_precondition_gate_raises_its_message(call, message):
    with pytest.raises(PreconditionError) as caught:
        call()
    assert str(caught.value) == message


# -- records reached by hand-made data ---------------------------------------------------------


def _records(report):
    return (
        [(v.code, v.message, v.subject) for v in report.violations],
        [(v.code, v.message, v.subject) for v in report.inconclusive],
        report.notes,
    )


def _chainres_data(*points, edges):
    """Points and spheres between a fourfold minimum and a point maximum."""
    return FixedPointData(
        half_dim=3,
        components=(_FOURFOLD_MIN, point("max", 5, (-1, -1, -1))) + points,
        edges=tuple(GradientEdge(*e) for e in edges),
        fano=True,
    )


@pytest.mark.parametrize(
    "data, records",
    [
        (
            # the seed m -> u continues down through the -2 of m to l; the seed
            # l -> m gives the admissible chain m -> l
            _chainres_data(
                point("l", 0, (2, -1, -1)),
                point("m", 2, (2, -2, -1)),
                point("u", 4, (-2, -1, -1)),
                edges=[("l", "m", 2), ("m", "u", 2)],
            ),
            [("chain u->m->l has length 3, not 2", None)],
        ),
        (
            # the chain reads its weight off the sphere, not off the points
            _chainres_data(
                point("l", 0, (-1, -1, 2)), point("m", 2, (1, -1, -1)), edges=[("l", "m", 3)]
            ),
            [("chain m->l: sphere weight 3, expected 2", None)],
        ),
        (
            _chainres_data(
                point("l", 1, (-1, -1, 2)), point("m", 3, (1, -1, -2)), edges=[("l", "m", 2)]
            ),
            [("chain m->l: lower point sits on level 1, expected 0", "l")],
        ),
        (
            _chainres_data(
                point("l", 0, (-1, -1, 2)), point("m", 1, (1, -1, -2)), edges=[("l", "m", 2)]
            ),
            [("chain m->l: upper point sits on level 1 < 2", "m")],
        ),
    ],
    ids=["length", "sphere-weight", "lower-level", "upper-level"],
)
def test_chainres_records_each_broken_chain_rule(data, records):
    report = chainres_check(data)
    assert [(v.message, v.subject) for v in report.violations] == records
    assert {v.code for v in report.violations} == {"chainres"}


def test_semifree_records_weights_and_level_zero_components():
    data = FixedPointData(
        half_dim=3,
        components=(
            FixedComponent(id="min", kind="fourfold", H=-2, weights=(1,)),
            point("p", -1, (-2, 1, 1)),
            point("q", 0, (-1, 1, 1)),
            surf("s", 0, (-1, 2), 0),
            surf("max", 1, (-1, -1), 1),
        ),
        fano=True,
    )
    level_zero = "level-0 component must be a surface with weights {-1,1,0}"
    # each component in the canonical (H, id) order, its weights first
    assert _records(semifree_check(data))[0] == [
        ("newref", "p: weight -2 contradicts semi-freeness", "p"),
        ("newref", f"q: {level_zero}", "q"),
        ("newref", "s: weight 2 contradicts semi-freeness", "s"),
        ("newref", f"s: {level_zero}", "s"),
    ]


def test_small_suite_flags_a_level_zero_sphere_with_positive_beta():
    # beta = (2 - 0)(-1)(1) - (-2) - (-1) = 1, so c1 = 2 - 2 - 1 = -1 < 0; the point
    # {1,1,-1} has alpha = 1/(-1) = -1 and keeps the localisation sum at 0
    data = _GENUS_ONE.replace_components(
        _GENUS_ONE.components
        + (surf("sph", 0, (-1, 1), 0, (-2, -1)), point("x", 0, (1, 1, -1)))
    )
    message = "sph: beta = 1 > 0, so c1 < 0 on a sphere violates the relative Fano condition"
    assert _records(small_hamiltonian_suite(data)) == ([("betapos-sphere", message, "sph")], [], [])


def test_small_suite_flags_an_isolated_point_with_positive_alpha():
    # alpha({1,1,1}) = 3 and alpha({1,1,-1}) = -1: three of the latter keep the sum at 0
    extra = (point("x", 0, (1, 1, 1)),) + tuple(point(f"y{i}", 0, (1, 1, -1)) for i in range(3))
    data = _GENUS_ONE.replace_components(_GENUS_ONE.components + extra)
    assert _records(small_hamiltonian_suite(data)) == (
        [("isolatedloc", "x: alpha = 3 > 0", "x")], [], []
    )


def _direct_link_data(lo_degrees, hi_degrees):
    """Genus-1 extrema joined by an isotropy edge of weight 2 and, through their
    weight-1 slots, by a weight-1 sphere."""
    return FixedPointData(
        half_dim=3,
        components=(surf("lo", -2, (1, 2), 1, lo_degrees), surf("hi", 2, (-2, -1), 1, hi_degrees)),
        edges=(GradientEdge("lo", "hi", 2),),
        relative_fano=True,
    )


def test_cycle_inequality_links_the_extrema_directly():
    # the edge adds 0 (no interior points) and the link 0 + 0: the cycle closes at 0,
    # and both surfaces have c1 = 2 - 2 + 0 + 0 = 0; the least (c1, id) is hi's
    assert _records(cycle_inequality(_direct_link_data((0, 0), (0, 0)))) == (
        [], [], ["witness: hi with c1 = 0 <= 0"]
    )
    # slots (weight, degree): lo (1, 1), hi (-1, 1), so the link adds 2
    assert _records(cycle_inequality(_direct_link_data((1, 0), (0, 1))))[:2] == (
        [
            ("isotropy-inequality", "link lo ~ hi: c1(L1) + c1(L2) = 2 > 0", None),
            ("cycle-sum", "cyclic sum of isotropy contributions is 2 > 0", None),
        ],
        [],
    )


def test_cycle_inequality_without_the_witness_degrees_is_inconclusive():
    # every connection is an isotropy edge, valued by its interior points (0, 0, -1, -1),
    # so the cycle closes without s2's degrees; only the witness needs them
    data = _four_cycle_data()
    data = data.replace_components(
        surf("s2", 0, (-2, 2), 2) if c.id == "s2" else c for c in data.components
    )
    assert _records(cycle_inequality(data)) == (
        [], [("witness", "normal degrees missing for the witness", None)], []
    )


def test_small_suite_chain_estimate_without_degrees_is_inconclusive():
    # the four-cycle on levels -2, 0, 2 without s2's degrees: its first edge in the
    # canonical order, s1 -> s2, has no degree at s2
    data = _four_cycle_data()
    data = data.replace_components(
        surf("s2", 0, (-2, 2), 2) if c.id == "s2" else replace(c, H=c.H // 2)
        for c in data.components
    )
    assert _records(small_hamiltonian_suite(data)) == (
        [],
        [
            ("betapos", "normal degrees missing on some surface; beta sum unknown", None),
            ("chain", "degrees missing along the edge between s1 and s2", None),
        ],
        [],
    )


def _one_level_graph(count):
    """count points on level 0 between a {1,1} minimum and a {-1,-1} maximum: every
    permutation of the middle is an automorphism, and no edge joins the middle."""
    middle = tuple(point(f"q{i}", 0, (-1, 1)) for i in range(count))
    return LabelledGraph(
        vertices=(point("qmin", -2, (1, 1)),) + middle + (point("qmax", 2, (-1, -1)),),
        edges=(),
    )


def _fibre_surfaces(twice):
    """Genus-1 extrema meeting the fibre once and two middle surfaces meeting it
    `twice` times each."""
    return (
        surf("gmin", -2, (1, 1), 1, fibre_intersection=1),
        surf("m1", 0, (-1, 1), 1, fibre_intersection=twice),
        surf("m2", 0, (-1, 1), 1, fibre_intersection=twice),
        surf("gmax", 2, (-1, -1), 1, fibre_intersection=1),
    )


def test_fibre_correspondence_count_split_and_reflectivity_records():
    # case 2: five positive-genus surfaces against chi = 4; the genus-1 part still
    # matches Q level by level, the genus-2 surface lies outside it
    extra = surf("extra", 1, (-1, 1), 2, fibre_intersection=1)
    result = fibre_correspondence(_genus_graph(*_fibre_surfaces(1), extra), _one_level_graph(2))
    assert result.case == 2 and len(result.mapping) == 4
    assert _records(result.report)[0] == [
        ("count", "5 positive-genus surfaces, but chi of the fibre is 4", None)
    ]
    # case 1 with chi = 6 and 6/2 - 1 = 2 middle surfaces: Q is reflective, but its four
    # middle points are four components, not two
    g = _genus_graph(*_fibre_surfaces(2), ends=True)
    result = fibre_correspondence(g, _one_level_graph(4))
    assert (result.case, result.mapping) == (1, {})
    assert _records(result.report)[0] == [
        ("split", "non-extremal part of Q has 4 components, expected 2", None)
    ]
    # case 1 against a chi = 6 fibre graph with one point per level: no involution
    levels = zip(range(-3, 3), [(1, 1), (-1, 1), (-1, 2), (-2, 1), (-1, 1), (-1, -1)])
    q = LabelledGraph(vertices=tuple(point(f"q{h}", h, ws) for h, ws in levels), edges=())
    result = fibre_correspondence(g, q)
    assert (result.case, result.mapping) == (1, {})
    assert _records(result.report)[0] == [
        ("reflectivity", "fibre graph admits no order-two symmetry", None)
    ]
    # case 1 with chi = 4 and one middle surface, on level 1; Q's middle points sit on 0
    gmin, _m1, _m2, gmax = _fibre_surfaces(2)
    g = _genus_graph(gmin, surf("m", 1, (-1, 1), 1, fibre_intersection=2), gmax, ends=True)
    result = fibre_correspondence(g, _one_level_graph(2))
    assert (result.case, result.mapping) == (1, {})
    assert _records(result.report)[0] == [
        (
            "no-isomorphism",
            "component ['q0'] of Q does not match the non-extremal positive-genus surfaces: "
            "vertex invariants differ: (0, (-1, 1)) vs (1, (-1, 1))",
            None,
        )
    ]
