"""Exact localisation identities: alpha/beta sums, weight sums, chi_y."""

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hamfano.fano6 import isotropy_edge_sum
from hamfano.fixed_data import FixedComponent, FixedPointData, GradientEdge, validate
from hamfano.localization import (
    Polynomial,
    WeightSumInconsistency,
    abbv_sum_4d,
    abbv_sum_6d,
    alpha,
    beta,
    check_converse_fano,
    chi_y,
    gradient_sphere_area,
    todd_and_c1c2,
    weight_sum_normalize,
)
from hamfano.reports import InconsistencyError, PreconditionError
from hamfano.toric import (
    LatticePolytope,
    _lemma_checks,
    delpezzo_catalog,
    fixed_data_from_polytope,
)

from . import oracle
from .lifts import lift_product

CP2 = LatticePolytope([(-1, -1), (2, -1), (-1, 2)])
CP3 = LatticePolytope([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
CUBE = LatticePolytope(
    [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
)


def point(cid, h, ws):
    return FixedComponent(id=cid, kind="point", H=Fraction(h), weights=tuple(ws))


def surf(cid, h, ws, genus, nd):
    return FixedComponent(
        id=cid,
        kind="surface",
        H=Fraction(h),
        weights=tuple(ws),
        genus=genus,
        normal_degrees=tuple(nd),
    )


# -- alpha / beta ----------------------------------------------------------------


def test_alpha_examples():
    assert alpha(point("p", 0, (1, 1, -1))) == -1
    assert alpha(point("p", 0, (-1, -1, 2))) == 0
    assert alpha(point("p", 0, (1, 2, 4))) == Fraction(7, 8)


def test_alpha_arity():
    with pytest.raises(PreconditionError):
        alpha(point("p", 0, (1, 1)))


def test_beta_examples():
    assert beta(surf("s", 0, (1, -1), 1, (0, 0))) == 0
    assert beta(surf("s", 0, (-1, 2), 2, (1, 0))) == 0


@given(st.integers(-5, 5), st.integers(-5, 5))
def test_beta_genus_zero(n1, n2):
    assert beta(surf("s", 0, (1, -1), 0, (n1, n2))) == -2 - n1 - n2


# -- localisation sums -----------------------------------------------------------


def test_abbv_6d_cp3_alpha_values():
    data = fixed_data_from_polytope(CP3, (1, 2, 4))
    values = [alpha(c) for c in data.ordered()]
    assert values == [Fraction(7, 8), -1, Fraction(-1, 4), Fraction(3, 8)]
    assert abbv_sum_6d(data) == 0


def test_abbv_6d_cube():
    data = fixed_data_from_polytope(CUBE, (1, 2, 4))
    assert len(data.components) == 8
    assert abbv_sum_6d(data) == 0


def test_abbv_6d_single_point_nonzero():
    data = FixedPointData(half_dim=3, components=(point("p", 0, (1, 1, 1)),))
    assert abbv_sum_6d(data) == 3


CP2xCP1 = LatticePolytope(
    [(-1, -1, -1), (2, -1, -1), (-1, 2, -1), (-1, -1, 1), (2, -1, 1), (-1, 2, 1)]
)


def test_cp2xcp1_threefold_pipeline():
    # the product of the anticanonical triangle with a segment is another
    # reflexive Delzant 3-polytope; all exact identities must close on it
    from hamfano.fixed_data import validate
    from hamfano.toric import delzant_check

    assert delzant_check(CP2xCP1) and CP2xCP1.reflexive
    data = fixed_data_from_polytope(CP2xCP1, (1, 2, 5))
    assert validate(data).ok
    assert abbv_sum_6d(data) == 0
    constant, _ = weight_sum_normalize(data)
    assert constant == 0
    # chi_y is multiplicative: (1 - y + y^2)(1 - y) = 1 - 2y + 2y^2 - y^3
    assert chi_y(data) == Polynomial((1, -2, 2, -1))
    assert todd_and_c1c2(data, chi_y(data)) == (1, 24)


_WEIGHTS = st.integers(-3, 3).filter(bool)


@st.composite
def _datasets(draw, half_dim):
    """Points and surfaces on Fraction levels, with negative and repeated
    weights and surfaces of any genus; the sums are almost never zero."""
    comps = []
    for i in range(draw(st.integers(1, 6))):
        h = Fraction(draw(st.integers(-12, 12)), draw(st.integers(1, 4)))
        if draw(st.booleans()):
            ws = draw(st.lists(_WEIGHTS, min_size=half_dim, max_size=half_dim))
            comps.append(point(f"p{i}", h, ws))
        else:
            k = half_dim - 1
            ws = draw(st.lists(_WEIGHTS, min_size=k, max_size=k))
            nd = draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k))
            comps.append(surf(f"s{i}", h, ws, draw(st.integers(0, 3)), nd))
    return FixedPointData(half_dim=half_dim, components=tuple(comps))


@given(st.sampled_from((2, 3)).flatmap(_datasets))
def test_localisation_sums_match_the_term_by_term_oracle(data):
    if data.half_dim == 2:
        total, expected = abbv_sum_4d(data), oracle.abbv_sum_4d_by_terms(data.components)
    else:
        total, expected = abbv_sum_6d(data), oracle.abbv_sum_6d_by_terms(data.components)
        for c in data.components:
            if c.kind == "point":
                value, want = alpha(c), oracle.alpha_by_terms(c.weights)
            else:
                value = beta(c)
                want = oracle.beta_by_terms(c.weights, c.genus, c.normal_degrees)
            assert type(value) is Fraction and value == want
    assert _is_canonical(total, expected)


def _is_canonical(value, exact: Fraction) -> bool:
    """value equals exact in the canonical form: an int exactly when it is
    integral, else a Fraction with denominator > 1."""
    return value == exact and type(value) is (int if exact.denominator == 1 else Fraction)


_INTERIOR_WEIGHTS = st.integers(-4, 4).filter(bool)


@given(st.lists(st.tuples(_INTERIOR_WEIGHTS, _INTERIOR_WEIGHTS), max_size=6))
@example([])
@example([(1, -1), (1, -1)])
@example([(2, 2), (2, -2)])
@example([(1, 2), (1, 3)])
def test_isotropy_edge_sum_is_the_canonical_sum_of_its_terms(interior):
    # sum 1/(ab) over the interior points, one Fraction per term, with no package code
    expected = sum((Fraction(1, a * b) for a, b in interior), Fraction(0))
    e = GradientEdge(bottom="lo", top="hi", weight=2, interior_points=tuple(interior))
    assert _is_canonical(isotropy_edge_sum(e), expected)


@given(_datasets(2))
def test_validate_accepts_a_fixed_surface_of_a_4_manifold_only_at_weight_one(data):
    # abbv_sum_4d's surface term -n is the local term -n/w^2 only when |w| = 1;
    # Z_|w| would fix a neighbourhood of any other surface, and validate says so
    flagged = {v.subject for v in validate(data).violations if v.code == "effectiveness"}
    for c in data.surfaces():
        assert (c.id in flagged) == (abs(c.weights[0]) != 1)


def test_localisation_oracle_cases_are_nonzero():
    # repeated and negative weights, a genus-2 surface and Fraction levels:
    # the integer sums agree with the oracle and with a sum by hand:
    # -3/4 + (1/3 - 4/9 + 1/4) = -11/18 and 1/4 - 2 = -7/4
    data6 = FixedPointData(
        half_dim=3,
        components=(
            point("p", Fraction(-1, 2), (2, 2, -1)),
            surf("s", Fraction(5, 3), (-3, 2), 2, (4, -1)),
        ),
    )
    expected6 = oracle.abbv_sum_6d_by_terms(data6.components)
    assert expected6 != 0 and abbv_sum_6d(data6) == expected6 == Fraction(-11, 18)
    data4 = FixedPointData(
        half_dim=2,
        components=(point("p", Fraction(1, 3), (-2, -2)), surf("s", 2, (3,), 1, (2,))),
    )
    expected4 = oracle.abbv_sum_4d_by_terms(data4.components)
    assert expected4 != 0 and abbv_sum_4d(data4) == expected4 == Fraction(-7, 4)


def test_abbv_4d_cp2_terms():
    data = fixed_data_from_polytope(CP2, (1, 2))
    terms = []
    for c in data.ordered():
        a, b = c.weights
        terms.append(Fraction(1, a * b))
    assert terms == [Fraction(1, 2), -1, Fraction(1, 2)]
    assert abbv_sum_4d(data) == 0


def test_abbv_4d_two_surfaces_telescope():
    for n in range(-3, 4):
        data = FixedPointData(
            half_dim=2,
            components=(
                surf("lo", -1, (1,), 0, (n,)),
                surf("hi", 1, (-1,), 0, (-n,)),
            ),
        )
        assert abbv_sum_4d(data) == 0


def test_abbv_4d_single_point():
    data = FixedPointData(half_dim=2, components=(point("p", 0, (1, 1)),))
    assert abbv_sum_4d(data) == 1


# -- weight sum normalisation -----------------------------------------------------


def test_weight_sum_normalize_shifts():
    data = FixedPointData(
        half_dim=2,
        components=(point("lo", 3, (1, 1)), point("hi", 7, (-1, -1))),
        relative_fano=True,
    )
    constant, shifted = weight_sum_normalize(data)
    assert constant == -5
    assert [c.H for c in shifted.ordered()] == [-2, 2]


def test_weight_sum_normalize_residuals():
    data = FixedPointData(
        half_dim=2,
        components=(point("lo", -2, (1, 1)), point("hi", 1, (-1, -1))),
        relative_fano=True,
    )
    with pytest.raises(WeightSumInconsistency) as exc:
        weight_sum_normalize(data)
    assert exc.value.residuals["hi"] == 1
    assert exc.value.residuals["lo"] == 0


def test_weight_sum_normalize_zero_on_reflexive():
    for p, xi in ((CP2, (1, 2)), (CP3, (1, 2, 4))):
        data = fixed_data_from_polytope(p, xi)
        constant, shifted = weight_sum_normalize(data)
        assert constant == 0
        assert shifted == data


def test_cp3_min_vertex_weight_sum():
    data = fixed_data_from_polytope(CP3, (1, 2, 4))
    lowest = data.ordered()[0]
    assert lowest.weights == (1, 2, 4)
    assert lowest.H == -7 == -sum(lowest.weights)


# -- converse hypothesis check -----------------------------------------------------


def test_converse_passes_on_normalized_cp2():
    data = fixed_data_from_polytope(CP2, (1, 2))
    assert check_converse_fano(data).ok


def test_converse_ignores_high_index():
    # a surface with two negative weights has d_F = 2 and is unconstrained
    data = FixedPointData(
        half_dim=3,
        components=(
            point("lo", -3, (1, 1, 1)),
            surf("bad", 1, (-1, -2), 1, (0, 0)),  # weight sum formula wants 3
            point("hi", 4, (-1, -1, -2)),
        ),
    )
    assert check_converse_fano(data).ok


def test_converse_flags_index_zero():
    data = FixedPointData(half_dim=3, components=(point("p", -6, (1, 2, 4)),))
    report = check_converse_fano(data)
    assert [v.subject for v in report.violations] == ["p"]


# -- sphere areas -------------------------------------------------------------------


def test_gradient_sphere_area_direct():
    data = FixedPointData(
        half_dim=2,
        components=(point("a", -2, (1, 2)), point("b", 2, (-1, -2))),
        edges=(GradientEdge(bottom="a", top="b", weight=2),),
    )
    assert gradient_sphere_area(data.edges[0], data) == 2


def test_cp2_boundary_divisor_area_three():
    data = fixed_data_from_polytope(CP2, (1, 2))
    areas = sorted(gradient_sphere_area(e, data) for e in data.edges)
    assert areas == [3, 3, 3]


def test_toric_edge_area_equals_lattice_length():
    for entry in delpezzo_catalog():
        p = entry.polytope
        data = fixed_data_from_polytope(p, (1, -1))
        by_pair = {}
        for e in p.edges:
            a = "v" + "_".join(map(str, p.vertices[e.i]))
            b = "v" + "_".join(map(str, p.vertices[e.j]))
            by_pair[frozenset((a, b))] = e.length
        for ge in data.edges:
            assert gradient_sphere_area(ge, data) == by_pair[frozenset((ge.bottom, ge.top))]


def _two_point_edge(rise, weight):
    data = FixedPointData(
        half_dim=2,
        components=(point("a", 0, (1, weight)), point("b", rise, (-1, -weight))),
        edges=(GradientEdge(bottom="a", top="b", weight=weight),),
    )
    return _lemma_checks(data)


@pytest.mark.parametrize("weight", [1, 2, 3])
def test_4small_boundary_is_area_three(weight):
    assert not [v for v in _two_point_edge(3 * weight, weight).violations if v.code == "4small"]
    flagged = [v.message for v in _two_point_edge(3 * weight + 1, weight).violations
               if v.code == "4small"]
    area = Fraction(3 * weight + 1, weight)
    rendered = area.numerator if area.denominator == 1 else f"{area.numerator}/{area.denominator}"
    assert flagged == [f"boundary divisor a->b has area {rendered} > 3"]


@pytest.mark.parametrize("rise", [0, -2])
def test_lemma_suite_raises_on_a_non_positive_rise(rise):
    with pytest.raises(InconsistencyError, match="a->b: area .* is not positive"):
        _two_point_edge(rise, 2)


# -- chi_y pipeline ------------------------------------------------------------------


def test_chi_y_cp3():
    data = fixed_data_from_polytope(CP3, (1, 2, 4))
    assert chi_y(data) == Polynomial((1, -1, 1, -1))


def test_chi_y_cp2():
    data = fixed_data_from_polytope(CP2, (1, 2))
    assert chi_y(data) == Polynomial((1, -1, 1))


def test_chi_y_genus_constant_term():
    for g in range(4):
        data = FixedPointData(
            half_dim=3,
            components=(
                surf("lo", -2, (1, 1), g, (0, 0)),
                surf("hi", 2, (-1, -1), g, (0, 0)),
            ),
        )
        assert chi_y(data).coefficient(0) == 1 - g
        todd, c1c2 = todd_and_c1c2(data, chi_y(data))
        assert (todd, c1c2) == (1 - g, 24 * (1 - g))


def test_chi_y_vertex_count_property():
    # chi_y of a toric surface is 1 - (V-2) y + y^2, also through fixed spheres
    for entry in delpezzo_catalog():
        v = len(entry.polytope.vertices)
        from hamfano.toric import scan_directions

        for item in scan_directions(entry.polytope, 2):
            data = fixed_data_from_polytope(entry.polytope, item.xi)
            assert chi_y(data) == Polynomial((1, -(v - 2), 1)), (entry.name, item.xi)


def test_positive_index_components_never_change_todd():
    base = fixed_data_from_polytope(CP3, (1, 2, 4))
    todd0, _ = todd_and_c1c2(base, chi_y(base))
    extra = replace(
        base,
        components=base.components + (point("x", 0, (-1, 1, 1)), point("y", 1, (-2, -1, 1))),
    )
    assert todd_and_c1c2(extra, chi_y(extra))[0] == todd0


def test_chi_y_needs_b2_on_fourfolds():
    data = FixedPointData(
        half_dim=3,
        components=(
            FixedComponent(id="f", kind="fourfold", H=Fraction(-1), weights=(1,)),
            point("hi", 3, (-1, -1, -1)),
        ),
    )
    with pytest.raises(PreconditionError):
        chi_y(data)


def test_chi_y_delpezzo_minimum():
    data = FixedPointData(
        half_dim=3,
        components=(
            FixedComponent(id="f", kind="fourfold", H=Fraction(-1), weights=(1,), b2=5),
            point("hi", 3, (-1, -1, -1)),
        ),
    )
    # (1 - 5y + y^2) + (-y)^3
    assert chi_y(data) == Polynomial((1, -5, 1, -1))
    assert todd_and_c1c2(data, chi_y(data)) == (1, 24)


@st.composite
def _chi_y_datasets(draw):
    """Products X x Sigma_g of a catalog polygon (every component a genus-g
    surface, so chi_y = 0 when g = 1), or points and surfaces of genus 0-3
    with weights of both signs, so every index occurs, and in dimension 6
    possibly a fourfold extremum with b2."""
    half_dim = draw(st.sampled_from((2, 3)))
    if half_dim == 3 and draw(st.integers(0, 3)) == 0:
        entry = draw(st.sampled_from(delpezzo_catalog()))
        return lift_product(entry.polytope, (1, 3), genus=draw(st.integers(0, 3)))
    comps = []
    if half_dim == 3 and draw(st.booleans()):
        w = draw(st.sampled_from((1, -1)))
        b2 = draw(st.integers(0, 9))
        comps.append(FixedComponent(id="f", kind="fourfold", H=-9 * w, weights=(w,), b2=b2))
    for i in range(draw(st.integers(1, 6))):
        h = Fraction(draw(st.integers(-8, 8)), draw(st.integers(1, 3)))
        if draw(st.booleans()):
            ws = draw(st.lists(_WEIGHTS, min_size=half_dim, max_size=half_dim))
            comps.append(point(f"p{i}", h, ws))
        else:
            ws = draw(st.lists(_WEIGHTS, min_size=half_dim - 1, max_size=half_dim - 1))
            genus = draw(st.integers(0, 3))
            comps.append(
                FixedComponent(id=f"s{i}", kind="surface", H=h, weights=tuple(ws), genus=genus)
            )
    return FixedPointData(half_dim=half_dim, components=tuple(comps))


@given(_chi_y_datasets())
def test_chi_y_matches_the_term_by_term_oracle(data):
    poly = chi_y(data)
    expected = oracle.chi_y_by_terms(data.components)
    assert poly.coefficients == tuple(expected)
    assert all(type(c) is Fraction for c in poly.coefficients)
    assert not poly.coefficients or poly.coefficients[-1] != 0
    if data.half_dim == 3:
        todd = expected[0] if expected else Fraction(0)
        assert todd_and_c1c2(data, poly) == (todd, 24 * todd)
        assert all(type(x) is Fraction for x in todd_and_c1c2(data, poly))
    else:
        with pytest.raises(PreconditionError):
            todd_and_c1c2(data, poly)


def test_chi_y_oracle_cases_by_hand():
    # CP2 x Sigma_1: every block is (1 - g)(1 - y) = 0, the zero polynomial
    product = lift_product(CP2, (1, 3), genus=1)
    assert oracle.chi_y_by_terms(product.components) == []
    assert chi_y(product) == Polynomial() and chi_y(product).coefficients == ()
    assert todd_and_c1c2(product, chi_y(product)) == (0, 0)
    # a fourfold maximum (index 1, b2 = 4), a genus-2 surface of index 1 and
    # a point of index 2: -y(1 - 4y + y^2) - y(-1 + y) + y^2 = 4y^2 - y^3
    data = FixedPointData(
        half_dim=3,
        components=(
            FixedComponent(id="f", kind="fourfold", H=9, weights=(-1,), b2=4),
            FixedComponent(id="s", kind="surface", H=0, weights=(2, -1), genus=2),
            point("p", 1, (-1, -2, 3)),
        ),
    )
    assert oracle.chi_y_by_terms(data.components) == [0, 0, 4, -1]
    assert chi_y(data) == Polynomial((0, 0, 4, -1))
    assert todd_and_c1c2(data, chi_y(data)) == (0, 0)
