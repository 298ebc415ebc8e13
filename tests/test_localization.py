"""Exact localisation identities: alpha/beta sums, weight sums, chi_y."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hamfano.fixed_data import FixedComponent, FixedPointData, GradientEdge
from hamfano.localization import (
    Polynomial,
    WeightSumInconsistency,
    abbv_sum_4d,
    abbv_sum_6d,
    alpha,
    beta,
    c1_equivariant_sphere,
    check_converse_fano,
    chi_y,
    euler_pairing_at_min,
    gradient_sphere_area,
    todd_and_c1c2,
    weight_sum_normalize,
)
from hamfano.reports import InconsistencyError, PreconditionError
from hamfano.toric import LatticePolytope, delpezzo_catalog, fixed_data_from_polytope

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


# -- equivariant degree on a sphere --------------------------------------------


def test_c1_sphere_tangent_bundle():
    # weights of TS^2 at the poles under the standard rotation; the degree
    # equals the Euler characteristic 2
    assert c1_equivariant_sphere(1, [-1], [1]) == 2


def test_c1_sphere_trivial():
    assert c1_equivariant_sphere(1, [0], [0]) == 0


def test_c1_sphere_integrality_enforced():
    with pytest.raises(InconsistencyError):
        c1_equivariant_sphere(2, [0], [1])


@given(
    st.integers(1, 5),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
    st.lists(st.integers(-6, 6), min_size=1, max_size=4),
)
def test_c1_sphere_orientation_reversal(k, a, b):
    b = (b * 4)[: len(a)]
    try:
        lhs = c1_equivariant_sphere(k, a, b)
    except InconsistencyError:
        return
    rhs = c1_equivariant_sphere(k, [-x for x in b], [-x for x in a])
    assert lhs == rhs


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

    assert delzant_check(CP2xCP1) and CP2xCP1.is_reflexive()
    data = fixed_data_from_polytope(CP2xCP1, (1, 2, 5))
    assert validate(data).ok
    assert abbv_sum_6d(data) == 0
    constant, _ = weight_sum_normalize(data)
    assert constant == 0
    # chi_y is multiplicative: (1 - y + y^2)(1 - y)
    assert chi_y(data) == Polynomial.of(1, -1, 1) * Polynomial.of(1, -1)
    assert todd_and_c1c2(data) == (1, 24)


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


# -- chi_y pipeline ------------------------------------------------------------------


def test_chi_y_cp3():
    data = fixed_data_from_polytope(CP3, (1, 2, 4))
    assert chi_y(data) == Polynomial.of(1, -1, 1, -1)


def test_chi_y_cp2():
    data = fixed_data_from_polytope(CP2, (1, 2))
    assert chi_y(data) == Polynomial.of(1, -1, 1)


def test_chi_y_genus_constant_term():
    for g in range(4):
        data = FixedPointData(
            half_dim=3,
            components=(
                surf("lo", -2, (1, 1), g, (0, 0)),
                surf("hi", 2, (-1, -1), g, (0, 0)),
            ),
        )
        assert chi_y(data).constant_term() == 1 - g
        todd, c1c2 = todd_and_c1c2(data)
        assert (todd, c1c2) == (1 - g, 24 * (1 - g))


def test_chi_y_vertex_count_property():
    # chi_y of a toric surface is 1 - (V-2) y + y^2, also through fixed spheres
    for entry in delpezzo_catalog():
        v = len(entry.polytope.vertices)
        from hamfano.toric import scan_directions

        for item in scan_directions(entry.polytope, 2):
            assert chi_y(item.data) == Polynomial.of(1, -(v - 2), 1), (
                entry.name,
                item.xi,
            )


def test_positive_index_components_never_change_todd():
    base = fixed_data_from_polytope(CP3, (1, 2, 4))
    todd0, _ = todd_and_c1c2(base)
    extra = base.replace_components(
        base.components + (point("x", 0, (-1, 1, 1)), point("y", 1, (-2, -1, 1)))
    )
    assert todd_and_c1c2(extra)[0] == todd0


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
    assert chi_y(data) == Polynomial.of(1, -5, 1, -1)
    assert todd_and_c1c2(data) == (1, 24)


# -- Euler pairing ---------------------------------------------------------------------


def test_euler_pairing_examples():
    assert euler_pairing_at_min(1, 1) == -1
    assert euler_pairing_at_min(1, 2) == Fraction(-1, 2)
    assert euler_pairing_at_min(3, 5) == Fraction(-1, 15)
