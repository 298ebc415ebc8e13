"""Duistermaat-Heckman reconstruction against the independent slice oracle."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamfano.dh import (
    PiecewisePolynomial,
    dh_function_toric,
    fibre_area_bound_check,
    positivity_check,
    reduced_volume,
)
from hamfano.fano6 import build_04_data
from hamfano.localization import Polynomial
from hamfano.reports import PreconditionError
from hamfano.toric import (
    LatticePolytope,
    delpezzo_catalog,
    fixed_data_from_polytope,
    primitive_directions,
)

from .oracle import slice_area_3d, slice_length_2d

CP2 = LatticePolytope([(-1, -1), (2, -1), (-1, 2)])
SQUARE = LatticePolytope([(-1, -1), (1, -1), (1, 1), (-1, 1)])
CP3 = LatticePolytope([(-1, -1, -1), (3, -1, -1), (-1, 3, -1), (-1, -1, 3)])
CUBE = LatticePolytope([(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)])


# -- reduced volumes ---------------------------------------------------------------


def test_reduced_volume_04_formulas():
    data = build_04_data((-1, -1, -1), 2, 2, 1)
    assert reduced_volume(data, 0) == 9 - 2 * 2 - 1
    data = build_04_data((-2, -1, -1), 3, 4, 1)
    assert reduced_volume(data, 0) == 8 - 2 * 3 - 1


def test_reduced_volume_cp3_near_top():
    data = fixed_data_from_polytope(CP3, (1, 2, 4))
    assert reduced_volume(data, 8) == Fraction(1, 24)
    # the reduced volume is twice the lattice-normalised slice area
    assert reduced_volume(data, 8) == 2 * slice_area_3d(CP3.vertices, (1, 2, 4), 8)


def test_reduced_volume_rejects_nonisolated_above():
    data = fixed_data_from_polytope(SQUARE, (1, 0))
    with pytest.raises(PreconditionError):
        reduced_volume(data, Fraction(-3, 2))


@given(st.fractions(min_value=Fraction(-6), max_value=Fraction(17, 2)))
@settings(max_examples=60)
def test_reduced_volume_matches_slice_oracle_on_cp3(s):
    data = fixed_data_from_polytope(CP3, (1, 2, 4))
    if s >= data.h_max():
        return
    assert reduced_volume(data, s) == 2 * slice_area_3d(CP3.vertices, (1, 2, 4), s)


def test_reduced_volume_matches_slice_oracle_on_cube():
    data = fixed_data_from_polytope(CUBE, (1, 2, 4))
    for k in range(-13, 14):
        s = Fraction(k, 2) + Fraction(1, 6)
        if s >= data.h_max():
            continue
        assert reduced_volume(data, s) == 2 * slice_area_3d(CUBE.vertices, (1, 2, 4), s)


# -- toric DH function ----------------------------------------------------------------


def test_dh_cp2_shape():
    dh = dh_function_toric(CP2, (1, 2))
    assert dh.breakpoints == (-3, 0, 3)
    assert dh.pieces[0] == Polynomial.of(Fraction(3, 2), Fraction(1, 2))
    assert dh.pieces[1] == Polynomial.of(Fraction(3, 2), Fraction(-1, 2))
    assert dh.pieces[0](0) == dh.pieces[1](0)


def test_dh_square_horizontal():
    dh = dh_function_toric(SQUARE, (1, 0))
    assert dh.breakpoints == (-1, 1)
    assert dh.pieces[0] == Polynomial.of(2)
    assert dh(Fraction(1, 3)) == 2
    # closed slices at the fixed-sphere levels have the full edge length
    assert dh(-1) == 2 and dh(1) == 2


def test_dh_initial_slope_is_inverse_weight_product():
    for entry in delpezzo_catalog():
        for xi in ((1, -1), (2, 1), (3, -2)):
            data = fixed_data_from_polytope(entry.polytope, xi)
            bottom = data.ordered()[0]
            if bottom.kind != "point":
                continue
            a, b = bottom.weights
            dh = dh_function_toric(entry.polytope, xi)
            assert dh.pieces[0].coefficient(1) == Fraction(1, a * b)


def test_dh_concave_nonnegative_vanishing_at_ends():
    for entry in delpezzo_catalog():
        for xi in ((1, 0), (1, -1), (2, 1), (5, 2)):
            dh = dh_function_toric(entry.polytope, xi)
            slopes = [p.coefficient(1) for p in dh.pieces]
            assert slopes == sorted(slopes, reverse=True)
            for i, piece in enumerate(dh.pieces):
                assert piece(dh.breakpoints[i]) >= 0
                assert piece(dh.breakpoints[i + 1]) >= 0
            assert dh.pieces[0](dh.breakpoints[0]) == 0 or not delzant_generic(
                entry.polytope, xi
            )


def delzant_generic(p, xi):
    return all(
        sum(a * b for a, b in zip(xi, e.direction)) != 0 for e in p.edges
    )


def test_dh_matches_oracle_random_levels():
    rng = random.Random(20260810)
    for entry in delpezzo_catalog():
        p = entry.polytope
        for xi in ((1, 0), (0, 1), (1, 1), (1, -2), (3, 1)):
            dh = dh_function_toric(p, xi)
            lo, hi = dh.domain
            for _ in range(25):
                t = lo + (hi - lo) * Fraction(rng.randint(0, 840), 840)
                assert dh(t) == slice_length_2d(p.vertices, xi, t), (entry.name, xi, t)


@given(
    st.sampled_from(["CP2", "CP1xCP1", "Bl1CP2", "Bl2CP2", "Bl3CP2"]),
    st.integers(-2, 2),
    st.integers(-2, 2),
    st.sampled_from([(1, 0), (1, 1), (2, 1), (1, -1)]),
    st.fractions(min_value=0, max_value=1),
)
@settings(max_examples=80)
def test_dh_oracle_on_sheared_polygons(name, a, b, xi, s):
    # lattice changes of basis move the polygon but not the slice function
    from hamfano.toric import catalog_entry

    p = catalog_entry(name).polytope
    moved = LatticePolytope(
        [(x + a * y, b * x + (1 + a * b) * y) for x, y in p.vertices]
    )
    dh = dh_function_toric(moved, xi)
    lo, hi = dh.domain
    t = lo + (hi - lo) * s
    assert dh(t) == slice_length_2d(moved.vertices, xi, t)


def _component_term(c):
    """(constant, slope) of the line a fixed component of a polygon adds to DH
    from its level upwards, from its own fields alone."""
    if c.kind == "point":
        a, b = c.weights
        return Fraction(-c.H, a * b), Fraction(1, a * b)
    (w,), (n,), area = c.weights, c.normal_degrees, c.area
    return Fraction(area, w) + Fraction(n * c.H, w * w), Fraction(-n, w * w)


def test_dh_gls_jump_consistency():
    # across each critical level the pieces change by the summed terms of the
    # components there: from 0 below the minimum to 0 above the maximum
    spheres = 0
    for entry in delpezzo_catalog():
        p = entry.polytope
        for xi in primitive_directions(2, 3):
            data = fixed_data_from_polytope(p, xi)
            dh = dh_function_toric(p, xi)
            assert set(dh.breakpoints) == {c.H for c in data.components}
            zero = Polynomial()
            pieces = (zero,) + dh.pieces + (zero,)
            for i, level in enumerate(dh.breakpoints):
                change = tuple(
                    pieces[i + 1].coefficient(d) - pieces[i].coefficient(d) for d in (0, 1)
                )
                terms = [_component_term(c) for c in data.components if c.H == level]
                assert change == tuple(map(sum, zip(*terms))), (entry.name, xi, level)
            spheres += len(data.surfaces())
    assert spheres > 0


# -- bounds and positivity ---------------------------------------------------------------


def test_fibre_area_bound_cp2():
    report = fibre_area_bound_check(CP2, (1, 2))
    assert report.ok
    dh = dh_function_toric(CP2, (1, 2))
    # equality on (-3, 0], strict after
    assert dh(Fraction(-1)) == Fraction(-1 - (-3), 1 * 2)
    assert dh(Fraction(1)) < Fraction(1 - (-3), 1 * 2)


def test_fibre_area_bound_square():
    assert fibre_area_bound_check(SQUARE, (1, 2)).ok


def test_fibre_area_bound_catalog_never_fails():
    for entry in delpezzo_catalog():
        for xi in ((1, -1), (2, 1), (5, 3)):
            assert fibre_area_bound_check(entry.polytope, xi).ok, (entry.name, xi)


def test_positivity_examples():
    bad = build_04_data((-1, -1, -1), 4, 4, 1)
    report = positivity_check(bad, [0])
    assert not report.ok

    assert positivity_check(build_04_data((-1, -1, -1), 0, 0, 0), [0]).ok
    assert positivity_check(build_04_data((-2, -1, -1), 3, 4, 1), [0]).ok


def test_positivity_is_inconclusive_below_a_fixed_sphere():
    # (0, 1) fixes the square's bottom and top edges: the one default level, 0,
    # lies below the top sphere, where the isolated formula does not apply
    report = positivity_check(fixed_data_from_polytope(SQUARE, (0, 1)))
    assert report.ok and not report.notes
    assert [(i.code, i.message) for i in report.inconclusive] == [
        (
            "positivity",
            "level 0: s-1_1__1_1: component above level 0 is a surface; "
            "the isolated localisation formula does not apply",
        )
    ]


def test_positivity_default_levels():
    data = fixed_data_from_polytope(CP3, (1, 2, 4))
    assert positivity_check(data).ok


def test_piecewise_polynomial_guards():
    with pytest.raises(PreconditionError):
        PiecewisePolynomial((1, 0), (Polynomial.of(1),))
    pp = PiecewisePolynomial((0, 1), (Polynomial.of(1),))
    with pytest.raises(PreconditionError):
        pp(2)
