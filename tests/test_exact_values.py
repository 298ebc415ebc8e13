"""Exact values in canonical form, and chi_y against an independent oracle.

Every Hamiltonian level and area the package builds or parses is an
``int``, or a ``Fraction`` with denominator > 1; no float appears in any
value derived from them.  The data are the toric scans of the five catalog
polygons (bound 4) and of CP3 and the cube (bound 2), ``tests/lifts.py``
products, the ``build_04_data`` rows, and the weight-sum normalisation of
each.  The chi_y oracle is the h-polynomial of the polytope, computed from
its vertex count alone.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from hamfano.cli import load_fixed_point_data
from hamfano.dh import (
    PiecewisePolynomial,
    dh_function_toric,
    positivity_check,
    reduced_volume,
)
from hamfano.fano6 import build_04_data, cycle_inequality, enumerate_04, isotropy_edge_sum
from hamfano.fixed_data import SURFACE, FixedComponent, as_rational
from hamfano.localization import (
    Polynomial,
    WeightSumInconsistency,
    chi_y,
    todd_and_c1c2,
    weight_sum_constant,
    weight_sum_normalize,
)
from hamfano.reports import PreconditionError, StructuralError
from hamfano.toric import LatticePolytope, catalog_entry, scan_directions

from .lifts import lift_product
from .test_golden import GOLDEN, POLYTOPES, PRODUCTS

# vertex counts of the polygons: a toric del Pezzo of degree d has 12 - d
VERTEX_COUNT = {"CP2": 3, "CP1xCP1": 4, "Bl1CP2": 4, "Bl2CP2": 5, "Bl3CP2": 6}


def _scans():
    """(name, polytope, vertex count, xi, data) of every supported direction."""
    targets = [(name, catalog_entry(name).polytope, v, 4) for name, v in VERTEX_COUNT.items()]
    targets += [
        (name, LatticePolytope(POLYTOPES[name]), len(POLYTOPES[name]), 2)
        for name in ("cp3", "cube")
    ]
    return [
        (name, p, v, item.xi, item.data)
        for name, p, v, bound in targets
        for item in scan_directions(p, bound)
        if item.data is not None
    ]


SCANS = _scans()


PRODUCT_DATA = {
    **{
        f"lift {name} {xi} g{genus}": lift_product(catalog_entry(name).polytope, xi, genus)
        for name in VERTEX_COUNT
        for xi in ((1, 2), (1, 3))
        for genus in (1, 2)
    },
    # the stored golden products, among them perturbed ones and fixed spheres
    **{doc: load_fixed_point_data(str(GOLDEN / f"{doc}.json")) for doc in PRODUCTS},
}
ROW_DATA = {
    f"row {r['max_type']} {r['n_A']} {r['n_B']} {r['n_C']}": build_04_data(
        r["max_type"], r["n_A"], r["n_B"], r["n_C"]
    )
    for r in enumerate_04()
}
DATASETS = {
    **{f"scan {name} {xi}": data for name, _p, _v, xi, data in SCANS},
    **PRODUCT_DATA,
    **ROW_DATA,
}


def _canonical(x) -> bool:
    return type(x) is int or (type(x) is Fraction and x.denominator > 1)


def _exact(x) -> bool:
    return type(x) in (int, Fraction)


def _assert_canonical(data, label):
    for c in data.components:
        assert _canonical(c.H), (label, c.id, c.H)
        assert c.area is None or _canonical(c.area), (label, c.id, c.area)


def _midpoints(data):
    crits = sorted({c.H for c in data.components})
    return [Fraction(a + b, 2) for a, b in zip(crits, crits[1:])]


def test_the_data_covers_every_kind():
    assert len(SCANS) == 160
    assert len(PRODUCT_DATA) == 25 and len(ROW_DATA) == len(enumerate_04())


def test_levels_and_areas_are_canonical():
    normalized = 0
    for label, data in DATASETS.items():
        _assert_canonical(data, label)
        if not data.relative_fano:
            continue
        try:
            constant, shifted = weight_sum_normalize(data)
        except WeightSumInconsistency as exc:
            assert _exact(exc.constant), label
            assert all(_exact(r) for r in exc.residuals.values()), label
            continue
        assert _exact(constant) and weight_sum_constant(data) == constant, label
        _assert_canonical(shifted, f"normalize {label}")
        normalized += 1
    assert normalized >= 100


def test_no_float_in_derived_values():
    for label, data in DATASETS.items():
        crits = sorted({c.H for c in data.components})
        for s in crits + _midpoints(data):
            try:
                assert _exact(reduced_volume(data, s)), (label, s)
            except PreconditionError:
                pass  # a surface or fourfold above s
        positivity_check(data)  # the default levels refuse a float


def test_no_float_in_dh_functions():
    for name, p, _v, xi, _data in SCANS:
        if p.dim == 2:
            dh = dh_function_toric(p, xi)
            assert all(_exact(b) for b in dh.breakpoints), (name, xi)
            assert all(_exact(c) for piece in dh.pieces for c in piece.coefficients), (name, xi)


def test_no_float_in_interior_point_levels():
    probes = 0
    for label, data in PRODUCT_DATA.items():
        # an interior fixed point on every isotropy 4-manifold between surfaces
        edges = tuple(
            replace(e, interior_points=((1, -1),))
            if data.component(e.bottom).kind == SURFACE and data.component(e.top).kind == SURFACE
            else e
            for e in data.edges
        )
        probed = replace(data, edges=edges)
        for e in probed.edges:
            if e.interior_points:
                assert _exact(isotropy_edge_sum(e)), (label, e.key)
                probes += 1
        try:
            cycle_inequality(probed)
        except PreconditionError:
            pass  # a genus-0 extremum
    assert probes >= 20


def test_as_rational_is_canonical():
    assert as_rational("3/1") == 3 and type(as_rational("3/1")) is int
    assert as_rational(Fraction(4, 2)) == 2 and type(as_rational(Fraction(4, 2))) is int
    assert as_rational("-3") == -3 and type(as_rational("-3")) is int
    assert as_rational(7) == 7 and type(as_rational(7)) is int
    assert as_rational("1/2") == Fraction(1, 2) and type(as_rational("1/2")) is Fraction
    assert type(as_rational(Fraction(-5, 3))) is Fraction
    for bad in ("2/4", "1/0", 0.5, 1.0, True, " 3 ", "3.5", "1e400", None):
        with pytest.raises(StructuralError):
            as_rational(bad)


def test_library_levels_refuse_floats():
    data = next(iter(ROW_DATA.values()))
    for call in (
        lambda: reduced_volume(data, 0.5),
        lambda: positivity_check(data, [0.5]),
        lambda: FixedComponent(id="p", kind="point", H=0.5, weights=(1, 1)),
    ):
        with pytest.raises(StructuralError):
            call()


def test_polynomials_refuse_inexact_values():
    half = Fraction(1, 2)
    assert Polynomial.of(1, half, 0).coefficients == (1, half)
    assert all(type(c) is Fraction for c in Polynomial((3, half)).coefficients)
    pw = PiecewisePolynomial((0, half, 1), (Polynomial.of(0, 1), Polynomial.of(1, -1)))
    assert pw(half) == half
    assert Polynomial.of(1, 1)(half) == Fraction(3, 2)
    for bad in (0.1, 0.5, 1.0, True, "1/2", None):
        for call in (
            lambda: Polynomial.of(1, bad),
            lambda: Polynomial((bad,)),
            lambda: PiecewisePolynomial((0, bad), (Polynomial.of(1),)),
            lambda: pw(bad),
            lambda: Polynomial.of(1, 1)(bad),
        ):
            with pytest.raises(StructuralError):
                call()


# -- chi_y against the h-polynomial ------------------------------------------------


def _h_polynomial(dim: int, vertices: int):
    """h-polynomial of a Delzant polygon or simple 3-polytope from its vertex
    count: 1 - (V-2)y + y^2, or 1 - (F-3)y + (F-3)y^2 - y^3 with F = V/2 + 2."""
    if dim == 2:
        return (1, -(vertices - 2), 1)
    f = vertices // 2 + 2
    return (1, -(f - 3), f - 3, -1)


def test_chi_y_matches_the_h_polynomial():
    for name, p, vertices, xi, data in SCANS:
        poly = chi_y(data)
        assert poly.coefficients == _h_polynomial(p.dim, vertices), (name, xi)
        assert poly.constant_term() == 1, (name, xi)
        if p.dim == 3:
            assert todd_and_c1c2(data) == (1, 24), (name, xi)
