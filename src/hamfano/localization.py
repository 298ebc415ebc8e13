"""Exact evaluation of the localisation identities attached to a dataset.

Everything here is an exact rational identity: the alpha/beta sum in
dimension six, its four-dimensional analogue, the weight-sum
normalisation of the Hamiltonian and its converse, gradient-sphere areas,
and the Hirzebruch chi_y pipeline ending in the Todd genus and c1*c2.  A
nonzero value of a sum that must vanish certifies that no genuine action
has the given fixed-point data.
"""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction
from typing import Dict, Iterable, Tuple, Union

from .fixed_data import (
    POINT,
    SURFACE,
    FixedComponent,
    FixedPointData,
    GradientEdge,
    Rational,
    as_fraction,
    index,
)
from .reports import InconsistencyError, PreconditionError, Report, value_type


@value_type
class Polynomial:
    """Polynomial in one formal variable with exact rational coefficients.

    ``coefficients[d]`` is the coefficient of degree d; trailing zeros are
    trimmed, so the zero polynomial has no coefficients at all.
    """

    coefficients: Tuple[Fraction, ...] = ()

    def __post_init__(self):
        cs = [as_fraction(c) for c in self.coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coefficients", tuple(cs))

    def coefficient(self, d: int) -> Fraction:
        if 0 <= d < len(self.coefficients):
            return self.coefficients[d]
        return Fraction(0)

    def __call__(self, x: Union[int, Fraction]) -> Fraction:
        x = as_fraction(x)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def render(self) -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(c))
            else:
                mono = "y" if d == 1 else f"y^{d}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def alpha(p: FixedComponent) -> Fraction:
    """Localisation contribution (w1+w2+w3)/(w1*w2*w3) of an isolated point."""
    if p.kind != POINT or len(p.weights) != 3:
        raise PreconditionError(f"{p.id}: alpha needs an isolated point with 3 weights")
    return Fraction(*_term_6d(p))


def beta(s: FixedComponent) -> Fraction:
    """Localisation contribution (2-2g)/(w1*w2) - n1/w1^2 - n2/w2^2 of a fixed
    surface in a 6-manifold, n_i the degree of its weight-w_i normal summand."""
    if s.kind != SURFACE or len(s.weights) != 2:
        raise PreconditionError(f"{s.id}: beta needs a fixed surface with 2 weights")
    return Fraction(*_term_6d(s))


def _sum_quotients(terms: Iterable[Tuple[int, int]]) -> Rational:
    """Exact sum of the integer quotients n/d, added over the least common
    denominator of the terms so far, as a canonical rational: the int when the
    denominator divides the numerator, so no Fraction is built for it, else the
    one normalised Fraction."""
    num, den = 0, 1
    for n, d in terms:
        common = math.lcm(den, d)
        num = num * (common // den) + n * (common // d)
        den = common
    return num // den if num % den == 0 else Fraction(num, den)


def _term_6d(c: FixedComponent) -> Tuple[int, int]:
    """alpha of a point or beta of a surface as one integer quotient."""
    if c.kind == POINT:
        w1, w2, w3 = c.weights
        return w1 + w2 + w3, w1 * w2 * w3
    if c.kind != SURFACE:
        raise PreconditionError(
            f"{c.id}: localisation of c1 over a fourfold component is not supported"
        )
    if c.normal_degrees is None:
        raise PreconditionError(f"{c.id}: beta needs the normal degrees")
    (w1, w2), (n1, n2) = c.weights, c.normal_degrees
    return (2 - 2 * c.genus) * w1 * w2 - n1 * w2 * w2 - n2 * w1 * w1, w1 * w1 * w2 * w2


def _term_4d(c: FixedComponent) -> Tuple[int, int]:
    if c.kind == POINT:
        a, b = c.weights
        return 1, a * b
    if c.normal_degrees is None:
        raise PreconditionError(f"{c.id}: fixed surface needs its normal degree")
    return -c.normal_degrees[0], 1


def abbv_sum_6d(data: FixedPointData) -> Rational:
    """Sum of alpha over points plus beta over surfaces, as a canonical rational;
    zero certifies consistency."""
    if data.half_dim != 3:
        raise PreconditionError("abbv_sum_6d needs half_dim 3")
    return _sum_quotients(map(_term_6d, data.ordered()))


def abbv_sum_4d(data: FixedPointData) -> Rational:
    """Sum 1/(a*b) over points minus the normal degrees n of fixed surfaces, as a
    canonical rational: -n is the local term -n/w^2 at the weight w = +-1, the only
    one ``validate`` accepts."""
    if data.half_dim != 2:
        raise PreconditionError("abbv_sum_4d needs half_dim 2")
    return _sum_quotients(map(_term_4d, data.ordered()))


class WeightSumInconsistency(InconsistencyError):
    """No additive constant makes the weight sum formula hold everywhere."""

    def __init__(self, constant: Rational, residuals: Dict[str, Rational]):
        self.constant = constant
        self.residuals = residuals
        rendered = ", ".join(
            f"{cid}: {r}" for cid, r in sorted(residuals.items()) if r != 0
        )
        super().__init__(f"weight sum formula has no solution; residuals {{{rendered}}}")


def weight_sum_constant(data: FixedPointData) -> Rational:
    """The constant c with H(F) + c = -sum of weights at every component.

    When no single constant works, raises :class:`WeightSumInconsistency`
    carrying the residual of every component relative to the constant fixed
    at the minimum.
    """
    if not data.relative_fano:
        raise PreconditionError("weight_sum_constant applies to relative Fano data")
    comps = data.ordered()
    base = comps[0]
    c = -base.weight_sum() - base.H
    for comp in comps:
        if -comp.weight_sum() - (comp.H + c) != 0:
            residuals = {comp.id: -comp.weight_sum() - (comp.H + c) for comp in comps}
            raise WeightSumInconsistency(c, residuals)
    return c


def weight_sum_normalize(data: FixedPointData) -> Tuple[Rational, FixedPointData]:
    """The weight-sum constant c and the dataset shifted by it.

    Raises as :func:`weight_sum_constant` does.
    """
    c = weight_sum_constant(data)
    return c, replace(
        data, components=tuple(replace(comp, H=comp.H + c) for comp in data.components)
    )


def check_converse_fano(data: FixedPointData) -> Report:
    """Weight sum formula at every component of index zero or two.

    Passing certifies the hypothesis of the converse statement: together
    with the Fano property of M_min this forces the manifold to be
    symplectic Fano.  Components of higher index are unconstrained.
    """
    report = Report()
    for c in data.ordered():
        if index(c) <= 1:
            expected = -c.weight_sum()
            if c.H != expected:
                report.flag(
                    "weight-sum",
                    f"{c.id}: index-{2 * index(c)} component has H = "
                    f"{c.H}, weight sum formula expects "
                    f"{expected}",
                    subject=c.id,
                )
    return report


def gradient_sphere_area(e: GradientEdge, data: FixedPointData) -> Fraction:
    """Symplectic area (H(top) - H(bottom)) / weight of a gradient sphere."""
    bottom = data.component(e.bottom)
    top = data.component(e.top)
    area = Fraction(top.H - bottom.H, e.weight)
    if area <= 0:
        raise InconsistencyError(
            f"edge {e.key}: area {area} is not positive"
        )
    return area


def _chi_y_block(c: FixedComponent) -> Tuple[int, ...]:
    """chi_y(F) as integer coefficients, constant term first."""
    if c.kind == POINT:
        return (1,)
    if c.kind == SURFACE:
        return (1 - c.genus, c.genus - 1)
    if c.b2 is None:
        raise PreconditionError(
            f"{c.id}: chi_y of a fixed fourfold needs b2 (del Pezzo extremum)"
        )
    return (1, -c.b2, 1)


def chi_y(data: FixedPointData) -> Polynomial:
    """Hirzebruch genus as the fixed-point sum of (-y)^(d_F) * chi_y(F), added in
    integer coefficients of degree <= half_dim (the dataset has d_F + dim_C F <= n)."""
    coeffs = [0] * (data.half_dim + 1)
    for c in data.ordered():
        d = index(c)
        sign = -1 if d % 2 else 1
        for k, b in enumerate(_chi_y_block(c), d):
            coeffs[k] += sign * b
    return Polynomial(tuple(coeffs))


def todd_and_c1c2(data: FixedPointData, chi: Polynomial) -> Tuple[Fraction, Fraction]:
    """Todd genus (constant term of chi = chi_y(data)) and c1*c2 = 24 * Todd,
    dimension 6."""
    if data.half_dim != 3:
        raise PreconditionError("todd_and_c1c2 applies to 6-dimensional data")
    todd = chi.coefficient(0)
    return todd, 24 * todd
