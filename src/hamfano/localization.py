"""Exact evaluation of the localisation identities attached to a dataset.

Everything here is an exact rational identity: the alpha/beta sum in
dimension six, its four-dimensional analogue, degrees of equivariant
bundles on spheres, the weight-sum normalisation of the Hamiltonian and
its converse, gradient-sphere areas, and the Hirzebruch chi_y pipeline
ending in the Todd genus and c1*c2.  A nonzero value of a sum that must
vanish certifies that no genuine action has the given fixed-point data.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

from .fixed_data import (
    POINT,
    SURFACE,
    FixedComponent,
    FixedPointData,
    GradientEdge,
    format_rational,
    index,
)
from .reports import InconsistencyError, PreconditionError, Report


@dataclass(frozen=True)
class Polynomial:
    """Polynomial in one formal variable with exact rational coefficients.

    ``coefficients[d]`` is the coefficient of degree d; trailing zeros are
    trimmed, so the zero polynomial has no coefficients at all.
    """

    coefficients: Tuple[Fraction, ...] = ()

    def __post_init__(self):
        cs = [Fraction(c) for c in self.coefficients]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coefficients", tuple(cs))

    @classmethod
    def of(cls, *coeffs: Union[int, Fraction]) -> "Polynomial":
        return cls(tuple(Fraction(c) for c in coeffs))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, d: int) -> Fraction:
        if 0 <= d < len(self.coefficients):
            return self.coefficients[d]
        return Fraction(0)

    def constant_term(self) -> Fraction:
        return self.coefficient(0)

    def __add__(self, other: "Polynomial") -> "Polynomial":
        n = max(len(self.coefficients), len(other.coefficients))
        return Polynomial(
            tuple(self.coefficient(d) + other.coefficient(d) for d in range(n))
        )

    def __neg__(self) -> "Polynomial":
        return Polynomial(tuple(-c for c in self.coefficients))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        if not self.coefficients or not other.coefficients:
            return Polynomial()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Polynomial(tuple(out))

    def __call__(self, x: Union[int, Fraction]) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * x + c
        return acc

    def as_list(self) -> List[Union[int, str]]:
        return [format_rational(c) for c in self.coefficients]

    def render(self, var: str = "y") -> str:
        if not self.coefficients:
            return "0"
        parts = []
        for d, c in enumerate(self.coefficients):
            if c == 0:
                continue
            if d == 0:
                parts.append(str(format_rational(c)))
            else:
                mono = var if d == 1 else f"{var}^{d}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{format_rational(c)}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


def c1_equivariant_sphere(
    k: int, weights_at_zero: Sequence[int], weights_at_infinity: Sequence[int]
) -> int:
    """Degree of an equivariant bundle on the sphere z.[z0:z1] = [z^k z0:z1].

    ``weights_at_zero`` are the fibre weights over [1:0] and
    ``weights_at_infinity`` those over [0:1]; the degree is
    (-sum(a) + sum(b))/k.  A non-integral quotient certifies that no
    genuine equivariant bundle carries these weights.
    """
    if not isinstance(k, int) or k < 1:
        raise PreconditionError(f"k must be a positive integer, got {k!r}")
    a = list(weights_at_zero)
    b = list(weights_at_infinity)
    if len(a) != len(b):
        raise PreconditionError(
            f"weight lists must have equal length, got {len(a)} and {len(b)}"
        )
    num = -sum(a) + sum(b)
    if num % k != 0:
        raise InconsistencyError(
            f"(-sum{tuple(a)} + sum{tuple(b)}) = {num} is not divisible by k = {k}: "
            f"no equivariant bundle has these weights"
        )
    return num // k


def alpha(p: FixedComponent) -> Fraction:
    """Localisation contribution (w1+w2+w3)/(w1*w2*w3) of an isolated point."""
    if p.kind != POINT or len(p.weights) != 3:
        raise PreconditionError(f"{p.id}: alpha needs an isolated point with 3 weights")
    w1, w2, w3 = p.weights
    return Fraction(w1 + w2 + w3, w1 * w2 * w3)


def beta(s: FixedComponent) -> Fraction:
    """Localisation contribution of a fixed surface in a 6-manifold.

    (2-2g)/(w1*w2) - n1/w1^2 - n2/w2^2, with n_i the degree of the
    weight-w_i summand of the normal bundle.
    """
    if s.kind != SURFACE or len(s.weights) != 2:
        raise PreconditionError(f"{s.id}: beta needs a fixed surface with 2 weights")
    if s.normal_degrees is None:
        raise PreconditionError(f"{s.id}: beta needs the normal degrees")
    w1, w2 = s.weights
    n1, n2 = s.normal_degrees
    g = s.genus
    return Fraction(2 - 2 * g, w1 * w2) - Fraction(n1, w1 * w1) - Fraction(n2, w2 * w2)


def abbv_sum_6d(data: FixedPointData) -> Fraction:
    """Sum of alpha over points plus beta over surfaces; zero certifies consistency."""
    if data.half_dim != 3:
        raise PreconditionError("abbv_sum_6d needs half_dim 3")
    total = Fraction(0)
    for c in data.ordered():
        if c.kind == POINT:
            total += alpha(c)
        elif c.kind == SURFACE:
            total += beta(c)
        else:
            raise PreconditionError(
                f"{c.id}: localisation of c1 over a fourfold component is not supported"
            )
    return total


def abbv_sum_4d(data: FixedPointData) -> Fraction:
    """Sum 1/(a*b) over points minus the normal degrees of fixed surfaces."""
    if data.half_dim != 2:
        raise PreconditionError("abbv_sum_4d needs half_dim 2")
    total = Fraction(0)
    for c in data.ordered():
        if c.kind == POINT:
            a, b = c.weights
            total += Fraction(1, a * b)
        else:
            if c.normal_degrees is None:
                raise PreconditionError(f"{c.id}: fixed surface needs its normal degree")
            total -= c.normal_degrees[0]
    return total


class WeightSumInconsistency(InconsistencyError):
    """No additive constant makes the weight sum formula hold everywhere."""

    def __init__(self, constant: Fraction, residuals: Dict[str, Fraction]):
        self.constant = constant
        self.residuals = residuals
        rendered = ", ".join(
            f"{cid}: {format_rational(r)}" for cid, r in sorted(residuals.items()) if r != 0
        )
        super().__init__(f"weight sum formula has no solution; residuals {{{rendered}}}")


def weight_sum_constant(data: FixedPointData) -> Fraction:
    """The constant c with H(F) + c = -sum of weights at every component.

    When no single constant works, raises :class:`WeightSumInconsistency`
    carrying the residual of every component relative to the constant fixed
    at the minimum.
    """
    if not data.relative_fano:
        raise PreconditionError("weight_sum_constant applies to relative Fano data")
    comps = data.ordered()
    base = comps[0]
    c = Fraction(-base.weight_sum()) - base.H
    residuals = {
        comp.id: (Fraction(-comp.weight_sum()) - (comp.H + c)) for comp in comps
    }
    if any(r != 0 for r in residuals.values()):
        raise WeightSumInconsistency(c, residuals)
    return c


def weight_sum_normalize(data: FixedPointData) -> Tuple[Fraction, FixedPointData]:
    """The weight-sum constant c and the dataset shifted by it.

    Raises as :func:`weight_sum_constant` does.
    """
    c = weight_sum_constant(data)
    return c, data.replace_components(replace(comp, H=comp.H + c) for comp in data.components)


def check_converse_fano(data: FixedPointData) -> Report:
    """Weight sum formula at every component of index zero or two.

    Passing certifies the hypothesis of the converse statement: together
    with the Fano property of M_min this forces the manifold to be
    symplectic Fano.  Components of higher index are unconstrained.
    """
    report = Report()
    for c in data.ordered():
        if index(c) <= 1:
            expected = Fraction(-c.weight_sum())
            if c.H != expected:
                report.flag(
                    "weight-sum",
                    f"{c.id}: index-{2 * index(c)} component has H = "
                    f"{format_rational(c.H)}, weight sum formula expects "
                    f"{format_rational(expected)}",
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
            f"edge {e.key}: area {format_rational(area)} is not positive"
        )
    return area


def _chi_y_block(c: FixedComponent) -> Polynomial:
    if c.kind == POINT:
        return Polynomial.of(1)
    if c.kind == SURFACE:
        return Polynomial.of(1 - c.genus, c.genus - 1)
    if c.b2 is None:
        raise PreconditionError(
            f"{c.id}: chi_y of a fixed fourfold needs b2 (del Pezzo extremum)"
        )
    return Polynomial.of(1, -c.b2, 1)


def chi_y(data: FixedPointData) -> Polynomial:
    """Hirzebruch genus as the fixed-point sum of (-y)^(d_F) * chi_y(F)."""
    total = Polynomial()
    for c in data.ordered():
        d = index(c)
        sign_monomial = Polynomial(tuple([Fraction(0)] * d + [Fraction((-1) ** d)]))
        total = total + sign_monomial * _chi_y_block(c)
    return total


def todd_and_c1c2(data: FixedPointData) -> Tuple[Fraction, Fraction]:
    """Todd genus (constant term of chi_y) and c1*c2 = 24 * Todd, dimension 6."""
    if data.half_dim != 3:
        raise PreconditionError("todd_and_c1c2 applies to 6-dimensional data")
    todd = chi_y(data).constant_term()
    return todd, 24 * todd


def euler_pairing_at_min(a: int, b: int) -> Fraction:
    """Pairing of the level-set Euler class just above a 4-dim isolated minimum."""
    if not (isinstance(a, int) and isinstance(b, int)) or a < 1 or b < 1:
        raise PreconditionError("weights at the minimum must be positive integers")
    return Fraction(-1, a * b)
