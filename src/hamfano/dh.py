"""Duistermaat-Heckman functions and reduced-space volumes, exactly.

For isolated fixed-point data the reduced volume at a level s is the
finite sum -sum (s-H(p))^(n-1)/prod(weights) over the fixed points above
s.  For a Delzant polygon the full DH function is reconstructed as a
piecewise-linear function from the fixed-point data alone: slopes change
by 1/(a*b) at each vertex level and the value jumps by +-area at an
extremal fixed sphere.  The independent slice-length oracle lives in the
test suite and never feeds this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .fixed_data import (
    POINT,
    SURFACE,
    FixedComponent,
    FixedPointData,
    Rational,
    as_fraction,
    as_rational,
    format_rational,
)
from .localization import Polynomial
from .reports import InconsistencyError, PreconditionError, Report
from .toric import CircleDirection, LatticePolytope, fixed_data_from_polytope


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Exact piecewise polynomial on [breakpoints[0], breakpoints[-1]].

    ``pieces[i]`` is the polynomial on [breakpoints[i], breakpoints[i+1]].
    At a shared breakpoint the two one-sided values may differ when a
    codimension-2 fixed component sits there; evaluation returns the larger
    one-sided value, which for slice functions of convex bodies is the
    honest closed-slice value.
    """

    breakpoints: Tuple[Fraction, ...]
    pieces: Tuple[Polynomial, ...]

    def __post_init__(self):
        bps = tuple(as_fraction(b) for b in self.breakpoints)
        if len(bps) < 2 or len(self.pieces) != len(bps) - 1:
            raise PreconditionError("need k+1 breakpoints for k pieces, k >= 1")
        if any(a >= b for a, b in zip(bps, bps[1:])):
            raise PreconditionError("breakpoints must be strictly increasing")
        object.__setattr__(self, "breakpoints", bps)
        object.__setattr__(self, "pieces", tuple(self.pieces))

    @property
    def domain(self) -> Tuple[Fraction, Fraction]:
        return (self.breakpoints[0], self.breakpoints[-1])

    def __call__(self, t: Union[int, Fraction]) -> Fraction:
        t = as_fraction(t)
        lo, hi = self.domain
        if t < lo or t > hi:
            raise PreconditionError(f"{format_rational(t)} outside domain")
        values = [
            piece(t)
            for i, piece in enumerate(self.pieces)
            if self.breakpoints[i] <= t <= self.breakpoints[i + 1]
        ]
        return max(values)

    def as_dict(self) -> dict:
        return {
            "breakpoints": [format_rational(b) for b in self.breakpoints],
            "pieces": [p.as_list() for p in self.pieces],
        }


def reduced_volume(data: FixedPointData, s: Rational) -> Fraction:
    """Integral of omega^(n-1) over the reduced space at level s.

    Requires every fixed component strictly above s to be an isolated
    point; then the volume is -sum (s-H(p))^(n-1)/prod weights(p).
    """
    s = as_rational(s)
    n = data.half_dim
    total = Fraction(0)
    for c in data.ordered():
        if c.H <= s:
            continue
        if c.kind != POINT:
            raise PreconditionError(
                f"{c.id}: component above level {format_rational(s)} is a {c.kind}; "
                f"the isolated localisation formula does not apply"
            )
        total += Fraction((s - c.H) ** (n - 1), math.prod(c.weights))
    return -total


def dh_jump_leading(
    components_at_level: Sequence[FixedComponent], n: int
) -> List[Tuple[Fraction, int]]:
    """Leading jump terms of DH at a shared critical level.

    Each component F of half-codimension d contributes
    vol(F) / ((d-1)! * prod weights(F)) in degree d-1; vol(point) = 1 and
    surfaces must carry their area.  Higher-order terms are not computed.
    """
    if not components_at_level:
        return []
    levels = {c.H for c in components_at_level}
    if len(levels) != 1:
        raise PreconditionError("components do not share one critical level")
    out: List[Tuple[Fraction, int]] = []
    for c in components_at_level:
        d = n - c.dim // 2
        if c.kind == POINT:
            vol = 1
        elif c.kind == SURFACE:
            if c.area is None:
                raise PreconditionError(f"{c.id}: surface must carry its area")
            vol = c.area
        else:
            raise PreconditionError(
                f"{c.id}: no stored volume for a fourfold component"
            )
        out.append((Fraction(vol, math.factorial(d - 1) * math.prod(c.weights)), d - 1))
    return out


def dh_function_toric(
    p: LatticePolytope, xi: Union[CircleDirection, Sequence[int]]
) -> PiecewisePolynomial:
    """DH function of the circle action (P, xi) on the toric surface.

    Built from the generated fixed-point data by accumulating jump terms:
    the slope gains 1/(a*b) at each vertex level, and a fixed boundary
    sphere (always at an extremal level) jumps the value by area/w and the
    slope by -n/w^2, n its self-intersection and w its normal weight.  The
    result is the lattice-normalised slice length of P, exactly.
    """
    return _dh_pieces(_polygon_data(p, xi))


def _polygon_data(
    p: LatticePolytope, xi: Union[CircleDirection, Sequence[int]]
) -> FixedPointData:
    if p.dim != 2:
        raise PreconditionError("dh_function_toric applies to Delzant polygons")
    return fixed_data_from_polytope(p, xi)


def _dh_pieces(data: FixedPointData) -> PiecewisePolynomial:
    """The DH function of data generated from a Delzant polygon."""
    levels = sorted({c.H for c in data.components})
    if len(levels) < 2:
        raise PreconditionError("direction collapses the polygon to one level")
    by_level: dict = {}
    for c in data.components:
        by_level.setdefault(c.H, []).append(c)

    breakpoints: List[Fraction] = list(levels)
    pieces: List[Polynomial] = []
    value = Fraction(0)
    slope = Fraction(0)
    for k, level in enumerate(levels):
        comps = sorted(by_level[level], key=lambda c: c.id)
        for coeff, degree in dh_jump_leading(comps, n=2):
            if degree == 0:
                value += coeff
            elif degree == 1:
                slope += coeff
        for c in comps:
            if c.kind == SURFACE:
                w = c.weights[0]
                slope -= Fraction(c.normal_degrees[0], w * w)
        if k < len(levels) - 1:
            # linear piece value + slope*(t - level) on [level, next]
            pieces.append(Polynomial.of(value - slope * level, slope))
            value += slope * (levels[k + 1] - level)
    if value != 0 or slope != 0:
        raise InconsistencyError(
            "DH reconstruction does not close up to zero above the maximum; "
            "the fixed-point data cannot come from a convex polygon"
        )
    return PiecewisePolynomial(tuple(breakpoints), tuple(pieces))


def fibre_area_bound_check(
    p: LatticePolytope, xi: Union[CircleDirection, Sequence[int]]
) -> Report:
    """Check DH(H_min + c) <= c/(a*b) with equality exactly up to the first
    non-extremal critical level; a, b are the weights at the minimum."""
    data = _polygon_data(p, xi)
    report = Report()
    comps = data.ordered()
    bottom = comps[0]
    if bottom.kind != POINT:
        raise PreconditionError(
            "fibre_area_bound_check needs isolated fixed data (generic direction)"
        )
    a, b = bottom.weights
    if a < 1 or b < 1:
        raise InconsistencyError(f"minimum {bottom.id} has non-positive weights")
    dh = _dh_pieces(data)
    h_min = dh.breakpoints[0]
    bound = Polynomial.of(Fraction(-h_min, a * b), Fraction(1, a * b))

    for i, piece in enumerate(dh.pieces):
        x0, x1 = dh.breakpoints[i], dh.breakpoints[i + 1]
        for t in (x0, x1, Fraction(x0 + x1, 2)):
            if piece(t) > bound(t):
                report.flag(
                    "fibre-area-bound",
                    f"DH({format_rational(t)}) = {format_rational(piece(t))} exceeds "
                    f"c/(ab) = {format_rational(bound(t))}",
                )
        if i == 0:
            if piece != bound:
                report.flag(
                    "fibre-area-bound",
                    "equality DH = c/(ab) fails on the first interval "
                    f"[{format_rational(x0)}, {format_rational(x1)}]",
                )
        else:
            mid = Fraction(x0 + x1, 2)
            if piece(mid) == bound(mid) and piece(x1) == bound(x1):
                report.flag(
                    "fibre-area-bound",
                    f"equality persists past the first critical level on "
                    f"[{format_rational(x0)}, {format_rational(x1)}]",
                )
    return report


def positivity_check(
    data: FixedPointData, levels: Optional[Sequence[Rational]] = None
) -> Report:
    """Assert reduced_volume > 0 at the given exact levels (default: midpoints
    between consecutive critical values).  Violations flag impossible data."""
    report = Report()
    crits = sorted({c.H for c in data.components})
    if levels is None:
        levels = [Fraction(a + b, 2) for a, b in zip(crits, crits[1:])]
    for s in levels:
        s = as_rational(s)
        if not (crits[0] < s < crits[-1]):
            report.undecided(
                "positivity",
                f"level {format_rational(s)} lies outside (H_min, H_max); "
                f"no reduced space there",
            )
            continue
        try:
            vol = reduced_volume(data, s)
        except PreconditionError as exc:
            report.undecided("positivity", f"level {format_rational(s)}: {exc}")
            continue
        if vol <= 0:
            report.flag(
                "positivity",
                f"reduced volume at {format_rational(s)} is "
                f"{format_rational(vol)}, not positive",
            )
    return report
