"""Duistermaat-Heckman functions and reduced-space volumes, exactly.

For isolated fixed-point data the reduced volume at a level s is the
finite sum -sum (s-H(p))^(n-1)/prod(weights) over the fixed points above
s.  For a Delzant polygon the full DH function is reconstructed as a
piecewise-linear function from the fixed-point data alone, as a sum of one
line per fixed component starting at its level: (t - H)/(ab) for a point
with weights a, b, and A/w - n(t - H)/w^2 for a fixed sphere of area A,
weight w and self-intersection n, which sits at an extremal level.  The
independent slice-length oracle lives in the test suite and never feeds
this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .fixed_data import (
    POINT,
    FixedPointData,
    Rational,
    as_fraction,
    as_rational,
    format_rational,
)
from .localization import Polynomial
from .reports import InconsistencyError, PreconditionError, Report
from .toric import LatticePolytope, fixed_data_from_polytope


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


def dh_function_toric(p: LatticePolytope, xi: Sequence[int]) -> PiecewisePolynomial:
    """DH function of the circle action (P, xi) on the toric surface.

    Built from the generated fixed-point data alone, one linear term per fixed
    component (see ``_dh_pieces``).  The result is the lattice-normalised slice
    length of P, exactly.
    """
    return _dh_pieces(_polygon_data(p, xi))


def _polygon_data(p: LatticePolytope, xi: Sequence[int]) -> FixedPointData:
    if p.dim != 2:
        raise PreconditionError("dh_function_toric applies to Delzant polygons")
    return fixed_data_from_polytope(p, xi)


def _dh_pieces(data: FixedPointData) -> PiecewisePolynomial:
    """The DH function of data generated from a Delzant polygon.

    Each fixed component adds one line from its level H upwards: a point with
    weights a, b adds (t - H)/(ab), and a fixed sphere with weight w,
    self-intersection n and area A adds A/w - n(t - H)/w^2.  The lines are
    summed level by level as (constant, slope); the running sum after a level is
    the piece up to the next one, and after the top level it must vanish.
    """
    terms: dict = {}
    for c in data.components:
        if c.kind == POINT:
            slope = Fraction(1, math.prod(c.weights))
            const = -c.H * slope
        else:
            (w,), (n,) = c.weights, c.normal_degrees
            slope = Fraction(-n, w * w)
            const = Fraction(c.area, w) - c.H * slope
        c0, c1 = terms.get(c.H, (0, 0))
        terms[c.H] = (c0 + const, c1 + slope)
    levels = sorted(terms)
    if len(levels) < 2:
        raise PreconditionError("direction collapses the polygon to one level")
    pieces: List[Polynomial] = []
    const = slope = 0
    for level in levels:
        c0, c1 = terms[level]
        const, slope = const + c0, slope + c1
        pieces.append(Polynomial.of(const, slope))
    if pieces.pop().coefficients:
        raise InconsistencyError(
            "DH reconstruction does not close up to zero above the maximum; "
            "the fixed-point data cannot come from a convex polygon"
        )
    return PiecewisePolynomial(tuple(levels), tuple(pieces))


def fibre_area_bound_check(p: LatticePolytope, xi: Sequence[int]) -> Report:
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
