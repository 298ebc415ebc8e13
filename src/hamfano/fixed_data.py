"""Fixed-point data of a Hamiltonian circle action, as an exact value type.

A dataset records, for a closed symplectic 2n-manifold (n = 2 or 3) with an
effective Hamiltonian S^1-action, the components of the fixed set together
with the combinatorics that the rest of the package consumes:

* isolated points, fixed surfaces and (for n = 3) a fixed fourfold, each
  with its Hamiltonian value, nonzero isotropy weights and, where relevant,
  genus, normal-bundle degrees, symplectic area and second Betti number;
* gradient spheres / isotropy submanifolds as directed edges between
  components, labelled by the order of the generic stabiliser.

Zero weights of tangential directions are never stored: a point carries n
weights, a surface n-1, a fourfold n-2.  Hamiltonian values and areas are
exact rationals in one canonical form: an ``int`` when the value is
integral, otherwise a :class:`fractions.Fraction` with denominator > 1, and
never a float.  Every identity checked downstream is exact.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .reports import (
    NonUniqueExtremumError,
    Report,
    StructuralError,
)

# A canonical exact rational: an int, or a Fraction with denominator > 1.
Rational = Union[int, Fraction]

POINT = "point"
SURFACE = "surface"
FOURFOLD = "fourfold"
KINDS = (POINT, SURFACE, FOURFOLD)

# Real dimension of a component of each kind.
_KIND_DIM = {POINT: 0, SURFACE: 2, FOURFOLD: 4}


# Canonical ASCII digits only: no leading zero in either part, and no sign on zero.
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")
_RATIONAL = re.compile(rf"({_INTEGER.pattern})(?:/([1-9][0-9]*))?")


def as_rational(x: Union[int, str, Fraction]) -> Rational:
    """Coerce an int, Fraction or canonical 'p/q' string (lowest terms, no
    leading zero, no sign on zero) to a canonical rational: the int itself
    when the value is integral, else the Fraction."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        m = _RATIONAL.fullmatch(x) if type(x) is str else None
        if m is None or (m[2] is not None and math.gcd(int(m[1]), int(m[2])) != 1):
            raise StructuralError(f"not a canonical rational value (p/q in lowest terms): {x!r}")
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def as_fraction(x: Union[int, Fraction]) -> Fraction:
    """x as a Fraction for the DH and chi_y polynomials; any other type (a float
    or a bool too) is refused, so no inexact value enters them silently."""
    if type(x) is Fraction:
        return x
    if type(x) is not int:
        raise StructuralError(f"exact int or Fraction expected, got {x!r}")
    return Fraction(x)


def _as_tuple(x, what: str, owner: str = "") -> tuple:
    """A JSON array (list or tuple) as a tuple; anything else is structural."""
    if type(x) is tuple:
        return x
    if type(x) is not list:
        raise StructuralError(f"{owner}{': ' if owner else ''}{what} must be an array, got {x!r}")
    return tuple(x)


def format_rational(x: Rational) -> Union[int, str]:
    """Canonical rendering: bare int when integral, else 'p/q' with q > 0."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class FixedComponent:
    """One connected component of the fixed set."""

    id: str
    kind: str
    H: Rational
    weights: Tuple[int, ...]
    genus: Optional[int] = None
    normal_degrees: Optional[Tuple[int, ...]] = None
    area: Optional[Rational] = None
    b2: Optional[int] = None
    fibre_intersection: Optional[int] = None
    fibre_class: bool = False

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise StructuralError("component id must be a non-empty string")
        if self.kind not in KINDS:
            raise StructuralError(f"{self.id}: unknown kind {self.kind!r}")
        # a field is written back only when canonicalisation changed it
        if (h := as_rational(self.H)) is not self.H:
            object.__setattr__(self, "H", h)
        ws = _as_tuple(self.weights, "weights", self.id)
        for w in ws:
            if type(w) is not int or w == 0:
                raise StructuralError(f"{self.id}: weights must be nonzero integers, got {w!r}")
        if ws is not self.weights:
            object.__setattr__(self, "weights", ws)
        if (self.genus is not None) != (self.kind == SURFACE):
            raise StructuralError(f"{self.id}: genus present iff kind is surface")
        if self.genus is not None and (type(self.genus) is not int or self.genus < 0):
            raise StructuralError(f"{self.id}: genus must be a nonnegative integer")
        if self.normal_degrees is not None:
            if self.kind == POINT:
                raise StructuralError(f"{self.id}: points carry no normal degrees")
            nd = _as_tuple(self.normal_degrees, "normal_degrees", self.id)
            for n in nd:
                if type(n) is not int:
                    raise StructuralError(f"{self.id}: normal degrees must be integers")
            if len(nd) != len(ws):
                raise StructuralError(
                    f"{self.id}: normal_degrees length {len(nd)} != weights length {len(ws)}"
                )
            if nd is not self.normal_degrees:
                object.__setattr__(self, "normal_degrees", nd)
        if self.area is not None:
            if self.kind != SURFACE:
                raise StructuralError(f"{self.id}: area is stored for surfaces only")
            if (area := as_rational(self.area)) is not self.area:
                object.__setattr__(self, "area", area)
        if self.b2 is not None:
            if self.kind != FOURFOLD:
                raise StructuralError(f"{self.id}: b2 is stored for the fourfold extremum only")
            if type(self.b2) is not int or self.b2 < 0:
                raise StructuralError(f"{self.id}: b2 must be a nonnegative integer")
        if self.fibre_intersection is not None:
            if self.kind != SURFACE:
                raise StructuralError(f"{self.id}: fibre_intersection applies to surfaces only")
            if type(self.fibre_intersection) is not int or self.fibre_intersection not in (0, 1, 2):
                raise StructuralError(f"{self.id}: fibre_intersection must be 0, 1 or 2")
        if type(self.fibre_class) is not bool:
            raise StructuralError(f"{self.id}: fibre_class must be true or false")

    @property
    def dim(self) -> int:
        return _KIND_DIM[self.kind]

    def weight_sum(self) -> int:
        return sum(self.weights)

    def sorted_weights(self) -> Tuple[int, ...]:
        return tuple(sorted(self.weights))


def index(c: FixedComponent) -> int:
    """Number of strictly negative weights (half the Morse-Bott index)."""
    return sum(1 for w in c.weights if w < 0)


@dataclass(frozen=True)
class GradientEdge:
    """A gradient sphere or isotropy submanifold joining two components.

    ``weight`` is the order of the generic stabiliser.  ``interior_points``
    optionally lists the weight pairs of the induced action at the isolated
    fixed points lying in the interior of an isotropy 4-manifold; the cycle
    inequality consumes them.
    """

    bottom: str
    top: str
    weight: int
    interior_points: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        for end in (self.bottom, self.top):
            if not isinstance(end, str) or not end:
                raise StructuralError("edge endpoints must be component ids")
        if type(self.weight) is not int or self.weight < 1:
            raise StructuralError(
                f"edge {self.bottom}->{self.top}: weight must be a positive integer"
            )
        if self.interior_points != ():
            what, owner = "interior_points", f"edge {self.key}"
            pts = _as_tuple(self.interior_points, what, owner)
            if any(type(p) is not tuple for p in pts):
                pts = tuple(_as_tuple(p, what, owner) for p in pts)
            for p in pts:
                if len(p) != 2 or any(type(a) is not int or a == 0 for a in p):
                    raise StructuralError(
                        f"{owner}: interior point weights must be pairs of nonzero integers"
                    )
            if pts is not self.interior_points:
                object.__setattr__(self, "interior_points", pts)

    @property
    def key(self) -> str:
        return f"{self.bottom}->{self.top}"


# The canonical order of edges, in which graphs keep them and the isotropy
# checks match them to weight slots.
edge_order = attrgetter("bottom", "top", "weight", "interior_points")

# The canonical order of components: by Hamiltonian value, then id.
component_order = attrgetter("H", "id")


@dataclass(frozen=True)
class FixedPointData:
    """Full fixed-point dataset of a Hamiltonian S^1-action on a 2n-manifold.

    The canonical order and the id lookup are computed once, at
    construction, since the dataset is immutable; ``points()`` and
    ``surfaces()`` keep the canonical order.
    """

    half_dim: int
    components: Tuple[FixedComponent, ...]
    edges: Tuple[GradientEdge, ...] = ()
    relative_fano: bool = False
    fano: bool = False

    def __post_init__(self):
        if type(self.half_dim) is not int or self.half_dim not in (2, 3):
            raise StructuralError(f"half_dim must be 2 or 3, got {self.half_dim!r}")
        for flag in ("relative_fano", "fano"):
            if type(getattr(self, flag)) is not bool:
                raise StructuralError(f"{flag} must be true or false")
        comps = _as_tuple(self.components, "components")
        if not comps:
            raise StructuralError("dataset has no fixed components")
        if comps is not self.components:
            object.__setattr__(self, "components", comps)
        if (edges := _as_tuple(self.edges, "edges")) is not self.edges:
            object.__setattr__(self, "edges", edges)
        by_id = {c.id: c for c in comps}
        if len(by_id) != len(comps):
            seen = set()
            dup = next(c.id for c in comps if c.id in seen or seen.add(c.id))
            raise StructuralError(f"duplicate component id {dup!r}")
        n = self.half_dim
        for c in comps:
            if c.kind == FOURFOLD and n != 3:
                raise StructuralError(f"{c.id}: fourfold components need half_dim 3")
            expected = n - _KIND_DIM[c.kind] // 2
            if len(c.weights) != expected:
                raise StructuralError(
                    f"{c.id}: a {c.kind} in a {2 * n}-manifold carries {expected} "
                    f"nonzero weight{'' if expected == 1 else 's'}, got {len(c.weights)}"
                )
        for e in edges:
            if e.bottom not in by_id:
                raise StructuralError(f"edge endpoint {e.bottom!r} does not resolve")
            if e.top not in by_id:
                raise StructuralError(f"edge endpoint {e.top!r} does not resolve")
        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_ordered", tuple(sorted(comps, key=component_order)))

    def component(self, cid: str) -> FixedComponent:
        try:
            return self._by_id[cid]
        except KeyError:
            raise StructuralError(f"no component with id {cid!r}") from None

    def ordered(self) -> Tuple[FixedComponent, ...]:
        """Components in the canonical order: by Hamiltonian value, then id."""
        return self._ordered

    def points(self) -> Tuple[FixedComponent, ...]:
        return tuple(c for c in self._ordered if c.kind == POINT)

    def surfaces(self) -> Tuple[FixedComponent, ...]:
        return tuple(c for c in self._ordered if c.kind == SURFACE)

    def h_min(self) -> Rational:
        return self._ordered[0].H

    def h_max(self) -> Rational:
        return self._ordered[-1].H

    def replace_components(self, comps: Iterable[FixedComponent]) -> "FixedPointData":
        return replace(self, components=tuple(comps))


def _extreme_ids(ordered: Sequence) -> Tuple[List[str], List[str]]:
    """Ids on the lowest and on the highest level of items sorted by (H, id)."""
    if not ordered:
        return [], []
    lo, hi = ordered[0].H, ordered[-1].H
    i, j = 1, len(ordered) - 1
    while i < len(ordered) and ordered[i].H == lo:
        i += 1
    while j > 0 and ordered[j - 1].H == hi:
        j -= 1
    return [c.id for c in ordered[:i]], [c.id for c in ordered[j:]]


def edge_order_violation(
    e: GradientEdge, bottom: FixedComponent, top: FixedComponent
) -> Optional[str]:
    """Why the edge e from bottom to top does not increase the Hamiltonian
    strictly, or None when it does: the one owner of the edge-order rule."""
    if bottom.H < top.H:
        return None
    return (
        f"edge {e.key} must increase the Hamiltonian: H({e.bottom}) = "
        f"{format_rational(bottom.H)} !< H({e.top}) = {format_rational(top.H)}"
    )


def extremal(data: FixedPointData) -> Tuple[str, str]:
    """Ids of the unique components attaining H_min and H_max.

    Raises :class:`NonUniqueExtremumError` on a tie (including the trivial
    one-component dataset, where the same component attains both).
    """
    mins, maxs = _extreme_ids(data.ordered())
    if len(mins) != 1:
        raise NonUniqueExtremumError(f"minimum attained by {mins}")
    if len(maxs) != 1:
        raise NonUniqueExtremumError(f"maximum attained by {maxs}")
    if mins[0] == maxs[0]:
        raise NonUniqueExtremumError("single component attains both extrema (trivial action)")
    return mins[0], maxs[0]


def _check_resweight(data: FixedPointData, min_comp: FixedComponent, report: Report) -> None:
    """Edge restrictions for gradient spheres emanating from the minimum.

    codim 2 minima force weight 1; codim 4 minima with weights {1, m} allow
    only weights 1 and m.
    """
    codim = 2 * data.half_dim - min_comp.dim
    out_edges = [e for e in data.edges if e.bottom == min_comp.id]
    if codim == 2:
        for e in out_edges:
            if e.weight != 1:
                report.flag(
                    "resweight",
                    f"edge {e.key} has weight {e.weight}, but every gradient sphere "
                    f"from a codimension-2 minimum has weight 1",
                    subject=e.key,
                )
    elif codim == 4 and 1 in min_comp.weights:
        ws = sorted(min_comp.weights)
        m = ws[-1] if ws[0] == 1 else ws[0]
        allowed = {1, m}
        for e in out_edges:
            if e.weight not in allowed:
                report.flag(
                    "resweight",
                    f"edge {e.key} has weight {e.weight}; a codimension-4 minimum with "
                    f"weights {{1,{m}}} only admits gradient spheres of weight 1 or {m}",
                    subject=e.key,
                )


def _check_missinglemma(data: FixedPointData, report: Report) -> None:
    """Weight bounds from sphere areas, valid once the weight sum formula holds."""
    lo, hi = data.h_min(), data.h_max()
    for c in data.ordered():
        for w in c.weights:
            if w < 0 and -w > c.H - lo:
                report.flag(
                    "missinglemma",
                    f"{c.id}: negative weight {w} needs {-w} <= H - H_min = "
                    f"{format_rational(c.H - lo)}",
                    subject=c.id,
                )
            elif w > 0 and w > hi - c.H:
                report.flag(
                    "missinglemma",
                    f"{c.id}: positive weight {w} needs {w} <= H_max - H = "
                    f"{format_rational(hi - c.H)}",
                    subject=c.id,
                )


def validate(data: FixedPointData) -> Report:
    """Check every dataset invariant; the report is empty iff the data passes.

    Pure and idempotent.  Structural defects raise before this point (the
    constructors refuse them); everything reported here is semantic.
    """
    report = Report()
    comps = data.ordered()

    mins, maxs = _extreme_ids(comps)
    if len(mins) > 1:
        report.flag("extremum", f"minimum level attained by {mins}; M_min is connected")
    if len(maxs) > 1:
        report.flag("extremum", f"maximum level attained by {maxs}; M_max is connected")
    if len(comps) == 1:
        report.flag("extremum", "one component attains both extrema: the action is trivial")

    g = math.gcd(*[w for c in comps for w in c.weights])
    if g != 1:
        report.flag(
            "effectiveness",
            f"gcd of all weight moduli is {g}; an effective action needs gcd 1",
        )

    by_id, dim6 = data._by_id, data.half_dim == 3
    for e in data.edges:
        b, t = by_id[e.bottom], by_id[e.top]
        if message := edge_order_violation(e, b, t):
            report.flag("edge-order", message, subject=e.key)
        if dim6 and b.kind == SURFACE and t.kind == SURFACE and e.weight < 2:
            report.flag(
                "edge-weight",
                f"edge {e.key} joins two fixed surfaces in dimension 6, so it is an "
                f"isotropy 4-manifold and needs weight >= 2",
                subject=e.key,
            )

    if data.relative_fano:
        _check_missinglemma(data, report)
        if len(mins) == 1:
            _check_resweight(data, data.component(mins[0]), report)

    return report
