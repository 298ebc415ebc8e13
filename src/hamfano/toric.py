"""Lattice moment polytopes as generators of fixed-point data.

A Delzant polytope in dimension 2 or 3 together with a primitive integer
direction xi determines a Hamiltonian circle action on the corresponding
toric manifold: H = <xi, mu>.  Vertices become fixed points with weights
given by pairing xi against the primitive edge directions; in dimension 2
an edge orthogonal to xi is a fixed sphere of area equal to its lattice
length; every other edge is a gradient sphere of weight |<xi, d>|.

The module also carries the five anticanonical toric del Pezzo polygons
and executable forms of the elementary facts about circle actions on
them (boundary-divisor areas, weight restrictions, level gaps).
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from .fixed_data import (
    POINT,
    SURFACE,
    FixedComponent,
    FixedPointData,
    GradientEdge,
    _as_tuple,
    _extreme_ids,
    component_order,
    format_rational,
    validate,
)
from .graphs import LabelledGraph
from .localization import gradient_sphere_area
from .reports import PreconditionError, Report, StructuralError, value_type

IntVec = Tuple[int, ...]


class UnsupportedDirectionError(PreconditionError):
    """The direction fixes positive-dimensional loci we do not model in dim 3."""


def _ivec(v: Sequence[int]) -> IntVec:
    if not isinstance(v, (list, tuple)) or any(type(x) is not int for x in v):
        raise StructuralError(f"integer vector expected, got {v!r}")
    return tuple(v)


def _sub(a: IntVec, b: IntVec) -> IntVec:
    return tuple(map(operator.sub, a, b))


def _primitive(v: IntVec) -> Tuple[IntVec, int]:
    g = math.gcd(*v)
    if g == 0:
        raise StructuralError("zero vector has no primitive form")
    return tuple(x // g for x in v), g


def _cross2(a: Sequence[int], b: Sequence[int]) -> int:
    return a[0] * b[1] - a[1] * b[0]


@value_type
class Edge:
    """Polytope edge between canonical vertex indices i < j."""

    i: int
    j: int
    direction: IntVec  # primitive, pointing from vertex i to vertex j
    length: int  # lattice length


@value_type
class Facet:
    normal: IntVec  # primitive inward normal u
    c: int  # the facet is <u, x> >= -c
    vertex_ids: Tuple[int, ...]


@value_type
class LatticePolytope:
    """Full-dimensional lattice polytope in dimension 2 or 3, a value: equality,
    hash, repr and pickling go by its vertex tuple, which determines the rest.

    Vertices are stored lexicographically sorted; every supplied point must
    be a genuine vertex of the hull.  Only the search for the facets depends
    on the dimension: a monotone chain for polygons, gift wrapping in exact
    integers for 3-polytopes (up to O(V^2) plane tests for the first facet, then O(F * V)).
    The search also gives the edges: a polygon's hull pairs, a 3-polytope's
    ridges, each turned once by the wrap.  Everything else is derived once at
    construction, with exact integer arithmetic, from the facets through each
    vertex: the hull vertex and full-dimensionality checks, and the invariants
    every generated direction reuses: the vertex ids, the signed edge slots of
    each vertex and the ``delzant`` and ``reflexive`` flags.
    It also keeps the frozen gradient edges its directions produce, by (bottom,
    top, weight): one per (edge, orientation, weight) in dimension 3, up to four in
    dimension 2, where a key also records which ends lie on a fixed edge.
    """

    vertices: Tuple[IntVec, ...]

    def __post_init__(self) -> None:
        verts = tuple(sorted({_ivec(v) for v in _as_tuple(self.vertices, "vertices")}))
        if not verts:
            raise StructuralError("no vertices given")
        dims = {len(v) for v in verts}
        if len(dims) != 1 or dims.pop() not in (2, 3):
            raise StructuralError("vertices must all lie in dimension 2 or 3")
        dim = len(verts[0])
        # the search also gives the facets through each vertex, by their normals,
        # and the edges, as the vertex pairs it finds bounding a facet
        found, on, pairs = (_polygon_facets if dim == 2 else _polytope_facets)(verts)
        if not found:
            raise StructuralError("polytope is not full-dimensional")
        facets = tuple(sorted(found, key=lambda f: (f.normal, f.c)))
        incidence = tuple(frozenset(s) for s in on)
        for v, through in zip(verts, incidence):
            if len(through) < dim:
                raise StructuralError(f"point {v} is not a vertex of the hull")
        edges = tuple(Edge(i, j, *_primitive(_sub(verts[j], verts[i]))) for i, j in sorted(pairs))
        # (edge index, sign) at each vertex: the sign turns the edge direction,
        # and its pairing with any direction, to point away from the vertex
        slots: List[List[Tuple[int, int]]] = [[] for _ in verts]
        for k, e in enumerate(edges):
            slots[e.i].append((k, 1))
            slots[e.j].append((k, -1))
        self.__dict__.update(
            vertices=verts,
            dim=dim,
            facets=facets,
            edges=edges,
            _incidence=incidence,
            _slots=tuple(tuple(s) for s in slots),
            _vertex_ids=tuple(_vertex_id(v) for v in verts),
            # the signs only flip the determinant, so they are left out here
            delzant=all(_is_lattice_basis([edges[k].direction for k, _ in s], dim) for s in slots),
            reflexive=all(f.c == 1 for f in facets),
            _gradient_edges={},
        )

    def vertex_edges(self, i: int) -> List[Tuple[Edge, IntVec]]:
        """Incident edges with their primitive direction pointing away from i."""
        return [
            (self.edges[k], tuple(sign * x for x in self.edges[k].direction))
            for k, sign in self._slots[i]
        ]

    def as_dict(self) -> dict:
        return {"dim": self.dim, "vertices": [list(v) for v in self.vertices]}


# -- finding facets ----------------------------------------------------------------


def _hull_cycle(pts: Sequence[IntVec]) -> List[IntVec]:
    """Vertices of the hull of lex-sorted plane points, counterclockwise, by the monotone
    chain; points on its edges are left out.  Fewer than three when they are collinear."""

    def chain(seq: Iterable[IntVec]) -> List[IntVec]:
        out: List[IntVec] = []
        for p in seq:
            x, y = p
            while len(out) >= 2:
                (ax, ay), (bx, by) = out[-2], out[-1]
                if (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0:
                    break
                out.pop()
            out.append(p)
        return out[:-1]

    return chain(pts) + chain(reversed(pts))


def _polygon_facets(pts: Sequence[IntVec]) -> Tuple[List[Facet], List[set], List[Tuple[int, int]]]:
    """Facets of the hull of lex-sorted points, the normals of those through
    each point, and the hull's edges as index pairs i < j.  Each counterclockwise
    pair (a, b) of the hull cycle bounds the facet through a and b with inward
    normal the left rotation of b - a; a point off the hull lies on none.  No
    facets when the hull is flat."""
    hull = _hull_cycle(pts)
    if len(hull) < 3:
        return [], [], []
    index = {p: i for i, p in enumerate(pts)}
    facets: List[Facet] = []
    on: List[set] = [set() for _ in pts]
    pairs: List[Tuple[int, int]] = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        u, _ = _primitive((a[1] - b[1], b[0] - a[0]))
        on[index[a]].add(u)
        on[index[b]].add(u)
        ids = tuple(sorted((index[a], index[b])))
        pairs.append(ids)
        facets.append(Facet(normal=u, c=-(u[0] * a[0] + u[1] * a[1]), vertex_ids=ids))
    return facets, on, pairs


def _polytope_facets(pts: Sequence[IntVec]) -> Tuple[List[Facet], List[set], set]:
    """Facets of the hull of lex-sorted 3-dimensional points, the normals of those
    through each point, and the ridges, as index pairs i < j, by gift wrapping in exact
    integers.  The first facet is a supporting plane through pts[0], which is lex-least
    and so a vertex.  A facet holds every point on its plane; its ridges are the pairs of
    its hull cycle, with a coordinate on which the normal is nonzero dropped, and they are
    the polytope's edges.  The first facet takes up to O(V^2) planes through pts[0], each
    tested on all V points; each ridge is then turned once into the facet beyond it:
    O(F * V) plane tests.  None when coplanar."""
    ax, ay, az = pts[0]
    for (bx, by, bz), (cx, cy, cz) in itertools.combinations(pts[1:], 2):
        bx, by, bz, cx, cy, cz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
        n = (by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx)
        side = _supporting_side(n, n[0] * ax + n[1] * ay + n[2] * az, pts) if any(n) else 0
        if side:
            break
    else:
        return [], [], set()
    facets: List[Facet] = []
    on_facets: List[set] = [set() for _ in pts]
    turned = set()
    todo = [(n if side > 0 else tuple(-x for x in n), 0)]  # a normal, a point on its plane
    while todo:
        n, i = todo.pop()
        u, _ = _primitive(n)
        if u in on_facets[i]:
            continue  # reached again through another of its ridges
        u0, u1, u2 = u
        heights = [u0 * x + u1 * y + u2 * z for x, y, z in pts]
        level = heights[i]
        on = tuple(v for v, h in enumerate(heights) if h == level)
        for v in on:
            on_facets[v].add(u)
        facets.append(Facet(normal=u, c=-level, vertex_ids=on))
        off = [p for p, h in zip(pts, heights) if h != level]
        k = next(j for j, x in enumerate(u) if x)
        flat = {pts[v][:k] + pts[v][k + 1 :]: v for v in on}
        cycle = [flat[p] for p in _hull_cycle(sorted(flat))]
        for j, (ia, ib) in enumerate(zip(cycle, cycle[1:] + cycle[:1])):
            ridge = (ia, ib) if ia < ib else (ib, ia)
            if ridge not in turned:
                turned.add(ridge)
                q = pts[cycle[(j + 2) % len(cycle)]]
                todo.append((_wrap_ridge(pts[ia], pts[ib], q, off), ia))
    return facets, on_facets, turned


def _wrap_ridge(a: IntVec, b: IntVec, q: IntVec, off: Sequence[IntVec]) -> IntVec:
    """Inward normal of the other facet through the ridge ab of a facet that holds q, off
    the line ab: the plane through a and b turned away from q until no point of off, the
    points not on the first facet, lies beyond it.  One pass keeps the last point beyond."""
    ax, ay, az = a
    dx, dy, dz = b[0] - ax, b[1] - ay, b[2] - az
    qx, qy, qz = q[0] - ax, q[1] - ay, q[2] - az
    n = None
    for x, y, z in off:
        if n is None or n0 * x + n1 * y + n2 * z < level:
            rx, ry, rz = x - ax, y - ay, z - az
            n0, n1, n2 = dy * rz - dz * ry, dz * rx - dx * rz, dx * ry - dy * rx
            if n0 * qx + n1 * qy + n2 * qz < 0:
                n0, n1, n2 = -n0, -n1, -n2
            level = n0 * ax + n1 * ay + n2 * az
            n = (n0, n1, n2)
    return n


def _supporting_side(n: IntVec, level: int, pts: Sequence[IntVec]) -> int:
    """A value s with s * (<n, q> - level) >= 0 for every point q, or 0 when
    the plane <n, x> = level separates two points.  Stops at the first
    sign change."""
    n0, n1, n2 = n
    side = 0
    for x, y, z in pts:
        s = n0 * x + n1 * y + n2 * z - level
        if s * side < 0:
            return 0
        if s:
            side = s
    return side


def _is_lattice_basis(dirs: Sequence[IntVec], dim: int) -> bool:
    """True iff the primitive edge directions at one vertex form a basis of Z^dim."""
    if len(dirs) != dim:
        return False
    if dim == 2:
        det = _cross2(dirs[0], dirs[1])
    else:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = dirs
        det = a0 * (b1 * c2 - b2 * c1) + a1 * (b2 * c0 - b0 * c2) + a2 * (b0 * c1 - b1 * c0)
    return det in (1, -1)


# -- checks ----------------------------------------------------------------


# kept as a function only because perfbench/run.py traces it by name
def delzant_check(p: LatticePolytope) -> bool:
    """True iff the primitive edge directions at every vertex form a lattice basis."""
    return p.delzant


def boundary_selfint_2d(p: LatticePolytope, edge: Edge) -> int:
    """Self-intersection of a boundary divisor from the normal-fan relation.

    With u the primitive inward normal of the edge's facet and u', u'' those
    of the other facet at each of its two ends, smoothness forces
    u' + u'' = -D^2 u.
    """
    if p.dim != 2:
        raise PreconditionError("boundary_selfint_2d applies to polygons")
    (u,) = p._incidence[edge.i] & p._incidence[edge.j]
    ends = (p._incidence[edge.i] | p._incidence[edge.j]) - {u}
    s = [a + b for a, b in zip(*ends)]
    ks = set()
    for si, ui in zip(s, u):
        if ui != 0:
            if si % ui != 0:
                raise StructuralError("normal fan is not smooth along this edge")
            ks.add(-(si // ui))
        elif si != 0:
            raise StructuralError("normal fan is not smooth along this edge")
    if len(ks) != 1:
        raise StructuralError("normal fan relation is inconsistent")
    return ks.pop()


# -- data generation ---------------------------------------------------------


def _vertex_id(v: IntVec) -> str:
    return "v" + "_".join(str(x) for x in v)


def _surface_id(a: IntVec, b: IntVec) -> str:
    lo, hi = sorted((a, b))
    return "s" + "_".join(str(x) for x in lo) + "__" + "_".join(str(x) for x in hi)


def fixed_data_from_polytope(p: LatticePolytope, xi: Sequence[int]) -> FixedPointData:
    """Fixed-point data of the circle action cut out by xi on the toric manifold.

    Every direction that this module, ``dh`` and ``fano6`` take is checked here:
    xi is any sequence of plain ints (a bool or a float is refused) with gcd 1,
    of the polytope's dimension.  Vertices give points with H = <xi, v> and
    weights <xi, e> over the primitive edge directions leaving v.  In dimension
    2 an edge with <xi, d> = 0 gives a genus-0 fixed surface of area equal to
    its lattice length and normal degree its self-intersection, absorbing its
    endpoint vertices; any other edge gives a gradient edge of weight |<xi, d>|.
    The relative Fano flag is set iff the polytope is reflexive.

    Only the V heights <xi, v> are dot products: an edge of lattice length l from
    v_i to v_j has <xi, d> = (H_j - H_i) / l exactly.  A gradient edge the polytope
    keeps is reused; every component and dataset is built and checked anew.
    """
    x = _ivec(tuple(xi))
    if math.gcd(*x) != 1:
        raise StructuralError(f"direction {x} is not primitive")
    if len(x) != p.dim:
        raise PreconditionError(f"direction has length {len(x)}, polytope dim {p.dim}")
    if not p.delzant:
        raise PreconditionError("fixed_data_from_polytope needs a Delzant polytope")
    if p.dim == 2:
        a, b = x
        heights = [a * v0 + b * v1 for v0, v1 in p.vertices]
    else:
        a, b, c = x
        heights = [a * v0 + b * v1 + c * v2 for v0, v1, v2 in p.vertices]
    pairings = [(heights[e.j] - heights[e.i]) // e.length for e in p.edges]
    if p.dim == 3 and 0 in pairings:
        e = p.edges[pairings.index(0)]
        raise UnsupportedDirectionError(
            f"direction {x} fixes the edge through vertices "
            f"{p.vertices[e.i]}, {p.vertices[e.j]}; positive-dimensional "
            f"fixed loci of 6-manifolds are not generated"
        )

    absorbed = {}
    components: List[FixedComponent] = []
    if 0 in pairings:  # a fixed edge of a polygon; in dimension 3 it raised above
        for k, (e, pairing) in enumerate(zip(p.edges, pairings)):
            if pairing != 0:
                continue
            va, vb = p.vertices[e.i], p.vertices[e.j]
            normal_weights = {
                sign * pairings[m] for idx in (e.i, e.j) for m, sign in p._slots[idx] if m != k
            }
            if len(normal_weights) != 1:
                raise StructuralError(
                    f"fixed edge {va}-{vb} has ambiguous normal weight {normal_weights}"
                )
            w = normal_weights.pop()
            sid = _surface_id(va, vb)
            components.append(
                FixedComponent(
                    id=sid,
                    kind=SURFACE,
                    H=heights[e.i],
                    weights=(w,),
                    genus=0,
                    normal_degrees=(boundary_selfint_2d(p, e),),
                    area=e.length,
                )
            )
            absorbed[e.i] = sid
            absorbed[e.j] = sid

    for i, vid in enumerate(p._vertex_ids):
        if i in absorbed:
            continue
        weights = tuple(sorted([sign * pairings[k] for k, sign in p._slots[i]]))
        components.append(FixedComponent(id=vid, kind=POINT, H=heights[i], weights=weights))
    components.sort(key=component_order)

    ids = p._vertex_ids
    if absorbed:
        ids = [absorbed.get(i, vid) for i, vid in enumerate(ids)]
    keys = []
    for e, pairing in zip(p.edges, pairings):
        if pairing > 0:
            keys.append((ids[e.i], ids[e.j], pairing))
        elif pairing < 0:
            keys.append((ids[e.j], ids[e.i], -pairing))
    # a generated edge has no interior points, so its key sorts as edge_order does
    keys.sort()
    kept = p._gradient_edges
    edges: List[GradientEdge] = []
    for key in keys:
        edge = kept.get(key)
        if edge is None:
            edge = kept[key] = GradientEdge(*key)
        edges.append(edge)

    return FixedPointData(
        half_dim=p.dim,
        components=tuple(components),
        edges=tuple(edges),
        relative_fano=p.reflexive,
        fano=p.reflexive,
    )


# -- the five toric del Pezzo polygons ---------------------------------------


@value_type
class DelPezzoEntry:
    name: str
    polytope: LatticePolytope
    b2: int
    degree: int


# The five anticanonical reflexive Delzant polygons: name -> (vertices, b2,
# degree).  Coordinates are fixed here once and guarded by oracle checks in
# the test suite (Delzant, reflexive, degree = 12 - V, edge lengths) rather
# than trusted.  The hexagon is stored in a sheared lattice basis; all
# invariants are GL(2,Z)-independent.
CATALOG = {
    "CP2": ([(-1, -1), (2, -1), (-1, 2)], 1, 9),
    "CP1xCP1": ([(-1, -1), (1, -1), (1, 1), (-1, 1)], 2, 8),
    "Bl1CP2": ([(-1, 0), (0, -1), (2, -1), (-1, 2)], 2, 8),
    "Bl2CP2": ([(-1, 0), (0, -1), (1, -1), (1, 0), (-1, 2)], 3, 7),
    "Bl3CP2": ([(-1, -4), (0, -1), (1, 3), (1, 4), (0, 1), (-1, -3)], 4, 6),
}


def delpezzo_catalog() -> Tuple[DelPezzoEntry, ...]:
    """The five anticanonical reflexive Delzant polygons with metadata."""
    return tuple(catalog_entry(name) for name in CATALOG)


def catalog_entry(name: str) -> DelPezzoEntry:
    """The named catalog polygon; only that one is built, and two built from
    one name are equal, since a polytope compares by its vertices."""
    if name not in CATALOG:
        raise StructuralError(f"no del Pezzo catalog entry named {name!r}")
    vertices, b2, degree = CATALOG[name]
    return DelPezzoEntry(name, LatticePolytope(vertices), b2, degree)


# -- Karshon graphs -----------------------------------------------------------


def karshon_graph(p: LatticePolytope, xi: Sequence[int]) -> LabelledGraph:
    """Graph of the isolated fixed points of (P, xi), edges labelled by weight.

    Weight-1 gradient spheres are retained with label 1.  For non-generic
    directions the fixed spheres absorb their endpoint vertices and are
    reported separately in the generated dataset, not in this graph.
    """
    if p.dim != 2:
        raise PreconditionError("karshon_graph applies to polygons")
    data = fixed_data_from_polytope(p, xi)
    return graph_of_points(data)


def graph_of_points(data: FixedPointData) -> LabelledGraph:
    """Karshon graph of a dataset whose relevant fixed components are points."""
    points = data.points()
    ids = {c.id for c in points}
    edges = tuple(e for e in data.edges if e.bottom in ids and e.top in ids)
    lows, highs = _extreme_ids(points)
    v_min = lows[0] if len(lows) == 1 and points[0].H == data.h_min() else None
    v_max = highs[0] if len(highs) == 1 and points[-1].H == data.h_max() else None
    return LabelledGraph(vertices=points, edges=edges, v_min=v_min, v_max=v_max)


# -- the del Pezzo lemma suite -----------------------------------------------


def _is_delpezzo(p: LatticePolytope) -> bool:
    return p.dim == 2 and p.delzant and p.reflexive


def delpezzo_lemma_suite(p: LatticePolytope, xi: Sequence[int]) -> Report:
    """Check the toric del Pezzo facts on the data generated from (P, xi).

    Covered conclusions, one note per check: gradient spheres through
    non-extremal points are boundary divisors (dum); the weight-1
    multiplicity balance at the extrema (equallemma); the level gap below
    twin {-1,n} points (neededcor); weight-1 spheres touch an extremum
    (fourbound); boundary areas at most 3 (4small); the {-1,n} point
    restrictions (us); and the consequences of a {+-1,+-1} fixed point
    (calc).  Violations carry the lemma name as code.  A direction that
    fixes a boundary sphere is not generic, and the suite is skipped.
    """
    if not _is_delpezzo(p):
        raise PreconditionError("the lemma suite runs on toric del Pezzo polygons")
    return _lemma_checks(fixed_data_from_polytope(p, xi))


# The lemma suite's checks in report order, and every note it writes, built once.
_LEMMA_CHECKS = ("dum", "equallemma", "neededcor", "fourbound", "4small", "us", "calc")
_LEMMA_NOTES = {(c, f): f"{c}: {'fail' if f else 'pass'}" for c in _LEMMA_CHECKS for f in (0, 1)}
_CALC_VACUOUS = "calc: vacuous (no fixed point with weights {1,1}, {-1,-1} or {1,-1})"
_SPECIAL_WEIGHTS = ((1, 1), (-1, -1), (-1, 1))


def _lemma_checks(data: FixedPointData) -> Report:
    """The lemma suite on data generated from a toric del Pezzo polygon.

    One walk over the points and one over the edges collect what the checks
    read; the records are then emitted check by check."""
    points = data.ordered()
    lo, hi = points[0], points[-1]
    min_id, max_id = lo.id, hi.id
    h_min, h_max = lo.H, hi.H
    level, incident = {}, {}
    inner = []  # (point, sorted weights) off the extrema
    twins = []  # points with weights {-1, n}, n >= 2
    count_min = count_max = 0
    special = False
    for c in points:
        if c.kind == SURFACE:
            return Report(notes=["skipped: direction is not generic (fixed boundary spheres)"])
        ws = c.sorted_weights()
        level[c.id] = c.H
        incident[c.id] = []
        if c is lo:
            min_ws = ws
        elif c is not hi:
            inner.append((c, ws))
            count_min += -1 in ws
            count_max += 1 in ws
        if ws[0] == -1 and ws[1] > 1:
            twins.append(c)
        special = special or ws in _SPECIAL_WEIGHTS

    avoiding, large, heavy = [], [], []
    for e in data.edges:
        w, bottom, top = e.weight, e.bottom, e.top
        incident[bottom].append(w)
        incident[top].append(-w)
        if w == 1 and min_id not in (bottom, top) and max_id not in (bottom, top):
            avoiding.append(e)
        rise = level[top] - level[bottom]
        if rise <= 0 or rise > 3 * w:
            large.append(e)
        if w > 2:
            heavy.append(e)

    report = Report()
    # dum: every weight at a non-extremal point is realised by a boundary edge
    for c, ws in inner:
        found = sorted(incident[c.id])
        if found != list(ws):
            report.flag(
                "dum",
                f"{c.id}: weights {list(ws)} are not matched by incident boundary edges "
                f"(up {[w for w in found if w > 0]}, down {[w for w in found if w < 0]})",
                subject=c.id,
            )

    # equallemma: weight-1 multiplicities at the extrema
    mult_min, mult_max = lo.weights.count(1), hi.weights.count(-1)
    if mult_min != count_min:
        report.flag(
            "equallemma",
            f"multiplicity of weight 1 at {min_id} is {mult_min}, but "
            f"{count_min} index-2 points carry a weight -1",
        )
    if mult_max != count_max:
        report.flag(
            "equallemma",
            f"multiplicity of weight -1 at {max_id} is {mult_max}, but "
            f"{count_max} index-2 points carry a weight 1",
        )

    # neededcor: twin {-1,n} points on one level force an empty gap below
    for a, b in itertools.combinations(twins, 2):
        if a.H == b.H:
            offenders = [c.id for c in points if c.id != min_id and h_min <= c.H < a.H]
            if offenders:
                report.flag(
                    "neededcor",
                    f"twin {{-1,n}} points {a.id}, {b.id} at level "
                    f"{format_rational(a.H)} admit other points {offenders} below",
                )

    # fourbound: weight-1 gradient spheres contain an extremal point
    for e in avoiding:
        report.flag(
            "fourbound", f"weight-1 edge {e.key} avoids both extremal points", subject=e.key
        )

    # 4small: boundary divisor areas (rise / weight) are at most 3; a
    # non-positive rise makes gradient_sphere_area raise
    for e in large:
        area = gradient_sphere_area(e, data)
        report.flag(
            "4small",
            f"boundary divisor {e.key} has area {format_rational(area)} > 3",
            subject=e.key,
        )

    # us: restrictions at points with weights {-1, n}, n >= 2
    for c in twins:
        gap = c.H - h_min
        if gap > 3:
            report.flag("us", f"{c.id}: H - H_min = {format_rational(gap)} > 3", subject=c.id)
        if 1 not in min_ws:
            report.flag(
                "us",
                f"minimum weights {list(min_ws)} are not of the form {{1,m}}",
                subject=min_id,
            )
        else:
            m = min_ws[1] if min_ws[0] == 1 else min_ws[0]
            if m < gap:
                report.flag(
                    "us",
                    f"minimum weight m = {m} is below H({c.id}) - H_min = "
                    f"{format_rational(gap)}",
                    subject=min_id,
                )
        strictly_between = [o.id for o in points if h_min < o.H < c.H]
        if strictly_between:
            report.flag(
                "us",
                f"points {strictly_between} lie strictly between the minimum and {c.id}",
                subject=c.id,
            )

    # calc: consequences of a fixed point with weights {1,1}, {-1,-1} or {1,-1}
    if special:
        for e in heavy:
            report.flag(
                "calc", f"boundary divisor {e.key} has weight {e.weight} > 2", subject=e.key
            )
        if h_min < -3 or h_max > 3:
            report.flag(
                "calc",
                f"H range [{format_rational(h_min)}, {format_rational(h_max)}] "
                f"is not contained in [-3, 3]",
            )

    flagged = {v.code for v in report.violations}
    report.notes.extend([_LEMMA_NOTES[check, check in flagged] for check in _LEMMA_CHECKS[:-1]])
    report.notes.append(_LEMMA_NOTES["calc", "calc" in flagged] if special else _CALC_VACUOUS)
    return report


# -- direction scans -----------------------------------------------------------

# Most candidate vectors, (2*bound+1)^dim, that a direction scan may enumerate:
# it allows bound <= 90 for polygons and bound <= 15 for 3-polytopes.
MAX_DIRECTION_CANDIDATES = 32768


def primitive_directions(dim: int, bound: int) -> List[IntVec]:
    """Primitive vectors of max-norm <= bound, one per +-pair, in lex order."""
    if bound < 1:
        raise PreconditionError("bound must be at least 1")
    candidates = (2 * bound + 1) ** dim
    if candidates > MAX_DIRECTION_CANDIDATES:
        raise PreconditionError(
            f"bound {bound} gives {candidates} candidate directions in dimension "
            f"{dim}; at most {MAX_DIRECTION_CANDIDATES} are scanned"
        )
    out = []
    for v in itertools.product(range(-bound, bound + 1), repeat=dim):
        if math.gcd(*v) != 1:
            continue
        first = next(x for x in v if x != 0)
        if first < 0:
            continue
        out.append(v)
    return out


@value_type
class ScanItem:
    xi: IntVec
    data: Optional[FixedPointData]
    report: Report
    error: Optional[str] = None


def scan_directions(p: LatticePolytope, bound: int) -> Iterator[ScanItem]:
    """Generate data for every primitive direction of max-norm <= bound.

    Directions are taken up to sign and enumerated lexicographically, and
    ``validate`` reports on the data of each.  For polygons in the del Pezzo
    class the lemma suite also runs on every direction; on a non-generic one,
    which fixes a boundary sphere, it skips itself with a note.
    """
    is_delpezzo = _is_delpezzo(p)
    for xi in primitive_directions(p.dim, bound):
        try:
            data = fixed_data_from_polytope(p, xi)
        except UnsupportedDirectionError as exc:
            yield ScanItem(xi=xi, data=None, report=Report(), error=str(exc))
            continue
        report = validate(data)
        if is_delpezzo:
            report.extend(_lemma_checks(data))
        yield ScanItem(xi=xi, data=data, report=report)
