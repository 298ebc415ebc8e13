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
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .fixed_data import (
    POINT,
    SURFACE,
    FixedComponent,
    FixedPointData,
    GradientEdge,
    Rational,
    _as_tuple,
    component_order,
    validate,
)
from .graphs import LabelledGraph
from .localization import abbv_sum_4d, abbv_sum_6d, gradient_sphere_area, weight_sum_constant
from .reports import PreconditionError, Report, StructuralError, value_type

IntVec = Tuple[int, ...]


class UnsupportedDirectionError(PreconditionError):
    """The direction fixes positive-dimensional loci we do not model in dim 3."""


def _ivec(v: Sequence[int]) -> IntVec:
    if not isinstance(v, (list, tuple)) or any(type(x) is not int for x in v):
        raise StructuralError(f"integer vector expected, got {v!r}")
    return tuple(v)


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
    be a genuine vertex of the hull, given once.  Only the search for the
    facets depends on the dimension: a monotone chain for polygons, gift
    wrapping in exact integers for 3-polytopes (up to O(V^2) plane tests for
    the first facet, then one wrap of O(V) tests per further facet).
    The search also gives the edges: a polygon's hull pairs, a 3-polytope's
    ridges, as the facets found hold them.  Everything else is derived once at
    construction, with exact integer arithmetic, from the facets through each
    vertex: the hull vertex and full-dimensionality checks, and the invariants
    every generated direction reuses: the vertex ids, the edge table
    ``_edge_ends`` of one plain (i, j, lattice length) int triple per edge, the
    signed edge slots of each vertex and the ``delzant`` and ``reflexive``
    flags.  A 3-polytope also keeps its distinct edge lines, each primitive
    edge direction up to sign in the order of its first edge, with the refusal
    text naming that edge.
    It also keeps the frozen gradient edges its directions produce, by (bottom,
    top, weight): one per (edge, orientation, weight) in dimension 3, up to four in
    dimension 2, where a key also records which ends lie on a fixed edge.
    """

    vertices: Tuple[IntVec, ...]

    def __post_init__(self) -> None:
        verts = tuple(sorted(_ivec(v) for v in _as_tuple(self.vertices, "vertices")))
        if not verts:
            raise StructuralError("no vertices given")
        for a, b in zip(verts, verts[1:]):
            if a == b:
                raise StructuralError(f"duplicate vertex {a}")
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
        # the edge table: (i, j, lattice length) as plain ints, and the edges built from it
        edge_ends, edges = [], []
        for i, j in sorted(pairs):
            step = [b - a for a, b in zip(verts[i], verts[j])]
            length = math.gcd(*step)
            edge_ends.append((i, j, length))
            edges.append(Edge(i, j, tuple([x // length for x in step]), length))
        edges = tuple(edges)
        # (edge index, sign) at each vertex: the sign turns the edge direction,
        # and its pairing with any direction, to point away from the vertex
        slots: List[List[Tuple[int, int]]] = [[] for _ in verts]
        for k, e in enumerate(edges):
            slots[e.i].append((k, 1))
            slots[e.j].append((k, -1))
        # a 3-polytope's edge lines, with the refusal text of the first edge on each:
        # a direction orthogonal to a line fixes its edges.  An edge runs from the
        # lex-smaller vertex, so its direction is already the line's positive one.
        lines = {}
        if dim == 3:
            for e in edges:
                if e.direction not in lines:
                    lines[e.direction] = (
                        f" fixes the edge through vertices {verts[e.i]}, {verts[e.j]}; "
                        f"positive-dimensional fixed loci of 6-manifolds are not generated"
                    )
        self.__dict__.update(
            vertices=verts,
            dim=dim,
            facets=facets,
            edges=edges,
            _edge_ends=tuple(edge_ends),
            _incidence=incidence,
            _slots=tuple(tuple(s) for s in slots),
            _edge_lines=tuple(lines.items()),
            _vertex_ids=tuple([_vertex_id(v) for v in verts]),
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


def _polytope_facets(pts: Sequence[IntVec]) -> Tuple[List[Facet], List[set], List[Tuple[int, int]]]:
    """Facets of the hull of lex-sorted 3-dimensional points, the normals of those
    through each point, and the ridges, as index pairs i < j, by gift wrapping in exact
    integers.  The first facet is a supporting plane through pts[0], which is lex-least
    and so a vertex.  A facet holds every point on its plane; its ridges are the pairs of
    its hull cycle, with a coordinate on which the normal is nonzero dropped, and they are
    the polytope's edges.  The first facet takes up to O(V^2) planes through pts[0], each
    tested on all V points.  Each facet is processed as soon as a wrap finds it, and every
    ridge counts the found facets that hold it.  A ridge is turned into the facet beyond
    it only while one found facet holds it, when that facet is still unknown, so each
    turn finds a new facet: F - 1 turns of O(V) plane tests.  The points off a facet are
    listed, from the heights and level kept with it, when a ridge of it is first turned,
    so a facet none of whose ridges is turned lists none.  None when coplanar."""
    ax, ay, az = pts[0]
    for (bx, by, bz), (cx, cy, cz) in itertools.combinations(pts[1:], 2):
        bx, by, bz, cx, cy, cz = bx - ax, by - ay, bz - az, cx - ax, cy - ay, cz - az
        n = (by * cz - bz * cy, bz * cx - bx * cz, bx * cy - by * cx)
        side = _supporting_side(n, n[0] * ax + n[1] * ay + n[2] * az, pts) if any(n) else 0
        if side:
            break
    else:
        return [], [], []
    facets: List[Facet] = []
    on_facets: List[set] = [set() for _ in pts]
    holders: Dict[Tuple[int, int], int] = {}  # ridge -> the found facets that hold it
    # per found facet: its ridges not yet looked at, its heights and level, and the
    # points off it once listed
    found: List[list] = []
    n, i = (n if side > 0 else tuple(-x for x in n)), 0  # a new facet's normal, a point on it
    while n is not None:
        u, _ = _primitive(n)
        u0, u1, u2 = u
        heights = [u0 * x + u1 * y + u2 * z for x, y, z in pts]
        level = heights[i]
        on = [v for v, h in enumerate(heights) if h == level]
        for v in on:
            on_facets[v].add(u)
        facets.append(Facet(u, -level, tuple(on)))
        k = 0 if u0 else 1 if u1 else 2  # a coordinate on which the normal is nonzero
        flat = {pts[v][:k] + pts[v][k + 1 :]: v for v in on}
        cycle = [flat[p] for p in _hull_cycle(sorted(flat))]
        size = len(cycle)
        ridges = []  # each with the index of a point of the facet off it, for the wrap
        for j in range(size):
            ia, ib = cycle[j], cycle[j + 1 - size]
            ridge = (ia, ib) if ia < ib else (ib, ia)
            holders[ridge] = holders.get(ridge, 0) + 1
            ridges.append((ridge, cycle[j + 2 - size]))
        found.append([iter(ridges), heights, level, None])
        # the next ridge, newest facet first, that no second found facet holds
        n = None
        while found and n is None:
            entry = found[-1]
            ridges_left, facet_heights, facet_level, off = entry
            for (ia, ib), q in ridges_left:
                if holders[ia, ib] == 1:
                    if off is None:
                        off = entry[3] = [p for p, h in zip(pts, facet_heights) if h != facet_level]
                    n, i = _wrap_ridge(pts[ia], pts[ib], pts[q], off), ia
                    break
            else:
                found.pop()
    return facets, on_facets, list(holders)


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
    return "v" + "_".join(map(str, v))


def _surface_id(a: IntVec, b: IntVec) -> str:
    lo, hi = sorted((a, b))
    return "s" + "_".join(str(x) for x in lo) + "__" + "_".join(str(x) for x in hi)


def _require_delzant(p: LatticePolytope) -> None:
    if not p.delzant:
        raise PreconditionError("fixed_data_from_polytope needs a Delzant polytope")


def _edge_line_refusal(p: LatticePolytope, x: IntVec) -> Optional[str]:
    """Why the checked 3-D direction x is not generated: the refusal text of the first
    edge line of p orthogonal to x, one dot product per line, or None."""
    a, b, c = x
    for (d0, d1, d2), tail in p._edge_lines:
        if a * d0 + b * d1 + c * d2 == 0:
            return f"direction {x}{tail}"
    return None


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

    In dimension 3 a direction orthogonal to an edge is refused before any
    height with the text of ``_edge_line_refusal``, which names the lowest-index
    edge it fixes.  Otherwise only the V heights <xi, v> are dot products: an edge
    of lattice length l from v_i to v_j has <xi, d> = (H_j - H_i) / l exactly,
    read from the polytope's edge table, and a vertex's weights come from its
    unpacked (edge, sign) slots.  A gradient edge the polytope keeps is reused;
    every component and dataset is built, by position, and checked anew.
    """
    x = _ivec(tuple(xi))
    if math.gcd(*x) != 1:
        raise StructuralError(f"direction {x} is not primitive")
    if len(x) != p.dim:
        raise PreconditionError(f"direction has length {len(x)}, polytope dim {p.dim}")
    _require_delzant(p)
    if p.dim == 2:
        a, b = x
        heights = [a * v0 + b * v1 for v0, v1 in p.vertices]
    else:
        refusal = _edge_line_refusal(p, x)
        if refusal is not None:
            raise UnsupportedDirectionError(refusal)
        a, b, c = x
        heights = [a * v0 + b * v1 + c * v2 for v0, v1, v2 in p.vertices]
    ends = p._edge_ends
    pairings = [(heights[j] - heights[i]) // length for i, j, length in ends]

    absorbed = {}
    components: List[FixedComponent] = []
    if 0 in pairings:  # a fixed edge of a polygon; in dimension 3 its line refused above
        for k, ((i, j, length), pairing) in enumerate(zip(ends, pairings)):
            if pairing != 0:
                continue
            # xi is orthogonal to the primitive d_e, so xi = ±J d_e, and the other
            # edge at either end, which makes a lattice basis with d_e, pairs to ±1
            w = next(sign * pairings[m] for m, sign in p._slots[i] if m != k)
            sid = _surface_id(p.vertices[i], p.vertices[j])
            # genus 0, the normal degree and the area, by position
            selfint = boundary_selfint_2d(p, p.edges[k])
            components.append(FixedComponent(sid, SURFACE, heights[i], (w,), 0, (selfint,), length))
            absorbed[i] = sid
            absorbed[j] = sid

    # a Delzant vertex has dim (edge, sign) slots; in dimension 3 none is absorbed
    if p.dim == 2:
        for i, (vid, ((k, s), (m, t))) in enumerate(zip(p._vertex_ids, p._slots)):
            if i not in absorbed:
                w, z = s * pairings[k], t * pairings[m]
                weights = (w, z) if w <= z else (z, w)
                components.append(FixedComponent(vid, POINT, heights[i], weights))
    else:
        for vid, h, ((k, s), (m, t), (n, r)) in zip(p._vertex_ids, heights, p._slots):
            weights = tuple(sorted((s * pairings[k], t * pairings[m], r * pairings[n])))
            components.append(FixedComponent(vid, POINT, h, weights))
    components.sort(key=component_order)

    ids = p._vertex_ids
    if absorbed:
        ids = [absorbed.get(i, vid) for i, vid in enumerate(ids)]
    keys = []
    for (i, j, _length), pairing in zip(ends, pairings):
        if pairing > 0:
            keys.append((ids[i], ids[j], pairing))
        elif pairing < 0:
            keys.append((ids[j], ids[i], -pairing))
    # a generated edge has no interior points, so its key sorts as edge_order does
    keys.sort()
    kept = p._gradient_edges
    edges: List[GradientEdge] = []
    for key in keys:
        edge = kept.get(key)
        if edge is None:
            edge = kept[key] = GradientEdge(*key)
        edges.append(edge)

    # half_dim, components, edges and the relative Fano and Fano flags, by position
    return FixedPointData(p.dim, tuple(components), tuple(edges), p.reflexive, p.reflexive)


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
    """Graph of the fixed points of (P, xi), edges labelled by weight, for a
    direction whose fixed points are all isolated.

    Weight-1 gradient spheres are retained with label 1.  A direction that
    fixes a boundary sphere is refused: the sphere is no vertex, so the graph
    would miss it and the extremum it holds.  Every other direction has a
    unique lowest and highest fixed point, the graph's ``ends()``.
    """
    if p.dim != 2:
        raise PreconditionError("karshon_graph applies to polygons")
    data = fixed_data_from_polytope(p, xi)
    if data.surfaces():
        raise PreconditionError(
            f"karshon_graph needs isolated fixed points; direction {tuple(xi)} "
            f"fixes a boundary sphere"
        )
    return LabelledGraph(vertices=data.points(), edges=data.edges)


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
                    f"{a.H} admit other points {offenders} below",
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
            f"boundary divisor {e.key} has area {area} > 3",
            subject=e.key,
        )

    # us: restrictions at points with weights {-1, n}, n >= 2
    for c in twins:
        gap = c.H - h_min
        if gap > 3:
            report.flag("us", f"{c.id}: H - H_min = {gap} > 3", subject=c.id)
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
                    f"{gap}",
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
                f"H range [{h_min}, {h_max}] "
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
    """Primitive vectors of max-norm <= bound, one per +-pair, in lex order.

    The cap counts all (2*bound+1)^dim integer vectors, but only those whose
    first nonzero entry is positive are built: more leading zeros first, then
    by that entry and the rest."""
    if bound < 1:
        raise PreconditionError("bound must be at least 1")
    candidates = (2 * bound + 1) ** dim
    if candidates > MAX_DIRECTION_CANDIDATES:
        raise PreconditionError(
            f"bound {bound} gives {candidates} candidate directions in dimension "
            f"{dim}; at most {MAX_DIRECTION_CANDIDATES} are scanned"
        )
    span = range(-bound, bound + 1)
    out: List[IntVec] = []
    for zeros in range(dim - 1, -1, -1):  # more leading zeros sort first
        head = (0,) * zeros
        for lead in range(1, bound + 1):
            for tail in itertools.product(span, repeat=dim - zeros - 1):
                if math.gcd(lead, *tail) == 1:
                    out.append((*head, lead, *tail))
    return out


@dataclass
class ScanItem:
    """One scanned direction: its (mutable) report, the localisation sum and,
    on relative Fano data, the weight-sum constant of its data, or why it is
    unsupported.  Its data are ``fixed_data_from_polytope(p, xi)`` on the scanned p."""

    xi: IntVec
    report: Report
    abbv_sum: Optional[Rational] = None
    weight_sum_constant: Optional[Rational] = None
    error: Optional[str] = None


def _apply(gt: IntVec, v: IntVec) -> IntVec:
    """g v, for the integer matrix g whose transpose gt is flattened row by row, in plain
    arithmetic."""
    if len(v) == 2:
        a, b, c, d = gt
        x, y = v
        return a * x + c * y, b * x + d * y
    a, b, c, d, e, f, g, h, i = gt
    x, y, z = v
    return a * x + d * y + g * z, b * x + e * y + h * z, c * x + f * y + i * z


def _images(ts: Sequence[IntVec], v: IntVec) -> List[IntVec]:
    """Each integer matrix of ts, flattened row by row, applied to v: one comprehension,
    with v unpacked once."""
    if len(v) == 2:
        x, y = v
        return [(a * x + b * y, c * x + d * y) for a, b, c, d in ts]
    x, y, z = v
    return [
        (a * x + b * y + c * z, d * x + e * y + f * z, g * x + h * y + i * z)
        for a, b, c, d, e, f, g, h, i in ts
    ]


def _outer_sums(u: Sequence[IntVec], es: Iterable[Sequence[IntVec]]) -> List[IntVec]:
    """For each e of es, sum_i u_i e_i^T flattened row by row: the matrix
    x -> sum_i <x, e_i> u_i.  One comprehension, with u unpacked once."""
    if len(u) == 2:
        (a0, a1), (b0, b1) = u
        return [
            (a0 * x0 + b0 * y0, a0 * x1 + b0 * y1, a1 * x0 + b1 * y0, a1 * x1 + b1 * y1)
            for (x0, x1), (y0, y1) in es
        ]
    (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = u
    return [
        (
            a0 * x0 + b0 * y0 + c0 * z0, a0 * x1 + b0 * y1 + c0 * z1, a0 * x2 + b0 * y2 + c0 * z2,
            a1 * x0 + b1 * y0 + c1 * z0, a1 * x1 + b1 * y1 + c1 * z1, a1 * x2 + b1 * y2 + c1 * z2,
            a2 * x0 + b2 * y0 + c2 * z0, a2 * x1 + b2 * y1 + c2 * z1, a2 * x2 + b2 * y2 + c2 * z2,
        )
        for (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) in es
    ]


def _vertex_permutation(
    gt: IntVec, w0: IntVec, v: IntVec, points: Sequence[IntVec], index: Dict[IntVec, int]
) -> Optional[List[int]]:
    """The index of each point's image under x -> g(x - w0) + v, for the integer matrix g
    whose transpose gt is flattened row by row, or None when an image is no key of index.
    gt is unpacked once, and the shift v - g w0 computed once."""
    if len(v) == 2:
        a, b, c, d = gt
        x0, y0 = w0
        s0, s1 = v[0] - a * x0 - c * y0, v[1] - b * x0 - d * y0
        images = [index.get((a * x + c * y + s0, b * x + d * y + s1)) for x, y in points]
    else:
        a, b, c, d, e, f, g, h, i = gt
        x0, y0, z0 = w0
        s0 = v[0] - a * x0 - d * y0 - g * z0
        s1 = v[1] - b * x0 - e * y0 - h * z0
        s2 = v[2] - c * x0 - f * y0 - i * z0
        images = [
            index.get(
                (a * x + d * y + g * z + s0, b * x + e * y + h * z + s1, c * x + f * y + i * z + s2)
            )
            for x, y, z in points
        ]
    return None if None in images else images


def _lattice_automorphisms(p: LatticePolytope) -> List[IntVec]:
    """The linear part g in GL(n, Z) of every affine lattice automorphism
    x -> g(x - w0) + v of P, w0 its vertex 0 and v a vertex, the identity first, each
    stored as its transpose flattened row by row.  p must be Delzant.

    Two automorphisms with one linear part differ by a translation of P onto itself,
    which is none, so there are as many linear parts as automorphisms.  Sharing a scan
    over them is sound: with t = v - g w0, <g^T xi, w> = <xi, g w + t> - <xi, t>, so the
    data of g^T xi are those of xi with each vertex renamed and every H lowered by
    <xi, t>.  What a scan shares reads absolute H only on relative Fano data, which come
    from a reflexive P; its one interior lattice point, the origin, is fixed by every
    automorphism, so there t = 0 and g is a linear symmetry.

    The edge directions d_i leaving vertex 0 form a lattice basis, and the normals u_i
    of the facets through vertex 0, u_i the one that misses d_i, form its dual basis.
    An automorphism takes vertex 0 to a vertex v and each d_i to an edge direction e_i
    leaving v of the same lattice length, so g x = sum_i <u_i, x> e_i and
    g^T x = sum_i <x, e_i> u_i; it is kept when it maps every vertex to a vertex, and
    then permutes them.

    The orderings of vertex 0's own edges that give an automorphism form its stabiliser
    S.  The orbit of vertex 0 is closed under the vertex permutations of the
    automorphisms found so far, keeping for each vertex w reached the images of the d_i
    under one that takes vertex 0 to w.  A vertex still outside it is tested only when
    its sorted edge lengths, which an automorphism keeps, are vertex 0's, and the first
    ordering of its edges that gives an automorphism extends the orbit.  The linear
    parts are then, for each orbit vertex w with images e and each s in S, the one
    taking d_i to e_{s(i)}: all of them, as |orbit| * |S| = |group|.
    """
    vertices, edges = p.vertices, p.edges
    index = {w: k for k, w in enumerate(vertices)}

    def edges_at(v: int) -> Tuple[List[IntVec], List[int]]:
        slots = p._slots[v]
        return (
            [
                edges[k].direction if sign > 0 else tuple([-x for x in edges[k].direction])
                for k, sign in slots
            ],
            [edges[k].length for k, _ in slots],
        )

    def automorphisms(v: int) -> Iterator[Tuple[Tuple[int, ...], IntVec, List[int]]]:
        """Each ordering s of the edges e at v, with lengths those of the d_i, for which
        the g that takes d_i to e_{s(i)} is the linear part of an automorphism taking
        vertex 0 to v: s, g^T and the automorphism's vertex permutation."""
        directions, lengths = edges_at(v)
        for s in itertools.permutations(range(p.dim)):
            if [lengths[k] for k in s] == lengths0:
                (gt,) = _outer_sums(u0, [[directions[k] for k in s]])
                images = _vertex_permutation(gt, vertices[0], vertices[v], vertices, index)
                if images is not None:
                    yield s, gt, images

    d0, lengths0 = edges_at(0)
    u0 = [next(u for u in p._incidence[0] if sum(map(operator.mul, u, d))) for d in d0]
    stabiliser = list(automorphisms(0))  # the identity first
    generators = [(gt, images) for _s, gt, images in stabiliser[1:]]
    orbit = {0: d0}
    key0 = sorted(lengths0)
    for v in range(len(vertices)):
        if v in orbit or sorted([edges[k].length for k, _ in p._slots[v]]) != key0:
            continue
        first = next(automorphisms(v), None)
        if first is None:
            continue
        generators.append(first[1:])
        todo = list(orbit)
        while todo:
            x = todo.pop()
            for gt, images in generators:
                y = images[x]
                if y not in orbit:
                    orbit[y] = [_apply(gt, e) for e in orbit[x]]
                    todo.append(y)
    getters = [operator.itemgetter(*s) for s, _gt, _images in stabiliser]
    return _outer_sums(u0, [get(e) for e in orbit.values() for get in getters])


def scan_directions(p: LatticePolytope, bound: int) -> Iterator[ScanItem]:
    """Report on every primitive direction of max-norm <= bound.

    Directions are taken up to sign and enumerated lexicographically.  For
    each, ``validate`` reports on its data and the localisation sum and, on
    relative Fano data, the weight-sum constant are computed.  For polygons in
    the del Pezzo class the lemma suite also runs on every direction; on a
    non-generic one, which fixes a boundary sphere, it skips itself with a note.

    An affine lattice automorphism x -> g x + t of P, with g in GL(n, Z), turns the
    data of xi into those of g^T xi with each vertex w renamed g^-1 (w - t) and every
    H lowered by <xi, t>, since <g^T xi, w> = <xi, g w + t> - <xi, t>.  A shared item
    reads absolute H only on relative Fano data, from a reflexive P, whose
    automorphisms all fix its one interior lattice point, the origin: there t = 0.
    So the first direction of each orbit {g^T xi} is generated and checked, and if
    its report holds no violation and no inconclusive record, whose text would name
    ids, each later member gets its own copy of that report and the same sums, and
    no data are generated for it.  -xi is no orbit member: it gives reversed data,
    not renamed ones.  The linear parts g are found by ``_lattice_automorphisms``
    when the first report that may be shared appears.  Every other direction is
    checked in full.  A representative's images g^T xi come from one comprehension
    over the stored transposes.

    The Delzant precondition is checked once, after the bound and before the first
    item.  A 3-D direction that fixes an edge is refused by ``_edge_line_refusal``,
    the text ``fixed_data_from_polytope`` raises, with no exception: the scan built
    it with plain ints, gcd 1 and the polytope's dimension.  Its text names
    coordinates, so it is not shared; nor is it ever a pending member, since
    <g^T xi, d> = <xi, g d> and g permutes the edge lines.
    """
    directions = primitive_directions(p.dim, bound)
    _require_delzant(p)
    is_delpezzo = _is_delpezzo(p)
    refuses = p.dim == 3
    abbv_sum = abbv_sum_4d if p.dim == 2 else abbv_sum_6d
    symmetries = None
    shared = {}  # a later orbit member -> its representative's notes and sums
    for xi in directions:
        sums = shared.pop(xi, None)
        if sums is not None:
            notes, total, constant = sums
            yield ScanItem(xi, Report(notes=list(notes)), total, constant)
            continue
        if refuses:
            refusal = _edge_line_refusal(p, xi)
            if refusal is not None:
                yield ScanItem(xi, Report(), error=refusal)
                continue
        data = fixed_data_from_polytope(p, xi)
        report = validate(data)
        if is_delpezzo:
            report.extend(_lemma_checks(data))
        total = abbv_sum(data)
        constant = weight_sum_constant(data) if data.relative_fano else None
        # once the search has found no symmetry, there is nothing to share
        if symmetries != [] and report.ok and not report.inconclusive:
            if symmetries is None:
                symmetries = _lattice_automorphisms(p)[1:]
            sums = (tuple(report.notes), total, constant)
            for image in _images(symmetries, xi):
                # later in the scan's lex order, so also with a positive leading entry
                if image > xi:
                    shared[image] = sums
        yield ScanItem(xi, report, total, constant)
