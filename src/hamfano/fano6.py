"""Six-dimensional analyses of fixed-point data.

Graph of fixed surfaces and its genus subgraphs, reflectivity of the
Karshon graph of the symplectic fibre, the two fibre-graph correspondence
cases, maximal downward chains and their Fano restrictions, type-A/B/C
accounting for a four-dimensional minimum with a point maximum, the cycle
and isotropy inequalities, and the small-Hamiltonian localisation suite.

Pass/fail verdicts are exact; wherever a hypothesis cannot be certified
from the data alone the verdict is an explicit "inconclusive" rather than
a silent pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .dh import dh_function_toric, reduced_volume
from .fixed_data import (
    FOURFOLD,
    POINT,
    SURFACE,
    FixedComponent,
    FixedPointData,
    GradientEdge,
    Rational,
    _extreme_ids,
    edge_order,
    edge_order_violation,
    extremal,
    format_rational,
)
from .graphs import (
    LabelledGraph,
    first_isomorphism,
    is_mapping_isomorphism,
    nontrivial_involutions,
)
from .localization import _beta_term, _sum_quotients, abbv_sum_6d, alpha, beta
from .reports import (
    InconsistencyError,
    PreconditionError,
    Report,
    StructuralError,
)
from .toric import LatticePolytope, _is_delpezzo


class IncompleteDataError(StructuralError):
    """A required continuation edge is absent from the dataset."""


# -- graph of fixed surfaces ---------------------------------------------------


def surface_graph(data: FixedPointData) -> Tuple[LabelledGraph, Report]:
    """Graph over the fixed surfaces with isotropy-4-manifold edges.

    Checks along the way: at most two isotropy edges per surface, the
    degree count deg(v) = #{|w| > 1} at positive-genus surfaces, genus
    constancy along connected components, and that an edge of weight n
    consumes a weight n below and -n above.
    """
    if data.half_dim != 3:
        raise PreconditionError("surface_graph applies to 6-dimensional data")
    min_id, max_id = extremal(data)
    if data.component(min_id).kind != SURFACE or data.component(max_id).kind != SURFACE:
        raise PreconditionError("surface_graph needs both extrema to be surfaces")
    report = Report()
    surfaces = data.surfaces()
    ids = {c.id for c in surfaces}
    edges = tuple(
        e for e in data.edges if e.bottom in ids and e.top in ids and e.weight >= 2
    )
    graph = LabelledGraph(vertices=surfaces, edges=edges, v_min=min_id, v_max=max_id)
    for e in graph.edges:  # the canonical order, not the file's
        bot, top = data.component(e.bottom), data.component(e.top)
        if e.weight not in bot.weights:
            report.flag(
                "edge-weight",
                f"edge {e.key}: bottom surface lacks the weight {e.weight}",
                subject=e.key,
            )
        if -e.weight not in top.weights:
            report.flag(
                "edge-weight",
                f"edge {e.key}: top surface lacks the weight {-e.weight}",
                subject=e.key,
            )

    for c in surfaces:
        deg = graph.degree(c.id)
        if deg > 2:
            report.flag(
                "degree",
                f"{c.id}: {deg} isotropy 4-manifolds contain this surface; "
                f"at most two can",
                subject=c.id,
            )
        if c.genus > 0:
            big = sum(1 for w in c.weights if abs(w) > 1)
            if deg != big:
                report.flag(
                    "degree",
                    f"{c.id}: degree {deg} in the surface graph, but "
                    f"{big} weight{'' if big == 1 else 's'} of modulus > 1",
                    subject=c.id,
                )

    for comp in graph.connected_components():
        genera = sorted({graph.vertex(v).genus for v in comp})
        if len(genera) > 1:
            report.flag(
                "genus-constancy",
                f"connected component {comp} mixes genera {genera}",
            )
    return graph, report


def reflective_check(q: LabelledGraph) -> bool:
    """True iff the graph admits a non-identity involution preserving H and
    all weight labels.  When it does, the extremal weights must be {1,1}
    and {-1,-1}; data violating that is rejected as impossible."""
    reflective = next(nontrivial_involutions(q), None) is not None
    if reflective:
        if q.v_min is not None and q.vertex(q.v_min).sorted_weights() != (1, 1):
            raise InconsistencyError(
                f"reflective graph has minimum weights "
                f"{list(q.vertex(q.v_min).sorted_weights())} instead of {{1,1}}"
            )
        if q.v_max is not None and q.vertex(q.v_max).sorted_weights() != (-1, -1):
            raise InconsistencyError(
                f"reflective graph has maximum weights "
                f"{list(q.vertex(q.v_max).sorted_weights())} instead of {{-1,-1}}"
            )
    return reflective


@dataclass
class Correspondence:
    case: int
    mapping: Dict[str, str]
    report: Report


def isotropy_part(q: LabelledGraph) -> LabelledGraph:
    """Forget weight-1 edges: isotropy spheres and 4-manifolds have weight >= 2,
    and only those edges are shared by the fibre graph and the surface graph."""
    return LabelledGraph(
        vertices=q.vertices,
        edges=tuple(e for e in q.edges if e.weight >= 2),
        v_min=q.v_min,
        v_max=q.v_max,
    )


def _graph_extremes(q: LabelledGraph) -> Tuple[str, str]:
    if q.v_min is not None and q.v_max is not None:
        return q.v_min, q.v_max
    lows, highs = _extreme_ids(q.vertices)
    if len(lows) != 1 or len(highs) != 1:
        raise PreconditionError("graph extremes are not unique")
    return lows[0], highs[0]


def fibre_correspondence(g: LabelledGraph, q: LabelledGraph) -> Correspondence:
    """Match the Karshon graph of the symplectic fibre against the graph of
    fixed surfaces.

    Case 2 (all positive-genus surfaces meet the fibre once): produce an
    isomorphism Q -> G_g preserving H, weights and edge labels and check
    that the number of positive-genus surfaces equals chi of the fibre.
    Case 1 (some surface meets the fibre twice): the non-extremal
    positive-genus count is chi/2 - 1, Q is reflective, and each of the
    two non-extremal components of Q maps isomorphically onto the
    non-extremal part of G_+.  Mappings are re-verified, not trusted.
    """
    report = Report()
    gplus = g.positive_genus()
    if not gplus.vertices:
        raise PreconditionError("no positive-genus surfaces in the surface graph")
    inter = {v.fibre_intersection for v in gplus.vertices}
    if None in inter:
        raise PreconditionError(
            "every positive-genus surface needs its fibre_intersection"
        )
    if not inter <= {1, 2}:
        raise PreconditionError(f"fibre intersections must be 1 or 2, got {inter}")
    chi = len(q.vertices)
    q_iso = isotropy_part(q)

    if inter == {1}:
        gmin, _ = _graph_extremes(g)
        genus = g.vertex(gmin).genus or 0
        gg = g.genus_part(genus)
        if len(gplus.vertices) != chi:
            report.flag(
                "count",
                f"{len(gplus.vertices)} positive-genus surfaces, but chi of the "
                f"fibre is {chi}",
            )
        mapping = first_isomorphism(q_iso, gg)
        if mapping is None:
            mismatch = _level_mismatch(q_iso, gg)
            report.flag("no-isomorphism", f"no isomorphism Q -> G_g: {mismatch}")
            return Correspondence(case=2, mapping={}, report=report)
        if not is_mapping_isomorphism(q_iso, gg, mapping):
            raise InconsistencyError("isomorphism search returned a non-isomorphism")
        return Correspondence(case=2, mapping=mapping, report=report)

    # case 1: a doubly-covering surface forces reflectivity
    if g.v_min is None or g.v_max is None:
        raise PreconditionError("surface graph lacks its extremal vertices")
    q_min, q_max = _graph_extremes(q)
    nonext_g = [
        v
        for v in gplus.vertices
        if v.id not in (g.v_min, g.v_max)
    ]
    if chi % 2 == 1 or len(nonext_g) != chi // 2 - 1:
        report.flag(
            "count",
            f"{len(nonext_g)} non-extremal positive-genus surfaces, expected "
            f"chi/2 - 1 = {format_rational(Fraction(chi, 2) - 1)}",
        )
    if not reflective_check(q):
        report.flag("reflectivity", "fibre graph admits no order-two symmetry")
        return Correspondence(case=1, mapping={}, report=report)
    q_nonext = q_iso.subgraph(lambda v: v.id not in (q_min, q_max))
    comps = q_nonext.connected_components()
    if len(comps) != 2:
        report.flag(
            "split",
            f"non-extremal part of Q has {len(comps)} components, expected 2",
        )
        return Correspondence(case=1, mapping={}, report=report)
    g_nonext = gplus.subgraph(lambda v: v.id not in (g.v_min, g.v_max))
    mapping: Dict[str, str] = {q_min: g.v_min, q_max: g.v_max}
    for comp in comps:
        part = q_nonext.subgraph(lambda v, comp=comp: v.id in comp)
        m = first_isomorphism(part, g_nonext)
        if m is None:
            report.flag(
                "no-isomorphism",
                f"component {comp} of Q does not match the non-extremal "
                f"positive-genus surfaces: {_level_mismatch(part, g_nonext)}",
            )
            return Correspondence(case=1, mapping={}, report=report)
        if not is_mapping_isomorphism(part, g_nonext, m):
            raise InconsistencyError("isomorphism search returned a non-isomorphism")
        mapping.update(m)
    return Correspondence(case=1, mapping=mapping, report=report)


def _level_mismatch(a: LabelledGraph, b: LabelledGraph) -> str:
    """Human-readable witness for a failed graph match."""
    akeys = sorted((v.H, v.sorted_weights()) for v in a.vertices)
    bkeys = sorted((v.H, v.sorted_weights()) for v in b.vertices)
    if akeys != bkeys:
        for ka, kb in itertools.zip_longest(akeys, bkeys):
            if ka != kb:
                return f"vertex invariants differ: {ka} vs {kb}"
    return "vertex invariants agree but no edge-compatible bijection exists"


# -- maximal downward chains ---------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """A maximal downward chain: points p_1..p_k and sphere weights w_1..w_{k-1}."""

    points: Tuple[str, ...]
    edge_weights: Tuple[int, ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise StructuralError("a chain has at least two fixed points")
        if len(self.edge_weights) != len(self.points) - 1:
            raise StructuralError("a chain of k points carries k-1 sphere weights")
        if any(w <= 1 for w in self.edge_weights):
            raise StructuralError("every sphere in a maximal downward chain has weight > 1")


def maximal_downward_chains(data: FixedPointData) -> List[Chain]:
    """One chain per edge of weight > 1, extended downward greedily.

    From the current lowest point, while some weight v < -1 remains, follow
    the edge of weight |v| downward (most negative weight first, then the
    lexicographically least continuation).  A missing continuation edge
    raises :class:`IncompleteDataError`.  Every edge followed must descend
    strictly in H, so a chain ends after at most one step per level; an
    edge that does not raises :class:`InconsistencyError`.
    """
    chains: List[Chain] = []
    seeds = sorted((e for e in data.edges if e.weight > 1), key=edge_order)
    for seed in seeds:
        points = [seed.top, _descend(data, seed)]
        weights = [seed.weight]
        while True:
            cur = data.component(points[-1])
            negs = sorted(w for w in cur.weights if w < -1)
            if not negs:
                break
            v = negs[0]
            candidates = sorted(
                (e for e in data.edges if e.top == cur.id and e.weight == -v),
                key=lambda e: e.bottom,
            )
            if not candidates:
                raise IncompleteDataError(
                    f"{cur.id} has weight {v} but no downward edge of weight {-v}"
                )
            nxt = candidates[0]
            points.append(_descend(data, nxt))
            weights.append(nxt.weight)
        chains.append(Chain(points=tuple(points), edge_weights=tuple(weights)))
    return chains


def _descend(data: FixedPointData, e: GradientEdge) -> str:
    """The bottom of e, once it is checked to lie strictly below the top."""
    if message := edge_order_violation(e, data.component(e.bottom), data.component(e.top)):
        raise InconsistencyError(f"{message}; no downward chain follows it")
    return e.bottom


def chainres_check(data: FixedPointData) -> Report:
    """Fano restrictions on maximal downward chains when dim(M_min) = 4.

    Every chain must have exactly two points joined by a weight-2 sphere,
    the lower one with weights {-1,-1,2} on level 0 and the upper one on a
    level >= 2; moreover no weight anywhere has modulus above 2.
    """
    if not data.fano:
        raise PreconditionError("chainres_check applies to symplectic Fano data")
    min_id, _ = extremal(data)
    if data.component(min_id).kind != FOURFOLD:
        raise PreconditionError("chainres_check needs a 4-dimensional minimum")
    report = Report()
    for chain in maximal_downward_chains(data):
        label = "->".join(chain.points)
        if len(chain.points) != 2:
            report.flag(
                "chainres", f"chain {label} has length {len(chain.points)}, not 2"
            )
            continue
        p1 = data.component(chain.points[0])
        p2 = data.component(chain.points[1])
        if chain.edge_weights[0] != 2:
            report.flag(
                "chainres",
                f"chain {label}: sphere weight {chain.edge_weights[0]}, expected 2",
            )
        if p2.sorted_weights() != (-1, -1, 2):
            report.flag(
                "chainres",
                f"chain {label}: lower point has weights {list(p2.sorted_weights())}, "
                f"expected [-1, -1, 2]",
                subject=p2.id,
            )
        if p2.H != 0:
            report.flag(
                "chainres",
                f"chain {label}: lower point sits on level {format_rational(p2.H)}, "
                f"expected 0",
                subject=p2.id,
            )
        if p1.H < 2:
            report.flag(
                "chainres",
                f"chain {label}: upper point sits on level {format_rational(p1.H)} < 2",
                subject=p1.id,
            )
    for c in data.ordered():
        for w in c.weights:
            if abs(w) > 2:
                report.flag(
                    "chainres",
                    f"{c.id}: weight {w} has modulus above 2",
                    subject=c.id,
                )
    return report


# -- type A/B/C accounting -----------------------------------------------------

TYPE_A = (-2, -1, 1)
TYPE_B = (-1, -1, 2)
TYPE_C = (-1, -1, 1)
MAX_TYPES = ((-1, -1, -1), (-2, -1, -1))


def type_abc_classify(data: FixedPointData) -> Tuple[int, int, int, Report]:
    """Classify non-extremal isolated points into the three admissible types.

    Requires Fano data with a 4-dimensional minimum and a point maximum.
    Checks the admissible maximum weights, the n_A/n_B balance forced by
    downward chains, and that every fixed surface sits on level 0 with
    weights {-1,1}.  The report notes b2(M_min) = number of isolated points.
    """
    if not data.fano:
        raise PreconditionError("type_abc_classify applies to symplectic Fano data")
    min_id, max_id = extremal(data)
    if data.component(min_id).kind != FOURFOLD:
        raise PreconditionError("type_abc_classify needs a 4-dimensional minimum")
    if data.component(max_id).kind != POINT:
        raise PreconditionError("type_abc_classify needs the maximum to be a point")
    report = Report()
    max_ws = data.component(max_id).sorted_weights()
    if max_ws not in MAX_TYPES:
        report.flag(
            "listofweights",
            f"{max_id}: maximum weights {list(max_ws)} are neither "
            f"[-1,-1,-1] nor [-1,-1,-2]",
            subject=max_id,
        )
    n_a = n_b = n_c = 0
    for c in data.ordered():
        if c.id in (min_id, max_id):
            continue
        if c.kind == POINT:
            ws = c.sorted_weights()
            if ws == TYPE_A:
                n_a += 1
            elif ws == TYPE_B:
                n_b += 1
            elif ws == TYPE_C:
                n_c += 1
            else:
                report.flag(
                    "listofweights",
                    f"{c.id}: weights {list(ws)} are not of type A {{1,-1,-2}}, "
                    f"B {{2,-1,-1}} or C {{1,-1,-1}}",
                    subject=c.id,
                )
        elif c.kind == SURFACE:
            if c.H != 0 or c.sorted_weights() != (-1, 1):
                report.flag(
                    "surface-level",
                    f"{c.id}: fixed surface must sit on level 0 with weights "
                    f"{{-1,1,0}}, got H = {format_rational(c.H)}, "
                    f"weights {list(c.sorted_weights())}",
                    subject=c.id,
                )
        else:
            report.flag(
                "fourfold",
                f"{c.id}: unexpected non-extremal fourfold",
                subject=c.id,
            )
    if max_ws == (-1, -1, -1) and n_a != n_b:
        report.flag(
            "nAnB", f"maximum of type (-1,-1,-1) forces n_A = n_B, got {n_a} != {n_b}"
        )
    if max_ws == (-2, -1, -1) and n_a + 1 != n_b:
        report.flag(
            "nAnB",
            f"maximum of type (-1,-1,-2) forces n_A + 1 = n_B, got "
            f"{n_a} + 1 != {n_b}",
        )
    report.note(f"b2(M_min) = {len(data.points())}")
    return n_a, n_b, n_c, report


def build_04_data(
    max_type: Sequence[int], n_a: int, n_b: int, n_c: int
) -> FixedPointData:
    """Assemble the fixed-point dataset with a del Pezzo minimum, a point
    maximum of the given type and the prescribed type-A/B/C counts.

    Hamiltonian values follow the weight sum formula; each type-A point is
    chained to a type-B point by a weight-2 sphere, and a maximum of type
    {-1,-1,-2} consumes one further type-B point.
    """
    mt = tuple(sorted(max_type))
    if mt not in MAX_TYPES:
        raise PreconditionError(f"maximum type must be one of {MAX_TYPES}, got {mt}")
    comps = [
        FixedComponent(
            id="min",
            kind=FOURFOLD,
            H=-1,
            weights=(1,),
            b2=n_a + n_b + n_c + 1,
        ),
        FixedComponent(id="max", kind=POINT, H=-sum(mt), weights=mt),
    ]
    comps += [
        FixedComponent(id=f"a{i}", kind=POINT, H=2, weights=TYPE_A)
        for i in range(n_a)
    ]
    comps += [
        FixedComponent(id=f"b{i}", kind=POINT, H=0, weights=TYPE_B)
        for i in range(n_b)
    ]
    comps += [
        FixedComponent(id=f"c{i}", kind=POINT, H=1, weights=TYPE_C)
        for i in range(n_c)
    ]
    edges = [
        GradientEdge(bottom=f"b{i}", top=f"a{i}", weight=2) for i in range(n_a)
    ]
    if mt == (-2, -1, -1):
        if n_b != n_a + 1:
            raise PreconditionError("a {-1,-1,-2} maximum needs n_B = n_A + 1")
        edges.append(GradientEdge(bottom=f"b{n_a}", top="max", weight=2))
    elif n_b != n_a:
        raise PreconditionError("a {-1,-1,-1} maximum needs n_B = n_A")
    return FixedPointData(
        half_dim=3,
        components=tuple(comps),
        edges=tuple(edges),
        relative_fano=True,
        fano=True,
    )


def enumerate_04() -> List[dict]:
    """All admissible (max type, n_A, n_B, n_C) rows with positive volume.

    The volume of the level-0 reduced space is evaluated through
    reduced_volume on the assembled dataset; rows with non-positive volume
    are excluded.  The total count never exceeds 8 (so b2(M_min) <= 9) and
    the bound is attained; both facts are re-asserted here.
    """
    rows: List[dict] = []
    for mt, vol0 in (((-1, -1, -1), 9), ((-2, -1, -1), 8)):
        for n_a in itertools.count():
            if 2 * n_a >= vol0:
                break
            for n_c in itertools.count():
                if 2 * n_a + n_c >= vol0:
                    break
                n_b = n_a if mt == (-1, -1, -1) else n_a + 1
                data = build_04_data(mt, n_a, n_b, n_c)
                vol = reduced_volume(data, 0)
                if vol <= 0:
                    continue
                rows.append(
                    {
                        "max_type": list(mt),
                        "n_A": n_a,
                        "n_B": n_b,
                        "n_C": n_c,
                        "volume": vol,
                        "total": n_a + n_b + n_c,
                        "b2_min": n_a + n_b + n_c + 1,
                    }
                )
    top = max(row["total"] for row in rows)
    if top != 8 or any(row["b2_min"] > 9 for row in rows):
        raise InconsistencyError("enumeration bound violated; implementation bug")
    return rows


def semifree_check(data: FixedPointData) -> Report:
    """Semi-freeness when dim(M_min) = 4 and dim(M_max) >= 2: all weights
    have modulus 1 and level-0 components are surfaces with weights {-1,1}."""
    if not data.fano:
        raise PreconditionError("semifree_check applies to symplectic Fano data")
    min_id, max_id = extremal(data)
    if data.component(min_id).kind != FOURFOLD:
        raise PreconditionError("semifree_check needs a 4-dimensional minimum")
    if data.component(max_id).kind == POINT:
        raise PreconditionError("semifree_check needs dim(M_max) >= 2")
    report = Report()
    for c in data.ordered():
        for w in c.weights:
            if abs(w) > 1:
                report.flag(
                    "newref",
                    f"{c.id}: weight {w} contradicts semi-freeness",
                    subject=c.id,
                )
        if c.H == 0 and (c.kind != SURFACE or c.sorted_weights() != (-1, 1)):
            report.flag(
                "newref",
                f"{c.id}: level-0 component must be a surface with weights "
                f"{{-1,1,0}}",
                subject=c.id,
            )
    return report


def c1_of_surface(s: FixedComponent) -> int:
    """Pairing of c1(M) with a fixed surface: (2-2g) + n1 + n2."""
    if s.kind != SURFACE or len(s.weights) != 2:
        raise PreconditionError(f"{s.id}: needs a fixed surface with two weights")
    if s.normal_degrees is None:
        raise PreconditionError(f"{s.id}: needs both normal degrees")
    return (2 - 2 * s.genus) + s.normal_degrees[0] + s.normal_degrees[1]


# -- cycle and isotropy inequalities -------------------------------------------

# a surface's (weight, normal degree) pair; the degree is None when unknown
_Slot = Tuple[int, Optional[int]]
_FreeSlots = Dict[str, List[_Slot]]
_Matching = List[Tuple[GradientEdge, Optional[Tuple[_Slot, _Slot]]]]


def _match_slots(data: FixedPointData) -> Tuple[_FreeSlots, _Matching]:
    """Match the isotropy 4-manifolds between positive-genus surfaces to weight slots.

    Each surface offers one (weight, normal degree) slot per weight.  The
    edges of weight >= 2 are taken in the canonical (bottom, top, weight)
    order, and an edge of weight w takes the first free slot of weight w at
    its bottom and of -w at its top, so the result does not depend on the
    order of the document.  Returns the slots left free at each surface and
    each edge with its two slots, or None when either weight is missing.
    """
    free = {
        c.id: list(zip(c.weights, c.normal_degrees or (None,) * len(c.weights)))
        for c in _positive_genus_surfaces(data)
    }
    matched = []
    for e in sorted(data.edges, key=edge_order):
        if e.bottom in free and e.top in free and e.weight >= 2:
            bot, top = _take(free[e.bottom], e.weight), _take(free[e.top], -e.weight)
            matched.append((e, None if bot is None or top is None else (bot, top)))
    return free, matched


def _take(slots: List[_Slot], w: int) -> Optional[_Slot]:
    """Remove and return the first slot of weight w, or None when there is none."""
    for j, slot in enumerate(slots):
        if slot[0] == w:
            return slots.pop(j)
    return None


def isotropy_edge_sum(e: GradientEdge) -> Fraction:
    """Recover n_bot + n_top for an isotropy 4-manifold from its interior
    fixed points: by the 4-dimensional localisation identity on it, the
    normal degrees of its two end surfaces sum to the sum of 1/(ab) over them."""
    return _sum_quotients((1, a * b) for a, b in e.interior_points)


def cycle_inequality(data: FixedPointData) -> Report:
    """Evaluate the cycle of isotropy inequalities around the genus-g surfaces.

    Each isotropy edge yields n_bot + n_top as the localisation sum over its
    interior fixed points, checked against the stored degrees and against
    non-positivity.  Consecutive surfaces joined only by weight-1 spheres are
    constrained through the stored degree pair.  When every surface's two
    weights are matched and the connections close into a single cycle, the
    cyclic sum certifies a witness surface with c1 <= 2 - 2g; an open chain
    is reported as inconclusive, not as a violation.
    """
    if data.half_dim != 3:
        raise PreconditionError("cycle_inequality applies to 6-dimensional data")
    min_id, max_id = extremal(data)
    min_c, max_c = data.component(min_id), data.component(max_id)
    if any(c.kind != SURFACE or c.genus < 1 for c in (min_c, max_c)):
        raise PreconditionError("cycle_inequality needs positive-genus extrema")
    report = Report()
    g = min_c.genus
    plus = _positive_genus_surfaces(data)
    free, matched = _match_slots(data)

    connections: List[Tuple[str, str, Optional[Rational]]] = []
    for e, slots in matched:
        recovered = isotropy_edge_sum(e)
        if recovered > 0:
            report.flag(
                "isotropy-sum",
                f"edge {e.key}: interior points give n_bot + n_top = "
                f"{format_rational(recovered)} > 0",
                subject=e.key,
            )
        if slots is None:
            report.flag(
                "edge-weight",
                f"edge {e.key}: surfaces lack the weights +-{e.weight}",
                subject=e.key,
            )
        else:
            (_, n_bot), (_, n_top) = slots
            if n_bot is not None and n_top is not None and n_bot + n_top != recovered:
                report.flag(
                    "fourcor-mismatch",
                    f"edge {e.key}: stored degrees give n_bot + n_top = "
                    f"{n_bot + n_top}, interior points give "
                    f"{format_rational(recovered)}",
                    subject=e.key,
                )
        connections.append((e.bottom, e.top, recovered))

    # weight-1 spheres: they must reach an extremal surface, where the
    # isotropy inequality constrains the stored degree pair; an unknown link
    # is a connection without a value, which leaves the cycle open
    for c in plus:
        if c.id in (min_id, max_id):
            continue
        for w, deg_c in free[c.id]:
            if abs(w) != 1:
                report.flag(
                    "unmatched-weight",
                    f"{c.id}: weight {w} has no isotropy edge",
                    subject=c.id,
                )
                continue
            ext_id = min_id if w < 0 else max_id
            ext_slot = _take(free[ext_id], -w)
            if ext_slot is None:
                # extremal surface has no matching +-1 weight slot left
                report.undecided(
                    "weight-one-link",
                    f"{c.id}: no weight-{-w} slot remains at {ext_id}",
                    subject=c.id,
                )
                connections.append((ext_id, c.id, None))
                continue
            s = _weight_one_link(report, ext_id, c.id, ext_slot[1], deg_c, subject=c.id)
            connections.append((ext_id, c.id, s))

    # a weight-1 sphere may join the two extrema directly
    if [w for w, _d in free[min_id]] == [1] and [w for w, _d in free[max_id]] == [-1]:
        s = _weight_one_link(report, min_id, max_id, free[min_id][0][1], free[max_id][0][1])
        connections.append((min_id, max_id, s))

    ends = [v for a, b, _s in connections for v in (a, b)]
    values = [s for _a, _b, s in connections]
    if None in values or any(ends.count(c.id) != 2 for c in plus):
        report.undecided(
            "open-chain",
            "the isotropy connections do not close into a cycle; "
            "no conclusion on c1 of a genus-g surface",
        )
        return report

    total = sum(values, Fraction(0))
    if total > 0:
        report.flag(
            "cycle-sum",
            f"cyclic sum of isotropy contributions is {format_rational(total)} > 0",
        )
        return report
    if {c.genus for c in plus} != {g}:
        report.undecided(
            "witness",
            "positive-genus surfaces of mixed genus; the cycle argument "
            "certifies nothing here",
        )
        return report
    try:
        c1, witness = min((c1_of_surface(c), c.id) for c in plus)
    except PreconditionError:
        report.undecided("witness", "normal degrees missing for the witness")
        return report
    report.note(f"witness: {witness} with c1 = {c1} <= {2 - 2 * g}")
    if c1 > 2 - 2 * g:
        report.flag(
            "aim-conclusion",
            f"cyclic sum closes but the best surface has c1 = {c1} > "
            f"{2 - 2 * g}; impossible data",
            subject=witness,
        )
    return report


def _weight_one_link(
    report: Report, a: str, b: str, deg_a: Optional[int], deg_b: Optional[int], subject=None
) -> Optional[int]:
    """The isotropy inequality c1(L1) + c1(L2) <= 0 on a weight-1 link a ~ b: the
    degree sum, or None (inconclusive; the cycle stays open) when one is missing."""
    if deg_a is None or deg_b is None:
        report.undecided("weight-one-link", f"link {a} ~ {b}: normal degrees missing", subject)
        return None
    if deg_a + deg_b > 0:
        report.flag(
            "isotropy-inequality", f"link {a} ~ {b}: c1(L1) + c1(L2) = {deg_a + deg_b} > 0", subject
        )
    return deg_a + deg_b


def _positive_genus_surfaces(data: FixedPointData) -> List[FixedComponent]:
    """In the canonical order, so the weight-1 slots go out the same for any file order."""
    return [c for c in data.surfaces() if c.genus > 0]


def _chain_term(c: FixedComponent) -> Tuple[int, int]:
    """A positive-genus surface's term (1 + 1/(w1 w2)) chi(c) of the chain
    estimate, as the integer quotient ((w1 w2 + 1)(2 - 2g), w1 w2)."""
    w1, w2 = c.weights
    return (w1 * w2 + 1) * (2 - 2 * c.genus), w1 * w2


# -- small Hamiltonian suite -----------------------------------------------------


def nosphere_check(data: FixedPointData) -> Report:
    """Fixed spheres live on levels >= 0 when M_min has positive genus."""
    if not data.relative_fano:
        raise PreconditionError("nosphere_check applies to relative Fano data")
    min_id, _ = extremal(data)
    min_c = data.component(min_id)
    if min_c.kind != SURFACE or min_c.genus < 1:
        raise PreconditionError("nosphere_check needs a positive-genus minimum")
    report = Report()
    for c in data.ordered():
        if c.kind == SURFACE and c.genus == 0 and c.H < 0:
            report.flag(
                "nosphere",
                f"{c.id}: fixed sphere on level {format_rational(c.H)} < 0",
                subject=c.id,
            )
    return report


def _chain_longeq(
    data: FixedPointData, comp: List[str], free: _FreeSlots, matched: _Matching, report: Report
) -> Optional[Fraction]:
    """Evaluate the chain form of the localisation estimate on one component.

    The right-hand side sums the term of each surface and the quotient
    ((n_bot + n_top)(w^2 - 1), w^2) of each isotropy edge in integers; both are
    symmetric, so no walk order is needed.  Returns None when a weight match or
    a degree is missing (reported as a violation or as inconclusive on the way).
    """
    edges = [(e, slots) for e, slots in matched if e.bottom in comp]
    for e, slots in edges:
        if slots is None:
            bot, top = data.component(e.bottom), data.component(e.top)
            if e.weight in bot.weights and -e.weight in top.weights:  # else surface_graph flags it
                report.flag(
                    "edge-weight",
                    f"edge between {e.bottom} and {e.top} does not match the surface weights",
                    subject=e.key,
                )
            return None
    surfaces = [c for c in data.surfaces() if c.id in comp]
    if len(comp) > 1 and len(edges) == len(comp) - 1:
        # a path: each end keeps the one slot that no isotropy edge took
        for c in surfaces:
            for w, _deg in free[c.id]:
                if abs(w) != 1:
                    report.flag(
                        "liapp",
                        f"{c.id}: chain endpoint has boundary weight {w}, "
                        f"modulus 1 expected",
                        subject=c.id,
                    )
    terms = [_chain_term(c) for c in surfaces]
    for e, ((_, n_bot), (_, n_top)) in edges:
        if n_bot is None or n_top is None:
            report.undecided(
                "chain", f"degrees missing along the edge between {e.bottom} and {e.top}"
            )
            return None
        w2 = e.weight * e.weight
        terms.append(((n_bot + n_top) * (w2 - 1), w2))
    return _sum_quotients(terms)


def small_hamiltonian_suite(data: FixedPointData) -> Report:
    """All exact checks available when the Hamiltonian range sits in [-3,3].

    Hypothesis failures (range, sphere levels) are reported separately from
    conclusion failures; a conclusion failing on data that satisfies every
    hypothesis and the localisation identity marks the data as impossible.
    Emits a witness surface of genus >= g with c1 <= 2-2g when it can.
    """
    if not data.relative_fano:
        raise PreconditionError("small_hamiltonian_suite applies to relative Fano data")
    min_id, max_id = extremal(data)
    min_c, max_c = data.component(min_id), data.component(max_id)
    for c in (min_c, max_c):
        if c.kind != SURFACE or c.genus < 1:
            raise PreconditionError(
                "small_hamiltonian_suite needs positive-genus extremal surfaces"
            )
    report = Report()
    g = min_c.genus
    lo, hi = data.h_min(), data.h_max()
    if lo < -3 or hi > 3:
        report.flag(
            "hyp-range",
            f"H range [{format_rational(lo)}, {format_rational(hi)}] not inside [-3,3]",
        )

    # sphere pre-check (nosphere) and sphere-level classification
    report.extend(nosphere_check(data))
    for c in data.ordered():
        if c.kind == SURFACE and c.genus == 0 and c.H >= 0:
            if c.H != 0 or c.sorted_weights() != (-1, 1):
                report.flag(
                    "sphere-level",
                    f"{c.id}: genus-0 surface must sit on level 0 with weights "
                    f"{{-1,1,0}}, got H = {format_rational(c.H)}, weights "
                    f"{list(c.sorted_weights())}",
                    subject=c.id,
                )
            elif c.normal_degrees is None:
                report.undecided(
                    "betapos-sphere", f"{c.id}: normal degrees missing", subject=c.id
                )
            else:
                b = beta(c)
                if b != -c1_of_surface(c):
                    raise InconsistencyError(
                        f"{c.id}: beta != -c1 for a level-0 sphere; implementation bug"
                    )
                if b > 0:
                    report.flag(
                        "betapos-sphere",
                        f"{c.id}: beta = {format_rational(b)} > 0, so c1 < 0 on a "
                        f"sphere violates the relative Fano condition",
                        subject=c.id,
                    )

    # (a) isolated weight moduli in {1, 2}; (b) alpha <= 0, which only makes
    # sense for points that already pass (a)
    for c in data.points():
        bad = [w for w in c.weights if abs(w) not in (1, 2)]
        for w in bad:
            report.flag(
                "isosimp",
                f"{c.id}: isolated weight {w} has modulus outside {{1,2}}",
                subject=c.id,
            )
        if not bad:
            a = alpha(c)
            if a > 0:
                report.flag(
                    "isolatedloc",
                    f"{c.id}: alpha = {format_rational(a)} > 0",
                    subject=c.id,
                )

    # (d) sum of beta over positive-genus surfaces, and the global identity;
    # only meaningful once every isolated weight is admissible
    plus = _positive_genus_surfaces(data)
    degrees_known = all(c.normal_degrees is not None for c in data.surfaces())
    weights_admissible = not any(v.code == "isosimp" for v in report.violations)
    if not weights_admissible:
        report.undecided(
            "bigloc", "inadmissible isolated weights; certificate not evaluated"
        )
    elif degrees_known:
        total = abbv_sum_6d(data)
        if total != 0:
            report.flag(
                "bigloc",
                f"localisation sum is {format_rational(total)}, not 0; "
                f"the data cannot come from a genuine action",
            )
        beta_plus = _sum_quotients(map(_beta_term, plus))
        if beta_plus < 0:
            report.flag(
                "betapos",
                f"sum of beta over positive-genus surfaces is "
                f"{format_rational(beta_plus)} < 0",
            )
    else:
        report.undecided(
            "betapos", "normal degrees missing on some surface; beta sum unknown"
        )

    # (e) chain form of the estimate, per component of the isotropy graph
    graph, graph_report = surface_graph(data)
    report.extend(graph_report)
    free, matched = _match_slots(data)
    for comp in graph.positive_genus().connected_components():
        rhs = _chain_longeq(data, comp, free, matched, report)
        if rhs is not None and rhs > 0:
            report.flag(
                "longeq",
                f"chain {comp}: estimate right-hand side "
                f"{format_rational(rhs)} > 0",
            )

    # (f) reflective branch
    if min_c.sorted_weights() == (1, 1) and max_c.sorted_weights() == (-1, -1):
        t = _sum_quotients(map(_chain_term, plus))
        if t > 4 * (2 - 2 * g):
            report.flag(
                "inclaim",
                f"reflective bound fails: {format_rational(t)} > {4 * (2 - 2 * g)}",
            )

    # witness emission
    if degrees_known and report.ok:
        c1, witness = min((c1_of_surface(c), c.id) for c in plus)
        wit_c = data.component(witness)
        report.note(
            f"witness: {witness} (genus {wit_c.genus}) with c1 = {c1} "
            f"<= {2 - 2 * g}"
        )
        if wit_c.genus < g or c1 > 2 - 2 * g:
            report.flag(
                "conclusion",
                f"hypotheses and localisation hold, yet no surface of genus >= {g} "
                f"has c1 <= {2 - 2 * g}; impossible data",
                subject=witness,
            )
    return report


def sphere_area_vs_fibre(
    data: FixedPointData,
    fibre: LatticePolytope,
    fibre_xi: Sequence[int],
) -> Report:
    """Fixed-sphere areas are bounded by the fibre slice length at their level.

    Equality is admissible only for spheres flagged as representing the
    fibre class."""
    if not _is_delpezzo(fibre):
        raise PreconditionError("the fibre must be a toric del Pezzo polygon")
    dh = dh_function_toric(fibre, fibre_xi)
    lo, hi = dh.domain
    report = Report()
    for c in data.ordered():
        if c.kind != SURFACE or c.genus != 0:
            continue
        if c.area is None:
            raise PreconditionError(f"{c.id}: fixed sphere must carry its area")
        if not (lo <= c.H <= hi):
            raise PreconditionError(
                f"{c.id}: level {format_rational(c.H)} outside the fibre range "
                f"[{format_rational(lo)}, {format_rational(hi)}]"
            )
        slice_len = dh(c.H)
        if c.area > slice_len:
            report.flag(
                "sphere-area",
                f"{c.id}: area {format_rational(c.area)} exceeds the fibre slice "
                f"{format_rational(slice_len)} at level {format_rational(c.H)}",
                subject=c.id,
            )
        elif c.area == slice_len and not c.fibre_class:
            report.flag(
                "sphere-area",
                f"{c.id}: area equals the fibre slice but the sphere is not "
                f"flagged as the fibre class",
                subject=c.id,
            )
    return report
