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
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .dh import dh_function_toric, reduced_volume
from .fixed_data import (
    FOURFOLD,
    POINT,
    SURFACE,
    FixedComponent,
    FixedPointData,
    GradientEdge,
    Rational,
    edge_order,
    edge_order_violation,
    extremal,
)
from .graphs import (
    LabelledGraph,
    _key,
    first_isomorphism,
    is_mapping_isomorphism,
    nontrivial_involutions,
)
from .localization import _sum_quotients, _term_6d, abbv_sum_6d, alpha, beta
from .reports import (
    InconsistencyError,
    PreconditionError,
    Report,
    StructuralError,
    value_type,
)
from .toric import LatticePolytope, _is_delpezzo


class IncompleteDataError(StructuralError):
    """A required continuation edge is absent from the dataset."""


_FLAGS = {"fano": "symplectic Fano", "relative_fano": "relative Fano"}


def _extrema(data: FixedPointData, name: str, flag=None) -> Tuple[FixedComponent, FixedComponent]:
    """The entry gate of every analysis of data, which returns the minimum and the
    maximum.  In this order it refuses an edge that does not climb, with the message
    validate flags it by, data that is not 6-dimensional, data without the flag
    (fano or relative_fano) the analysis needs, and extrema that are not unique."""
    for e in data.edges:
        if message := edge_order_violation(e, data.component(e.bottom), data.component(e.top)):
            raise InconsistencyError(message)
    if data.half_dim != 3:
        raise PreconditionError(f"{name} applies to 6-dimensional data")
    if flag is not None and not getattr(data, flag):
        raise PreconditionError(f"{name} applies to {_FLAGS[flag]} data")
    min_id, max_id = extremal(data)
    return data.component(min_id), data.component(max_id)


def _fourfold_minimum(data: FixedPointData, name: str) -> Tuple[FixedComponent, FixedComponent]:
    """The entry gate of an analysis of symplectic Fano data whose minimum is a
    del Pezzo fourfold: ``_extrema``, then the refusal of any other minimum."""
    min_c, max_c = _extrema(data, name, "fano")
    if min_c.kind != FOURFOLD:
        raise PreconditionError(f"{name} needs a 4-dimensional minimum")
    return min_c, max_c


def _positive_genus_extrema(
    data: FixedPointData, name: str, flag=None
) -> Tuple[FixedComponent, FixedComponent]:
    """The entry gate of an analysis of data whose extrema are positive-genus
    surfaces: ``_extrema``, then the refusal of any other extremum."""
    min_c, max_c = _extrema(data, name, flag)
    if any(c.kind != SURFACE or c.genus < 1 for c in (min_c, max_c)):
        raise PreconditionError(f"{name} needs positive-genus extremal surfaces")
    return min_c, max_c


def _on_level_zero(c: FixedComponent) -> bool:
    """Whether c is a fixed surface on level 0 with weights {-1,1}: where a fixed surface
    sits above a fourfold minimum, and a fixed sphere above a positive-genus one."""
    return c.kind == SURFACE and c.H == 0 and c.sorted_weights() == (-1, 1)


# -- graph of fixed surfaces ---------------------------------------------------


def surface_graph(data: FixedPointData) -> Tuple[LabelledGraph, Report]:
    """Graph over the fixed surfaces with isotropy-4-manifold edges.

    Checks along the way: at most two isotropy edges per surface, the
    degree count deg(v) = #{|w| > 1} at positive-genus surfaces, genus
    constancy along connected components, and that an edge of weight n
    consumes a weight n below and -n above.
    """
    min_c, max_c = _extrema(data, "surface_graph")
    if min_c.kind != SURFACE or max_c.kind != SURFACE:
        raise PreconditionError("surface_graph needs both extrema to be surfaces")
    report = Report()
    surfaces = data.surfaces()
    ids = {c.id for c in surfaces}
    edges = tuple(
        e for e in data.edges if e.bottom in ids and e.top in ids and e.weight >= 2
    )
    graph = LabelledGraph(vertices=surfaces, edges=edges)
    for e in graph.edges:  # the canonical order, not the file's
        for end, cid, w in (("bottom", e.bottom, e.weight), ("top", e.top, -e.weight)):
            if w not in data.component(cid).weights:
                message = f"edge {e.key}: {end} surface lacks the weight {w}"
                report.flag("edge-weight", message, subject=e.key)

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
    and {-1,-1} at its ends, :meth:`LabelledGraph.ends`; data violating that
    is rejected as impossible, the minimum checked first."""
    reflective = next(nontrivial_involutions(q), None) is not None
    if reflective:
        for end, v, w in zip(("minimum", "maximum"), q.ends(), (1, -1)):
            ws = q.vertex(v).sorted_weights()
            if ws != (w, w):
                raise InconsistencyError(
                    f"reflective graph has {end} weights {list(ws)} instead of {{{w},{w}}}"
                )
    return reflective


@dataclass
class Correspondence:
    case: int
    mapping: Dict[str, str]
    report: Report


def fibre_correspondence(g: LabelledGraph, q: LabelledGraph) -> Correspondence:
    """Match the Karshon graph of the symplectic fibre against the graph of
    fixed surfaces.

    Case 2 (all positive-genus surfaces meet the fibre once): produce an
    isomorphism Q -> G_g preserving H, weights and edge labels and check
    that the number of positive-genus surfaces equals chi of the fibre.
    Case 1 (some surface meets the fibre twice): the non-extremal
    positive-genus count is chi/2 - 1, Q is reflective, and each of the
    two non-extremal components of Q maps isomorphically onto the
    non-extremal part of G_+.  Both cases match through ``_matched``, which
    re-verifies each mapping rather than trusting it, and read the ends of
    G and Q off their vertices through :meth:`LabelledGraph.ends`.
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
    # forget weight-1 edges: isotropy spheres and 4-manifolds have weight >= 2,
    # and only those edges are shared by the fibre graph and the surface graph
    q_iso = replace(q, edges=tuple(e for e in q.edges if e.weight >= 2))

    if inter == {1}:
        g_min, _ = g.ends()
        genus = g.vertex(g_min).genus or 0
        gg = g.subgraph(lambda v: v.genus == genus)
        if len(gplus.vertices) != chi:
            report.flag(
                "count",
                f"{len(gplus.vertices)} positive-genus surfaces, but chi of the "
                f"fibre is {chi}",
            )
        mapping = _matched([("no isomorphism Q -> G_g", q_iso)], gg, {}, report)
        return Correspondence(case=2, mapping=mapping, report=report)

    # case 1: a doubly-covering surface forces reflectivity
    g_min, g_max = g.ends()
    q_min, q_max = q.ends()
    g_nonext = gplus.subgraph(lambda v: v.id not in (g_min, g_max))
    if chi % 2 == 1 or len(g_nonext.vertices) != chi // 2 - 1:
        report.flag(
            "count",
            f"{len(g_nonext.vertices)} non-extremal positive-genus surfaces, expected "
            f"chi/2 - 1 = {Fraction(chi, 2) - 1}",
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
    what = "component {} of Q does not match the non-extremal positive-genus surfaces"
    parts = ((what.format(c), q_nonext.subgraph(lambda v, c=c: v.id in c)) for c in comps)
    mapping = _matched(parts, g_nonext, {q_min: g_min, q_max: g_max}, report)
    return Correspondence(case=1, mapping=mapping, report=report)


def _matched(
    parts: Iterable[Tuple[str, LabelledGraph]],
    target: LabelledGraph,
    mapping: Dict[str, str],
    report: Report,
) -> Dict[str, str]:
    """Extend mapping by a re-verified isomorphism of each (what, part) onto
    target.  At the first part with none, flag ``no-isomorphism`` with what
    and a witness, the first differing (H, weights) invariants, and return {}."""
    for what, part in parts:
        found = first_isomorphism(part, target)
        if found is None:
            keys = itertools.zip_longest(*(sorted(map(_key, g.vertices)) for g in (part, target)))
            witness = next(
                (f"vertex invariants differ: {a} vs {b}" for a, b in keys if a != b),
                "vertex invariants agree but no edge-compatible bijection exists",
            )
            report.flag("no-isomorphism", f"{what}: {witness}")
            return {}
        if not is_mapping_isomorphism(part, target, found):
            raise InconsistencyError("isomorphism search returned a non-isomorphism")
        mapping.update(found)
    return mapping


# -- maximal downward chains ---------------------------------------------------


@value_type
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
    raises :class:`IncompleteDataError`.  The entry gate refuses first an edge
    that does not climb (:class:`InconsistencyError`), data that is not
    6-dimensional and tied extrema, so each edge followed descends strictly in
    H and a chain ends after at most one step per level.
    """
    _extrema(data, "maximal_downward_chains")
    chains: List[Chain] = []
    seeds = sorted((e for e in data.edges if e.weight > 1), key=edge_order)
    for seed in seeds:
        points = [seed.top, seed.bottom]
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
            points.append(nxt.bottom)
            weights.append(nxt.weight)
        chains.append(Chain(points=tuple(points), edge_weights=tuple(weights)))
    return chains


def chainres_check(data: FixedPointData) -> Report:
    """Fano restrictions on maximal downward chains when dim(M_min) = 4.

    Every chain must have exactly two points joined by a weight-2 sphere,
    the lower one with weights {-1,-1,2} on level 0 and the upper one on a
    level >= 2; moreover no weight anywhere has modulus above 2.
    """
    _fourfold_minimum(data, "chainres_check")
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
                f"chain {label}: lower point sits on level {p2.H}, "
                f"expected 0",
                subject=p2.id,
            )
        if p1.H < 2:
            report.flag(
                "chainres",
                f"chain {label}: upper point sits on level {p1.H} < 2",
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
# the type-B points each admissible maximum type consumes beyond the one
# under each type-A point: n_B = n_A + EXTRA_B[type]
EXTRA_B = {(-1, -1, -1): 0, (-2, -1, -1): 1}
MAX_TYPES = tuple(EXTRA_B)


def _balance(mt: Tuple[int, ...]) -> Tuple[str, str]:
    """A maximum type written as in the paper and the " + 1" its balance adds."""
    return ",".join(map(str, reversed(mt))), " + 1" * EXTRA_B[mt]


def type_abc_classify(data: FixedPointData) -> Tuple[int, int, int, Report]:
    """Classify non-extremal isolated points into the three admissible types.

    Requires Fano data with a 4-dimensional minimum and a point maximum.
    Checks the admissible maximum weights, the n_A/n_B balance forced by
    downward chains, and that every fixed surface sits on level 0 with
    weights {-1,1}.  The report notes b2(M_min) = number of isolated points.
    """
    min_c, max_c = _fourfold_minimum(data, "type_abc_classify")
    if max_c.kind != POINT:
        raise PreconditionError("type_abc_classify needs the maximum to be a point")
    report = Report()
    max_ws = max_c.sorted_weights()
    if max_ws not in MAX_TYPES:
        report.flag(
            "listofweights",
            f"{max_c.id}: maximum weights {list(max_ws)} are neither "
            + " nor ".join(f"[{_balance(mt)[0]}]" for mt in MAX_TYPES),
            subject=max_c.id,
        )
    counts = dict.fromkeys((TYPE_A, TYPE_B, TYPE_C), 0)
    for c in data.ordered():
        if c.id in (min_c.id, max_c.id):
            continue
        if c.kind == POINT:
            ws = c.sorted_weights()
            if ws in counts:
                counts[ws] += 1
            else:
                report.flag(
                    "listofweights",
                    f"{c.id}: weights {list(ws)} are not of type A {{1,-1,-2}}, "
                    f"B {{2,-1,-1}} or C {{1,-1,-1}}",
                    subject=c.id,
                )
        elif c.kind == SURFACE:
            if not _on_level_zero(c):
                report.flag(
                    "surface-level",
                    f"{c.id}: fixed surface must sit on level 0 with weights "
                    f"{{-1,1,0}}, got H = {c.H}, "
                    f"weights {list(c.sorted_weights())}",
                    subject=c.id,
                )
        else:
            report.flag(
                "fourfold",
                f"{c.id}: unexpected non-extremal fourfold",
                subject=c.id,
            )
    n_a, n_b, n_c = counts.values()
    if max_ws in EXTRA_B and n_b != n_a + EXTRA_B[max_ws]:
        name, plus = _balance(max_ws)
        report.flag(
            "nAnB", f"maximum of type ({name}) forces n_A{plus} = n_B, got {n_a}{plus} != {n_b}"
        )
    report.notes.append(f"b2(M_min) = {len(data.points())}")
    return n_a, n_b, n_c, report


def build_04_data(
    max_type: Sequence[int], n_a: int, n_b: int, n_c: int
) -> FixedPointData:
    """Assemble the fixed-point dataset with a del Pezzo minimum, a point
    maximum of the given type and the prescribed type-A/B/C counts.

    Every component sits on the level the weight sum formula gives it,
    H = -(sum of its weights).  Each type-A point is chained to a type-B
    point by a weight-2 sphere, and the type-B points the maximum consumes
    by ``EXTRA_B`` are chained to it.
    """
    mt = tuple(sorted(max_type))
    if mt not in MAX_TYPES:
        raise PreconditionError(f"maximum type must be one of {MAX_TYPES}, got {mt}")
    points = [("max", mt)] + [
        (f"{name}{i}", weights)
        for name, weights, count in (("a", TYPE_A, n_a), ("b", TYPE_B, n_b), ("c", TYPE_C, n_c))
        for i in range(count)
    ]
    comps = [FixedComponent(id="min", kind=FOURFOLD, H=-1, weights=(1,), b2=n_a + n_b + n_c + 1)]
    comps += [FixedComponent(id=cid, kind=POINT, H=-sum(ws), weights=ws) for cid, ws in points]
    if n_b != n_a + EXTRA_B[mt]:
        name, plus = _balance(mt)
        raise PreconditionError(f"a {{{name}}} maximum needs n_B = n_A{plus}")
    edges = [
        GradientEdge(bottom=f"b{i}", top=f"a{i}" if i < n_a else "max", weight=2)
        for i in range(n_b)
    ]
    return FixedPointData(
        half_dim=3,
        components=tuple(comps),
        edges=tuple(edges),
        relative_fano=True,
        fano=True,
    )


def enumerate_04() -> List[dict]:
    """All admissible (max type, n_A, n_B, n_C) rows with positive volume.

    n_B is read off ``EXTRA_B``, and the volume of the level-0 reduced space
    is evaluated through reduced_volume on the assembled dataset.  It falls
    with each type-A point (level 2) and type-C point (level 1), so the search
    stops at the first non-positive volume in n_C and at the first n_A with no
    row.  The total count never exceeds 8 (so b2(M_min) <= 9) and the bound
    is attained; both facts are re-asserted here.
    """
    rows: List[dict] = []
    for mt, extra in EXTRA_B.items():
        for n_a in itertools.count():
            n_b = n_a + extra
            for n_c in itertools.count():
                vol = reduced_volume(build_04_data(mt, n_a, n_b, n_c), 0)
                if vol <= 0:
                    break
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
            if n_c == 0:
                break
    top = max(row["total"] for row in rows)
    if top != 8 or any(row["b2_min"] > 9 for row in rows):
        raise InconsistencyError("enumeration bound violated; implementation bug")
    return rows


def semifree_check(data: FixedPointData) -> Report:
    """Semi-freeness when dim(M_min) = 4 and dim(M_max) >= 2: all weights
    have modulus 1 and level-0 components are surfaces with weights {-1,1}."""
    _, max_c = _fourfold_minimum(data, "semifree_check")
    if max_c.kind == POINT:
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
        if c.H == 0 and not _on_level_zero(c):
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


def isotropy_edge_sum(e: GradientEdge) -> Rational:
    """Recover n_bot + n_top for an isotropy 4-manifold from its interior
    fixed points: by the 4-dimensional localisation identity on it, the
    normal degrees of its two end surfaces sum to the sum of 1/(ab) over them,
    returned as a canonical rational."""
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
    min_c, max_c = _positive_genus_extrema(data, "cycle_inequality")
    min_id, max_id = min_c.id, max_c.id
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
                f"{recovered} > 0",
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
                    f"{recovered}",
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
                    f"{c.id}: no slot of weight {-w} remains at {ext_id}",
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

    total = sum(values)
    if total > 0:
        report.flag(
            "cycle-sum",
            f"cyclic sum of isotropy contributions is {total} > 0",
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
    if c1 > 2 - 2 * g:
        report.flag(
            "aim-conclusion",
            f"cyclic sum closes but the best surface has c1 = {c1} > "
            f"{2 - 2 * g}; impossible data",
            subject=witness,
        )
    else:
        report.notes.append(f"witness: {witness} with c1 = {c1} <= {2 - 2 * g}")
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


def _chain_longeq(
    data: FixedPointData, comp: List[str], free: _FreeSlots, matched: _Matching, report: Report
) -> Optional[Rational]:
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
    hypothesis and the global localisation sum marks the data as impossible.
    One pass over the fixed spheres applies the sphere rules: as M_min has
    positive genus, a sphere below level 0 is flagged under ``nosphere``, and
    any other one not on level 0 with weights {-1,1} under ``sphere-level``.
    Emits a witness surface of genus >= g with c1 <= 2-2g when it can.
    """
    min_c, max_c = _positive_genus_extrema(data, "small_hamiltonian_suite", "relative_fano")
    report = Report()
    g = min_c.genus
    lo, hi = data.h_min(), data.h_max()
    if lo < -3 or hi > 3:
        report.flag(
            "hyp-range",
            f"H range [{lo}, {hi}] not inside [-3,3]",
        )

    # the sphere rules; ordered() lists every sphere below level 0 first
    for c in data.ordered():
        if c.kind == SURFACE and c.genus == 0:
            if c.H < 0:
                report.flag("nosphere", f"{c.id}: fixed sphere on level {c.H} < 0", subject=c.id)
            elif not _on_level_zero(c):
                report.flag(
                    "sphere-level",
                    f"{c.id}: genus-0 surface must sit on level 0 with weights "
                    f"{{-1,1,0}}, got H = {c.H}, weights "
                    f"{list(c.sorted_weights())}",
                    subject=c.id,
                )
            elif c.normal_degrees is None:
                report.undecided(
                    "betapos-sphere", f"{c.id}: normal degrees missing", subject=c.id
                )
            else:
                b = beta(c)
                if b > 0:
                    report.flag(
                        "betapos-sphere",
                        f"{c.id}: beta = {b} > 0, so c1 < 0 on a "
                        f"sphere violates the relative Fano condition",
                        subject=c.id,
                    )

    # (a) isolated weight moduli in {1, 2}; (b) alpha <= 0, which only makes
    # sense for points that already pass (a)
    weights_admissible = True
    for c in data.points():
        bad = [w for w in c.weights if abs(w) not in (1, 2)]
        for w in bad:
            report.flag(
                "isosimp",
                f"{c.id}: isolated weight {w} has modulus outside {{1,2}}",
                subject=c.id,
            )
        if bad:
            weights_admissible = False
        elif (a := alpha(c)) > 0:
            report.flag(
                "isolatedloc",
                f"{c.id}: alpha = {a} > 0",
                subject=c.id,
            )

    # (d) sum of beta over positive-genus surfaces, and the global identity;
    # only meaningful once every isolated weight is admissible
    plus = _positive_genus_surfaces(data)
    degrees_known = all(c.normal_degrees is not None for c in data.surfaces())
    if not weights_admissible:
        report.undecided(
            "bigloc", "inadmissible isolated weights; certificate not evaluated"
        )
    elif degrees_known:
        total = abbv_sum_6d(data)
        if total != 0:
            report.flag(
                "bigloc",
                f"localisation sum is {total}, not 0; "
                f"the data cannot come from a genuine action",
            )
        beta_plus = _sum_quotients(map(_term_6d, plus))
        if beta_plus < 0:
            report.flag(
                "betapos",
                f"sum of beta over positive-genus surfaces is "
                f"{beta_plus} < 0",
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
                f"{rhs} > 0",
            )

    # (f) reflective branch
    if min_c.sorted_weights() == (1, 1) and max_c.sorted_weights() == (-1, -1):
        t = _sum_quotients(map(_chain_term, plus))
        if t > 4 * (2 - 2 * g):
            report.flag(
                "inclaim",
                f"reflective bound fails: {t} > {4 * (2 - 2 * g)}",
            )

    # witness emission
    if degrees_known and report.ok:
        c1, witness = min((c1_of_surface(c), c.id) for c in plus if c.genus >= g)
        if c1 > 2 - 2 * g:
            report.flag(
                "conclusion",
                f"hypotheses and the global localisation sum hold, yet no surface of "
                f"genus >= {g} has c1 <= {2 - 2 * g}; impossible data",
                subject=witness,
            )
        else:
            report.notes.append(
                f"witness: {witness} (genus {data.component(witness).genus}) "
                f"with c1 = {c1} <= {2 - 2 * g}"
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
    _extrema(data, "sphere_area_vs_fibre")
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
                f"{c.id}: level {c.H} outside the fibre range "
                f"[{lo}, {hi}]"
            )
        slice_len = dh(c.H)
        if c.area > slice_len:
            report.flag(
                "sphere-area",
                f"{c.id}: area {c.area} exceeds the fibre slice "
                f"{slice_len} at level {c.H}",
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
