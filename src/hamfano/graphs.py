"""H-ordered, weight-labelled graphs of fixed components.

The same value type serves as the Karshon graph of a 4-manifold with
isolated fixed points (vertices = points, edges = gradient spheres) and as
the graph of fixed surfaces of a 6-manifold (vertices = surfaces, edges =
isotropy 4-manifolds).  Vertices and edges are the dataset's own
:class:`FixedComponent` and :class:`GradientEdge` objects, not copies; a
graph only selects and orders them.  Isomorphism and involution searches
are exhaustive backtracking with level pre-partitioning; the graphs at
hand never exceed a dozen vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from .fixed_data import (
    FixedComponent,
    GradientEdge,
    component_order,
    edge_order,
    edge_order_violation,
    format_rational,
)
from .reports import StructuralError


def _key(c: FixedComponent) -> Tuple:
    """Invariant matched by isomorphisms: level and weight multiset."""
    return (c.H, c.sorted_weights())


@dataclass(frozen=True)
class LabelledGraph:
    """Directed graph with edges oriented by increasing Hamiltonian."""

    vertices: Tuple[FixedComponent, ...]
    edges: Tuple[GradientEdge, ...]
    v_min: Optional[str] = None
    v_max: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices, key=component_order)))
        by_id = {v.id: v for v in self.vertices}
        if len(by_id) != len(self.vertices):
            raise StructuralError("duplicate vertex ids in graph")
        for e in self.edges:
            if e.bottom not in by_id or e.top not in by_id:
                raise StructuralError(f"edge {e.key} does not resolve")
            if message := edge_order_violation(e, by_id[e.bottom], by_id[e.top]):
                raise StructuralError(message)
        object.__setattr__(
            self, "edges", tuple(sorted(self.edges, key=edge_order))
        )
        for end in (self.v_min, self.v_max):
            if end is not None and end not in by_id:
                raise StructuralError(f"extremal vertex {end!r} does not resolve")
        object.__setattr__(self, "_by_id", by_id)

    def vertex(self, vid: str) -> FixedComponent:
        v = self._by_id.get(vid)
        if v is None:
            raise StructuralError(f"no vertex {vid!r}")
        return v

    def degree(self, vid: str) -> int:
        return sum(1 for e in self.edges if vid in (e.bottom, e.top))

    def neighbours(self, vid: str) -> List[Tuple[str, int]]:
        out = []
        for e in self.edges:
            if e.bottom == vid:
                out.append((e.top, e.weight))
            elif e.top == vid:
                out.append((e.bottom, e.weight))
        return sorted(out)

    def edge_weight(self, a: str, b: str) -> Optional[int]:
        for e in self.edges:
            if (e.bottom, e.top) in ((a, b), (b, a)):
                return e.weight
        return None

    def subgraph(self, keep: Callable[[FixedComponent], bool]) -> "LabelledGraph":
        kept = tuple(v for v in self.vertices if keep(v))
        ids = {v.id for v in kept}
        return LabelledGraph(
            vertices=kept,
            edges=tuple(e for e in self.edges if e.bottom in ids and e.top in ids),
            v_min=self.v_min if self.v_min in ids else None,
            v_max=self.v_max if self.v_max in ids else None,
        )

    def positive_genus(self) -> "LabelledGraph":
        return self.subgraph(lambda v: (v.genus or 0) > 0)

    def genus_part(self, g: int) -> "LabelledGraph":
        return self.subgraph(lambda v: v.genus == g)

    def connected_components(self) -> List[List[str]]:
        seen: set = set()
        comps: List[List[str]] = []
        for v in self.vertices:
            if v.id in seen:
                continue
            stack, comp = [v.id], []
            seen.add(v.id)
            while stack:
                cur = stack.pop()
                comp.append(cur)
                for nb, _w in self.neighbours(cur):
                    if nb not in seen:
                        seen.add(nb)
                        stack.append(nb)
            comps.append(sorted(comp))
        return comps

    def as_dict(self) -> dict:
        return {
            "vertices": [
                {
                    "id": v.id,
                    "H": format_rational(v.H),
                    "weights": list(v.sorted_weights()),
                    **({"genus": v.genus} if v.genus is not None else {}),
                }
                for v in self.vertices
            ],
            "edges": [
                {"bottom": e.bottom, "top": e.top, "weight": e.weight} for e in self.edges
            ],
            "min": self.v_min,
            "max": self.v_max,
        }


def _match_candidates(a: LabelledGraph, b: LabelledGraph) -> Optional[Dict[str, List[str]]]:
    """Per-vertex candidate lists keyed by the (H, weights) invariant."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return None
    pools: Dict[Tuple, List[str]] = {}
    for v in b.vertices:
        pools.setdefault(_key(v), []).append(v.id)
    cands: Dict[str, List[str]] = {}
    for v in a.vertices:
        pool = pools.get(_key(v), [])
        pool = [w for w in pool if b.degree(w) == a.degree(v.id)]
        if not pool:
            return None
        cands[v.id] = pool
    return cands


def isomorphisms(a: LabelledGraph, b: LabelledGraph) -> Iterator[Dict[str, str]]:
    """All bijections preserving H, vertex weight multisets and edge labels."""
    cands = _match_candidates(a, b)
    if cands is None:
        return
    order = [v.id for v in sorted(a.vertices, key=lambda v: (len(cands[v.id]), v.H, v.id))]

    def extend(i: int, mapping: Dict[str, str], used: set) -> Iterator[Dict[str, str]]:
        if i == len(order):
            yield dict(mapping)
            return
        vid = order[i]
        for target in cands[vid]:
            if target in used:
                continue
            ok = True
            for other, image in mapping.items():
                if a.edge_weight(vid, other) != b.edge_weight(target, image):
                    ok = False
                    break
            if ok:
                mapping[vid] = target
                used.add(target)
                yield from extend(i + 1, mapping, used)
                used.remove(target)
                del mapping[vid]

    yield from extend(0, {}, set())


def first_isomorphism(a: LabelledGraph, b: LabelledGraph) -> Optional[Dict[str, str]]:
    return next(isomorphisms(a, b), None)


def is_mapping_isomorphism(a: LabelledGraph, b: LabelledGraph, mapping: Dict[str, str]) -> bool:
    """Re-check a claimed isomorphism instead of trusting the search."""
    if sorted(mapping) != sorted(v.id for v in a.vertices):
        return False
    if sorted(mapping.values()) != sorted(v.id for v in b.vertices):
        return False
    for v in a.vertices:
        if _key(v) != _key(b.vertex(mapping[v.id])):
            return False
    for u in a.vertices:
        for v in a.vertices:
            if u.id < v.id:
                if a.edge_weight(u.id, v.id) != b.edge_weight(mapping[u.id], mapping[v.id]):
                    return False
    return True


def nontrivial_involutions(q: LabelledGraph) -> Iterator[Dict[str, str]]:
    """Order-two non-identity automorphisms preserving H and all labels."""
    for m in isomorphisms(q, q):
        if any(m[k] != k for k in m) and all(m[m[k]] == k for k in m):
            yield m
