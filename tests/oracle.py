"""Independent oracles: slices of moment polytopes and downward chains.

The slice oracles work on raw integer vertex lists with Fractions and never
touch the package's DH reconstruction: slices are computed by
intersecting the level line/plane with all chords of the polytope and
taking the hull.  Lengths and areas are lattice-normalised (a primitive
lattice step has length 1; a fundamental cell of the induced hyperplane
lattice has area 1).

The chain oracle re-checks a claimed maximal downward chain against the
raw components and edges of a dataset, without the package's chain search,
and the estimate oracle evaluates the chain form of the localisation
estimate from the raw fields, without the package's weight-slot matching.

The localisation oracles add alpha, beta and the 4D and 6D fixed-point sums
term by term, one Fraction per term, from the raw fields: alpha as the sum
of 1/(w_i w_j) over pairs of weights rather than as one quotient.  The chi_y
oracle adds (-y)^index(F) chi_y(F) the same way, as plain Fraction lists.

The lemma-suite oracle writes each of the seven del Pezzo checks out from
its statement, check by check over the raw points and edges.

The orbit oracles find a polytope's lattice automorphisms, every integral
unimodular g with g(vertices) = vertices, by brute force over the images of
n independent vertices, with no edge or facet in sight; the linear parts of
its affine lattice automorphisms, as the lattice automorphisms of its
vertices moved to put their centroid at the origin and scaled to stay
integral, with the translation of each; the orbits of the scanned directions
under the transposes g^T; and a dataset's fields with each vertex named in an
id moved, by parsing the id, and every H shifted, without the package's
symmetry search or id writers.

The hull oracle finds the facets of a point set by testing every line
through two points, or plane through three, against all the others, and
its edges, or a 3-polytope's ridges, as the point pairs on dim - 1 common
facets, with no gift wrap, monotone chain or edge table.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction
from math import gcd
from typing import Dict, List, Sequence, Tuple


def _dot(a, b):
    return sum(Fraction(x) * Fraction(y) for x, y in zip(a, b))


def _chord_hits(vertices, xi, t: Fraction) -> List[Tuple[Fraction, ...]]:
    """All intersection points of the level set with segments between vertices."""
    t = Fraction(t)
    pts = []
    n = len(vertices)
    for i in range(n):
        for j in range(i, n):
            a, b = vertices[i], vertices[j]
            fa, fb = _dot(xi, a) - t, _dot(xi, b) - t
            if fa == 0:
                pts.append(tuple(Fraction(x) for x in a))
            if fb == 0 and j != i:
                pts.append(tuple(Fraction(x) for x in b))
            if fa * fb < 0:
                lam = fa / (fa - fb)
                pts.append(
                    tuple(Fraction(x) + lam * (Fraction(y) - Fraction(x)) for x, y in zip(a, b))
                )
    return sorted(set(pts))


def slice_length_2d(vertices: Sequence[Sequence[int]], xi: Sequence[int], t) -> Fraction:
    """Lattice-normalised length of P cap {<xi, x> = t} for a polygon P."""
    pts = _chord_hits(vertices, xi, Fraction(t))
    if len(pts) < 2:
        return Fraction(0)
    d = (-xi[1], xi[0])  # primitive: xi is primitive
    k = 0 if d[0] != 0 else 1
    lams = [p[k] / d[k] for p in pts]
    return max(lams) - min(lams)


def _kernel_basis_3d(xi: Sequence[int]) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
    """Basis of the rank-2 lattice {v in Z^3 : <xi, v> = 0} for primitive xi."""
    a, b, c = xi
    if b == 0 and c == 0:
        return (0, 1, 0), (0, 0, 1)
    g = gcd(abs(b), abs(c))
    # xb*b + xc*c = g by extended Euclid
    xb, xc = _bezout(b, c, g)
    e1 = (0, c // g, -b // g)
    e2 = (g, -a * xb, -a * xc)
    assert a * e2[0] + b * e2[1] + c * e2[2] == 0
    return e1, e2


def _bezout(b: int, c: int, g: int) -> Tuple[int, int]:
    old_r, r = b, c
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r == g:
        return old_s, old_t
    assert old_r == -g
    return -old_s, -old_t


def _hull_2d(points: List[Tuple[Fraction, Fraction]]) -> List[Tuple[Fraction, Fraction]]:
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, p, q):
        return (p[0] - o[0]) * (q[1] - o[1]) - (p[1] - o[1]) * (q[0] - o[0])

    lower: List[Tuple[Fraction, Fraction]] = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Tuple[Fraction, Fraction]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def slice_area_3d(vertices: Sequence[Sequence[int]], xi: Sequence[int], t) -> Fraction:
    """Area of P cap {<xi, x> = t} in the quotient lattice of the hyperplane."""
    pts = _chord_hits(vertices, xi, Fraction(t))
    if len(pts) < 3:
        return Fraction(0)
    e1, e2 = _kernel_basis_3d(tuple(xi))
    base = pts[0]
    # write p - base = lam*e1 + mu*e2: pick two coordinate rows with det != 0
    rows = None
    for i in range(3):
        for j in range(i + 1, 3):
            det = e1[i] * e2[j] - e1[j] * e2[i]
            if det != 0:
                rows = (i, j, det)
                break
        if rows:
            break
    assert rows is not None
    i, j, det = rows
    planar = []
    for p in pts:
        di, dj = p[i] - base[i], p[j] - base[j]
        lam = Fraction(di * e2[j] - dj * e2[i], det)
        mu = Fraction(e1[i] * dj - e1[j] * di, det)
        planar.append((lam, mu))
    hull = _hull_2d(planar)
    if len(hull) < 3:
        return Fraction(0)
    area2 = Fraction(0)
    for k in range(len(hull)):
        x0, y0 = hull[k]
        x1, y1 = hull[(k + 1) % len(hull)]
        area2 += x0 * y1 - x1 * y0
    return abs(area2) / 2


def is_maximal_downward_chain(data, chain) -> bool:
    """Independent re-check of the three defining conditions of a chain:
    its points exist, consecutive points are joined downward by an edge of
    the stated weight > 1, and the last point has no weight below -1."""
    by_id = {c.id: c for c in data.components}
    if any(p not in by_id for p in chain.points):
        return False
    for (top, bottom), w in zip(itertools.pairwise(chain.points), chain.edge_weights):
        if w <= 1:
            return False
        if not any(
            e.top == top and e.bottom == bottom and e.weight == w for e in data.edges
        ):
            return False
    return all(w >= -1 for w in by_id[chain.points[-1]].weights)


def chain_estimate_sums(data) -> List[Fraction]:
    """The chain estimate, one sum per connected component of the positive-genus
    surfaces joined by isotropy edges (weight >= 2): (1 + 1/(w1 w2))(2 - 2g) per
    surface plus (n_b + n_t)(1 - 1/w^2) per edge, where n_b and n_t are the
    normal degrees stored with the weights w at the bottom and -w at the top.
    Every surface needs its normal degrees, and no surface may repeat a weight
    of modulus >= 2 (lifts of toric surfaces never do)."""
    plus = {c.id: c for c in data.components if c.kind == "surface" and c.genus > 0}
    edges = [e for e in data.edges if e.bottom in plus and e.top in plus and e.weight >= 2]
    root = {cid: cid for cid in plus}

    def find(cid):
        while root[cid] != cid:
            cid = root[cid]
        return cid

    for e in edges:
        root[find(e.bottom)] = find(e.top)
    sums = {cid: Fraction(0) for cid in plus if find(cid) == cid}
    for c in plus.values():
        w1, w2 = c.weights
        sums[find(c.id)] += (1 + Fraction(1, w1 * w2)) * (2 - 2 * c.genus)
    for e in edges:
        bottom, top = plus[e.bottom], plus[e.top]
        n_b = bottom.normal_degrees[bottom.weights.index(e.weight)]
        n_t = top.normal_degrees[top.weights.index(-e.weight)]
        sums[find(e.bottom)] += (n_b + n_t) * (1 - Fraction(1, e.weight * e.weight))
    return list(sums.values())


def alpha_by_terms(weights: Sequence[int]) -> Fraction:
    """(w1+w2+w3)/(w1 w2 w3), written as 1/(w2 w3) + 1/(w1 w3) + 1/(w1 w2)."""
    return sum((Fraction(1, a * b) for a, b in itertools.combinations(weights, 2)), Fraction(0))


def beta_by_terms(weights: Sequence[int], genus: int, degrees: Sequence[int]) -> Fraction:
    """(2 - 2g)/(w1 w2) - n1/w1^2 - n2/w2^2, one Fraction per term."""
    (w1, w2), (n1, n2) = weights, degrees
    return Fraction(2 - 2 * genus, w1 * w2) - Fraction(n1, w1 * w1) - Fraction(n2, w2 * w2)


def abbv_sum_6d_by_terms(components) -> Fraction:
    """alpha over the points plus beta over the surfaces of a 6D dataset."""
    total = Fraction(0)
    for c in components:
        if c.kind == "point":
            total += alpha_by_terms(c.weights)
        else:
            total += beta_by_terms(c.weights, c.genus, c.normal_degrees)
    return total


def abbv_sum_4d_by_terms(components) -> Fraction:
    """1/(ab) over the points minus the normal degree of each surface, 4D."""
    total = Fraction(0)
    for c in components:
        if c.kind == "point":
            a, b = c.weights
            total += Fraction(1, a * b)
        else:
            total -= c.normal_degrees[0]
    return total


def chi_y_by_terms(components) -> List[Fraction]:
    """Coefficients, constant first and trailing zeros dropped, of the sum of
    (-y)^d chi_y(F), d the number of negative weights of F: chi_y is 1 at a
    point, (1 - g)(1 - y) on a genus-g surface and 1 - b2 y + y^2 on a
    fourfold."""
    total: List[Fraction] = []
    for c in components:
        d = sum(1 for w in c.weights if w < 0)
        if c.kind == "point":
            block = [Fraction(1)]
        elif c.kind == "surface":
            block = [Fraction(1 - c.genus), Fraction(c.genus - 1)]
        else:
            block = [Fraction(1), Fraction(-c.b2), Fraction(1)]
        monomial = [Fraction(0)] * d + [Fraction(-1) ** d]
        term = [Fraction(0)] * (len(monomial) + len(block) - 1)
        for i, a in enumerate(monomial):
            for j, b in enumerate(block):
                term[i + j] += a * b
        total += [Fraction(0)] * (len(term) - len(total))
        for k, t in enumerate(term):
            total[k] += t
    while total and total[-1] == 0:
        total.pop()
    return total


def _rational_text(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


LEMMA_CHECKS = ("dum", "equallemma", "neededcor", "fourbound", "4small", "us", "calc")


def lemma_suite_by_checks(points, edges) -> Tuple[list, List[str]]:
    """The seven del Pezzo lemma checks on a 4D dataset of isolated points,
    each check written out from its statement.

    ``points`` are (id, H, (w1, w2)) and ``edges`` (bottom, top, weight), in
    the dataset's edge order.  Returns the records as (check, message,
    subject) in check order, then by point (by H, then id) or edge, and the
    notes: "<check>: pass" or "fail" per check, with calc "vacuous" when no
    point has weights {1,1}, {-1,-1} or {1,-1}.  An edge whose area
    (H(top) - H(bottom)) / weight is not positive raises ValueError when
    4small reaches it.
    """
    pts = sorted(points, key=lambda p: (Fraction(p[1]), p[0]))
    level = {pid: Fraction(h) for pid, h, _ws in pts}
    weights = {pid: sorted(ws) for pid, _h, ws in pts}
    lo, hi = pts[0][0], pts[-1][0]
    h_min, h_max = level[lo], level[hi]
    inner = [pid for pid, _h, _ws in pts if pid not in (lo, hi)]
    records = []

    def flag(check, message, subject=None):
        records.append((check, message, subject))

    # dum: the weights at a non-extremal point are those of its edges, + up, - down
    for pid in inner:
        up = sorted(w for b, _t, w in edges if b == pid)
        down = sorted(-w for _b, t, w in edges if t == pid)
        if weights[pid] != sorted(up + down):
            flag(
                "dum",
                f"{pid}: weights {weights[pid]} are not matched by incident boundary "
                f"edges (up {up}, down {down})",
                pid,
            )

    # equallemma: weight 1 at the minimum as often as -1 off the extrema, and
    # weight -1 at the maximum as often as 1 off the extrema
    for ext, w, where in ((lo, 1, "weight 1"), (hi, -1, "weight -1")):
        mult = weights[ext].count(w)
        count = sum(1 for pid in inner if -w in weights[pid])
        if mult != count:
            flag(
                "equallemma",
                f"multiplicity of {where} at {ext} is {mult}, but {count} index-2 "
                f"points carry a weight {-w}",
            )

    # neededcor: two {-1,n} points (n >= 2) on one level leave no other point
    # from the minimum's level up to below theirs
    twins = [pid for pid, _h, _ws in pts if weights[pid][0] == -1 and weights[pid][1] >= 2]
    for a, b in itertools.combinations(twins, 2):
        if level[a] == level[b]:
            below = [pid for pid, _h, _ws in pts if pid != lo and h_min <= level[pid] < level[a]]
            if below:
                flag(
                    "neededcor",
                    f"twin {{-1,n}} points {a}, {b} at level {_rational_text(level[a])} "
                    f"admit other points {below} below",
                )

    # fourbound: a weight-1 edge has an extremal end
    for b, t, w in edges:
        if w == 1 and not {b, t} & {lo, hi}:
            flag("fourbound", f"weight-1 edge {b}->{t} avoids both extremal points", f"{b}->{t}")

    # 4small: every edge has area at most 3
    for b, t, w in edges:
        area = (level[t] - level[b]) / w
        if area <= 0:
            raise ValueError(f"edge {b}->{t}: area {_rational_text(area)} is not positive")
        if area > 3:
            text = _rational_text(area)
            flag("4small", f"boundary divisor {b}->{t} has area {text} > 3", f"{b}->{t}")

    # us: a {-1,n} point lies at most 3 above the minimum, the minimum has
    # weights {1,m} with m at least that gap, and no point lies strictly between
    min_ws = weights[lo]
    for pid in twins:
        gap = level[pid] - h_min
        if gap > 3:
            flag("us", f"{pid}: H - H_min = {_rational_text(gap)} > 3", pid)
        if 1 not in min_ws:
            flag("us", f"minimum weights {min_ws} are not of the form {{1,m}}", lo)
        else:
            m = min_ws[1] if min_ws[0] == 1 else min_ws[0]
            if m < gap:
                flag(
                    "us",
                    f"minimum weight m = {m} is below H({pid}) - H_min = {_rational_text(gap)}",
                    lo,
                )
        between = [q for q, _h, _ws in pts if h_min < level[q] < level[pid]]
        if between:
            flag("us", f"points {between} lie strictly between the minimum and {pid}", pid)

    # calc: with a point of weights {1,1}, {-1,-1} or {1,-1}, every edge has
    # weight at most 2 and H stays within [-3, 3]
    special = any(weights[pid] in ([1, 1], [-1, -1], [-1, 1]) for pid in weights)
    if special:
        for b, t, w in edges:
            if w > 2:
                flag("calc", f"boundary divisor {b}->{t} has weight {w} > 2", f"{b}->{t}")
        if h_min < -3 or h_max > 3:
            flag(
                "calc",
                f"H range [{_rational_text(h_min)}, {_rational_text(h_max)}] is not "
                f"contained in [-3, 3]",
            )

    failed = {check for check, _m, _s in records}
    notes = [f"{check}: {'fail' if check in failed else 'pass'}" for check in LEMMA_CHECKS[:-1]]
    if special:
        notes.append(f"calc: {'fail' if 'calc' in failed else 'pass'}")
    else:
        notes.append("calc: vacuous (no fixed point with weights {1,1}, {-1,-1} or {1,-1})")
    return records, notes


def apply_matrix(g, v) -> Tuple[int, ...]:
    """The integer matrix g, given as its rows, applied to the vector v."""
    return tuple(sum(a * b for a, b in zip(row, v)) for row in g)


def _det(m) -> int:
    """The determinant of a 2x2 or 3x3 integer matrix, given as its rows."""
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    minors = ([row[:j] + row[j + 1 :] for row in m[1:]] for j in range(3))
    return sum((-1) ** j * m[0][j] * _det(minor) for j, minor in enumerate(minors))


def _adjugate(m) -> Tuple[Tuple[int, ...], ...]:
    """The adjugate of a 2x2 or 3x3 integer matrix: m times it is det(m) times 1."""
    n = len(m)
    if n == 2:
        return ((m[1][1], -m[0][1]), (-m[1][0], m[0][0]))
    return tuple(
        tuple(
            (-1) ** (i + j)
            * _det([row[:i] + row[i + 1 :] for k, row in enumerate(m) if k != j])
            for j in range(n)
        )
        for i in range(n)
    )


def transpose(g) -> Tuple[Tuple[int, ...], ...]:
    return tuple(zip(*g))


def unimodular_inverse(g) -> Tuple[Tuple[int, ...], ...]:
    """The inverse of an integer matrix with determinant +-1."""
    det = _det(g)
    assert det in (1, -1), g
    return tuple(tuple(det * x for x in row) for row in _adjugate(g))


def lattice_automorphisms(vertices) -> List[Tuple[Tuple[int, ...], ...]]:
    """Every integer matrix g, as its rows, with determinant +-1 that maps the vertex
    set onto itself, the identity included.  A linear g is fixed by its values on n
    independent vertices a_j, the columns of A: g = W adj(A) / det(A) for the columns
    W of their images.  So every injective choice of images among the vertices is
    tried, and g is kept when it is integral, unimodular and maps every vertex to a
    vertex."""
    points = sorted({tuple(v) for v in vertices})
    dim = len(points[0])
    basis = next(c for c in itertools.combinations(points, dim) if _det(c) != 0)
    det = _det(basis)  # the determinant of A, whose columns are the basis
    adj = _adjugate(transpose(basis))
    out = []
    for images in itertools.permutations(points, dim):
        if abs(_det(images)) != abs(det):
            continue
        w = transpose(images)
        m = [[sum(w[i][k] * adj[k][j] for k in range(dim)) for j in range(dim)] for i in range(dim)]
        if any(x % det for row in m for x in row):
            continue
        g = tuple(tuple(x // det for x in row) for row in m)
        if {apply_matrix(g, v) for v in points} == set(points):
            out.append(g)
    return out


def _centred(vertices) -> List[Tuple[int, ...]]:
    """Each vertex w as V w - sum of the vertices, V their number: the vertices with
    their centroid moved to the origin, scaled by V to stay integral."""
    points = [tuple(v) for v in vertices]
    total = [sum(column) for column in zip(*points)]
    return [tuple(len(points) * x - s for x, s in zip(w, total)) for w in points]


def affine_automorphisms(vertices) -> List[Tuple[Tuple[int, ...], ...]]:
    """The linear part g of every affine lattice automorphism x -> g x + t of the
    polytope with these vertices, the identity included.  One fixes the centroid c of
    the vertices, so V w' - V c = g (V w - V c) whenever it takes w to w': the linear
    parts are the lattice automorphisms of the centred vertices, and each g gives the
    translation ``affine_translation``, integral since it takes a vertex to a vertex."""
    return lattice_automorphisms(_centred(vertices))


def affine_translation(vertices, g) -> Tuple[int, ...]:
    """The translation t of the affine automorphism x -> g x + t with linear part g: the
    image of the first vertex, found among the centred vertices, less g of it."""
    points = [tuple(v) for v in vertices]
    centred = _centred(points)
    w = centred.index(apply_matrix(g, centred[0]))
    return tuple(a - b for a, b in zip(points[w], apply_matrix(g, points[0])))


def direction_orbits(group, dim: int, bound: int) -> Dict[Tuple[int, ...], tuple]:
    """For each primitive direction of max-norm <= bound whose first nonzero
    entry is positive, in lex order: the lex-least such direction of its orbit
    {g^T xi} under the group and a g in the group with g^T of that one equal to it."""
    listed = {
        xi
        for xi in itertools.product(range(-bound, bound + 1), repeat=dim)
        if gcd(*xi) == 1 and next(x for x in xi if x) > 0
    }
    out: Dict[Tuple[int, ...], tuple] = {}
    for xi in sorted(listed):
        if xi in out:
            continue
        for g in group:  # the identity among them claims xi itself
            image = apply_matrix(transpose(g), xi)
            if image in listed and image not in out:
                out[image] = (xi, g)
    return dict(sorted(out.items()))


def _renamed_id(cid: str, g, t) -> str:
    """A generated id with each vertex v it names renamed g v + t: a point 'v<v>' or
    a fixed sphere 's<a>__<b>' with its ends in lex order."""

    def vertex(text):
        moved = apply_matrix(g, tuple(int(x) for x in text.split("_")))
        return tuple(a + b for a, b in zip(moved, t))

    def text(v):
        return "_".join(str(x) for x in v)

    if cid.startswith("v"):
        return "v" + text(vertex(cid[1:]))
    a, b = sorted(vertex(part) for part in cid[1:].split("__"))
    return "s" + text(a) + "__" + text(b)


def renamed_fields(data, g, t=None, shift=0) -> tuple:
    """The fields of a generated dataset with each vertex v named in an id
    renamed g v + t (t zero when not given) and every component's H raised by
    shift: its other fields in order, its components' fields by id, and its
    edges' fields, sorted."""
    t = t or (0,) * len(g)
    top = tuple(
        getattr(data, f.name)
        for f in dataclasses.fields(data)
        if f.name not in ("components", "edges")
    )
    components = {}
    for c in data.components:
        fields = dataclasses.asdict(c)
        fields["id"] = _renamed_id(c.id, g, t)
        fields["H"] += shift
        components[fields["id"]] = fields
    edges = []
    for e in data.edges:
        fields = dataclasses.asdict(e)
        for end in ("bottom", "top"):
            fields[end] = _renamed_id(fields[end], g, t)
        edges.append(tuple(fields.items()))
    return top, components, sorted(edges)


def hull_faces(points):
    """Facets and edges of the hull of points in dimension 2 or 3, by checking
    every line through two of them, or plane through three, against all the
    others.  A facet is (inward primitive normal u, c, the points on it), with
    the facet <u, x> >= -c; an edge is (p, q, primitive step, lattice length)
    for a pair p < q of points on dim - 1 common facets."""
    pts = sorted(set(points))
    dim = len(pts[0])
    facets = set()
    for a, *rest in itertools.combinations(pts, dim):
        if dim == 2:
            (b,) = rest
            n = (a[1] - b[1], b[0] - a[0])
        else:
            b, c = rest
            ab = [b[k] - a[k] for k in range(3)]
            ac = [c[k] - a[k] for k in range(3)]
            n = (
                ab[1] * ac[2] - ab[2] * ac[1],
                ab[2] * ac[0] - ab[0] * ac[2],
                ab[0] * ac[1] - ab[1] * ac[0],
            )
        if not any(n):
            continue
        values = [sum(n[k] * (q[k] - a[k]) for k in range(dim)) for q in pts]
        if min(values) >= 0:
            sign = 1
        elif max(values) <= 0:
            sign = -1
        else:
            continue
        g = gcd(*n)
        u = tuple(sign * x // g for x in n)
        c_val = -sum(u[k] * a[k] for k in range(dim))
        on = frozenset(q for q in pts if sum(u[k] * q[k] for k in range(dim)) == -c_val)
        facets.add((u, c_val, on))
    edges = set()
    for p, q in itertools.combinations(pts, 2):
        if sum(1 for f in facets if p in f[2] and q in f[2]) >= dim - 1:
            d = tuple(q[k] - p[k] for k in range(dim))
            g = gcd(*d)
            edges.add((p, q, tuple(x // g for x in d), g))
    return facets, edges


def hull_vertices(points):
    """The points that lie on three or more of the brute-force facets: none
    when the points are coplanar."""
    facets, _edges = hull_faces(points)
    return sorted(p for p in set(points) if sum(1 for f in facets if p in f[2]) >= 3)
