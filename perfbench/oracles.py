"""Output checks for benchmark ops, sharing no code with ``hamfano``.

Each check takes the op's ``check`` facts (from ``gen.py``) and the parsed
JSON output, and returns a list of problems; an empty list means correct.
The expected values come from the construction of the inputs: lattice slice
lengths, the enumeration of primitive directions, the chi_y genus of a
product, the vanishing of localisation sums on genuine data.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

from gen import dot, primitive_directions


def rat(x) -> Fraction:
    """Read an output rational: an int or a 'p/q' string."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"not a rational: {x!r}")
    return Fraction(x)


def _poly(coeffs: Sequence[int]) -> List[Fraction]:
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return out


def slice_length(vertices: Sequence[Sequence[int]], xi: Sequence[int], t: Fraction) -> Fraction:
    """Lattice length of the polygon's slice {<xi, x> = t}; vertices cyclic."""
    u = (-xi[1], xi[0])
    k = 0 if u[0] != 0 else 1
    params = []
    n = len(vertices)
    for i in range(n):
        a, b = vertices[i], vertices[(i + 1) % n]
        fa, fb = dot(xi, a) - t, dot(xi, b) - t
        if fa == 0:
            params.append(Fraction(a[k]) / u[k])
        if fa * fb < 0:
            lam = fa / (fa - fb)
            params.append((a[k] + lam * (b[k] - a[k])) / u[k])
    return max(params) - min(params) if params else Fraction(0)


# -- scans -----------------------------------------------------------------------


def check_scan(c: dict, out: dict) -> List[str]:
    problems = []
    dirs = primitive_directions(c["dim"], c["bound"])
    items = out["items"]
    if [tuple(it["xi"]) for it in items] != dirs:
        return [f"scan lists {len(items)} directions, expected the {len(dirs)} primitive ones"]
    edge_dirs = c["edge_dirs"]
    unsupported = {xi for xi in dirs if c["dim"] == 3 and any(dot(xi, d) == 0 for d in edge_dirs)}
    got = {tuple(it["xi"]) for it in items if "unsupported" in it}
    if got != unsupported:
        problems.append(f"{len(got)} unsupported directions, expected {len(unsupported)}")
    for it in items:
        if "unsupported" in it:
            continue
        if it["ok"] is not True or it["violations"]:
            problems.append(f"xi {it['xi']}: verdict not ok")
        if rat(it["abbv_sum"]) != 0:
            problems.append(f"xi {it['xi']}: abbv_sum {it['abbv_sum']} != 0")
        if c["reflexive"]:
            if "weight_sum_constant" not in it or rat(it["weight_sum_constant"]) != 0:
                problems.append(f"xi {it['xi']}: weight_sum_constant is not 0")
        elif "weight_sum_constant" in it:
            problems.append(f"xi {it['xi']}: weight_sum_constant on a non-reflexive polytope")
        if len(problems) > 5:
            break
    return problems


# -- documents ---------------------------------------------------------------------


def check_dh(c: dict, out: dict) -> List[str]:
    vs, xi = c["vertices"], c["xi"]
    levels = sorted({dot(xi, v) for v in vs})
    bps = [rat(b) for b in out["breakpoints"]]
    if bps != levels:
        return [f"breakpoints {out['breakpoints']} != vertex levels {levels}"]
    problems = []
    for i, piece in enumerate(out["pieces"]):
        coeffs = [rat(x) for x in piece]
        lo, hi = bps[i], bps[i + 1]
        for t in (lo, (lo + hi) / 2, hi):
            value = sum(cf * t**d for d, cf in enumerate(coeffs))
            if value != slice_length(vs, xi, t):
                problems.append(f"DH({t}) = {value}, slice length {slice_length(vs, xi, t)}")
    return problems


def _same_levels(c: dict, out_data: dict) -> List[str]:
    want = {comp["id"]: Fraction(comp["H"]) for comp in c["data"]["components"]}
    got = {comp["id"]: rat(comp["H"]) for comp in out_data["components"]}
    return [] if want == got else ["normalised levels differ from the input levels"]


def check_validate(c: dict, out: dict) -> List[str]:
    return [] if out["ok"] is True and not out["violations"] else ["validate reports violations"]


def check_normalize(c: dict, out: dict) -> List[str]:
    if rat(out["constant"]) != 0:
        return [f"weight-sum constant {out['constant']} != 0"]
    return _same_levels(c, out["data"])


def check_localize(c: dict, out: dict) -> List[str]:
    want = Fraction(*c["shift"]) if c["shift"] else Fraction(0)
    return [] if rat(out["sum"]) == want else [f"localisation sum {out['sum']} != {want}"]


def _check_chi_y(out: dict, coeffs: List[int]) -> List[str]:
    want = _poly(coeffs)
    got = [rat(x) for x in out["coefficients"]]
    problems = [] if got == want else [f"chi_y {out['coefficients']} != {want}"]
    todd = want[0] if want else Fraction(0)
    if rat(out["todd"]) != todd or rat(out["c1c2"]) != 24 * todd:
        problems.append("todd or c1c2 disagrees with chi_y(0)")
    return problems


def check_chi_y_product(c: dict, out: dict) -> List[str]:
    # (1-g)(1-y)(1 - (V-2)y + y^2) = (1-g)(1 - (V-1)y + (V-1)y^2 - y^3)
    g, v = c["genus"], len(c["data"]["components"])
    return _check_chi_y(out, [(1 - g) * x for x in (1, -(v - 1), v - 1, -1)])


def check_chi_y_abc(c: dict, out: dict) -> List[str]:
    n = sum(c["counts"])
    return _check_chi_y(out, [1, -(n + 1), n + 1, -1])


def _extremes(c: dict):
    comps = sorted(c["data"]["components"], key=lambda x: x["H"])
    return comps[0]["id"], comps[-1]["id"]


def check_graph(c: dict, out: dict) -> List[str]:
    problems = [] if out["report"]["ok"] is True else ["surface graph report not ok"]
    g = out["graph"]
    if len(g["vertices"]) != len(c["data"]["components"]):
        problems.append("surface graph misses surfaces")
    if (g["min"], g["max"]) != _extremes(c):
        problems.append(f"extremes {g['min']}, {g['max']} != {_extremes(c)}")
    return problems


def check_chains(c: dict, out: dict) -> List[str]:
    comps = {x["id"]: x for x in c["data"]["components"]}
    edges = {(e["top"], e["bottom"], e["weight"]) for e in c["data"]["edges"]}
    seeds = sorted((e["top"], e["bottom"], e["weight"]) for e in c["data"]["edges"] if e["weight"] > 1)
    chains = out["chains"]
    got_seeds = sorted((ch["points"][0], ch["points"][1], ch["weights"][0]) for ch in chains)
    if got_seeds != seeds:
        return ["chains do not start once at every edge of weight > 1"]
    for ch in chains:
        pts, ws = ch["points"], ch["weights"]
        for (a, b), w in zip(zip(pts, pts[1:]), ws):
            if (a, b, w) not in edges or not comps[a]["H"] > comps[b]["H"]:
                return [f"chain {pts} takes a step that is not a downward edge"]
        if any(w < -1 for w in comps[pts[-1]]["weights"]):
            return [f"chain {pts} stops above a weight < -1"]
    return []


def check_suite(c: dict, out: dict) -> List[str]:
    problems = []
    small = out["small_hamiltonian"]
    if not c["shift"]:
        codes = {v["code"] for v in small["violations"]}
        want = set() if c["in_range"] else {"hyp-range"}
        if codes != want:
            problems.append(f"small-Hamiltonian violations {sorted(codes)} != {sorted(want)}")
        if out["cycle_inequality"]["ok"] is not True:
            problems.append("cycle inequality fails on genuine data")
    elif small["ok"] is not False:
        problems.append("small-Hamiltonian suite accepts a nonzero localisation sum")
    if out["sphere_area"]["ok"] is not True:
        problems.append("sphere-area check fails without fixed spheres")
    return problems


def check_corr(c: dict, out: dict) -> List[str]:
    if out["case"] != 2 or not out["ok"]:
        return [f"correspondence case {out['case']}, violations {out['violations']}"]
    comps = {x["id"]: x for x in c["data"]["components"]}
    m = out["mapping"]
    if sorted(m) != sorted(comps) or sorted(m.values()) != sorted(comps):
        return ["correspondence is not a bijection onto the surfaces"]
    for a, b in m.items():
        if comps[a]["H"] != comps[b]["H"] or sorted(comps[a]["weights"]) != sorted(comps[b]["weights"]):
            return [f"correspondence maps {a} to {b} with other invariants"]
    weight = {}
    for e in c["data"]["edges"]:
        weight[frozenset((e["bottom"], e["top"]))] = e["weight"]
    for a in m:
        for b in m:
            if a < b and weight.get(frozenset((a, b))) != weight.get(frozenset((m[a], m[b]))):
                return [f"correspondence breaks the edge between {a} and {b}"]
    return []


def check_abc(c: dict, out: dict) -> List[str]:
    n_a, n_b, n_c = c["counts"]
    problems = [] if out["report"]["ok"] is True else ["abc report not ok"]
    if [out["n_A"], out["n_B"], out["n_C"]] != [n_a, n_b, n_c]:
        problems.append(f"counts {out['n_A']}, {out['n_B']}, {out['n_C']} != {n_a}, {n_b}, {n_c}")
    if out["b2_min"] != n_a + n_b + n_c + 1:
        problems.append(f"b2_min {out['b2_min']} != {n_a + n_b + n_c + 1}")
    return problems


CHECKS: Dict[str, Callable[[dict, dict], List[str]]] = {
    "scan": check_scan,
    "dh": check_dh,
    "validate": check_validate,
    "normalize": check_normalize,
    "localize": check_localize,
    "chi_y_product": check_chi_y_product,
    "chi_y_abc": check_chi_y_abc,
    "graph": check_graph,
    "chains": check_chains,
    "suite": check_suite,
    "corr": check_corr,
    "abc": check_abc,
}


def check(op: dict, code: int, text: str) -> List[str]:
    """Problems with one op's exit code and output; empty when correct."""
    if code != op["expect"]:
        return [f"exit code {code}, expected {op['expect']}: {text[:200]}"]
    try:
        out = json.loads(text)
        return CHECKS[op["check"]["type"]](op["check"], out)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError, ZeroDivisionError) as exc:
        return [f"malformed output ({type(exc).__name__}: {exc}): {text[:200]}"]
