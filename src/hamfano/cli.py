"""Command-line entry point and JSON document formats.

Documents are JSON with a schema_version and exactly one payload:
``fixed_point_data``, ``polytope`` or ``suite_request``; a key that the
format does not define is refused, never dropped.  Rationals travel
as integers or "p/q" strings in lowest terms with positive denominator;
output is byte-deterministic for identical input.

Exit codes: 0 every check passed, 1 semantic violations found,
2 structural or usage errors.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from typing import Any, Dict, List, Sequence, Tuple

from . import dh as dh_mod
from . import fano6, localization, toric
from .fixed_data import (
    FixedComponent,
    FixedPointData,
    GradientEdge,
    _as_tuple,
    _INTEGER,
    as_rational,
    edge_order_violation,
    format_rational,
    validate,
)
from .localization import WeightSumInconsistency
from .reports import InconsistencyError, StructuralError

SCHEMA_VERSION = "1"

USAGE = """\
usage: hamfano [--pretty] <command> ...

commands:
  validate <file>                     check every dataset invariant
  normalize <file>                    weight-sum normalisation of the Hamiltonian
  localize {4d|6d} <file>             exact localisation sum (0 = consistent)
  chi-y <file>                        Hirzebruch genus; Todd and c1*c2 in dim 6
  dh toric <polytope> --xi a,b        Duistermaat-Heckman function of (P, xi)
  toric scan <polytope|name> --bound N   sweep primitive directions
  fano6 {graph|chains|abc|suite} <file>  six-dimensional analyses
  enumerate-04                        admissible type-A/B/C tables
"""

# -- document parsing ---------------------------------------------------------


def _schema(cls) -> Dict[str, Any]:
    """The default of each field of a dataclass, by name; MISSING marks a
    required field."""
    return {f.name: f.default for f in dataclasses.fields(cls)}


_COMPONENT = _schema(FixedComponent)
_EDGE = _schema(GradientEdge)
_DATA = _schema(FixedPointData)


def _known_keys(obj: dict, keys, what: str) -> None:
    """Refuse a key that the format does not define, so that a misspelt key
    is not silently dropped."""
    if not obj.keys() <= keys:
        raise StructuralError(f"{what} has the unknown key {min(obj.keys() - keys)!r}")


def _fields(schema, obj: Any, what: str) -> Dict[str, Any]:
    """The fields of one document object, checked for the required keys and
    for keys that are no field of the schema."""
    if not isinstance(obj, dict):
        raise StructuralError(f"{what} must be an object")
    _known_keys(obj, schema.keys(), what)
    for name, default in schema.items():
        if default is dataclasses.MISSING and name not in obj:
            raise StructuralError(f"{what} needs the key {name!r}")
    return dict(obj)


def parse_fixed_point_data(doc: dict) -> FixedPointData:
    fields = _fields(_DATA, doc, "fixed_point_data")
    fields["components"] = tuple(
        FixedComponent(**_fields(_COMPONENT, c, "component"))
        for c in _as_tuple(fields["components"], "components")
    )
    fields["edges"] = tuple(
        GradientEdge(**_fields(_EDGE, e, "edge"))
        for e in _as_tuple(fields.get("edges", ()), "edges")
    )
    return FixedPointData(**fields)


def _render(obj: Any, schema) -> Dict[str, Any]:
    """Every field that differs from its default, by value: a Fraction as its
    'p/q' string, anything else as it is (json writes a tuple as an array)."""
    out: Dict[str, Any] = {}
    for name, default in schema.items():
        value = getattr(obj, name)
        if default is dataclasses.MISSING or value != default:
            out[name] = format_rational(value) if type(value) is Fraction else value
    return out


def render_fixed_point_data(data: FixedPointData) -> dict:
    return {
        "half_dim": data.half_dim,
        "relative_fano": data.relative_fano,
        "fano": data.fano,
        "components": [_render(c, _COMPONENT) for c in data.components],
        "edges": [_render(e, _EDGE) for e in data.edges],
    }


def parse_polytope(doc: dict) -> toric.LatticePolytope:
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise StructuralError("polytope payload needs a 'vertices' array")
    _known_keys(doc, {"dim", "vertices"}, "polytope")
    p = toric.LatticePolytope(doc["vertices"])
    if "dim" in doc and (type(doc["dim"]) is not int or doc["dim"] != p.dim):
        raise StructuralError(f"declared dim {doc['dim']} != actual dim {p.dim}")
    return p


_PAYLOADS = ("fixed_point_data", "polytope", "suite_request")


def load_document(path: str) -> Tuple[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError("document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StructuralError(
            f"unrecognised schema_version {version!r}; expected {SCHEMA_VERSION!r}"
        )
    _known_keys(doc, {"schema_version", *_PAYLOADS}, "document")
    payloads = [k for k in _PAYLOADS if k in doc]
    if len(payloads) != 1:
        raise StructuralError(
            "document must carry exactly one of fixed_point_data, polytope, "
            "suite_request"
        )
    return payloads[0], doc[payloads[0]]


def load_fixed_point_data(path: str) -> FixedPointData:
    kind, payload = load_document(path)
    if kind != "fixed_point_data":
        raise StructuralError(f"{path} does not carry fixed_point_data")
    return parse_fixed_point_data(payload)


def load_polytope(path: str) -> toric.LatticePolytope:
    kind, payload = load_document(path)
    if kind != "polytope":
        raise StructuralError(f"{path} does not carry a polytope")
    return parse_polytope(payload)


def _parse_xi(text: str) -> Tuple[int, ...]:
    parts = text.split(",")
    if not all(_INTEGER.fullmatch(part) for part in parts):
        raise StructuralError(f"--xi expects integers like 1,2 or 1,2,4; got {text!r}")
    if len(parts) not in (2, 3):
        raise StructuralError("--xi expects 2 or 3 comma-separated integers")
    return tuple(map(int, parts))


# -- command handlers ----------------------------------------------------------


def _cmd_validate(args: List[str]) -> Tuple[int, dict]:
    (path,) = args
    data = load_fixed_point_data(path)
    report = validate(data)
    return (0 if report.ok else 1), report.as_dict()


def _cmd_normalize(args: List[str]) -> Tuple[int, dict]:
    (path,) = args
    data = load_fixed_point_data(path)
    try:
        constant, shifted = localization.weight_sum_normalize(data)
    except WeightSumInconsistency as exc:
        return 1, {
            "error": "weight sum formula has no solution",
            "constant_at_minimum": format_rational(exc.constant),
            "residuals": {
                cid: format_rational(r) for cid, r in sorted(exc.residuals.items())
            },
        }
    return 0, {
        "constant": format_rational(constant),
        "data": render_fixed_point_data(shifted),
    }


def _cmd_localize(args: List[str]) -> Tuple[int, dict]:
    which, path = args
    data = load_fixed_point_data(path)
    if which == "4d":
        total = localization.abbv_sum_4d(data)
    elif which == "6d":
        total = localization.abbv_sum_6d(data)
    else:
        raise StructuralError(f"localize expects 4d or 6d, got {which!r}")
    return (0 if total == 0 else 1), {"sum": format_rational(total)}


def _cmd_chi_y(args: List[str]) -> Tuple[int, dict]:
    (path,) = args
    data = load_fixed_point_data(path)
    poly = localization.chi_y(data)
    out: Dict[str, Any] = {
        "chi_y": poly.render("y"),
        "coefficients": poly.as_list(),
    }
    if data.half_dim == 3:
        todd, c1c2 = localization.todd_and_c1c2(data)
        out["todd"] = format_rational(todd)
        out["c1c2"] = format_rational(c1c2)
    return 0, out


def _cmd_dh(args: List[str]) -> Tuple[int, dict]:
    if len(args) < 2 or args[0] != "toric":
        raise StructuralError("usage: dh toric <polytope> --xi a,b")
    xi = _take_flag(args[2:], "--xi", "dh toric")
    p = load_polytope(args[1])
    fn = dh_mod.dh_function_toric(p, _parse_xi(xi))
    return 0, fn.as_dict()


def _cmd_toric_scan(args: List[str]) -> Tuple[int, dict]:
    if len(args) < 2 or args[0] != "scan":
        raise StructuralError("usage: toric scan <polytope|catalog-name> --bound N")
    target = args[1]
    bound_text = _take_flag(args[2:], "--bound", "toric scan")
    if not _INTEGER.fullmatch(bound_text):
        raise StructuralError(f"--bound expects an integer, got {bound_text!r}")
    bound = int(bound_text)
    if target in toric.CATALOG:
        p = toric.catalog_entry(target).polytope
    else:
        p = load_polytope(target)
    items = []
    any_violation = False
    for item in toric.scan_directions(p, bound):
        entry: Dict[str, Any] = {"xi": list(item.xi)}
        if item.error is not None:
            entry["unsupported"] = item.error
            items.append(entry)
            continue
        data = item.data
        entry["ok"] = item.report.ok
        entry["violations"] = [v.as_dict() for v in item.report.violations]
        entry["notes"] = list(item.report.notes)
        if data.half_dim == 2:
            entry["abbv_sum"] = format_rational(localization.abbv_sum_4d(data))
        else:
            entry["abbv_sum"] = format_rational(localization.abbv_sum_6d(data))
        if data.relative_fano:
            constant = localization.weight_sum_constant(data)
            entry["weight_sum_constant"] = format_rational(constant)
        any_violation = any_violation or not item.report.ok
        items.append(entry)
    return (1 if any_violation else 0), {"polytope": p.as_dict(), "items": items}


def _require_uphill_edges(data: FixedPointData) -> None:
    """Exit 1 on the first edge that does not increase H, with the message
    validate flags it by, before a fano6 analysis reads the edges."""
    for e in data.edges:
        if message := edge_order_violation(e, data.component(e.bottom), data.component(e.top)):
            raise InconsistencyError(message)


def _cmd_fano6(args: List[str]) -> Tuple[int, dict]:
    if len(args) != 2:
        raise StructuralError("usage: fano6 {graph|chains|abc|suite} <file>")
    sub, path = args
    if sub == "suite":
        return _cmd_fano6_suite(path)
    if sub not in ("graph", "chains", "abc"):
        raise StructuralError(f"unknown fano6 subcommand {sub!r}")
    data = load_fixed_point_data(path)
    _require_uphill_edges(data)
    if sub == "graph":
        graph, report = fano6.surface_graph(data)
        return (0 if report.ok else 1), {
            "graph": graph.as_dict(),
            "report": report.as_dict(),
        }
    if sub == "chains":
        chains = fano6.maximal_downward_chains(data)
        return 0, {
            "chains": [
                {"points": list(c.points), "weights": list(c.edge_weights)}
                for c in chains
            ]
        }
    n_a, n_b, n_c, report = fano6.type_abc_classify(data)
    return (0 if report.ok else 1), {
        "n_A": n_a,
        "n_B": n_b,
        "n_C": n_c,
        "b2_min": len(data.points()),
        "report": report.as_dict(),
    }


def _cmd_fano6_suite(path: str) -> Tuple[int, dict]:
    kind, payload = load_document(path)
    fibre = fibre_xi = levels = None
    if kind == "suite_request":
        if not isinstance(payload, dict) or "data" not in payload:
            raise StructuralError("suite_request must be an object with a 'data' payload")
        _known_keys(payload, {"data", "fibre", "fibre_xi", "levels"}, "suite_request")
        data = parse_fixed_point_data(payload["data"])
        if "fibre" in payload:
            fibre = parse_polytope(payload["fibre"])
            if "fibre_xi" not in payload:
                raise StructuralError("suite_request with a fibre needs fibre_xi")
            fibre_xi = _as_tuple(payload["fibre_xi"], "fibre_xi")
        if "levels" in payload:
            levels = [as_rational(x) for x in _as_tuple(payload["levels"], "levels")]
    elif kind == "fixed_point_data":
        data = parse_fixed_point_data(payload)
    else:
        raise StructuralError(f"{path} does not carry data for the suite")
    _require_uphill_edges(data)
    out: Dict[str, Any] = {}
    code = 0
    small = fano6.small_hamiltonian_suite(data)
    out["small_hamiltonian"] = small.as_dict()
    cycle = fano6.cycle_inequality(data)
    out["cycle_inequality"] = cycle.as_dict()
    code = max(code, 0 if small.ok else 1, 0 if cycle.ok else 1)
    if fibre is not None:
        spheres = fano6.sphere_area_vs_fibre(data, fibre, fibre_xi)
        out["sphere_area"] = spheres.as_dict()
        code = max(code, 0 if spheres.ok else 1)
    if levels is not None:
        pos = dh_mod.positivity_check(data, levels)
        out["positivity"] = pos.as_dict()
        code = max(code, 0 if pos.ok else 1)
    return code, out


def _cmd_enumerate_04(args: List[str]) -> Tuple[int, dict]:
    if args:
        raise StructuralError("enumerate-04 takes no arguments")
    rows = fano6.enumerate_04()
    rendered = []
    for row in rows:
        entry = dict(row)
        entry["volume"] = format_rational(entry["volume"])
        rendered.append(entry)
    return 0, {"rows": rendered, "max_total": max(r["total"] for r in rows)}


def _take_flag(args: Sequence[str], flag: str, command: str) -> str:
    """The value of the one `flag value` or `flag=value` that follows the
    target; anything else is a usage error that names what was found."""
    if len(args) == 2 and args[0] == flag:
        return args[1]
    if len(args) == 1 and args[0].startswith(flag + "="):
        return args[0][len(flag) + 1 :]
    raise StructuralError(
        f"{command} takes exactly one {flag} after the target, got {list(args)!r}"
    )


# -- dispatch -----------------------------------------------------------------


def run(argv: Sequence[str]) -> Tuple[int, str]:
    """Execute one CLI invocation; returns (exit code, output text)."""
    args = list(argv)
    pretty = False
    if "--pretty" in args:
        pretty = True
        args.remove("--pretty")
    handlers = {
        "validate": _cmd_validate,
        "normalize": _cmd_normalize,
        "localize": _cmd_localize,
        "chi-y": _cmd_chi_y,
        "dh": _cmd_dh,
        "toric": _cmd_toric_scan,
        "fano6": _cmd_fano6,
        "enumerate-04": _cmd_enumerate_04,
    }
    try:
        if not args:
            raise StructuralError("no command given")
        handler = handlers.get(args[0])
        if handler is None:
            raise StructuralError(f"unknown command {args[0]!r}")
        code, payload = handler(args[1:])
    except InconsistencyError as exc:
        return 1, _dump({"error": str(exc)}, pretty)
    except ValueError as exc:
        return 2, _dump({"error": str(exc), "usage": USAGE.strip()}, pretty)
    return code, _dump(payload, pretty)


def _dump(payload: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, indent=2)
    return json.dumps(payload, separators=(",", ":"))


def main() -> None:
    code, output = run(sys.argv[1:])
    print(output)
    sys.exit(code)


if __name__ == "__main__":
    main()
