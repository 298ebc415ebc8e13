"""Command-line entry point and JSON document formats.

Documents are JSON with a schema_version and exactly one payload:
``fixed_point_data``, ``polytope`` or ``suite_request``; a key that the
format does not define is refused, never dropped.  Rationals travel
as integers or "p/q" strings in lowest terms with positive denominator, and
``_exact`` alone writes them; output is byte-deterministic for identical input.

Exit codes: 0 every check passed, 1 semantic violations found,
2 structural or usage errors.
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from fractions import Fraction
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from . import dh as dh_mod
from . import fano6, localization, toric
from .fixed_data import (
    FixedComponent,
    FixedPointData,
    GradientEdge,
    _as_tuple,
    _INTEGER,
    as_rational,
    read_int,
    validate,
)
from .reports import InconsistencyError, Report, StructuralError

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


def _word(previous: str, word: str) -> Tuple[Optional[Tuple[str, ...]], bool]:
    """The tokens a usage word admits (None for any) and whether it is an
    operand: a literal word or --flag admits itself, a {choice} its choices,
    and a <placeholder> or a flag's value any token."""
    if word.startswith("<") or previous.startswith("--"):
        return None, True
    if word.startswith("{"):
        return tuple(word[1:-1].split("|")), True
    return (word,), False


# each command's line of USAGE, and the words after the command name
_GRAMMAR = {
    words[0]: (line, tuple(map(_word, words, words[1:])))
    for entry in USAGE.split("commands:\n")[1].splitlines()
    for line in [entry.strip().split("  ")[0]]
    for words in [line.split()]
}

# -- document parsing ---------------------------------------------------------


def _schema(cls) -> Dict[str, Any]:
    """The default of each field of a dataclass, by name; MISSING marks a
    required field."""
    return {f.name: f.default for f in dataclasses.fields(cls)}


_COMPONENT = _schema(FixedComponent)
_EDGE = _schema(GradientEdge)
_DATA = _schema(FixedPointData)
_POLYTOPE = {"vertices": dataclasses.MISSING, "dim": None}
_SUITE_REQUEST = {"data": dataclasses.MISSING, "fibre": None, "fibre_xi": None, "levels": None}
_PAYLOADS = ("fixed_point_data", "polytope", "suite_request")
_DOCUMENT = dict.fromkeys(("schema_version", *_PAYLOADS))


def _fields(schema, obj: Any, what: str) -> None:
    """Only check one document object; it is neither copied nor returned.  It
    must be an object with every required key of the schema, and a key that is
    no field of the schema is refused, never dropped."""
    if not isinstance(obj, dict):
        raise StructuralError(f"{what} must be an object")
    if not obj.keys() <= schema.keys():
        raise StructuralError(f"{what} has the unknown key {min(obj.keys() - schema.keys())!r}")
    for name, default in schema.items():
        if default is dataclasses.MISSING and name not in obj:
            raise StructuralError(f"{what} needs the key {name!r}")


def parse_fixed_point_data(doc: dict) -> FixedPointData:
    _fields(_DATA, doc, "fixed_point_data")
    args = {**doc, "components": [], "edges": []}
    for key, cls, schema, what in (
        ("components", FixedComponent, _COMPONENT, "component"),
        ("edges", GradientEdge, _EDGE, "edge"),
    ):
        for obj in _as_tuple(doc.get(key, ()), key):
            _fields(schema, obj, what)
            args[key].append(cls(**obj))
    return FixedPointData(**args)


def _exact(value: Any) -> Union[int, str]:
    """A Fraction as JSON: its numerator when integral, else its 'p/q' string."""
    if type(value) is not Fraction:
        raise TypeError(f"{type(value).__name__} is not JSON serializable")
    return value.numerator if value.denominator == 1 else str(value)


def _render(obj: Any, schema) -> Dict[str, Any]:
    """Every field that differs from its default, by value: a Fraction as
    ``_exact`` writes it, anything else as it is (a tuple is an array)."""
    out: Dict[str, Any] = {}
    for name, default in schema.items():
        value = getattr(obj, name)
        if default is dataclasses.MISSING or value != default:
            out[name] = _exact(value) if type(value) is Fraction else value
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
    _fields(_POLYTOPE, doc, "polytope")
    p = toric.LatticePolytope(doc["vertices"])
    if "dim" in doc and (type(doc["dim"]) is not int or doc["dim"] != p.dim):
        raise StructuralError(f"declared dim {doc['dim']} != actual dim {p.dim}")
    return p


def load_document(path: str) -> Tuple[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise StructuralError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructuralError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise StructuralError(f"{path} is nested too deeply to read") from exc
    except ValueError as exc:  # an integer past int()'s digit limit, or bytes that are not UTF-8
        raise StructuralError(f"{path} cannot be read: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructuralError("document must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise StructuralError(
            f"unrecognised schema_version {version!r}; expected {SCHEMA_VERSION!r}"
        )
    _fields(_DOCUMENT, doc, "document")
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
    return tuple(read_int(part, "--xi") for part in parts)


# -- command handlers ----------------------------------------------------------


def _operands(args: List[str], command: str) -> List[str]:
    """The operands in a command's args, checked word by word against its usage
    line, a `--flag=value` counting as two tokens; a mismatch is a usage error."""
    line, shape = _GRAMMAR[command]
    tokens: List[str] = []
    for arg in args:
        tokens += arg.split("=", 1) if arg.startswith("--") else (arg,)
    if len(tokens) == len(shape):
        operands = []
        for token, (admits, operand) in zip(tokens, shape):
            if admits is not None and token not in admits:
                break
            if operand:
                operands.append(token)
        else:
            return operands
    raise StructuralError(f"usage: {line}; got {args!r}")


def _exit_code(reports: Iterable[Report]) -> int:
    """Exit 1 iff some report holds a violation."""
    return int(not all(report.ok for report in reports))


def _cmd_validate(path: str) -> Tuple[int, dict]:
    data = load_fixed_point_data(path)
    report = validate(data)
    return _exit_code([report]), report.as_dict()


def _cmd_normalize(path: str) -> Tuple[int, dict]:
    data = load_fixed_point_data(path)
    try:
        constant, shifted = localization.weight_sum_normalize(data)
    except localization.WeightSumInconsistency as exc:
        return 1, {
            "error": "weight sum formula has no solution",
            "constant_at_minimum": exc.constant,
            "residuals": dict(sorted(exc.residuals.items())),
        }
    return 0, {
        "constant": constant,
        "data": render_fixed_point_data(shifted),
    }


def _cmd_localize(which: str, path: str) -> Tuple[int, dict]:
    data = load_fixed_point_data(path)
    total = (localization.abbv_sum_4d if which == "4d" else localization.abbv_sum_6d)(data)
    return (0 if total == 0 else 1), {"sum": total}


def _cmd_chi_y(path: str) -> Tuple[int, dict]:
    data = load_fixed_point_data(path)
    poly = localization.chi_y(data)
    out: Dict[str, Any] = {
        "chi_y": poly.render(),
        "coefficients": list(poly.coefficients),
    }
    if data.half_dim == 3:
        todd, c1c2 = localization.todd_and_c1c2(data, poly)
        out["todd"] = todd
        out["c1c2"] = c1c2
    return 0, out


def _cmd_dh(path: str, xi: str) -> Tuple[int, dict]:
    p = load_polytope(path)
    fn = dh_mod.dh_function_toric(p, _parse_xi(xi))
    return 0, fn.as_dict()


def _cmd_toric_scan(target: str, bound_text: str) -> Tuple[int, dict]:
    if not _INTEGER.fullmatch(bound_text):
        raise StructuralError(f"--bound expects an integer, got {bound_text!r}")
    bound = read_int(bound_text, "--bound")
    if target in toric.CATALOG:
        p = toric.catalog_entry(target).polytope
    else:
        p = load_polytope(target)
    items, reports = [], []
    for item in toric.scan_directions(p, bound):
        reports.append(item.report)
        entry: Dict[str, Any] = {"xi": list(item.xi)}
        if item.error is not None:
            entry["unsupported"] = item.error
        else:
            entry["ok"] = item.report.ok
            entry["violations"] = [v.as_dict() for v in item.report.violations]
            entry["notes"] = list(item.report.notes)
            entry["abbv_sum"] = item.abbv_sum
            if item.weight_sum_constant is not None:
                entry["weight_sum_constant"] = item.weight_sum_constant
        items.append(entry)
    return _exit_code(reports), {"polytope": p.as_dict(), "items": items}


def _cmd_fano6(sub: str, path: str) -> Tuple[int, dict]:
    if sub == "suite":
        return _cmd_fano6_suite(path)
    data = load_fixed_point_data(path)
    if sub == "graph":
        graph, report = fano6.surface_graph(data)
        return _exit_code([report]), {
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
    return _exit_code([report]), {
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
        _fields(_SUITE_REQUEST, payload, "suite_request")
        data = parse_fixed_point_data(payload["data"])
        if ("fibre" in payload) != ("fibre_xi" in payload):
            raise StructuralError(
                "suite_request with a fibre needs fibre_xi"
                if "fibre" in payload
                else "suite_request with fibre_xi needs a fibre"
            )
        if "fibre" in payload:
            fibre = parse_polytope(payload["fibre"])
            fibre_xi = _as_tuple(payload["fibre_xi"], "fibre_xi")
        if "levels" in payload:
            levels = [as_rational(x) for x in _as_tuple(payload["levels"], "levels")]
    elif kind == "fixed_point_data":
        data = parse_fixed_point_data(payload)
    else:
        raise StructuralError(f"{path} does not carry data for the suite")
    reports = {
        "small_hamiltonian": fano6.small_hamiltonian_suite(data),
        "cycle_inequality": fano6.cycle_inequality(data),
    }
    if fibre is not None:
        reports["sphere_area"] = fano6.sphere_area_vs_fibre(data, fibre, fibre_xi)
    if levels is not None:
        reports["positivity"] = dh_mod.positivity_check(data, levels)
    return _exit_code(reports.values()), {name: r.as_dict() for name, r in reports.items()}


def _cmd_enumerate_04() -> Tuple[int, dict]:
    rows = fano6.enumerate_04()
    return 0, {"rows": rows, "max_total": max(r["total"] for r in rows)}


# -- dispatch -----------------------------------------------------------------

_HANDLERS = {
    "validate": _cmd_validate,
    "normalize": _cmd_normalize,
    "localize": _cmd_localize,
    "chi-y": _cmd_chi_y,
    "dh": _cmd_dh,
    "toric": _cmd_toric_scan,
    "fano6": _cmd_fano6,
    "enumerate-04": _cmd_enumerate_04,
}


def run(argv: Sequence[str]) -> Tuple[int, str]:
    """Execute one CLI invocation; returns (exit code, output text).

    Only argv that names no known command or does not fit its usage line gets
    the usage text.  A later error, also one in writing the output, gets its
    message alone: exit 1 for an inconsistency, 2 otherwise."""
    args = list(argv)
    # the global flag is read in first position only, as the usage line has it
    pretty = args[:1] == ["--pretty"]
    if pretty:
        del args[0]
    try:
        if not args:
            raise StructuralError("no command given")
        handler = _HANDLERS.get(args[0])
        if handler is None:
            raise StructuralError(f"unknown command {args[0]!r}")
        operands = _operands(args[1:], args[0])
    except StructuralError as exc:
        return 2, _dump({"error": str(exc), "usage": USAGE.strip()}, pretty)
    try:
        code, payload = handler(*operands)
        return code, _dump(payload, pretty)
    except ValueError as exc:
        code = 1 if isinstance(exc, InconsistencyError) else 2
        return code, _dump({"error": str(exc)}, pretty)


def _dump(payload: dict, pretty: bool) -> str:
    if pretty:
        return json.dumps(payload, indent=2, default=_exact)
    return json.dumps(payload, separators=(",", ":"), default=_exact)


def main() -> None:
    code, output = run(sys.argv[1:])
    try:
        print(output, flush=True)
    except OSError as exc:
        # what stays buffered goes nowhere, so the flush at exit stays silent
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"hamfano: cannot write the output: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)


if __name__ == "__main__":
    main()
