"""Malformed documents and argv end with exit 2 and a JSON error, never a
traceback or a silent misreading; Hypothesis fuzz tests mutate valid
documents and draw argv from CLI tokens.

Booleans are JSON ``true``/``false``, integers are neither floats nor
booleans, and rationals are integers or "p/q" strings in lowest terms.
Integer arguments are canonical ASCII integers, and exactly one flag
follows the target.
"""

import copy
import json
from collections import Counter
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamfano.cli import run


def _surface(cid, h, weights):
    return {
        "id": cid,
        "kind": "surface",
        "H": h,
        "weights": weights,
        "genus": 1,
        "normal_degrees": [0, 0],
        "fibre_intersection": 1,
    }


# CP2 x Sigma_1 under the direction (1, 2), as tests/lifts.py builds it
PRODUCT = {
    "half_dim": 3,
    "relative_fano": True,
    "fano": False,
    "components": [
        _surface("v-1_-1", -3, [1, 2]),
        _surface("v2_-1", 0, [-1, 1]),
        _surface("v-1_2", 3, [-2, -1]),
    ],
    "edges": [{"bottom": "v-1_-1", "top": "v-1_2", "weight": 2, "interior_points": [[1, -1]]}],
}

# the build_04_data row ({-1,-1,-1}, n_A = n_B = 1, n_C = 0)
ROW = {
    "half_dim": 3,
    "relative_fano": True,
    "fano": True,
    "components": [
        {"id": "min", "kind": "fourfold", "H": -1, "weights": [1], "b2": 3},
        {"id": "max", "kind": "point", "H": 3, "weights": [-1, -1, -1]},
        {"id": "a0", "kind": "point", "H": 2, "weights": [-2, -1, 1]},
        {"id": "b0", "kind": "point", "H": 0, "weights": [-1, -1, 2]},
    ],
    "edges": [{"bottom": "b0", "top": "a0", "weight": 2}],
}

POLYGON = {"dim": 2, "vertices": [[-1, -1], [2, -1], [-1, 2]]}

SUITE = {"data": PRODUCT, "fibre": POLYGON, "fibre_xi": [1, 2], "levels": [0]}

DOCUMENTS = {
    "product": {"fixed_point_data": PRODUCT},
    "row": {"fixed_point_data": ROW},
    "polygon": {"polytope": POLYGON},
    "suite": {"suite_request": SUITE},
}

COMMANDS = (
    ["validate"],
    ["normalize"],
    ["localize", "4d"],
    ["localize", "6d"],
    ["chi-y"],
    ["dh", "toric", None, "--xi", "1,2"],
    ["toric", "scan", None, "--bound", "2"],
    ["fano6", "graph"],
    ["fano6", "chains"],
    ["fano6", "abc"],
    ["fano6", "suite"],
)


def _argv(command, path):
    if None in command:
        return [path if a is None else a for a in command]
    return command + [path]


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"schema_version": "1", **doc}))
    return str(path)


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    """A deep copy of doc with the value at path (keys and indices) replaced."""
    out = copy.deepcopy(doc)
    _get(out, path[:-1])[path[-1]] = value
    return out


COMPONENT = ("fixed_point_data", "components", 0)
EDGE = ("fixed_point_data", "edges", 0)

# (document, command, path to the replaced value, malformed value)
MALFORMED = [
    ("product", "validate", COMPONENT + ("weights",), 5),
    ("product", "validate", COMPONENT + ("normal_degrees",), 5),
    ("product", "validate", ("fixed_point_data", "components"), 5),
    ("product", "validate", ("fixed_point_data", "edges"), 5),
    ("product", "validate", ("fixed_point_data", "edges"), [5]),
    ("product", "validate", EDGE + ("interior_points",), [5]),
    ("product", "validate", EDGE + ("interior_points",), 5),
    ("polygon", "dh", ("polytope", "vertices"), 5),
    ("polygon", "dh", ("polytope", "vertices", 0), ["1", 2]),
    ("polygon", "dh", ("polytope", "vertices", 0), [[1], 2]),
    ("suite", "suite", ("suite_request", "fibre_xi"), 5),
    ("suite", "suite", ("suite_request", "fibre_xi"), ["1", 2]),
    ("suite", "suite", ("suite_request", "levels"), 5),
    ("suite", "suite", ("suite_request",), 5),
    ("suite", "suite", ("suite_request",), "data"),
    ("product", "validate", ("fixed_point_data", "relative_fano"), "false"),
    ("product", "validate", ("fixed_point_data", "fano"), "false"),
    ("product", "validate", COMPONENT + ("fibre_class",), "false"),
    ("product", "validate", COMPONENT + ("genus",), True),
    ("product", "validate", COMPONENT + ("fibre_intersection",), True),
    ("row", "validate", ("fixed_point_data", "components", 0, "b2"), True),
    ("product", "validate", ("fixed_point_data", "half_dim"), 3.0),
    ("product", "validate", COMPONENT + ("H",), "-4/2"),
    ("product", "validate", COMPONENT + ("H",), "007"),
    ("product", "validate", COMPONENT + ("H",), "1/02"),
    ("product", "validate", COMPONENT + ("H",), "-0"),
    ("product", "validate", COMPONENT + ("H",), "-0/1"),
    ("product", "validate", COMPONENT + ("H",), " -2 "),
    ("product", "validate", COMPONENT + ("H",), "3.5"),
    ("product", "validate", COMPONENT + ("H",), "1e400"),
    ("product", "validate", COMPONENT + ("H",), "3/0"),
    ("polygon", "dh", ("polytope", "dim"), 2.0),
]

_COMMAND = {
    "validate": ["validate"],
    "dh": ["dh", "toric", None, "--xi", "1,2"],
    "suite": ["fano6", "suite"],
}


@pytest.mark.parametrize(
    "doc, command, path, value",
    MALFORMED,
    ids=[f"{'.'.join(map(str, p))}={json.dumps(v)}" for _d, _c, p, v in MALFORMED],
)
def test_malformed_value_exits_2_with_json(tmp_path, doc, command, path, value):
    good = _write(tmp_path, DOCUMENTS[doc])
    assert run(_argv(_COMMAND[command], good))[0] in (0, 1)
    bad = _write(tmp_path, _set(DOCUMENTS[doc], path, value))
    code, out = run(_argv(_COMMAND[command], bad))
    assert code == 2
    assert "error" in json.loads(out)


# (document, command, path to an added key, its value): every key the format
# does not define is refused by name, so a misspelt one is not dropped
UNKNOWN_KEYS = [
    ("product", "validate", COMPONENT + ("normal_degree",), [5, 5]),
    ("product", "validate", EDGE + ("wieght",), 7),
    ("product", "validate", ("fixed_point_data", "bogus"), 1),
    ("polygon", "dh", ("polytope", "bogus"), 1),
    ("suite", "suite", ("suite_request", "fibre_x"), [1, 2]),
    ("suite", "suite", ("suite_request", "data", "bogus"), 1),
    ("suite", "suite", ("suite_request", "fibre", "bogus"), 1),
    ("product", "validate", ("bogus",), 1),
]


@pytest.mark.parametrize(
    "doc, command, path, value",
    UNKNOWN_KEYS,
    ids=[".".join(map(str, p)) for _d, _c, p, _v in UNKNOWN_KEYS],
)
def test_unknown_key_exits_2_and_names_it(tmp_path, doc, command, path, value):
    bad = _write(tmp_path, _set(DOCUMENTS[doc], path, value))
    code, out = run(_argv(_COMMAND[command], bad))
    assert code == 2
    assert f"unknown key {path[-1]!r}" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "key, message",
    [
        ("fibre", "suite_request with fibre_xi needs a fibre"),
        ("fibre_xi", "suite_request with a fibre needs fibre_xi"),
    ],
)
def test_suite_fibre_and_fibre_xi_come_together(tmp_path, key, message):
    request = {k: v for k, v in SUITE.items() if k != key}
    if key == "fibre":
        request["fibre_xi"] = "garbage"  # never read, still refused
    code, out = run(["fano6", "suite", _write(tmp_path, {"suite_request": request})])
    assert code == 2
    assert json.loads(out)["error"] == message


def test_canonical_rational_strings_are_accepted(tmp_path):
    for h in ("-3/1", "-3", -3):
        path = _write(tmp_path, _set(DOCUMENTS["product"], COMPONENT + ("H",), h))
        code, out = run(["validate", path])
        assert code == 0, out


def _paths(node, prefix=()):
    """Every key and index path into a JSON value, containers included."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


_PATHS = {name: sorted(_paths(doc), key=repr) for name, doc in DOCUMENTS.items()}
# the object levels of each document, the document itself included
_OBJECTS = {
    name: [()] + [p for p in _PATHS[name] if isinstance(_get(doc, p), dict)]
    for name, doc in DOCUMENTS.items()
}

_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-5, 5)
    | st.floats(allow_nan=False, allow_infinity=False, width=32)
    | st.sampled_from(["", "x", "1/2", "2/4", "-1", "v2_-1", "surface", "point"])
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2)
    ),
    max_leaves=4,
)
# keys of the format, at the level they belong to or elsewhere, and strangers
_KEYS = st.sampled_from(
    sorted({p[-1] for paths in _PATHS.values() for p in paths if isinstance(p[-1], str)})
    + ["schema_version", "polytope", "Weights", ""]
) | st.text(max_size=3)


def _rekeyed(doc, path, how, pick, key, value):
    """A deep copy of doc whose object at path has lost one of its keys
    ("drop"), had one renamed to key ("rename") or gained key ("add")."""
    out = copy.deepcopy(doc)
    node = _get(out, path)
    if not isinstance(node, dict):
        raise TypeError("an earlier mutation replaced this object")
    if how == "add":
        node[key] = value
    elif node:
        old = sorted(node)[pick % len(node)]
        moved = node.pop(old)
        if how == "rename":
            node[key] = moved
    return out


@st.composite
def _mutated(draw, named=False):
    """A valid document, schema_version included, after one or two mutations:
    a value replaced, or a key dropped, renamed or added at any object level.
    With named, the name of the valid document comes first."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = {"schema_version": "1", **DOCUMENTS[name]}
    for _ in range(draw(st.integers(1, 2))):
        how = draw(st.sampled_from(["value", "drop", "rename", "add"]))
        try:
            if how == "value":
                doc = _set(doc, draw(st.sampled_from(_PATHS[name])), draw(_JSON))
            else:
                path = draw(st.sampled_from(_OBJECTS[name]))
                doc = _rekeyed(doc, path, how, draw(st.integers(0, 5)), draw(_KEYS), draw(_JSON))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed the container of this path
    return (name, doc) if named else doc


@settings(
    max_examples=300,
    derandomize=True,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_mutated())
def test_fuzzed_documents_keep_the_contract(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    for command in COMMANDS:
        code, out = run(_argv(command, str(path)))
        assert code in (0, 1, 2), (command, out)
        json.loads(out)


# the commands that read each payload kind
PAYLOAD_COMMANDS = {
    "fixed_point_data": (
        ["validate"],
        ["normalize"],
        ["localize", "4d"],
        ["localize", "6d"],
        ["chi-y"],
        ["fano6", "graph"],
        ["fano6", "chains"],
        ["fano6", "abc"],
        ["fano6", "suite"],
    ),
    "polytope": (["dh", "toric", None, "--xi", "1,2"], ["toric", "scan", None, "--bound", "1"]),
    "suite_request": (["fano6", "suite"],),
}


def test_fuzzed_documents_reach_a_verdict(tmp_path):
    # each mutated document goes only through the commands that read the
    # payload it was made from, so a run is not refused for the wrong kind
    tally = Counter()
    path = tmp_path / "doc.json"

    @settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
    @given(named=_mutated(named=True))
    def check(named):
        name, doc = named
        kind = next(iter(DOCUMENTS[name]))
        path.write_text(json.dumps(doc))
        for command in PAYLOAD_COMMANDS[kind]:
            code, out = run(_argv(command, str(path)))
            assert code in (0, 1, 2), (command, out)
            json.loads(out)
            tally[kind, code] += 1

    check()
    for kind in PAYLOAD_COMMANDS:
        assert tally[kind, 0] + tally[kind, 1] > 0, (kind, tally)


GOLDEN = Path(__file__).resolve().parent / "golden"
CP2_PATH = str(GOLDEN / "cp2.json")

# (argv, the part of it the error must name): each was reinterpreted or
# dropped while a flag's value went through int() and the first flag won
LENIENT_ARGV = [
    (["toric", "scan", "CP2", "--bound", "1_0"], "'1_0'"),
    (["toric", "scan", "CP2", "--bound", "+1"], "'+1'"),
    (["toric", "scan", "CP2", "--bound", "05"], "'05'"),
    (["toric", "scan", "CP2", "--bound", " 1"], "' 1'"),
    (["toric", "scan", "CP2", "--bound=\uff11"], "'\uff11'"),
    (["dh", "toric", CP2_PATH, "--xi", "1_2,3"], "'1_2,3'"),
    (["dh", "toric", CP2_PATH, "--xi", "+1,2"], "'+1,2'"),
    (["toric", "scan", "CP2", "--bound", "1", "junk"], "'junk'"),
    (["toric", "scan", "CP2", "--bound", "1", "--bound", "2"], "'--bound', '2'"),
    (["toric", "scan", "CP2", "junk", "--bound", "1"], "'junk'"),
    (["dh", "toric", CP2_PATH, "--xi", "+1,2", "extra"], "'extra'"),
    (["dh", "toric", CP2_PATH, "--bound", "1"], "'--bound'"),
    (["toric", "scan", "CP2"], "[]"),
    (["dh", "toric", CP2_PATH, "--xi"], "['--xi']"),
]


@pytest.mark.parametrize(
    "argv, found",
    LENIENT_ARGV,
    ids=[" ".join("cp2.json" if t == CP2_PATH else t for t in a) for a, _f in LENIENT_ARGV],
)
def test_lenient_argv_exits_2_and_names_what_was_found(argv, found):
    code, out = run(argv)
    assert code == 2, out
    assert found in json.loads(out)["error"]


def test_flag_value_is_spaced_or_joined_by_equals():
    code, out = run(["toric", "scan", "CP2", "--bound=2"])
    assert (code, out) == run(["toric", "scan", "CP2", "--bound", "2"]) and code == 0
    for xi in (["--xi", "-1,2"], ["--xi=-1,2"]):
        code, out = run(["dh", "toric", CP2_PATH, *xi])
        assert code == 0, out


_TOKENS = (
    ["validate", "normalize", "localize", "chi-y", "dh", "toric", "fano6", "enumerate-04"]
    + ["4d", "6d", "scan", "graph", "chains", "abc", "suite", "--pretty"]
    + ["--bound", "--xi", "--bound=2", "--bound=-1", "--bound=x", "--xi=1,2", "--xi=0,1"]
    + ["0", "2", "-1", "05", "+1", "1_0", "x", "1,2", "1,2,1"]
    + ["CP2", "Bl3CP2", str(GOLDEN / "missing.json")]
    + [
        str(GOLDEN / f"{name}.json")
        for name in ("cp2", "cube", "bl2cp2_10", "two_cycle", "abc_3_1_1_2", "suite_cp2_g2")
    ]
)


@settings(max_examples=300, derandomize=True, deadline=timedelta(seconds=5))
@given(argv=st.lists(st.sampled_from(_TOKENS), max_size=6))
def test_fuzzed_argv_keeps_the_contract(argv):
    # every bound token is at most 2, so each run stays small
    code, out = run(argv)
    assert code in (0, 1, 2), (argv, out)
    json.loads(out)


# (argv, its usage line): each took its operands by tuple unpacking, so a
# wrong count exited 2 with Python's unpack text, naming neither
ARITY_ARGV = [
    (argv, usage)
    for usage, operands in (
        ("validate <file>", [CP2_PATH]),
        ("normalize <file>", [CP2_PATH]),
        ("chi-y <file>", [CP2_PATH]),
        ("localize {4d|6d} <file>", ["4d", CP2_PATH]),
    )
    for argv in (
        [usage.split()[0], *operands[:-1]],
        [usage.split()[0], *operands, "extra"],
    )
]


@pytest.mark.parametrize(
    "argv, usage",
    ARITY_ARGV,
    ids=[" ".join("cp2.json" if t == CP2_PATH else t for t in a) for a, _u in ARITY_ARGV],
)
def test_wrong_operand_count_exits_2_with_the_command_usage(argv, usage):
    code, out = run(argv)
    assert code == 2, out
    error = json.loads(out)["error"]
    assert error == f"usage: {usage}; got {argv[1:]!r}"
    assert "unpack" not in error


def test_pretty_is_read_in_first_position_only():
    code, out = run(["toric", "scan", CP2_PATH, "--pretty", "--bound", "1"])
    assert code == 2, out
    assert "['--pretty', '--bound', '1']" in json.loads(out)["error"]
    code, out = run(["--pretty", "toric", "scan", CP2_PATH, "--bound", "1"])
    assert code == 0 and "\n" in out
