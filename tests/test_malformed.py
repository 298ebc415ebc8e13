"""Malformed documents end with exit 2 and a JSON error, never a traceback
or a silent misreading; a Hypothesis fuzz test mutates valid documents.

Booleans are JSON ``true``/``false``, integers are neither floats nor
booleans, and rationals are integers or "p/q" strings in lowest terms.
"""

import copy
import json
from datetime import timedelta

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


def _set(doc, path, value):
    """A deep copy of doc with the value at path (keys and indices) replaced."""
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
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


@st.composite
def _mutated(draw):
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = DOCUMENTS[name]
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(_PATHS[name]))
        try:
            doc = _set(doc, path, draw(_JSON))
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed the container of this path
    return doc


@settings(
    max_examples=200,
    derandomize=True,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(doc=_mutated())
def test_fuzzed_documents_keep_the_contract(tmp_path, doc):
    path = _write(tmp_path, doc)
    for command in COMMANDS:
        code, out = run(_argv(command, path))
        assert code in (0, 1, 2), (command, out)
        json.loads(out)
