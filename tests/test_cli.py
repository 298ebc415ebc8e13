"""CLI subcommands, document round-trips, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import hamfano
from hamfano.cli import (
    USAGE,
    _dump,
    _exact,
    load_document,
    parse_fixed_point_data,
    render_fixed_point_data,
    run,
)
from hamfano.reports import StructuralError
from hamfano.toric import catalog_entry, fixed_data_from_polytope

CP2 = catalog_entry("CP2").polytope


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def doc_data(payload):
    return {"schema_version": "1", "fixed_point_data": payload}


CP2_DATA = {
    "half_dim": 2,
    "relative_fano": True,
    "fano": True,
    "components": [
        {"id": "a", "kind": "point", "H": -3, "weights": [1, 2]},
        {"id": "b", "kind": "point", "H": 0, "weights": [-1, 1]},
        {"id": "c", "kind": "point", "H": 3, "weights": [-2, -1]},
    ],
    "edges": [
        {"bottom": "a", "top": "b", "weight": 1},
        {"bottom": "a", "top": "c", "weight": 2},
        {"bottom": "b", "top": "c", "weight": 1},
    ],
}


def test_round_trip_preserves_document():
    data = parse_fixed_point_data(CP2_DATA)
    rendered = render_fixed_point_data(data)
    assert parse_fixed_point_data(rendered) == data


def test_rationals_as_strings():
    payload = dict(CP2_DATA)
    payload["components"] = [dict(c) for c in CP2_DATA["components"]]
    payload["components"][0]["H"] = "-3/1"
    with pytest.raises(StructuralError):
        parse_fixed_point_data({**payload, "half_dim": "x"})
    data = parse_fixed_point_data(payload)
    assert data.component("a").H == -3


def test_validate_ok(tmp_path):
    path = write(tmp_path, "cp2.json", doc_data(CP2_DATA))
    code, out = run(["validate", path])
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_validate_duplicate_minimum_exits_1(tmp_path):
    payload = {
        "half_dim": 2,
        "components": [
            {"id": "a", "kind": "point", "H": 0, "weights": [1, 1]},
            {"id": "b", "kind": "point", "H": 0, "weights": [1, 2]},
            {"id": "c", "kind": "point", "H": 1, "weights": [-1, -1]},
        ],
    }
    path = write(tmp_path, "broken.json", doc_data(payload))
    code, out = run(["validate", path])
    assert code == 1
    report = json.loads(out)
    assert report["ok"] is False and report["violations"]


def test_validate_duplicate_ids_exit_2(tmp_path):
    payload = {
        "half_dim": 2,
        "components": [
            {"id": "a", "kind": "point", "H": 0, "weights": [1, 1]},
            {"id": "a", "kind": "point", "H": 1, "weights": [-1, -1]},
        ],
    }
    path = write(tmp_path, "dup.json", doc_data(payload))
    code, out = run(["validate", path])
    assert code == 2
    assert "error" in json.loads(out)


def test_localize_4d_zero(tmp_path):
    path = write(tmp_path, "cp2.json", doc_data(CP2_DATA))
    code, out = run(["localize", "4d", path])
    assert code == 0
    assert json.loads(out) == {"sum": 0}


@pytest.mark.parametrize(
    "argv, line",
    [
        (["localize", "5d"], "localize {4d|6d} <file>"),
        (["fano6", "foo"], "fano6 {graph|chains|abc|suite} <file>"),
    ],
    ids=["localize-5d", "fano6-foo"],
)
def test_unknown_subcommand_usage_exit_2(tmp_path, argv, line):
    path = write(tmp_path, "cp2.json", doc_data(CP2_DATA))
    code, out = run(argv + [path])
    assert code == 2
    error = f"usage: {line}; got {[argv[1], path]!r}"
    assert json.loads(out) == {"error": error, "usage": USAGE.strip()}


def test_localize_4d_nonzero_exits_1(tmp_path):
    payload = {
        "half_dim": 2,
        "components": [{"id": "p", "kind": "point", "H": 0, "weights": [1, 1]}],
    }
    path = write(tmp_path, "pt.json", doc_data(payload))
    code, out = run(["localize", "4d", path])
    assert code == 1
    assert json.loads(out) == {"sum": 1}


def test_chi_y_cp3(tmp_path):
    data = fixed_data_from_polytope(
        catalog_entry("CP2").polytope, (1, 2)
    )  # warm-up to keep imports honest
    cp3 = {
        "half_dim": 3,
        "relative_fano": True,
        "fano": True,
        "components": [
            {"id": "a", "kind": "point", "H": -7, "weights": [1, 2, 4]},
            {"id": "b", "kind": "point", "H": -3, "weights": [-1, 1, 3]},
            {"id": "c", "kind": "point", "H": 1, "weights": [-2, -1, 2]},
            {"id": "d", "kind": "point", "H": 9, "weights": [-4, -3, -2]},
        ],
    }
    path = write(tmp_path, "cp3.json", {"schema_version": "1", "fixed_point_data": cp3})
    code, out = run(["chi-y", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["coefficients"] == [1, -1, 1, -1]
    assert obj["todd"] == 1 and obj["c1c2"] == 24


def test_normalize_shifts_and_reports_constant(tmp_path):
    payload = json.loads(json.dumps(CP2_DATA))
    for c in payload["components"]:
        c["H"] = c["H"] + 5
    path = write(tmp_path, "shifted.json", doc_data(payload))
    code, out = run(["normalize", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["constant"] == -5
    assert obj["data"]["components"][0]["H"] == -3


def test_normalize_inconsistent_exits_1(tmp_path):
    payload = {
        "half_dim": 2,
        "relative_fano": True,
        "components": [
            {"id": "lo", "kind": "point", "H": -2, "weights": [1, 1]},
            {"id": "hi", "kind": "point", "H": 1, "weights": [-1, -1]},
        ],
    }
    path = write(tmp_path, "off.json", doc_data(payload))
    code, out = run(["normalize", path])
    assert code == 1
    assert json.loads(out)["residuals"] == {"hi": 1, "lo": 0}


def test_dh_toric_cli(tmp_path):
    path = write(
        tmp_path,
        "cp2poly.json",
        {"schema_version": "1", "polytope": {"dim": 2, "vertices": [[-1, -1], [2, -1], [-1, 2]]}},
    )
    code, out = run(["dh", "toric", path, "--xi", "1,2"])
    assert code == 0
    obj = json.loads(out)
    assert obj["breakpoints"] == [-3, 0, 3]
    assert obj["pieces"] == [["3/2", "1/2"], ["3/2", "-1/2"]]


def test_toric_scan_catalog_name():
    code, out = run(["toric", "scan", "CP2", "--bound", "1"])
    assert code == 0
    obj = json.loads(out)
    assert [item["xi"] for item in obj["items"]] == [[0, 1], [1, -1], [1, 0], [1, 1]]
    assert all(item["abbv_sum"] == 0 for item in obj["items"])
    assert all(item["weight_sum_constant"] == 0 for item in obj["items"])


def test_enumerate_04_cli():
    code, out = run(["enumerate-04"])
    assert code == 0
    obj = json.loads(out)
    assert obj["max_total"] == 8
    assert all(row["total"] <= 8 and row["b2_min"] <= 9 for row in obj["rows"])


def test_fano6_chains_cli(tmp_path):
    from hamfano.cli import render_fixed_point_data
    from hamfano.fano6 import build_04_data

    data = build_04_data((-1, -1, -1), 2, 2, 1)
    path = write(tmp_path, "o4.json", doc_data(render_fixed_point_data(data)))
    code, out = run(["fano6", "chains", path])
    assert code == 0
    chains = json.loads(out)["chains"]
    assert {tuple(c["points"]) for c in chains} == {("a0", "b0"), ("a1", "b1")}

    code, out = run(["fano6", "abc", path])
    assert code == 0
    obj = json.loads(out)
    assert (obj["n_A"], obj["n_B"], obj["n_C"], obj["b2_min"]) == (2, 2, 1, 6)


def test_fano6_chains_two_cycle_exits_1(tmp_path):
    # edges x->y and y->x of weight 2: the second one runs downhill, so the
    # command exits 1 naming it instead of looping
    payload = {
        "half_dim": 3,
        "components": [
            {"id": "x", "kind": "point", "H": 0, "weights": [-2, 1, 1]},
            {"id": "y", "kind": "point", "H": 1, "weights": [-2, 1, 1]},
        ],
        "edges": [
            {"bottom": "x", "top": "y", "weight": 2},
            {"bottom": "y", "top": "x", "weight": 2},
        ],
    }
    path = write(tmp_path, "loop.json", doc_data(payload))
    src = os.path.dirname(os.path.dirname(os.path.abspath(hamfano.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "hamfano.cli", "fano6", "chains", path],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 1
    assert "y->x" in json.loads(proc.stdout)["error"]


def _cli_process(argv, **kwargs):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hamfano.__file__)))
    env = {**os.environ, "PYTHONPATH": src, **kwargs.pop("env", {})}
    return subprocess.Popen(
        [sys.executable, "-B", "-m", "hamfano.cli", *argv], stderr=subprocess.PIPE, env=env, **kwargs
    )


# the output still buffered at a failed write is what the flush at exit would try again
@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exits_2_without_traceback(unbuffered):
    doc = os.path.join(os.path.dirname(__file__), "golden", "abc_3_1_1_2.json")
    with open("/dev/full", "w") as full:
        proc = _cli_process(["chi-y", doc], stdout=full, env={"PYTHONUNBUFFERED": unbuffered})
        _, err = proc.communicate(timeout=30)
    assert proc.returncode == 2
    assert err.decode().splitlines() == ["hamfano: cannot write the output: [Errno 28] No space left on device"]


def test_closed_pipe_exits_2_without_traceback():
    # 1.1 MB of output: far more than a pipe holds, so the write meets the closed end
    with _cli_process(["toric", "scan", "CP2", "--bound", "60"], stdout=subprocess.PIPE) as proc:
        assert proc.stdout.read(20) == b'{"polytope":{"dim":2'
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=30) == 2
    assert err.splitlines() == ["hamfano: cannot write the output: [Errno 32] Broken pipe"]


DOWNHILL = "edge y->x must increase the Hamiltonian: H(y) = 1 !< H(x) = 0"
LEVEL = "edge x->y must increase the Hamiltonian: H(x) = 0 !< H(y) = 0"


@pytest.mark.parametrize(
    "sub, level",
    [
        pytest.param(sub, level, id=f"{sub}-level" if level else sub)
        for level in (False, True)
        for sub in ("graph", "chains", "abc", "suite")
    ],
)
def test_fano6_downhill_edge_exits_1_with_the_validate_message(tmp_path, sub, level):
    # one report for an edge that does not climb (downhill, or level with
    # H(bottom) = H(top)): every fano6 subcommand refuses it up front, with
    # the message validate flags it by
    h_y, edge, message = (0, ("x", "y"), LEVEL) if level else (1, ("y", "x"), DOWNHILL)
    payload = {
        "half_dim": 3,
        "components": [
            {"id": "x", "kind": "point", "H": 0, "weights": [-2, 1, 1]},
            {"id": "y", "kind": "point", "H": h_y, "weights": [-2, 1, 1]},
        ],
        "edges": [{"bottom": edge[0], "top": edge[1], "weight": 2}],
    }
    path = write(tmp_path, "downhill.json", doc_data(payload))
    code, out = run(["validate", path])
    assert code == 1
    assert [v["message"] for v in json.loads(out)["violations"]
            if v["code"] == "edge-order"] == [message]
    docs = [path]
    if sub == "suite":
        request = {"schema_version": "1", "suite_request": {"data": payload}}
        docs.append(write(tmp_path, "request.json", request))
    for doc in docs:
        code, out = run(["fano6", sub, doc])
        assert (code, json.loads(out)) == (1, {"error": message})


def test_render_writes_a_fraction_as_p_over_q():
    data = parse_fixed_point_data(CP2_DATA)
    data = replace(
        data,
        components=tuple(
            replace(c, H=Fraction(-7, 2)) if c.id == "a" else c for c in data.components
        ),
    )
    text = json.dumps(render_fixed_point_data(data)["components"][0], separators=(",", ":"))
    assert text == '{"id":"a","kind":"point","H":"-7/2","weights":[1,2]}'


def test_exact_is_the_one_writer_of_a_fraction():
    assert _exact(Fraction(-7, 2)) == "-7/2"
    assert _exact(Fraction(4, 2)) == 2 and type(_exact(Fraction(4, 2))) is int
    with pytest.raises(TypeError):
        _exact(object())
    with pytest.raises(TypeError):
        _exact(1.5)
    # json calls the writer for what it cannot write itself; an int stays an int
    payload = {"q": Fraction(-7, 2), "n": Fraction(4, 2), "i": 3, "l": [Fraction(1, 3)]}
    assert _dump(payload, False) == '{"q":"-7/2","n":2,"i":3,"l":["1/3"]}'
    assert _dump(payload, True) == json.dumps(json.loads(_dump(payload, False)), indent=2)
    with pytest.raises(TypeError):
        _dump({"x": object()}, False)


def test_readme_example_is_what_run_prints(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("### Examples\n\n```sh\n")[1].split("```")[0].splitlines()
    document = example[1].split("'")[1]
    assert example[1] == f"echo '{document}' > cp2.json"
    command = example[2].split()
    assert command[0] == "hamfano" and example[3].startswith("# ")
    (tmp_path / "cp2.json").write_text(document + "\n")
    monkeypatch.chdir(tmp_path)
    assert run(command[1:]) == (0, example[3][2:])


def test_readme_usage_block_is_the_usage_text():
    # the argv grammar is read from USAGE, so the README must show USAGE itself
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI\n\n```\n")[1].split("```")[0]
    assert block == USAGE.replace("usage: ", "", 1).replace("commands:\n", "", 1)


def test_chi_y_and_localize_compute_on_data_validate_rejects():
    # as the README says: neither applies validate's rules first
    path = os.path.join(os.path.dirname(__file__), "golden", "surface_weight3.json")
    code, out = run(["validate", path])
    assert code == 1
    assert [v["code"] for v in json.loads(out)["violations"]] == ["effectiveness"]
    code, out = run(["chi-y", path])
    assert (code, json.loads(out)["chi_y"]) == (0, "1 - y + y^2")
    assert run(["localize", "4d", path]) == (1, '{"sum":"-2/3"}')


def test_dh_toric_refuses_a_non_primitive_direction():
    path = os.path.join(os.path.dirname(__file__), "golden", "cp2.json")
    code, out = run(["dh", "toric", path, "--xi", "2,4"])
    assert code == 2
    assert json.loads(out)["error"] == "direction (2, 4) is not primitive"


def test_dh_toric_refuses_a_non_delzant_polygon():
    path = os.path.join(os.path.dirname(__file__), "golden", "triangle_nondelzant.json")
    code, out = run(["dh", "toric", path, "--xi", "1,2"])
    assert code == 2
    assert "Delzant" in json.loads(out)["error"]


def test_dh_toric_refuses_a_3_polytope():
    # the cube is Delzant: the refusal is about the dimension alone
    path = os.path.join(os.path.dirname(__file__), "golden", "cube.json")
    code, out = run(["dh", "toric", path, "--xi", "1,2,4"])
    assert code == 2
    assert json.loads(out)["error"] == "the toric DH function applies to polygons"


def test_fano6_chains_and_abc_refuse_4_dimensional_data(tmp_path):
    data = fixed_data_from_polytope(catalog_entry("Bl1CP2").polytope, (1, 2))
    path = write(tmp_path, "bl1cp2.json", doc_data(render_fixed_point_data(data)))
    for sub, name in (("chains", "maximal_downward_chains"), ("abc", "type_abc_classify")):
        code, out = run(["fano6", sub, path])
        assert code == 2
        assert json.loads(out)["error"] == f"{name} applies to 6-dimensional data"


def test_fano6_chains_refuses_a_tied_minimum(tmp_path):
    payload = {
        "half_dim": 3,
        "components": [
            {"id": "lo", "kind": "point", "H": -1, "weights": [1, 1, 1]},
            {"id": "lo2", "kind": "point", "H": -1, "weights": [1, 1, 1]},
            {"id": "hi", "kind": "point", "H": 1, "weights": [-1, -1, -1]},
        ],
    }
    code, out = run(["fano6", "chains", write(tmp_path, "tied.json", doc_data(payload))])
    assert code == 2
    assert json.loads(out)["error"] == "minimum attained by ['lo', 'lo2']"


def test_fano6_suite_cli(tmp_path):
    from .lifts import lift_product

    data = lift_product(CP2, (1, 2), genus=2)
    payload = render_fixed_point_data(data)
    req = {
        "schema_version": "1",
        "suite_request": {
            "data": payload,
            "fibre": {"dim": 2, "vertices": [[-1, -1], [2, -1], [-1, 2]]},
            "fibre_xi": [1, 2],
        },
    }
    path = write(tmp_path, "suite.json", req)
    code, out = run(["fano6", "suite", path])
    assert code == 0
    obj = json.loads(out)
    assert obj["small_hamiltonian"]["ok"] is True
    assert obj["cycle_inequality"]["ok"] is True
    assert obj["sphere_area"]["ok"] is True


def test_fano6_suite_violations_exit_1(tmp_path):
    from hamfano.fixed_data import FixedComponent
    from fractions import Fraction
    from .lifts import lift_product

    base = lift_product(CP2, (1, 2), genus=1)
    sphere = FixedComponent(
        id="sph",
        kind="surface",
        H=Fraction(-1),
        weights=(-1, 2),
        genus=0,
        normal_degrees=(-1, 0),
        area=Fraction(1),
    )
    data = replace(base, components=base.components + (sphere,))
    path = write(tmp_path, "bad.json", doc_data(render_fixed_point_data(data)))
    code, out = run(["fano6", "suite", path])
    assert code == 1
    obj = json.loads(out)
    assert obj["small_hamiltonian"]["ok"] is False


def test_fano6_suite_with_levels(tmp_path):
    from .lifts import lift_product

    data = lift_product(CP2, (1, 2), genus=2)
    req = {
        "schema_version": "1",
        "suite_request": {
            "data": render_fixed_point_data(data),
            "levels": ["5/2"],
        },
    }
    path = write(tmp_path, "lv.json", req)
    code, out = run(["fano6", "suite", path])
    assert code == 0
    assert json.loads(out)["positivity"]["ok"] is True


def test_fano6_graph_cli(tmp_path):
    from .lifts import lift_product

    data = lift_product(CP2, (1, 2), genus=1)
    path = write(tmp_path, "g.json", doc_data(render_fixed_point_data(data)))
    code, out = run(["fano6", "graph", path])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["graph"]["vertices"]) == 3
    assert obj["graph"]["min"] == "v-1_-1"


def test_public_names_resolve():
    assert all(hasattr(hamfano, name) for name in hamfano.__all__)


def test_unknown_command_usage_exit_2():
    code, out = run(["frobnicate"])
    assert code == 2
    obj = json.loads(out)
    assert obj["error"] == "unknown command 'frobnicate'"
    assert obj["usage"].startswith("usage: hamfano")


def test_no_command_usage_exit_2():
    code, out = run(["--pretty"])
    assert code == 2
    obj = json.loads(out)
    assert obj["error"] == "no command given"
    assert obj["usage"].startswith("usage: hamfano")
    assert run([]) == (2, json.dumps(obj, separators=(",", ":")))


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["normalize", str(Path(__file__).resolve().parent / "golden" / "surface_weight3.json")],
            "weight_sum_constant applies to relative Fano data",
        ),
        (["toric", "scan", "CP2", "--bound", "x"], "--bound expects an integer, got 'x'"),
    ],
    ids=["normalize-not-relative-fano", "scan-bound-not-an-integer"],
)
def test_an_error_past_the_usage_check_prints_only_itself(argv, error):
    # argv fits its usage line, so the command's own refusal carries no usage text
    assert run(argv) == (2, json.dumps({"error": error}, separators=(",", ":")))


def test_scan_bound_over_cap_exit_2_quickly():
    start = time.perf_counter()
    code, out = run(["toric", "scan", "CP2", "--bound", "100000"])
    assert time.perf_counter() - start < 5
    assert code == 2
    assert "32768" in json.loads(out)["error"]


def test_missing_flag_exit_2(tmp_path):
    path = write(
        tmp_path,
        "p.json",
        {"schema_version": "1", "polytope": {"dim": 2, "vertices": [[-1, -1], [2, -1], [-1, 2]]}},
    )
    code, _ = run(["dh", "toric", path])
    assert code == 2


def test_wrong_schema_version_exit_2(tmp_path):
    path = write(tmp_path, "bad.json", {"schema_version": "7", "polytope": {}})
    code, _ = run(["dh", "toric", path, "--xi", "1,2"])
    assert code == 2


def test_output_is_deterministic(tmp_path):
    path = write(tmp_path, "cp2.json", doc_data(CP2_DATA))
    outs = {run(["validate", path])[1] for _ in range(3)}
    assert len(outs) == 1
    outs = {run(["enumerate-04"])[1] for _ in range(3)}
    assert len(outs) == 1


def test_pretty_flag(tmp_path):
    path = write(tmp_path, "cp2.json", doc_data(CP2_DATA))
    _, compact = run(["validate", path])
    _, pretty = run(["--pretty", "validate", path])
    assert json.loads(compact) == json.loads(pretty)
    assert "\n" in pretty and "\n" not in compact


def test_document_needs_exactly_one_payload(tmp_path):
    path = write(
        tmp_path,
        "two.json",
        {"schema_version": "1", "polytope": {}, "fixed_point_data": {}},
    )
    with pytest.raises(StructuralError):
        load_document(path)
