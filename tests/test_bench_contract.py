"""The names the benchmark harness traces, reports and calls still exist.

``perfbench/tracer.py`` wraps every ``CLASS_TARGETS`` entry through
``vars()`` of its class, ``perfbench/run.py`` reports every ``NAMED`` entry
as a per-layer metric, and ``run.make_executor`` calls a few library
functions directly.  A package change that drops or moves one of them
breaks ``--trace 1`` with a ``KeyError`` (or lets a metric read 0) instead
of failing here.  Both files are loaded by path; neither is run, and no
bytecode is written next to them.
"""

import ast
import importlib
import importlib.util
import inspect
import sys

import pytest

import hamfano.cli  # noqa: F401  (imports every traced module)

from .test_golden import ROOT

BENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """(tracer, run) loaded by path; run's imports of its siblings are undone after."""
    before = set(sys.modules)
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        modules = []
        for name in ("tracer", "run"):
            spec = importlib.util.spec_from_file_location(f"perfbench_{name}", BENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            modules.append(module)
        yield tuple(modules)
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
        for name in set(sys.modules) - before:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(BENCH)):
                del sys.modules[name]


def _resolve(dotted):
    short, *attrs = dotted.split(".")
    obj = importlib.import_module(f"hamfano.{short}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_traced_modules_import(bench):
    tracer, _run = bench
    for short in tracer.MODULES:
        assert f"hamfano.{short}" in sys.modules, short


def test_class_targets_resolve_as_install_needs(bench):
    tracer, _run = bench
    for target in tracer.CLASS_TARGETS:
        short, cls_name, *method = target.split(".")
        cls = getattr(sys.modules[f"hamfano.{short}"], cls_name)
        assert (method[0] if method else "__init__") in vars(cls), target


def test_named_metrics_resolve(bench):
    tracer, run = bench
    for short, names in run.NAMED.items():
        assert short in tracer.MODULES, short
        for name in names:
            target = f"{short}.{name}"
            obj = _resolve(target)
            if target not in tracer.CLASS_TARGETS:
                # the tracer wraps public functions under their defining module
                assert inspect.isfunction(obj), target
                assert obj.__module__ == f"hamfano.{short}", target


def test_executor_library_calls_exist(bench):
    _tracer, run = bench
    tree = ast.parse(inspect.getsource(run.make_executor))
    roots = {"hamfano": "", "cli": "cli."}
    calls = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            parts, value = [], node.func
            while isinstance(value, ast.Attribute):
                parts.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in roots:
                calls.add(roots[value.id] + ".".join(reversed(parts)))
    assert {"cli.run", "cli.load_fixed_point_data", "cli.load_polytope"} <= calls
    for dotted in sorted(calls):
        assert callable(_resolve(dotted)), dotted


def test_tracer_installs_and_uninstalls(bench):
    tracer, _run = bench
    t = tracer.Tracer()
    original = vars(hamfano.toric.LatticePolytope)["vertex_edges"]
    try:
        t.install()
    finally:
        t.uninstall()
    assert vars(hamfano.toric.LatticePolytope)["vertex_edges"] is original
    assert not hasattr(hamfano.toric.fixed_data_from_polytope, "__wrapped__")
