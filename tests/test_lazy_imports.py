"""A command executes only the modules it calls.

``hamfano/__init__`` binds each library module lazily: the module sits in
``sys.modules`` from the start and executes on its first attribute access,
and the names of ``__all__`` resolve through their home module.  Each check
runs in a fresh interpreter, where a module counts as executed once its type
is ``types.ModuleType`` (an unexecuted lazy module is of a subclass).
"""

import json
import os
import subprocess
import sys

import pytest

import hamfano

from .test_golden import GOLDEN, ROOT

LIBRARY = ("dh", "fano6", "fixed_data", "graphs", "localization", "reports", "toric")
DOC = str(GOLDEN / "abc_3_1_1_2.json")
PRODUCT = str(GOLDEN / "prod_cp2_g1.json")
# what `import hamfano.cli` executes of the package
CLI_IMPORT = {"hamfano", "hamfano.cli", "hamfano.fixed_data", "hamfano.reports"}

EXECUTED = """
def executed():
    return sorted(
        name for name, module in sys.modules.items()
        if name.partition(".")[0] == "hamfano" and type(module) is types.ModuleType
    )
"""


def fresh(*args: str) -> subprocess.CompletedProcess:
    """A fresh interpreter run with ``args``, importing this checkout's package."""
    return subprocess.run(
        [sys.executable, "-B", *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def fresh_json(code: str):
    """The JSON that ``code`` prints last, run after ``import hamfano.cli``."""
    proc = fresh("-c", "import json, sys, types\nimport hamfano.cli\n" + EXECUTED + code)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_executes_only_cli_fixed_data_and_reports():
    executed, present = fresh_json(
        "print(json.dumps([executed(), [n for n in sys.modules if n.startswith('hamfano.')]]))"
    )
    assert set(executed) == CLI_IMPORT
    assert {f"hamfano.{m}" for m in LIBRARY} <= set(present)


@pytest.mark.parametrize(
    "argv, added",
    [
        (["validate", DOC], ()),
        (["chi-y", DOC], ("localization",)),
        (["localize", "6d", PRODUCT], ("localization",)),
        (["normalize", DOC], ("localization",)),
        (["toric", "scan", "CP2", "--bound", "2"], ("toric", "graphs", "localization")),
        (["fano6", "suite", PRODUCT], LIBRARY),
    ],
)
def test_a_command_executes_only_what_it_calls(argv, added):
    code, executed = fresh_json(
        f"code, _ = hamfano.cli.run({argv!r})\nprint(json.dumps([code, executed()]))"
    )
    assert code in (0, 1)  # the command ran: a usage error would execute nothing
    assert set(executed) == CLI_IMPORT | {f"hamfano.{m}" for m in added}


def test_package_surface_after_only_the_cli_import():
    homes, modules, listed, starred = fresh_json(
        """
import importlib
homes = {
    name: getattr(hamfano, name) is getattr(importlib.import_module(f"hamfano.{home}"), name)
    for name, home in hamfano._HOME.items()
}
modules = {
    m: getattr(hamfano, m) is sys.modules[f"hamfano.{m}"] and getattr(hamfano, m).__name__ == f"hamfano.{m}"
    for m in ("cli", "dh", "fano6", "fixed_data", "graphs", "localization", "reports", "toric")
}
namespace = {}
exec("from hamfano import *", namespace)
print(json.dumps([homes, modules, sorted(set(hamfano.__all__) - set(dir(hamfano))), sorted(namespace)]))
"""
    )
    assert set(homes) == set(hamfano.__all__) and all(homes.values()), homes
    assert all(modules.values()), modules
    assert listed == []
    assert set(hamfano.__all__) <= set(starred)


def test_the_name_table_holds_exactly_all():
    assert len(hamfano.__all__) == len(set(hamfano.__all__))
    assert sorted(hamfano._HOME) == sorted(hamfano.__all__)
    assert set(hamfano._HOME.values()) <= set(LIBRARY)
    with pytest.raises(AttributeError):
        getattr(hamfano, "no_such_name")


def test_python_m_cli_warns_nothing():
    # cli is not bound lazily: runpy would warn that it is already in sys.modules
    proc = fresh("-W", "error", "-m", "hamfano.cli", "chi-y", DOC)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert json.loads(proc.stdout)["c1c2"] == 24
