"""Source hygiene, read with ``ast``: no import that its module never uses,
in ``src/hamfano``, ``scripts`` and ``tests``, and no module-level private
function, class or table (an assignment such as ``_FLAGS = {...}``) that
nothing references: in ``src/hamfano`` nothing in the package, in ``scripts``,
``tests/oracle.py`` and ``tests/lifts.py`` nothing in the package, the scripts
or the tests.  A refactor that moves a helper's work elsewhere must delete the
helper, its tables and its imports with it."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hamfano"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
# the package's modules by name, the tooling's by path from the repository root
IMPORTERS = dict(
    MODULES,
    **{
        path.relative_to(ROOT).as_posix(): ast.parse(path.read_text())
        for folder in ("scripts", "tests")
        for path in sorted((ROOT / folder).glob("*.py"))
    },
)
# the scripts and the test helper modules, whose private definitions are checked too
TOOLING = [name for name in IMPORTERS if name.startswith("scripts/")]
TOOLING += ["tests/lifts.py", "tests/oracle.py"]


def _names(node: ast.AST) -> set:
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _referenced(node: ast.AST) -> set:
    """Every name that ``node`` refers to: its plain names, attribute names
    (``module._helper``) and names imported from another module."""
    names = _names(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def _exported(tree: ast.Module) -> set:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def _bound_by_imports(tree: ast.Module):
    for stmt in tree.body:
        if isinstance(stmt, (ast.Import, ast.ImportFrom)):
            if getattr(stmt, "module", None) != "__future__":
                yield from (alias.asname or alias.name.split(".")[0] for alias in stmt.names)


@pytest.mark.parametrize("module", sorted(IMPORTERS))
def test_every_import_is_used(module):
    tree = IMPORTERS[module]
    body = [s for s in tree.body if not isinstance(s, (ast.Import, ast.ImportFrom))]
    used = set().union(*map(_names, body))
    unused = set(_bound_by_imports(tree)) - used - _exported(tree)
    assert not unused, f"{module} imports {sorted(unused)} and never uses them"


def _defined(stmt: ast.stmt) -> list:
    """The names a top-level statement defines: a function or class name, or the
    plain names an assignment binds (``_FLAGS = {...}``, ``_A, _B = ...``)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [sub.id for t in targets for sub in ast.walk(t) if isinstance(sub, ast.Name)]


def _unreferenced(checked, scope) -> list:
    """``module: name`` of each private top-level definition of the modules named in
    ``checked`` that no other top-level statement of ``scope`` references; taken per
    statement, a helper that only calls itself, or a table that only names itself,
    still counts as unreferenced."""
    refs = [(stmt, _referenced(stmt)) for tree in scope.values() for stmt in tree.body]
    return [
        f"{module}: {name}"
        for module in checked
        for stmt in scope[module].body
        for name in _defined(stmt)
        if name.startswith("_")
        and not name.startswith("__")
        and not any(name in names for other, names in refs if other is not stmt)
    ]


def test_every_private_definition_is_referenced():
    dead = _unreferenced(MODULES, MODULES)
    assert not dead, f"private definitions that nothing in src/ references: {dead}"


def test_every_private_tooling_definition_is_referenced():
    dead = _unreferenced(TOOLING, IMPORTERS)
    assert not dead, f"private definitions that nothing references: {dead}"
