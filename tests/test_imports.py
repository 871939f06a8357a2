"""No module of the package imports a name it never uses, and no
private module-level name is left that nothing reads.

No linter runs on this project, so these scans stand in for one: they
parse every module of ``src/posediff`` with ``ast``. One fails on an
imported name that the module never reads; ``__init__.py`` imports to
re-export, so it is exempt. The other fails on a ``_name`` bound at the
top of a module that no module of the package reads, by name or as an
attribute.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "posediff"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _quoted(node: ast.AST) -> list[ast.Expression]:
    """The quoted annotations of ``node``, parsed."""
    return [ast.parse(note.value, mode="eval")
            for note in (getattr(node, "annotation", None),
                         getattr(node, "returns", None))
            if isinstance(note, ast.Constant) and isinstance(note.value, str)]


def _used(tree: ast.AST) -> set[str]:
    """Every name the module reads, also inside a quoted annotation."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in _quoted(node):
            used |= _used(note)
    return used


def _private(tree: ast.Module) -> dict[str, int]:
    """Each ``_name`` (not a dunder) that a statement at the top of the
    module binds, with its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in bound:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _read(tree: ast.AST) -> set[str]:
    """Every name the module loads, and every attribute it reads, also
    inside a quoted annotation."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                            ast.Load):
            read.add(node.attr)
        for note in _quoted(node):
            read |= _read(note)
    return read


def _dead(modules: dict[str, ast.Module]) -> list[str]:
    """``module:line: name`` for each private top-level name of
    ``modules`` that none of them reads."""
    read = set().union(*map(_read, modules.values()))
    return [f"{module}:{line}: {name}"
            for module, tree in modules.items()
            for name, line in _private(tree).items() if name not in read]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"cli.py", "sampler.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported(tree).items() if name not in used]
    assert not unused, "imported but never used: " + ", ".join(unused)


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys as system\n"
                     "from json import dumps, loads\n"
                     "def f(a: 'Path') -> 'Dict':\n"
                     "    return loads(a)\n")
    assert sorted(set(_imported(tree)) - _used(tree)) == [
        "dumps", "os", "system"]


def test_no_dead_private_name():
    modules = {p.name: ast.parse(p.read_text(), filename=str(p))
               for p in sorted(PACKAGE.glob("*.py"))}
    dead = _dead(modules)
    assert not dead, "private and never read: " + ", ".join(dead)


def test_the_scan_sees_a_dead_private_name():
    modules = {
        "a.py": ast.parse("_LIMIT = 3\n_dead, _also = 1, 2\n"
                          "__version__ = '0'\n"
                          "def _helper(): return _LIMIT\n"
                          "class _Gone: pass\n"
                          "def _note(x: '_Named') -> None:\n"
                          "    _dead = 4\n"
                          "class _Named: pass\n"),
        "b.py": ast.parse("from . import a\n"
                          "print(a._helper(), a._note)\n"
                          "a._also = 5\n"),
    }
    assert _dead(modules) == ["a.py:2: _dead", "a.py:2: _also",
                              "a.py:5: _Gone"]
