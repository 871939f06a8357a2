"""No module of the package imports a name it never uses.

No linter runs on this project, so this scan stands in for one: it
parses every module of ``src/posediff`` with ``ast`` and fails on an
imported name that the module never reads. ``__init__.py`` imports to
re-export, so it is exempt.
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


def _used(tree: ast.Module) -> set[str]:
    """Every name the module reads, also inside a quoted annotation."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= _used(ast.parse(note.value, mode="eval"))
    return used


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
