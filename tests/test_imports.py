"""Package modules import only public names from each other, and every
public function of the package is engine code: exported, or used inside."""

import ast
from pathlib import Path

import planesheaves

PACKAGE_DIR = Path(planesheaves.__file__).parent


def private_imports(source: str):
    """(module, name) for each underscore name imported from a sibling module."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "planesheaves":
            continue
        found.extend((module, alias.name) for alias in node.names
                     if alias.name.startswith("_"))
    return found


def test_detector_flags_private_sibling_imports():
    assert private_imports("from .linalg import QMatrix, _integer_rows\n") == [
        ("linalg", "_integer_rows")]
    assert private_imports("from planesheaves.forms import _trim\n") == [
        ("planesheaves.forms", "_trim")]
    assert private_imports("from __future__ import annotations\n"
                           "from math import gcd as _gcd\n") == []


def test_no_module_imports_a_private_name_from_a_sibling():
    paths = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(paths) >= 8
    offenders = {p.name: private_imports(p.read_text()) for p in paths}
    assert {name: found for name, found in offenders.items() if found} == {}


def unreferenced_functions(sources):
    """module.name for each public module-level function of the package that
    __init__ does not import and no module, its own included, names.

    `sources` maps module names to source text, with "__init__" among them."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    exported = {alias.name for node in ast.walk(trees["__init__"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    named = {node.id for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    return sorted("%s.%s" % (module, node.name) for module, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and node.name not in exported and node.name not in named)


def test_detector_flags_public_functions_nothing_uses():
    sources = {
        "__init__": "from .a import exported\n",
        "a": "def exported():\n    return helper()\n\n"
             "def helper():\n    pass\n\n"
             "def _private():\n    pass\n\n"
             "def unused():\n    pass\n",
        "b": "from .a import helper\n\n"
             "class C:\n    def method(self):\n        pass\n\n"
             "def only_tests():\n    return C().method()\n",
    }
    assert unreferenced_functions(sources) == ["a.unused", "b.only_tests"]


def test_every_public_function_is_exported_or_used_in_the_package():
    sources = {p.stem: p.read_text() for p in PACKAGE_DIR.glob("*.py")}
    assert len(sources) >= 9
    assert unreferenced_functions(sources) == []
