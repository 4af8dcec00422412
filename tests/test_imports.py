"""Package modules import only public names from each other."""

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
