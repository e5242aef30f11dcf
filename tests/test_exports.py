"""The package's public names: what __init__.py imports is what it exports."""

import ast
from pathlib import Path

import cubicspan

INIT = Path(cubicspan.__file__)


def _imported_names() -> list[str]:
    tree = ast.parse(INIT.read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_export_resolves():
    missing = [name for name in cubicspan.__all__ if not hasattr(cubicspan, name)]
    assert missing == []


def test_no_export_repeats():
    assert len(cubicspan.__all__) == len(set(cubicspan.__all__))


def test_exports_are_exactly_the_imports():
    imported = _imported_names()
    assert len(imported) == len(set(imported))
    assert set(cubicspan.__all__) == set(imported)
