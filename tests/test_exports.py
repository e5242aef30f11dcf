"""The package's public names: what __init__.py imports is what it exports,
and every name another module imports is used there."""

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


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports (from-imports and plain imports) that it
    never reads, by one AST walk; __future__ imports are not names."""
    tree = ast.parse(path.read_text())
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def test_every_module_uses_what_it_imports():
    unused = {
        path.name: names
        for path in sorted(INIT.parent.glob("*.py"))
        if path != INIT and (names := _unused_imports(path))
    }
    assert unused == {}
