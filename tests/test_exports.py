"""The package's export list."""

import ast
from pathlib import Path

import bealloc


def imported_names():
    """Every name that bealloc/__init__.py imports, read from its source."""
    tree = ast.parse(Path(bealloc.__file__).read_text())
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]


def test_all_is_sorted_unique_and_resolves():
    names = bealloc.__all__
    assert names == sorted(names)
    assert len(set(names)) == len(names)
    for name in names:
        assert hasattr(bealloc, name), name


def test_all_is_exactly_what_the_package_imports():
    assert sorted(bealloc.__all__) == sorted(imported_names())
