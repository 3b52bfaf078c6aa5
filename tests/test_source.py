"""Checks on the library source itself."""

import ast
from pathlib import Path

import heightlab


def test_library_has_no_assert():
    # python -O drops assert statements, so every check in the library
    # raises an exception of its own instead
    paths = sorted(Path(heightlab.__file__).parent.glob("*.py"))
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert len(paths) > 10 and found == []
