"""Checks on the library's source text."""

import ast
from pathlib import Path

import magic3

SOURCES = sorted(Path(magic3.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # An invariant is a real check, which `python -O` keeps, or is deleted
    # with its proof written down; an `assert` is neither.
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) >= 8
    assert found == []
