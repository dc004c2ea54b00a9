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


def _mark_uses(path):
    """(file, enclosing function or class, kind) for each node naming the `_minted` slot."""
    tree = ast.parse(path.read_text(), filename=str(path))
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if not (
            (isinstance(node, ast.Constant) and node.value == "_minted")
            or (isinstance(node, ast.Attribute) and node.attr == "_minted")
            or (isinstance(node, ast.Name) and node.id == "_minted")
        ):
            continue
        parent = parents[node]
        # Only getattr(m, "_minted", default), used as a value, reads the mark;
        # getattr(cls, "_minted").__set__ and the rest count as writes.
        is_read = (
            isinstance(parent, ast.Call)
            and getattr(parent.func, "id", None) == "getattr"
            and len(parent.args) == 3
            and not isinstance(parents[parent], ast.Attribute)
        )
        kind = "read" if is_read else "write"
        scope, statement = "", parent
        while statement in parents:
            if isinstance(statement, ast.Assign) and [
                getattr(target, "id", None) for target in statement.targets
            ] == ["__slots__"]:
                kind = "declaration"
            if isinstance(statement, (ast.FunctionDef, ast.ClassDef)) and not scope:
                scope = statement.name
            statement = parents[statement]
        yield path.name, scope, kind


def test_certificate_mark_is_written_only_in_validate():
    # `canonical_symmetry`, `reduce` and `decompose` trust a `MagicSquare`
    # without validating it again only when it carries this mark, so no code
    # but `core.validate` may set it.
    uses = sorted(use for path in SOURCES for use in _mark_uses(path))
    assert uses == [
        ("canonical.py", "canonical_symmetry", "read"),
        ("canonical.py", "reduce", "read"),
        ("core.py", "_Minted", "declaration"),
        ("core.py", "validate", "write"),
        ("decompose.py", "decompose", "read"),
    ]


def test_certificates_are_built_only_in_validate():
    # Every other `MagicSquare` in the library comes out of `validate`; the
    # square streams and `reduce` pass their grids through it rather than
    # build their own.
    calls = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        # Breadth-first, so a nested function's name overwrites its parent's.
        scope = {
            node: function.name
            for function in ast.walk(tree)
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(function)
        }
        calls += [
            (path.name, scope.get(node, ""))
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and "MagicSquare" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    assert sorted(calls) == [("core.py", "validate")]


def test_public_names_are_the_imported_names():
    # A name deleted from the imports and not from `__all__`, or the other
    # way round, shows here.
    init = Path(magic3.__file__)
    imported = {
        alias.asname or alias.name
        for node in ast.parse(init.read_text(), filename=str(init)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if not (alias.asname or alias.name).startswith("_")
    }
    names = magic3.__all__
    assert names == sorted(set(names))
    assert [name for name in names if not hasattr(magic3, name)] == []
    assert set(names) == imported
