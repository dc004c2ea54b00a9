#!/usr/bin/env python3
"""Print the size of the magic3 package: its lines, code lines, public names and int constants.

Usage:
    PYTHONPATH=src python scripts/src_stats.py

Counts every `*.py` file of the package that `import magic3` finds.  A code
line is one that is not blank, not a comment alone and not part of a
docstring (the string that opens a module, class or function body).  The
third number is `len(magic3.__all__)`.  The fourth counts the tuning
knobs: the names in capitals (a leading "_" aside) that a module's top-level
assignments bind to an int, such as `COUNT_MAX_S = 8191` or `_B = 2**16`.
After the four totals comes one line per module, `<file>: lines <n>, code
lines <n>, int constants <n>`, in file name order.
"""

from __future__ import annotations

import ast
from pathlib import Path

import magic3


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers that the docstrings of a module, its classes and functions span."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def int_constants(tree: ast.Module) -> list[str]:
    """The capitalised names that a module's top-level assignments bind to an int, in source order.

    A value counts when it is arithmetic on literals alone, which is
    evaluated; any other value, such as a call or a tuple, does not.
    """
    arithmetic = (ast.Constant, ast.BinOp, ast.UnaryOp, ast.operator, ast.unaryop)
    names = []
    for node in tree.body:
        if not isinstance(node, (ast.Assign, ast.AnnAssign)) or node.value is None:
            continue
        if not all(isinstance(part, arithmetic) for part in ast.walk(node.value)):
            continue
        if type(eval(compile(ast.Expression(node.value), "<constant>", "eval"))) is int:
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name) and t.id.lstrip("_").isupper()]
    return names


def module_stats(path: Path) -> tuple[int, int, int]:
    """(lines, code lines, int constants) of one source file."""
    text = path.read_text()
    tree = ast.parse(text, filename=str(path))
    docstrings = docstring_lines(tree)
    lines = text.splitlines()
    code = 0
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        code += bool(stripped) and not stripped.startswith("#") and number not in docstrings
    return len(lines), code, len(int_constants(tree))


def main() -> int:
    modules = {path.name: module_stats(path) for path in sorted(Path(magic3.__file__).parent.glob("*.py"))}
    print(f"lines {sum(total for total, _, _ in modules.values())}")
    print(f"code lines {sum(code for _, code, _ in modules.values())}")
    print(f"public names {len(magic3.__all__)}")
    print(f"int constants {sum(knobs for _, _, knobs in modules.values())}")
    for name, (total, code, knobs) in modules.items():
        print(f"{name}: lines {total}, code lines {code}, int constants {knobs}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
