#!/usr/bin/env python3
"""Print the size of the magic3 package: its lines, its code lines and its public names.

Usage:
    PYTHONPATH=src python scripts/src_stats.py

Counts every `*.py` file of the package that `import magic3` finds.  A code
line is one that is not blank, not a comment alone and not part of a
docstring (the string that opens a module, class or function body).  The
third number is `len(magic3.__all__)`.
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


def main() -> int:
    total = code = 0
    for path in sorted(Path(magic3.__file__).parent.glob("*.py")):
        text = path.read_text()
        docstrings = docstring_lines(ast.parse(text, filename=str(path)))
        for number, line in enumerate(text.splitlines(), start=1):
            total += 1
            stripped = line.strip()
            code += bool(stripped) and not stripped.startswith("#") and number not in docstrings
    print(f"lines {total}")
    print(f"code lines {code}")
    print(f"public names {len(magic3.__all__)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
