#!/usr/bin/env python3
"""Print the size of the magic3 package: its lines, its code lines and its public names.

Usage:
    PYTHONPATH=src python scripts/src_stats.py

Counts every `*.py` file of the package that `import magic3` finds.  A code
line is one that is not blank, not a comment alone and not part of a
docstring (the string that opens a module, class or function body).  The
third number is `len(magic3.__all__)`.  After the three totals comes one
line per module, `<file>: lines <n>, code lines <n>`, in file name order.
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


def module_lines(path: Path) -> tuple[int, int]:
    """(lines, code lines) of one source file."""
    text = path.read_text()
    docstrings = docstring_lines(ast.parse(text, filename=str(path)))
    lines = text.splitlines()
    code = 0
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        code += bool(stripped) and not stripped.startswith("#") and number not in docstrings
    return len(lines), code


def main() -> int:
    modules = {path.name: module_lines(path) for path in sorted(Path(magic3.__file__).parent.glob("*.py"))}
    print(f"lines {sum(total for total, _ in modules.values())}")
    print(f"code lines {sum(code for _, code in modules.values())}")
    print(f"public names {len(magic3.__all__)}")
    for name, (total, code) in modules.items():
        print(f"{name}: lines {total}, code lines {code}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
