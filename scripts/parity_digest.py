#!/usr/bin/env python3
"""Print one sha256 over the CLI's output on a fixed set of invocations.

Usage:
    PYTHONPATH=src python scripts/parity_digest.py

Runs `magic3.cli.main` in process on every invocation of `INVOCATIONS` and
hashes each one's arguments, exit code, stdout and stderr, in order.  Two
trees that print the same digest behave the same on the set: a change meant
to keep the CLI's behaviour is run on both sides and the digests compared.

The set is, in order:

* the 607 invocations `count S`, `count S --no-brute` and `enumerate S` with
  both sources and both formats, for S = 0..60 and 230..269, plus
  `selftest --max-s 30`;
* the 12 error paths of `enumerate S` for S = -1, 2**63 and 2**63 + 1 with
  both sources and both formats;
* `verify`, `reduce` and `decompose` on each of the 824 magic squares with
  s <= 12, which hold every square's eight images, and on `REJECTS`;
* `construct` on `CONSTRUCT_GRID`: each family and symmetry at a few small
  (i, j, k), at the `ENTRY_MAX` edge and one past it, and with a field out
  of range.

The squares are swept here from the six line equations, not taken from the
library under test.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from magic3 import cli

ENTRY_MAX = 2**64 - 1
PARAMETERS = [*range(0, 61), *range(230, 270)]
ERROR_PARAMETERS = [-1, 2**63, 2**63 + 1]
ENUMERATE_FLAGS = [
    ["--source", source, "--format", fmt] for source in ("families", "brute") for fmt in ("text", "json")
]
SQUARE_VERBS = ("verify", "reduce", "decompose")
FAMILIES = ("F1", "F2")
SYMMETRIES = ("id", "r90", "r180", "r270", "fh", "fv", "fd", "fa")


def enumerate_invocations(parameters: list[int]) -> list[list[str]]:
    """`enumerate S` with each source and format, for each S."""
    return [["enumerate", str(s), *flags] for s in parameters for flags in ENUMERATE_FLAGS]


def magic_squares(max_s: int) -> list[list[str]]:
    """Every magic square with s <= max_s, as nine decimal strings, by s and then (a1, a2)."""
    squares = []
    for s in range(max_s + 1):
        for a1 in range(2 * s + 1):
            for a2 in range(2 * s + 1):
                a3 = 3 * s - a1 - a2
                c1 = 2 * s - a3
                b1 = 3 * s - a1 - c1
                grid = (a1, a2, a3, b1, s, 2 * s - b1, c1, 2 * s - a2, 2 * s - a1)
                if min(grid) >= 0 and len(set(grid)) == 9:
                    squares.append([str(v) for v in grid])
    return squares


# Not magic, repeated entries, text off the grammar of ASCII digits, and last
# a square written with commas and semicolons, which the grammar accepts.
REJECTS = [
    "1 2 3 4 5 6 7 8 9".split(),
    "5 5 5 5 5 5 5 5 5".split(),
    "7 0 5 2 4 6 3 8 1 9".split(),
    "7 0 5 2 4 6 3 8".split(),
    "+7 0 5 2 4 6 3 8 1".split(),
    "7 0 5 2 4 6 3 8 1_0".split(),
    "7 0 5 2 4 6 3 8 ١".split(),
    "7 0 5 2 -4 6 3 8 1".split(),
    f"{ENTRY_MAX + 1} 0 5 2 4 6 3 8 1".split(),
    ["7,0,5;2,4,6;3,8,1"],
]


def construct_args(family: str, i: object, j: object, k: object, sym: str) -> list[str]:
    return ["construct", "--family", family, "--i", str(i), "--j", str(j), "--k", str(k), "--sym", sym]


def edge_i(family: str, j: int, k: int) -> int:
    """The i at which the family's largest entry, i + 2s' (its c2), is ENTRY_MAX."""
    reduced_s = 4 + 3 * j + k if family == "F1" else 5 + 3 * j + 2 * k
    return ENTRY_MAX - 2 * reduced_s


CONSTRUCT_GRID = (
    [
        construct_args(family, i, j, k, sym)
        for family in FAMILIES
        for i, j, k in [(0, 0, 0), (1, 2, 3), (7, 0, 5), (0, 4, 0)]
        for sym in SYMMETRIES
    ]
    + [
        construct_args(family, edge_i(family, j, k) + past, j, k, sym)
        for family in FAMILIES
        for j, k in [(0, 0), (3, 2**50)]
        for past in (0, 1)
        for sym in SYMMETRIES
    ]
    + [
        construct_args("F1", *fields, "id")
        for fields in [(-1, 0, 0), (0, -1, 0), (0, 0, 2**64)]
    ]
)

INVOCATIONS = (
    [["count", str(s)] for s in PARAMETERS]
    + [["count", str(s), "--no-brute"] for s in PARAMETERS]
    + enumerate_invocations(PARAMETERS)
    + [["selftest", "--max-s", "30"]]
    + enumerate_invocations(ERROR_PARAMETERS)
    + [[verb, *square] for square in magic_squares(12) + REJECTS for verb in SQUARE_VERBS]
    + CONSTRUCT_GRID
)


def main() -> int:
    digest = hashlib.sha256()
    for argv in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        for part in (" ".join(argv), str(code), out.getvalue(), err.getvalue()):
            digest.update(part.encode() + b"\0")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
