"""A spec model of the `magic3` CLI's verify, reduce, decompose, construct and count verbs.

Nothing here imports magic3, as nothing in `bench/oracle.py` does: the model
parses by its own copy of the text format's separator pattern, validates by
the eight line sums and distinctness, decomposes by trying the eight images
and solving the family equations for (i, j, k), constructs from the reduced
shape, and counts by a plain double loop over (a1, a2).  `run(argv)` gives
what `magic3.cli.main(argv)` should for the argv forms of
`test_cli_model.py`: the exit code, stdout, and the first line of stderr
past argparse's usage text.
"""

from __future__ import annotations

import json
import re
from functools import cache

ENTRY_MAX = 2**64 - 1
COUNT_MAX_S = 8191
# The text format's separators, written as magic3 writes them (a test keeps the two equal).
SEPARATORS = "[,; \t\n\x0b\x0c\r\x1c-\x1f]+"
NUMBER = "[0-9]+"

# Cells are row-major indices 0..8; each image reads image[p] = grid[perm[p]].
# Rotations are clockwise; fh/fv flip across the horizontal/vertical axis,
# fd/fa across the main/anti-diagonal.
DIHEDRAL = {
    "id": (0, 1, 2, 3, 4, 5, 6, 7, 8),
    "r90": (6, 3, 0, 7, 4, 1, 8, 5, 2),
    "r180": (8, 7, 6, 5, 4, 3, 2, 1, 0),
    "r270": (2, 5, 8, 1, 4, 7, 0, 3, 6),
    "fh": (6, 7, 8, 3, 4, 5, 0, 1, 2),
    "fv": (2, 1, 0, 5, 4, 3, 8, 7, 6),
    "fd": (0, 3, 6, 1, 4, 7, 2, 5, 8),
    "fa": (8, 5, 2, 7, 4, 1, 6, 3, 0),
}
# In the scan order of validation, which names the first line whose sum differs from row 1's.
LINES = (("row 1", (0, 1, 2)), ("row 2", (3, 4, 5)), ("row 3", (6, 7, 8)), ("column 1", (0, 3, 6)),
         ("column 2", (1, 4, 7)), ("column 3", (2, 5, 8)), ("main diagonal", (0, 4, 8)),
         ("anti-diagonal", (2, 4, 6)))
# The paper's families, seed + i * ONES + j * GEN3 + k * generator: (seed, generator) of each.
GEN3 = (5, 0, 4, 2, 3, 4, 2, 6, 1)
FAMILIES = {
    "F1": ((7, 0, 5, 2, 4, 6, 3, 8, 1), (2, 0, 1, 0, 1, 2, 1, 2, 0)),
    "F2": ((8, 0, 7, 4, 5, 6, 3, 10, 2), (3, 0, 3, 2, 2, 2, 1, 4, 1)),
}


class Exit(Exception):
    """The end of a run: exit code, stdout, and the first stderr line."""


def usage(message: str) -> Exit:
    return Exit(1, "", f"magic3: error: {message}")


def rejected(message: str) -> Exit:
    return Exit(2, f"rejected: {message}\n", "")


def integer(verb: str, name: str, text: str) -> int:
    """An integer argument: a number of the text format, with an optional leading "-"."""
    if not re.fullmatch("-?" + NUMBER, text):
        raise Exit(1, "", f"magic3 {verb}: error: argument {name}: invalid int value: {text!r}")
    return int(text)


def parse(text: str) -> tuple[int, ...]:
    tokens = [token for token in re.split(SEPARATORS, text) if token]
    if len(tokens) != 9:
        raise usage(f"expected 9 entries, got {len(tokens)}")
    for token in tokens:
        if not re.fullmatch(NUMBER, token):
            raise usage(f"entry {token!r} is not a string of ASCII digits 0-9")
        if int(token) > ENTRY_MAX:
            raise usage(f"entry {int(token)} exceeds the unsigned 64-bit range")
    return tuple(map(int, tokens))


def validate(grid: tuple[int, ...]) -> int:
    """The magic sum of a magic square; raises the first failure otherwise."""
    m = sum(grid[c] for c in LINES[0][1])
    for name, line in LINES[1:]:
        if (total := sum(grid[c] for c in line)) != m:
            raise rejected(f"{name} sums to {total}, expected {m}")
    for p, value in enumerate(grid):
        if value in grid[:p]:
            raise rejected(f"entry {value} appears more than once")
    return m


def decompose(grid: tuple[int, ...]) -> dict[str, object]:
    """The family coordinates of the one image with ordered corners c3 < c1 < a3 < a1."""
    ((tag, image),) = [(tag, image) for tag, perm in DIHEDRAL.items()
                       if (image := tuple(grid[p] for p in perm))[8] < image[6] < image[2] < image[0]]
    # Every generator but ONES is 0 at a2, so i is a2; c3 and b2 give (j, k), as det = +-1.
    i = image[1]
    for family, (seed, generator) in FAMILIES.items():
        u, v = image[8] - seed[8] - i, image[4] - seed[4] - i
        det = GEN3[8] * generator[4] - generator[8] * GEN3[4]
        j, k = (u * generator[4] - v * generator[8]) // det, (v * GEN3[8] - u * GEN3[4]) // det
        if min(j, k) >= 0 and image == tuple(a + i + j * b + k * c for a, b, c in zip(seed, GEN3, generator)):
            return {"family": family, "i": i, "j": j, "k": k, "symmetry": tag}
    raise AssertionError(f"{grid} is in neither family")


def construct(family: str, i: int, j: int, k: int, tag: str) -> tuple[int, ...]:
    """The reduced shape of (r, s) = (c3, b2), plus i, in the orientation whose tag image it is."""
    r, s = (1 + j, 4 + 3 * j + k) if family == "F1" else (2 + j + k, 5 + 3 * j + 2 * k)
    shape = (2 * s - r, 0, s + r, 2 * r, s, 2 * s - 2 * r, s - r, 2 * s, r)
    grid = [0] * 9
    for p, source in enumerate(DIHEDRAL[tag]):
        grid[source] = i + shape[p]
    return tuple(grid)


@cache
def count(s: int) -> int:
    """The magic squares with center s: one grid per (a1, a2), its other cells forced by the lines."""
    found = 0
    for a1 in range(2 * s + 1):
        for a2 in range(2 * s + 1):
            a3 = 3 * s - a1 - a2
            b1 = a3 - a1 + s  # column 1, with c1 = 2s - a3 opposite a3
            grid = (a1, a2, a3, b1, s, 2 * s - b1, 2 * s - a3, 2 * s - a2, 2 * s - a1)
            found += min(grid) >= 0 and len(set(grid)) == 9 and all(
                sum(grid[c] for c in line) == 3 * s for _, line in LINES)
    return found


def _outcome(argv: list[str]) -> str:
    verb, compact = argv[0], {"separators": (",", ":")}
    if verb in ("verify", "reduce", "decompose"):  # argv: verb, words
        grid = parse(" ".join(argv[1:]))
        m, d = validate(grid), decompose(grid)
        if verb == "reduce":
            reduced = construct(d["family"], 0, d["j"], d["k"], "id")
            d = {"reduced": list(reduced), "i": d["i"], "symmetry": d["symmetry"]}
        return f"magic m={m} s={m // 3}\n" if verb == "verify" else json.dumps(d, **compact) + "\n"
    if verb == "construct":  # argv: verb, --family=F, --i=I, --j=J, --k=K, --sym=G
        options = dict(word[2:].split("=", 1) for word in argv[1:])
        i, j, k = (integer(verb, f"--{name}", options[name]) for name in "ijk")
        for name, value in zip("ijk", (i, j, k)):
            if value < 0:
                raise usage(f"{name} must be nonnegative, got {value}")
        grid = construct(options["family"], i, j, k, options["sym"])
        for value in grid:
            if value > ENTRY_MAX:
                raise rejected(f"entry {value} exceeds the unsigned 64-bit range")
        return " ".join(map(str, grid)) + "\n"
    s = integer(verb, "s", argv[-1])  # count; argv: verb, maybe --no-brute, "--", s
    if s < 0:
        raise usage(f"s must be nonnegative, got {s}")
    if s > COUNT_MAX_S:
        raise usage(f"s must be at most {COUNT_MAX_S}, got {s}: count keeps (2s+1)**2 bytes of cell marks, "
                    "at most 256 MiB")
    n = count(s)
    brute = None if "--no-brute" in argv else n
    return json.dumps({"s": s, "closed": n, "series": n, "families": n, "brute": brute}, **compact) + "\n"


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, first stderr line past the usage text) of `magic3 argv`."""
    try:
        return 0, _outcome(argv), ""
    except Exit as end:
        return end.args
