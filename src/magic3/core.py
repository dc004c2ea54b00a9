"""Exact 3x3 grids, the dihedral symmetry group, and magic-square validation.

A square is nine nonnegative integers stored in row-major order and addressed
either by (row, col) or by the conventional cell names a1, a2, a3 (top row),
b1, b2, b3 (middle row), c1, c2, c3 (bottom row).  Entries live in the
unsigned 64-bit range and all arithmetic is checked: an operation that would
leave that range raises instead of wrapping.

`validate` certifies the magic conditions.  A magic square has all eight line
sums (three rows, three columns, both diagonals) equal to the magic sum m and
all nine entries pairwise distinct.  The magic sum is always three times the
center entry, so the parameter s = m / 3 is an integer.  Only `validate` mints
a certificate; its consumers re-validate any other `MagicSquare` on entry.

The module also defines the six constant squares from which every magic
square of order three is built:

* ``ONES``     all-ones square; adding it shifts every entry by 1 (s step 1).
* ``GEN1``     gradient generator with line sum 3 (s step 1).
* ``GEN2``     gradient generator with line sum 6 (s step 2); GEN2 = GEN1 + fv(GEN1).
* ``GEN3``     shared generator with line sum 9 (s step 3); GEN3 = GEN1 + GEN2.
* ``SEED_F1``  smallest magic square (m = 12); entries are exactly 0..8.
* ``SEED_F2``  anchor of the second family (m = 15); SEED_F2 = GEN3 + GEN2.

All values are immutable and every operation is a pure function, so they are
safe to share across threads without synchronization.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Iterable

ENTRY_MAX = 2**64 - 1


class MagicSquareError(Exception):
    """Base class for all domain errors raised by this package."""


class EntryRangeError(MagicSquareError):
    """An entry fell outside the checked range [0, 2**64 - 1]."""


class NotMagicError(MagicSquareError):
    """Some line sum differs from the others.

    Carries the first offending line in a fixed scan order: rows top to
    bottom, columns left to right, main diagonal, anti-diagonal.
    """

    def __init__(self, line: str, expected: int, actual: int) -> None:
        super().__init__(f"{line} sums to {actual}, expected {expected}")
        self.line = line
        self.expected = expected
        self.actual = actual


class DuplicateEntriesError(MagicSquareError):
    """Two entries share a value; carries the first repeated value."""

    def __init__(self, value: int) -> None:
        super().__init__(f"entry {value} appears more than once")
        self.value = value


class DihedralElement(Enum):
    """One of the eight rotations and reflections of a square grid.

    Rotations are clockwise.  FH and FV flip across the horizontal and
    vertical axes, FD and FA across the main and anti-diagonal.  The wire
    tags ("id", "r90", ...) are the enum values.
    """

    ID = "id"
    R90 = "r90"
    R180 = "r180"
    R270 = "r270"
    FH = "fh"
    FV = "fv"
    FD = "fd"
    FA = "fa"

    @property
    def tag(self) -> str:
        return self.value

    @property
    def inverse(self) -> "DihedralElement":
        return _INVERSE[self]


ELEMENTS: tuple[DihedralElement, ...] = tuple(DihedralElement)

# Destination cell (r, c) of the transformed grid is read from this source
# cell of the input grid.  These maps are the normative definition of the
# group action.
_SOURCE_CELL = {
    DihedralElement.ID: lambda r, c: (r, c),
    DihedralElement.R90: lambda r, c: (2 - c, r),
    DihedralElement.R180: lambda r, c: (2 - r, 2 - c),
    DihedralElement.R270: lambda r, c: (c, 2 - r),
    DihedralElement.FH: lambda r, c: (2 - r, c),
    DihedralElement.FV: lambda r, c: (r, 2 - c),
    DihedralElement.FD: lambda r, c: (c, r),
    DihedralElement.FA: lambda r, c: (2 - c, 2 - r),
}


def _permutation(g: DihedralElement) -> tuple[int, ...]:
    source = _SOURCE_CELL[g]
    return tuple(
        source(r, c)[0] * 3 + source(r, c)[1] for r in range(3) for c in range(3)
    )


_PERM: dict[DihedralElement, tuple[int, ...]] = {g: _permutation(g) for g in ELEMENTS}
_BY_PERM = {perm: g for g, perm in _PERM.items()}
_IMAGE = {g: itemgetter(*perm) for g, perm in _PERM.items()}

# Composition is derived from the permutations, not hand-entered; the lookup
# fails at import time if the eight maps were not closed under composition.
_COMPOSE: dict[tuple[DihedralElement, DihedralElement], DihedralElement] = {
    (g, h): _BY_PERM[tuple(_PERM[h][p] for p in _PERM[g])]
    for g in ELEMENTS
    for h in ELEMENTS
}
_INVERSE: dict[DihedralElement, DihedralElement] = {
    g: next(h for h in ELEMENTS if _COMPOSE[g, h] is DihedralElement.ID)
    for g in ELEMENTS
}


def compose(g: DihedralElement, h: DihedralElement) -> DihedralElement:
    """The element acting like g after h: apply(g, apply(h, x)) == apply(compose(g, h), x)."""
    return _COMPOSE[g, h]


def permutation(g: DihedralElement) -> tuple[int, ...]:
    """Row-major index permutation of g: apply(g, x).entries[p] == x.entries[perm[p]]."""
    return _PERM[g]


def check_entries(entries: tuple[int, ...]) -> None:
    """Raise as `Square` does on an entry that is not an int, or is a bool, or is out of range."""
    for value in entries:
        # A plain int in range passes this first test; anything else is
        # sorted out below (an int subclass other than bool is admitted).
        if type(value) is int and 0 <= value <= ENTRY_MAX:
            continue
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"entry must be int, got {type(value).__name__}")
        if value < 0:
            raise EntryRangeError(f"entry {value} is negative")
        if value > ENTRY_MAX:
            raise EntryRangeError(f"entry {value} exceeds the unsigned 64-bit range")


# The value types set their slots by the descriptors' `__set__`, cheaper than a frozen `__init__`.
@dataclass(frozen=True, slots=True, init=False)
class Square:
    """Nine checked nonnegative integers in row-major order."""

    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = tuple(entries)
        if len(entries) != 9:
            raise ValueError(f"a square has 9 entries, got {len(entries)}")
        check_entries(entries)
        _SET_ENTRIES(self, entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Square":
        return cls(tuple(value for row in rows for value in row))

    def at(self, row: int, col: int) -> int:
        if not (0 <= row <= 2 and 0 <= col <= 2):
            raise IndexError(f"cell ({row}, {col}) is outside the grid")
        return self.entries[row * 3 + col]

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        e = self.entries
        return (e[0:3], e[3:6], e[6:9])

    # Named cells, top row then middle row then bottom row.
    @property
    def a1(self) -> int:
        return self.entries[0]

    @property
    def a2(self) -> int:
        return self.entries[1]

    @property
    def a3(self) -> int:
        return self.entries[2]

    @property
    def b1(self) -> int:
        return self.entries[3]

    @property
    def b2(self) -> int:
        return self.entries[4]

    @property
    def b3(self) -> int:
        return self.entries[5]

    @property
    def c1(self) -> int:
        return self.entries[6]

    @property
    def c2(self) -> int:
        return self.entries[7]

    @property
    def c3(self) -> int:
        return self.entries[8]


class _Minted:
    __slots__ = ("_minted",)


@dataclass(frozen=True, slots=True, init=False)
class MagicSquare(_Minted):
    """A square certified by `validate`: equal line sums and distinct entries.

    Only `validate` sets its private `_minted` slot (not a field); `reduce`,
    `canonical_symmetry` and `decompose` re-validate any other instance.
    """

    square: Square
    magic_sum: int
    s: int

    def __init__(self, square: Square, magic_sum: int, s: int) -> None:
        _SET_SQUARE(self, square)
        _SET_MAGIC_SUM(self, magic_sum)
        _SET_S(self, s)

    @property
    def entries(self) -> tuple[int, ...]:
        return self.square.entries


_SET_ENTRIES, _SET_SQUARE, _SET_MAGIC_SUM, _SET_S = (
    s.__set__ for s in (Square.entries, MagicSquare.square, MagicSquare.magic_sum, MagicSquare.s)
)


def add(x: Square, y: Square) -> Square:
    """Entry-wise sum, exact; raises EntryRangeError past the 64-bit range."""
    return Square(tuple(a + b for a, b in zip(x.entries, y.entries)))


def scale(n: int, x: Square) -> Square:
    """Entry-wise product by a nonnegative integer, exact."""
    if n < 0:
        raise ValueError(f"scale factor must be nonnegative, got {n}")
    return Square(tuple(n * a for a in x.entries))


def apply(g: DihedralElement, x: Square) -> Square:
    """Rotate or reflect a square.  Preserves line sums and distinctness."""
    return Square(_IMAGE[g](x.entries))


# Validation scans lines in this fixed order so error messages are
# deterministic; duplicates are checked after all line sums.
_LINES: tuple[tuple[str, tuple[int, int, int]], ...] = (
    ("row 1", (0, 1, 2)),
    ("row 2", (3, 4, 5)),
    ("row 3", (6, 7, 8)),
    ("column 1", (0, 3, 6)),
    ("column 2", (1, 4, 7)),
    ("column 3", (2, 5, 8)),
    ("main diagonal", (0, 4, 8)),
    ("anti-diagonal", (2, 4, 6)),
)


def validate(x: Square) -> MagicSquare:
    """Certify a square as magic, or raise NotMagicError / DuplicateEntriesError.

    The magic sum m is read off the top row and every other line is compared
    against it.  Once all eight sums agree, m = 3 * center holds as an
    identity (the middle row, middle column, and both diagonals cover the
    center four times and everything else once), so s = m / 3 is exact.
    """
    e = x.entries
    a1, a2, a3, b1, b2, b3, c1, c2, c3 = e
    m = a1 + a2 + a3
    # One chained comparison on the way in; the scan below runs only to name
    # the first offending line.
    if not (
        m
        == b1 + b2 + b3
        == c1 + c2 + c3
        == a1 + b1 + c1
        == a2 + b2 + c2
        == a3 + b3 + c3
        == a1 + b2 + c3
        == a3 + b2 + c1
    ):
        for line, (i, j, k) in _LINES[1:]:
            total = e[i] + e[j] + e[k]
            if total != m:
                raise NotMagicError(line, expected=m, actual=total)
    if len(set(e)) != 9:
        seen: set[int] = set()
        for value in e:
            if value in seen:
                raise DuplicateEntriesError(value)
            seen.add(value)
    certificate = MagicSquare(x, m, m // 3)
    object.__setattr__(certificate, "_minted", True)
    return certificate


def parse_square(text: str) -> Square:
    """Parse the text square format: nine base-10 integers in row-major order.

    Each entry is one or more ASCII digits 0-9 and nothing else: no sign
    (not even "+"), no "_" digit separators, no non-ASCII digits.
    Separators are whitespace and/or commas; semicolons between rows are
    accepted and ignored.  Raises ValueError on anything else.
    """
    tokens = text.replace(",", " ").replace(";", " ").split()
    if len(tokens) != 9:
        raise ValueError(f"expected 9 entries, got {len(tokens)}")
    # One pass in C (at most 9 x 20 digits, under int's digit limit); the loop names a bad token.
    digits = "".join(tokens)
    if len(digits) <= 9 * 20 and digits.isascii() and digits.isdigit():
        entries = tuple(map(int, tokens))
        if max(entries) <= ENTRY_MAX:
            return Square(entries)
    values = []
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"entry {token!r} is not a string of ASCII digits 0-9")
        # Past 20 significant digits (ENTRY_MAX has 20) the token is out of
        # range, and `int` would refuse one of more than 4,300 digits.
        digits = token.lstrip("0") or "0"
        if len(digits) > 20 or (value := int(digits)) > ENTRY_MAX:
            raise ValueError(f"entry {digits} exceeds the unsigned 64-bit range")
        values.append(value)
    return Square(tuple(values))


def format_square(x: Square) -> str:
    """Render a square in the text format: nine integers joined by spaces."""
    return " ".join(map(str, x.entries))


ONES = Square.from_rows(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
GEN1 = Square.from_rows(((2, 0, 1), (0, 1, 2), (1, 2, 0)))
GEN2 = Square.from_rows(((3, 0, 3), (2, 2, 2), (1, 4, 1)))
GEN3 = Square.from_rows(((5, 0, 4), (2, 3, 4), (2, 6, 1)))
SEED_F1 = Square.from_rows(((7, 0, 5), (2, 4, 6), (3, 8, 1)))
SEED_F2 = Square.from_rows(((8, 0, 7), (4, 5, 6), (3, 10, 2)))
