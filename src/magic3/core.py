"""Exact 3x3 grids, the dihedral symmetry group, and magic-square validation.

A square is nine nonnegative integers stored in row-major order and addressed
either by (row, col) or by the conventional cell names a1, a2, a3 (top row),
b1, b2, b3 (middle row), c1, c2, c3 (bottom row).  Entries live in the
unsigned 64-bit range and all arithmetic is checked: an operation that would
leave that range raises instead of wrapping.

`validate` certifies the magic conditions.  A magic square has all eight line
sums (three rows, three columns, both diagonals) equal to the magic sum m and
all nine entries pairwise distinct.  The magic sum is always three times the
center entry, so the parameter s = m / 3 is an integer.  Every `MagicSquare`
is certified; only `validate` and `construct` mint through `_certify`.
Likewise only `parse_square` and `construct`, whose entries are exact ints in
range by construction, mint a `Square` through `_square` without its checks.

`MismatchError`, raised when two counting or enumeration routes disagree,
and `COUNT_MAX_S`, the largest s whose count fits its memory bound, live
here beside the other domain errors and `ENTRY_MAX`, so that the CLI can
catch the one and name the other without loading the counting routes.

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

import re
from dataclasses import FrozenInstanceError, dataclass, fields
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Callable, Iterable, TypeVar

ENTRY_MAX = 2**64 - 1
# `reconcile` keeps one byte per (a1, a2) pair, (2s + 1)**2 in all; this s is
# the largest whose cell marks fit in 256 MiB.
COUNT_MAX_S = 8191
# One square in the text format, nine integers joined by spaces.
_TEXT_FORMAT = " ".join(["%d"] * 9)
# The text format's separators: runs of commas, semicolons and the ten ASCII
# whitespace characters that `str.split` splits ASCII text on.
_SEPARATORS = re.compile("[,; \t\n\x0b\x0c\r\x1c-\x1f]+")


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


class MismatchError(MagicSquareError):
    """Two counting or enumeration routes disagreed; never fires on a sound build."""

    def __init__(self, message: str, square: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.square = square


class DihedralElement(Enum):
    """One of the eight rotations and reflections of a square grid.

    Rotations are clockwise.  FH and FV flip across the horizontal and
    vertical axes, FD and FA across the main and anti-diagonal.  The wire
    tags ("id", "r90", ...) are the members' values, read as `.value`.
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


_PERM: dict[DihedralElement, tuple[int, ...]] = {
    g: tuple(3 * row + col for row, col in (source(r, c) for r in range(3) for c in range(3)))
    for g, source in _SOURCE_CELL.items()
}
_BY_PERM = {perm: g for g, perm in _PERM.items()}
_IMAGE = {g: itemgetter(*perm) for g, perm in _PERM.items()}

# The eight maps must be closed under composition, or `compose` and `inverse`
# would find no element; checked once here, on the permutations themselves.
if any(tuple(map(h.__getitem__, g)) not in _BY_PERM for g in _BY_PERM for h in _BY_PERM):
    raise RuntimeError("the eight dihedral maps are not closed under composition")
_INVERSE = {g: _BY_PERM[tuple(sorted(range(9), key=perm.__getitem__))] for g, perm in _PERM.items()}


def compose(g: DihedralElement, h: DihedralElement) -> DihedralElement:
    """The element acting like g after h: apply(g, apply(h, x)) == apply(compose(g, h), x).

    TypeError, naming g or h, for an argument that is not a `DihedralElement`.
    """
    g, h = _member("g", g, DihedralElement), _member("h", h, DihedralElement)
    return _BY_PERM[tuple(map(_PERM[h].__getitem__, _PERM[g]))]


def permutation(g: DihedralElement) -> tuple[int, ...]:
    """Row-major index permutation of g: apply(g, x).entries[p] == x.entries[perm[p]].

    TypeError, naming g, for a g that is not a `DihedralElement`.
    """
    return _PERM[_member("g", g, DihedralElement)]


_T = TypeVar("_T")


def _member(name: str, value: _T, cls: type[_T]) -> _T:
    """value if it is an instance of cls; else TypeError naming the field and value's type."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be {cls.__name__}, got {type(value).__name__}")
    return value


def _integer(name: str, value: int) -> int:
    """The int rule's type half: value as an exact int; TypeError on a bool or a non-int.

    `int.__int__` reads the exact int a subclass holds, past any `__int__` or comparison it overrides.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be int, got {type(value).__name__}")
    return int.__int__(value)


def _natural(name: str, value: int) -> int:
    """The int rule: `_integer`, then ValueError if negative."""
    if (value := _integer(name, value)) < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")
    return value


def check_entries(entries: tuple[int, ...]) -> tuple[int, ...]:
    """The entries as exact ints by `_integer`; raises EntryRangeError out of range, in the entry range's wording."""
    exact = []
    for value in entries:
        value = _integer("entry", value)
        if value < 0:
            raise EntryRangeError(f"entry {value} is negative")
        if value > ENTRY_MAX:
            raise EntryRangeError(f"entry {value} exceeds the unsigned 64-bit range")
        exact.append(value)
    return tuple(exact)


def _value_type(cls: type[_T]) -> type[_T]:
    """Make cls a frozen, slotted dataclass whose methods are written once, here.

    `dataclass` with init, eq and repr off registers the fields and builds the
    slotted class (so `fields`, `replace`, `asdict` and `__match_args__` work)
    but generates no code, which it would compile on every import.  The
    closures below give a frozen dataclass's equality, hash, repr, refused
    assignment and deletion, and pickle and copy state.  A method the class
    writes stays; `__hash__` goes where Python set it to None beside a written
    `__eq__`.  Each class writes its own `__init__`, which sets the fields
    by one `__setstate__` call.
    """
    cls = dataclass(cls, init=False, repr=False, eq=False, slots=True)
    names = tuple(f.name for f in fields(cls))
    get = attrgetter(*names)
    values = get if len(names) > 1 else lambda self: (get(self),)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{self.__class__.__qualname__}({', '.join(map('{}={!r}'.format, names, values(self)))})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self):
        return values(self)

    def __setstate__(self, state):
        for name, value in zip(names, state):
            object.__setattr__(self, name, value)

    for method in (__eq__, __hash__, __repr__, __setattr__, __delattr__, __getstate__, __setstate__):
        if cls.__dict__.get(method.__name__) is None:
            setattr(cls, method.__name__, method)
    return cls


# The value types are dataclasses whose methods `_value_type` writes once.  Each
# checked `__init__` sets its fields by the `__setstate__` that pickle and copy use.
@_value_type
class Square:
    """Nine checked nonnegative integers in row-major order."""

    entries: tuple[int, ...]

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = tuple(entries)
        if len(entries) != 9:
            raise ValueError(f"a square has 9 entries, got {len(entries)}")
        self.__setstate__((check_entries(entries),))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "Square":
        """The square of three rows of three entries, top row first; ValueError naming the first bad row."""
        rows = [tuple(row) for row in rows]
        for number, row in enumerate(rows, 1):
            if len(row) != 3:
                raise ValueError(f"row {number} has {len(row)} entries, expected 3")
        if len(rows) != 3:
            raise ValueError(f"a square has 3 rows, got {len(rows)}")
        return cls(rows[0] + rows[1] + rows[2])

    def at(self, row: int, col: int) -> int:
        """The entry at (row, col), each read by `_integer`; IndexError outside the grid."""
        row, col = _integer("row", row), _integer("col", col)
        if not (0 <= row <= 2 and 0 <= col <= 2):
            raise IndexError(f"cell ({row}, {col}) is outside the grid")
        return self.entries[row * 3 + col]

    def rows(self) -> tuple[tuple[int, int, int], ...]:
        e = self.entries
        return (e[0:3], e[3:6], e[6:9])


# Named cells, top row then middle row then bottom row: `a1` reads entries[0], ..., `c3` entries[8].
for _index, _name in enumerate(("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3")):
    setattr(Square, _name, property(lambda self, index=_index: self.entries[index]))
del _index, _name


@_value_type
class MagicSquare:
    """A certified magic square: equal line sums and distinct entries.

    Building one, or a `dataclasses.replace` copy, raises TypeError for a
    square that is not a `Square`, then as `validate` and `_natural` do, or
    ValueError if magic_sum or s disagree with the square.  Only `validate`
    and `construct`, having proved their squares magic, mint through
    `_certify`, which checks nothing.
    """

    square: Square
    magic_sum: int
    s: int

    def __init__(self, square: Square, magic_sum: int, s: int) -> None:
        checked = validate(_member("square", square, Square))
        if (_natural("magic_sum", magic_sum), _natural("s", s)) != (checked.magic_sum, checked.s):
            raise ValueError(f"the square has magic_sum {checked.magic_sum} and s {checked.s}")
        self.__setstate__((square, checked.magic_sum, checked.s))

    @property
    def entries(self) -> tuple[int, ...]:
        return self.square.entries


def _twin(cls: type) -> type:
    """A plain class with cls's `__slots__`, for the mints that check nothing.

    It has cls's slot layout and the default `__setattr__`, so a mint makes a
    twin, sets its fields by ordinary stores and retags it as a cls by
    `__class__` assignment.  CPython allows that assignment only between
    classes of identical slot layout, and raises TypeError otherwise; a twin
    built from cls's own `__slots__` cannot drift from it.  The retagged
    object is a cls like any other, with cls's methods and no `__dict__`,
    and frozen: cls's `__setattr__` refuses every assignment, `__class__`
    included.
    """
    return type(f"_{cls.__name__}Twin", (), {"__slots__": cls.__slots__})


# A mint costs one allocation, a store per field and the retag: about 0.2 us
# for a `Square` and 0.25 us for a `MagicSquare` (2-core Linux box, Python
# 3.11.7), half or less of setting each slot by its descriptor's `__set__`.
_SquareTwin = _twin(Square)
_MagicSquareTwin = _twin(MagicSquare)


def _certify(square: Square, s: int) -> MagicSquare:
    """The certificate of a square its caller has proved magic with center s; checks nothing.

    Minted as a twin retagged as a `MagicSquare` (see `_twin`).
    """
    certificate = _MagicSquareTwin()
    certificate.square = square
    certificate.magic_sum = 3 * s
    certificate.s = s
    certificate.__class__ = MagicSquare
    return certificate


def _square(entries: tuple[int, ...]) -> Square:
    """The `Square` of nine entries its caller has proved exact ints in range; checks nothing.

    Minted as a twin retagged as a `Square` (see `_twin`).
    """
    square = _SquareTwin()
    square.entries = entries
    square.__class__ = Square
    return square


def add(x: Square, y: Square) -> Square:
    """Entry-wise sum, exact; raises EntryRangeError past the 64-bit range."""
    return Square(tuple(a + b for a, b in zip(x.entries, y.entries)))


def scale(n: int, x: Square) -> Square:
    """Entry-wise product by a nonnegative integer, exact; n is read as `_natural` reads it."""
    n = _natural("scale factor", n)
    return Square(tuple(n * a for a in x.entries))


def apply(g: DihedralElement, x: Square) -> Square:
    """Rotate or reflect a square.  Preserves line sums and distinctness.

    TypeError, naming g, for a g that is not a `DihedralElement`.
    """
    return Square(_IMAGE[_member("g", g, DihedralElement)](x.entries))


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


def _check_images(images: Iterable[Callable[..., tuple[int, ...]]]) -> None:
    """Raise RuntimeError unless each image maps the eight lines onto the eight lines."""
    lines = {frozenset(line) for _, line in _LINES}
    for image in images:
        cells = image(range(9))
        if {frozenset(cells[c] for c in line) for line in lines} != lines:
            raise RuntimeError(f"image {cells} does not map the eight lines onto the eight lines")


_check_images(_IMAGE.values())  # `apply`, both mints and the row walk rely on it


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
    return _certify(x, m // 3)


def _digits(text: str) -> str | None:
    """The significant digits ("0" for zero) of a number, one or more ASCII digits 0-9; else None."""
    return (text.lstrip("0") or "0") if text.isascii() and text.isdigit() else None


def _entry(token: str) -> int:
    """The value of one entry of the text format; ValueError naming the token otherwise."""
    if (digits := _digits(token)) is None:
        raise ValueError(f"entry {token!r} is not a string of ASCII digits 0-9")
    # Past 20 significant digits (ENTRY_MAX has 20) the token is out of
    # range, and `int` would refuse one of more than 4,300 digits.
    if len(digits) > 20 or (value := int(digits)) > ENTRY_MAX:
        raise ValueError(f"entry {digits} exceeds the unsigned 64-bit range")
    return value


def parse_square(text: str) -> Square:
    """Parse the text square format: nine base-10 integers in row-major order.

    A number is one or more ASCII digits 0-9 and nothing else: no sign (not
    even "+"), no "_" digit separators, no non-ASCII digits.  The nine are
    separated by runs of commas, semicolons and ASCII whitespace, the ten
    characters of `_SEPARATORS` (space, tab, LF, VT, FF, CR and the file,
    group, record and unit separators 0x1c-0x1f); runs at either end are
    ignored.  Raises ValueError on anything else.
    """
    # `str.split` splits ASCII text where the pattern does, in one pass in C.
    tokens = (text.replace(",", " ").replace(";", " ").split() if (ascii_text := text.isascii())
              else list(filter(None, _SEPARATORS.split(text))))
    if len(tokens) != 9:
        raise ValueError(f"expected 9 entries, got {len(tokens)}")
    # `_digits`'s test on the nine tokens in one pass in C (the tokens of ASCII text are ASCII; at
    # most 9 x 20 digits, under int's digit limit); `_entry` names a bad token.  `int` of ASCII
    # digits is an exact int >= 0, so nine of them at most ENTRY_MAX need no check.
    if len(digits := "".join(tokens)) <= 9 * 20 and ascii_text and digits.isdigit():
        entries = tuple(map(int, tokens))
        if max(entries) <= ENTRY_MAX:
            return _square(entries)
    return Square(tuple(map(_entry, tokens)))


def format_square(x: Square) -> str:
    """Render a square in the text format: nine integers joined by spaces."""
    return _TEXT_FORMAT % x.entries


ONES = Square.from_rows(((1, 1, 1), (1, 1, 1), (1, 1, 1)))
GEN1 = Square.from_rows(((2, 0, 1), (0, 1, 2), (1, 2, 0)))
GEN2 = Square.from_rows(((3, 0, 3), (2, 2, 2), (1, 4, 1)))
GEN3 = Square.from_rows(((5, 0, 4), (2, 3, 4), (2, 6, 1)))
SEED_F1 = Square.from_rows(((7, 0, 5), (2, 4, 6), (3, 8, 1)))
SEED_F2 = Square.from_rows(((8, 0, 7), (4, 5, 6), (3, 10, 2)))
