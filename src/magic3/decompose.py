"""Canonical form and unique two-family decomposition of magic squares.

Every magic square has exactly one dihedral image whose corners satisfy
c3 < c1 < a3 < a1 (`is_canonical`), picked by the smallest corner and its
smaller neighbour.  Subtracting the minimum entry i from it gives the
*reduced* magic square, a rigid shape: the whole grid is determined by
r = c3 and s' = b2:

        2s'-r   0     s'+r
        2r      s'    2s'-2r
        s'-r    2s'   r

Proof: cells opposite across the center t sum to 2t, so ordered corners are
c3, c1, a3, a1 = t-x, t-y, t+y, t+x with x > y > 0.  The top row forces
a2 = t-x-y, the left column b1 = t-x+y, and c2, b3 are their opposites.  No
entry is further below t than a2, so i = a2, s' = x+y and r = y: a reduced
square has a2 = 0, c2 = 2s', r >= 1, s' >= 2r+1 and s' != 3r, as x = 2y
would make b1 = c1.

Up to the dihedral symmetry recorded in the result, every magic square of
order three is exactly one of

    F1:  SEED_F1 + i * ONES + j * GEN3 + k * GEN1      (s = 4 + i + 3j + k)
    F2:  SEED_F2 + i * ONES + j * GEN3 + k * GEN2      (s = 5 + i + 3j + 2k)

with nonnegative integers i, j, k.  Carrying the symmetry makes the
decomposition a bijection on all magic squares, not only canonical ones:
`decompose` and `construct` invert each other exactly.

`decompose` is one direct map.  One lookup on the corners (`_orientation`)
gives the canonical symmetry g and the cells that g's image reads its c3 and
a2 from, so i is the entry that the image reads its a2 from, r = c3 - i and
s' = b2 - i.  A base grid has (r, s') = (1 + j, 4 + 3j + k) on F1 and
(2 + j + k, 5 + 3j + 2k) on F2, so s' - 3r = k + 1 or -(k + 1):

    s' > 3r:  F1 with (j, k) = (r - 1, s' - 3r - 1)
    s' < 3r:  F2 with (j, k) = (s' - 2r - 1, 3r - s' - 1)

Every field is a nonnegative int, so the result is minted without
`Decomposition`'s checks: i is an entry, an int >= 0, r and s' are
differences of entries, and the proof above makes j, k >= 0 on both branches.

`construct` is this map run backwards.  The family and (j, k) give (r, s'),
the reduced shape plus i gives the base grid, and the recorded symmetry's
inverse orients it.  It never forms seed + i * ONES + j * GEN3 +
k * generator (`base_grid`); the tests tie the two together cell by cell.
`reduce` is `decompose` and then `construct` at i = 0 with no symmetry: the
reduced shape itself.
"""

from __future__ import annotations

from enum import Enum

from .core import (
    ELEMENTS,
    ENTRY_MAX,
    GEN1,
    GEN2,
    GEN3,
    SEED_F1,
    SEED_F2,
    _IMAGE,
    DihedralElement,
    MagicSquare,
    Square,
    _certify,
    _member,
    _natural,
    _square,
    _twin,
    _value_type,
    permutation,
)

# Keyed by the cells of x that g's image reads its c3 and c1 from, derived from
# the permutations like `compose` (import fails unless 8 keys result); each
# holds that c3 cell, g, and the cell that g's image reads its a2 from.
_ORIENTATION = {
    (permutation(g)[8], permutation(g)[6]): (permutation(g)[8], g, permutation(g)[1]) for g in ELEMENTS
}
if len(_ORIENTATION) != 8:
    raise RuntimeError("the dihedral permutations do not orient the corners one way each")
# construct() undoes each recorded symmetry, in symmetry index order.
_INVERSE_IMAGES = tuple(_IMAGE[g.inverse] for g in ELEMENTS)


class ReducedMagicSquare(metaclass=_value_type):
    """A magic square in reduced form, with r = c3 and s = b2.

    TypeError for a square that is not a `MagicSquare`.  r and s are read by
    the int rule, `_natural`, and must be the square's c3 and s, or
    ValueError; that the square is reduced is not checked.
    """

    square: MagicSquare
    r: int
    s: int

    def __init__(self, square: MagicSquare, r: int, s: int) -> None:
        square = _member("square", square, MagicSquare)
        if (_natural("r", r), _natural("s", s)) != (square.square.c3, square.s):
            raise ValueError(f"the square has c3 {square.square.c3} and s {square.s}")
        self.__setstate__((square, square.square.c3, square.s))

    @property
    def entries(self) -> tuple[int, ...]:
        return self.square.entries


def is_canonical(x: Square) -> bool:
    """True when the corner ordering c3 < c1 < a3 < a1 holds."""
    e = x.entries
    return e[8] < e[6] < e[2] < e[0]


def _orientation(e: tuple[int, ...]) -> tuple[int, DihedralElement, int]:
    """(low, g, least): the g whose image of e has ordered corners; e is certified.

    The image reads its c3 from cell low, e's smallest corner, its c1 from
    that corner's smaller neighbour (see `canonical_symmetry`), and its a2
    from cell least.  Corners 0 and 8 each neighbour both 2 and 6, so x and
    y, the smaller corner of each opposite pair, are the smallest corner and
    its smaller neighbour, in one order or the other.  The image less its
    minimum is the reduced square, whose 0 sits at a2, so cell least holds
    e's minimum entry.
    """
    x = 0 if e[0] < e[8] else 8
    y = 2 if e[2] < e[6] else 6
    return _ORIENTATION[(x, y) if e[x] < e[y] else (y, x)]


def canonical_symmetry(m: MagicSquare) -> DihedralElement:
    """The unique dihedral element whose image of m has ordered corners.

    The image has m's two smallest corners at c3 and c1: as opposite corners
    sum to 2s, they are neighbours.
    """
    return _orientation(m.square.entries)[1]


class Family(Enum):
    """The two affine families of magic squares."""

    F1 = "F1"
    F2 = "F2"

    @property
    def seed(self) -> Square:
        return SEED_F1 if self is Family.F1 else SEED_F2

    @property
    def generator(self) -> Square:
        return GEN1 if self is Family.F1 else GEN2

    @property
    def base_s(self) -> int:
        """Magic parameter of the family seed."""
        return 4 if self is Family.F1 else 5

    @property
    def k_step(self) -> int:
        """Contribution of k to the magic parameter."""
        return 1 if self is Family.F1 else 2


class Decomposition(metaclass=_value_type):
    """Coordinates (family, i, j, k) plus the symmetry from reduction."""

    family: Family
    i: int
    j: int
    k: int
    symmetry: DihedralElement

    def __init__(self, family: Family, i: int, j: int, k: int, symmetry: DihedralElement) -> None:
        # Name the first bad field; i, j and k are read by the int rule, `_natural`.
        family = _member("family", family, Family)
        i, j, k = _natural("i", i), _natural("j", j), _natural("k", k)
        symmetry = _member("symmetry", symmetry, DihedralElement)
        self.__setstate__((family, i, j, k, symmetry))

    # Written out: `selftest` compares every round trip, and this runs at half
    # the cost of `_value_type`'s `__eq__` over a getter.
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.family, self.i, self.j, self.k, self.symmetry) == (
                other.family, other.i, other.j, other.k, other.symmetry)
        return NotImplemented

    @property
    def s(self) -> int:
        return self.family.base_s + self.i + 3 * self.j + self.family.k_step * self.k

    def to_json_obj(self) -> dict[str, object]:
        """The wire form used by the CLI, in fixed key order."""
        return {
            "family": self.family.value,
            "i": self.i,
            "j": self.j,
            "k": self.k,
            "symmetry": self.symmetry.value,
        }


# A mint costs about 0.26 us (2-core Linux box, Python 3.11.7); see `core._twin`.
_DecompositionTwin = _twin(Decomposition)


def _decomposition(family: Family, i: int, j: int, k: int, symmetry: DihedralElement) -> Decomposition:
    """The `Decomposition` of fields its caller has proved exact (nonnegative ints); checks nothing.

    Minted as a twin retagged as a `Decomposition` (see `core._twin`).
    """
    d = _DecompositionTwin()
    d.family = family
    d.i = i
    d.j = j
    d.k = k
    d.symmetry = symmetry
    d.__class__ = Decomposition
    return d


# Code that runs once per square reads members through these names and keys
# tables by a member's `_value_`: on Python 3.11, `Family.F1`, `.value` and
# hashing a member each run Python code in the enum module.
_F1, _F2 = Family
# (seed, GEN3, generator) entries of each family, cell by cell.
_BASIS = {
    family._value_: tuple(zip(family.seed.entries, GEN3.entries, family.generator.entries))
    for family in Family
}
_INVERSE_IMAGE = {g._value_: image for g, image in zip(ELEMENTS, _INVERSE_IMAGES)}


def base_grid(family: Family, i: int, j: int, k: int) -> tuple[int, ...]:
    """Row-major entries of seed + i * ONES + j * GEN3 + k * generator."""
    return tuple([se + i + j * sh + k * ge for se, sh, ge in _BASIS[family._value_]])


def construct(d: Decomposition) -> MagicSquare:
    """Build the magic square of a decomposition, minted without checking again.

    `decompose` run backwards: F1 has (r, s') = (1 + j, 4 + 3j + k) and F2
    (2 + j + k, 5 + 3j + 2k); with t = i + s', the base grid is the reduced
    shape plus i, and the inverse of the recorded symmetry
    restores the orientation, so construct(decompose(m)) == m.  The tests show
    that this grid is `base_grid`'s, the image of seed + i * ONES + j * GEN3 +
    k * generator, and that each of those is magic with center t
    (`TestConeProof`).  Its largest entry is t + s' (c2), so t + s' <=
    ENTRY_MAX gives a grid in range; a grid past it goes through `Square`,
    which refuses it as it always has.
    """
    i, j, k = d.i, d.j, d.k
    if d.family is _F1:
        r, s = 1 + j, 4 + 3 * j + k
    else:
        r, s = 2 + j + k, 5 + 3 * j + 2 * k
    t = i + s
    base = (t + s - r, i, t + r, i + 2 * r, t, t + s - 2 * r, t - r, t + s, i + r)
    grid = _INVERSE_IMAGE[d.symmetry._value_](base)
    return _certify(_square(grid) if t + s <= ENTRY_MAX else Square(grid), t)


def decompose(m: MagicSquare) -> Decomposition:
    """Decompose a magic square; construct(decompose(m)) == m.

    Minted without `Decomposition`'s checks: the module docstring shows that
    every field is a nonnegative int.
    """
    e = m.square.entries
    # g's image reads its c3, r + i, from m's smallest corner, and its a2, i, from cell least.
    low, g, least = _orientation(e)
    i = e[least]
    r = e[low] - i
    s = e[4] - i
    if s > 3 * r:
        return _decomposition(_F1, i, r - 1, s - 3 * r - 1, g)
    return _decomposition(_F2, i, s - 2 * r - 1, 3 * r - s - 1, g)


def reduce(m: MagicSquare) -> tuple[ReducedMagicSquare, int, DihedralElement]:
    """Reduce to canonical form; returns (reduced, i, g) with i the minimum entry.

    The decomposition at i = 0 with no symmetry is the reduced square, so
    apply(g.inverse, reduced + i * ONES) recovers the input exactly.
    """
    d = decompose(m)
    reduced = construct(_decomposition(d.family, 0, d.j, d.k, DihedralElement.ID))
    return ReducedMagicSquare(square=reduced, r=reduced.square.c3, s=reduced.s), d.i, d.symmetry
