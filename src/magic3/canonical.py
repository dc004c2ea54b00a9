"""Canonical form of a magic square.

Every magic square has exactly one dihedral image whose corners satisfy
c3 < c1 < a3 < a1, picked by the smallest corner and its smaller neighbour.
Subtracting the minimum entry from it gives the *reduced* magic square, a
rigid shape: the whole grid is determined by r = c3 and s = b2:

        2s-r   0     s+r
        2r     s     2s-2r
        s-r    2s    r

Proof: cells opposite across the center sum to 2s, so ordered corners are
c3, c1, a3, a1 = s-x, s-y, s+y, s+x with x > y > 0.  The top row forces
a2 = s-x-y, the left column b1 = s-x+y, and c2, b3 are their opposites.  No
entry is further below s than a2, so the reduced a2 is 0, s = x+y and r = y:
a reduced square has a2 = 0, c2 = 2s, r >= 1, s >= 2r+1 and s != 3r, as
x = 2y would make b1 = c1.
"""

from __future__ import annotations

from .core import (
    ELEMENTS,
    DihedralElement,
    MagicSquare,
    Square,
    _IMAGE,
    _certify,
    _square,
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


@_value_type
class ReducedMagicSquare:
    """A magic square in reduced form, with r = c3 and s = b2."""

    square: MagicSquare
    r: int
    s: int

    def __init__(self, square: MagicSquare, r: int, s: int) -> None:
        self.__setstate__((square, r, s))

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


def reduce(m: MagicSquare) -> tuple[ReducedMagicSquare, int, DihedralElement]:
    """Reduce to canonical form; returns (reduced, i, g) with i the minimum entry.

    The symmetry g is applied first and i * ONES subtracted second (the two
    commute, but a fixed order keeps g reproducible).  The inverse transform
    apply(g.inverse, reduced + i * ONES) recovers the input exactly.  g's image
    is magic, and less its minimum i it stays so with center s - i; each entry
    is a certified entry less the minimum, an exact int in [0, 2(s - i)], so
    the reduced square and its certificate are minted without checking again.
    """
    e = m.square.entries
    _, g, least = _orientation(e)
    i = e[least]
    reduced = _certify(_square(tuple(value - i for value in _IMAGE[g](e))), m.s - i)
    return ReducedMagicSquare(square=reduced, r=reduced.square.c3, s=reduced.s), i, g
