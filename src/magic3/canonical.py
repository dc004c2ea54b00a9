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

from dataclasses import dataclass

from .core import (
    ELEMENTS,
    DihedralElement,
    MagicSquare,
    Square,
    _certify,
    apply,
    permutation,
)

# Keyed by the cells of x that g's image reads its c3 and c1 from, derived from
# the permutations like `compose` (import fails unless 8 keys result); then, per
# c3 cell, its two neighbours, each followed by the g that reads c1 from it.
_ORIENTATION = {(permutation(g)[8], permutation(g)[6]): g for g in ELEMENTS}
if len(_ORIENTATION) != 8:
    raise RuntimeError("the dihedral permutations do not orient the corners one way each")
_NEIGHBOURS = {
    corner: [x for (low, n), g in _ORIENTATION.items() if low == corner for x in (n, g)]
    for corner in (0, 2, 6, 8)
}


@dataclass(frozen=True, slots=True)
class ReducedMagicSquare:
    """A magic square in reduced form, with r = c3 and s = b2."""

    square: MagicSquare
    r: int
    s: int

    @property
    def entries(self) -> tuple[int, ...]:
        return self.square.entries


def is_canonical(x: Square) -> bool:
    """True when the corner ordering c3 < c1 < a3 < a1 holds."""
    e = x.entries
    return e[8] < e[6] < e[2] < e[0]


def _orientation(e: tuple[int, ...]) -> tuple[int, DihedralElement]:
    """The cell of e's smallest corner and the g whose image reads c3 there; e is certified."""
    low = e.index(min(e[0], e[2], e[6], e[8]))
    a, g_a, b, g_b = _NEIGHBOURS[low]
    return low, g_a if e[a] < e[b] else g_b


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
    is magic, and less its minimum i it stays so with center s - i and no
    negative entry, so the reduced square is minted without checking again.
    """
    g = canonical_symmetry(m)
    i = min(m.square.entries)
    reduced = _certify(Square(tuple(value - i for value in apply(g, m.square).entries)), m.s - i)
    return ReducedMagicSquare(square=reduced, r=reduced.square.c3, s=reduced.s), i, g
