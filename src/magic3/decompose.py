"""Unique two-family decomposition of magic squares.

Up to the dihedral symmetry recorded in the result, every magic square of
order three is exactly one of

    F1:  SEED_F1 + i * ONES + j * GEN3 + k * GEN1      (s = 4 + i + 3j + k)
    F2:  SEED_F2 + i * ONES + j * GEN3 + k * GEN2      (s = 5 + i + 3j + 2k)

with nonnegative integers i, j, k.  Carrying the symmetry makes the
decomposition a bijection on all magic squares, not only canonical ones:
`decompose` and `construct` invert each other exactly.

`decompose` is one direct map.  One lookup on the corners
(`canonical._orientation`) gives the canonical symmetry g and the cells
that g's image reads its c3 and a2 from.  The image less its minimum i is
the reduced grid of `canonical`, whose 0 sits at a2, so i is the entry that
the image reads its a2 from, and r = c3 - i and s' = b2 - i.  A base grid
has (r, s') = (1 + j, 4 + 3j + k) on F1 and (2 + j + k, 5 + 3j + 2k) on F2,
so s' - 3r = k + 1 or -(k + 1):

    s' > 3r:  F1 with (j, k) = (r - 1, s' - 3r - 1)
    s' < 3r:  F2 with (j, k) = (s' - 2r - 1, 3r - s' - 1)

Every field is a nonnegative int, so the result is minted without
`Decomposition`'s checks.  i is an entry, an int >= 0, and r and s' are
differences of entries.  r >= 1, as the 0 of a reduced square sits at a2;
the corner order gives s' >= 2r + 1; and s' = 3r, where a3 = b3 = 4r, fails
validation.  So j, k >= 0 on both branches.

`construct` is this map run backwards.  The family and (j, k) give (r, s'),
the reduced shape of `canonical` plus i gives the base grid, and the recorded
symmetry's inverse orients it.  It never forms seed + i * ONES + j * GEN3 +
k * generator (`base_grid`); the tests tie the two together cell by cell.
"""

from __future__ import annotations

from enum import Enum
from operator import itemgetter

from .canonical import _orientation
from .core import (
    ELEMENTS,
    ENTRY_MAX,
    GEN1,
    GEN2,
    GEN3,
    SEED_F1,
    SEED_F2,
    DihedralElement,
    MagicSquare,
    Square,
    _certify,
    _natural,
    _square,
    _value_type,
    permutation,
)

# construct() undoes each recorded symmetry, in symmetry index order.
_INVERSE_IMAGES = tuple(itemgetter(*permutation(g.inverse)) for g in ELEMENTS)


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


@_value_type
class Decomposition:
    """Coordinates (family, i, j, k) plus the symmetry from reduction."""

    family: Family
    i: int
    j: int
    k: int
    symmetry: DihedralElement

    def __init__(self, family: Family, i: int, j: int, k: int, symmetry: DihedralElement) -> None:
        # Name the first bad field; i, j and k are read by the int rule, `_natural`.
        if not isinstance(family, Family):
            raise TypeError(f"family must be Family, got {type(family).__name__}")
        i, j, k = _natural("i", i), _natural("j", j), _natural("k", k)
        if not isinstance(symmetry, DihedralElement):
            raise TypeError(f"symmetry must be DihedralElement, got {type(symmetry).__name__}")
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
            "symmetry": self.symmetry.tag,
        }


_SET_FAMILY, _SET_I, _SET_J, _SET_K, _SET_SYMMETRY = (
    getattr(Decomposition, name).__set__ for name in ("family", "i", "j", "k", "symmetry")
)


def _decomposition(family: Family, i: int, j: int, k: int, symmetry: DihedralElement) -> Decomposition:
    """The `Decomposition` of fields its caller has proved exact (nonnegative ints); checks nothing."""
    d = object.__new__(Decomposition)
    _SET_FAMILY(d, family)
    _SET_I(d, i)
    _SET_J(d, j)
    _SET_K(d, k)
    _SET_SYMMETRY(d, symmetry)
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
    shape of `canonical` plus i, and the inverse of the recorded symmetry
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
