"""Enumerate all magic squares for a given magic parameter s, two ways.

`enumerate_families` expands the two affine families over every lattice
solution of 4 + i + 3j + k = s and 5 + i + 3j + 2k = s and all eight
symmetries.  `brute_force` is the independent oracle: it sweeps the two free
cells (a1, a2), fills the rest of the grid from the line-sum equations, and
keeps grids whose entries are nonnegative and pairwise distinct.  `reconcile`
runs both plus the two counting devices and insists all four agree.

`reconcile` compares the two enumerations in (2s + 1)**2 bytes, one cell mark
per (a1, a2), and keeps neither set.  Six equations (center s, a1 + c3 =
a2 + c2 = a3 + c1 = b1 + b3 = 2s, row 1 = column 1 = 3s) make every line sum
3s and force the grid from (a1, a2), so a grid that satisfies them is named
by its cell.  Family grids set their cells and brute grids clear them: no
cell set twice, every brute cell found set, and equal counts prove the two
streams are the same set of grids, each once.  A pass that fails falls back
to the two sets, to name the first repeated family grid or the smallest
square of their difference.

Both grid streams certify what they yield without building a `Square` per
grid.  Family grids are magic by construction, and each lattice point's base
grid gets the `Square` entry checks.  The brute sweep checks each grid
itself: nonnegative entries, all eight line sums equal to 3s (a MismatchError
otherwise) and distinct entries, and it gives its first grid the `Square`
entry checks.  No entry of either stream exceeds 2s, because opposite cells
of a square with center s sum to 2s, and the first grid of each holds 2s, so
an s past the 64-bit range fails on the first grid.

Output orders are deterministic: family expansion is lexicographic by
(family, i, j, k, symmetry index), brute force by (a1, a2).  The grid
streams `iter_family_grids` and `iter_brute_grids` hold one lattice point or
one (a1, a2) pair at a time, so a consumer that does not keep what they yield
(such as `magic3 enumerate`, which writes them out in fixed-size chunks) runs
in memory that does not depend on s.  `enumerate_families` and `brute_force`
collect every certified square into one `EnumerationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NoReturn

from .core import (
    ELEMENTS,
    MagicSquare,
    MagicSquareError,
    Square,
    check_entries,
)
from .decompose import _INVERSE_IMAGES, Decomposition, Family, base_grid
from .series import CountReport, count_closed, expand, magic_gf

# `reconcile` keeps one byte per (a1, a2) pair, (2s + 1)**2 in all; this s is
# the largest whose cell marks fit in 256 MiB.
COUNT_MAX_S = 8191


class MismatchError(MagicSquareError):
    """Two counting or enumeration routes disagreed; never fires on a sound build."""

    def __init__(self, message: str, square: tuple[int, ...] | None = None) -> None:
        super().__init__(message)
        self.square = square


@dataclass(frozen=True, slots=True)
class EnumerationResult:
    """All magic squares with magic sum 3s, in a deterministic order."""

    s: int
    squares: tuple[MagicSquare, ...]
    source: str


def _family_solutions(s: int) -> Iterator[tuple[Family, int, int, int]]:
    """Lattice solutions (family, i, j, k) in lexicographic order."""
    for family in Family:
        budget = s - family.base_s
        for i in range(budget + 1):
            rest = budget - i
            for j in range(rest // 3 + 1):
                k, leftover = divmod(rest - 3 * j, family.k_step)
                if leftover == 0:
                    yield family, i, j, k


def iter_decompositions(s: int) -> Iterator[Decomposition]:
    """Every decomposition with magic parameter s, in output order."""
    for family, i, j, k in _family_solutions(s):
        for g in ELEMENTS:
            yield Decomposition(family=family, i=i, j=j, k=k, symmetry=g)


def iter_family_grids(s: int) -> Iterator[tuple[int, ...]]:
    """Row-major grids of the family expansion, in output order.

    Each lattice point's base grid gets the `Square` entry checks, so an s
    past the 64-bit range raises EntryRangeError as `Square` would on the
    first image.  Its eight images permute those same nine entries.
    """
    for family, i, j, k in _family_solutions(s):
        base = base_grid(family, i, j, k)
        check_entries(base)
        for image in _INVERSE_IMAGES:
            yield image(base)


def iter_family_squares(s: int) -> Iterator[MagicSquare]:
    """Certified squares of the family expansion.

    Family grids satisfy the magic conditions by construction (the
    reconciliation suite checks this against the brute-force oracle), so the
    certificate is attached without a per-square revalidation.
    """
    m = 3 * s
    for grid in iter_family_grids(s):
        yield MagicSquare(square=Square(grid), magic_sum=m, s=s)


def enumerate_families(s: int) -> EnumerationResult:
    """All magic squares with magic sum 3s via the two-family expansion."""
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    return EnumerationResult(s=s, squares=tuple(iter_family_squares(s)), source="families")


def iter_brute_grids(s: int) -> Iterator[tuple[int, ...]]:
    """Certified brute-force sweep over (a1, a2); every other cell is forced by line sums.

    With magic sum m = 3s the center is forced to s, and the remaining cells
    follow from the row, column, and diagonal equations.  The a2 range is cut
    to where c2, c1, a3, b1 and b3 are nonnegative, read off their equations
    below; outside it every grid has a negative entry.  Along one a1 row,
    a2 and the five cells it forces each move by one per step, so they are
    stepped together as ranges that start and stop at their equations'
    values for the first and last a2.

    Every grid yielded is certified without a `Square` or `validate`:

    * a grid with a negative forced entry is dropped;
    * a grid whose eight line sums are not all m raises MismatchError
      carrying it.  Each line is summed less its cell that is fixed for the
      whole a1 row (a1, s or c3), whose part of m is subtracted once per row;
    * a grid with a repeated value is dropped;
    * the first grid gets the `Square` entry checks, so an s past the 64-bit
      range raises EntryRangeError as `Square` would on it.  No later grid
      can fail them.  Opposite cells sum to 2s (a1 + c3 = a2 + c2 =
      a3 + c1 = b1 + b3 = 2s) and every cell is nonnegative, so no entry
      exceeds 2s.  The first grid holds 2s: at a1 = 0 the only pair is
      a2 = 2s, whose a3 = s repeats the center, and at a1 = 1 the first pair
      a2 = 2s - 2 gives (1, 2s-2, s+1, 2s, s, 0, s-1, 2, 2s-1), whose entries
      are distinct for every s >= 4.  Below s = 4 there are no grids.
    """
    m = 3 * s
    unchecked = True
    for a1 in range(2 * s + 1):
        c3 = 2 * s - a1
        low = max(0, s - a1, 2 * s - 2 * a1)
        high = min(2 * s, 3 * s - a1, 4 * s - 2 * a1)
        m_less_a1, m_less_c3, m_less_s = m - a1, m - c3, m - s
        for a2, a3, c1, b1, b3, c2 in zip(
            range(low, high + 1),
            range(3 * s - a1 - low, 3 * s - a1 - high - 1, -1),
            range(a1 + low - s, a1 + high - s + 1),
            range(4 * s - 2 * a1 - low, 4 * s - 2 * a1 - high - 1, -1),
            range(2 * a1 + low - 2 * s, 2 * a1 + high - 2 * s + 1),
            range(2 * s - low, 2 * s - high - 1, -1),
        ):
            if a3 < 0 or c1 < 0 or b1 < 0 or b3 < 0:
                continue
            grid = (a1, a2, a3, b1, s, b3, c1, c2, c3)
            # Rows 1 and 3, columns 1 and 3, then the four lines through the center.
            if not (
                m_less_a1 == a2 + a3 == b1 + c1
                and m_less_c3 == c1 + c2 == a3 + b3
                and m_less_s == b1 + b3 == a2 + c2 == a1 + c3 == a3 + c1
            ):
                raise MismatchError(
                    f"brute-force grid at s={s} has a line sum other than {m}", square=grid
                )
            if len(set(grid)) == 9:
                if unchecked:
                    check_entries(grid)
                    unchecked = False
                yield grid


def iter_brute_squares(s: int) -> Iterator[MagicSquare]:
    """Certified squares of the brute-force sweep.

    `iter_brute_grids` checks every grid it yields (see there), so the
    certificate is attached without a per-square revalidation.
    """
    m = 3 * s
    for grid in iter_brute_grids(s):
        yield MagicSquare(square=Square(grid), magic_sum=m, s=s)


def brute_force(s: int) -> EnumerationResult:
    """All magic squares with magic sum 3s by the independent oracle."""
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    return EnumerationResult(s=s, squares=tuple(iter_brute_squares(s)), source="brute_force")


def count_families(s: int) -> int:
    """Number of squares produced by the family expansion at parameter s."""
    return sum(1 for _ in iter_family_grids(s))


def _mark_cells(
    grids: Iterator[tuple[int, ...]], s: int, marks: bytearray, mark: int
) -> tuple[int, tuple[int, ...] | None]:
    """Count the grids, moving each one's (a1, a2) cell of marks to `mark`.

    A grid passes when its center is s, a1 + c3 = a2 + c2 = a3 + c1 =
    b1 + b3 = 2s, row 1 and column 1 sum to 3s, 0 <= a1, a2 <= 2s, and its
    cell a1 * (2s + 1) + a2 is not at `mark` yet.  Returns (count, None), or
    the count so far and the first grid that does not pass.
    """
    w, two_s, three_s = 2 * s + 1, 2 * s, 3 * s
    count = 0
    for grid in grids:
        a1, a2, a3, b1, b2, b3, c1, c2, c3 = grid
        if not (
            b2 == s
            and a1 + c3 == a2 + c2 == a3 + c1 == b1 + b3 == two_s
            and a1 + a2 + a3 == a1 + b1 + c1 == three_s
            and 0 <= a1 <= two_s
            and 0 <= a2 <= two_s
            and marks[cell := a1 * w + a2] != mark
        ):
            return count, grid
        marks[cell] = mark
        count += 1
    return count, None


def _raise_first_difference(
    s: int, include_brute: bool, route: str, grid: tuple[int, ...] | None
) -> NoReturn:
    """Raise MismatchError for a failed marking pass, naming what the sets show.

    That is the first repeated family grid in stream order, otherwise the
    smallest square of the symmetric difference of the two sets.  When the
    sets agree, the pass stopped at a grid, and that grid is named.  From
    the brute pass it is a repeat: a brute grid that the six equations
    reject, or whose cell no family grid set, is not a family grid.  From
    the family pass it is a grid that the six equations reject.  (A brute
    pass that stops at no grid, but counts fewer grids, leaves the sets
    different.)
    """
    family_set: set[tuple[int, ...]] = set()
    for family_grid in iter_family_grids(s):
        if family_grid in family_set:
            raise MismatchError(f"family expansion repeated a square at s={s}", square=family_grid)
        family_set.add(family_grid)
    if include_brute:
        brute_set = set(iter_brute_grids(s))
        if family_set != brute_set:
            diff = min(family_set.symmetric_difference(brute_set))
            side = "families" if diff in family_set else "brute force"
            raise MismatchError(
                f"square sets differ at s={s}; first difference comes from {side}",
                square=diff,
            )
    if route == "brute force":
        raise MismatchError(f"brute force repeated a square at s={s}", square=grid)
    raise MismatchError(
        f"family expansion gave a grid at s={s} that is not a magic square "
        f"with magic sum {3 * s}",
        square=grid,
    )


def reconcile(s: int, include_brute: bool = True) -> CountReport:
    """Count magic squares four ways and insist on exact agreement.

    The two enumerated sets are compared in one bytearray of (2s + 1)**2 cell
    marks, one per (a1, a2), whatever the number of squares.  A grid with
    center s, a1 + c3 = a2 + c2 = a3 + c1 = b1 + b3 = 2s and row 1 = column 1
    = 3s has every line sum 3s: row 2, column 2 and both diagonals are
    opposite pairs plus s, and row 3 and column 3 are 6s less row 1 and less
    column 1.  Such a grid is forced by (a1, a2): c3 = 2s - a1,
    c2 = 2s - a2, a3 = 3s - a1 - a2, c1 = 2s - a3, b1 = 3s - a1 - c1 and
    b3 = 2s - b1.  So with 0 <= a1, a2 <= 2s, its cell a1 * (2s + 1) + a2
    stands for the whole grid.  Each family grid moves its cell from 0 to 1,
    and each brute grid moves its cell from 1 back to 0.  No family cell
    marked twice means no family grid repeats; every brute grid finding its
    mark means every brute grid is a family grid and none repeats; and equal
    counts then make the two sets equal.

    Any failed pass falls back to the sets: MismatchError names the first
    repeated family grid in stream order, otherwise the smallest square of
    the symmetric difference, otherwise the grid the pass stopped at.  A
    failed pass always raises, with or without the brute-force stream.

    Raises ValueError for a negative s, and for an s past COUNT_MAX_S, whose
    cell marks would pass 256 MiB; both before any work is done.
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if s > COUNT_MAX_S:
        raise ValueError(
            f"s must be at most {COUNT_MAX_S}, got {s}: count keeps (2s+1)**2 bytes "
            "of cell marks, at most 256 MiB"
        )
    closed = count_closed(s)
    series_count = expand(magic_gf(), s + 1)[s]
    marks = bytearray((2 * s + 1) ** 2)
    families, failed = _mark_cells(iter_family_grids(s), s, marks, 1)
    if failed is not None:
        _raise_first_difference(s, include_brute, "families", failed)
    brute: int | None = None
    if include_brute:
        brute, failed = _mark_cells(iter_brute_grids(s), s, marks, 0)
        if failed is not None or brute != families:
            _raise_first_difference(s, include_brute, "brute force", failed)
    # Past the marks, brute (when counted) equals families.
    if len({closed, series_count, families}) != 1:
        raise MismatchError(
            f"counts disagree at s={s}: closed={closed} series={series_count} "
            f"families={families} brute={brute}"
        )
    return CountReport(
        s=s,
        closed_form=closed,
        series=series_count,
        families=families,
        brute=brute,
    )
