"""Enumerate all magic squares for a given magic parameter s, two ways.

`iter_family_grids` walks every lattice solution of 4 + i + 3j + k = s and
5 + i + 3j + 2k = s and yields the eight symmetric images of each one's base
grid, which permute the same nine entries.  `iter_brute_grids` is the
independent oracle: it sweeps the two free cells (a1, a2) one a1 row at a
time and fills the rest of the grid from the line-sum equations, and it
yields each row's lattice points less those on the 8 lines where two cells
are equal (the inside-out polytope picture of M. Beck, T. Zaslavsky, Adv.
Math. 205, 2006).  `reconcile` runs both plus the two counting devices and
insists all four agree.

Six equations, center s, a1 + c3 = a2 + c2 = a3 + c1 = b1 + b3 = 2s and
row 1 = column 1 = 3s, make every line sum 3s: row 2, column 2 and both
diagonals are opposite pairs plus s, and row 3 and column 3 are 6s less row
1 and less column 1.  They force the grid from (a1, a2) (`_forced_grid`), so
with 0 <= a1, a2 <= 2s a grid that passes them is named by its cell
a1 * (2s + 1) + a2, and cells sort as their grids do.  `reconcile` compares
the two enumerations in (2s + 1)**2 bytes, one mark per cell, and keeps
neither set: each family grid moves its cell from 0 to 1, and then each a1
row of marks must be 1 exactly at the cells the brute-force sweep yields.

The family grids are marked one lattice row (family, i) at a time.  Along a
row every base-grid entry is affine in j, so each image's cells form one
extended slice of the marks.  The six equations are linear and
0 <= entry <= 2s convex, so a row whose two end base grids pass them passes
at every point, and so does each image, as it maps lines onto lines (checked
when `core` is imported).  Each half of `reconcile`, and each grid stream,
certifies one row at a time and names a failure from that row alone; no grid
is walked on its own.

So both grid streams certify what they yield without building a `Square`
per grid: each checks every row's two end grids (`_family_row`, which also
gives its steps, and `_brute_rows`, see `iter_brute_grids`) before it yields
any grid of the row, and raises MismatchError at the first row that fails.
No entry exceeds 2s, as opposite cells sum to 2s, and each stream's first
grid holds 2s, so only that grid gets the `Square` entry checks, before the
first row (`_check_first_family_grid`, `_brute_pieces`).  Each public call
reads s once by the int rule, `core._natural`, so a bad s raises on the
first item of every stream; the `iter_*_squares` streams mint by `validate`.

Output orders are deterministic: family grids are lexicographic by
(family, i, j, k, symmetry index), brute force by (a1, a2).  Each stream is
a chain of pieces of certified rows (`_family_pieces`, `_brute_pieces`),
and `_PIECE` alone sets their size: a piece is at most `_PIECE` offsets of
an a1 row less the cuts inside them, or `_PIECE // 8` points of a lattice
row with their eight images each.  A brute piece whose offsets are all cut
is dropped, so no piece is empty.  A piece is handed out as its row's first
grid and steps and its first offset and length m, so each of its cells is a
first value and a step, and column(first, step, m, end) gives its m values,
or what stands for each of them; end is true for a column of the cells that
end a line, a grid's last.  `_brute_grids` zips a brute piece's nine
columns; a family piece has one layout, a 72-tuple per point of its eight
images' cells (`_family_points`), whose ninth cells, all corners, read four line-end
columns, and `iter_family_grids` cuts it into grids.  A piece holds at most
13 such columns and 7 cuts, so a consumer that does not keep what the
streams yield runs in memory that does not depend on s.  A row's pieces
come after its end grids pass, so a failing row raises after every piece of
the rows before it and before any of its own.  `magic3 enumerate` is such a
consumer: its columns are slices, or repeats, of two tables of decimal
strings, each string followed by the separator inside a line or at its end,
and it writes each piece as one write of one empty `join` per grid or point.

`MismatchError` and `COUNT_MAX_S`, the bound on the s of `reconcile`, are
defined in `core`, so that the CLI reads them without loading this module;
they are imported here, and read from here as before.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from itertools import chain, compress, starmap
from operator import itemgetter

from .core import (
    COUNT_MAX_S,
    ELEMENTS,
    MagicSquare,
    MismatchError,
    Square,
    _natural,
    check_entries,
    validate,
)
from .decompose import _INVERSE_IMAGES, Decomposition, Family, _decomposition, base_grid
from .series import CountReport, count_closed, expand, magic_gf

# Each grid stream cuts its rows into pieces of at most this many grids, so
# that the nine columns of one piece, and what a consumer builds from one
# piece, stay small whatever s is, while the work per piece is spread over
# many grids: a brute piece is at most this many offsets of an a1 row (up to
# s = 511 every row is one piece), a family piece at most an eighth as many
# lattice points, as each point gives eight grids.
_PIECE = 1024


def _family_rows(s: int) -> Iterator[tuple[Family, int, range, range]]:
    """Nonempty lattice rows (family, i, js, ks), lexicographic; a row's points are zip(js, ks).

    With rest = s - base_s - i, j steps by k_step from rest % k_step up to rest / 3.
    Callers read s by the int rule first; this checks nothing.
    """
    for family in Family:
        budget, step = s - family.base_s, family.k_step
        for i in range(budget + 1):
            rest = budget - i
            js = range(rest % step, rest // 3 + 1, step)
            if js:
                yield family, i, js, range((rest - 3 * js[0]) // step, -1, -3)


def _check_first_family_grid(s: int) -> int:
    """s read by the int rule; raises as `Square` would on the first family grid (F1, 0, 0, s - 4) if s >= 4.

    It holds 2s, the largest entry at s, so each family stream that calls
    this before its first item raises on an s past the 64-bit range, and
    before it takes the `len` of a row, which can then pass `sys.maxsize`.
    """
    s = _natural("s", s)
    if s >= 4:
        check_entries(base_grid(Family.F1, 0, 0, s - 4))
    return s


def iter_decompositions(s: int) -> Iterator[Decomposition]:
    """Every decomposition with magic parameter s, in `iter_family_grids`' order.

    Its fields come from `range` arithmetic on s, so each is an exact
    nonnegative int and is minted without `Decomposition`'s checks.  An s past
    the 64-bit range raises EntryRangeError on the first item, as
    `iter_family_grids` does.
    """
    s = _check_first_family_grid(s)
    for family, i, js, ks in _family_rows(s):
        for j, k in zip(js, ks):
            for g in ELEMENTS:
                yield _decomposition(family, i, j, k, g)


def _cell_values(first: int, step: int, m: int, end: bool = False) -> Sequence[int]:
    """The m values first, first + step, ... of a cell: a range, or a list of m firsts if step is 0.

    Either can be read more than once, as the eight images of a family
    piece read the same columns.  end, whether the cell ends its grid's
    line, leaves the values as they are.
    """
    return range(first, first + m * step, step) if step else [first] * m


def _family_pieces(s: int) -> Iterator[tuple[tuple[int, ...], list[int], int, int]]:
    """The pieces of `iter_family_grids(s)`, in order, as (first, steps, start, m): m points of a lattice row.

    Each row is certified by `_family_row`, which gives its first base grid
    and each cell's whole-number step from point to point, and is cut into
    pieces of at most `_PIECE // 8` points, so at most `_PIECE` grids, and
    no piece is empty.  A piece is the row's points start to start + m - 1,
    at which each base-grid cell x of first holds x + start * d, ... for its
    step d; `_family_points` lays out its grids.  The first base grid gets
    the `Square` entry checks before the first row.
    """
    s = _check_first_family_grid(s)
    for family, i, js, ks in _family_rows(s):
        n = len(js)
        first, steps = _family_row(s, family, i, js, ks)
        for start in range(0, n, _PIECE // 8):
            yield first, steps, start, min(_PIECE // 8, n - start)


# A dihedral image moves a corner to cell 8, so each image's last cell is a
# base-grid corner.  `_WIDE` lays a family piece's nine columns, then its four
# corners' line-end columns, out as the 72 cells of a point's eight images in
# output order: each image's first eight cells, then its ninth from a corner.
_CORNERS = (0, 2, 6, 8)
_WIDE = itemgetter(*[
    cell if place < 8 else 9 + _CORNERS.index(cell)
    for image in _INVERSE_IMAGES
    for place, cell in enumerate(image(range(9)))
])


def _family_points(
    first: tuple[int, ...], steps: list[int], start: int, m: int, column: Callable[[int, int, int, bool], Sequence]
) -> Iterator[tuple]:
    """A family piece as one 72-tuple per point: the cells of its eight images, in output order.

    column(first, step, m, end) gives what stands for each of a cell's m
    values, such as its decimal string, with end true for the column of an
    image's last cell, the one that ends its line: nine columns and four
    line-end ones, of the corners, per piece (see `_WIDE`).
    """
    columns = [column(x + start * d, d, m, False) for x, d in zip(first, steps)]
    columns += [column(first[c] + start * steps[c], steps[c], m, True) for c in _CORNERS]
    return zip(*_WIDE(columns))


def iter_family_grids(s: int) -> Iterator[tuple[int, ...]]:
    """Row-major grids of the family expansion, in output order, certified a lattice row at a time.

    The eight images of each lattice point's base grid, in symmetry index
    order; each permutes the base grid's entries.  Raises MismatchError at
    the first lattice row whose end grids fail, with the message and square
    that `reconcile` names (`_family_row`).  Each grid is nine cells in turn
    of a point's 72, which `_family_points` lays out as `magic3 enumerate`
    renders them.
    """
    points = chain.from_iterable(_family_points(*piece, _cell_values) for piece in _family_pieces(s))
    cells = chain.from_iterable(points)
    return zip(*[cells] * 9)


def iter_family_squares(s: int) -> Iterator[MagicSquare]:
    """`validate` certificates of the family grids, in output order."""
    return map(validate, map(Square, iter_family_grids(s)))


def iter_brute_grids(s: int) -> Iterator[tuple[int, ...]]:
    """Certified brute-force sweep over (a1, a2); every other cell is forced by line sums.

    With magic sum m = 3s the center is forced to s, and the remaining cells
    follow from the row, column, and diagonal equations (`_forced_grid`).
    The a2 range is exactly where every cell is nonnegative, so no grid is
    tested for signs.  Each bound of it is one forced cell's own equation:

        c2 = 2s - a2 >= 0           <=>  a2 <= 2s
        a3 = 3s - a1 - a2 >= 0      <=>  a2 <= 3s - a1
        b1 = 4s - 2a1 - a2 >= 0     <=>  a2 <= 4s - 2a1
        c1 = a1 + a2 - s >= 0       <=>  a2 >= s - a1
        b3 = 2a1 + a2 - 2s >= 0     <=>  a2 >= 2s - 2a1

    and a1, a2 >= 0, c3 = 2s - a1 >= 0 and the center s hold throughout; so
    every a1 in [0, 2s] has a row of n = high - low + 1 >= 1 pairs.

    Each row is certified once, by `_brute_rows`, and no grid is tested on
    its own:

    * its two end grids are the forced grids at a2 = low and a2 = high, and
      each cell of the row steps by one between its two end values, as a
      range, or is a repeat where they are equal.  Every stepped cell must
      have n values, and both end grids all eight line sums m and every
      entry in [0, 2s]; otherwise MismatchError, carrying the failing end
      grid for a line sum or an entry, before any grid of the row is
      yielded.  Every cell is then affine in a2
      along the row, as every forced cell is, so the grid at offset k is the
      forced grid of the cell a1 * (2s + 1) + low + k: the cells the sweep
      yields strictly increase, and no grid repeats.  The line sums are
      linear and the bounds convex, so the two ends certify every grid
      between them;
    * two cells are equal somewhere in a grid exactly when one of the eight
      pairs in `_CELL_PAIRS` is, and each pair's difference is read off the
      two ends.  A difference that is the same at both ends is constant, so
      its cells are equal all along the row or nowhere, and a row with such
      an equal pair is dropped (only a1 = s does this).  Any other difference
      is zero at one a2 at most, which is cut from the row when it is an
      integer in it, so a row loses at most 7 grids;
    * the row is cut into pieces of at most `_PIECE` offsets.  A piece's
      grids are one `zip` of the cells' ranges and repeats, built from the
      row's first end grid, and `compress` passes over the cuts inside the
      piece; a piece whose offsets are all cut is dropped (see
      `_brute_pieces`, `_brute_grids`);
    * the first grid gets the `Square` entry checks, once, before the first
      row, so an s past the 64-bit range raises EntryRangeError as `Square`
      would on it.  No later grid can fail them: every cell is nonnegative
      and no entry exceeds 2s.  The first grid is the forced grid of cell
      4s - 1, and it holds 2s: at a1 = 0 the only pair is a2 = 2s, whose
      a3 = s repeats the center, and at a1 = 1 the first pair a2 = 2s - 2
      gives (1, 2s-2, s+1, 2s, s, 0, s-1, 2, 2s-1), whose entries are
      distinct for every s >= 4.  Below s = 4 there are no grids.
    """
    return chain.from_iterable(starmap(_brute_grids, _brute_pieces(s)))


# One pair of cells on each line of the (a1, a2) plane where two cells of a
# forced grid are equal: a2 = s, a1 = a2, a1 = s, a3 = s, a2 = a3, b1 = s,
# a1 = b1 and a3 = b3.  Each of the 36 pairs is equal on one of these 8 lines
# (`test_enumeration.py` reads them off the cell forms), so the nine entries of
# a grid are distinct when these eight pairs are.
_CELL_PAIRS = ((1, 4), (0, 1), (0, 4), (2, 4), (1, 2), (3, 4), (0, 3), (2, 5))


def _forced_grid(s: int, cell: int) -> tuple[int, ...]:
    """The grid that the six equations force from cell a1 * (2s + 1) + a2."""
    a1, a2 = divmod(cell, 2 * s + 1)
    a3 = 3 * s - a1 - a2
    c1 = 2 * s - a3
    b1 = 3 * s - a1 - c1
    return (a1, a2, a3, b1, s, 2 * s - b1, c1, 2 * s - a2, 2 * s - a1)


def _brute_rows(s: int) -> Iterator[tuple[int, tuple[tuple[int, ...], ...], int, Sequence[int]]]:
    """Each a1 row of the brute-force sweep as (cell, ends, n, cuts), in a1 order.

    cell is the (a1, a2) cell of the row's first grid, and ends are the
    row's first and last of its n grids.  cuts are the sorted offsets into
    the row of the grids with a repeated value.  Raises MismatchError for a
    stepped cell without n values, or an end grid with a line sum other than
    3s or an entry outside [0, 2s] (see `iter_brute_grids`).
    """
    w, m = 2 * s + 1, 3 * s
    for a1 in range(w):
        low = max(0, s - a1, 2 * s - 2 * a1)
        n = min(2 * s, 3 * s - a1, 4 * s - 2 * a1) - low + 1
        cell = a1 * w + low
        ends = first, last = _forced_grid(s, cell), _forced_grid(s, cell + n - 1)
        if {abs(y - x) for x, y in zip(first, last)} - {0, n - 1}:
            raise MismatchError(
                f"brute-force row a1={a1} at s={s} has a stepped cell without {n} values"
            )
        for g in ends:
            # Rows, columns, then diagonals.
            if not (
                g[0] + g[1] + g[2] == g[3] + g[4] + g[5] == g[6] + g[7] + g[8]
                == g[0] + g[3] + g[6] == g[1] + g[4] + g[7] == g[2] + g[5] + g[8]
                == g[0] + g[4] + g[8] == g[2] + g[4] + g[6] == m
            ):
                raise MismatchError(
                    f"brute-force grid at s={s} has a line sum other than {m}", square=g
                )
            # With every line sum 3s, the center is s and opposite cells sum
            # to 2s, so no entry exceeds 2s when none is negative.
            if min(g) < 0:
                raise MismatchError(
                    f"brute-force grid at s={s} has an entry outside [0, {2 * s}]", square=g
                )
        # Each pair's difference is affine along the row, d0 at offset 0 and
        # d1 at n - 1: zero everywhere or nowhere if d0 == d1, and otherwise
        # only at d0 * (n - 1) / (d0 - d1).
        cuts: set[int] = set()
        for p, q in _CELL_PAIRS:
            d0, d1 = first[q] - first[p], last[q] - last[p]
            if d0 != d1:
                offset, rest = divmod(d0 * (n - 1), d0 - d1)
                if not rest and 0 <= offset < n:
                    cuts.add(offset)
            elif not d0:
                yield cell, ends, n, range(n)
                break
        else:
            yield cell, ends, n, sorted(cuts)


def _brute_pieces(s: int) -> Iterator[tuple[tuple[int, ...], list[int], int, int, bytearray]]:
    """The pieces of `iter_brute_grids(s)`, in order, as (first, steps, start, m, keep): m offsets of an a1 row.

    Each certified a1 row is cut into pieces of at most `_PIECE` offsets,
    and only a piece that holds a grid is yielded, so no piece is empty:
    the a1 = 512 row at s = 768 has 1,025 offsets and its last one cut, so
    it yields one piece, not two.  A piece is the row's offsets start to
    start + m - 1, at which each cell x of the row's first grid holds
    x + start * d, ... for its step d, -1, 0 or +1; keep is a mask that is 0
    at the cuts inside the piece (see `_brute_grids`).  s is read by the int
    rule, and the sweep's first grid, the forced grid of cell 4s - 1 when
    s >= 4 (see `iter_brute_grids`), gets the `Square` entry checks before
    the first row.
    """
    s = _natural("s", s)
    if s >= 4:
        check_entries(_forced_grid(s, 4 * s - 1))
    for cell, (first, last), n, cuts in _brute_rows(s):
        steps = [(y > x) - (y < x) for x, y in zip(first, last)]
        for start in range(0, n, _PIECE):
            m = min(_PIECE, n - start)
            keep = bytearray(b"\1") * m
            for c in cuts:
                if start <= c < start + m:
                    keep[c - start] = 0
            if 1 in keep:
                yield first, steps, start, m, keep


# Of a grid's nine cells, only the last ends its line.
_LINE_ENDS = (False,) * 8 + (True,)


def _brute_grids(
    first: tuple[int, ...], steps: list[int], start: int, m: int, keep: bytearray,
    column: Callable[[int, int, int, bool], Sequence] = _cell_values,
) -> Iterator[tuple]:
    """A brute piece's grids: one `zip` of its nine columns, passed through `compress` with keep.

    column(first, step, m, end) gives a cell's m values, `_cell_values`, or
    what stands for each of them, such as its decimal string, with end true
    for the last cell, which ends the grid's line.
    """
    return compress(zip(*[column(x + start * d, d, m, end) for x, d, end in zip(first, steps, _LINE_ENDS)]), keep)


def iter_brute_squares(s: int) -> Iterator[MagicSquare]:
    """`validate` certificates of the brute-force grids, in (a1, a2) order."""
    return map(validate, map(Square, iter_brute_grids(s)))


def count_families(s: int) -> int:
    """Number of squares produced by the family expansion at parameter s, counted by rows."""
    s = _check_first_family_grid(s)
    return len(_INVERSE_IMAGES) * sum(len(js) for _, _, js, _ in _family_rows(s))


def _family_row(s: int, family: Family, i: int, js: range, ks: range) -> tuple[tuple[int, ...], list[int]]:
    """(first, steps): a lattice row's first base grid, and what each cell steps by from point to point.

    The row's first and last base grids certify it.  Raises MismatchError
    naming the first that is not a magic square with magic sum 3s and entries
    in [0, 2s] (the six equations written out), or the last if a cell's
    `divmod` over the n - 1 steps leaves a remainder.  Past that, every point
    of the row is an integer grid between the two and passes too.
    """
    two_s, three_s, n = 2 * s, 3 * s, len(js)
    steps, gaps = [], n - 1 or 1
    first, last = base_grid(family, i, js[0], ks[0]), base_grid(family, i, js[-1], ks[-1])
    for g in (first, last):
        a1, a2, a3, b1, b2, b3, c1, c2, c3 = g
        # Opposite cells sum to 2s, so no entry exceeds 2s when none is negative.
        if not (
            b2 == s
            and a1 + c3 == a2 + c2 == a3 + c1 == b1 + b3 == two_s
            and a1 + a2 + a3 == a1 + b1 + c1 == three_s
            and min(g) >= 0
        ):
            raise MismatchError(
                f"family expansion gave a grid at s={s} that is not a magic square "
                f"with magic sum {three_s}",
                square=g,
            )
    for x, y in zip(first, last):
        step, rest = divmod(y - x, gaps)
        if rest:
            raise MismatchError(
                f"family expansion gave a lattice row at s={s} whose entries do not step "
                f"evenly over its {n} points",
                square=last,
            )
        steps.append(step)
    return first, steps


def _mark_family_rows(s: int, marks: bytearray) -> int:
    """Move the cell of every family grid from 0 to 1, one lattice row at a time; return their number.

    Each row is certified by `_family_row` and marked as one slice per
    image (see the module docstring).  Raises MismatchError at the first row
    whose ends fail, or whose image slice does not step or holds a marked
    cell (see `reconcile`).
    """
    w, images = 2 * s + 1, _INVERSE_IMAGES
    # The base-grid cells that each image reads its a1 and a2 from.
    sources = [image(range(9))[:2] for image in images]
    count = 0
    for family, i, js, ks in _family_rows(s):
        first, steps = _family_row(s, family, i, js, ks)
        n, ones = len(js), b"\1" * len(js)
        for image, (p1, p2) in zip(images, sources):
            # The image's n cells in row order, from start by step.  A repeat is named at the
            # lowest marked cell's point, or at the second point if n > 1 cells do not step.
            start, step = first[p1] * w + first[p2], steps[p1] * w + steps[p2]
            stop, by = (start + n * step, step) if step else (start + 1, 1)
            if stop < 0:
                stop = None
            cells = marks[start:stop:by]
            at = (cells.find(1) if by > 0 else cells.rfind(1)) if step or n == 1 else 1
            if at >= 0:
                raise MismatchError(
                    f"family expansion repeated a square at s={s}",
                    square=image(base_grid(family, i, js[at], ks[at])),
                )
            marks[start:stop:by] = ones
        count += n * len(images)
    return count


def _compare_brute_rows(s: int, marks: bytearray) -> tuple[int, int | None]:
    """Compare each a1 row of marks with the cells that `iter_brute_grids(s)` yields in it.

    A row's 2s + 1 marks must be 1 at the cells whose grids the sweep
    yields, its n cells less the cuts, and 0 elsewhere: one comparison per row.
    Walks the whole sweep, so every row's certificate is checked, and returns
    the number of grids it yields and the first cell where the marks differ,
    or None.
    """
    w = 2 * s + 1
    count, differ = 0, None
    for cell, _, n, cuts in _brute_rows(s):
        start = cell - cell % w
        if differ is None:
            row, at = bytearray(w), cell - start
            row[at : at + n] = b"\1" * n
            for c in cuts:
                row[at + c] = 0
            if marks[start : start + w] != row:
                differ = start + next(k for k in range(w) if marks[start + k] != row[k])
        count += n - len(cuts)
    return count, differ


def reconcile(s: int, include_brute: bool = True) -> CountReport:
    """Count magic squares four ways and insist on exact agreement.

    The two enumerated sets are compared in one bytearray of (2s + 1)**2 cell
    marks, one per (a1, a2), whatever the number of squares (see the module
    docstring).  Each family grid moves its cell from 0 to 1, so no family
    cell found at 1 means no family grid repeats.  Each brute grid is the
    forced grid of its cell, and the sweep yields each cell once (see
    `iter_brute_grids`), so every a1 row of marks equal to the cells the
    sweep yields in it makes the two sets equal, and the brute count is
    what the rows yield.

    Each stream is walked once, one row at a time, and a failure is named
    from the marks and its own row.  The family half comes first, with or
    without the brute-force stream, and stops at its first failing lattice
    row.  MismatchError names the row's first end base grid that is not a
    magic square with magic sum 3s and entries in [0, 2s], or its last if an
    entry does not step between them by a whole number (`_family_row`);
    otherwise, as a repeat, the first image whose slice does not step or holds a marked
    cell, at that cell's point of the row (the row's second point if the
    slice does not step).  The brute half names the forced grid of the first
    cell where the marks and the sweep differ, from families if the cell is
    marked (no brute grid matched it) and from brute force if not (no family
    grid matched it).  A sweep row that fails its certificate raises as
    `iter_brute_grids` does, whatever the marks hold.

    Raises ValueError for a negative s, and for an s past COUNT_MAX_S, whose
    cell marks would pass 256 MiB; both before any work is done.
    """
    s = _natural("s", s)
    if s > COUNT_MAX_S:
        raise ValueError(
            f"s must be at most {COUNT_MAX_S}, got {s}: count keeps (2s+1)**2 bytes "
            "of cell marks, at most 256 MiB"
        )
    closed = count_closed(s)
    series_count = expand(magic_gf(), s + 1)[s]
    marks = bytearray((2 * s + 1) ** 2)
    families = _mark_family_rows(s, marks)
    brute: int | None = None
    if include_brute:
        brute, differ = _compare_brute_rows(s, marks)
        if differ is not None:
            side = "families" if marks[differ] else "brute force"
            raise MismatchError(
                f"square sets differ at s={s}; first difference comes from {side}",
                square=_forced_grid(s, differ),
            )
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
