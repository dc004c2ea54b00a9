import inspect
import itertools
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import gcd, lcm
from operator import itemgetter, sub

import pytest

from magic3 import (
    ELEMENTS,
    enumeration,
    GEN1,
    GEN3,
    ONES,
    SEED_F1,
    SEED_F2,
    EntryRangeError,
    MismatchError,
    add,
    apply,
    construct,
    count_closed,
    count_families,
    decompose,
    expand,
    iter_brute_grids,
    iter_brute_squares,
    iter_decompositions,
    iter_family_grids,
    iter_family_squares,
    magic_gf,
    reconcile,
)
from magic3 import core
from magic3.core import _LINES
from magic3.decompose import _BASIS, _INVERSE_IMAGES, Family, base_grid
from magic3.enumeration import COUNT_MAX_S, _forced_grid
from magic3.series import CountReport, _poly_mul


def naive_magic_grids(s):
    """Definition-only oracle: free cells swept, forced cells checked.

    Sweeps a1, a2, b1, b2 and fills every other cell from the line-sum
    equations, then checks the diagonals and distinctness.  Makes no use of
    the forced center, the 2s entry bound, or the family structure.
    """
    m = 3 * s
    found = []
    for a1 in range(m + 1):
        for a2 in range(m + 1 - a1):
            a3 = m - a1 - a2
            for b1 in range(m + 1 - a1):
                c1 = m - a1 - b1
                for b2 in range(m + 1 - a2):
                    b3 = m - b1 - b2
                    if b3 < 0:
                        continue
                    c2 = m - a2 - b2
                    c3 = m - a3 - b3
                    if c3 < 0:
                        continue
                    if a1 + b2 + c3 != m or a3 + b2 + c1 != m:
                        continue
                    grid = (a1, a2, a3, b1, b2, b3, c1, c2, c3)
                    if len(set(grid)) == 9:
                        found.append(grid)
    return found


def full_brute_sweep(s):
    """Every (a1, a2) in [0, 2s]^2, forced cells filled in, the bad grids dropped.

    The sweep `iter_brute_grids` narrows to the a2 range where the forced
    cells are nonnegative; this one walks the whole square of pairs.
    """
    found = []
    for a1 in range(2 * s + 1):
        for a2 in range(2 * s + 1):
            a3 = 3 * s - a1 - a2
            b1 = 4 * s - 2 * a1 - a2
            grid = (a1, a2, a3, b1, s, 2 * s - b1, a1 + a2 - s, 2 * s - a2, 2 * s - a1)
            if min(grid) >= 0 and len(set(grid)) == 9:
                found.append(grid)
    return found


def brute_row_bounds(s, a1):
    """The a2 range of the row a1 in `iter_brute_grids(s)`, as its docstring derives it."""
    return range(max(0, s - a1, 2 * s - 2 * a1), min(2 * s, 3 * s - a1, 4 * s - 2 * a1) + 1)


def per_grid_brute_sweep(s):
    """The pairs that `iter_brute_grids(s)` sweeps, each grid kept if len(set(grid)) == 9."""
    for a1 in range(2 * s + 1):
        for a2 in brute_row_bounds(s, a1):
            b1 = 4 * s - 2 * a1 - a2
            grid = (a1, a2, 3 * s - a1 - a2, b1, s, 2 * s - b1, a1 + a2 - s, 2 * s - a2, 2 * s - a1)
            if len(set(grid)) == 9:
                yield grid


class TestFamilyEnumeration:
    def test_smallest_parameter_is_one_orbit(self):
        squares = list(iter_family_squares(4))
        assert len(squares) == 8
        orbit = {apply(g, SEED_F1).entries for g in ELEMENTS}
        assert {m.entries for m in squares} == orbit

    def test_empty_below_threshold(self):
        for s in range(4):
            assert list(iter_family_squares(s)) == []

    def test_three_orbits_at_five(self):
        squares = list(iter_family_squares(5))
        assert len(squares) == 24
        reps = [add(SEED_F1, ONES), add(SEED_F1, GEN1), SEED_F2]
        expected = {apply(g, rep).entries for rep in reps for g in ELEMENTS}
        assert {m.entries for m in squares} == expected

    def test_all_squares_certified_with_requested_sum(self):
        for m in iter_family_squares(9):
            assert m.magic_sum == 27

    def test_output_order_is_reproducible(self):
        first = [m.entries for m in iter_family_squares(8)]
        second = [m.entries for m in iter_family_squares(8)]
        assert first == second
        assert len(first) == 80
        assert next(iter_family_squares(4)).entries == SEED_F1.entries

    def test_count_matches_lattice_solution_count(self):
        for s in range(0, 26):
            f1 = sum(
                1
                for i, j, k in itertools.product(range(s + 1), repeat=3)
                if i + 3 * j + k == s - 4
            )
            f2 = sum(
                1
                for i, j, k in itertools.product(range(s + 1), repeat=3)
                if i + 3 * j + 2 * k == s - 5
            )
            assert count_families(s) == 8 * (f1 + f2)

    def test_minimum_entry_equals_translation_part(self):
        for m in iter_family_squares(10):
            d = decompose(m)
            assert min(m.entries) == d.i
            assert max(m.entries) <= 2 * m.s

    def test_grids_are_the_eight_images_of_each_point(self):
        # The stream is built a piece of a lattice row at a time; the
        # references are built a point at a time.
        for s in range(0, 41):
            grids = list(iter_family_grids(s))
            assert grids == row_grids(enumeration._family_rows(s))
            assert grids == [construct(d).entries for d in iter_decompositions(s)]

    def test_range_error_comes_with_the_first_point(self):
        with pytest.raises(EntryRangeError, match=f"^entry {2**64} exceeds"):
            next(iter_family_grids(2**63))
        # The real first grid is checked: its first entry past the range is a1 = 2s - 1.
        s = 2**63 + 1
        with pytest.raises(EntryRangeError, match=f"^entry {2 * s - 1} exceeds"):
            next(iter_family_grids(s))

    def test_decompositions_meet_the_range_where_the_grids_do(self):
        # `iter_decompositions` follows the grid stream's order, so it shares
        # its edge: at the last s in range its first item builds the first
        # grid, which holds 2s = ENTRY_MAX - 1, and past it both raise alike.
        s = 2**63 - 1
        first = construct(next(iter_decompositions(s)))
        assert first.entries == next(iter_family_grids(s))
        assert max(first.entries) == 2 * s == core.ENTRY_MAX - 1
        for s in (2**63, 2**63 + 1):
            with pytest.raises(EntryRangeError) as grids:
                next(iter_family_grids(s))
            with pytest.raises(EntryRangeError) as decompositions:
                next(iter_decompositions(s))
            assert type(decompositions.value) is type(grids.value)
            assert str(decompositions.value) == str(grids.value)

    def test_only_the_first_point_gets_the_entry_checks(self, monkeypatch):
        checked = []
        monkeypatch.setattr(enumeration, "check_entries", checked.append)
        # The first grid is the identity image of the first point.
        grids = list(iter_family_grids(30))
        assert checked == grids[:1] and len(grids) > 1
        assert checked == [base_grid(Family.F1, 0, 0, 26)]

    def test_count_is_the_number_of_family_grids(self):
        for s in range(0, 61):
            assert count_families(s) == sum(1 for _ in iter_family_grids(s)), s
        assert count_families(COUNT_MAX_S) == count_closed(COUNT_MAX_S)

    def test_count_past_the_range_raises_as_the_stream_does(self):
        with pytest.raises(EntryRangeError) as stream:
            next(iter_family_grids(2**63))
        with pytest.raises(EntryRangeError) as count:
            count_families(2**63)
        assert str(count.value) == str(stream.value)

    def test_monotone_nesting(self):
        for s in range(4, 11):
            grown = {add(m.square, ONES).entries for m in iter_family_squares(s)}
            bigger = {m.entries for m in iter_family_squares(s + 1)}
            assert grown <= bigger


class TestBruteForce:
    def test_matches_naive_definition_sweep(self):
        for s in range(0, 9):
            assert sorted(iter_brute_grids(s)) == sorted(naive_magic_grids(s))

    def test_bounded_sweep_matches_full_sweep(self):
        for s in range(0, 41):
            assert list(iter_brute_grids(s)) == full_brute_sweep(s)

    def test_empty_when_too_small(self):
        assert list(iter_brute_squares(2)) == []

    def test_only_the_first_grid_gets_the_entry_checks(self, monkeypatch):
        # The sweep checks the forced grid of cell 4s - 1, (a1, a2) =
        # (1, 2s - 2), before its first row; it must be the first it yields.
        for s in range(4, 401):
            assert next(iter_brute_grids(s)) == _forced_grid(s, 4 * s - 1), s
        checked = []
        monkeypatch.setattr(enumeration, "check_entries", checked.append)
        grids = list(iter_brute_grids(30))
        assert checked == grids[:1] and len(grids) > 1
        assert checked == [_forced_grid(30, 119)]

    def test_count_at_seven(self):
        assert len(list(iter_brute_squares(7))) == 56

    def test_emitted_in_top_left_lexicographic_order(self):
        grids = [m.entries for m in iter_brute_squares(9)]
        assert grids == sorted(grids, key=lambda g: (g[0], g[1]))

    def test_set_equality_with_family_expansion(self):
        for s in range(0, 31):
            assert set(iter_brute_grids(s)) == set(iter_family_grids(s))

    def test_crossing_pairs_hold_one_pair_on_each_equality_line(self):
        # Two cells of a forced grid are equal on the line of their forms'
        # difference; no pair is equal everywhere, and the 36 pairs make 8 lines.
        forms = cell_forms()
        rows = {
            (p, q): equality_form(forms[p], forms[q])
            for p, q in itertools.combinations(range(9), 2)
        }
        assert all(alpha or beta for alpha, beta, _ in rows.values())
        lines = {line(*row) for row in rows.values()}
        pairs = enumeration._CELL_PAIRS
        assert len(lines) == len(pairs) == 8
        assert {line(*rows[pair]) for pair in pairs} == lines

    def test_row_sweep_matches_the_per_grid_filter(self):
        for s in [*range(61), 100, 230, 250, 269]:
            assert list(iter_brute_grids(s)) == list(per_grid_brute_sweep(s)), s

    def test_cut_pairs_are_the_pairs_swept_less_the_closed_count(self):
        # A row of n pairs either loses all n (two cells with one slope are
        # equal) or its crossings; what is left is the count, count_closed(s).
        for s in range(201):
            w = 2 * s + 1
            rows = list(enumeration._brute_rows(s))
            swept = [brute_row_bounds(s, a1) for a1 in range(w)]
            assert [(cell, ends, n) for cell, ends, n, _ in rows] == [
                (cell, (_forced_grid(s, cell), _forced_grid(s, cell + len(a2s) - 1)), len(a2s))
                for a1, a2s in enumerate(swept)
                for cell in [a1 * w + a2s.start]
            ]
            cut = sum(len(cuts) for *_, cuts in rows)
            assert cut == sum(map(len, swept)) - count_closed(s), s

    def test_swept_cells_strictly_increase(self):
        # So no brute grid repeats: `reconcile` has no repeat of the sweep to name.
        for s in range(61):
            cells = [a1 * (2 * s + 1) + a2 for a1, a2, *_ in iter_brute_grids(s)]
            assert all(a < b for a, b in zip(cells, cells[1:])), s


def slipped_forced_grid(s, cell):
    """`_forced_grid`, with c2 one too high.

    Put in place of `_forced_grid` in the enumeration module, it gives the
    brute sweep end grids whose c2 is one past its line-sum value, as a slip
    in the forced cells would.
    """
    grid = _forced_grid(s, cell)
    return grid[:7] + (grid[7] + 1,) + grid[8:]


def short_forced_grid(s, cell):
    """`_forced_grid`, with b1 lower by half of 2s - a2, rounded down.

    Put in place of `_forced_grid` in the enumeration module, it gives the
    brute sweep a stepped cell with fewer values than its row has grids: at
    s = 10 the first is b1 in the row a1 = 1, whose a2 runs 18..20 and b1
    19..18.  At a2 = 2s, as in the row a1 = 0, b1 is right.
    """
    grid = _forced_grid(s, cell)
    return grid[:3] + (grid[3] - (2 * s - cell % (2 * s + 1)) // 2,) + grid[4:]


def shifted_forced_grid(s, cell):
    """`_forced_grid` plus ZERO_SUM: every line sum holds, and a2 = 0 becomes -1."""
    return plus(_forced_grid(s, cell), ZERO_SUM)


# The first pair at s = 10, (a1, a2) = (0, 20), with c2 = 0 slipped to 1: row 3
# and column 2 sum to 31.  It has a repeated entry, so only a line-sum check
# that runs before the distinctness test stops it.
SLIPPED_GRID = (0, 20, 10, 20, 10, 0, 10, 1, 20)


class TestBruteSweepChecks:
    def test_range_error_comes_with_the_first_grid(self):
        with pytest.raises(EntryRangeError, match=f"entry {2**64} exceeds"):
            next(iter_brute_grids(2**63 + 1))

    def test_slipped_line_sum_is_caught(self, monkeypatch):
        monkeypatch.setattr(enumeration, "_forced_grid", slipped_forced_grid)
        with pytest.raises(MismatchError, match="line sum other than 30") as info:
            next(iter_brute_grids(10))
        assert info.value.square == SLIPPED_GRID
        assert sum(SLIPPED_GRID[6:9]) == sum(SLIPPED_GRID[1::3]) == 31

    def test_short_stepped_cell_is_caught_before_any_grid(self, monkeypatch):
        # The row a1 = 1 holds the sweep's first grid, (1, 18, 11, 20, 10, 0, 9, 2, 19).
        monkeypatch.setattr(enumeration, "_forced_grid", short_forced_grid)
        yielded = []
        with pytest.raises(MismatchError) as info:
            yielded.extend(iter_brute_grids(10))
        assert str(info.value) == "brute-force row a1=1 at s=10 has a stepped cell without 3 values"
        assert (yielded, info.value.square) == ([], None)

    def test_entry_out_of_range_is_caught_before_its_row(self, monkeypatch):
        # ZERO_SUM keeps every line sum, so only the bounds see the shifted
        # first grid of the row a1 = 6 at s = 6, whose a2 = 0 falls to -1.
        monkeypatch.setattr(enumeration, "_forced_grid", shifted_forced_grid)
        square = shifted_forced_grid(6, 6 * 13)
        assert square[1] == -1
        for walk in (lambda: list(iter_brute_grids(6)), lambda: reconcile(6)):
            with pytest.raises(MismatchError) as info:
                walk()
            assert (str(info.value), info.value.square) == (
                "brute-force grid at s=6 has an entry outside [0, 12]", square
            )

    def test_slipped_line_sum_is_caught_under_optimize(self):
        code = (
            "import magic3.enumeration as E\n"
            "_forced_grid = E._forced_grid\n"
            + inspect.getsource(slipped_forced_grid)
            + "E._forced_grid = slipped_forced_grid\n"
            "try:\n"
            "    next(E.iter_brute_grids(10))\n"
            "except E.MismatchError as exc:\n"
            "    print(exc.square)\n"
        )
        result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, f"{SLIPPED_GRID}\n"), result.stderr


@pytest.mark.parametrize(
    "fn",
    [
        count_families,
        iter_family_grids,
        iter_brute_grids,
        iter_decompositions,
        iter_family_squares,
        iter_brute_squares,
    ],
    ids=lambda fn: fn.__name__,
)
def test_negative_s_raises_on_the_first_item(fn):
    # `count_families` raises in the call, and each stream on its first item.
    with pytest.raises(ValueError, match="^s must be nonnegative, got -1$"):
        next(fn(-1))


@pytest.mark.parametrize("stream", [iter_family_grids, iter_brute_grids], ids=lambda fn: fn.__name__)
def test_every_middle_row_is_b1_s_and_2s_less_b1(stream):
    # `magic3 enumerate` writes a grid's middle row as one string, looked up
    # by b1 alone, so every grid that either stream yields must have center s
    # and b1 + b3 = 2s.  230 and 269 are the ends of the benchmark's band.
    grids = 0
    for s in (*range(0, 41), 230, 269):
        for grid in stream(s):
            assert (grid[4], grid[3] + grid[5]) == (s, 2 * s), (s, grid)
            grids += 1
    assert grids == sum(count_closed(s) for s in (*range(0, 41), 230, 269))


class TestReconcile:
    def test_at_smallest_parameter(self):
        report = reconcile(4)
        assert report == CountReport(s=4, closed_form=8, series=8, families=8, brute=8)

    def test_at_twelve(self):
        report = reconcile(12)
        assert report.families == 208
        assert report.brute == 208

    def test_below_threshold(self):
        report = reconcile(0)
        assert (report.closed_form, report.series, report.families, report.brute) == (0, 0, 0, 0)

    def test_optional_brute(self):
        report = reconcile(40, include_brute=False)
        assert report.brute is None
        assert report.closed_form == count_closed(40)

    def test_report_rejects_disagreeing_fields(self):
        with pytest.raises(ValueError):
            CountReport(s=4, closed_form=8, series=8, families=9)

    def test_mismatch_error_carries_square(self):
        err = MismatchError("boom", square=SEED_F1.entries)
        assert err.square == SEED_F1.entries


def cell_forms():
    """Each cell of `_forced_grid` as its (a1, a2, s) coefficients, read off at three points."""
    def at(a1, a2, s):
        return enumeration._forced_grid(s, a1 * (2 * s + 1) + a2)

    origin, step_a1, step_a2 = at(0, 0, 1), at(1, 0, 1), at(0, 1, 1)
    forms = [(x1 - c, x2 - c, c) for c, x1, x2 in zip(origin, step_a1, step_a2)]
    # The forms are linear: they give the grid at a fourth point.
    assert at(2, 3, 5) == tuple(2 * f1 + 3 * f2 + 5 * fs for f1, f2, fs in forms)
    return forms


def arrangement_lines(forms):
    """The lines at s = 1 where a cell is 0 or two cells are equal.

    Each is (alpha, beta, gamma) for alpha * a1 + beta * a2 + gamma = 0, in
    lowest terms with its first nonzero of alpha and beta positive.  A form
    without a1 or a2 is constant in the plane and makes no line.
    """
    rows = list(forms) + [equality_form(f, g) for f, g in itertools.combinations(forms, 2)]
    return {line(*row) for row in rows if row[0] or row[1]}


def equality_form(f, g):
    """The form that vanishes where the cells of forms f and g are equal."""
    return tuple(p - q for p, q in zip(f, g))


def line(alpha, beta, gamma):
    """alpha * a1 + beta * a2 + gamma = 0 in lowest terms, its first nonzero of alpha, beta > 0."""
    n = gcd(alpha, beta, gamma) * (1 if (alpha or beta) > 0 else -1)
    return (alpha // n, beta // n, gamma // n)


class TestAgreementForEveryS:
    """The four counts agree for every s: each is a quasi-polynomial of degree <= 2 and period 6.

    Two quasi-polynomials in s of degree at most 2 whose periods divide 6
    agree for every s >= 1 once they agree at three values of each residue
    class mod 6, as at s = 1..18; s = 0 is checked as it is.

    * Series: `magic_gf()` is num / den with den = (1 - t)(1 - t^2)(1 - t^3)
      and deg num = 5 < 6 = deg den.  Its poles are roots of unity of order
      dividing 6, and t = 1 is a pole of order 3, so its coefficients are a
      quasi-polynomial of period dividing 6 and degree <= 2 for every s >= 0.
    * Closed form: (6s^2 - 20s + 3 - 3(-1)^s + 8(s mod 3)) / 3 is one by its
      text: degree 2, period 6 from its parity branch and s mod 3.
    * Families: 8 * (#{i + 3j + k = s - 4} + #{i + 3j + 2k = s - 5}), the s
      steps of ONES, GEN3 and each family's generator.  Each term has the
      series 8 t^base_s / ((1 - t)(1 - t^3)(1 - t^k_step)): proper, as
      base_s < 1 + 3 + k_step, with poles of order dividing lcm(1, 3, k_step),
      a divisor of 6, and t = 1 of order 3.  So the same holds for every s >= 0.
    * Brute: the sweep counts the lattice points (a1, a2) of sP off every line
      where two cells are equal, P being where the nine cells, linear forms in
      (a1, a2, s) read off `_forced_grid`, are all nonnegative at s = 1.  That
      is an inside-out polytope (M. Beck, T. Zaslavsky, Adv. Math. 205,
      2006): closed P less the lines is a disjoint union of relatively open
      polygons, segments and points whose vertices are crossings of the
      facet and equality lines in P.  Each counts as a quasi-polynomial in
      s >= 1 of degree <= 2 whose period divides the lcm of its vertices'
      denominators, and that lcm divides 6.
    """

    def test_crossings_in_the_polygon_have_denominators_dividing_six(self):
        forms = cell_forms()
        lines = arrangement_lines(forms)
        crossings = set()
        for (a, b, c), (d, e, f) in itertools.combinations(sorted(lines), 2):
            if det := a * e - b * d:
                x, y = Fraction(b * f - e * c, det), Fraction(d * c - a * f, det)
                if all(f1 * x + f2 * y + fs >= 0 for f1, f2, fs in forms):
                    crossings.add((x, y))
        assert 6 % lcm(*(v.denominator for point in crossings for v in point)) == 0
        # The 45 forms give 16 distinct lines, and 17 of their crossings lie in P.
        assert (len(lines), len(crossings)) == (16, 17)

    def test_series_and_families_have_degree_two_and_period_dividing_six(self):
        f = magic_gf()
        assert f.denominator == _poly_mul(_poly_mul(one_minus(1), one_minus(2)), one_minus(3))
        assert len(f.numerator) < len(f.denominator)

        def s_step(x):
            (step,) = {sum(x.entries[c] for c in cells) for _, cells in _LINES}
            return step // 3

        for family in Family:
            steps = (s_step(ONES), s_step(GEN3), s_step(family.generator))
            assert steps == (1, 3, family.k_step)
            assert 6 % lcm(*steps) == 0 and family.base_s < sum(steps)

    def test_the_four_counts_agree_up_to_eighteen(self):
        series = expand(magic_gf(), 19)
        for s in range(19):
            brute = sum(1 for _ in iter_brute_grids(s))
            assert count_closed(s) == series[s] == count_families(s) == brute, s


def poly_add(a, b):
    """Sum of two integer polynomials in coefficient form."""
    n = max(len(a), len(b))
    return tuple(x + y for x, y in zip(a + (0,) * (n - len(a)), b + (0,) * (n - len(b))))


def one_minus(n):
    """1 - t^n."""
    return (1,) + (0,) * (n - 1) + (-1,)


class TestLargestEntryGrading:
    """The squares whose largest entry is M number count_closed(M // 2), for every M.

    Each square is one of the eight images of one base grid seed + i * ONES +
    j * GEN3 + k * generator, and an image permutes the base grid's entries.
    On each family one cell of the base grid is the largest on the whole cone
    (i, j, k >= 0): it exceeds every other cell by a form with a positive
    constant and no negative coefficient.  So the largest entry is that cell's
    form M0 + a*i + b*j + c*k, and the squares by largest entry have the series
    8 t^M0 / ((1 - t^a)(1 - t^b)(1 - t^c)), summed over the two families.  That
    sum is (1 + t) * magic_gf(t^2), whose t^M coefficient is the t^(M // 2)
    coefficient of magic_gf(), count_closed(M // 2) by
    `TestAgreementForEveryS`.  The brute sweep is checked against it directly.
    """

    def largest_entry_forms(self):
        forms = {}
        for family in Family:
            origin = base_grid(family, 0, 0, 0)
            steps = [base_grid(family, *unit) for unit in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
            cells = [(c, *(step[n] - c for step in steps)) for n, c in enumerate(origin)]
            (top,) = [
                f
                for f in cells
                if all(f == g or (f[0] > g[0] and min(map(sub, f[1:], g[1:])) >= 0) for g in cells)
            ]
            forms[family] = top
        return forms

    def test_largest_entry_forms(self):
        # In the canonical orientation the largest entry is c2 = 2s - i.
        assert self.largest_entry_forms() == {Family.F1: (8, 1, 6, 2), Family.F2: (10, 1, 6, 4)}

    def test_series_by_largest_entry_is_one_plus_t_times_magic_gf_of_t_squared(self):
        terms = []
        for m0, *rates in self.largest_entry_forms().values():
            den = (1,)
            for rate in rates:
                den = _poly_mul(den, one_minus(rate))
            terms.append(((0,) * m0 + (8,), den))
        (p1, q1), (p2, q2) = terms
        num, den = poly_add(_poly_mul(p1, q2), _poly_mul(p2, q1)), _poly_mul(q1, q2)

        def of_t_squared(poly):
            return tuple(c for a in poly for c in (a, 0))[:-1]

        f = magic_gf()
        lhs_num, lhs_den = _poly_mul((1, 1), of_t_squared(f.numerator)), of_t_squared(f.denominator)
        assert _poly_mul(lhs_num, den) == _poly_mul(num, lhs_den)

    def test_brute_grids_by_largest_entry(self):
        # Distinct entries about the center s put the largest above s, so
        # every square with largest entry M <= 40 has s < 40.
        tally = [0] * 41
        for s in range(40):
            for grid in iter_brute_grids(s):
                if max(grid) <= 40:
                    tally[max(grid)] += 1
        assert tally == [count_closed(m // 2) for m in range(41)]


def _patched(monkeypatch, name, edit):
    """Replace enumeration.<name> with a stream that `edit` changes."""
    real = getattr(enumeration, name)
    monkeypatch.setattr(enumeration, name, lambda s: iter(edit(list(real(s)))))
    return list(real(6))


def recut(monkeypatch, cut=(), uncut=()):
    """Put in place a `_brute_rows` that also cuts the grids `cut` and no longer cuts `uncut`.

    Each grid changes the cuts of the row that holds its (a1, a2) cell.
    """
    real = enumeration._brute_rows

    def brute_rows(s):
        w = 2 * s + 1
        for cell, ends, n, cuts in real(s):
            def offsets(named):
                return {g[0] * w + g[1] - cell for g in named} & set(range(n))

            yield cell, ends, n, sorted(set(cuts) - offsets(uncut) | offsets(cut))

    monkeypatch.setattr(enumeration, "_brute_rows", brute_rows)


def first_cut(s):
    """The forced grid of the first cell the brute-force sweep cuts at s."""
    cell, _, _, cuts = next(row for row in enumeration._brute_rows(s) if row[3])
    return _forced_grid(s, cell + cuts[0])


def row_grids(rows):
    """The grids of lattice rows (family, i, js, ks), point by point and image by image.

    Reads `enumeration.base_grid` when called, so a fault put in its place shows.
    """
    return [
        image(enumeration.base_grid(family, i, j, k))
        for family, i, js, ks in rows
        for j, k in zip(js, ks)
        for image in _INVERSE_IMAGES
    ]


# The point (F1, i=1, j=0, k=2) has s = 7: a row that `_family_rows(6)` should not
# yield.  Its first image is the first grid at s = 6 plus ONES, center 7.
EXTRA_ROW = (Family.F1, 1, range(0, 1), range(2, 3))


class TestReconcileFailures:
    """A failure is named at the first failing lattice row of the family
    expansion, or else at the first cell where the marks and the sweep differ.

    The family half is marked one lattice row at a time, so its faults are
    injected where a row walk can meet them: in the row stream
    `_family_rows`, in the (seed, GEN3, generator) table `_BASIS`, or in the
    image table `_INVERSE_IMAGES`.  The brute half is compared one sweep row
    at a time, so its faults are injected in the row stream `_brute_rows`."""

    def test_repeated_family_grid_is_the_first_repeat_in_stream_order(self, monkeypatch):
        # Each point yields images 0-4, 3, 1, 5-7: the first repeat is image 3.
        grids = list(iter_family_grids(6))
        images = _INVERSE_IMAGES[:5] + (_INVERSE_IMAGES[3], _INVERSE_IMAGES[1]) + _INVERSE_IMAGES[5:]
        monkeypatch.setattr(enumeration, "_INVERSE_IMAGES", images)
        with pytest.raises(MismatchError, match="family expansion repeated") as info:
            reconcile(6)
        assert info.value.square == grids[3]

    def test_repeat_within_one_row_is_named_at_its_second_point(self, monkeypatch):
        # With GEN3 = 3 * GEN1 on F1, a step in j (k falling by 3) moves no
        # entry, so the row (F1, i=0) at s = 7 yields one base grid twice.
        basis = tuple((se, 3 * ge, ge) for se, _, ge in _BASIS["F1"])
        monkeypatch.setitem(_BASIS, "F1", basis)
        grids = list(iter_family_grids(7))
        assert grids[8] == grids[0] and len(set(grids[:8])) == 8
        with pytest.raises(MismatchError, match="family expansion repeated a square at s=7") as info:
            reconcile(7)
        assert info.value.square == grids[0]

    def test_repeat_in_a_falling_slice_is_named_at_its_first_marked_cell(self, monkeypatch):
        # The identity's cells fall along the row (F1, i=0) at s = 13, whose
        # points are j = 0..3.  A row of its first two points, put before it,
        # marks the slice's top two cells, and the lower of them is j = 1.
        def prefix(rows):
            family, i, js, ks = rows[0]
            return [(family, i, js[:2], ks[:2])] + rows

        _patched(monkeypatch, "_family_rows", prefix)
        grids = list(iter_family_grids(13))
        with pytest.raises(MismatchError, match="family expansion repeated a square at s=13") as info:
            reconcile(13)
        assert info.value.square == base_grid(Family.F1, 0, 1, 6)
        assert grids.count(info.value.square) == 2

    def test_repeat_across_rows_is_the_first_repeat_in_stream_order(self, monkeypatch):
        rows = _patched(monkeypatch, "_family_rows", lambda r: r[:3] + [r[2], r[0]] + r[3:])
        with pytest.raises(MismatchError, match="family expansion repeated") as info:
            reconcile(6)
        assert info.value.square == row_grids([rows[2]])[0]

    @pytest.mark.parametrize(
        "cut, uncut, side",
        [(False, True, "brute force"), (True, False, "families"), (True, True, None)],
        ids=["dropped cut", "extra cut", "both"],
    )
    def test_set_difference_names_its_smallest_square(self, monkeypatch, cut, uncut, side):
        # An extra cut drops the sweep's tenth grid; a dropped cut yields its
        # first cut grid, (0, 12, 6, 12, 6, 0, 6, 0, 12), which repeats 6 and 12.
        extra, dropped = first_cut(6), list(iter_brute_grids(6))[9]
        recut(monkeypatch, cut=[dropped] * cut, uncut=[extra] * uncut)
        square = min([extra] * uncut + [dropped] * cut)
        with pytest.raises(MismatchError, match="square sets differ") as info:
            reconcile(6)
        assert info.value.square == square
        if side is not None:
            assert str(info.value).endswith(f"comes from {side}")


def set_based_reconcile(s, include_brute=True):
    """`reconcile` as it was when it held the family grids in a set: the reference."""
    closed = count_closed(s)
    series_count = expand(magic_gf(), s + 1)[s]
    family_set = set()
    for grid in iter_family_grids(s):
        if grid in family_set:
            raise MismatchError(f"family expansion repeated a square at s={s}", square=grid)
        family_set.add(grid)
    brute = None
    if include_brute:
        brute_set = set(iter_brute_grids(s))
        brute = len(brute_set)
        if family_set != brute_set:
            raise MismatchError(f"square sets differ at s={s}")
    if len({closed, series_count, len(family_set)}) != 1:
        raise MismatchError(f"counts disagree at s={s}")
    return CountReport(s, closed, series_count, len(family_set), brute)


# Each edit makes every F1 grid not magic when put into F1's seed column of
# `_BASIS`.  Swapping b1 and b3 breaks column 1; swapping c2 and c3 breaks
# a2 + c2 = 2s and a1 + c3 = 2s in the base grid; lowering the center by one
# keeps all of those.  The images move the swapped cells around the grid.
SEED_EDITS = {
    "b1-b3": lambda g: g[:3] + (g[5], g[4], g[3]) + g[6:],
    "c2-c3": lambda g: g[:7] + (g[8], g[7]),
    "center": lambda g: g[:4] + (g[4] - 1,) + g[5:],
}


# Every line of this pattern sums to 0 and its center is 0, so a grid plus
# it passes the six equations whenever the grid does.
ZERO_SUM = (1, -1, 0, -1, 0, 1, 0, 1, -1)


def plus(grid, pattern):
    """The entrywise sum of a grid and a pattern."""
    return tuple(g + p for g, p in zip(grid, pattern))


def edit_seed(monkeypatch, family, edit):
    """Put `edit` of the family's seed entries into `_BASIS`."""
    basis = _BASIS[family]
    seed = edit(tuple(se for se, _, _ in basis))
    monkeypatch.setitem(_BASIS, family, tuple((se, sh, ge) for se, (_, sh, ge) in zip(seed, basis)))


def forced_in_bounds(grid, s):
    """Whether a grid passes the six equations and 0 <= entry <= 2s, as each square with sum 3s does."""
    a1, a2, a3, b1, b2, b3, c1, c2, c3 = grid
    return (
        b2 == s
        and a1 + c3 == a2 + c2 == a3 + c1 == b1 + b3 == 2 * s
        and a1 + a2 + a3 == a1 + b1 + c1 == 3 * s
        and 0 <= min(grid) <= max(grid) <= 2 * s
    )


def edit_rows(edit):
    """A fault that puts `edit` of the lattice rows in place of `_family_rows`."""
    return lambda monkeypatch: _patched(monkeypatch, "_family_rows", edit)


NOT_MAGIC = "family expansion gave a grid at s=6 that is not a magic square with magic sum 18"

# (F1, i=1, j=-2, k=7) is (12, 1, 5, -1, 6, 13, 7, 11, 0): center 6, the six
# equations hold and its corners and a2 lie in [0, 12], so only the bounds
# reject it, for b1 = -1 and b3 = 13.
OUT_OF_RANGE_ROW = (Family.F1, 1, range(-2, -1), range(7, 8))

# Faults in the family expansion at s = 6, each with the message it raises.
FAMILY_FAULTS = {
    "extra row": (edit_rows(lambda rows: rows + [EXTRA_ROW]), NOT_MAGIC),
    "repeated row": (
        edit_rows(lambda rows: rows[:3] + [rows[2], rows[0]] + rows[3:]),
        "family expansion repeated a square at s=6",
    ),
    "out-of-range row": (
        edit_rows(lambda rows: rows[:1] + [OUT_OF_RANGE_ROW] + rows[1:]), NOT_MAGIC
    ),
    "extra row twice": (edit_rows(lambda rows: [EXTRA_ROW] + rows + [EXTRA_ROW]), NOT_MAGIC),
    **{
        f"seed {name}": (lambda monkeypatch, edit=edit: edit_seed(monkeypatch, "F1", edit), NOT_MAGIC)
        for name, edit in SEED_EDITS.items()
    },
}


class TestReconcileMarks:
    """`reconcile` compares the two streams by (a1, a2) cell marks."""

    @pytest.mark.parametrize("include_brute", [True, False])
    def test_reports_what_the_set_based_reconcile_reports(self, include_brute):
        for s in range(0, 61):
            assert reconcile(s, include_brute) == set_based_reconcile(s, include_brute)

    @pytest.mark.parametrize("include_brute", [True, False])
    @pytest.mark.parametrize("fault", FAMILY_FAULTS.values(), ids=FAMILY_FAULTS.keys())
    def test_family_fault_is_named_at_its_first_failing_row(
        self, monkeypatch, fault, include_brute
    ):
        inject, message = fault
        inject(monkeypatch)
        grids = row_grids(enumeration._family_rows(6))

        def unreachable(*args):
            raise AssertionError("the brute half ran after a family fault")

        monkeypatch.setattr(enumeration, "_compare_brute_rows", unreachable)
        with pytest.raises(MismatchError) as info:
            reconcile(6, include_brute)
        square = info.value.square
        assert str(info.value) == message
        assert square in grids
        assert not forced_in_bounds(square, 6) or grids.count(square) > 1
        # The stream checks each row's ends as `reconcile` does, but not repeats.
        if "repeated" not in message:
            with pytest.raises(MismatchError) as stream:
                list(iter_family_grids(6))
            assert (str(stream.value), stream.value.square) == (message, square)

    def test_first_failing_end_grid_is_named_in_stream_order(self, monkeypatch):
        # Not the smallest failing grid: that is an image in the out-of-range
        # row, (0, 11, 7, 13, 6, -1, 5, 1, 12), and the extra row's smallest
        # grid is an image too.
        _patched(monkeypatch, "_family_rows", lambda rows: [EXTRA_ROW] + rows + [OUT_OF_RANGE_ROW])
        with pytest.raises(MismatchError, match="not a magic square") as info:
            reconcile(6)
        assert info.value.square == base_grid(Family.F1, 1, 0, 2) == (12, 1, 8, 3, 7, 11, 6, 13, 2)

    def test_failure_is_named_in_one_walk_per_stream_within_the_marks(self, monkeypatch):
        # A set of either stream's grids at s = 240 takes tens of MB; the
        # marks are (2s+1)**2 = 231,361 bytes.
        s = 240
        dropped = next(itertools.islice(iter_brute_grids(s), 9, None))
        recut(monkeypatch, cut=[dropped])
        calls = {"families": 0, "brute": 0}

        def counted(name, stream):
            real = getattr(enumeration, stream)

            def walk(s):
                calls[name] += 1
                return real(s)

            monkeypatch.setattr(enumeration, stream, walk)

        counted("families", "_family_rows")
        counted("brute", "_brute_rows")
        tracemalloc.start()
        try:
            with pytest.raises(MismatchError, match="first difference comes from families") as info:
                reconcile(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert info.value.square == dropped
        assert calls == {"families": 1, "brute": 1}
        assert peak < 2**20

    @pytest.mark.parametrize("s", [COUNT_MAX_S + 1, 2**63])
    def test_refuses_an_s_past_the_cap_before_any_work(self, monkeypatch, s):
        def unreachable(*args):
            raise AssertionError("reconcile did work before refusing s")

        for name in ("count_closed", "expand", "_family_rows", "_brute_rows"):
            monkeypatch.setattr(enumeration, name, unreachable)
        with pytest.raises(ValueError, match=f"at most {COUNT_MAX_S}, got {s}"):
            reconcile(s)

    def test_cap_is_the_largest_s_within_256_mib(self):
        assert (2 * COUNT_MAX_S + 1) ** 2 <= 2**28 < (2 * COUNT_MAX_S + 3) ** 2


def mark_cells(grids, s, marks):
    """The per-grid walk of the family grids that `reconcile` once fell back to: the reference.

    Moves the cell a1 * (2s + 1) + a2 of each grid that passes
    `forced_in_bounds` from 0 to 1, and returns the number of cells moved.
    """
    w, count = 2 * s + 1, 0
    for grid in grids:
        if forced_in_bounds(grid, s) and not marks[cell := grid[0] * w + grid[1]]:
            marks[cell] = 1
            count += 1
    return count


def per_grid_marks(s):
    """The count and the marks of the per-grid walk over the family grids."""
    marks = bytearray((2 * s + 1) ** 2)
    return mark_cells(row_grids(enumeration._family_rows(s)), s, marks), marks


def row_marks(s):
    """The count and the marks of the row walk `reconcile` uses."""
    marks = bytearray((2 * s + 1) ** 2)
    return enumeration._mark_family_rows(s, marks), marks


ROW_WALK_S = [*range(0, 61), 100, 230, 250, 251, 269]


class TestRowWalk:
    """The family half of `reconcile` marks one lattice row per slice of cells."""

    def test_rows_are_the_lattice_points_in_stream_order(self):
        for s in range(0, 21):
            rows = list(enumeration._family_rows(s))
            assert all(len(js) == len(ks) > 0 for _, _, js, ks in rows)
            assert len({(family, i) for family, i, _, _ in rows}) == len(rows)
            assert [(f, i, j, k) for f, i, js, ks in rows for j, k in zip(js, ks)] == [
                (f, i, j, k)
                for f in Family
                for i, j, k in itertools.product(range(s + 1), repeat=3)
                if f.base_s + i + 3 * j + f.k_step * k == s
            ]

    def test_row_walk_equals_the_per_grid_walk(self):
        for s in ROW_WALK_S:
            assert row_marks(s) == per_grid_marks(s), s

    def test_a_base_grid_that_is_not_affine_makes_the_walks_differ(self, monkeypatch):
        # The row walk reads only a row's two end points; a base grid that
        # bends at an inner point is what the equality test must catch.  The
        # points j = 2, k >= 3 are inner on every row (an end point with j = 2
        # has k <= 2), so the row walk raises on no end grid.
        def bent(family, i, j, k):
            grid = base_grid(family, i, j, k)
            return (grid[0] + 1,) + grid[1:] if j == 2 and k >= 3 else grid

        monkeypatch.setattr(enumeration, "base_grid", bent)
        differ = [s for s in range(0, 31) if row_marks(s) != per_grid_marks(s)]
        assert differ and min(differ) == 13

    def test_an_end_grid_off_the_row_is_caught_by_its_step(self, monkeypatch):
        # The last point of each row of three or more points (k < 3, j >= 2)
        # is moved by -ZERO_SUM: magic and in range, so only the step check
        # sees that the row (F1, i=0) at s = 10, j = 0..2, is not affine.
        def bent(family, i, j, k):
            grid = base_grid(family, i, j, k)
            return plus(grid, [-z for z in ZERO_SUM]) if k < 3 and j >= 2 else grid

        monkeypatch.setattr(enumeration, "base_grid", bent)
        square = bent(Family.F1, 0, 2, 0)
        assert forced_in_bounds(square, 10) and square != base_grid(Family.F1, 0, 2, 0)
        message = "family expansion gave a lattice row at s=10 whose entries do not step evenly over its 3 points"
        for walk in (lambda: list(iter_family_grids(10)), lambda: reconcile(10, False)):
            with pytest.raises(MismatchError) as info:
                walk()
            assert (str(info.value), info.value.square) == (message, square)

    def test_a_falling_slice_may_end_at_cell_zero(self, monkeypatch):
        # No sound row's slice runs past cell 0 (its stop, one step beyond
        # its last cell, is at least 53 up to s = 300), but a faulty row's
        # may: its n cells, 10 and 0 here, are still the ones marked.
        monkeypatch.setattr(enumeration, "_INVERSE_IMAGES", _INVERSE_IMAGES[:1])
        monkeypatch.setattr(enumeration, "_family_rows", lambda s: iter([(Family.F1, 0, range(2), range(3, -1, -3))]))
        monkeypatch.setattr(enumeration, "_family_row", lambda s, *row: ((1,) * 9, [-1] * 9))
        marks = bytearray(9 * 9)
        assert enumeration._mark_family_rows(4, marks) == 2
        assert [cell for cell, mark in enumerate(marks) if mark] == [0, 10]

    def test_images_are_the_ones_core_checks_at_import(self):
        # `core` checks `_PERM`'s images; the row walk reads these.
        assert {image(range(9)) for image in _INVERSE_IMAGES} == set(core._PERM.values())
        core._check_images(_INVERSE_IMAGES)

    @pytest.mark.parametrize("g", range(8))
    def test_an_image_with_one_pair_swapped_fails_the_check(self, g):
        for a, b in itertools.combinations(range(9), 2):
            cells = list(_INVERSE_IMAGES[g](range(9)))
            cells[a], cells[b] = cells[b], cells[a]
            images = _INVERSE_IMAGES[:g] + (itemgetter(*cells),) + _INVERSE_IMAGES[g + 1:]
            with pytest.raises(RuntimeError, match="does not map the eight lines"):
                core._check_images(images)


def per_grid_brute_walk(s):
    """(brute, named square, side) as `reconcile(s)` found them when it walked each brute grid.

    The reference for the row comparison.  The family half is marked as
    `reconcile` marks it; then each brute grid that passes `forced_in_bounds`
    moves its cell from 1 to 2.  The smaller of two candidates is named with
    its side: the forced grid of the lowest cell left at 1, and the smallest
    brute grid that fails `forced_in_bounds` or whose cell was at 0.
    Otherwise a brute grid found at 2 is named as a repeat, and otherwise the
    brute count is returned.
    """
    w = 2 * s + 1
    marks = bytearray(w * w)
    enumeration._mark_family_rows(s, marks)
    count, repeat, brute_stray = 0, None, None
    for grid in iter_brute_grids(s):
        mark = marks[grid[0] * w + grid[1]] if forced_in_bounds(grid, s) else None
        if mark == 1:
            marks[grid[0] * w + grid[1]] = 2
            count += 1
        elif mark == 2:
            repeat = repeat or grid
        elif brute_stray is None or grid < brute_stray:
            brute_stray = grid
    unmatched = marks.find(1)
    candidates = [
        (None if unmatched < 0 else _forced_grid(s, unmatched), "families"),
        (brute_stray, "brute force"),
    ]
    named = min((c for c in candidates if c[0] is not None), default=None)
    if named is not None:
        return (None, *named)
    if repeat is not None:
        return None, repeat, "repeat"
    return count, None, None


def row_comparison(s):
    """(brute, named square, side) of `reconcile(s)`: its count, or what its MismatchError names."""
    try:
        return reconcile(s).brute, None, None
    except MismatchError as exc:
        return None, exc.square, str(exc).partition("comes from ")[2]


def fault_row(monkeypatch, s, a1, fault):
    """Put in a `_brute_rows` with `fault` in its row a1 at s; False if that row cannot have it.

    An extra cut cuts the row's first uncut grid, a dropped cut yields its
    first cut grid, and a shifted row moves its cells and grids one a2 towards
    the middle of the (a1, a2) square, within the a1 row of the marks.
    """
    real = enumeration._brute_rows
    cell, _, n, cuts = list(real(s))[a1]
    kept = [k for k in range(n) if k not in cuts]
    if fault == "extra cut" and kept:
        recut(monkeypatch, cut=[_forced_grid(s, cell + kept[0])])
    elif fault == "dropped cut" and cuts:
        recut(monkeypatch, uncut=[_forced_grid(s, cell + cuts[0])])
    elif fault == "shifted row" and a1 != s:
        at = cell + (1 if a1 > s else -1)

        def brute_rows(s):
            for row in real(s):
                ends = (_forced_grid(s, at), _forced_grid(s, at + n - 1))
                yield (at, ends, n, cuts) if row[0] == cell else row

        monkeypatch.setattr(enumeration, "_brute_rows", brute_rows)
    else:
        return False
    return True


class TestBruteRowComparison:
    """`reconcile` compares each a1 row of the brute-force sweep with its marks at once."""

    def test_names_what_the_per_grid_walk_names(self):
        for s in ROW_WALK_S:
            assert row_comparison(s) == per_grid_brute_walk(s), s

    @pytest.mark.parametrize("fault", ["extra cut", "dropped cut", "shifted row"])
    def test_names_what_the_per_grid_walk_names_on_a_faulty_row(self, monkeypatch, fault):
        named = 0
        for s in (6, 12, 25):
            for a1 in range(2 * s + 1):
                with monkeypatch.context() as patch:
                    if not fault_row(patch, s, a1, fault):
                        continue
                    # `reconcile` needs no entry checks below COUNT_MAX_S; a
                    # shifted first row would fail those of `iter_brute_grids`.
                    patch.setattr(enumeration, "check_entries", lambda entries: None)
                    expected = per_grid_brute_walk(s)
                    assert row_comparison(s) == expected, (s, a1)
                # A shifted row whose grids are all cut changes nothing.
                named += expected[0] is None
        assert named > 60

    def test_builds_no_brute_grid_on_a_sound_build(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("reconcile walked grids one at a time")

        monkeypatch.setattr(enumeration, "iter_brute_grids", unreachable)
        for s in [*range(61), 250]:
            assert reconcile(s).brute == count_closed(s)
