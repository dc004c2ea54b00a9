import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magic3 import (
    ELEMENTS,
    ENTRY_MAX,
    GEN1,
    GEN3,
    ONES,
    SEED_F1,
    SEED_F2,
    Decomposition,
    DihedralElement,
    DuplicateEntriesError,
    EntryRangeError,
    Family,
    MagicSquare,
    NotMagicError,
    ReducedMagicSquare,
    Square,
    add,
    apply,
    canonical_symmetry,
    construct,
    decompose,
    is_canonical,
    iter_brute_grids,
    iter_brute_squares,
    iter_decompositions,
    iter_family_grids,
    reduce,
    validate,
)
from magic3.core import _LINES
from magic3.decompose import _BASIS, _INVERSE_IMAGE, base_grid
from strategies import decompositions

ID = DihedralElement.ID
FH = DihedralElement.FH
R180 = DihedralElement.R180


# The five-stage ladder that `canonical_symmetry`, `reduce` and `decompose`
# replace with one table lookup and the (r, s') formula: eight trial images,
# a re-validated translated copy, (r, s), then (alpha, beta) computed inline,
# then (family, j, k).  Kept here as the reference the direct map must match.
def ladder_canonical_symmetry(m):
    matches = [g for g in DihedralElement if is_canonical(apply(g, m.square))]
    assert len(matches) == 1
    return matches[0]


def ladder_reduce(m):
    g = ladder_canonical_symmetry(m)
    oriented = apply(g, m.square)
    shift = min(oriented.entries)
    translated = validate(Square(tuple(value - shift for value in oriented.entries)))
    e = translated.entries
    assert 0 in e and is_canonical(translated.square)
    assert e[1] == 0 and e[7] == 2 * translated.s and e[8] >= 1
    return ReducedMagicSquare(square=translated, r=e[8], s=translated.s), shift, g


def ladder_decompose(m):
    reduced, i, g = ladder_reduce(m)
    alpha, beta = reduced.s - 2 * reduced.r - 2, reduced.r - 1
    if alpha >= beta:
        family, j, k = Family.F1, beta, alpha - beta
    else:
        family, j, k = Family.F2, alpha + 1, beta - alpha - 2
    assert j >= 0 and k >= 0
    return Decomposition(family=family, i=i, j=j, k=k, symmetry=g)



class TestConstruct:
    def test_origin_of_first_family(self):
        m = construct(Decomposition(Family.F1, 0, 0, 0, ID))
        assert m.square == SEED_F1

    def test_interior_point_of_second_family(self):
        m = construct(Decomposition(Family.F2, 1, 2, 3, ID))
        assert m.square.rows() == ((28, 1, 25), (15, 18, 21), (11, 35, 8))
        assert m.magic_sum == 54

    def test_symmetry_is_undone_on_the_way_out(self):
        m = construct(Decomposition(Family.F1, 0, 0, 0, FH))
        assert m.square.rows() == ((3, 8, 1), (2, 4, 6), (7, 0, 5))

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ValueError):
            Decomposition(Family.F1, -1, 0, 0, ID)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("i", True, TypeError),
            ("j", False, TypeError),
            ("k", 1.5, TypeError),
            ("i", "1", TypeError),
            ("family", "F1", TypeError),
            ("symmetry", "id", TypeError),
            ("symmetry", 0, TypeError),
            ("k", -1, ValueError),
        ],
    )
    def test_fields_are_strictly_typed(self, field, value, error):
        fields = {"family": Family.F1, "i": 0, "j": 0, "k": 0, "symmetry": ID}
        with pytest.raises(error):
            Decomposition(**{**fields, field: value})

    def test_admits_an_int_subclass(self):
        # Only exact ints take the one-test path; a subclass goes through the
        # per-field checks, which admit it, and a negative one is still refused.
        class Count(int):
            pass

        d = Decomposition(Family.F2, Count(1), Count(2), Count(3), ID)
        assert construct(d) == construct(Decomposition(Family.F2, 1, 2, 3, ID))
        with pytest.raises(ValueError, match="k must be nonnegative, got -1"):
            Decomposition(Family.F2, 1, 2, Count(-1), ID)


class TestDecompose:
    def test_second_seed(self):
        d = decompose(validate(SEED_F2))
        assert d == Decomposition(Family.F2, 0, 0, 0, ID)

    def test_first_family_generator_step(self):
        d = decompose(validate(add(SEED_F1, GEN1)))
        assert d == Decomposition(Family.F1, 0, 0, 1, ID)

    def test_rotated_and_lifted_square(self):
        base = add(add(SEED_F1, ONES), GEN3)
        d = decompose(validate(apply(R180, base)))
        assert d == Decomposition(Family.F1, 1, 1, 0, R180)

    def test_forged_certificate_cannot_be_built(self):
        # Nine equal entries: refused when built, before any consumer sees it.
        with pytest.raises(DuplicateEntriesError, match="entry 0 appears more than once"):
            MagicSquare(Square((0,) * 9), 0, 0)

    def test_non_magic_grid_with_distinct_corners_cannot_be_built(self):
        with pytest.raises(NotMagicError, match="row 2 sums to 15, expected 6"):
            MagicSquare(Square((1, 2, 3, 4, 5, 6, 7, 8, 10)), 15, 5)

    def test_json_wire_form(self):
        d = Decomposition(Family.F2, 0, 0, 0, ID)
        assert d.to_json_obj() == {
            "family": "F2",
            "i": 0,
            "j": 0,
            "k": 0,
            "symmetry": "id",
        }
        # The wire tag is the member's `.value`; `.tag`, once its alias, is gone.
        assert ID.value == "id" and not hasattr(ID, "tag")


class TestRoundTrip:
    @given(decompositions)
    def test_decompose_inverts_construct(self, d):
        assert decompose(construct(d)) == d

    @given(decompositions)
    def test_parameter_formula_matches_certificate(self, d):
        m = construct(d)
        assert m.s == d.s
        expected = 4 + d.i + 3 * d.j + d.k if d.family is Family.F1 else 5 + d.i + 3 * d.j + 2 * d.k
        assert m.s == expected

    @given(decompositions)
    def test_minimum_entry_is_the_translation_coefficient(self, d):
        assert min(construct(d).entries) == d.i

    def test_every_brute_forced_square_decomposes(self):
        for s in range(4, 16):
            for m in iter_brute_squares(s):
                d = decompose(m)
                assert construct(d) == m

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("g", ELEMENTS)
    @settings(max_examples=25, deadline=None)
    @given(j=st.integers(0, 2**56), k=st.integers(0, 2**56))
    def test_round_trip_at_the_entry_max_edge(self, family, g, j, k):
        i = ENTRY_MAX - max(base_grid(family, 0, j, k))
        d = Decomposition(family, i, j, k, g)
        m = construct(d)
        assert max(m.entries) == ENTRY_MAX
        assert decompose(m) == d
        with pytest.raises(EntryRangeError):
            construct(Decomposition(family, i + 1, j, k, g))


class TestAgainstLadder:
    def test_direct_map_matches_the_ladder_on_every_square_up_to_forty(self):
        squares = 0
        for s in range(41):
            for m in iter_brute_squares(s):
                assert canonical_symmetry(m) is ladder_canonical_symmetry(m)
                assert reduce(m) == ladder_reduce(m)
                assert decompose(m) == ladder_decompose(m)
                squares += 1
        assert squares == 38960


class Count(int):
    """An int subclass that keeps int's arithmetic."""


def fields(d):
    return (d.family, d.i, d.j, d.k, d.symmetry)


class TestUncheckedMint:
    """`decompose` mints its result without `Decomposition`'s checks, which would pass it."""

    def test_every_square_up_to_forty_in_every_image(self):
        symmetries = {}
        for s in range(41):
            for grid in iter_brute_grids(s):
                m = validate(Square(grid))
                d = decompose(m)
                assert d == Decomposition(*fields(d))
                assert all(type(x) is int and x >= 0 for x in (d.i, d.j, d.k))
                assert d.i == min(m.entries)
                symmetries.setdefault(fields(d)[:4], []).append(d.symmetry)
        # Each lattice point is decomposed from its eight images, one symmetry each.
        assert sum(map(len, symmetries.values())) == 38960
        assert all(sorted(gs, key=ELEMENTS.index) == list(ELEMENTS) for gs in symmetries.values())

    def test_int_subclass_entries_give_the_checked_fields(self):
        # `Square` stores int-subclass entries as exact ints, so the unchecked
        # mint and the ladder's `Decomposition(...)` both hold exact ints.
        for s in range(13):
            for grid in iter_brute_grids(s):
                m = validate(Square(tuple(map(Count, grid))))
                d = decompose(m)
                assert d == Decomposition(*fields(d)) == ladder_decompose(m)
                assert [type(x) for x in fields(d)] == [type(x) for x in fields(ladder_decompose(m))]
                assert [type(x) for x in (d.i, d.j, d.k)] == [int, int, int]

    def test_an_int_subclass_that_overrides_subtraction_is_not_trusted(self):
        # Its entries are stored as exact ints, so `decompose` subtracts with
        # int's own arithmetic: no field comes out negative.
        class Skewed(int):
            def __sub__(self, other):
                return int(self) - int(other) - 100

            def __rsub__(self, other):
                return int(other) - int(self) - 100

        m = validate(Square(tuple(map(Skewed, SEED_F1.entries))))
        assert [type(x) for x in m.entries] == [int] * 9
        assert decompose(m) == Decomposition(Family.F1, 0, 0, 0, ID)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("g", ELEMENTS)
    def test_at_the_entry_max_edge(self, family, g):
        for j, k in [(0, 0), (3, 2**50), (2**55, 7)]:
            d = Decomposition(family, ENTRY_MAX - max(base_grid(family, 0, j, k)), j, k, g)
            m = construct(d)
            assert max(m.entries) == ENTRY_MAX
            back = decompose(m)
            assert back == d == Decomposition(*fields(back))
            assert all(type(x) is int for x in (back.i, back.j, back.k))
            counted = decompose(validate(Square(tuple(map(Count, m.entries)))))
            assert counted == d == Decomposition(*fields(counted))
            assert [type(x) for x in (counted.i, counted.j, counted.k)] == [int, int, int]
            assert reduce(m) == ladder_reduce(m)


# Four affinely independent (i, j, k): the origin and one step along each axis.
POINTS = ((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))


def base_forms(family):
    """Each cell of `base_grid` as (constant, i, j, k) coefficients, read off at POINTS."""
    origin, *steps = (base_grid(family, *point) for point in POINTS)
    return [(c, *(step[cell] - c for step in steps)) for cell, c in enumerate(origin)]


def combine(*terms):
    """The form sum(n * form) of (n, form) pairs."""
    return tuple(sum(n * form[p] for n, form in terms) for p in range(4))


def keeps_one_sign(form):
    """True when the form has one strict sign at every (i, j, k) >= 0: it carries no i, its
    constant is nonzero and its j and k coefficients are 0 or of the constant's sign."""
    c, fi, fj, fk = form
    return fi == 0 and c != 0 and c * fj >= 0 and c * fk >= 0


class TestConeProof:
    """`decompose` inverts `construct` on all 16 (family, symmetry) cones, for every (i, j, k) >= 0.

    1. `base_grid` is affine in (i, j, k): cell by cell it is the form
       seed + i + j * GEN3 + k * generator of `_BASIS`, read off at four points.
    2. Sign premise: each of the 36 differences of two cells is a form with
       no i, a nonzero constant, and j and k coefficients that are 0 or share
       the constant's sign.  So on the whole cone each difference keeps the
       sign of its constant: the entries are distinct and keep one order.
    3. Line-sum premise: the eight line sums are one form, 12 + 3i + 9j + 3k
       on F1 and 15 + 3i + 9j + 6k on F2, three times the center.  With 2,
       every base grid is magic with center s, and so is each of its images,
       as `core` checks at import that each maps lines onto lines.  That is
       why `construct` mints its certificate without `validate`.
    4. On an image of a base grid, each comparison `decompose` makes is
       between two cells (the two corners of each opposite pair, then the
       smaller of each) or is the sign of s' - 3r, the form b2 - 3 c3 + 2 a2
       of the base grid (1 + k on F1, -(1 + k) on F2).  By 2 each has one
       outcome on the whole cone, so the cells it reads c3 and i from are
       fixed there too, and decompose(construct(d)) is an affine map of
       (i, j, k) with a fixed family and symmetry.  It agrees with the
       identity at four affinely independent points, so it agrees everywhere.
    5. `construct` does not call `base_grid`: it runs `decompose`'s map
       backwards, from (r, s') and the reduced shape.  On each cone its
       cells are affine in (i, j, k) too, and at the four points they are
       the cells of the inverse image of `base_grid`, so the two agree on
       the whole cone, and 1-4 hold for `construct`.

    Both build exact Python ints, so the argument needs no bound.  The range
    is refused in `construct`: `Decomposition` holds i, j and k as exact
    ints, and it mints its `Square` unchecked only when its largest entry,
    c2 of the base grid, is at most ENTRY_MAX; any other grid goes through
    `Square`, which refuses an entry past the 64-bit range with the same
    error as before.
    """

    @pytest.mark.parametrize("family", list(Family))
    def test_base_grid_is_the_affine_form_of_the_basis(self, family):
        forms = base_forms(family)
        assert forms == [(se, 1, sh, ge) for se, sh, ge in _BASIS[family.value]]
        for i, j, k in [(2, 3, 5), (7, 0, 4), (2**40, 3, 2**50)]:
            assert base_grid(family, i, j, k) == tuple(
                c + i * fi + j * fj + k * fk for c, fi, fj, fk in forms
            )

    @pytest.mark.parametrize("family", list(Family))
    def test_every_difference_of_two_cells_keeps_one_sign(self, family):
        forms = base_forms(family)
        differences = [combine((1, p), (-1, q)) for p, q in itertools.combinations(forms, 2)]
        assert len(differences) == 36
        assert [d for d in differences if not keeps_one_sign(d)] == []

    @pytest.mark.parametrize(
        "family, line_sum", [(Family.F1, (12, 3, 9, 3)), (Family.F2, (15, 3, 9, 6))]
    )
    def test_every_line_sum_is_three_times_the_center(self, family, line_sum):
        forms = base_forms(family)
        sums = {combine(*((1, forms[c]) for c in cells)) for _, cells in _LINES}
        assert sums == {line_sum} == {combine((3, forms[4]))}

    @pytest.mark.parametrize("family, sign", [(Family.F1, 1), (Family.F2, -1)])
    def test_the_family_branch_keeps_one_sign(self, family, sign):
        forms = base_forms(family)
        # By the sign premise, the order at the origin holds on the whole cone:
        # c3 is the smallest corner and a2 the minimum, as the form below reads them.
        a1, a2, a3, _, b2, _, c1, _, c3 = (c for c, _, _, _ in forms)
        assert c3 < c1 < a3 < a1 and a2 == min(c for c, _, _, _ in forms)
        a2, b2, c3 = (forms[cell] for cell in (1, 4, 8))
        s_less_3r = combine((1, b2), (-3, c3), (2, a2))
        assert s_less_3r == (sign, 0, 0, sign) and keeps_one_sign(s_less_3r)

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("g", ELEMENTS)
    def test_round_trip_at_four_affinely_independent_points(self, family, g):
        for point in POINTS:
            d = Decomposition(family, *point, g)
            assert decompose(construct(d)) == d

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("g", ELEMENTS)
    def test_construct_is_the_inverse_image_of_the_basis(self, family, g):
        origin, *steps = (construct(Decomposition(family, *point, g)).entries for point in POINTS)
        forms = [(c, *(step[cell] - c for step in steps)) for cell, c in enumerate(origin)]
        assert forms == list(_INVERSE_IMAGE[g.value](base_forms(family)))
        i, j, k = 2**40, 3, 2**50
        assert construct(Decomposition(family, i, j, k, g)).entries == tuple(
            c + i * fi + j * fj + k * fk for c, fi, fj, fk in forms
        )

    def test_construct_yields_the_family_grids_up_to_forty(self):
        for s in range(41):
            assert [construct(d).entries for d in iter_decompositions(s)] == list(iter_family_grids(s))

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("g", ELEMENTS)
    def test_an_int_subclass_at_the_entry_max_edge(self, family, g):
        # An int subclass is stored as the exact int it holds: the same grid
        # at the edge, and one step past it the same error as exact ints.
        class Count(int):
            pass

        j, k = 3, 2**50
        i = ENTRY_MAX - max(base_grid(family, 0, j, k))
        exact = construct(Decomposition(family, i, j, k, g))
        assert max(exact.entries) == ENTRY_MAX
        assert construct(Decomposition(family, Count(i), Count(j), Count(k), g)) == exact
        for fields in ((i + 1, j, k), (Count(i + 1), Count(j), Count(k))):
            with pytest.raises(EntryRangeError) as info:
                construct(Decomposition(family, *fields, g))
            assert str(info.value) == f"entry {ENTRY_MAX + 1} exceeds the unsigned 64-bit range"

    def test_an_int_subclass_gets_the_square_checks(self):
        # The range argument holds for int's own arithmetic only; a subclass's
        # may differ, so `Decomposition` stores the exact int it holds, and
        # `construct` builds the grid of exact ints.
        class Skewed(int):
            def __radd__(self, other):
                return int(other) + int(self) + 2**64

        d = Decomposition(Family.F1, 0, Skewed(0), 0, ID)
        assert [type(x) for x in fields(d)[1:4]] == [int, int, int]
        assert construct(d) == validate(SEED_F1)
