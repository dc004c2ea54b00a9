import pytest
from hypothesis import given
from hypothesis import strategies as st

from magic3 import (
    GEN1,
    GEN2,
    ONES,
    SEED_F1,
    SEED_F2,
    DihedralElement,
    DuplicateEntriesError,
    MagicSquare,
    MagicSquareError,
    NotMagicError,
    ReducedMagicSquare,
    Square,
    add,
    apply,
    canonical_symmetry,
    is_canonical,
    iter_brute_squares,
    reduce,
    scale,
    validate,
)
from strategies import magic_squares

ID = DihedralElement.ID
FH = DihedralElement.FH
FV = DihedralElement.FV
R90 = DihedralElement.R90
R270 = DihedralElement.R270

T1 = validate(SEED_F1)
T2 = validate(SEED_F2)


def rs_grid(r, s):
    """The (r, s) shape of a reduced square, as the `magic3.canonical` docstring draws it."""
    return Square((2 * s - r, 0, s + r, 2 * r, s, 2 * s - 2 * r, s - r, 2 * s, r))


def is_reduced_pair(r, s):
    """True when rs_grid(r, s) builds, is magic and distinct, has ordered corners and minimum 0."""
    try:
        magic = validate(rs_grid(r, s))
    except MagicSquareError:
        return False
    return is_canonical(magic.square) and min(magic.entries) == 0


class TestCanonicalSymmetry:
    def test_seed_is_already_canonical(self):
        assert canonical_symmetry(T1) is ID

    def test_flip_maps_back_by_itself(self):
        flipped = validate(apply(FH, SEED_F1))
        assert canonical_symmetry(flipped) is FH

    def test_rotation_maps_back_by_its_inverse(self):
        rotated = validate(apply(R90, SEED_F2))
        assert canonical_symmetry(rotated) is R270

    def test_forged_certificate_with_opposite_smallest_corners_is_rejected(self):
        # The two smallest corners, 1 at a1 and 2 at c3, face each other: no
        # magic square has that, and the orientation table has no entry for it.
        forged = MagicSquare(Square((1, 9, 5, 9, 9, 9, 4, 9, 2)), 0, 0)
        with pytest.raises(NotMagicError, match="row 2 sums to 27, expected 15"):
            canonical_symmetry(forged)

    @given(magic_squares)
    def test_exactly_one_canonical_image(self, m):
        matches = [g for g in DihedralElement if is_canonical(apply(g, m.square))]
        assert len(matches) == 1


class TestReduce:
    def test_already_reduced(self):
        reduced, shift, g = reduce(T1)
        assert (reduced.square, shift, g) == (T1, 0, ID)
        assert (reduced.r, reduced.s) == (1, 4)

    def test_translation_only(self):
        lifted = validate(add(SEED_F1, scale(5, ONES)))
        reduced, shift, g = reduce(lifted)
        assert (reduced.square, shift, g) == (T1, 5, ID)

    def test_symmetry_and_translation(self):
        moved = validate(apply(FV, add(SEED_F2, scale(2, ONES))))
        reduced, shift, g = reduce(moved)
        assert (reduced.square, shift, g) == (T2, 2, FV)

    @given(magic_squares)
    def test_reconstruction_is_exact(self, m):
        reduced, shift, g = reduce(m)
        lifted = add(reduced.square.square, scale(shift, ONES))
        assert apply(g.inverse, lifted) == m.square

    def test_reduced_squares_have_fixed_center_column(self):
        for s in range(4, 13):
            for m in iter_brute_squares(s):
                reduced, _, _ = reduce(m)
                assert reduced.square.square.a2 == 0
                assert reduced.square.square.c2 == 2 * reduced.s


class TestReducedShape:
    def test_seeds(self):
        assert rs_grid(1, 4) == SEED_F1
        assert rs_grid(2, 5) == SEED_F2
        reduced, _, _ = reduce(T2)
        assert (reduced.r, reduced.s) == (2, 5)

    def test_next_square_up(self):
        grown = rs_grid(1, 5)
        assert grown.entries == (9, 0, 6, 2, 5, 8, 4, 10, 1)
        assert grown == add(SEED_F1, GEN1)
        reduced, shift, g = reduce(validate(grown))
        assert (reduced.square.square, reduced.r, reduced.s, shift, g) == (grown, 1, 5, 0, ID)

    @pytest.mark.parametrize("r, s", [(1, 3), (2, 6), (2, 4), (3, 2), (1, 2), (0, 4)])
    def test_degenerate_pairs_rejected(self, r, s):
        assert not is_reduced_pair(r, s)

    def test_excluded_diagonal_repeats_b1_as_c1(self):
        for r in range(1, 21):
            e = rs_grid(r, 3 * r).entries
            assert e[3] == e[6] == 2 * r
            with pytest.raises(DuplicateEntriesError):
                validate(rs_grid(r, 3 * r))

    @given(st.integers(-3, 60), st.integers(-3, 140))
    def test_grid_is_reduced_exactly_on_the_legal_pairs(self, r, s):
        assert is_reduced_pair(r, s) == (1 <= r and 2 * r + 1 <= s and s != 3 * r)

    @given(st.integers(1, 60), st.integers(0, 140))
    def test_reduce_fixes_every_reduced_grid(self, r, s):
        if 2 * r + 1 <= s and s != 3 * r:
            magic = validate(rs_grid(r, s))
            assert reduce(magic) == (ReducedMagicSquare(square=magic, r=r, s=s), 0, ID)

    @given(magic_squares)
    def test_every_reduced_square_is_its_rs_grid(self, m):
        reduced, _, _ = reduce(m)
        assert reduced.square.square == rs_grid(reduced.r, reduced.s)
        assert reduced.entries == reduced.square.entries


class TestCoordinateBijection:
    def test_materialized_coordinates_cover_all_reduced_squares(self):
        for s in range(4, 31):
            from_brute = set()
            for m in iter_brute_squares(s):
                if 0 in m.entries and is_canonical(m.square):
                    from_brute.add(m.entries)
            # the (r, s) grid of `magic3.canonical`: 1 <= r, 2r + 1 <= s and s != 3r
            from_coords = {
                rs_grid(r, s).entries for r in range(1, (s - 1) // 2 + 1) if s != 3 * r
            }
            assert from_brute == from_coords

    def test_excluded_diagonal_always_has_equal_entries(self):
        for beta in range(0, 21):
            grid = Square(
                (
                    5 + 5 * beta, 0, 4 + 4 * beta,
                    2 + 2 * beta, 3 + 3 * beta, 4 + 4 * beta,
                    2 + 2 * beta, 6 + 6 * beta, 1 + beta,
                )
            )
            if beta >= 1:
                built = add(add(SEED_F1, scale(beta - 1, GEN1)), scale(beta, GEN2))
                assert built == grid
            with pytest.raises(DuplicateEntriesError):
                validate(grid)
