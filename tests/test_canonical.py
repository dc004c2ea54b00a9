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
    IllegalCoordinatesError,
    MagicSquare,
    NotMagicError,
    NotReducedError,
    ReducedCoordinates,
    Square,
    add,
    alpha_beta_to_rs,
    apply,
    canonical_symmetry,
    is_canonical,
    iter_brute_squares,
    reduce,
    reduced_from_coordinates,
    reduced_from_rs,
    rs_to_alpha_beta,
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


class TestReducedFromRS:
    def test_seeds(self):
        assert reduced_from_rs(1, 4).square == T1
        assert reduced_from_rs(2, 5).square == T2

    def test_next_square_up(self):
        grown = reduced_from_rs(1, 5)
        assert grown.entries == (9, 0, 6, 2, 5, 8, 4, 10, 1)
        assert grown.square.square == add(SEED_F1, GEN1)

    @pytest.mark.parametrize("r, s", [(1, 3), (2, 6), (2, 4), (3, 2), (1, 2)])
    def test_degenerate_pairs_rejected(self, r, s):
        with pytest.raises(NotReducedError):
            reduced_from_rs(r, s)


class TestCoordinateMaps:
    def test_seed_coordinates(self):
        coords = rs_to_alpha_beta(1, 4)
        assert (coords.alpha, coords.beta) == (0, 0)

    def test_second_seed_coordinates(self):
        assert alpha_beta_to_rs(ReducedCoordinates(-1, 1)) == (2, 5)
        # same square two ways: SEED_F1 + GEN2 == SEED_F2 + GEN1
        assert add(SEED_F1, GEN2) == add(SEED_F2, GEN1)

    def test_map_is_total_even_on_the_excluded_diagonal(self):
        coords = rs_to_alpha_beta(2, 6)
        assert (coords.alpha, coords.beta) == (0, 1)
        with pytest.raises(IllegalCoordinatesError):
            reduced_from_coordinates(coords)

    def test_illegal_coordinates_rejected(self):
        with pytest.raises(IllegalCoordinatesError):
            ReducedCoordinates(-2, 0)
        with pytest.raises(IllegalCoordinatesError):
            ReducedCoordinates(0, -1)
        with pytest.raises(IllegalCoordinatesError):
            rs_to_alpha_beta(0, 4)

    @given(st.integers(-1, 60), st.integers(0, 60))
    def test_round_trip_from_coordinates(self, alpha, beta):
        coords = ReducedCoordinates(alpha, beta)
        r, s = alpha_beta_to_rs(coords)
        back = rs_to_alpha_beta(r, s)
        assert (back.alpha, back.beta) == (alpha, beta)

    @given(st.integers(1, 60), st.integers(0, 140))
    def test_round_trip_from_rs(self, r, s):
        if s < 2 * r + 1:
            with pytest.raises(IllegalCoordinatesError):
                rs_to_alpha_beta(r, s)
        else:
            assert alpha_beta_to_rs(rs_to_alpha_beta(r, s)) == (r, s)


class TestCoordinateBijection:
    def test_materialized_coordinates_cover_all_reduced_squares(self):
        for s in range(4, 31):
            from_brute = set()
            for m in iter_brute_squares(s):
                if 0 in m.entries and is_canonical(m.square):
                    from_brute.add(m.entries)
            from_coords = set()
            for beta in range(s // 2 + 1):
                alpha = s - 2 * beta - 4
                if alpha < -1 or beta == alpha + 1:
                    continue
                reduced = reduced_from_coordinates(ReducedCoordinates(alpha, beta))
                assert reduced.s == s
                from_coords.add(reduced.entries)
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
