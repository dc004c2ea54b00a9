import subprocess
import sys

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
    EntryRangeError,
    Family,
    MagicSquare,
    MagicSquareError,
    NotMagicError,
    ReducedMagicSquare,
    Square,
    add,
    apply,
    canonical_symmetry,
    construct,
    decompose,
    is_canonical,
    iter_brute_squares,
    reduce,
    validate,
)
from magic3.decompose import base_grid
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


# A certificate built by hand, bypassing `validate`: nine equal entries.
FORGED = MagicSquare(Square((0,) * 9), 0, 0)


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

    @pytest.mark.parametrize("fn", [decompose, reduce])
    def test_forged_certificate_is_rejected(self, fn):
        with pytest.raises(MagicSquareError):
            fn(FORGED)

    @pytest.mark.parametrize("name", ["decompose", "reduce"])
    def test_forged_certificate_is_rejected_under_optimize(self, name):
        code = (
            "import magic3 as M\n"
            "try:\n"
            f"    M.{name}(M.MagicSquare(M.Square((0,) * 9), 0, 0))\n"
            "except M.MagicSquareError as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert (result.returncode, result.stdout) == (0, "DuplicateEntriesError\n"), result.stderr

    @pytest.mark.parametrize("fn", [decompose, reduce])
    def test_non_magic_grid_with_distinct_corners_is_rejected(self, fn):
        with pytest.raises(NotMagicError):
            fn(MagicSquare(Square((1, 2, 3, 4, 5, 6, 7, 8, 10)), 15, 5))

    def test_json_wire_form(self):
        d = Decomposition(Family.F2, 0, 0, 0, ID)
        assert d.to_json_obj() == {
            "family": "F2",
            "i": 0,
            "j": 0,
            "k": 0,
            "symmetry": "id",
        }


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
