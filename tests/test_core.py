import copy
import itertools
import pickle
import re
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from magic3 import (
    ELEMENTS,
    ENTRY_MAX,
    GEN1,
    GEN2,
    GEN3,
    ONES,
    SEED_F1,
    SEED_F2,
    DihedralElement,
    DuplicateEntriesError,
    EntryRangeError,
    MagicSquare,
    MagicSquareError,
    MismatchError,
    NotMagicError,
    Square,
    add,
    apply,
    cli,
    compose,
    format_square,
    parse_square,
    scale,
    validate,
)
from magic3 import core
from magic3.core import permutation
from strategies import magic_squares

ZERO = Square((0,) * 9)
FH = DihedralElement.FH
FV = DihedralElement.FV
ID = DihedralElement.ID

# The line-by-line validation that `validate` short-cuts on success, in the
# scan order its errors report; kept here as the reference its outcomes must
# match exactly.
_SCAN_ORDER = (
    ("row 1", (0, 1, 2)),
    ("row 2", (3, 4, 5)),
    ("row 3", (6, 7, 8)),
    ("column 1", (0, 3, 6)),
    ("column 2", (1, 4, 7)),
    ("column 3", (2, 5, 8)),
    ("main diagonal", (0, 4, 8)),
    ("anti-diagonal", (2, 4, 6)),
)


def _validate_by_scan(x: Square) -> MagicSquare:
    e = x.entries
    m = e[0] + e[1] + e[2]
    for line, (i, j, k) in _SCAN_ORDER[1:]:
        total = e[i] + e[j] + e[k]
        if total != m:
            raise NotMagicError(line, expected=m, actual=total)
    seen: set[int] = set()
    for value in e:
        if value in seen:
            raise DuplicateEntriesError(value)
        seen.add(value)
    return MagicSquare(square=x, magic_sum=m, s=m // 3)


def _outcome(check, x: Square):
    """The certificate, or the error's type, message and attributes."""
    try:
        return check(x)
    except (NotMagicError, DuplicateEntriesError) as exc:
        return type(exc), str(exc), vars(exc)


class TestConstants:
    def test_generator_relations(self):
        assert add(GEN1, GEN2) == GEN3
        assert add(GEN3, GEN1) == SEED_F1
        assert add(GEN3, GEN2) == SEED_F2
        assert add(SEED_F1, GEN2) == add(SEED_F2, GEN1)

    def test_gen2_is_gen1_plus_its_mirror(self):
        mirrored = apply(FV, GEN1)
        assert mirrored.rows() == ((1, 0, 2), (2, 1, 0), (0, 2, 1))
        assert add(GEN1, mirrored) == GEN2

    def test_seed_grids_verbatim(self):
        assert SEED_F1.rows() == ((7, 0, 5), (2, 4, 6), (3, 8, 1))
        assert SEED_F2.rows() == ((8, 0, 7), (4, 5, 6), (3, 10, 2))

    def test_ones_gen1_gen2_linearly_independent(self):
        # xs * ONES + ys * GEN1 + zs * GEN2 pins x at a2, then y and z at a1/a3
        for x, y, z in itertools.product(range(-6, 7), repeat=3):
            combo = tuple(
                x * o + y * c + z * d
                for o, c, d in zip(ONES.entries, GEN1.entries, GEN2.entries)
            )
            if combo == (0,) * 9:
                assert (x, y, z) == (0, 0, 0)


class TestArithmetic:
    def test_add_zero_identity(self):
        assert add(ZERO, ZERO) == ZERO

    def test_scale_zero(self):
        assert scale(0, SEED_F1) == ZERO

    def test_scale_doubles_entries(self):
        assert scale(2, GEN1).rows()[0] == (4, 0, 2)

    def test_scale_all_ones(self):
        assert scale(3, ONES) == Square((3,) * 9)

    def test_scale_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            scale(-1, ONES)

    def test_add_overflow_checked(self):
        big = Square((ENTRY_MAX,) * 9)
        with pytest.raises(EntryRangeError):
            add(big, ONES)

    def test_scale_overflow_checked(self):
        with pytest.raises(EntryRangeError):
            scale(ENTRY_MAX, GEN1)

    def test_square_rejects_negative_entries(self):
        with pytest.raises(EntryRangeError):
            Square((0, 1, 2, 3, 4, 5, 6, 7, -1))

    def test_square_rejects_bool_entries(self):
        with pytest.raises(TypeError):
            Square((True, 1, 2, 3, 4, 5, 6, 7, 8))

    def test_square_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            Square((1, 2, 3))

    @pytest.mark.parametrize("row, col", [(3, 0), (0, 3), (-1, 0), (0, -1)])
    def test_cells_outside_the_grid_are_refused(self, row, col):
        with pytest.raises(IndexError) as info:
            SEED_F1.at(row, col)
        assert str(info.value) == f"cell ({row}, {col}) is outside the grid"

    @pytest.mark.parametrize(
        "rows, message",
        [
            # Both once returned a Square: only the flattened count was checked.
            ([[1, 2], [3, 4, 5, 6], [7, 8, 9]], "row 1 has 2 entries, expected 3"),
            ([list(range(9))], "row 1 has 9 entries, expected 3"),
            ([[1, 2, 3], [4, 5, 6], [7, 8]], "row 3 has 2 entries, expected 3"),
            ([[1, 2, 3], [4, 5, 6]], "a square has 3 rows, got 2"),
            ([[1, 2, 3]] * 4, "a square has 3 rows, got 4"),
        ],
    )
    def test_from_rows_requires_three_rows_of_three(self, rows, message):
        with pytest.raises(ValueError) as info:
            Square.from_rows(rows)
        assert (type(info.value), str(info.value)) == (ValueError, message)

    def test_from_rows_reads_the_rows_top_first(self):
        assert Square.from_rows(iter([range(0, 3), range(3, 6), (6, 7, 8)])) == Square(tuple(range(9)))

    @pytest.mark.parametrize("index, name", enumerate(["a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2", "c3"]))
    def test_named_cells_match_row_major_order(self, index, name):
        sq = Square(tuple(range(9)))
        assert getattr(sq, name) == index == sq.at(*divmod(index, 3))


class TestDihedralGroup:
    def test_identity_fixes_everything(self):
        assert apply(ID, SEED_F1) == SEED_F1

    def test_horizontal_flip_reverses_rows(self):
        assert apply(FH, SEED_F1).rows() == ((3, 8, 1), (2, 4, 6), (7, 0, 5))

    def test_group_laws_on_distinct_probe(self):
        # SEED_F1 holds nine distinct entries, so its images separate elements
        probe = SEED_F1
        images = {apply(g, probe).entries: g for g in ELEMENTS}
        assert len(images) == 8
        for g, h in itertools.product(ELEMENTS, repeat=2):
            assert apply(g, apply(h, probe)) == apply(compose(g, h), probe)
        for g in ELEMENTS:
            assert compose(g, g.inverse) is ID
            assert compose(g.inverse, g) is ID

    @pytest.mark.parametrize(
        "call, args, message",
        [
            # Each once raised a bare KeyError: 'id'.
            (apply, ("id", SEED_F1), "g must be DihedralElement, got str"),
            (compose, ("id", "r90"), "g must be DihedralElement, got str"),
            (compose, (ID, "r90"), "h must be DihedralElement, got str"),
            (compose, (None, ID), "g must be DihedralElement, got NoneType"),
            (permutation, ("id",), "g must be DihedralElement, got str"),
        ],
    )
    def test_an_element_that_is_not_a_dihedral_element_is_refused(self, call, args, message):
        with pytest.raises(TypeError) as info:
            call(*args)
        assert (type(info.value), str(info.value)) == (TypeError, message)

    def test_rotation_inverses(self):
        assert DihedralElement.R90.inverse is DihedralElement.R270
        assert DihedralElement.R180.inverse is DihedralElement.R180
        for g in (FH, FV, DihedralElement.FD, DihedralElement.FA):
            assert g.inverse is g

    def test_the_permutations_pass_the_closure_check(self):
        core._check_closure(core._PERM.values())

    @pytest.mark.parametrize("g", ELEMENTS)
    def test_a_permutation_with_one_pair_swapped_fails_the_closure_check(self, g):
        for a, b in itertools.combinations(range(9), 2):
            perm = list(core._PERM[g])
            perm[a], perm[b] = perm[b], perm[a]
            perms = {**core._PERM, g: tuple(perm)}.values()
            with pytest.raises(RuntimeError, match="^the eight dihedral maps are not closed under composition$"):
                core._check_closure(perms)

    @given(magic_squares, st.sampled_from(ELEMENTS))
    def test_apply_preserves_magic(self, m: MagicSquare, g: DihedralElement):
        image = validate(apply(g, m.square))
        assert image.magic_sum == m.magic_sum

    @given(magic_squares)
    def test_eight_images_pairwise_distinct(self, m: MagicSquare):
        images = {apply(g, m.square).entries for g in ELEMENTS}
        assert len(images) == 8


class TestValidate:
    def test_certifies_both_seeds(self):
        assert (validate(SEED_F1).magic_sum, validate(SEED_F1).s) == (12, 4)
        assert (validate(SEED_F2).magic_sum, validate(SEED_F2).s) == (15, 5)

    def test_duplicates_reported_with_first_repeated_value(self):
        with pytest.raises(DuplicateEntriesError) as err:
            validate(GEN3)
        assert err.value.value == 4

    def test_line_sum_violation_names_first_offending_line(self):
        bad = Square((7, 0, 5, 2, 4, 6, 3, 8, 2))
        with pytest.raises(NotMagicError) as err:
            validate(bad)
        assert err.value.line == "row 3"
        assert (err.value.expected, err.value.actual) == (12, 13)

    def test_column_violation_detected_after_rows(self):
        # all rows sum to 6 but columns do not
        bad = Square((1, 2, 3, 2, 3, 1, 1, 2, 3))
        with pytest.raises(NotMagicError) as err:
            validate(bad)
        assert err.value.line == "column 1"

    @given(st.lists(st.integers(0, 4), min_size=9, max_size=9))
    @example([5] * 9)
    @example([7, 0, 5, 2, 4, 6, 3, 8, 1])
    def test_same_outcome_as_line_scan_on_small_grids(self, values):
        sq = Square(tuple(values))
        assert _outcome(validate, sq) == _outcome(_validate_by_scan, sq)

    @given(st.lists(st.integers(0, ENTRY_MAX), min_size=9, max_size=9))
    def test_same_outcome_as_line_scan_on_wide_grids(self, values):
        sq = Square(tuple(values))
        assert _outcome(validate, sq) == _outcome(_validate_by_scan, sq)

    @given(magic_squares, st.integers(0, 8), st.integers(-3, 3))
    def test_same_outcome_as_line_scan_on_perturbed_magic_squares(self, m, cell, delta):
        entries = list(m.entries)
        entries[cell] = max(0, entries[cell] + delta)
        sq = Square(tuple(entries))
        assert _outcome(validate, sq) == _outcome(_validate_by_scan, sq)

    @given(magic_squares)
    def test_magic_sum_is_three_times_center(self, m: MagicSquare):
        assert m.magic_sum == 3 * m.square.b2
        assert m.s >= 4
        assert max(m.entries) <= 2 * m.s


# Each domain error, its constructor's arguments, and the attributes it carries.
ERRORS = {
    "MagicSquareError": (MagicSquareError, ("no such square",), {}),
    "EntryRangeError": (EntryRangeError, ("entry 18446744073709551616 exceeds the unsigned 64-bit range",), {}),
    "NotMagicError": (NotMagicError, ("row 2", 15, 14), {"line": "row 2", "expected": 15, "actual": 14}),
    "DuplicateEntriesError": (DuplicateEntriesError, (3,), {"value": 3}),
    "MismatchError": (MismatchError, ("families and brute disagree at s = 4",), {"square": None}),
    "MismatchError-square": (
        MismatchError, ("a square is missing", (7, 0, 5, 2, 4, 6, 3, 8, 1)), {"square": (7, 0, 5, 2, 4, 6, 3, 8, 1)},
    ),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_domain_errors_survive_pickle_and_copy(name):
    cls, args, attributes = ERRORS[name]
    error = cls(*args)
    # A note, as `add_note` stores it, rides along with the attributes.
    error.__notes__ = ["a note"]
    copies = [pickle.loads(pickle.dumps(error, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for other in (error, *copies, copy.copy(error), copy.deepcopy(error)):
        assert type(other) is cls
        assert (str(other), other.args, other.__notes__) == (str(error), error.args, ["a note"])
        assert {key: getattr(other, key) for key in attributes} == attributes


LO_SHU = Square((2, 7, 6, 9, 5, 1, 4, 3, 8))
# The whitespace that `str.split` splits ASCII text on, and every other code point it splits at.
ASCII_WHITESPACE = [chr(c) for c in range(128) if chr(c).isspace()]
OTHER_WHITESPACE = [chr(c) for c in range(128, sys.maxunicode + 1) if chr(c).isspace()]


class TestTextFormat:
    def test_parses_plain_spaces(self):
        assert parse_square("7 0 5 2 4 6 3 8 1") == SEED_F1

    def test_whitespace_is_the_ten_ascii_characters(self):
        assert ASCII_WHITESPACE == [*"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "]

    @pytest.mark.parametrize("separator", [*ASCII_WHITESPACE, ",", ";"], ids=ascii)
    def test_each_separator_is_accepted(self, separator):
        assert parse_square(separator.join("276951438")) == LO_SHU

    @pytest.mark.parametrize("text", ["2,,7 6 9 5 1 4 3 8", " ;2 7 6 9 5 1 4 3 8 ;", "2\t,; 7 6 9 5 1 4 3 8"])
    def test_runs_and_leading_and_trailing_separators_are_one_separator(self, text):
        assert parse_square(text) == LO_SHU

    @pytest.mark.parametrize("separator", OTHER_WHITESPACE, ids=ascii)
    def test_no_other_whitespace_separates(self, separator):
        # Not a separator: "2", it and "7" are one token, so the text holds 8.
        with pytest.raises(ValueError) as info:
            parse_square("2" + separator + "7 6 9 5 1 4 3 8")
        assert str(info.value) == "expected 9 entries, got 8"

    def test_the_cli_refuses_a_word_that_other_whitespace_joins(self, capsys):
        assert cli.main(["verify", "2\u30007", "6", "9", "5", "1", "4", "3", "8"]) == 1
        assert capsys.readouterr() == ("", "magic3: error: expected 9 entries, got 8\n")

    def test_parses_commas_and_row_semicolons(self):
        assert parse_square("7,0,5; 2,4,6; 3,8,1") == SEED_F1
        assert parse_square("7, 0, 5,2 4 6;3,8,1") == SEED_F1

    @pytest.mark.parametrize(
        "text",
        [
            "1 2 3",
            "1 2 3 4 5 6 7 8 9 10",
            "a b c d e f g h i",
            "7 0 5 2 4 6 3 8 -1",
            "7 0 5 2 4 6 3 +8 1",
            "7 0 5 2 4 6 3 8_0 1",
            "\u0667 \u0660 \u0665 \u0662 \u0664 \u0666 \u0663 \u0668 \u0661",
        ],
    )
    def test_rejects_malformed_text(self, text):
        with pytest.raises(ValueError):
            parse_square(text)

    @given(st.lists(st.text(alphabet="0123456789+-_\u0660\u0661\uff11\u00b9", min_size=1, max_size=4),
                    min_size=9, max_size=9))
    def test_parses_exactly_the_ascii_digit_tokens(self, tokens):
        text = " ".join(tokens)
        if all(re.fullmatch("[0-9]+", token) for token in tokens):
            assert parse_square(text).entries == tuple(int(token) for token in tokens)
        else:
            with pytest.raises(ValueError):
                parse_square(text)

    def test_format_matches_wire_example(self):
        assert format_square(SEED_F1) == "7 0 5 2 4 6 3 8 1"

    @given(st.lists(st.integers(0, ENTRY_MAX), min_size=9, max_size=9))
    def test_round_trip_any_square(self, values):
        sq = Square(tuple(values))
        assert parse_square(format_square(sq)) == sq
