"""The public contract of the value types and of the text parser.

The six value types are dataclasses whose methods `_value_type` writes once,
and each sets its slots in a hand-written `__init__`; these tests pin what a
frozen, slotted dataclass gives: construction, fields, `replace`,
immutability, equality, hashing, `repr`, pickle and copy.
"""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from magic3 import (
    ENTRY_MAX,
    ONES,
    SEED_F1,
    DihedralElement,
    Decomposition,
    EntryRangeError,
    Family,
    MagicSquare,
    MagicSquareError,
    ReducedMagicSquare,
    Square,
    apply,
    construct,
    decompose,
    expand,
    format_square,
    magic_gf,
    parse_square,
    reduce,
    scale,
    selftest,
    validate,
)
from magic3.core import _certify, _MagicSquareTwin, _square, _SquareTwin
from magic3.decompose import _decomposition, _DecompositionTwin
from magic3.series import CountReport, RationalSeries
from strategies import magic_squares

ID = DihedralElement.ID
R90 = DihedralElement.R90
FD = DihedralElement.FD
SEED_F1_ENTRIES = (7, 0, 5, 2, 4, 6, 3, 8, 1)
SEED_F1_REPR = "Square(entries=(7, 0, 5, 2, 4, 6, 3, 8, 1))"

# For each type: positional arguments, the keyword form, a replacement field
# and value, and the repr of the positional instance.
CASES = {
    "Square": (
        Square,
        (SEED_F1_ENTRIES,),
        {"entries": SEED_F1_ENTRIES},
        ("entries", (8, 1, 6, 3, 5, 7, 4, 9, 2)),
        SEED_F1_REPR,
    ),
    "MagicSquare": (
        MagicSquare,
        (SEED_F1, 12, 4),
        {"square": SEED_F1, "magic_sum": 12, "s": 4},
        ("square", apply(R90, SEED_F1)),
        f"MagicSquare(square={SEED_F1_REPR}, magic_sum=12, s=4)",
    ),
    "Decomposition": (
        Decomposition,
        (Family.F2, 1, 2, 3, R90),
        {"family": Family.F2, "i": 1, "j": 2, "k": 3, "symmetry": R90},
        ("k", 4),
        "Decomposition(family=<Family.F2: 'F2'>, i=1, j=2, k=3, "
        "symmetry=<DihedralElement.R90: 'r90'>)",
    ),
    "ReducedMagicSquare": (
        ReducedMagicSquare,
        (validate(SEED_F1), 1, 4),
        {"square": validate(SEED_F1), "r": 1, "s": 4},
        ("square", validate(apply(FD, SEED_F1))),
        f"ReducedMagicSquare(square=MagicSquare(square={SEED_F1_REPR}, magic_sum=12, s=4), r=1, s=4)",
    ),
    "RationalSeries": (
        RationalSeries,
        ((0, 8), (1, -1)),
        {"numerator": (0, 8), "denominator": (1, -1)},
        ("numerator", (8,)),
        "RationalSeries(numerator=(0, 8), denominator=(1, -1))",
    ),
    "CountReport": (
        CountReport,
        (4, 8, 8, 8, 8),
        {"s": 4, "closed_form": 8, "series": 8, "families": 8, "brute": 8},
        ("brute", None),
        "CountReport(s=4, closed_form=8, series=8, families=8, brute=8)",
    ),
    "CountReport-no-brute": (
        CountReport,
        (4, 8, 8, 8),
        {"s": 4, "closed_form": 8, "series": 8, "families": 8},
        ("brute", 8),
        "CountReport(s=4, closed_form=8, series=8, families=8, brute=None)",
    ),
}
FIELDS = {
    "Square": ["entries"],
    "MagicSquare": ["square", "magic_sum", "s"],
    "Decomposition": ["family", "i", "j", "k", "symmetry"],
    "ReducedMagicSquare": ["square", "r", "s"],
    "RationalSeries": ["numerator", "denominator"],
    "CountReport": ["s", "closed_form", "series", "families", "brute"],
    "CountReport-no-brute": ["s", "closed_form", "series", "families", "brute"],
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestValueTypeContract:
    def test_positional_and_keyword_construction_agree(self, name):
        cls, args, kwargs, _, _ = CASES[name]
        x, y = cls(*args), cls(**kwargs)
        assert x == y and hash(x) == hash(y)
        # A field past the arguments holds its default.
        defaults = [f.default for f in dataclasses.fields(cls)[len(args):]]
        assert [getattr(x, field) for field in FIELDS[name]] == [*args, *defaults]

    def test_fields_are_the_declared_ones(self, name):
        cls, args, _, _, _ = CASES[name]
        assert [f.name for f in dataclasses.fields(cls)] == FIELDS[name]
        assert cls.__slots__ == cls.__match_args__ == tuple(FIELDS[name])
        assert not hasattr(cls(*args), "__dict__")

    def test_replace_builds_a_new_value(self, name):
        cls, args, kwargs, (field, value), _ = CASES[name]
        x = cls(*args)
        y = dataclasses.replace(x, **{field: value})
        assert getattr(y, field) == value
        assert y == cls(**{**kwargs, field: value}) and y != x
        assert dataclasses.replace(x) == x

    def test_fields_are_frozen(self, name):
        cls, args, _, (field, value), _ = CASES[name]
        x = cls(*args)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, field)

    def test_equality_and_hash_follow_the_fields(self, name):
        cls, args, kwargs, (field, value), _ = CASES[name]
        x = cls(*args)
        other = cls(**{**kwargs, field: value})
        assert x != other
        assert len({x, cls(*args), other}) == 2
        assert x != tuple(args)

    def test_repr_is_unchanged(self, name):
        cls, args, _, _, text = CASES[name]
        assert repr(cls(*args)) == text

    def test_pickle_and_copy_give_an_equal_value(self, name):
        cls, args, _, _, text = CASES[name]
        x = cls(*args)
        pickled = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in (*pickled, copy.copy(x), copy.deepcopy(x)):
            assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(y, FIELDS[name][0], None)


# Each unchecked mint, and a public call through it: the value it returns, and
# the twin it retagged.  Each gives the positional instance of CASES[name].
MINTS = {
    "Square-_square": ("Square", lambda: _square(SEED_F1_ENTRIES), _SquareTwin),
    "Square-parse_square": ("Square", lambda: parse_square("7 0 5 2 4 6 3 8 1"), _SquareTwin),
    "MagicSquare-_certify": ("MagicSquare", lambda: _certify(SEED_F1, 4), _MagicSquareTwin),
    "MagicSquare-validate": ("MagicSquare", lambda: validate(SEED_F1), _MagicSquareTwin),
    "Decomposition-_decomposition": (
        "Decomposition", lambda: _decomposition(Family.F2, 1, 2, 3, R90), _DecompositionTwin,
    ),
    "Decomposition-decompose": (
        "Decomposition", lambda: decompose(construct(Decomposition(Family.F2, 1, 2, 3, R90))), _DecompositionTwin,
    ),
}
# A field the checked constructor refuses, for `dataclasses.replace`.
BAD_FIELDS = {
    "Square": {"entries": (-1,) + SEED_F1_ENTRIES[1:]},
    "MagicSquare": {"s": 5},
    "Decomposition": {"k": -1},
}


def raised(call, *args, **kwargs):
    with pytest.raises(Exception) as info:
        call(*args, **kwargs)
    return type(info.value), str(info.value)


@pytest.mark.parametrize("mint", sorted(MINTS))
class TestMintedValueContract:
    """A value minted unchecked is the checked value, as frozen as it."""

    def test_is_the_value_type_and_equals_the_checked_value(self, mint):
        name, make, _ = MINTS[mint]
        cls, args, _, _, text = CASES[name]
        x, checked = make(), cls(*args)
        assert type(x) is cls and not hasattr(x, "__dict__")
        assert x == checked and hash(x) == hash(checked) and repr(x) == text

    def test_pickle_and_copy_give_an_equal_value(self, mint):
        name, make, _ = MINTS[mint]
        cls, args, _, _, text = CASES[name]
        x = make()
        pickled = [pickle.loads(pickle.dumps(x, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for y in (*pickled, copy.copy(x), copy.deepcopy(x)):
            assert type(y) is cls and y == x == cls(*args) and hash(y) == hash(x) and repr(y) == text

    def test_replace_with_a_bad_field_raises_as_the_checked_constructor_does(self, mint):
        name, make, _ = MINTS[mint]
        cls, _, kwargs, _, _ = CASES[name]
        bad = BAD_FIELDS[name]
        assert raised(dataclasses.replace, make(), **bad) == raised(cls, **{**kwargs, **bad})

    def test_no_public_route_unfreezes_it(self, mint):
        name, make, twin = MINTS[mint]
        cls, _, _, (field, value), _ = CASES[name]
        x = make()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, field, value)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, field)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.__class__ = twin
        assert type(x) is cls and x == make()


def test_import_generates_no_dataclass_code():
    # `dataclasses` runs the source of each method that it generates with
    # `exec` (in `_create_fn` up to Python 3.12); a fresh import of the
    # package, every name of it (which loads the lazy submodules), and its CLI
    # calls it never.  A module global shadows the builtin.
    probe = (
        "import dataclasses\n"
        "calls = []\n"
        "def record(source, *args):\n"
        "    calls.append(source)\n"
        "    return exec(source, *args)\n"
        "dataclasses.exec = record\n"
        "import magic3, magic3.cli, magic3.selftest\n"
        "from magic3 import *\n"
        "import sys\n"
        "print(sorted(name for name in sys.modules if name.startswith('magic3')))\n"
        "print(magic3.__file__)\n"
        "print(calls)\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert result.returncode == 0, result.stderr
    loaded, imported, calls = result.stdout.splitlines()
    # Every module of the package but `__main__`, which runs the CLI.
    modules = ["magic3"] + [f"magic3.{path.stem}" for path in (src / "magic3").glob("*.py")
                            if path.stem not in ("__init__", "__main__")]
    assert loaded == str(sorted(modules))
    assert Path(imported).parent == src / "magic3"
    assert calls == "[]"


class TestMagicSquareMint:
    def test_certificate_from_validate_equals_a_hand_built_one(self):
        # `validate` mints through `_certify` and `__init__` checks: one value either way.
        minted, built = validate(SEED_F1), MagicSquare(SEED_F1, 12, 4)
        assert minted == built and hash(minted) == hash(built)
        assert repr(minted) == repr(built)
        assert dataclasses.asdict(minted) == dataclasses.asdict(built)


class Lying(int):
    """An int subclass whose comparisons and `__int__` misreport the int it holds."""

    def __lt__(self, other):
        return False

    __gt__ = __lt__

    def __int__(self):
        return 0


class TestSquareChecks:
    @pytest.mark.parametrize(
        "entries, error, message",
        [
            (SEED_F1_ENTRIES[:8], ValueError, "a square has 9 entries, got 8"),
            ((True,) + SEED_F1_ENTRIES[1:], TypeError, "entry must be int, got bool"),
            ((1.0,) + SEED_F1_ENTRIES[1:], TypeError, "entry must be int, got float"),
            ((-1,) + SEED_F1_ENTRIES[1:], EntryRangeError, "entry -1 is negative"),
            (
                (2**64,) + SEED_F1_ENTRIES[1:],
                EntryRangeError,
                "entry 18446744073709551616 exceeds the unsigned 64-bit range",
            ),
        ],
    )
    def test_rejects_with_todays_messages(self, entries, error, message):
        with pytest.raises(error) as info:
            Square(entries)
        assert str(info.value) == message
        with pytest.raises(error):
            Square(entries=entries)

    def test_an_int_subclass_is_checked_and_stored_as_the_int_it_holds(self):
        square = Square(tuple(map(Lying, SEED_F1_ENTRIES)))
        assert square == SEED_F1 and [type(v) for v in square.entries] == [int] * 9
        for value, message in ((2**64, "^entry 18446744073709551616 exceeds"), (-1, "^entry -1 is negative$")):
            with pytest.raises(EntryRangeError, match=message):
                Square((Lying(value),) + SEED_F1_ENTRIES[1:])

    def test_any_iterable_becomes_a_tuple(self):
        assert Square(iter(SEED_F1_ENTRIES)).entries == SEED_F1_ENTRIES
        assert Square(list(SEED_F1_ENTRIES)) == SEED_F1


class TestDecompositionChecks:
    def test_admits_an_int_subclass(self):
        class Count(int):
            pass

        d = Decomposition(Family.F1, Count(1), Count(2), Count(3), ID)
        assert d == Decomposition(Family.F1, 1, 2, 3, ID)
        assert [type(x) for x in (d.i, d.j, d.k)] == [int, int, int]

    def test_an_int_subclass_is_checked_and_stored_as_the_int_it_holds(self):
        d = Decomposition(Family.F1, Lying(1), Lying(2), Lying(3), ID)
        assert d == Decomposition(Family.F1, 1, 2, 3, ID)
        assert [type(x) for x in (d.i, d.j, d.k)] == [int, int, int]
        with pytest.raises(ValueError, match="^j must be nonnegative, got -1$"):
            Decomposition(Family.F1, Lying(1), Lying(-1), Lying(3), ID)

    @pytest.mark.parametrize(
        "field, value, error, message",
        [
            ("family", "F1", TypeError, "family must be Family, got str"),
            ("i", True, TypeError, "i must be int, got bool"),
            ("j", 1.0, TypeError, "j must be int, got float"),
            ("k", -1, ValueError, "k must be nonnegative, got -1"),
            ("symmetry", 0, TypeError, "symmetry must be DihedralElement, got int"),
        ],
    )
    def test_rejects_with_todays_messages(self, field, value, error, message):
        fields = {"family": Family.F1, "i": 0, "j": 0, "k": 0, "symmetry": ID}
        with pytest.raises(error) as info:
            Decomposition(**{**fields, field: value})
        assert str(info.value) == message

    def test_first_bad_field_is_named(self):
        with pytest.raises(TypeError, match="^family must be Family, got str$"):
            Decomposition("F1", -1, 0, 0, "id")
        with pytest.raises(ValueError, match="^i must be nonnegative, got -1$"):
            Decomposition(Family.F1, -1, True, 0, ID)


# The int dunders that the library's arithmetic, comparisons and hashing can reach.
DUNDERS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__floordiv__", "__mod__",
    "__neg__", "__int__", "__index__", "__lt__", "__le__", "__eq__", "__hash__",
)


def misreporting(name):
    """An int subclass whose `name` misreports: one more than int's result, or its negation."""
    method = getattr(int, name)

    def wrong(self, *args):
        result = method(self, *args)
        if result is NotImplemented:
            return result
        return not result if isinstance(result, bool) else result + 1

    return type(f"Wrong{name}", (int,), {name: wrong})


def leaves(value):
    """(type, value) of each field of a value type, recursively, and of each item of a tuple."""
    if dataclasses.is_dataclass(value):
        return [leaf for f in dataclasses.fields(value) for leaf in leaves(getattr(value, f.name))]
    if isinstance(value, tuple):
        return [leaf for item in value for leaf in leaves(item)]
    return [(type(value), value)]


def result_or_error(call, *args):
    try:
        return leaves(call(*args))
    except (TypeError, ValueError, MagicSquareError) as exc:
        return type(exc), str(exc)


def assert_as_plain(call, plain, wrapped):
    """call(*wrapped) stores only exact ints, and gives the result or error of call(*plain)."""
    got = result_or_error(call, *wrapped)
    assert got == result_or_error(call, *plain)
    if isinstance(got, list):
        assert all(kind is int for kind, value in got if isinstance(value, int))


# Entries near both ends of the range, and one past each end.
ints = st.one_of(st.integers(-2, 40), st.integers(ENTRY_MAX - 40, ENTRY_MAX + 2))


@st.composite
def entry_tuples(draw):
    """Nine ints: a magic square, maybe shifted to the top of the range or one past it, or nine equal, or any nine."""
    kind = draw(st.sampled_from(["magic", "equal", "any"]))
    if kind == "magic":
        entries = draw(magic_squares).entries
        shift = draw(st.sampled_from([0, ENTRY_MAX - max(entries) + draw(st.integers(-1, 1))]))
        return tuple(value + shift for value in entries)
    if kind == "equal":
        return (draw(ints),) * 9
    return tuple(draw(st.lists(ints, min_size=9, max_size=9)))


SQUARE_CALLS = (
    Square,
    lambda entries: format_square(Square(entries)),
    lambda entries: validate(Square(entries)),
    lambda entries: decompose(validate(Square(entries))),
    lambda entries: reduce(validate(Square(entries))),
)
DECOMPOSITION_CALLS = (Decomposition, lambda *fields: construct(Decomposition(*fields)))


@pytest.mark.parametrize("dunder", DUNDERS)
class TestIntSubclassesPastTheBoundary:
    """An int subclass whose one dunder misreports gives what plain ints give.

    `Square` and `Decomposition` store the exact int it holds, so every field
    past them is a plain int, and each call returns the plain-int result or
    raises the plain-int error.
    """

    @settings(max_examples=50, deadline=None)
    @given(entries=entry_tuples(), wrap=st.lists(st.booleans(), min_size=9, max_size=9))
    def test_square_calls(self, dunder, entries, wrap):
        wrong = misreporting(dunder)
        wrapped = tuple(wrong(value) if w else value for value, w in zip(entries, wrap))
        for call in SQUARE_CALLS:
            assert_as_plain(call, [entries], [wrapped])

    @settings(max_examples=50, deadline=None)
    @given(
        family=st.sampled_from(Family),
        coordinates=st.lists(ints, min_size=3, max_size=3),
        wrap=st.lists(st.booleans(), min_size=3, max_size=3),
        symmetry=st.sampled_from(DihedralElement),
    )
    def test_decomposition_calls(self, dunder, family, coordinates, wrap, symmetry):
        wrong = misreporting(dunder)
        wrapped = [wrong(value) if w else value for value, w in zip(coordinates, wrap)]
        for call in DECOMPOSITION_CALLS:
            assert_as_plain(call, [family, *coordinates, symmetry], [family, *wrapped, symmetry])


@pytest.mark.parametrize(
    "build, message",
    [
        # The first and third each once raised AttributeError naming a field of the square;
        # the second stored a MagicSquare as its own square.
        (lambda: MagicSquare((7, 0, 5, 2, 4, 6, 3, 8, 1), 12, 4), "square must be Square, got tuple"),
        (lambda: MagicSquare(validate(SEED_F1), 12, 4), "square must be Square, got MagicSquare"),
        (lambda: ReducedMagicSquare(SEED_F1, 1, 4), "square must be MagicSquare, got Square"),
        (lambda: ReducedMagicSquare(None, 1, 4), "square must be MagicSquare, got NoneType"),
        (lambda: dataclasses.replace(validate(SEED_F1), square=SEED_F1.entries), "square must be Square, got tuple"),
    ],
)
def test_checked_constructors_read_their_square_by_type(build, message):
    with pytest.raises(TypeError) as info:
        build()
    assert (type(info.value), str(info.value)) == (TypeError, message)


class TestScalarIntArguments:
    """Every int field of a value type, and `scale`'s factor, is read by the int rule, as s and i, j, k are."""

    @pytest.mark.parametrize(
        "magic_sum, s, error, message",
        [
            (12.0, 4.0, TypeError, "magic_sum must be int, got float"),
            (12, 4.0, TypeError, "s must be int, got float"),
            (True, 4, TypeError, "magic_sum must be int, got bool"),
            (-12, 4, ValueError, "magic_sum must be nonnegative, got -12"),
        ],
    )
    def test_magic_square_rejects_a_field_by_name(self, magic_sum, s, error, message):
        # A float pair that compared equal was once stored as it came.
        with pytest.raises(error) as info:
            MagicSquare(SEED_F1, magic_sum, s)
        assert (type(info.value), str(info.value)) == (error, message)

    def test_magic_square_stores_the_certificates_ints(self):
        m = MagicSquare(SEED_F1, Lying(12), misreporting("__eq__")(4))
        assert m == validate(SEED_F1) and (type(m.magic_sum), type(m.s)) == (int, int)

    def test_scale_reads_its_factor_as_the_int_it_holds(self):
        with pytest.raises(TypeError) as info:
            scale(True, ONES)
        assert (type(info.value), str(info.value)) == (TypeError, "scale factor must be int, got bool")
        with pytest.raises(ValueError, match="^scale factor must be nonnegative, got -1$"):
            scale(Lying(-1), ONES)
        # A factor that misreports its product once added 1 to every entry.
        assert scale(misreporting("__mul__")(2), SEED_F1) == scale(2, SEED_F1)

    @pytest.mark.parametrize(
        "cls, args, error, message",
        [
            # Each was accepted, or refused for another reason, before these fields followed the rule.
            (ReducedMagicSquare, (validate(SEED_F1), "x", -3.0), TypeError, "r must be int, got str"),
            (ReducedMagicSquare, (validate(SEED_F1), 1, -4), ValueError, "s must be nonnegative, got -4"),
            (ReducedMagicSquare, (validate(SEED_F1), 2, 4), ValueError, "the square has c3 1 and s 4"),
            (CountReport, (4.5, 8.0, 8, 8), TypeError, "s must be int, got float"),
            (CountReport, (4, 8, 8, 8, True), TypeError, "brute must be int, got bool"),
            (CountReport, (4, -8, -8, -8), ValueError, "closed_form must be nonnegative, got -8"),
            (RationalSeries, ((0.5,), (1,)), TypeError, "coefficient must be int, got float"),
            (RationalSeries, ((1,), (True, -1)), TypeError, "coefficient must be int, got bool"),
        ],
    )
    def test_the_other_value_types_reject_a_field_by_name(self, cls, args, error, message):
        with pytest.raises(error) as info:
            cls(*args)
        assert (type(info.value), str(info.value)) == (error, message)

    @pytest.mark.parametrize(
        "max_s, message",
        [
            (True, "max_s must be int, got bool"),
            (12.0, "max_s must be int, got float"),
            (4.5, "max_s must be int, got float"),
        ],
    )
    def test_selftest_reads_its_bound_by_the_rule(self, max_s, message):
        # A bool was once refused as too small, and a float by `range`, naming nothing.
        with pytest.raises(TypeError) as info:
            selftest.run(max_s, echo=lambda line: None)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "function, args, error, message",
        [
            # `expand` read True as 1 and returned [0], returned [] for -3,
            # and refused 2.0 by `range`'s TypeError, naming nothing.
            (expand, (magic_gf(), True), TypeError, "n must be int, got bool"),
            (expand, (magic_gf(), -3), ValueError, "n must be nonnegative, got -3"),
            (expand, (magic_gf(), 2.0), TypeError, "n must be int, got float"),
            # `Square.at` read True as row 1.
            (SEED_F1.at, (True, 0), TypeError, "row must be int, got bool"),
            (SEED_F1.at, (0, 1.0), TypeError, "col must be int, got float"),
            # A series that was not a `RationalSeries` once raised AttributeError naming its numerator.
            (expand, ((1,), 3), TypeError, "f must be RationalSeries, got tuple"),
        ],
    )
    def test_the_other_int_arguments_follow_the_rule(self, function, args, error, message):
        with pytest.raises(error) as info:
            function(*args)
        assert (type(info.value), str(info.value)) == (error, message)

    def test_the_other_value_types_store_the_ints_they_hold(self):
        reduced = ReducedMagicSquare(validate(SEED_F1), Lying(1), misreporting("__eq__")(4))
        report = CountReport(Lying(4), Lying(8), misreporting("__eq__")(8), misreporting("__hash__")(8), Lying(8))
        # Coefficients that misreport their arithmetic once made `expand` drift.
        series = RationalSeries((Lying(0), misreporting("__sub__")(8)), (1, misreporting("__mul__")(-1)))
        assert reduced == ReducedMagicSquare(validate(SEED_F1), 1, 4)
        assert report == CountReport(4, 8, 8, 8, 8)
        assert series == RationalSeries((0, 8), (1, -1))
        assert expand(series, 6) == [0, 8, 8, 8, 8, 8]
        for value in (reduced, report, series):
            assert {kind for kind, leaf in leaves(value)} == {int}


def parse_by_token(text):
    """The per-token parser `parse_square` short-cuts: the reference its outcomes must match."""
    tokens = text.replace(",", " ").replace(";", " ").split()
    if len(tokens) != 9:
        raise ValueError(f"expected 9 entries, got {len(tokens)}")
    values = []
    for token in tokens:
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"entry {token!r} is not a string of ASCII digits 0-9")
        digits = token.lstrip("0") or "0"
        if len(digits) > 20 or int(digits) > ENTRY_MAX:
            raise ValueError(f"entry {digits} exceeds the unsigned 64-bit range")
        values.append(int(digits))
    return Square(tuple(values))


def outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return type(exc), str(exc)


tokens = st.one_of(
    st.integers(0, 2**66).map(str),
    st.text(alphabet="0123456789", min_size=1, max_size=24),
    st.sampled_from([
        "+8", "8_0", "-1", "1.5", "0x10", "2**64", "٨", "1٠", "１", "¹",
        str(ENTRY_MAX), str(ENTRY_MAX + 1), "0" * 30 + "7",
        # Past int's default limit of 4,300 digits.
        "0" * 4400 + "1", "1" * 4400,
    ]),
)
separators = st.sampled_from([" ", ",", ";", " ; ", ", ", "\t", "\n", ",,", ""])


@st.composite
def square_texts(draw):
    words = draw(st.one_of(st.lists(tokens, min_size=9, max_size=9), st.lists(tokens, max_size=11)))
    text = draw(separators)
    for word in words:
        text += word + draw(separators.filter(bool))
    return text


class TestParserEquivalence:
    @given(square_texts())
    @example("7 0 5 2 4 6 3 8 1")
    @example("18446744073709551616 " + "1" * 4400 + " 5 2 4 6 3 8 1")
    @example("1" * 4400 + " 18446744073709551616 5 2 4 6 3 8 1")
    @example("0" * 4400 + "7 0 5 2 4 6 3 8 1")
    @example("7 0 5 2 4 6 3 8 +1")
    @example("")
    def test_matches_the_per_token_parser(self, text):
        assert outcome(parse_square, text) == outcome(parse_by_token, text)


# Entries near both ends of the range, each written with up to three leading zeros.
entry_texts = st.builds(
    lambda value, zeros: "0" * zeros + str(value),
    st.one_of(st.integers(0, 2**10), st.integers(ENTRY_MAX - 2**10, ENTRY_MAX), st.integers(0, ENTRY_MAX)),
    st.integers(0, 3),
)
bad_entry_texts = st.sampled_from([
    str(ENTRY_MAX + 1), "000" + str(ENTRY_MAX + 1), "1" * 21, "+8", "8_0", "-1", "٨",
    "0" * 4400 + str(ENTRY_MAX + 1),
])


class TestParsedSquareMint:
    """`parse_square` mints its `Square` unchecked: the value must be the checked one."""

    @given(st.lists(entry_texts, min_size=9, max_size=9), separators.filter(bool))
    @example([str(ENTRY_MAX)] * 9, " ")
    # 9 x 23 digits, past the one-pass path's 180: the per-token loop reads it.
    @example(["000" + str(ENTRY_MAX)] * 9, ", ")
    def test_valid_text_gives_the_checked_square_of_exact_ints(self, words, separator):
        square = parse_square(separator.join(words))
        assert square == Square(tuple(map(int, words)))
        assert [type(value) for value in square.entries] == [int] * 9

    @given(st.lists(entry_texts, min_size=9, max_size=9), st.integers(0, 8), bad_entry_texts)
    def test_a_rejection_keeps_its_type_and_message(self, words, index, bad):
        words[index] = bad
        text = " ".join(words)
        with pytest.raises(ValueError):
            parse_square(text)
        assert outcome(parse_square, text) == outcome(parse_by_token, text)
