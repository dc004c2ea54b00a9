"""The certificate boundary: every `MagicSquare` is certified.

Building a `MagicSquare` by hand, or copying one by `dataclasses.replace`,
runs `validate`'s checks: a square that is not magic raises as `validate`
does, and a magic_sum or s that disagrees with the square raises ValueError.
So a forged certificate cannot be built.  Only `validate`, `construct` and
`reduce` mint through `core._certify`, which checks nothing: `construct` by
the cone argument of `test_decompose.py::TestConeProof`, `reduce` because a
dihedral image of a magic square, less its minimum, is magic.  The consumers
`canonical_symmetry`, `reduce` and `decompose` never call `validate`.
"""

import importlib
import pkgutil
import subprocess
import sys
from dataclasses import replace

import pytest

import magic3
from magic3 import (
    SEED_F1,
    SEED_F2,
    Decomposition,
    DihedralElement,
    Family,
    MagicSquare,
    MagicSquareError,
    NotMagicError,
    Square,
    canonical_symmetry,
    cli,
    construct,
    decompose,
    iter_brute_squares,
    iter_family_squares,
    reduce,
    selftest,
    validate,
)

CONSUMERS = {"canonical_symmetry": canonical_symmetry, "reduce": reduce, "decompose": decompose}

LO_SHU = Square((8, 1, 6, 3, 5, 7, 4, 9, 2))
# Two smallest corners, 1 at a1 and 2 at c3, facing each other; row 2 sums to 27.
OPPOSITE_CORNERS = Square((1, 9, 5, 9, 9, 9, 4, 9, 2))
# Distinct entries whose smallest corners, 1 and 3, are neighbours; row 2 sums to 15.
OFF_BY_ONE = Square((1, 2, 3, 4, 5, 6, 7, 8, 10))
ZERO = Square((0,) * 9)
FORGED = {"opposite corners": OPPOSITE_CORNERS, "off by one": OFF_BY_ONE, "zero": ZERO}

# Each way a library caller comes by a certificate.
SOURCES = {
    "validate": lambda: validate(SEED_F2),
    "construct": lambda: construct(Decomposition(Family.F2, 1, 2, 3, DihedralElement.R90)),
    "family stream": lambda: next(iter_family_squares(5)),
    "brute stream": lambda: next(iter_brute_squares(5)),
    # The Lo Shu square reduces to SEED_F1.
    "reduce": lambda: reduce(validate(LO_SHU))[0].square,
    "hand-built": lambda: MagicSquare(SEED_F2, 15, 5),
    "replace copy": lambda: replace(validate(SEED_F1)),
}


@pytest.fixture
def validate_calls(monkeypatch):
    """Every square passed to `core.validate` from the package, whichever module calls it."""
    calls = []

    def counting(x):
        calls.append(x.entries)
        return validate(x)

    # The package loads its counting routes on first use: load every module
    # (but `__main__`, which runs the CLI) now, so that none comes in later
    # with the real `validate`.
    for module in pkgutil.iter_modules(magic3.__path__):
        if module.name != "__main__":
            importlib.import_module(f"magic3.{module.name}")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "magic3" and getattr(module, "validate", None) is validate:
            monkeypatch.setattr(module, "validate", counting)
    return calls


def forged_error(grid):
    """The exception type and message `validate` raises on a grid that is not magic."""
    with pytest.raises(MagicSquareError) as info:
        validate(grid)
    return type(info.value), str(info.value)


def raised(build):
    """The exception type and message a call raises."""
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


class TestValidatedOnce:
    @pytest.mark.parametrize("verb", ["verify", "reduce", "decompose"])
    def test_cli_verb_validates_its_square_once(self, verb, validate_calls, capsys):
        assert cli.main([verb, *map(str, LO_SHU.entries)]) == 0
        assert validate_calls == [LO_SHU.entries]

    def test_selftest_round_trips_validate_nothing(self, validate_calls):
        selftest.run(4, echo=lambda line: None)
        assert validate_calls == []

    @pytest.mark.parametrize(
        "source, expected",
        [
            ("construct", []),
            ("reduce", []),
            ("hand-built", [SEED_F2.entries]),
            ("replace copy", [SEED_F1.entries]),
        ],
    )
    def test_only_a_hand_built_or_copied_certificate_is_validated(
        self, source, expected, validate_calls
    ):
        SOURCES[source]()
        assert validate_calls == expected


class TestCertificatesAreTrusted:
    @pytest.mark.parametrize("source", sorted(SOURCES))
    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_consumer_validates_nothing(self, name, source, validate_calls):
        magic = SOURCES[source]()
        validate_calls.clear()
        CONSUMERS[name](magic)
        assert validate_calls == []

    def test_round_trip_validates_nothing(self, validate_calls):
        magic = validate(SEED_F2)
        assert construct(decompose(magic)) == magic
        assert validate_calls == []

    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_a_bare_square_is_no_certificate(self, name):
        with pytest.raises(AttributeError):
            CONSUMERS[name](SEED_F1)


class TestForgeriesCannotBeBuilt:
    @pytest.mark.parametrize("grid", FORGED.values(), ids=FORGED.keys())
    def test_built_and_replaced_forgeries_raise_as_validate_does(self, grid):
        expected = forged_error(grid)
        assert raised(lambda: MagicSquare(grid, 15, 5)) == expected
        assert raised(lambda: MagicSquare(square=grid, magic_sum=15, s=5)) == expected
        assert raised(lambda: replace(validate(SEED_F1), square=grid)) == expected

    def test_neighbouring_smallest_corners_do_not_hide_a_bad_line(self):
        # Its smallest corners are neighbours, so only the line sums refuse it.
        with pytest.raises(NotMagicError, match="row 2 sums to 15, expected 6"):
            MagicSquare(OFF_BY_ONE, 6, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: MagicSquare(SEED_F1, 12, 5),
            lambda: MagicSquare(SEED_F1, 15, 4),
            lambda: MagicSquare(SEED_F1, 15, 5),
            lambda: replace(validate(SEED_F1), s=5),
            lambda: replace(validate(SEED_F1), magic_sum=13),
            lambda: replace(validate(SEED_F1), square=SEED_F2),
        ],
    )
    def test_a_magic_sum_or_s_that_disagrees_raises_value_error(self, build):
        with pytest.raises(ValueError, match=r"^the square has magic_sum 1[25] and s [45]$"):
            build()

    def test_boundary_holds_under_optimize(self):
        code = (
            "import sys\n"
            "from dataclasses import replace\n"
            "import magic3 as M\n"
            "calls, real = [], M.validate\n"
            "def counting(x):\n"
            "    calls.append(x)\n"
            "    return real(x)\n"
            "for name, module in list(sys.modules.items()):\n"
            "    if name.split('.')[0] == 'magic3' and getattr(module, 'validate', None) is real:\n"
            "        module.validate = counting\n"
            "minted = M.construct(M.Decomposition(M.Family.F2, 0, 0, 0, M.DihedralElement.ID))\n"
            "for fn in (M.canonical_symmetry, M.reduce, M.decompose):\n"
            "    fn(minted)\n"
            "print(len(calls))\n"
            f"for bad in {[grid.entries for grid in FORGED.values()]}:\n"
            "    for build in (lambda: M.MagicSquare(M.Square(bad), 15, 5),\n"
            "                  lambda: replace(minted, square=M.Square(bad))):\n"
            "        try:\n"
            "            build()\n"
            "        except M.MagicSquareError as exc:\n"
            "            print(type(exc).__name__, exc)\n"
            "try:\n"
            "    M.MagicSquare(M.SEED_F1, 12, 5)\n"
            "except ValueError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        lines = [f"{error.__name__} {text}" for error, text in map(forged_error, FORGED.values())]
        # The consumers make no call; two forgeries per grid, then the bad s.
        expected = ["0", *(line for line in lines for _ in range(2))]
        expected.append("ValueError the square has magic_sum 12 and s 4")
        assert (result.returncode, result.stdout.splitlines()) == (0, expected), result.stderr
