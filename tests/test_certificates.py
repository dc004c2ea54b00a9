"""The certificate boundary: `validate` mints, and the consumers trust only its mint.

`canonical_symmetry`, `reduce` and `decompose` take a `MagicSquare` that
`validate` returned as it is, as the `iter_*_squares` streams and `reduce`
yield them, and validate any other one on entry: built by hand or copied by
`dataclasses.replace`.  So every square reaching their bodies has passed
`validate` exactly once.  `reduce` mints its reduced square by one more
`validate` call, on its result.
"""

import contextlib
import importlib
import io
import subprocess
import sys
from dataclasses import replace

import pytest

from magic3 import (
    SEED_F1,
    SEED_F2,
    DuplicateEntriesError,
    MagicSquare,
    NotMagicError,
    Square,
    canonical_symmetry,
    cli,
    construct,
    count_closed,
    decompose,
    iter_brute_squares,
    iter_family_squares,
    reduce,
    selftest,
    validate,
)

# The package re-exports functions named like two of its modules.
canonical_module = importlib.import_module("magic3.canonical")
decompose_module = importlib.import_module("magic3.decompose")

CONSUMERS = {"canonical_symmetry": canonical_symmetry, "reduce": reduce, "decompose": decompose}

# Two smallest corners, 1 at a1 and 2 at c3, facing each other; row 2 sums to 27.
OPPOSITE_CORNERS = Square((1, 9, 5, 9, 9, 9, 4, 9, 2))
# Distinct entries whose smallest corners, 1 and 3, are neighbours; row 2 sums to 15.
OFF_BY_ONE = Square((1, 2, 3, 4, 5, 6, 7, 8, 10))
ZERO = Square((0,) * 9)


@pytest.fixture
def validate_calls(monkeypatch):
    """Every square passed to `validate` from the cli, canonical or decompose namespaces."""
    calls = []

    def counting(x):
        calls.append(x.entries)
        return validate(x)

    for module in (cli, canonical_module, decompose_module):
        monkeypatch.setattr(module, "validate", counting)
    return calls


def mints(result):
    """The `validate` calls a consumer makes on its own result: `reduce` mints its reduced square."""
    return [result[0].entries] if isinstance(result, tuple) else []


def run_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class TestValidatedOnce:
    @pytest.mark.parametrize("verb", ["verify", "reduce", "decompose"])
    def test_cli_verb_validates_its_square_once(self, verb, validate_calls):
        rc, _ = run_main([verb, "8", "1", "6", "3", "5", "7", "4", "9", "2"])
        assert rc == 0
        # The reduced square of this one is SEED_F1.
        reduced = [SEED_F1.entries] if verb == "reduce" else []
        assert validate_calls == [(8, 1, 6, 3, 5, 7, 4, 9, 2), *reduced]

    def test_selftest_validates_once_per_round_trip(self, validate_calls):
        selftest.run(4, echo=lambda line: None)
        # Only s = 4 has squares: the seed of F1 under the eight symmetries.
        assert len(validate_calls) == sum(count_closed(s) for s in range(5)) == 8
        assert len(set(validate_calls)) == 8


class TestMintedIsTrusted:
    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_minted_certificate_is_not_validated_again(self, name, validate_calls):
        magic = validate(SEED_F2)
        validate_calls.clear()
        result = CONSUMERS[name](magic)
        assert validate_calls == mints(result)

    def test_round_trip_validates_in_construct_only(self, validate_calls):
        magic = construct(decompose(validate(SEED_F2)))
        assert validate_calls == [SEED_F2.entries]
        validate_calls.clear()
        decompose(magic)
        assert validate_calls == []

    @pytest.mark.parametrize("stream", [iter_family_squares, iter_brute_squares])
    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_stream_certificate_is_not_validated_again(self, name, stream, validate_calls):
        magic = next(stream(5))
        validate_calls.clear()
        result = CONSUMERS[name](magic)
        assert validate_calls == mints(result)

    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_reduced_certificate_is_not_validated_again(self, name, validate_calls):
        # The Lo Shu square reduces to SEED_F1, which `reduce` fixes.
        reduced = reduce(validate(Square((8, 1, 6, 3, 5, 7, 4, 9, 2))))[0].square
        assert getattr(reduced, "_minted", False)
        validate_calls.clear()
        result = CONSUMERS[name](reduced)
        assert validate_calls == mints(result)

    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_unminted_certificate_is_validated_once(self, name, validate_calls):
        magic = MagicSquare(SEED_F2, 15, 5)
        result = CONSUMERS[name](magic)
        assert validate_calls == [magic.entries, *mints(result)]

    @pytest.mark.parametrize("name", sorted(CONSUMERS))
    def test_replace_copy_of_a_minted_certificate_is_validated(self, name, validate_calls):
        copy = replace(validate(SEED_F1))
        validate_calls.clear()
        result = CONSUMERS[name](copy)
        assert validate_calls == [SEED_F1.entries, *mints(result)]


class TestForgeriesAreRejected:
    @pytest.mark.parametrize(
        "name, grid, error",
        [
            ("canonical_symmetry", OPPOSITE_CORNERS, NotMagicError),
            ("reduce", OPPOSITE_CORNERS, NotMagicError),
            ("decompose", OPPOSITE_CORNERS, NotMagicError),
            ("reduce", ZERO, DuplicateEntriesError),
            ("decompose", ZERO, DuplicateEntriesError),
            ("reduce", OFF_BY_ONE, NotMagicError),
            ("decompose", OFF_BY_ONE, NotMagicError),
        ],
    )
    def test_hand_built_and_replaced_certificates(self, name, grid, error):
        fn = CONSUMERS[name]
        with pytest.raises(error):
            fn(MagicSquare(grid, 15, 5))
        with pytest.raises(error):
            fn(replace(validate(SEED_F1), square=grid))

    def test_canonical_symmetry_rejects_any_unminted_non_magic_grid(self):
        # Its smallest corners are neighbours, so only validation can refuse it.
        with pytest.raises(NotMagicError, match="row 2 sums to 15, expected 6"):
            canonical_symmetry(MagicSquare(OFF_BY_ONE, 6, 2))

    def test_boundary_holds_under_optimize(self):
        code = (
            "import importlib\n"
            "from dataclasses import replace\n"
            "import magic3 as M\n"
            "C = importlib.import_module('magic3.canonical')\n"
            "D = importlib.import_module('magic3.decompose')\n"
            "calls = []\n"
            "def counting(x):\n"
            "    calls.append(x)\n"
            "    return M.validate(x)\n"
            "C.validate = D.validate = counting\n"
            "minted = M.validate(M.SEED_F2)\n"
            "bad = M.Square((1, 9, 5, 9, 9, 9, 4, 9, 2))\n"
            "for fn in (M.canonical_symmetry, M.reduce, M.decompose):\n"
            "    fn(minted)\n"
            "    for forged in (M.MagicSquare(bad, 15, 5), replace(minted, square=bad)):\n"
            "        try:\n"
            "            fn(forged)\n"
            "        except M.MagicSquareError as exc:\n"
            "            print(fn.__name__, type(exc).__name__)\n"
            "print(len(calls))\n"
        )
        result = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        expected = "".join(
            f"{name} NotMagicError\n" * 2 for name in ("canonical_symmetry", "reduce", "decompose")
        )
        # Two forgeries per consumer, and `reduce` minting its result from `minted`.
        assert (result.returncode, result.stdout) == (0, expected + "7\n"), result.stderr
