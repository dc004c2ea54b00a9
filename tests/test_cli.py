import contextlib
import io
import json
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace

import pytest

from magic3 import (
    SEED_F1,
    DihedralElement,
    EntryRangeError,
    MagicSquareError,
    MismatchError,
    Square,
    cli,
    enumeration,
    format_square,
    iter_brute_squares,
    iter_family_squares,
    selftest,
    validate,
)
from magic3.enumeration import COUNT_MAX_S
from test_enumeration import slipped_zip

T1_TEXT = "7 0 5 2 4 6 3 8 1"
T2_TEXT = "8 0 7 4 5 6 3 10 2"


def run_cli(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "magic3", *args]
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)


def main_stdout(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of cli.main run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


def certified_full_sweep(s: int):
    """Every (a1, a2) in [0, 2s]^2 with its forced cells, kept if `validate(Square(grid))` passes.

    This is how the brute-force stream was certified before its sweep checked
    its own grids: no bounded a2 range, no inline line sums.
    """
    for a1 in range(2 * s + 1):
        for a2 in range(2 * s + 1):
            b1 = 4 * s - 2 * a1 - a2
            grid = (a1, a2, 3 * s - a1 - a2, b1, s, 2 * s - b1, a1 + a2 - s, 2 * s - a2, 2 * s - a1)
            try:
                yield validate(Square(grid)).entries
            except MagicSquareError:
                pass


def first_full_sweep_grid(s: int) -> tuple[int, ...]:
    """The first grid of `certified_full_sweep(s)` for s >= 4, ignoring the entry range.

    Past the 64-bit range that sweep cannot be walked (its a1 = 0 row alone has
    2s + 1 pairs); `test_first_full_sweep_grid_has_a_closed_form` checks this
    form against the walk at small s.
    """
    return (1, 2 * s - 2, s + 1, 2 * s, s, 0, s - 1, 2, 2 * s - 1)


class NullWriter:
    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def enumerate_peak_bytes(s: int, source: str) -> int:
    """tracemalloc peak of `enumerate s` with its output thrown away."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(NullWriter()):
            assert cli.main(["enumerate", str(s), "--source", source]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVerify:
    def test_accepts_magic_square(self):
        result = run_cli("verify", *T1_TEXT.split())
        assert result.returncode == 0
        assert result.stdout == "magic m=12 s=4\n"

    def test_rejects_duplicates_with_exit_two(self):
        result = run_cli("verify", *(["0"] * 9))
        assert result.returncode == 2
        assert "appears more than once" in result.stdout

    def test_parse_failure_exits_one(self):
        result = run_cli("verify", "1", "2", "3")
        assert result.returncode == 1

    def test_tokens_past_the_int_digit_limit(self):
        # 4,400 digits is past the 4,300 that `int` converts by default.
        rest = T1_TEXT.split()[1:]
        result = run_cli("verify", "0" * 4400 + "7", *rest)
        assert (result.returncode, result.stdout) == (0, "magic m=12 s=4\n")
        result = run_cli("verify", "1" * 4400, *rest)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == f"magic3: error: entry {'1' * 4400} exceeds the unsigned 64-bit range\n"

    def test_accepts_comma_and_semicolon_text(self):
        result = run_cli("verify", "7,0,5;", "2,4,6;", "3,8,1")
        assert result.returncode == 0
        assert result.stdout == "magic m=12 s=4\n"


class TestDecomposeConstruct:
    def test_decompose_second_seed(self):
        result = run_cli("decompose", *T2_TEXT.split())
        assert result.returncode == 0
        assert result.stdout == '{"family":"F2","i":0,"j":0,"k":0,"symmetry":"id"}\n'

    def test_construct_first_seed(self):
        result = run_cli("construct", "--family", "F1", "--i", "0", "--j", "0", "--k", "0")
        assert result.returncode == 0
        assert result.stdout == T1_TEXT + "\n"

    def test_construct_interior_point(self):
        result = run_cli("construct", "--family", "F2", "--i", "1", "--j", "2", "--k", "3")
        assert result.stdout == "28 1 25 15 18 21 11 35 8\n"

    def test_construct_with_symmetry(self):
        result = run_cli(
            "construct", "--family", "F1", "--i", "0", "--j", "0", "--k", "0", "--sym", "fh"
        )
        assert result.stdout == "3 8 1 2 4 6 7 0 5\n"

    def test_decompose_rejects_non_magic(self):
        result = run_cli("decompose", "1", "2", "3", "4", "5", "6", "7", "8", "9")
        assert result.returncode == 2

    def test_negative_coefficient_is_usage_error(self):
        result = run_cli("construct", "--family", "F1", "--i", "-1", "--j", "0", "--k", "0")
        assert result.returncode == 1

    def test_pipe_round_trip_reproduces_square(self):
        square = "11 35 8 15 18 21 28 1 25".split()
        decomposed = run_cli("decompose", *square)
        assert decomposed.returncode == 0
        d = json.loads(decomposed.stdout)
        rebuilt = run_cli(
            "construct",
            "--family", d["family"],
            "--i", str(d["i"]),
            "--j", str(d["j"]),
            "--k", str(d["k"]),
            "--sym", d["symmetry"],
        )
        assert rebuilt.stdout.split() == square


class TestReduce:
    def test_reports_translation_and_symmetry(self):
        # SEED_F2 rotated a quarter turn and lifted by 2
        result = run_cli("reduce", "5", "6", "10", "12", "7", "2", "4", "8", "9")
        assert result.returncode == 0
        obj = json.loads(result.stdout)
        assert obj == {"reduced": [8, 0, 7, 4, 5, 6, 3, 10, 2], "i": 2, "symmetry": "r270"}


class TestEnumerate:
    def test_text_output(self):
        result = run_cli("enumerate", "4")
        lines = result.stdout.splitlines()
        assert len(lines) == 8
        assert lines[0] == T1_TEXT

    def test_json_output(self):
        result = run_cli("enumerate", "4", "--format", "json")
        squares = json.loads(result.stdout)
        assert len(squares) == 8
        assert squares[0] == [7, 0, 5, 2, 4, 6, 3, 8, 1]

    def test_brute_source_same_set(self):
        families = run_cli("enumerate", "6", "--format", "json")
        brute = run_cli("enumerate", "6", "--source", "brute", "--format", "json")
        fam = {tuple(sq) for sq in json.loads(families.stdout)}
        bru = {tuple(sq) for sq in json.loads(brute.stdout)}
        assert fam == bru and len(fam) == 32

    def test_empty_below_threshold(self):
        result = run_cli("enumerate", "3")
        assert result.returncode == 0
        assert result.stdout == ""

    def test_deterministic_output(self):
        first = run_cli("enumerate", "6")
        second = run_cli("enumerate", "6")
        assert first.stdout == second.stdout

    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_stream_matches_collected_rendering(self, source):
        collect = iter_brute_squares if source == "brute" else iter_family_squares
        for s in range(0, 41):
            squares = tuple(collect(s))
            text = "".join(format_square(m.square) + "\n" for m in squares)
            array = json.dumps([list(m.entries) for m in squares], separators=(",", ":")) + "\n"
            for fmt, expected in (("text", text), ("json", array)):
                assert main_stdout(["enumerate", str(s), "--source", source, "--format", fmt]) == (0, expected)

    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_entry_range_rejected_at_once(self, source):
        # 2s is one past the 64-bit range; the brute sweep used to walk about
        # s pairs before its first grid, and hang.
        result = run_cli("enumerate", str(2**63), "--source", source, timeout=10)
        assert result.returncode == 2
        assert result.stdout == f"rejected: entry {2**64} exceeds the unsigned 64-bit range\n"

    @pytest.mark.parametrize("s", [*range(0, 41), 230])
    def test_brute_source_matches_the_validated_full_sweep(self, s):
        grids = list(certified_full_sweep(s))
        text = "".join(" ".join(map(str, grid)) + "\n" for grid in grids)
        array = json.dumps([list(grid) for grid in grids], separators=(",", ":")) + "\n"
        for fmt, expected in (("text", text), ("json", array)):
            assert main_stdout(["enumerate", str(s), "--source", "brute", "--format", fmt]) == (0, expected)

    def test_first_full_sweep_grid_has_a_closed_form(self):
        for s in range(4, 61):
            assert next(certified_full_sweep(s)) == first_full_sweep_grid(s)

    @pytest.mark.parametrize("s", [2**63, 2**63 + 1, 2**63 + 7])
    def test_brute_range_error_is_the_one_square_raises_on_the_first_grid(self, s):
        with pytest.raises(EntryRangeError) as info:
            Square(first_full_sweep_grid(s))
        result = run_cli("enumerate", str(s), "--source", "brute", timeout=10)
        assert (result.returncode, result.stdout) == (2, f"rejected: {info.value}\n")

    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_memory_does_not_grow_with_s(self, source):
        enumerate_peak_bytes(4, source)  # first-call set-up, not counted
        small = enumerate_peak_bytes(40, source)
        large = enumerate_peak_bytes(120, source)
        assert large <= 1.5 * small + 0.5 * 2**20


class TestCount:
    def test_with_brute_force(self):
        result = run_cli("count", "12")
        assert result.stdout == '{"s":12,"closed":208,"series":208,"families":208,"brute":208}\n'

    def test_without_brute_force(self):
        result = run_cli("count", "12", "--no-brute")
        assert result.stdout == '{"s":12,"closed":208,"series":208,"families":208,"brute":null}\n'

    @pytest.mark.parametrize("flags", [[], ["--no-brute"]])
    @pytest.mark.parametrize("s", [COUNT_MAX_S + 1, 2**63])
    def test_refuses_an_s_past_the_cap_at_once(self, s, flags):
        result = run_cli("count", str(s), *flags, timeout=10)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            f"magic3: error: s must be at most {COUNT_MAX_S}, got {s}: "
            "count keeps (2s+1)**2 bytes of cell marks, at most 256 MiB\n"
        )

    def test_help_states_the_memory_bound(self):
        result = run_cli("count", "--help")
        assert "(2s+1)**2 bytes" in result.stdout
        assert f"s above {COUNT_MAX_S}" in result.stdout

    def test_memory_is_the_cell_marks(self):
        # (2s+1)**2 = 231,361 bytes of marks at s = 240, where a set of the
        # family grids took 18.4 MB.
        tracemalloc.start()
        try:
            rc, out = main_stdout(["count", "240"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        counts = '"closed":113600,"series":113600,"families":113600,"brute":113600'
        assert (rc, out) == (0, '{"s":240,' + counts + "}\n")
        assert peak < 2**20

    def test_mismatch_names_the_verb(self, monkeypatch):
        monkeypatch.setattr(enumeration, "zip", slipped_zip, raising=False)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = main_stdout(["count", "10"])
        assert (rc, out) == (3, "")
        assert err.getvalue().startswith(
            "count failed: brute-force grid at s=10 has a line sum other than 30\n"
        )


class TestSelftest:
    def test_passes_quickly(self):
        result = run_cli("selftest", "--max-s", "12")
        assert result.returncode == 0
        assert result.stdout.endswith("selftest ok max_s=12\n")

    def test_passes_at_thirty_within_budget(self):
        start = time.perf_counter()
        result = run_cli("selftest", "--max-s", "30")
        assert result.returncode == 0
        assert result.stdout.endswith("selftest ok max_s=30\n")
        assert time.perf_counter() - start < 10.0

    def test_memory_does_not_grow_with_max_s(self):
        # With no table of the squares seen, the peak is the last reconcile's
        # cell marks: 8,281 bytes at 45, where a table of every square is 12.8 MB.
        tracemalloc.start()
        try:
            selftest.run(45, echo=lambda line: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000

    def test_round_trip_catches_a_construct_that_ignores_the_symmetry(self, monkeypatch):
        # Every symmetry of a lattice point then builds the same square, which
        # the round trip alone must catch: decompose returns one symmetry.
        real = selftest.construct
        monkeypatch.setattr(
            selftest, "construct", lambda d: real(replace(d, symmetry=DihedralElement.ID))
        )
        with pytest.raises(MismatchError) as info:
            selftest.run(5, echo=lambda line: None)
        assert info.value.square == SEED_F1.entries
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = main_stdout(["selftest", "--max-s", "5"])
        assert rc == 3
        assert out == "".join(f"s={s} count=0 ok\n" for s in range(4))
        assert "counterexample: 7 0 5 2 4 6 3 8 1" in err.getvalue()

    def test_too_small_bound_is_usage_error(self):
        result = run_cli("selftest", "--max-s", "3")
        assert result.returncode == 1

    def test_bound_past_the_count_cap_is_usage_error(self):
        result = run_cli("selftest", "--max-s", str(COUNT_MAX_S + 1), timeout=10)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == (
            f"magic3: error: --max-s must be at most {COUNT_MAX_S}, got {COUNT_MAX_S + 1}\n"
        )


class TestUsage:
    def test_unknown_verb(self):
        result = run_cli("frobnicate")
        assert result.returncode == 1

    def test_no_verb(self):
        result = run_cli()
        assert result.returncode == 1

    @pytest.mark.parametrize("argv", [["count", "-1"], ["count", "-1", "--no-brute"], ["enumerate", "-1"]])
    def test_negative_s_is_usage_error(self, argv):
        result = run_cli(*argv, timeout=10)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "magic3: error: s must be nonnegative, got -1\n"
