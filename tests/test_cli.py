import contextlib
import errno
import io
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import cache
from operator import attrgetter

import pytest

from magic3 import (
    SEED_F1,
    DihedralElement,
    EntryRangeError,
    MagicSquareError,
    MismatchError,
    Square,
    cli,
    construct,
    count_closed,
    enumeration,
    format_square,
    iter_brute_grids,
    iter_decompositions,
    iter_family_grids,
    selftest,
    validate,
)
from magic3.enumeration import COUNT_MAX_S
from magic3.decompose import Family, base_grid
from test_enumeration import (
    SEED_EDITS,
    ZERO_SUM,
    edit_seed,
    plus,
    shifted_forced_grid,
    slipped_forced_grid,
)

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


class FirstWrite(Exception):
    """Raised by `FirstWriteStdout` to stop a command at its first write."""


class FirstWriteStdout:
    """A stdout that keeps the first text written to it and stops the writer there."""

    text = None

    def write(self, text: str) -> int:
        self.text = text
        raise FirstWrite


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


class WriteLog:
    """A stdout that keeps each text written to it."""

    def __init__(self) -> None:
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


class SquareCounter:
    """A stdout that counts the squares written to it, and keeps what kind of write each was.

    A write is "lines" if it is whole nonempty text lines, or the "[[" or
    ",[" it starts with if it is a JSON piece: rows with no "[]" in them.
    Any other write, such as "\n", "[]\n" or a lone ",[", is kept whole.
    """

    def __init__(self, fmt: str) -> None:
        self.json, self.squares, self.kinds = fmt == "json", 0, []

    def write(self, text: str) -> int:
        if self.json and text[:2] in ("[[", ",[") and text.endswith("]") and "[]" not in text:
            self.squares += text.count("]")
            self.kinds.append(text[:2])
        elif not self.json and text[:1] not in ("", "\n") and text.endswith("\n") and "\n\n" not in text:
            self.squares += text.count("\n")
            self.kinds.append("lines")
        else:
            self.kinds.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@cache
def collected_renderings(s: int) -> dict[str, tuple[tuple[str, str], ...]]:
    """(format, stdout) of `enumerate s` for each source, as the collected squares render it.

    Built once per test session.  The squares are built one at a time, by
    `construct` on each of `iter_decompositions(s)`, so that no piece of a
    lattice row or of the sweep is shared with the renderer under test, and
    no piece size or name table bound is read.  The brute sweep walks
    (a1, a2) in order, the sort order of its grids, so it renders the same
    squares sorted by entries.
    """
    families = [construct(d) for d in iter_decompositions(s)]
    renderings = {}
    for source, squares in (("families", families), ("brute", sorted(families, key=attrgetter("entries")))):
        text = "".join(format_square(m.square) + "\n" for m in squares)
        array = json.dumps([list(m.entries) for m in squares], separators=(",", ":")) + "\n"
        renderings[source] = (("text", text), ("json", array))
    return renderings


def first_write_peak_bytes(s: int, source: str, fmt: str) -> int:
    """tracemalloc peak of `enumerate s` up to its first write, where it is stopped."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(FirstWriteStdout()), pytest.raises(FirstWrite):
            cli.main(["enumerate", str(s), "--source", source, "--format", fmt])
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        # 230 and 269 are the ends of the benchmark's band of s.
        for s in (*range(0, 41), 230, 269):
            for fmt, expected in collected_renderings(s)[source]:
                assert main_stdout(["enumerate", str(s), "--source", source, "--format", fmt]) == (0, expected)

    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_str_names_past_the_table_bound(self, source, monkeypatch):
        # Unpatched, only s = 2**63 - 1 among the tested s calls `str` on each
        # value; with the bound at 10, every s from 5 on does.
        monkeypatch.setattr(cli, "_NAME_TABLE_BOUND", 10)
        for s in (*range(0, 41), 230):
            for fmt, expected in collected_renderings(s)[source]:
                assert main_stdout(["enumerate", str(s), "--source", source, "--format", fmt]) == (0, expected)

    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_pieces_of_eight(self, source, monkeypatch):
        # With pieces of eight grids, a family piece is one lattice point, and
        # every a1 row longer than eight spans several pieces; cuts fall on
        # each offset of a piece (checked below), so a run that crosses a
        # piece edge or a cut that is dropped shows.  Some brute pieces would
        # be all cuts (two at s = 6); none is yielded, so every piece, of
        # either source, holds a grid.
        monkeypatch.setattr(enumeration, "_PIECE", 8)
        offsets = {c % 8 for s in range(0, 41) for _, _, n, cuts in enumeration._brute_rows(s) if len(cuts) < n for c in cuts}
        assert offsets == set(range(8))
        # `enumerate` reads its stream off `enumeration` when it runs; a
        # piece's size is the number of grids that the library builds from
        # it, eight per point of a family piece.
        name = "_brute_pieces" if source == "brute" else "_family_pieces"
        stream, sizes = getattr(enumeration, name), []
        rows, per_row = (enumeration._brute_grids, 1) if source == "brute" else (enumeration._family_points, 8)

        def recording(s):
            for piece in stream(s):
                sizes.append(per_row * len(list(rows(*piece, enumeration._cell_values))))
                yield piece

        monkeypatch.setattr(enumeration, name, recording)
        for s in (*range(0, 41), 230):
            for fmt, expected in collected_renderings(s)[source]:
                assert main_stdout(["enumerate", str(s), "--source", source, "--format", fmt]) == (0, expected)
        assert min(sizes) == (1 if source == "brute" else 8) and max(sizes) == 8

    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_no_column_is_longer_than_a_piece(self, source, monkeypatch):
        # At s = 600 the longest a1 rows hold 1,201 grids and the longest
        # lattice rows 199 points, so whole rows would make longer columns;
        # the first write comes before any such row, so the memory tests above
        # cannot see this.
        # Every column goes through `_column_names`: a line is seven strings,
        # so a brute piece reads seven columns, one of them b1's middle rows,
        # and a family piece 16, four of them middle rows (see
        # `enumeration._WIDE`).
        brute = source == "brute"
        piece = enumeration._PIECE if brute else enumeration._PIECE // 8
        pieces = len(list((enumeration._brute_pieces if brute else enumeration._family_pieces)(600)))
        column_names, sizes = cli._column_names, []

        def recording(table, suffix, first, step, m, s=None):
            sizes.append((m, s is not None))
            return column_names(table, suffix, first, step, m, s)

        monkeypatch.setattr(cli, "_column_names", recording)
        with contextlib.redirect_stdout(NullWriter()):
            assert cli.main(["enumerate", "600", "--source", source]) == 0
        assert len(sizes) == pieces * (7 if brute else 16)
        assert sum(middle for _, middle in sizes) == pieces * (1 if brute else 4)
        assert max(m for m, _ in sizes) == max(m for m, middle in sizes if middle) == piece

    @pytest.mark.parametrize("suffix", [" ", "\n", ",", "],["])
    def test_column_names_are_slices_of_the_table(self, suffix):
        # Every column that fits in 0..2s at s = 5 with a step from -4 to 4
        # (rows of either source step by -2 to 2): ascending, descending to 0
        # (which a stop of -1 would empty), to 1 or to 2, repeated, and of one
        # value; each string followed by the separator inside a line or at its
        # end, of either format, the same from the table as built past its bound,
        # and so for b1's strings, which stand for the middle row.
        table = [str(v) + suffix for v in range(11)]
        cases = [
            (first, step, m)
            for first in range(11)
            for step in range(-4, 5)
            for m in range(1, 12)
            if 0 <= first + (m - 1) * step <= 10
        ]
        assert (10, -1, 11) in cases and (8, -4, 3) in cases
        # Given s = 5, b1's strings stand for the middle row b1, 5, 10 - b1.
        middle = [f"{v}{suffix}5{suffix}{10 - v}{suffix}" for v in range(11)]
        for first, step, m in cases:
            expected = [str(first + t * step) + suffix for t in range(m)]
            assert cli._column_names(table, suffix, first, step, m) == expected
            assert cli._column_names(None, suffix, first, step, m) == expected
            expected = [middle[first + t * step] for t in range(m)]
            assert cli._column_names(middle, suffix, first, step, m, 5) == expected
            assert cli._column_names(None, suffix, first, step, m, 5) == expected

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_each_write_holds_one_nonempty_piece(self, source, fmt):
        # At s = 60 every row is one piece (an a1 row holds at most 121 grids,
        # a lattice row at most 19 points), so the writes are the rows that
        # yield a square, in stream order, each with exactly its squares.  A
        # brute row is an a1, its squares' first entry, and a family row a
        # (family, i).  At s = 3 there are no squares.
        for s in (60, 3):
            out = WriteLog()
            with contextlib.redirect_stdout(out):
                assert cli.main(["enumerate", str(s), "--source", source, "--format", fmt]) == 0
            (_, text), (_, array) = collected_renderings(s)[source]
            lines = text.splitlines()
            if source == "brute":
                keys = [line.split()[0] for line in lines]
            else:
                keys = [(d.family, d.i) for d in iter_decompositions(s)]
            rows = [[line for _, line in row] for _, row in itertools.groupby(zip(keys, lines), key=lambda kl: kl[0])]
            if fmt == "text":
                expected = ["\n".join(row) + "\n" for row in rows]
            else:
                expected = [
                    ("," if k else "[") + "[" + "],[".join(line.replace(" ", ",") for line in row) + "]"
                    for k, row in enumerate(rows)
                ] + ["]\n" if rows else "[]\n"]
                assert "".join(expected) == array
            assert len(rows) == (0 if s == 3 else 118 if source == "brute" else 112)
            assert out.writes == expected

    def test_an_a1_row_yields_no_piece_for_its_cut_last_offset_at_768(self):
        # n = 1,025 offsets: the row's second piece would be its last offset,
        # which is cut, so the row yields its first piece only.
        rows = {cell // 1537: (n, cuts) for cell, _, n, cuts in enumeration._brute_rows(768)}
        starts = {}
        for first, _, start, _, _ in enumeration._brute_pieces(768):
            starts.setdefault(first[0], []).append(start)
        for a1 in (512, 1024):
            n, cuts = rows[a1]
            assert (n, cuts[-1]) == (enumeration._PIECE + 1, enumeration._PIECE) == (1025, 1024)
            assert starts[a1] == [0]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_empty_pieces_write_nothing(self, fmt):
        # At s = 768 two rows end in an all-cut offset past their first
        # piece (see above); every write is one nonempty piece, and together
        # they hold every square.
        out = SquareCounter(fmt)
        with contextlib.redirect_stdout(out):
            assert cli.main(["enumerate", "768", "--source", "brute", "--format", fmt]) == 0
        assert out.squares == count_closed(768)
        if fmt == "json":
            assert out.kinds == ["[["] + [",["] * (len(out.kinds) - 2) + ["]\n"]
        else:
            assert out.kinds == ["lines"] * len(out.kinds)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_memory_is_bounded_at_the_table_bound(self, source, fmt):
        # The two tables of 0..2s hold 2**15 strings each at most; from the
        # bound on, no table is made, so the first piece costs what it costs
        # at small s.
        first_write_peak_bytes(4, source, fmt)  # first-call set-up, not counted
        small = first_write_peak_bytes(60, source, fmt)
        below = first_write_peak_bytes(cli._NAME_TABLE_BOUND // 2 - 1, source, fmt)
        above = first_write_peak_bytes(cli._NAME_TABLE_BOUND // 2, source, fmt)
        assert below < 5 * 2**20
        assert above <= small + 0.5 * 2**20

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_first_piece_at_the_table_bound(self, source, fmt):
        # At s = bound // 2 - 1 the strings come from the tables, and at
        # bound // 2 they are built for each value: the first piece is the
        # same either side.  It is 128 points of the first lattice row, 1,024
        # squares, or the two squares of the a1 = 1 row of the sweep (see
        # below).
        for s in (cli._NAME_TABLE_BOUND // 2 - 1, cli._NAME_TABLE_BOUND // 2):
            if source == "brute":
                grids = list(itertools.takewhile(lambda grid: grid[0] == 1, iter_brute_grids(s)))
            else:
                grids = list(itertools.islice(iter_family_grids(s), 1024))
            assert len(grids) == (2 if source == "brute" else 1024)
            if fmt == "text":
                expected = "".join(format_square(Square(grid)) + "\n" for grid in grids)
            else:
                expected = json.dumps([list(grid) for grid in grids], separators=(",", ":"))[:-1]
            out = FirstWriteStdout()
            with contextlib.redirect_stdout(out), pytest.raises(FirstWrite):
                cli.main(["enumerate", str(s), "--source", source, "--format", fmt])
            assert out.text == expected

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_first_piece_at_the_largest_s(self, source, fmt):
        # 2s = 2**64 - 2: twenty-digit entries, and the whole first piece.
        # In the family expansion that is 128 points of the first lattice row,
        # 1,024 squares; in the sweep it is the first row that yields a
        # square, a1 = 1 (the one pair of a1 = 0 repeats the center), whose
        # three pairs less its cut give two squares.
        s = 2**63 - 1
        if source == "brute":
            grids = list(itertools.takewhile(lambda grid: grid[0] == 1, iter_brute_grids(s)))
        else:
            grids = list(itertools.islice(iter_family_grids(s), 1024))
        assert len(grids) == (2 if source == "brute" else 1024)
        if fmt == "text":
            expected = "".join(format_square(Square(grid)) + "\n" for grid in grids)
        else:
            expected = json.dumps([list(grid) for grid in grids], separators=(",", ":"))[:-1]
        out = FirstWriteStdout()
        with contextlib.redirect_stdout(out), pytest.raises(FirstWrite):
            cli.main(["enumerate", str(s), "--source", source, "--format", fmt])
        assert max(grids[0]) == 2 * s
        assert out.text == expected

    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_entry_range_rejected_at_once(self, source):
        # 2s is one past the 64-bit range; the brute sweep used to walk about
        # s pairs before its first grid, and hang.
        result = run_cli("enumerate", str(2**63), "--source", source, timeout=10)
        assert result.returncode == 2
        assert result.stdout == f"rejected: entry {2**64} exceeds the unsigned 64-bit range\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["families", "brute"])
    def test_entry_out_of_range_fails_before_its_row_is_written(self, monkeypatch, source, fmt):
        # ZERO_SUM added to F2's seed, or to each forced grid, keeps every
        # grid magic, but at s = 5 (families) or 6 (brute) one row's first
        # grid holds -1, which is not in the table of the strings of 0..2s.
        # Its row's end check fails before any square of that row is written,
        # and no square is written with another's string: stdout holds the
        # rows before it, which are the grids the stream yields before it
        # raises (the two F1 points at s = 5, or 12 grids of the sweep).
        if source == "families":
            edit_seed(monkeypatch, "F2", lambda seed: plus(seed, ZERO_SUM))
            s, failure = 5, "family expansion gave a grid at s=5 that is not a magic square with magic sum 15"
            square = (9, -1, 7, 3, 5, 7, 3, 11, 1)
        else:
            monkeypatch.setattr(enumeration, "_forced_grid", shifted_forced_grid)
            s, failure = 6, "brute-force grid at s=6 has an entry outside [0, 12]"
            square = (7, -1, 12, 11, 6, 1, 0, 13, 5)
        grids = []
        with pytest.raises(MismatchError):
            for grid in (iter_brute_grids if source == "brute" else iter_family_grids)(s):
                grids.append(grid)
        assert len(grids) == (16 if source == "families" else 12)
        if fmt == "text":
            expected = "".join(" ".join(map(str, grid)) + "\n" for grid in grids)
        else:
            expected = json.dumps([list(grid) for grid in grids], separators=(",", ":"))[:-1]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = main_stdout(["enumerate", str(s), "--source", source, "--format", fmt])
        assert (rc, out) == (3, expected)
        assert err.getvalue() == (
            f"enumerate failed: {failure}\ncounterexample: {' '.join(map(str, square))}\n"
        )

    @pytest.mark.parametrize("s, piece", [
        *(pytest.param(s, 1024, id=f"{s}") for s in (*range(0, 41), 230)),
        *(pytest.param(s, 8, id=f"{s}-8") for s in (*range(0, 41), 230)),
    ])
    def test_brute_source_matches_the_validated_full_sweep(self, s, piece, monkeypatch):
        # With pieces of 1,024 offsets, the default, every a1 row up to
        # s = 511 is one piece; with pieces of eight, rows span many pieces,
        # cuts fall on both sides of piece edges, a piece can hold one grid,
        # and some are all cuts, which are dropped.  Each piece that the sweep yields names its
        # cuts as sorted, distinct offsets into it, fewer than its m offsets.
        monkeypatch.setattr(enumeration, "_PIECE", piece)
        for _, _, _, m, cuts in enumeration._brute_pieces(s):
            assert cuts == sorted(set(cuts)) and all(0 <= c < m for c in cuts) and len(cuts) < m
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
        monkeypatch.setattr(enumeration, "_forced_grid", slipped_forced_grid)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = main_stdout(["count", "10"])
        assert (rc, out) == (3, "")
        assert err.getvalue().startswith(
            "count failed: brute-force grid at s=10 has a line sum other than 30\n"
        )

    @pytest.mark.parametrize("flags, brute", [(["--no-brute"], "None"), ([], "208")])
    def test_counts_that_disagree_name_all_four(self, monkeypatch, flags, brute):
        monkeypatch.setattr(enumeration, "count_closed", lambda s: count_closed(s) + 1)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = main_stdout(["count", "12", *flags])
        assert (rc, out) == (3, "")
        assert err.getvalue() == (
            f"count failed: counts disagree at s=12: closed=209 series=208 families=208 brute={brute}\n"
        )

    def test_family_fault_is_named_before_the_brute_half(self, monkeypatch):
        # With F1's center lowered by one, the first F1 row at s = 6, the
        # point (i, j, k) = (0, 0, 2), fails at its base grid.
        edit_seed(monkeypatch, "F1", SEED_EDITS["center"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = main_stdout(["count", "6"])
        assert (rc, out) == (3, "")
        assert err.getvalue() == (
            "count failed: family expansion gave a grid at s=6 that is not a magic square "
            "with magic sum 18\n"
            f"counterexample: {' '.join(map(str, base_grid(Family.F1, 0, 0, 2)))}\n"
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

    def test_every_run_reconciles_every_s_and_round_trips_every_square(self, monkeypatch):
        # Two runs in one process make the same calls, so nothing is kept
        # from one to the next: each reconciles every s <= 12 and builds and
        # decomposes each of the squares once.
        calls = dict.fromkeys(("reconcile", "construct", "decompose"), 0)
        for name in calls:
            def counted(*args, name=name, real=getattr(selftest, name)):
                calls[name] += 1
                return real(*args)

            monkeypatch.setattr(selftest, name, counted)
        squares = sum(count_closed(s) for s in range(13))
        for _ in range(2):
            calls.update(dict.fromkeys(calls, 0))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                selftest.run(12)
            assert calls == {"reconcile": 13, "construct": squares, "decompose": squares}
            assert out.getvalue().endswith("selftest ok max_s=12\n")

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

    def test_family_fault_stops_at_its_first_s(self, monkeypatch):
        # The same fault as `TestCount`'s: every F1 grid has its center one
        # low, so it shows at s = 4, the first s with an F1 point.
        edit_seed(monkeypatch, "F1", SEED_EDITS["center"])
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc, out = main_stdout(["selftest", "--max-s", "6"])
        assert (rc, out) == (3, "".join(f"s={s} count=0 ok\n" for s in range(4)))
        assert err.getvalue().startswith(
            "selftest failed: family expansion gave a grid at s=4 that is not a magic square"
        )

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

    @pytest.mark.parametrize("verb", ["verify", "reduce", "decompose"])
    @pytest.mark.parametrize("dashes", [[], ["--"]], ids=["bare", "after-double-dash"])
    @pytest.mark.parametrize(
        "words, token", [(["-7,0,5,2,4,6,3,8,1"], "-7"), (["7", "0", "5", "2", "4", "6", "3", "8", "-x"], "-x")]
    )
    def test_a_square_word_that_starts_with_a_dash_reaches_the_grammar(self, verb, dashes, words, token):
        # A square verb reads every word but -h and --help as a square word,
        # with or without "--" before it, so the grammar names the bad entry.
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main([verb, *dashes, *words]) == 1
        assert (out.getvalue(), err.getvalue()) == ("", f"magic3: error: entry {token!r} is not a string of ASCII digits 0-9\n")

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    @pytest.mark.parametrize("before", [[], ["7", "0", "5"]], ids=["alone", "after-words"])
    def test_a_square_verb_still_reads_its_help_options(self, flag, before):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as info:
            cli.main(["verify", *before, flag])
        assert info.value.code == 0
        assert out.getvalue().startswith("usage: magic3 verify [-h] square [square ...]\n")

    @pytest.mark.parametrize("argv", [["count", "-1"], ["count", "-1", "--no-brute"], ["enumerate", "-1"]])
    def test_negative_s_is_usage_error(self, argv):
        result = run_cli(*argv, timeout=10)
        assert (result.returncode, result.stdout) == (1, "")
        assert result.stderr == "magic3: error: s must be nonnegative, got -1\n"


# Forms that `int` reads as 8 or 10 and the ASCII-digit grammar refuses.
OFF_GRAMMAR_INTEGERS = ["1_0", "\u0668", "+8", " 8", "8 "]
# Each integer argument of each verb, "{}" standing for its text.
INTEGER_ARGUMENTS = [
    ["count", "{}"],
    ["enumerate", "{}"],
    ["selftest", "--max-s", "{}"],
    ["construct", "--family", "F1", "--i", "{}", "--j", "0", "--k", "0"],
    ["construct", "--family", "F1", "--i", "0", "--j", "{}", "--k", "0"],
    ["construct", "--family", "F1", "--i", "0", "--j", "0", "--k", "{}"],
]


class TestIntegerArguments:
    @pytest.mark.parametrize("text", OFF_GRAMMAR_INTEGERS)
    @pytest.mark.parametrize("argv", INTEGER_ARGUMENTS, ids=" ".join)
    def test_off_grammar_integer_is_usage_error(self, argv, text):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
            cli.main([text if a == "{}" else a for a in argv])
        assert (info.value.code, out.getvalue()) == (1, "")
        assert err.getvalue().endswith(f": invalid int value: {text!r}\n")

    @pytest.mark.parametrize("argv", INTEGER_ARGUMENTS, ids=" ".join)
    def test_ascii_digits_with_leading_zeros_are_read(self, argv):
        # The grammar is that of squares: leading zeros are digits like any other.
        assert main_stdout([("0008" if a == "{}" else a) for a in argv]) == main_stdout(
            [("8" if a == "{}" else a) for a in argv]
        )

    @pytest.mark.parametrize("argv", INTEGER_ARGUMENTS, ids=" ".join)
    def test_leading_zeros_past_the_int_digit_limit_are_read(self, argv):
        # Stripped before `int`, as in squares, so they do not count toward its 4,300 digits.
        assert main_stdout([("0" * 4400 + "8" if a == "{}" else a) for a in argv]) == main_stdout(
            [("8" if a == "{}" else a) for a in argv]
        )

    def test_leading_zeros_of_a_negative_value_are_read(self):
        outcomes = []
        for text in ("-" + "0" * 4400 + "8", "-8"):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                outcomes.append((main_stdout(["count", text]), err.getvalue()))
        assert outcomes[0] == outcomes[1] == ((1, ""), "magic3: error: s must be nonnegative, got -8\n")

    def test_more_digits_than_int_reads_is_usage_error(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), pytest.raises(SystemExit) as info:
            cli.main(["count", "9" * 5000])
        assert (info.value.code, out.getvalue()) == (1, "")
        assert "invalid int value" in err.getvalue()


class BrokenPipeStdout:
    """A stdout with no file descriptor that fails every write as a closed pipe does."""

    def write(self, text: str) -> int:
        raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

    def flush(self) -> None:
        pass


def without_unbuffered(env):
    """`env` less PYTHONUNBUFFERED, so a child's stdout is block-buffered."""
    return {k: v for k, v in env.items() if k != "PYTHONUNBUFFERED"}


class TestClosedStdout:
    """A reader that leaves early, or a full device, ends the run with exit 4
    and one stderr line, not a traceback."""

    BROKEN_PIPE = "magic3: error: cannot write to stdout: Broken pipe\n"

    @pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        # The last one writes its `rejected: ...` line to stdout.
        [["enumerate", "250"], ["count", "40"], ["verify", *"1 2 3 4 5 6 7 8 9".split()]],
        ids=" ".join,
    )
    def test_pipe_closed_before_the_first_write(self, argv, buffered):
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONUNBUFFERED": "1"}
        try:
            result = subprocess.run(
                [sys.executable, "-m", "magic3", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
                env=without_unbuffered(env) if buffered else env,
            )
        finally:
            os.close(write_end)
        assert (result.returncode, result.stderr) == (4, self.BROKEN_PIPE)

    def test_pipe_closed_after_the_first_bytes(self):
        # As `magic3 enumerate 250 | head -c 20`: the output runs to about 1 MB.
        proc = subprocess.Popen(
            [sys.executable, "-m", "magic3", "enumerate", "250"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        head = proc.stdout.read(20)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert (proc.wait(timeout=60), err) == (4, self.BROKEN_PIPE)
        assert head == b"499 0 251 2 250 498 "

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("stdout", ["closed pipe", "no descriptor"])
    def test_in_process_exit_keeps_the_open_descriptors(self, stdout):
        open_fds = len(os.listdir("/proc/self/fd"))
        if stdout == "closed pipe":
            read_end, write_end = os.pipe()
            os.close(read_end)
            out = open(write_end, "w")
        else:
            out = BrokenPipeStdout()
        err = io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(["count", "12"])
        finally:
            if stdout == "closed pipe":
                out.close()
        assert (rc, err.getvalue()) == (4, self.BROKEN_PIPE)
        assert len(os.listdir("/proc/self/fd")) == open_fds

    def test_error_without_an_errno_is_named_by_its_type(self):
        class BareBrokenPipeStdout(BrokenPipeStdout):
            def write(self, text: str) -> int:
                raise BrokenPipeError()

        err = io.StringIO()
        with contextlib.redirect_stdout(BareBrokenPipeStdout()), contextlib.redirect_stderr(err):
            rc = cli.main(["count", "12"])
        assert rc == 4
        assert err.getvalue() == "magic3: error: cannot write to stdout: BrokenPipeError\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["enumerate", "30"], ["count", "12"]], ids=" ".join)
    def test_full_device(self, argv):
        with open("/dev/full", "w") as full:
            result = subprocess.run(
                [sys.executable, "-m", "magic3", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
                env=without_unbuffered(os.environ),
            )
        assert (result.returncode, result.stderr) == (
            4,
            "magic3: error: cannot write to stdout: No space left on device\n",
        )
