"""Command-line surface; consumers are scripts and test harnesses.

Exit codes: 0 success, 1 usage or parse failure, 2 domain rejection (the
input square is not magic), 3 two routes disagreed (stderr then starts with
"<verb> failed:"), 4 stdout was closed early or could not be written (stderr
then holds one line).  All JSON goes to stdout, one object or array per
invocation, with no trailing commentary.  Identical invocations produce
byte-identical output.

The square verbs need only `core` and `decompose`.  `enumerate`, `count` and
`selftest` import the counting routes (`enumeration`, `series`, `selftest`)
when they run, and `main` imports `json` only to print the object that
`reduce`, `decompose` or `count` returns, so `verify` and `construct` load
neither.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .core import (
    COUNT_MAX_S,
    DihedralElement,
    MagicSquare,
    MagicSquareError,
    MismatchError,
    _digits,
    format_square,
    parse_square,
    validate,
)
from .decompose import Decomposition, Family, construct, decompose, reduce

# While 2s is below this bound, `enumerate` slices each column of decimal
# strings from two tables of those of 0..2s, each string followed by the
# separator that comes after a value inside a line or at its end, made once
# per call (together at most 4.14 MB for text and 4.20 MB, 4.01 MiB, for
# JSON, at 2s = 2**15 - 2): at s = 250 that writes two to five times the
# squares per second that building each value's string does.  From the bound
# on, it builds each value's string, so memory does not grow with s.
_NAME_TABLE_BOUND = 2**15


class _Parser(argparse.ArgumentParser):
    # Set on the square verbs' parsers, whose only options are -h and --help.
    square_words = False

    # usage problems exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)

    def _parse_optional(self, arg_string: str):
        # A square verb reads every word but -h and --help as a square word, so
        # one that starts with "-" ("-7,0,5", "-x") reaches the text grammar.
        if self.square_words and arg_string not in self._option_string_actions:
            return None
        return super()._parse_optional(arg_string)


def _int_arg(text: str) -> int:
    """An argparse type: a number of the text format (`core._digits`), with an optional leading "-".

    `int`'s "+8", " 8", "1_0" and non-ASCII digits are refused; the "-" is
    kept so that a negative value gets its domain message.  Only significant
    digits count toward `int`'s limit of 4,300 digits.
    """
    if (digits := _digits(text[1:] if text[:1] == "-" else text)) is not None:
        try:
            return -int(digits) if text[:1] == "-" else int(digits)
        except ValueError:  # `int` refuses more than 4,300 significant digits
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _magic_arg(args: argparse.Namespace) -> MagicSquare:
    """The certified square of a square verb's `square` words, joined by spaces."""
    return validate(parse_square(" ".join(args.square)))


def _cmd_verify(args: argparse.Namespace) -> None:
    magic = _magic_arg(args)
    print(f"magic m={magic.magic_sum} s={magic.s}")


def _cmd_reduce(args: argparse.Namespace) -> dict[str, object]:
    reduced, shift, g = reduce(_magic_arg(args))
    return {"reduced": list(reduced.entries), "i": shift, "symmetry": g.value}


def _cmd_decompose(args: argparse.Namespace) -> dict[str, object]:
    return decompose(_magic_arg(args)).to_json_obj()


def _cmd_construct(args: argparse.Namespace) -> None:
    d = Decomposition(
        family=Family(args.family),
        i=args.i,
        j=args.j,
        k=args.k,
        symmetry=DihedralElement(args.sym),
    )
    print(format_square(construct(d).square))


def _column_names(table: list[str] | None, suffix: str, first: int, step: int, m: int) -> list[str]:
    """The decimal strings of the m values first, first + step, ..., each followed by suffix.

    One slice of table, those strings of 0..2s, or a repeat of one of them
    if step is 0; with no table (past `_NAME_TABLE_BOUND`), built for each value.
    """
    if table is None:
        return [f"{v}{suffix}" for v in range(first, first + m * step, step)] if step else [f"{first}{suffix}"] * m
    if not step:
        return [table[first]] * m
    stop = first + m * step
    # A column that falls to 0 stops at None: a stop of -1 would count from the end.
    return table[first : stop if stop >= 0 else None : step]


def _brute_cells(columns: list[list[str]], cuts: list[int]) -> list[str]:
    """A brute piece's nine columns laid out grid by grid as one flat list, less the nine cells of each cut grid."""
    cells = [""] * (9 * len(columns[0]))
    for p, column in enumerate(columns):
        cells[p::9] = column
    # From the back, so that each cut still names its grid.
    for c in reversed(cuts):
        del cells[9 * c : 9 * c + 9]
    return cells


def _cmd_enumerate(args: argparse.Namespace) -> None:
    # Renders the stream's pieces of rows (see `magic3.enumeration`) with
    # decimal strings for values.  Each cell of a piece is an arithmetic
    # progression of values in 0..2s, so its strings are one slice of a table
    # of those of 0..2s, or a repeat.  Each string carries the separator that
    # follows it, from one table inside a line and from the other at its end,
    # so empty `join`s build the lines, with no Python step per square: one
    # per brute piece, over its cells laid out flat (`_brute_cells`), and one
    # per family point, whose eight images share the point's columns, so each
    # entry is converted once for its eight squares.  Both streams check each
    # row's two end grids, so every value is in 0..2s, the tables' range.
    # They also check their first grid, which holds the largest entry, 2s, so
    # a range error or a negative s raises before anything is written; a row
    # that fails its check raises after the rows before it are written and
    # before any square of its own.  Each piece is one write, with the bytes
    # of printing its squares (or its part of one JSON array of them).
    from . import enumeration

    s, json_format = args.s, args.format == "json"
    suffixes = (",", "],[") if json_format else (" ", "\n")
    tables = [[f"{v}{suffix}" for v in range(2 * s + 1)] if 2 * s < _NAME_TABLE_BOUND else None for suffix in suffixes]
    # A lambda, not a `partial`: CPython 3.11 inlines the lambda's call of
    # `_column_names`, and a column built through `partial` took longer.
    column = lambda first, step, m, end: _column_names(tables[end], suffixes[end], first, step, m)
    brute = args.source == "brute"
    pieces = (enumeration._brute_pieces if brute else enumeration._family_pieces)(s)
    write = sys.stdout.write
    opening = "[["
    for piece in pieces:
        if brute:
            first, steps, start, m, cuts = piece
            lines = "".join(_brute_cells(enumeration._brute_columns(first, steps, start, m, column), cuts))
        else:
            lines = "".join(map("".join, enumeration._family_points(*piece, column)))
        if json_format:
            # The last square ends in "],[": its "]" closes it.
            write(opening + lines[:-2])
            opening = ",["
        else:
            write(lines)
    if json_format:
        write("[]\n" if opening == "[[" else "]\n")


def _cmd_count(args: argparse.Namespace) -> dict[str, object]:
    from .enumeration import reconcile

    report = reconcile(args.s, include_brute=not args.no_brute)
    return {
        "s": report.s,
        "closed": report.closed_form,
        "series": report.series,
        "families": report.families,
        "brute": report.brute,
    }


def _cmd_selftest(args: argparse.Namespace) -> None:
    from . import selftest

    selftest.run(args.max_s)


# Built on the first `main` call, not at import, and kept for the process:
# parsing leaves the parser as it was.
@cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="magic3", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, summary, func in (
        ("verify", "check the magic conditions", _cmd_verify),
        ("reduce", "canonical orientation and translation", _cmd_reduce),
        ("decompose", "family coordinates of a magic square", _cmd_decompose),
    ):
        p = sub.add_parser(verb, help=summary)
        p.square_words = True
        p.add_argument("square", nargs="+", help="nine integers, row-major, each one or more ASCII digits 0-9 "
                       "(no sign, not even '+'), separated by runs of commas, semicolons and ASCII whitespace")
        p.set_defaults(func=func)

    p = sub.add_parser("construct", help="rebuild a square from family coordinates")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--i", required=True, type=_int_arg)
    p.add_argument("--j", required=True, type=_int_arg)
    p.add_argument("--k", required=True, type=_int_arg)
    p.add_argument("--sym", default="id", choices=[g.value for g in DihedralElement])
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="all magic squares with magic sum 3s")
    p.add_argument("s", type=_int_arg)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--source", default="families", choices=["families", "brute"])
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser(
        "count",
        help="count magic squares four ways",
        description="Count magic squares with magic sum 3s four ways and check that they agree. "
        f"Compares the two enumerations in (2s+1)**2 bytes of cell marks; s above {COUNT_MAX_S} "
        "(256 MiB) is refused.",
    )
    p.add_argument("s", type=_int_arg)
    p.add_argument("--no-brute", action="store_true", help="skip the brute-force oracle")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("selftest", help="run the consistency drill")
    p.add_argument("--max-s", type=_int_arg, default=12)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            # A verb that prints JSON returns its one object, printed here.
            if (obj := args.func(args)) is not None:
                import json

                print(json.dumps(obj, separators=(",", ":")))
            code = 0
        except MismatchError as exc:
            print(f"{args.verb} failed: {exc}", file=sys.stderr)
            if exc.square is not None:
                print(f"counterexample: {' '.join(str(v) for v in exc.square)}", file=sys.stderr)
            code = 3
        except ValueError as exc:
            print(f"{parser.prog}: error: {exc}", file=sys.stderr)
            code = 1
        except MagicSquareError as exc:
            print(f"rejected: {exc}")
            code = 2
        # Flushed here, so that a closed or full stdout is caught below.
        sys.stdout.flush()
    except OSError as exc:
        # Point stdout's descriptor, if it has one, at the null device, so the
        # flush at exit stays quiet.
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, OSError, ValueError):
            pass
        else:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, fd)
            os.close(null)
        # An OSError raised without an errno has no strerror.
        reason = exc.strerror or type(exc).__name__
        print(f"{parser.prog}: error: cannot write to stdout: {reason}", file=sys.stderr)
        return 4
    return code


if __name__ == "__main__":
    raise SystemExit(main())
