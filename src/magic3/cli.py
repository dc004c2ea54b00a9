"""Command-line surface; consumers are scripts and test harnesses.

Exit codes: 0 success, 1 usage or parse failure, 2 domain rejection (the
input square is not magic), 3 two routes disagreed (stderr then starts with
"<verb> failed:").  All JSON goes to stdout, one object or array per
invocation, with no trailing commentary.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import islice

from . import selftest
from .canonical import reduce
from .core import (
    DihedralElement,
    MagicSquareError,
    format_square,
    parse_square,
    validate,
)
from .decompose import Decomposition, Family, construct, decompose
from .enumeration import (
    COUNT_MAX_S,
    MismatchError,
    iter_brute_grids,
    iter_family_grids,
    reconcile,
)

_JSON_COMPACT = {"separators": (",", ":")}

# `enumerate` writes this many squares per write: enough that the per-write
# cost vanishes, few enough that a pending chunk stays a few tens of kB.
_ENUMERATE_CHUNK = 1024
# One square as `format_square` and compact `json.dumps` render it.
_TEXT_ROW = " ".join(["%d"] * 9) + "\n"
_JSON_ROW = "[" + ",".join(["%d"] * 9) + "]"


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _square_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "square",
        nargs="+",
        help="nine integers, row-major, each written in ASCII digits 0-9 only "
        "(no sign, not even '+'); commas and row semicolons allowed",
    )


def _parse_square_args(tokens: list[str]):
    return parse_square(" ".join(tokens))


def _cmd_verify(args: argparse.Namespace) -> int:
    magic = validate(_parse_square_args(args.square))
    print(f"magic m={magic.magic_sum} s={magic.s}")
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    magic = validate(_parse_square_args(args.square))
    reduced, shift, g = reduce(magic)
    obj = {"reduced": list(reduced.entries), "i": shift, "symmetry": g.tag}
    print(json.dumps(obj, **_JSON_COMPACT))
    return 0


def _cmd_decompose(args: argparse.Namespace) -> int:
    d = decompose(validate(_parse_square_args(args.square)))
    print(json.dumps(d.to_json_obj(), **_JSON_COMPACT))
    return 0


def _cmd_construct(args: argparse.Namespace) -> int:
    d = Decomposition(
        family=Family(args.family),
        i=args.i,
        j=args.j,
        k=args.k,
        symmetry=DihedralElement(args.sym),
    )
    print(format_square(construct(d).square))
    return 0


def _cmd_enumerate(args: argparse.Namespace) -> int:
    if args.s < 0:
        raise ValueError(f"s must be nonnegative, got {args.s}")
    stream = iter_brute_grids if args.source == "brute" else iter_family_grids
    grids = stream(args.s)
    # Both streams certify their grids themselves: the family grids by
    # construction, the brute grids by the sweep's nonnegativity, line-sum
    # and distinctness checks.  Written chunk by chunk, with the bytes of
    # printing every square (or one JSON array of them).  No entry of a square
    # with center s exceeds 2s (opposite cells sum to 2s), and the first grid
    # of either stream holds 2s and gets the `Square` entry checks, so a range
    # error is raised by the first chunk, before anything is written.
    write = sys.stdout.write
    row = _JSON_ROW if args.format == "json" else _TEXT_ROW
    opening = "["
    while rows := [row % grid for grid in islice(grids, _ENUMERATE_CHUNK)]:
        if args.format == "json":
            write(opening + ",".join(rows))
            opening = ","
        else:
            write("".join(rows))
    if args.format == "json":
        write("[]\n" if opening == "[" else "]\n")
    return 0


def _cmd_count(args: argparse.Namespace) -> int:
    report = reconcile(args.s, include_brute=not args.no_brute)
    obj = {
        "s": report.s,
        "closed": report.closed_form,
        "series": report.series,
        "families": report.families,
        "brute": report.brute,
    }
    print(json.dumps(obj, **_JSON_COMPACT))
    return 0


def _cmd_selftest(args: argparse.Namespace) -> int:
    selftest.run(args.max_s)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="magic3", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("verify", help="check the magic conditions")
    _square_arg(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("reduce", help="canonical orientation and translation")
    _square_arg(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("decompose", help="family coordinates of a magic square")
    _square_arg(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("construct", help="rebuild a square from family coordinates")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--i", required=True, type=int)
    p.add_argument("--j", required=True, type=int)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--sym", default="id", choices=[g.tag for g in DihedralElement])
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("enumerate", help="all magic squares with magic sum 3s")
    p.add_argument("s", type=int)
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
    p.add_argument("s", type=int)
    p.add_argument("--no-brute", action="store_true", help="skip the brute-force oracle")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("selftest", help="run the consistency drill")
    p.add_argument("--max-s", type=int, default=12)
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MismatchError as exc:
        print(f"{args.verb} failed: {exc}", file=sys.stderr)
        if exc.square is not None:
            print(f"counterexample: {' '.join(str(v) for v in exc.square)}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except MagicSquareError as exc:
        print(f"rejected: {exc}")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
