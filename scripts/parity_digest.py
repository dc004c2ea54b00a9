#!/usr/bin/env python3
"""Print one sha256 over the CLI's output on a fixed set of invocations.

Usage:
    PYTHONPATH=src python scripts/parity_digest.py

Runs `magic3.cli.main` in process on every invocation of `INVOCATIONS` and
hashes each one's arguments, exit code, stdout and stderr, in order.  Two
trees that print the same digest behave the same on the set: a change meant
to keep the CLI's behaviour is run on both sides and the digests compared.

The set is the 607 invocations `count S`, `count S --no-brute` and
`enumerate S` with both sources and both formats, for S = 0..60 and
230..269, plus `selftest --max-s 30`; and the 12 error paths of `enumerate
S` for S = -1, 2**63 and 2**63 + 1 with both sources and both formats.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

from magic3 import cli

PARAMETERS = [*range(0, 61), *range(230, 270)]
ERROR_PARAMETERS = [-1, 2**63, 2**63 + 1]
ENUMERATE_FLAGS = [
    ["--source", source, "--format", fmt] for source in ("families", "brute") for fmt in ("text", "json")
]


def enumerate_invocations(parameters: list[int]) -> list[list[str]]:
    """`enumerate S` with each source and format, for each S."""
    return [["enumerate", str(s), *flags] for s in parameters for flags in ENUMERATE_FLAGS]


INVOCATIONS = (
    [["count", str(s)] for s in PARAMETERS]
    + [["count", str(s), "--no-brute"] for s in PARAMETERS]
    + enumerate_invocations(PARAMETERS)
    + [["selftest", "--max-s", "30"]]
    + enumerate_invocations(ERROR_PARAMETERS)
)


def main() -> int:
    digest = hashlib.sha256()
    for argv in INVOCATIONS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        for part in (" ".join(argv), str(code), out.getvalue(), err.getvalue()):
            digest.update(part.encode() + b"\0")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
