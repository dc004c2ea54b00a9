"""Whole-pipeline consistency drill, exposed through the CLI selftest verb.

For every s up to a bound this runs the four-way count reconciliation (which
includes set equality of the two enumerators), then walks every decomposition
with that s, rebuilding each square and decomposing it back.  Squares must
round-trip exactly.  That also proves they never repeat across families,
parameters, or symmetries, without a table of the squares seen: if
construct(d1) == construct(d2) with d1 != d2, then `decompose` returns one
value for that square, so one of the two round trips fails.  Memory is
therefore that of the last `reconcile`: (2 * max_s + 1)**2 bytes of cell
marks, so a max_s that `count` would refuse is refused up front.  A failure
raises MismatchError carrying a counterexample; on a sound build that never
happens.
"""

from __future__ import annotations

from collections.abc import Callable

from .core import COUNT_MAX_S, MismatchError, _integer
from .decompose import construct, decompose
from .enumeration import iter_decompositions, reconcile


def run(max_s: int, echo: Callable[[str], None] = print) -> None:
    """Check counts, set equality, round-trips, and disjointness for s <= max_s.

    max_s is read by the int rule's type half, `core._integer`: a bool or a
    non-int raises TypeError.
    """
    max_s = _integer("max_s", max_s)
    if max_s < 4:
        raise ValueError(f"--max-s must be at least 4, got {max_s}")
    if max_s > COUNT_MAX_S:
        raise ValueError(f"--max-s must be at most {COUNT_MAX_S}, got {max_s}")
    for s in range(max_s + 1):
        report = reconcile(s)
        for d in iter_decompositions(s):
            m = construct(d)
            back = decompose(m)
            # `==` is the dataclass's own; `!=` would reach it through `object.__ne__`.
            if not back == d:
                raise MismatchError(
                    f"round trip failed: {d.to_json_obj()} came back as {back.to_json_obj()}",
                    square=m.entries,
                )
        echo(f"s={s} count={report.families} ok")
    echo(f"selftest ok max_s={max_s}")
