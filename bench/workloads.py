"""The three workloads.  Each is a closed loop with one client.

A workload function takes the imported library, the seed, a time budget
and optionally an op limit and a tracer, runs ops in a fixed seeded order
until either runs out, checks every output against `oracle`, and returns
an `Outcome`.  The same seed and op limit replay the same ops, which is how
the traced run compares itself with an untraced run of the same inputs.

Ops come in short cycles that mix their kinds (sources and formats, counts
and selftests).  A run that reaches its time budget mid-cycle
finishes the cycle, so every run has the same mix of kinds whatever the
host's speed; stopping at the deadline moved `drill`'s squares/s by a tenth.
"""

from __future__ import annotations

import contextlib
import io
import re
from array import array
from dataclasses import dataclass, field
from time import perf_counter_ns
from typing import Callable

import oracle
from timing import SpeedClock, Tracer, long_call, reference_ns

QUERY_POOL = 10_000
DRILL_SELFTEST_MAX_S = 30


def running(op: int, cycle: int, deadline: int, max_ops: int | None) -> bool:
    """Whether op number `op` should run: within max_ops, and before the deadline or mid-cycle."""
    if max_ops is not None:
        return op < max_ops
    return op % cycle != 0 or perf_counter_ns() < deadline


@dataclass
class Outcome:
    # Per-op times at reference speed (see timing.py), 4 bytes each so that
    # the benchmark's own memory hardly moves the peak RSS it reports.
    latencies_ns: array = field(default_factory=lambda: array("f"))
    wall_total_ns: int = 0
    squares: int = 0
    failed: int = 0
    # Off-grammar text the library accepted: a wrong outcome, kept apart
    # from `failed` until the parser is made strict (see oracle.GRAMMAR_KINDS).
    grammar_accepts: int = 0
    notes: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies_ns)

    def record(self, wall_ns: int, kernel_ns: float) -> None:
        self.wall_total_ns += wall_ns
        self.latencies_ns.append(reference_ns(wall_ns, kernel_ns))

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 5:
            self.notes.append(message)


class LineDigest:
    """Stand-in for stdout that counts and digests squares as they stream past.

    Text lines and JSON rows are both reduced to "a,b,...,i" before hashing,
    and the digest is a sum of hashes, so two runs that emit the same set of
    squares in any order and in either format get the same (count, digest).
    Only the unfinished last row is held between writes.
    """

    _ROW = re.compile(r"\d+(?:,\d+){8}")
    _MASK = 2**64 - 1

    def __init__(self, fmt: str) -> None:
        self._json = fmt == "json"
        self._parts: list[str] = []
        self._tail = ""
        self._head = ""
        self.count = 0
        self.digest = 0

    def write(self, s: str) -> int:
        self._parts.append(s)
        if len(self._parts) >= 4096:
            self._drain()
        return len(s)

    def flush(self) -> None:
        pass

    def _drain(self) -> None:
        chunk = self._tail + "".join(self._parts)
        self._parts.clear()
        if not self._head:
            self._head = chunk[:2]
        if self._json:
            cut = chunk.rfind("]") + 1
            rows = self._ROW.findall(chunk, 0, cut)
        else:
            cut = chunk.rfind("\n") + 1
            rows = chunk[: max(cut - 1, 0)].replace(" ", ",").split("\n") if cut else []
        self._tail = chunk[cut:]
        self.count += len(rows)
        self.digest = (self.digest + sum(map(hash, rows))) & self._MASK

    def close(self) -> bool:
        """Drain what is left; True when the stream was well formed."""
        self._drain()
        if self._json:
            return self._head == "[[" and self._tail == "\n"
        return self._tail == ""


def run_main(main: Callable, argv: list[str], stdout) -> tuple[int, str]:
    stderr = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = main(argv)
    return rc, stderr.getvalue()


def query(lib, seed: int, seconds: float, clock: SpeedClock, max_ops: int | None = None, tracer: Tracer | None = None) -> Outcome:
    """One op: parse_square -> validate -> decompose -> construct -> format_square.

    A valid square must come back as the input text; a reject must raise
    ValueError from parsing or the matching MagicSquareError from validation.
    """
    parse, validate, decompose = lib.parse_square, lib.validate, lib.decompose
    construct, fmt = lib.construct, lib.format_square
    expected_error = {
        "not_magic": lib.NotMagicError,
        "duplicates": lib.DuplicateEntriesError,
    }
    pool = oracle.query_inputs(seed, QUERY_POOL)
    out = Outcome()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    op = 0
    while running(op, 10, deadline, max_ops):
        text, kind = pool[op % QUERY_POOL]
        result = error = None
        if tracer is None:
            t0 = perf_counter_ns()
            try:
                result = fmt(construct(decompose(validate(parse(text)))).square)
            except Exception as exc:  # every outcome is classified below
                error = exc
            t1 = perf_counter_ns()
        else:
            t0 = perf_counter_ns()
            root = tracer.open("query.op", op)
            try:
                sq = tracer.call("core.parse_square", op, root, parse, text)
                m = tracer.call("core.validate", op, root, validate, sq)
                d = tracer.call("decompose.decompose", op, root, decompose, m)
                back = tracer.call("decompose.construct", op, root, construct, d)
                result = tracer.call("core.format_square", op, root, fmt, back.square)
            except Exception as exc:  # every outcome is classified below
                error = exc
            tracer.close(root)
            t1 = perf_counter_ns()
        out.record(t1 - t0, clock.kernel_ns)
        out.squares += 1
        op += 1
        if kind is None:
            if result != text:
                out.fail(f"valid square {text!r} gave {result!r} / {error!r}")
        elif error is None and kind in oracle.GRAMMAR_KINDS:
            out.grammar_accepts += 1
        elif not isinstance(error, expected_error.get(kind, ValueError)):
            out.fail(f"{kind} input {text!r} gave {result!r} / {error!r}")
    return out


def enumerate_(lib, seed: int, seconds: float, clock: SpeedClock, max_ops: int | None = None, tracer: Tracer | None = None) -> Outcome:
    """One op: `enumerate S` in process, S from the high band.

    Ops come in pairs on the same S, families then brute, with the format
    alternating so each source is seen in both formats.  Each op's square
    count must equal the oracle's count, and the brute op's digest must
    equal the families op's digest.
    """
    schedule = oracle.high_band(seed, "enumerate")
    out = Outcome()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    families_digest = None
    op = 0
    while running(op, 4, deadline, max_ops):
        pair, second = divmod(op, 2)
        s = schedule[pair % len(schedule)]
        source = "brute" if second else "families"
        fmt = "json" if (pair + second) % 2 else "text"
        sink = LineDigest(fmt)
        argv = ["enumerate", str(s), "--source", source, "--format", fmt]
        (rc, err), wall, kernel = long_call(clock, tracer, "cli.main.enumerate", op, run_main, lib.cli.main, argv, sink)
        well_formed = sink.close()
        out.record(wall, kernel)
        out.squares += sink.count
        op += 1
        if rc != 0 or not well_formed or sink.count != oracle.count_squares(s):
            out.fail(f"enumerate {argv}: rc={rc} count={sink.count} well_formed={well_formed} {err[:200]}")
        elif source == "families":
            families_digest = (s, sink.digest)
        elif families_digest != (s, sink.digest):
            out.fail(f"enumerate {s}: brute and families emitted different squares")
    return out


def drill(lib, seed: int, seconds: float, clock: SpeedClock, max_ops: int | None = None, tracer: Tracer | None = None) -> Outcome:
    """Ops repeat `selftest --max-s 30`, `count S`, `selftest --max-s 30`.

    Two selftests (fixed work) to one count put the median and the 90th
    percentile inside the selftest cluster, so neither moves with the
    seed's S or sits on the gap between the two kinds of op.  Stdout must
    match the oracle byte for byte.
    """
    schedule = oracle.high_band(seed, "drill")
    out = Outcome()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    op = 0
    while running(op, 3, deadline, max_ops):
        triple, slot = divmod(op, 3)
        if slot == 1:
            s = schedule[triple % len(schedule)]
            argv, expected, squares = ["count", str(s)], oracle.count_line(s), oracle.count_squares(s)
        else:
            n = DRILL_SELFTEST_MAX_S
            argv, expected = ["selftest", "--max-s", str(n)], oracle.selftest_lines(n)
            squares = oracle.selftest_squares(n)
        sink = io.StringIO()
        (rc, err), wall, kernel = long_call(clock, tracer, f"cli.main.{argv[0]}", op, run_main, lib.cli.main, argv, sink)
        out.record(wall, kernel)
        out.squares += squares
        op += 1
        if rc != 0 or sink.getvalue() != expected:
            out.fail(f"{argv}: rc={rc} stdout={sink.getvalue()[:120]!r} {err[:200]}")
    return out


WORKLOADS = {"query": query, "enumerate": enumerate_, "drill": drill}
