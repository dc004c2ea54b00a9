"""The traced layer pass: one span around each call into a public function.

The pass is the same for every workload, so each traced run reports every
per-layer metric.  Layers are the modules under src/magic3; a metric is
named <module>.<function>.<measure>.  Calls inside the library are not
traced: `decompose.decompose.self_us` is decompose minus reduce, which the
pass times on the same squares.  Times are at reference speed (timing.py).
"""

from __future__ import annotations

import io
import os
import statistics
import subprocess
import sys
import tracemalloc

import oracle
from timing import REF_KERNEL_NS, SpeedClock, Tracer, long_call
from workloads import DRILL_SELFTEST_MAX_S, run_main

QUERY_SIDE_PASS = 2_000
GRID_S = 200  # the s of ROADMAP's baseline rows
SERIES_TERMS = 301
CLOSED_BATCH = 1_000
SUBPROCESS_REPEATS = 7
MAIN_REPEATS = 10
# The command-line verbs take small, fixed sizes, so they measure argument
# parsing and dispatch rather than enumeration.
CLI_S = 8
CLI_SELFTEST_MAX_S = 5
SUBPROCESS_TIMEOUT_S = 60

# Ad-hoc perf_counter figures from ROADMAP's baseline table (2-core box,
# Python 3.11.7), printed beside this pass's figures for the same calls.
ROADMAP_BASELINE = (
    ("parse_square / validate / construct (us)", "6.6 / 4.2 / 15",
     ("core.parse_square.us", "core.validate.us", "decompose.construct.us")),
    ("canonical_symmetry / reduce / decompose (us)", "41 / 53 / 61",
     ("canonical.canonical_symmetry.us", "canonical.reduce.us", "decompose.decompose.us")),
    ("family grids, s=200 (ms)", "147", ("family_grids_200_ms",)),
    ("brute grids, s=200 (ms)", "134", ("brute_grids_200_ms",)),
    ("reconcile(200) (ms)", "310", ("enumeration.reconcile.ms",)),
    ("bare interpreter / import magic3.cli (ms)", "~117 / ~32", ("cli.interpreter_ms", "cli.import_ms")),
    ("magic3 verify as a subprocess (ms)", "~158", ("verify_subprocess_ms",)),
)


def cli_command(grid: list[int], slot: int, decomposed: dict | None):
    """The `slot`-th of the nine commands run through cli.main: (argv, check(rc, stdout)).

    The commands cover all seven verbs on `grid`, plus a rejected square
    (exit 2) and a parse error (exit 1).  `construct` rebuilds the square
    that `decompose` took apart, so the pair checks each other; the decompose
    check returns the decomposition it accepted.
    """
    tokens = [str(v) for v in grid]
    if slot == 0:
        return ["verify", *tokens], lambda rc, o: rc == 0 and o == f"magic m={3 * grid[4]} s={grid[4]}\n"
    if slot == 1:
        return ["reduce", *tokens], lambda rc, o: rc == 0 and oracle.check_reduce(grid, o)
    if slot == 2:
        return ["decompose", *tokens], lambda rc, o: oracle.check_decompose(grid, o) if rc == 0 else None
    if slot == 3:
        d = decomposed or {"family": "F1", "i": 0, "j": 0, "k": 0, "symmetry": "id"}
        argv = ["construct", "--family", d["family"], "--i", str(d["i"]), "--j", str(d["j"]),
                "--k", str(d["k"]), "--sym", d["symmetry"]]
        return argv, lambda rc, o: rc == 0 and decomposed is not None and o == oracle.text(grid) + "\n"
    if slot == 4:
        return ["enumerate", str(CLI_S)], lambda rc, o: rc == 0 and oracle.check_enumerate(CLI_S, o)
    if slot == 5:
        return ["count", str(CLI_S)], lambda rc, o: rc == 0 and o == oracle.count_line(CLI_S)
    if slot == 6:
        n = CLI_SELFTEST_MAX_S
        return ["selftest", "--max-s", str(n)], lambda rc, o: rc == 0 and o == oracle.selftest_lines(n)
    if slot == 7:
        bumped = [*tokens[:8], str(grid[8] + 1)]
        return ["verify", *bumped], lambda rc, o: rc == 2 and o.startswith("rejected: ")
    return ["verify", *tokens[:8]], lambda rc, o: rc == 1 and o == ""


def source_root(lib) -> str:
    """The directory that holds the imported magic3 package."""
    return os.path.dirname(os.path.dirname(lib.__file__))


def subprocess_env(src: str) -> dict[str, str]:
    """Environment for `python -m magic3` run from the source tree, site left on."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_python(args: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    """Run the interpreter with args, capturing its output; waits for it to exit."""
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S
    )


def _median_us(tracer: Tracer, name: str, per_call: int = 1) -> float:
    return statistics.median(tracer.durations_ns(name)) / 1e3 / per_call


def _query_layers(lib, seed: int, tracer: Tracer, m: dict, failures: list[str]) -> None:
    """core, canonical and decompose, on the query workload's inputs."""
    rejects = 0
    for op, (text, kind) in enumerate(oracle.query_inputs(seed, QUERY_SIDE_PASS)):
        root = tracer.open("layers.query", op)
        try:
            sq = tracer.call("core.parse_square", op, root, lib.parse_square, text)
            magic = tracer.call("core.validate", op, root, lib.validate, sq)
            tracer.call("canonical.canonical_symmetry", op, root, lib.canonical_symmetry, magic)
            tracer.call("canonical.reduce", op, root, lib.reduce, magic)
            d = tracer.call("decompose.decompose", op, root, lib.decompose, magic)
            back = tracer.call("decompose.construct", op, root, lib.construct, d)
            result = tracer.call("core.format_square", op, root, lib.format_square, back.square)
            if kind is None and result != text:
                failures.append(f"round trip of {text!r} gave {result!r}")
        except (ValueError, lib.MagicSquareError) as exc:
            if kind is None:
                failures.append(f"valid square {text!r} raised {exc!r}")
            elif isinstance(exc, lib.MagicSquareError):
                rejects += 1
        finally:
            tracer.close(root)
    for name in ("core.parse_square", "core.validate", "core.format_square", "canonical.canonical_symmetry",
                 "canonical.reduce", "decompose.decompose", "decompose.construct"):
        m[f"{name}.us"] = _median_us(tracer, name)
    m["core.validate.rejects"] = rejects
    m["decompose.decompose.self_us"] = m["decompose.decompose.us"] - m["canonical.reduce.us"]


def _enumeration_layers(lib, seed: int, tracer: Tracer, m: dict, extra: dict, failures: list[str]) -> None:
    """Raw grid streams at s=200 and the first two `enumerate` s, then reconcile(200)."""
    sizes = (GRID_S, *oracle.high_band(seed, "enumerate")[:2])
    for gen in ("iter_family_grids", "iter_brute_grids"):
        name = f"enumeration.{gen}"
        for s in sizes:
            n, _, _ = long_call(tracer.clock, tracer, name, s, lambda: sum(1 for _ in getattr(lib, gen)(s)))
            if n != oracle.count_squares(s):
                failures.append(f"{gen}({s}) gave {n} grids")
        durations = tracer.durations_ns(name)
        m[f"{name}.grids_per_s"] = sum(map(oracle.count_squares, sizes)) / (sum(durations) / 1e9)
        extra[f"{gen.split('_')[1]}_grids_200_ms"] = durations[0] / 1e6

    expected = oracle.count_squares(GRID_S)
    report, _, _ = long_call(tracer.clock, tracer, "enumeration.reconcile", GRID_S, lib.reconcile, GRID_S)
    if (report.closed_form, report.series, report.families, report.brute) != (expected,) * 4:
        failures.append(f"reconcile({GRID_S}) gave {report}")
    m["enumeration.reconcile.ms"] = _median_us(tracer, "enumeration.reconcile") / 1e3
    tracemalloc.start()
    try:
        lib.reconcile(GRID_S)
        m["enumeration.reconcile.peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
        # Samples taken while tracemalloc ran are several times too slow.
        tracer.clock.refresh()


def _series_layers(lib, tracer: Tracer, m: dict, failures: list[str]) -> None:
    """The control: count_closed and expand, both sub-millisecond."""
    for op in range(20):
        tracer.clock.refresh()
        closed = tracer.call("series.count_closed", op, -1, lambda: [lib.count_closed(s) for s in range(CLOSED_BATCH)])
        coeffs = tracer.call("series.expand", op, -1, lib.expand, lib.magic_gf(), SERIES_TERMS)
    if closed != [oracle.count_squares(s) for s in range(CLOSED_BATCH)]:
        failures.append("count_closed disagrees with the oracle")
    if coeffs != [oracle.count_squares(s) for s in range(SERIES_TERMS)]:
        failures.append("expand disagrees with the oracle")
    m["series.count_closed.us"] = _median_us(tracer, "series.count_closed", CLOSED_BATCH)
    m["series.expand.ms"] = _median_us(tracer, "series.expand") / 1e3


def _cli_layers(lib, seed: int, tracer: Tracer, m: dict, extra: dict, failures: list[str]) -> None:
    """Interpreter start-up and a fresh import as subprocesses, then cli.main per verb in process."""
    env = subprocess_env(source_root(lib))
    grid = oracle.small_squares(seed, 1)[0]
    runs = (
        ("cli.interpreter", ["-c", "pass"], ""),
        ("cli.import", ["-c", "import magic3.cli"], ""),
        ("cli.verify_subprocess", ["-m", "magic3", "verify", *map(str, grid)], f"magic m={3 * grid[4]} s={grid[4]}\n"),
    )
    for op in range(SUBPROCESS_REPEATS):
        for name, args, expected in runs:
            proc, _, _ = long_call(tracer.clock, tracer, name, op, run_python, args, env)
            if proc.returncode != 0 or proc.stdout != expected:
                failures.append(f"{name} subprocess exited {proc.returncode} with {proc.stdout[:80]!r}")
    m["cli.interpreter_ms"] = _median_us(tracer, "cli.interpreter") / 1e3
    m["cli.import_ms"] = _median_us(tracer, "cli.import") / 1e3 - m["cli.interpreter_ms"]
    extra["verify_subprocess_ms"] = _median_us(tracer, "cli.verify_subprocess") / 1e3

    # The last two commands are a rejected square (exit 2) and a
    # parse error (exit 1); they are checked, and timed under their own names.
    decomposed = None
    for slot in range(9):
        argv, check = cli_command(grid, slot, decomposed)
        name = f"cli.main.{argv[0]}" if slot < 7 else ("cli.main.rejected", "cli.main.parse_error")[slot - 7]
        for op in range(MAIN_REPEATS):
            sink = io.StringIO()
            tracer.clock.refresh()
            rc, _ = tracer.call(name, op, -1, run_main, lib.cli.main, argv, sink)
            verdict = check(rc, sink.getvalue())
            if not verdict:
                failures.append(f"cli.main {argv} gave rc={rc} {sink.getvalue()[:80]!r}")
        if argv[0] == "decompose":
            decomposed = verdict
        if slot < 7:
            m[f"{name}.ms"] = _median_us(tracer, name) / 1e3


def run(lib, seed: int, clock: SpeedClock) -> tuple[dict[str, float], dict[str, float], list[str], Tracer]:
    """Time every layer once; (per-layer metrics, figures for the baseline table, failures, spans).

    The pass records into a tracer of its own, so each metric is computed
    from the pass's spans alone and not from a workload's spans of the
    same name.
    """
    tracer = Tracer(clock)
    m: dict[str, float] = {}
    extra: dict[str, float] = {}
    failures: list[str] = []
    _query_layers(lib, seed, tracer, m, failures)
    _enumeration_layers(lib, seed, tracer, m, extra, failures)
    _series_layers(lib, tracer, m, failures)
    _cli_layers(lib, seed, tracer, m, extra, failures)

    lines: list[str] = []
    long_call(tracer.clock, tracer, "selftest.run", 0, lib.selftest.run, DRILL_SELFTEST_MAX_S, lines.append)
    if "".join(line + "\n" for line in lines) != oracle.selftest_lines(DRILL_SELFTEST_MAX_S):
        failures.append("selftest.run printed unexpected lines")
    m["selftest.run.ms"] = _median_us(tracer, "selftest.run") / 1e3
    return m, extra, failures, tracer


def baseline_table(figures: dict[str, float]) -> list[str]:
    """ROADMAP's ad-hoc baseline rows beside this run's figures for the same calls."""
    rows = [f"{'baseline row (this run at reference speed, kernel = ' + str(REF_KERNEL_NS // 1000) + ' us)':60}"
            f" {'ROADMAP ad-hoc':>16} {'this run':>24}"]
    for label, old, keys in ROADMAP_BASELINE:
        now = " / ".join(f"{figures[k]:.3g}" for k in keys)
        rows.append(f"{label:60} {old:>16} {now:>24}")
    return rows
