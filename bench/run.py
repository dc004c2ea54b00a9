"""Benchmark entry point: one workload, one seed, one result line.

    python3 bench/run.py --workload query --seed 1 --seconds 20 --trace 0

Run from the repository root; magic3 is imported from ./src, never from an
installed copy.  The last line of stdout is a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones in BENCHMARK.json; with --trace 1 they are the per-layer
ones, from a traced run that also writes its spans to bench/out/.
"""

from __future__ import annotations

import argparse
import compileall
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
import workloads  # noqa: E402
from timing import SpeedClock, Tracer, long_call, reference_ns  # noqa: E402

# Set-up is timed in batches of imports long enough for several kernel
# samples; setup_s is the median batch's time per import.
SETUP_BATCHES = 15
IMPORTS_PER_BATCH = 8
# Spans of the traced workload run are capped so a fast workload's trace
# stays near 10 MB; the untraced comparison uses the same op count.
SPAN_CAP = 150_000


def import_magic3(clock: SpeedClock) -> tuple[object, float]:
    """Import magic3 and magic3.cli from ./src many times; (package, median reference s per import).

    Each import first drops every magic3 module, so it re-runs all of the
    package's module-level code: work moved into import time shows here.
    """
    if not (SRC / "magic3" / "__init__.py").is_file():
        raise SystemExit(f"error: no magic3 package under {SRC}")
    sys.path.insert(0, str(SRC))
    # Import from bytecode, as an installed package is, even where
    # PYTHONDONTWRITEBYTECODE is set: otherwise a fresh checkout compiles
    # magic3 on every import and setup_s doubles.  The `python` child
    # processes of the traced run read the same bytecode.
    compileall.compile_dir(SRC / "magic3", quiet=1)
    times = []
    for _ in range(SETUP_BATCHES):
        clock.refresh()
        lib, wall, kernel = long_call(clock, None, "setup", 0, _import_batch)
        times.append(reference_ns(wall, kernel) / 1e9 / IMPORTS_PER_BATCH)
    if Path(lib.__file__).resolve().parent != SRC / "magic3":
        raise SystemExit(f"error: imported magic3 from {lib.__file__}, not from {SRC}")
    return lib, statistics.median(times)


def _import_batch():
    for _ in range(IMPORTS_PER_BATCH):
        for name in [n for n in sys.modules if n == "magic3" or n.startswith("magic3.")]:
            del sys.modules[name]
        lib = importlib.import_module("magic3")
        importlib.import_module("magic3.cli")
    return lib


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(out: workloads.Outcome, setup_s: float) -> dict[str, float]:
    # Read before the percentiles below sort the latencies into a list of
    # floats, which on `query` is several MB of the benchmark's own.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    busy_s = sum(out.latencies_ns) / 1e9
    return {
        "setup_s": setup_s,
        "ops_per_s": out.attempted / busy_s,
        "squares_per_s": out.squares / busy_s,
        "p50_ms": statistics.median(out.latencies_ns) / 1e6,
        "peak_rss_mb": peak_rss_mb,
    }


def traced(lib, workload: str, seed: int, seconds: float, clock: SpeedClock):
    """Per-layer metrics: a warm-up, the same ops untraced and traced, then the layer pass."""
    fn = workloads.WORKLOADS[workload]
    warm = fn(lib, seed, seconds / 3, clock)
    spans_per_op = 6 if workload == "query" else 1
    n = min(warm.attempted, SPAN_CAP // spans_per_op)
    # Both replays run warm, untraced first: the traced one then also pays
    # for the spans it keeps alive, as tracing does.
    plain = fn(lib, seed, seconds, clock, max_ops=n)
    tracer = Tracer(clock)
    with_spans = fn(lib, seed, seconds, clock, max_ops=n, tracer=tracer)
    metrics, extra, failures, layer_tracer = layers.run(lib, seed, clock)
    metrics["trace.overhead_pct"] = 100 * (sum(with_spans.latencies_ns) / sum(plain.latencies_ns) - 1)
    outcomes = [warm, plain, with_spans]
    errors = sum(o.failed + o.grammar_accepts for o in outcomes)
    metrics["error_rate"] = errors / sum(o.attempted for o in outcomes)
    for line in layers.baseline_table({**metrics, **extra}):
        print(line)
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.json"
    with open(path, "w") as f:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op", "kernel_ns"],
                   "workload": tracer.spans, "layers": layer_tracer.spans}, f)
    print(f"{len(tracer.spans)} workload and {len(layer_tracer.spans)} layer spans written to {path.relative_to(ROOT)}")
    return metrics, outcomes, failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}

    with SpeedClock() as clock:
        lib, setup_s = import_magic3(clock)
        if args.trace:
            metrics, outcomes, failures = traced(lib, args.workload, args.seed, args.seconds, clock)
        else:
            out = workloads.WORKLOADS[args.workload](lib, args.seed, args.seconds, clock)
            metrics, outcomes, failures = end_to_end(out, setup_s), [out], []
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    grammar = sum(o.grammar_accepts for o in outcomes)
    wall_s = sum(o.wall_total_ns for o in outcomes) / 1e9
    latencies = [t for o in outcomes for t in o.latencies_ns]
    print(
        f"{args.workload} seed={args.seed}: {attempted} ops, {failed} failed, {grammar} off-grammar "
        f"inputs accepted, error_rate={(failed + grammar) / attempted:.4f}; ops took {wall_s:.3f} s "
        f"wall, {sum(latencies) / 1e9:.3f} s at reference speed; p90 {_percentile(latencies, 90) / 1e6:.4g} ms, "
        f"p99 {_percentile(latencies, 99) / 1e6:.4g} ms"
    )
    for note in [n for o in outcomes for n in o.notes] + failures:
        print(f"FAIL {note}")
    result = {
        "correct": failed == 0 and not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
