"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/steadiness.py --workloads query enumerate drill --seeds 10 --out bench/out/steadiness.json

Runs bench/run.py once per workload and seed, one run at a time, with the
run length from BENCHMARK.json, and prints for each metric the median, the
quartiles and the spread: the distance between the first and third quartile
as a share of the median, beside the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report: dict[str, dict] = {}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed} was not correct:\n{proc.stdout}")
            runs.append({name: m["value"] for name, m in result["metrics"].items()})
        report[workload] = {name: {**spread([r[name] for r in runs]), "bound": bounds[name],
                                   "values": [r[name] for r in runs]} for name in bounds}
        for name, row in report[workload].items():
            print(f"{workload:10} {name:14} median {row['median']:<12.5g} spread {row['spread']:7.2%}"
                  f"  bound {row['bound']:.0%}", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
