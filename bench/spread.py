"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage (from the repository root):

    python3 bench/spread.py --seeds 1 2 3 4 5 [--workloads NAME ...]

Each seed is one round: every chosen workload runs once through run.py,
in an order shuffled by that seed.  For each workload and end-to-end metric
the script prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json.  A spread under a third of the bound is steady enough for
the regression check; ``setup_s`` is exempt from the spread rule.
Runs are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    failed = 0
    for seed in args.seeds:
        order = list(args.workloads)
        random.Random(seed).shuffle(order)
        for workload in order:
            cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"seed {seed} {workload}: exit {done.returncode}: {done.stderr.strip()}")
                failed += 1
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            row = [f"seed {seed} {workload}: correct={result['correct']}"]
            for name, metric in result["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
                row.append(f"{name}={metric['value']:.4f}")
            print(" ".join(row), flush=True)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload, metrics in values.items():
        for name, series in metrics.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bounds[name] / 3
            steady = steady and ok
            print(f"{workload:20s} {name:14s} n={len(series):2d} median={median:.4f} "
                  f"q1={q1:.4f} q3={q3:.4f} spread={spread:.2%} bound={bounds[name]:.0%} "
                  f"{'ok' if ok else 'WIDE'}")
    print(f"failed runs: {failed}; {'steady' if steady and not failed else 'NOT steady'}")
    return 0 if steady and not failed else 1


if __name__ == "__main__":
    raise SystemExit(main())
