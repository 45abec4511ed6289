"""Cold-process benchmark of the four verification workloads.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each measurement is one fresh interpreter (bench/child.py) that imports the
package and calls ``simplicial_transfer.cli.main(argv)`` once, because the
package's ``lru_cache``s and the bundle's ``_memo_G`` live for the process
and every CLI user starts with them cold.  Children run one at a time, with
no threads and no parallel children.

Both end-to-end times are in reference seconds: a CPU speed probe runs
inside every child (speed.py), and the measured time is divided by the speed
it finds, because the CPU speed of a shared host drifts by tens of percent.

A run repeats rounds until ``--seconds`` would be exceeded (at least one
round).  A round is one full run plus SETUP_PROBES set-up probes (children
that stop where the battery starts); ``--seed`` only shuffles their order,
since every input is a fixed exhaustive basis.  ``--trace 1`` adds one
traced child after the rounds and reports the per-layer metrics instead of
the end-to-end ones.

Every full and traced run passes the correctness gate: exit code and stdout
sha256 equal the reference recorded from the seed code (references.json),
and the JSON report says all checks passed.  The last stdout line is the
JSON result; the complete record, provenance included, goes to
bench/results/.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SPANS, TIMED

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
OCTAHEDRON = "bench/fixtures/octahedron.json"

WORKLOADS = {
    "interval-deep": ["interval", "--max-arity", "12", "--format", "json"],
    "verify-triangle": ["verify", "--dim", "2", "--max-arity", "3", "--format", "json"],
    "contraction-tetra": ["contraction", "--dim", "3", "--max-poly-degree", "4", "--format", "json"],
    "whitney-octahedron": ["complex", "--file", OCTAHEDRON, "--format", "json", "whitney-check"],
}

SETUP_PROBES = 6
# whole-run budget; the contract allows 180 s per run
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# -- preparation ------------------------------------------------------------


def prepare() -> dict:
    """Byte-compile the package, check the octahedron fixture, and return
    provenance.  Runs before any timing."""
    if not (SRC / "simplicial_transfer" / "cli.py").is_file():
        raise BenchError(f"no package source under {SRC}")
    compileall.compile_dir(str(SRC), quiet=1)
    sys.path.insert(0, str(SRC))
    from simplicial_transfer.complexes import load_complex

    octahedron = load_complex((ROOT / OCTAHEDRON).read_text(encoding="utf-8"))
    f_vector = tuple(
        sum(1 for s in octahedron.simplices if len(s) == k) for k in (1, 2, 3)
    )
    if f_vector != (6, 12, 8):
        raise BenchError(f"octahedron fixture has f-vector {f_vector}, expected (6, 12, 8)")
    return provenance()


def provenance() -> dict:
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    loc = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        loc += data.count(b"\n")
    return {
        "commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_loc": loc,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "nproc_available": len(os.sched_getaffinity(0)),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


# -- children and the gate --------------------------------------------------


def run_child(mode: str, argv: list[str], deadline: float) -> dict:
    """One fresh interpreter; returns its record, or a record with
    ``error`` set when the child itself failed."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return {"mode": mode, "error": "run budget exhausted"}
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), mode, "--", *argv],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"mode": mode, "error": f"timed out after {timeout:.0f} s"}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"mode": mode, "error": f"child exit {done.returncode}: {done.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def gate(record: dict, reference: dict) -> list[str]:
    """Reasons a full run fails; empty when it passes."""
    if "error" in record:
        return [record["error"]]
    reasons = []
    if record["exit_code"] != reference["exit_code"]:
        reasons.append(f"exit code {record['exit_code']}, expected {reference['exit_code']}")
    if record["stdout_sha256"] != reference["stdout_sha256"]:
        reasons.append(
            f"stdout sha256 {record['stdout_sha256'][:16]}.. ({record['stdout_bytes']} bytes), "
            f"expected {reference['stdout_sha256'][:16]}.. ({reference['stdout_bytes']} bytes)"
        )
    if record.get("all_passed") is False:
        reasons.append("the report has failing checks")
    return reasons


# -- metrics ----------------------------------------------------------------


def layer_metrics(trace: dict) -> dict:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    timed = {f"{module}.{name}" for module, names in TIMED.items() for name in names}
    spans = {f"{module}.{name}" for module, names in SPANS.items() for name in names}
    out = {}
    for key, counter in trace["counters"].items():
        out[f"{key}.calls"] = (counter["calls"], "count")
        if key in timed:
            out[f"{key}.self_s"] = (counter["self_s"], "s")
        if key in spans:
            out[f"{key}.total_s"] = (counter["total_s"], "s")
        if "out_terms_mean" in counter:
            out[f"{key}.out_terms_mean"] = (counter["out_terms_mean"], "terms")
    for key, cache in trace["caches"].items():
        out[f"{key}.hit_ratio"] = (cache["hit_ratio"], "ratio")
        out[f"{key}.currsize"] = (cache["currsize"], "entries")
    return out


def self_time_shares(trace: dict, wall_s: float) -> dict:
    """Traced self time of each wrapped function as a share of the traced
    wall; ``untraced`` is the rest (cli, the wrappers' own cost)."""
    shares = {key: c["self_s"] / wall_s for key, c in trace["counters"].items() if c["self_s"]}
    shares["untraced"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def layer_shares(shares: dict) -> dict:
    out: dict[str, float] = {}
    for key, share in shares.items():
        layer = key.split(".")[0]
        out[layer] = out.get(layer, 0.0) + share
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def declared_metrics() -> tuple[list[dict], list[dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["end_to_end"], spec["per_layer"]


def select(declared: list[dict], values: dict) -> dict:
    """The declared metrics, in declared order.  A cache that no longer
    exists reads as empty; any other missing metric is an error."""
    out = {}
    for metric in declared:
        name = metric["name"]
        if name in values:
            value, unit = values[name]
        elif name.startswith("cache."):
            value, unit = 0, metric["unit"]
        else:
            raise BenchError(f"metric {name} was not measured")
        if unit != metric["unit"]:
            raise BenchError(f"metric {name} measured in {unit}, declared in {metric['unit']}")
        out[name] = {"value": value, "unit": unit}
    return out


# -- driver -----------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    argv = WORKLOADS[workload]
    reference = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))[workload]
    rng = random.Random(seed)
    deadline = time.monotonic() + RUN_BUDGET_S
    start = time.monotonic()
    full: list[dict] = []
    probes: list[dict] = []
    failures: list[dict] = []
    round_s = 0.0
    while not full or time.monotonic() - start + round_s <= seconds:
        round_start = time.monotonic()
        units = ["run"] + ["setup"] * SETUP_PROBES
        rng.shuffle(units)
        for mode in units:
            record = run_child(mode, argv, deadline)
            if mode == "setup":
                if "error" in record:
                    raise BenchError(f"set-up probe failed: {record['error']}")
                probes.append(record)
                continue
            full.append(record)
            reasons = gate(record, reference)
            if reasons:
                failures.append({"mode": mode, "reasons": reasons})
        round_s = time.monotonic() - round_start
        if failures:
            break

    traced = None
    if trace:
        traced = run_child("trace", argv, deadline)
        reasons = gate(traced, reference)
        if reasons:
            failures.append({"mode": "trace", "reasons": reasons})

    # a run that failed the gate still has timings; a crashed child has none
    timed = [r for r in full if "error" not in r]
    attempted = len(full) + (traced is not None)
    result = {
        "workload": workload,
        "argv": argv,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures,
        "full_runs": full,
        "setup_probes": probes,
    }
    if timed:
        result["end_to_end"] = {
            "wall_ref_s": (statistics.median(r["wall_ref_s"] for r in timed), "s"),
            "setup_s": (statistics.median(r["setup_ref_s"] for r in timed + probes), "s"),
            "peak_rss_mib": (statistics.median(r["peak_rss_mib"] for r in timed), "MiB"),
        }
        # the same times as the host's clock read them, before the speed
        # correction of speed.py
        result["host_s"] = {
            "wall_s": statistics.median(r["wall_s"] for r in timed),
            "setup_s": statistics.median(r["setup_s"] for r in timed + probes),
        }
    if traced is not None and "error" not in traced:
        layers = layer_metrics(traced["trace"])
        if timed:
            overhead = traced["wall_s"] - result["host_s"]["wall_s"]
            layers["trace.overhead_s"] = (overhead, "s")
        result["per_layer"] = layers
        result["self_time_shares"] = self_time_shares(traced["trace"], traced["wall_s"])
        result["traced_run"] = traced
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        end_to_end, per_layer = declared_metrics()
        result = {"provenance": prepare()}
        result.update(measure(args.workload, args.seed, args.seconds, bool(args.trace)))
        declared, values = (
            (per_layer, result.get("per_layer")) if args.trace else (end_to_end, result.get("end_to_end"))
        )
        if values is None:
            raise BenchError(f"no run completed: {result['failures']}")
        metrics = select(declared, values)
    except (BenchError, OSError, KeyError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    prov = result["provenance"]
    print(
        f"{args.workload}: {len(result['full_runs'])} full runs, {len(result['setup_probes'])} "
        f"set-up probes, failed {result['failed']}/{result['attempted']}; "
        f"commit {prov['commit']}, python {prov['python']}, nproc {prov['nproc']}, "
        f"src LOC {prov['src_loc']}; record in {out_file.relative_to(ROOT)}"
    )
    if "self_time_shares" in result:
        shares = result["self_time_shares"]
        print("traced self time by layer: "
              + ", ".join(f"{k} {v:.1%}" for k, v in layer_shares(shares).items()))
        print("traced self time, top functions: "
              + ", ".join(f"{k} {v:.1%}" for k, v in list(shares.items())[:6]))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
