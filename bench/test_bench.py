"""Tests of the benchmark itself: the correctness gate, the outside-in
tracer and the contract of run.py.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
The traced-run tests start two traced children per workload (about a
minute and a half in all).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402

# functions each workload must reach (count > 0), and the ones its row in
# README.md says it bypasses (count == 0)
HITS = {
    "interval-deep": (
        "transfer.morphism_G", "transfer.transferred_m", "cochains.include_g",
        "cochains.elementary_form", "forms.wedge", "forms.Form",
        "transfer.interval_product_table", "transfer.p_polynomial_sequence",
    ),
    "verify-triangle": (
        "cochains.project_f", "forms.face_restrict", "forms.wedge", "cochains.include_g",
        "transfer.morphism_G", "transfer.transferred_m", "tensorwords.shuffle",
        "tensorwords.compositions", "transfer.check_a_infinity", "transfer.check_morphism",
        "transfer.check_c_infinity", "transfer.check_unital", "forms.Form",
    ),
    "contraction-tetra": (
        "contraction.s_operator", "contraction.h_operator", "cochains.project_f",
        "forms.wedge", "forms.differential", "contraction.check_contraction", "forms.Form",
    ),
    "whitney-octahedron": (
        "complexes.cup", "complexes.global_g", "complexes.global_f", "complexes.global_wedge",
        "complexes.global_H", "complexes.global_coboundary", "cochains.elementary_form",
        "forms.integrate_top", "contraction.homotopy_H", "complexes.check_whitney_conditions",
        "forms.Form",
    ),
}
BYPASSES = {
    "interval-deep": ("contraction.check_contraction", "complexes.cup"),
    "verify-triangle": ("complexes.cup",),
    "contraction-tetra": ("transfer.morphism_G", "transfer.transferred_m", "complexes.cup"),
    "whitney-octahedron": ("cochains.project_f",),
}


def traced(workload: str, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    done = subprocess.run(
        [sys.executable, str(run.CHILD), "trace", "--", *run.WORKLOADS[workload]],
        cwd=run.ROOT, capture_output=True, text=True, env=env, timeout=170,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs per workload, under different hash seeds."""
    run.prepare()
    return {w: (traced(w, "1"), traced(w, "2")) for w in run.WORKLOADS}


def references() -> dict:
    return json.loads((BENCH / "references.json").read_text(encoding="utf-8"))


# -- the gate ---------------------------------------------------------------


def passing_record(workload: str) -> dict:
    ref = references()[workload]
    return {"exit_code": 0, "stdout_sha256": ref["stdout_sha256"],
            "stdout_bytes": ref["stdout_bytes"], "all_passed": True}


def test_gate_passes_the_reference():
    assert run.gate(passing_record("verify-triangle"), references()["verify-triangle"]) == []


def test_gate_fails_a_wrong_digest():
    record = dict(passing_record("verify-triangle"), stdout_sha256="0" * 64)
    reasons = run.gate(record, references()["verify-triangle"])
    assert len(reasons) == 1 and "sha256" in reasons[0]


def test_gate_fails_a_nonzero_exit():
    record = dict(passing_record("verify-triangle"), exit_code=1)
    reasons = run.gate(record, references()["verify-triangle"])
    assert len(reasons) == 1 and "exit code 1" in reasons[0]


def test_gate_fails_a_crashed_child_and_a_failing_report():
    ref = references()["verify-triangle"]
    assert run.gate({"mode": "run", "error": "child exit 1: boom"}, ref) == ["child exit 1: boom"]
    assert run.gate(dict(passing_record("verify-triangle"), all_passed=False), ref)


def test_gate_fails_a_real_child_with_a_usage_error():
    ref = references()["verify-triangle"]
    record = run.run_child("run", ["verify", "--dim", "-1"], time.monotonic() + 60)
    assert record["exit_code"] == 2
    assert any("exit code 2" in r for r in run.gate(record, ref))


# -- the speed probe ---------------------------------------------------------


def test_reference_time_removes_the_probes_and_divides_by_the_speed():
    probe = speed.SpeedProbe()
    probe.durations = [2 * speed.REFERENCE_PROBE_S] * 10
    # 10 probes of 2 ms leave 2.98 s of work, run at half the reference speed
    assert probe.reference_s(3.0, fallback=1.0) == pytest.approx(1.49)
    # a run too short for a tick takes the set-up speed
    assert speed.SpeedProbe().reference_s(0.01, fallback=2.0) == pytest.approx(0.005)


def test_probe_ticks_while_the_program_runs():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        end = time.process_time() + 0.5
        while time.process_time() < end:
            pass
    finally:
        probe.stop()
    assert 5 <= len(probe.durations) <= 11
    assert speed.speed_factor(probe.durations) > 0


# -- traced runs -------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_run_matches_the_untraced_reference(traced_pairs, workload):
    for record in traced_pairs[workload]:
        assert run.gate(record, references()[workload]) == []


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_call_counts_repeat_exactly(traced_pairs, workload):
    first, second = (
        {k: c["calls"] for k, c in r["trace"]["counters"].items()} for r in traced_pairs[workload]
    )
    assert first == second
    caches = [
        {k: (c["hits"], c["misses"], c["currsize"]) for k, c in r["trace"]["caches"].items()}
        for r in traced_pairs[workload]
    ]
    assert caches[0] == caches[1]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_workload_reaches_its_predicted_layers(traced_pairs, workload):
    counters = traced_pairs[workload][0]["trace"]["counters"]
    assert [k for k in HITS[workload] if counters[k]["calls"] == 0] == []
    assert [k for k in BYPASSES[workload] if counters[k]["calls"] != 0] == []


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_spans_nest_under_main(traced_pairs, workload):
    spans = traced_pairs[workload][0]["trace"]["spans"]
    assert spans[0]["name"] == "cli.main" and spans[0]["parent"] is None
    assert spans[1:] and all(s["parent"] == 0 for s in spans[1:])
    assert all(0 <= s["start"] <= s["end"] <= spans[0]["end"] for s in spans)


def test_aliases_are_wrapped(traced_pairs):
    bindings = traced_pairs["whitney-octahedron"][0]["trace"]["bindings"]
    # contraction, transfer, complexes (as _local_H) and the package root
    assert bindings["contraction.homotopy_H"] == 4
    assert all(count >= 1 for count in bindings.values())


def test_declared_per_layer_metrics_are_measured(traced_pairs):
    _, per_layer = run.declared_metrics()
    measured = run.layer_metrics(traced_pairs["verify-triangle"][0]["trace"])
    measured["trace.overhead_s"] = (0.0, "s")
    assert [m["name"] for m in per_layer if m["name"] not in measured] == []
    run.select(per_layer, measured)


# -- the contract ------------------------------------------------------------


def test_benchmark_json_names_the_workloads():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert set(references()) == set(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_ref_s", "setup_s", "peak_rss_mib"}


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-triangle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
