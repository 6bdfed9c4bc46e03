"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import harness  # noqa: E402
import layertrace  # noqa: E402

WORKLOADS = ("recipes", "large_n", "simulate")
DEFINITION = json.loads((ROOT / "BENCHMARK.json").read_text())

# Per-layer metrics that must be nonzero on each workload's traced run.
MAPPED = {
    "recipes": ("geometry.link_budget_calls", "geometry.link_budget_s",
                "success.p_calls", "success.compute_calls", "success.hit_ratio",
                "success.sinr_evals", "success.self_s",
                "queue_model.simplex_passes", "queue_model.configs_visited",
                "queue_model.self_s", "throughput.aggregate_s",
                "throughput.self_s", "sweeps.load_config_s", "sweeps.points",
                "sweeps.orchestration_s", "sweeps.write_csv_s", "cli.import_s"),
    "large_n": ("success.p_calls", "success.compute_calls", "success.self_s",
                "queue_model.simplex_passes", "queue_model.configs_visited",
                "queue_model.self_s", "throughput.aggregate_s",
                "throughput.self_s"),
    "simulate": ("simulator.draw_s", "simulator.reception_s",
                 "simulator.scan_s", "simulator.scan_share",
                 "simulator.chunks", "geometry.link_budget_calls"),
}


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int) -> dict:
    proc = _bench("--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = _result(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0  # failed_ratio == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DEFINITION["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = _result(workload, trace=1)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in DEFINITION["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == declared
    assert [k for k in MAPPED[workload] if not metrics[k]["value"] > 0] == []
    analytic = ("success.p_calls", "queue_model.configs_visited")
    simulated = ("simulator.chunks",)
    idle = analytic if workload == "simulate" else simulated
    assert all(metrics[k]["value"] == 0 for k in idle)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_outputs_equal_untraced_outputs(workload):
    runner = harness.Runner(workload, 0, "tiny")
    plain = {op.key: op.record(op.run()) for op in runner.ops}
    tracer = layertrace.Tracer()
    with tracer:
        traced = {op.key: op.record(op.run()) for op in runner.ops}
    assert tracer.layer_metrics()["geometry.link_budget_calls"] > 0
    assert check.diff(traced, plain, exact=True) == []


def _perturbed_float(record):
    """Path to the first nonzero float in a record, and that float."""
    if isinstance(record, dict):
        items = record.items()
    elif isinstance(record, list):
        items = enumerate(record)
    else:
        return None
    for k, v in items:
        if isinstance(v, float) and v != 0.0 and math.isfinite(v):
            return record, k, v
        found = _perturbed_float(v)
        if found:
            return found
    return None


@pytest.mark.parametrize("workload,factor,fails", [
    ("recipes", 1 + 1e-9, True),
    ("recipes", 1 + 1e-14, False),
    ("large_n", 1 + 1e-9, True),
    ("simulate", None, True),          # one ulp: simulate must be bit-identical
])
def test_perturbed_reference_counts_as_failure(workload, factor, fails):
    refs = check.load_reference(workload, 0)
    runner = harness.Runner(workload, 0, "tiny", refs=refs)
    owner, key, value = _perturbed_float(refs[runner.ops[0].key])
    owner[key] = value * factor if factor else math.nextafter(value, math.inf)
    runner.run_pass()
    assert len(runner.failures) == (1 if fails else 0), runner.failures


def test_simulate_without_reference_checks_invariants():
    runner = harness.Runner("simulate", 10_000, "tiny", refs={})
    runner.run_pass()
    runner.run_pass()
    assert runner.failures == [] and runner.attempted == 4
    op = runner.ops[0]
    stats = dict(runner.first[op.key], queue_final=runner.first[op.key]
                 ["queue_final"] + 1)
    assert check.sim_invariants(stats, op.n_slots, op.sim_seed, op.mode) \
        == ["invariant queue balance fails", "invariant drift_sim fails"]


def test_missing_attribute_is_reported_absent():
    table = layertrace.TABLE + (
        layertrace.Entry("mmrelay.simulator", "_no_such_stage", "simulator",
                         "span"),)
    tracer = layertrace.Tracer(table)
    assert tracer.absent == ["simulator._no_such_stage"]
    with tracer:
        pass


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "recipes", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
