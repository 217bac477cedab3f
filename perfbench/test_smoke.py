"""Smoke test: every workload at a tiny size, through the benchmark's command."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
COUNTER_UNITS = ("count", "bytes", "ratio")


def bench_run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def check_metrics(result, listed):
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])


@pytest.fixture(scope="module")
def traced_runs():
    """Two traced runs with the same seed, per workload."""
    return {w: (bench_run(w, 1, 1), bench_run(w, 1, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = bench_run(workload, 1, 0)
    check_metrics(result, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_repeats_its_work_counters(workload, traced_runs):
    first, second = traced_runs[workload]
    check_metrics(first, BENCH["per_layer"])
    counters = [m["name"] for m in BENCH["per_layer"] if m["unit"] in COUNTER_UNITS]
    assert {k: first["metrics"][k]["value"] for k in counters} == \
           {k: second["metrics"][k]["value"] for k in counters}
    assert first["metrics"]["mpc.solve.calls"]["value"] > 0


# per-layer metrics that are not totals of one traced call
DERIVED = {"mpc.gn_iters", "mpc.gn_iters_per_solve", "mpc.rollouts_per_gn_iter", "mpc.backtracks",
           "mpc.backtracks_per_gn_iter", "mpc.unconverged", "mpc.failed",
           "simulation.write_csv.bytes", "trace.overhead_pct", "trace.spans_per_pass"}


def test_every_per_layer_metric_names_a_traced_call():
    # a misspelt name in BENCHMARK.json would silently read 0
    sys.path.insert(0, HERE)
    try:
        import run
        import tracing
        spans = {name for _, _, name in tracing.trace_targets(run.import_library())}
    finally:
        sys.path.remove(HERE)
    for m in BENCH["per_layer"]:
        span, _, total = m["name"].rpartition(".")
        assert m["name"] in DERIVED or (span in spans and total in ("calls", "ms", "self_ms")), m


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_their_schema(workload, tmp_path):
    sys.path.insert(0, HERE)
    try:
        import run
        import workloads
        lib = run.import_library()
        make = workloads.WORKLOADS[workload]
        a, b = make(lib, 1, "smoke", str(tmp_path)), make(lib, 2, "smoke", str(tmp_path))
        changed = False
        for i in range(a.pass_size):
            x, y = a.inputs(i), b.inputs(i)
            assert x.keys() == y.keys()
            for key in x:
                vx, vy = x[key], y[key]
                if isinstance(vx, lib.models.LinearSystem):
                    vx, vy = vx.A, vy.A
                assert type(vx) is type(vy) and np.shape(vx) == np.shape(vy)
                changed |= not np.array_equal(vx, vy)
        assert changed
    finally:
        sys.path.remove(HERE)
