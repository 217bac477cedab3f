"""Benchmark of the regfree_mpc library through its public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports the library from
`src/`.  One process, one client, closed loop: each operation starts when
the previous one has returned.  With `--trace 0` the last line of standard
output is a JSON object with the end-to-end metrics named in
BENCHMARK.json; with `--trace 1` it holds the per-layer metrics of a traced
run.  The lines before it repeat the metrics under the names used in
perfbench/README.md, with the machine facts and the checks.  The exit code
is 1 when a correctness check fails and 2 when the library is missing.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import workloads
from tracing import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = {"full": 3, "smoke": 1}
MAX_TRACED_PASSES = 5
# the end-to-end metrics under the names of perfbench/README.md
NAMED_METRICS = (("setup_s", "s"), ("ctrl_p50_ms", "ms"), ("ctrl_p95_ms", "ms"),
                 ("sim_steps_per_s", "1/s"), ("ocp_p50_ms", "ms"), ("ocp_p90_ms", "ms"),
                 ("analyze_ms", "ms"), ("solve_fail_frac", "frac"), ("track_ise", "(t/h)^2"),
                 ("peak_rss_mb", "MB"))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(SETUP_SAMPLES), default="full",
                    help="smoke: short episodes and one set-up sample, for the smoke test")
    ap.add_argument("--setup-only", action="store_true",
                    help="import, set up and warm up, then exit (one set-up sample)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    return args


def import_library():
    """The library from the checkout's src/, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "regfree_mpc", "__init__.py")):
        sys.stderr.write(f"perfbench: no library sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    import regfree_mpc
    import regfree_mpc.config  # noqa: F401  (not imported by the package itself)
    return regfree_mpc


def machine_facts():
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "numpy": np.__version__}
    import scipy
    facts["scipy"] = scipy.__version__
    facts["blas"] = [f"{lib}: {threads} threads" for lib, threads in _openblas_threads()]
    facts["blas_build"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name")
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next((ln.split(":", 1)[1].strip() for ln in fh
                                 if ln.startswith("model name")), platform.processor())
    except OSError:
        facts["cpu"] = platform.processor()
    return facts


def _openblas_threads():
    """(library file, thread count) of each OpenBLAS loaded into this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return []
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found.append((os.path.basename(path), fn()))
                break
    return found


def setup_seconds(args):
    """Wall time of fresh interpreters that import, set up and warm up, then exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES[args.size]):
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=150, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - t0)
    return samples


def run_pass(workload, tally, tracer=None):
    t0 = time.perf_counter()
    for i in range(workload.pass_size):
        if tracer is not None:
            tracer.instance = i
        workload.run(i, tally)
    return time.perf_counter() - t0


def untraced(args, workload):
    tally = workloads.Tally()
    rates = []      # operations per busy second, one per pass
    t0 = time.perf_counter()
    i = 0
    while not rates or time.perf_counter() - t0 < args.seconds:
        units, busy = tally.units, tally.busy_s
        for _ in range(workload.pass_size):
            workload.run(i, tally)
            i += 1
        rates.append((tally.units - units) / (tally.busy_s - busy))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = setup_seconds(args)
    lat = tally.latencies_ms
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_ms": float(np.percentile(lat, 50)),
        "op_tail_ms": float(np.percentile(lat, workload.tail_percentile)),
        "ops_per_s": statistics.median(rates),
        "solve_ok_frac": (tally.attempted - tally.failed - tally.unconverged) / tally.attempted,
        "peak_rss_mb": peak_rss_mb,
    }
    named = {"setup_s": metrics["setup_s"], "solve_fail_frac": 1.0 - metrics["solve_ok_frac"],
             "peak_rss_mb": peak_rss_mb}
    named.update(workload.named_metrics(tally, metrics))
    report = {"operations": i, "passes": len(rates), "latency_samples": len(lat),
              "busy_s": tally.busy_s, "mean_ops_per_s": tally.units / tally.busy_s,
              "setup_samples_s": setup, "named_metrics": named, "kkt": tally.extra.get("kkt", [])}
    return tally, metrics, report


def layer_snapshot(tracer):
    snap = {}
    for name, (calls, total, own) in tracer.totals.items():
        snap[f"{name}.calls"] = calls
        snap[f"{name}.ms"] = total * 1e3
        snap[f"{name}.self_ms"] = own * 1e3
    snap.update(tracer.counts)
    return snap


def traced(args, lib, workload):
    """Alternate untraced and traced passes over the same instances."""
    tally = workloads.Tally()
    tracer = Tracer()
    plain_s, traced_s, snaps = [], [], []
    t0 = time.perf_counter()
    while not snaps or (time.perf_counter() - t0 < args.seconds and len(snaps) < MAX_TRACED_PASSES):
        plain_s.append(run_pass(workload, tally))
        tracer.reset_totals()
        tracer.install(lib)
        try:
            traced_s.append(run_pass(workload, tally, tracer))
        finally:
            tracer.uninstall()
        tracer.keep_spans = False       # the spans of one pass are enough to inspect
        snaps.append(layer_snapshot(tracer))
    counters = {k: v for k, v in snaps[0].items() if not k.endswith("ms")}
    for snap in snaps[1:]:
        for k, v in counters.items():
            if snap.get(k) != v:
                tally.fail(1, f"work counter {k} is {snap.get(k)} in a later pass, {v} in the first")
    layers = {k: statistics.median(s.get(k, 0.0) for s in snaps)
              for k in snaps[0] if k.endswith("ms")}
    layers.update(counters)
    g = layers.get("mpc.gn_iters", 0)
    layers["mpc.gn_iters_per_solve"] = g / layers["mpc.solve.calls"]
    layers["mpc.rollouts_per_gn_iter"] = layers.get("mpc.rollout.calls", 0) / g if g else 0.0
    layers["mpc.backtracks_per_gn_iter"] = layers.get("mpc.backtracks", 0) / g if g else 0.0
    plain, with_trace = statistics.median(plain_s), statistics.median(traced_s)
    layers["trace.overhead_pct"] = 100.0 * (with_trace - plain) / plain
    layers["trace.spans_per_pass"] = len(tracer.spans[0])
    spans_path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv")
    tracer.write_spans(spans_path)
    report = {"traced_passes": len(snaps), "pass_size": workload.pass_size,
              "untraced_pass_s": plain_s, "traced_pass_s": traced_s, "spans_file": spans_path}
    return tally, layers, report


def main(argv=None):
    args = parse_args(argv)
    lib = import_library()
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    os.makedirs(OUT, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](lib, args.seed, args.size, OUT)
    workload.warm_up()
    if args.setup_only:
        return 0
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    if args.trace:
        tally, values, report = traced(args, lib, workload)
        wanted = bench["per_layer"]
        values = {m["name"]: values.get(m["name"], 0) for m in wanted}
    else:
        tally, values, report = untraced(args, workload)
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report.update(workload=args.workload, seed=args.seed, trace=args.trace, size=args.size,
                  machine=machine_facts(), metrics=metrics, attempted=tally.attempted,
                  unconverged=tally.unconverged, failed=tally.failed, problems=tally.problems)
    report_path = os.path.join(OUT, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print(f"# machine {json.dumps(report['machine'])}")
    named = report.get("named_metrics", {})
    for name, unit in NAMED_METRICS if not args.trace else ():
        text = f"{named[name]!r} {unit}" if name in named else "n/a"
        print(f"# metric {name} = {text}")
    if args.trace:
        print(f"# tracing overhead {values['trace.overhead_pct']:.1f} % over "
              f"{report['traced_passes']} passes; spans in {report['spans_file']}")
    print(f"# solves attempted {tally.attempted}, unconverged {tally.unconverged}, "
          f"failed {tally.failed}")
    for msg in tally.problems:
        print(f"# check failed: {msg}")
    print(f"# report {report_path}")
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
