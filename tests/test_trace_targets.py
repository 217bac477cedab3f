"""The benchmark's tracer wraps callables of the library by name; each must still exist."""

import dataclasses
import importlib.util
import os

import regfree_mpc
import regfree_mpc.config  # noqa: F401  (not imported by the package itself)

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# spans of callables that no longer exist, kept until the tracer drops them
RETIRED = {"mpc.gradient", "mpc.cost_gradient_hessian", "mpc.solve_dense"}


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_callable_resolves():
    """A rename or deletion of a traced callable would silently read 0 in its per-layer metrics."""
    tracing = _tracing()
    missing = {name for owner, attr, name in tracing.trace_targets(regfree_mpc)
               if not callable(tracing._original(owner, attr))}
    assert missing <= RETIRED, sorted(missing - RETIRED)


def test_every_traced_span_is_reached(tmp_path):
    """A wrapped callable that the library no longer calls through its wrapped name, such as
    an import moved to module level, would also read 0: each span must record a call."""
    tracing = _tracing()
    tracer = tracing.Tracer()
    tracer.install(regfree_mpc)
    try:
        cfg = regfree_mpc.config
        spec = cfg.parse_config(cfg.read_config_file("cement_mill_error_feedback"))
        trace = regfree_mpc.simulation.run(dataclasses.replace(spec, steps=3))
        trace.write_csv(str(tmp_path / "trace.csv"))
        an = cfg.parse_config(cfg.read_config_file("academic_analyze"))
        regfree_mpc.linear_analysis.analyze_linear(an.system, an.T, an.N, an.Q, an.R,
                                                   gamma_s=an.gamma_s)
    finally:
        tracer.uninstall()
    names = {name for _, _, name in tracing.trace_targets(regfree_mpc)}
    unreached = {name for name in names if tracer.totals.get(name, [0])[0] == 0}
    assert unreached <= RETIRED, sorted(unreached - RETIRED)
