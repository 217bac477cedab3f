"""The benchmark's tracer wraps callables of the library by name; each must still exist."""

import importlib.util
import os

import regfree_mpc
import regfree_mpc.config  # noqa: F401  (not imported by the package itself)

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")

# spans of callables that no longer exist, kept until the tracer drops them
RETIRED = {"mpc.gradient", "mpc.cost_gradient_hessian", "mpc.solve_dense"}


def test_every_traced_callable_resolves():
    """A rename or deletion of a traced callable would silently read 0 in its per-layer metrics."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = {name for owner, attr, name in tracing.trace_targets(regfree_mpc)
               if not callable(tracing._original(owner, attr))}
    assert missing <= RETIRED, sorted(missing - RETIRED)
