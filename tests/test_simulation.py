import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from oracles import decrease_check, value_series
from regfree_mpc import config as cfg, mpc as mpc_mod
from regfree_mpc.errors import ConfigError, DomainError, NumericalError, ShapeError
from regfree_mpc.linear_analysis import solve_regulator
from regfree_mpc.estimation import ObserverConfig
from regfree_mpc.models import academic_example, cement_mill, cement_mill_regulator
from regfree_mpc.mpc import MpcConfig
from regfree_mpc.simulation import ScenarioSpec, SimTrace, metrics, run


def academic_scenario(variant, N, steps, x0=1.0, T=None, R=1.0, u_init=None):
    model = academic_example()
    mpc = MpcConfig(variant=variant, N=N, Q=np.eye(1), R=R * np.eye(1), T=T)
    return ScenarioSpec(model=model, mpc=mpc, x0=[x0], w0=np.zeros(0), steps=steps,
                        regulator=solve_regulator(model.linear), u_init=u_init)


def test_mill_loop_imports_no_scipy():
    """Importing scipy.linalg takes about 0.4 s, as long as a mill run's whole start-up
    without it, so the routines that use scipy import it inside their bodies."""
    src = os.path.dirname(os.path.dirname(cfg.__file__))
    code = ("import dataclasses, sys\n"
            "import regfree_mpc, regfree_mpc.config as cfg\n"
            "spec = cfg.parse_config(cfg.read_config_file('cement_mill_error_feedback'))\n"
            "regfree_mpc.simulation.run(dataclasses.replace(spec, steps=3))\n"
            "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))\n")
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_scenario_validation():
    model = academic_example()
    mpc = MpcConfig(variant="output_only", N=3, Q=np.eye(1), R=np.eye(1))
    for steps in (0, 2.5, True, "3"):
        with pytest.raises(ConfigError) as err:
            ScenarioSpec(model=model, mpc=mpc, x0=[1.0], w0=np.zeros(0), steps=steps)
        assert err.value.key == "steps"
    spec = ScenarioSpec(model=model, mpc=mpc, x0=[1.0], w0=np.zeros(0), steps=np.int64(2))
    assert len(run(spec).u) == 2


def test_scenario_spec_refuses_vectors_of_the_wrong_shape():
    """Library callers get a ShapeError, not numpy broadcasting or a numpy traceback, and a
    DomainError keyed by the field for a non-finite x0, w0 or u_init (x0 = None on a one-state
    model reads [nan])."""
    spec = cfg.parse_config(cfg.read_config_file("cement_mill_error_feedback"))   # m = p = 2
    ob = spec.observer                                                            # n_p + q = 5
    for field_name, value in (("u_init", np.array([100.0])), ("x0", np.ones(2)),
                              ("w0", np.ones(3)),
                              ("observer", dataclasses.replace(ob, noise_lo=[-1.0], noise_hi=[1.0])),
                              ("observer", dataclasses.replace(ob, xhat0=np.ones(3))),
                              ("observer", dataclasses.replace(ob, kind="luenberger",
                                                               L=np.ones((4, 2)))),
                              ("observer", dataclasses.replace(ob, kind="luenberger",
                                                               L=np.ones((2, 5))))):
        with pytest.raises(ShapeError):
            dataclasses.replace(spec, **{field_name: value})
    for base, field_name, value in ((spec, "x0", [np.nan, 1.0, 1.0]),
                                    (spec, "w0", [np.inf, 425.0]),
                                    (spec, "u_init", [100.0, -np.inf]),
                                    (academic_scenario("output_only", 3, 2), "x0", None)):
        with pytest.raises(DomainError, match=f"^{field_name} must be finite") as err:
            dataclasses.replace(base, **{field_name: value})
        assert err.value.key == field_name


def test_noise_is_uniform_exactly_when_both_bounds_are_given():
    spec = cfg.parse_config(cfg.read_config_file("cement_mill_error_feedback"))
    quiet = dataclasses.replace(spec.observer, noise_lo=None, noise_hi=None)
    assert not run(dataclasses.replace(spec, steps=2, observer=quiet)).eta.any()
    assert run(dataclasses.replace(spec, steps=2)).eta.all()
    for bounds, error in (({"noise_lo": [-1.0]}, DomainError), ({"noise_hi": [1.0]}, DomainError),
                          ({"noise_lo": [1.0], "noise_hi": [-1.0]}, DomainError),
                          ({"noise_lo": [np.nan], "noise_hi": [1.0]}, DomainError),
                          ({"noise_lo": [-1.0], "noise_hi": [1.0, 1.0]}, ShapeError)):
        with pytest.raises(error):
            ObserverConfig("ekf", np.zeros(5), **bounds)


def test_academic_output_only_trace_values():
    trace = run(academic_scenario("output_only", 8, 5))
    assert np.allclose(trace.x.ravel(), [1.0, 1.5, 2.25, 3.375, 5.0625], atol=1e-9)
    assert np.max(np.abs(trace.y)) < 1e-9
    # stored outputs re-evaluate to the same values
    model = academic_example()
    for t in range(trace.steps):
        y = model.h(trace.x[t], trace.u[t], trace.w[t])
        assert np.allclose(y, trace.y[t])


def test_academic_incremental_sigma_decay():
    trace = run(academic_scenario("incremental_input", 10, 61, T=1, u_init=[0.0]))
    sig = trace.sigma
    assert sig[0] == pytest.approx(1.0)
    assert all(b < a for a, b in zip(sig[1:-1], sig[2:]))
    assert sig[60] < 1e-6
    rep = metrics(trace, academic_scenario("incremental_input", 10, 61, T=1))
    assert rep.decay_rate < 1.0
    # frozen after first derivation: per-step geometric rate of sigma
    assert rep.decay_rate == pytest.approx(0.475, abs=0.02)


def test_manifold_invariance_all_variants():
    mill = cement_mill()
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)

    for variant, kw in (("output_only", {}),
                        ("input_regularized", {}),
                        ("incremental_input", {"T": 1})):
        mpc = MpcConfig(variant=variant, N=5, Q=np.eye(2), R=1e-2 * np.eye(2), **kw)
        spec = ScenarioSpec(model=mill, mpc=mpc, x0=x_ref, w0=w, steps=20,
                            regulator=cement_mill_regulator, u_init=u_ref)
        trace = run(spec)
        assert np.max(trace.sigma) < 1e-8, variant
        assert np.max(np.abs(trace.y)) < 1e-6, variant


def test_determinism_bit_identical():
    text = cfg.read_config_file("cement_mill_error_feedback")
    spec1 = cfg.parse_config(text)
    spec2 = cfg.parse_config(text)
    t1 = run(spec1)
    t2 = run(spec2)
    assert t1.to_csv() == t2.to_csv()


def test_seed_changes_noise_not_structure():
    text = cfg.read_config_file("cement_mill_error_feedback")
    t1 = run(cfg.parse_config(text, seed_override=1))
    t2 = run(cfg.parse_config(text, seed_override=2))
    assert t1.to_csv() != t2.to_csv()
    assert t1.steps == t2.steps


def test_constraint_satisfaction_hard():
    spec = cfg.parse_config(cfg.read_config_file("cement_mill_nominal"))
    trace = run(spec)
    rep = metrics(trace, spec)
    assert rep.max_constraint_violation == 0.0
    assert np.all(trace.u >= spec.model.input_lo)
    assert np.all(trace.u <= spec.model.input_hi)


def test_metrics_noiseless_run():
    trace = run(academic_scenario("incremental_input", 10, 40, T=1, u_init=[0.0]))
    rep = metrics(trace, academic_scenario("incremental_input", 10, 40, T=1))
    assert np.isfinite(rep.l2_ratio)
    assert rep.max_constraint_violation == 0.0


def test_metrics_l2_ratio_of_an_overflowing_trace_reads_inf():
    """From x0 = 1e308 with an observer, the error sum and its denominator both overflow
    to inf; the ratio reads inf, not inf / inf = NaN."""
    model = academic_example()
    spec = ScenarioSpec(model=model, mpc=MpcConfig(variant="output_only", N=8, Q=np.eye(1),
                                                   R=np.zeros((1, 1))),
                        x0=[1e308], w0=np.zeros(0), steps=3,
                        observer=ObserverConfig(kind="luenberger", xhat0=[0.0], L=[[0.5]]),
                        regulator=solve_regulator(model.linear))
    assert metrics(run(spec), spec).l2_ratio == np.inf


def test_metrics_on_manifold_sigma_zero():
    mill = cement_mill()
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)

    mpc = MpcConfig(variant="incremental_input", N=4, Q=np.eye(2),
                    R=1e-2 * np.eye(2), T=1)
    spec = ScenarioSpec(model=mill, mpc=mpc, x0=x_ref, w0=w, steps=10,
                        regulator=cement_mill_regulator, u_init=u_ref)
    trace = run(spec)
    assert np.max(np.abs(trace.sigma)) < 1e-10


def test_decrease_check_academic():
    """Value decrease with the certified margin at N = 12 (storage-free case)."""
    from regfree_mpc.augmentation import augment_linear
    from regfree_mpc.linear_analysis import (epsilon_o_generalized_eig,
                                             horizon_bounds, sigma_metric_dare)
    model = academic_example()
    N = 12
    spec = academic_scenario("incremental_input", N, 40, T=1, u_init=[0.0])
    trace = run(spec)
    V = value_series(model, spec.mpc, trace.x, [np.zeros(0)] * trace.steps,
                     memories=trace.memory)
    assert np.allclose(V, trace.value, rtol=1e-8, atol=1e-12)
    aug = augment_linear(model.linear, 1)
    metric = sigma_metric_dare(aug, np.eye(1), np.eye(1))
    eps_o = epsilon_o_generalized_eig(aug, np.eye(1), np.eye(1), metric)
    alpha = horizon_bounds(1.0, eps_o, N=N).alpha_N
    z = np.hstack([trace.x, trace.memory])
    sigma_P = np.einsum("ti,ij,tj->t", z, metric.P, z)
    margins = decrease_check(V, sigma_P, alpha, eps_o)
    assert np.max(margins) <= 1e-8
    # on-manifold margins are identically zero
    z0 = np.zeros_like(sigma_P)
    assert np.allclose(decrease_check(np.zeros_like(V), z0, alpha, eps_o), 0.0)


def test_decrease_check_below_threshold_not_asserted():
    """N = 2 sits below N_1: margins are merely recorded, positives allowed."""
    from regfree_mpc.augmentation import augment_linear
    from regfree_mpc.linear_analysis import (epsilon_o_generalized_eig,
                                             horizon_bounds, sigma_metric_dare)
    model = academic_example()
    spec = academic_scenario("incremental_input", 2, 30, T=1, u_init=[0.0])
    trace = run(spec)
    aug = augment_linear(model.linear, 1)
    metric = sigma_metric_dare(aug, np.eye(1), np.eye(1))
    eps_o = epsilon_o_generalized_eig(aug, np.eye(1), np.eye(1), metric)
    alpha = horizon_bounds(1.0, eps_o, N=12).alpha_N   # reference alpha
    z = np.hstack([trace.x, trace.memory])
    sigma_P = np.einsum("ti,ij,tj->t", z, metric.P, z)
    margins = decrease_check(trace.value, sigma_P, alpha, eps_o)
    assert margins.shape == (trace.steps - 1,)


def test_trace_csv_roundtrip_format(tmp_path):
    trace = run(academic_scenario("output_only", 4, 3))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x0,u0,y0,V,sigma,iters,converged"
    assert len(lines) == 4
    # values reparse to the stored doubles exactly (17 significant digits)
    first = lines[1].split(",")
    assert float(first[1]) == trace.x[0, 0]


def test_failed_solve_keeps_the_trace_going(monkeypatch, tmp_path):
    """A solve that raises on its k-th call leaves a full trace: step k applies the
    controller's fallback, the last input, and records V = NaN, 0 iterations and
    not converged; the loop goes on and solves again at the next step."""
    from regfree_mpc import mpc
    k, calls, real_solve = 3, [], mpc.solve

    def failing_solve(ocp, warm_start=None):
        calls.append(ocp)
        if len(calls) == k + 1:
            raise NumericalError("injected solver failure")
        return real_solve(ocp, warm_start=warm_start)

    monkeypatch.setattr(mpc, "solve", failing_solve)
    trace = run(cfg.parse_config(cfg.read_config_file("cement_mill_error_feedback")))
    assert trace.steps == 300 and trace.failed_at == k
    for arr in (trace.w, trace.u, trace.y, trace.xhat, trace.eta, trace.value,
                trace.sigma, trace.iterations, trace.converged, trace.memory):
        assert len(arr) == 300
    assert np.array_equal(trace.u[k], trace.u[k - 1])
    assert np.isnan(trace.value[k]) and trace.iterations[k] == 0 and not trace.converged[k]
    assert np.all(trace.converged[k + 1:]) and np.all(np.isfinite(trace.value[k + 1:]))
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    lines = path.read_text().splitlines()
    assert len(lines) == 301 and lines[k + 1].startswith(f"{k},")


def test_output_only_mill_iteration_budget():
    """Deterministic work guard: the canonical tail keeps the shifted warm start optimal.

    The bound is a third of the 1040 GN iterations the preset needs when every
    step re-solves the warm start's invisible last input.
    """
    spec = cfg.parse_config(cfg.read_config_file("cement_mill_output_only"))
    trace = run(spec)
    assert trace.failed_at is None
    assert int(np.sum(trace.iterations)) < 347


def test_output_only_stationary_resolve_takes_no_step(monkeypatch):
    """Work guard: a canonical solution re-solved from itself costs one rollout, not a line search.

    Step 39 of the preset sits at J ~ 1e-27, where a forced first step's line
    search halves about eight times before its trial equals u.
    """
    spec = dataclasses.replace(cfg.parse_config(cfg.read_config_file("cement_mill_output_only")),
                               steps=40)
    solved, orig_solve = [], mpc_mod.solve
    monkeypatch.setattr(mpc_mod, "solve", lambda ocp, warm_start=None:
                        solved.append((ocp, orig_solve(ocp, warm_start=warm_start))) or solved[-1][1])
    run(spec)
    ocp, last = solved[-1]
    rollouts, orig_rollout = [], mpc_mod.Ocp.rollout
    monkeypatch.setattr(mpc_mod.Ocp, "rollout", lambda self, u: rollouts.append(1) or orig_rollout(self, u))
    again = orig_solve(ocp, warm_start=last.u_opt)
    assert again.iterations == 0 and again.converged
    assert len(rollouts) <= 2
    assert np.array_equal(again.u_opt, last.u_opt)


def test_nominal_mill_converges_at_every_step():
    """No round-off stall in the first 41 steps of the nominal preset.

    A line search that accepts only cost decreases above the round-off of J
    (about 1e-14 J here) leaves steps 8, 10 and 40 unconverged, and a Newton
    step clipped onto the box stalls at step 5.
    """
    spec = dataclasses.replace(cfg.parse_config(cfg.read_config_file("cement_mill_nominal")),
                               steps=41)
    trace = run(spec)
    assert trace.failed_at is None and np.all(trace.converged)


def test_error_feedback_trace_has_estimates():
    spec = cfg.parse_config(cfg.read_config_file("cement_mill_error_feedback"))
    trace = run(spec)
    assert trace.xhat is not None and trace.xhat.shape == (300, 5)
    assert trace.eta is not None
    assert np.all(np.abs(trace.eta) <= 1.0)
    header = trace.to_csv().splitlines()[0]
    assert "xhat0" in header and "xhat4" in header


@pytest.mark.parametrize("with_xhat", (False, True), ids=("plain", "xhat"))
def test_trace_csv_golden_text(with_xhat):
    """Every column prints with %.17g, integer-valued ones as integers; NaN, inf and -0 survive."""
    trace = SimTrace(
        x=np.array([[1.0, -0.0], [0.1, 2.5e-17], [np.inf, -np.inf]]),
        w=np.array([[3.0], [1 / 3], [-2.0]]),
        u=np.array([[0.5], [np.nan], [-1e300]]),
        y=np.array([[1e-5], [123456789.125], [0.0]]),
        xhat=np.array([[1.0, 2.0, -0.0], [0.25, np.nan, 1e20], [-3.5, 4.0, 5.0]])
        if with_xhat else None,
        eta=None, value=np.array([np.nan, 2.0, 0.1]), sigma=np.array([0.0, -0.0, np.inf]),
        iterations=np.array([0, 7, 200]), converged=np.array([False, True, True]))
    xhat = (["xhat0,xhat1,xhat2", "1,2,-0", "0.25,nan,1e+20", "-3.5,4,5"] if with_xhat
            else [None] * 4)
    rows = [("t,x0,x1,w0,u0,y0", xhat[0], "V,sigma,iters,converged"),
            ("0,1,-0,3,0.5,1.0000000000000001e-05", xhat[1], "nan,0,0,0"),
            ("1,0.10000000000000001,2.4999999999999999e-17,0.33333333333333331,nan,"
             "123456789.125", xhat[2], "2,-0,7,1"),
            ("2,inf,-inf,-2,-1.0000000000000001e+300,0", xhat[3],
             "0.10000000000000001,inf,200,1")]
    expected = "".join(",".join(part for part in row if part is not None) + "\n"
                       for row in rows)
    assert trace.to_csv() == expected
