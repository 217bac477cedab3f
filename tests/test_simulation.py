import dataclasses

import numpy as np
import pytest

from regfree_mpc import config as cfg, mpc as mpc_mod
from regfree_mpc.errors import ConfigError, NumericalError
from regfree_mpc.linear_analysis import solve_regulator
from regfree_mpc.models import academic_example, cement_mill, cement_mill_regulator
from regfree_mpc.mpc import MpcConfig
from regfree_mpc.simulation import (ScenarioSpec, decrease_check, metrics, run,
                                    value_series)


def academic_scenario(variant, N, steps, x0=1.0, T=None, R=1.0, u_init=None):
    model = academic_example()
    mpc = MpcConfig(variant=variant, N=N, Q=np.eye(1), R=R * np.eye(1), T=T)
    return ScenarioSpec(model=model, mpc=mpc, x0=[x0], w0=np.zeros(0), steps=steps,
                        regulator=solve_regulator(model.linear), u_init=u_init)


def test_scenario_validation():
    model = academic_example()
    mpc = MpcConfig(variant="output_only", N=3, Q=np.eye(1), R=np.eye(1))
    with pytest.raises(ConfigError):
        ScenarioSpec(model=model, mpc=mpc, x0=[1.0], w0=np.zeros(0), steps=0)
    with pytest.raises(ConfigError):
        ScenarioSpec(model=model, mpc=mpc, x0=[1.0], w0=np.zeros(0), steps=5,
                     feedback="error_feedback")


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

    class MillReg:
        def pi_x(self, ww):
            return cement_mill_regulator(ww)[0]

        def pi_u(self, ww):
            return cement_mill_regulator(ww)[1]

    for variant, kw in (("output_only", {}),
                        ("input_regularized", {}),
                        ("incremental_input", {"T": 1})):
        mpc = MpcConfig(variant=variant, N=5, Q=np.eye(2), R=1e-2 * np.eye(2), **kw)
        spec = ScenarioSpec(model=mill, mpc=mpc, x0=x_ref, w0=w, steps=20,
                            regulator=MillReg(), u_init=u_ref)
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


def test_metrics_on_manifold_sigma_zero():
    mill = cement_mill()
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)

    class MillReg:
        def pi_x(self, ww):
            return cement_mill_regulator(ww)[0]

        def pi_u(self, ww):
            return cement_mill_regulator(ww)[1]

    mpc = MpcConfig(variant="incremental_input", N=4, Q=np.eye(2),
                    R=1e-2 * np.eye(2), T=1)
    spec = ScenarioSpec(model=mill, mpc=mpc, x0=x_ref, w0=w, steps=10,
                        regulator=MillReg(), u_init=u_ref)
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
    alpha = horizon_bounds(1.0, 1.0, eps_o, N=N).alpha_N
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
    alpha = horizon_bounds(1.0, 1.0, eps_o, N=12).alpha_N   # reference alpha
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


def test_failed_solve_ends_the_trace(monkeypatch, tmp_path):
    """A solve that raises on its k-th call ends the trace with step k recorded."""
    from regfree_mpc import mpc
    k, calls, real_solve = 3, [], mpc.solve

    def failing_solve(ocp, warm_start=None):
        calls.append(ocp)
        if len(calls) == k + 1:
            raise NumericalError("injected solver failure")
        return real_solve(ocp, warm_start=warm_start)

    monkeypatch.setattr(mpc, "solve", failing_solve)
    trace = run(cfg.parse_config(cfg.read_config_file("cement_mill_error_feedback")))
    assert trace.failed_at == k and trace.steps == k + 1
    for arr in (trace.w, trace.u, trace.y, trace.xhat, trace.eta, trace.value,
                trace.sigma, trace.iterations, trace.converged, trace.memory):
        assert len(arr) == k + 1
    # the failed step repeats the last input and reports no value
    assert np.array_equal(trace.u[k], trace.u[k - 1])
    assert np.isnan(trace.value[k]) and not trace.converged[k]
    path = tmp_path / "trace.csv"
    trace.write_csv(path)
    rows = path.read_text().splitlines()[1:]
    assert len(rows) == k + 1 and rows[-1].startswith(f"{k},")


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
