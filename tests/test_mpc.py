import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_linear
from regfree_mpc import blas, mpc
from regfree_mpc.errors import ConfigError
from regfree_mpc.linear_analysis import RegulatorSolution, solve_regulator
from regfree_mpc.models import (LinearSystem, SystemModel, academic_example, cement_mill,
                               cement_mill_regulator)
from regfree_mpc.mpc import (VARIANTS, MpcConfig, MpcController, SolverSettings,
                             assemble, solve)


def make_cfg(variant, N, p=1, m=1, **kw):
    return MpcConfig(variant=variant, N=N, Q=np.eye(p), R=np.eye(m), **kw)


def test_config_validation():
    with pytest.raises(ConfigError):
        MpcConfig(variant="nope", N=3, Q=np.eye(1), R=np.eye(1))
    with pytest.raises(ConfigError):
        MpcConfig(variant="output_only", N=0, Q=np.eye(1), R=np.eye(1))
    with pytest.raises(ConfigError):
        MpcConfig(variant="look_ahead", N=3, Q=np.eye(1), R=np.eye(1))
    with pytest.raises(ConfigError):
        MpcConfig(variant="incremental_input", N=3, Q=np.eye(1), R=np.eye(1))
    with pytest.raises(ConfigError):
        MpcConfig(variant="output_only", N=3, Q=-np.eye(1), R=np.eye(1))


def test_assemble_requires_variant_inputs():
    model = academic_example()
    with pytest.raises(ConfigError):
        assemble(model, make_cfg("input_regularized", 3), np.ones(1), np.zeros(0))
    with pytest.raises(ConfigError):
        assemble(model, make_cfg("incremental_input", 3, T=1), np.ones(1), np.zeros(0))


class _ConstantFeedforward:
    def pi_u(self, w):
        return np.array([0.3])


@pytest.mark.parametrize("variant", VARIANTS)
def test_cost_matches_hand_expansion(variant):
    """Academic N = 3, x0 = 1, R = 0.25: y0 = 1 - u0, y1 = 0.5 + u0 - u1,
    y2 = 0.25 + 0.5 u0 + u1 - u2, and y3 = x3 - u2 = 0.5 x2 beyond the horizon."""
    model = academic_example()
    kw, memory, reg = {}, None, None
    if variant == "look_ahead":
        kw["d"] = 0
    elif variant == "incremental_input":
        kw["T"] = 2
        memory = np.array([0.7, -0.4])         # newest first: u_{-1}, u_{-2}
    elif variant == "input_regularized":
        reg = _ConstantFeedforward()
    cfg = MpcConfig(variant=variant, N=3, Q=np.eye(1), R=0.25 * np.eye(1), **kw)
    ocp = assemble(model, cfg, np.array([1.0]), np.zeros(0), memory=memory, regulator=reg)
    for u0, u1, u2 in ((0.0, 0.0, 0.0), (1.0, 1.5, -0.5), (-0.3, 0.8, 0.2), (2.0, -1.0, 3.0)):
        J, _ = ocp.cost(np.array([[u0], [u1], [u2]]))
        x2 = 0.25 + 0.5 * u0 + u1
        y = (1.0 - u0, 0.5 + u0 - u1, x2 - u2, 0.5 * x2)
        want = y[0] ** 2 + y[1] ** 2 + y[2] ** 2
        if variant == "look_ahead":         # y_{k+1} for k = 0, 1, 2
            want += y[1] ** 2 + y[2] ** 2 + y[3] ** 2
        elif variant == "incremental_input":  # u_k - u_{k-2}: two history terms, one decision
            want += 0.25 * ((u0 + 0.4) ** 2 + (u1 - 0.7) ** 2 + (u2 - u0) ** 2)
        elif variant == "input_regularized":
            want += 0.25 * ((u0 - 0.3) ** 2 + (u1 - 0.3) ** 2 + (u2 - 0.3) ** 2)
        assert J == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("variant", VARIANTS)
def test_residuals_match_dense_reference(rng, variant):
    """On a linear model r(u) = A vec(u) - b and J_r = A, with A, b from dense_matrices."""
    sys = random_linear(rng, n=3, m=2, q=2, T=2)
    kw, memory, reg = {}, None, None
    if variant == "look_ahead":
        kw["d"] = 1
    elif variant == "incremental_input":
        kw["T"] = 2
        memory = rng.normal(size=4)
    elif variant == "input_regularized":
        reg = solve_regulator(sys)
    cfg = MpcConfig(variant=variant, N=4, Q=np.diag([1.0, 0.5]), R=np.diag([0.3, 2.0]), **kw)
    ocp = assemble(sys.to_system_model(), cfg, rng.normal(size=3), rng.normal(size=2),
                   memory=memory, regulator=reg)
    A, b = ocp.dense_matrices()
    u = rng.normal(size=(4, 2))
    r, Jr, _ = ocp.residuals(u)
    assert np.allclose(Jr, A, rtol=1e-12, atol=1e-12)
    assert np.allclose(r, A @ u.ravel() - b, rtol=1e-12, atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), variant=st.sampled_from(VARIANTS),
       n=st.integers(1, 4), m=st.integers(1, 3), p=st.integers(1, 3), q=st.integers(0, 3),
       N=st.integers(1, 6), extra=st.integers(0, 3))
def test_residuals_match_dense_reference_on_random_systems(seed, variant, n, m, p, q, N, extra):
    """Property: r = Aml u - bml and J_r = Aml for random LTI systems, boxes and every variant.

    `extra` is d for look_ahead and T - 1 for incremental_input.  The feedforward
    pi_u(w) = Gamma w of input_regularized is random: both sides read the same one.
    """
    rng = np.random.default_rng(seed)
    sys = random_linear(rng, n=n, m=m, p=p, q=q, T=2)
    lo, hi = -rng.uniform(0.1, 3.0, m), rng.uniform(0.1, 3.0, m)
    kw, memory, reg = {}, None, None
    if variant == "look_ahead":
        kw["d"] = extra
    elif variant == "incremental_input":
        kw["T"] = extra + 1
        memory = rng.normal(size=(extra + 1) * m)
    elif variant == "input_regularized":
        reg = RegulatorSolution(Pi=rng.normal(size=(n, q)), Gamma=rng.normal(size=(m, q)))
    cfg = MpcConfig(variant=variant, N=N, Q=np.diag(rng.uniform(0.1, 2.0, p)),
                    R=np.diag(rng.uniform(0.1, 2.0, m)), **kw)
    ocp = assemble(sys.to_system_model(input_lo=lo, input_hi=hi), cfg, rng.normal(size=n),
                   rng.normal(size=q), memory=memory, regulator=reg)
    A, b = ocp.dense_matrices()
    u = rng.uniform(lo, hi, size=(N, m))
    r, Jr, _ = ocp.residuals(u)
    assert np.allclose(Jr, A, rtol=1e-12, atol=1e-12)
    assert np.allclose(r, A @ u.ravel() - b, rtol=1e-12, atol=1e-12)


def test_output_only_gradient_matches_hand_expansion():
    model = academic_example()
    ocp = assemble(model, make_cfg("output_only", 2), np.array([0.0]), np.zeros(0))
    g = ocp.gradient(np.zeros((2, 1)))
    # J = u0^2 + (u0 - u1)^2 at x0 = 0: grad = (2u0 + 2(u0-u1), -2(u0-u1)) = 0
    assert np.allclose(g, 0.0)
    g = ocp.gradient(np.array([[1.0], [0.0]]))
    assert np.allclose(g.ravel(), [2 * (1.0 - 0.0) * (-1) * (-1) + 2 * 1.0, -2.0])


def test_input_regularized_zero_on_manifold(rng):
    sys = random_linear(rng, n=2, m=2, q=2, T=2)
    model = sys.to_system_model()
    reg = solve_regulator(sys)
    w = rng.normal(size=2)
    cfg = make_cfg("input_regularized", 5, p=2, m=2)
    ocp = assemble(model, cfg, reg.pi_x(w), w, regulator=reg)
    sol = solve(ocp)
    assert sol.value == pytest.approx(0.0, abs=1e-16)
    for k in range(5):
        assert np.allclose(sol.u_opt[k], ocp.u_ref[k], atol=1e-8)


def test_incremental_zero_on_manifold_mill():
    mill = cement_mill()
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)
    cfg = MpcConfig(variant="incremental_input", N=6, Q=np.eye(2), R=1e-2 * np.eye(2), T=1)
    ocp = assemble(mill, cfg, x_ref, w, memory=u_ref)
    sol = solve(ocp, warm_start=np.tile(u_ref, (6, 1)))
    assert sol.value < 1e-18
    assert np.allclose(sol.u_opt, np.tile(u_ref, (6, 1)), atol=1e-7)


def test_gradient_matches_finite_differences(rng):
    """Gradient 2 J_r^T r of the residual pass vs central differences on both built-in models."""
    mill = cement_mill()
    academic = academic_example()
    cases = [
        (academic, make_cfg("output_only", 5), np.zeros(0), None, None),
        (academic, make_cfg("incremental_input", 5, T=1), np.zeros(0),
         np.array([0.3]), None),
        (academic, make_cfg("look_ahead", 4, d=0), np.zeros(0), None, None),
        (academic, make_cfg("output_only", 1), np.zeros(0), None, None),
        (mill, MpcConfig(variant="incremental_input", N=4, Q=np.eye(2),
                         R=1e-2 * np.eye(2), T=1), np.array([110.0, 425.0]),
         np.array([110.0, 170.0]), None),
        (mill, MpcConfig(variant="output_only", N=4, Q=np.eye(2),
                         R=np.zeros((2, 2))), np.array([110.0, 425.0]), None, None),
    ]
    worst = 0.0
    for model, cfg, w0, memory, reg in cases:
        for _ in range(10):
            if model is mill:
                x0 = rng.uniform([100.0, 44.0, 400.0], [130.0, 56.0, 450.0])
                useq = rng.uniform(model.input_lo, model.input_hi, size=(cfg.N, model.m))
            else:
                x0 = rng.normal(size=1)
                useq = rng.normal(size=(cfg.N, 1))
            ocp = assemble(model, cfg, x0, w0, memory=memory, regulator=reg)
            g = ocp.gradient(useq)
            gfd = np.zeros_like(g)
            h = 1e-5
            for k in range(cfg.N):
                for j in range(model.m):
                    d = np.zeros_like(useq); d[k, j] = h
                    Jp, _ = ocp.cost(useq + d)
                    Jm, _ = ocp.cost(useq - d)
                    gfd[k, j] = (Jp - Jm) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(gfd))))
            worst = max(worst, float(np.max(np.abs(g - gfd))) / scale)
    assert worst < 1e-4


@pytest.mark.parametrize("variant,N", [("incremental_input", 48), ("output_only", 1)])
def test_residuals_linearise_the_horizon_in_one_stacked_call(monkeypatch, variant, N):
    """One residual pass makes one jacobians_f and one jacobians_h call, equal to the per-point ones.

    At N = 1 without look-ahead the rollout has one step, so the f stack is empty.
    """
    mill = cement_mill()
    calls = {"jacobians_f": [], "jacobians_h": []}
    for name in calls:
        def recorded(self, x, u, w, _name=name, _orig=getattr(SystemModel, name)):
            out = _orig(self, x, u, w)
            calls[_name].append(((x, u, w), out, _orig))
            return out
        monkeypatch.setattr(SystemModel, name, recorded)
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)
    cfg = MpcConfig(variant=variant, N=N, Q=np.eye(2), R=1e-2 * np.eye(2), T=1)
    ocp = assemble(mill, cfg, x_ref + np.array([2.0, 1.0, 3.0]), w, memory=u_ref)
    ocp.residuals(np.tile(u_ref, (N, 1)) + np.linspace(-3.0, 3.0, 2 * N).reshape(N, 2))
    assert [len(c) for c in calls.values()] == [1, 1]
    (fargs, fout, forig), = calls["jacobians_f"]
    (hargs, hout, horig), = calls["jacobians_h"]
    assert [len(J) for J in fout] == [ocp.H - 1] * 3
    assert [len(J) for J in hout] == [ocp.H] * 3
    for args, out, orig in ((fargs, fout, forig), (hargs, hout, horig)):
        for k, pt in enumerate(zip(*args)):
            assert all(np.array_equal(J[k], Jk) for J, Jk in zip(out, orig(mill, *pt)))


@pytest.mark.parametrize("plant,variant,N,kw", [
    ("mill", "output_only", 1, {}),
    ("mill", "look_ahead", 4, {"d": 1}),          # output weights 1 and 2
    ("mill", "incremental_input", 6, {"T": 1}),
    ("academic", "output_only", 1, {}),
    ("academic", "look_ahead", 2, {"d": 3}),      # output weights 1 and 0
])
def test_residuals_evaluate_outputs_in_one_stacked_call(plant, variant, N, kw):
    """Ocp.residuals and Ocp.cost each call h once, on the (H, ·) stacks of the rollout.

    Every row of that call equals h at the single point, bitwise.
    """
    if plant == "mill":
        base, p = cement_mill(), 2
        w = np.array([110.0, 425.0])
        x_ref, u_ref = cement_mill_regulator(w)
        x0, u = x_ref + np.array([2.0, 1.0, 3.0]), np.tile(u_ref, (N, 1))
    else:
        base, p = academic_example(), 1
        w, x0, u = np.zeros(0), np.array([0.8]), np.linspace(-1.0, 1.0, N).reshape(N, 1)
    u = u + np.linspace(-3.0, 3.0, u.size).reshape(u.shape)
    calls = []

    def recorded(x, u, w):
        out = base.h(x, u, w)
        calls.append(((x, u, w), out))
        return out

    model = dataclasses.replace(base, h=recorded)
    cfg = MpcConfig(variant=variant, N=N, Q=np.eye(p), R=1e-2 * np.eye(base.m), **kw)
    ocp = assemble(model, cfg, x0, w, memory=u[0] if variant == "incremental_input" else None)
    for evaluate in (ocp.residuals, ocp.cost):
        calls.clear()
        evaluate(u)
        (args, out), = calls
        assert [a.shape for a in args] == [(ocp.H, base.n_p), (ocp.H, base.m), (ocp.H, base.q)]
        assert out.shape == (ocp.H, p)
        for k, pt in enumerate(zip(*args)):
            assert np.array_equal(out[k], base.h(*pt))
    r, _, _ = ocp.residuals(u)
    assert r.size == p * np.count_nonzero(ocp._output_weights()) + ocp.E.shape[0]


def test_gradient_zero_at_unconstrained_optimum(rng):
    sys = random_linear(rng, n=2, m=1, q=0)
    model = sys.to_system_model()
    cfg = make_cfg("incremental_input", 6, T=1)
    ocp = assemble(model, cfg, rng.normal(size=2), np.zeros(0), memory=np.zeros(1))
    sol = solve(ocp)
    g = ocp.gradient(sol.u_opt)
    assert np.max(np.abs(g)) < 1e-7


def dense_lstsq_oracle(ocp):
    """Independent stacked least-squares solve used as the LQ oracle."""
    A, b = ocp.dense_matrices()
    u, *_ = np.linalg.lstsq(A, b, rcond=None)
    r = A @ u - b
    return u.reshape(ocp.N, ocp.m), float(r @ r)


def test_iterative_solver_matches_dense_oracle(rng):
    """Gauss-Newton solve vs the stacked least-squares oracle."""
    settings = SolverSettings(gradient_tolerance=1e-10)
    for _ in range(12):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        N = int(rng.integers(2, 6))
        sys = random_linear(rng, n=n, m=m, q=2, T=2)
        model = sys.to_system_model()
        variant = ["output_only", "incremental_input", "input_regularized"][int(rng.integers(0, 3))]
        kw = {}
        memory = None
        reg = None
        if variant == "incremental_input":
            kw["T"] = int(rng.integers(1, 3))
            memory = rng.normal(size=m * kw["T"])
        if variant == "input_regularized":
            reg = solve_regulator(sys)
        cfg = MpcConfig(variant=variant, N=N, Q=np.eye(m), R=np.eye(m),
                        solver=settings, **kw)
        ocp = assemble(model, cfg, rng.normal(size=n), rng.normal(size=2),
                       memory=memory, regulator=reg)
        u_ref, v_ref = dense_lstsq_oracle(ocp)
        sol = solve(ocp)
        assert sol.value == pytest.approx(v_ref, rel=1e-6, abs=1e-9)


def test_solution_invariants_box_and_value(rng):
    mill = cement_mill()
    cfg = MpcConfig(variant="incremental_input", N=5, Q=np.eye(2),
                    R=1e-2 * np.eye(2), T=1)
    x0 = np.array([120.0, 55.0, 450.0])
    w = np.array([110.0, 425.0])
    ocp = assemble(mill, cfg, x0, w, memory=np.array([115.0, 172.5]))
    sol = solve(ocp)
    assert np.all(sol.u_opt >= mill.input_lo - 1e-12)
    assert np.all(sol.u_opt <= mill.input_hi + 1e-12)
    # re-simulation residual
    xs = [x0]
    for k in range(cfg.N):
        xs.append(mill.f_p(xs[-1], sol.u_opt[k], w))
    assert np.max(np.abs(np.array(xs) - sol.x_pred)) < 1e-10
    J, _ = ocp.cost(sol.u_opt)
    assert sol.value == pytest.approx(J, rel=1e-10)


def test_output_only_solution_ignores_the_invisible_tail():
    """Without feedthrough u_{N-1} reaches no output, so the warm start's last row cannot matter."""
    mill = cement_mill()
    cfg = MpcConfig(variant="output_only", N=6, Q=np.eye(2), R=np.zeros((2, 2)))
    ocp = assemble(mill, cfg, np.array([120.0, 55.0, 450.0]), np.array([110.0, 425.0]))
    warm = np.tile([115.0, 172.5], (cfg.N, 1))
    other = warm.copy()
    other[-1] = [90.0, 168.0]
    a, b = solve(ocp, warm_start=warm), solve(ocp, warm_start=other)
    assert np.array_equal(a.u_opt, b.u_opt)
    assert a.value == b.value
    for sol in (a, b):
        assert sol.value == ocp.cost(sol.u_opt)[0]
        assert np.array_equal(sol.x_pred, np.array(ocp.rollout(sol.u_opt)[:cfg.N + 1]))


def test_canonical_tail_never_raises_the_value():
    """A J_r column that is zero only at the iterate keeps its input: x+ = x + u^2 at u = 0."""
    model = SystemModel(n_p=1, m=1, q=0, p=1,
                        f_p=lambda x, u, w: x + u ** 2, s=lambda w: w, h=lambda x, u, w: x,
                        jac_f=lambda x, u, w: (np.ones((len(x), 1, 1)), 2.0 * u.reshape(-1, 1, 1),
                                               np.zeros((len(x), 1, 0))),
                        jac_h=lambda x, u, w: (np.ones((len(x), 1, 1)), np.zeros((len(x), 1, 1)),
                                               np.zeros((len(x), 1, 0))))
    ocp = assemble(model, make_cfg("output_only", 3), np.array([-1.0]), np.zeros(0))
    sol = solve(ocp, warm_start=np.array([[1.0], [0.0], [0.7]]))
    assert sol.value == ocp.cost(sol.u_opt)[0] == 1.0
    assert sol.u_opt[1, 0] == 0.0


def test_canonical_tail_reuses_the_cost_of_an_unchanged_tail(monkeypatch):
    """The solver never evaluates the cost twice at the input it returns.

    The reference w = (80, 300) saturates every input at its lower bound, so
    the re-solve from the canonical solution keeps the tail as it is.
    """
    mill = cement_mill()
    cfg = MpcConfig(variant="output_only", N=6, Q=np.eye(2), R=np.zeros((2, 2)))
    ocp = assemble(mill, cfg, np.array([120.0, 55.0, 450.0]), np.array([80.0, 300.0]))
    first = solve(ocp, warm_start=np.tile([115.0, 172.5], (cfg.N, 1)))
    assert np.array_equal(first.u_opt[-1], first.u_opt[-2])
    seen, orig = [], ocp.cost
    monkeypatch.setattr(ocp, "cost", lambda u, xs=None: seen.append(np.ravel(u).copy()) or orig(u, xs))
    sol = solve(ocp, warm_start=first.u_opt)
    assert sum(np.array_equal(u, sol.u_opt.ravel()) for u in seen) <= 1
    assert sol.value == orig(sol.u_opt)[0]


def test_solve_runs_numpy_blas_on_one_thread_and_restores_the_count(monkeypatch):
    """One OpenBLAS thread inside `solve`; the caller's count back on return and on raise."""
    if blas._THREADS is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    get, put = blas._THREADS
    seen, orig = [], mpc._box_gauss_newton_step
    monkeypatch.setattr(mpc, "_box_gauss_newton_step", lambda *a: seen.append(get()) or orig(*a))
    ocp = assemble(academic_example(), make_cfg("output_only", 20), np.array([1.0]), np.zeros(0))
    saved = get()
    put(2)
    try:
        sol = solve(ocp)
        assert seen and set(seen) == {1}
        assert get() == 2
        with blas.one_blas_thread():
            solve(ocp)
            assert get() == 1       # an inner extent leaves the outer one's count alone
        assert get() == 2
        monkeypatch.setattr(ocp, "residuals", lambda *a, **k: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            solve(ocp)
        assert get() == 2
    finally:
        put(saved)
    assert sol.iterations > 0


def test_unconstrained_solve_is_one_cholesky_and_one_solve(monkeypatch):
    """Without finite bounds the box step is the plain Newton step: no extra factorisation."""
    counts = {"cholesky": 0, "solve": 0}
    for name in counts:
        orig = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=orig, **k:
                            counts.__setitem__(_n, counts[_n] + 1) or _f(*a, **k))
    cfg = MpcConfig(variant="incremental_input", N=307, Q=np.eye(1), R=np.eye(1), T=1)
    ocp = assemble(academic_example(), cfg, np.array([1.3]), np.zeros(0), memory=np.array([0.4]))
    sol = solve(ocp)
    assert sol.iterations == 1 and sol.converged
    assert counts == {"cholesky": 1, "solve": 1}


def test_box_constrained_lti_solve_matches_bvls():
    """Instance 193 of `linear_certificates` seed 9301: N = 40 box LTI against BVLS."""
    from scipy.optimize import lsq_linear
    rng = np.random.default_rng([9301, 2, 193])
    A = rng.normal(size=(4, 4))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    sys = LinearSystem(A=A, B=rng.normal(size=(4, 2)), C=rng.normal(size=(2, 4)),
                       D=0.3 * rng.normal(size=(2, 2)), P_x=np.zeros((4, 0)),
                       P_y=np.zeros((2, 0)), S=np.zeros((0, 0)))
    x0 = 3.0 * rng.normal(size=4)
    model = sys.to_system_model(input_lo=-np.ones(2), input_hi=np.ones(2))
    cfg = MpcConfig(variant="incremental_input", N=40, Q=np.eye(2), R=0.1 * np.eye(2), T=1)
    ocp = assemble(model, cfg, x0, np.zeros(0), memory=np.zeros(2))
    Aml, b = ocp.dense_matrices()
    ref = lsq_linear(Aml, b, bounds=(-np.ones(80), np.ones(80)), method="bvls",
                     tol=1e-12, max_iter=100 * Aml.shape[1])
    r = Aml @ ref.x - b
    sol = solve(ocp)
    assert sol.converged
    assert np.max(np.abs(sol.u_opt.ravel() - ref.x)) <= 1e-6
    assert sol.value == pytest.approx(float(r @ r), rel=1e-9)


def test_box_constrained_lti_sweep_matches_bvls():
    """Random box LTI against BVLS at the `linear_certificates` tolerances.

    Every third of 300 instances (rng [4242, i]: N 5-59, rho(A) 0.3-1.2) and
    instances 167 and 220, on which a Newton step clipped onto the box jams.
    """
    from scipy.optimize import lsq_linear
    for i in sorted(set(range(0, 300, 3)) | {167, 220}):
        rng = np.random.default_rng([4242, i])
        N, rho = int(rng.integers(5, 60)), rng.uniform(0.3, 1.2)
        A = rng.normal(size=(4, 4))
        A *= rho / max(abs(np.linalg.eigvals(A)))
        sys = LinearSystem(A=A, B=rng.normal(size=(4, 2)), C=rng.normal(size=(2, 4)),
                           D=0.3 * rng.normal(size=(2, 2)), P_x=np.zeros((4, 0)),
                           P_y=np.zeros((2, 0)), S=np.zeros((0, 0)))
        x0 = 3.0 * rng.normal(size=4)
        model = sys.to_system_model(input_lo=-np.ones(2), input_hi=np.ones(2))
        cfg = MpcConfig(variant="incremental_input", N=N, Q=np.eye(2), R=0.1 * np.eye(2), T=1)
        ocp = assemble(model, cfg, x0, np.zeros(0), memory=np.zeros(2))
        Aml, b = ocp.dense_matrices()
        ref = lsq_linear(Aml, b, bounds=(-np.ones(2 * N), np.ones(2 * N)), method="bvls",
                         tol=1e-12, max_iter=100 * Aml.shape[1])
        r = Aml @ ref.x - b
        sol = solve(ocp)
        assert np.all(np.abs(sol.u_opt) <= 1.0), i
        assert np.max(np.abs(sol.u_opt.ravel() - ref.x)) <= 1e-6, i
        assert abs(sol.value - float(r @ r)) <= 1e-9 * max(1.0, float(r @ r)), i
        if rho <= 1.0:
            assert sol.converged and sol.iterations <= 2, i


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), rows=st.integers(1, 60),
       zero_cols=st.booleans())
def test_box_step_matches_bvls_on_random_models(seed, n, rows, zero_cols):
    """Property: the GN box step attains BVLS's model value, also for rank-deficient J_r."""
    from scipy.optimize import lsq_linear
    rng = np.random.default_rng(seed)
    Jr = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-1, 1, n)
    if zero_cols:
        Jr[:, rng.random(n) < 0.3] = 0.0
    r = rng.normal(size=rows) * 10.0 ** rng.uniform(-2, 3)
    lo, hi = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
    lo[rng.random(n) < 0.2] = 0.0          # the iterate sits on some lower bounds
    hi[rng.random(n) < 0.2] = 1e-3         # and near some upper ones
    d = mpc._box_gauss_newton_step(2.0 * Jr.T @ Jr, 2.0 * Jr.T @ r, lo, hi)
    assert np.all((lo <= d) & (d <= hi))
    ref = lsq_linear(Jr, -r, bounds=(lo, hi), method="bvls", tol=1e-14, max_iter=100 * n)
    value, best = np.sum((r + Jr @ d) ** 2), np.sum((r + Jr @ ref.x) ** 2)
    assert value <= best + 1e-10 * max(1.0, best)


def test_box_step_stops_at_a_round_off_multiplier(monkeypatch):
    """A rank-4 model in 36 inputs: multipliers at round-off must not make the working set cycle.

    Without the inward-step check this instance releases and re-adds bounds
    until the pass cap of 4n + 10; with it, it stops at the KKT point.
    """
    rng = np.random.default_rng([77, 136])
    n = 36
    Jr = rng.normal(size=(4, n)) * 10.0 ** rng.uniform(-1, 1, n)
    r = 100.0 * rng.normal(size=4)
    lo, hi = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
    lo[rng.random(n) < 0.2] = 0.0
    hi[rng.random(n) < 0.2] = 0.0
    H, g = 2.0 * Jr.T @ Jr, 2.0 * Jr.T @ r
    passes, orig = [], mpc._newton_step
    monkeypatch.setattr(mpc, "_newton_step", lambda *a: passes.append(1) or orig(*a))
    d = mpc._box_gauss_newton_step(H, g, lo, hi)
    assert len(passes) <= 2 * n
    grad, tol = g + H @ d, 1e-12 * np.max(np.abs(g))
    at_lo, at_hi = d == lo, d == hi
    assert np.all(np.abs(grad[~(at_lo | at_hi)]) <= tol)
    assert np.all(grad[at_lo & ~at_hi] >= -tol) and np.all(grad[at_hi & ~at_lo] <= tol)


def test_warm_start_resolve_never_increases_value(rng):
    mill = cement_mill()
    cfg = MpcConfig(variant="incremental_input", N=5, Q=np.eye(2),
                    R=1e-2 * np.eye(2), T=1)
    w = np.array([110.0, 425.0])
    x = np.array([120.0, 55.0, 450.0])
    mem = np.array([115.0, 172.5])
    prev = None
    for _ in range(25):
        ocp = assemble(mill, cfg, x, w, memory=mem)
        if prev is None:
            sol = solve(ocp)
        else:
            warm = np.vstack([prev.u_opt[1:], prev.u_opt[-1:]])
            J_warm, _ = ocp.cost(warm)
            sol = solve(ocp, warm_start=warm)
            assert sol.value <= J_warm + 1e-12 * max(1.0, J_warm)
        prev = sol
        u = sol.u_opt[0]
        x = mill.f_p(x, u, w)
        from regfree_mpc.augmentation import step_memory
        mem = step_memory(mem, u, 2)


def riccati_lqr_sequence(A, B, Mxx, Mxu, Muu, N):
    """Backward finite-horizon Riccati recursion with cross terms (oracle)."""
    P = np.zeros_like(A)
    K0 = None
    for _ in range(N):
        G = Muu + B.T @ P @ B
        K0 = -np.linalg.solve(G, B.T @ P @ A + Mxu.T)
        P = Mxx + A.T @ P @ A + (A.T @ P @ B + Mxu) @ K0
    return K0


def test_receding_horizon_equals_riccati_feedback(rng):
    """Unconstrained LQ: the first MPC input is the finite-horizon LQR gain."""
    from regfree_mpc.linear_analysis import stage_cost_forms
    for _ in range(5):
        sys = random_linear(rng, n=3, m=2, q=0, spectral=0.8)
        model = sys.to_system_model()
        Mxx, Mxu, Muu = stage_cost_forms(sys, np.eye(2), np.eye(2))
        N = 7
        K_N = riccati_lqr_sequence(sys.A, sys.B, Mxx, Mxu, Muu, N)
        cfg = MpcConfig(variant="input_regularized", N=N, Q=np.eye(2), R=np.eye(2))
        reg = solve_regulator(sys)
        for _ in range(4):
            x = rng.normal(size=3)
            ocp = assemble(model, cfg, x, np.zeros(0), regulator=reg)
            sol = solve(ocp)
            assert np.allclose(sol.u_opt[0], K_N @ x, atol=1e-6)


def test_controller_outputonly_tracks_degenerate_optimum():
    model = academic_example()
    ctrl = MpcController(model, make_cfg("output_only", 8))
    x = np.array([1.0])
    for _ in range(10):
        u, diag = ctrl.step(x, np.zeros(0))
        assert u[0] == pytest.approx(x[0], abs=1e-9)
        x = model.f_p(x, u, np.zeros(0))
    assert x[0] == pytest.approx(1.5 ** 10, rel=1e-9)


def test_controller_on_manifold_repeats_feedforward():
    mill = cement_mill()
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)
    cfg = MpcConfig(variant="incremental_input", N=6, Q=np.eye(2),
                    R=1e-2 * np.eye(2), T=1)
    ctrl = MpcController(mill, cfg, initial_memory=u_ref.copy())
    x = x_ref.copy()
    for _ in range(5):
        u, _ = ctrl.step(x, w)
        assert np.allclose(u, u_ref, atol=1e-6)
        x = mill.f_p(x, u, w)


def test_look_ahead_extension_and_degenerate_minimum(rng):
    """Look-ahead cost on a relative-degree-one chain: value zero is reachable."""
    from regfree_mpc.models import LinearSystem
    sys = LinearSystem(A=[[0.0, 1.0], [0.0, 0.2]], B=[[0.0], [1.0]],
                       C=[[1.0, 0.0]], D=[[0.0]], P_x=np.zeros((2, 0)),
                       P_y=np.zeros((1, 0)), S=np.zeros((0, 0)))
    model = sys.to_system_model()
    cfg = make_cfg("look_ahead", 4, d=1)
    x0 = rng.normal(size=2)
    ocp = assemble(model, cfg, x0, np.zeros(0))
    sol = solve(ocp)
    # J includes y_k and y_{k+d+1}; hand-check against direct evaluation
    J, xs = ocp.cost(sol.u_opt)
    ys = ocp.outputs(sol.u_opt, xs)
    want = sum(float(y @ y) for y in ys[:4]) + sum(float(ys[k + 2] @ ys[k + 2]) for k in range(4))
    assert J == pytest.approx(want, rel=1e-12)


def test_value_bounded_by_any_feasible_candidate(rng):
    """V_N(x) <= J_N(u) for every feasible input sequence (convex instances)."""
    for _ in range(10):
        sys = random_linear(rng, n=2, m=1, q=2, T=2)
        model = sys.to_system_model()
        cfg = MpcConfig(variant="incremental_input", N=6, Q=np.eye(1),
                        R=np.eye(1), T=1)
        x0 = rng.normal(size=2)
        w0 = rng.normal(size=2)
        ocp = assemble(model, cfg, x0, w0, memory=rng.normal(size=1))
        v_opt = solve(ocp).value
        for _ in range(5):
            cand = rng.normal(size=(6, 1))
            assert v_opt <= ocp.cost(cand)[0] + 1e-10
