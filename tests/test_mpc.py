import dataclasses
import gc
import pickle
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import random_linear
from regfree_mpc import blas, config, models, mpc
from regfree_mpc.errors import ConfigError, DomainError, NumericalError, ShapeError
from regfree_mpc.linear_analysis import RegulatorSolution, solve_regulator
from regfree_mpc.models import (LinearSystem, SystemModel, academic_example, cement_mill,
                               cement_mill_regulator)
from regfree_mpc.mpc import (VARIANTS, MpcConfig, MpcController, SolverSettings,
                             assemble, solve)
from regfree_mpc.simulation import run


def make_cfg(variant, N, p=1, m=1, **kw):
    return MpcConfig(variant=variant, N=N, Q=np.eye(p), R=np.eye(m), **kw)


def residual_and_jacobian(ocp, u):
    """(r, J_r, xs) at u from the OCP's two evaluator calls."""
    _, r, xs = ocp.cost(u)
    return r, ocp.jacobian(u, xs)[0], xs


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
    with pytest.raises(ConfigError, match="Q must be symmetric"):
        MpcConfig(variant="output_only", N=3, Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1))
    for variant, kw, key in (("output_only", {"T": 1}, "T"),
                             ("incremental_input", {"T": 1, "d": 0}, "d")):
        with pytest.raises(ConfigError, match=f"'{key}' is read only by the") as err:
            MpcConfig(variant=variant, N=3, Q=np.eye(1), R=np.eye(1), **kw)
        assert err.value.key == key
    for tol in (0.0, -1.0, np.nan, np.inf):     # NaN passes a plain "<= 0" test
        with pytest.raises(DomainError) as err:
            SolverSettings(gradient_tolerance=tol)
        assert err.value.key == "gradient_tolerance"


def test_a_regulator_of_the_wrong_input_size_raises_shape_error():
    """A regulator whose pi_u(w) has the wrong length raises ShapeError naming pi_u, as a
    wrong-size x0 or w0 does, not numpy's reshape error."""
    with pytest.raises(ShapeError, match="^pi_u must have length 1, got 2$"):
        assemble(academic_example(), make_cfg("input_regularized", 3), np.ones(1), np.zeros(0),
                 regulator=lambda w: (np.zeros(1), np.zeros(2)))


def test_assemble_requires_variant_inputs():
    model = academic_example()
    with pytest.raises(ConfigError):
        assemble(model, make_cfg("input_regularized", 3), np.ones(1), np.zeros(0))
    with pytest.raises(ConfigError):
        assemble(model, make_cfg("incremental_input", 3, T=1), np.ones(1), np.zeros(0))
    with pytest.raises(ShapeError, match="memory must have length 2, got 1"):
        assemble(model, make_cfg("incremental_input", 3, T=2), np.ones(1), np.zeros(0),
                 memory=np.zeros(1))


def test_horizon_data_are_built_once_per_config_and_read_only():
    """Q^1/2, R^1/2, E, the output weights and the input map are shared by every OCP of a
    config and cannot be written; a replaced config builds its own; equality is unchanged."""
    model, cfg = academic_example(), make_cfg("incremental_input", 5, T=2)
    a = assemble(model, cfg, np.array([1.0]), np.zeros(0), memory=np.zeros(2))
    b = assemble(model, cfg, np.array([-2.0]), np.zeros(0), memory=np.array([0.5, 1.0]))
    for name in ("E", "_Qh", "_sw", "_j"):
        assert getattr(a, name) is getattr(b, name), name
        assert not getattr(a, name).flags.writeable, name
    with pytest.raises(ValueError):
        a.E[0, 0] = 2.0
    assert not np.array_equal(a.c, b.c)
    longer = dataclasses.replace(cfg, N=7)
    c = assemble(model, longer, np.array([1.0]), np.zeros(0), memory=np.zeros(2))
    assert c.E is not a.E and c.E.shape == (7, 7) and c._j.shape == (7,)
    assert [f.name for f in dataclasses.fields(cfg)] == ["variant", "N", "Q", "R", "d", "T", "solver"]
    assert cfg == dataclasses.replace(cfg) and cfg != longer
    assert repr(cfg) == repr(dataclasses.replace(cfg))


def test_assemble_refuses_weights_of_the_wrong_size():
    with pytest.raises(ShapeError):
        assemble(academic_example(), make_cfg("output_only", 3, m=2), np.ones(1), np.zeros(0))
    with pytest.raises(ShapeError):
        assemble(academic_example(), make_cfg("output_only", 3, p=2), np.ones(1), np.zeros(0))


def test_rollout_to_a_non_finite_state_raises_numerical_error():
    """x+ = 1e150 x + u from x_0 = 1 overflows at x_3.  Not a RuntimeWarning (the test
    settings make warnings errors): one check per rollout names the first bad state, and
    the controller falls back to its last input."""
    model = LinearSystem(A=[[1e150]], B=[[1.0]], C=[[1.0]], D=[[0.0]], P_x=np.zeros((1, 0)),
                         P_y=np.zeros((1, 0)), S=np.zeros((0, 0))).to_system_model()
    cfg = make_cfg("output_only", 4)
    ocp = assemble(model, cfg, np.array([1.0]), np.zeros(0))
    for evaluate in (ocp.rollout, ocp.cost, lambda u: solve(ocp, warm_start=u)):
        with pytest.raises(NumericalError, match="x_3"):
            evaluate(np.zeros((4, 1)))
    ctrl = MpcController(model, cfg, initial_input=np.array([0.25]))
    u, sol = ctrl.step(np.array([1.0]), np.zeros(0))
    assert sol is None and np.array_equal(u, [0.25])


def test_overflowing_mill_step_reads_nan_and_the_rollout_names_its_state():
    """u2 = 1e100 overflows u2 ** 4.  The mill's point step reads NaN with no RuntimeWarning
    (the test settings make warnings errors), so the plant step and the rollout raise
    NumericalError, the rollout's naming x_1."""
    mill = cement_mill()
    x0, u, w = np.array([120.0, 55.0, 450.0]), np.array([100.0, 1e100]), np.array([110.0, 425.0])
    assert not np.isfinite(mill.f_p(x0, u, w)).any()
    with pytest.raises(NumericalError, match="non-finite state update"):
        mill.step(x0, u, w)
    cfg = MpcConfig(variant="look_ahead", N=4, Q=np.eye(2), R=np.zeros((2, 2)), d=1)
    ocp = assemble(mill, cfg, x0, w)
    with pytest.raises(NumericalError, match="non-finite predicted state x_1 "):
        ocp.rollout(np.tile(u, (4, 1)))


def _scalar_model(f_p, h, jac_f, jac_h):
    """n_p = m = p = 1, q = 0, no input box; jac_f and jac_h give (d/dx, d/du) at (K, 1) stacks."""
    def stacked(jac):
        return lambda x, u, w: tuple(J[:, :, None] for J in jac(x, u)) + (np.zeros((len(x), 1, 0)),)
    return SystemModel(n_p=1, m=1, q=0, p=1, f_p=f_p, s=lambda w: w, h=h,
                       jac_f=stacked(jac_f), jac_h=stacked(jac_h))


def test_line_search_rejects_a_trial_that_cannot_be_evaluated():
    """x+ = exp(u), y = x - 1e6 from u = 0: the first GN step, about 1e6, overflows exp and
    then r @ r.  Those trials are rejected and t halves, down to u = ln 1e6."""
    model = _scalar_model(lambda x, u, w: np.exp(u), lambda x, u, w: x - 1e6,
                          lambda x, u: (np.zeros_like(x), np.exp(u)),
                          lambda x, u: (np.ones_like(x), np.zeros_like(u)))
    ocp = assemble(model, make_cfg("output_only", 2), np.zeros(1), np.zeros(0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = solve(ocp, warm_start=np.zeros((2, 1)))
    assert np.isfinite(sol.value) and sol.value == pytest.approx(1e12)
    assert sol.u_opt[0, 0] == pytest.approx(np.log(1e6))


def test_overflowing_cost_raises_numerical_error():
    """y = 1e200 (x + 1): every r is finite, r @ r is not.  Not a RuntimeWarning."""
    model = _scalar_model(lambda x, u, w: x + u, lambda x, u, w: 1e200 * (x + 1.0),
                          lambda x, u: (np.ones_like(x), np.ones_like(u)),
                          lambda x, u: (1e200 * np.ones_like(x), np.zeros_like(u)))
    ocp = assemble(model, make_cfg("output_only", 3), np.ones(1), np.zeros(0))
    for evaluate in (ocp.cost, lambda u: solve(ocp, warm_start=u)):
        with pytest.raises(NumericalError, match="non-finite OCP cost"):
            evaluate(np.zeros((3, 1)))


def test_rollout_is_one_array_of_the_model_steps():
    mill = cement_mill()
    w = np.array([110.0, 425.0])
    cfg = MpcConfig(variant="look_ahead", N=4, Q=np.eye(2), R=np.zeros((2, 2)), d=1)
    ocp = assemble(mill, cfg, np.array([120.0, 55.0, 450.0]), w)
    u = np.linspace(mill.input_lo, mill.input_hi, 4)
    X = ocp.rollout(u)
    assert X.shape == (ocp.H + 1, 3)
    want = [ocp.x0]
    for k in range(ocp.H):
        want.append(mill.step(want[-1], u[min(k, 3)], w))
    assert np.array_equal(X, want)
    with pytest.raises(NumericalError, match="exactly linear"):
        ocp.dense_matrices()


class _ConstantFeedforward:
    def __init__(self, value):
        self.value = np.asarray(value, dtype=float)

    def __call__(self, w):
        return None, self.value


@pytest.mark.parametrize("variant, m", [pytest.param(v, m, id=v if m == 1 else f"{v}-mimo")
                                        for m in (1, 2) for v in VARIANTS])
def test_cost_matches_hand_expansion(variant, m):
    """N = 3 on x+ = 0.5 x + B u, y = x - u: y0 = x0 - u0, y1 = 0.5 x0 + B u0 - u1,
    y2 = x2 - u2 with x2 = 0.25 x0 + 0.5 B u0 + B u1, and y3 = x3 - u2 = 0.5 x2 + (B - I) u2
    beyond the horizon.  m = 1 is the academic example (B = 1, x0 = 1, R = 0.25); m = p = 2
    couples the channels through B and a full symmetric R.  The input penalties are
    expanded as quadratic forms in R, independently of the OCP's E and c."""
    if m == 1:
        model, B, R, x0 = academic_example(), np.eye(1), 0.25 * np.eye(1), np.array([1.0])
        memory, pi_u = np.array([0.7, -0.4]), np.array([0.3])
        seqs = [[0.0, 0.0, 0.0], [1.0, 1.5, -0.5], [-0.3, 0.8, 0.2], [2.0, -1.0, 3.0]]
    else:
        B = np.array([[1.0, 0.5], [0.0, 1.0]])
        model = LinearSystem(A=0.5 * np.eye(2), B=B, C=np.eye(2), D=-np.eye(2),
                             P_x=np.zeros((2, 0)), P_y=np.zeros((2, 0)),
                             S=np.zeros((0, 0))).to_system_model()
        R, x0 = np.array([[0.5, 0.2], [0.2, 0.3]]), np.array([1.0, -0.5])
        memory, pi_u = np.array([0.7, 0.1, -0.4, 0.2]), np.array([0.3, -0.2])
        seqs = [[0.0] * 6, [1.0, 0.5, 1.5, -1.0, -0.5, 0.25],
                [-0.3, 1.2, 0.8, 0.4, 0.2, -0.7], [2.0, -2.0, -1.0, 0.5, 3.0, 1.0]]
    kw, reg = {}, None
    if variant == "look_ahead":
        kw["d"] = 0
    elif variant == "incremental_input":
        kw["T"] = 2
    elif variant == "input_regularized":
        reg = _ConstantFeedforward(pi_u)
    cfg = MpcConfig(variant=variant, N=3, Q=np.eye(m), R=R, **kw)
    ocp = assemble(model, cfg, x0, np.zeros(0),
                   memory=memory if variant == "incremental_input" else None, regulator=reg)
    u_prev, u_prev2 = memory[:m], memory[m:]      # newest first: u_{-1}, u_{-2}

    def pen(v):
        return float(v @ R @ v)

    for seq in seqs:
        u0, u1, u2 = useq = np.reshape(seq, (3, m))
        J, _, _ = ocp.cost(useq)
        x2 = 0.25 * x0 + 0.5 * B @ u0 + B @ u1
        y = (x0 - u0, 0.5 * x0 + B @ u0 - u1, x2 - u2, 0.5 * x2 + B @ u2 - u2)
        want = sum(float(v @ v) for v in y[:3])
        if variant == "look_ahead":         # y_{k+1} for k = 0, 1, 2
            want += sum(float(v @ v) for v in y[1:])
        elif variant == "incremental_input":  # u_k - u_{k-2}: two history terms, one decision
            want += pen(u0 - u_prev2) + pen(u1 - u_prev) + pen(u2 - u0)
        elif variant == "input_regularized":
            want += pen(u0 - pi_u) + pen(u1 - pi_u) + pen(u2 - pi_u)
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
    r, Jr, _ = residual_and_jacobian(ocp, u)
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
    r, Jr, _ = residual_and_jacobian(ocp, u)
    assert np.allclose(Jr, A, rtol=1e-12, atol=1e-12)
    assert np.allclose(r, A @ u.ravel() - b, rtol=1e-12, atol=1e-12)


def test_output_only_gradient_matches_hand_expansion():
    model = academic_example()
    ocp = assemble(model, make_cfg("output_only", 2), np.array([0.0]), np.zeros(0))
    r, Jr, _ = residual_and_jacobian(ocp, np.zeros((2, 1)))
    g = 2.0 * Jr.T @ r
    # J = u0^2 + (u0 - u1)^2 at x0 = 0: grad = (2u0 + 2(u0-u1), -2(u0-u1)) = 0
    assert np.allclose(g, 0.0)
    r, Jr, _ = residual_and_jacobian(ocp, np.array([[1.0], [0.0]]))
    g = 2.0 * Jr.T @ r
    assert np.allclose(g.ravel(), [2 * (1.0 - 0.0) * (-1) * (-1) + 2 * 1.0, -2.0])


def test_input_regularized_zero_on_manifold(rng):
    sys = random_linear(rng, n=2, m=2, q=2, T=2)
    model = sys.to_system_model()
    reg = solve_regulator(sys)
    w = rng.normal(size=2)
    cfg = make_cfg("input_regularized", 5, p=2, m=2)
    ocp = assemble(model, cfg, reg(w)[0], w, regulator=reg)
    sol = solve(ocp)
    assert sol.value == pytest.approx(0.0, abs=1e-16)
    for k in range(5):
        assert np.allclose(sol.u_opt[k], reg(ocp.w_traj[k])[1], atol=1e-8)


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
            r, Jr, _ = residual_and_jacobian(ocp, useq)
            g = (2.0 * Jr.T @ r).reshape(cfg.N, model.m)
            gfd = np.zeros_like(g)
            h = 1e-5
            for k in range(cfg.N):
                for j in range(model.m):
                    d = np.zeros_like(useq); d[k, j] = h
                    Jp, _, _ = ocp.cost(useq + d)
                    Jm, _, _ = ocp.cost(useq - d)
                    gfd[k, j] = (Jp - Jm) / (2 * h)
            scale = max(1.0, float(np.max(np.abs(gfd))))
            worst = max(worst, float(np.max(np.abs(g - gfd))) / scale)
    assert worst < 1e-4


@pytest.mark.parametrize("variant,N", [("incremental_input", 48), ("output_only", 1)])
def test_residuals_linearise_the_horizon_in_one_stacked_call(monkeypatch, variant, N):
    """One linearisation makes one jacobians_f and one jacobians_h call, equal to the per-point ones.

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
    cfg = MpcConfig(variant=variant, N=N, Q=np.eye(2), R=1e-2 * np.eye(2),
                    T=1 if variant == "incremental_input" else None)
    ocp = assemble(mill, cfg, x_ref + np.array([2.0, 1.0, 3.0]), w, memory=u_ref)
    residual_and_jacobian(ocp, np.tile(u_ref, (N, 1)) + np.linspace(-3.0, 3.0, 2 * N).reshape(N, 2))
    assert [len(c) for c in calls.values()] == [1, 1]
    (fargs, fout, forig), = calls["jacobians_f"]
    (hargs, hout, horig), = calls["jacobians_h"]
    assert [len(J) for J in fout] == [ocp.H - 1] * 3
    assert [len(J) for J in hout] == [ocp.H] * 3
    for args, out, orig in ((fargs, fout, forig), (hargs, hout, horig)):
        for k, pt in enumerate(zip(*args)):
            assert all(np.array_equal(J[k], Jk) for J, Jk in zip(out, orig(mill, *pt)))


def test_residual_jacobian_is_rebuilt_whenever_the_linearisation_moves():
    """On the nonlinear mill, passes at different inputs on one OCP give the J_r of a fresh
    OCP, bitwise; going back to the first input rebuilds it, and nothing is ever stale."""
    mill = cement_mill()
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)
    cfg = MpcConfig(variant="incremental_input", N=6, Q=np.eye(2), R=1e-2 * np.eye(2), T=1)

    def fresh():
        return assemble(mill, cfg, x_ref + np.array([2.0, 1.0, 3.0]), w, memory=u_ref)

    ocp = fresh()
    u1 = np.tile(u_ref, (6, 1))
    u2 = u1 + np.linspace(-3.0, 3.0, 12).reshape(6, 2)
    seen = []
    for u in (u1, u2, u1, u2):
        _, Jr, _ = residual_and_jacobian(ocp, u)
        _, want, _ = residual_and_jacobian(fresh(), u)
        assert Jr.tobytes() == want.tobytes()
        assert not Jr.flags.writeable
        seen.append(Jr)
    assert seen[1] is not seen[0] and seen[2] is not seen[1]


def test_residual_jacobian_of_a_linear_model_is_built_once(rng, monkeypatch):
    """A linear model's Jacobian stacks never change, so the second pass returns the same
    J_r object.  A box-constrained solve, which linearises once per iterate, on a second Ocp of
    the same (model, config) builds J_r 0 times, and on a replaced config with another N once."""
    sys = random_linear(rng, n=4, m=2)
    model = sys.to_system_model(input_lo=-0.2 * np.ones(2), input_hi=0.2 * np.ones(2))
    cfg = make_cfg("incremental_input", 12, p=2, m=2, T=1)
    ocp = assemble(model, cfg, 5.0 * rng.normal(size=4), np.zeros(0), memory=np.zeros(2))
    _, first, _ = residual_and_jacobian(ocp, np.zeros((12, 2)))
    _, second, _ = residual_and_jacobian(ocp, rng.uniform(-0.2, 0.2, (12, 2)))
    assert second is first
    builds, orig = [], mpc.Ocp._residual_jacobian
    monkeypatch.setattr(mpc.Ocp, "_residual_jacobian",
                        lambda self, *a: builds.append(self.N) or orig(self, *a))
    sol = solve(assemble(model, cfg, ocp.x0, np.zeros(0), memory=np.zeros(2)))
    assert sol.iterations >= 1 and builds == []
    longer = dataclasses.replace(cfg, N=16)
    sol = solve(assemble(model, longer, ocp.x0, np.zeros(0), memory=np.zeros(2)))
    assert sol.iterations >= 1 and builds == [16]


def _pair(model, cfg, rng, reg=None):
    """(J_r, H) of an Ocp of (model, cfg) at a random x0, w0, memory and input sequence."""
    ocp = assemble(model, cfg, rng.normal(size=model.n_p), rng.normal(size=model.q),
                   memory=rng.normal(size=(cfg.T or 1) * model.m), regulator=reg)
    u = rng.normal(size=(cfg.N, model.m))
    return ocp.jacobian(u, ocp.cost(u)[2])


@pytest.mark.parametrize("variant", VARIANTS)
def test_linear_pair_is_kept_per_model_and_config(rng, variant):
    """With an exosystem (q = 2, so w0 moves the w trajectory), a second Ocp of the same linear
    model and config at another x0, w0 and memory reads the kept (J_r, H) of the first, bit for
    bit the pair an equal fresh config builds; both arrays are read-only."""
    model = random_linear(rng, n=3, m=2, p=2, q=2, T=2).to_system_model()
    kw = {"look_ahead": {"d": 1}, "incremental_input": {"T": 2}}.get(variant, {})
    cfg = make_cfg(variant, 5, p=2, m=2, **kw)
    reg = RegulatorSolution(Pi=rng.normal(size=(3, 2)), Gamma=rng.normal(size=(2, 2)))
    first = _pair(model, cfg, rng, reg)
    second = _pair(model, cfg, rng, reg)
    fresh = _pair(model, dataclasses.replace(cfg), rng, reg)
    assert all(a is b for a, b in zip(first, second))
    assert second[1].tobytes() == (2.0 * (second[0].T @ second[0])).tobytes()
    for got, want in zip(second, fresh):
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable and not want.flags.writeable
        with pytest.raises(ValueError):
            got[0, 0] = 1.0


def test_linear_models_that_alternate_on_one_config_are_never_stale(rng):
    """Two linear models taking turns on one config each get their own (J_r, H)."""
    a, b = (random_linear(rng, n=3, m=1).to_system_model() for _ in range(2))
    cfg = make_cfg("output_only", 4)
    want = {id(model): _pair(model, make_cfg("output_only", 4), rng) for model in (a, b)}
    for model in (a, b, a, b, b, a):
        got = _pair(model, cfg, rng)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want[id(model)]]
        assert cfg._linearisation[0].system is model.linear


def test_a_nonlinear_solve_leaves_nothing_on_the_config():
    """Only a model tagged linear is kept: a mill solve adds nothing to its config but the
    horizon data."""
    w = np.array([110.0, 425.0])
    cfg = MpcConfig(variant="incremental_input", N=6, Q=np.eye(2), R=1e-2 * np.eye(2), T=1)
    solve(assemble(cement_mill(), cfg, np.array([120.0, 55.0, 450.0]), w,
                   memory=np.array([115.0, 172.5])))
    assert set(vars(cfg)) == {f.name for f in dataclasses.fields(cfg)} | {"horizon"}


def test_kept_pair_holds_the_linear_system_so_models_die_and_the_config_pickles(rng):
    """The slot holds the LinearSystem, not the SystemModel with its closures: after a solve the
    config pickles and the model can be collected, and 50 fresh models solved on one config keep
    one slot, so every earlier LinearSystem can be collected too."""
    cfg = make_cfg("incremental_input", 6, p=2, m=2, T=1)

    def solved():
        model = random_linear(rng, n=3, m=2).to_system_model(-np.ones(2), np.ones(2))
        solve(assemble(model, cfg, 3.0 * rng.normal(size=3), np.zeros(0), memory=np.zeros(2)))
        return model

    model = solved()
    assert repr(pickle.loads(pickle.dumps(cfg))) == repr(cfg)
    dead = weakref.ref(model)
    del model
    gc.collect()
    assert dead() is None
    systems = []
    for _ in range(50):
        model = solved()
        systems.append(weakref.ref(model.linear))
    gc.collect()
    assert set(vars(cfg)) == ({f.name for f in dataclasses.fields(cfg)}
                              | {"horizon", "_linearisation"})
    assert cfg._linearisation[0].system is model.linear
    assert [ref() is None for ref in systems] == [True] * 49 + [False]


@pytest.mark.parametrize("name,value", [("Q", np.inf), ("R", -np.inf), ("Q", np.nan), ("R", np.nan)])
def test_config_refuses_non_finite_weights(name, value):
    """A non-finite weight is refused as such, before the symmetry and PSD tests (-inf < -inf
    is false, so a PSD test alone lets R = -inf through)."""
    weights = {"Q": [[1.0]], "R": [[1.0]]}
    weights[name] = [[value]]
    with pytest.raises(ConfigError, match=f"^{name} must be finite$") as err:
        MpcConfig(variant="output_only", N=3, **weights)
    assert err.value.key == name


@pytest.mark.parametrize("where,length", [("x0", 1), ("w0", 0), ("warm_start", 3)])
def test_vectors_of_the_wrong_size_raise_shape_error(where, length):
    """A wrong-size x0 or w0 given to assemble, or warm start given to solve, raises ShapeError
    naming the length it needs, not numpy's reshape error."""
    model, cfg = academic_example(), make_cfg("output_only", 3)
    args = {"x0": np.ones(1), "w0": np.zeros(0), "warm_start": np.zeros((3, 1))}
    args[where] = np.ones(length + 1)
    with pytest.raises(ShapeError, match=f"^{where} must have length {length}, got {length + 1}$"):
        solve(assemble(model, cfg, args["x0"], args["w0"]), warm_start=args["warm_start"])


def test_controller_refuses_an_initial_input_of_the_wrong_size():
    """On the 2-input mill, a 1-entry initial_input is not broadcast into the warm start and
    the memory, and a 3-entry one does not reach numpy's broadcast error: both raise
    ShapeError.  An input of the right size is clipped to the box."""
    mill = cement_mill()
    cfg = MpcConfig(variant="incremental_input", N=4, Q=np.eye(2), R=1e-2 * np.eye(2), T=2)
    for bad in ([100.0], [100.0, 170.0, 1.0]):
        with pytest.raises(ShapeError, match=f"^initial_input must have length 2, got {len(bad)}$"):
            MpcController(mill, cfg, initial_input=bad)
    ctrl = MpcController(mill, cfg, initial_input=[[1e3], [0.0]])
    assert np.array_equal(ctrl.memory, [150.0, 165.0, 150.0, 165.0])


def test_each_rollout_makes_one_stacked_h_call(monkeypatch):
    """The solver evaluates every point once: a cold mill solve and a short nominal run call
    the stacked h exactly once per rollout, and linearise once per iterate."""
    counts = {"rollout": 0, "h": 0, "jacobians_f": 0, "iterates": 0}
    h, rollout, jac_f, solve_ = models._mill_h, mpc.Ocp.rollout, SystemModel.jacobians_f, mpc.solve

    def count(key, n=1):
        counts[key] += n

    monkeypatch.setattr(models, "_mill_h", lambda x, u, w: count("h", np.ndim(x) == 2) or h(x, u, w))
    monkeypatch.setattr(mpc.Ocp, "rollout", lambda self, u: count("rollout") or rollout(self, u))
    monkeypatch.setattr(SystemModel, "jacobians_f",
                        lambda self, x, u, w: count("jacobians_f", np.ndim(x) == 2) or jac_f(self, x, u, w))

    def solve(ocp, warm_start=None):
        sol = solve_(ocp, warm_start=warm_start)
        count("iterates", sol.iterations + 1)
        return sol

    monkeypatch.setattr(mpc, "solve", solve)
    w = np.array([110.0, 425.0])
    cfg = MpcConfig(variant="incremental_input", N=6, Q=np.eye(2), R=1e-2 * np.eye(2), T=1)
    sol = mpc.solve(assemble(cement_mill(), cfg, np.array([120.0, 55.0, 450.0]), w,
                             memory=np.array([115.0, 172.5])))
    assert sol.iterations >= 2
    assert counts["h"] == counts["rollout"] > sol.iterations
    assert counts["jacobians_f"] == counts["iterates"] == sol.iterations + 1
    spec = config.parse_config(config.read_config_file("cement_mill_nominal"))
    run(dataclasses.replace(spec, steps=10))
    assert counts["h"] == counts["rollout"] >= counts["iterates"] >= sol.iterations + 11
    assert counts["jacobians_f"] == counts["iterates"]


@pytest.mark.parametrize("preset,steps", [("academic_incremental", 61), ("academic_output_only", 10)])
def test_a_linear_preset_run_linearises_once(monkeypatch, preset, steps):
    """Counted, not timed: every step of a linear preset's run solves under one (model, config),
    so the whole run calls jacobians_f once, where building J_r per OCP called it once a step."""
    calls, jac_f = [], SystemModel.jacobians_f
    monkeypatch.setattr(SystemModel, "jacobians_f", lambda self, *a: calls.append(1) or jac_f(self, *a))
    spec = config.parse_config(config.read_config_file(preset))
    trace = run(spec)
    assert spec.steps == steps and len(trace.u) == steps and not np.isnan(trace.value).any()
    assert len(calls) == 1


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), variant=st.sampled_from(VARIANTS),
       n=st.integers(1, 4), m=st.integers(1, 3), p=st.integers(1, 3), q=st.integers(0, 2),
       N=st.integers(1, 6), extra=st.integers(0, 2), box=st.floats(0.05, 3.0))
def test_solver_invariants_on_random_systems(seed, variant, n, m, p, q, N, extra, box):
    """Property over random LTI systems, boxes and every variant: each point the solver hands
    to Ocp.cost lies in the box, the returned value, predicted states and KKT residual are those
    of a fresh Ocp.cost and Ocp.jacobian at u_opt bit for bit, and a re-solve warm-started at
    u_opt does not raise the value beyond the line search's round-off allowance,
    1e-14 max(1, |J|) per accepted step.

    `extra` is d for look_ahead and T - 1 for incremental_input.  The warm start is drawn
    around the box, so it is often projected.
    """
    rng = np.random.default_rng(seed)
    sys = random_linear(rng, n=n, m=m, p=p, q=q, T=2, spectral=1.1)
    lo, hi = -box * rng.uniform(0.1, 1.0, m), box * rng.uniform(0.1, 1.0, m)
    kw, memory, reg = {}, None, None
    if variant == "look_ahead":
        kw["d"] = extra
    elif variant == "incremental_input":
        kw["T"] = extra + 1
        memory = rng.normal(size=(extra + 1) * m)
    elif variant == "input_regularized":
        reg = RegulatorSolution(Pi=rng.normal(size=(n, q)), Gamma=rng.normal(size=(m, q)))
    cfg = MpcConfig(variant=variant, N=N, Q=np.diag(rng.uniform(0.1, 2.0, p)),
                    R=np.diag(rng.uniform(0.0, 1.0, m)), **kw)
    ocp = assemble(sys.to_system_model(input_lo=lo, input_hi=hi), cfg, 3.0 * rng.normal(size=n),
                   rng.normal(size=q), memory=memory, regulator=reg)
    seen, cost = [], ocp.cost
    ocp.cost = lambda u: seen.append(np.ravel(u).copy()) or cost(u)
    sol = solve(ocp, warm_start=rng.uniform(2.0 * lo, 2.0 * hi, size=(N, m)))
    assert seen and all(np.all((lo <= u.reshape(N, m)) & (u.reshape(N, m) <= hi)) for u in seen)
    J, r, xs = cost(sol.u_opt)
    assert sol.value == J and np.array_equal(sol.x_pred, xs[:N + 1])
    u, g = sol.u_opt.ravel(), 2.0 * (ocp.jacobian(sol.u_opt, xs)[0].T @ r)
    assert sol.kkt_residual == np.max(np.abs(u - np.clip(u - g, np.tile(lo, N), np.tile(hi, N))))
    again = solve(ocp, warm_start=sol.u_opt)    # each accepted step may rise by its allowance
    assert again.value <= sol.value + max(1, again.iterations) * 1e-14 * max(1.0, sol.value)


@pytest.mark.parametrize("plant,variant,N,kw", [
    ("mill", "output_only", 1, {}),
    ("mill", "look_ahead", 4, {"d": 1}),          # output weights 1 and 2
    ("mill", "incremental_input", 6, {"T": 1}),
    ("academic", "output_only", 1, {}),
    ("academic", "look_ahead", 2, {"d": 3}),      # output weights 1 and 0
])
def test_residuals_evaluate_outputs_in_one_stacked_call(plant, variant, N, kw):
    """Ocp.cost, alone or with Ocp.jacobian, calls h once, on the (H, ·) stacks of the rollout.

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
    for evaluate in (lambda u: residual_and_jacobian(ocp, u), ocp.cost):
        calls.clear()
        evaluate(u)
        (args, out), = calls
        assert [a.shape for a in args] == [(ocp.H, base.n_p), (ocp.H, base.m), (ocp.H, base.q)]
        assert out.shape == (ocp.H, p)
        for k, pt in enumerate(zip(*args)):
            assert np.array_equal(out[k], base.h(*pt))
    _, r, _ = ocp.cost(u)
    assert r.size == p * ocp.H + ocp.E.shape[0]


def test_gradient_zero_at_unconstrained_optimum(rng):
    sys = random_linear(rng, n=2, m=1, q=0)
    model = sys.to_system_model()
    cfg = make_cfg("incremental_input", 6, T=1)
    ocp = assemble(model, cfg, rng.normal(size=2), np.zeros(0), memory=np.zeros(1))
    sol = solve(ocp)
    r, Jr, _ = residual_and_jacobian(ocp, sol.u_opt)
    g = 2.0 * Jr.T @ r
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
    J, _, _ = ocp.cost(sol.u_opt)
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
    monkeypatch.setattr(ocp, "cost", lambda u: seen.append(np.ravel(u).copy()) or orig(u))
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
        monkeypatch.setattr(ocp, "cost", lambda *a, **k: 1 / 0)
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


def _count_linalg(monkeypatch):
    """Live call counts of np.linalg's cholesky, solve and inv."""
    counts = dict.fromkeys(("cholesky", "solve", "inv"), 0)
    for name in counts:
        orig = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _n=name, _f=orig, **k:
                            counts.__setitem__(_n, counts[_n] + 1) or _f(*a, **k))
    return counts


def test_a_re_solve_inverts_the_kept_hessian_once(monkeypatch):
    """Counted, not timed: on one unconstrained (model, config) at N = 307 the first solve
    factorises H, the second inverts the kept H once, and the third factorises nothing."""
    counts = _count_linalg(monkeypatch)
    cfg = MpcConfig(variant="incremental_input", N=307, Q=np.eye(1), R=np.eye(1), T=1)
    model, seen = academic_example(), []
    for x0 in (1.3, -0.7, 0.2):
        for name in counts:
            counts[name] = 0
        sol = solve(assemble(model, cfg, np.array([x0]), np.zeros(0), memory=np.array([0.4])))
        assert sol.iterations == 1 and sol.converged
        seen.append(dict(counts))
    assert seen == [{"cholesky": 1, "solve": 1, "inv": 0},
                    {"cholesky": 1, "solve": 0, "inv": 1},
                    {"cholesky": 0, "solve": 0, "inv": 0}]


def _formed_M(cfg):
    """Whether the kept `_Linearisation` of cfg has formed its step operator M."""
    return "M" in vars(cfg._linearisation[0])


def test_kept_inverse_is_read_only_and_inverts_the_kept_hessian():
    """The record keeps M = H^-1 next to (J_r, H) after the second Ocp: read-only, H M = I."""
    cfg = MpcConfig(variant="incremental_input", N=307, Q=np.eye(1), R=np.eye(1), T=1)
    model = academic_example()
    solve(assemble(model, cfg, np.array([1.3]), np.zeros(0), memory=np.array([0.4])))
    kept = cfg._linearisation[0]
    assert not _formed_M(cfg)    # J_r and H alone until a later solve asks for M
    ocp = assemble(model, cfg, np.array([-0.7]), np.zeros(0), memory=np.array([0.4]))
    solve(ocp)
    assert cfg._linearisation[0] is kept and ocp.kept() is kept and _formed_M(cfg)
    assert kept.system is model.linear
    M = kept.M
    assert not M.flags.writeable
    with pytest.raises(ValueError):
        M[0, 0] = 1.0
    assert np.max(np.abs(kept.H @ M - np.eye(307))) < 1e-12


def test_a_singular_hessian_keeps_the_regularised_operator_and_factorises_once(monkeypatch):
    """output_only without feedthrough never sees the last input, so H is singular.  The second
    solve keeps the inverse M of `_newton_step`'s regularised system in place of H^-1, later
    solves factorise nothing, and every solve still meets the dense least-squares oracle."""
    model = LinearSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]], P_x=np.zeros((1, 0)),
                         P_y=np.zeros((1, 0)), S=np.zeros((0, 0))).to_system_model()
    cfg = make_cfg("output_only", 8)
    counts, seen = _count_linalg(monkeypatch), []
    for _ in range(4):
        for name in counts:
            counts[name] = 0
        ocp = assemble(model, cfg, np.array([1.7]), np.zeros(0))
        sol = solve(ocp)
        seen.append(dict(counts))
        _, v_ref = dense_lstsq_oracle(ocp)
        assert sol.value == pytest.approx(v_ref, rel=1e-6, abs=1e-9)
    first = seen[0]
    assert first["inv"] == 0 and first["cholesky"] >= 1 and first["solve"] >= 1
    assert seen[1:] == [{"cholesky": 1, "solve": 0, "inv": 1}] + 2 * [dict.fromkeys(counts, 0)]
    kept = cfg._linearisation[0]
    assert not kept.M.flags.writeable
    g = np.random.default_rng(5).normal(size=8)
    assert np.allclose(-(kept.M @ g), mpc._newton_step(kept.H, g), rtol=1e-12, atol=0.0)


def test_an_indefinite_kept_hessian_factorises_nothing_from_the_third_solve(monkeypatch):
    """Counted, not timed: the academic plant's zero at 1.5 leaves output_only's H at N = 307,
    R = 0 not positive definite.  The second Ocp keeps the regularised M; from the third on a
    solve makes no cholesky, solve or inv call and still meets the dense least-squares oracle."""
    counts = _count_linalg(monkeypatch)
    cfg = MpcConfig(variant="output_only", N=307, Q=np.eye(1), R=np.zeros((1, 1)))
    model, seen = academic_example(), []
    for x0 in (1.7, 1.7, 1.7, -0.4):
        for name in counts:
            counts[name] = 0
        ocp = assemble(model, cfg, np.array([x0]), np.zeros(0))
        sol = solve(ocp)
        seen.append(dict(counts))
        _, v_ref = dense_lstsq_oracle(ocp)
        assert sol.value == pytest.approx(v_ref, rel=1e-6, abs=1e-9)
    assert seen[1]["inv"] == 1 and seen[2:] == 2 * [dict.fromkeys(counts, 0)]
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(cfg._linearisation[0].H)


def test_re_solves_that_reuse_the_kept_inverse_match_the_dense_oracle(rng):
    """Five Ocps of one linear (model, config) at random x0, w0 and memory: every solve after
    the first takes its steps with the kept H^-1 and meets the stacked least-squares oracle."""
    settings = SolverSettings(gradient_tolerance=1e-10)
    for variant in ("output_only", "incremental_input", "input_regularized"):
        sys = random_linear(rng, n=3, m=2, q=2, T=2)
        model = sys.to_system_model()
        T = 2 if variant == "incremental_input" else None
        cfg = MpcConfig(variant=variant, N=5, Q=np.eye(2), R=np.eye(2), T=T, solver=settings)
        reg = solve_regulator(sys) if variant == "input_regularized" else None
        for _ in range(5):
            ocp = assemble(model, cfg, rng.normal(size=3), rng.normal(size=2),
                           memory=rng.normal(size=2 * (T or 1)), regulator=reg)
            _, v_ref = dense_lstsq_oracle(ocp)
            sol = solve(ocp)
            assert sol.value == pytest.approx(v_ref, rel=1e-6, abs=1e-9)
        assert _formed_M(cfg)


@pytest.mark.parametrize("variant", VARIANTS)
def test_a_solve_with_the_kept_inverse_agrees_with_the_factorising_solve(rng, variant):
    """The same OCP solved twice: the first solve factorises H, the second steps with the
    kept H^-1; their inputs and values agree to 1e-12 relative.  Two outputs and one input
    keep output_only's H well conditioned."""
    sys = random_linear(rng, n=3, m=1, p=2, q=2, T=2)
    kw = {"look_ahead": {"d": 2}, "incremental_input": {"T": 2}}.get(variant, {})
    cfg = make_cfg(variant, 6, p=2, m=1, **kw)
    reg = RegulatorSolution(Pi=rng.normal(size=(3, 2)), Gamma=rng.normal(size=(1, 2)))
    ocp = assemble(sys.to_system_model(), cfg, rng.normal(size=3), rng.normal(size=2),
                   memory=rng.normal(size=2), regulator=reg)
    first = solve(ocp)
    assert not _formed_M(cfg)
    again = solve(ocp)
    assert _formed_M(cfg)
    assert first.converged and again.converged
    scale = np.max(np.abs(first.u_opt))
    assert np.max(np.abs(again.u_opt - first.u_opt)) <= 1e-12 * scale
    assert again.value == pytest.approx(first.value, rel=1e-12)


@pytest.mark.parametrize("preset", ["academic_incremental", "academic_output_only"])
def test_a_linear_preset_run_factorises_once_and_inverts_once(monkeypatch, preset):
    """Counted, not timed: a linear preset's run solves with np.linalg.solve only at its first
    step, and inverts the kept H once at its second; later steps factorise nothing."""
    counts = _count_linalg(monkeypatch)
    spec = config.parse_config(config.read_config_file(preset))
    trace = run(spec)
    assert not np.isnan(trace.value).any()
    assert counts == {"cholesky": 2, "solve": 1, "inv": 1}


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


def test_box_constrained_re_solves_with_the_kept_inverse_match_bvls():
    """The N = 40 box LTI of instance 193 solved from six x0 on one (model, config): the
    all-free passes of every solve after the first step with the kept H^-1, and each solve
    meets BVLS at the `linear_certificates` tolerances."""
    from scipy.optimize import lsq_linear
    rng = np.random.default_rng([9301, 2, 193])
    A = rng.normal(size=(4, 4))
    A *= 0.9 / max(abs(np.linalg.eigvals(A)))
    sys = LinearSystem(A=A, B=rng.normal(size=(4, 2)), C=rng.normal(size=(2, 4)),
                       D=0.3 * rng.normal(size=(2, 2)), P_x=np.zeros((4, 0)),
                       P_y=np.zeros((2, 0)), S=np.zeros((0, 0)))
    model = sys.to_system_model(input_lo=-np.ones(2), input_hi=np.ones(2))
    cfg = MpcConfig(variant="incremental_input", N=40, Q=np.eye(2), R=0.1 * np.eye(2), T=1)
    for scale in (3.0, 0.1, 3.0, 1.0, 0.01, 5.0):
        ocp = assemble(model, cfg, scale * rng.normal(size=4), np.zeros(0),
                       memory=rng.uniform(-1.0, 1.0, 2))
        Aml, b = ocp.dense_matrices()
        ref = lsq_linear(Aml, b, bounds=(-np.ones(80), np.ones(80)), method="bvls",
                         tol=1e-12, max_iter=100 * Aml.shape[1])
        r = Aml @ ref.x - b
        sol = solve(ocp)
        assert sol.converged
        assert np.max(np.abs(sol.u_opt.ravel() - ref.x)) <= 1e-6
        assert sol.value == pytest.approx(float(r @ r), rel=1e-9)
    assert _formed_M(cfg)


def test_box_constrained_lti_sweep_matches_bvls():
    """Random box LTI against BVLS at the `linear_certificates` tolerances.

    Every third of 300 instances (rng [4242, i]: N 5-59, rho(A) 0.3-1.2) and
    instances 167 and 220, on which a Newton step clipped onto the box jams.
    Each ends within two GN iterations.  On the unstable 9 and 167 the exact
    step after the second is about 1e-15, too small to move u, so the solve
    stops there, unconverged.
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
        assert sol.iterations <= 2, i
        if rho <= 1.0:
            assert sol.converged, i


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), variant=st.sampled_from(VARIANTS),
       n=st.integers(1, 4), m=st.integers(1, 2), q=st.integers(0, 2), N=st.integers(1, 40),
       extra=st.integers(0, 2), rho=st.floats(0.3, 1.2))
@example(seed=2238, variant="look_ahead", n=3, m=2, q=0, N=36, extra=0, rho=1.198)
@example(seed=263, variant="incremental_input", n=4, m=2, q=0, N=37, extra=1, rho=1.199)
def test_box_constrained_solve_matches_bvls_on_random_systems(seed, variant, n, m, q, N, extra,
                                                              rho):
    """Property: the KKT point of `solve` is BVLS's minimiser of the dense residual system.

    Random box-constrained LTI with p = m and spectral radius rho, all four
    variants, at the `linear_certificates` tolerances: 1e-6 on the input when the dense system
    has full column rank (else the minimiser is not unique), 1e-9 relative on
    the value.  `extra` is d for look_ahead and T - 1 for incremental_input.
    J_r is built once however many iterations the solve takes.  The two
    pinned unstable plants take two iterations each; the incremental_input
    one ends unconverged, yet at BVLS's minimiser.
    """
    from scipy.optimize import lsq_linear
    rng = np.random.default_rng(seed)
    sys = random_linear(rng, n=n, m=m, q=q, T=2, spectral=rho)
    lo, hi = -rng.uniform(0.1, 2.0, m), rng.uniform(0.1, 2.0, m)
    kw, memory, reg = {}, None, None
    if variant == "look_ahead":
        kw["d"] = extra
    elif variant == "incremental_input":
        kw["T"] = extra + 1
        memory = rng.uniform(lo, hi, size=(extra + 1, m)).ravel()
    elif variant == "input_regularized":
        reg = RegulatorSolution(Pi=rng.normal(size=(n, q)), Gamma=rng.normal(size=(m, q)))
    cfg = MpcConfig(variant=variant, N=N, Q=np.diag(rng.uniform(0.1, 2.0, m)),
                    R=np.diag(rng.uniform(0.1, 2.0, m)), **kw)
    ocp = assemble(sys.to_system_model(input_lo=lo, input_hi=hi), cfg, 3.0 * rng.normal(size=n),
                   rng.normal(size=q), memory=memory, regulator=reg)
    A, b = ocp.dense_matrices()
    builds, orig = [], ocp._residual_jacobian
    ocp._residual_jacobian = lambda *a: builds.append(1) or orig(*a)
    sol = solve(ocp)
    ref = lsq_linear(A, b, bounds=(np.tile(lo, N), np.tile(hi, N)), method="bvls",
                     tol=1e-12, max_iter=100 * A.shape[1])
    r = A @ ref.x - b
    value = float(r @ r)
    assert np.all((np.tile(lo, N) <= sol.u_opt.ravel()) & (sol.u_opt.ravel() <= np.tile(hi, N)))
    assert abs(sol.value - value) <= 1e-9 * max(1.0, value)
    if np.linalg.svd(A, compute_uv=False)[-1] > 1e-6 * np.linalg.norm(A, 2):
        assert np.max(np.abs(sol.u_opt.ravel() - ref.x)) <= 1e-6
    assert builds == [1]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30), rows=st.integers(1, 60),
       zero_cols=st.booleans(), scale=st.sampled_from((1, 3)))
@example(seed=12, n=20, rows=40, zero_cols=True, scale=3)
def test_box_step_matches_bvls_on_random_models(seed, n, rows, zero_cols, scale):
    """Property: the GN box step attains BVLS's model value, also for rank-deficient J_r
    with column scales spread over 10^-scale..10^scale."""
    from scipy.optimize import lsq_linear
    rng = np.random.default_rng(seed)
    Jr = rng.normal(size=(rows, n)) * 10.0 ** rng.uniform(-scale, scale, n)
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


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6), extra=st.integers(0, 6),
       kind=st.sampled_from(("full_rank", "zero_columns", "wide")))
def test_box_step_with_the_inverse_matches_the_factorising_step(seed, n, extra, kind):
    """Property: given the M that `_Linearisation` forms, the box step meets the factorising
    step and BVLS.  Its all-free passes take -M grad, also those after a bound that d = 0 sat
    on is released, where grad = g + H d.  Where H is positive definite, M = H^-1 and d matches
    to 1e-9.  Where zero columns or a wide J_r make H singular, M is the inverse of the
    regularised system S K S and the model values match to 1e-9 relative; K^-1 S^-2, which
    scales columns where S^-1 K^-1 S^-1 scales rows and columns, fails this."""
    from scipy.optimize import lsq_linear
    rng = np.random.default_rng(seed)
    rows = max(1, n - 1 - extra % n) if kind == "wide" else n + extra
    Jr = rng.normal(size=(rows, n))
    if kind == "zero_columns":
        Jr[:, (rng.random(n) < 0.3) | (np.arange(n) == rng.integers(n))] = 0.0
    r = 3.0 * rng.normal(size=rows)
    lo, hi = -rng.uniform(0.0, 2.0, n), rng.uniform(0.0, 2.0, n)
    lo[rng.random(n) < 0.3] = 0.0          # bounds that d = 0 sits on, released later
    H, g = 2.0 * Jr.T @ Jr, 2.0 * Jr.T @ r
    want = mpc._box_gauss_newton_step(H, g, lo, hi)
    d = mpc._box_gauss_newton_step(H, g, lo, hi, mpc._Linearisation(None, Jr, H).M)
    assert np.all((lo <= d) & (d <= hi))
    value, best = np.sum((r + Jr @ d) ** 2), np.sum((r + Jr @ want) ** 2)
    if kind == "full_rank":
        assert np.max(np.abs(d - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))
    else:
        assert abs(value - best) <= 1e-9 * max(1.0, best)
    ref = lsq_linear(Jr, -r, bounds=(lo, hi), method="bvls", tol=1e-14, max_iter=100 * n)
    best = np.sum((r + Jr @ ref.x) ** 2)
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
            J_warm, _, _ = ocp.cost(warm)
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


def test_controller_step_returns_the_solution_or_none_after_a_failure(monkeypatch):
    """A solved step returns its OcpSolution; a solve that raises NumericalError returns
    the last applied input and None, and the incremental memory still slides by it."""
    model = academic_example()
    ctrl = MpcController(model, make_cfg("incremental_input", 4, T=2))
    ctrl.memory = np.array([0.2, -0.1])
    u, sol = ctrl.step(np.array([1.0]), np.zeros(0))
    assert isinstance(sol, mpc.OcpSolution) and sol.converged
    assert np.array_equal(u, sol.u_opt[0])
    assert np.array_equal(ctrl.memory, [u[0], 0.2])

    def failing_solve(ocp, warm_start=None):
        raise NumericalError("injected solver failure")

    monkeypatch.setattr(mpc, "solve", failing_solve)
    u_failed, sol = ctrl.step(np.array([0.5]), np.zeros(0))
    assert sol is None and np.array_equal(u_failed, u)
    assert np.array_equal(ctrl.memory, [u[0], u[0]])


def test_controller_on_manifold_repeats_feedforward():
    mill = cement_mill()
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)
    cfg = MpcConfig(variant="incremental_input", N=6, Q=np.eye(2),
                    R=1e-2 * np.eye(2), T=1)
    ctrl = MpcController(mill, cfg)
    ctrl.memory = u_ref.copy()
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
    J, _, xs = ocp.cost(sol.u_opt)
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
