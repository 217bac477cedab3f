import numpy as np
import pytest

from conftest import random_linear
from regfree_mpc.errors import ConfigError, DetectabilityError, NumericalError
from regfree_mpc.estimation import (ObserverConfig, ObserverState,
                                    check_joint_detectability, joint_output,
                                    joint_output_jacobian, joint_state_jacobian, joint_step,
                                    make_observer_state, observer_step)
from regfree_mpc.models import LinearSystem, SystemModel, academic_example, cement_mill


def tracking_lti(rng):
    return random_linear(rng, n=2, m=1, p=1, q=1, T=1)


def test_ekf_refuses_a_gain():
    with pytest.raises(ConfigError, match="'L' is read only by the luenberger observer") as err:
        ObserverConfig(kind="ekf", xhat0=np.zeros(2), L=np.ones((2, 1)))
    assert err.value.key == "L"


def test_ekf_jacobians_linear_exact(rng):
    sys = tracking_lti(rng)
    model = sys.to_system_model()
    xj = rng.normal(size=3)
    u = rng.normal(size=1)
    F, H = joint_state_jacobian(model, xj, u), joint_output_jacobian(model, xj, u)
    F_want = np.block([[sys.A, sys.P_x], [np.zeros((1, 2)), sys.S]])
    H_want = np.hstack([sys.C, -sys.P_y])
    assert np.allclose(F, F_want)
    assert np.allclose(H, H_want)


def test_ekf_jacobians_mill_match_fd(rng):
    mill = cement_mill()
    for _ in range(5):
        xj = np.concatenate([rng.uniform([100, 44, 400], [130, 56, 450]),
                             rng.uniform([100, 410], [120, 430])])
        u = rng.uniform(mill.input_lo, mill.input_hi)
        F, H = joint_state_jacobian(mill, xj, u), joint_output_jacobian(mill, xj, u)
        h = 1e-6
        for i in range(5):
            d = np.zeros(5); d[i] = h * (1 + abs(xj[i]))
            colF = (joint_step(mill, xj + d, u) - joint_step(mill, xj - d, u)) / (2 * d[i])
            colH = (joint_output(mill, xj + d, u) - joint_output(mill, xj - d, u)) / (2 * d[i])
            assert np.allclose(F[:, i], colF, rtol=1e-4, atol=1e-7)
            assert np.allclose(H[:, i], colH, rtol=1e-4, atol=1e-9)


def test_ekf_step_linearises_once_per_use(monkeypatch):
    """One EKF step needs H at the prior and F at the update: one call each."""
    mill = cement_mill()
    calls = {"jacobians_f": 0, "jacobians_h": 0}
    for name in calls:
        def counted(self, *args, _name=name, _orig=getattr(SystemModel, name)):
            calls[_name] += 1
            return _orig(self, *args)
        monkeypatch.setattr(SystemModel, name, counted)
    cfg = ObserverConfig(kind="ekf", xhat0=np.array([120.0, 55.0, 450.0, 110.0, 425.0]))
    state = make_observer_state(mill, cfg)
    observer_step(state, np.array([115.0, 172.5]), np.array([120.0, 55.0]), mill, cfg)
    assert calls == {"jacobians_f": 1, "jacobians_h": 1}


def test_mill_jacobian_continuous_on_operating_band():
    """x2 sweep across the operating band: Jacobian varies smoothly, clamp inactive."""
    mill = cement_mill()
    u = np.array([110.0, 170.0])
    w = np.array([110.0, 425.0])
    prev = None
    for x2 in np.linspace(45.0, 55.0, 60):
        Fx, Fu, _ = mill.jacobians_f(np.array([110.0, x2, 425.0]), u, w)
        if prev is not None:
            assert np.max(np.abs(Fx - prev)) < 0.15
        prev = Fx


def test_observer_prediction_rejects_non_finite_state():
    """The prediction runs through SystemModel.step, so an LTI model raises like the mill."""
    model = academic_example()
    for config in (ObserverConfig(kind="ekf", xhat0=[1.0]),
                   ObserverConfig(kind="luenberger", xhat0=[1.0], L=[[0.5]])):
        state = make_observer_state(model, config)
        with pytest.raises(NumericalError):
            observer_step(state, np.array([np.nan]), np.array([1.0]), model, config)
        with pytest.raises(NumericalError, match="non-finite measurement"):
            observer_step(state, np.array([1.0]), np.array([np.inf]), model, config)


def luenberger_config(sys, L, xhat0):
    return ObserverConfig(kind="luenberger", xhat0=xhat0, L=L)


def test_exact_initialization_is_fixed_point(rng):
    sys = tracking_lti(rng)
    model = sys.to_system_model()
    L = np.zeros((3, 1))
    x = rng.normal(size=2)
    w = rng.normal(size=1)
    state = ObserverState(xhat=np.concatenate([x, w]))
    cfgL = luenberger_config(sys, L + 0.1, state.xhat)
    for _ in range(20):
        u = rng.normal(size=1)
        y = model.h(x, u, w)
        state = observer_step(state, u, y, model, cfgL)
        x = model.f_p(x, u, w)
        w = model.s(w)
        assert np.allclose(state.xhat, np.concatenate([x, w]), atol=1e-10)


def test_zero_gain_is_open_loop_prediction(rng):
    sys = tracking_lti(rng)
    model = sys.to_system_model()
    cfgL = luenberger_config(sys, np.zeros((3, 1)), np.zeros(3))
    state = ObserverState(xhat=np.array([1.0, -2.0, 0.5]))
    u = np.array([0.3])
    nxt = observer_step(state, u, np.array([99.0]), model, cfgL)
    assert np.allclose(nxt.xhat, joint_step(model, state.xhat, u))


def test_luenberger_error_enters_noise_ball(rng):
    """With A - LC Schur, the estimation error settles into a noise-scaled ball."""
    A = np.array([[0.9, 0.2], [0.0, 0.7]])
    C = np.array([[1.0, 0.0]])
    B = np.array([[0.0], [1.0]])
    sys = LinearSystem(A=A, B=B, C=C, D=[[0.0]], P_x=np.zeros((2, 0)),
                       P_y=np.zeros((1, 0)), S=np.zeros((0, 0)))
    model = sys.to_system_model()
    from regfree_mpc.linear_analysis import dare
    Sig = dare(A.T, C.T, np.eye(2), np.eye(1)).P
    L = A @ Sig @ C.T @ np.linalg.inv(C @ Sig @ C.T + np.eye(1))
    AL = A - L @ C
    rho = max(abs(np.linalg.eigvals(AL)))
    assert rho < 1.0
    cfgL = ObserverConfig(kind="luenberger", xhat0=np.zeros(2), L=L)
    state = ObserverState(xhat=np.array([5.0, -4.0]))
    x = np.zeros(2)
    noise_bound = 0.1
    # geometric-series bound on the steady error radius, padded for transients
    gain = np.linalg.norm(L) * noise_bound / (1.0 - rho)
    errs = []
    for t in range(500):
        u = np.array([np.sin(0.1 * t)])
        eta = noise_bound * np.sin(1.7 * t + 0.3)
        y = model.h(x, u, np.zeros(0)) + eta
        state = observer_step(state, u, y, model, cfgL)
        x = model.f_p(x, u, np.zeros(0))
        errs.append(np.linalg.norm(x - state.xhat))
    assert max(errs[300:]) < 3.0 * gain


def ekf_config(xhat0):
    return ObserverConfig(kind="ekf", xhat0=xhat0)


def test_ekf_exact_noiseless_linear(rng):
    sys = tracking_lti(rng)
    model = sys.to_system_model()
    x = rng.normal(size=2)
    w = rng.normal(size=1)
    truth = np.concatenate([x, w])
    state = ObserverState(xhat=truth.copy(), Sigma=100.0 * np.eye(3))
    cfgE = ekf_config(truth)
    for _ in range(30):
        u = rng.normal(size=1)
        y = model.h(x, u, w)
        state = observer_step(state, u, y, model, cfgE)
        x = model.f_p(x, u, w)
        w = model.s(w)
        assert np.allclose(state.xhat, np.concatenate([x, w]), atol=1e-9)


def test_ekf_covariance_stays_psd(rng):
    mill = cement_mill()
    state = make_observer_state(mill, ekf_config(np.array([100.0, 50, 400, 100, 400])))
    x = np.array([120.0, 55.0, 450.0])
    w = np.array([110.0, 425.0])
    for t in range(100):
        u = np.array([110.0, 170.0]) + rng.normal(size=2)
        y = mill.h(x, u, w) + rng.uniform(-1, 1, 2)
        state = observer_step(state, u, y, mill, ekf_config(state.xhat))
        S = state.Sigma
        assert np.allclose(S, S.T)
        lam = np.linalg.eigvalsh(S)[0]
        assert lam >= -1e-9 * np.linalg.norm(S)
        x = mill.f_p(x, u, w)


def test_ekf_converges_on_mill(rng):
    """Joint estimation error decays; the weakly observed disturbance
    directions make it slow (order 10 after hundreds of steps)."""
    mill = cement_mill()
    cfgE = ekf_config(np.array([100.0, 50.0, 400.0, 100.0, 400.0]))
    state = make_observer_state(mill, cfgE)
    x = np.array([120.0, 55.0, 450.0])
    w = np.array([110.0, 425.0])
    e0 = np.linalg.norm(np.concatenate([x, w]) - state.xhat)
    errs = []
    for t in range(1500):
        u = np.array([110.0, 172.0])
        y = mill.h(x, u, w)
        state = observer_step(state, u, y, mill, cfgE)
        x = mill.f_p(x, u, w)
        errs.append(np.linalg.norm(np.concatenate([x, w]) - state.xhat))
    assert errs[-1] < 0.25 * e0
    assert all(b <= a for a, b in zip(errs[200::100], errs[300::100]))


def test_joint_detectability_gate():
    # unobservable constant disturbance: P_y = 0 hides w from the output
    sys = LinearSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                       P_x=[[0.0]], P_y=[[0.0]], S=[[1.0]])
    with pytest.raises(DetectabilityError):
        check_joint_detectability(sys.to_system_model())
    # the same disturbance seen through the output is fine
    ok = LinearSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[0.0]],
                      P_x=[[0.0]], P_y=[[1.0]], S=[[1.0]])
    check_joint_detectability(ok.to_system_model())
