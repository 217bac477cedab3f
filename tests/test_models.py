import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import rk4_step_arrays
from regfree_mpc.errors import DomainError, NumericalError, ShapeError
from regfree_mpc.estimation import ObserverConfig
from regfree_mpc.linear_analysis import QuadraticCertificate, RegulatorSolution
from regfree_mpc.models import (MILL_DT, LinearSystem, SystemModel, _mill_ode, _recycle,
                                academic_example, cement_mill, cement_mill_regulator,
                                fd_jacobian, load_lti, mill_phi, rk4_discretize, rk4_step)
from regfree_mpc.mpc import MpcConfig
from regfree_mpc.simulation import ScenarioSpec


def test_rk4_identity_vector_field():
    model = rk4_discretize(lambda x, u, w: np.zeros(1), dt=1.0, n_p=1, m=0, q=0, p=1,
                           h=lambda x, u, w: x)
    out = model.f_p(np.array([3.0]), np.zeros(0), np.zeros(0))
    assert out == pytest.approx([3.0], abs=0.0)


def test_rk4_linear_decay_matches_truncated_exponential():
    model = rk4_discretize(lambda x, u, w: [-x[0]], dt=0.1, n_p=1, m=0, q=0, p=1,
                           h=lambda x, u, w: x)
    out = model.f_p(np.array([1.0]), np.zeros(0), np.zeros(0))
    # one RK4 step on x' = -x is the degree-4 Taylor polynomial of exp(-dt)
    expected = 1.0 - 0.1 + 0.1 ** 2 / 2 - 0.1 ** 3 / 6 + 0.1 ** 4 / 24
    assert out[0] == pytest.approx(expected, abs=1e-15)
    assert out[0] == pytest.approx(0.9048375, abs=1e-9)


def test_rk4_point_step_reads_nan_where_floats_turn_complex():
    """(-1.0) ** 0.5 is complex on Python floats and NaN on numpy arrays: the float step
    reads NaN, with no warning, and the plant step raises NumericalError."""
    model = rk4_discretize(lambda x, u, w: [-(x[0] ** 0.5)], dt=0.1, n_p=1, m=0, q=0, p=1,
                           h=lambda x, u, w: x)
    x, none = np.array([-1.0]), np.zeros(0)
    assert np.isnan(model.f_p(x, none, none)).all()
    with pytest.raises(NumericalError, match="non-finite state update"):
        model.step(x, none, none)


def test_rk4_rejects_nonpositive_dt():
    for dt in (0.0, np.nan, np.inf):
        with pytest.raises(DomainError):
            rk4_discretize(lambda x, u, w: x, dt=dt, n_p=1, m=0, q=0, p=1,
                           h=lambda x, u, w: x)


def test_rk4_order_on_mill_model():
    """Halving the step shrinks the one-step error by about 2^5."""
    mill = cement_mill()
    x0 = np.array([120.0, 55.0, 450.0])
    u = np.array([110.0, 170.0])
    w = np.array([110.0, 425.0])

    def one_step(dt):
        return rk4_step(_mill_ode, x0, u, w, dt)

    def reference(span, substeps=512):
        x = x0
        for _ in range(substeps):
            x = rk4_step(_mill_ode, x, u, w, span / substeps)
        return x

    # the fast mode makes the full sample step non-asymptotic; probe below it
    h = MILL_DT / 4.0
    e1 = np.linalg.norm(one_step(h) - reference(h))
    e2 = np.linalg.norm(one_step(h / 2.0) - reference(h / 2.0))
    assert 20.0 < e1 / e2 < 44.0


_MILL = cement_mill()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(x=st.tuples(st.floats(-500.0, 500.0), st.floats(-100.0, 300.0), st.floats(-1e3, 2e3)),
       u=st.tuples(st.floats(-100.0, 400.0),
                   st.one_of(st.floats(-100.0, 400.0), st.floats(-1e100, 1e100))))
@example(x=(110.0, -5.0, 425.0), u=(110.0, 170.0))       # phi clamps below x2 = 0
@example(x=(110.0, 160.0, 425.0), u=(110.0, 170.0))      # and above x2 = 147.8
@example(x=(110.0, 55.0, 425.0), u=(100.0, 1e100))       # u2 ** 4 overflows
def test_mill_point_step_is_bitwise_the_array_form_rk4(x, u):
    """The float point step gives, bit for bit, the RK4 step taken on float64 arrays,
    in and beyond the operating region and on inputs outside the box (NaN where it
    overflows)."""
    x, u, w = np.array(x), np.array(u), np.array([110.0, 425.0])
    want = rk4_step_arrays(_mill_ode, x, u, w, MILL_DT)
    assert np.array_equal(_MILL.f_p(x, u, w), want, equal_nan=True)


def test_rk4_substep_insensitivity():
    """One RK4 step per one-minute sample vs two half-steps: small deviation.

    The sampling recipe is one step per sample; this documents how far that
    sits from a refined integration on the operating region.
    """
    x0, u, w = np.array([115.0, 50.0, 430.0]), np.array([110.0, 170.0]), np.zeros(2)
    one = rk4_step(_mill_ode, x0, u, w, MILL_DT)
    two = rk4_step(_mill_ode, rk4_step(_mill_ode, x0, u, w, MILL_DT / 2), u, w, MILL_DT / 2)
    assert np.linalg.norm(one - two) < 5e-2 * np.linalg.norm(one)


def test_academic_dynamics_and_output():
    m = academic_example()
    w = np.zeros(0)
    assert m.f_p(np.array([2.0]), np.array([1.0]), w) == pytest.approx([2.0])
    assert m.h(np.array([1.0]), np.array([1.0]), w) == pytest.approx([0.0])
    assert m.h(np.array([1.0]), np.array([0.0]), w) == pytest.approx([1.0])
    assert (m.n_p, m.m, m.q, m.p) == (1, 1, 0, 1)
    assert np.all(np.isneginf(m.input_lo)) and np.all(np.isposinf(m.input_hi))


def test_mill_phi_values_and_clamp():
    assert mill_phi(50.0) == pytest.approx(546.0, abs=1e-12)
    assert mill_phi(0.0) == 0.0
    assert mill_phi(-5.0) == 0.0
    for x2 in np.linspace(-40.0, 200.0, 161):
        assert mill_phi(x2) >= 0.0


def test_mill_alpha_regression():
    a = _recycle(mill_phi(50.0), 170.0)
    assert 0.0 < a < 1.0
    # frozen after an independent evaluation of the recycle expression
    assert a == pytest.approx(0.7840925899157734, abs=1e-9)


def test_mill_dimensions_and_box():
    mill = cement_mill()
    assert (mill.n_p, mill.m, mill.q, mill.p) == (3, 2, 2, 2)
    assert mill.input_lo == pytest.approx([80.0, 165.0])
    assert mill.input_hi == pytest.approx([150.0, 180.0])
    w = np.array([107.0, 423.0])
    assert mill.s(w) == pytest.approx(w)
    for lo in (mill.input_hi + 1.0, np.array([np.nan, 165.0])):     # NaN passes "lo > hi"
        with pytest.raises(DomainError, match="lo <= hi"):
            dataclasses.replace(mill, input_lo=lo)
    with pytest.raises(DomainError, match="lo <= hi"):
        dataclasses.replace(mill, input_hi=np.array([150.0, np.nan]))
    for bound in ("input_lo", "input_hi"):
        with pytest.raises(ShapeError, match=f"^{bound} must have length 2, got 3$"):
            dataclasses.replace(mill, **{bound: np.zeros(3)})
    free = dataclasses.replace(mill, input_lo=np.full(2, -np.inf), input_hi=np.full(2, np.inf))
    assert np.isinf(free.input_lo).all() and np.isinf(free.input_hi).all()
    for model, bounds in ((mill, {"input_lo": [np.inf, 165.0], "input_hi": [np.inf, 180.0]}),
                          (mill, {"input_lo": [80.0, -np.inf], "input_hi": [150.0, -np.inf]}),
                          (academic_example(), {"input_lo": [np.inf], "input_hi": [np.inf]})):
        with pytest.raises(DomainError, match="lo < inf and hi > -inf"):
            dataclasses.replace(model, **bounds)


def test_mill_regulator_is_exact_fixed_point():
    mill = cement_mill()
    for w in ([110.0, 425.0], [100.0, 410.0], [120.0, 430.0], [104.0, 427.0]):
        w = np.asarray(w)
        x_ref, u_ref = cement_mill_regulator(w)
        assert u_ref[0] == w[0]
        assert np.all(u_ref > mill.input_lo) and np.all(u_ref < mill.input_hi)
        res = np.linalg.norm(mill.f_p(x_ref, u_ref, w) - x_ref)
        assert res < 1e-6
        assert np.linalg.norm(mill.h(x_ref, u_ref, w)) == 0.0


def test_mill_regulator_reference_point():
    x_ref, u_ref = cement_mill_regulator([110.0, 425.0])
    assert x_ref[0] == 110.0 and x_ref[2] == 425.0
    # x2 solves phi(x2) = w1 + w2 exactly on the rising branch
    assert mill_phi(x_ref[1]) == pytest.approx(535.0, abs=1e-9)
    assert x_ref[1] == pytest.approx(48.0218535, abs=1e-6)
    assert u_ref[1] == pytest.approx(173.3567691, abs=1e-6)


def test_mill_regulator_domain_error():
    """The peak check, and w1 > 0, w2 >= 0 tested so that NaN fails them: before, w1 = 0 gave
    u2 = inf and a negative or NaN reference gave u2 = NaN, each with a RuntimeWarning."""
    for w in ([400.0, 400.0], [0.0, 425.0], [-1.0, 425.0], [110.0, -1.0],
              [np.nan, 425.0], [110.0, np.nan]):
        with pytest.raises(DomainError):
            cement_mill_regulator(w)
    x_ref, u_ref = cement_mill_regulator([110.0, 0.0])     # w2 = 0 is a steady state
    assert u_ref[1] == 0.0 and np.isfinite(x_ref).all()


def test_model_maps_finite_on_samples(rng):
    mill = cement_mill()
    for _ in range(50):
        x = rng.uniform([50.0, 20.0, 300.0], [200.0, 90.0, 600.0])
        u = rng.uniform(mill.input_lo, mill.input_hi)
        w = rng.uniform([100.0, 410.0], [120.0, 430.0])
        assert np.all(np.isfinite(mill.f_p(x, u, w)))
        assert np.all(np.isfinite(mill.h(x, u, w)))
        assert np.all(np.isfinite(mill.s(w)))


def test_mill_jacobians_match_finite_differences(rng):
    mill = cement_mill()
    pts = []
    for _ in range(10):
        x = rng.uniform([90.0, 42.0, 380.0], [140.0, 60.0, 480.0])
        u = rng.uniform(mill.input_lo, mill.input_hi)
        w = np.array([110.0, 425.0])
        pts.append((x, u, w))
        Fx, Fu, Fw = mill.jacobians_f(x, u, w)
        eps = 1e-6
        for i in range(3):
            d = np.zeros(3); d[i] = eps * (1 + abs(x[i]))
            col = (mill.f_p(x + d, u, w) - mill.f_p(x - d, u, w)) / (2 * d[i])
            assert np.allclose(Fx[:, i], col, rtol=1e-5, atol=1e-7)
        for i in range(2):
            d = np.zeros(2); d[i] = eps * (1 + abs(u[i]))
            col = (mill.f_p(x, u + d, w) - mill.f_p(x, u - d, w)) / (2 * d[i])
            assert np.allclose(Fu[:, i], col, rtol=1e-5, atol=1e-7)
        assert np.allclose(Fw, 0.0)
    # a stack gives the per-point results bitwise, on the clamped branch phi = 0 too
    u, w = np.array([110.0, 170.0]), np.array([110.0, 425.0])
    pts += [(np.array([110.0, x2, 425.0]), u, w) for x2 in (-5.0, 0.0, 150.0, 160.0)]
    assert mill_phi(-5.0) == mill_phi(160.0) == 0.0
    assert_stack_matches_points(mill, pts)


def test_stacked_rk4_jacobian_of_a_coordinate_form_ode(rng):
    """Two 2-state coordinate-form odes that read w, with their three-block Jacobians: the
    stacked jacobians_f, chained through the stages as one (x, u, w) derivative on coordinate
    rows, match central differences of the float f_p in x, u and w.  The second has m = q = 2
    and no zero column in Gu or Gw, so swapped or misplaced u and w columns fail it."""
    def ode1(x, u, w):
        return [x[1], -x[0] - 0.5 * x[1] * (x[0] * x[0] - 1.0) + u[0] + w[0] * x[0]]

    def ode1_jac(x, u, w):
        x0, x1 = x.T
        A = np.zeros((len(x), 2, 2))
        A[:, 0, 1] = 1.0
        A[:, 1, 0] = -1.0 - x1 * x0 + w[:, 0]
        A[:, 1, 1] = -0.5 * (x0 * x0 - 1.0)
        Gw = np.zeros((len(x), 2, 1))
        Gw[:, 1, 0] = x0
        return A, np.broadcast_to([[0.0], [1.0]], (len(x), 2, 1)), Gw

    def ode2(x, u, w):
        return [x[1] + u[0] * x[0] + 2.0 * u[1] + w[1] * x[1] + 0.5 * w[0],
                -x[0] - 0.5 * x[1] * (x[0] * x[0] - 1.0) + u[0] - u[1] * x[1] + w[0] * x[0]
                + 3.0 * w[1]]

    def ode2_jac(x, u, w):
        (x0, x1), (u0, u1), (w0, w1) = x.T, u.T, w.T
        one = np.ones(len(x))
        return (np.moveaxis([[u0, 1.0 + w1], [-1.0 - x1 * x0 + w0, -0.5 * (x0 * x0 - 1.0) - u1]],
                            -1, 0),
                np.moveaxis([[x0, 2.0 * one], [one, -x1]], -1, 0),
                np.moveaxis([[0.5 * one, x1], [x0, 3.0 * one]], -1, 0))

    for ode, ode_jac, m, q in ((ode1, ode1_jac, 1, 1), (ode2, ode2_jac, 2, 2)):
        model = rk4_discretize(ode, dt=0.1, n_p=2, m=m, q=q, p=1,
                               h=lambda x, u, w: x[..., :1], ode_jac=ode_jac)
        X, U, W = rng.normal(size=(6, 2)), rng.normal(size=(6, m)), rng.normal(size=(6, q))
        Fx, Fu, Fw = model.jacobians_f(X, U, W)
        assert (Fx.shape, Fu.shape, Fw.shape) == ((6, 2, 2), (6, 2, m), (6, 2, q))
        for k, (x, u, w) in enumerate(zip(X, U, W)):
            np.testing.assert_allclose(Fx[k], fd_jacobian(lambda z: model.f_p(z, u, w), x),
                                       rtol=1e-7, atol=1e-9)
            np.testing.assert_allclose(Fu[k], fd_jacobian(lambda z: model.f_p(x, z, w), u),
                                       rtol=1e-7, atol=1e-9)
            np.testing.assert_allclose(Fw[k], fd_jacobian(lambda z: model.f_p(x, u, z), w),
                                       rtol=1e-7, atol=1e-9)
            assert np.abs(Fw[k]).max() > 1e-3
        if m == 2:
            assert np.abs(Fu).max(axis=1).min() > 1e-3 and np.abs(Fw).max(axis=1).min() > 1e-3


def assert_stack_matches_points(model, pts):
    X, U, W = (np.array(a) for a in zip(*pts))
    for method in (model.jacobians_f, model.jacobians_h):
        stacked = method(X, U, W)
        for J in stacked:
            assert J.shape[0] == len(pts)
        for k, (x, u, w) in enumerate(pts):
            for J, Jk in zip(stacked, method(x, u, w)):
                assert np.array_equal(J[k], Jk)


def test_finite_difference_jacobians_stack(rng):
    """Without jac_f/jac_h the central differences run per point inside the stacked call."""
    model = rk4_discretize(lambda x, u, w: np.array([-x[0] * x[1] + u[0], np.sin(x[0]) - w[0]]),
                           dt=0.1, n_p=2, m=1, q=1, p=1, h=lambda x, u, w: x[..., :1] * u + w)
    assert model.jac_f is None and model.jac_h is None
    pts = [(rng.normal(size=2), rng.normal(size=1), rng.normal(size=1)) for _ in range(5)]
    assert_stack_matches_points(model, pts)


@pytest.mark.parametrize("m, q", [(0, 1), (1, 0), (0, 0)])
def test_finite_difference_jacobians_of_empty_input_or_exosystem(m, q, rng):
    """One central-difference pass over the joint point (x, u, w) also serves m = 0 or q = 0."""
    A = np.array([[0.5, 0.1], [0.0, 0.8]])
    model = SystemModel(n_p=2, m=m, q=q, p=1,
                        f_p=lambda x, u, w: A @ x + u.sum() + 2.0 * w.sum(),
                        s=lambda w: -w, h=lambda x, u, w: x[..., :1] - 3.0 * u.sum(-1, keepdims=True))
    x, u, w = rng.normal(size=(4, 2)), rng.normal(size=(4, m)), rng.normal(size=(4, q))
    Fx, Fu, Fw = model.jacobians_f(x, u, w)
    Hx, Hu, Hw = model.jacobians_h(x[0], u[0], w[0])
    assert (Fx.shape, Fu.shape, Fw.shape) == ((4, 2, 2), (4, 2, m), (4, 2, q))
    assert (Hx.shape, Hu.shape, Hw.shape) == ((1, 2), (1, m), (1, q))
    np.testing.assert_allclose(Fx, np.broadcast_to(A, (4, 2, 2)), atol=1e-8)
    np.testing.assert_allclose(Fu, np.ones((4, 2, m)), atol=1e-8)
    np.testing.assert_allclose(Fw, np.full((4, 2, q), 2.0), atol=1e-8)
    np.testing.assert_allclose(Hx, [[1.0, 0.0]], atol=1e-8)
    np.testing.assert_allclose(Hu, np.full((1, m), -3.0), atol=1e-8)
    np.testing.assert_allclose(model.jacobian_s(w[0]), -np.eye(q), atol=1e-8)
    assert model.jacobian_s(w[0]).shape == (q, q)


def test_linear_system_roundtrip_through_file(tmp_path, rng):
    from conftest import random_linear, write_lti
    sys = random_linear(rng, n=3, m=2, q=2, T=4)
    path = tmp_path / "sys.txt"
    write_lti(sys, path)
    back = load_lti(path)
    for name in ("A", "B", "C", "D", "P_x", "P_y", "S"):
        assert np.array_equal(getattr(sys, name), getattr(back, name))


def test_lti_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 0 1\n1.0 2.0\n")
    with pytest.raises(ShapeError):
        load_lti(path)
    path.write_text("1 1\n")
    with pytest.raises(ShapeError, match="missing dimension header"):
        load_lti(path)
    for text in ("1 -1 1 1\n0.5 0.7 0.9\n", "-1 1 0 1\n"):
        path.write_text(text)
        with pytest.raises(ShapeError, match="dimension header .* has a negative entry"):
            load_lti(path)
    path.write_text("1.5 1 0 1\n0.5 1 1 0\n")
    with pytest.raises(ShapeError, match=r"bad\.txt: header token '1\.5' is not an integer$"):
        load_lti(path)
    path.write_text("1 1 0 1\nabc 1 1 0\n")
    with pytest.raises(DomainError, match=r"bad\.txt: matrix entry 'abc' is not a number$"):
        load_lti(path)
    path.write_bytes(b"1 1 0 1\n0.5 \xff 1 0\n")   # not UTF-8
    with pytest.raises(DomainError, match=r"bad\.txt: matrix entry '\ufffd' is not a number$"):
        load_lti(path)
    with pytest.raises(ShapeError, match="B has shape"):
        LinearSystem(A=np.eye(2), B=[[1.0]], C=[[1.0, 0.0]], D=[[0.0]],
                     P_x=np.zeros((2, 0)), P_y=np.zeros((1, 0)), S=np.zeros((0, 0)))


def test_linear_to_system_model_consistency(rng):
    from conftest import random_linear
    sys = random_linear(rng, n=2, m=1, q=2, T=2)
    model = sys.to_system_model()
    x = rng.normal(size=2); u = rng.normal(size=1); w = rng.normal(size=2)
    assert model.f_p(x, u, w) == pytest.approx(sys.A @ x + sys.B @ u + sys.P_x @ w)
    assert model.h(x, u, w) == pytest.approx(sys.C @ x + sys.D @ u - sys.P_y @ w)
    Fx, Fu, Fw = model.jacobians_f(x, u, w)
    assert np.array_equal(Fx, sys.A) and np.array_equal(Fu, sys.B) and np.array_equal(Fw, sys.P_x)
    X, U, W = rng.normal(size=(4, 2)), rng.normal(size=(4, 1)), rng.normal(size=(4, 2))
    for got, want in zip(model.jacobians_f(X, U, W) + model.jacobians_h(X, U, W),
                         (sys.A, sys.B, sys.P_x, sys.C, sys.D, -sys.P_y)):
        assert got.shape == (4,) + want.shape
        assert all(np.array_equal(G, want) for G in got)
    Y = model.h(X, U, W)
    assert Y.shape == (4, sys.p)
    for y, x, u, w in zip(Y, X, U, W):
        assert y == pytest.approx(sys.C @ x + sys.D @ u - sys.P_y @ w)


@pytest.mark.parametrize("make, arguments", [
    pytest.param(LinearSystem, lambda: dict(
        A=np.full((1, 1), 0.5), B=np.ones((1, 1)), C=np.ones((1, 1)), D=-np.ones((1, 1)),
        P_x=np.ones((1, 1)), P_y=np.ones((1, 1)), S=np.ones((1, 1))), id="LinearSystem"),
    pytest.param(MpcConfig, lambda: dict(variant="output_only", N=2, Q=np.eye(2),
                                         R=0.1 * np.eye(2)), id="MpcConfig"),
    pytest.param(lambda **box: dataclasses.replace(academic_example(), **box),
                 lambda: dict(input_lo=np.array([-1.0]), input_hi=np.array([1.0])),
                 id="SystemModel"),
    pytest.param(ObserverConfig, lambda: dict(kind="luenberger", xhat0=np.zeros(5),
                                              L=np.zeros((5, 2)), noise_lo=-np.ones(2),
                                              noise_hi=np.ones(2)), id="ObserverConfig"),
    pytest.param(ScenarioSpec, lambda: dict(
        model=cement_mill(), mpc=MpcConfig(variant="output_only", N=2, Q=np.eye(2), R=np.eye(2)),
        x0=np.array([120.0, 55.0, 450.0]), w0=np.array([110.0, 425.0]), steps=1,
        u_init=[115, 172]), id="ScenarioSpec"),
    pytest.param(RegulatorSolution, lambda: dict(Pi=np.ones((3, 2)), Gamma=np.ones((2, 2))),
                 id="RegulatorSolution"),
    pytest.param(QuadraticCertificate, lambda: dict(P=np.eye(2)), id="QuadraticCertificate")])
def test_every_record_keeps_private_read_only_copies(make, arguments):
    """Every array or list a library record is given is kept as its own read-only float array:
    an in-place write to it raises, and an edit of the caller's value after construction (a box
    bound raised above its upper bound, say) leaves the record as it was checked."""
    given = arguments()
    record = make(**given)
    for name, value in given.items():
        if not isinstance(value, (np.ndarray, list)):
            continue
        kept = getattr(record, name)
        before = kept.copy()
        assert kept.dtype == float and not kept.flags.writeable, name
        assert not np.shares_memory(kept, value), name
        value[0] = 5.0 if isinstance(value, list) else value[0] + 5.0
        assert np.array_equal(kept, before), name
        with pytest.raises(ValueError):
            kept[0] = 0.0
