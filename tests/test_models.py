import numpy as np
import pytest

from regfree_mpc.errors import DomainError, ShapeError
from regfree_mpc.models import (MILL_DT, MILL_SCALE, academic_example, cement_mill,
                                cement_mill_regulator, dump_lti, load_lti,
                                mill_alpha, mill_phi, rk4_discretize, rk4_step)


def test_rk4_identity_vector_field():
    model = rk4_discretize(lambda x, u, w: np.zeros(1), dt=1.0, n_p=1, m=0, q=0, p=1,
                           h=lambda x, u, w: x)
    out = model.f_p(np.array([3.0]), np.zeros(0), np.zeros(0))
    assert out == pytest.approx([3.0], abs=0.0)


def test_rk4_linear_decay_matches_truncated_exponential():
    model = rk4_discretize(lambda x, u, w: -x, dt=0.1, n_p=1, m=0, q=0, p=1,
                           h=lambda x, u, w: x)
    out = model.f_p(np.array([1.0]), np.zeros(0), np.zeros(0))
    # one RK4 step on x' = -x is the degree-4 Taylor polynomial of exp(-dt)
    expected = 1.0 - 0.1 + 0.1 ** 2 / 2 - 0.1 ** 3 / 6 + 0.1 ** 4 / 24
    assert out[0] == pytest.approx(expected, abs=1e-15)
    assert out[0] == pytest.approx(0.9048375, abs=1e-9)


def test_rk4_rejects_nonpositive_dt():
    with pytest.raises(DomainError):
        rk4_discretize(lambda x, u, w: x, dt=0.0, n_p=1, m=0, q=0, p=1,
                       h=lambda x, u, w: x)


def test_rk4_order_on_mill_model():
    """Halving the step shrinks the one-step error by about 2^5."""
    mill = cement_mill()
    x0 = np.array([120.0, 55.0, 450.0])
    u = np.array([110.0, 170.0])
    w = np.array([110.0, 425.0])

    def one_step(dt):
        from regfree_mpc.models import _mill_ode
        scaled = lambda x, uu, ww: _mill_ode(x, uu, ww) / MILL_SCALE
        return rk4_step(scaled, x0, u, w, dt)

    def reference(span, substeps=512):
        from regfree_mpc.models import _mill_ode
        scaled = lambda x, uu, ww: _mill_ode(x, uu, ww) / MILL_SCALE
        x = x0
        for _ in range(substeps):
            x = rk4_step(scaled, x, u, w, span / substeps)
        return x

    # the fast mode makes the full sample step non-asymptotic; probe below it
    h = MILL_DT / 4.0
    e1 = np.linalg.norm(one_step(h) - reference(h))
    e2 = np.linalg.norm(one_step(h / 2.0) - reference(h / 2.0))
    assert 20.0 < e1 / e2 < 44.0


def test_rk4_substep_insensitivity():
    """One RK4 step per one-minute sample vs two half-steps: small deviation.

    The sampling recipe is one step per sample; this documents how far that
    sits from a refined integration on the operating region.
    """
    from regfree_mpc.models import _mill_ode
    scaled = lambda x, u, w: _mill_ode(x, u, w) / MILL_SCALE
    x0, u, w = np.array([115.0, 50.0, 430.0]), np.array([110.0, 170.0]), np.zeros(2)
    one = rk4_step(scaled, x0, u, w, MILL_DT)
    two = rk4_step(scaled, rk4_step(scaled, x0, u, w, MILL_DT / 2), u, w, MILL_DT / 2)
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
    a = mill_alpha(50.0, 170.0)
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
    with pytest.raises(DomainError):
        cement_mill_regulator([400.0, 400.0])


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
    for _ in range(10):
        x = rng.uniform([90.0, 42.0, 380.0], [140.0, 60.0, 480.0])
        u = rng.uniform(mill.input_lo, mill.input_hi)
        w = np.array([110.0, 425.0])
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


def test_linear_system_roundtrip_through_file(tmp_path, rng):
    from conftest import random_linear
    sys = random_linear(rng, n=3, m=2, q=2, T=4)
    path = tmp_path / "sys.txt"
    dump_lti(sys, path)
    back = load_lti(path)
    for name in ("A", "B", "C", "D", "P_x", "P_y", "S"):
        assert np.array_equal(getattr(sys, name), getattr(back, name))


def test_lti_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2 1 0 1\n1.0 2.0\n")
    with pytest.raises(ShapeError):
        load_lti(path)


def test_linear_to_system_model_consistency(rng):
    from conftest import random_linear
    sys = random_linear(rng, n=2, m=1, q=2, T=2)
    model = sys.to_system_model()
    x = rng.normal(size=2); u = rng.normal(size=1); w = rng.normal(size=2)
    assert model.f_p(x, u, w) == pytest.approx(sys.A @ x + sys.B @ u + sys.P_x @ w)
    assert model.h(x, u, w) == pytest.approx(sys.C @ x + sys.D @ u - sys.P_y @ w)
    Fx, Fu, Fw = model.jacobians_f(x, u, w)
    assert np.array_equal(Fx, sys.A) and np.array_equal(Fu, sys.B) and np.array_equal(Fw, sys.P_x)
