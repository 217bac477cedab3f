import numpy as np
import pytest

from conftest import random_linear
from regfree_mpc.augmentation import (augment_linear, cyclic_matrices, memory_reference,
                                      step_memory, wrap_memory)
from regfree_mpc.errors import DomainError, ShapeError
from regfree_mpc.linear_analysis import solve_regulator
from regfree_mpc.models import academic_example
from regfree_mpc.mpc import MpcConfig, assemble, solve
from regfree_mpc.linear_analysis import RegulatorSolution


def test_cyclic_matrices_T1():
    E0, E1, E2 = cyclic_matrices(1, 1)
    assert np.array_equal(E0, [[1.0]])
    assert np.array_equal(E1, [[1.0]])
    assert np.array_equal(E2, [[1.0]])


def test_cyclic_matrices_T2_eigenvalues():
    E0, _, _ = cyclic_matrices(1, 2)
    assert np.array_equal(E0, [[0.0, 1.0], [1.0, 0.0]])
    assert sorted(np.linalg.eigvals(E0).real.tolist()) == pytest.approx([-1.0, 1.0])


def test_cyclic_matrices_T3_m2_roots_of_unity():
    E0, _, _ = cyclic_matrices(2, 3)
    got = np.sort_complex(np.linalg.eigvals(E0))
    want = np.sort_complex(np.repeat(np.exp(2j * np.pi * np.arange(3) / 3), 2))
    assert np.allclose(got, want, atol=1e-12)


def test_cyclic_identities():
    for m, T in ((1, 1), (2, 3), (3, 4)):
        E0, E1, E2 = cyclic_matrices(m, T)
        prod = np.eye(m * T)
        for _ in range(T):
            prod = E0 @ prod
        assert np.allclose(prod, np.eye(m * T))
        assert np.allclose(E1.T @ E0, E2.T)


def test_build_rejects_bad_period():
    with pytest.raises(DomainError):
        augment_linear(academic_example().linear, 0)


def test_memory_window_semantics():
    # history (a, b, c) newest first, apply d -> (d, a, b)
    xi = wrap_memory([np.array([1.0]), np.array([2.0]), np.array([3.0])])
    out = step_memory(xi, np.array([4.0]), m=1)
    assert np.array_equal(out, [4.0, 1.0, 2.0])


def test_memory_constant_input_zero_increment():
    _, _, E2 = cyclic_matrices(1, 1)
    xi = wrap_memory([np.array([0.7])])
    u = np.array([0.7])
    u_a = u - E2.T @ xi
    assert u_a == pytest.approx([0.0])
    assert np.array_equal(step_memory(xi, u, m=1), xi)


def test_memory_matrix_form_equals_window_form(rng):
    for _ in range(100):
        m = int(rng.integers(1, 4))
        T = int(rng.integers(1, 5))
        E0, E1, E2 = cyclic_matrices(m, T)
        xi = rng.normal(size=m * T)
        u = rng.normal(size=m)
        window = step_memory(xi, u, m)
        matrix = E0 @ xi + E1 @ (u - E2.T @ xi)
        assert np.allclose(window, matrix)


def test_memory_shape_errors():
    with pytest.raises(ShapeError):
        step_memory(np.zeros(3), np.zeros(1), m=2)
    with pytest.raises(ShapeError):
        step_memory(np.zeros(4), np.zeros(1), m=2)


def test_periodic_input_gives_zero_increment(rng):
    """For a T-periodic input stream, u^a = u_t - u_{t-T} vanishes past warm-up."""
    m, T = 2, 3
    _, _, E2 = cyclic_matrices(m, T)
    pattern = [rng.normal(size=m) for _ in range(T)]
    xi = wrap_memory([pattern[(T - 1 - j) % T] for j in range(T)])
    for t in range(12):
        u = pattern[t % T]
        u_a = u - E2.T @ xi
        assert np.allclose(u_a, 0.0, atol=1e-14)
        xi = step_memory(xi, u, m)


def test_augmented_dynamics_match_blocks(rng):
    """The augmented blocks act on [x; xi] as the plant plus the sliding window."""
    m = 2
    for T in (1, 2, 3):
        sys = random_linear(rng, n=3, m=m, q=2, T=2)
        lin = augment_linear(sys, T)
        x = rng.normal(size=3)
        xi = rng.normal(size=m * T)
        u_a = rng.normal(size=m)
        w = rng.normal(size=2)
        u = xi[-m:] + u_a                    # E2^T xi reads the oldest input
        xa = np.concatenate([x, xi])
        want = np.concatenate([sys.A @ x + sys.B @ u + sys.P_x @ w, step_memory(xi, u, m)])
        assert np.allclose(lin.A @ xa + lin.B @ u_a + lin.P_x @ w, want)
        assert np.allclose(lin.C @ xa + lin.D @ u_a - lin.P_y @ w,
                           sys.C @ x + sys.D @ u - sys.P_y @ w)


def test_augmented_regulator_is_zero_increment(rng):
    """pi_x^a = (Pi w, Gamma s^{T-1} w, ..., Gamma w) with pi_u^a = 0."""
    for T in (1, 2, 3):
        sys = random_linear(rng, n=3, m=2, q=2, T=T)
        reg = solve_regulator(sys)
        lin = augment_linear(sys, T)
        aug_reg = solve_regulator(lin)
        w = rng.normal(size=2)
        xi_ref = memory_reference(reg.pi_u, lambda v: sys.S @ v, w, T, sys.m)
        want = np.concatenate([reg.pi_x(w), xi_ref])
        assert np.allclose(aug_reg.pi_x(w), want, atol=1e-8)
        assert np.allclose(aug_reg.pi_u(w), 0.0, atol=1e-8)


def incremental_value(model, T, N, x0, w0, history):
    cfg = MpcConfig(variant="incremental_input", N=N, Q=np.eye(model.p),
                    R=np.eye(model.m), T=T)
    xi = wrap_memory(history[::-1])          # newest first
    ocp = assemble(model, cfg, x0, w0, memory=xi)
    return solve(ocp).value


def augmented_value(model, T, N, x0, w0, history):
    aug = augment_linear(model.linear, T).to_system_model()
    x0a = np.concatenate([x0, wrap_memory(history[::-1])])
    # stage cost ||y||_Q^2 + ||u^a||_R^2 is the input-regularized cost at zero
    zero_reg = RegulatorSolution(Pi=np.zeros((aug.n_p, model.q)),
                                 Gamma=np.zeros((model.m, model.q)))
    cfg = MpcConfig(variant="input_regularized", N=N, Q=np.eye(model.p),
                    R=np.eye(model.m))
    ocp = assemble(aug, cfg, x0a, w0, regulator=zero_reg)
    return solve(ocp).value


def test_incremental_equals_augmented_formulation(rng):
    """The two routes to the incremental OCP agree on random unconstrained LTIs."""
    for _ in range(25):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        T = int(rng.integers(1, 4))
        N = int(rng.integers(1, 6))
        sys = random_linear(rng, n=n, m=m, q=2, T=max(T, 1))
        model = sys.to_system_model()
        x0 = rng.normal(size=n)
        w0 = rng.normal(size=2)
        history = [rng.normal(size=m) for _ in range(T)]   # oldest first
        v1 = incremental_value(model, T, N, x0, w0, history)
        v2 = augmented_value(model, T, N, x0, w0, history)
        assert v1 == pytest.approx(v2, rel=1e-6, abs=1e-9)
