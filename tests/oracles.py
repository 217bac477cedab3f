"""Reference computations that back the acceptance tests.

The i-IOSS certificate, the classical regulator feedback baseline, cold-start
value series, the per-step decrease margins of the paper's Lyapunov
argument and an array-form RK4 step.  Only tests use them, so they live
beside the tests.
"""

import numpy as np
from scipy import linalg as sla

from regfree_mpc.errors import DetectabilityError, DomainError
from regfree_mpc.linear_analysis import (QuadraticCertificate, RegulatorSolution, dare,
                                         pbh_detectable)
from regfree_mpc.models import LinearSystem
from regfree_mpc.mpc import assemble, solve


def linear_ioss_certificate(A, C, B=None, D=None):
    """Quadratic i-IOSS certificate for a detectable pair.

    Output injection L from the dual (filter) Riccati equation; P solves a
    scaled Lyapunov equation so that (A-LC)' P (A-LC) <= rho_tilde P, and the
    constants make V(e) = ||e||_P^2 satisfy the incremental dissipation
    inequality with inputs ||u-v||^2 and ||dy||^2.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    p = C.shape[0]
    B = np.zeros((n, 1)) if B is None else np.atleast_2d(np.asarray(B, dtype=float))
    D = np.zeros((p, B.shape[1])) if D is None else np.atleast_2d(np.asarray(D, dtype=float))
    if not pbh_detectable(A, C):
        raise DetectabilityError("(A, C) is not detectable")
    # dual Riccati: error covariance with unit noise weights
    Sigma = dare(A.T, C.T, np.eye(n), np.eye(p)).P
    L = A @ Sigma @ C.T @ np.linalg.inv(C @ Sigma @ C.T + np.eye(p))
    A_L = A - L @ C
    rho = float(max(abs(np.linalg.eigvals(A_L)))) ** 2 if n else 0.0
    rho_t = rho + 0.05 * (1.0 - rho)
    P = sla.solve_discrete_lyapunov((A_L / np.sqrt(rho_t)).T, np.eye(n))
    P = 0.5 * (P + P.T)
    eps = min(1.0, (1.0 - rho_t) / (2.0 * rho_t))
    rho_o = (1.0 + eps) * rho_t
    boost = 2.0 * (1.0 + 1.0 / eps)
    c_o2 = boost * float(np.linalg.eigvalsh(L.T @ P @ L)[-1])
    BLD = B - L @ D
    c_o1 = boost * float(np.linalg.eigvalsh(BLD.T @ P @ BLD)[-1])
    return QuadraticCertificate(P=P), rho_o, c_o1, c_o2


class RegulatorFeedback:
    """u = pi_u(w) + K (x - pi_x(w)): the classical trajectory-stabilizing baseline,
    with the regulator map w -> (pi_x(w), pi_u(w))."""

    def __init__(self, regulator, K):
        self.regulator = regulator
        self.K = np.atleast_2d(np.asarray(K, dtype=float))

    def __call__(self, x_p, w):
        x_ref, u_ref = self.regulator(w)
        x_p = np.asarray(x_p, dtype=float)
        return np.atleast_1d(u_ref) + self.K @ (x_p - np.atleast_1d(x_ref))


def classical_regulator_feedback(sys: LinearSystem, reg: RegulatorSolution, K):
    """Linear instantiation u = Gamma w + K (x - Pi w); K must make A + BK Schur."""
    K = np.atleast_2d(np.asarray(K, dtype=float))
    rho = float(max(abs(np.linalg.eigvals(sys.A + sys.B @ K))))
    if rho >= 1.0:
        raise DomainError(f"A + BK has spectral radius {rho:.6f} >= 1")
    return RegulatorFeedback(reg, K)


def value_series(model, config, states, ws, memories=None, regulator=None):
    """Cold-start optimal values V_N at the given states (no warm-start bias)."""
    out = np.zeros(len(states))
    for i, (x, w) in enumerate(zip(states, ws)):
        mem = memories[i] if memories is not None else None
        ocp = assemble(model, config, x, w, memory=mem, regulator=regulator)
        out[i] = solve(ocp).value
    return out


def decrease_check(values, sigma_series, alpha_ref, eps_o):
    """Per-step margins V(x_{t+1}) - V(x_t) + alpha_ref * eps_o * sigma(x_t)."""
    values = np.asarray(values, dtype=float)
    sigma_series = np.asarray(sigma_series, dtype=float)
    margins = values[1:] - values[:-1] + alpha_ref * eps_o * sigma_series[:-1]
    return margins


def rk4_step_arrays(ode, x, u, w, dt):
    """One classical RK4 step with every stage a numpy float64 array.

    The reference for the float point step of `models.rk4_step`: the same
    operation order, with `ode`'s coordinates collected into an array.
    """
    def k(xs):
        return np.array(ode(xs, u, w), dtype=float)

    x = np.asarray(x, dtype=float)
    with np.errstate(all="ignore"):     # an overflow reads inf or NaN
        k1 = k(x)
        k2 = k(x + 0.5 * dt * k1)
        k3 = k(x + 0.5 * dt * k2)
        k4 = k(x + dt * k3)
        return x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
