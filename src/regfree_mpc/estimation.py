"""State estimators over the joint state (x^p, w) for noisy error feedback.

Both observers are predictors: the estimate consumed by the controller at
time t incorporates measurements up to t-1.  One step maps (x_hat_t, u_t, y_t)
to x_hat_{t+1}, with y_hat_t = h(x_hat_t, u_t):
- Luenberger: x_hat_{t+1} = f(x_hat_t, u_t) + L (y_t - y_hat_t);
- EKF, measurement update then prediction:
  x_hat_{t+1} = f(x_hat_t + K_t (y_t - y_hat_t), u_t).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DetectabilityError, DomainError, NumericalError
from .models import SystemModel

Array = np.ndarray

# EKF covariances, fixed: initial Sigma0 = 100 I, unit process and measurement noise.
_SIGMA0_SCALE = 100.0


@dataclass(frozen=True)
class ObserverConfig:
    """The [observer] section: the estimator, and the additive noise on the outputs it
    reads, uniform on [noise_lo, noise_hi] when both bounds are given, else none."""

    kind: str                       # "luenberger" | "ekf"
    xhat0: Array
    L: Optional[Array] = None       # luenberger gain, n x p
    noise_lo: Optional[Array] = None
    noise_hi: Optional[Array] = None

    def __post_init__(self):
        if self.kind not in ("luenberger", "ekf"):
            raise ConfigError(f"unknown observer kind {self.kind!r}", key="kind")
        object.__setattr__(self, "xhat0", np.asarray(self.xhat0, dtype=float))
        if self.kind == "luenberger" and self.L is None:
            raise ConfigError("luenberger observer needs a gain L", key="kind")
        if self.kind == "ekf" and self.L is not None:
            raise ConfigError("'L' is read only by the luenberger observer, not by 'ekf'", key="L")
        if self.L is not None:
            object.__setattr__(self, "L", np.atleast_2d(np.asarray(self.L, dtype=float)))
        if (self.noise_lo is None) != (self.noise_hi is None):
            raise DomainError("uniform noise needs both bounds lo and hi",
                              key="noise_lo" if self.noise_hi is None else "noise_hi")
        if self.noise_lo is not None:
            lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in (self.noise_lo, self.noise_hi))
            if lo.shape != hi.shape or np.any(lo > hi):
                raise DomainError("noise bounds must satisfy lo <= hi componentwise",
                                  key="noise_hi")
            object.__setattr__(self, "noise_lo", lo)
            object.__setattr__(self, "noise_hi", hi)


@dataclass(frozen=True)
class ObserverState:
    xhat: Array
    Sigma: Optional[Array] = None


def joint_step(model: SystemModel, xj, u):
    """One step of the joint dynamics ((x,w) -> (f_p, s))."""
    n = model.n_p
    return np.concatenate([np.atleast_1d(model.step(xj[:n], u, xj[n:])),
                           np.atleast_1d(model.s(xj[n:]))])


def joint_output(model: SystemModel, xj, u):
    n = model.n_p
    return np.atleast_1d(model.h(xj[:n], u, xj[n:]))


def joint_state_jacobian(model: SystemModel, xhat, u):
    """F = [[Fx, Fw], [0, Sw]] of the joint dynamics."""
    n, q = model.n_p, model.q
    x_p, w = xhat[:n], xhat[n:]
    Fx, _, Fw = model.jacobians_f(x_p, u, w)
    F = np.zeros((n + q, n + q))
    F[:n, :n] = Fx
    F[:n, n:] = Fw
    F[n:, n:] = model.jacobian_s(w)
    return F


def joint_output_jacobian(model: SystemModel, xhat, u):
    """H = [Hx, Hw] of the joint output."""
    n = model.n_p
    Hx, _, Hw = model.jacobians_h(xhat[:n], u, xhat[n:])
    return np.hstack([Hx, Hw])


def check_joint_detectability(model: SystemModel):
    """For linear models, gate observer construction on joint PBH detectability."""
    if model.linear is None:
        return
    from .linear_analysis import pbh_detectable
    xj, u = np.zeros(model.n_p + model.q), np.zeros(model.m)
    if not pbh_detectable(joint_state_jacobian(model, xj, u), joint_output_jacobian(model, xj, u)):
        raise DetectabilityError("joint (plant, exosystem) pair is not detectable")


def observer_step(state: ObserverState, u_applied, y_measured,
                  model: SystemModel, config: ObserverConfig) -> ObserverState:
    """Advance the estimate with the input applied at t and the output measured at t."""
    y = np.atleast_1d(np.asarray(y_measured, dtype=float))
    if not np.all(np.isfinite(y)):
        raise NumericalError("non-finite measurement")
    u = np.asarray(u_applied, dtype=float)
    xhat = state.xhat
    if config.kind == "luenberger":
        innov = y - joint_output(model, xhat, u)
        xnext = joint_step(model, xhat, u) + config.L @ innov
        return ObserverState(xhat=xnext, Sigma=None)
    # EKF with the fixed covariances: Joseph measurement update, then predict
    Sigma = state.Sigma
    H = joint_output_jacobian(model, xhat, u)
    nj = xhat.size
    innov = y - joint_output(model, xhat, u)
    S = H @ Sigma @ H.T + np.eye(y.size)
    try:
        K = np.linalg.solve(S.T, (Sigma @ H.T).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular innovation covariance") from exc
    x_upd = xhat + K @ innov
    IKH = np.eye(nj) - K @ H
    Sigma_upd = IKH @ Sigma @ IKH.T + K @ K.T
    F_upd = joint_state_jacobian(model, x_upd, u)
    x_next = joint_step(model, x_upd, u)
    Sigma_next = F_upd @ Sigma_upd @ F_upd.T + np.eye(nj)
    Sigma_next = 0.5 * (Sigma_next + Sigma_next.T)
    return ObserverState(xhat=x_next, Sigma=Sigma_next)


def make_observer_state(model: SystemModel, config: ObserverConfig) -> ObserverState:
    check_joint_detectability(model)
    nj = model.n_p + model.q
    return ObserverState(xhat=config.xhat0.reshape(nj).copy(),
                         Sigma=_SIGMA0_SCALE * np.eye(nj) if config.kind == "ekf" else None)
