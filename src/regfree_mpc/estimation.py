"""State estimators over the joint state (x^p, w) for noisy error feedback.

Both observers follow the predictor form: the estimate consumed by the
controller at time t incorporates measurements up to t-1, and one step maps
(x_hat_t, u_t, y_t) to x_hat_{t+1} = f(x_hat_t, u_t) + L_t (y_t - y_hat_t).
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConfigError, DetectabilityError, NumericalError
from .models import SystemModel

Array = np.ndarray


@dataclass(frozen=True)
class ObserverConfig:
    kind: str                       # "luenberger" | "ekf"
    xhat0: Array
    L: Optional[Array] = None       # luenberger gain, n x p
    Sigma0: Optional[Array] = None
    Qproc: Optional[Array] = None
    Rmeas: Optional[Array] = None

    def __post_init__(self):
        if self.kind not in ("luenberger", "ekf"):
            raise ConfigError(f"unknown observer kind {self.kind!r}")
        object.__setattr__(self, "xhat0", np.asarray(self.xhat0, dtype=float))
        if self.kind == "luenberger" and self.L is None:
            raise ConfigError("luenberger observer needs a gain L")
        for name in ("L", "Sigma0", "Qproc", "Rmeas"):
            v = getattr(self, name)
            if v is not None:
                object.__setattr__(self, name, np.atleast_2d(np.asarray(v, dtype=float)))
        for name in ("Sigma0", "Qproc"):
            M = getattr(self, name)
            if M is not None and np.linalg.eigvalsh(0.5 * (M + M.T))[0] < -1e-9 * max(1.0, np.linalg.norm(M)):
                raise ConfigError(f"{name} must be positive semidefinite")
        if self.Rmeas is not None and np.linalg.eigvalsh(0.5 * (self.Rmeas + self.Rmeas.T))[0] <= 0.0:
            raise ConfigError("Rmeas must be positive definite")


@dataclass(frozen=True)
class ObserverState:
    xhat: Array
    Sigma: Optional[Array] = None


def joint_step(model: SystemModel, xj, u):
    """One step of the joint dynamics ((x,w) -> (f_p, s))."""
    n = model.n_p
    return np.concatenate([np.atleast_1d(model.f_p(xj[:n], u, xj[n:])),
                           np.atleast_1d(model.s(xj[n:]))])


def joint_output(model: SystemModel, xj, u):
    n = model.n_p
    return np.atleast_1d(model.h(xj[:n], u, xj[n:]))


def ekf_jacobians(model: SystemModel, xhat, u):
    """Joint linearization: F = [[Fx, Fw], [0, Sw]], H = [Hx, Hw]."""
    xhat = np.asarray(xhat, dtype=float)
    n, q = model.n_p, model.q
    x_p, w = xhat[:n], xhat[n:]
    Fx, _, Fw = model.jacobians_f(x_p, u, w)
    Sw = model.jacobian_s(w)
    Hx, _, Hw = model.jacobians_h(x_p, u, w)
    F = np.zeros((n + q, n + q))
    F[:n, :n] = Fx
    F[:n, n:] = Fw
    F[n:, n:] = Sw
    H = np.hstack([Hx, Hw])
    return F, H


def check_joint_detectability(model: SystemModel):
    """For linear models, gate observer construction on joint PBH detectability."""
    if model.linear is None:
        return True
    from .linear_analysis import pbh_detectable
    F, H = ekf_jacobians(model, np.zeros(model.n_p + model.q), np.zeros(model.m))
    if not pbh_detectable(F, H):
        raise DetectabilityError("joint (plant, exosystem) pair is not detectable")
    return True


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
    # EKF: measurement update with Joseph covariance, then predict
    Sigma = state.Sigma
    F, H = ekf_jacobians(model, xhat, u)
    nj = xhat.size
    R = config.Rmeas if config.Rmeas is not None else np.eye(y.size)
    Qp = config.Qproc if config.Qproc is not None else np.eye(nj)
    innov = y - joint_output(model, xhat, u)
    S = H @ Sigma @ H.T + R
    try:
        K = np.linalg.solve(S.T, (Sigma @ H.T).T).T
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular innovation covariance") from exc
    x_upd = xhat + K @ innov
    IKH = np.eye(nj) - K @ H
    Sigma_upd = IKH @ Sigma @ IKH.T + K @ R @ K.T
    F_upd, _ = ekf_jacobians(model, x_upd, u)
    x_next = joint_step(model, x_upd, u)
    Sigma_next = F_upd @ Sigma_upd @ F_upd.T + Qp
    Sigma_next = 0.5 * (Sigma_next + Sigma_next.T)
    return ObserverState(xhat=x_next, Sigma=Sigma_next)


def make_observer_state(model: SystemModel, config: ObserverConfig) -> ObserverState:
    check_joint_detectability(model)
    nj = model.n_p + model.q
    xhat0 = config.xhat0.reshape(nj)
    if config.kind == "ekf":
        Sigma0 = config.Sigma0 if config.Sigma0 is not None else 100.0 * np.eye(nj)
        return ObserverState(xhat=xhat0.copy(), Sigma=Sigma0.copy())
    return ObserverState(xhat=xhat0.copy(), Sigma=None)
