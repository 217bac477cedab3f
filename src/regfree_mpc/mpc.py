"""Finite-horizon OCP assembly and the receding-horizon control law.

All four stage-cost variants share a single-shooting parameterization in the
physical input sequence and one residual form, J(u) = ||r(u)||^2, written once
in `Ocp.residuals`.  Every model runs the same Gauss-Newton projected-descent
solver (two-metric projection with Armijo backtracking) that reports the
projected-gradient stationarity residual.  `Ocp.dense_matrices` builds the
residual of an exactly linear model in closed form, as an independent reference.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import ConfigError, DomainError, NumericalError
from .models import SystemModel

VARIANTS = ("input_regularized", "output_only", "look_ahead", "incremental_input")


@dataclass(frozen=True)
class SolverSettings:
    max_iterations: int = 200
    gradient_tolerance: float = 1e-8
    armijo_initial_step: float = 1.0
    armijo_shrink: float = 0.5
    armijo_slope: float = 1e-4
    warm_start: bool = True

    def __post_init__(self):
        if self.gradient_tolerance <= 0 or not (0 < self.armijo_shrink < 1):
            raise DomainError("solver tolerances must be positive, shrink in (0,1)")


@dataclass(frozen=True)
class MpcConfig:
    variant: str
    N: int
    Q: np.ndarray
    R: np.ndarray
    d: Optional[int] = None       # look_ahead
    T: Optional[int] = None       # incremental_input
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}")
        if self.N < 1:
            raise ConfigError("horizon N must be >= 1")
        Q = np.atleast_2d(np.asarray(self.Q, dtype=float))
        R = np.atleast_2d(np.asarray(self.R, dtype=float))
        for name, M in (("Q", Q), ("R", R)):
            if not np.allclose(M, M.T):
                raise ConfigError(f"{name} must be symmetric")
            if np.linalg.eigvalsh(M)[0] < -1e-12 * max(1.0, np.linalg.norm(M)):
                raise ConfigError(f"{name} must be positive semidefinite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if self.variant == "look_ahead" and (self.d is None or self.d < 0):
            raise ConfigError("look_ahead needs d >= 0")
        if self.variant == "incremental_input" and (self.T is None or self.T < 1):
            raise ConfigError("incremental_input needs T >= 1")


@dataclass(frozen=True)
class OcpSolution:
    u_opt: np.ndarray          # N x m
    x_pred: np.ndarray         # (N+1) x n
    value: float
    iterations: int
    converged: bool
    kkt_residual: float


class Ocp:
    """One horizon instance: frozen initial state, precomputed w trajectory."""

    def __init__(self, model: SystemModel, config: MpcConfig, x0, w0,
                 history=None, u_ref_traj=None):
        self.model = model
        self.config = config
        self.x0 = np.asarray(x0, dtype=float).reshape(model.n_p)
        self.N = config.N
        self.m = model.m
        # rollout horizon: look_ahead needs d+1 extra predicted outputs
        self.extra = (config.d + 1) if config.variant == "look_ahead" else 0
        self.H = self.N + self.extra
        w = np.asarray(w0, dtype=float).reshape(model.q)
        ws = [w]
        for _ in range(self.H):
            ws.append(np.asarray(model.s(ws[-1]), dtype=float))
        self.w_traj = ws
        if config.variant == "incremental_input":
            T = config.T
            if history is None:
                raise ConfigError("incremental_input needs the applied-input history")
            hist = [np.asarray(h, dtype=float).reshape(model.m) for h in history]
            if len(hist) != T:
                raise ConfigError(f"history must hold exactly T = {T} inputs")
            self.history = hist            # oldest first: u_{t-T}, ..., u_{t-1}
        else:
            self.history = None
        if config.variant == "input_regularized":
            if u_ref_traj is None:
                raise ConfigError("input_regularized needs the feedforward pi_u(w) along the horizon")
            self.u_ref = [np.asarray(v, dtype=float).reshape(model.m) for v in u_ref_traj]
            if len(self.u_ref) < self.N:
                raise ConfigError("feedforward trajectory shorter than the horizon")
        else:
            self.u_ref = None
        self.lo = model.input_lo
        self.hi = model.input_hi
        self._sw = np.sqrt(self._output_weights())
        self._Qh = _psd_sqrt(config.Q)
        # input penalty E vec(u) - c: one R^1/2-weighted m-block per decision
        N, m, Rh = self.N, self.m, _psd_sqrt(config.R)
        if config.variant == "input_regularized":
            self.E = np.kron(np.eye(N), Rh)
            self.c = np.concatenate([Rh @ v for v in self.u_ref[:N]])
        elif config.variant == "incremental_input":
            # u_k - u_{k-T}, with u_{k-T} from the history while k < T
            self.E = np.kron(np.eye(N) - np.eye(N, k=-config.T), Rh)
            self.c = np.concatenate([Rh @ self.history[k] if k < config.T else np.zeros(m)
                                     for k in range(N)])
        else:
            self.E, self.c = np.zeros((0, N * m)), np.zeros(0)

    # -- residual form -----------------------------------------------------

    def _extended_input(self, useq, j):
        return useq[j] if j < self.N else useq[self.N - 1]

    def rollout(self, useq):
        xs = [self.x0]
        for j in range(self.H):
            xs.append(self.model.step(xs[-1], self._extended_input(useq, j), self.w_traj[j]))
        return xs

    def outputs(self, useq, xs):
        return [np.atleast_1d(self.model.h(xs[j], self._extended_input(useq, j), self.w_traj[j]))
                for j in range(self.H)]

    def residuals(self, useq, xs=None, jac=True):
        """Stacked residual r(u) with J(u) = r @ r, its Jacobian J_r and the rollout.

        r holds sqrt(w_k) Q^1/2 y_k for every output with weight w_k > 0
        (look_ahead counts the overlap of its two windows twice), then the
        variant's input penalty E vec(u) - c.  J_r comes from one forward
        pass over the sensitivity S = dx_k/dvec(u); it is None unless jac.
        """
        useq = np.asarray(useq, dtype=float).reshape(self.N, self.m)
        if xs is None:
            xs = self.rollout(useq)
        ys = self.outputs(useq, xs)
        r = np.concatenate([w * (self._Qh @ y) for w, y in zip(self._sw, ys) if w > 0.0]
                           + [self.E @ useq.ravel() - self.c])
        if not jac:
            return r, None, xs
        N, m = self.N, self.m
        S = np.zeros((self.model.n_p, N * m))
        rows = []
        for k in range(self.H):
            j = min(k, N - 1)
            blk = slice(j * m, (j + 1) * m)
            if self._sw[k] > 0.0:
                Hx, Hu, _ = self.model.jacobians_h(xs[k], useq[j], self.w_traj[k])
                row = Hx @ S
                row[:, blk] += Hu
                rows.append(self._sw[k] * (self._Qh @ row))
            if k + 1 < self.H:
                Fx, Fu, _ = self.model.jacobians_f(xs[k], useq[j], self.w_traj[k])
                S = Fx @ S
                S[:, blk] += Fu
        return r, np.vstack(rows + [self.E]), xs

    def cost(self, useq, xs=None):
        r, _, xs = self.residuals(useq, xs, jac=False)
        J = float(r @ r)
        if not np.isfinite(J):
            raise NumericalError("non-finite OCP cost")
        return J, xs

    def gradient(self, useq, xs=None):
        """Exact cost gradient 2 J_r^T r."""
        r, Jr, _ = self.residuals(useq, xs)
        return (2.0 * Jr.T @ r).reshape(self.N, self.m)

    def _output_weights(self):
        """Per-rollout-step output weight: look_ahead counts tail outputs twice."""
        wts = np.zeros(self.H)
        wts[:self.N] += 1.0
        if self.config.variant == "look_ahead":
            d = self.config.d
            for k in range(self.N):
                wts[k + d + 1] += 1.0
        return wts

    # -- closed-form reference for linear models ---------------------------

    def dense_matrices(self):
        """Stacked residual system: r(u) = Aml @ vec(u) - bml with J = ||r||^2."""
        lin = self.model.linear
        if lin is None:
            raise NumericalError("dense path requires an exactly linear model")
        N, m, H = self.N, self.m, self.H
        n = self.model.n_p
        Q, R = self.config.Q, self.config.R
        Qh = _psd_sqrt(Q)
        Rh = _psd_sqrt(R)
        wts = self._output_weights()
        rows, rhs = [], []
        # x_k = A^k x0 + sum_j A^{k-1-j} (B u_j + P_x w_j)
        const = self.x0.copy()
        Sx = [np.zeros((n, N * m))]
        consts = [const]
        for k in range(H):
            Sk = lin.A @ Sx[-1]
            jdec = min(k, N - 1)
            Sk[:, jdec * m:(jdec + 1) * m] += lin.B
            consts.append(lin.A @ consts[-1] + lin.P_x @ self.w_traj[k])
            Sx.append(Sk)
        for k in range(H):
            if wts[k] == 0.0:
                continue
            jdec = min(k, N - 1)
            row = lin.C @ Sx[k]
            row[:, jdec * m:(jdec + 1) * m] += lin.D
            cst = lin.C @ consts[k] - lin.P_y @ self.w_traj[k]
            rows.append(np.sqrt(wts[k]) * (Qh @ row))
            rhs.append(-np.sqrt(wts[k]) * (Qh @ cst))
        v = self.config.variant
        if v == "input_regularized":
            for k in range(N):
                row = np.zeros((m, N * m))
                row[:, k * m:(k + 1) * m] = np.eye(m)
                rows.append(Rh @ row)
                rhs.append(Rh @ self.u_ref[k])
        elif v == "incremental_input":
            T = self.config.T
            for k in range(N):
                row = np.zeros((m, N * m))
                row[:, k * m:(k + 1) * m] = np.eye(m)
                cst = np.zeros(m)
                if k - T >= 0:
                    row[:, (k - T) * m:(k - T + 1) * m] -= np.eye(m)
                else:
                    cst = self.history[k]
                rows.append(Rh @ row)
                rhs.append(Rh @ cst)
        return np.vstack(rows), np.concatenate(rhs)


def _psd_sqrt(M):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    w, V = np.linalg.eigh(M)
    return V @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ V.T


def assemble(model, config, current_state, current_w, memory=None, regulator=None) -> Ocp:
    """Build one OCP instance; the w trajectory is predicted up front."""
    history = None
    if config.variant == "incremental_input":
        if memory is None:
            raise ConfigError("incremental_input needs the memory of applied inputs")
        xi = np.asarray(memory, dtype=float)
        T, m = config.T, model.m
        # memory is newest-first; the OCP wants history oldest-first
        history = [xi[(T - 1 - j) * m:(T - j) * m] for j in range(T)]
    u_ref_traj = None
    if config.variant == "input_regularized":
        if regulator is None:
            raise ConfigError("input_regularized needs a regulator solution for pi_u")
        w = np.asarray(current_w, dtype=float)
        u_ref_traj = []
        for _ in range(config.N):
            u_ref_traj.append(np.atleast_1d(regulator.pi_u(w)))
            w = np.asarray(model.s(w), dtype=float)
    return Ocp(model, config, current_state, current_w, history=history, u_ref_traj=u_ref_traj)


# ---------------------------------------------------------------------------
# solver

def _stationarity(u, g, lo, hi):
    return float(np.max(np.abs(u - np.clip(u - g, lo, hi)))) if u.size else 0.0


def solve(ocp: Ocp, warm_start=None) -> OcpSolution:
    """Minimize the OCP over the input box.

    Linear and nonlinear models take the same Gauss-Newton projected-descent
    path from the (box-projected) warm start: g = 2 J_r^T r, H = 2 J_r^T J_r,
    Armijo backtracking on J = r @ r.  Stationarity may stop the iteration
    only after the first step, so an unconstrained linear OCP returns its
    exact minimiser; `converged` is judged at the returned iterate.
    """
    settings = ocp.config.solver
    N, m = ocp.N, ocp.m
    lo = np.tile(ocp.lo, N)
    hi = np.tile(ocp.hi, N)

    if warm_start is None:
        if ocp.model.constrained:
            mid = np.where(np.isfinite(ocp.lo) & np.isfinite(ocp.hi),
                           0.5 * (ocp.lo + ocp.hi), 0.0)
            u0 = np.tile(mid, (N, 1))
        else:
            u0 = np.zeros((N, m))
    else:
        u0 = np.asarray(warm_start, dtype=float).reshape(N, m)

    u = np.clip(u0.ravel(), lo, hi)
    r, Jr, xs = ocp.residuals(u)
    J = float(r @ r)
    if not np.isfinite(J):
        raise NumericalError("OCP cost not finite at the initial iterate")
    it = 0
    while True:
        g = 2.0 * Jr.T @ r
        stat = _stationarity(u, g, lo, hi)
        if (it > 0 and stat <= settings.gradient_tolerance) or it >= settings.max_iterations:
            break
        d = _projected_newton_direction(u, g, 2.0 * Jr.T @ Jr, lo, hi)
        t = settings.armijo_initial_step
        for _ in range(60):
            un = np.clip(u + t * d, lo, hi)
            Jn, xsn = ocp.cost(un)
            dec = float(g @ (u - un))
            if Jn <= J - settings.armijo_slope * dec and Jn <= J + 1e-14 * max(1.0, abs(J)):
                break
            t *= settings.armijo_shrink
        else:
            break
        if np.max(np.abs(un - u)) < 1e-16 * max(1.0, np.max(np.abs(u))):
            break
        u, J = un, Jn
        r, Jr, xs = ocp.residuals(u, xsn)
        it += 1
    return OcpSolution(u_opt=u.reshape(N, m), x_pred=np.array(xs[:N + 1]), value=J,
                       iterations=it, converged=bool(stat <= settings.gradient_tolerance),
                       kkt_residual=stat)


def _projected_newton_direction(u, g, H, lo, hi):
    """Two-metric projection: Newton on the free set, gradient on the active set."""
    eps_a = min(1e-6, max(1e-12, _stationarity(u, g, lo, hi)))
    at_lo = (u - lo <= eps_a) & (g > 0)
    at_hi = (hi - u <= eps_a) & (g < 0)
    act = at_lo | at_hi
    free = ~act
    d = np.zeros_like(u)
    if free.any():
        Hff = H[np.ix_(free, free)]
        gf = g[free]
        lam = 0.0
        trace = max(1.0, float(np.trace(Hff)) / Hff.shape[0])
        for _ in range(12):
            try:
                L = np.linalg.cholesky(Hff + lam * np.eye(Hff.shape[0]))
                df = -np.linalg.solve(Hff + lam * np.eye(Hff.shape[0]), gf)
                if df @ gf < 0.0:
                    d[free] = df
                    break
                lam = max(10.0 * lam, 1e-10 * trace)
            except np.linalg.LinAlgError:
                lam = max(10.0 * lam, 1e-10 * trace)
        else:
            d[free] = -gf
    d[act] = -g[act]
    return d


# ---------------------------------------------------------------------------
# receding-horizon controller

@dataclass
class StepDiagnostics:
    value: float
    iterations: int
    converged: bool
    kkt_residual: float
    failed: bool = False


class MpcController:
    """Receding-horizon loop state: warm start and, if incremental, the memory."""

    def __init__(self, model, config, regulator=None, initial_memory=None,
                 initial_input=None):
        self.model = model
        self.config = config
        self.regulator = regulator
        self._warm = None
        self._last_u = None
        if initial_input is not None:
            self._last_u = model.clip_input(np.asarray(initial_input, dtype=float))
        if config.variant == "incremental_input":
            if initial_memory is not None:
                self.memory = np.asarray(initial_memory, dtype=float).copy()
            else:
                seed = self._cold_input()
                self.memory = np.tile(seed, config.T)
        else:
            self.memory = None

    def _cold_input(self):
        if self._last_u is not None:
            return self._last_u
        if self.model.constrained:
            return np.where(np.isfinite(self.model.input_lo) & np.isfinite(self.model.input_hi),
                            0.5 * (self.model.input_lo + self.model.input_hi), 0.0)
        return np.zeros(self.model.m)

    def step(self, x_p, w):
        """Solve from the measured or estimated state and apply the first input."""
        ocp = assemble(self.model, self.config, x_p, w,
                       memory=self.memory, regulator=self.regulator)
        warm = self._warm if self.config.solver.warm_start else None
        if warm is None:
            warm = np.tile(self._cold_input(), (self.config.N, 1))
        try:
            sol = solve(ocp, warm_start=warm)
            u = sol.u_opt[0].copy()
            diag = StepDiagnostics(value=sol.value, iterations=sol.iterations,
                                   converged=sol.converged, kkt_residual=sol.kkt_residual)
            self._warm = np.vstack([sol.u_opt[1:], sol.u_opt[-1:]])
        except NumericalError:
            # fail-operational: repeat the last feasible input
            u = self._cold_input()
            diag = StepDiagnostics(value=float("nan"), iterations=0, converged=False,
                                   kkt_residual=float("nan"), failed=True)
        self._last_u = u
        if self.memory is not None:
            from .augmentation import step_memory
            self.memory = step_memory(self.memory, u, self.model.m)
        return u, diag
