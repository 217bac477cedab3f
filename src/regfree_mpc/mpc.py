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

from .blas import one_blas_thread
from .errors import ConfigError, DomainError, NumericalError
from .models import SystemModel

VARIANTS = ("input_regularized", "output_only", "look_ahead", "incremental_input")

_MAX_ITERATIONS = 200
_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4


@dataclass(frozen=True)
class SolverSettings:
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        if self.gradient_tolerance <= 0:
            raise DomainError("gradient_tolerance must be positive")


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
    """One horizon instance: frozen initial state, precomputed w trajectory.

    incremental_input needs the newest-first input `memory`; input_regularized
    needs a `regulator` whose pi_u(w) is evaluated along the w trajectory.
    """

    def __init__(self, model: SystemModel, config: MpcConfig, x0, w0,
                 memory=None, regulator=None):
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
        self._W = np.array(ws[:self.H])
        self._j = np.minimum(np.arange(self.H), self.N - 1)   # input block of step k
        self.history = self.u_ref = None
        if config.variant == "incremental_input":
            if memory is None:
                raise ConfigError("incremental_input needs the memory of applied inputs")
            xi = np.asarray(memory, dtype=float)
            if xi.size != config.T * model.m:
                raise ConfigError(f"memory must hold exactly T = {config.T} inputs")
            self.history = xi.reshape(config.T, model.m)[::-1]   # u_{t-T}, ..., u_{t-1}
        if config.variant == "input_regularized":
            if regulator is None:
                raise ConfigError("input_regularized needs a regulator solution for pi_u")
            self.u_ref = [np.atleast_1d(regulator.pi_u(w)).reshape(model.m)
                          for w in self.w_traj[:self.N]]
        self.lo = model.input_lo
        self.hi = model.input_hi
        self._sw = np.sqrt(self._output_weights())
        self._out = np.flatnonzero(self._sw > 0.0)   # steps with output weight w_k > 0
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

    def rollout(self, useq):
        xs = [self.x0]
        for j in range(self.H):
            xs.append(self.model.step(xs[-1], useq[min(j, self.N - 1)], self.w_traj[j]))
        return xs

    def outputs(self, useq, xs):
        """Outputs y_0..y_{H-1} along the rollout xs as (H, p), from one stacked h call."""
        return self.model.h(np.array(xs[:self.H]), useq[self._j], self._W)

    def residuals(self, useq, xs=None, jac=True):
        """Stacked residual r(u) with J(u) = r @ r, its Jacobian J_r and the rollout.

        r holds sqrt(w_k) Q^1/2 y_k for every output with weight w_k > 0
        (look_ahead counts the overlap of its two windows twice), then the
        variant's input penalty E vec(u) - c.  h and the Jacobians of f and h
        are each evaluated once on the stacked rollout; a forward pass carries
        the sensitivity S_k = dx_k/dvec(u), and J_r's output rows come from one
        batched product Hx_k S_k.  J_r is None unless jac.
        """
        useq = np.asarray(useq, dtype=float).reshape(self.N, self.m)
        if xs is None:
            xs = self.rollout(useq)
        N, m, H, k = self.N, self.m, self.H, self._out
        X = np.array(xs[:H])
        Y = self.outputs(useq, X)
        r = np.concatenate([((Y[k] @ self._Qh.T) * self._sw[k, None]).ravel(),
                            self.E @ useq.ravel() - self.c])
        if not jac:
            return r, None, xs
        U = useq[self._j]
        Hx, Hu, _ = self.model.jacobians_h(X, U, self._W)
        Fx, Fu, _ = self.model.jacobians_f(X[:H - 1], U[:H - 1], self._W[:H - 1])
        S = np.zeros((H, self.model.n_p, N * m))
        for i, j in enumerate(self._j[:H - 1].tolist()):
            np.matmul(Fx[i], S[i], out=S[i + 1])
            S[i + 1, :, j * m:(j + 1) * m] += Fu[i]
        rows = Hx[k] @ S[k]
        rows.reshape(len(k), self.model.p, N, m)[np.arange(len(k)), :, self._j[k]] += Hu[k]
        rows = (self._Qh @ rows) * self._sw[k, None, None]
        return r, np.vstack([rows.reshape(-1, N * m), self.E]), xs

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
    return Ocp(model, config, current_state, current_w, memory=memory, regulator=regulator)


def _box_centre(lo, hi):
    """Centre of the input box, 0 on every coordinate with an infinite bound."""
    mid = np.zeros_like(lo)
    finite = np.isfinite(lo) & np.isfinite(hi)
    mid[finite] = 0.5 * (lo[finite] + hi[finite])
    return mid


# ---------------------------------------------------------------------------
# solver

def _stationarity(u, g, lo, hi):
    return float(np.max(np.abs(u - np.clip(u - g, lo, hi)))) if u.size else 0.0


@one_blas_thread()
def solve(ocp: Ocp, warm_start=None) -> OcpSolution:
    """Minimize the OCP over the input box.

    Linear and nonlinear models take the same Gauss-Newton projected-descent
    path from the (box-projected) warm start: g = 2 J_r^T r, H = 2 J_r^T J_r,
    Armijo backtracking on J = r @ r.  Stationarity may stop the iteration
    only after the first step, so an unconstrained linear OCP returns its
    exact minimiser; `converged` is judged at the returned iterate.

    The minimiser is canonical: trailing input blocks whose J_r columns are
    all zero take the value of the last block the cost sees, unless that
    raises the cost.

    numpy's OpenBLAS runs on one thread for the call (`blas.one_blas_thread`).
    """
    tol = ocp.config.solver.gradient_tolerance
    N, m = ocp.N, ocp.m
    lo = np.tile(ocp.lo, N)
    hi = np.tile(ocp.hi, N)

    if warm_start is None:
        u0 = np.tile(_box_centre(ocp.lo, ocp.hi), (N, 1))
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
        if (it > 0 and stat <= tol) or it >= _MAX_ITERATIONS:
            break
        d = _projected_newton_direction(u, g, 2.0 * Jr.T @ Jr, lo, hi, stat)
        t = 1.0
        for _ in range(60):
            un = np.clip(u + t * d, lo, hi)
            Jn, xsn = ocp.cost(un)
            dec = float(g @ (u - un))
            if Jn <= J - _ARMIJO_SLOPE * dec and Jn <= J + 1e-14 * max(1.0, abs(J)):
                break
            t *= _ARMIJO_SHRINK
        else:
            break
        if np.max(np.abs(un - u)) < 1e-16 * max(1.0, np.max(np.abs(u))):
            break
        u, J = un, Jn
        r, Jr, xs = ocp.residuals(u, xsn)
        it += 1
    seen = np.flatnonzero(np.any(Jr, axis=0).reshape(N, m).any(axis=1))
    if seen.size and seen[-1] < N - 1:
        tail = u.reshape(N, m).copy()
        tail[seen[-1] + 1:] = tail[seen[-1]]
        if not np.array_equal(tail.ravel(), u):     # else (J, xs) already belong to it
            Jt, xst = ocp.cost(tail)
            if Jt <= J:     # a zero column at one point need not mean the cost never sees it
                u, J, xs = tail, Jt, xst
    return OcpSolution(u_opt=u.reshape(N, m), x_pred=np.array(xs[:N + 1]), value=J,
                       iterations=it, converged=bool(stat <= tol),
                       kkt_residual=stat)


def _projected_newton_direction(u, g, H, lo, hi, stat):
    """Two-metric projection: Newton on the free set, gradient on the active set."""
    eps_a = min(1e-6, max(1e-12, stat))
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
            Hreg = Hff + lam * np.eye(Hff.shape[0])
            try:
                np.linalg.cholesky(Hreg)   # raises unless Hreg is positive definite
                df = -np.linalg.solve(Hreg, gf)
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
        return _box_centre(self.model.input_lo, self.model.input_hi)

    def step(self, x_p, w):
        """Solve from the measured or estimated state and apply the first input."""
        ocp = assemble(self.model, self.config, x_p, w,
                       memory=self.memory, regulator=self.regulator)
        warm = self._warm
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
