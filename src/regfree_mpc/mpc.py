"""Finite-horizon OCP assembly and the receding-horizon control law.

All four stage-cost variants share a single-shooting parameterization in the
physical input sequence and one residual form, J(u) = ||r(u)||^2 with a row
block per predicted output, written once in `Ocp.cost`, which returns J, r and
the rollout that `Ocp.jacobian` linearises.  Every model runs the same
Gauss-Newton solver: each iteration minimises its model exactly over the input
box with a primal active-set method, and a line search along the feasible
segment accepts a trial by the model's predicted decrease.  It reports the
projected-gradient stationarity residual.  A linear model's J_r, GN Hessian and
all-free step operator M are built once per (model, config) into a
`_Linearisation`, so a box step whose coordinates are all free is one product;
`Ocp.dense_matrices` writes r in closed form.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .blas import one_blas_thread
from .errors import ConfigError, DomainError, NumericalError, ShapeError
from .models import LinearSystem, SystemModel, _frozen, _sized

VARIANTS = ("input_regularized", "output_only", "look_ahead", "incremental_input")

_MAX_ITERATIONS = 200
_ARMIJO_SHRINK = 0.5
_ARMIJO_SLOPE = 1e-4


@dataclass(frozen=True)
class SolverSettings:
    gradient_tolerance: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.gradient_tolerance < np.inf:
            raise DomainError("gradient_tolerance must be positive and finite",
                              key="gradient_tolerance")


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
            raise ConfigError(f"unknown variant {self.variant!r}", key="variant")
        for key in ("N", "d", "T"):     # a float, bool or str would reach numpy as a shape
            value = getattr(self, key)
            if (key == "N" or value is not None) and (isinstance(value, bool) or
                                                      not isinstance(value, (int, np.integer))):
                raise ConfigError(f"{key} must be an integer, got {value!r}", key=key)
        if self.N < 1:
            raise ConfigError("horizon N must be >= 1", key="N")
        Q, R = (_frozen(M, ndmin=2) for M in (self.Q, self.R))
        for name, M in (("Q", Q), ("R", R)):
            if M.size == 0:
                raise ConfigError(f"{name} must be non-empty", key=name)
            if not np.isfinite(M).all():
                raise ConfigError(f"{name} must be finite", key=name)
            if not np.allclose(M, M.T):
                raise ConfigError(f"{name} must be symmetric", key=name)
            if np.linalg.eigvalsh(M)[0] < -1e-12 * max(1.0, np.linalg.norm(M)):
                raise ConfigError(f"{name} must be positive semidefinite", key=name)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        if self.variant == "look_ahead" and (self.d is None or self.d < 0):
            raise ConfigError("look_ahead needs d >= 0", key="d")
        if self.variant == "incremental_input" and (self.T is None or self.T < 1):
            raise ConfigError("incremental_input needs T >= 1", key="T")
        for key, reader in (("d", "look_ahead"), ("T", "incremental_input")):
            if getattr(self, key) is not None and self.variant != reader:
                raise ConfigError(f"{key!r} is read only by the {reader} variant, "
                                  f"not by {self.variant!r}", key=key)

    @cached_property
    def horizon(self):
        """Read-only data of every Ocp of this config, built once: (H, j, sw, Q^1/2, R^1/2, E).

        The rollout length H (look_ahead needs d+1 extra outputs), the input block j_k of step
        k, sqrt(w_k) of each output weight (look_ahead counts y_{d+1}..y_{N-1}, where its two
        windows overlap, twice, and y_N..y_d, the gap between them when d >= N, not at all),
        and the map E of the input penalty E vec(u) - c.  `_linearisation` is built the same way.
        """
        N, m = self.N, self.R.shape[0]
        H = N + ((self.d + 1) if self.variant == "look_ahead" else 0)
        wts = np.zeros(H)
        wts[:N] += 1.0
        if self.variant == "look_ahead":
            wts[self.d + 1:] += 1.0
        sw = np.sqrt(wts)
        Rh = _psd_sqrt(self.R)
        # rows R^1/2 (u_k - u_{k-T}); input_regularized's T = N shifts nothing in
        T = {"input_regularized": N, "incremental_input": self.T}.get(self.variant)
        E = np.zeros((0, N * m)) if T is None else np.kron(np.eye(N) - np.eye(N, k=-T), Rh)
        arrays = (np.minimum(np.arange(H), N - 1), sw, _psd_sqrt(self.Q), Rh, E)
        for a in arrays:
            a.flags.writeable = False
        return (H,) + arrays

    @cached_property
    def _linearisation(self):
        """[`_Linearisation` of the last linear system solved here]; only linear solves make it."""
        return [None]


@dataclass(frozen=True, eq=False)
class _Linearisation:
    """Read-only J_r, GN Hessian H and all-free box step operator M = `_newton_step(H)`, so
    p = -M grad, of one LinearSystem under one config; M exists for every H.  Holding the
    LinearSystem, not the SystemModel, keeps its id unused and the config picklable."""
    system: LinearSystem
    Jr: np.ndarray
    H: np.ndarray
    M: np.ndarray


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
                 memory=None, regulator=None):
        """incremental_input needs the newest-first input `memory`; input_regularized
        needs the `regulator` map w -> (pi_x(w), pi_u(w)), evaluated along the w trajectory."""
        if config.Q.shape[0] != model.p or config.R.shape[0] != model.m:
            raise ShapeError(f"Q and R must be {model.p} x {model.p} and {model.m} x {model.m}")
        self.model = model
        self.config = config
        self.x0 = _sized(x0, model.n_p, "x0")
        self.N = config.N
        self.m = model.m
        self.H, self._j, self._sw, self._Qh, Rh, self.E = config.horizon
        w = _sized(w0, model.q, "w0")
        ws = [w]
        for _ in range(self.H):
            ws.append(np.asarray(model.s(ws[-1]), dtype=float))
        self.w_traj = np.array(ws)   # (H+1, q): w_0..w_H
        N, m = self.N, self.m
        ref = ()    # ref_k of the penalty R^1/2 (u_k - ref_k) where it is not a decision variable
        if config.variant == "input_regularized":
            if regulator is None:
                raise ConfigError("input_regularized needs a regulator solution for pi_u")
            ref = [_sized(regulator(w)[1], m, "pi_u") for w in self.w_traj[:N]]
        elif config.variant == "incremental_input":
            if memory is None:
                raise ConfigError("incremental_input needs the memory of applied inputs")
            xi = _sized(memory, config.T * m, "memory").reshape(config.T, m)
            ref = xi[::-1]     # u_{t-T}, ..., u_{t-1}
        self.c = np.zeros(len(self.E))
        self.c[:min(len(ref), N) * m] = np.ravel([Rh @ r for r in ref[:N]])

    # -- residual form -----------------------------------------------------

    def rollout(self, useq):
        """States x_0..x_H as one (H+1, n_p) array, checked for finiteness once;
        NumericalError names the first bad state (f_p runs with FP warnings off)."""
        U = np.asarray(useq, dtype=float).reshape(self.N, self.m)[self._j]
        X = np.empty((self.H + 1, self.model.n_p))
        X[0] = self.x0
        f, W = self.model.f_p, self.w_traj
        with np.errstate(all="ignore"):
            for k in range(self.H):
                X[k + 1] = f(X[k], U[k], W[k])
        bad = ~np.isfinite(X).all(axis=1)
        if bad.any():
            raise NumericalError(f"non-finite predicted state x_{int(np.argmax(bad))} "
                                 f"in a rollout of {self.H} steps")
        return X

    def outputs(self, useq, xs):
        """Outputs y_0..y_{H-1} along the rollout xs as (H, p), from one stacked h call."""
        return self.model.h(np.asarray(xs[:self.H]), useq[self._j], self.w_traj[:self.H])

    def cost(self, useq):
        """J(u) = r @ r, the stacked residual r(u) and the rollout xs, as (J, r, xs).

        r holds sqrt(w_k) Q^1/2 y_k for every predicted output y_0..y_{H-1} (w_k of
        `MpcConfig.horizon`: 0 in look_ahead's gap when d >= N), then the variant's
        input penalty E vec(u) - c.  One rollout, one stacked h call.
        """
        useq = np.asarray(useq, dtype=float).reshape(self.N, self.m)
        xs = self.rollout(useq)
        Y = self.outputs(useq, xs)
        r = np.concatenate([((Y @ self._Qh.T) * self._sw[:, None]).ravel(),
                            self.E @ useq.ravel() - self.c])
        return _squared_norm(r), r, xs

    def jacobian(self, useq, xs):
        """Read-only J_r, GN Hessian H = 2 J_r'J_r and all-free step operator M at u along xs, from
        one stacked call each of the Jacobians of f and h.  A linear model's three depend only on
        its LinearSystem and the config, which keeps them (`_Linearisation`); else M is None.
        """
        lin = self.model.linear
        if lin is not None and (kept := self.config._linearisation[0]) and kept.system is lin:
            return kept.Jr, kept.H, kept.M
        H, W = self.H, self.w_traj
        X, U = xs[:H], np.reshape(useq, (self.N, self.m))[self._j]
        Hx, Hu, _ = self.model.jacobians_h(X, U, W[:H])
        Fx, Fu, _ = self.model.jacobians_f(X[:H - 1], U[:H - 1], W[:H - 1])
        Jr = self._residual_jacobian(Fx, Fu, Hx, Hu)
        hess = 2.0 * (Jr.T @ Jr)
        hess.flags.writeable = False
        M = None
        if lin is not None:
            M = _newton_step(hess)
            M.flags.writeable = False
            self.config._linearisation[0] = _Linearisation(lin, Jr, hess, M)
        return Jr, hess, M

    def _residual_jacobian(self, Fx, Fu, Hx, Hu):
        """J_r from the stacked Jacobians: a forward pass carries the sensitivity
        S_k = dx_k/dvec(u), and the output rows come from one batched product Hx_k S_k."""
        N, m, H = self.N, self.m, self.H
        S = np.zeros((H, self.model.n_p, N * m))
        for i, j in enumerate(self._j[:H - 1].tolist()):
            np.matmul(Fx[i], S[i], out=S[i + 1])
            S[i + 1, :, j * m:(j + 1) * m] += Fu[i]
        rows = Hx @ S
        rows.reshape(H, self.model.p, N, m)[np.arange(H), :, self._j] += Hu
        rows = (self._Qh @ rows) * self._sw[:, None, None]
        Jr = np.vstack([rows.reshape(-1, N * m), self.E])
        Jr.flags.writeable = False
        return Jr

    # -- closed-form reference for linear models ---------------------------

    def dense_matrices(self):
        """Stacked residual system: r(u) = Aml @ vec(u) - bml with J = ||r||^2.

        The output rows come from the closed-form state sensitivity; the input
        penalty rows are the OCP's own E and c.
        """
        lin = self.model.linear
        if lin is None:
            raise NumericalError("dense path requires an exactly linear model")
        N, m, H = self.N, self.m, self.H
        # x_k = A^k x0 + sum_j A^{k-1-j} (B u_j + P_x w_j)
        Sx = [np.zeros((self.model.n_p, N * m))]
        consts = [self.x0.copy()]
        for k in range(H):
            Sk = lin.A @ Sx[-1]
            Sk[:, self._j[k] * m:(self._j[k] + 1) * m] += lin.B
            consts.append(lin.A @ consts[-1] + lin.P_x @ self.w_traj[k])
            Sx.append(Sk)
        rows, rhs = [], []
        for k in range(H):
            row = lin.C @ Sx[k]
            row[:, self._j[k] * m:(self._j[k] + 1) * m] += lin.D
            cst = lin.C @ consts[k] - lin.P_y @ self.w_traj[k]
            rows.append(self._sw[k] * (self._Qh @ row))
            rhs.append(-self._sw[k] * (self._Qh @ cst))
        return np.vstack(rows + [self.E]), np.concatenate(rhs + [self.c])


def _squared_norm(r):
    """J = r @ r, or NumericalError when it is not finite, overflow included."""
    with np.errstate(over="ignore"):
        J = float(r @ r)
    if not np.isfinite(J):
        raise NumericalError("non-finite OCP cost")
    return J


def _psd_sqrt(M):
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

@one_blas_thread()
def solve(ocp: Ocp, warm_start=None) -> OcpSolution:
    """Minimize the OCP over the input box.

    Linear and nonlinear models take the same Gauss-Newton path from the
    (box-projected) warm start.  Each iteration takes (J_r, H, M) from
    `Ocp.jacobian`, solves its model exactly over the box, d = argmin
    ||r + J_r d||^2 subject to lo - u <= d <= hi - u (`_box_gauss_newton_step`),
    and searches along the feasible segment u + t d, halving t from 1.  A trial
    is accepted when the cost falls by at least 1e-4 times the model's predicted
    decrease pred(t) = -(2t r'J_r d + t^2 ||J_r d||^2), less a round-off allowance
    of 1e-14 max(1, |J|); a trial whose rollout or cost is not finite is
    rejected, and an accepted one's (J, r, rollout) from `Ocp.cost` is the
    next iterate as it stands, so each point is evaluated once.  t is halved
    only while the trial still moves u, t ||d||_inf > 1e-13 max(1, ||u||_inf).
    The solve ends when the projected-gradient residual meets the tolerance
    after at least one step, after 200 iterations, or when no trial that
    moves u is accepted, so a stationary start whose exact step would not
    move u ends at once.  `converged` is judged at the returned iterate.

    The minimiser is canonical: trailing input blocks whose J_r columns are
    all zero take the value of the last block the cost sees, unless that
    raises the cost.

    numpy's OpenBLAS runs on one thread for the call (`blas.one_blas_thread`).
    """
    tol = ocp.config.solver.gradient_tolerance
    N, m = ocp.N, ocp.m
    box = ocp.model.input_lo, ocp.model.input_hi
    lo, hi = (np.tile(b, N) for b in box)
    u0 = (np.tile(_box_centre(*box), N) if warm_start is None
          else _sized(warm_start, N * m, "warm_start"))
    u = np.clip(u0, lo, hi)
    J, r, xs = ocp.cost(u)
    it = 0
    while True:
        Jr, hess, M = ocp.jacobian(u, xs)
        g = 2.0 * (Jr.T @ r)
        stat = float(np.max(np.abs(u - np.clip(u - g, lo, hi))))
        if (it > 0 and stat <= tol) or it >= _MAX_ITERATIONS:
            break
        d = _box_gauss_newton_step(hess, g, lo - u, hi - u, M)
        Jd = Jr @ d
        slope, curv = float(g @ d), float(Jd @ Jd)
        allowance = 1e-14 * max(1.0, abs(J))
        d_max, min_move = np.max(np.abs(d)), 1e-13 * max(1.0, np.max(np.abs(u)))
        t = 1.0
        while t * d_max > min_move:
            # u + t d lies in the box; the clip only removes round-off
            un = np.clip(u + t * d, lo, hi)
            try:
                Jn, rn, xsn = ocp.cost(un)
            except NumericalError:
                Jn = np.inf     # a trial that cannot be evaluated is rejected
            if J - Jn >= -_ARMIJO_SLOPE * t * (slope + t * curv) - allowance:
                break
            t *= _ARMIJO_SHRINK
        else:
            break   # no trial that moves u is accepted
        u, J, r, xs = un, Jn, rn, xsn
        it += 1
    seen = np.flatnonzero(np.any(Jr, axis=0).reshape(N, m).any(axis=1))
    if seen.size and seen[-1] < N - 1:
        tail = u.reshape(N, m).copy()
        tail[seen[-1] + 1:] = tail[seen[-1]]
        if not np.array_equal(tail.ravel(), u):     # else (J, xs) already belong to it
            Jt, _, xst = ocp.cost(tail)
            if Jt <= J:     # a zero column at one point need not mean the cost never sees it
                u, J, xs = tail, Jt, xst
    return OcpSolution(u_opt=u.reshape(N, m), x_pred=xs[:N + 1], value=J,
                       iterations=it, converged=bool(stat <= tol),
                       kkt_residual=stat)


def _box_gauss_newton_step(H, g, lo, hi, M=None):
    """Exact minimiser of the model g'd + d'Hd/2 over the box lo <= d <= hi.

    A monotone primal active-set method (Nocedal & Wright, section 16.5)
    started from the feasible d = 0, with lo <= 0 <= hi.  The bounds that d = 0
    already sits on form the first working set.  Each pass takes the Newton
    step on the free coordinates and stops it at the first bound it meets,
    which joins the working set.  After a step that no bound blocks, d is the
    minimiser on the current face, so the multipliers are checked at once: the
    working bound with the most negative one is released, and d is optimal
    when none is negative.  A released coordinate must then move inward; if
    its step does not, the multiplier was round-off and d is returned.  Every
    pass lowers the model or grows the working set; after 4n + 10 passes the
    current, feasible d is returned.  Given M (`_Linearisation.M`), a pass on which
    every coordinate is free takes its Newton step as -M grad, with no factorisation.
    """
    n = g.size
    d = np.zeros(n)
    side = np.where(lo >= 0.0, 1.0, np.where(hi <= 0.0, -1.0, 0.0))   # +1 at lo, -1 at hi
    grad = g
    released = None
    for _ in range(4 * n + 10):
        free = side == 0.0
        p = np.zeros(n)
        if M is not None and free.all():
            p = -(M @ grad)
        elif free.any():
            p[free] = _newton_step(H[np.ix_(free, free)], grad[free])
        if released is not None and p[released[0]] * released[1] <= 0.0:
            return d
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(p < 0.0, (lo - d) / p, np.where(p > 0.0, (hi - d) / p, np.inf))
        block = int(np.argmin(room))
        if room[block] < 1.0:
            d += max(room[block], 0.0) * p
            side[block] = 1.0 if p[block] < 0.0 else -1.0
            d[block] = lo[block] if p[block] < 0.0 else hi[block]
            grad = g + H @ d
            released = None
            continue
        d += p
        work = np.flatnonzero(side)
        if not work.size:
            return d
        grad = g + H @ d
        mult = side[work] * grad[work]
        k = int(np.argmin(mult))
        if mult[k] >= 0.0:
            return d
        released = (work[k], side[work[k]])
        side[work[k]] = 0.0
    return d


def _newton_step(H, g=None):
    """-H^-1 g, or with no g its operator M = H^-1.  If H is not positive definite, or its solve
    fails, S K S stands in for H: K = H/ss' + 1e-10 I, S = diag(s), s = sqrt(diag H) or 1 if 0."""
    try:
        np.linalg.cholesky(H)   # raises unless H is positive definite
        return np.linalg.inv(H) if g is None else -np.linalg.solve(H, g)
    except np.linalg.LinAlgError:
        s = np.sqrt(np.diag(H))
        s[s == 0.0] = 1.0
        K = H / np.outer(s, s) + 1e-10 * np.eye(s.size)
        return np.linalg.inv(K) / np.outer(s, s) if g is None else -np.linalg.solve(K, g / s) / s


# ---------------------------------------------------------------------------
# receding-horizon controller

class MpcController:
    """Receding-horizon loop state: warm start and, if incremental, the memory."""

    def __init__(self, model, config, regulator=None, initial_input=None):
        self.model = model
        self.config = config
        self.regulator = regulator
        self._warm = None
        self._last_u = None
        if initial_input is not None:
            self._last_u = np.clip(_sized(initial_input, model.m, "initial_input"),
                                   model.input_lo, model.input_hi)
        self.memory = (np.tile(self._cold_input(), config.T)
                       if config.variant == "incremental_input" else None)

    def _cold_input(self):
        if self._last_u is not None:
            return self._last_u
        return _box_centre(self.model.input_lo, self.model.input_hi)

    def step(self, x_p, w):
        """Solve from the measured or estimated state and apply the first input.

        Returns (u, OcpSolution), or (last input, None) when the solve raised
        NumericalError: the controller is fail-operational and repeats the
        last feasible input.
        """
        ocp = assemble(self.model, self.config, x_p, w,
                       memory=self.memory, regulator=self.regulator)
        warm = self._warm
        if warm is None:
            warm = np.tile(self._cold_input(), (self.config.N, 1))
        try:
            sol = solve(ocp, warm_start=warm)
            u = sol.u_opt[0].copy()
            self._warm = np.vstack([sol.u_opt[1:], sol.u_opt[-1:]])
        except NumericalError:
            sol, u = None, self._cold_input()
        self._last_u = u
        if self.memory is not None:
            from .augmentation import step_memory
            self.memory = step_memory(self.memory, u, self.model.m)
        return u, sol
