"""Closed-loop engine: truth model + controller (+ observer) with trace recording.

The recorded state measure sigma is the squared Euclidean distance to the
regulator manifold; under the incremental variant it covers the augmented
state (plant deviation plus memory deviation from the periodic feedforward).
"""

import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .augmentation import memory_reference
from .errors import ConfigError, NumericalError, ShapeError
from .estimation import ObserverConfig, make_observer_state, observer_step
from .models import SystemModel
from .mpc import MpcConfig, MpcController

Array = np.ndarray


@dataclass(frozen=True)
class ScenarioSpec:
    model: SystemModel
    mpc: MpcConfig
    x0: Array
    w0: Array
    steps: int
    observer: Optional[ObserverConfig] = None    # error feedback through it when set
    seed: int = 0
    regulator: Optional[Callable] = None   # the map w -> (pi_x(w), pi_u(w))
    u_init: Optional[Array] = None

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("simulation length must be >= 1", key="steps")
        model, ob = self.model, self.observer
        nj, p = model.n_p + model.q, model.p
        xhat0, L, lo, hi = (None,) * 4 if ob is None else (ob.xhat0, ob.L, ob.noise_lo, ob.noise_hi)
        for name, value, size in (("x0", self.x0, model.n_p), ("w0", self.w0, model.q),
                                  ("u_init", self.u_init, model.m), ("xhat0", xhat0, nj),
                                  ("noise_lo", lo, p), ("noise_hi", hi, p)):
            if value is not None and np.size(value) != size:
                raise ShapeError(f"{name!r} needs {size} entries for model {model.name!r}, "
                                 f"got {np.size(value)}", key=name)
        if L is not None and L.shape != (nj, p):
            raise ShapeError(f"L needs shape ({nj}, {p}) for model {model.name!r}")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(model.n_p))
        object.__setattr__(self, "w0", np.asarray(self.w0, dtype=float).reshape(model.q))


def atomic_write(path, text):
    """Write through a temporary file so readers never see a partial file; a failed
    write or replace removes the temporary file and raises its OSError."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


@dataclass
class SimTrace:
    x: Array           # (K, n_p)
    w: Array           # (K, q)
    u: Array           # (K, m)
    y: Array           # (K, p)
    xhat: Optional[Array]      # (K, n_p + q) under error feedback
    eta: Optional[Array]       # measurement noise actually drawn
    value: Array
    sigma: Array
    iterations: Array
    converged: Array
    memory: Optional[Array] = None   # (K, m*T) incremental variant

    @property
    def steps(self):
        return self.x.shape[0]

    @property
    def failed_at(self):
        """First step whose solve failed, or None; V is NaN on failed steps only."""
        failed = np.flatnonzero(np.isnan(self.value))
        return int(failed[0]) if failed.size else None

    def write_csv(self, path):
        atomic_write(path, self.to_csv())

    def to_csv(self):
        """One %.17g row per step: t, x, w, u, y, xhat (under error feedback), V, sigma,
        iters, converged; every column is a float, so integer-valued ones print as integers."""
        blocks = [(name, a) for name, a in (("x", self.x), ("w", self.w), ("u", self.u),
                                            ("y", self.y), ("xhat", self.xhat)) if a is not None]
        cols = (["t"] + [f"{name}{i}" for name, a in blocks for i in range(a.shape[1])]
                + ["V", "sigma", "iters", "converged"])
        table = np.column_stack([np.arange(self.steps)] + [a for _, a in blocks]
                                + [self.value, self.sigma, self.iterations, self.converged])
        row = ",".join(["%.17g"] * len(cols))
        return "\n".join([",".join(cols)] + [row % tuple(r) for r in table.tolist()]) + "\n"


def _sigma_evaluator(spec: ScenarioSpec) -> Callable:
    """Squared distance to the (augmented) regulator manifold, or NaN without one."""
    reg = spec.regulator
    if reg is None:
        return lambda x_p, w, memory: float("nan")
    model = spec.model

    def sigma(x_p, w, memory):
        with np.errstate(over="ignore"):        # a distance too large for a float reads inf
            e = x_p - np.atleast_1d(reg(w)[0])
            val = float(e @ e)
            if memory is not None:      # T = the number of inputs the memory holds
                xi_ref = memory_reference(reg, model.s, w, memory.size // model.m, model.m)
                d = memory - xi_ref
                val += float(d @ d)
        return val

    return sigma


def run(spec: ScenarioSpec) -> SimTrace:
    """Simulate the closed loop; the truth always evolves with the true state.  A failed
    solve applies the controller's fallback, records V = NaN, and the loop goes on."""
    model = spec.model
    rng = np.random.default_rng(spec.seed)
    controller = MpcController(model, spec.mpc, regulator=spec.regulator,
                               initial_input=spec.u_init)
    observing = spec.observer is not None
    obs_state = make_observer_state(model, spec.observer) if observing else None
    sigma_of = _sigma_evaluator(spec)

    K = spec.steps
    n, q, m, p = model.n_p, model.q, model.m, model.p
    X = np.zeros((K, n)); W = np.zeros((K, q)); U = np.zeros((K, m))
    Y = np.zeros((K, p)); V = np.full(K, np.nan); SIG = np.zeros(K)
    IT = np.zeros(K, dtype=int); CV = np.zeros(K, dtype=bool)
    XH = np.zeros((K, n + q)) if observing else None
    ETA = np.zeros((K, p)) if observing else None
    MEM = np.zeros((K, controller.memory.size)) if controller.memory is not None else None

    x = spec.x0.copy()
    w = spec.w0.copy()
    for t in range(K):
        if observing:
            XH[t] = obs_state.xhat
            x_ctrl, w_ctrl = obs_state.xhat[:n], obs_state.xhat[n:]
        else:
            x_ctrl, w_ctrl = x, w
        if MEM is not None:
            MEM[t] = controller.memory
        u, sol = controller.step(x_ctrl, w_ctrl)
        lo_ok = np.all(u >= model.input_lo - 1e-12) and np.all(u <= model.input_hi + 1e-12)
        if not lo_ok:
            raise NumericalError(f"applied input {u} violates the box at t={t}")
        y = np.atleast_1d(model.h(x, u, w))
        X[t], W[t], U[t], Y[t] = x, w, u, y
        SIG[t] = sigma_of(x, w, MEM[t] if MEM is not None else None)
        if sol is not None:
            V[t], IT[t], CV[t] = sol.value, sol.iterations, sol.converged
        if observing:
            ob = spec.observer
            eta = np.zeros(p) if ob.noise_lo is None else rng.uniform(ob.noise_lo, ob.noise_hi)
            ETA[t] = eta
            obs_state = observer_step(obs_state, u, y + eta, model, ob)
        x = model.step(x, u, w)
        w = np.atleast_1d(model.s(w))

    return SimTrace(x=X, w=W, u=U, y=Y, xhat=XH, eta=ETA, value=V, sigma=SIG,
                    iterations=IT, converged=CV, memory=MEM)


# ---------------------------------------------------------------------------
# diagnostics

@dataclass(frozen=True)
class MetricsReport:
    max_constraint_violation: float
    l2_ratio: float
    decay_rate: float
    sup_output: float
    sup_output_second_half: float


def metrics(trace: SimTrace, spec: ScenarioSpec) -> MetricsReport:
    """Tracking and robustness diagnostics against the regulator solution."""
    model = spec.model
    lo, hi = model.input_lo, model.input_hi
    viol = float(np.max(np.maximum(lo - trace.u, trace.u - hi), initial=0.0))
    half = trace.steps // 2
    # a norm or sum too large for a float reads inf
    with np.errstate(over="ignore"):
        ynorm = np.linalg.norm(trace.y, axis=1)
        # empirical finite-gain ratio: accumulated error over initial error plus noise
        if trace.xhat is not None:
            truth = np.hstack([trace.x, trace.w])
            e2 = np.sum((truth - trace.xhat) ** 2, axis=1)
            eta2 = np.sum(trace.eta ** 2, axis=1)
        else:
            e2 = np.zeros(trace.steps)
            eta2 = np.zeros(trace.steps)
        sig = np.where(np.isfinite(trace.sigma), trace.sigma, 0.0)
        num = float(np.sum(e2 + sig))
        den = float(sig[0] + e2[0] + np.sum(eta2))
    # an overflowed numerator reads inf, not inf / inf = NaN
    l2 = num / den if den > 0 and np.isfinite(num) else float("inf")
    decay = _fit_decay(sig)
    return MetricsReport(max_constraint_violation=viol,
                         l2_ratio=l2,
                         decay_rate=decay,
                         sup_output=float(ynorm.max(initial=0.0)),
                         sup_output_second_half=float(ynorm[half:].max(initial=0.0)))


_DECAY_FLOOR = 1e-14


def _fit_decay(sigma):
    """Least-squares geometric rate of the sigma series (NaN when degenerate)."""
    mask = sigma > _DECAY_FLOOR
    ts = np.nonzero(mask)[0]
    if ts.size < 3:
        return float("nan")
    lg = np.log(sigma[ts])
    slope = np.polyfit(ts.astype(float), lg, 1)[0]
    return float(np.exp(slope))
