"""Closed-loop engine: truth model + controller (+ observer) with trace recording.

The recorded state measure sigma is the squared Euclidean distance to the
regulator manifold; under the incremental variant it covers the augmented
state (plant deviation plus memory deviation from the periodic feedforward).
"""

import io
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .augmentation import memory_reference
from .errors import ConfigError, NumericalError
from .estimation import ObserverConfig, make_observer_state, observer_step
from .models import SimNoiseSpec, SystemModel
from .mpc import MpcConfig, MpcController, assemble, solve

Array = np.ndarray


@dataclass(frozen=True)
class ScenarioSpec:
    model: SystemModel
    mpc: MpcConfig
    x0: Array
    w0: Array
    steps: int
    feedback: str = "exact_state"          # "exact_state" | "error_feedback"
    observer: Optional[ObserverConfig] = None
    noise: SimNoiseSpec = field(default_factory=SimNoiseSpec)
    seed: int = 0
    regulator: Optional[object] = None     # anything with pi_x(w), pi_u(w)
    u_init: Optional[Array] = None

    def __post_init__(self):
        if self.steps < 1:
            raise ConfigError("simulation length must be >= 1")
        if self.feedback not in ("exact_state", "error_feedback"):
            raise ConfigError(f"unknown feedback mode {self.feedback!r}")
        if self.feedback == "error_feedback" and self.observer is None:
            raise ConfigError("error_feedback needs an observer section")
        object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float).reshape(self.model.n_p))
        object.__setattr__(self, "w0", np.asarray(self.w0, dtype=float).reshape(self.model.q))


def atomic_write(path, text):
    """Write through a temporary file so readers never see a partial file."""
    tmp = f"{path}.tmp{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
    failed_at: Optional[int] = None

    @property
    def steps(self):
        return self.x.shape[0]

    def write_csv(self, path):
        atomic_write(path, self.to_csv())

    def to_csv(self):
        cols = ["t"]
        cols += [f"x{i}" for i in range(self.x.shape[1])]
        cols += [f"w{i}" for i in range(self.w.shape[1])]
        cols += [f"u{i}" for i in range(self.u.shape[1])]
        cols += [f"y{i}" for i in range(self.y.shape[1])]
        if self.xhat is not None:
            cols += [f"xhat{i}" for i in range(self.xhat.shape[1])]
        cols += ["V", "sigma", "iters", "converged"]
        buf = io.StringIO()
        buf.write(",".join(cols) + "\n")
        for t in range(self.steps):
            row = [str(t)]
            row += [f"{v:.17g}" for v in self.x[t]]
            row += [f"{v:.17g}" for v in self.w[t]]
            row += [f"{v:.17g}" for v in self.u[t]]
            row += [f"{v:.17g}" for v in self.y[t]]
            if self.xhat is not None:
                row += [f"{v:.17g}" for v in self.xhat[t]]
            row += [f"{self.value[t]:.17g}", f"{self.sigma[t]:.17g}",
                    str(int(self.iterations[t])), str(int(self.converged[t]))]
            buf.write(",".join(row) + "\n")
        return buf.getvalue()


def _sigma_evaluator(spec: ScenarioSpec) -> Callable:
    """Squared distance to the (augmented) regulator manifold, or NaN without one."""
    reg = spec.regulator
    if reg is None:
        return lambda x_p, w, memory: float("nan")
    model = spec.model
    T = spec.mpc.T if spec.mpc.variant == "incremental_input" else None

    def sigma(x_p, w, memory):
        e = x_p - np.atleast_1d(reg.pi_x(w))
        val = float(e @ e)
        if T is not None and memory is not None:
            xi_ref = memory_reference(reg.pi_u, model.s, w, T, model.m)
            d = memory - xi_ref
            val += float(d @ d)
        return val

    return sigma


def run(spec: ScenarioSpec) -> SimTrace:
    """Simulate the closed loop; the truth always evolves with the true state."""
    model = spec.model
    rng = np.random.default_rng(spec.seed)
    controller = MpcController(model, spec.mpc, regulator=spec.regulator,
                               initial_input=spec.u_init)
    observing = spec.feedback == "error_feedback"
    obs_state = make_observer_state(model, spec.observer) if observing else None
    sigma_of = _sigma_evaluator(spec)

    K = spec.steps
    n, q, m, p = model.n_p, model.q, model.m, model.p
    X = np.zeros((K, n)); W = np.zeros((K, q)); U = np.zeros((K, m))
    Y = np.zeros((K, p)); V = np.zeros(K); SIG = np.zeros(K)
    IT = np.zeros(K, dtype=int); CV = np.zeros(K, dtype=bool)
    XH = np.zeros((K, n + q)) if observing else None
    ETA = np.zeros((K, p)) if observing else None
    MEM = np.zeros((K, m * spec.mpc.T)) if controller.memory is not None else None

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
        u, diag = controller.step(x_ctrl, w_ctrl)
        lo_ok = np.all(u >= model.input_lo - 1e-12) and np.all(u <= model.input_hi + 1e-12)
        if not lo_ok:
            raise NumericalError(f"applied input {u} violates the box at t={t}")
        y = np.atleast_1d(model.h(x, u, w))
        X[t], W[t], U[t], Y[t] = x, w, u, y
        V[t] = diag.value
        SIG[t] = sigma_of(x, w, MEM[t] if MEM is not None else None)
        IT[t] = diag.iterations
        CV[t] = diag.converged
        if observing:
            eta = spec.noise.sample(rng, p)
            ETA[t] = eta
            obs_state = observer_step(obs_state, u, y + eta, model, spec.observer)
        if diag.failed:
            break   # the trace ends with the failure step
        x = model.step(x, u, w)
        w = np.atleast_1d(model.s(w))

    def cut(a):
        return None if a is None else a[:t + 1]

    return SimTrace(x=cut(X), w=cut(W), u=cut(U), y=cut(Y), xhat=cut(XH), eta=cut(ETA),
                    value=cut(V), sigma=cut(SIG), iterations=cut(IT), converged=cut(CV),
                    memory=cut(MEM), failed_at=t if diag.failed else None)


# ---------------------------------------------------------------------------
# diagnostics

@dataclass(frozen=True)
class MetricsReport:
    sigma: Array
    max_constraint_violation: float
    l2_ratio: float
    decay_rate: float
    sup_output: float
    sup_output_second_half: float


def metrics(trace: SimTrace, spec: ScenarioSpec) -> MetricsReport:
    """Tracking and robustness diagnostics against the regulator solution."""
    model = spec.model
    lo, hi = model.input_lo, model.input_hi
    viol = 0.0
    for t in range(trace.steps):
        viol = max(viol, float(np.max(np.maximum(lo - trace.u[t], 0.0), initial=0.0)),
                   float(np.max(np.maximum(trace.u[t] - hi, 0.0), initial=0.0)))
    ynorm = np.linalg.norm(trace.y, axis=1)
    half = trace.steps // 2
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
    l2 = num / den if den > 0 else float("inf")
    decay = _fit_decay(sig)
    return MetricsReport(sigma=trace.sigma,
                         max_constraint_violation=viol,
                         l2_ratio=l2,
                         decay_rate=decay,
                         sup_output=float(ynorm.max(initial=0.0)),
                         sup_output_second_half=float(ynorm[half:].max(initial=0.0)))


def _fit_decay(sigma, floor=1e-14):
    """Least-squares geometric rate of the sigma series (NaN when degenerate)."""
    mask = sigma > floor
    ts = np.nonzero(mask)[0]
    if ts.size < 3:
        return float("nan")
    lg = np.log(sigma[ts])
    slope = np.polyfit(ts.astype(float), lg, 1)[0]
    return float(np.exp(slope))


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
