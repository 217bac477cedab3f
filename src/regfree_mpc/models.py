"""Discrete-time plant/exosystem/output models and the built-in examples.

A model is the triple (f_p, s, h) on plant state x^p, exosystem state w and
input u, together with an input box.  Continuous-time vector fields enter
through one classical RK4 step per sample (`rk4_discretize`).
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError, ShapeError

Array = np.ndarray


def fd_jacobian(fun, x, h_rel=1e-6):
    """Central-difference Jacobian of fun at x with per-coordinate step."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fun(x), dtype=float))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        step = h_rel * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += step
        xm = x.copy(); xm[i] -= step
        J[:, i] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2.0 * step)
    return J


@dataclass(frozen=True)
class SimNoiseSpec:
    """Additive measurement-noise description (applied to the output only)."""

    distribution: str = "none"          # "none" | "uniform"
    lo: Optional[Array] = None          # per-coordinate lower bounds
    hi: Optional[Array] = None

    def __post_init__(self):
        if self.distribution not in ("none", "uniform"):
            raise DomainError(f"unknown noise distribution {self.distribution!r}")
        if self.distribution == "uniform":
            lo = np.atleast_1d(np.asarray(self.lo, dtype=float))
            hi = np.atleast_1d(np.asarray(self.hi, dtype=float))
            if lo.shape != hi.shape or np.any(lo > hi):
                raise DomainError("noise bounds must satisfy lo <= hi componentwise")
            object.__setattr__(self, "lo", lo)
            object.__setattr__(self, "hi", hi)

    def sample(self, rng, p):
        if self.distribution == "none":
            return np.zeros(p)
        return rng.uniform(self.lo, self.hi)


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time model x+ = f_p(x,u,w), w+ = s(w), y = h(x,u,w).

    Jacobian callables are optional; central finite differences are used
    where they are absent.  `linear` tags models that are exactly linear,
    enabling the closed-form reference `Ocp.dense_matrices`.
    """

    n_p: int
    m: int
    q: int
    p: int
    f_p: Callable[[Array, Array, Array], Array]
    s: Callable[[Array], Array]
    h: Callable[[Array, Array, Array], Array]
    input_lo: Array = None
    input_hi: Array = None
    jac_f: Optional[Callable] = None    # (x,u,w) -> (Fx, Fu, Fw)
    jac_h: Optional[Callable] = None    # (x,u,w) -> (Hx, Hu, Hw)
    jac_s: Optional[Callable] = None    # (w) -> Sw
    linear: Optional["LinearSystem"] = None
    name: str = "model"

    def __post_init__(self):
        lo = self.input_lo if self.input_lo is not None else np.full(self.m, -np.inf)
        hi = self.input_hi if self.input_hi is not None else np.full(self.m, np.inf)
        lo = np.asarray(lo, dtype=float).reshape(self.m)
        hi = np.asarray(hi, dtype=float).reshape(self.m)
        if np.any(lo > hi):
            raise DomainError("input box must satisfy lo <= hi componentwise")
        object.__setattr__(self, "input_lo", lo)
        object.__setattr__(self, "input_hi", hi)

    def clip_input(self, u):
        return np.clip(u, self.input_lo, self.input_hi)

    def step(self, x, u, w):
        xn = np.asarray(self.f_p(x, u, w), dtype=float)
        if not np.all(np.isfinite(xn)):
            raise NumericalError(f"non-finite state update at x={x}, u={u}")
        return xn

    def jacobians_f(self, x, u, w):
        if self.jac_f is not None:
            return self.jac_f(x, u, w)
        Fx = fd_jacobian(lambda z: self.f_p(z, u, w), x)
        Fu = fd_jacobian(lambda z: self.f_p(x, z, w), u) if self.m else np.zeros((self.n_p, 0))
        Fw = fd_jacobian(lambda z: self.f_p(x, u, z), w) if self.q else np.zeros((self.n_p, 0))
        return Fx, Fu, Fw

    def jacobians_h(self, x, u, w):
        if self.jac_h is not None:
            return self.jac_h(x, u, w)
        Hx = fd_jacobian(lambda z: self.h(z, u, w), x)
        Hu = fd_jacobian(lambda z: self.h(x, z, w), u) if self.m else np.zeros((self.p, 0))
        Hw = fd_jacobian(lambda z: self.h(x, u, z), w) if self.q else np.zeros((self.p, 0))
        return Hx, Hu, Hw

    def jacobian_s(self, w):
        if self.jac_s is not None:
            return self.jac_s(w)
        if self.q == 0:
            return np.zeros((0, 0))
        return fd_jacobian(self.s, w)


@dataclass(frozen=True)
class LinearSystem:
    """Matrices of x+ = Ax + Bu + P_x w, w+ = Sw, y = Cx + Du - P_y w."""

    A: Array
    B: Array
    C: Array
    D: Array
    P_x: Array
    P_y: Array
    S: Array

    def __post_init__(self):
        for name in ("A", "B", "C", "D", "P_x", "P_y", "S"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=float)))
        n, m, p, q = self.n_p, self.m, self.p, self.q
        shapes = {"A": (n, n), "B": (n, m), "C": (p, n), "D": (p, m),
                  "P_x": (n, q), "P_y": (p, q), "S": (q, q)}
        for name, want in shapes.items():
            got = getattr(self, name).shape
            if got != want:
                raise ShapeError(f"{name} has shape {got}, expected {want}")

    @property
    def n_p(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.B.shape[1]

    @property
    def p(self):
        return self.C.shape[0]

    @property
    def q(self):
        return self.S.shape[0]

    def to_system_model(self, input_lo=None, input_hi=None, name="lti"):
        A, B, C, D, P_x, P_y, S = self.A, self.B, self.C, self.D, self.P_x, self.P_y, self.S

        def f_p(x, u, w):
            return A @ x + B @ u + P_x @ w

        def s(w):
            return S @ w

        def h(x, u, w):
            return C @ x + D @ u - P_y @ w

        return SystemModel(
            n_p=self.n_p, m=self.m, q=self.q, p=self.p,
            f_p=f_p, s=s, h=h,
            input_lo=input_lo, input_hi=input_hi,
            jac_f=lambda x, u, w: (A, B, P_x),
            jac_h=lambda x, u, w: (C, D, -P_y),
            jac_s=lambda w: S,
            linear=self, name=name,
        )


def rk4_step(ode, x, u, w, dt):
    """One classical RK4 step of x' = ode(x,u,w) with u, w frozen."""
    k1 = ode(x, u, w)
    k2 = ode(x + 0.5 * dt * k1, u, w)
    k3 = ode(x + 0.5 * dt * k2, u, w)
    k4 = ode(x + dt * k3, u, w)
    xn = x + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(xn)):
        raise NumericalError(f"non-finite RK4 stage at x={x}")
    return xn


def rk4_step_jacobians(ode_jac, ode, x, u, w, dt):
    """(Fx, Fu) of the RK4 map, chained through the four stages."""
    n = x.size
    I = np.eye(n)
    x1 = x
    k1 = ode(x1, u, w)
    A1, B1 = ode_jac(x1, u, w)
    K1x, K1u = A1, B1
    x2 = x + 0.5 * dt * k1
    k2 = ode(x2, u, w)
    A2, B2 = ode_jac(x2, u, w)
    K2x = A2 @ (I + 0.5 * dt * K1x)
    K2u = A2 @ (0.5 * dt * K1u) + B2
    x3 = x + 0.5 * dt * k2
    k3 = ode(x3, u, w)
    A3, B3 = ode_jac(x3, u, w)
    K3x = A3 @ (I + 0.5 * dt * K2x)
    K3u = A3 @ (0.5 * dt * K2u) + B3
    x4 = x + dt * k3
    A4, B4 = ode_jac(x4, u, w)
    K4x = A4 @ (I + dt * K3x)
    K4u = A4 @ (dt * K3u) + B4
    Fx = I + dt / 6.0 * (K1x + 2.0 * K2x + 2.0 * K3x + K4x)
    Fu = dt / 6.0 * (K1u + 2.0 * K2u + 2.0 * K3u + K4u)
    return Fx, Fu


def rk4_discretize(ode, dt, *, n_p, m, q, p, h, s=None, input_lo=None,
                   input_hi=None, scale=None, ode_jac=None, jac_h=None,
                   jac_s=None, name="rk4"):
    """SystemModel whose f_p is one RK4 step of ode (optionally scale-divided).

    `scale` divides each right-hand-side coordinate before integration, for
    models written in singularly perturbed form diag(scale) x' = g(x,u).
    """
    if dt <= 0:
        raise DomainError("dt must be positive")
    scale_arr = None if scale is None else np.asarray(scale, dtype=float)

    if scale_arr is None:
        scaled_ode = ode
    else:
        def scaled_ode(x, u, w):
            return np.asarray(ode(x, u, w), dtype=float) / scale_arr

    if ode_jac is None:
        scaled_jac = None
    elif scale_arr is None:
        scaled_jac = ode_jac
    else:
        def scaled_jac(x, u, w):
            Gx, Gu = ode_jac(x, u, w)
            return Gx / scale_arr[:, None], Gu / scale_arr[:, None]

    def f_p(x, u, w):
        return rk4_step(scaled_ode, np.asarray(x, dtype=float), u, w, dt)

    jac_f = None
    if scaled_jac is not None:
        def jac_f(x, u, w):
            Fx, Fu = rk4_step_jacobians(scaled_jac, scaled_ode, np.asarray(x, dtype=float), u, w, dt)
            return Fx, Fu, np.zeros((n_p, q))

    if s is None:
        s = lambda w: w
        jac_s = jac_s or (lambda w: np.eye(q))

    return SystemModel(n_p=n_p, m=m, q=q, p=p, f_p=f_p, s=s, h=h,
                       input_lo=input_lo, input_hi=input_hi,
                       jac_f=jac_f, jac_h=jac_h, jac_s=jac_s, name=name)


# ---------------------------------------------------------------------------
# academic example: x+ = 0.5 x + u, y = x - u, no exosystem, no constraints

def academic_example():
    lin = LinearSystem(A=[[0.5]], B=[[1.0]], C=[[1.0]], D=[[-1.0]],
                       P_x=np.zeros((1, 0)), P_y=np.zeros((1, 0)), S=np.zeros((0, 0)))
    return lin.to_system_model(name="academic")


# ---------------------------------------------------------------------------
# cement milling circuit, three states, two inputs, constant references

MILL_DT = 1.0 / 60.0                       # one-minute sample, hour units
MILL_SCALE = np.array([0.3, 1.0, 0.01])
MILL_PHI_A = -0.1116
MILL_PHI_B = 16.50
MILL_ALPHA_C = 3.56e10
MILL_INPUT_LO = np.array([80.0, 165.0])
MILL_INPUT_HI = np.array([150.0, 180.0])


def mill_phi(x2):
    """Grinding-rate curve, clamped at zero."""
    return max(0.0, MILL_PHI_A * x2 * x2 + MILL_PHI_B * x2)


def mill_alpha(x2, u2):
    """Separator recycle fraction, in (0,1) for positive phi and u2."""
    g = mill_phi(x2) ** 0.8 * u2 ** 4
    return g / (MILL_ALPHA_C + g)


def _mill_ode(x, u, w):
    p = mill_phi(x[1])
    a = mill_alpha(x[1], u[1])
    return np.array([
        -x[0] + (1.0 - a) * p,
        -p + u[0] + x[2],
        -x[2] + a * p,
    ])


def _mill_ode_jac(x, u, w):
    x2, u2 = x[1], u[1]
    parg = MILL_PHI_A * x2 * x2 + MILL_PHI_B * x2
    p = parg if parg > 0.0 else 0.0
    dp = (2.0 * MILL_PHI_A * x2 + MILL_PHI_B) if parg > 0.0 else 0.0
    g = p ** 0.8 * u2 ** 4
    den = MILL_ALPHA_C + g
    a = g / den
    # d(alpha)/dx2 appears only in products with phi, which stay bounded at the clamp
    dg_dx2 = 0.8 * p ** 0.8 * dp * u2 ** 4 / p if p > 0.0 else 0.0
    dg_du2 = 4.0 * p ** 0.8 * u2 ** 3
    da_dx2 = MILL_ALPHA_C / den ** 2 * dg_dx2
    da_du2 = MILL_ALPHA_C / den ** 2 * dg_du2
    Gx = np.zeros((3, 3))
    Gu = np.zeros((3, 2))
    Gx[0, 0] = -1.0
    Gx[0, 1] = (1.0 - a) * dp - p * da_dx2
    Gu[0, 1] = -p * da_du2
    Gx[1, 1] = -dp
    Gx[1, 2] = 1.0
    Gu[1, 0] = 1.0
    Gx[2, 1] = a * dp + p * da_dx2
    Gx[2, 2] = -1.0
    Gu[2, 1] = p * da_du2
    return Gx, Gu


def _mill_h(x, u, w):
    return np.array([x[0] - w[0], x[2] - w[1]])


_MILL_HX = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def cement_mill():
    """RK4 discretization of the milling circuit at a one-minute sample."""
    return rk4_discretize(
        _mill_ode, MILL_DT, n_p=3, m=2, q=2, p=2,
        h=_mill_h, s=lambda w: w,
        input_lo=MILL_INPUT_LO, input_hi=MILL_INPUT_HI,
        scale=MILL_SCALE, ode_jac=_mill_ode_jac,
        jac_h=lambda x, u, w: (_MILL_HX, np.zeros((2, 2)), -np.eye(2)),
        jac_s=lambda w: np.eye(2),
        name="cement_mill",
    )


MILL_W_LO = np.array([100.0, 410.0])
MILL_W_HI = np.array([120.0, 430.0])


def cement_mill_regulator(w):
    """Closed-form steady state and feedforward input for a constant reference.

    The reference (w1, w2) pins (x1, x3); x2 solves phi(x2) = w1 + w2 on the
    rising branch of the grinding curve and u2 inverts the recycle fraction.
    """
    w = np.asarray(w, dtype=float)
    ssum = w[0] + w[1]
    disc = MILL_PHI_B ** 2 + 4.0 * MILL_PHI_A * ssum
    if disc <= 0.0:
        raise DomainError(f"reference sum {ssum} exceeds the grinding-curve peak")
    x2 = (MILL_PHI_B - np.sqrt(disc)) / (-2.0 * MILL_PHI_A)
    u2 = (MILL_ALPHA_C * w[1] / w[0]) ** 0.25 * ssum ** (-0.2)
    x_ref = np.array([w[0], x2, w[1]])
    u_ref = np.array([w[0], u2])
    return x_ref, u_ref


# ---------------------------------------------------------------------------
# plain-text LTI matrix files: header "n_p m q p", then A B C D P_x P_y S
# row-major, whitespace separated

def dump_lti(sys, path):
    lines = [f"{sys.n_p} {sys.m} {sys.q} {sys.p}"]
    for M in (sys.A, sys.B, sys.C, sys.D, sys.P_x, sys.P_y, sys.S):
        for row in np.atleast_2d(M):
            lines.append(" ".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_lti(path):
    with open(path) as fh:
        tokens = fh.read().split()
    if len(tokens) < 4:
        raise ShapeError(f"{path}: missing dimension header")
    n, m, q, p = (int(t) for t in tokens[:4])
    vals = [float(t) for t in tokens[4:]]
    need = n * n + n * m + p * n + p * m + n * q + p * q + q * q
    if len(vals) != need:
        raise ShapeError(f"{path}: expected {need} matrix entries, found {len(vals)}")
    out = []
    at = 0
    for rows, cols in ((n, n), (n, m), (p, n), (p, m), (n, q), (p, q), (q, q)):
        out.append(np.array(vals[at:at + rows * cols]).reshape(rows, cols))
        at += rows * cols
    return LinearSystem(*out)


def resolve_model(name):
    """Model lookup for config files: academic | cement_mill | lti:<path>."""
    if name == "academic":
        return academic_example()
    if name == "cement_mill":
        return cement_mill()
    if name.startswith("lti:"):
        return load_lti(name[4:]).to_system_model(name=name)
    raise DomainError(f"unknown model {name!r}")
