"""Discrete-time plant/exosystem/output models and the built-in examples.

A model is the triple (f_p, s, h) on plant state x^p, exosystem state w and
input u, together with an input box.  Continuous-time vector fields enter
through one classical RK4 step per sample (`rk4_discretize`), taken on
Python floats at one point and on numpy rows only in the stacked Jacobian.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError, NumericalError, ShapeError

Array = np.ndarray


_FD_H_REL = 1e-6


def fd_jacobian(fun, x):
    """Central-difference Jacobian of fun at x with per-coordinate step."""
    x = np.asarray(x, dtype=float)
    f0 = np.atleast_1d(np.asarray(fun(x), dtype=float))
    J = np.zeros((f0.size, x.size))
    for i in range(x.size):
        step = _FD_H_REL * (1.0 + abs(x[i]))
        xp = x.copy(); xp[i] += step
        xm = x.copy(); xm[i] -= step
        J[:, i] = (np.atleast_1d(fun(xp)) - np.atleast_1d(fun(xm))) / (2.0 * step)
    return J


def _constant_jacobians(*blocks):
    """jac_f/jac_h callable that returns the same matrices at every point of a stack."""
    return lambda x, u, w: tuple(np.broadcast_to(M, (len(x),) + M.shape) for M in blocks)


def _jacobians(jac, fun, rows, x, u, w):
    """Stacked Jacobians of fun; a 1-D point is evaluated as a stack of one."""
    x, u, w = (np.asarray(a, dtype=float) for a in (x, u, w))
    one = x.ndim == 1
    if one:
        x, u, w = x[None], u[None], w[None]
    if jac is not None:
        out = jac(x, u, w)
    else:   # central differences over the joint point (x, u, w), split by columns
        n, m, q = x.shape[1], u.shape[1], w.shape[1]
        J = np.array([fd_jacobian(lambda z: fun(z[:n], z[n:n + m], z[n + m:]), np.concatenate(pt))
                      for pt in zip(x, u, w)]).reshape(len(x), rows, n + m + q)
        out = (J[..., :n], J[..., n:n + m], J[..., n + m:])
    return tuple(J[0] for J in out) if one else out


@dataclass(frozen=True)
class SystemModel:
    """Discrete-time model x+ = f_p(x,u,w), w+ = s(w), y = h(x,u,w).

    Jacobian callables are optional; central finite differences are used
    where they are absent.  `h` takes one point or a stack of K points,
    (K, n_p), (K, m), (K, q), and returns (p,) or (K, p); `jac_f` and `jac_h`
    take such stacks and return (K, ...) arrays.  `linear` tags exactly
    linear models, whose matrices are treated as constant: the OCP's J_r and
    GN Hessian are kept once per (linear, MpcConfig), and from the second solve
    on, the all-free step operator M with them (`mpc._Linearisation`).
    `Ocp.dense_matrices` gives their closed-form reference.
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
    jac_f: Optional[Callable] = None    # stacked (x,u,w) -> (Fx, Fu, Fw)
    jac_h: Optional[Callable] = None    # stacked (x,u,w) -> (Hx, Hu, Hw)
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

    def step(self, x, u, w):
        xn = np.asarray(self.f_p(x, u, w), dtype=float)
        if not np.isfinite(xn).all():
            raise NumericalError(f"non-finite state update at x={x}, u={u}")
        return xn

    def jacobians_f(self, x, u, w):
        """(Fx, Fu, Fw) at one point, or (K, ...) stacks at a stack of K points."""
        return _jacobians(self.jac_f, self.f_p, self.n_p, x, u, w)

    def jacobians_h(self, x, u, w):
        """(Hx, Hu, Hw) at one point, or (K, ...) stacks at a stack of K points."""
        return _jacobians(self.jac_h, self.h, self.p, x, u, w)

    def jacobian_s(self, w):
        if self.jac_s is not None:
            return self.jac_s(w)
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
            return x @ C.T + u @ D.T - w @ P_y.T

        return SystemModel(
            n_p=self.n_p, m=self.m, q=self.q, p=self.p,
            f_p=f_p, s=s, h=h,
            input_lo=input_lo, input_hi=input_hi,
            jac_f=_constant_jacobians(A, B, P_x),
            jac_h=_constant_jacobians(C, D, -P_y),
            jac_s=lambda w: S,
            linear=self, name=name,
        )


def rk4_step(ode, x, u, w, dt):
    """One classical RK4 step of x' = ode(x,u,w) with u, w frozen, at one point.

    The stages run on Python floats, whose IEEE arithmetic gives the bits
    numpy float64 gives.  Where numpy reads inf or NaN but a float operation
    raises (an overflowing `**`) or turns complex (a negative base to a
    fractional power), every coordinate of the step is NaN.
    """
    x, u, w = x.tolist(), u.tolist(), w.tolist()
    h = 0.5 * dt
    try:
        k1 = ode(x, u, w)
        k2 = ode([a + h * k for a, k in zip(x, k1)], u, w)
        k3 = ode([a + h * k for a, k in zip(x, k2)], u, w)
        k4 = ode([a + dt * k for a, k in zip(x, k3)], u, w)
    except ArithmeticError:
        return np.full(len(x), np.nan)
    out = np.array([a + dt / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                    for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)])
    return np.full(len(x), np.nan) if out.dtype.kind == "c" else out


def rk4_step_jacobians(ode_jac, ode, x, u, w, dt):
    """(Fx, Fu, Fw) of the RK4 map at a stack of K points, chained through the four stages.

    x, u, w are (K, n), (K, m), (K, q).  `ode` gets the stages as coordinate
    rows of K values; `ode_jac` returns (Gx, Gu, Gw) and is evaluated once, on
    the 4K stacked stage points.  [Gu Gw] is chained as one block.
    """
    K, n = x.shape
    m = u.shape[1]
    I = np.eye(n)

    def stage(xs):   # the coordinate-form ode on a stack, as a (K, n) array
        return np.array(ode(xs.T, u.T, w.T)).T

    k1 = stage(x)
    x2 = x + 0.5 * dt * k1
    k2 = stage(x2)
    x3 = x + 0.5 * dt * k2
    k3 = stage(x3)
    x4 = x + dt * k3
    Gx, Gu, Gw = ode_jac(np.concatenate([x, x2, x3, x4]), np.tile(u, (4, 1)), np.tile(w, (4, 1)))
    A1, A2, A3, A4 = Gx.reshape(4, K, n, n)
    B1, B2, B3, B4 = np.concatenate([Gu, Gw], axis=-1).reshape(4, K, n, m + w.shape[1])
    K1x, K1u = A1, B1
    K2x = A2 @ (I + 0.5 * dt * K1x)
    K2u = A2 @ (0.5 * dt * K1u) + B2
    K3x = A3 @ (I + 0.5 * dt * K2x)
    K3u = A3 @ (0.5 * dt * K2u) + B3
    K4x = A4 @ (I + dt * K3x)
    K4u = A4 @ (dt * K3u) + B4
    Fx = I + dt / 6.0 * (K1x + 2.0 * K2x + 2.0 * K3x + K4x)
    Fuw = dt / 6.0 * (K1u + 2.0 * K2u + 2.0 * K3u + K4u)
    return Fx, Fuw[..., :m], Fuw[..., m:]


def rk4_discretize(ode, dt, *, n_p, m, q, p, h, input_lo=None, input_hi=None,
                   ode_jac=None, jac_h=None, name="rk4"):
    """SystemModel whose f_p is one RK4 step of ode, with a constant exosystem w+ = w.

    `ode(x, u, w)` takes coordinates and returns the n coordinates of x':
    x[i] is a float in the point step `f_p` and a row of K values in the
    stacked stages of `jac_f`.  `ode_jac` and `jac_h`, if given, take (K, ·)
    stacks (see `SystemModel`); `ode_jac` returns (Gx, Gu, Gw), as `jac_f` does.
    """
    if dt <= 0:
        raise DomainError("dt must be positive")

    def f_p(x, u, w):
        return rk4_step(ode, np.asarray(x, dtype=float), u, w, dt)

    jac_f = None
    if ode_jac is not None:
        def jac_f(x, u, w):
            return rk4_step_jacobians(ode_jac, ode, x, u, w, dt)

    return SystemModel(n_p=n_p, m=m, q=q, p=p, f_p=f_p, s=lambda w: w, h=h,
                       input_lo=input_lo, input_hi=input_hi,
                       jac_f=jac_f, jac_h=jac_h, jac_s=lambda w: np.eye(q), name=name)


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


# The mill functions take coordinates: x[i] is a float at one point and a row
# of K values on a stack.  The clamp v * (v > 0) works on both and, unlike
# np.maximum, adds no call overhead to the per-point rollout.

def mill_phi(x2):
    """Grinding-rate curve, clamped at zero."""
    v = MILL_PHI_A * x2 * x2 + MILL_PHI_B * x2
    return v * (v > 0.0)


def _recycle(p, u2):
    """Separator recycle fraction at grinding rate p = mill_phi(x2), in (0,1) for p, u2 > 0."""
    g = p ** 0.8 * u2 ** 4
    return g / (MILL_ALPHA_C + g)


# The right-hand sides are divided by MILL_SCALE: the circuit is written in
# the singularly perturbed form diag(MILL_SCALE) x' = g(x, u).
_S1, _S2, _S3 = MILL_SCALE.tolist()


def _mill_ode(x, u, w):
    x3 = x[2]
    p = mill_phi(x[1])
    a = _recycle(p, u[1])
    return [(-x[0] + (1.0 - a) * p) / _S1, (-p + u[0] + x3) / _S2, (-x3 + a * p) / _S3]


def _mill_ode_jac(x, u, w):
    x2, u2 = x.T[1], u.T[1]
    parg = MILL_PHI_A * x2 * x2 + MILL_PHI_B * x2
    on = parg > 0.0
    p = np.where(on, parg, 0.0)
    dp = np.where(on, 2.0 * MILL_PHI_A * x2 + MILL_PHI_B, 0.0)
    p08, u24 = p ** 0.8, u2 ** 4
    g = p08 * u24
    den = MILL_ALPHA_C + g
    a = g / den
    # d(alpha)/dx2 appears only in products with phi, which stay bounded at the
    # clamp; there dp = 0 zeroes the numerator, so divide by 1 and not by 0
    dg_dx2 = 0.8 * p08 * dp * u24 / np.where(on, p, 1.0)
    dg_du2 = 4.0 * p08 * u2 ** 3
    den2 = den ** 2
    da_dx2 = MILL_ALPHA_C / den2 * dg_dx2
    da_du2 = MILL_ALPHA_C / den2 * dg_du2
    Gx = np.zeros(x.shape[:-1] + (3, 3))
    Gu = np.zeros(x.shape[:-1] + (3, 2))
    Gx[..., 0, 0] = -1.0
    Gx[..., 0, 1] = (1.0 - a) * dp - p * da_dx2
    Gu[..., 0, 1] = -p * da_du2
    Gx[..., 1, 1] = -dp
    Gx[..., 1, 2] = 1.0
    Gu[..., 1, 0] = 1.0
    Gx[..., 2, 1] = a * dp + p * da_dx2
    Gx[..., 2, 2] = -1.0
    Gu[..., 2, 1] = p * da_du2
    return Gx / MILL_SCALE[:, None], Gu / MILL_SCALE[:, None], np.zeros(x.shape[:-1] + (3, 2))


def _mill_h(x, u, w):
    xt, wt = x.T, w.T
    return np.array([xt[0] - wt[0], xt[2] - wt[1]]).T


_MILL_HX = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def cement_mill():
    """RK4 discretization of the milling circuit at a one-minute sample."""
    return rk4_discretize(
        _mill_ode, MILL_DT, n_p=3, m=2, q=2, p=2,
        h=_mill_h, input_lo=MILL_INPUT_LO, input_hi=MILL_INPUT_HI,
        ode_jac=_mill_ode_jac,
        jac_h=_constant_jacobians(_MILL_HX, np.zeros((2, 2)), -np.eye(2)),
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
# row-major, whitespace separated, every entry finite

def load_lti(path):
    """The LinearSystem in the file at path; ShapeError for a bad header, DomainError for a bad
    entry, each naming the path and the token (a byte that is not UTF-8 reads as U+FFFD)."""
    def parsed(part, kind, error, what):
        for t in part:
            try:
                yield kind(t)
            except ValueError:
                raise error(f"{path}: " + what.format(t)) from None

    with open(path, errors="replace") as fh:
        tokens = fh.read().split()
    if len(tokens) < 4:
        raise ShapeError(f"{path}: missing dimension header")
    n, m, q, p = parsed(tokens[:4], int, ShapeError, "header token {!r} is not an integer")
    if min(n, m, q, p) < 0:
        raise ShapeError(f"{path}: dimension header {n} {m} {q} {p} has a negative entry")
    vals = list(parsed(tokens[4:], float, DomainError, "matrix entry {!r} is not a number"))
    need = n * n + n * m + p * n + p * m + n * q + p * q + q * q
    if len(vals) != need:
        raise ShapeError(f"{path}: expected {need} matrix entries, found {len(vals)}")
    if not np.isfinite(vals).all():
        raise DomainError(f"{path}: matrix entries must be finite")
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
