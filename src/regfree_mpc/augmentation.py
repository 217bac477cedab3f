"""Periodic input-memory augmentation.

The plant is extended with a memory xi_t = (u_{t-1}, ..., u_{t-T}) of the
last T applied inputs (newest first) so that the input increment
u^a_t = u_t - u_{t-T} becomes the new control.  E0 is the block cyclic
permutation driving the memory, E1 injects the increment and E2 reads the
oldest block back out.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ShapeError
from .models import LinearSystem, SystemModel


def cyclic_matrices(m, T):
    """(E0, E1, E2) for input dimension m and period T."""
    if T < 1:
        raise DomainError("period T must be >= 1")
    mT = m * T
    E0 = np.zeros((mT, mT))
    E0[:m, (T - 1) * m:] = np.eye(m)
    for i in range(1, T):
        E0[i * m:(i + 1) * m, (i - 1) * m:i * m] = np.eye(m)
    E1 = np.zeros((mT, m))
    E1[:m, :] = np.eye(m)
    E2 = np.zeros((mT, m))
    E2[(T - 1) * m:, :] = np.eye(m)
    return E0, E1, E2


@dataclass(frozen=True)
class AugmentedPlant:
    base: SystemModel
    T: int
    E0: np.ndarray
    E1: np.ndarray
    E2: np.ndarray

    @property
    def m(self):
        return self.base.m

    def split(self, x_ap):
        n = self.base.n_p
        return x_ap[:n], x_ap[n:]

    def join(self, x_p, xi):
        return np.concatenate([np.asarray(x_p, float), np.asarray(xi, float)])

    def input_of(self, xi, u_a):
        return self.E2.T @ xi + u_a

    def f_ap(self, x_ap, u_a, w):
        x_p, xi = self.split(x_ap)
        u = self.input_of(xi, u_a)
        return np.concatenate([self.base.f_p(x_p, u, w), self.E0 @ xi + self.E1 @ u_a])

    def h_a(self, x_ap, u_a, w):
        x_p, xi = self.split(x_ap)
        return self.base.h(x_p, self.input_of(xi, u_a), w)

    def as_system_model(self):
        """The augmented plant as a SystemModel with unconstrained input."""
        base = self.base
        n, m, mT = base.n_p, base.m, base.m * self.T
        E0, E1, E2 = self.E0, self.E1, self.E2

        jac_f = None
        if base.jac_f is not None:
            def jac_f(x_ap, u_a, w):
                x_p, xi = self.split(x_ap)
                u = self.input_of(xi, u_a)
                Fx, Fu, Fw = base.jac_f(x_p, u, w)
                Fxa = np.block([[Fx, Fu @ E2.T], [np.zeros((mT, n)), E0]])
                Fua = np.vstack([Fu, E1])
                Fwa = np.vstack([Fw, np.zeros((mT, base.q))])
                return Fxa, Fua, Fwa

        jac_h = None
        if base.jac_h is not None:
            def jac_h(x_ap, u_a, w):
                x_p, xi = self.split(x_ap)
                u = self.input_of(xi, u_a)
                Hx, Hu, Hw = base.jac_h(x_p, u, w)
                return np.hstack([Hx, Hu @ E2.T]), Hu, Hw

        linear = None
        if base.linear is not None:
            linear = augment_linear(base.linear, self.T)

        return SystemModel(
            n_p=n + mT, m=m, q=base.q, p=base.p,
            f_p=self.f_ap, s=base.s, h=self.h_a,
            jac_f=jac_f, jac_h=jac_h, jac_s=base.jac_s,
            linear=linear, name=f"{base.name}+mem{self.T}",
        )


def build(base, T):
    """Augment a SystemModel with a T-step input memory."""
    if T < 1:
        raise DomainError("period T must be >= 1")
    E0, E1, E2 = cyclic_matrices(base.m, T)
    return AugmentedPlant(base=base, T=int(T), E0=E0, E1=E1, E2=E2)


def augment_linear(sys: LinearSystem, T: int) -> LinearSystem:
    """Linear matrices of the memory-augmented plant."""
    m = sys.m
    E0, E1, E2 = cyclic_matrices(m, T)
    n, mT, q = sys.n_p, m * T, sys.q
    A_a = np.block([[sys.A, sys.B @ E2.T], [np.zeros((mT, n)), E0]])
    B_a = np.vstack([sys.B, E1])
    C_a = np.hstack([sys.C, sys.D @ E2.T])
    P_xa = np.vstack([sys.P_x, np.zeros((mT, q))])
    return LinearSystem(A=A_a, B=B_a, C=C_a, D=sys.D, P_x=P_xa, P_y=sys.P_y, S=sys.S)


def wrap_memory(u_history, m=None):
    """Pack the last T applied inputs, newest first, into the memory vector."""
    hist = [np.atleast_1d(np.asarray(u, dtype=float)) for u in u_history]
    if not hist:
        raise ShapeError("memory history must contain at least one input")
    if m is not None and hist[0].size != m:
        raise ShapeError(f"history entries have dimension {hist[0].size}, expected {m}")
    return np.concatenate(hist)


def step_memory(xi, u_applied, m):
    """Slide the window: the applied input enters slot one, the oldest drops."""
    xi = np.asarray(xi, dtype=float)
    if xi.size % m != 0:
        raise ShapeError(f"memory length {xi.size} is not a multiple of m={m}")
    u = np.atleast_1d(np.asarray(u_applied, dtype=float))
    if u.size != m:
        raise ShapeError(f"input has dimension {u.size}, expected {m}")
    return np.concatenate([u, xi[:-m]])


def memory_reference(pi_u, s_fun, w, T, m):
    """Manifold value of the memory: (pi_u(s^{T-1} w), ..., pi_u(w)), newest first."""
    ws = [np.asarray(w, dtype=float)]
    for _ in range(T - 1):
        ws.append(np.asarray(s_fun(ws[-1]), dtype=float))
    return np.concatenate([np.atleast_1d(pi_u(wk)).reshape(m) for wk in reversed(ws)])
