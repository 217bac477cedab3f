"""Periodic input-memory augmentation.

The plant is extended with a memory xi_t = (u_{t-1}, ..., u_{t-T}) of the
last T applied inputs (newest first) so that the input increment
u^a_t = u_t - u_{t-T} becomes the new control.  E0 is the block cyclic
permutation driving the memory, E1 injects the increment and E2 reads the
oldest block back out.
"""

import numpy as np

from .errors import DomainError, ShapeError
from .models import LinearSystem


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
