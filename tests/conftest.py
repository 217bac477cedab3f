import numpy as np
import pytest

from regfree_mpc.models import LinearSystem


def random_linear(rng, n, m, p=None, q=0, T=1, spectral=0.9, feedthrough=0.3):
    """Well-scaled random LTI with a T-periodic exosystem block structure."""
    p = m if p is None else p
    A = rng.normal(size=(n, n))
    rho = max(abs(np.linalg.eigvals(A)))
    if rho > 1e-9:
        A *= spectral / rho
    B = rng.normal(size=(n, m))
    C = rng.normal(size=(p, n))
    D = feedthrough * rng.normal(size=(p, m))
    P_x = 0.3 * rng.normal(size=(n, q))
    P_y = 0.3 * rng.normal(size=(p, q))
    S = periodic_exosystem(q, T)
    return LinearSystem(A=A, B=B, C=C, D=D, P_x=P_x, P_y=P_y, S=S)


def write_lti(sys, path):
    """The plain-text LTI file that `load_lti` reads: header "n_p m q p", then the
    matrices A B C D P_x P_y S row by row, each entry as its exact repr."""
    lines = [f"{sys.n_p} {sys.m} {sys.q} {sys.p}"]
    for M in (sys.A, sys.B, sys.C, sys.D, sys.P_x, sys.P_y, sys.S):
        lines += [" ".join(repr(float(v)) for v in row) for row in np.atleast_2d(M)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def periodic_exosystem(q, T):
    """S with S^T = I: 2x2 rotation blocks by 2*pi/T plus identity padding."""
    S = np.eye(q)
    if q >= 2 and T >= 2:
        th = 2.0 * np.pi / T
        S[:2, :2] = [[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]
    return S


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
