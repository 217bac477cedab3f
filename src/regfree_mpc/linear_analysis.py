"""Closed-form machinery for linear systems.

Regulator Sylvester solve, PBH tests, Rosenbrock nonresonance ranks,
augmented-pair detectability, a discrete Riccati solver, the suboptimality
constants (epsilon_o, c_o) and the horizon bounds built from them.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .augmentation import augment_linear
from .errors import (DegenerateSystemError, DomainError, NumericalError,
                     ObservabilityError, ResonanceError, ShapeError)
from .models import LinearSystem

Array = np.ndarray


def rank_tolerance(svals, dim):
    """Singular-value threshold: max-dim * eps * largest-sv * 1e3."""
    smax = float(svals[0]) if len(svals) else 0.0
    return dim * np.finfo(float).eps * max(smax, 1.0) * 1e3


def _min_singular_value(M):
    svals = np.linalg.svd(M, compute_uv=False)
    return float(svals[-1]), rank_tolerance(svals, max(M.shape))


# ---------------------------------------------------------------------------
# regulator equations

@dataclass(frozen=True)
class RegulatorSolution:
    """Pi, Gamma with Pi S = A Pi + B Gamma + P_x and C Pi + D Gamma = P_y."""

    Pi: Array
    Gamma: Array

    def __post_init__(self):
        object.__setattr__(self, "Pi", np.atleast_2d(np.asarray(self.Pi, dtype=float)))
        object.__setattr__(self, "Gamma", np.atleast_2d(np.asarray(self.Gamma, dtype=float)))

    def __call__(self, w):
        """The regulator map w -> (pi_x(w), pi_u(w)) = (Pi w, Gamma w)."""
        w = np.asarray(w, dtype=float)
        return self.Pi @ w, self.Gamma @ w


def regulator_residuals(sys: LinearSystem, reg: RegulatorSolution):
    r_dyn = reg.Pi @ sys.S - (sys.A @ reg.Pi + sys.B @ reg.Gamma + sys.P_x)
    r_out = sys.C @ reg.Pi + sys.D @ reg.Gamma - sys.P_y
    return float(np.linalg.norm(r_dyn)), float(np.linalg.norm(r_out))


def solve_regulator(sys: LinearSystem) -> RegulatorSolution:
    """Solve the linear regulator equations by Kronecker lifting."""
    n, m, p, q = sys.n_p, sys.m, sys.p, sys.q
    if q == 0:
        return RegulatorSolution(Pi=np.zeros((n, 0)), Gamma=np.zeros((m, 0)))
    Iq = np.eye(q)
    # unknowns z = [vec(Pi); vec(Gamma)], column-major vec
    top = np.hstack([np.kron(sys.S.T, np.eye(n)) - np.kron(Iq, sys.A), -np.kron(Iq, sys.B)])
    bot = np.hstack([np.kron(Iq, sys.C), np.kron(Iq, sys.D)])
    M = np.vstack([top, bot])
    rhs = np.concatenate([sys.P_x.flatten(order="F"), sys.P_y.flatten(order="F")])
    z, _, rank, svals = np.linalg.lstsq(M, rhs, rcond=None)
    if rank < n * q + m * q or np.linalg.norm(M @ z - rhs) > 1e-8 * max(1.0, np.linalg.norm(rhs)):
        lam = _closest_resonant_eigenvalue(sys)
        raise ResonanceError(
            f"regulator equations are rank deficient; eigenvalue {lam} of S "
            f"is (near) a transmission zero")
    Pi = z[:n * q].reshape((n, q), order="F")
    Gamma = z[n * q:].reshape((m, q), order="F")
    return RegulatorSolution(Pi=Pi, Gamma=Gamma)


def _closest_resonant_eigenvalue(sys):
    lams = np.linalg.eigvals(sys.S)
    worst, smin_worst = None, np.inf
    for lam in lams:
        smin, _ = _min_singular_value(rosenbrock(sys, lam))
        if smin < smin_worst:
            worst, smin_worst = lam, smin
    return worst


# ---------------------------------------------------------------------------
# Rosenbrock matrix, nonresonance, PBH

def _rosenbrock_pencil(sys: LinearSystem):
    """(M0, M1) with G(lambda) = M0 - lambda M1: M0 = [[A, B], [C, D]], M1 = diag(I_n, 0)."""
    M0 = np.vstack([np.hstack([sys.A, sys.B]), np.hstack([sys.C, sys.D])])
    M1 = np.eye(*M0.shape)
    M1[sys.n_p:, sys.n_p:] = 0.0
    return M0, M1


def rosenbrock(sys: LinearSystem, lam):
    """G(lambda) = [[A - lambda I, B], [C, D]]."""
    M0, M1 = _rosenbrock_pencil(sys)
    return M0 - lam * M1


@dataclass(frozen=True)
class NonresonanceEntry:
    k: int
    lam: complex
    smin: float
    passed: bool


@dataclass(frozen=True)
class NonresonanceReport:
    entries: tuple
    passed: bool


def nonresonance(sys: LinearSystem, T: int) -> NonresonanceReport:
    """Rank of G at every T-th root of unity; full rank at all of them passes."""
    if sys.m != sys.p:
        raise ShapeError(f"nonresonance test needs a square system, got m={sys.m}, p={sys.p}")
    if T < 1:
        raise DomainError("period T must be >= 1")
    entries = []
    for k in range(T):
        lam = complex(np.exp(2j * np.pi * k / T))
        smin, tol = _min_singular_value(rosenbrock(sys, lam))
        entries.append(NonresonanceEntry(k=k, lam=lam, smin=smin, passed=smin > tol))
    return NonresonanceReport(entries=tuple(entries), passed=all(e.passed for e in entries))


def pbh_stabilizable(A, B) -> bool:
    """rank [A - lam I, B] = n at every eigenvalue with |lam| >= 1."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if abs(lam) < 1.0 - 1e-9:
            continue
        smin, tol = _min_singular_value(np.hstack([A - lam * np.eye(n), B]))
        if smin <= tol:
            return False
    return True


def pbh_detectable(A, C) -> bool:
    """rank [A - lam I; C] = n at every eigenvalue with |lam| >= 1: (A', C') is stabilizable."""
    return pbh_stabilizable(*(np.atleast_2d(np.asarray(M, dtype=float)).T for M in (A, C)))


def augmented_pair(sys: LinearSystem, T: int):
    """The T-memory augmented system, its PBH detectability verdict and the nonresonance prediction."""
    return _augmented_pair(sys, T, pbh_detectable(sys.A, sys.C), nonresonance(sys, T))


def _augmented_pair(sys, T, detectable, nonres):
    """augmented_pair from the base pair's detectability and nonresonance report."""
    aug = augment_linear(sys, T)
    return aug, pbh_detectable(aug.A, aug.C), detectable and nonres.passed


# ---------------------------------------------------------------------------
# Riccati machinery

@dataclass(frozen=True)
class QuadraticCertificate:
    P: Array

    def __post_init__(self):
        P = np.atleast_2d(np.asarray(self.P, dtype=float))
        P = 0.5 * (P + P.T)
        object.__setattr__(self, "P", P)
        lam_min = float(np.linalg.eigvalsh(P)[0]) if P.size else 0.0
        if lam_min < -1e-9 * max(1.0, float(np.linalg.norm(P))):
            raise DomainError(f"certificate matrix is not PSD (lambda_min = {lam_min})")


_DARE_TOL = 1e-12
_DARE_MAX_DOUBLINGS = 64


def dare(A, B, Q, R, S=None):
    """Stabilizing DARE solution by structure-preserving doubling.

    With the cross term S: P = Q + A'PA - (A'PB + S)(R + B'PB)^-1 (B'PA + S').
    R must be positive definite; a singular R raises NumericalError.  The
    cross term is folded in, A_ = A - B R^-1 S', H = Q - S R^-1 S',
    G = B R^-1 B', and each doubling step is one solve,
    [V1 V2] = (I + G H)^-1 [A_ G], then H += A_' H V1, G += A_ V2 A_',
    A_ = A_ V1.  Doubling step k returns iterate 2^k of the Riccati
    recursion started from P = 0, so the limit is the recursion's, reached
    in about log2 of its step count (Anderson 1978).  A pair (A, B) that is
    not stabilizable has no stabilizing solution and is rejected up front.
    An unstable mode that Q does not see makes A_ grow without bound; the
    solver raises NumericalError when that overflows before H converges, or
    when H converges while A_ has not decayed (spectral radius >= 1): that
    limit is not the stabilizing solution.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    if not pbh_stabilizable(A, B):
        raise NumericalError("(A, B) is not stabilizable: no stabilizing Riccati solution")
    n, m = B.shape
    S = np.zeros((n, m)) if S is None else np.atleast_2d(np.asarray(S, dtype=float))
    try:
        RiST, RiBT = np.split(np.linalg.solve(R, np.hstack([S.T, B.T])), [n], axis=1)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("singular input weight R in the Riccati equation") from exc
    Ah = A - B @ RiST
    H = Q - S @ RiST
    G = B @ RiBT
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(_DARE_MAX_DOUBLINGS):
            try:
                V1, V2 = np.split(np.linalg.solve(np.eye(n) + G @ H, np.hstack([Ah, G])), [n], axis=1)
            except np.linalg.LinAlgError as exc:
                raise NumericalError("singular doubling step in the Riccati solver") from exc
            dH = Ah.T @ H @ V1
            dH = 0.5 * (dH + dH.T)
            H = H + dH
            G = G + Ah @ V2 @ Ah.T
            Ah = Ah @ V1
            if not np.all(np.isfinite(H)):
                raise NumericalError("Riccati doubling diverged: the recursion's limit is not "
                                     "stabilizing ((A, Q) is not detectable)")
            if np.max(np.abs(dH)) <= _DARE_TOL * max(1.0, float(np.max(np.abs(H)))):
                # A_ is now a high power of the closed loop of H: it has decayed
                # unless H leaves a mode in place that Q does not see
                if np.all(np.isfinite(Ah)) and max(abs(np.linalg.eigvals(Ah))) < 1.0:
                    return QuadraticCertificate(P=H)
                raise NumericalError("Riccati doubling converged to a solution that is not "
                                     "stabilizing ((A, Q) is not detectable)")
    raise NumericalError(f"Riccati doubling did not converge in {_DARE_MAX_DOUBLINGS} steps")


def lqr_gain(A, B, Q, R, S=None):
    """(K, P) with u = Kx minimizing the (cross-term) quadratic cost."""
    A, B, R = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, R))
    n, m = B.shape
    S = np.zeros((n, m)) if S is None else np.atleast_2d(np.asarray(S, dtype=float))
    cert = dare(A, B, Q, R, S=S)
    K = -np.linalg.solve(R + B.T @ cert.P @ B, B.T @ cert.P @ A + S.T)
    return K, cert


def stage_cost_forms(sys: LinearSystem, Q, R):
    """Quadratic forms (Mxx, Mxu, Muu) of ||Cx + Du||_Q^2 + ||u||_R^2."""
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    Mxx = sys.C.T @ Q @ sys.C
    Mxu = sys.C.T @ Q @ sys.D
    Muu = sys.D.T @ Q @ sys.D + R
    return Mxx, Mxu, Muu


def sigma_metric_dare(sys: LinearSystem, Q, R) -> QuadraticCertificate:
    """LQR Riccati metric with the feedthrough folded into the input weight.

    Output weight C'QC, input weight R + D'QD, no cross coupling.  This is
    the metric against which the reported suboptimality constants are
    normalized.
    """
    Mxx, _, Muu = stage_cost_forms(sys, Q, R)
    return dare(sys.A, sys.B, Mxx, Muu)


def gen_eig_range(M, P):
    """(min, max) generalized eigenvalues of (M, P) with P > 0."""
    from scipy import linalg as sla
    try:
        vals = sla.eigh(M, P, eigvals_only=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("metric is not positive definite") from exc
    return float(vals[0]), float(vals[-1])


def epsilon_o_generalized_eig(sys: LinearSystem, Q, R,
                              sigma_metric: QuadraticCertificate) -> float:
    """Stage-cost margin over the sigma metric along the optimal feedback.

    epsilon_o = min_x l(x, Kx) / ||x||_P^2 with K the LQR gain of the stage
    cost (cross terms included) and P the supplied metric; this is the
    smallest generalized eigenvalue of the closed-loop cost form against P.
    Its rank is at most p + m: when that eigenvalue is zero relative to the
    largest (always so for n > p + m), no margin exists and DomainError is raised.
    """
    Mxx, Mxu, Muu = stage_cost_forms(sys, Q, R)
    n, m = sys.n_p, sys.m
    if m == 0:
        closed = Mxx
    else:
        lam = np.linalg.eigvalsh(Muu)
        if lam[0] <= 0.0:
            raise NumericalError("input block of the stage cost is singular")
        K, _ = lqr_gain(sys.A, sys.B, Mxx, Muu, S=Mxu)
        F = np.vstack([np.eye(n), K])
        M = np.block([[Mxx, Mxu], [Mxu.T, Muu]])
        closed = F.T @ M @ F
    lo, hi = gen_eig_range(closed, sigma_metric.P)
    if lo <= rank_tolerance([hi], n):
        raise DomainError(f"no stage-cost margin epsilon_o: the closed-loop cost form (rank <= "
                          f"p + m = {sys.p + sys.m}) is singular on the state dimension n = {n}")
    return lo


def observability_constant(sys: LinearSystem, Q, R,
                           sigma_metric: QuadraticCertificate, nu: int) -> float:
    """Worst-case c_o with sigma(x_nu) <= c_o * sum of nu stage costs.

    Largest generalized eigenvalue of the lifted quadratic forms in
    (x_0, u_0..u_{nu-1}).  A stage-cost null direction that still moves
    sigma(x_nu) means no finite constant exists for this window.
    """
    if nu < 1:
        raise DomainError("nu must be >= 1")
    Mxx, Mxu, Muu = stage_cost_forms(sys, Q, R)
    n, m = sys.n_p, sys.m
    nz = n + nu * m
    Phi = np.zeros((n, nz))
    Phi[:, :n] = np.eye(n)
    Den = np.zeros((nz, nz))
    for k in range(nu):
        U = np.zeros((m, nz))
        U[:, n + k * m:n + (k + 1) * m] = np.eye(m)
        Den += Phi.T @ Mxx @ Phi + Phi.T @ Mxu @ U + U.T @ Mxu.T @ Phi + U.T @ Muu @ U
        Phi = sys.A @ Phi + sys.B @ U
    Num = Phi.T @ sigma_metric.P @ Phi
    w, V = np.linalg.eigh(0.5 * (Den + Den.T))
    cut = 1e-10 * max(1.0, float(w[-1]))
    null = V[:, w <= cut]
    if null.shape[1]:
        leak = float(np.linalg.norm(null.T @ Num @ null))
        if leak > 1e-9 * max(1.0, float(np.linalg.norm(Num))):
            raise ObservabilityError(
                f"nu = {nu} is insufficient: zero-cost directions still move sigma")
    keep = V[:, w > cut]
    if keep.shape[1] == 0:
        raise ObservabilityError("stage-cost form is identically zero")
    _, hi = gen_eig_range(keep.T @ Num @ keep, keep.T @ Den @ keep)
    return hi


_NU_MAX = 12


def smallest_observability_window(sys: LinearSystem, Q, R,
                                  sigma_metric: QuadraticCertificate):
    """Smallest nu up to _NU_MAX with a finite c_o, and that c_o."""
    for nu in range(1, _NU_MAX + 1):
        try:
            return nu, observability_constant(sys, Q, R, sigma_metric, nu)
        except ObservabilityError:
            continue
    raise ObservabilityError(f"no finite observability constant up to nu = {_NU_MAX}")


# ---------------------------------------------------------------------------
# horizon bounds

@dataclass(frozen=True)
class BoundsReport:
    gamma_s: float
    epsilon_o: float
    alpha_N: float
    N_1: float
    nu: Optional[int] = None
    c_o: Optional[float] = None
    alpha_Ns: Optional[float] = None
    N_Ybar_s: Optional[float] = None


def alpha_s_of_horizon(gamma_s, epsilon_o, c_o, nu, N):
    N_nu = (N - nu) // nu
    g = gamma_s * c_o
    return 1.0 - (gamma_s * gamma_s * c_o / epsilon_o) * (g / (g + 1.0)) ** N_nu


def horizon_bounds(gamma_s, epsilon_o, N, nu=None, c_o=None) -> BoundsReport:
    """Suboptimality index and stabilizing-horizon thresholds on an unbounded
    level set Ybar, where gamma_Ybar = gamma_{Ybar,s} = gamma_s.

    alpha_N = 1 - gamma_s gamma_Ybar / (eps_o^2 (N-1)) and
    N_1 = 1 + gamma_s gamma_Ybar / eps_o^2.  With an observability window
    (nu, c_o) the exponential variant alpha_{N,s} and its threshold
    N_{Ybar,s} are added.  The threshold is rounded outward so that every
    integer N above it has alpha_{N,s} > 0 despite the floor in N_nu.
    """
    if N <= 1:
        raise DomainError("horizon N must be >= 2", key="N")
    for name, v in (("gamma_s", gamma_s), ("epsilon_o", epsilon_o)):
        if not 0.0 < v < math.inf:
            raise DomainError(f"{name} must be positive and finite", key=name)
    alpha_N = 1.0 - gamma_s * gamma_s / (epsilon_o ** 2 * (N - 1))
    N_1 = 1.0 + gamma_s * gamma_s / epsilon_o ** 2
    alpha_Ns = N_Ybar_s = None
    if nu is not None and c_o is not None:
        if nu < 1 or not 0.0 < c_o < math.inf:
            raise DomainError("nu must be >= 1 and c_o positive and finite")
        alpha_Ns = alpha_s_of_horizon(gamma_s, epsilon_o, c_o, nu, N)
        g = gamma_s * c_o
        theta = math.log(gamma_s * gamma_s * c_o / epsilon_o) / (math.log(g + 1.0) - math.log(g))
        # floored N_nu needs N_nu >= floor(theta)+1, i.e. N >= nu*(floor(theta)+2)
        N_Ybar_s = nu * (math.floor(theta) + 1) + nu - 1 if theta >= 0.0 else 2 * nu - 1
    return BoundsReport(gamma_s=gamma_s, epsilon_o=epsilon_o, alpha_N=alpha_N, N_1=N_1,
                        nu=nu, c_o=c_o, alpha_Ns=alpha_Ns, N_Ybar_s=N_Ybar_s)


# ---------------------------------------------------------------------------
# relative degree, transmission zeros

def relative_degree_and_zeros(sys: LinearSystem):
    """(d, zeros, minimum_phase) for a SISO system.

    d is the index of the first nonzero Markov parameter C A^d B (the input
    reaches the output d+1 steps later); d = -1 flags direct feedthrough.
    Zeros are the finite rank drops of the Rosenbrock pencil.
    """
    if sys.m != 1 or sys.p != 1:
        raise ShapeError("relative degree is defined here for SISO systems only")
    scale = max(1.0, float(np.linalg.norm(sys.A)), float(np.linalg.norm(sys.B)),
                float(np.linalg.norm(sys.C)))
    tol = 1e4 * np.finfo(float).eps * scale
    if abs(sys.D[0, 0].item()) > tol:
        d = -1
    else:
        d = None
        Ak = np.eye(sys.n_p)
        for k in range(sys.n_p + 1):
            if abs((sys.C @ Ak @ sys.B).item()) > tol:
                d = k
                break
            Ak = sys.A @ Ak
        if d is None:
            raise DegenerateSystemError("identically zero input-output map")
    from scipy import linalg as sla
    alphas, betas = sla.eigvals(*_rosenbrock_pencil(sys), homogeneous_eigvals=True)
    zeros = []
    for a, b in zip(alphas, betas):
        if abs(b) > 1e-9 * max(1.0, abs(a)):
            zeros.append(complex(a / b))
    zeros.sort(key=lambda z: (z.real, z.imag))
    minimum_phase = all(abs(z) < 1.0 for z in zeros)
    return d, zeros, minimum_phase


# ---------------------------------------------------------------------------
# one-call analysis used by the CLI

@dataclass(frozen=True)
class AnalysisReport:
    T: int
    N: int
    residual_dynamics: float
    residual_output: float
    detectable: bool
    stabilizable: bool
    nonres: NonresonanceReport
    augmented_detectable: bool
    augmented_predicted: bool
    bounds: BoundsReport
    relative_degree: Optional[int] = None
    zeros: Optional[tuple] = None
    minimum_phase: Optional[bool] = None


def analyze_linear(sys: LinearSystem, T: int, N: int, Q, R,
                   gamma_s: float = 1.0) -> AnalysisReport:
    """Certificates and horizon bounds for the T-augmented incremental design."""
    reg = solve_regulator(sys)
    r_dyn, r_out = regulator_residuals(sys, reg)
    det = pbh_detectable(sys.A, sys.C)
    stab = pbh_stabilizable(sys.A, sys.B)
    nonres = nonresonance(sys, T)
    aug, verdict, predicted = _augmented_pair(sys, T, det, nonres)
    sigma_metric = sigma_metric_dare(aug, Q, R)
    eps_o = epsilon_o_generalized_eig(aug, Q, R, sigma_metric)
    nu, c_o = smallest_observability_window(aug, Q, R, sigma_metric)
    bounds = horizon_bounds(gamma_s=gamma_s, epsilon_o=eps_o, N=N, nu=nu, c_o=c_o)
    rd = zeros = minphase = None
    if sys.m == 1 and sys.p == 1:
        try:
            rd, zeros_list, minphase = relative_degree_and_zeros(sys)
            zeros = tuple(zeros_list)
        except DegenerateSystemError:
            pass
    return AnalysisReport(T=T, N=N, residual_dynamics=r_dyn, residual_output=r_out,
                          detectable=det, stabilizable=stab, nonres=nonres,
                          augmented_detectable=verdict, augmented_predicted=predicted,
                          bounds=bounds, relative_degree=rd, zeros=zeros, minimum_phase=minphase)
