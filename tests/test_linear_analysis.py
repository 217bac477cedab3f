import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import linalg as sla

from conftest import random_linear
from oracles import RegulatorFeedback, classical_regulator_feedback, linear_ioss_certificate
from regfree_mpc import config as cfg
from regfree_mpc.augmentation import augment_linear
from regfree_mpc.errors import (DegenerateSystemError, DetectabilityError,
                                DomainError, NumericalError, ResonanceError,
                                ShapeError)
from regfree_mpc.linear_analysis import (QuadraticCertificate, alpha_s_of_horizon,
                                         analyze_linear, augmented_pair, dare,
                                         epsilon_o_generalized_eig,
                                         horizon_bounds, lqr_gain,
                                         nonresonance, observability_constant,
                                         pbh_detectable, pbh_stabilizable,
                                         regulator_residuals,
                                         relative_degree_and_zeros, rosenbrock,
                                         sigma_metric_dare,
                                         smallest_observability_window,
                                         solve_regulator, stage_cost_forms)
from regfree_mpc.models import (LinearSystem, academic_example, cement_mill,
                               cement_mill_regulator, resolve_model)
from regfree_mpc.errors import ObservabilityError


def scalar_sys(A, B, C, D, P_x=0.0, P_y=0.0, S=1.0):
    return LinearSystem(A=[[A]], B=[[B]], C=[[C]], D=[[D]],
                        P_x=[[P_x]], P_y=[[P_y]], S=[[S]])


# ---------------------------------------------------------------------------
# regulator equations

def test_solve_regulator_integrator_tracking():
    sys = scalar_sys(A=0.0, B=1.0, C=1.0, D=0.0, P_x=0.0, P_y=1.0, S=1.0)
    reg = solve_regulator(sys)
    assert np.allclose(reg.Pi, [[1.0]])
    assert np.allclose(reg.Gamma, [[1.0]])


def test_solve_regulator_homogeneous():
    sys = scalar_sys(A=0.5, B=1.0, C=1.0, D=-1.0, P_x=0.0, P_y=0.0, S=1.0)
    reg = solve_regulator(sys)
    assert np.allclose(reg.Pi, 0.0, atol=1e-12)
    assert np.allclose(reg.Gamma, 0.0, atol=1e-12)


def test_solve_regulator_residuals_random(rng):
    for T in (1, 2, 4):
        sys = random_linear(rng, n=3, m=2, q=2, T=T)
        reg = solve_regulator(sys)
        r_dyn, r_out = regulator_residuals(sys, reg)
        assert r_dyn < 1e-9 and r_out < 1e-9


def test_solve_regulator_resonance():
    # transmission zero of the academic plant at 1.5 collides with S = 1.5
    sys = scalar_sys(A=0.5, B=1.0, C=1.0, D=-1.0, P_x=1.0, P_y=1.0, S=1.5)
    with pytest.raises(ResonanceError):
        solve_regulator(sys)


def test_solve_regulator_empty_exosystem():
    reg = solve_regulator(academic_example().linear)
    assert reg.Pi.shape == (1, 0) and reg.Gamma.shape == (1, 0)
    assert reg(np.zeros(0))[0] == pytest.approx([0.0])


# ---------------------------------------------------------------------------
# nonresonance / Rosenbrock

def test_nonresonance_academic_passes():
    rep = nonresonance(academic_example().linear, T=1)
    assert rep.passed and len(rep.entries) == 1
    # det G(1) = -0.5 for this 2x2 block matrix
    G = rosenbrock(academic_example().linear, 1.0)
    assert np.linalg.det(G).real == pytest.approx(-0.5)


def test_rosenbrock_singular_at_transmission_zero():
    G = rosenbrock(academic_example().linear, 1.5)
    smin = np.linalg.svd(G, compute_uv=False)[-1]
    assert smin < 1e-12


def test_nonresonance_trivial_integrator():
    sys = scalar_sys(A=0.0, B=1.0, C=1.0, D=0.0)
    rep = nonresonance(sys, T=1)
    assert rep.passed


def test_nonresonance_requires_square(rng):
    sys = random_linear(rng, n=2, m=2, p=1)
    with pytest.raises(ShapeError):
        nonresonance(sys, T=1)
    with pytest.raises(DomainError, match="period T must be >= 1"):
        nonresonance(random_linear(rng, n=2, m=1, p=1), T=0)


def test_nonresonance_complex_roots(rng):
    sys = random_linear(rng, n=3, m=1, q=0, T=1)
    rep = nonresonance(sys, T=3)
    lams = sorted((e.lam for e in rep.entries), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    want = sorted((np.exp(2j * np.pi * k / 3) for k in range(3)),
                  key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert np.allclose(lams, want)


# ---------------------------------------------------------------------------
# PBH

def test_pbh_examples():
    assert pbh_detectable([[0.5]], [[0.0]])
    assert not pbh_detectable([[2.0]], [[0.0]])
    assert pbh_detectable(np.diag([2.0, 0.1]), [[1.0, 0.0]])
    assert pbh_stabilizable([[0.5]], [[0.0]])
    assert not pbh_stabilizable([[2.0]], [[0.0]])


# distinct eigenvalues, so that each eigenspace is one vector: real ones (+-1 on the unit
# circle) and complex pairs given as (modulus, angle), inside, on and outside the circle
_PBH_REALS = (0.3, -0.6, 1.0, -1.0, 1.4, -1.25)
_PBH_PAIRS = ((0.7, 0.9), (1.0, 2.0), (1.2, 1.1), (1.0, 0.6), (1.5, 2.6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5), p=st.integers(1, 3),
       m=st.integers(1, 3), hide_from_c=st.integers(-1, 4), hide_from_b=st.integers(-1, 4))
def test_pbh_tests_agree_with_eigenvectors(seed, n, p, m, hide_from_c, hide_from_b):
    """Property: on random non-symmetric MIMO systems, pbh_detectable and pbh_stabilizable
    agree with an eigenvector oracle.  A = V diag(blocks) V^-1 with a random V; C = Cm V^-1
    and B = V Bm, with every entry of Cm and Bm at least 0.5 in size, except that the columns
    of Cm (rows of Bm) of block hide_from_c (hide_from_b) are zero when it is >= 0, which
    plants a mode that C does not see (B does not reach).  The oracle: every eigenvalue with
    |lam| >= 1 needs C v != 0 for its right eigenvector v and w^H B != 0 for its left one w."""
    rng = np.random.default_rng(seed)
    reals, pairs = list(rng.permutation(_PBH_REALS)), list(rng.permutation(len(_PBH_PAIRS)))
    blocks = []
    while (size := sum(map(len, blocks))) < n:
        if n - size >= 2 and pairs and rng.random() < 0.6:
            r, th = _PBH_PAIRS[pairs.pop()]
            blocks.append(r * np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]]))
        else:
            blocks.append(np.array([[reals.pop()]]))
    start = np.cumsum([0] + [len(b) for b in blocks])
    outside = [max(abs(np.linalg.eigvals(b))) >= 1.0 - 1e-9 for b in blocks]
    Cm = rng.choice([-1.0, 1.0], (p, n)) * rng.uniform(0.5, 2.0, (p, n))
    Bm = rng.choice([-1.0, 1.0], (n, m)) * rng.uniform(0.5, 2.0, (n, m))
    k_c, k_b = hide_from_c % len(blocks), hide_from_b % len(blocks)
    if hide_from_c >= 0:
        Cm[:, start[k_c]:start[k_c + 1]] = 0.0
    if hide_from_b >= 0:
        Bm[start[k_b]:start[k_b + 1]] = 0.0
    V = rng.normal(size=(n, n))
    while np.linalg.cond(V) > 30.0:
        V = rng.normal(size=(n, n))
    Vi = np.linalg.inv(V)
    A, C, B = V @ sla.block_diag(*blocks) @ Vi, Cm @ Vi, V @ Bm
    assert not np.allclose(A, A.T)
    lam, left, right = sla.eig(A, left=True, right=True)
    unstable = np.abs(lam) >= 1.0 - 1e-6
    detectable = all(np.linalg.norm(C @ right[:, i]) > 1e-8 for i in np.flatnonzero(unstable))
    stabilizable = all(np.linalg.norm(left[:, i].conj() @ B) > 1e-8
                       for i in np.flatnonzero(unstable))
    # the planted mode is the only one the oracle can find
    assert detectable == (hide_from_c < 0 or not outside[k_c])
    assert stabilizable == (hide_from_b < 0 or not outside[k_b])
    assert pbh_detectable(A, C) == detectable
    assert pbh_stabilizable(A, B) == stabilizable


def test_augmented_pair_academic():
    aug, verdict, predicted = augmented_pair(academic_example().linear, T=1)
    assert aug.A.shape == (2, 2) and aug.C.shape == (1, 2)   # (p, n + m*T)
    assert verdict and predicted


def zero_at_one_system():
    """Square system doctored so the transfer matrix is singular at lambda = 1."""
    A = np.array([[0.3, 0.1], [0.0, 0.4]])
    B = np.array([[1.0, 0.0], [0.2, 1.0]])
    C = np.array([[1.0, 0.0], [0.0, 1.0]])
    T1 = C @ np.linalg.solve(np.eye(2) - A, B)
    D = -T1 + np.outer([1.0, 0.5], [0.3, 0.1])   # rank-one remainder: singular at 1
    return LinearSystem(A=A, B=B, C=C, D=D, P_x=np.zeros((2, 0)),
                        P_y=np.zeros((2, 0)), S=np.zeros((0, 0)))


def test_augmented_pair_flips_on_resonant_zero():
    sys = zero_at_one_system()
    rep = nonresonance(sys, T=1)
    assert not rep.passed
    _, verdict, predicted = augmented_pair(sys, T=1)
    assert not verdict and not predicted


def test_augmented_pair_equivalence_random(rng):
    # the Prop.-8-style equivalence, exercised over random and doctored systems
    agree = 0
    for trial in range(120):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 3))
        T = int(rng.integers(1, 7))
        sys = random_linear(rng, n=n, m=m, q=0, T=1,
                            spectral=float(rng.uniform(0.3, 1.4)))
        _, verdict, predicted = augmented_pair(sys, T)
        assert verdict == predicted
        agree += 1
    assert agree == 120


def test_analyze_linear_tests_the_base_pair_once(monkeypatch):
    """Base detectability and nonresonance feed the report and the prediction alike."""
    import regfree_mpc.linear_analysis as la
    calls = []
    for name in ("nonresonance", "pbh_detectable"):
        def counted(*args, _name=name, _orig=getattr(la, name)):
            calls.append(_name)
            return _orig(*args)
        monkeypatch.setattr(la, name, counted)
    rep = la.analyze_linear(academic_example().linear, T=1, N=12, Q=np.eye(1), R=np.eye(1))
    assert calls.count("nonresonance") == 1
    assert calls.count("pbh_detectable") == 2      # the base pair and the augmented pair
    assert rep.augmented_predicted == (rep.detectable and rep.nonres.passed)


# ---------------------------------------------------------------------------
# Riccati

def test_dare_trivial_cases():
    assert np.allclose(dare([[0.0]], [[1.0]], [[1.0]], [[1.0]]).P, [[1.0]])
    # no usable control: Lyapunov limit 1/(1 - 0.25)
    P = dare([[0.5]], [[0.0]], [[1.0]], [[1.0]]).P
    assert np.allclose(P, [[4.0 / 3.0]], rtol=1e-10)
    with pytest.raises(ValueError):     # the certificate cannot be edited past its PSD check
        P[0, 0] = -1.0
    # Q = -1 makes the first doubling step's I + G H singular
    with pytest.raises(NumericalError, match="singular doubling step"):
        dare([[0.0]], [[1.0]], [[-1.0]], [[1.0]])


def test_dare_rejects_unstabilizable_pair_at_once():
    """No stabilizing solution exists: raise before the recursion grows or overflows."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in ([[1.0]], [[2.0]]):
            with pytest.raises(NumericalError):
                dare(A, [[0.0]], [[1.0]], [[1.0]])


def test_dare_matches_scipy_oracle(rng):
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        sys = random_linear(rng, n=n, m=m, q=0)
        Q = np.eye(n)
        R = np.eye(m)
        P = dare(sys.A, sys.B, Q, R).P
        P_ref = sla.solve_discrete_are(sys.A, sys.B, Q, R)
        assert np.allclose(P, P_ref, rtol=1e-8, atol=1e-10)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5), m=st.integers(1, 3),
       rho=st.floats(0.2, 1.3), cross=st.booleans())
def test_dare_matches_scipy_on_random_weights(seed, n, m, rho, cross):
    """Property: doubling agrees with scipy for PSD [[Q, S], [S', R]], R > 0, S zero or not."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= rho / max(abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, m))
    assume(pbh_stabilizable(A, B))
    Z = rng.normal(size=(n + m, n + m))
    M = Z @ Z.T
    M[n:, n:] += 0.1 * np.eye(m)
    Q, S, R = M[:n, :n], M[:n, n:], M[n:, n:]
    if not cross:
        S = np.zeros((n, m))
    P = dare(A, B, Q, R, S=S).P
    P_ref = sla.solve_discrete_are(A, B, Q, R, s=S)
    assert np.allclose(P, P_ref, rtol=1e-8, atol=1e-10)


def test_dare_marginal_closed_loop():
    """A closed-loop pole near 1: the plain recursion needs hundreds of steps, doubling a few."""
    P = dare([[0.999]], [[0.01]], [[1.0]], [[1.0]]).P
    P_ref = sla.solve_discrete_are([[0.999]], [[0.01]], [[1.0]], [[1.0]])
    assert np.allclose(P, P_ref, rtol=1e-8, atol=1e-10)


def test_dare_singular_input_weight_raises_at_once():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for R, S in (([[0.0]], None), ([[1.0, 1.0], [1.0, 1.0]], [[0.5, 0.5]])):
            with pytest.raises(NumericalError):
                dare([[0.5]], np.ones((1, len(R))), [[1.0]], R, S=S)


def test_dare_undetectable_unstable_mode_raises_without_warning():
    """Q cannot see the mode at 10, so the recursion's limit is not stabilizing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not detectable"):
            dare(np.diag([10.0, 0.99]), [[1.0], [0.01]], np.diag([0.0, 1.0]), [[1.0]])


def test_dare_non_stabilizing_limit_raises_without_warning():
    """The recursion converges to P = diag(0, 1.1328) with rho(A - BK) = 2: Q misses the mode at 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="not stabilizing"):
            dare([[2.0, 1.0], [0.0, 0.5]], [[1.0], [1.0]], np.diag([0.0, 1.0]), [[1.0]])


def test_analyze_dare_solve_budget(monkeypatch):
    """Deterministic work guard: the two DAREs of one analyze take at most 16 linear solves.

    Doubling measured 7 + 8; the fixed-point recursion it replaced took 25 + 38.
    """
    import regfree_mpc.linear_analysis as la
    spec = cfg.parse_config(cfg.read_config_file("academic_analyze"))
    sys = resolve_model(spec.model_name).linear
    inside, solves, orig_dare, orig_solve = [False], [], la.dare, np.linalg.solve

    def counted_dare(*args, **kw):
        inside[0] = True
        try:
            return orig_dare(*args, **kw)
        finally:
            inside[0] = False

    def counted_solve(*args, **kw):
        solves.append(inside[0])
        return orig_solve(*args, **kw)

    monkeypatch.setattr(la, "dare", counted_dare)
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    rep = la.analyze_linear(sys, spec.T, spec.N, spec.Q, spec.R, gamma_s=spec.gamma_s)
    assert rep.bounds.epsilon_o == pytest.approx(0.3342425493, abs=1e-8)
    assert 0 < sum(solves) <= 16


def test_dare_augmented_academic_regression():
    """LQR value matrix of the memory-augmented academic system (cost y^2 + du^2)."""
    aug = augment_linear(academic_example().linear, T=1)
    Mxx, Mxu, Muu = stage_cost_forms(aug, np.eye(1), np.eye(1))
    P = dare(aug.A, aug.B, Mxx, Muu, S=Mxu).P
    P_ref = sla.solve_discrete_are(aug.A, aug.B, Mxx, Muu, s=Mxu)
    assert np.allclose(P, P_ref, rtol=1e-9)
    frozen = np.array([[1.2712464243520633, -0.11091345996081363],
                       [-0.11091345996081363, 0.7358156163101495]])
    assert np.allclose(P, frozen, atol=1e-8)


def test_dare_residual_invariant(rng):
    sys = random_linear(rng, n=3, m=2, q=0)
    Q, R = np.eye(3), np.eye(2)
    P = dare(sys.A, sys.B, Q, R).P
    G = R + sys.B.T @ P @ sys.B
    res = Q + sys.A.T @ P @ sys.A - sys.A.T @ P @ sys.B @ np.linalg.solve(G, sys.B.T @ P @ sys.A) - P
    assert np.max(np.abs(res)) < 1e-9 * max(1.0, np.max(np.abs(P)))


def test_lqr_closed_loop_cost_equals_value(rng):
    """Simulated LQR cost telescopes to x0' P x0."""
    sys = random_linear(rng, n=3, m=1, q=0, spectral=0.8)
    Q, R = np.eye(3), np.eye(1)
    K, cert = lqr_gain(sys.A, sys.B, Q, R)
    for _ in range(5):
        x = rng.normal(size=3)
        expected = float(x @ cert.P @ x)
        total = 0.0
        for _ in range(200):
            u = K @ x
            total += float(x @ Q @ x + u @ R @ u)
            x = sys.A @ x + sys.B @ u
        assert total == pytest.approx(expected, rel=1e-6)


# ---------------------------------------------------------------------------
# epsilon_o and the observability constant

@pytest.fixture
def academic_augmented():
    aug = augment_linear(academic_example().linear, T=1)
    Q, R = np.eye(1), np.eye(1)
    return aug, Q, R, sigma_metric_dare(aug, Q, R)


def test_epsilon_o_reference_constant(academic_augmented):
    aug, Q, R, metric = academic_augmented
    eps = epsilon_o_generalized_eig(aug, Q, R, metric)
    assert eps == pytest.approx(0.3343, abs=1e-3)
    assert eps == pytest.approx(0.3342425493, abs=1e-8)   # frozen exact value


def test_epsilon_o_sigma_matched_cost():
    # cost x' P x with no input: the margin over its own metric is one
    P = np.array([[2.0, 0.3], [0.3, 1.0]])
    sys = LinearSystem(A=0.5 * np.eye(2), B=np.zeros((2, 0)), C=sla.cholesky(P),
                       D=np.zeros((2, 0)), P_x=np.zeros((2, 0)), P_y=np.zeros((2, 0)),
                       S=np.zeros((0, 0)))
    from regfree_mpc.linear_analysis import QuadraticCertificate
    eps = epsilon_o_generalized_eig(sys, np.eye(2), np.zeros((0, 0)),
                                    QuadraticCertificate(P=P))
    assert eps == pytest.approx(1.0, rel=1e-10)


def test_epsilon_o_homogeneity(academic_augmented):
    aug, Q, R, metric = academic_augmented
    base = epsilon_o_generalized_eig(aug, Q, R, metric)
    doubled = epsilon_o_generalized_eig(aug, 2.0 * Q, 2.0 * R, metric)
    assert doubled == pytest.approx(2.0 * base, rel=1e-10)
    from regfree_mpc.linear_analysis import QuadraticCertificate
    half_metric = QuadraticCertificate(P=0.5 * metric.P)
    assert epsilon_o_generalized_eig(aug, Q, R, half_metric) == pytest.approx(2.0 * base, rel=1e-10)
    with pytest.raises(NumericalError, match="metric is not positive definite"):
        epsilon_o_generalized_eig(aug, Q, R, QuadraticCertificate(P=0.0 * metric.P))
    with pytest.raises(DomainError, match="not PSD"):
        QuadraticCertificate(P=[[-1.0]])


def test_singular_stage_cost_form_has_no_margin():
    """n + T m > p + m: the closed-loop cost form is singular, so no round-off epsilon_o; nor
    is there one when D = 0 and R = 0 leave the input block of the stage cost singular."""
    sys = random_linear(np.random.default_rng(0), n=2, m=1)
    with pytest.raises(DomainError, match="state dimension n = 3"):
        analyze_linear(sys, T=1, N=12, Q=np.eye(1), R=np.eye(1))
    with pytest.raises(NumericalError, match="input block of the stage cost is singular"):
        epsilon_o_generalized_eig(scalar_sys(0.5, 1.0, 1.0, 0.0, S=0.0), np.eye(1),
                                  np.zeros((1, 1)), QuadraticCertificate(P=np.eye(1)))


def test_observability_window_academic(academic_augmented):
    aug, Q, R, metric = academic_augmented
    with pytest.raises(ObservabilityError):
        observability_constant(aug, Q, R, metric, nu=1)
    with pytest.raises(DomainError, match="nu must be >= 1"):
        observability_constant(aug, Q, R, metric, nu=0)
    nu, c_o = smallest_observability_window(aug, Q, R, metric)
    assert nu == 2
    assert c_o == pytest.approx(32.8159040498, rel=1e-6)   # frozen
    # C = D = 0 and R = 0: every stage cost is zero while x_nu still moves, at every window
    blind, unit = scalar_sys(0.5, 1.0, 0.0, 0.0, S=0.0), QuadraticCertificate(P=np.eye(1))
    with pytest.raises(ObservabilityError, match="no finite observability constant up to nu = 12"):
        smallest_observability_window(blind, np.eye(1), np.zeros((1, 1)), unit)


def test_observability_constant_pointwise_cost():
    """l >= sigma pointwise with nu = 1 gives c_o <= 1 (here: equality pattern)."""
    A = np.array([[0.0]])
    B = np.array([[0.0]])
    C = np.array([[1.0]])
    sys = LinearSystem(A=A, B=B, C=C, D=[[0.0]], P_x=np.zeros((1, 0)),
                       P_y=np.zeros((1, 0)), S=np.zeros((0, 0)))
    from regfree_mpc.linear_analysis import QuadraticCertificate
    metric = QuadraticCertificate(P=np.eye(1))
    c_o = observability_constant(sys, np.eye(1), np.eye(1), metric, nu=1)
    assert c_o <= 1.0 + 1e-12
    zero = scalar_sys(0.0, 0.0, 0.0, 0.0, S=0.0)     # and R = 0: no stage cost at all
    with pytest.raises(ObservabilityError, match="stage-cost form is identically zero"):
        observability_constant(zero, np.eye(1), np.zeros((1, 1)), metric, nu=1)


def test_observability_constant_homogeneity(academic_augmented):
    aug, Q, R, metric = academic_augmented
    from regfree_mpc.linear_analysis import QuadraticCertificate
    c1 = observability_constant(aug, Q, R, metric, nu=2)
    c2 = observability_constant(aug, Q, R,
                                QuadraticCertificate(P=2.0 * metric.P), nu=2)
    assert c2 == pytest.approx(2.0 * c1, rel=1e-10)


# ---------------------------------------------------------------------------
# horizon bounds

def test_horizon_bounds_reference_numbers(academic_augmented):
    aug, Q, R, metric = academic_augmented
    eps = epsilon_o_generalized_eig(aug, Q, R, metric)
    rep = horizon_bounds(gamma_s=1.0, epsilon_o=eps, N=12)
    assert 9.8 <= rep.N_1 <= 10.1
    assert rep.alpha_N == pytest.approx(1.0 - 1.0 / (eps ** 2 * 11.0))


def test_horizon_bounds_plain_arithmetic():
    rep = horizon_bounds(gamma_s=1.0, epsilon_o=1.0, N=3)
    assert rep.alpha_N == pytest.approx(0.5)
    assert rep.N_1 == pytest.approx(2.0)


def test_horizon_bounds_rejects_degenerate():
    with pytest.raises(DomainError):
        horizon_bounds(1.0, 1.0, N=1)
    with pytest.raises(DomainError):
        horizon_bounds(-1.0, 1.0, N=5)
    for bad in (np.nan, np.inf):
        for args in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(DomainError, match="must be positive and finite"):
                horizon_bounds(*args, N=5)
        with pytest.raises(DomainError, match="c_o positive"):
            horizon_bounds(1.0, 1.0, N=5, nu=1, c_o=bad)


def test_alpha_N_monotone_in_N():
    vals = [horizon_bounds(1.0, 0.3343, N=N).alpha_N for N in range(2, 60)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_alpha_Ns_tends_to_one_and_threshold_is_safe(academic_augmented):
    aug, Q, R, metric = academic_augmented
    eps = epsilon_o_generalized_eig(aug, Q, R, metric)
    nu, c_o = smallest_observability_window(aug, Q, R, metric)
    rep = horizon_bounds(1.0, eps, N=12, nu=nu, c_o=c_o)
    threshold = rep.N_Ybar_s
    for N in list(range(int(threshold) + 1, int(threshold) + 60)) + [1000, 5000]:
        assert alpha_s_of_horizon(1.0, eps, c_o, nu, N) > 0.0
    assert alpha_s_of_horizon(1.0, eps, c_o, nu, 100000) == pytest.approx(1.0, abs=1e-12)


def test_alpha_Ns_threshold_safe_random_constants(rng):
    for _ in range(200):
        eps = float(rng.uniform(0.05, 1.5))
        c_o = float(rng.uniform(0.1, 60.0))
        nu = int(rng.integers(1, 5))
        g = float(rng.uniform(0.5, 4.0))
        rep = horizon_bounds(g, eps, N=max(2, 2 * nu), nu=nu, c_o=c_o)
        t = rep.N_Ybar_s
        for N in range(int(t) + 1, int(t) + 4 * nu + 2):
            assert alpha_s_of_horizon(g, eps, c_o, nu, N) > 0.0, (eps, c_o, nu, g, N)


# ---------------------------------------------------------------------------
# relative degree and zeros

def test_relative_degree_academic():
    d, zeros, minphase = relative_degree_and_zeros(academic_example().linear)
    assert d == -1                      # direct feedthrough
    assert len(zeros) == 1 and zeros[0] == pytest.approx(1.5)
    assert not minphase


def test_relative_degree_double_integrator():
    sys = LinearSystem(A=[[0.0, 1.0], [0.0, 0.0]], B=[[0.0], [1.0]],
                       C=[[1.0, 0.0]], D=[[0.0]], P_x=np.zeros((2, 0)),
                       P_y=np.zeros((1, 0)), S=np.zeros((0, 0)))
    d, zeros, minphase = relative_degree_and_zeros(sys)
    assert d == 1
    assert zeros == []
    assert minphase


def test_relative_degree_degenerate():
    sys = LinearSystem(A=[[0.5]], B=[[1.0]], C=[[0.0]], D=[[0.0]],
                       P_x=np.zeros((1, 0)), P_y=np.zeros((1, 0)), S=np.zeros((0, 0)))
    with pytest.raises(DegenerateSystemError):
        relative_degree_and_zeros(sys)
    with pytest.raises(ShapeError, match="SISO"):
        relative_degree_and_zeros(random_linear(np.random.default_rng(0), n=2, m=2, p=2))


def test_minimum_phase_flag(rng):
    # place one stable zero via D on a SISO system and check the flag
    A = np.array([[0.4]])
    B = np.array([[1.0]])
    C = np.array([[1.0]])
    for z, want in ((0.5, True), (1.5, False)):
        D = np.array([[C[0, 0] * B[0, 0] / (A[0, 0] - z)]])
        sys = LinearSystem(A=A, B=B, C=C, D=D, P_x=np.zeros((1, 0)),
                           P_y=np.zeros((1, 0)), S=np.zeros((0, 0)))
        _, zeros, minphase = relative_degree_and_zeros(sys)
        assert any(abs(zz - z) < 1e-9 for zz in zeros)
        assert minphase == want


# ---------------------------------------------------------------------------
# i-IOSS certificate

def test_ioss_certificate_contractive_scalar():
    cert, rho_o, c1, c2 = linear_ioss_certificate([[0.5]], [[1.0]])
    assert rho_o <= 0.25
    assert cert.P[0, 0] > 0.0


def test_ioss_certificate_unstable_observable(rng):
    A = np.array([[2.0]])
    C = np.array([[1.0]])
    B = np.array([[1.0]])
    D = np.array([[0.0]])
    cert, rho_o, c1, c2 = linear_ioss_certificate(A, C, B, D)
    assert rho_o < 1.0
    P = cert.P
    # dissipation residual >= 0 on random tuples
    for _ in range(1000):
        e = rng.normal(size=1)
        du = rng.normal(size=1)
        dy = C @ e + D @ du
        e_next = A @ e + B @ du - 0.0
        lhs = float(e_next @ P @ e_next)
        rhs = rho_o * float(e @ P @ e) + c1 * float(du @ du) + c2 * float(dy @ dy)
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_ioss_certificate_undetectable():
    with pytest.raises(DetectabilityError):
        linear_ioss_certificate([[2.0]], [[0.0]])


# ---------------------------------------------------------------------------
# classical feedback baseline

def test_classical_feedback_deadbeat():
    sys = scalar_sys(A=0.5, B=1.0, C=1.0, D=0.0, P_x=0.0, P_y=1.0, S=1.0)
    reg = solve_regulator(sys)
    fb = classical_regulator_feedback(sys, reg, K=[[-0.5]])
    w = np.array([2.0])
    x = reg(w)[0] + np.array([1.0])
    u = fb(x, w)
    x_next = sys.A @ x + sys.B @ u + sys.P_x @ w
    assert x_next == pytest.approx(reg(w)[0], abs=1e-12)


def test_classical_feedback_manifold_invariance():
    sys = scalar_sys(A=0.5, B=1.0, C=1.0, D=0.0, P_x=0.3, P_y=1.0, S=1.0)
    reg = solve_regulator(sys)
    fb = classical_regulator_feedback(sys, reg, K=[[-0.2]])
    w = np.array([1.7])
    x = reg(w)[0]
    for _ in range(20):
        u = fb(x, w)
        assert u == pytest.approx(reg(w)[1], abs=1e-12)
        x = sys.A @ x + sys.B @ u + sys.P_x @ w
        w = sys.S @ w
        assert np.linalg.norm(x - reg(w)[0]) < 1e-10


def test_classical_feedback_rejects_unstable_gain():
    sys = scalar_sys(A=1.2, B=1.0, C=1.0, D=0.0)
    reg = solve_regulator(sys)
    with pytest.raises(DomainError, match="spectral radius"):
        classical_regulator_feedback(sys, reg, K=[[0.0]])


def test_classical_feedback_mill_linearization():
    """LQR on the local linearization converges on the nonlinear plant."""
    mill = cement_mill()
    w = np.array([110.0, 425.0])
    x_ref, u_ref = cement_mill_regulator(w)
    Fx, Fu, _ = mill.jacobians_f(x_ref, u_ref, w)
    K, _ = lqr_gain(Fx, Fu, np.eye(3), np.eye(2))
    assert max(abs(np.linalg.eigvals(Fx + Fu @ K))) < 1.0
    fb = RegulatorFeedback(cement_mill_regulator, K)
    x = x_ref + np.array([2.0, 1.0, 3.0])
    errs = []
    for _ in range(400):
        u = np.clip(fb(x, w), mill.input_lo, mill.input_hi)
        x = mill.f_p(x, u, w)
        errs.append(np.linalg.norm(x - x_ref))
    assert errs[-1] < 1e-6
    assert all(b < a for a, b in zip(errs[20:-1], errs[21:]))


# ---------------------------------------------------------------------------
# E0 spectrum (shared invariant with the augmentation module)

def test_cyclic_matrix_spectrum():
    from regfree_mpc.augmentation import cyclic_matrices
    for m, T in ((1, 2), (2, 3), (1, 6)):
        E0, _, _ = cyclic_matrices(m, T)
        got = np.sort_complex(np.linalg.eigvals(E0))
        want = np.sort_complex(np.repeat(np.exp(2j * np.pi * np.arange(T) / T), m))
        assert np.allclose(got, want, atol=1e-9)
