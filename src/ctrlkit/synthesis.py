"""Gain-matrix synthesis.

Pole placement via Ackermann's formula, a continuous algebraic Riccati
solver built on the stable invariant subspace of the Hamiltonian, the
rank-one-decomposition robust gain method, interval-polynomial gain
regions, and the eigenvalue sweep tables.

Gains are plain 1-D arrays k with the single-input convention u = -k' x,
so the closed loop is A - B k'.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .models import sip_design_pair, sip_frozen_coefficients
from .numerics import nnmf_rank1
from .stability import IntervalPoly


@dataclass(frozen=True)
class RobustConfig:
    """Tuning knobs of the robust Riccati synthesis."""

    a_bar: float
    b_bar: float
    epsilon: float
    Q: np.ndarray
    R: np.ndarray  # 1x1 for single input

    def __post_init__(self):
        if self.a_bar < 0 or self.b_bar < 0:
            raise ValueError("a_bar and b_bar must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "Q", np.atleast_2d(np.asarray(self.Q, dtype=float)))
        object.__setattr__(self, "R", np.atleast_2d(np.asarray(self.R, dtype=float)))
        if not np.linalg.eigvalsh(self.R).min() > 0:
            raise ValueError("R must be positive definite")


@dataclass(frozen=True)
class UncertaintyBounds:
    """Element-wise magnitude bounds on the model deviation, each rank <= 1."""

    dA_max: np.ndarray
    dB_max: np.ndarray

    def __post_init__(self):
        dA = np.atleast_2d(np.asarray(self.dA_max, dtype=float))
        dB = np.asarray(self.dB_max, dtype=float)
        if dB.ndim == 1:
            dB = dB.reshape(-1, 1)
        if (dA < 0).any() or (dB < 0).any():
            raise ValueError("uncertainty bounds must be non-negative")
        object.__setattr__(self, "dA_max", dA)
        object.__setattr__(self, "dB_max", dB)


@dataclass(frozen=True)
class CareNoSolution:
    """Riccati outcome without a positive definite solution.

    Carries the M and Q actually used so a caller can retune (raise a_bar
    and b_bar somewhat, lower epsilon somewhat) and try again.
    """

    M: np.ndarray
    Q: np.ndarray
    p_eigenvalues: np.ndarray


def design_gain_matrix(A, B, desired_eigs):
    """Single-input pole placement (Ackermann), u = -k' x convention.

    Eigenvalues of A - B k' match desired_eigs; the request must be closed
    under conjugation.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).ravel()
    n = A.shape[0]
    if A.shape != (n, n) or B.size != n:
        raise ValueError("A must be n x n and B length n")
    desired = np.asarray(desired_eigs, dtype=complex).ravel()
    if desired.size != n:
        raise ValueError("need exactly n desired eigenvalues")
    coeffs = np.poly(desired)  # descending, monic
    if np.max(np.abs(coeffs.imag)) > 1e-9:
        raise ValueError("desired eigenvalues must be closed under conjugation")
    coeffs = coeffs.real

    cols = [B]
    for _ in range(n - 1):
        cols.append(A @ cols[-1])
    C = np.column_stack(cols)
    sv = np.linalg.svd(C, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise ValueError("(A, B) is not controllable")
    if sv[0] / sv[-1] > 1e10:
        warnings.warn(f"controllability matrix condition {sv[0] / sv[-1]:.3g} is poor; "
                      "the placed poles may be inaccurate", stacklevel=2)

    phi = np.zeros((n, n))
    for c in coeffs:
        phi = phi @ A + c * np.eye(n)
    e_n = np.zeros(n)
    e_n[-1] = 1.0
    return np.linalg.solve(C.T, e_n) @ phi


def _care_residual(P, A, M, Q):
    return P @ A + A.T @ P - P @ M @ P + Q


def solve_care(A, M, Q):
    """Solve P A + A' P - P M P + Q = 0 for a symmetric positive definite P.

    Constructed from the stable invariant subspace [X1; X2] of the
    Hamiltonian [[A, -M], [-Q, -A']] as P = X2 X1^-1, symmetrized, then
    refined by a few Newton steps (Lyapunov solves on the closed loop) so
    the residual lands well below the 1e-8 contract.

    Returns P, or a CareNoSolution value when the candidate is not
    positive definite (a legitimate outcome the tuning rule consumes).
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    n = A.shape[0]
    ham = np.block([[A, -M], [-Q, -A.T]])
    if np.min(np.abs(np.linalg.eigvals(ham).real)) <= 1e-9:
        raise ValueError("Hamiltonian has eigenvalues on the imaginary axis")
    _, Z, sdim = scipy.linalg.schur(ham, output="real", sort="lhp")
    if sdim != n:
        raise ValueError(f"stable Hamiltonian subspace has dimension {sdim}, expected {n}")
    X1 = Z[:n, :n]
    X2 = Z[n:, :n]
    sv = np.linalg.svd(X1, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise np.linalg.LinAlgError("stable-subspace X1 block is singular")
    P = X2 @ np.linalg.inv(X1)
    P = (P + P.T) / 2

    res = _care_residual(P, A, M, Q)
    rnorm = np.linalg.norm(res, "fro")
    target = 1e-12 * (1 + np.linalg.norm(Q, "fro"))
    for _ in range(5):
        if rnorm <= target:
            break
        try:
            delta = scipy.linalg.solve_continuous_lyapunov((A - M @ P).T, -res)
        except Exception:
            break
        P_next = P + delta
        P_next = (P_next + P_next.T) / 2
        res_next = _care_residual(P_next, A, M, Q)
        rnorm_next = np.linalg.norm(res_next, "fro")
        if rnorm_next >= rnorm:
            break
        P, res, rnorm = P_next, res_next, rnorm_next

    p_eigs = np.linalg.eigvalsh(P)
    if p_eigs.min() <= 0:
        return CareNoSolution(M=M, Q=Q, p_eigenvalues=p_eigs)
    return P


def robust_riccati_gain(A, B, bounds, cfg):
    """Robust full-state-feedback gain from rank-one uncertainty bounds.

    Decomposes dA_max = a_bar * a1 x1', dB_max = b_bar * b1 y1', builds the
    four auxiliary matrices, assembles M and Q_sigma, solves the Riccati
    equation, and returns k = P B (R + eps*Sigma_y)^-1 as a 1-D gain.

    Returns a CareNoSolution (carrying the assembled M and Q_sigma) when no
    positive definite P exists, so the caller can retune.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float).reshape(-1, 1)
    n = A.shape[0]
    eps = cfg.epsilon

    if bounds.dA_max.any():
        if cfg.a_bar == 0:
            raise ValueError("a_bar must be positive when dA_max is non-zero")
        w, h = nnmf_rank1(bounds.dA_max)
        a1 = w / cfg.a_bar
        sigma_a = cfg.a_bar * np.outer(a1, a1)
        sigma_x = cfg.a_bar * np.outer(h, h)
    else:
        sigma_a = np.zeros((n, n))
        sigma_x = np.zeros((n, n))
    if bounds.dB_max.any():
        if cfg.b_bar == 0:
            raise ValueError("b_bar must be positive when dB_max is non-zero")
        wb, hb = nnmf_rank1(bounds.dB_max)
        b1 = wb / cfg.b_bar
        sigma_b = cfg.b_bar * np.outer(b1, b1)
        sigma_y = cfg.b_bar * np.outer(hb, hb)
    else:
        sigma_b = np.zeros((n, n))
        sigma_y = np.zeros((1, 1))

    r_eff = cfg.R + eps * sigma_y
    r_inv = np.linalg.inv(r_eff)
    M = B @ r_inv @ (2 * cfg.R + eps * sigma_y) @ r_inv @ B.T - sigma_a - (1 / eps) * sigma_b
    q_sigma = sigma_x + cfg.Q

    P = solve_care(A, M, q_sigma)
    if isinstance(P, CareNoSolution):
        return P
    return (P @ B @ r_inv).ravel()


def char_poly_ascending(m):
    """Monic characteristic polynomial of a square matrix, ascending coeffs."""
    return np.poly(np.atleast_2d(np.asarray(m, dtype=float)))[::-1].copy()


def vertex_interval_char_poly(A_family, B_family, K):
    """Coefficient interval over the closed loops of all (A*, B*) pairs.

    Every A* from A_family is paired with every B* from B_family; the
    characteristic polynomial of A* - B* k' is evaluated at each pair and
    coefficient-wise min/max become the interval polynomial.
    """
    K = np.asarray(K, dtype=float).ravel()
    if not len(A_family) or not len(B_family):
        raise ValueError("vertex families must be non-empty")
    coeff_rows = []
    for A_v in A_family:
        A_v = np.atleast_2d(np.asarray(A_v, dtype=float))
        for B_v in B_family:
            B_v = np.asarray(B_v, dtype=float).ravel()
            coeff_rows.append(char_poly_ascending(A_v - np.outer(B_v, K)))
    coeff_rows = np.array(coeff_rows)
    return IntervalPoly(coeff_rows.min(axis=0), coeff_rows.max(axis=0))


def sip_region_bounds(K, a_hi, b_lo):
    """The two cascaded thresholds of the closed-form gain-region test.

    Returns (k2_bound, k1_bound) = (k3/b_lo, a_hi*k2 / (-b_lo*k2 + k3)).
    """
    k1, k2, k3 = np.asarray(K, dtype=float).ravel()
    k2_bound = k3 / b_lo
    k1_bound = a_hi * k2 / (-b_lo * k2 + k3)
    return float(k2_bound), float(k1_bound)


def sip_region_feasible(K, a_lo, a_hi, b_lo, b_hi):
    """Closed-form robust-gain region check for the 3-state pendulum model.

    Evaluates the inequality chain k3 < 0, k2 < k3/b_lo,
    k1 < a_hi*k2/(-b_lo*k2 + k3) — the reduction of the eight vertex
    Routh inequalities over a in [a_lo, a_hi], b in [b_lo, b_hi].
    """
    if not (0 < b_lo <= b_hi and 0 < a_lo <= a_hi):
        raise ValueError("parameter bounds must be positive and ordered")
    k1, k2, k3 = np.asarray(K, dtype=float).ravel()
    if not k3 < 0:
        return False
    k2_bound, k1_bound = sip_region_bounds(K, a_hi, b_lo)
    return bool(k2 < k2_bound and k1 < k1_bound)


def sip_partial_design_model(theta=0.0):
    """3-state (theta, theta_dot, x_dot) design matrices at a frozen angle.

    Exact trigonometric coefficients, no small-angle branch: A21 is
    G sin(theta)/theta and B2 is -cos(theta).
    """
    return sip_design_pair(*sip_frozen_coefficients(theta))


def eig_sweep(K, theta_grid):
    """Closed-loop eigenvalue real parts across an angle grid.

    Each row is (theta, real parts of eig(A_P(theta) - B_P(theta) k'))
    sorted by descending magnitude of the real part, the order the printed
    tables use.
    """
    K = np.asarray(K, dtype=float).ravel()
    rows = []
    for theta in theta_grid:
        A, B = sip_partial_design_model(theta)
        vals = np.linalg.eigvals(A - np.outer(B, K))
        re = vals.real
        order = np.argsort(-np.abs(re), kind="stable")
        rows.append((float(theta), re[order]))
    return rows
