"""Gain-matrix synthesis.

Pole placement via Ackermann's formula, a continuous algebraic Riccati
solver built on the stable invariant subspace of the Hamiltonian, the
rank-one-decomposition robust gain method, interval-polynomial gain
regions, and the eigenvalue sweep tables.

Gains are plain 1-D arrays k with the single-input convention u = -k' x,
so the closed loop is A - B k'.
"""

import cmath
import functools
import importlib.machinery
import importlib.util
import itertools
import math
import operator
import os
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .models import sip_design_pair, sip_frozen_coefficients
from .numerics import _rank_one, all_finite, finite_floats, lapack
from .stability import IntervalPoly


@dataclass(frozen=True)
class RobustConfig:
    """Tuning knobs of the robust Riccati synthesis; a_bar, b_bar and epsilon are kept as floats."""

    a_bar: float
    b_bar: float
    epsilon: float
    Q: np.ndarray
    R: np.ndarray  # 1x1 for single input

    def __post_init__(self):
        for name in ("a_bar", "b_bar", "epsilon"):
            values = finite_floats([getattr(self, name)], name)
            if len(values) != 1:
                raise ValueError(f"{name} must be a single number, got {len(values)} entries")
            object.__setattr__(self, name, values[0])
        if self.a_bar < 0 or self.b_bar < 0:
            raise ValueError("a_bar and b_bar must be non-negative")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        object.__setattr__(self, "Q", np.array(self.Q, dtype=float, copy=None, ndmin=2))
        object.__setattr__(self, "R", np.array(self.R, dtype=float, copy=None, ndmin=2))
        Q, R = self.Q, self.R
        for name, m in (("Q", Q), ("R", R)):
            if not m.size:
                raise ValueError(f"{name} must not be empty, got shape {m.shape}")
        _require_shape((1, 1), R=R)  # the synthesis is single-input
        if not 0 < R.item() < math.inf:  # a nan fails too; a 1x1 matrix's eigenvalue is its entry
            raise ValueError("R must be positive definite")
        # robust_riccati_gain reports a Q that is not a square matrix by its shape; a nan or inf entry
        # fails the finite test first. Then tol is numpy's; the pairs below the diagonal decide max|Q - Q'|.
        if Q.ndim == 2 and Q.shape[0] == Q.shape[1]:
            rows = Q.tolist()
            entries = [v for row in rows for v in row]
            tol = 1e-12 * max(map(abs, entries))
            if not (all(map(math.isfinite, entries))
                    and all([abs(rows[i][j] - rows[j][i]) <= tol for i in range(len(rows)) for j in range(i)])
                    and lapack.eigvalsh_lo(Q)[0] >= -tol):
                raise ValueError("Q must be symmetric positive semi-definite")


@dataclass(frozen=True)
class UncertaintyBounds:
    """Element-wise magnitude bounds on the model deviation, each rank <= 1."""

    dA_max: np.ndarray
    dB_max: np.ndarray

    def __post_init__(self):
        dA = np.array(self.dA_max, dtype=float, copy=None, ndmin=2)
        dB = np.asarray(self.dB_max, dtype=float)
        if dB.ndim == 1:
            dB = dB.reshape(-1, 1)
        if min(finite_floats(dA, "dA_max") + finite_floats(dB, "dB_max"), default=0.0) < 0:
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


def _monic_coefficients(desired_eigs, n):
    """Descending real coefficients of the monic polynomial with the n roots desired_eigs.

    np.poly(desired).real bit for bit while the coefficients are finite, on Python floats. np.poly
    convolves the coefficients c with (1, -z) once per root, and its correlate kernel forms entry k from
    a = c[k] and b = c[k-1] with w = -z as re = 0.0 + ((a_r + b_r w_r) - b_i w_i) and im = 0.0 + (b_r w_i
    + (a_i + b_i w_r)); the last entry has no a, and the first (no b) stays 1 + 0j. The 0.0 + is the
    kernel's zero start, which turns a -0.0 sum into +0.0. np.poly's exact conjugate-pair test only decides
    a request whose coefficients have an imaginary part above 1e-9. When every root's imaginary part is +-0.0,
    every im entry stays +0.0 and the 0.0 + drops b_i w_i's +-0.0: re alone is updated, in place from the end.
    """
    desired = np.asarray(desired_eigs, dtype=complex).ravel()
    if desired.size != n:
        raise ValueError("need exactly n desired eigenvalues")
    roots = desired.tolist()
    if not all(map(cmath.isfinite, roots)):
        raise ValueError("desired_eigs must be finite")
    if not any(desired.imag.tolist()):
        re = [1.0]
        for w in [-z.real for z in roots]:
            re.append(0.0 + re[-1] * w)
            for k in range(len(re) - 2, 0, -1):
                re[k] = 0.0 + (re[k] + re[k - 1] * w)
        return np.array(re)
    re, im = [1.0], [0.0]
    for z in roots:
        wr, wi = -z.real, -z.imag
        new_re, new_im = [1.0], [0.0]
        for ar, ai, br, bi in zip(re[1:], im[1:], re, im):
            new_re.append(0.0 + ((ar + br * wr) - bi * wi))
            new_im.append(0.0 + (br * wi + (ai + bi * wr)))
        br, bi = re[-1], im[-1]
        new_re.append(0.0 + (br * wr - bi * wi))
        new_im.append(0.0 + (br * wi + bi * wr))
        re, im = new_re, new_im
    if (max(map(abs, im)) > 1e-9 and not any(map(math.isnan, im))  # np.abs(imag).max() > 1e-9
            and not np.array_equal(np.sort(desired), np.sort(desired.conj()))):
        raise ValueError("desired eigenvalues must be closed under conjugation")
    return np.array(re)


def _check_controllability(s_max, s_min):
    if s_max == 0.0 or not s_min >= 1e-12 * s_max:
        raise ValueError("(A, B) is not controllable")
    if s_max / s_min > 1e10:
        warnings.warn(f"controllability matrix condition {s_max / s_min:.3g} is poor; "
                      "the placed poles may be inaccurate", stacklevel=3)


def design_gain_matrix(A, B, desired_eigs):
    """Single-input pole placement (Ackermann), u = -k' x convention.

    The characteristic polynomial of A - B k' is that of desired_eigs: each
    coefficient is within 1e-10 * (|c_i| + ||k|| ||C||) of the request's c_i,
    with C = [B, AB, ..., A^(n-1) B] and 2-norms, since the rounding of k
    reaches the coefficients through C (an empirical bound, held by random
    draws of sizes 3 to 6 with a margin of 6x or more).  The eigenvalues are
    not promised: repeated or clustered poles are ill-conditioned roots of
    that polynomial (dip_smc's six poles at -4 come out 5.6e-3 away).  The
    request must be closed under conjugation.  A, B and desired_eigs must be finite and A non-empty
    (ValueError naming the one that is not); a C, of any rank, or a gain that overflows raises one naming it.
    """
    A = np.array(A, dtype=float, copy=None, ndmin=2)
    B = np.asarray(B, dtype=float).ravel()
    n = A.shape[0]
    if not A.size:
        raise ValueError(f"A must not be empty, got shape {A.shape}")
    if A.shape != (n, n) or B.size != n:
        raise ValueError("A must be n x n and B length n")
    finite_floats(A, "A")
    finite_floats(B, "B")
    coeffs = _monic_coefficients(desired_eigs, n)

    Ct = np.empty((n, n))  # C' = [B, AB, ..., A^(n-1) B]', each row written by one A @ product
    Ct[0] = B
    for i in range(1, n):
        np.matmul(A, Ct[i - 1], out=Ct[i])
    # an entry that overflows spreads to every later column, so the SVD sees only a finite C
    if not all(map(math.isfinite, Ct[-1].tolist())) or (sv := lapack.svd(Ct.T).tolist())[0] == math.inf:
        raise ValueError("the controllability matrix [B, AB, ..., A^(n-1) B] overflows")
    _check_controllability(sv[0], sv[-1])

    # Horner's phi(A) = (...(A + c1 I) A + ...) + cn I; its first step, 0 A + 1 I,
    # is I exactly for a finite A, so the loop starts there. Each step adds the whole
    # c I in place: its off-diagonal c * 0.0 turns a -0.0 of the product into +0.0 for c > 0.
    eye = _identity(n)
    c_eye = coeffs[1:, None, None] * eye
    phi = eye
    for i in range(n):
        phi = phi @ A
        phi += c_eye[i]
    K = lapack.solve1(Ct, eye[-1]) @ phi
    if not all(map(math.isfinite, K.tolist())):
        raise ValueError("the pole-placement gain overflows")
    return K


@functools.cache
def _identity(n):
    """np.eye(n), read-only, one per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=None)
def sip_coefficients(poles):
    """(c2, c1, c0) of s^3 + c2 s^2 + c1 s + c0 with the hashable pole triple as roots; memoized."""
    return tuple(_monic_coefficients(poles, 3)[1:].tolist())


def sip_pole_gain(a, b, coeffs):
    """design_gain_matrix(*sip_design_pair(a, b), poles) bit for bit; coeffs = sip_coefficients(poles).

    On this sparse pair each sum in Ackermann's products has one nonzero term at
    most, so BLAS's order and fused multiply-adds move no bit, and w = C'^-1 e3 repeats
    the pivoting and float operations of LAPACK's LU solve (OpenBLAS 0.3.31, numpy 2.4.6).
    C's singular values are |b| and s_hi, s_lo with s_hi +- s_lo = hypot(b, 1 +- |ab|); within numpy's SVD
    rounding of the controllability thresholds the verdicts may differ. Overflows raise Ackermann's errors.
    """
    c2, c1, c0 = coeffs
    ab = a * b
    s_hi = math.hypot(b, 1.0 + abs(ab)) / 2.0 + math.hypot(b, 1.0 - abs(ab)) / 2.0  # halves: no sum overflows
    if s_hi == math.inf and math.isfinite(a) and math.isfinite(b):
        raise ValueError("the controllability matrix [B, AB, ..., A^(n-1) B] overflows")
    _check_controllability(s_hi, min(abs(ab) / s_hi, abs(b)))  # min keeps a nan ratio first
    if abs(ab) > abs(b):
        w1 = 1.0 / ab
        w2 = -(b * w1)
    else:
        w2 = 1.0 / -(ab * (1.0 / b))
        w1 = -w2 / b
    k1, k2, k3 = w1 * ((a + c1) * a), w1 * (c2 * a + c0), w2 * c0
    if not k1 - k1 == k2 - k2 == k3 - k3 == 0.0:  # x - x is nan for an inf or a nan
        raise ValueError("the pole-placement gain overflows")
    return np.array([k1, k2, k3])


def _require_shape(shape, **matrices):
    for name, m in matrices.items():
        if m.shape != shape:
            raise ValueError(f"{name} must be {shape[0]}x{shape[1]}, got shape {m.shape}")


def _care_residual(P, A, M, Q):
    return P @ A + A.T @ P - P @ M @ P + Q


def _frobenius(m):
    """np.linalg.norm(m, "fro") by its own fast path, sqrt(v.dot(v)) for v = m.ravel("K")."""
    return math.sqrt(m.ravel("K").dot(m.ravel("K")))


@functools.cache
def _scipy_lapack():
    """scipy.linalg._flapack, loaded alone on the first Riccati solve, not the scipy.linalg package;
    solve_care calls only its dgees and dtrsyl, the objects scipy.linalg.lapack re-exports."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy  # its __init__ sets up the bundled OpenBLAS search path on some platforms

    where = os.path.join(scipy.__path__[0], "linalg")
    spec = importlib.machinery.FileFinder(
        where, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)).find_spec(name)
    if spec is None:
        raise ImportError(f"scipy {scipy.__version__} has no compiled _flapack module in {where}", name=name)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lhp(re, im):
    """dgees's select function of sort="lhp"; with sort_t = 0 it is never called."""
    return re < 0.0


@functools.cache
def _dgees_lwork(n):
    """dgees's optimal workspace for an n x n matrix; the query reads the size only, never the entries."""
    return int(_scipy_lapack().dgees(_lhp, np.zeros((n, n)), lwork=-1)[-2][0])


def _real_schur(a, sort):
    """(T, Z, sdim) of scipy.linalg.schur(a, output="real", sort="lhp" if sort else None) by its dgees call."""
    t, sdim, _, _, z, _, info = _scipy_lapack().dgees(_lhp, a, lwork=_dgees_lwork(a.shape[0]), sort_t=sort)
    if info:
        raise np.linalg.LinAlgError(f"real Schur form failed (LAPACK dgees info {info})")
    return t, z, sdim


def _lyapunov(a, q):
    """scipy.linalg.solve_continuous_lyapunov(a, q), X with a X + X a' = q, for real square a, q."""
    if not (all_finite(a) and all_finite(q)):
        raise ValueError("array must not contain infs or NaNs")
    r, u, _ = _real_schur(a, 0)
    f = u.T.dot(q.dot(u))
    y, scale, info = _scipy_lapack().dtrsyl(r, r, f, tranb="T")
    if info:
        warnings.warn("Input \"a\" has an eigenvalue pair whose sum is very close to or "
                      "exactly zero. The solution is obtained via perturbing the coefficients.",
                      RuntimeWarning, stacklevel=2)
    y *= scale
    return u.dot(y).dot(u.T)


def solve_care(A, M, Q):
    """Solve P A + A' P - P M P + Q = 0 for a symmetric positive definite P.

    Constructed from the stable invariant subspace [X1; X2] of the
    Hamiltonian [[A, -M], [-Q, -A']] as P = X2 X1^-1, symmetrized, then
    refined by a few Newton steps (Lyapunov solves on the closed loop) so
    the residual lands well below the 1e-8 contract.  The diagonal of the
    same ordered real Schur form holds the eigenvalues' real parts: one
    within 1e-9 of 0 raises ValueError (the imaginary axis).

    Returns P, or a CareNoSolution value when the candidate is not
    positive definite (a legitimate outcome the tuning rule consumes).
    """
    A = np.array(A, dtype=float, copy=None, ndmin=2)
    M = np.array(M, dtype=float, copy=None, ndmin=2)
    Q = np.array(Q, dtype=float, copy=None, ndmin=2)
    n = A.shape[0]
    if not A.size:
        raise ValueError(f"A must not be empty, got shape {A.shape}")
    _require_shape((n, n), A=A, M=M, Q=Q)
    ham = np.empty((2 * n, 2 * n))
    ham[:n, :n] = A
    ham[:n, n:] = -M
    ham[n:, :n] = -Q
    ham[n:, n:] = -A.T
    if not all_finite(ham):
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    T, Z, sdim = _real_schur(ham, 1)
    if min(map(abs, T.diagonal().tolist())) <= 1e-9:  # dgees's wr: a 2x2 block has Re(lambda) on both
        raise ValueError("Hamiltonian has eigenvalues on the imaginary axis")
    if sdim != n:
        raise ValueError(f"stable Hamiltonian subspace has dimension {sdim}, expected {n}")
    X1, X2 = Z[:n, :n], Z[n:, :n]
    sv = lapack.svd(X1)
    if sv[0] == 0.0 or sv[-1] < 1e-12 * sv[0]:
        raise np.linalg.LinAlgError("stable-subspace X1 block is singular")
    P = X2 @ lapack.inv(X1)
    P = (P + P.T) / 2

    res = _care_residual(P, A, M, Q)
    rnorm = _frobenius(res)
    target = 1e-12 * (1 + _frobenius(Q))
    for _ in range(5):
        if rnorm <= target:
            break
        try:
            delta = _lyapunov((A - M @ P).T, -res)
        except ValueError:  # numpy's LinAlgError included
            break
        P_next = P + delta
        P_next = (P_next + P_next.T) / 2
        res_next = _care_residual(P_next, A, M, Q)
        rnorm_next = _frobenius(res_next)
        if not rnorm_next < rnorm:  # a nan residual (from a nan or infinite step) is no improvement either
            break
        P, res, rnorm = P_next, res_next, rnorm_next

    p_eigs = lapack.eigvalsh_lo(P)  # ascending, as LAPACK returns them
    if p_eigs[0] <= 0:
        return CareNoSolution(M=M, Q=Q, p_eigenvalues=p_eigs)
    return P


def _rank_one_factors(bound, bar, bar_name, bound_name):
    """(v, h) as lists of floats with bound = bar * v h' (nnmf_rank1's core), or zeros for a zero bound.

    UncertaintyBounds checked bound as finite and non-negative. The auxiliary matrices are bar * v v' and
    bar * h h', each entry bar * (v_i * v_j) as numpy rounds it (a zero bound's bar * (0 * 0) is +0.0).
    """
    rows = bound.tolist()
    if not any(map(any, rows)):
        return [0.0] * bound.shape[0], [0.0] * bound.shape[1]
    if bar == 0:
        raise ValueError(f"{bar_name} must be positive when {bound_name} is non-zero")
    w, h = _rank_one(rows)
    return [w_i / bar for w_i in w], h


def robust_riccati_gain(A, B, bounds, cfg):
    """Robust full-state-feedback gain from rank-one uncertainty bounds.

    Decomposes dA_max = a_bar * a1 x1', dB_max = b_bar * b1 y1', builds the
    four auxiliary matrices, assembles M and Q_sigma, solves the Riccati
    equation, and returns k = P B (R + eps*Sigma_y)^-1 as a 1-D gain.

    A, dA_max and Q must be n x n, B and dB_max n x 1, R 1 x 1, and A and B
    finite (ValueError otherwise).
    Returns a CareNoSolution (carrying the assembled M and Q_sigma) when no
    positive definite P exists, so the caller can retune.
    """
    A = np.array(A, dtype=float, copy=None, ndmin=2)
    B = np.asarray(B, dtype=float).reshape(-1, 1)
    n = A.shape[0]
    _require_shape((n, n), A=A, dA_max=bounds.dA_max, Q=cfg.Q)
    _require_shape((n, 1), B=B, dB_max=bounds.dB_max)
    finite_floats(A, "A")
    b = finite_floats(B, "B")
    a_bar, b_bar, eps = cfg.a_bar, cfg.b_bar, cfg.epsilon

    v_a, h_a = _rank_one_factors(bounds.dA_max, a_bar, "a_bar", "dA_max")
    v_b, (h_b,) = _rank_one_factors(bounds.dB_max, b_bar, "b_bar", "dB_max")
    r = cfg.R.item()
    sigma_y = b_bar * (h_b * h_b)
    r_inv = 1.0 / (r + eps * sigma_y)  # inv of the 1x1 R + eps*Sigma_y, as LAPACK's LU solve computes it
    # M = B r_inv (2R + eps*Sigma_y) r_inv B' - Sigma_a - Sigma_b/eps.  Each product of the chain has
    # inner dimension 1, and numpy's matmul sums it from +0.0: 0.0 + e_i * b_j makes its zeros +0.0
    # (the zeros inside the chain may carry either sign: only its last product reaches M).
    mid = 2 * r + eps * sigma_y
    e = [b_i * r_inv * mid * r_inv for b_i in b]
    inv_eps = 1 / eps
    M = [[(0.0 + e_i * b_j) - a_bar * (va_i * va_j) - inv_eps * (b_bar * (vb_i * vb_j))
          for b_j, va_j, vb_j in zip(b, v_a, v_b)] for e_i, va_i, vb_i in zip(e, v_a, v_b)]
    q_sigma = [[a_bar * (h_i * h_j) + q for h_j, q in zip(h_a, row)] for h_i, row in zip(h_a, cfg.Q.tolist())]

    P = solve_care(A, M, q_sigma)
    if isinstance(P, CareNoSolution):
        return P
    return 0.0 + (P @ B).ravel() * r_inv  # P B r_inv, its k = 1 product summed from +0.0 as well


def _char_poly_3x3(m):
    """[-det, sum of principal 2x2 minors, -trace, 1] of a 3x3 matrix given as 9 floats row by row, in any iterable."""
    a, b, c, d, e, f, g, h, i = m
    minor_ei = e * i - f * h
    det = a * minor_ei - b * (d * i - f * g) + c * (d * h - e * g)
    return [-det, (a * e - b * d) + (a * i - c * g) + minor_ei, -(a + e + i), 1.0]


def char_poly_ascending(m):
    """Monic characteristic polynomial of a square matrix, ascending coeffs.

    A 3x3 matrix takes the closed form of _char_poly_3x3, exact on integer
    matrices and within about 1e-15 relative of np.poly otherwise; other sizes
    go through np.poly (the eigenvalues).
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape == (3, 3):
        return np.array(_char_poly_3x3(m.ravel().tolist()))
    return np.poly(m)[::-1].copy()


def vertex_interval_char_poly(A_family, B_family, K):
    """Coefficient interval over the closed loops of all (A*, B*) pairs.

    Every A* from A_family is paired with every B* from B_family; the
    characteristic polynomial of A* - B* k' is evaluated at each pair and
    coefficient-wise min/max become the interval polynomial.  With n = len(K) >= 1,
    each A* must be n x n and each B* must have n entries.

    The closed loops and the box are worked on Python floats: each entry
    a - b*k is rounded as numpy's broadcast rounds it, and of entries that
    compare equal (0.0 and -0.0) min and max keep the last, as numpy's
    reduction over the pairs does.
    """
    k = finite_floats(K, "K")
    n = len(k)
    if not n:
        raise ValueError("K must not be empty")
    if not len(A_family) or not len(B_family):
        raise ValueError("vertex families must be non-empty")
    shape_error = f"each A* must be {n}x{n} and each B* must have {n} entries, with n = len(K)"
    A_rows = []
    for A_v in A_family:
        A_v = np.asarray(A_v, dtype=float)
        if A_v.shape != (n, n):
            raise ValueError(shape_error)
        A_rows.append(A_v.ravel().tolist())
    B_rows = []
    for B_v in B_family:
        B_v = np.asarray(B_v, dtype=float).ravel()
        if B_v.size != n:
            raise ValueError(shape_error)
        B_rows.append(B_v.tolist())
    # the closed loops A* - B* k', row by row: one rounding per product, one per difference
    BK = [[b * k_c for b in B_v for k_c in k] for B_v in B_rows]
    closed = (map(operator.sub, A_v, bk) for A_v in A_rows for bk in BK)
    if n == 3:
        coeff_rows = list(map(_char_poly_3x3, closed))
    else:
        coeff_rows = [char_poly_ascending(np.reshape(list(m), (n, n))).tolist() for m in closed]
    if not all(map(math.isfinite, itertools.chain.from_iterable(coeff_rows))):
        raise ValueError("the vertex families give a non-finite characteristic coefficient")
    coeff_rows.reverse()  # last pair first: min and max keep the first of equals
    columns = list(zip(*coeff_rows))
    # finite, min <= max, leading coefficients exactly 1.0: the box passes IntervalPoly's checks
    return IntervalPoly._checked(tuple(map(min, columns)), tuple(map(max, columns)))


def _three_gains(K):
    k = finite_floats(K, "K")
    if len(k) != 3:
        raise ValueError(f"K must have 3 entries, got {len(k)}")
    return k


def _region_bounds(k2, k3, a_hi, b_lo):
    """sip_region_bounds on inputs that have passed its checks."""
    if not k3 < 0:
        return None, None
    k2_bound = float(k3 / b_lo)
    if not k2 < k2_bound:
        return k2_bound, None
    denominator = -b_lo * k2 + k3
    return k2_bound, float(a_hi * k2 / denominator) if denominator > 0 else -math.inf


def sip_region_bounds(K, a_hi, b_lo):
    """The two cascaded thresholds of the closed-form gain-region test, for finite K, a_hi and b_lo > 0.

    (k2_bound, k1_bound) = (k3/b_lo, a_hi*k2 / (-b_lo*k2 + k3)) along the chain
    k3 < 0, k2 < k2_bound; None past its first failing inequality.  k1_bound is
    -inf, its limit, where rounding leaves its denominator at or below 0.
    """
    _, k2, k3 = _three_gains(K)
    finite_floats([a_hi, b_lo], "a_hi and b_lo")
    if not b_lo > 0:
        raise ValueError("b_lo must be positive")
    return _region_bounds(k2, k3, a_hi, b_lo)


def sip_region_feasible(K, a_lo, a_hi, b_lo, b_hi):
    """Closed-form robust-gain region check for the 3-state pendulum model.

    Evaluates the inequality chain k3 < 0, k2 < k3/b_lo,
    k1 < a_hi*k2/(-b_lo*k2 + k3) in order, stopping at the first that
    fails — the reduction of the eight vertex Routh inequalities over a in
    [a_lo, a_hi], b in [b_lo, b_hi].
    """
    finite_floats([a_lo, a_hi, b_lo, b_hi], "parameter bounds")
    if not (0 < b_lo <= b_hi and 0 < a_lo <= a_hi):
        raise ValueError("parameter bounds must be positive and ordered")
    k1, k2, k3 = _three_gains(K)
    k1_bound = _region_bounds(k2, k3, a_hi, b_lo)[1]
    return k1_bound is not None and k1 < k1_bound


def eig_sweep(K, theta_grid):
    """Closed-loop eigenvalue real parts across an angle grid.

    Each row is (theta, real parts of eig(A - B k')) for the 3-state design
    pair frozen at theta (exact coefficients, no small-angle branch), sorted
    by descending magnitude of the real part, the order the printed tables use.
    K must have 3 entries and K and theta_grid must be finite (ValueError otherwise).
    """
    K = np.array(_three_gains(K))
    rows = []
    for theta in finite_floats(theta_grid, "theta_grid"):
        A, B = sip_design_pair(*sip_frozen_coefficients(theta))
        re = lapack.eigvals(A - np.outer(B, K)).real.tolist()
        # a stable sort, as np.argsort(-np.abs(re), kind="stable"); eigvals of a finite matrix has no nan
        rows.append((theta, np.array(sorted(re, key=lambda v: -abs(v)))))
    return rows
