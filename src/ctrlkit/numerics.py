"""Small dense linear-algebra helpers, an exact fused multiply-add, the
finite-float input check and a tiny quadratic-program solver.

Everything is deterministic: the rank-one factorization is closed form,
worked on Python floats (each entry rounded once, as numpy rounds it), and
the QP solver enumerates active sets exhaustively instead of iterating.

qp_small is the general solver for QPs of up to 3 variables and 4 rows.
No simulation step calls it: control.clf_cbf_step solves its 2-variable
program in closed form, and qp_small is the reference it is tested against.
"""

import math
import types
from itertools import combinations

import numpy as np
from numpy._core.umath import _extobj_contextvar, _make_extobj

# numpy's floating-point error state: token = fp_state.set(state) enters one, fp_state.reset(token)
# restores the caller's. Each state is built once, at import, by _make_extobj, the call np.errstate
# makes on every entry. With the handler and all four fields given it takes only bufsize from the
# importing context, which no ufunc run under these states reads (the linalg gufuncs and matmul
# buffer nothing, and a buffered add rounds the same).
fp_state = _extobj_contextvar

# every flag ignored, for code that tests its own results for inf and nan
QUIET = _make_extobj(call=None, divide="ignore", over="ignore", under="ignore", invalid="ignore")


def _gufunc(name, signature, message):
    """numpy.linalg's errstate-guarded call of _umath_linalg.<name>, without the wrapper's checks.

    The guard is numpy.linalg's state (invalid, the flag a failing gufunc raises, calls fail; over,
    divide and under are ignored), prebuilt once per binding and set around the bare gufunc.
    """
    def fail(err, flag):
        raise np.linalg.LinAlgError(message)

    state = _make_extobj(call=fail, invalid="call", over="ignore", divide="ignore", under="ignore")
    gufunc = getattr(np.linalg._umath_linalg, name)

    def guarded(*args):
        token = fp_state.set(state)
        try:
            return gufunc(*args, signature=signature)
        finally:
            fp_state.reset(token)

    return guarded


# numpy.linalg's solve (1-D b), lstsq, svd (no u, v), eigvals (complex), inv, eigvalsh (UPLO="L"),
# bound once for float64 arrays; none tests for a nan or infinite entry, as numpy.linalg.eigvals does.
# lstsq_unguarded is the bare ddd->ddid gufunc without the errstate guard: a LAPACK failure would give
# nan and the invalid flag (a RuntimeWarning by default), not LinAlgError; a success clears the FP
# status. Only full_rank_lstsq, which proves LAPACK cannot fail on its inputs, may use it.
lapack = types.SimpleNamespace(
    solve1=_gufunc("solve1", "dd->d", "Singular matrix"),
    lstsq=_gufunc("lstsq", "ddd->ddid", "SVD did not converge in Linear Least Squares"),
    svd=_gufunc("svd", "d->d", "SVD did not converge"),
    eigvals=_gufunc("eigvals", "d->D", "Eigenvalues did not converge"),
    inv=_gufunc("inv", "d->d", "Singular matrix"),
    eigvalsh_lo=_gufunc("eigvalsh_lo", "d->d", "Eigenvalues did not converge"),
    lstsq_unguarded=np.linalg._umath_linalg.lstsq,
)


def fma(a, b, c):
    """a * b + c rounded once, as C's fma: Dekker's TwoProduct p + e == a * b, summed with c by math.fsum;
    a zero sum (fsum's +0.0) takes the sign of p + c, IEEE's. Exact for finite floats, except that the
    splits overflow for |a| or |b| above about 1.34e300 (ah * bh for |a * b| within 2**-26 of the top),
    and e is inexact once a * b underflows (fma(1e-200, -1e-200, 0.0) is +0.0, C's -0.0). fsum raises
    ValueError on inf - inf and OverflowError on an overflowing sum; step_euler makes either a BlowupError."""
    p = a * b
    ta, tb = 134217729.0 * a, 134217729.0 * b  # Veltkamp's splitter 2**27 + 1
    ah, bh = ta - (ta - a), tb - (tb - b)
    al, bl = a - ah, b - bh
    return math.fsum((p, ((ah * bh - p) + ah * bl + al * bh) + al * bl, c)) or p + c


def floats(values):
    """values as a new flat list of Python floats, as np.asarray(values, dtype=float).ravel() reads them."""
    if type(values) in (list, tuple) and all(type(v) is float for v in values):
        return list(values)  # already floats, e.g. the lists this package passes itself
    return np.asarray(values, dtype=float).ravel().tolist()


def all_finite(values):
    """True iff no entry of values, read as floats, is nan or infinite."""
    return all(map(math.isfinite, floats(values)))


def finite_floats(values, name):
    """floats(values); ValueError "<name> must be finite" if one is nan or infinite."""
    values = floats(values)
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} must be finite")
    return values


def full_rank_lstsq(design, target):
    """min_z ||design @ z - target||_2 by gelsd with numpy's default rcond, eps * m.

    design is an (m, n) and target an (m, 1) float64 array, n >= 1, both checked finite by the caller.
    Returns z as an (n, 1) array; ValueError if m < n or the design is rank deficient.

    A design of at most two columns (the sysid window is 6 x 2) goes to lapack.lstsq_unguarded,
    since gelsd cannot fail on it: its only INFO > 0 exit is dbdsqr's iteration cap, and dgelsd
    reduces such a finite design to a bidiagonal of at most 2 x 2, which dbdsqr deflates by
    dlasv2 without iterating (an all-zero design returns before, with rank 0). Wider designs
    keep the guarded lapack.lstsq.

    The rescaled solve runs under QUIET: its two products by a power of two below 1 can only
    underflow, and the gelsd inside is the unguarded call that cannot fail or the guarded
    binding, which sets its own state.
    """
    rows, cols = design.shape
    if rows < cols:
        raise ValueError(f"design must have at least as many rows as columns, got {design.shape}")
    if len(target) != rows:
        raise ValueError("target length must match design row count")
    solve = lapack.lstsq_unguarded if cols <= 2 else lapack.lstsq
    z, _, _, sv = solve(design, target, 2.0 ** -52 * rows)
    sv = sv.tolist()
    if sv[0] == 0.0 or sv[-1] < 1e-10 * sv[0]:
        if sv[0] == math.inf:  # no rank verdict; as sv[0] <= sqrt(m n) max|entry|, this exact scale
            scale = 2.0 ** -(math.ceil(math.log2(rows * cols) / 2) + 1)  # takes it to half the top
            token = fp_state.set(QUIET)  # a subnormal scaled entry or answer is no error
            try:
                return full_rank_lstsq(design * scale, target) * scale
            finally:
                fp_state.reset(token)
        raise ValueError("design matrix is rank deficient")
    return z


def least_squares(design, target):
    """Solve min_z ||design @ z - target||_2 for a finite, full-column-rank design."""
    design = np.asarray(design, dtype=float)
    target = np.asarray(target, dtype=float).ravel()
    if design.ndim != 2:
        raise ValueError("design must be a 2-D matrix")
    if not design.shape[1]:
        raise ValueError(f"design must have at least one column, got {design.shape}")
    finite_floats(design, "design")
    finite_floats(target, "target")
    return full_rank_lstsq(design, target[:, None]).ravel()


def nnmf_rank1(m):
    """Exact rank-one non-negative factorization m == outer(w, h).

    Normalization convention: ||h||_inf == 1 with the largest entry of h
    exactly 1, so w carries the magnitude.  The zero matrix maps to w = 0
    and h = [1, 0, ..., 0].

    Raises ValueError for an empty matrix, non-finite or negative entries,
    or numerical rank above one; so, with no nan, the first maximum is
    np.argmax's pick, and each entry of w and h is the numpy form's.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2:
        raise ValueError("input must be a 2-D matrix")
    if not m.size:
        raise ValueError("matrix must not be empty")
    entries = finite_floats(m, "matrix")
    if min(entries) < 0:
        raise ValueError("matrix must be element-wise non-negative")
    return tuple(map(np.array, _rank_one(m.tolist())))


def _rank_one(rows):
    """nnmf_rank1's (w, h) as lists, for rows of Python floats already checked finite and non-negative."""
    peak = max(map(max, rows))
    if not peak:
        return [0.0] * len(rows), [1.0] + [0.0] * (len(rows[0]) - 1)
    if len(rows[0]) == 1:  # a column: h = [peak / peak] = [1.0], w the column, residual 0
        return [row[0] for row in rows], [1.0]
    # The first maximum entry in row-major order (np.argmax's pick) sits at the
    # crossing of the dominant row and column; scaling that row to peak 1 fixes
    # the normalization.
    top = next(row for row in rows if peak in row)
    j = top.index(peak)
    h = [v / peak for v in top]
    w = [row[j] for row in rows]
    residual = max([abs(w_r * h_c - v) for w_r, row in zip(w, rows) for h_c, v in zip(h, row)])
    if residual > 1e-9 * max(1.0, peak):
        raise ValueError("matrix has numerical rank above one; split it into rank-one terms")
    return w, h


def qp_small(H, c, A_ineq=None, b_ineq=None):
    """Minimize 1/2 z'Hz + c'z subject to A_ineq @ z <= b_ineq.

    H must be symmetric positive definite and tiny (n <= 3, at most 4
    constraint rows).  Every active set is enumerated in order of size and
    then lexicographically; the KKT equality system of each is solved
    directly and the first candidate that is primal feasible with
    non-negative multipliers is the unique global minimizer.

    Returns the minimizer, or None when the constraints are infeasible.
    A nan or infinite entry of H, c, A_ineq or b_ineq raises ValueError naming it.
    """
    H = np.atleast_2d(np.asarray(H, dtype=float))
    c = np.atleast_1d(np.asarray(c, dtype=float)).ravel()
    n = c.size
    if H.shape != (n, n):
        raise ValueError("H must be square and match len(c)")
    if n > 3:
        raise ValueError("qp_small handles at most 3 variables")
    finite_floats(H, "H")
    finite_floats(c, "c")
    if np.max(np.abs(H - H.T)) > 1e-12 * max(1.0, np.max(np.abs(H))):
        raise ValueError("H must be symmetric")
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError:
        raise ValueError("H must be positive definite") from None

    if A_ineq is None or np.size(A_ineq) == 0:
        A = np.zeros((0, n))
        b = np.zeros(0)
    else:
        A = np.atleast_2d(np.asarray(A_ineq, dtype=float))
        b = np.atleast_1d(np.asarray(b_ineq, dtype=float)).ravel()
    m = A.shape[0]
    if A.shape != (m, n) or b.size != m:
        raise ValueError("constraint shapes are inconsistent")
    if m > 4:
        raise ValueError("qp_small handles at most 4 constraints")
    finite_floats(A, "A_ineq")
    finite_floats(b, "b_ineq")

    tol = 1e-9
    for size in range(m + 1):
        for active in combinations(range(m), size):
            As = A[list(active), :]
            kkt = np.block([[H, As.T], [As, np.zeros((size, size))]])
            rhs = np.concatenate([-c, b[list(active)]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            z, lam = sol[:n], sol[n:]
            if lam.size and lam.min() < -tol:
                continue
            if m and np.max(A @ z - b) > tol:
                continue
            return z
    return None
