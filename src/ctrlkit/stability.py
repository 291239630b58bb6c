"""Stability analysis machinery.

Interval polynomials, Routh-Hurwitz first-column tests, Kharitonov
bounding polynomials, and the eigenvalue-perturbation bound with the
pendulum closed-loop deviation it is applied to.
"""

import math
import operator
import warnings
from dataclasses import dataclass

import numpy as np

from .models import G
from .numerics import finite_floats, floats

_ZERO_PIVOT = 1e-12


@dataclass(frozen=True)
class IntervalPoly:
    """Coefficient box a_i in [lower_i, upper_i], ascending degree, kept as tuples of floats."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = finite_floats(self.lower, "lower")
        hi = finite_floats(self.upper, "upper")
        if len(lo) != len(hi):
            raise ValueError("coefficient intervals must have equal degree")
        if not lo:
            raise ValueError("an interval polynomial needs at least one coefficient")
        if not all(map(operator.le, lo, hi)):
            raise ValueError("lower must be coefficient-wise <= upper")
        if lo[-1] <= 0.0 <= hi[-1]:
            raise ValueError("leading-coefficient interval must exclude zero")
        object.__setattr__(self, "lower", tuple(lo))
        object.__setattr__(self, "upper", tuple(hi))

    @classmethod
    def _checked(cls, lower, upper):
        """An IntervalPoly of bounds that already pass __post_init__'s checks, given as tuples of floats."""
        ip = object.__new__(cls)
        ip.__dict__.update(lower=lower, upper=upper)
        return ip


@dataclass(frozen=True)
class RouthResult:
    stable: bool
    first_column: list
    degenerate: bool


def _routh_result(stable, first_column, degenerate):
    """RouthResult(stable, first_column, degenerate) without the frozen per-field __setattr__."""
    r = object.__new__(RouthResult)
    r.__dict__.update(stable=stable, first_column=first_column, degenerate=degenerate)
    return r


def routh_stable(p):
    """Routh-Hurwitz test on ascending coefficients (a0 ... an).

    A negative leading coefficient is normalized away by negating the whole
    polynomial.  A pivot smaller than 1e-12 in magnitude marks the array
    degenerate and the polynomial not (strictly) stable; the rows it leaves
    uncomputed count as 0.0 in first_column.  The array is built one row of
    Python floats at a time, each entry (pivot*a - b*c) / pivot rounded as
    numpy rounds it, so the first column, signed zeros and nan included, is
    the numpy array's.

    A cubic (a0, a1, a2, a3) takes the array's two eliminations written out:
    r2 = (a2*a1 - a3*a0)/a2, then r3 = (r2*a0 - a2*0.0)/r2, where 0.0 is the
    entry the loop pads its second row with.  These are the loop's float
    operations in its order, behind the same pivot tests; a2*0.0 stays, since
    it is -0.0 for a negative a2 and nan for an infinite one, and either can
    change the difference's sign bit or value.  Every other degree runs the loop.
    """
    c = floats(p)
    while c and c[-1] == 0.0:
        c.pop()
    if not c:
        raise ValueError("zero polynomial has no Routh array")
    if len(c) == 1:
        raise ValueError("degree must be at least 1")
    if c[-1] < 0:
        c = [-v for v in c]
    if len(c) == 4:
        a0, a1, a2, a3 = c
        if abs(a2) < _ZERO_PIVOT:
            return _routh_result(False, [a3, a2, 0.0, 0.0], True)
        r2 = (a2 * a1 - a3 * a0) / a2
        if abs(r2) < _ZERO_PIVOT:
            return _routh_result(False, [a3, a2, r2, 0.0], True)
        r3 = (r2 * a0 - a2 * 0.0) / r2
        return _routh_result(a3 > 0 and a2 > 0 and r2 > 0 and r3 > 0, [a3, a2, r2, r3], False)
    d = c[::-1]  # descending
    n = len(d) - 1
    width = (n + 2) // 2
    above, row = d[0::2], d[1::2]
    row += [0.0] * (width - len(row))
    first_column = [above[0], row[0]]
    degenerate = False
    for _ in range(2, n + 1):
        pivot = row[0]
        if abs(pivot) < _ZERO_PIVOT:
            degenerate = True
            break
        lead = above[0]
        above, row = row, [(pivot * above[j + 1] - lead * row[j + 1]) / pivot
                           for j in range(width - 1)] + [0.0]
        first_column.append(row[0])
    first_column += [0.0] * (n + 1 - len(first_column))
    stable = (not degenerate) and all(v > 0 for v in first_column)
    return _routh_result(stable, first_column, degenerate)


# Kharitonov coefficient patterns: which residues of the index (mod 4) take
# the lower bound; the rest take the upper bound.
_KHARITONOV_LOWER = ((0, 1), (0, 3), (1, 2), (2, 3))


def _kharitonov(lower, upper):
    """K1 ... K4 of the bound tuples, each a new list of floats, built as it is asked for."""
    for lower_at in _KHARITONOV_LOWER:
        k = list(upper)
        for r in lower_at:
            k[r::4] = lower[r::4]
        yield k


def kharitonov_polys(ip):
    """The four bounding polynomials of an interval polynomial, as lists of floats.

    Ascending coefficients; the patterns repeat with period 4:
    K1=(lo,lo,hi,hi,...), K2=(lo,hi,hi,lo,...), K3=(hi,lo,lo,hi,...),
    K4=(hi,hi,lo,lo,...).
    """
    return list(_kharitonov(ip.lower, ip.upper))


def interval_poly_stable(ip):
    """True iff all four Kharitonov bounding polynomials are Routh stable.

    Tests K1 ... K4 in order and stops at the first unstable one, building
    none after it.
    """
    for k in _kharitonov(ip.lower, ip.upper):
        if not routh_stable(k).stable:
            return False
    return True


def bauer_fike_check(Ac0, deltaAc):
    """Eigenvalue-perturbation bound radius = cond(S) * ||deltaAc||_2 (the spectral norm).

    Returns (radius, holds) where holds reports whether every eigenvalue of
    Ac0 + deltaAc lies within radius of some eigenvalue of Ac0.  A nearly
    non-diagonalizable Ac0 is reported via a warning and the check proceeds.
    A nan or infinite entry raises ValueError naming the matrix before LAPACK sees it.
    """
    Ac0 = np.asarray(Ac0, dtype=float)
    deltaAc = np.asarray(deltaAc, dtype=float)
    if Ac0.ndim != 2 or not Ac0.shape == Ac0.shape[::-1] == deltaAc.shape:
        raise ValueError("Ac0 and deltaAc must be square matrices of the same size")
    finite_floats(Ac0, "Ac0")
    finite_floats(deltaAc, "deltaAc")
    vals0, S = np.linalg.eig(Ac0)
    sv = np.linalg.svd(S, compute_uv=False)
    kappa = float(sv[0] / sv[-1])
    if kappa >= 1e8:
        warnings.warn(f"eigenvector matrix condition {kappa:.3g} is near non-diagonalizable; "
                      "the bound may be vacuous", stacklevel=2)
    radius = kappa * np.linalg.norm(deltaAc, 2)
    vals1 = np.linalg.eigvals(Ac0 + deltaAc)
    slack = radius * 1e-9 + 1e-12
    holds = all(np.min(np.abs(v - vals0)) <= radius + slack for v in vals1)
    return float(radius), bool(holds)


def sip_closed_loop_perturbation(theta, K):
    """Deviation Ac(theta) - Ac(0) of the 4-state pendulum closed loop.

    Exact trigonometric form (no small-angle guard): the sin(theta)/theta
    deviation enters through e2 e1', the cos(theta) deviation through e2 K'.
    theta must be finite and K four finite entries (ValueError naming them otherwise).
    """
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    K = finite_floats(K, "K")
    if len(K) != 4:
        raise ValueError(f"K must have 4 entries, got {len(K)}")
    sinc = 1.0 if theta == 0 else math.sin(theta) / theta
    e1 = np.array([1.0, 0.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0, 0.0])
    dA = G * (sinc - 1.0) * np.outer(e2, e1)
    dBK = (1.0 - math.cos(theta)) * np.outer(e2, K)
    return dA - dBK
