"""Runtime control laws.

Full-state feedback with sliding-mode targets, motorcycle line guidance,
adaptive gain scheduling, online least-squares identification, and the
CBF / CLF-CBF safety filters.

The one stateful piece, the guidance line switch, is a class owned by one
simulation loop; everything else is a pure function.
"""

import math

import numpy as np

from .models import G
from .numerics import finite_floats, full_rank_lstsq, lapack
from .synthesis import sip_coefficients, sip_pole_gain

# |Lgh| at or below this makes the scalar barrier filter powerless; the
# reference is passed through unchanged and the scenario's guard counts the step.
CBF_SINGULARITY_THRESHOLD = 1e-4

# lookup_region's bounds on |theta|: region 0 below the first, region 1 below the second
_REGION_1, _REGION_2 = math.pi / 6, math.pi / 3


def fsfc(K, x):
    """Full-state feedback -k'x; a controller tracking a target passes x minus the target.

    The array's own dot is np.dot's BLAS call without np.dot's dispatch.
    """
    return -float(np.asarray(K).dot(x))


def dip_sliding_target(x0, s_v, t):
    """The shared sliding-target walk from x0 toward 0 at rate s_v: sign(x0)*max(|x0|-s_v*t, 0)."""
    if not t >= 0:  # a nan t is rejected too
        raise ValueError("t must be non-negative")
    return math.copysign(max(abs(x0) - s_v * t, 0.0), x0)


class MotorcycleGuidance:
    """Two-line guidance: slide on line 1, switch to line 2 near the corner.

    Lines are parametrized by poses (x, y, heading); their intersection is
    the turning point.  The switch to line 2 happens once, when the
    motorcycle comes within the preview distance of the turning point.
    Both poses must be finite; the turning point is a pair of Python floats.
    """

    def __init__(self, pose_I, pose_D, preview=6.0):
        if not preview > 0:  # a nan preview is rejected too
            raise ValueError("preview distance must be positive")
        xI, yI, phiI = finite_floats(pose_I, "pose_I")
        xD, yD, phiD = finite_floats(pose_D, "pose_D")
        det = math.sin(phiI - phiD)
        if abs(det) < 1e-12:
            raise ValueError("guidance lines are parallel; no turning point exists")
        mat = np.array([[math.cos(phiI), -math.cos(phiD)],
                        [math.sin(phiI), -math.sin(phiD)]])
        tI = lapack.solve1(mat, np.array([xD - xI, yD - yI])).item(0)
        self.pose_I = (xI, yI, phiI)
        self.pose_D = (xD, yD, phiD)
        # each line's pose with its -sin and cos, for step's cross-track offset
        self._line_I = (xI, yI, phiI, -math.sin(phiI), math.cos(phiI))
        self._line_D = (xD, yD, phiD, -math.sin(phiD), math.cos(phiD))
        self.turning_point = (xI + math.cos(phiI) * tI, yI + math.sin(phiI) * tI)
        self.preview = preview
        self.active_line = 1

    def step(self, s, K):
        """Steering command -k'[y_bar, phi_bar, roll, roll_rate] on the active line
        for the motorcycle state s = (x, y, phi, beta, roll, roll_rate)."""
        x, y, phi = s[0], s[1], s[2]
        if self.active_line == 1:
            xM, yM = self.turning_point
            if math.hypot(x - xM, y - yM) < self.preview:
                self.active_line = 2
        xS, yS, phiS, nsin, cos = self._line_I if self.active_line == 1 else self._line_D
        y_bar = nsin * (x - xS) + cos * (y - yS)
        phi_bar = phi - phiS
        return -float(np.asarray(K).dot((y_bar, phi_bar, s[4], s[5])))  # fsfc's dot; no array built


def lookup_region(theta):
    """Gain-lookup region of a pendulum angle: 0 for |theta| < pi/6, 1 for |theta| < pi/3, else 2."""
    size = abs(theta)
    if size < _REGION_1:
        return 0
    if size < _REGION_2:
        return 1
    return 2


def adaptive_gain(theta, desired_eigs):
    """Angle-scheduled pole-placement gain for the 3-state pendulum model.

    Places the poles on the design pair frozen at the current angle (sip_pole_gain):
    b = -cos(theta), and a = G sin(theta)/theta, or G on the small-angle branch |theta| < 0.1.
    """
    a = G if abs(theta) < 0.1 else G * math.sin(theta) / theta
    return sip_pole_gain(a, -math.cos(theta), sip_coefficients(tuple(desired_eigs)))


def sysid_solve(regressors, responses):
    """Least-squares estimate [a, b] of rate = a*theta + b*u over a window of rows.

    regressors holds the rows' (theta, u) pairs back to back and responses one
    rate per row, all Python floats. They become the (m, 2) design and (m, 1)
    target gelsd reads: the floats and order of an array of the rows, so the
    estimate is least_squares' bit for bit. A nan or infinite entry raises
    ValueError naming the design or the target before LAPACK sees it; their
    sum is tested first, and entry by entry only when it is not finite, as in
    step_euler. Raises ValueError too if the rows are rank deficient
    (unidentifiable); callers keep their previous estimate then.
    """
    if not math.isfinite(sum(regressors, sum(responses))):
        finite_floats(regressors, "design")
        finite_floats(responses, "target")
    return full_rank_lstsq(np.array(regressors).reshape(-1, 2),
                           np.array(responses).reshape(-1, 1)).ravel().tolist()


def cbf_filter_scalar(u_ref, Lfh, Lgh, alpha_h):
    """Closed form of the one-dimensional safety QP.

    Clips the reference to the safe side when the barrier constraint has
    authority; when |Lgh| <= 1e-4 the constraint row is singular and the
    reference passes through unchanged (the scenario's guard counts the
    step, because safety is not enforced on it).
    """
    if Lgh > CBF_SINGULARITY_THRESHOLD:
        return max(u_ref, -(Lfh + alpha_h) / Lgh)
    if Lgh < -CBF_SINGULARITY_THRESHOLD:
        return min(u_ref, -(Lfh + alpha_h) / Lgh)
    return u_ref


def clf_cbf_step(u_ref, LfV, LgV, gamma_V, Lfh, Lgh, alpha_h):
    """Relaxed stabilize-and-stay-safe program in the variables (u, delta).

    Minimizes (u - u_ref)^2/2 + delta^2/8 (weights H = 1, lam = 1/4) subject
    to the relaxed Lyapunov-decrease row LfV + LgV*u <= -gamma_V + delta and
    the hard barrier row Lfh + Lgh*u >= -alpha_h.  gamma_V and alpha_h are
    the already-evaluated gamma(V(x)) and alpha(h(x)).

    Solved in closed form.  With b1 = -LfV - gamma_V and b2 = Lfh + alpha_h
    the rows read LgV*u - delta <= b1 and -Lgh*u <= b2.  The active sets are
    tried in the order numerics.qp_small enumerates them, and the first KKT
    point whose multipliers (mu for the CLF row, nu for the barrier row) and
    inactive rows pass qp_small's 1e-9 tolerance is the minimizer:

    - none: u = u_ref, delta = 0;
    - CLF row: mu = (LgV*u_ref - b1) / (LgV^2 + 4), u = u_ref - LgV*mu,
      delta = 4*mu;
    - barrier row: u = -b2/Lgh, delta = 0, nu = (u - u_ref)/Lgh;
    - both rows: u = -b2/Lgh, delta = LgV*u - b1, mu = delta/4,
      nu = (u - u_ref + LgV*mu)/Lgh.

    Lgh == 0 makes the last two singular and they are skipped.  qp_small,
    which solves the same program as a general QP, is the reference this
    closed form is tested against.  Unlike qp_small it does not re-check
    the active rows, which hold by construction: where |u| or delta reaches
    about 1e6 (a tiny Lgh), rounding on them exceeds 1e-9 and qp_small can
    call a feasible program infeasible.
    """
    tol = 1e-9
    b1 = -LfV - gamma_V
    b2 = Lfh + alpha_h
    if LgV * u_ref - b1 <= tol and -Lgh * u_ref - b2 <= tol:
        return float(u_ref), 0.0
    mu = (LgV * u_ref - b1) / (LgV * LgV + 4.0)
    u = u_ref - LgV * mu
    if mu >= -tol and -Lgh * u - b2 <= tol:
        return float(u), float(4.0 * mu)
    if Lgh != 0:
        u = -b2 / Lgh
        nu = (u - u_ref) / Lgh
        if nu >= -tol and LgV * u - b1 <= tol:
            return float(u), 0.0
        delta = LgV * u - b1
        mu = 0.25 * delta
        nu = (u - u_ref + LgV * mu) / Lgh
        if mu >= -tol and nu >= -tol:
            return float(u), float(delta)
    raise RuntimeError(
        "relaxed safety program infeasible "
        f"(LfV={LfV:.6g}, LgV={LgV:.6g}, Lfh={Lfh:.6g}, Lgh={Lgh:.6g})")


def lyapunov_ref_2d(x, y):
    """Stabilizing reference for the 2-D point: -x^2 sin(y)/y - 2y.

    The |y| <= 1e-4 branch uses the limit value sin(y)/y -> 1.
    """
    if abs(y) > 1e-4:
        return -x * x * math.sin(y) / y - 2 * y
    return -x * x - 2 * y
