"""Runtime control laws.

Full-state feedback with sliding-mode targets, motorcycle line guidance,
adaptive gain scheduling, online least-squares identification, and the
CBF / CLF-CBF safety filters.

Stateful pieces (the identification window, the guidance line switch)
are classes owned by one simulation loop; everything else is a pure
function.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .models import G, sip_design_pair
from .numerics import least_squares
from .synthesis import design_gain_matrix

logger = logging.getLogger(__name__)

# |Lgh| at or below this makes the scalar barrier filter powerless; the
# reference is passed through unchanged and the activation is logged.
CBF_SINGULARITY_THRESHOLD = 1e-4


def fsfc(K, x, x_E=0.0):
    """Full-state feedback toward a (possibly moving) target: -k'(x - x_E)."""
    return -float(np.dot(K, np.subtract(x, x_E)))


@dataclass(frozen=True)
class SlidingTargetDIP:
    """Cart-position sliding target that walks toward 0 at rate s_v."""

    x0: float
    s_v: float = 8.0

    def __post_init__(self):
        if self.s_v <= 0:
            raise ValueError("slide rate must be positive")


def dip_sliding_target(tgt, t):
    """Sliding-mode target state (0,0,0,0, sign(x0)*max(|x0|-s_v*t, 0), 0)."""
    if t < 0:
        raise ValueError("t must be non-negative")
    out = np.zeros(6)
    out[4] = math.copysign(max(abs(tgt.x0) - tgt.s_v * t, 0.0), tgt.x0)
    return out


class MotorcycleGuidance:
    """Two-line guidance: slide on line 1, switch to line 2 near the corner.

    Lines are parametrized by poses (x, y, heading); their intersection is
    the turning point.  The switch to line 2 happens once, when the
    motorcycle comes within the preview distance of the turning point.
    """

    def __init__(self, pose_I, pose_D, preview=6.0):
        if preview <= 0:
            raise ValueError("preview distance must be positive")
        xI, yI, phiI = (float(v) for v in pose_I)
        xD, yD, phiD = (float(v) for v in pose_D)
        det = math.sin(phiI - phiD)
        if abs(det) < 1e-12:
            raise ValueError("guidance lines are parallel; no turning point exists")
        mat = np.array([[math.cos(phiI), -math.cos(phiD)],
                        [math.sin(phiI), -math.sin(phiD)]])
        tID = np.linalg.solve(mat, np.array([xD - xI, yD - yI]))
        self.pose_I = (xI, yI, phiI)
        self.pose_D = (xD, yD, phiD)
        self.turning_point = (xI + math.cos(phiI) * tID[0], yI + math.sin(phiI) * tID[0])
        self.preview = preview
        self.active_line = 1

    def step(self, pose, roll, roll_rate, K):
        """Steering command -k'[y_bar, phi_bar, roll, roll_rate] on the active line."""
        x, y, phi = pose[0], pose[1], pose[2]
        if self.active_line == 1:
            xM, yM = self.turning_point
            if math.hypot(x - xM, y - yM) < self.preview:
                self.active_line = 2
        xS, yS, phiS = self.pose_I if self.active_line == 1 else self.pose_D
        y_bar = -math.sin(phiS) * (x - xS) + math.cos(phiS) * (y - yS)
        phi_bar = phi - phiS
        K = np.asarray(K, dtype=float).ravel()
        return float(-(K @ np.array([y_bar, phi_bar, roll, roll_rate])))


def lookup_region(theta):
    """Gain-lookup region of a pendulum angle: 0 for |theta| < pi/6, 1 for |theta| < pi/3, else 2."""
    if abs(theta) < math.pi / 6:
        return 0
    if abs(theta) < math.pi / 3:
        return 1
    return 2


def adaptive_gain(theta, desired_eigs):
    """Angle-scheduled pole-placement gain for the 3-state pendulum model.

    Re-runs pole placement on the design pair frozen at the current angle:
    b = -cos(theta), and a = G sin(theta)/theta, or G on the small-angle branch |theta| < 0.1.
    """
    a = G if abs(theta) < 0.1 else G * math.sin(theta) / theta
    return design_gain_matrix(*sip_design_pair(a, -math.cos(theta)), desired_eigs)


class SysIdWindow:
    """Fixed-capacity window of (regressor, response) rows, newest on top.

    push() shifts every stored row down one slot and writes the new row at
    the top.  The window is warm once capacity rows have been pushed;
    solving is only permitted when warm.
    """

    def __init__(self, capacity, regressor_dim):
        if capacity < 1 or regressor_dim < 1:
            raise ValueError("capacity and regressor_dim must be positive")
        self.X = np.zeros((capacity, regressor_dim))
        self.y = np.zeros(capacity)
        self._pushed = 0

    @property
    def capacity(self):
        return self.X.shape[0]

    @property
    def warm(self):
        return self._pushed >= self.capacity

    def push(self, regressor, response):
        self.X[1:] = self.X[:-1]
        self.y[1:] = self.y[:-1]
        self.X[0] = np.asarray(regressor, dtype=float)
        self.y[0] = float(response)
        self._pushed += 1


def sysid_solve(window):
    """Least-squares parameter estimate from a warm identification window.

    Raises if the window is cold or the stacked regressors are rank
    deficient (unidentifiable); callers keep their previous estimate then.
    """
    if not window.warm:
        raise ValueError("identification window is not warm yet")
    return least_squares(window.X, window.y)


def cbf_filter_scalar(u_ref, Lfh, Lgh, alpha_h):
    """Closed form of the one-dimensional safety QP.

    Clips the reference to the safe side when the barrier constraint has
    authority; when |Lgh| <= 1e-4 the constraint row is singular and the
    reference passes through unchanged (the activation is logged, because
    safety is not enforced on that step).
    """
    if Lgh > CBF_SINGULARITY_THRESHOLD:
        return max(u_ref, -(Lfh + alpha_h) / Lgh)
    if Lgh < -CBF_SINGULARITY_THRESHOLD:
        return min(u_ref, -(Lfh + alpha_h) / Lgh)
    logger.info("barrier filter singularity guard active (Lgh=%.3e); reference passed through", Lgh)
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
