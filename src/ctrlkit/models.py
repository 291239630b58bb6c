"""Nonlinear plant dynamics, fixed-step integration, and linearization.

Plants are plain data: a name and a derivative function.
Integration is explicit Euler with the control recomputed on every step,
mirroring the simulation loops the gains were validated on.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import fma

# the plants' physics, read by every design model built on them
G = 10.0  # gravity
MOTO_V = 10.0  # motorcycle speed
MOTO_L = 1.5  # wheelbase
MOTO_H = 1.0  # center-of-mass height
MOTO_TAU_BETA = 0.02  # steering lag

# the motorcycle derivatives' constant factors, computed once
_MOTO_TURN = MOTO_V / MOTO_L  # heading rate per unit tan(beta)
_MOTO_TOPPLE = G / MOTO_H  # roll acceleration per unit sin(roll)
_MOTO_LEAN = MOTO_V ** 2 / (MOTO_H * MOTO_L)  # roll acceleration per unit tan(beta) cos(roll)


class BlowupError(RuntimeError):
    """A step left the finite states: its derivative or new state is not finite, or the
    plant's derivative overflowed. Carries the time (set by simulate) and the step's state."""

    def __init__(self, message, t=None, state=None):
        super().__init__(message)
        self.t = t
        self.state = state


@dataclass(frozen=True)
class PlantModel:
    """A named plant; its state and input sizes are those of the tuples deriv is given."""

    name: str
    deriv: Callable  # (state, input) -> state derivative as a tuple of floats
    analytic_linearization: Optional[Callable] = None  # (state) -> (A, B)


@dataclass
class SimSpec:
    """Fixed-step simulation settings; stop(state) names the terminal event, or returns None."""

    dt: float
    t_end: float
    stop: Optional[Callable] = None

    def __post_init__(self):
        for name, value in (("dt", self.dt), ("t_end", self.t_end)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"dt must be large enough that t_end/dt is finite, got {self.dt}")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least dt")


@dataclass
class Trajectory:
    times: list
    states: list  # one tuple of floats per sample
    inputs: list  # one 1-tuple of float per sample
    terminal_event: str  # the event stop named, or timeout


def step_euler(plant, x, u, dt):
    """One explicit Euler step: the tuple of x + dt * deriv(x, u), entry by entry.

    plant.deriv must return a tuple of floats, as many as x has. Every failure of
    the step is a BlowupError carrying the state, and naming its cause: a new
    state with a nan or infinite entry (a non-finite derivative when the
    derivative holds one), or an ArithmeticError or ValueError inside deriv,
    such as ** overflowing or math.cos of an angle difference that overflowed
    (chained as the BlowupError's cause). The new state's finiteness is
    checked through the sum of its entries first, and only when that sum is not
    finite entry by entry, so finite entries whose sum overflows do not raise.
    The plants' state sizes (2, 4 and 6) are spelled out entry by entry, which
    skips the comprehension's frame and sum()'s call; every entry is still
    xi + dt * di, one rounded product and one rounded sum, so the result is the
    comprehension's bit for bit.
    """
    try:
        dx = plant.deriv(x, u)
    except (ArithmeticError, ValueError) as exc:
        raise _blowup(f"{type(exc).__name__} ({exc}) in the derivative", plant, x) from exc
    n = len(x)
    if len(dx) != n:
        raise ValueError(f"plant '{plant.name}' returned {len(dx)} derivative entries "
                         f"for a state of {n}")
    new = None
    try:
        if n == 4:
            x0, x1, x2, x3 = x
            d0, d1, d2, d3 = dx
            x0, x1, x2, x3 = new = (x0 + dt * d0, x1 + dt * d1, x2 + dt * d2, x3 + dt * d3)
            total = x0 + x1 + x2 + x3
        elif n == 6:
            x0, x1, x2, x3, x4, x5 = x
            d0, d1, d2, d3, d4, d5 = dx
            x0, x1, x2, x3, x4, x5 = new = (x0 + dt * d0, x1 + dt * d1, x2 + dt * d2,
                                            x3 + dt * d3, x4 + dt * d4, x5 + dt * d5)
            total = x0 + x1 + x2 + x3 + x4 + x5
        elif n == 2:
            x0, x1 = x
            d0, d1 = dx
            x0, x1 = new = (x0 + dt * d0, x1 + dt * d1)
            total = x0 + x1
        else:
            new = tuple([xi + dt * di for xi, di in zip(x, dx)])
            total = sum(new)
    except RuntimeWarning:  # numpy-scalar entries (an array x) with warnings as errors
        if new is None:
            raise
        total = math.nan  # the sum met inf - inf or overflowed: test entry by entry
    if not math.isfinite(total) and not all(map(math.isfinite, new)):
        what = "non-finite derivative" if not all(map(math.isfinite, dx)) else "non-finite new state"
        raise _blowup(what, plant, x)
    return new


def _blowup(what, plant, x, t=None):
    state = np.array(x, dtype=float)
    at = "" if t is None else f" (t={t:.6g})"
    return BlowupError(f"{what} for plant '{plant.name}' at state {state}{at}", t=t, state=state)


def simulate(plant, controller, x0, spec):
    """Run Euler steps from x0 until spec.stop names an event, or to t_end ("timeout").

    controller(t, state) is called once per step (control period equals dt)
    and returns a float; stop(state), when set, once after each step: None
    goes on, a string ends the run with that event.  Each state is the tuple
    of floats step_euler returns, each input the 1-tuple of the controller's
    float; the last sample repeats the input before it. An ArithmeticError or
    ValueError raised by the controller ends the run as a step failure does: in
    a BlowupError with t (0.0 for the call on x0) and the state, chained to it.
    """
    dt, stop = spec.dt, spec.stop
    step = step_euler  # looked up once per run, so perfbench/spans.py can still replace it
    x = tuple(map(float, x0))
    try:
        u = (float(controller(0.0, x)),)
    except (ArithmeticError, ValueError) as exc:
        raise _blowup(f"{type(exc).__name__} ({exc}) in the controller", plant, x, 0.0) from exc
    times, states, inputs = [0.0], [x], [u]
    event = None
    n_steps = round(spec.t_end / dt)
    for k in range(1, n_steps + 1):
        t = k * dt
        try:
            x = step(plant, x, u, dt)
        except BlowupError as exc:
            raise BlowupError(f"{exc} (t={t:.6g})", t=t, state=exc.state) from exc.__cause__
        if stop is not None:
            event = stop(x)
        if event is None and k < n_steps:
            try:
                u = (float(controller(t, x)),)
            except (ArithmeticError, ValueError) as exc:
                raise _blowup(f"{type(exc).__name__} ({exc}) in the controller", plant, x, t) from exc
        times.append(t)
        states.append(x)
        inputs.append(u)
        if event is not None:
            break
    return Trajectory(times, states, inputs, "timeout" if event is None else event)


def linearize(plant, x0, u0):
    """(A, B) at (x0, u0) by central differences of plant.deriv, sized by x0 and u0."""
    x0 = np.asarray(x0, dtype=float)
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    h = 1e-6
    n, m = x0.size, u0.size
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        A[:, j] = np.subtract(plant.deriv(x0 + e, u0), plant.deriv(x0 - e, u0)) / (2 * h)
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        B[:, j] = np.subtract(plant.deriv(x0, u0 + e), plant.deriv(x0, u0 - e)) / (2 * h)
    return A, B


def sip_frozen_coefficients(theta):
    """Exact (a, b) of the pendulum frozen at theta: G sin(theta)/theta and -cos(theta)."""
    sinc = 1.0 if theta == 0 else math.sin(theta) / theta
    return G * sinc, -math.cos(theta)


def sip_design_pair(a, b):
    """3-state (theta, theta_dot, x_dot) design pair A = [[0,1,0],[a,0,0],[0,0,0]], B = [0,b,1]."""
    A = np.array([[0.0, 1.0, 0.0], [a, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return A, np.array([0.0, b, 1.0])


def sip_factored_model(theta):
    """State-dependent (A, B) that factor the pendulum-on-cart dynamics exactly.

    State order (theta, theta_dot, x, x_dot), input cart acceleration;
    A21, B2 = sip_frozen_coefficients(theta), so deriv == A(x) x + B(x) u.
    """
    a21, b2 = sip_frozen_coefficients(theta)
    A = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [a21, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0],
    ])
    B = np.array([0.0, b2, 0.0, 1.0])
    return A, B


def sip_plant():
    """Single inverted pendulum on a cart, state (theta, theta_dot, x, x_dot).

    theta_dd = G sin(theta) - a cos(theta) (unit length) and x_dd = a for
    cart acceleration input a.  This is the true nonlinear plant; the guarded
    small-angle branch lives only in control.adaptive_gain, its one user.
    """
    def deriv(x, u):
        y = x[0]
        a = u[0]
        return (x[1], G * math.sin(y) - a * math.cos(y), x[3], a)

    return PlantModel("sip", deriv)


def dip_plant():
    """Serial double inverted pendulum on an acceleration-driven cart.

    Unit point masses at the tips of massless unit links; state (theta1, theta1_dot, theta2,
    theta2_dot, x, x_dot), input cart acceleration. The angular accelerations solve the
    Lagrangian M (dd1, dd2) = r, M = [[2, c], [c, 1]], by LAPACK dgesv's operations (OpenBLAS):
    l = c/2 and u22 = 1 - l c (>= 1/2) unfused, then dd2 = fma(-r0, l, r1)/u22, dd1 = fma(-dd2, c, r0)/2.
    """
    def deriv(x, u):
        y1, dy1, y2, dy2, _, dpos = x
        a = u[0]
        c = math.cos(y1 - y2)
        s12 = math.sin(y1 - y2)
        r0 = 2.0 * (G * math.sin(y1) - a * math.cos(y1)) - dy2 ** 2 * s12
        r1 = G * math.sin(y2) - a * math.cos(y2) + dy1 ** 2 * s12
        l = c * 0.5
        dd2 = fma(-r0, l, r1) / (1.0 - l * c)
        return (dy1, fma(-dd2, c, r0) / 2.0, dy2, dd2, dpos, a)

    return PlantModel("dip", deriv)


def motorcycle_plant():
    """Planar motorcycle: kinematic bicycle, steering lag, inverted-pendulum roll.

    State (x, y, phi, beta, roll, roll_rate); input is the commanded
    steering angle. Speed MOTO_V is fixed.
    """
    def deriv(s, u):
        _, _, phi, beta, roll, droll = s
        tb = math.tan(beta)
        return (
            MOTO_V * math.cos(phi),
            MOTO_V * math.sin(phi),
            _MOTO_TURN * tb,
            (u[0] - beta) / MOTO_TAU_BETA,
            droll,
            _MOTO_TOPPLE * math.sin(roll) - _MOTO_LEAN * tb * math.cos(roll),
        )

    return PlantModel("motorcycle", deriv)


def motorcycle_lateral_plant():
    """Simplified lateral motorcycle model used for gain design.

    State (y, phi, roll, roll_rate) in line-aligned coordinates; input is
    the steering angle directly (no lag).  Its linearization at upright
    straight-line motion is the design model A, B.
    """
    def deriv(s, u):
        _, phi, roll, droll = s
        tb = math.tan(u[0])
        return (
            MOTO_V * math.sin(phi),
            _MOTO_TURN * tb,
            droll,
            _MOTO_TOPPLE * math.sin(roll) - _MOTO_LEAN * tb * math.cos(roll),
        )

    return PlantModel("motorcycle_lateral", deriv)


def point2d_plant():
    """2-D nonlinear point: dx = x sin(y), dy = y + u."""
    def deriv(s, u):
        x, y = s
        return (x * math.sin(y), y + u[0])

    def lin(s):
        x, y = s
        A = np.array([[math.sin(y), x * math.cos(y)],
                      [0.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        return A, B

    return PlantModel("point2d", deriv, analytic_linearization=lin)
