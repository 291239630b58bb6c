"""Nonlinear plant dynamics, fixed-step integration, and linearization.

Plants are plain data: a name and a derivative function.
Integration is explicit Euler with the control recomputed on every step,
mirroring the simulation loops the gains were validated on.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .numerics import lapack

# the plants' physics, read by every design model built on them
G = 10.0  # gravity
MOTO_V = 10.0  # motorcycle speed
MOTO_L = 1.5  # wheelbase
MOTO_H = 1.0  # center-of-mass height
MOTO_TAU_BETA = 0.02  # steering lag


class BlowupError(RuntimeError):
    """Dynamics produced a non-finite derivative; carries time and state."""

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

    plant.deriv must return a tuple of floats, as many as x has. Its
    finiteness is checked through the sum of its entries first, and only when
    that sum is not finite entry by entry, so finite entries whose sum
    overflows do not raise.  The plants' state sizes (2, 4 and 6) are spelled
    out entry by entry, which skips the comprehension's frame; every entry is
    still xi + dt * di, one rounded product and one rounded sum, so the result
    is the comprehension's bit for bit.
    """
    dx = plant.deriv(x, u)
    if not math.isfinite(sum(dx)) and not all(map(math.isfinite, dx)):
        state = np.array(x, dtype=float)
        raise BlowupError(f"non-finite derivative for plant '{plant.name}' at state {state}",
                          state=state)
    n = len(x)
    if len(dx) != n:
        raise ValueError(f"plant '{plant.name}' returned {len(dx)} derivative entries "
                         f"for a state of {n}")
    if n == 4:
        x0, x1, x2, x3 = x
        d0, d1, d2, d3 = dx
        return (x0 + dt * d0, x1 + dt * d1, x2 + dt * d2, x3 + dt * d3)
    if n == 6:
        x0, x1, x2, x3, x4, x5 = x
        d0, d1, d2, d3, d4, d5 = dx
        return (x0 + dt * d0, x1 + dt * d1, x2 + dt * d2,
                x3 + dt * d3, x4 + dt * d4, x5 + dt * d5)
    if n == 2:
        x0, x1 = x
        d0, d1 = dx
        return (x0 + dt * d0, x1 + dt * d1)
    return tuple([xi + dt * di for xi, di in zip(x, dx)])


def simulate(plant, controller, x0, spec):
    """Run Euler steps from x0 until spec.stop names an event, or to t_end ("timeout").

    controller(t, state) is called once per step (control period equals dt)
    and returns a float; stop(state), when set, once after each step: None
    goes on, a string ends the run with that event.  Each state is the tuple
    of floats step_euler returns, each input the 1-tuple of the controller's
    float; the last sample repeats the input before it.
    """
    dt, stop = spec.dt, spec.stop
    step = step_euler  # looked up once per run, so perfbench/spans.py can still replace it
    x = tuple(map(float, x0))
    u = (float(controller(0.0, x)),)
    times, states, inputs = [0.0], [x], [u]
    event = None
    n_steps = round(spec.t_end / dt)
    for k in range(1, n_steps + 1):
        t = k * dt
        try:
            x = step(plant, x, u, dt)
        except BlowupError as exc:
            raise BlowupError(f"{exc} (t={t:.6g})", t=t, state=exc.state) from None
        if stop is not None:
            event = stop(x)
        if event is None and k < n_steps:
            u = (float(controller(t, x)),)
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

    Unit point masses at the tips of massless unit links; state
    (theta1, theta1_dot, theta2, theta2_dot, x, x_dot), input cart
    acceleration.  Angular accelerations come from the 2x2 Lagrangian
    mass-matrix solve.
    """
    M, r = np.array([[2.0, 0.0], [0.0, 1.0]]), np.empty(2)  # refilled per call; solve1 copies them

    def deriv(x, u):
        y1, dy1, y2, dy2, _, dpos = x
        a = u[0]
        c12 = math.cos(y1 - y2)
        s12 = math.sin(y1 - y2)
        M[0, 1] = M[1, 0] = c12
        r[0] = 2.0 * (G * math.sin(y1) - a * math.cos(y1)) - dy2 ** 2 * s12
        r[1] = G * math.sin(y2) - a * math.cos(y2) + dy1 ** 2 * s12
        dd1, dd2 = lapack.solve1(M, r).tolist()  # np.linalg.solve(M, r)'s LAPACK call
        return (dy1, dd1, dy2, dd2, dpos, a)

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
            (MOTO_V / MOTO_L) * tb,
            (u[0] - beta) / MOTO_TAU_BETA,
            droll,
            (G / MOTO_H) * math.sin(roll) - (MOTO_V ** 2 / (MOTO_H * MOTO_L)) * tb * math.cos(roll),
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
            (MOTO_V / MOTO_L) * tb,
            droll,
            (G / MOTO_H) * math.sin(roll) - (MOTO_V ** 2 / (MOTO_H * MOTO_L)) * tb * math.cos(roll),
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
