"""Nonlinear plant dynamics, fixed-step integration, and linearization.

Plants are plain data: a derivative function plus dimensions.
Integration is explicit Euler with the control recomputed on every step,
mirroring the simulation loops the gains were validated on.
"""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

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
    name: str
    state_dim: int
    input_dim: int
    deriv: Callable  # (state, input) -> state derivative as a float array
    analytic_linearization: Optional[Callable] = None  # (state) -> (A, B)


@dataclass
class SimSpec:
    """Fixed-step simulation settings."""

    dt: float
    t_end: float
    stop_success: Optional[Callable] = None
    stop_failure: Optional[Callable] = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.t_end < self.dt:
            raise ValueError("t_end must be at least dt")


@dataclass
class Trajectory:
    times: list
    states: list
    inputs: list
    terminal_event: str  # success | failure | destination | timeout


def step_euler(plant, x, u, dt):
    """One explicit Euler step: x + dt * deriv(x, u).

    plant.deriv must return a float array. Its finiteness is checked through
    the plain-float sum of its entries first, which is quicker than a numpy
    reduction on a handful of entries and raises no numpy warning; only when
    that sum is not finite are the entries checked, so finite entries whose
    sum overflows do not raise.
    """
    dx = plant.deriv(x, u)
    if not math.isfinite(sum(dx.tolist())) and not np.isfinite(dx).all():
        raise BlowupError(f"non-finite derivative for plant '{plant.name}' at state {x}", state=x)
    return x + dt * dx


def simulate(plant, controller, x0, spec):
    """Run Euler steps from x0 until stop_success, stop_failure, or t_end.

    controller is called as controller(t, state) once per step (control
    period equals dt).  Success is checked before failure after each step,
    matching the reference simulation loops.  states holds the arrays
    step_euler returns, so neither the controller nor the stop predicates
    may change a state in place; each input is a standalone float array of
    plant.input_dim entries, and the last sample repeats the input array of
    the one before it.
    """
    dt, stop_success, stop_failure = spec.dt, spec.stop_success, spec.stop_failure
    step = step_euler  # looked up once per run, so perfbench/spans.py can still replace it
    m = plant.input_dim
    x = np.array(x0, dtype=float)
    u = np.empty(m)
    u[:] = controller(0.0, x)
    times, states, inputs = [0.0], [x], [u]
    event = "timeout"
    n_steps = round(spec.t_end / dt)
    for k in range(1, n_steps + 1):
        t = k * dt
        try:
            x = step(plant, x, u, dt)
        except BlowupError as exc:
            raise BlowupError(f"{exc} (t={t:.6g})", t=t, state=exc.state) from None
        fired = None
        if stop_success is not None and stop_success(x):
            fired = "success"
        elif stop_failure is not None and stop_failure(x):
            fired = "failure"
        if fired is None and k < n_steps:
            u = np.empty(m)
            u[:] = controller(t, x)
        times.append(t)
        states.append(x)
        inputs.append(u)
        if fired is not None:
            event = fired
            break
    return Trajectory(times, states, inputs, event)


def linearize(plant, x0, u0):
    """(A, B) at (x0, u0): analytic when declared, else central differences."""
    x0 = np.asarray(x0, dtype=float)
    u0 = np.atleast_1d(np.asarray(u0, dtype=float))
    if plant.analytic_linearization is not None:
        return plant.analytic_linearization(x0)
    h = 1e-6
    n, m = plant.state_dim, plant.input_dim
    A = np.zeros((n, n))
    B = np.zeros((n, m))
    for j in range(n):
        e = np.zeros(n)
        e[j] = h
        A[:, j] = (np.asarray(plant.deriv(x0 + e, u0), dtype=float)
                   - np.asarray(plant.deriv(x0 - e, u0), dtype=float)) / (2 * h)
    for j in range(m):
        e = np.zeros(m)
        e[j] = h
        B[:, j] = (np.asarray(plant.deriv(x0, u0 + e), dtype=float)
                   - np.asarray(plant.deriv(x0, u0 - e), dtype=float)) / (2 * h)
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
        ydd = G * math.sin(y) - a * math.cos(y)
        return np.array([x[1], ydd, x[3], a])

    return PlantModel("sip", 4, 1, deriv)


def dip_plant():
    """Serial double inverted pendulum on an acceleration-driven cart.

    Unit point masses at the tips of massless unit links; state
    (theta1, theta1_dot, theta2, theta2_dot, x, x_dot), input cart
    acceleration.  Angular accelerations come from the 2x2 Lagrangian
    mass-matrix solve.
    """
    def deriv(x, u):
        y1, dy1, y2, dy2, _, dpos = x
        a = u[0]
        c12 = math.cos(y1 - y2)
        s12 = math.sin(y1 - y2)
        M = np.array([[2.0, c12], [c12, 1.0]])
        r = np.array([2.0 * (G * math.sin(y1) - a * math.cos(y1)) - dy2 ** 2 * s12,
                      G * math.sin(y2) - a * math.cos(y2) + dy1 ** 2 * s12])
        dd = np.linalg.solve(M, r)
        return np.array([dy1, dd[0], dy2, dd[1], dpos, a])

    return PlantModel("dip", 6, 1, deriv)


def motorcycle_plant():
    """Planar motorcycle: kinematic bicycle, steering lag, inverted-pendulum roll.

    State (x, y, phi, beta, roll, roll_rate); input is the commanded
    steering angle. Speed MOTO_V is fixed.
    """
    def deriv(s, u):
        _, _, phi, beta, roll, droll = s
        tb = math.tan(beta)
        return np.array([
            MOTO_V * math.cos(phi),
            MOTO_V * math.sin(phi),
            (MOTO_V / MOTO_L) * tb,
            (u[0] - beta) / MOTO_TAU_BETA,
            droll,
            (G / MOTO_H) * math.sin(roll) - (MOTO_V ** 2 / (MOTO_H * MOTO_L)) * tb * math.cos(roll),
        ])

    return PlantModel("motorcycle", 6, 1, deriv)


def motorcycle_lateral_plant():
    """Simplified lateral motorcycle model used for gain design.

    State (y, phi, roll, roll_rate) in line-aligned coordinates; input is
    the steering angle directly (no lag).  Its linearization at upright
    straight-line motion is the design model A, B.
    """
    def deriv(s, u):
        _, phi, roll, droll = s
        tb = math.tan(u[0])
        return np.array([
            MOTO_V * math.sin(phi),
            (MOTO_V / MOTO_L) * tb,
            droll,
            (G / MOTO_H) * math.sin(roll) - (MOTO_V ** 2 / (MOTO_H * MOTO_L)) * tb * math.cos(roll),
        ])

    return PlantModel("motorcycle_lateral", 4, 1, deriv)


def point2d_plant():
    """2-D nonlinear point: dx = x sin(y), dy = y + u."""
    def deriv(s, u):
        x, y = s
        return np.array([x * math.sin(y), y + u[0]])

    def lin(s):
        x, y = s
        A = np.array([[math.sin(y), x * math.cos(y)],
                      [0.0, 1.0]])
        B = np.array([[0.0], [1.0]])
        return A, B

    return PlantModel("point2d", 2, 1, deriv, analytic_linearization=lin)
