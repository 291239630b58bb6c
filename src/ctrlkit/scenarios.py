"""Named closed-loop studies with fixed defaults, plus result serialization.

Each scenario is one row of a table: a builder that wires a plant, a
controller and an initial state exactly as in the validation runs the gains
were tuned on, next to its defaults, stop predicate and plot. run_scenario
executes one and returns the trajectory together with a RunReport;
emit/emit_table write CSV, JSON, or SVG artifacts.
"""

import hashlib
import itertools
import json
import math
import struct
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional

import numpy as np

from .control import (CBF_SINGULARITY_THRESHOLD, MotorcycleGuidance,
                      adaptive_gain, cbf_filter_scalar, clf_cbf_step,
                      dip_sliding_target, fsfc, lookup_region,
                      lyapunov_ref_2d, sysid_solve)
from .models import (MOTO_H, MOTO_L, MOTO_V, G, PlantModel, SimSpec,
                     dip_plant, motorcycle_plant, point2d_plant, simulate,
                     sip_design_pair, sip_factored_model,
                     sip_frozen_coefficients, sip_plant)
from .synthesis import (CareNoSolution, RobustConfig, UncertaintyBounds,
                        design_gain_matrix, eig_sweep, robust_riccati_gain,
                        sip_coefficients, sip_pole_gain, sip_region_bounds)

THETA_MAX = 0.4 * math.pi

_POLES3 = (-4.0, -4.0, -4.0)
_SIP_X0 = (THETA_MAX, 0.0, 0.2, 0.0)
_SIP_CBF_YB, _SIP_CBF_DYB = math.pi / 15, 2.0  # sip_cbf's angle and angular-rate bounds
_SIP_CBF_YB2, _SIP_CBF_DYB2 = _SIP_CBF_YB ** 2, _SIP_CBF_DYB ** 2
_FALLEN = math.pi / 2  # a pendulum or the motorcycle's roll at or past this angle has fallen

# two-line motorcycle course: initial pose, destination pose (20 m per leg)
_MOTO_POSE_I = (0.0, -0.2, math.pi / 8)
_MOTO_POSE_D = (20.0 * math.cos(math.pi / 8) + 20.0 * math.cos(math.pi / 4),
                20.0 * math.sin(math.pi / 8) + 20.0 * math.sin(math.pi / 4),
                math.pi / 4)
_MOTO_XD, _MOTO_YD = _MOTO_POSE_D[:2]
_MOTO_ARRIVE_DIST = 0.2

# unsafe disks (center_x, center_y, radius) of the 2-D point studies, and their start
_DISKS = {"case1": (2.0, 2.0, 1.0), "case2": (0.0, 3.5, 3.0)}
_POINT2D_X0 = (4.0, 5.0)


@dataclass
class RunReport:
    """Summary of one scenario run; JSON-serializable field types only."""

    scenario: str
    terminal_event: str
    final_state: list
    elapsed_sim_time: float
    min_h: Optional[float]
    gain_matrices_used: list
    checksum: str
    guard_activations: Optional[int] = None


@dataclass(frozen=True)
class BuiltScenario:
    """What one run creates: the closed loop a row's build wires, and its read-backs.

    After the run gains() returns the gain vectors (adaptive scenarios report
    the gain they ended on), guard() the singularity-guard activations, and
    lowest_h() the smallest row.barrier_h the controller saw, folded as min().
    """

    plant: PlantModel
    x0: tuple
    controller: Callable  # (t, state) -> input
    gains: Callable  # () -> list of gain vectors
    guard: Optional[Callable] = None  # () -> activation count
    lowest_h: Optional[Callable] = None  # () -> min h over the controller's states


@dataclass(frozen=True)
class Plot:
    """A scenario's SVG projection: with cart set, the lead angle and that state
    entry against time; otherwise the x-y path, drawn after the guides (each an
    (xs, ys, color) polyline) and before the circles (each (cx, cy, r, color))."""

    cart: Optional[int] = None
    guides: tuple = ()
    circles: tuple = ()


@dataclass(frozen=True)
class Scenario:
    """What is fixed about one registered scenario (a row of _SCENARIOS).

    build(params) wires one run; it looks the plant factory, fsfc and the guidance
    up as it runs, so a tracer that replaces those module attributes sees them.
    """

    build: Callable  # (params) -> BuiltScenario
    t_end: float
    expected_event: str
    plot: Plot
    stop: Optional[Callable] = None  # (state) -> event name or None
    params: dict = field(default_factory=dict)  # tunables and their defaults
    barrier_h: Optional[Callable] = None  # (state) -> h, whose min over the run is reported
    final_norm_below: Optional[float] = None  # extra pass criterion the CLI asserts


# ---------------------------------------------------------------------------
# gain constructions


def sip_stabilizing_gain(theta=0.0):
    """Gain placing the poles at (-4, -4, -4) on the 3-state pendulum design model."""
    return sip_pole_gain(*sip_frozen_coefficients(theta), sip_coefficients(_POLES3))


def sip_full_gain(poles):
    """Pole-placement gain on the upright 4-state pendulum linearization."""
    A, B = sip_factored_model(0.0)
    return design_gain_matrix(A, B, poles)


def sip_robust_gain(parametrization):
    """Riccati-based robust gain covering |theta| <= 0.4*pi.

    "vertex" freezes the nominal model at the upright coefficients and bounds
    the deviation to the extreme angle with a_bar = b_bar = 300; "midpoint"
    centers the nominal between the two extremes with a_bar = b_bar = 50.
    """
    a_true = G * math.sin(THETA_MAX) / THETA_MAX
    b_true = -math.cos(THETA_MAX)
    if parametrization == "vertex":
        a0, b0 = G, -1.0
        a_bar = b_bar = 300.0
    elif parametrization == "midpoint":
        a0, b0 = (G + a_true) / 2.0, (-1.0 + b_true) / 2.0
        a_bar = b_bar = 50.0
    else:
        raise ValueError(f"unknown parametrization {parametrization!r}")
    A, B = sip_design_pair(a0, b0)
    dA = np.zeros((3, 3))
    dA[1, 0] = abs(a_true - a0)
    dB = np.zeros((3, 1))
    dB[1, 0] = abs(b_true - b0)
    cfg = RobustConfig(a_bar=a_bar, b_bar=b_bar, epsilon=0.01, Q=np.eye(3), R=[[0.01]])
    K = robust_riccati_gain(A, B, UncertaintyBounds(dA, dB), cfg)
    if isinstance(K, CareNoSolution):
        raise RuntimeError("robust synthesis found no positive definite solution; "
                           "raise a_bar/b_bar somewhat and lower epsilon somewhat")
    return K


def sip_interval_gain():
    """Decade-floor gain (-110, -50, -10) built inside the closed-form stability region.

    With a <= G and b >= cos(0.4*pi): k3 = -10, then k2 and k1 are each 10 below the
    decade floor of their cascaded sip_region_bounds threshold (-32.4, then -91.7).
    """
    b_lo = math.cos(THETA_MAX)
    K = [0.0, 0.0, -10.0]  # k2 = 0 fails its bound, so the first pass yields only k2's threshold
    for i in (1, 0):  # k2, then k1 below the threshold the chosen k2 gives
        K[i] = math.floor(sip_region_bounds(K, G, b_lo)[1 - i] / 10.0) * 10.0 - 10.0
    return np.array(K)


def _dip_design_matrices():
    A = np.array([
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
        [2.0 * G, 0.0, -G, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
        [-2.0 * G, 0.0, 2.0 * G, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    ])
    B = np.array([0.0, -1.0, 0.0, 0.0, 0.0, 1.0])
    return A, B


def _motorcycle_design_matrices():
    A = np.array([
        [0.0, MOTO_V, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 0.0, G / MOTO_H, 0.0],
    ])
    B = np.array([0.0, MOTO_V / MOTO_L, 0.0, -MOTO_V ** 2 / (MOTO_H * MOTO_L)])
    return A, B


# ---------------------------------------------------------------------------
# controller assemblies shared by several scenarios


def _stabilize_then_slide(first_phase_acc, K_slide, s_v, dt):
    """Hold the first-phase law while the partial norm is large, then slide.

    The switch is one-way: once theta^2 + theta_dot^2 + x_dot^2 drops to 1
    the cart position is frozen as the target and walked to 0 at rate s_v,
    with the slide gain tracking the moving target. The squares are products,
    not ** (libm pow): the verdict is the same except where the sum lies within
    a few ulps of 1.
    """
    cx = None  # the sliding target's cart position, set when the first phase ends

    def controller(t, x):
        nonlocal cx
        if cx is None:
            y, dy, v = x[0], x[1], x[3]
            if y * y + dy * dy + v * v > 1.0:
                return first_phase_acc(x)
            cx = x[2]
        cx = dip_sliding_target(cx, s_v, dt)
        return fsfc(K_slide, (x[0], x[1], x[2] - cx, x[3]))

    return controller


def _sip_fallen(s):
    return "failure" if abs(s[0]) >= _FALLEN else None


def _sip_settled_or_fallen(s):
    """Settled when the squared state norm drops below 0.001, else _sip_fallen's test.

    The squares are products, not ** (libm pow): the verdict is the same except
    where the sum lies within a few ulps of 0.001.
    """
    y, dy, p, v = s
    if y * y + dy * dy + p * p + v * v < 0.001:
        return "success"
    return "failure" if abs(y) >= _FALLEN else None


def _dip_fallen(s):
    return "failure" if abs(s[0]) >= _FALLEN and abs(s[2]) >= _FALLEN else None


def _moto_arrived_or_fell(s):
    if math.hypot(s[0] - _MOTO_XD, s[1] - _MOTO_YD) < _MOTO_ARRIVE_DIST:
        return "destination"
    return "failure" if abs(s[4]) >= _FALLEN else None


def _sip_cbf_h(s):
    """sip_cbf's barrier: |theta| <= pi/15 and |theta_dot| <= 2, the angle weighted 25:1."""
    return (25.0 * (_SIP_CBF_YB2 - s[0] ** 2) + (_SIP_CBF_DYB2 - s[1] ** 2)) / 2.0


# ---------------------------------------------------------------------------
# scenario builders; each returns the BuiltScenario run_scenario executes


def _build_sip_nonrobust(p):
    K = sip_stabilizing_gain()

    def controller(t, x):
        return fsfc(K, (x[0], x[1], x[3]))

    return BuiltScenario(sip_plant(), _SIP_X0, controller, lambda: [K])


def _build_sip_slide(p, K_p):
    """Hold the partial-state gain K_p until the pendulum settles, then slide."""
    K_slide = sip_full_gain((-4.0, -4.0 + 2.0j, -4.0 - 2.0j, -4.0))
    controller = _stabilize_then_slide(lambda x: fsfc(K_p, (x[0], x[1], x[3])),
                                       K_slide, p["s_v"], p["dt"])
    return BuiltScenario(sip_plant(), _SIP_X0, controller, lambda: [K_p, K_slide])


def _build_sip_adaptive_online(p):
    K = None

    def controller(t, x):
        nonlocal K
        K = adaptive_gain(x[0], _POLES3)
        return fsfc(K, (x[0], x[1], x[3]))

    return BuiltScenario(sip_plant(), _SIP_X0, controller, lambda: [] if K is None else [K])


def _build_sip_adaptive_lookup(p):
    region_gains = [sip_stabilizing_gain(theta=th) for th in (0.0, math.pi / 4, THETA_MAX)]
    K_slide = sip_full_gain((-4.0, -4.0, -4.0, -4.0))
    controller = _stabilize_then_slide(
        lambda x: fsfc(region_gains[lookup_region(x[0])], (x[0], x[1], x[3])),
        K_slide, p["s_v"], p["dt"])
    return BuiltScenario(sip_plant(), _SIP_X0, controller, lambda: region_gains + [K_slide])


def _build_sip_adaptive_sysid(p):
    # the six-row window as sysid_solve reads it, newest first: the rows' (theta, input)
    # pairs back to back, and the theta_dot rates
    regressors, rates = [], []
    dt = p["dt"]
    prev, acc, K = _SIP_X0, 1.0, None  # first difference 0; warm-up input until an estimate
    coeffs = sip_coefficients(_POLES3)

    def controller(t, x):
        nonlocal prev, acc, K
        warm = len(rates) == 6  # read before this insert: 6 warm-up rows, then an estimate per step
        regressors[:0] = x[0], acc
        rates.insert(0, (x[1] - prev[1]) / dt)
        del regressors[12:], rates[6:]
        if warm:
            try:
                K = sip_pole_gain(*sysid_solve(regressors, rates), coeffs)
            except ValueError:
                pass  # unidentifiable or non-finite this step; keep the previous gain
            if K is not None:
                acc = fsfc(K, (x[0], x[1], x[3]))
        prev = x
        return acc

    return BuiltScenario(sip_plant(), _SIP_X0, controller, lambda: [] if K is None else [K])


def _build_sip_cbf(p):
    K = sip_full_gain((-4.0, -4.0, -4.0, -4.0))
    h, x0 = _sip_cbf_h, (0.2, 0.0, 20.0, 0.0)
    guards, lowest = 0, h(x0)

    def controller(t, x):
        nonlocal guards, lowest
        hs = h(x)
        if hs < lowest:
            lowest = hs
        y, dy = x[0], x[1]
        u_ref = fsfc(K, x)
        Lfh = -25.0 * y * dy - G * dy * math.sin(y)
        Lgh = dy * math.cos(y)
        if abs(Lgh) <= CBF_SINGULARITY_THRESHOLD:
            guards += 1
        return cbf_filter_scalar(u_ref, Lfh, Lgh, hs)

    return BuiltScenario(sip_plant(), x0, controller, lambda: [K],
                         guard=lambda: guards, lowest_h=lambda: lowest)


def _build_dip(p):
    A, B = _dip_design_matrices()
    K = design_gain_matrix(A, B, [-4.0] * 6)
    x0, s_v, dt = p["x0"], p["s_v"], p["dt"]

    def controller(t, s):
        c = dip_sliding_target(x0, s_v, t + dt)
        return fsfc(K, (s[0], s[1], s[2], s[3], s[4] - c, s[5]))

    return BuiltScenario(dip_plant(), (0.2, 0.0, 0.0, 0.0, p["x0"], 0.0), controller, lambda: [K])


def _build_motorcycle(p):
    A, B = _motorcycle_design_matrices()
    K = design_gain_matrix(A, B, [-2.5] * 4)
    guidance = MotorcycleGuidance(_MOTO_POSE_I, _MOTO_POSE_D, preview=p["preview"])

    def controller(t, s):
        return guidance.step(s, K)

    return BuiltScenario(motorcycle_plant(), (0.0, -0.2, -0.1, 0.0, 0.3, 0.0),
                         controller, lambda: [K])


def _build_point2d_cbf(disk, h):
    cx, cy, _ = disk
    guards, lowest = 0, h(_POINT2D_X0)

    def controller(t, s):
        nonlocal guards, lowest
        hs = h(s)
        if hs < lowest:
            lowest = hs
        x, y = s[0], s[1]
        u_ref = lyapunov_ref_2d(x, y)
        Lfh = (x - cx) * x * math.sin(y) + (y - cy) * y
        Lgh = y - cy
        if abs(Lgh) <= CBF_SINGULARITY_THRESHOLD:
            guards += 1
        return cbf_filter_scalar(u_ref, Lfh, Lgh, 10.0 * hs)

    return BuiltScenario(point2d_plant(), _POINT2D_X0, controller, lambda: [],
                         guard=lambda: guards, lowest_h=lambda: lowest)


def _build_point2d_clf_cbf(disk, h):
    cx, cy, _ = disk
    guards, lowest = 0, h(_POINT2D_X0)

    def controller(t, s):
        nonlocal guards, lowest
        hs = h(s)
        if hs < lowest:
            lowest = hs
        x, y = s[0], s[1]
        u_ref = lyapunov_ref_2d(x, y)
        if abs(y) <= CBF_SINGULARITY_THRESHOLD:
            guards += 1
            return u_ref
        V = (x * x + y * y) / 2.0
        sy = math.sin(y)
        LfV = x * x * sy + y * y
        Lfh = (x - cx) * x * sy + (y - cy) * y
        u, _ = clf_cbf_step(u_ref, LfV, y, V, Lfh, y - cy, 10.0 * hs)
        return u

    return BuiltScenario(point2d_plant(), _POINT2D_X0, controller, lambda: [],
                         guard=lambda: guards, lowest_h=lambda: lowest)


# ---------------------------------------------------------------------------
# the registry: one row per scenario


def _point2d_row(build, case):
    """A 2-D point study around case's unsafe disk; build(disk, h) wires its controller."""
    cx, cy, cr = disk = _DISKS[case]
    r2 = cr ** 2

    def h(s):
        return ((s[0] - cx) ** 2 + (s[1] - cy) ** 2 - r2) / 2.0

    return Scenario(lambda p: build(disk, h), 10.0, "timeout",
                    Plot(circles=((*disk, "red"), (0.0, 0.0, 0.05, "green"))), barrier_h=h)


def _motorcycle_plot():
    """The two-line course through its turning point, and the arrival circle."""
    (xI, yI, _), (xD, yD, _) = _MOTO_POSE_I, _MOTO_POSE_D
    xM, yM = MotorcycleGuidance(_MOTO_POSE_I, _MOTO_POSE_D).turning_point
    return Plot(guides=(((xI, xM, xD), (yI, yM, yD), "gray"),),
                circles=((xD, yD, _MOTO_ARRIVE_DIST, "green"),))


_DT = 0.001  # every scenario's default step
_SIP_PLOT = Plot(cart=2)

# defaults and expected outcomes; the README table mirrors these rows
_SCENARIOS = {
    "dip_smc": Scenario(_build_dip, 8.0, "timeout", Plot(cart=4), _dip_fallen,
                        {"x0": 20.0, "s_v": 8.0}, final_norm_below=0.05),
    "motorcycle_smc": Scenario(_build_motorcycle, 10.0, "destination", _motorcycle_plot(),
                               _moto_arrived_or_fell, {"preview": 6.0}),
    "sip_nonrobust_failure": Scenario(_build_sip_nonrobust, 5.0, "failure", _SIP_PLOT, _sip_fallen),
    "sip_robust_riccati": Scenario(lambda p: _build_sip_slide(p, sip_robust_gain("vertex")), 20.0,
                                   "success", _SIP_PLOT, _sip_settled_or_fallen, {"s_v": 8.0}),
    "sip_robust_riccati_midpoint": Scenario(
        lambda p: _build_sip_slide(p, sip_robust_gain("midpoint")), 20.0,
        "success", _SIP_PLOT, _sip_settled_or_fallen, {"s_v": 8.0}),
    "sip_interval_polynomial": Scenario(lambda p: _build_sip_slide(p, sip_interval_gain()), 20.0,
                                        "success", _SIP_PLOT, _sip_settled_or_fallen, {"s_v": 8.0}),
    "sip_adaptive_online": Scenario(_build_sip_adaptive_online, 3.0, "timeout", _SIP_PLOT, _sip_fallen),
    "sip_adaptive_lookup": Scenario(_build_sip_adaptive_lookup, 10.0, "success", _SIP_PLOT,
                                    _sip_settled_or_fallen, {"s_v": 8.0}),
    "sip_adaptive_sysid": Scenario(_build_sip_adaptive_sysid, 3.0, "timeout", _SIP_PLOT, _sip_fallen),
    "sip_cbf": Scenario(_build_sip_cbf, 10.0, "timeout", _SIP_PLOT, _sip_fallen, barrier_h=_sip_cbf_h),
    "point2d_cbf_case1": _point2d_row(_build_point2d_cbf, "case1"),
    "point2d_cbf_case2": _point2d_row(_build_point2d_cbf, "case2"),
    "point2d_clf_cbf_case1": _point2d_row(_build_point2d_clf_cbf, "case1"),
    "point2d_clf_cbf_case2": _point2d_row(_build_point2d_clf_cbf, "case2"),
}

SCENARIO_IDS = tuple(_SCENARIOS)
SCENARIO_DEFAULTS = {sid: {"dt": _DT, "t_end": row.t_end, "expected_event": row.expected_event,
                           "params": dict(row.params)} for sid, row in _SCENARIOS.items()}
FINAL_NORM_BELOW = {sid: row.final_norm_below for sid, row in _SCENARIOS.items()
                    if row.final_norm_below is not None}

# overrides that must be > 0 (dip_smc's x0 may take any finite value)
_POSITIVE_TUNABLES = ("dt", "t_end", "s_v", "preview")


def _row(scenario_id):
    row = _SCENARIOS.get(scenario_id) if isinstance(scenario_id, str) else None
    if row is None:
        raise ValueError(f"unknown scenario {scenario_id!r}; see SCENARIO_IDS")
    return row


def run_scenario(scenario_id, overrides=None):
    """Execute a registered scenario and return (Trajectory, RunReport).

    overrides may set dt, t_end, and the scenario's own tunables (dip_smc:
    x0 and s_v; the sliding scenarios: s_v; motorcycle_smc: preview); any
    other key is rejected.  Every value must be a finite number; dt, t_end,
    s_v and preview must be positive, and t_end at least dt.  All of this is
    checked before any gain is designed.
    """
    row = _row(scenario_id)
    params = {"dt": _DT, "t_end": row.t_end, **row.params}
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"{key!r} is not a tunable of {scenario_id}; "
                             f"allowed: {sorted(params)}")
        try:
            value = float(value)
        except (TypeError, ValueError):
            raise ValueError(f"{key} must be a number, got {value!r}") from None
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        if key in _POSITIVE_TUNABLES and value <= 0:
            raise ValueError(f"{key} must be positive, got {value:g}")
        params[key] = value
    spec = SimSpec(params["dt"], params["t_end"], row.stop)

    built = row.build(params)
    traj = simulate(built.plant, built.controller, built.x0, spec)

    min_h = None
    if built.lowest_h is not None:
        # the controller saw every state but the last (simulate's contract), so
        # folding the last one in after its minimum is min() over all states
        last, lowest = row.barrier_h(traj.states[-1]), built.lowest_h()
        min_h = last if last < lowest else lowest
    report = RunReport(
        scenario=scenario_id,
        terminal_event=traj.terminal_event,
        final_state=list(traj.states[-1]),
        elapsed_sim_time=traj.times[-1],
        min_h=min_h,
        gain_matrices_used=[[float(g) for g in K] for K in built.gains()],
        checksum=trajectory_checksum(traj),
        guard_activations=built.guard() if built.guard is not None else None,
    )
    return traj, report


def trajectory_checksum(traj):
    """SHA-256 over the float64 bytes of the times, states and inputs, then the terminal event.

    struct packs native doubles, the bytes float64.tobytes() gives, without building an array.
    """
    digest = hashlib.sha256(struct.pack(f"{len(traj.times)}d", *traj.times))
    for rows in (traj.states, traj.inputs):
        width = len(rows[0]) if rows else 0
        digest.update(struct.pack(f"{len(rows) * width}d", *itertools.chain.from_iterable(rows)))
    digest.update(traj.terminal_event.encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# serialization


def emit(traj, report, fmt, path):
    """Write the run as csv (samples), json (report + metadata), or svg."""
    if fmt == "csv":
        emit_csv(traj, path)
    elif fmt == "json":
        emit_json(traj, report, path)
    elif fmt == "svg":
        emit_svg(traj, report, path)
    else:
        raise ValueError(f"unknown format {fmt!r}; expected csv, json, or svg")


def emit_csv(traj, path):
    """Samples as t,x1..xn,u1..um rows, 12 significant digits, LF endings."""
    if traj.states:
        n, m = len(traj.states[0]), len(traj.inputs[0])
    else:
        n = m = 0
    header = ",".join(["t"] + [f"x{i + 1}" for i in range(n)]
                      + [f"u{j + 1}" for j in range(m)])
    width = 1 + n + m
    row = ",".join(["%.12g"] * width) + "\n"
    # one % over every sample's values formats each value as a % per row would; the values
    # are chained straight into one tuple, so no tuple per sample is kept alive
    flat = tuple(itertools.chain.from_iterable(
        map(itertools.chain, zip(traj.times), traj.states, traj.inputs)))
    with open(path, "w", newline="\n") as f:
        f.write(header + "\n")
        f.write((row * (len(flat) // width)) % flat)


def emit_json(traj, report, path):
    """Report plus trajectory metadata; parse_report round-trips the report."""
    doc = {
        "report": asdict(report),
        "trajectory": {
            "samples": len(traj.times),
            "t_start": traj.times[0] if traj.times else None,
            "t_end": traj.times[-1] if traj.times else None,
            "state_dim": len(traj.states[0]) if traj.states else 0,
            "input_dim": len(traj.inputs[0]) if traj.inputs else 0,
        },
    }
    with open(path, "w", newline="\n") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def parse_report(path):
    """Read back the RunReport emitted by emit_json."""
    with open(path) as f:
        doc = json.load(f)
    return RunReport(**doc["report"])


def _svg_document(curves, circles):
    """Fixed-size SVG from data-space polylines, each an (xs, ys, color) of
    coordinate columns, and circles (uniform scale)."""
    W, H, pad = 480.0, 360.0, 20.0
    # one chain over every column folds like a flat list of all coordinates (min/max keep
    # the first of equal values: which of -0.0 and 0.0 wins); with none, the extents are 0
    x_ext = [v for cx, _, r, _ in circles for v in (cx - r, cx + r)]
    y_ext = [v for _, cy, r, _ in circles for v in (cy - r, cy + r)]
    x_lo = min(itertools.chain(*[xs for xs, _, _ in curves], x_ext), default=0.0)
    x_hi = max(itertools.chain(*[xs for xs, _, _ in curves], x_ext), default=0.0)
    y_lo = min(itertools.chain(*[ys for _, ys, _ in curves], y_ext), default=0.0)
    y_hi = max(itertools.chain(*[ys for _, ys, _ in curves], y_ext), default=0.0)
    span_x = max(x_hi - x_lo, 1e-12)
    span_y = max(y_hi - y_lo, 1e-12)
    scale = min((W - 2 * pad) / span_x, (H - 2 * pad) / span_y)
    bottom = H - pad

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W:g} {H:g}">',
             f'<rect width="{W:g}" height="{H:g}" fill="white"/>']
    for xs, ys, color in curves:
        step = max(1, len(xs) // 2000)
        pxs = [pad + (x - x_lo) * scale for x in xs[::step]]
        coords = [0.0] * (2 * len(pxs))
        coords[0::2] = pxs
        coords[1::2] = [bottom - (y - y_lo) * scale for y in ys[::step]]
        points = " ".join(["%.2f,%.2f"] * len(pxs)) % tuple(coords)
        parts.append(f'<polyline points="{points}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    for cx, cy, r, color in circles:
        px, py = pad + (cx - x_lo) * scale, bottom - (cy - y_lo) * scale
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r * scale:.2f}" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(traj, report, path):
    """Minimal plot of the projection (Plot) in the scenario's row."""
    plot = _row(report.scenario).plot

    def column(i):
        return [s[i] for s in traj.states]

    if plot.cart is None:
        curves = [*plot.guides, (column(0), column(1), "black")]
    else:
        curves = [(traj.times, column(0), "blue"), (traj.times, column(plot.cart), "gray")]
    with open(path, "w", newline="\n") as f:
        f.write(_svg_document(curves, plot.circles))


def emit_table(which, path):
    """Closed-loop eigenvalue real parts over theta = -72..72 degrees.

    Table 1 sweeps the robust Riccati gain sip_robust_gain("vertex"), and
    table 2 the decade-floor region gain sip_interval_gain(), both
    recomputed at full precision.  Returns the gain that was swept.
    """
    if which == 1:
        K = sip_robust_gain("vertex")
    elif which == 2:
        K = sip_interval_gain()
    else:
        raise ValueError("table number must be 1 or 2")
    degrees = range(-72, 73)
    rows = eig_sweep(K, [math.radians(d) for d in degrees])
    lines = ["theta_deg,re1,re2,re3"]
    for d, (_, re) in zip(degrees, rows):
        lines.append(f"{d},{re[0]:.12g},{re[1]:.12g},{re[2]:.12g}")
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")
    return K
