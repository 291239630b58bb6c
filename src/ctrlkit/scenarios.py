"""Named closed-loop studies with fixed defaults, plus result serialization.

Each scenario wires a plant, a controller, an initial state, and stop
predicates exactly as in the validation runs the gains were tuned on.
run_scenario executes one and returns the trajectory together with a
RunReport; emit/emit_table write CSV, JSON, or SVG artifacts.
"""

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .control import (CBF_SINGULARITY_THRESHOLD, MotorcycleGuidance,
                      SlidingTargetDIP, SysIdWindow, adaptive_gain,
                      cbf_filter_scalar, clf_cbf_step, dip_sliding_target,
                      fsfc, lookup_region, lyapunov_ref_2d, sysid_solve)
from .models import (MOTO_H, MOTO_L, MOTO_V, G, PlantModel, SimSpec,
                     dip_plant, motorcycle_plant, point2d_plant, simulate,
                     sip_design_pair, sip_factored_model, sip_plant)
from .synthesis import (CareNoSolution, RobustConfig, UncertaintyBounds,
                        design_gain_matrix, eig_sweep,
                        robust_riccati_gain, sip_partial_design_model)

THETA_MAX = 0.4 * math.pi

_PARTIAL = np.array([0, 1, 3])  # (theta, theta_dot, x_dot) out of the 4-state pendulum
_POLES3 = (-4.0, -4.0, -4.0)

# two-line motorcycle course: initial pose, destination pose (20 m per leg)
_MOTO_POSE_I = (0.0, -0.2, math.pi / 8)
_MOTO_POSE_D = (20.0 * math.cos(math.pi / 8) + 20.0 * math.cos(math.pi / 4),
                20.0 * math.sin(math.pi / 8) + 20.0 * math.sin(math.pi / 4),
                math.pi / 4)
_MOTO_ARRIVE_DIST = 0.2

# unsafe disks (center_x, center_y, radius) of the 2-D point studies
_DISKS = {"case1": (2.0, 2.0, 1.0), "case2": (0.0, 3.5, 3.0)}


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
    """One closed loop as a builder wires it, and what run_scenario reads back.

    gains is called after the run, so adaptive scenarios report the gain
    they ended on.  A fired stop_success is reported as success_event.
    guard, when present, is the {"count": n} tally of singularity-guard
    activations that the controller increments.
    """

    plant: PlantModel
    x0: np.ndarray
    controller: Callable  # (t, state) -> input
    gains: Callable  # () -> list of gain vectors
    stop_success: Optional[Callable] = None
    stop_failure: Optional[Callable] = None
    success_event: str = "success"
    barrier_h: Optional[Callable] = None
    guard: Optional[dict] = None


# ---------------------------------------------------------------------------
# gain constructions


def sip_stabilizing_gain(poles=_POLES3, theta=0.0):
    """Pole-placement gain on the 3-state pendulum design model."""
    A, B = sip_partial_design_model(theta)
    return design_gain_matrix(A, B, poles)


def sip_full_gain(poles):
    """Pole-placement gain on the upright 4-state pendulum linearization."""
    A, B = sip_factored_model(0.0)
    return design_gain_matrix(A, B, poles)


def sip_robust_gain(parametrization="vertex"):
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
    """Decade-floor gain built inside the closed-form stability region.

    With a <= G and b >= cos(0.4*pi): k3 = -10, then k2 and k1 are each the
    next multiple of 10 strictly below their cascaded region threshold.
    """
    b_lo = math.cos(THETA_MAX)
    a_hi = G
    k3 = -10.0
    k2 = math.floor((k3 / b_lo) / 10.0) * 10.0 - 10.0
    k1 = math.floor((a_hi * k2 / (-b_lo * k2 + k3)) / 10.0) * 10.0 - 10.0
    return np.array([k1, k2, k3])


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
    with the slide gain tracking the moving target.
    """
    phase = {"first": True, "xE": None}

    def controller(t, x):
        if phase["first"] and x[0] ** 2 + x[1] ** 2 + x[3] ** 2 > 1.0:
            return first_phase_acc(x)
        if phase["first"]:
            phase["first"] = False
            phase["xE"] = np.array([0.0, 0.0, x[2], 0.0])
        xE = phase["xE"]
        if xE[2] > 0:
            xE[2] = max(xE[2] - s_v * dt, 0.0)
        else:
            xE[2] = min(xE[2] + s_v * dt, 0.0)
        return fsfc(K_slide, x, xE)

    return controller


def _sip_failure(s):
    return abs(s[0]) >= math.pi / 2


def _sip_success_full(s):
    return s[0] ** 2 + s[1] ** 2 + s[2] ** 2 + s[3] ** 2 < 0.001


_SIP_X0 = (0.4 * math.pi, 0.0, 0.2, 0.0)


def _sip_scenario(controller, gains, **stops):
    """Pendulum run from _SIP_X0 that fails past the horizontal."""
    return BuiltScenario(sip_plant(), np.array(_SIP_X0), controller, gains,
                         stop_failure=_sip_failure, **stops)


# ---------------------------------------------------------------------------
# scenario builders; each returns the BuiltScenario run_scenario executes


def _build_sip_nonrobust(p):
    K = sip_stabilizing_gain()

    def controller(t, x):
        return fsfc(K, x[_PARTIAL])

    return _sip_scenario(controller, lambda: [K])


def _build_sip_slide(p, K_p):
    """Hold the partial-state gain K_p until the pendulum settles, then slide."""
    K_slide = sip_full_gain((-4.0, -4.0 + 2.0j, -4.0 - 2.0j, -4.0))
    controller = _stabilize_then_slide(lambda x: fsfc(K_p, x[_PARTIAL]),
                                       K_slide, p["s_v"], p["dt"])
    return _sip_scenario(controller, lambda: [K_p, K_slide], stop_success=_sip_success_full)


def _build_sip_adaptive_online(p):
    latest = {"K": None}

    def controller(t, x):
        K = adaptive_gain(x[0], _POLES3)
        latest["K"] = K
        return fsfc(K, x[_PARTIAL])

    return _sip_scenario(controller, lambda: [] if latest["K"] is None else [latest["K"]])


def _build_sip_adaptive_lookup(p):
    region_gains = [sip_stabilizing_gain(theta=th) for th in (0.0, math.pi / 4, THETA_MAX)]
    K_slide = sip_full_gain((-4.0, -4.0, -4.0, -4.0))
    controller = _stabilize_then_slide(
        lambda x: fsfc(region_gains[lookup_region(x[0])], x[_PARTIAL]),
        K_slide, p["s_v"], p["dt"])
    return _sip_scenario(controller, lambda: region_gains + [K_slide],
                         stop_success=_sip_success_full)


def _build_sip_adaptive_sysid(p):
    warmup = 5
    window = SysIdWindow(warmup + 1, 2)
    mem = {"k": 0, "old": None, "acc": 0.0, "K": None}
    dt = p["dt"]

    def controller(t, x):
        old = mem["old"] if mem["old"] is not None else x
        if mem["k"] <= warmup:
            acc = 1.0
            window.push([x[0], acc], (x[1] - old[1]) / dt)
        else:
            window.push([x[0], mem["acc"]], (x[1] - old[1]) / dt)
            try:
                theta = sysid_solve(window)
                mem["K"] = design_gain_matrix(*sip_design_pair(theta[0], theta[1]), _POLES3)
            except ValueError:
                pass  # unidentifiable this step; keep the previous gain
            acc = mem["acc"] if mem["K"] is None else fsfc(mem["K"], x[_PARTIAL])
        mem["old"] = x.copy()
        mem["acc"] = acc
        mem["k"] += 1
        return acc

    return _sip_scenario(controller, lambda: [] if mem["K"] is None else [mem["K"]])


def _build_sip_cbf(p):
    K = sip_full_gain((-4.0, -4.0, -4.0, -4.0))
    yB, dyB = math.pi / 15, 2.0

    def h(s):
        return (25.0 * (yB ** 2 - s[0] ** 2) + (dyB ** 2 - s[1] ** 2)) / 2.0

    guard = {"count": 0}

    def controller(t, x):
        y, dy = x[0], x[1]
        u_ref = fsfc(K, x)
        Lfh = -25.0 * y * dy - G * dy * math.sin(y)
        Lgh = dy * math.cos(y)
        if abs(Lgh) <= CBF_SINGULARITY_THRESHOLD:
            guard["count"] += 1
        return cbf_filter_scalar(u_ref, Lfh, Lgh, h(x))

    return BuiltScenario(sip_plant(), np.array([0.2, 0.0, 20.0, 0.0]), controller,
                         lambda: [K], stop_failure=_sip_failure, barrier_h=h, guard=guard)


def _build_dip(p):
    A, B = _dip_design_matrices()
    K = design_gain_matrix(A, B, [-4.0] * 6)
    tgt = SlidingTargetDIP(p["x0"], p["s_v"])
    dt = p["dt"]

    def controller(t, s):
        return fsfc(K, s, dip_sliding_target(tgt, t + dt))

    def failure(s):
        return abs(s[0]) >= math.pi / 2 and abs(s[2]) >= math.pi / 2

    return BuiltScenario(dip_plant(), np.array([0.2, 0.0, 0.0, 0.0, p["x0"], 0.0]),
                         controller, lambda: [K], stop_failure=failure)


def _build_motorcycle(p):
    A, B = _motorcycle_design_matrices()
    K = design_gain_matrix(A, B, [-2.5] * 4)
    guidance = MotorcycleGuidance(_MOTO_POSE_I, _MOTO_POSE_D, preview=p["preview"])
    xD, yD = _MOTO_POSE_D[0], _MOTO_POSE_D[1]

    def controller(t, s):
        return guidance.step(s[:3], s[4], s[5], K)

    def arrived(s):
        return math.hypot(s[0] - xD, s[1] - yD) < _MOTO_ARRIVE_DIST

    def fell(s):
        return abs(s[4]) >= math.pi / 2

    return BuiltScenario(motorcycle_plant(), np.array([0.0, -0.2, -0.1, 0.0, 0.3, 0.0]),
                         controller, lambda: [K], stop_success=arrived, stop_failure=fell,
                         success_event="destination")


def _disk_barrier(disk):
    cx, cy, cr = disk

    def h(s):
        return ((s[0] - cx) ** 2 + (s[1] - cy) ** 2 - cr ** 2) / 2.0

    return h


def _build_point2d_cbf(p, case):
    cx, cy, _ = _DISKS[case]
    h = _disk_barrier(_DISKS[case])
    guard = {"count": 0}

    def controller(t, s):
        x, y = s[0], s[1]
        u_ref = lyapunov_ref_2d(x, y)
        Lfh = (x - cx) * x * math.sin(y) + (y - cy) * y
        Lgh = y - cy
        if abs(Lgh) <= CBF_SINGULARITY_THRESHOLD:
            guard["count"] += 1
        return cbf_filter_scalar(u_ref, Lfh, Lgh, 10.0 * h(s))

    return BuiltScenario(point2d_plant(), np.array([4.0, 5.0]), controller, lambda: [],
                         barrier_h=h, guard=guard)


def _build_point2d_clf_cbf(p, case):
    cx, cy, _ = _DISKS[case]
    h = _disk_barrier(_DISKS[case])
    guard = {"count": 0}

    def controller(t, s):
        x, y = s[0], s[1]
        u_ref = lyapunov_ref_2d(x, y)
        if abs(y) <= CBF_SINGULARITY_THRESHOLD:
            guard["count"] += 1
            return u_ref
        V = (x * x + y * y) / 2.0
        LfV = x * x * math.sin(y) + y * y
        Lfh = (x - cx) * x * math.sin(y) + (y - cy) * y
        u, _ = clf_cbf_step(u_ref, LfV, y, V, Lfh, y - cy, 10.0 * h(s))
        return u

    return BuiltScenario(point2d_plant(), np.array([4.0, 5.0]), controller, lambda: [],
                         barrier_h=h, guard=guard)


_BUILDERS = {
    "dip_smc": _build_dip,
    "motorcycle_smc": _build_motorcycle,
    "sip_nonrobust_failure": _build_sip_nonrobust,
    "sip_robust_riccati": lambda p: _build_sip_slide(p, sip_robust_gain("vertex")),
    "sip_robust_riccati_midpoint": lambda p: _build_sip_slide(p, sip_robust_gain("midpoint")),
    "sip_interval_polynomial": lambda p: _build_sip_slide(p, sip_interval_gain()),
    "sip_adaptive_online": _build_sip_adaptive_online,
    "sip_adaptive_lookup": _build_sip_adaptive_lookup,
    "sip_adaptive_sysid": _build_sip_adaptive_sysid,
    "sip_cbf": _build_sip_cbf,
    "point2d_cbf_case1": lambda p: _build_point2d_cbf(p, "case1"),
    "point2d_cbf_case2": lambda p: _build_point2d_cbf(p, "case2"),
    "point2d_clf_cbf_case1": lambda p: _build_point2d_clf_cbf(p, "case1"),
    "point2d_clf_cbf_case2": lambda p: _build_point2d_clf_cbf(p, "case2"),
}

# defaults and expected outcomes; the README table mirrors this literally
SCENARIO_DEFAULTS = {
    "dip_smc": {"dt": 0.001, "t_end": 8.0, "expected_event": "timeout",
                "params": {"x0": 20.0, "s_v": 8.0}},
    "motorcycle_smc": {"dt": 0.001, "t_end": 10.0, "expected_event": "destination",
                       "params": {"preview": 6.0}},
    "sip_nonrobust_failure": {"dt": 0.001, "t_end": 5.0, "expected_event": "failure",
                              "params": {}},
    "sip_robust_riccati": {"dt": 0.001, "t_end": 20.0, "expected_event": "success",
                           "params": {"s_v": 8.0}},
    "sip_robust_riccati_midpoint": {"dt": 0.001, "t_end": 20.0, "expected_event": "success",
                                    "params": {"s_v": 8.0}},
    "sip_interval_polynomial": {"dt": 0.001, "t_end": 20.0, "expected_event": "success",
                                "params": {"s_v": 8.0}},
    "sip_adaptive_online": {"dt": 0.001, "t_end": 3.0, "expected_event": "timeout",
                            "params": {}},
    "sip_adaptive_lookup": {"dt": 0.001, "t_end": 10.0, "expected_event": "success",
                            "params": {"s_v": 8.0}},
    "sip_adaptive_sysid": {"dt": 0.001, "t_end": 3.0, "expected_event": "timeout",
                           "params": {}},
    "sip_cbf": {"dt": 0.001, "t_end": 10.0, "expected_event": "timeout", "params": {}},
    "point2d_cbf_case1": {"dt": 0.001, "t_end": 10.0, "expected_event": "timeout",
                          "params": {}},
    "point2d_cbf_case2": {"dt": 0.001, "t_end": 10.0, "expected_event": "timeout",
                          "params": {}},
    "point2d_clf_cbf_case1": {"dt": 0.001, "t_end": 10.0, "expected_event": "timeout",
                              "params": {}},
    "point2d_clf_cbf_case2": {"dt": 0.001, "t_end": 10.0, "expected_event": "timeout",
                              "params": {}},
}

SCENARIO_IDS = tuple(SCENARIO_DEFAULTS)

# extra pass criterion the CLI asserts beyond the terminal event
FINAL_NORM_BELOW = {"dip_smc": 0.05}

# overrides that must be > 0 (dip_smc's x0 may take any finite value)
_POSITIVE_TUNABLES = ("dt", "t_end", "s_v", "preview")


def run_scenario(scenario_id, overrides=None):
    """Execute a registered scenario and return (Trajectory, RunReport).

    overrides may set dt, t_end, and the scenario's own tunables (dip_smc:
    x0 and s_v; the sliding scenarios: s_v; motorcycle_smc: preview); any
    other key is rejected.  Every value must be finite; dt, t_end, s_v and
    preview must be positive, and t_end must be at least dt.
    """
    if scenario_id not in _BUILDERS:
        raise ValueError(f"unknown scenario {scenario_id!r}; see SCENARIO_IDS")
    defaults = SCENARIO_DEFAULTS[scenario_id]
    params = {"dt": defaults["dt"], "t_end": defaults["t_end"], **defaults["params"]}
    for key, value in (overrides or {}).items():
        if key not in params:
            raise ValueError(f"{key!r} is not a tunable of {scenario_id}; "
                             f"allowed: {sorted(params)}")
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(f"{key} must be finite, got {value}")
        if key in _POSITIVE_TUNABLES and value <= 0:
            raise ValueError(f"{key} must be positive, got {value:g}")
        params[key] = value

    built = _BUILDERS[scenario_id](params)
    spec = SimSpec(dt=params["dt"], t_end=params["t_end"],
                   stop_success=built.stop_success, stop_failure=built.stop_failure)
    traj = simulate(built.plant, built.controller, built.x0, spec)
    if traj.terminal_event == "success":
        traj.terminal_event = built.success_event

    min_h = min(float(built.barrier_h(s)) for s in traj.states) if built.barrier_h else None
    report = RunReport(
        scenario=scenario_id,
        terminal_event=traj.terminal_event,
        final_state=[float(v) for v in traj.states[-1]],
        elapsed_sim_time=float(traj.times[-1]),
        min_h=min_h,
        gain_matrices_used=[[float(g) for g in K] for K in built.gains()],
        checksum=trajectory_checksum(traj),
        guard_activations=built.guard["count"] if built.guard is not None else None,
    )
    return traj, report


def trajectory_checksum(traj):
    """SHA-256 over the raw trajectory samples and the terminal event."""
    digest = hashlib.sha256()
    for arr in (traj.times, traj.states, traj.inputs):
        digest.update(np.ascontiguousarray(np.asarray(arr, dtype=float)).tobytes())
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
    row = ",".join(["%.12g"] * (1 + n + m))
    lines = [header]
    for t, x, u in zip(traj.times, traj.states, traj.inputs):
        lines.append(row % (t, *x.tolist(), *u.tolist()))
    with open(path, "w", newline="\n") as f:
        f.write("\n".join(lines) + "\n")


def emit_json(traj, report, path):
    """Report plus trajectory metadata; parse_report round-trips the report."""
    doc = {
        "report": asdict(report),
        "trajectory": {
            "samples": len(traj.times),
            "t_start": float(traj.times[0]) if traj.times else None,
            "t_end": float(traj.times[-1]) if traj.times else None,
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
    """Fixed-size SVG from data-space polylines and circles (uniform scale)."""
    W, H, pad = 480.0, 360.0, 20.0
    xs = np.concatenate([c[0][:, 0] for c in curves]
                        + [np.array([cx - r, cx + r]) for cx, cy, r, _ in circles])
    ys = np.concatenate([c[0][:, 1] for c in curves]
                        + [np.array([cy - r, cy + r]) for cx, cy, r, _ in circles])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    span_x = max(x_hi - x_lo, 1e-12)
    span_y = max(y_hi - y_lo, 1e-12)
    scale = min((W - 2 * pad) / span_x, (H - 2 * pad) / span_y)

    def to_px(x, y):
        return (pad + (x - x_lo) * scale, H - pad - (y - y_lo) * scale)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {W:g} {H:g}">',
             f'<rect width="{W:g}" height="{H:g}" fill="white"/>']
    for pts, color in curves:
        step = max(1, len(pts) // 2000)
        coords = " ".join("{:.2f},{:.2f}".format(*to_px(px, py))
                          for px, py in pts[::step])
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
    for cx, cy, r, color in circles:
        px, py = to_px(cx, cy)
        parts.append(f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{r * scale:.2f}" '
                     f'fill="none" stroke="{color}" stroke-width="1.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(traj, report, path):
    """Minimal plot of the scenario's natural projection.

    Planar scenarios (motorcycle, 2-D point) plot the x-y path with the
    course or unsafe-disk geometry as circles; cart scenarios plot the lead
    angle and the cart position against time.
    """
    states = np.asarray(traj.states, dtype=float)
    sid = report.scenario
    curves, circles = [], []
    if sid.startswith("point2d"):
        case = "case1" if sid.endswith("case1") else "case2"
        cx, cy, cr = _DISKS[case]
        curves.append((states[:, :2], "black"))
        circles.append((cx, cy, cr, "red"))
        circles.append((0.0, 0.0, 0.05, "green"))
    elif sid == "motorcycle_smc":
        xI, yI, phiI = _MOTO_POSE_I
        xD, yD, _ = _MOTO_POSE_D
        guide = MotorcycleGuidance(_MOTO_POSE_I, _MOTO_POSE_D)
        xM, yM = guide.turning_point
        curves.append((np.array([[xI, yI], [xM, yM], [xD, yD]]), "gray"))
        curves.append((states[:, :2], "black"))
        circles.append((xD, yD, _MOTO_ARRIVE_DIST, "green"))
    else:
        t = np.asarray(traj.times, dtype=float)
        cart = 4 if sid == "dip_smc" else 2
        curves.append((np.column_stack([t, states[:, 0]]), "blue"))
        curves.append((np.column_stack([t, states[:, cart]]), "gray"))
    with open(path, "w", newline="\n") as f:
        f.write(_svg_document(curves, circles))


def emit_table(which, path):
    """Closed-loop eigenvalue real parts over theta = -72..72 degrees.

    Table 1 sweeps the robust Riccati gain (recomputed at full precision);
    table 2 sweeps the decade-floor region gain (-110, -50, -10).  Returns
    the gain that was swept.
    """
    if which == 1:
        K = sip_robust_gain("vertex")
    elif which == 2:
        K = np.array([-110.0, -50.0, -10.0])
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
