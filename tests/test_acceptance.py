"""Acceptance gate.

Every criterion below pins a documented number or outcome at its stated
tolerance and prints one `[acceptance] ...: PASS/FAIL` line (run pytest
with -s to see the PASS lines; FAIL lines appear in captured output).

Two clauses fail on purpose and stay red — see "Known acceptance
failures" in README.md: criterion 7b (the sip_cbf minimum barrier value)
and the convergence half of criterion 7e (point2d_clf_cbf_case2).
"""

import itertools
import math

import numpy as np

from ctrlkit import (
    IntervalPoly,
    bauer_fike_check,
    design_gain_matrix,
    interval_poly_stable,
    run_scenario,
    sip_closed_loop_perturbation,
    sip_full_gain,
    sip_interval_gain,
    sip_region_bounds,
    sip_region_feasible,
    sip_stabilizing_gain,
    solve_care,
)
from ctrlkit.models import (
    dip_plant,
    linearize,
    motorcycle_lateral_plant,
    point2d_plant,
    sip_factored_model,
    sip_plant,
)
from ctrlkit.numerics import least_squares, nnmf_rank1, qp_small
from ctrlkit.scenarios import (
    _MOTO_POSE_D,
    _dip_design_matrices,
    _motorcycle_design_matrices,
    emit_table,
)
from ctrlkit.stability import routh_stable

THETA_MAX = 0.4 * math.pi
DA21 = abs(10.0 * math.sin(THETA_MAX) / THETA_MAX - 10.0)
DB2 = abs(1.0 - math.cos(THETA_MAX))


def gate(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def close_entrywise(got, want, rel, abs_tol=0.0):
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    diff = np.abs(got - want)
    return bool(np.all((diff <= abs_tol) | (diff <= rel * np.abs(want))))


_RUN_CACHE = {}


def run_cached(scenario, **overrides):
    key = (scenario, tuple(sorted(overrides.items())))
    if key not in _RUN_CACHE:
        _RUN_CACHE[key] = run_scenario(scenario, overrides or None)
    return _RUN_CACHE[key]


# --------------------------------------------------------------------------
# criterion 1: the four documented gain matrices from pole placement


def test_criterion1_printed_gain_matrices():
    dip_K = design_gain_matrix(*_dip_design_matrices(), desired_eigs=[-4.0] * 6)
    moto_K = design_gain_matrix(*_motorcycle_design_matrices(), desired_eigs=[-2.5] * 4)
    cases = [
        ("dip", dip_K, [-259.52, 6.72, 482.48, 118.72, 20.48, 30.72]),
        ("sip partial", sip_stabilizing_gain(), [-58.0, -18.4, -6.4]),
        ("motorcycle", moto_K, [-0.0586, -0.9375, -0.7711, -0.2437]),
        ("sip full", sip_full_gain((-4.0, -4.0, -4.0, -4.0)),
         [-131.60, -41.60, -25.60, -25.60]),
    ]
    bad = [name for name, got, want in cases
           if not close_entrywise(got, want, rel=0.005, abs_tol=0.01)]
    gate("criterion 1 (pole-placement gain matrices)", not bad,
         f"mismatched: {bad}" if bad else "4/4 within 0.5% rel or 0.01 abs")


# --------------------------------------------------------------------------
# criterion 2: the robust Riccati solution on the pendulum instance


def test_criterion2_robust_riccati_solution():
    A = np.array([[0.0, 1.0, 0.0], [10.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B = np.array([[0.0], [-1.0], [1.0]])
    dA = np.zeros((3, 3))
    dA[1, 0] = DA21
    dB = np.zeros((3, 1))
    dB[1, 0] = DB2
    a_bar = b_bar = 300.0
    eps = 0.01
    Q = np.eye(3)
    R = np.array([[0.01]])

    w, h = nnmf_rank1(dA)
    sigma_a = a_bar * np.outer(w / a_bar, w / a_bar)
    sigma_x = a_bar * np.outer(h, h)
    wb, hb = nnmf_rank1(dB)
    sigma_b = b_bar * np.outer(wb / b_bar, wb / b_bar)
    sigma_y = b_bar * np.outer(hb, hb)
    r_eff = R + eps * sigma_y
    r_inv = np.linalg.inv(r_eff)
    M = B @ r_inv @ (2 * R + eps * sigma_y) @ r_inv @ B.T - sigma_a - sigma_b / eps
    q_sigma = sigma_x + Q

    P = solve_care(A, M, q_sigma)
    residual = np.linalg.norm(P @ A + A.T @ P - P @ M @ P + q_sigma, "fro")
    K = (P @ B @ r_inv).ravel()

    P_printed = np.array([[2042.9, 644.3, 132.1],
                          [644.3, 208.3, 43.5],
                          [132.1, 43.5, 11.6]])
    p_ok = close_entrywise(P, P_printed, rel=1e-3)
    k_ok = close_entrywise(K, [-170.2, -54.7, -10.6], rel=1e-2)
    res_ok = residual <= 1e-8
    gate("criterion 2 (robust Riccati P, K, residual)", p_ok and k_ok and res_ok,
         f"P ok={p_ok}, K ok={k_ok}, residual={residual:.3e}")


# --------------------------------------------------------------------------
# criterion 3: both eigenvalue sweep tables

TABLE1_SPOTS = {
    -72: (-2.0366, -2.0366, -2.2358),
    -30: (-32.6787, -3.1330, -0.9894),
    0: (-40.2186, -3.0527, -0.8640),
    30: (-32.6787, -3.1330, -0.9894),
    72: (-2.0366, -2.0366, -2.2358),
}
TABLE2_SPOTS = {
    -72: (-0.8412, -0.8412, -3.7684),
    -30: (-30.6024, -1.3495, -1.3495),
    0: (-37.3975, -1.3012, -1.3012),
    30: (-30.6024, -1.3495, -1.3495),
    72: (-0.8412, -0.8412, -3.7684),
}


def read_table(path):
    rows = {}
    for line in path.read_text().splitlines()[1:]:
        vals = line.split(",")
        rows[int(vals[0])] = np.array([float(v) for v in vals[1:]])
    return rows


def test_criterion3_sweep_tables(tmp_path):
    results = []
    for which, spots, tol in ((1, TABLE1_SPOTS, 1e-2), (2, TABLE2_SPOTS, 5e-4)):
        path = tmp_path / f"table{which}.csv"
        emit_table(which, path)
        rows = read_table(path)
        all_negative = len(rows) == 145 and all(np.all(re < 0) for re in rows.values())
        spot_ok = all(
            np.allclose(np.sort(rows[deg]), np.sort(np.array(want)), atol=tol)
            for deg, want in spots.items())
        results.append((which, all_negative, spot_ok))
    ok = all(neg and spot for _, neg, spot in results)
    gate("criterion 3 (sweep tables negative + spot rows)", ok,
         "; ".join(f"table {w}: negative={n}, spots={s}" for w, n, s in results))


# --------------------------------------------------------------------------
# criterion 4: gain region membership and the two intermediate bounds


def test_criterion4_gain_region():
    a_lo = 10.0 * math.sin(THETA_MAX) / THETA_MAX
    a_hi, b_lo, b_hi = 10.0, 0.31, 1.0
    printed_K = [-170.2, -54.7, -10.6]

    # the documented k2 threshold uses the two-decimal reciprocal of b_lo
    k2_bound_display = round(1.0 / b_lo, 2) * printed_K[2]
    k1_bound = sip_region_bounds(printed_K, a_hi, b_lo)[1]
    bounds_ok = (abs(k2_bound_display - -34.24) <= 0.01
                 and abs(k1_bound - -86.05) <= 0.01)

    feas_ok = (sip_region_feasible(printed_K, a_lo, a_hi, b_lo, b_hi)
               and sip_region_feasible(sip_interval_gain(), a_lo, a_hi, b_lo, b_hi)
               and not sip_region_feasible([-58.0, -18.4, -6.4], a_lo, a_hi, b_lo, b_hi))
    gate("criterion 4 (gain region bounds and membership)", bounds_ok and feas_ok,
         f"k2 bound {k2_bound_display:.4f}, k1 bound {k1_bound:.4f}, "
         f"membership ok={feas_ok}")


# --------------------------------------------------------------------------
# criterion 5: four-polynomial test vs exhaustive vertex enumeration


def test_criterion5_kharitonov_oracle():
    rng = np.random.default_rng(101)
    disagreements = 0
    for _ in range(200):
        deg = int(rng.integers(2, 7))
        center = rng.uniform(0.5, 6.0, size=deg + 1)
        spread = rng.uniform(0.0, 0.8, size=deg + 1)
        lo, hi = center - spread, center + spread
        lo[-1] = max(lo[-1], 0.05)
        hi[-1] = max(hi[-1], lo[-1])
        ip = IntervalPoly(lower=lo, upper=hi)
        vertex_verdict = interval_poly_stable(ip)
        corner_verdict = all(
            routh_stable(np.array(c)).stable
            for c in itertools.product(*zip(lo, hi)))
        if vertex_verdict != corner_verdict:
            disagreements += 1
            continue
        if vertex_verdict:
            for _ in range(50):
                if not routh_stable(rng.uniform(lo, hi)).stable:
                    disagreements += 1
                    break
    gate("criterion 5 (Kharitonov vs exhaustive corners)", disagreements == 0,
         f"{disagreements} disagreements in 200 instances")


# --------------------------------------------------------------------------
# criterion 6: scenario terminal outcomes


def test_criterion6_scenario_outcomes():
    checks = {}

    _, rep = run_cached("sip_nonrobust_failure")
    checks["nonrobust failure"] = (rep.terminal_event == "failure"
                                   and abs(rep.final_state[0]) >= math.pi / 2)
    for sid in ("sip_robust_riccati", "sip_robust_riccati_midpoint",
                "sip_interval_polynomial", "sip_adaptive_lookup"):
        _, rep = run_cached(sid)
        checks[sid] = (rep.terminal_event == "success"
                       and sum(v * v for v in rep.final_state) < 0.001)

    _, rep = run_cached("dip_smc")
    checks["dip x0=20"] = (float(np.linalg.norm(rep.final_state)) < 0.05)
    _, rep = run_cached("dip_smc", x0=100.0, t_end=20.0)
    checks["dip x0=100"] = (float(np.linalg.norm(rep.final_state)) < 0.05)

    _, rep = run_cached("motorcycle_smc")
    dist = math.hypot(rep.final_state[0] - _MOTO_POSE_D[0],
                      rep.final_state[1] - _MOTO_POSE_D[1])
    checks["motorcycle"] = rep.terminal_event == "destination" and dist < 0.2

    bad = [name for name, ok in checks.items() if not ok]
    gate("criterion 6 (scenario outcomes)", not bad,
         f"failed: {bad}" if bad else f"{len(checks)}/{len(checks)} outcomes")


# --------------------------------------------------------------------------
# criterion 7: safety invariance and convergence of the barrier scenarios


def test_criterion7a_point2d_cbf_case1_invariance():
    _, rep = run_cached("point2d_cbf_case1")
    gate("criterion 7a (point2d_cbf_case1 min h)", rep.min_h >= -1e-6,
         f"min h = {rep.min_h:.6g}")


def test_criterion7b_sip_cbf_invariance():
    # known-red clause: the scalar filter cannot hold a relative-degree-two
    # barrier from this initial lean; see README.md
    _, rep = run_cached("sip_cbf")
    gate("criterion 7b (sip_cbf min h)", rep.min_h >= -1e-6,
         f"min h = {rep.min_h:.6g}")


def test_criterion7c_point2d_cbf_case2_stuck_outside():
    _, rep = run_cached("point2d_cbf_case2")
    dist = math.hypot(*rep.final_state)
    gate("criterion 7c (point2d_cbf_case2 outside disk, stuck)",
         rep.min_h >= -1e-6 and dist > 1.0,
         f"min h = {rep.min_h:.6g}, final |p| = {dist:.4f}")


def test_criterion7d_point2d_clf_cbf_case1_converges_safely():
    _, rep = run_cached("point2d_clf_cbf_case1")
    dist = math.hypot(*rep.final_state)
    gate("criterion 7d (point2d_clf_cbf_case1 convergence + min h)",
         rep.min_h >= -1e-6 and dist <= 0.2,
         f"min h = {rep.min_h:.6g}, final |p| = {dist:.4f}")


def test_criterion7e_point2d_clf_cbf_case2_converges_safely():
    # known-red clause: the relaxed program stalls behind the larger disk
    # at |p| ~ 6.38; safety holds but convergence does not; see README.md
    _, rep = run_cached("point2d_clf_cbf_case2")
    dist = math.hypot(*rep.final_state)
    gate("criterion 7e (point2d_clf_cbf_case2 convergence + min h)",
         rep.min_h >= -1e-6 and dist <= 0.2,
         f"min h = {rep.min_h:.6g}, final |p| = {dist:.4f}")


# --------------------------------------------------------------------------
# criterion 8: online identification accuracy


def test_criterion8_identification():
    traj, rep = run_cached("sip_adaptive_sysid")
    dt = traj.times[1] - traj.times[0]
    last = len(traj.times) - 1
    X, y = [], []
    for k in range(last - 5, last + 1):
        X.append([traj.states[k][0], traj.inputs[k - 1][0]])
        y.append((traj.states[k][1] - traj.states[k - 1][1]) / dt)
    theta = least_squares(np.array(X), np.array(y))
    mean_angle = float(np.mean([row[0] for row in X]))
    expected = np.array([10.0 * math.sin(mean_angle) / mean_angle
                         if mean_angle else 10.0,
                         -math.cos(mean_angle)])
    rel = np.abs((theta - expected) / expected)
    partial = sum(rep.final_state[i] ** 2 for i in (0, 1, 3))
    gate("criterion 8 (identification within 1% + stabilized)",
         bool(np.all(rel <= 0.01)) and partial < 0.01,
         f"rel err = {rel[0]:.4%}/{rel[1]:.4%}, partial norm = {partial:.3e}")


# --------------------------------------------------------------------------
# criterion 9: property suites


def test_criterion9a_bauer_fike_containment():
    rng = np.random.default_rng(111)
    holds_all = True
    for _ in range(100):
        n = int(rng.integers(2, 6))
        Ac0 = rng.normal(size=(n, n))
        delta = 0.05 * rng.normal(size=(n, n))
        _, holds = bauer_fike_check(Ac0, delta)
        holds_all = holds_all and holds
    gate("criterion 9a (Bauer-Fike containment, 100 samples)", holds_all)


def test_criterion9b_perturbation_norm_bound():
    rng = np.random.default_rng(121)
    ok = True
    for _ in range(100):
        K = rng.uniform(-50.0, 50.0, size=4)
        theta = float(rng.uniform(-1.5, 1.5))
        dA = sip_closed_loop_perturbation(theta, K)
        bound = theta ** 2 * (10.0 / 6.0 + 0.5 * np.linalg.norm(K))
        ok = ok and np.linalg.norm(dA, 2) <= bound + 1e-12
    gate("criterion 9b (closed-loop perturbation norm bound, 100 samples)", ok)


def test_criterion9c_care_invariants():
    rng = np.random.default_rng(131)
    worst = 0.0
    symmetric = True
    for _ in range(25):
        n = int(rng.integers(2, 6))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, 1))
        C = rng.normal(size=(n, n))
        Q = C.T @ C + 0.1 * np.eye(n)
        M = B @ B.T
        P = solve_care(A, M, Q)
        symmetric = symmetric and bool(np.array_equal(P, P.T))
        res = np.linalg.norm(P @ A + A.T @ P - P @ M @ P + Q, "fro")
        worst = max(worst, res / (1 + np.linalg.norm(Q, "fro")))
    gate("criterion 9c (CARE residual/symmetry, 25 instances)",
         symmetric and worst <= 1e-9,
         f"worst scaled residual = {worst:.3e}")


def test_criterion9d_qp_vs_grid():
    rng = np.random.default_rng(141)
    grid = np.linspace(-6.0, 6.0, 241)
    Z1, Z2 = np.meshgrid(grid, grid)
    pts = np.column_stack([Z1.ravel(), Z2.ravel()])
    ok = True
    for _ in range(50):
        L = rng.normal(size=(2, 2))
        H = L @ L.T + 0.5 * np.eye(2)
        c = rng.uniform(-2.0, 2.0, size=2)
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, 2))
        b = rng.uniform(-1.0, 2.0, size=m)
        z = qp_small(H, c, A, b)
        feasible = np.all(pts @ A.T <= b + 1e-12, axis=1)
        if z is None:
            ok = ok and not feasible.any()
            continue
        ok = ok and bool(np.all(A @ z <= b + 1e-9))
        if feasible.any():
            obj = 0.5 * np.einsum("ij,jk,ik->i", pts, H, pts) + pts @ c
            best = obj[feasible].min()
            z_obj = 0.5 * z @ H @ z + c @ z
            ok = ok and z_obj <= best + 1e-3
    gate("criterion 9d (QP vs grid oracle, 50 instances)", ok)


def test_criterion9e_linearization_consistency():
    worst = 0.0

    A, B = linearize(sip_plant(), np.zeros(4), 0.0)
    A_ref, B_ref = sip_factored_model(0.0)
    worst = max(worst, np.abs(A - A_ref).max(), np.abs(B.ravel() - B_ref).max())

    A, B = linearize(dip_plant(), np.zeros(6), 0.0)
    A_ref, B_ref = _dip_design_matrices()
    worst = max(worst, np.abs(A - A_ref).max(), np.abs(B.ravel() - B_ref).max())

    A, B = linearize(motorcycle_lateral_plant(), np.zeros(4), 0.0)
    A_ref, B_ref = _motorcycle_design_matrices()
    worst = max(worst, np.abs(A - A_ref).max(), np.abs(B.ravel() - B_ref).max())

    plant = point2d_plant()
    x0 = np.array([0.7, -0.4])
    A_an, B_an = plant.analytic_linearization(x0)
    h = 1e-6
    A_fd = np.zeros((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        A_fd[:, j] = (np.asarray(plant.deriv(x0 + e, [0.0]))
                      - np.asarray(plant.deriv(x0 - e, [0.0]))) / (2 * h)
    B_fd = ((np.asarray(plant.deriv(x0, [h])) - np.asarray(plant.deriv(x0, [-h])))
            / (2 * h)).reshape(2, 1)
    worst = max(worst, np.abs(A_an - A_fd).max(), np.abs(B_an.reshape(2, 1) - B_fd).max())

    gate("criterion 9e (plant linearizations vs design matrices)", worst <= 1e-9,
         f"worst deviation = {worst:.3e}")
