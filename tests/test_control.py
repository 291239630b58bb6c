"""Tests for the runtime control laws: sliding targets, guidance, adaptive
gains, online identification, and the safety filters."""

import math

import numpy as np
import pytest

from ctrlkit import (
    MotorcycleGuidance,
    SysidWindow,
    adaptive_gain,
    cbf_filter_scalar,
    clf_cbf_step,
    dip_sliding_target,
    fsfc,
    lyapunov_ref_2d,
    sysid_solve,
)
from ctrlkit import scenarios
from ctrlkit.control import lookup_region
from ctrlkit.models import G, sip_design_pair
from ctrlkit.numerics import least_squares, qp_small
from ctrlkit.synthesis import design_gain_matrix
from test_acceptance import run_cached


class TestFsfc:
    def test_negative_inner_product(self):
        assert fsfc([1.0, 2.0], [3.0, 4.0]) == pytest.approx(-11.0)

    def test_returns_python_float(self):
        assert isinstance(fsfc([1.0], [1.0]), float)

    @pytest.mark.parametrize("n", [1, 3, 4, 6])
    def test_bit_identical_to_np_dot_for_every_gain_kind(self, n):
        rng = np.random.default_rng(2110 + n)
        for _ in range(200):
            K = rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)
            x = tuple((rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3, n)).tolist())
            ref = -float(np.dot(K, x))
            for gain in (K, K.tolist(), tuple(K.tolist())):
                out = fsfc(gain, x)
                assert type(out) is float and out.hex() == ref.hex()


class TestSlidingTarget:
    def test_walks_toward_origin_and_clamps(self):
        assert dip_sliding_target(20.0, 8.0, 0.0) == pytest.approx(20.0)
        assert dip_sliding_target(20.0, 8.0, 1.0) == pytest.approx(12.0)
        assert dip_sliding_target(20.0, 8.0, 2.5) == pytest.approx(0.0)
        assert dip_sliding_target(20.0, 8.0, 10.0) == 0.0

    def test_negative_start_keeps_sign(self):
        assert dip_sliding_target(-20.0, 8.0, 1.0) == pytest.approx(-12.0)

    def test_returns_python_float(self):
        assert type(dip_sliding_target(20.0, 8.0, 0.5)) is float

    def test_validation(self):
        with pytest.raises(ValueError):
            dip_sliding_target(20.0, 8.0, -0.1)

    def test_nan_time_rejected(self):
        """A nan t once passed the t < 0 test and returned nan."""
        with pytest.raises(ValueError, match="^t must be non-negative$"):
            dip_sliding_target(20.0, 8.0, math.nan)


class TestMotorcycleGuidance:
    def make(self, preview=2.0):
        # line 1: the x-axis; line 2: the vertical through x=10
        return MotorcycleGuidance((0.0, 0.0, 0.0), (10.0, -5.0, math.pi / 2),
                                  preview=preview)

    def test_turning_point_is_line_intersection(self):
        g = self.make()
        assert g.turning_point == pytest.approx((10.0, 0.0))

    def test_parallel_lines_rejected(self):
        with pytest.raises(ValueError):
            MotorcycleGuidance((0.0, 0.0, 0.3), (5.0, 5.0, 0.3))

    def test_nonpositive_preview_rejected(self):
        with pytest.raises(ValueError):
            self.make(preview=0.0)

    def test_nan_preview_rejected(self):
        """A nan preview once passed the preview <= 0 test and never switched to line 2."""
        with pytest.raises(ValueError, match="^preview distance must be positive$"):
            self.make(preview=math.nan)

    @pytest.mark.parametrize("which", ["pose_I", "pose_D"])
    @pytest.mark.parametrize("entry, bad", [(0, math.nan), (1, -math.inf), (2, math.inf), (2, math.nan)],
                             ids=["nan x", "-inf y", "inf heading", "nan heading"])
    def test_non_finite_pose_rejected(self, which, entry, bad):
        """A nan x once gave the turning point (nan, nan), so line 2 was never taken;
        an infinite heading once failed in math.sin with "math domain error"."""
        poses = {"pose_I": [0.0, 0.0, 0.3], "pose_D": [10.0, 5.0, 1.0]}
        poses[which][entry] = bad
        with pytest.raises(ValueError, match=f"^{which} must be finite$"):
            MotorcycleGuidance(poses["pose_I"], poses["pose_D"])

    def test_turning_point_is_python_floats(self):
        for g in (self.make(), MotorcycleGuidance(scenarios._MOTO_POSE_I, scenarios._MOTO_POSE_D)):
            assert all(type(v) is float for v in g.turning_point)
        assert MotorcycleGuidance(scenarios._MOTO_POSE_I, scenarios._MOTO_POSE_D).turning_point == (
            18.13616929398843, 7.312247291064488)

    def test_switches_inside_preview_distance_and_stays(self):
        g = self.make(preview=2.0)
        K = [1.0, 1.0, 1.0, 1.0]
        u_far = g.step((5.0, 0.0, 0.0, 0.0, 0.0, 0.0), K)
        assert g.active_line == 1
        assert u_far == pytest.approx(0.0)
        u_near = g.step((9.0, 0.0, 0.0, 0.0, 0.0, 0.0), K)
        assert g.active_line == 2
        # on line 2: offset 1 across the line, heading error -pi/2
        assert u_near == pytest.approx(math.pi / 2 - 1.0)
        g.step((0.0, 0.0, 0.0, 0.0, 0.0, 0.0), K)  # far away again
        assert g.active_line == 2

    def test_roll_terms_enter_command(self):
        g = self.make()
        u = g.step((5.0, 2.0, 0.0, 0.0, 0.1, -0.2), [0.0, 0.0, 3.0, 5.0])
        assert u == pytest.approx(-(3.0 * 0.1 + 5.0 * -0.2))

    @staticmethod
    def matmul_step(g, s, K):
        """The command as step formed it with K @ np.array([...]), kept as its oracle."""
        x, y, phi = s[0], s[1], s[2]
        if g.active_line == 1 and math.hypot(x - g.turning_point[0], y - g.turning_point[1]) < g.preview:
            g.active_line = 2
        xS, yS, phiS = g.pose_I if g.active_line == 1 else g.pose_D
        y_bar = -math.sin(phiS) * (x - xS) + math.cos(phiS) * (y - yS)
        return float(-(K @ np.array([y_bar, phi - phiS, s[4], s[5]])))

    def test_default_run_commands_match_the_matmul_form_without_building_an_array(self):
        """Along the default motorcycle_smc run, with np.array raising while step runs."""
        traj, _ = scenarios.run_scenario("motorcycle_smc")
        K = design_gain_matrix(*scenarios._motorcycle_design_matrices(), [-2.5] * 4)
        ref_guide = MotorcycleGuidance(scenarios._MOTO_POSE_I, scenarios._MOTO_POSE_D)
        ref = [self.matmul_step(ref_guide, s, K) for s in traj.states]
        guide = MotorcycleGuidance(scenarios._MOTO_POSE_I, scenarios._MOTO_POSE_D)

        def refuse(*args, **kwargs):
            raise AssertionError("MotorcycleGuidance.step built an array")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "array", refuse)
            got = [guide.step(s, K) for s in traj.states]
        assert ref_guide.active_line == guide.active_line == 2
        assert [type(u) for u in got] == [float] * len(ref)
        assert [u.hex() for u in got] == [u.hex() for u in ref]


class TestAdaptiveGain:
    POLES = (-4.0, -4.0, -4.0)
    # lookup region gains, placed at the design angles 0, pi/4 and 0.4*pi
    REGION_GAINS = ([-58.0, -18.4, -6.4],
                    [-80.61464644, -27.02365924, -7.1086127],
                    [-179.82269033, -66.19817463, -8.45636096])

    @staticmethod
    def _lookup_input(x):
        """Input of a fresh sip_adaptive_lookup controller in its first phase."""
        defaults = scenarios.SCENARIO_DEFAULTS["sip_adaptive_lookup"]
        params = {"dt": defaults["dt"], "t_end": defaults["t_end"], **defaults["params"]}
        built = scenarios._SCENARIOS["sip_adaptive_lookup"].build(params)
        return built.controller(0.0, np.array(x, dtype=float))

    def test_per_period_upright(self):
        K = adaptive_gain(0.0, self.POLES)
        assert K.tolist() == design_gain_matrix(*sip_design_pair(G, -1.0), self.POLES).tolist()
        assert K == pytest.approx([-58.0, -18.4, -6.4], rel=1e-12)

    def test_per_period_inside_guard_band_keeps_unit_stiffness(self):
        theta = 0.05
        K = adaptive_gain(theta, self.POLES)
        A = np.array([[0.0, 1.0, 0.0], [10.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        B = np.array([0.0, -math.cos(theta), 1.0])
        assert K.tolist() == design_gain_matrix(A, B, self.POLES).tolist()

    def test_accepts_any_sequence_of_poles_and_computes_coefficients_once(self, monkeypatch):
        K = adaptive_gain(0.3, self.POLES)
        monkeypatch.setattr(np, "poly", None)  # a per-step np.poly call would fail now
        monkeypatch.setattr(np, "convolve", None)  # and so would _monic_coefficients
        assert adaptive_gain(0.3, list(self.POLES)).tolist() == K.tolist()
        assert adaptive_gain(0.3, np.array(self.POLES)).tolist() == K.tolist()

    @pytest.mark.parametrize("poles, message", [
        ((-1 + 2j, -1 + 2j, -3.0), "closed under conjugation"),
        ((-1.0, -2.0), "exactly n"), ((-1.0, -2.0, -3.0, -4.0), "exactly n"),
    ])
    def test_rejects_what_pole_placement_rejects(self, poles, message):
        with pytest.raises(ValueError, match=message):
            adaptive_gain(0.3, poles)

    def test_lookup_boundaries_are_strict(self):
        # theta_dot = 1 keeps the partial norm above 1, so the region gain acts
        eps = 1e-9
        for theta, region in ((math.pi / 6 - eps, 0), (math.pi / 6, 1),
                              (math.pi / 3 - eps, 1), (math.pi / 3, 2)):
            u = self._lookup_input([theta, 1.0, 0.0, 0.0])
            assert u == pytest.approx(fsfc(self.REGION_GAINS[region], [theta, 1.0, 0.0]),
                                      rel=1e-6)

    def test_lookup_is_even_in_angle(self):
        # the same gain at -theta: mirroring the state negates the input exactly
        for theta in (0.3, math.pi / 6, 0.9, math.pi / 3, 1.3):
            x = [theta, 1.0, 0.0, 0.5]
            u_pos = self._lookup_input(x)
            u_neg = self._lookup_input([-v for v in x])
            assert u_neg == -u_pos

    def test_lookup_region_boundaries(self):
        eps = 1e-9
        for sign in (1.0, -1.0):
            assert lookup_region(sign * (math.pi / 6 - eps)) == 0
            assert lookup_region(sign * math.pi / 6) == 1
            assert lookup_region(sign * (math.pi / 3 - eps)) == 1
            assert lookup_region(sign * math.pi / 3) == 2

    def test_lookup_scenario_indexes_the_lookup_gains(self):
        _, rep = scenarios.run_scenario("sip_adaptive_lookup", {"t_end": 0.01})
        for region, theta in enumerate((0.0, 0.9, 1.3)):
            assert lookup_region(theta) == region
            assert rep.gain_matrices_used[region] == pytest.approx(self.REGION_GAINS[region],
                                                                   rel=1e-6)


def window_of(rows, rates):
    """A SysidWindow whose newest rows, newest first, are rows' (theta, u) with rates: pushed oldest first."""
    window = SysidWindow()
    for (theta, u), rate in reversed(list(zip(rows, rates, strict=True))):
        window.push(theta, u, rate)
    return window


class TestSysIdWindow:
    # after the first, theta_dot rates follow a*theta + b*u exactly under the warm-up
    # input u = 1; the first rate (from the scenario's x0, theta_dot = 0) does not, so
    # an estimate from more than the six newest rows would miss (a, b)
    A, B, DT = 9.0, -0.8, 0.001

    def _run_builder(self, steps):
        built = scenarios._SCENARIOS["sip_adaptive_sysid"].build({"dt": self.DT})
        states, dtheta = [], 0.5
        for k in range(steps):
            theta = 0.3 + 0.01 * k * k
            dtheta += self.DT * (self.A * theta + self.B)
            states.append((theta, dtheta, 0.0, 0.5))
        outputs, gain_counts = [], []
        for k, x in enumerate(states):
            outputs.append(built.controller(k * self.DT, x))
            gain_counts.append(len(built.gains()))
        return built, states, outputs, gain_counts

    def test_warm_after_capacity_pushes(self):
        built, _, outputs, gain_counts = self._run_builder(7)
        assert outputs[:6] == [1.0] * 6
        assert gain_counts == [0] * 6 + [1]

    def test_newest_row_on_top(self):
        built, states, outputs, _ = self._run_builder(7)
        # the six newest identification rows and rates, newest first, under the warm-up input 1.0
        rows = [(states[k][0], 1.0) for k in range(6, 0, -1)]
        rates = [(states[k][1] - states[k - 1][1]) / self.DT for k in range(6, 0, -1)]
        estimate = sysid_solve(window_of(rows, rates))
        assert estimate == pytest.approx((self.A, self.B), rel=1e-6)
        K = design_gain_matrix(*sip_design_pair(*estimate), (-4.0, -4.0, -4.0))
        theta, dtheta, _, dx = states[6]
        assert outputs[6] == fsfc(K, (theta, dtheta, dx))
        assert built.gains()[0].tolist() == K.tolist()

    def test_recovers_synthetic_parameters(self):
        rng = np.random.default_rng(21)
        true = np.array([2.5, -1.2])
        rows = [rng.normal(size=2).tolist() for _ in range(6)]
        rates = [float(np.dot(reg, true)) for reg in rows]
        assert sysid_solve(window_of(rows, rates)) == pytest.approx(true, abs=1e-10)

    def test_rank_deficient_window_rejected(self):
        rows = [(1.0 + k, 2.0 + 2 * k) for k in range(3)]  # all on one line, over three zero rows
        with pytest.raises(ValueError, match="rank deficient"):
            sysid_solve(window_of(rows, [1.0] * 3))

    def test_shares_least_squares_core(self):
        """The window gives least_squares' estimate on the same rows, bit for bit."""
        rng = np.random.default_rng(22)
        for _ in range(50):
            rows, rates = rng.normal(size=(6, 2)), rng.normal(size=6)
            window = window_of(rows.tolist(), rates.tolist())
            assert np.array_equal(window.rows, np.column_stack([rows, rates]))
            assert list(sysid_solve(window)) == least_squares(rows, rates).tolist()

    def test_finite_entries_whose_sum_overflows_pass(self):
        rows, rates = [(1e308, 0.0), (0.0, 1e308), (1e308, 1e308)], [1.0, 2.0, 3.0]
        assert sum(rows[2]) == math.inf
        zeros = [(0.0, 0.0)] * 3  # the rows not yet pushed
        assert list(sysid_solve(window_of(rows, rates))) == least_squares(rows + zeros, rates + [0.0] * 3).tolist()

    def test_default_run_pins_the_identification_mechanism(self, monkeypatch):
        """What the default sip_adaptive_sysid run feeds sip_pole_gain, read through its window:
        a spurious first row (rate 0 at t = 0), a first estimate far from the true pair at theta_0,
        wrong-signed estimates, and a swing past the 0.4*pi the design models cover. ROADMAP item 2
        (make the run well-posed) changes these figures and rewrites this test."""
        pushed, estimates = [], []

        class RecordingWindow(SysidWindow):
            def push(self, theta, u, rate):
                pushed.append((theta, u, rate))
                super().push(theta, u, rate)

        def recording_solve(window):
            estimates.append(sysid_solve(window))
            return estimates[-1]

        monkeypatch.setattr(scenarios, "SysidWindow", RecordingWindow)
        monkeypatch.setattr(scenarios, "sysid_solve", recording_solve)
        scenarios.run_scenario("sip_adaptive_sysid")
        theta0 = scenarios._SIP_X0[0]
        assert len(estimates) == len(pushed) - 6 == 2994
        assert estimates[0] == pytest.approx((2.7692, 5.7216), abs=5e-5)
        assert (G * math.sin(theta0) / theta0, -math.cos(theta0)) == pytest.approx((7.568, -0.309), abs=5e-4)
        assert sum(a < 0 for a, _ in estimates) == 16 and sum(b > 0 for _, b in estimates) == 1
        assert max(a for a, _ in estimates) == pytest.approx(119.996, abs=5e-4)
        top = max(abs(theta) for theta, _, _ in pushed)
        assert top == pytest.approx(1.25691, abs=5e-6) and top > 0.4 * math.pi
        assert pushed[0] == (theta0, 1.0, 0.0)

    def test_mirrored_start_gives_the_mirrored_run(self, monkeypatch):
        """The pendulum is odd in its state and the warm-up input takes theta_0's sign, so the run
        from -x0 is the default run negated, bit for bit: states, inputs and the same gains. With a
        warm-up of +1.0 from either side the mirrored pendulum fell after 697 steps."""
        def hexes(rows, sign):
            return [[(sign * v).hex() for v in row] for row in rows]

        traj, report = run_cached("sip_adaptive_sysid")
        monkeypatch.setattr(scenarios, "_SIP_X0", tuple(-v for v in scenarios._SIP_X0))
        mirrored, mirrored_report = scenarios.run_scenario("sip_adaptive_sysid")
        assert traj.terminal_event == mirrored.terminal_event == "timeout"
        assert len(traj.states) == len(mirrored.states) == 3001
        assert mirrored.times == traj.times
        assert hexes(mirrored.states, 1.0) == hexes(traj.states, -1.0)
        assert hexes(mirrored.inputs, 1.0) == hexes(traj.inputs, -1.0)
        assert hexes(mirrored_report.gain_matrices_used, 1.0) == hexes(report.gain_matrices_used, 1.0)


class TestCbfFilterScalar:
    def test_clips_up_when_gain_positive(self):
        # constraint: Lfh + Lgh*u + alpha_h >= 0  ->  u >= 1.5
        assert cbf_filter_scalar(-3.0, Lfh=-2.0, Lgh=2.0, alpha_h=-1.0) == pytest.approx(1.5)
        assert cbf_filter_scalar(4.0, Lfh=-2.0, Lgh=2.0, alpha_h=-1.0) == pytest.approx(4.0)

    def test_clips_down_when_gain_negative(self):
        assert cbf_filter_scalar(3.0, Lfh=-2.0, Lgh=-2.0, alpha_h=-1.0) == pytest.approx(-1.5)
        assert cbf_filter_scalar(-4.0, Lfh=-2.0, Lgh=-2.0, alpha_h=-1.0) == pytest.approx(-4.0)

    def test_singularity_guard_passes_reference_and_logs(self):
        out = cbf_filter_scalar(7.0, Lfh=-5.0, Lgh=5e-5, alpha_h=0.0)
        assert out == 7.0

    def test_keeps_barrier_row_nonnegative(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            u_ref, Lfh, alpha_h = rng.uniform(-5.0, 5.0, size=3)
            Lgh = float(rng.uniform(-5.0, 5.0))
            if abs(Lgh) <= 1e-3:
                continue
            u = cbf_filter_scalar(u_ref, Lfh, Lgh, alpha_h)
            assert Lfh + Lgh * u + alpha_h >= -1e-12


class TestClfCbfStep:
    def test_returns_reference_when_rows_inactive(self):
        u, delta = clf_cbf_step(u_ref=0.3, LfV=-1.0, LgV=0.5, gamma_V=0.1,
                                Lfh=5.0, Lgh=1.0, alpha_h=2.0)
        assert u == pytest.approx(0.3)
        assert delta == pytest.approx(0.0, abs=1e-12)

    def test_barrier_row_is_hard(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            u_ref, LfV, LgV, gamma_V, Lfh = rng.uniform(-3.0, 3.0, size=5)
            gamma_V = abs(gamma_V)
            Lgh = float(rng.uniform(0.2, 3.0))
            alpha_h = float(rng.uniform(-1.0, 3.0))
            u, delta = clf_cbf_step(u_ref, LfV, LgV, gamma_V, Lfh, Lgh, alpha_h)
            assert Lfh + Lgh * u >= -alpha_h - 1e-9
            assert LfV + LgV * u <= -gamma_V + delta + 1e-9

    def test_beats_grid_search(self):
        u_ref, LfV, LgV, gamma_V = 1.0, 0.8, 1.5, 0.4
        Lfh, Lgh, alpha_h = -0.5, 1.0, 0.2
        u, delta = clf_cbf_step(u_ref, LfV, LgV, gamma_V, Lfh, Lgh, alpha_h)
        best = np.inf
        for ug in np.linspace(-4.0, 4.0, 401):
            for dg in np.linspace(0.0, 8.0, 401):
                if LfV + LgV * ug > -gamma_V + dg:
                    continue
                if Lfh + Lgh * ug < -alpha_h:
                    continue
                best = min(best, 0.5 * (ug - u_ref) ** 2 + 0.125 * dg ** 2)
        cost = 0.5 * (u - u_ref) ** 2 + 0.125 * delta ** 2
        assert cost <= best + 1e-4

    def test_infeasible_program_raises(self):
        with pytest.raises(RuntimeError):
            clf_cbf_step(u_ref=0.0, LfV=0.0, LgV=1.0, gamma_V=0.1,
                         Lfh=-1.0, Lgh=0.0, alpha_h=0.5)


def _qp_small_answer(u_ref, LfV, LgV, gamma_V, Lfh, Lgh, alpha_h):
    """The relaxed program of clf_cbf_step (H = 1, lam = 1/4), solved by qp_small."""
    H_qp = np.array([[1.0, 0.0], [0.0, 0.25]])
    c = np.array([-u_ref, 0.0])
    A = np.array([[LgV, -1.0], [-Lgh, 0.0]])
    b = np.array([-LfV - gamma_V, Lfh + alpha_h])
    return qp_small(H_qp, c, A, b)


def _active_rows(u, delta, Lfh, Lgh, alpha_h):
    """Names of the rows active at the minimizer: a positive slack means the
    CLF row binds, a zero barrier residual means the barrier row does."""
    rows = []
    if delta > 0.0:
        rows.append("clf")
    if Lgh != 0 and abs(Lfh + Lgh * u + alpha_h) <= 1e-9 * max(1.0, abs(Lfh + alpha_h)):
        rows.append("barrier")
    return "+".join(rows) or "none"


def _assert_matches_qp_small(args):
    """clf_cbf_step agrees with qp_small; returns the active rows, or "infeasible"."""
    z = _qp_small_answer(*args)
    if z is None:
        with pytest.raises(RuntimeError, match="relaxed safety program infeasible"):
            clf_cbf_step(*args)
        return "infeasible"
    u, delta = clf_cbf_step(*args)
    for got, want in zip((u, delta), z):
        assert abs(got - want) <= 1e-12 + 1e-12 * abs(want), (args, (u, delta), z)
    return _active_rows(u, delta, args[4], args[5], args[6])


class TestClfCbfClosedForm:
    """The scalar closed form against qp_small, its reference."""

    ALL_CASES = {"none", "clf", "barrier", "clf+barrier"}

    def test_matches_qp_small_on_random_programs(self):
        rng = np.random.default_rng(61)
        seen = set()
        for _ in range(2000):
            u_ref, LfV, LgV, gamma_V, Lfh, alpha_h = rng.uniform(-3.0, 3.0, size=6)
            Lgh = 0.0 if rng.random() < 0.15 else float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0))
            case = _assert_matches_qp_small((u_ref, LfV, LgV, gamma_V, Lfh, Lgh, alpha_h))
            seen.add((Lgh == 0.0, case))
        assert {(False, case) for case in self.ALL_CASES} <= seen
        assert {(True, "none"), (True, "clf"), (True, "infeasible")} <= seen

    def test_feasible_when_a_tiny_barrier_gain_makes_the_answer_large(self):
        # |u| and delta reach 1e6..1e9 here; rounding on the active rows then
        # exceeds qp_small's absolute 1e-9 and it can reject the minimizer.
        rng = np.random.default_rng(67)
        for _ in range(500):
            u_ref, LfV, LgV, gamma_V, Lfh, alpha_h = rng.uniform(-3.0, 3.0, size=6)
            Lgh = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -6.0))
            u, delta = clf_cbf_step(u_ref, LfV, LgV, gamma_V, Lfh, Lgh, alpha_h)
            tol = 1e-12 * max(1.0, abs(u), abs(delta))
            assert Lfh + Lgh * u + alpha_h >= -tol
            assert LfV + LgV * u <= -gamma_V + delta + tol
            assert delta >= 0.0

    def test_matches_qp_small_along_the_case1_run(self, monkeypatch):
        calls = []

        def recorded(*args, **kwargs):
            calls.append(args)
            return clf_cbf_step(*args, **kwargs)

        monkeypatch.setattr(scenarios, "clf_cbf_step", recorded)
        scenarios.run_scenario("point2d_clf_cbf_case1")
        seen = {_assert_matches_qp_small(tuple(float(a) for a in args)) for args in calls}
        assert seen == self.ALL_CASES


class TestLyapunovRef2d:
    def test_drives_quadratic_energy_down(self):
        rng = np.random.default_rng(51)
        for _ in range(100):
            x, y = rng.uniform(-3.0, 3.0, size=2)
            if abs(y) <= 1e-4:
                continue
            u = lyapunov_ref_2d(x, y)
            vdot = x * (x * math.sin(y)) + y * (y + u)
            assert vdot == pytest.approx(-y * y, abs=1e-9)

    def test_small_y_branch_uses_limit(self):
        assert lyapunov_ref_2d(2.0, 5e-5) == pytest.approx(-4.0 - 1e-4)
