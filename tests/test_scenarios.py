"""Tests for the scenario registry, the runner, the emitters, and the CLI."""

import ast
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import pathlib
import re
import shlex
import struct
import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ctrlkit import (
    SCENARIO_DEFAULTS,
    SCENARIO_IDS,
    RunReport,
    Trajectory,
    emit,
    emit_table,
    parse_report,
    run_scenario,
    trajectory_checksum,
)
from ctrlkit import cli, control, models, numerics, scenarios, stability, synthesis
from ctrlkit.cli import main, read_matrix_file
from ctrlkit.scenarios import _SCENARIOS, FINAL_NORM_BELOW, emit_csv, emit_json, emit_svg
from test_acceptance import run_cached

EXPECTED_IDS = {
    "dip_smc", "motorcycle_smc", "sip_nonrobust_failure", "sip_robust_riccati",
    "sip_robust_riccati_midpoint", "sip_interval_polynomial",
    "sip_adaptive_online", "sip_adaptive_lookup", "sip_adaptive_sysid",
    "sip_cbf", "point2d_cbf_case1", "point2d_cbf_case2",
    "point2d_clf_cbf_case1", "point2d_clf_cbf_case2",
}

BARRIER_IDS = ("sip_cbf", "point2d_cbf_case1", "point2d_cbf_case2",
               "point2d_clf_cbf_case1", "point2d_clf_cbf_case2")


def write_robust_riccati_files(tmp_path):
    """Matrix files of the nominal pendulum and its bounds, as robust-riccati options."""
    args = {}
    for name, text in (("--a", "0 1 0\n10 0 0\n0 0 0\n"), ("--b", "0\n-1\n1\n"),
                       ("--da", "0 0 0\n2.4 0 0\n0 0 0\n"), ("--db", "0\n0.7\n0\n")):
        path = tmp_path / f"{name[2:]}.txt"
        path.write_text(text)
        args[name] = str(path)
    return args


def quick_run(scenario="point2d_cbf_case1", **overrides):
    overrides.setdefault("t_end", 0.05)
    return run_scenario(scenario, overrides)


# SCENARIO_DEFAULTS spelled out, so that a row edit that moves a default or reorders the ids fails here
PINNED_DEFAULTS = {
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


class TestRegistry:
    def test_derived_views_match_their_pinned_values(self):
        assert SCENARIO_IDS == tuple(PINNED_DEFAULTS)
        assert SCENARIO_DEFAULTS == PINNED_DEFAULTS
        assert all(list(SCENARIO_DEFAULTS[sid]) == list(entry) and
                   list(SCENARIO_DEFAULTS[sid]["params"]) == list(entry["params"])
                   for sid, entry in PINNED_DEFAULTS.items())  # same key order
        assert FINAL_NORM_BELOW == {"dip_smc": 0.05}

    def test_all_fourteen_scenarios_registered(self):
        assert set(SCENARIO_IDS) == EXPECTED_IDS
        assert SCENARIO_IDS == tuple(SCENARIO_DEFAULTS)

    def test_entries_carry_runner_defaults(self):
        for sid, entry in SCENARIO_DEFAULTS.items():
            assert set(entry) == {"dt", "t_end", "expected_event", "params"}
            assert entry["dt"] > 0
            assert entry["t_end"] >= entry["dt"]
            assert entry["expected_event"] in {"timeout", "success", "failure",
                                               "destination"}

    def test_extra_outcome_bounds_reference_known_scenarios(self):
        assert set(FINAL_NORM_BELOW) <= EXPECTED_IDS

    def test_readme_table_mirrors_registry(self):
        # only the rows under the scenario table's header; cells split on
        # markdown's unescaped "|", so an escaped "\|" in README.md stays text
        lines = pathlib.Path(__file__).resolve().parents[1].joinpath(
            "README.md").read_text().splitlines()
        start = lines.index("| scenario | dt | t_end | expected event |") + 2
        rows = {}
        for line in itertools.takewhile(lambda row: row.startswith("|"), lines[start:]):
            cells = [c.strip() for c in re.split(r"(?<!\\)\|", line.strip()[1:-1])]
            assert len(cells) == 4, line
            rows[cells[0].strip("`")] = cells
        assert set(rows) == EXPECTED_IDS
        for sid, cells in rows.items():
            entry = SCENARIO_DEFAULTS[sid]
            assert float(cells[1]) == entry["dt"], sid
            assert float(cells[2]) == entry["t_end"], sid
            assert cells[3].strip("`") == entry["expected_event"], sid


class TestRunScenario:
    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("sip_unknown")

    @pytest.mark.parametrize("scenario", [["sip_cbf"], None])
    def test_scenario_id_that_is_no_string_rejected_by_name(self, scenario):
        with pytest.raises(ValueError, match=re.escape(repr(scenario))):
            run_scenario(scenario)

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            run_scenario("sip_cbf", {"gain": 3.0})

    @pytest.mark.parametrize("scenario, overrides, message", [
        ("motorcycle_smc", {"preview": "nan"}, "preview must be finite"),
        ("sip_robust_riccati", {"s_v": float("nan")}, "s_v must be finite"),
        ("sip_robust_riccati", {"s_v": -1.0}, "s_v must be positive"),
        ("dip_smc", {"s_v": 0.0}, "s_v must be positive"),
        ("dip_smc", {"x0": float("inf")}, "x0 must be finite"),
        ("point2d_cbf_case1", {"dt": float("nan")}, "dt must be finite"),
        ("point2d_cbf_case1", {"dt": -0.001}, "dt must be positive"),
        ("sip_nonrobust_failure", {"t_end": "inf"}, "t_end must be finite"),
        ("sip_nonrobust_failure", {"t_end": 0.0}, "t_end must be positive"),
        ("sip_cbf", {"dt": 0.1, "t_end": 0.05}, "t_end must be at least dt"),
    ])
    def test_invalid_override_fails_before_the_run(self, scenario, overrides, message):
        with pytest.raises(ValueError, match=message):
            run_scenario(scenario, overrides)

    @pytest.mark.parametrize("overrides, message", [
        ({"dt": 0.1, "t_end": 0.05}, "^t_end must be at least dt"),
        ({"dt": 1e-320}, "^dt must be large enough that t_end/dt is finite, got 1e-320$")])
    @pytest.mark.parametrize("scenario", ["sip_robust_riccati", "dip_smc", "point2d_cbf_case1"])
    def test_run_settings_fail_before_the_build(self, monkeypatch, scenario, overrides, message):
        def build(params):
            raise AssertionError("the build ran before the run settings were checked")

        row = dataclasses.replace(_SCENARIOS[scenario], build=build)
        monkeypatch.setitem(_SCENARIOS, scenario, row)
        with pytest.raises(ValueError, match=message):
            run_scenario(scenario, overrides)

    def test_short_t_end_solves_no_care(self, monkeypatch):
        calls, solve_care = [], synthesis.solve_care
        monkeypatch.setattr(synthesis, "solve_care",
                            lambda *args: calls.append(args) or solve_care(*args))
        with pytest.raises(ValueError, match="^t_end must be at least dt"):
            run_scenario("sip_robust_riccati", {"dt": 0.1, "t_end": 0.05})
        assert calls == []
        run_scenario("sip_robust_riccati", {"dt": 0.1, "t_end": 0.1})
        assert len(calls) == 1  # the counter sees the vertex gain's CARE

    @pytest.mark.parametrize("value", ["abc", None])
    def test_non_number_override_names_the_key(self, value):
        with pytest.raises(ValueError, match="^x0 must be a number, got "):
            run_scenario("dip_smc", {"x0": value})

    def test_time_overrides_are_honored(self):
        traj, report = run_scenario("sip_nonrobust_failure", {"t_end": 0.05})
        assert report.terminal_event == "timeout"  # too short to fall over
        assert traj.times[-1] == pytest.approx(0.05)
        assert len(traj.times) == 51

    def test_dt_override_changes_grid(self):
        traj, _ = run_scenario("point2d_cbf_case1", {"dt": 0.01, "t_end": 0.1})
        assert len(traj.times) == 11
        assert traj.times[1] == pytest.approx(0.01)

    def test_scenario_parameter_override(self):
        traj, _ = run_scenario("dip_smc", {"x0": 5.0, "t_end": 0.01})
        assert traj.states[0][4] == pytest.approx(5.0)

    def test_checksum_is_deterministic_and_input_sensitive(self):
        _, r1 = quick_run()
        _, r2 = quick_run()
        _, r3 = quick_run(t_end=0.06)
        assert r1.checksum == r2.checksum
        assert r1.checksum != r3.checksum

    def test_checksum_matches_recomputation(self):
        traj, report = quick_run()
        assert trajectory_checksum(traj) == report.checksum

    def test_min_h_and_guard_only_on_barrier_scenarios(self):
        _, plain = run_scenario("sip_nonrobust_failure", {"t_end": 0.05})
        assert plain.min_h is None
        assert plain.guard_activations is None
        _, guarded = quick_run()
        assert guarded.min_h is not None
        assert guarded.guard_activations is not None

    def test_nonrobust_controller_drops_the_pendulum(self):
        traj, report = run_scenario("sip_nonrobust_failure")
        assert report.terminal_event == "failure"
        assert report.elapsed_sim_time == pytest.approx(0.644, abs=1e-9)
        assert abs(traj.states[-1][0]) >= math.pi / 2

    @pytest.mark.parametrize("dt, min_h, guards", [
        pytest.param(5e-4, -0.1913, 12, id="0.0005--0.1913"),
        pytest.param(2e-4, 0.005575, 130, id="0.0002-0.005575")])
    def test_sip_cbf_violation_shrinks_with_the_step(self, dt, min_h, guards):
        # rows of the README's sip_cbf table; at these steps min h falls before
        # t = 6 s (5e-4 has one more guard activation between 6 s and 10 s)
        _, rep = run_scenario("sip_cbf", {"dt": dt, "t_end": 6.0})
        assert rep.min_h == pytest.approx(min_h, rel=1e-3)
        assert rep.guard_activations == guards

    @pytest.mark.parametrize("scenario, guards", [
        ("sip_cbf", 5), ("point2d_cbf_case1", 0), ("point2d_cbf_case2", 0),
        ("point2d_clf_cbf_case1", 0), ("point2d_clf_cbf_case2", 0)])
    def test_default_guard_activations(self, scenario, guards):
        assert run_cached(scenario)[1].guard_activations == guards

    @pytest.mark.parametrize("scenario, state", [
        ("point2d_cbf_case1", [4.0, 2.0]), ("point2d_cbf_case2", [4.0, 3.5]),
        ("point2d_clf_cbf_case1", [4.0, 0.0]), ("point2d_clf_cbf_case2", [4.0, 0.0])])
    def test_point2d_guard_counts_a_singular_step(self, scenario, state):
        # Lgh = y - c_y vanishes for the filter, LgV = y for the relaxed program
        built = _SCENARIOS[scenario].build(SCENARIO_DEFAULTS[scenario]["params"])
        assert built.guard() == 0
        built.controller(0.0, np.array(state))
        assert built.guard() == 1

    # min_h is the controllers' running minimum with the last state folded
    # in after it; min() over every state's h is the oracle, compared by hex
    @pytest.mark.parametrize("overrides", [
        {}, {"t_end": 0.001}, {"t_end": 0.002}, {"dt": 5e-4}, {"dt": 2e-3}],
        ids=["defaults", "one-step", "two-steps", "dt-5e-4", "dt-2e-3"])
    @pytest.mark.parametrize("scenario", BARRIER_IDS)
    def test_min_h_is_min_over_every_state(self, scenario, overrides):
        traj, report = run_cached(scenario, **overrides)
        h = _SCENARIOS[scenario].barrier_h
        assert report.min_h.hex() == min(map(h, traj.states)).hex()
        if "t_end" in overrides:
            # h still falls here, so only the state the controller never
            # sees holds the minimum
            assert h(traj.states[-1]) < min(map(h, traj.states[:-1]))

    def test_min_h_of_a_run_a_stop_event_ends(self):
        traj, report = run_scenario("sip_cbf", {"dt": 0.005})
        assert report.terminal_event == "failure"
        h = _SCENARIOS["sip_cbf"].barrier_h
        assert report.min_h.hex() == min(map(h, traj.states)).hex()

    @pytest.mark.parametrize("scenario, state", [
        ("sip_cbf", (0.25, 0.0, 20.0, 0.0)), ("point2d_cbf_case1", (2.0, 2.0)),
        ("point2d_cbf_case2", (0.0, 3.5)), ("point2d_clf_cbf_case1", (2.0, 0.0)),
        ("point2d_clf_cbf_case2", (0.0, 0.0))])
    def test_a_guarded_step_still_folds_its_h(self, scenario, state):
        # each state fires the singularity guard and lies below h(x0)
        h = _SCENARIOS[scenario].barrier_h
        built = _SCENARIOS[scenario].build(SCENARIO_DEFAULTS[scenario]["params"])
        assert built.lowest_h().hex() == h(built.x0).hex()
        built.controller(0.0, state)
        assert built.guard() == 1
        assert built.lowest_h().hex() == h(state).hex()

    def test_motorcycle_reaches_destination(self):
        _, report = run_scenario("motorcycle_smc")
        assert report.terminal_event == "destination"
        assert report.elapsed_sim_time == pytest.approx(4.080, abs=1e-9)
        assert report.gain_matrices_used[0] == pytest.approx(
            [-0.05859375, -0.9375, -0.77109375, -0.24375], rel=1e-9)

    def test_clf_cbf_case2_inputs_are_the_barrier_filters(self):
        # The barrier row fixes u and the slack absorbs the CLF row, so the
        # relaxed program applies the scalar barrier filter's control and
        # stalls where it does (the known-red convergence clause 7e).
        _, relaxed = run_cached("point2d_clf_cbf_case2")
        _, barrier = run_cached("point2d_cbf_case2")
        assert relaxed.checksum == barrier.checksum
        assert math.hypot(*relaxed.final_state) == pytest.approx(6.38, abs=0.01)

    def test_report_shape(self):
        traj, report = quick_run()
        assert isinstance(report, RunReport)
        assert report.scenario == "point2d_cbf_case1"
        assert report.elapsed_sim_time == traj.times[-1]
        assert len(report.final_state) == len(traj.states[-1])
        assert all(isinstance(v, float) for v in report.final_state)
        assert report.gain_matrices_used == []  # pure filter, no linear gain


SLIDING_SIP_IDS = ("sip_robust_riccati", "sip_robust_riccati_midpoint", "sip_interval_polynomial",
                   "sip_adaptive_lookup")


class TestProductFormPredicates:
    """The settle and slide-switch tests square by product; ** (libm pow) is their oracle."""

    @staticmethod
    def within_4_ulps(product_sum, pow_sum):
        return abs(product_sum - pow_sum) <= 4 * math.ulp(pow_sum)

    @pytest.mark.parametrize("scenario", SLIDING_SIP_IDS)
    def test_settle_verdict_is_the_pow_forms_on_every_state(self, scenario):
        traj, _ = run_cached(scenario)
        for s in traj.states:
            pow_sum = s[0] ** 2 + s[1] ** 2 + s[2] ** 2 + s[3] ** 2
            assert self.within_4_ulps(s[0] * s[0] + s[1] * s[1] + s[2] * s[2] + s[3] * s[3], pow_sum), s
            expected = ("success" if pow_sum < 0.001
                        else "failure" if abs(s[0]) >= math.pi / 2 else None)
            assert scenarios._sip_settled_or_fallen(s) == expected, s
        assert expected == "success" == traj.terminal_event

    @pytest.mark.parametrize("scenario", SLIDING_SIP_IDS)
    def test_switch_verdict_is_the_pow_forms_on_every_state(self, scenario):
        """A fresh controller per state: its first call holds the first phase or switches."""
        traj, _ = run_cached(scenario)
        switches = 0
        for s in traj.states:
            pow_sum = s[0] ** 2 + s[1] ** 2 + s[3] ** 2
            assert self.within_4_ulps(s[0] * s[0] + s[1] * s[1] + s[3] * s[3], pow_sum), s
            controller = scenarios._stabilize_then_slide(lambda x: "first phase", (0.0,) * 4, 8.0, 1e-3)
            held = controller(0.0, s) == "first phase"
            assert held == (pow_sum > 1.0), s
            switches += not held
        assert 0 < switches < len(traj.states)


class TestHoistedConstants:
    """Each constant taken out of a per-step function equals the expression it replaced."""

    @pytest.mark.parametrize("value, expression", [
        (scenarios._FALLEN, math.pi / 2),
        (scenarios._SIP_CBF_YB2, scenarios._SIP_CBF_YB ** 2),
        (scenarios._SIP_CBF_DYB2, scenarios._SIP_CBF_DYB ** 2),
        ((scenarios._MOTO_XD, scenarios._MOTO_YD), scenarios._MOTO_POSE_D[:2]),
        (models._MOTO_TURN, models.MOTO_V / models.MOTO_L),
        (models._MOTO_TOPPLE, models.G / models.MOTO_H),
        (models._MOTO_LEAN, models.MOTO_V ** 2 / (models.MOTO_H * models.MOTO_L)),
        (control._REGION_1, math.pi / 6),
        (control._REGION_2, math.pi / 3),
    ], ids=["fallen", "sip_cbf_yb2", "sip_cbf_dyb2", "moto_destination", "moto_turn", "moto_topple",
            "moto_lean", "region_1", "region_2"])
    def test_constant_equals_its_expression(self, value, expression):
        assert value == expression

    def test_guidance_lines_carry_their_sin_and_cos(self):
        guide = control.MotorcycleGuidance(scenarios._MOTO_POSE_I, scenarios._MOTO_POSE_D)
        for line, pose in ((guide._line_I, guide.pose_I), (guide._line_D, guide.pose_D)):
            assert line == (*pose, -math.sin(pose[2]), math.cos(pose[2]))

    @pytest.mark.parametrize("scenario", ["point2d_cbf_case1", "point2d_cbf_case2", "sip_cbf"])
    def test_barriers_equal_their_in_function_form_on_every_state(self, scenario):
        traj, _ = run_cached(scenario)
        h = _SCENARIOS[scenario].barrier_h
        if scenario == "sip_cbf":
            yb, dyb = scenarios._SIP_CBF_YB, scenarios._SIP_CBF_DYB

            def old(s):
                return (25.0 * (yb ** 2 - s[0] ** 2) + (dyb ** 2 - s[1] ** 2)) / 2.0
        else:
            cx, cy, cr = scenarios._DISKS[scenario.rsplit("_", 1)[1]]

            def old(s):
                return ((s[0] - cx) ** 2 + (s[1] - cy) ** 2 - cr ** 2) / 2.0
        assert [h(s).hex() for s in traj.states] == [old(s).hex() for s in traj.states]

    @staticmethod
    def old_motorcycle_deriv(s, u):
        """motorcycle_plant's deriv with its constants in the function, kept as its oracle."""
        V, L, H, G = models.MOTO_V, models.MOTO_L, models.MOTO_H, models.G
        _, _, phi, beta, roll, droll = s
        tb = math.tan(beta)
        return (V * math.cos(phi), V * math.sin(phi), (V / L) * tb, (u[0] - beta) / models.MOTO_TAU_BETA,
                droll, (G / H) * math.sin(roll) - (V ** 2 / (H * L)) * tb * math.cos(roll))

    @staticmethod
    def old_lateral_deriv(s, u):
        """motorcycle_lateral_plant's deriv with its constants in the function, kept as its oracle."""
        V, L, H, G = models.MOTO_V, models.MOTO_L, models.MOTO_H, models.G
        _, phi, roll, droll = s
        tb = math.tan(u[0])
        return (V * math.sin(phi), (V / L) * tb, droll,
                (G / H) * math.sin(roll) - (V ** 2 / (H * L)) * tb * math.cos(roll))

    def test_motorcycle_derivatives_equal_their_in_function_form(self):
        """Along the default motorcycle_smc run; the lateral model at its (y, phi, roll, rate)."""
        traj, _ = run_cached("motorcycle_smc")
        full, lateral = models.motorcycle_plant().deriv, models.motorcycle_lateral_plant().deriv
        for s, u in zip(traj.states, traj.inputs):
            assert full(s, u) == self.old_motorcycle_deriv(s, u)
            s4 = (s[1], s[2], s[4], s[5])
            assert lateral(s4, u) == self.old_lateral_deriv(s4, u)


class TestCsv:
    def test_header_rows_and_formatting(self, tmp_path):
        traj, report = quick_run()
        path = tmp_path / "run.csv"
        emit(traj, report, "csv", path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "t,x1,x2,u1"
        assert len(lines) == len(traj.times) + 1
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == 0.0
        assert first[1] == pytest.approx(traj.states[0][0], rel=1e-11)
        assert first[3] == pytest.approx(traj.inputs[0][0], rel=1e-11)

    def test_bytes_match_per_value_formatting(self, tmp_path):
        traj, _ = run_scenario("dip_smc", {"t_end": 0.2})
        traj.states.append(np.array([-0.0, np.nan, np.inf, -np.inf, 5e-324, 1.5e300]))
        traj.inputs.append(np.array([1.0 / 3.0]))
        traj.times.append(0.201)
        path = tmp_path / "dip.csv"
        emit_csv(traj, path)
        lines = ["t,x1,x2,x3,x4,x5,x6,u1"]
        for t, x, u in zip(traj.times, traj.states, traj.inputs):
            lines.append(",".join(f"{v:.12g}" for v in (t, *x, *u)))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    @pytest.mark.parametrize("scenario", ["dip_smc", "motorcycle_smc", "point2d_cbf_case1",
                                          "sip_nonrobust_failure"])
    def test_bytes_match_the_per_row_formula(self, scenario, tmp_path):
        """One % over all samples writes what a % per row, joined by LF, writes."""
        traj, _ = run_cached(scenario)
        path = tmp_path / "run.csv"
        emit_csv(traj, path)
        n, m = len(traj.states[0]), len(traj.inputs[0])
        row = ",".join(["%.12g"] * (1 + n + m))
        lines = [",".join(["t"] + [f"x{i + 1}" for i in range(n)] + [f"u{j + 1}" for j in range(m)])]
        for t, x, u in zip(traj.times, traj.states, traj.inputs):
            lines.append(row % (t, *x, *u))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_empty_trajectory_writes_bare_header(self, tmp_path):
        traj = Trajectory(times=[], states=[], inputs=[], terminal_event="timeout")
        path = tmp_path / "empty.csv"
        emit_csv(traj, path)
        assert path.read_text() == "t\n"


class TestJson:
    def test_report_round_trip(self, tmp_path):
        traj, report = quick_run()
        path = tmp_path / "run.json"
        emit_json(traj, report, path)
        assert parse_report(path) == report

    def test_trajectory_metadata(self, tmp_path):
        traj, report = quick_run()
        path = tmp_path / "run.json"
        emit(traj, report, "json", path)
        meta = json.loads(path.read_text())["trajectory"]
        assert meta["samples"] == len(traj.times)
        assert meta["t_start"] == 0.0
        assert meta["t_end"] == pytest.approx(traj.times[-1])
        assert meta["state_dim"] == 2
        assert meta["input_dim"] == 1


class TestSvg:
    def count(self, path, tag):
        root = ET.parse(path).getroot()
        return sum(1 for el in root.iter() if el.tag.endswith(tag))

    def test_planar_projection_with_disk(self, tmp_path):
        traj, report = quick_run()
        path = tmp_path / "run.svg"
        emit(traj, report, "svg", path)
        assert self.count(path, "polyline") == 1
        assert self.count(path, "circle") == 2  # unsafe disk + origin marker

    def test_motorcycle_projection_with_course(self, tmp_path):
        traj, report = run_scenario("motorcycle_smc", {"t_end": 0.05})
        path = tmp_path / "moto.svg"
        emit_svg(traj, report, path)
        assert self.count(path, "polyline") == 2  # course + path
        assert self.count(path, "circle") == 1  # arrival circle

    def test_cart_projection_two_time_series(self, tmp_path):
        traj, report = run_scenario("sip_nonrobust_failure", {"t_end": 0.05})
        path = tmp_path / "sip.svg"
        emit_svg(traj, report, path)
        assert self.count(path, "polyline") == 2
        assert self.count(path, "circle") == 0

    def test_long_polyline_is_thinned(self, tmp_path):
        n = 6000
        times = [0.001 * k for k in range(n)]
        states = [np.array([math.cos(0.01 * k), math.sin(0.01 * k)]) for k in range(n)]
        inputs = [np.zeros(1) for _ in range(n)]
        traj = Trajectory(times=times, states=states, inputs=inputs,
                          terminal_event="timeout")
        report = RunReport(scenario="point2d_cbf_case1", terminal_event="timeout",
                           final_state=[0.0, 0.0], elapsed_sim_time=times[-1],
                           min_h=None, gain_matrices_used=[], checksum="x")
        path = tmp_path / "thin.svg"
        emit_svg(traj, report, path)
        root = ET.parse(path).getroot()
        poly = next(el for el in root.iter() if el.tag.endswith("polyline"))
        assert len(poly.attrib["points"].split()) == 2000

    def test_unregistered_scenario_rejected(self, tmp_path):
        traj, report = quick_run()
        report.scenario = "point2d_cbf_case3"
        with pytest.raises(ValueError, match="'point2d_cbf_case3'"):
            emit_svg(traj, report, tmp_path / "run.svg")

    @pytest.mark.parametrize("scenario, polylines, circles", [
        ("sip_cbf", 2, 0), ("dip_smc", 2, 0), ("point2d_cbf_case1", 1, 2), ("motorcycle_smc", 2, 1)])
    def test_empty_trajectory_writes_a_complete_document(self, tmp_path, scenario, polylines, circles):
        traj = Trajectory(times=[], states=[], inputs=[], terminal_event="timeout")
        report = RunReport(scenario=scenario, terminal_event="timeout", final_state=[],
                           elapsed_sim_time=0.0, min_h=None, gain_matrices_used=[], checksum="x")
        path = tmp_path / "empty.svg"
        emit_svg(traj, report, path)
        text = path.read_text()
        assert text.startswith("<svg ") and text.endswith("</svg>\n")
        assert ET.parse(path).getroot().tag.endswith("svg")
        assert self.count(path, "polyline") == polylines
        assert self.count(path, "circle") == circles
        path_points = [el.attrib["points"] for el in ET.parse(path).getroot().iter()
                       if el.tag.endswith("polyline")][-1]
        assert path_points == ""  # the run's own curve; the motorcycle course is drawn before it

    def test_unknown_format_rejected(self, tmp_path):
        traj, report = quick_run()
        with pytest.raises(ValueError):
            emit(traj, report, "png", tmp_path / "run.png")

    # sha256 of emit_svg's output, so that every byte of each projection is
    # checked (dip_smc's cart is state index 4, the other carts index 2); the
    # point2d and motorcycle paths exceed 2000 samples, so their polylines are
    # thinned
    @pytest.mark.parametrize("scenario, digest", [
        ("point2d_cbf_case1", "60526d0b81fd863ccb2099f3133f82e8724f85a49d28812d11f8407875aad3b0"),
        ("motorcycle_smc", "433ab8eecac70c64b10845e8823e32260c2f6b13c496cb125ae43bc29e4f680c"),
        ("sip_nonrobust_failure",
         "5cfbf7c7ff3920c51245a20cdb17f311dfe387b3cd2537c4184e62d96b66e567"),
        ("dip_smc", "23762a6c01c36d46d9cc3ebdf619b742f6e7e3531e814d79e4328a51d7259913"),
        ("sip_cbf", "196b6c0704b18bc39f349b4c7f0a0be633c005f8bfc44c5281632090332bfc3c"),
    ])
    def test_bytes_of_each_projection_are_pinned(self, tmp_path, scenario, digest):
        traj, report = run_scenario(scenario, {"t_end": 4.5})
        path = tmp_path / "run.svg"
        emit_svg(traj, report, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def random_trajectory(samples, rng):
    """A 4-state, 1-input trajectory of random floats, with signed zeros, infinities, a nan and subnormals."""
    pool = np.concatenate([rng.normal(size=64) * 10.0 ** rng.integers(-300, 300, 64),
                           [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310]]).tolist()
    draw = rng.integers(0, len(pool), size=(samples, 6)).tolist()
    return Trajectory(times=[0.001 * k for k in range(samples)],
                      states=[tuple(pool[i] for i in row[:4]) for row in draw],
                      inputs=[(pool[row[4]],) for row in draw], terminal_event="timeout")


class TestChunkedWriters:
    @pytest.mark.parametrize("samples", [0, scenarios._CHUNK - 1, scenarios._CHUNK, scenarios._CHUNK + 1])
    def test_same_bytes_and_digest_as_the_whole_run(self, samples, tmp_path):
        """The oracle is the whole-run form: one struct.pack per sequence, one % over every sample."""
        traj = random_trajectory(samples, np.random.default_rng(3902 + samples))
        packed = struct.pack(f"{samples}d", *traj.times)
        for rows in (traj.states, traj.inputs):
            packed += struct.pack(f"{len(rows) * (len(rows[0]) if rows else 0)}d", *itertools.chain(*rows))
        assert trajectory_checksum(traj) == hashlib.sha256(packed + b"timeout").hexdigest()

        path = tmp_path / "run.csv"
        emit_csv(traj, path)
        header, width = ("t,x1,x2,x3,x4,u1", 6) if samples else ("t", 1)
        flat = tuple(itertools.chain.from_iterable(
            map(itertools.chain, zip(traj.times), traj.states, traj.inputs)))
        row = ",".join(["%.12g"] * width) + "\n"
        assert path.read_bytes() == (header + "\n" + (row * samples) % flat).encode()


class TestEigTable:
    def test_decade_gain_sweep(self, tmp_path):
        path = tmp_path / "table2.csv"
        K = emit_table(2, path)
        assert np.array_equal(K, [-110.0, -50.0, -10.0])
        lines = path.read_text().splitlines()
        assert lines[0] == "theta_deg,re1,re2,re3"
        assert len(lines) == 146
        assert lines[1].startswith("-72,")
        center = [float(v) for v in lines[73].split(",")]
        assert center == pytest.approx(
            [0.0, -37.3975277998, -1.30123610009, -1.30123610009], abs=1e-9)
        data = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert np.all(data[:, 1:] < 0)

    def test_robust_gain_sweep(self, tmp_path):
        path = tmp_path / "table1.csv"
        K = emit_table(1, path)
        assert K == pytest.approx([-170.16110901, -54.7429347, -10.60763659],
                                  rel=1e-6)
        data = np.array([[float(v) for v in ln.split(",")]
                         for ln in path.read_text().splitlines()[1:]])
        assert data.shape == (145, 4)
        assert np.all(data[:, 1:] < 0)
        mid = data[72 - 30]  # theta = -30 equals theta = +30
        assert np.array_equal(mid[1:], data[72 + 30][1:])

    def test_unknown_table_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_table(3, tmp_path / "t.csv")


class TestCli:
    def test_run_writes_output_and_returns_zero(self, tmp_path, capsys):
        rc = main(["run", "point2d_cbf_case1", "--set", "t_end=0.2",
                   "--format", "json", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "point2d_cbf_case1.json").exists()
        assert "timeout" in out
        assert "checksum:" in out

    def test_run_flags_outcome_mismatch(self, tmp_path, capsys):
        rc = main(["run", "sip_robust_riccati", "--set", "t_end=0.5",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "MISMATCH" in err

    def test_bad_override_returns_one(self, tmp_path, capsys):
        rc = main(["run", "sip_cbf", "--set", "nope=1", "--out", str(tmp_path)])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_non_number_override_returns_one(self, tmp_path, capsys):
        rc = main(["run", "dip_smc", "--set", "x0=abc", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: x0 must be a number, got 'abc'\n"
        assert not list(tmp_path.iterdir())

    def test_non_finite_override_returns_one(self, tmp_path, capsys):
        rc = main(["run", "sip_nonrobust_failure", "--set", "t_end=inf", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: t_end must be finite")
        assert not list(tmp_path.iterdir())

    def test_dt_too_small_for_t_end_returns_one(self, tmp_path, capsys):
        rc = main(["run", "sip_cbf", "--set", "dt=1e-320", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: dt must be large enough that t_end/dt is finite, got 1e-320\n")
        assert not list(tmp_path.iterdir())

    def test_unknown_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["run", "sip_unknown"])
        assert ei.value.code == 1

    def test_one_parser_per_process_answers_as_a_fresh_one(self, tmp_path, capsys, monkeypatch):
        """main reuses one parser; a usage error, two run formats and a table come out as they
        do from a parser built for each call."""
        run = ["run", "point2d_cbf_case1", "--set", "t_end=0.2", "--out", str(tmp_path), "--format"]
        calls = [["run", "sip_unknown"], run + ["json"], run + ["svg"],
                 ["table", "2", "--out", str(tmp_path / "t2.csv")]]

        def outcomes():
            got = []
            for argv in calls:
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                got.append((code, *capsys.readouterr()))
            files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
            return got, files

        shared = outcomes()
        assert cli._build_parser() is cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)  # a new parser per call
        assert cli._build_parser() is not cli._build_parser()
        assert outcomes() == shared
        assert [code for code, _, _ in shared[0]] == [1, 0, 0, 0] and len(shared[1]) == 3

    def test_table_command(self, tmp_path, capsys):
        out_file = tmp_path / "t2.csv"
        rc = main(["table", "2", "--out", str(out_file)])
        assert rc == 0
        assert out_file.exists()
        assert "swept gain" in capsys.readouterr().out

    def test_pole_place_on_matrix_files(self, tmp_path, capsys):
        a = tmp_path / "A.txt"
        b = tmp_path / "B.txt"
        a.write_text("0 1 0\n10 0 0\n0 0 0\n")
        b.write_text("0\n-1\n1\n")
        rc = main(["design", "pole-place", "--a", str(a), "--b", str(b),
                   "--poles=-4,-4,-4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "[-58, -18.4, -6.4]" in out

    def test_robust_riccati_on_matrix_files(self, tmp_path, capsys):
        theta = 0.4 * math.pi
        da21 = abs(10.0 * math.sin(theta) / theta - 10.0)
        db2 = abs(1.0 - math.cos(theta))
        paths = {}
        for name, text in (("A", "0 1 0\n10 0 0\n0 0 0\n"),
                           ("B", "0\n-1\n1\n"),
                           ("dA", f"0 0 0\n{da21:.17g} 0 0\n0 0 0\n"),
                           ("dB", f"0\n{db2:.17g}\n0\n")):
            p = tmp_path / f"{name}.txt"
            p.write_text(text)
            paths[name] = str(p)
        rc = main(["design", "robust-riccati", "--a", paths["A"], "--b", paths["B"],
                   "--da", paths["dA"], "--db", paths["dB"]])
        out = capsys.readouterr().out
        assert rc == 0
        assert "-170.16" in out

    def test_region_check_exit_codes(self, capsys):
        common = ["design", "region-check", "--a-lo", "5", "--a-hi", "10",
                  "--b-lo", "0.31", "--b-hi", "1"]
        assert main(common + ["--k=-110,-50,-10"]) == 0
        assert "feasible" in capsys.readouterr().out
        assert main(common + ["--k=-58,-18.4,-6.4"]) == 2
        assert "infeasible" in capsys.readouterr().out

    def test_region_check_rejects_a_gain_without_three_entries(self, capsys):
        rc = main(["design", "region-check", "--a-lo", "5", "--a-hi", "10",
                   "--b-lo", "0.31", "--b-hi", "1", "--k=1,2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: K must have 3 entries, got 2\n"
        assert captured.out == ""

    def test_region_check_rejects_non_finite_gain(self, capsys):
        rc = main(["design", "region-check", "--a-lo", "5", "--a-hi", "10",
                   "--b-lo", "0.31", "--b-hi", "1", "--k=nan,-50,-10"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: --k has a non-finite entry" in captured.err
        assert "feasible" not in captured.out

    def test_region_check_validates_bounds_before_dividing_by_them(self, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error line
            rc = main(["design", "region-check", "--k=-110,-50,-10", "--a-lo", "7",
                       "--a-hi", "10", "--b-lo", "0", "--b-hi", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: parameter bounds must be positive and ordered\n"
        assert captured.out == ""

    @pytest.mark.parametrize("k, b_lo, lines", [
        ("-1,0,0", "0.3", ["k3 = 0 < 0: False"]),
        ("-1,-20,-10", "0.5", ["k3 = -10 < 0: True", "k2 = -20 < k3/b_lo = -20: False"]),
        ("-1,-30.000000000000004,-9", "0.3",  # k2 < k3/b_lo, yet the k1 denominator rounds to 0
         ["k3 = -9 < 0: True", "k2 = -30 < k3/b_lo = -30: True",
          "k1 = -1 < a_hi*k2/(-b_lo*k2 + k3) = -inf: False"]),
    ], ids=["k3=0", "k2=k3/b_lo", "zero-k1-denominator"])
    def test_region_check_stops_at_the_first_failing_inequality(self, capsys, k, b_lo, lines):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning from a zero denominator
            rc = main(["design", "region-check", f"--k={k}", "--a-lo", "7", "--a-hi", "10",
                       "--b-lo", b_lo, "--b-hi", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out.splitlines() == lines + ["infeasible"]
        assert captured.err == ""

    @pytest.mark.parametrize("option, value", [
        ("--a-bar", "inf"), ("--b-bar", "nan"), ("--epsilon", "nan"), ("--r", "-inf"),
        ("--a-lo", "nan"), ("--a-hi", "inf"), ("--b-lo", "-inf"), ("--b-hi", "nan")])
    def test_float_option_rejects_non_finite_value(self, tmp_path, capsys, option, value):
        if option in ("--a-lo", "--a-hi", "--b-lo", "--b-hi"):
            args = {"--a-lo": "5", "--a-hi": "10", "--b-lo": "0.31", "--b-hi": "1", option: value}
            argv = ["design", "region-check", "--k=-110,-50,-10"]
        else:
            args = write_robust_riccati_files(tmp_path)
            args[option] = value
            argv = ["design", "robust-riccati"]
        with pytest.raises(SystemExit) as ei:
            main(argv + [f"{k}={v}" for k, v in args.items()])
        assert ei.value.code == 1
        assert f"argument {option}: expected a finite number, got '{value}'" in capsys.readouterr().err

    @pytest.mark.parametrize("option, message", [
        ("--a-bar=0", "a_bar must be positive when dA_max is non-zero"),
        ("--b-bar=0", "b_bar must be positive when dB_max is non-zero"),
        ("--r=-1", "R must be positive definite"),
        ("--r=0", "R must be positive definite")], ids=["a_bar=0", "b_bar=0", "r=-1", "r=0"])
    def test_robust_riccati_rejects_invalid_config(self, tmp_path, capsys, option, message):
        args = write_robust_riccati_files(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy warning before the error line
            rc = main(["design", "robust-riccati", *[f"{k}={v}" for k, v in args.items()], option])
        err = capsys.readouterr().err
        assert rc == 1
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("option, text, message", [
        ("--q", "0.1\n", "Q must be 3x3, got shape (1, 1)"),
        ("--da", "2.4\n", "dA_max must be 3x3, got shape (1, 1)"),
        ("--db", "0.7\n", "dB_max must be 3x1, got shape (1, 1)"),
        ("--b", "-1\n1\n", "B must be 3x1, got shape (2, 1)"),
    ], ids=["q", "da", "db", "b"])
    def test_robust_riccati_rejects_a_matrix_file_of_the_wrong_shape(self, tmp_path, capsys,
                                                                      option, text, message):
        """Each of these once broadcast into a wrong K or an unrelated numpy error."""
        args = write_robust_riccati_files(tmp_path)
        path = tmp_path / "wrong.txt"
        path.write_text(text)
        args[option] = str(path)
        rc = main(["design", "robust-riccati", *[f"{k}={v}" for k, v in args.items()]])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text", ["1 5 0\n0 1 0\n0 0 1\n", "[[-1, 0, 0], [0, 1, 0], [0, 0, 1]]"],
                             ids=["non-symmetric", "indefinite"])
    def test_robust_riccati_rejects_a_q_not_symmetric_positive_semi_definite(self, tmp_path,
                                                                             capsys, text):
        """Both once exited 0 with a gain that solves no stated problem."""
        args = write_robust_riccati_files(tmp_path)
        path = tmp_path / "Q.txt"
        path.write_text(text)
        rc = main(["design", "robust-riccati", *[f"{k}={v}" for k, v in args.items()],
                   f"--q={path}"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == "error: Q must be symmetric positive semi-definite\n"
        assert captured.out == ""

    @pytest.mark.parametrize("text, json_text, shape", [
        ("1 2 3\n4 5 6  # a comment\n\n7 8 9.5\n", "[[1, 2, 3], [4, 5, 6], [7, 8, 9.5]]", (3, 3)),
        ("1 -2.5 3\n", "[[1, -2.5, 3]]", (1, 3)),
        ("1\n-2\n3e-3\n", "[[1], [-2], [3e-3]]", (3, 1)),
        ("1\n-2\n3\n", "[1, -2, 3]", (3,)),
    ], ids=["3x3", "row", "column", "json-vector"])
    def test_matrix_file_reads_text_and_json_alike(self, tmp_path, text, json_text, shape):
        as_text = tmp_path / "M.txt"
        as_json = tmp_path / "M.json"
        as_text.write_text(text)
        as_json.write_text(json_text)
        from_text = read_matrix_file(as_text)
        from_json = read_matrix_file(as_json)
        assert from_json.shape == shape
        if from_json.ndim == 1:  # text always reads 2-D: the vector's text form is its column
            from_json = from_json[:, None]
        assert from_text.shape == from_json.shape
        assert np.array_equal(from_text, from_json)

    @pytest.mark.parametrize("text, message", [
        ("[]", "no numeric rows in {}"),
        ("[[]]", "no numeric rows in {}"),
        ("# only a comment\n", "no numeric rows in {}"),
        ("[[1, 2], [3]]", "rows in {} have differing lengths"),
        ("[[1, 2], 3]", "rows in {} have differing lengths"),
        ("1 2\n3\n", "rows in {} have differing lengths"),
    ], ids=["json-empty", "json-empty-row", "text-empty", "json-ragged", "json-mixed", "text-ragged"])
    def test_matrix_file_rejects_empty_and_ragged_matrices(self, tmp_path, capsys, text, message):
        a = tmp_path / "A.txt"
        a.write_text(text)
        with pytest.raises(ValueError) as ei:
            read_matrix_file(a)
        assert str(ei.value) == message.format(a)
        args = write_robust_riccati_files(tmp_path)
        args["--a"] = str(a)
        rc = main(["design", "robust-riccati", *[f"{k}={v}" for k, v in args.items()]])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message.format(a)}\n"

    @pytest.mark.parametrize("text", ["0 1\nnan 0\n", "[[0, 1], [Infinity, 0]]"])
    def test_matrix_file_rejects_non_finite_entries(self, tmp_path, capsys, text):
        a = tmp_path / "A.txt"
        a.write_text(text)
        with pytest.raises(ValueError, match="A.txt has a non-finite entry"):
            read_matrix_file(a)
        b = tmp_path / "B.txt"
        b.write_text("0\n1\n")
        rc = main(["design", "pole-place", "--a", str(a), "--b", str(b), "--poles=-1,-2"])
        assert rc == 1
        assert "A.txt has a non-finite entry" in capsys.readouterr().err

    def test_missing_matrix_file_returns_one(self, capsys):
        rc = main(["design", "pole-place", "--a", "/nonexistent/A.txt",
                   "--b", "/nonexistent/B.txt", "--poles=-1,-2"])
        assert rc == 1
        assert "error" in capsys.readouterr().err

    def test_override_without_equals_sign_returns_one(self, tmp_path, capsys):
        rc = main(["run", "dip_smc", "--set", "x0", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: override 'x0' is not of the form key=value\n"
        assert not list(tmp_path.iterdir())

    def test_run_flags_final_norm_mismatch(self, tmp_path, capsys):
        """dip_smc ends on its expected event, a timeout, but 0.5 s leave the state far from 0."""
        rc = main(["run", "dip_smc", "--set", "t_end=0.5", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.fullmatch(r"MISMATCH: final state norm 20\.46\d* >= 0\.05\n", err), err

    def test_robust_riccati_without_a_positive_definite_solution_returns_one(self, tmp_path, capsys):
        args = write_robust_riccati_files(tmp_path)
        rc = main(["design", "robust-riccati", *[f"{k}={v}" for k, v in args.items()],
                   "--a-bar=0.2", "--b-bar=0.2", "--epsilon=0.5"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err == ("no positive definite solution for these settings; raise a-bar and b-bar "
                                "somewhat and lower epsilon somewhat, then retry\n")
        assert captured.out == ""

    def test_diverging_run_returns_one(self, tmp_path, capsys, monkeypatch):
        """The builders look their plant factory up at run time, so a patched one takes part."""
        def exploding():
            return dataclasses.replace(models.point2d_plant(), deriv=lambda s, u: (math.inf, s[1] + u[0]))

        monkeypatch.setattr(scenarios, "point2d_plant", exploding)
        rc = main(["run", "point2d_cbf_case1", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("simulation diverged: ") and "'point2d'" in captured.err, captured.err
        assert captured.out == "" and not list(tmp_path.iterdir())


def readme_commands():
    """Every `ctrlkit ...` line of the README's sh blocks, continuations joined, as argv lists."""
    text = pathlib.Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["ctrlkit"]:
                commands.append(argv[1:])
    return commands


class TestReadmeCommands:
    """The README's commands run as written, from a directory that holds the matrix files its
    design examples name: the 3-state vertex pendulum and its bounds at |theta| = 0.4 pi."""

    def test_every_subcommand_is_shown(self):
        assert {argv[0] for argv in readme_commands()} == {"run", "table", "design"}

    @pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
    def test_command_exits_zero(self, argv, tmp_path, monkeypatch, capsys):
        theta = 0.4 * math.pi
        for name, text in (("A", "0 1 0\n10 0 0\n0 0 0\n"), ("B", "0\n-1\n1\n"),
                           ("dA", f"0 0 0\n{abs(10.0 * math.sin(theta) / theta - 10.0)!r} 0 0\n0 0 0\n"),
                           ("dB", f"0\n{abs(1.0 - math.cos(theta))!r}\n0\n")):
            (tmp_path / f"{name}.txt").write_text(text)
        monkeypatch.chdir(tmp_path)  # every output path of the README's commands is relative
        assert main(argv) == 0, capsys.readouterr().err


@functools.cache
def parsed(path):
    """ast.parse of a source file, once per session: the exactness map and the import check read the same tests."""
    return ast.parse(path.read_text())


def test_readme_exactness_map_names_code_and_tests_that_exist():
    """Each row of the README's exactness map names objects of ctrlkit (module prefix optional)
    and tier-1 tests as file.py::Class::test, the file carried down from the row above; each test
    is a class or function, found by AST, of tests/ or perfbench/test_perfbench.py."""
    root = pathlib.Path(__file__).resolve().parents[1]
    lines = root.joinpath("README.md").read_text().splitlines()
    start = lines.index("| shortcut | argument | oracle test |") + 2
    rows = list(itertools.takewhile(lambda row: row.startswith("|"), lines[start:]))
    assert len(rows) > 10
    modules = (models, control, numerics, scenarios, stability, synthesis)
    tests, test_file = {}, None
    for path in [*root.joinpath("tests").glob("test_*.py"), root / "perfbench" / "test_perfbench.py"]:
        for node in parsed(path).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                tests[path.name, node.name] = node
            if isinstance(node, ast.ClassDef):
                tests.update({(path.name, f"{node.name}::{sub.name}"): sub for sub in node.body
                              if isinstance(sub, ast.FunctionDef)})
    for row in rows:
        _, argument, oracle = (cell.strip() for cell in row.strip("|").split("|"))
        for name in re.findall(r"`([^`]+)`", argument):
            head, *rest = name.split(".")
            objects = [vars(m).get(head) for m in modules] + [m for m in modules if m.__name__.endswith(head)]
            for attr in rest:
                objects = [getattr(obj, attr, None) for obj in objects]
            assert any(obj is not None for obj in objects), name
        for name in re.findall(r"`([^`]+)`", oracle):
            if ".py::" in name:
                test_file, name = name.split("::", 1)
            assert (test_file, name) in tests, name


def test_no_module_imports_a_name_it_never_reads():
    """Every name a module of src/ctrlkit or tests/ imports is read in it (pyflakes' F401). The package
    __init__.py re-exports, and import statements marked `# noqa: F401`, are exempt."""
    root = pathlib.Path(__file__).resolve().parents[1]
    unused = []
    for path in sorted([*root.joinpath("src", "ctrlkit").glob("*.py"), *root.joinpath("tests").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        lines, read, imports = path.read_text().splitlines(), set(), []
        for node in ast.walk(parsed(path)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)) and not any(
                    "noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                imports.append(node)
        for node in imports:
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]  # import a.b binds a
                if name not in read:
                    unused.append(f"{path.relative_to(root)}:{node.lineno}: {name}")
    assert unused == []
