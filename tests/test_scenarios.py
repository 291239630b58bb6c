"""Tests for the scenario registry, the runner, the emitters, and the CLI."""

import json
import math
import pathlib
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
from ctrlkit.cli import main, read_matrix_file
from ctrlkit.scenarios import FINAL_NORM_BELOW, emit_csv, emit_json, emit_svg

EXPECTED_IDS = {
    "dip_smc", "motorcycle_smc", "sip_nonrobust_failure", "sip_robust_riccati",
    "sip_robust_riccati_midpoint", "sip_interval_polynomial",
    "sip_adaptive_online", "sip_adaptive_lookup", "sip_adaptive_sysid",
    "sip_cbf", "point2d_cbf_case1", "point2d_cbf_case2",
    "point2d_clf_cbf_case1", "point2d_clf_cbf_case2",
}


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


class TestRegistry:
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
        text = pathlib.Path(__file__).resolve().parents[1].joinpath("README.md").read_text()
        rows = {}
        for line in text.splitlines():
            if not line.startswith("|"):
                continue
            cells = [c.strip() for c in line.strip("|").split("|")]
            if len(cells) != 4 or cells[0] in ("scenario", "") or set(cells[0]) <= {"-", " "}:
                continue
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

    @pytest.mark.parametrize("dt, min_h", [(5e-4, -0.1913), (2e-4, 0.005575)])
    def test_sip_cbf_violation_shrinks_with_the_step(self, dt, min_h):
        # rows of the README's sip_cbf table; at these steps min h falls before t = 6 s
        _, rep = run_scenario("sip_cbf", {"dt": dt, "t_end": 6.0})
        assert rep.min_h == pytest.approx(min_h, rel=1e-3)

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
        relaxed, report = run_scenario("point2d_clf_cbf_case2")
        barrier, _ = run_scenario("point2d_cbf_case2")
        assert len(relaxed.inputs) == len(barrier.inputs) == 10001
        du = np.abs(np.ravel(relaxed.inputs) - np.ravel(barrier.inputs))
        assert du.max() <= 1e-12
        assert math.hypot(*report.final_state) == pytest.approx(6.38, abs=0.01)

    def test_report_shape(self):
        traj, report = quick_run()
        assert isinstance(report, RunReport)
        assert report.scenario == "point2d_cbf_case1"
        assert report.elapsed_sim_time == traj.times[-1]
        assert len(report.final_state) == len(traj.states[-1])
        assert all(isinstance(v, float) for v in report.final_state)
        assert report.gain_matrices_used == []  # pure filter, no linear gain


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

    def test_unknown_format_rejected(self, tmp_path):
        traj, report = quick_run()
        with pytest.raises(ValueError):
            emit(traj, report, "png", tmp_path / "run.png")


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

    def test_non_finite_override_returns_one(self, tmp_path, capsys):
        rc = main(["run", "sip_nonrobust_failure", "--set", "t_end=inf", "--out", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: t_end must be finite")
        assert not list(tmp_path.iterdir())

    def test_unknown_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["run", "sip_unknown"])
        assert ei.value.code == 1

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

    def test_region_check_rejects_non_finite_gain(self, capsys):
        rc = main(["design", "region-check", "--a-lo", "5", "--a-hi", "10",
                   "--b-lo", "0.31", "--b-hi", "1", "--k=nan,-50,-10"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: --k has a non-finite entry" in captured.err
        assert "feasible" not in captured.out

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
