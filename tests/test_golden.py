"""Scenario runs against the reference fingerprints in perfbench/golden.json
(and, for the two full-length CLF-CBF runs, in this file).

A change that moves a trajectory fails here, in the regular suite, and not
only in the benchmark. The rules are the benchmark's own check_run: the
documented outcome, then the terminal event and step count exactly, the
final state and the gains to rel 1e-9, and min h. The checksums of the 14
default runs are compared too, at the last ulp, and so are those of four
dip_smc and motorcycle_smc runs away from their defaults. Both eigenvalue
sweep tables are compared with golden.json's "tables" by the same rel 1e-9.
"""

import pathlib
import sys

import pytest

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from ctrlkit import SCENARIO_DEFAULTS, emit_table, trajectory_checksum  # noqa: E402
from test_acceptance import run_cached  # noqa: E402

DEFAULT_RUNS = [(sid, {}) for sid in SCENARIO_DEFAULTS]
PREFIX_RUNS = [(sid, {"t_end": t}) for sid in workloads.QP_SCENARIOS for t in workloads.QP_PREFIX]
# the guided and sliding-target controllers at the corners of their tunable grids
TUNED_RUNS = [("dip_smc", {"s_v": 6.0, "x0": 15.0}), ("dip_smc", {"s_v": 9.5, "x0": 25.0}),
              ("motorcycle_smc", {"preview": 5.0}), ("motorcycle_smc", {"preview": 7.0})]

# golden.json holds the two CLF-CBF scenarios only as prefixes of their run;
# these are their fingerprints at the defaults, 10,000 steps each
FULL_LENGTH_CLF_CBF = {
    "point2d_clf_cbf_case1": {"event": "timeout", "steps": 10000,
                              "final_state": [0.159703550351225, -0.02992460990511347],
                              "gains": [], "min_h": 0.0003301757577982567,
                              "checksum": "adab5a1e4910debea1b5893bb5918b98"
                                          "f28c0aa079cfa16752822ab0a7482d05"},
    "point2d_clf_cbf_case2": {"event": "timeout", "steps": 10000,
                              "final_state": [1.1256832041754836, 6.280797965470106],
                              "gains": [], "min_h": 4.6273296305798794e-10,
                              "checksum": "dd227e82986c60ed4b64cb8aca35b37f"
                                          "cba0e69cb6c7b581f84a2a87cf688d3f"},
}


def _key(sid, overrides):
    return workloads.scenario_key(sid, {**SCENARIO_DEFAULTS[sid]["params"], **overrides})


@pytest.fixture(scope="module")
def golden():
    return workloads.load_golden()["scenarios"]


@pytest.mark.parametrize("sid, overrides", DEFAULT_RUNS + PREFIX_RUNS,
                         ids=[_key(sid, o) for sid, o in DEFAULT_RUNS + PREFIX_RUNS])
def test_run_matches_golden_fingerprint(golden, sid, overrides):
    traj, rep = run_cached(sid, **overrides)
    got = {"event": rep.terminal_event, "steps": len(traj.times) - 1,
           "final_state": rep.final_state, "gains": rep.gain_matrices_used, "min_h": rep.min_h}
    key = _key(sid, overrides)
    assert workloads.check_run(sid, got, golden.get(key) or FULL_LENGTH_CLF_CBF[key]) == []


@pytest.mark.parametrize("sid", list(SCENARIO_DEFAULTS))
def test_default_run_matches_golden_checksum(golden, sid):
    """Every sample of the 14 default runs, to the last bit.

    The reference is the golden.json entry, or for the two full-length
    CLF-CBF runs the one in this file. Their final states alone miss
    changes: point2d_clf_cbf_case2 stalls at the barrier, so a 1e-7
    relative change of the barrier gain leaves its fingerprint inside
    tolerance, but not its checksum. The ten point2d_clf_cbf_* prefix
    entries are left out: the closed-form CLF-CBF step moved their inputs
    by last-ulp drift (listed in CHANGES.md), so their golden checksums are
    stale while their fingerprints still hold.
    """
    traj, _ = run_cached(sid)
    key = _key(sid, {})
    assert trajectory_checksum(traj) == (golden.get(key) or FULL_LENGTH_CLF_CBF[key])["checksum"]


@pytest.mark.parametrize("sid, overrides", TUNED_RUNS, ids=[_key(sid, o) for sid, o in TUNED_RUNS])
def test_tuned_run_matches_golden_checksum(golden, sid, overrides):
    """Every sample of dip_smc and motorcycle_smc at non-default tunables, to the last bit."""
    traj, _ = run_cached(sid, **overrides)
    assert trajectory_checksum(traj) == golden[_key(sid, overrides)]["checksum"]


@pytest.mark.parametrize("which", [1, 2])
def test_sweep_table_matches_golden(tmp_path, which):
    """Every row of both eigenvalue tables, to the benchmark's rel 1e-9."""
    path = tmp_path / "table.csv"
    emit_table(which, path)
    rows = [[float(v) for v in line.split(",")] for line in path.read_text().splitlines()[1:]]
    assert len(rows) == 145
    assert workloads._close(rows, workloads.load_golden()["tables"][str(which)])
