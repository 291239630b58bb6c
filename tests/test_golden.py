"""Scenario runs against the reference fingerprints in perfbench/golden.json
(and, for the two full-length CLF-CBF runs, in this file).

A change that moves a trajectory fails here, in the regular suite, and not
only in the benchmark. The rules are the benchmark's own check_run: the
documented outcome, then the terminal event and step count exactly, the
final state and the gains to rel 1e-9, and min h. Checksums are not
compared: last-ulp drift moves them without moving the fingerprint.
"""

import pathlib
import sys

import pytest

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import workloads  # noqa: E402
from ctrlkit import SCENARIO_DEFAULTS  # noqa: E402
from test_acceptance import run_cached  # noqa: E402

DEFAULT_RUNS = [(sid, {}) for sid in SCENARIO_DEFAULTS]
PREFIX_RUNS = [(sid, {"t_end": t}) for sid in workloads.QP_SCENARIOS for t in workloads.QP_PREFIX]

# golden.json holds the two CLF-CBF scenarios only as prefixes of their run;
# these are their fingerprints at the defaults, 10,000 steps each
FULL_LENGTH_CLF_CBF = {
    "point2d_clf_cbf_case1": {"event": "timeout", "steps": 10000,
                              "final_state": [0.159703550351225, -0.02992460990511347],
                              "gains": [], "min_h": 0.0003301757577982567},
    "point2d_clf_cbf_case2": {"event": "timeout", "steps": 10000,
                              "final_state": [1.1256832041754836, 6.280797965470106],
                              "gains": [], "min_h": 4.6273296305798794e-10},
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

