"""The benchmark's span tracer (perfbench/spans.py) still sees every plant
derivative and controller call of the scenarios.

The tracer replaces module attributes: the plant factories, fsfc,
sysid_solve and MotorcycleGuidance.step. A scenario that held one of them by
value, for example in its registry row, would run untraced and its spans
would read 0.
"""

import pathlib
import sys

import pytest

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
from ctrlkit import scenarios  # noqa: E402

T_END = 0.05  # 50 steps, no stop event in any of the five


@pytest.mark.parametrize("sid, plant, per_step", [
    ("dip_smc", "dip", ("control.fsfc",)),
    ("motorcycle_smc", "motorcycle", ("control.MotorcycleGuidance.step",)),
    ("point2d_cbf_case1", "point2d", ("control.cbf_filter_scalar",)),
    ("sip_cbf", "sip", ("control.fsfc", "control.cbf_filter_scalar")),
])
def test_traced_run_counts_one_span_per_step(sid, plant, per_step):
    tracer = spans.Tracer()
    with tracer.installed():
        traj, _ = scenarios.run_scenario(sid, {"t_end": T_END})
    steps = len(traj.times) - 1
    assert steps == 50
    summary = tracer.summary()
    for name in (f"models.deriv.{plant}", "scenarios.controller", *per_step):
        assert summary[name][0] == steps, name


def test_traced_sysid_run_counts_one_solve_per_step_after_the_warm_up():
    tracer = spans.Tracer()
    with tracer.installed():
        traj, _ = scenarios.run_scenario("sip_adaptive_sysid", {"t_end": T_END})
    steps = len(traj.times) - 1
    assert steps == 50
    summary = tracer.summary()
    assert summary["models.deriv.sip"][0] == summary["scenarios.controller"][0] == steps
    assert summary["control.sysid_solve"][0] == steps - 6  # six warm-up rows, then one solve a step
    assert summary["numerics.least_squares"][0] == 0
