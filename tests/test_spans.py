"""The benchmark's span tracer (perfbench/spans.py) still sees every plant
derivative and controller call of the scenarios, and every synthesis call of
the design workload's robust and place operations.

The tracer replaces module attributes: the plant factories, fsfc,
sysid_solve and MotorcycleGuidance.step. A scenario that held one of them by
value, for example in its registry row, would run untraced and its spans
would read 0.
"""

import math
import pathlib
import sys

import numpy as np
import pytest

sys.path.append(str(pathlib.Path(__file__).resolve().parent.parent / "perfbench"))

import spans  # noqa: E402
import workloads  # noqa: E402
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


def test_traced_design_ops_count_one_span_per_synthesis_call():
    """The robust op calls solve_care through synthesis' module attribute, so a bypass of the
    traced name would read 0 here; its rank-one factors take numerics' float core, untraced."""
    rng = np.random.default_rng(34)
    robust = [{"kind": "robust", "theta_max": float(rng.uniform(0.3 * math.pi, 0.45 * math.pi)),
               "bar": float(rng.uniform(200.0, 400.0)), "epsilon": float(rng.uniform(0.005, 0.02))}
              for _ in range(20)]
    A, B = workloads._controllable_pair(rng, 3)
    place = {"kind": "place", "A": A, "B": B, "poles": workloads._pole_set(rng, 3, False)}
    tracer = spans.Tracer()
    with tracer.installed():
        outcomes = [workloads.run_op("design", op, None) for op in robust + [place]]
    summary = tracer.summary()
    assert summary["synthesis.robust_riccati_gain"][0] == summary["synthesis.solve_care"][0] == 20
    assert summary["synthesis.design_gain_matrix"][0] == 1
    assert summary["numerics.nnmf_rank1"][0] == 0
    assert {o.get("outcome") for o in outcomes[:-1]} >= {"gain", "no_solution"}
