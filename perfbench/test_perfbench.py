"""Checks of the benchmark itself: seeded inputs, failure detection, trace restore.

Run from the checkout root:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from checkout import ROOT, use_checkout_sources

use_checkout_sources()

import spans  # noqa: E402  (needs the checkout's ctrlkit on sys.path)
import workloads  # noqa: E402
from ctrlkit import synthesis  # noqa: E402

GOLDEN = workloads.load_golden()


def canonical(ops):
    """JSON text of a list of operations; equal inputs give equal text."""
    def plain(v):
        if isinstance(v, np.ndarray):
            return [[float(x.real), float(x.imag)] for x in v.ravel().astype(complex)]
        return v

    return json.dumps([{k: plain(v) for k, v in op.items()} for op in ops], sort_keys=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_alone_determines_the_inputs(workload):
    first = canonical(workloads.make_inputs(workload, 7))
    assert first == canonical(workloads.make_inputs(workload, 7))
    assert first != canonical(workloads.make_inputs(workload, 8))


def test_every_drawable_input_has_a_reference_fingerprint():
    drawn = {workloads.scenario_key(op["sid"], op["set"])
             for w in ("feedback", "qp", "resynth") for seed in range(20)
             for op in workloads.make_inputs(w, seed)}
    reference = {workloads.scenario_key(sid, o) for sid, o in workloads.reference_inputs()}
    assert drawn <= reference == set(GOLDEN["scenarios"])


def _qp_pass(perturb=None):
    """A pass result for two qp operations built from their reference outputs."""
    ops = [{"sid": "point2d_clf_cbf_case1", "set": {"t_end": 1.5}},
           {"sid": "point2d_clf_cbf_case1", "set": {"t_end": 3.5}}]
    records, work, failures = [], [], []
    for i, op in enumerate(ops):
        res = dict(GOLDEN["scenarios"][workloads.scenario_key(op["sid"], op["set"])])
        if perturb and i == 1:
            perturb(res)
        record, amount, fails = workloads.judge("qp", op, res, None, GOLDEN)
        records.append(record)
        work.append(amount)
        failures += [(i, msg) for msg in fails]
    return ops, workloads.PassResult(np.array([0.5, 0.5]), np.full((2, 2), 0.002), work, records, failures)


def _wrong_event(res):
    res["event"] = "failure"


def _shifted_state(res):
    res["final_state"] = [res["final_state"][0] + 1e-6] + res["final_state"][1:]


def _unsafe(res):
    res["min_h"] = -1e-3


@pytest.mark.parametrize("perturb, message", [(_wrong_event, "terminal event"),
                                              (_shifted_state, "trajectory drift"),
                                              (_unsafe, "min h")])
def test_perturbed_output_fails_the_operation_and_the_digest(perturb, message):
    ops, good = _qp_pass()
    assert good.failures == []
    _, bad = _qp_pass(perturb)
    assert workloads.digest(bad.records) != workloads.digest(good.records)
    bad.settle(good.records)
    good.settle(good.records)
    assert workloads.tally(ops, [("pass", good)])[:2] == (2, 0)
    attempted, failed, problems = workloads.tally(ops, [("pass", bad)])
    assert (attempted, failed) == (2, 1)
    assert any("point2d_clf_cbf_case1[t_end=3.5]" in p and message in p for p in problems)
    assert any("differs from the warm-up pass" in p for p in problems)


def test_misplaced_pole_and_disagreeing_verdicts_fail():
    place = next(o for o in workloads.make_inputs("design", 3) if o["kind"] == "place")
    K = synthesis.design_gain_matrix(place["A"], place["B"], place["poles"])
    assert workloads.judge("design", place, {"K": K}, None, GOLDEN)[2] == []
    assert workloads.judge("design", place, {"K": K * 1.01}, None, GOLDEN)[2]
    region = {"name": "region.x", "kind": "region"}
    fails = workloads.judge("design", region, {"kharitonov": True, "closed_form": False}, None, GOLDEN)[2]
    assert "disagrees" in fails[0]


def test_traced_pass_records_spans_and_restores_every_attribute(tmp_path):
    before = spans.patch_points()
    ops = [{"sid": "sip_nonrobust_failure", "fmt": "csv", "set": {}}]
    runner = workloads.Runner("feedback", ops, tmp_path, GOLDEN)
    design_ops = [o for o in workloads.make_inputs("design", 1)
                  if o["name"].endswith(".0") or o["kind"] == "table"]
    design = workloads.Runner("design", design_ops, tmp_path, GOLDEN)
    tracer = spans.Tracer()
    with tracer.installed():
        traced = runner.run_pass()
        traced_design = design.run_pass()
        assert any(getattr(o, a) is not v for o, a, v in before)
    assert all(getattr(o, a) is v for o, a, v in before)
    assert traced.failures == [] and traced_design.failures == []
    summary = tracer.summary()
    steps = GOLDEN["scenarios"]["sip_nonrobust_failure"]["steps"]
    assert summary["models.step_euler"][0] == steps
    assert summary["models.deriv.sip"][0] == steps
    assert summary["cli.main"][0] == 1 + 2  # one run, two tables
    for name in ("synthesis.design_gain_matrix", "synthesis.solve_care",
                 "stability.routh_stable", "scenarios.emit.csv"):
        calls, total, own = summary[name]
        assert calls > 0 and 0 < own <= total
    assert tracer.counts["scenarios.emit.csv.bytes"] > 0


def test_tracer_restores_attributes_when_the_pass_raises():
    before = spans.patch_points()
    with pytest.raises(RuntimeError):
        with spans.Tracer().installed():
            raise RuntimeError("boom")
    assert all(getattr(o, a) is v for o, a, v in before)


def test_run_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qp", "--seed", "1",
                          "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert not any(line.startswith("{") for line in out.stdout.splitlines())
