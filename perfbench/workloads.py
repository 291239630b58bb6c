"""Workload inputs, execution and output checks for the ctrlkit benchmark.

Every workload is a closed loop with one client: the next operation starts
when the previous one returns. make_inputs() turns a seed into a list of
operations; Runner.run_pass() executes them in order through ctrlkit's
public entry points and times each one; the outcomes are then judged,
outside the timed region, against the documented scenario outcomes and the
reference fingerprints in golden.json.

Library functions are always looked up through their module attribute at
call time (cli.main, scenarios.run_scenario, synthesis.design_gain_matrix,
...), so the span wrappers in spans.py see the benchmark's own calls too.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import pathlib
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import speed
from ctrlkit import cli, scenarios, stability, synthesis

GOLDEN_PATH = pathlib.Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("feedback", "qp", "resynth", "design")

FEEDBACK_SCENARIOS = ("dip_smc", "motorcycle_smc", "sip_nonrobust_failure",
                      "sip_robust_riccati", "sip_robust_riccati_midpoint",
                      "sip_interval_polynomial", "sip_cbf",
                      "point2d_cbf_case1", "point2d_cbf_case2")
QP_SCENARIOS = ("point2d_clf_cbf_case1", "point2d_clf_cbf_case2")
RESYNTH_SCENARIOS = ("sip_adaptive_online", "sip_adaptive_lookup", "sip_adaptive_sysid")
FORMATS = ("csv", "json", "svg")

# Tunable grids. Slide rates of 9.9 and above tip the pendulum in the three
# sliding scenarios (failure instead of success) and x0=25 with s_v=9.9 tips
# dip_smc, so the slide-rate grid stops at 9.5. Grid values, unlike
# continuous draws, let golden.json hold a fingerprint for every input.
S_V = (6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5)
TUNABLE_GRIDS = {
    "dip_smc": {"x0": (15.0, 17.5, 20.0, 22.5, 25.0), "s_v": S_V},
    "motorcycle_smc": {"preview": (5.0, 5.5, 6.0, 6.5, 7.0)},
    "sip_robust_riccati": {"s_v": S_V},
    "sip_robust_riccati_midpoint": {"s_v": S_V},
    "sip_interval_polynomial": {"s_v": S_V},
    "sip_adaptive_lookup": {"s_v": S_V},
}
# qp runs each case as two prefixes of its run, t_end = t and 5 - t, so the
# simulated time of a pass does not depend on the seed, and runs stay short
# enough for the calibration samples around them to track the machine. The
# event is timeout by construction and min h over a prefix cannot fall below
# the full-run value.
QP_HORIZON = 5.0
QP_PREFIX = (1.5, 2.0, 2.5, 3.0, 3.5)

MIN_H_GATED = ("point2d_cbf_case1", "point2d_cbf_case2") + QP_SCENARIOS
MIN_H_FLOOR = -1e-6
REL = 1e-9  # final states and gains must match golden.json to this relative tolerance

# design workload batch sizes, chosen so a pass takes about a second
PLACE_SIZES = (3, 4, 6)
PLACE_PER_CLASS = 250  # per (size, real or conjugate pole set)
ROBUST_DRAWS = 600
REGION_DRAWS = 1200
CALIBRATE_EVERY = 0.02  # seconds of operations between two calibration samples
POLE_REL_TOL = 1e-4  # poles 0.4 apart, cond(C) < 100: misses measured below 1e-5

# The pendulum family of the region check: a in [a_lo, 10], b = cos(theta) in [b_lo, 1]
# for |theta| <= 0.4*pi, the same family as the interval-polynomial scenario.
THETA_MAX = 0.4 * math.pi
REGION = (10.0 * math.sin(THETA_MAX) / THETA_MAX, 10.0, math.cos(THETA_MAX), 1.0)


def scenario_key(sid, overrides):
    """Stable name of one scenario input, e.g. 'dip_smc[s_v=6.5,x0=20]'."""
    if not overrides:
        return sid
    return sid + "[" + ",".join(f"{k}={v:g}" for k, v in sorted(overrides.items())) + "]"


def op_key(op):
    if "sid" in op:
        key = scenario_key(op["sid"], op["set"])
        return f"{key}.{op['fmt']}" if "fmt" in op else key
    return op["name"]


def _pick(rng, grid):
    return grid[int(rng.integers(len(grid)))]


def _draw_tunables(rng, sid):
    return {k: _pick(rng, grid) for k, grid in TUNABLE_GRIDS.get(sid, {}).items()}


def make_inputs(workload, seed):
    """The operations of one pass, generated from the seed alone."""
    rng = np.random.default_rng([seed & 0xFFFFFFFF, WORKLOADS.index(workload)])
    if workload == "feedback":
        # every scenario in every format: which runs drew the costly csv
        # writer would otherwise move the cost of a pass by a few percent
        ops = [{"sid": sid, "fmt": fmt, "set": _draw_tunables(rng, sid)}
               for sid in FEEDBACK_SCENARIOS for fmt in FORMATS]
    elif workload == "qp":
        ops = []
        for sid in QP_SCENARIOS:
            t = _pick(rng, QP_PREFIX)
            ops += [{"sid": sid, "set": {"t_end": t}},
                    {"sid": sid, "set": {"t_end": QP_HORIZON - t}}]
    elif workload == "resynth":
        ops = [{"sid": sid, "set": _draw_tunables(rng, sid)} for sid in RESYNTH_SCENARIOS]
    elif workload == "design":
        ops = _design_inputs(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return [ops[i] for i in rng.permutation(len(ops))]


def reference_inputs():
    """Every (scenario, overrides) make_inputs can draw; golden.json covers them all."""
    for sid in FEEDBACK_SCENARIOS + RESYNTH_SCENARIOS:
        grids = TUNABLE_GRIDS.get(sid, {})
        for values in itertools.product(*grids.values()):
            yield sid, dict(zip(grids, values))
    for sid in QP_SCENARIOS:
        for t in QP_PREFIX:
            yield sid, {"t_end": t}


def _spaced(rng, k, lo, hi, gap):
    while True:
        v = np.sort(rng.uniform(lo, hi, size=k))
        if k < 2 or np.min(np.diff(v)) >= gap:
            return v


def _controllable_pair(rng, n):
    # cond(C) < 100: at cond(C) = 667 one 6x6 pair needed a gain of norm 3e5 and
    # Ackermann placed its poles only to 1e-4 relative
    while True:
        A = rng.normal(size=(n, n))
        B = rng.normal(size=n)
        cols = [B]
        for _ in range(n - 1):
            cols.append(A @ cols[-1])
        if np.linalg.cond(np.column_stack(cols)) < 100:
            return A, B


def _pole_set(rng, n, conjugate):
    if not conjugate:
        return -_spaced(rng, n, 0.5, 6.0, 0.4).astype(complex)
    re = -rng.uniform(0.5, 5.0, size=n // 2)
    im = _spaced(rng, n // 2, 0.5, 3.0, 0.4)
    poles = [p for r, i in zip(re, im) for p in (complex(r, i), complex(r, -i))]
    if n % 2:
        poles.append(complex(-rng.uniform(0.5, 6.0)))
    return np.array(poles)


def _design_inputs(rng):
    ops = []
    for n in PLACE_SIZES:
        for conjugate in (False, True):
            for i in range(PLACE_PER_CLASS):
                A, B = _controllable_pair(rng, n)
                ops.append({"name": f"place.n{n}.{'conj' if conjugate else 'real'}.{i}",
                            "kind": "place", "A": A, "B": B,
                            "poles": _pole_set(rng, n, conjugate)})
    for i in range(ROBUST_DRAWS):
        ops.append({"name": f"robust.{i}", "kind": "robust",
                    "theta_max": float(rng.uniform(0.3 * math.pi, 0.45 * math.pi)),
                    "bar": float(rng.uniform(200.0, 400.0)),
                    "epsilon": float(rng.uniform(0.005, 0.02))})
    for i in range(REGION_DRAWS):
        ops.append({"name": f"region.{i}", "kind": "region",
                    "K": rng.uniform(-200.0, 5.0, size=3)})
    for which in (1, 2):
        ops.append({"name": f"table.{which}", "kind": "table", "which": which})
    return ops


def load_golden():
    with open(GOLDEN_PATH) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# execution


def _run_cli(op, out_dir):
    argv = ["run", op["sid"], "--format", op["fmt"], "--out", str(out_dir)]
    for k, v in op["set"].items():
        argv += ["--set", f"{k}={v!r}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _run_scenario(op):
    traj, rep = scenarios.run_scenario(op["sid"], op["set"])
    return {"event": rep.terminal_event, "steps": len(traj.times) - 1,
            "final_state": rep.final_state, "gains": rep.gain_matrices_used,
            "min_h": rep.min_h, "checksum": rep.checksum}


def _nominal_pendulum():
    A = np.array([[0.0, 1.0, 0.0], [10.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B = np.array([0.0, -1.0, 1.0])
    return A, B


def _run_robust(op):
    # vertex parametrization: nominal upright model, deviation to theta_max
    A, B = _nominal_pendulum()
    th = op["theta_max"]
    dA = np.zeros((3, 3))
    dA[1, 0] = abs(10.0 * math.sin(th) / th - 10.0)
    dB = np.zeros((3, 1))
    dB[1, 0] = abs(1.0 - math.cos(th))
    cfg = synthesis.RobustConfig(a_bar=op["bar"], b_bar=op["bar"], epsilon=op["epsilon"],
                                 Q=np.eye(3), R=[[0.01]])
    try:
        K = synthesis.robust_riccati_gain(A, B, synthesis.UncertaintyBounds(dA, dB), cfg)
    except ValueError:  # Hamiltonian eigenvalues on the imaginary axis
        return {"outcome": "value_error"}
    if isinstance(K, synthesis.CareNoSolution):
        return {"outcome": "no_solution"}
    return {"outcome": "gain", "K": K}


def _run_region(op):
    a_lo, a_hi, b_lo, b_hi = REGION
    A_family = [np.array([[0.0, 1.0, 0.0], [a, 0.0, 0.0], [0.0, 0.0, 0.0]]) for a in (a_lo, a_hi)]
    B_family = [np.array([0.0, -b, 1.0]) for b in (b_lo, b_hi)]
    ip = synthesis.vertex_interval_char_poly(A_family, B_family, op["K"])
    return {"kharitonov": stability.interval_poly_stable(ip),
            "closed_form": synthesis.sip_region_feasible(op["K"], *REGION)}


def _run_table(op, out_dir):
    path = out_dir / f"table{op['which']}.csv"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["table", str(op["which"]), "--out", str(path)])
    return {"code": code, "path": path}


def run_op(workload, op, out_dir):
    if workload == "feedback":
        return _run_cli(op, out_dir)
    if workload in ("qp", "resynth"):
        return _run_scenario(op)
    kind = op["kind"]
    if kind == "place":
        return {"K": synthesis.design_gain_matrix(op["A"], op["B"], op["poles"])}
    if kind == "robust":
        return _run_robust(op)
    if kind == "region":
        return _run_region(op)
    return _run_table(op, out_dir)


# ---------------------------------------------------------------------------
# checks


def _close(got, ref, rel=REL):
    got = np.asarray(got, dtype=float)
    ref = np.asarray(ref, dtype=float)
    return got.shape == ref.shape and bool(np.all(np.abs(got - ref) <= rel * np.maximum(1.0, np.abs(ref))))


def _g10(values):
    return [f"{float(v):.10g}" for v in values]


def _floats(text):
    return [float(tok) for tok in text.strip().strip("[]").split(",") if tok.strip()]


def parse_cli_run(text):
    """The fields `ctrlkit run` prints: event, end time, final state, gains, min h, checksum."""
    got = {"gains": [], "min_h": None}
    for line in text.splitlines():
        head, _, rest = line.partition(": ")
        if head == "final state":
            got["final_state"] = _floats(rest)
        elif head == "gain":
            got["gains"].append(_floats(rest))
        elif head == "min h over the run":
            got["min_h"] = float(rest)
        elif head == "checksum":
            got["checksum"] = rest.strip()
        elif " at t=" in rest and "event" not in got:
            event, _, t = rest.partition(" at t=")
            got["event"] = event
            got["t"] = float(t.split()[0])
    return got


def check_run(sid, got, golden, cli_precision=False):
    """Failures of one scenario run against its documented outcome and fingerprint."""
    fails = []
    expected = scenarios.SCENARIO_DEFAULTS[sid]["expected_event"]
    if got["event"] != expected:
        fails.append(f"terminal event {got['event']!r}, documented {expected!r}")
    bound = scenarios.FINAL_NORM_BELOW.get(sid)
    if bound is not None and float(np.linalg.norm(got["final_state"])) >= bound:
        fails.append(f"final state norm {np.linalg.norm(got['final_state']):.6g} >= {bound}")
    if sid in MIN_H_GATED and (got["min_h"] is None or got["min_h"] < MIN_H_FLOOR):
        fails.append(f"min h {got['min_h']} below {MIN_H_FLOOR}")
    if golden is None:
        return fails
    if got["event"] != golden["event"] or got["steps"] != golden["steps"]:
        fails.append(f"trajectory drift: {got['event']} after {got['steps']} steps, "
                     f"reference {golden['event']} after {golden['steps']} steps")
    if not _close(got["final_state"], golden["final_state"]):
        fails.append(f"trajectory drift: final state {_g10(got['final_state'])}, "
                     f"reference {_g10(golden['final_state'])}")
    if len(got["gains"]) != len(golden["gains"]) or not all(
            _close(g, r) for g, r in zip(got["gains"], golden["gains"])):
        fails.append("gain drift against the reference")
    if golden["min_h"] is not None:
        rel = 1e-5 if cli_precision else REL  # the CLI prints min h to 6 digits
        if got["min_h"] is None or abs(got["min_h"] - golden["min_h"]) > rel * max(abs(golden["min_h"]), 1e-3):
            fails.append(f"min h {got['min_h']} drifted from reference {golden['min_h']!r}")
    return fails


def _check_cli_output(op, res, out_dir):
    """Judge one `ctrlkit run` call from its exit code, its printout and the file it wrote."""
    sid, fmt = op["sid"], op["fmt"]
    if res["code"] != 0:
        return None, [f"ctrlkit run exited {res['code']}: {res['stderr'].strip()}"]
    got = parse_cli_run(res["stdout"])
    missing = {"event", "t", "final_state", "checksum"} - set(got)
    if missing:
        return None, [f"ctrlkit run printed no {sorted(missing)}"]
    got["steps"] = round(got["t"] / scenarios.SCENARIO_DEFAULTS[sid]["dt"])
    path = out_dir / f"{sid}.{fmt}"
    text = path.read_text()
    fails = []
    if fmt == "json":
        rep = scenarios.parse_report(path)
        got["final_state"] = rep.final_state  # full precision
        if rep.checksum != got["checksum"] or rep.terminal_event != got["event"]:
            fails.append("json report disagrees with the printed summary")
    elif fmt == "csv":
        rows = text.count("\n") - 1
        if rows != got["steps"] + 1:
            fails.append(f"csv has {rows} samples for {got['steps']} steps")
    elif not (text.startswith("<svg") and text.endswith("</svg>\n")):
        fails.append("svg output is not a complete document")
    return got, fails


def _check_place(op, res):
    closed = np.linalg.eigvals(op["A"] - np.outer(op["B"], res["K"]))
    remaining = list(closed)
    for p in op["poles"]:
        i = int(np.argmin([abs(p - q) for q in remaining]))
        if abs(p - remaining.pop(i)) > POLE_REL_TOL * max(1.0, abs(p)):
            return [f"placed poles {np.sort_complex(closed)} miss the targets {np.sort_complex(op['poles'])}"]
    return []


def _check_robust(res):
    if res["outcome"] != "gain":
        return []
    A, B = _nominal_pendulum()
    worst = float(np.linalg.eigvals(A - np.outer(B, res["K"])).real.max())
    return [] if worst < 0 else [f"robust gain leaves the nominal loop non-Hurwitz (max Re {worst:.3g})"]


def _check_table(op, res, golden):
    if res["code"] != 0:
        return None, [f"ctrlkit table exited {res['code']}"]
    data = res["path"].read_bytes()
    rows = [[float(v) for v in line.split(",")] for line in data.decode().splitlines()[1:]]
    ref = golden["tables"][str(op["which"])] if golden else None
    fails = []
    if ref is not None and not _close(rows, ref):
        fails.append(f"table {op['which']} drifted from the reference")
    return hashlib.sha256(data).hexdigest(), fails


def judge(workload, op, res, out_dir, golden):
    """(digest record, work done, failures) of one executed operation.

    Work is the operation's share of ops_per_s: Euler steps for scenario
    runs, one for a synthesis or check operation.
    """
    if "error" in res:
        return {"error": res["error"]}, 1, [f"raised {res['error']}"]
    if workload in ("feedback", "qp", "resynth"):
        sid = op["sid"]
        if workload == "feedback":
            got, fails = _check_cli_output(op, res, out_dir)
            if got is None:
                return {"error": fails[0]}, 1, fails
        else:
            got, fails = res, []
        ref = golden["scenarios"].get(scenario_key(sid, op["set"])) if golden else None
        if golden and ref is None:
            fails.append("no reference fingerprint for this input")
        fails += check_run(sid, got, ref, cli_precision=workload == "feedback")
        record = {"event": got["event"], "steps": got["steps"],
                  "final_state": _g10(got["final_state"]),
                  "gains": [_g10(g) for g in got["gains"]], "checksum": got["checksum"],
                  "min_h": None if got["min_h"] is None else f"{got['min_h']:.6g}"}
        return record, got["steps"], fails
    kind = op["kind"]
    if kind == "place":
        return {"K": _g10(res["K"])}, 1, _check_place(op, res)
    if kind == "robust":
        record = {"outcome": res["outcome"]}
        if "K" in res:
            record["K"] = _g10(res["K"])
        return record, 1, _check_robust(res)
    if kind == "region":
        fails = [] if res["kharitonov"] == res["closed_form"] else [
            f"Kharitonov verdict {res['kharitonov']} disagrees with the closed-form region {res['closed_form']}"]
        return dict(res), 1, fails
    sha, fails = _check_table(op, res, golden)
    return {"sha256": sha}, 1, fails


@dataclass
class PassResult:
    raw: np.ndarray         # measured seconds per operation
    around: np.ndarray      # (before, after) calibration samples around each operation
    work: list              # steps (scenario runs) or 1 (design operations)
    records: list           # digest record per operation, until settle()
    failures: list          # (operation index, message)
    changed: list = field(default_factory=list)  # operations whose record differs from the reference

    @property
    def latency(self):
        """Seconds per operation at the reference speed."""
        return speed.scaled(self.raw, self.around.mean(axis=1))

    @property
    def wall(self):
        return float(self.latency.sum())

    def settle(self, reference):
        """Note which records differ from the reference pass's, then drop them,
        so that memory does not grow with the number of passes."""
        self.changed = [i for i, (a, b) in enumerate(zip(reference, self.records)) if a != b]
        self.records = None


class Runner:
    """Runs the operations of one workload and judges their outcomes."""

    def __init__(self, workload, ops, out_dir, golden):
        self.workload = workload
        self.ops = ops
        self.out_dir = pathlib.Path(out_dir)
        self.golden = golden
        self.out_dir.mkdir(parents=True, exist_ok=True)

    def run_pass(self):
        """Run every operation once; time each and judge its outcome.

        A calibration sample is taken at the start and end of the pass and
        before an operation once CALIBRATE_EVERY seconds of operations have
        run since the last one; each latency is scaled by the mean of the
        two samples around it.
        """
        clock = time.perf_counter
        results, raw, before = [], [], []
        calibration = [speed.sample()]
        since = 0.0
        for op in self.ops:
            if since >= CALIBRATE_EVERY:
                calibration.append(speed.sample())
                since = 0.0
            before.append(len(calibration) - 1)
            t0 = clock()
            try:
                res = run_op(self.workload, op, self.out_dir)
            except Exception as exc:  # an unexpected raise is a failed operation, not a crash
                res = {"error": f"{type(exc).__name__}: {exc}"}
            raw.append(clock() - t0)
            since += raw[-1]
            results.append(res)
        calibration.append(speed.sample())
        around = np.array([(calibration[j], calibration[j + 1]) for j in before])
        # checks read the files a pass wrote, so they run before the next pass
        records, work, failures = [], [], []
        for i, (op, res) in enumerate(zip(self.ops, results)):
            record, amount, fails = judge(self.workload, op, res, self.out_dir, self.golden)
            records.append(record)
            work.append(amount)
            failures += [(i, msg) for msg in fails]
        return PassResult(np.array(raw), around, work, records, failures)


def digest(records):
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def outcome_histogram(records):
    return dict(sorted(Counter(r["outcome"] for r in records if "outcome" in r).items()))


def tally(ops, checked):
    """(attempted, failed, problem lines) over labelled, settled pass results.

    An operation fails in a pass when one of its checks fails or its digest
    record differs from the reference pass: outputs must not depend on
    which pass produced them, or on whether the pass was traced.
    """
    attempted = failed = 0
    problems = []
    for label, p in checked:
        attempted += len(ops)
        failed += len({i for i, _ in p.failures} | set(p.changed))
        problems += [f"{label} {op_key(ops[i])}: {msg}" for i, msg in p.failures]
        problems += [f"{label} {op_key(ops[i])}: output differs from the warm-up pass"
                     for i in p.changed]
    return attempted, failed, problems
