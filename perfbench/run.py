"""ctrlkit benchmark: one workload, one seed, one JSON result line.

Usage, from the checkout root:

    python3 perfbench/run.py --workload {feedback,qp,resynth,design} \
        --seed N --seconds S --trace {0,1}

Each run generates the workload's operations from the seed, runs one
untimed warm-up pass, then timed passes for --seconds. With --trace 0 the
last line of standard output carries the end-to-end metrics; with --trace 1
it carries the per-layer metrics of three traced passes that follow the
untimed ones. Times are scaled to a reference speed (see speed.py). The line
before the result is the output digest of the workload and seed; details,
including the raw spans of the last traced pass, go to .perfbench_out/.
Exit status is 0 when a result was printed, whether or not the outputs were
correct.
"""

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

from checkout import OUT, use_checkout_sources  # first: pins BLAS threads before numpy loads

use_checkout_sources()

import numpy as np  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 7
TRACED_PASSES = 3
MODULE_NAMES = ("models", "control", "numerics", "synthesis", "stability", "scenarios", "cli")
# spans whose share of traced wall time is reported on its own
SHARE_SPANS = ("models.simulate", "models.step_euler", "models.deriv.sip", "models.deriv.dip",
               "scenarios.controller", "numerics.qp_small", "control.clf_cbf_step",
               "synthesis.design_gain_matrix", "synthesis.solve_care", "scenarios.emit.csv")
# the 14 scenarios of the per-layer metrics: the benchmark fixes this list, so
# that the metric set does not change when ctrlkit gains or loses a scenario
ALL_SCENARIOS = workloads.FEEDBACK_SCENARIOS + workloads.QP_SCENARIOS + workloads.RESYNTH_SCENARIOS


def parse_args(argv, workload_names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workload_names)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float,
                   help="measure timed passes for this long (at least one pass)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(args):
    """Median time from starting a fresh interpreter to inputs ready, scaled
    to the reference speed by calibration samples taken around each probe."""
    cmd = [sys.executable, __file__, "--probe-setup", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    samples = []
    calibration = speed.sample()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed (exit {proc.returncode})")
        after = speed.sample()
        samples.append(speed.scaled(elapsed, (calibration + after) / 2))
        calibration = after
    return statistics.median(samples)


def metric(value, unit):
    return {"value": value, "unit": unit}


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def op_medians(passes):
    """Median scaled latency of each operation over the timed passes."""
    return [float(m) for m in np.median([p.latency for p in passes], axis=0)]


def end_to_end(ops, passes, setup_s):
    medians = op_medians(passes)
    work = passes[0].work
    wall = sum(medians)
    # An operation is an Euler step on the simulation workloads and one
    # synthesis or check call on design. Latency percentiles are taken over
    # scenarios (per step, over all runs of the scenario in a pass: every
    # format, both qp prefixes) or over design calls, so that they do not
    # depend on which run drew which format or prefix.
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault(op.get("sid", i), []).append(i)
    per_op = [sum(medians[i] for i in g) / sum(work[i] for i in g) for g in groups.values()]
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(wall, "s"),
        "ops_per_s": metric(sum(work) / wall, "ops/s"),
        "op_ms_p50": metric(1e3 * statistics.median(per_op), "ms"),
        "op_ms_p90": metric(1e3 * percentile(per_op, 90), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def scenario_metrics(ops, passes):
    """Wall time a pass spends in each scenario, and microseconds per step."""
    medians = op_medians(passes)
    out = {}
    for sid in ALL_SCENARIOS:
        idx = [i for i, op in enumerate(ops) if op.get("sid") == sid]
        wall = sum(medians[i] for i in idx)
        steps = sum(passes[0].work[i] for i in idx)
        out[f"scenario.{sid}.wall_ms"] = metric(1e3 * wall, "ms")
        out[f"scenario.{sid}.us_per_step"] = metric(1e6 * wall / steps if idx else 0.0, "us")
    return out


def per_layer(summary, counts, traced_wall, untraced_wall):
    out = {}
    for name in spans.SPAN_NAMES:
        calls, _, own = summary.get(name, (0, 0.0, 0.0))
        out[f"{name}.calls"] = metric(calls, "count")
        out[f"{name}.self_us"] = metric(1e6 * own / calls if calls else 0.0, "us")
    for name in spans.COUNTERS:
        out[name] = metric(counts.get(name, 0), "bytes" if name.endswith(".bytes") else "count")
    for module in MODULE_NAMES:
        own = sum(s for name, (_, _, s) in summary.items() if name.split(".")[0] == module)
        out[f"{module}.share"] = metric(own / traced_wall, "ratio")
    for name in SHARE_SPANS:
        out[f"{name}.share"] = metric(summary.get(name, (0, 0.0, 0.0))[2] / traced_wall, "ratio")
    out["trace.wall_s"] = metric(traced_wall, "s")
    out["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    out["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    return out


def main(argv=None):
    args = parse_args(argv, workloads.WORKLOADS)
    ops = workloads.make_inputs(args.workload, args.seed)
    if args.probe_setup:
        print("ready", flush=True)
        return 0
    setup_s = measure_setup(args) if args.trace == 0 else None

    OUT.mkdir(exist_ok=True)
    runner = workloads.Runner(args.workload, ops, OUT / f"files-{args.workload}",
                              workloads.load_golden())
    warm = runner.run_pass()  # untimed: caches fill and lazy imports finish
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(runner.run_pass())
        passes[-1].settle(warm.records)
    checked = [("warm-up", warm)] + [(f"pass {i + 1}", p) for i, p in enumerate(passes)]

    detail = {}
    if args.trace:
        before = spans.patch_points()
        summaries, traced_walls = [], []
        for i in range(TRACED_PASSES):
            tracer = spans.Tracer()  # one per pass keeps the raw spans of a single pass in memory
            with tracer.installed():
                traced = runner.run_pass()
            if any(getattr(owner, attr) is not value for owner, attr, value in before):
                sys.exit("perfbench: a traced attribute was not restored")
            traced.settle(warm.records)
            checked.append((f"traced pass {i + 1}", traced))
            # span times scaled to the reference speed by the pass's median calibration sample
            scale = speed.scaled(1.0, float(np.median(traced.around)))
            summaries.append({name: (calls, total * scale, own * scale)
                              for name, (calls, total, own) in tracer.summary().items()})
            traced_walls.append(traced.wall)
        summary = {name: (calls, statistics.median(s.get(name, (0, 0.0, 0.0))[1] for s in summaries),
                          statistics.median(s.get(name, (0, 0.0, 0.0))[2] for s in summaries))
                   for name, (calls, _, _) in summaries[0].items()}
        traced_wall = statistics.median(traced_walls)
        metrics = per_layer(summary, tracer.counts, traced_wall, sum(op_medians(passes)))
        metrics.update(scenario_metrics(ops, passes))
        tracer.save(OUT / f"spans-{args.workload}.npz")
        top = sorted(summary.items(), key=lambda kv: -kv[1][2])
        detail["top_self_time"] = [{"span": n, "calls": c, "self_s": s, "share": s / traced_wall}
                                   for n, (c, _, s) in top[:12]]
        for row in detail["top_self_time"][:5]:
            print(f"self time {row['share']:6.1%}  {row['span']} ({row['calls']} calls)", file=sys.stderr)
    else:
        metrics = end_to_end(ops, passes, setup_s)

    attempted, failed, problems = workloads.tally(ops, checked)
    for line in problems[:20]:
        print(f"FAIL {args.workload}: {line}", file=sys.stderr)

    dig = workloads.digest(warm.records)
    histogram = workloads.outcome_histogram(warm.records)
    note = f" care={histogram}" if histogram else ""
    print(f"digest {args.workload} seed={args.seed} sha256={dig} ops={len(ops)}{note}")
    detail.update(workload=args.workload, seed=args.seed, digest=dig, care_outcomes=histogram,
                  pass_walls=[p.wall for p in passes], op_medians=op_medians(passes), problems=problems,
                  records=[{"op": workloads.op_key(op), **r} for op, r in zip(ops, warm.records)])
    with open(OUT / f"detail-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump(detail, f, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
