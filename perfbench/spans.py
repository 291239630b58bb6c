"""Outside-in span tracing for the ctrlkit benchmark.

For the length of a traced pass each traced function is replaced at every
ctrlkit module attribute that holds it, which is where its callers look it
up, so no file under src/ changes. Plant derivatives and scenario
controllers are closures, so they are wrapped where they are handed out:
the plant factories and simulate(). Spans are kept in memory as flat arrays
(name, parent, start, end); self time is a span's duration minus the part
its child spans cover.
"""

import collections
import contextlib
import dataclasses
import functools
import os
import time
from array import array

import numpy as np

import ctrlkit
from ctrlkit import cli, control, models, numerics, scenarios, stability, synthesis

MODULES = (ctrlkit, cli, control, models, numerics, scenarios, stability, synthesis)

# (span name, defining module, attribute); replaced wherever ctrlkit holds it
FUNCTION_SPANS = (
    ("cli.main", cli, "main"),
    ("scenarios.run_scenario", scenarios, "run_scenario"),
    ("scenarios.trajectory_checksum", scenarios, "trajectory_checksum"),
    ("scenarios.emit.csv", scenarios, "emit_csv"),
    ("scenarios.emit.json", scenarios, "emit_json"),
    ("scenarios.emit.svg", scenarios, "emit_svg"),
    ("scenarios.emit_table", scenarios, "emit_table"),
    ("models.simulate", models, "simulate"),
    ("models.step_euler", models, "step_euler"),
    ("control.fsfc", control, "fsfc"),
    ("control.cbf_filter_scalar", control, "cbf_filter_scalar"),
    ("control.dip_sliding_target", control, "dip_sliding_target"),
    ("control.lyapunov_ref_2d", control, "lyapunov_ref_2d"),
    ("control.clf_cbf_step", control, "clf_cbf_step"),
    ("control.adaptive_gain", control, "adaptive_gain"),
    ("control.sysid_solve", control, "sysid_solve"),
    ("numerics.qp_small", numerics, "qp_small"),
    ("numerics.least_squares", numerics, "least_squares"),
    ("numerics.nnmf_rank1", numerics, "nnmf_rank1"),
    ("synthesis.design_gain_matrix", synthesis, "design_gain_matrix"),
    ("synthesis.robust_riccati_gain", synthesis, "robust_riccati_gain"),
    ("synthesis.solve_care", synthesis, "solve_care"),
    ("synthesis.vertex_interval_char_poly", synthesis, "vertex_interval_char_poly"),
    ("synthesis.sip_region_feasible", synthesis, "sip_region_feasible"),
    ("synthesis.eig_sweep", synthesis, "eig_sweep"),
    ("stability.interval_poly_stable", stability, "interval_poly_stable"),
    ("stability.routh_stable", stability, "routh_stable"),
)
PLANTS = ("sip", "dip", "motorcycle", "point2d")
SPAN_NAMES = tuple(name for name, _, _ in FUNCTION_SPANS) + tuple(
    f"models.deriv.{p}" for p in PLANTS) + ("scenarios.controller", "control.MotorcycleGuidance.step")

# counters recorded at the same boundaries
COUNTERS = ("numerics.qp_small.kkt_solves", "control.sysid_solve.failed",
            "synthesis.robust_riccati_gain.outcome.gain",
            "synthesis.robust_riccati_gain.outcome.no_solution",
            "synthesis.robust_riccati_gain.outcome.value_error",
            "scenarios.emit.csv.bytes", "scenarios.emit.json.bytes", "scenarios.emit.svg.bytes")


def patch_points():
    """Every (owner, attribute, value) the tracer may replace; for restore checks."""
    points = [(m, attr, getattr(m, attr)) for _, _, attr in FUNCTION_SPANS
              for m in MODULES if hasattr(m, attr)]
    points += [(m, f"{p}_plant", getattr(m, f"{p}_plant")) for p in PLANTS
               for m in MODULES if hasattr(m, f"{p}_plant")]
    points.append((control.MotorcycleGuidance, "step", control.MotorcycleGuidance.__dict__["step"]))
    points.append((np.linalg, "solve", np.linalg.solve))
    return points


class Tracer:
    """In-memory span recorder that patches ctrlkit while installed."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = []
        self.counts = collections.Counter()
        self._patched = []

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name, fn):
        """fn wrapped so that each call records one span."""
        nid = self._id(name)
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _replace(self, attr, original, replacement):
        for module in MODULES:
            if getattr(module, attr, None) is original:
                self._patched.append((module, attr, original))
                setattr(module, attr, replacement)

    def _hooked(self, name, fn):
        """The span wrapper plus the counters kept at this boundary."""
        traced = self.span(name, fn)
        counts = self.counts
        if name == "control.sysid_solve":
            def hooked(*args, **kwargs):
                try:
                    return traced(*args, **kwargs)
                except ValueError:  # unidentifiable window
                    counts["control.sysid_solve.failed"] += 1
                    raise
        elif name == "synthesis.robust_riccati_gain":
            def hooked(*args, **kwargs):
                try:
                    out = traced(*args, **kwargs)
                except ValueError:
                    counts[name + ".outcome.value_error"] += 1
                    raise
                kind = "no_solution" if isinstance(out, synthesis.CareNoSolution) else "gain"
                counts[f"{name}.outcome.{kind}"] += 1
                return out
        elif name.startswith("scenarios.emit."):
            def hooked(*args, **kwargs):
                out = traced(*args, **kwargs)
                counts[name + ".bytes"] += os.path.getsize(args[-1])
                return out
        elif name == "models.simulate":
            def hooked(plant, controller, x0, spec):
                return traced(plant, self.span("scenarios.controller", controller), x0, spec)
        else:
            return traced
        return functools.wraps(fn)(hooked)

    def _plant_factory(self, factory):
        @functools.wraps(factory)
        def make(*args, **kwargs):
            plant = factory(*args, **kwargs)
            return dataclasses.replace(plant, deriv=self.span(f"models.deriv.{plant.name}", plant.deriv))
        return make

    def _counting_solve(self, solve):
        qp = self._id("numerics.qp_small")
        names, stack, counts = self.name, self._stack, self.counts

        @functools.wraps(solve)
        def counted(*args, **kwargs):
            if stack and names[stack[-1]] == qp:
                counts["numerics.qp_small.kkt_solves"] += 1
            return solve(*args, **kwargs)
        return counted

    def install(self):
        for name, module, attr in FUNCTION_SPANS:
            original = getattr(module, attr)
            self._replace(attr, original, self._hooked(name, original))
        for p in PLANTS:
            original = getattr(models, f"{p}_plant")
            self._replace(f"{p}_plant", original, self._plant_factory(original))
        guidance = control.MotorcycleGuidance
        step = guidance.__dict__["step"]
        self._patched.append((guidance, "step", step))
        guidance.step = self.span("control.MotorcycleGuidance.step", step)
        self._patched.append((np.linalg, "solve", np.linalg.solve))
        np.linalg.solve = self._counting_solve(np.linalg.solve)

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def summary(self):
        """{span name: (calls, total seconds, self seconds)}."""
        n = len(self.start)
        name = np.array(self.name, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end) - np.array(self.start)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=n)
        own = dur - covered
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        total = np.bincount(name, weights=dur, minlength=k)
        self_time = np.bincount(name, weights=own, minlength=k)
        return {nm: (int(calls[i]), float(total[i]), float(self_time[i]))
                for i, nm in enumerate(self.names)}

    def save(self, path):
        """Write the raw spans (names, parent index, start and end seconds)."""
        np.savez(path, names=np.array(self.names, dtype=str), name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end))
