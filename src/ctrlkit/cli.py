"""Command line front end: scenario runner, eigenvalue tables, synthesis.

Exit codes: 0 when the command succeeded and the run matched the scenario's
documented outcome, 2 when an outcome assertion failed, 1 on any error.
"""

import argparse
import functools
import pathlib
import sys

import numpy as np

from .models import BlowupError
from .scenarios import (FINAL_NORM_BELOW, SCENARIO_DEFAULTS, SCENARIO_IDS,
                        emit, emit_table, run_scenario)
from .synthesis import (CareNoSolution, RobustConfig, UncertaintyBounds,
                        design_gain_matrix, robust_riccati_gain,
                        sip_region_bounds, sip_region_feasible)


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that exits with code 1 on usage errors (2 is reserved
    for outcome-assertion mismatches)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite(values, source):
    """values, unchanged; ValueError naming source if an entry is nan or infinite."""
    if not np.isfinite(values).all():
        raise ValueError(f"{source} has a non-finite entry")
    return values


def read_matrix_file(path):
    """Matrix from a text file: one row per line, whitespace-separated
    entries, '#' comments; a file starting with '[' is parsed as JSON."""
    text = pathlib.Path(path).read_text()
    if text.lstrip().startswith("["):
        import json

        rows = json.loads(text)  # a flat list of numbers reads as a vector
    else:
        rows = [[float(tok) for tok in tokens]
                for tokens in (line.split("#", 1)[0].split() for line in text.splitlines()) if tokens]
    if len({len(r) if isinstance(r, list) else None for r in rows}) > 1:
        raise ValueError(f"rows in {path} have differing lengths")
    m = np.array(rows, dtype=float)
    if not m.size:
        raise ValueError(f"no numeric rows in {path}")
    return _finite(m, path)


def _finite_float(text):
    try:
        return _finite(float(text), text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}") from None


def _parse_poles(text):
    return _finite([complex(tok.strip().replace(" ", "")) for tok in text.split(",")], "--poles")


def _parse_vector(text):
    return _finite(np.array([float(tok) for tok in text.split(",")]), "--k")


def _fmt_vec(v):
    return "[" + ", ".join(f"{float(x):.10g}" for x in np.asarray(v).ravel()) + "]"


def _cmd_run(args):
    overrides = {}
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep:
            raise ValueError(f"override {item!r} is not of the form key=value")
        overrides[key.strip()] = value.strip()
    traj, report = run_scenario(args.scenario, overrides)

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.scenario}.{args.format}"
    emit(traj, report, args.format, path)

    print(f"{report.scenario}: {report.terminal_event} at t={report.elapsed_sim_time:.3f} s")
    print(f"final state: {_fmt_vec(report.final_state)}")
    for K in report.gain_matrices_used:
        print(f"gain: {_fmt_vec(K)}")
    if report.min_h is not None:
        print(f"min h over the run: {report.min_h:.6g}")
    if report.guard_activations is not None:
        print(f"singularity-guard activations: {report.guard_activations}")
    print(f"checksum: {report.checksum}")
    print(f"wrote {path}")

    expected = SCENARIO_DEFAULTS[args.scenario]["expected_event"]
    ok = report.terminal_event == expected
    if not ok:
        print(f"MISMATCH: expected terminal event {expected!r}", file=sys.stderr)
    bound = FINAL_NORM_BELOW.get(args.scenario)
    if bound is not None:
        norm = float(np.linalg.norm(report.final_state))
        print(f"final state norm: {norm:.6g} (documented bound {bound})")
        if norm >= bound:
            print(f"MISMATCH: final state norm {norm:.6g} >= {bound}", file=sys.stderr)
            ok = False
    return 0 if ok else 2


def _cmd_table(args):
    K = emit_table(args.which, args.out)
    print(f"swept gain: {_fmt_vec(K)}")
    print(f"wrote {args.out}")
    return 0


def _cmd_pole_place(args):
    A = read_matrix_file(args.a)
    B = read_matrix_file(args.b)
    K = design_gain_matrix(A, B, _parse_poles(args.poles))
    print(f"K: {_fmt_vec(K)}")
    closed = np.linalg.eigvals(np.atleast_2d(A) - np.outer(np.ravel(B), K))
    print("closed-loop eigenvalues:", ", ".join(f"{v:.6g}" for v in np.sort_complex(closed)))
    return 0


def _cmd_robust_riccati(args):
    A = read_matrix_file(args.a)
    B = read_matrix_file(args.b)
    dA = read_matrix_file(args.da)
    dB = read_matrix_file(args.db)
    Q = read_matrix_file(args.q) if args.q else np.eye(A.shape[0])
    cfg = RobustConfig(a_bar=args.a_bar, b_bar=args.b_bar, epsilon=args.epsilon,
                       Q=Q, R=[[args.r]])
    K = robust_riccati_gain(A, B, UncertaintyBounds(dA, dB), cfg)
    if isinstance(K, CareNoSolution):
        print("no positive definite solution for these settings; "
              "raise a-bar and b-bar somewhat and lower epsilon somewhat, then retry",
              file=sys.stderr)
        return 1
    print(f"K: {_fmt_vec(K)}")
    closed = np.linalg.eigvals(np.atleast_2d(A) - np.outer(np.ravel(B), K))
    print("closed-loop eigenvalues at the nominal model:",
          ", ".join(f"{v:.6g}" for v in np.sort_complex(closed)))
    return 0


def _cmd_region_check(args):
    K = _parse_vector(args.k)
    feasible = sip_region_feasible(K, args.a_lo, args.a_hi, args.b_lo, args.b_hi)
    k2_bound, k1_bound = sip_region_bounds(K, args.a_hi, args.b_lo)
    k1, k2, k3 = K
    print(f"k3 = {k3:.10g} < 0: {k3 < 0}")
    if k2_bound is not None:
        print(f"k2 = {k2:.10g} < k3/b_lo = {k2_bound:.10g}: {k2 < k2_bound}")
    if k1_bound is not None:
        print(f"k1 = {k1:.10g} < a_hi*k2/(-b_lo*k2 + k3) = {k1_bound:.10g}: {k1 < k1_bound}")
    print("feasible" if feasible else "infeasible")
    return 0 if feasible else 2


@functools.cache  # one parser per process; building it takes about 1.4 ms
def _build_parser():
    parser = _Parser(prog="ctrlkit",
                     description="Controller synthesis and scenario simulation toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a registered scenario")
    p_run.add_argument("scenario", choices=SCENARIO_IDS, metavar="scenario",
                       help=f"one of: {', '.join(SCENARIO_IDS)}")
    p_run.add_argument("--out", default=".", help="output directory (default: .)")
    p_run.add_argument("--format", choices=("csv", "json", "svg"), default="csv")
    p_run.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a declared tunable (repeatable)")
    p_run.set_defaults(func=_cmd_run)

    p_table = sub.add_parser("table", help="emit an eigenvalue sweep table")
    p_table.add_argument("which", type=int, choices=(1, 2))
    p_table.add_argument("--out", required=True, help="output CSV file")
    p_table.set_defaults(func=_cmd_table)

    p_design = sub.add_parser("design", help="synthesis operations on matrix files")
    d_sub = p_design.add_subparsers(dest="operation", required=True)

    p_pp = d_sub.add_parser("pole-place", help="single-input pole placement")
    p_pp.add_argument("--a", required=True, help="system matrix file")
    p_pp.add_argument("--b", required=True, help="input matrix file")
    p_pp.add_argument("--poles", required=True,
                      help="comma-separated desired eigenvalues, e.g. '-4,-4+2j,-4-2j'")
    p_pp.set_defaults(func=_cmd_pole_place)

    p_rr = d_sub.add_parser("robust-riccati", help="robust gain from uncertainty bounds")
    p_rr.add_argument("--a", required=True, help="nominal system matrix file")
    p_rr.add_argument("--b", required=True, help="nominal input matrix file")
    p_rr.add_argument("--da", required=True, help="element-wise |dA| bound matrix file")
    p_rr.add_argument("--db", required=True, help="element-wise |dB| bound matrix file")
    p_rr.add_argument("--a-bar", type=_finite_float, default=300.0)
    p_rr.add_argument("--b-bar", type=_finite_float, default=300.0)
    p_rr.add_argument("--epsilon", type=_finite_float, default=0.01)
    p_rr.add_argument("--q", help="state weight matrix file (default: identity)")
    p_rr.add_argument("--r", type=_finite_float, default=0.01, help="input weight (default: 0.01)")
    p_rr.set_defaults(func=_cmd_robust_riccati)

    p_rc = d_sub.add_parser("region-check",
                            help="closed-form pendulum gain region membership")
    p_rc.add_argument("--k", required=True, help="gain as 'k1,k2,k3'")
    p_rc.add_argument("--a-lo", type=_finite_float, required=True)
    p_rc.add_argument("--a-hi", type=_finite_float, required=True)
    p_rc.add_argument("--b-lo", type=_finite_float, required=True)
    p_rc.add_argument("--b-hi", type=_finite_float, required=True)
    p_rc.set_defaults(func=_cmd_region_check)

    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BlowupError as exc:
        print(f"simulation diverged: {exc}", file=sys.stderr)
        return 1
    except (ValueError, RuntimeError, OSError) as exc:  # numpy's LinAlgError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
