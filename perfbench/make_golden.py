"""Regenerate golden.json, the reference fingerprints the benchmark checks against.

Usage, from the checkout root:  python3 perfbench/make_golden.py

golden.json pins, for every scenario input the workloads can draw, the
terminal event, the step count, the final state, the gains used, min h and
the trajectory checksum; and the rows of `ctrlkit table 1` and `table 2`.
Regenerate it only in a change that means to move trajectories, and say so
in that change. Takes about a minute.
"""

import json
import sys

from checkout import OUT, use_checkout_sources

use_checkout_sources()

import workloads  # noqa: E402  (needs the checkout's ctrlkit on sys.path)


def main():
    OUT.mkdir(exist_ok=True)
    golden = {"scenarios": {}, "tables": {}}
    bad = []
    for sid, overrides in workloads.reference_inputs():
        key = workloads.scenario_key(sid, overrides)
        got = workloads.run_op("qp", {"sid": sid, "set": overrides}, OUT)
        for msg in workloads.check_run(sid, got, None):
            bad.append(f"{key}: {msg}")
        golden["scenarios"][key] = got
        print(f"{key}: {got['event']} after {got['steps']} steps", file=sys.stderr)
    for which in (1, 2):
        res = workloads.run_op("design", {"kind": "table", "which": which}, OUT)
        lines = res["path"].read_text().splitlines()[1:]
        golden["tables"][str(which)] = [[float(v) for v in line.split(",")] for line in lines]
    if bad:
        sys.exit("documented outcomes not met, golden.json left unchanged:\n" + "\n".join(bad))
    with open(workloads.GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
