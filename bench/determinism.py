"""Determinism check for the benchmark.

    python3 bench/determinism.py [--seed N] [--seconds S] [--workloads derive,scan]

For each workload, two traced runs with the same seed must report identical
counts: verdict vectors and ``decided_ratio`` (derive), closure digests
(closure), rule instances per rule set (scan), grid verdict digest and
counterexample trials (query), and the call count at every boundary.  A run
with a second seed must pass every correctness check.  Prints one JSON line
and exits 1 when any of this fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from collect import run_once


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--workloads", default="derive,closure,scan,query")
    args = p.parse_args(argv)
    report = {}
    ok = True
    for wl in args.workloads.split(","):
        a, ra = run_once(wl, args.seed, args.seconds, trace=1)
        b, rb = run_once(wl, args.seed, args.seconds, trace=1)
        c, rc = run_once(wl, args.seed + 1, args.seconds)
        same = a["counts"] == b["counts"] and a["call_counts"] == b["call_counts"]
        row = {"same_seed_counts_equal": same,
               "correct": [ra["correct"], rb["correct"], rc["correct"]],
               "counts": a["counts"]}
        if not same:
            row["counts_second_run"] = b["counts"]
            row["call_counts_differ"] = sorted(
                k for k in a["call_counts"] if a["call_counts"][k] != b["call_counts"].get(k))
        ok = ok and same and all(row["correct"])
        report[wl] = row
    print(json.dumps({"ok": ok, "seed": args.seed, "workloads": report}, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
