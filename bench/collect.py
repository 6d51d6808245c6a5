"""Run every workload over several seeds and summarize the results.

    python3 bench/collect.py --seeds 1-10 [--seconds 20] [--workloads derive,scan]
        [--label NAME --append bench/trajectory.json]

For each workload and end-to-end metric it prints the median, the quartiles
and their distance as a share of the median (the spread the metric's bound
in BENCHMARK.json must cover), plus the median of each workload figure from
the detail line (``prove_s.chain6``, ``closure_s.chain5``,
``instances_per_s.ECI_RESTRICTED``...).  With ``--append`` the summary is
added to a trajectory file as one entry, so that a change can cite its
before and after rows from one script on one machine.  Runs go one at a
time, each in its own process.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int = 0) -> tuple[dict, dict]:
    """One benchmark run in its own process: (detail line, result line)."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float)
    p.add_argument("--workloads")
    p.add_argument("--label")
    p.add_argument("--append", help="trajectory file to add the summary to")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = args.seconds or spec["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    summary: dict = {}
    machine = None
    ok = True
    for wl in names:
        metrics: dict = {}
        figures: dict = {}
        correct = []
        for seed in seeds(args.seeds):
            detail, result = run_once(wl, seed, seconds)
            machine = detail["machine"]
            correct.append(result["correct"] and result["failed"] == 0)
            for k, v in result["metrics"].items():
                metrics.setdefault(k, []).append(v["value"])
            for k, v in {**detail["workload_metrics"],
                         **{f"measured.{k}": v for k, v in detail["measured"].items()}}.items():
                figures.setdefault(k, []).append(v)
            print(f"{wl} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)
        rows = {k: spread(v) for k, v in metrics.items()}
        for k, row in rows.items():
            row["within_bound"] = k == "setup_s" or row["iqr_share"] <= bounds[k]
            ok = ok and row["within_bound"]
        ok = ok and all(correct)
        summary[wl] = {"correct": all(correct), "end_to_end": rows,
                       "figures": {k: statistics.median(v) for k, v in sorted(figures.items())}}
    entry = {"label": args.label, "date": datetime.date.today().isoformat(),
             "machine": machine, "seeds": args.seeds, "seconds": seconds,
             "workloads": summary}
    print(json.dumps(entry, indent=1, sort_keys=True))
    if args.append:
        try:
            with open(args.append, encoding="utf-8") as fh:
                trajectory = json.load(fh)
        except FileNotFoundError:
            trajectory = []
        trajectory.append(entry)
        with open(args.append, "w", encoding="utf-8") as fh:
            json.dump(trajectory, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
