"""Benchmark of the separoid package: one workload per process.

    python3 bench/run.py --workload {derive,closure,scan,query} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and from nowhere else.  Set-up generates the workload's inputs
from the seed (several times, to time it), then passes over the inputs are
repeated until ``--seconds`` have gone by; each pass is checked against the
references in ``bench/reference.json`` and ``bench/oracle.py``.

Standard output ends with two JSON lines.  The first, ``{"detail": ...}``,
records the machine, the seed, the workload's own figures (``prove_s``,
``closure_s``, ``decided_ratio``, ``instances_per_s``, ``query_p50_us``...),
the counts a second run with the same seed must repeat, and known defects.
The last holds ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer ones
(spans at every package boundary, written to ``bench/out/``).  End-to-end
times are in reference seconds (see calibrate.py); the detail line also has
them as measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "separoid")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile."""
    s = sorted(values)
    return s[min(len(s) - 1, max(0, int(q * len(s) + 0.999999) - 1))]


def median_dict(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}


class Run:
    """Passes over one workload's inputs, checked and timed."""

    def __init__(self, wl, inp):
        _setup, self.pass_, self.check, self.summary = wl
        self.inp = inp
        self.walls: list[float] = []
        self.p50s: list[float] = []  # per pass: median call latency
        self.p99s: list[float] = []  # per pass: 99th percentile, nearest rank
        self.ref_walls: list[float] = []  # the same three in reference seconds
        self.ref_p50s: list[float] = []
        self.ref_p99s: list[float] = []
        self.summaries: list[dict] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.known_defects: set = set()
        self.counts = None

    def one_pass(self, workloads, tracer=None) -> float:
        rec = workloads.Recorder()
        t0 = time.perf_counter()
        out = self.pass_(self.inp, rec)
        wall = time.perf_counter() - t0 - rec.clock.cal_spent
        rec.clock.close()
        ref_lat = rec.reference_latencies()
        self.ref_walls.append(sum(s * f for s, f in zip(rec.clock.segments,
                                                        rec.clock.factors())))
        self.ref_p50s.append(statistics.median(ref_lat))
        self.ref_p99s.append(quantile(ref_lat, 0.99))
        if tracer is not None:
            tracer.active = False
        chk = self.check(self.inp, out)
        if tracer is not None:
            tracer.active = True
        self.walls.append(wall)
        self.p50s.append(statistics.median(rec.latencies))
        self.p99s.append(quantile(rec.latencies, 0.99))
        self.summaries.append(self.summary(self.inp, out, ref_lat))
        self.attempted += len(rec.latencies)
        self.failures += chk.failures
        self.known_defects.update(chk.known_defects)
        if self.counts is None:
            self.counts = chk.counts
        elif chk.counts != self.counts:
            self.failures.append("a pass gave different counts from the first pass")
        return wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["derive", "closure", "scan", "query"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "separoid", "__init__.py")):
        print(f"error: no separoid package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    t_start = time.perf_counter()
    sys.path.insert(0, SRC)
    import separoid
    import separoid.cli  # noqa: F401  (the CLI is not imported by the package)

    import_s = time.perf_counter() - t_start
    if not os.path.abspath(separoid.__file__).startswith(SRC + os.sep):
        print(f"error: separoid imported from {separoid.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import calibrate
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        calibrate.kernel()  # the first call in a process runs cold
        import_ref_s = import_s * calibrate.REFERENCE_S / calibrate.kernel()
        setup_times, setup_ref = [], []
        for _ in range(SETUP_REPEATS):
            clock = calibrate.Clock(segment_s=float("inf"))
            t0 = time.perf_counter()
            inp = wl[0](args.seed, workdir)
            setup_times.append(time.perf_counter() - t0)
            clock.close()
            setup_ref.append(setup_times[-1] * clock.factors()[0])
        setup_s = import_s + statistics.median(setup_times)
        setup_ref_s = import_ref_s + statistics.median(setup_ref)

        run = Run(wl, inp)
        t_run = time.perf_counter()
        if not args.trace:
            while True:
                run.one_pass(workloads)
                if time.perf_counter() - t_run >= args.seconds:
                    break
            metrics = {
                "setup_s": (setup_ref_s, "s"),
                "wall_s": (statistics.median(run.ref_walls), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "call_p50_us": (statistics.median(run.ref_p50s) * 1e6, "us"),
                "call_p99_us": (statistics.median(run.ref_p99s) * 1e6, "us"),
            }
            calls_per_pass = run.attempted / len(run.walls)
            extra = {"measured": {
                "setup_s": setup_s, "wall_s": statistics.median(run.walls),
                "call_p50_us": statistics.median(run.p50s) * 1e6,
                "call_p99_us": statistics.median(run.p99s) * 1e6}}
        else:
            run.one_pass(workloads)
            tracer = spans.Tracer()
            tracer.install()
            traced = Run(wl, wl[0](args.seed, workdir))
            lo = len(tracer.start)  # spans before this index are set-up
            while True:
                traced.one_pass(workloads, tracer)
                if time.perf_counter() - t_run >= args.seconds:
                    break
            tracer.uninstall()
            setup_tot = tracer.totals(0, lo)
            run_tot = tracer.totals(lo)
            overhead = statistics.median(traced.ref_walls) - run.ref_walls[0]
            per_layer = spans.per_layer_metrics(setup_tot, run_tot, tracer.counters,
                                                len(traced.walls), overhead)
            metrics = {k: (v, spans.unit(k)) for k, v in per_layer.items()}
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            spans_file = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json.gz")
            tracer.write(spans_file)
            calls = {k: v for k, v in per_layer.items() if k.endswith((".calls", ".instances"))}
            extra = {"zero_call_boundaries": spans.zero_call_boundaries(setup_tot, run_tot),
                     "spans_file": os.path.relpath(spans_file, ROOT),
                     "traced_passes": len(traced.walls),
                     "untraced_wall_s": run.ref_walls[0], "call_counts": calls}
            calls_per_pass = run.attempted / len(run.walls)
            run.failures += traced.failures
            run.attempted += traced.attempted
            run.known_defects |= traced.known_defects
            if traced.counts != run.counts:
                run.failures.append("traced pass gave different counts from untraced pass")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = min(len(set(run.failures)), run.attempted)
    detail = {
        "machine": machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(run.walls),
        "calls": run.attempted,
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "workload_metrics": {**median_dict(run.summaries),
                             "failed_ratio": failed / max(1, run.attempted),
                             "calls_per_pass": calls_per_pass},
        "counts": run.counts,
        "known_defects": sorted(run.known_defects),
        "failures": sorted(set(run.failures))[:20],
        **extra,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    for f in sorted(set(run.failures))[:20]:
        print(f"wrong: {f}", file=sys.stderr)
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
