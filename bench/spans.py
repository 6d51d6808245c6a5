"""Span tracing at the package's layer boundaries, for the traced run only.

``Tracer.install`` replaces each boundary function with a wrapper in every
``separoid`` module that binds it (``search.check_eci`` and
``models.check_eci`` are the same function under two names), so calls made
inside the package are recorded as well as the benchmark's own.  Nothing
under ``src/`` is edited.  Spans (name, start, end, parent) are kept in
memory and written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import sys
import time

# (layer, module, function): every public boundary the per-layer metrics cover.
# What each layer's figures should move end to end, and on which workload:
#   dsl.*                       setup_s on derive, closure and query
#   engine.prove.*              wall_s and call_p99_us on derive (prove_s,
#                               decided_ratio on its detail line)
#   engine.closure.*            wall_s and peak_rss_mb on closure
#   engine.replay.*, apply_rule wall_s on derive
#   models.*                    call_p50_us, call_p99_us and wall_s on query;
#                               wall_s on scan (instances_per_s)
#   search.scan.*, exhaustive   wall_s on scan; search.random_* and
#                               search_counterexample: wall_s on query
#   causal.*                    wall_s and call_p99_us on query
#   files.*                     setup_s and wall_s on query
#   cli.main                    wall_s on derive and query
BOUNDARIES = [
    ("dsl", "dsl", "parse_session"),
    ("dsl", "dsl", "parse_statement"),
    ("engine", "engine", "prove"),
    ("engine", "engine", "closure"),
    ("engine", "engine", "replay"),
    ("engine", "engine", "apply_rule"),
    ("models", "models", "check_sci"),
    ("models", "models", "check_eci"),
    ("models", "models", "check_pairwise_eci"),
    ("models", "models", "check_vci"),
    ("models", "models", "check_eci_general"),
    ("models", "models", "product_space"),
    ("search", "search", "axiom_soundness_scan"),
    ("search", "search", "exhaustive_vci_scan"),
    ("search", "search", "random_family"),
    ("search", "search", "random_distribution"),
    ("search", "search", "search_counterexample"),
    ("causal", "causal", "g_formula"),
    ("causal", "causal", "ace"),
    ("causal", "causal", "check_simple_stability"),
    ("files", "files", "load_model"),
    ("files", "files", "load_strategy"),
    ("files", "files", "dump_model"),
    ("cli", "cli", "main"),
]

RULE_SETS = ("SEPAROID_FULL", "VCI_STRONG", "ECI_RESTRICTED", "GENERAL")


def _is_scan(name: str) -> bool:
    return name.startswith("search.scan.") or name == "search.exhaustive_vci"


def span_name(module: str, func: str) -> str:
    if func == "exhaustive_vci_scan":
        return "search.exhaustive_vci"
    return f"{module}.{func}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = []
        self.parent = []
        self.start = []
        self.end = []
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self._restore: list = []
        self.active = True  # off while the benchmark checks answers

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def count(self, key: str, n: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, fn, static_name: str):
        clock = time.perf_counter
        tracer = self

        by_rule_set = fn.__name__ == "axiom_soundness_scan"

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if by_rule_set:
                rs = args[1] if len(args) > 1 else kwargs["rs"]
                name = f"search.scan.{rs.name}"
            else:
                name = static_name
            idx = len(tracer.start)
            tracer.name.append(tracer._id(name))
            tracer.parent.append(tracer._stack[-1])
            tracer.start.append(clock())
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = clock()
                tracer._stack.pop()
            tracer._observe(name, result)
            return result

        return traced

    def _observe(self, name: str, result) -> None:
        """Counts taken from a boundary's return value."""
        if name == "engine.prove":
            if hasattr(result, "rule_sequence"):
                self.count("engine.prove.derived")
                self.count("engine.prove.proof_steps", result.steps)
            elif result.truncated:
                self.count("engine.prove.truncated")
        elif name == "engine.closure":
            self.count("engine.closure.statements", len(result.statements))
            self.count("engine.closure.rounds", result.rounds)
        elif _is_scan(name):
            self.count(f"{name}.instances", result.instances)

    def install(self) -> None:
        """Wrap every boundary wherever a separoid module binds it."""
        mods = {n: m for n, m in sys.modules.items()
                if n == "separoid" or n.startswith("separoid.")}
        for _layer, module, func in BOUNDARIES:
            original = getattr(mods[f"separoid.{module}"], func)
            wrapped = self._wrap(original, span_name(module, func))
            for mod in mods.values():
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        self._restore.append((mod, attr, val))
                        setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._restore):
            setattr(mod, attr, val)
        self._restore.clear()

    # -- aggregation ---------------------------------------------------------

    def totals(self, lo: int = 0, hi: int | None = None) -> dict:
        """Per span name over spans lo..hi: calls, total time and self time
        (span time minus the time covered by its direct children), plus the
        share of scan time spent in top-level ``models.*`` spans."""
        hi = len(self.start) if hi is None else hi
        dur = {i: self.end[i] - self.start[i] for i in range(lo, hi)}
        child = dict.fromkeys(dur, 0.0)
        for i in dur:
            p = self.parent[i]
            if p in child:
                child[p] += dur[i]
        out: dict = {}
        scan_time = models_in_scan = 0.0
        for i, d in dur.items():
            name = self.names[self.name[i]]
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += d
            agg["self_s"] += d - child[i]
            if _is_scan(name):
                scan_time += d
            elif name.startswith("models.") and self.parent[i] in dur:
                if _is_scan(self.names[self.name[self.parent[i]]]):
                    models_in_scan += d
        out["_models_share"] = models_in_scan / scan_time if scan_time else 0.0
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump({"names": self.names, "name": self.name, "parent": self.parent,
                       "start": self.start, "end": self.end}, fh)


def per_layer_metrics(setup: dict, run: dict, counters: dict, passes: int,
                      overhead_s: float) -> dict:
    """The per-layer metric set for one traced set-up plus one pass: `setup`
    holds the set-up's span totals, `run` and `counters` those of `passes`
    traced passes, which are averaged."""
    def calls(name):
        return setup.get(name, {}).get("calls", 0) + run.get(name, {}).get("calls", 0) / passes

    def self_s(name):
        return (setup.get(name, {}).get("self_s", 0.0)
                + run.get(name, {}).get("self_s", 0.0) / passes)

    m: dict = {}
    for _layer, module, func in BOUNDARIES:
        name = span_name(module, func)
        if func == "axiom_soundness_scan":
            for rs in RULE_SETS:
                scan = f"search.scan.{rs}"
                inst = counters.get(f"{scan}.instances", 0)
                total = run.get(scan, {}).get("total_s", 0.0)
                m[f"{scan}.self_s"] = self_s(scan)
                m[f"{scan}.instances"] = inst / passes
                m[f"{scan}.instances_per_s"] = inst / total if total else 0.0
            continue
        m[f"{name}.calls"] = calls(name)
        if func != "apply_rule":
            m[f"{name}.self_s"] = self_s(name)
    for key in ("engine.prove.derived", "engine.prove.truncated", "engine.prove.proof_steps",
                "engine.closure.statements", "engine.closure.rounds",
                "search.exhaustive_vci.instances"):
        m[key] = counters.get(key, 0) / passes
    m["search.scan.models_share"] = run.get("_models_share", 0.0)
    m["trace.overhead_s"] = overhead_s
    return m


def unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    return "count"


def zero_call_boundaries(*phases: dict) -> list[str]:
    totals = {k for phase in phases for k in phase}
    out = []
    for _layer, module, func in BOUNDARIES:
        if func == "axiom_soundness_scan":
            out += [f"search.scan.{rs}" for rs in RULE_SETS if f"search.scan.{rs}" not in totals]
        elif span_name(module, func) not in totals:
            out.append(span_name(module, func))
    return out
