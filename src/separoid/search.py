"""Randomized and exhaustive search for separating models, and soundness
scans of the rule families against the finite-model checkers.  The scans call
the same mask-level tests as the public checkers (``MaskKernel.sci``,
``RegimeFamily.eci``/``eci_general`` and ``variation_independent`` in
``models``), so a fix to a checker reaches every scan.

Random masses are drawn as integers on a coarse grid and normalized, so
degenerate (zero-mass) contexts are common; that is deliberate, since the
witness subtleties of the extended checks live exactly there.  Everything is
a deterministic function of (seed, stream index), never of wall clock or
worker count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from .dsl import render_statement
from .engine import RuleSet
from .errors import NotComplementary, SemanticsMismatch
from .files import family_to_dict, model_from_dict, model_to_dict
from .models import (
    DiscreteDistribution,
    RegimeFamily,
    check_complementary,
    check_eci,
    check_sci,
    check_vci,
    dominating_per_group,
    mask_names,
    partition_meet,
    variation_independent,
)
from .universe import CIStatement

SCI, VCI, ECI = "SCI", "VCI", "ECI"


@dataclass
class SearchConfig:
    """Deterministic search space: seeded trials over models whose atom
    masses are integers in [0, probability_grid] before normalization."""

    seed: int
    trials: int = 100
    var_cardinalities: Mapping[str, int] = field(default_factory=lambda: {"X": 2, "Y": 2})
    regime_count: int = 1
    probability_grid: int = 4
    decision_cardinalities: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.trials < 1 or self.probability_grid < 1 or self.regime_count < 1:
            raise ValueError("trials, probability_grid and regime_count must be >= 1")
        if any(c < 1 for c in self.var_cardinalities.values()):
            raise ValueError("variable cardinalities must be >= 1")

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "trials": self.trials,
            "var_cardinalities": dict(sorted(self.var_cardinalities.items())),
            "regime_count": self.regime_count,
            "probability_grid": self.probability_grid,
            "decision_cardinalities": dict(sorted(self.decision_cardinalities.items())),
        }


def _rng(cfg: SearchConfig, index: int, salt: int = 0) -> random.Random:
    return random.Random((cfg.seed << 24) ^ (index * 2654435761) ^ salt)


def _variables(cfg: SearchConfig) -> dict[str, tuple[str, ...]]:
    return {
        n: tuple(str(i) for i in range(c))
        for n, c in sorted(cfg.var_cardinalities.items())
    }


def random_distribution(cfg: SearchConfig, index: int) -> DiscreteDistribution:
    """Deterministic function of (seed, index): grid masses, normalized."""
    rng = _rng(cfg, index)
    variables = _variables(cfg)
    names = tuple(sorted(variables))
    atoms = list(product(*(variables[n] for n in names)))
    masses = [rng.randint(0, cfg.probability_grid) for _ in atoms]
    if not any(masses):
        masses[0] = 1
    total = sum(masses)
    pmf = {a: Fraction(m, total) for a, m in zip(atoms, masses)}
    return DiscreteDistribution(variables, pmf)


def regime_labels(count: int) -> tuple[str, ...]:
    return tuple(f"s{i}" for i in range(count))


def random_decmap(cfg: SearchConfig, index: int) -> dict[str, dict[str, str]]:
    """Random decision variables as functions on the regime labels."""
    rng = _rng(cfg, index, salt=0x5EC)
    regimes = regime_labels(cfg.regime_count)
    return {
        n: {s: str(rng.randrange(c)) for s in regimes}
        for n, c in sorted(cfg.var_cardinalities.items())
    }


def random_family(cfg: SearchConfig, index: int) -> RegimeFamily:
    """Shared signature across regimes; decision variables are random
    functions on the regimes, and the identity (named Sigma) is always
    present."""
    rng = _rng(cfg, index, salt=0xFA3)
    variables = _variables(cfg)
    names = tuple(sorted(variables))
    atoms = list(product(*(variables[n] for n in names)))
    regimes = regime_labels(cfg.regime_count)
    dists = {}
    for s in regimes:
        masses = [rng.randint(0, cfg.probability_grid) for _ in atoms]
        if not any(masses):
            masses[0] = 1
        total = sum(masses)
        dists[s] = DiscreteDistribution(
            variables, {a: Fraction(m, total) for a, m in zip(atoms, masses)}
        )
    decvars: dict[str, dict[str, str]] = {"Sigma": {s: s for s in regimes}}
    for n, c in sorted(cfg.decision_cardinalities.items()):
        decvars[n] = {s: str(rng.randrange(c)) for s in regimes}
    return RegimeFamily(regimes, dists, decvars)


def grid_distributions(variables: Mapping[str, Sequence[str]], grid: int):
    """All pmfs whose masses are integers on a 1/grid lattice (exhaustive)."""
    names = tuple(sorted(variables))
    atoms = list(product(*(tuple(variables[n]) for n in names)))

    def compositions(total: int, parts: int):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in compositions(total - head, parts - 1):
                yield (head,) + rest

    for masses in compositions(grid, len(atoms)):
        yield DiscreteDistribution(
            variables,
            {a: Fraction(m, grid) for a, m in zip(atoms, masses)},
            validate=False,
        )


def _statement_kind_check(stmts: Iterable[CIStatement], semantics: str) -> None:
    for s in stmts:
        if semantics == SCI and s.decision_names:
            raise SemanticsMismatch(f"{s!r} carries decision names under SCI semantics")
        if semantics == VCI and (s.left.stoch or s.right.stoch or s.cond.stoch):
            raise SemanticsMismatch(f"{s!r} carries stochastic names under VCI semantics")
        if semantics == ECI and s.left.dec:
            raise SemanticsMismatch(f"{s!r} has a decision name in the left slot")


@dataclass
class CounterexampleResult:
    """First model (by trial index) where every premise holds and the goal
    fails, plus a report of the individual check outcomes."""

    semantics: str
    trial: int
    model: object
    report: dict
    config: SearchConfig

    def to_dict(self) -> dict:
        model = (
            {"decision_vars": self.model, "regimes": sorted({s for m in self.model.values() for s in m})}
            if isinstance(self.model, dict)
            else model_to_dict(self.model)
        )
        return {
            "semantics": self.semantics,
            "trial": self.trial,
            "model": model,
            "report": self.report,
            "config": self.config.to_dict(),
        }


def _holds(model, stmt: CIStatement, semantics: str) -> bool:
    if semantics == SCI:
        return check_sci(model, stmt.left, stmt.right, stmt.cond)
    if semantics == VCI:
        return check_vci(model, stmt.left, stmt.right, stmt.cond)
    return check_eci(model, stmt)[0]


def verify_counterexample(data: Mapping, premises, goal) -> bool:
    """Re-verify a serialized counterexample: premises true, goal false."""
    semantics = data["semantics"]
    if semantics == VCI:
        model = {n: dict(m) for n, m in data["model"]["decision_vars"].items()}
    else:
        model = model_from_dict(data["model"])
    try:
        return all(_holds(model, p, semantics) for p in premises) and not _holds(
            model, goal, semantics
        )
    except NotComplementary:
        return False


def search_counterexample(
    premises: Iterable[CIStatement],
    goal: CIStatement,
    cfg: SearchConfig,
    semantics: str = SCI,
    exhaustive: bool = False,
) -> CounterexampleResult | None:
    """Scan trial models in index order for one separating the premises from
    the goal; absent when none is found within the budget."""
    premises = list(premises)
    semantics = semantics.upper()
    if semantics not in (SCI, VCI, ECI):
        raise ValueError(f"unknown semantics {semantics!r}")
    _statement_kind_check(premises + [goal], semantics)

    if exhaustive:
        if semantics != SCI:
            raise ValueError("exhaustive mode enumerates plain distributions only")
        n_atoms = 1
        for c in cfg.var_cardinalities.values():
            n_atoms *= c
        if n_atoms > 4:
            raise ValueError("exhaustive mode is limited to at most two binary variables")
        models = enumerate(grid_distributions(_variables(cfg), cfg.probability_grid))
    elif semantics == SCI:
        models = ((i, random_distribution(cfg, i)) for i in range(cfg.trials))
    elif semantics == VCI:
        models = ((i, random_decmap(cfg, i)) for i in range(cfg.trials))
    else:
        models = ((i, random_family(cfg, i)) for i in range(cfg.trials))

    for i, model in models:
        try:
            prem_results = [_holds(model, p, semantics) for p in premises]
            if not all(prem_results):
                continue
            goal_holds = _holds(model, goal, semantics)
        except NotComplementary:
            continue  # model incompatible with the statement's decision family
        if goal_holds:
            continue
        report = {
            "semantics": semantics,
            "trial": i,
            "premises": [
                {"statement": render_statement(p), "holds": True} for p in premises
            ],
            "goal": {"statement": render_statement(goal), "holds": False},
        }
        return CounterexampleResult(semantics, i, model, report, cfg)
    return None


# -- soundness scans ----------------------------------------------------------


@dataclass
class ScanReport:
    rule_set: str
    flags: tuple[str, ...]
    trials: int
    instances: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "rule_set": self.rule_set,
            "flags": list(self.flags),
            "trials": self.trials,
            "instances": self.instances,
            "violations": self.violations,
        }


def _scan_sci(cfg: SearchConfig, rs: RuleSet) -> ScanReport:
    names = tuple(sorted(cfg.var_cardinalities))
    nbits = len(names)
    full = (1 << nbits) - 1
    nonempty = [m for m in range(1, full + 1)]
    subs_of = [[w for w in range(1, full + 1) if w & ~m == 0] for m in range(full + 1)]
    violations: list = []
    instances = 0

    def record(trial, rule, detail):
        violations.append({"trial": trial, "rule": rule, **detail})

    for t in range(cfg.trials):
        sci = random_distribution(cfg, t).kernel.sci

        def inst(rule, ok, **masks):
            nonlocal instances
            instances += 1
            if not ok:
                record(
                    t,
                    rule,
                    {k: mask_names(v, names) for k, v in masks.items()},
                )

        for x in nonempty:
            for y in nonempty:
                inst("P2", sci(x, y, y), x=x, y=y)
                for z in range(full + 1):
                    if not sci(x, y, z):
                        continue
                    inst("P1", sci(y, x, z), x=x, y=y, z=z)
                    for w in subs_of[y]:
                        if w != y:
                            inst("P3", sci(x, w, z), x=x, y=y, z=z, w=w)
                        inst("P4", sci(x, y, z | w), x=x, y=y, z=z, w=w)
                    for w in nonempty:
                        if sci(x, w, y | z):
                            inst("P5", sci(x, y | w, z), x=x, y=y, z=z, w=w)
        if violations:
            break
    return ScanReport(rs.name, tuple(sorted(rs.flags)), cfg.trials, instances, violations)


class _VciTables:
    """Per-decmap memo: value tuples per variable subset, refinement tests,
    and variation-independence verdicts per subset triple."""

    def __init__(self, decmap: Mapping[str, Mapping[str, str]], regimes: Sequence[str]):
        self.regimes = tuple(regimes)
        self.names = tuple(sorted(decmap))
        nbits = len(self.names)
        self.vals: list[list] = []
        for mask in range(1 << nbits):
            sel = [n for i, n in enumerate(self.names) if mask >> i & 1]
            self.vals.append([tuple(str(decmap[n][s]) for n in sel) for s in self.regimes])
        self.memo: dict[tuple, bool] = {}
        self._refine: dict[tuple, bool] = {}

    def leq(self, w: int, y: int) -> bool:
        """w is a function of y on this regime space."""
        key = (w, y)
        out = self._refine.get(key)
        if out is None:
            seen: dict = {}
            out = True
            for i in range(len(self.regimes)):
                yv, wv = self.vals[y][i], self.vals[w][i]
                if seen.setdefault(yv, wv) != wv:
                    out = False
                    break
            self._refine[key] = out
        return out

    def vci(self, x: int, y: int, z: int) -> bool:
        key = (x, y, z)
        out = self.memo.get(key)
        if out is None:
            out = variation_independent(self.vals[x], self.vals[y], self.vals[z])
            self.memo[key] = out
        return out


def _scan_vci_one(tab: _VciTables, names, trial, include_p6, inst) -> None:
    nbits = len(names)
    full = (1 << nbits) - 1
    nonempty = list(range(1, full + 1))
    conds = list(range(full + 1))
    V = [[[tab.vci(x, y, z) for z in conds] for y in conds] for x in conds]
    leq = [[tab.leq(w, y) for y in conds] for w in conds]
    meets: dict = {}
    p6_memo: dict = {}
    for x in nonempty:
        Vx = V[x]
        for y in nonempty:
            Vxy = Vx[y]
            inst(trial, "P2", Vxy[y], x=x, y=y)
            for z in conds:
                if not Vxy[z]:
                    continue
                inst(trial, "P1", V[y][x][z], x=x, y=y, z=z)
                for w in nonempty:
                    if leq[w][y]:
                        if w != y:
                            inst(trial, "P3", Vx[w][z], x=x, y=y, z=z, w=w)
                        inst(trial, "P4", Vxy[z | w], x=x, y=y, z=z, w=w)
                    if Vx[w][y | z]:
                        inst(trial, "P5", Vx[y | w][z], x=x, y=y, z=z, w=w)
                if include_p6 and leq[z][y]:
                    for w in conds:
                        if not (leq[w][y] and Vxy[w]):
                            continue
                        fm = meets.get((z, w))
                        if fm is None:
                            za = {s: tab.vals[z][i] for i, s in enumerate(tab.regimes)}
                            wa = {s: tab.vals[w][i] for i, s in enumerate(tab.regimes)}
                            meet = partition_meet(za, wa)
                            fm = meets[(z, w)] = tuple(meet[s] for s in tab.regimes)
                        ok = p6_memo.get((x, y, fm))
                        if ok is None:
                            ok = variation_independent(tab.vals[x], tab.vals[y], fm)
                            p6_memo[(x, y, fm)] = ok
                        inst(trial, "P6", ok, x=x, y=y, z=z, w=w)


def _scan_vci(cfg: SearchConfig, rs: RuleSet) -> ScanReport:
    names = tuple(sorted(cfg.var_cardinalities))
    regimes = regime_labels(cfg.regime_count)
    include_p6 = "P6" in rs.rules
    violations: list = []
    instances = 0

    def inst(trial, rule, ok, **masks):
        nonlocal instances
        instances += 1
        if not ok:
            violations.append(
                {"trial": trial, "rule": rule, **{k: mask_names(v, names) for k, v in masks.items()}}
            )

    for t in range(cfg.trials):
        tab = _VciTables(random_decmap(cfg, t), regimes)
        _scan_vci_one(tab, names, t, include_p6, inst)
        if violations:
            break
    return ScanReport(rs.name, tuple(sorted(rs.flags)), cfg.trials, instances, violations)


def exhaustive_vci_scan(max_regimes: int = 4, n_vars: int = 3) -> ScanReport:
    """P1..P6 against the variation checker over every decision map with
    n_vars binary variables on every regime space of size <= max_regimes."""
    names = tuple(chr(ord("A") + i) for i in range(n_vars))
    violations: list = []
    instances = 0
    trials = 0

    def inst(trial, rule, ok, **masks):
        nonlocal instances
        instances += 1
        if not ok:
            violations.append(
                {"trial": trial, "rule": rule, **{k: mask_names(v, names) for k, v in masks.items()}}
            )

    for size in range(1, max_regimes + 1):
        regimes = regime_labels(size)
        funcs = list(product("01", repeat=size))
        for combo in product(funcs, repeat=n_vars):
            decmap = {n: dict(zip(regimes, f)) for n, f in zip(names, combo)}
            tab = _VciTables(decmap, regimes)
            _scan_vci_one(tab, names, trials, True, inst)
            trials += 1
            if violations:
                return ScanReport("VCI_STRONG", ("exhaustive",), trials, instances, violations)
    return ScanReport("VCI_STRONG", ("exhaustive",), trials, instances, violations)


def _dec_placements(fam: RegimeFamily) -> list[tuple[frozenset, frozenset]]:
    """(theta, phi) pairs of disjoint decision-name sets whose union is empty
    or complementary on the family."""
    names = sorted(fam.decvars)
    out: list[tuple[frozenset, frozenset]] = [(frozenset(), frozenset())]
    subsets: list[frozenset] = [frozenset()]
    for n in names:
        subsets += [s | {n} for s in subsets]
    for theta in subsets:
        for phi in subsets:
            if theta & phi or not (theta | phi):
                continue
            if check_complementary(fam, theta | phi):
                out.append((theta, phi))
    return out


def _scan_eci(cfg: SearchConfig, rs: RuleSet) -> ScanReport:
    stoch = tuple(sorted(cfg.var_cardinalities))
    nbits = len(stoch)
    full = (1 << nbits) - 1
    nonempty = list(range(1, full + 1))
    violations: list = []
    instances = 0
    p4_modes = tuple(sorted(rs.flags & {"discrete_variables", "dominating_regime",
                                        "discrete_regime_space"}))

    for t in range(cfg.trials):
        fam = random_family(cfg, t)
        eci = fam.eci  # theta only decides well-formedness, which placements ensure
        placements = _dec_placements(fam)
        dom_ok = {phi: dominating_per_group(fam, tuple(sorted(phi)))
                  for _th, phi in placements}
        comp_families = sorted(
            {th | ph for th, ph in placements if th | ph}, key=sorted
        )

        def inst(rule, ok, **parts):
            nonlocal instances
            instances += 1
            if not ok:
                violations.append({"trial": t, "rule": rule, **{
                    k: sorted(v) if isinstance(v, frozenset) else mask_names(v, stoch)
                    for k, v in parts.items()}})

        # P2': tautologies whose decision part is a complementary family
        for D in comp_families:
            for x in nonempty:
                for y in range(full + 1):
                    inst("P2'", eci(x, y, y, D), x=x, y=y, family=D)

        for theta, phi in placements:
            for x in nonempty:
                for y in range(full + 1):
                    if not (y or theta):
                        continue
                    for z in range(full + 1):
                        if not eci(x, y, z, phi):
                            continue
                        slots = dict(x=x, y=y, theta=theta, z=z, phi=phi)
                        if not theta and y and phi:
                            inst("P1'", eci(y, x, z, phi), **slots)
                        for w in range(1, full + 1):
                            if w & ~y == 0:
                                if w != y:
                                    inst("P3'", eci(x, w, z, phi), **slots, w=w)
                                inst("P4'", eci(x, y, z | w, phi), **slots, w=w)
                            if w & ~x == 0:
                                if w != x:
                                    inst("P3''", eci(w, y, z, phi), **slots, w=w)
                                for mode in p4_modes:
                                    if mode == "dominating_regime" and not dom_ok[phi]:
                                        continue
                                    inst(f"P4''[{mode}]", eci(x, y, z | w, phi), **slots, w=w)
                            # P5': second premise x _||_ w | (y v z, theta v phi)
                            if eci(x, w, y | z, theta | phi):
                                inst("P5'", eci(x, y | w, z, phi), **slots, w=w)
                            # P5'': second premise w _||_ (y,theta) | (x v z, phi)
                            if eci(w, y, x | z, phi):
                                inst("P5''", eci(x | w, y, z, phi), **slots, w=w)
                        if theta and y:
                            inst("DCMP", eci(x, y, z, theta | phi), **slots)
        if violations:
            break
    return ScanReport(rs.name, tuple(sorted(rs.flags)), cfg.trials, instances, violations)


def _general_placements(fam: RegimeFamily):
    """(K, theta, phi) disjoint decision-name triples, K nonempty, whose
    union is complementary on the family."""
    names = sorted(fam.decvars)
    subsets: list[frozenset] = [frozenset()]
    for n in names:
        subsets += [s | {n} for s in subsets]
    out = []
    for K in subsets:
        if not K:
            continue
        for theta in subsets:
            if theta & K:
                continue
            for phi in subsets:
                if phi & (K | theta):
                    continue
                if check_complementary(fam, K | theta | phi):
                    out.append((K, theta, phi))
    return out


def _scan_general(cfg: SearchConfig, rs: RuleSet) -> ScanReport:
    stoch = tuple(sorted(cfg.var_cardinalities))
    nbits = len(stoch)
    full = (1 << nbits) - 1
    nonempty = list(range(1, full + 1))
    violations: list = []
    instances = 0
    flag_gated = bool(rs.flags & {"discrete_variables", "dominating_regime",
                                  "discrete_regime_space"})
    none = frozenset()

    for t in range(cfg.trials):
        fam = random_family(cfg, t)
        memo: dict = {}

        def gen(*slots):
            out = memo.get(slots)
            if out is None:
                out = memo[slots] = fam.eci_general(*slots)
            return out

        def inst(rule, ok, **parts):
            nonlocal instances
            instances += 1
            if not ok:
                violations.append({"trial": t, "rule": rule, **{
                    k: sorted(v) if isinstance(v, frozenset) else mask_names(v, stoch)
                    for k, v in parts.items()}})

        for K, theta, phi in _general_placements(fam):
            for x in range(full + 1):
                for y in range(full + 1):
                    if not phi:  # P2g tautology: conditioning on the right slot
                        if y or theta:
                            inst("P2g", gen(x, K, y, theta, y, theta),
                                 x=x, K=K, y=y, theta=theta)
                    for z in range(full + 1):
                        if not gen(x, K, y, theta, z, phi):
                            continue
                        slots = dict(x=x, K=K, y=y, theta=theta, z=z, phi=phi)
                        inst("P1g", gen(y, theta, x, K, z, phi), **slots)
                        for w in nonempty:
                            if w & ~y == 0:
                                if w != y:
                                    inst("P3g", gen(x, K, w, theta, z, phi), **slots, w=w)
                                if flag_gated:
                                    inst("P4g", gen(x, K, y, none, z | w, theta | phi),
                                         **slots, w=w)
                            if gen(x, K, w, none, y | z, theta | phi):
                                inst("P5g", gen(x, K, y | w, theta, z, phi), **slots, w=w)
        if violations:
            break
    return ScanReport(rs.name, tuple(sorted(rs.flags)), cfg.trials, instances, violations)


def axiom_soundness_scan(cfg: SearchConfig, rs: RuleSet) -> ScanReport:
    """For each trial model and each rule instance over the configured
    variables: whenever the premises check true, the conclusion must check
    true.  Reports the first violating (model, rule, instance), if any."""
    if rs.name == "SEPAROID_FULL":
        return _scan_sci(cfg, rs)
    if rs.name == "VCI_STRONG":
        return _scan_vci(cfg, rs)
    if rs.name == "ECI_RESTRICTED":
        return _scan_eci(cfg, rs)
    if rs.name == "GENERAL":
        return _scan_general(cfg, rs)
    raise ValueError(f"no soundness scan for rule set {rs.name!r}")
