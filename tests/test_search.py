import hashlib
import json
from collections import Counter
from functools import cache
from fractions import Fraction as F
from itertools import product
from math import comb

import pytest

from separoid import models, search
from separoid.engine import _Engine, _l_triv, _r_triv, rule_set
from separoid.files import model_to_dict
from separoid.errors import SemanticsMismatch
from separoid.dsl import parse_statement
from separoid.models import (
    block_meet,
    check_complementary,
    check_eci_general,
    check_sci,
    check_vci,
    dec_kernel,
    mask_names,
    variation_independent,
)
from separoid.search import (
    SearchConfig,
    _Scan,
    _close_vci,
    _models,
    _range,
    _vci_model,
    axiom_soundness_scan,
    exhaustive_vci_scan,
    grid_distributions,
    random_decmap,
    random_distribution,
    random_family,
    regime_labels,
    search_counterexample,
    verify_counterexample,
)
from separoid.universe import ComplementarityDecl, Universe

from conftest import brute_vci, ci, exhaustive_maps


def cfg3(**kw):
    base = dict(seed=42, trials=200, var_cardinalities={"X": 2, "Y": 2, "Z": 2},
                probability_grid=1)
    base.update(kw)
    return SearchConfig(**base)


# -- generators ------------------------------------------------------------------


def test_random_distribution_deterministic():
    cfg = cfg3()
    a = random_distribution(cfg, 17)
    b = random_distribution(cfg, 17)
    assert a.pmf == b.pmf
    assert random_distribution(cfg, 18).pmf != a.pmf or True  # different index may differ


def test_random_distribution_grid_denominators():
    cfg = SearchConfig(seed=1, trials=1, var_cardinalities={"A": 2, "B": 2},
                       probability_grid=4)
    for i in range(20):
        d = random_distribution(cfg, i)
        assert sum(d.pmf.values()) == 1
        total = sum(int(p * d.int_atoms()[0]) for p in d.pmf.values())
        for p in d.pmf.values():
            # masses are integers in [0,4] normalized by their sum <= 16
            assert total % p.denominator == 0
            assert p.denominator <= 16


def test_random_distribution_g1_zero_or_uniform_atoms():
    cfg = cfg3(probability_grid=1)
    d = random_distribution(cfg, 5)
    total = sum(1 for p in d.pmf.values() if p > 0)
    assert all(p == 0 or p == F(1, total) for p in d.pmf.values())


def test_random_family_includes_identity():
    cfg = SearchConfig(seed=9, trials=1, var_cardinalities={"X": 2}, regime_count=3,
                       probability_grid=2, decision_cardinalities={"Th": 2})
    fam = random_family(cfg, 0)
    assert fam.decvars["Sigma"] == {s: s for s in fam.regimes}
    assert set(fam.decvars) == {"Sigma", "Th"}
    assert fam.regimes == ("s0", "s1", "s2")
    b = random_family(cfg, 0)
    assert all(fam.dists[s].pmf == b.dists[s].pmf for s in fam.regimes)


def test_random_family_single_regime_reduces_to_sci():
    cfg = SearchConfig(seed=4, trials=1, var_cardinalities={"X": 2, "Y": 2},
                       regime_count=1, probability_grid=3)
    fam = random_family(cfg, 0)
    from separoid.models import check_eci, check_sci

    stmt = ci(["X"], ["Y"], (), cdec=["Sigma"])
    assert check_eci(fam, stmt)[0] == check_sci(fam.dists["s0"], "X", "Y", ())


def test_binary_decision_var_repeats_on_three_regimes():
    cfg = SearchConfig(seed=2, trials=1, var_cardinalities={"X": 2}, regime_count=3,
                       probability_grid=2, decision_cardinalities={"Th": 2})
    fam = random_family(cfg, 0)
    values = list(fam.decvars["Th"].values())
    assert len(set(values)) < 3  # pigeonhole


# -- counterexample search ----------------------------------------------------------


def test_cx_conditioning_cannot_be_dropped():
    res = search_counterexample([ci(["X"], ["Y"], ["Z"])], ci(["X"], ["Y"]), cfg3(), "SCI")
    assert res is not None
    data = res.to_dict()
    assert verify_counterexample(data, [ci(["X"], ["Y"], ["Z"])], ci(["X"], ["Y"])) is True


def test_cx_axiom_instance_has_no_counterexample():
    res = search_counterexample([], ci(["X"], ["Y"], ["Y"]), cfg3(trials=300), "SCI")
    assert res is None


def test_cx_p6_fails_for_sci():
    prem = [ci(["X"], ["Y"]), ci(["X"], ["Y"], ["W"])]
    goal = ci(["X"], ["Y", "W"])
    cfg = cfg3(var_cardinalities={"X": 2, "Y": 2, "W": 2})
    res = search_counterexample(prem, goal, cfg, "SCI")
    assert res is not None
    assert verify_counterexample(res.to_dict(), prem, goal)


def test_cx_exhaustive_mode_conclusive():
    cfg = SearchConfig(seed=0, trials=1, var_cardinalities={"X": 2, "Y": 2},
                       probability_grid=3)
    res = search_counterexample([], ci(["X"], ["Y"], ["Y"]), cfg, "SCI", exhaustive=True)
    assert res is None
    res2 = search_counterexample([ci(["X"], ["Y"], ["Y"])], ci(["X"], ["Y"]), cfg,
                                 "SCI", exhaustive=True)
    assert res2 is not None  # dependence with a tautological premise


def test_cx_vci_semantics():
    prem = [ci((), (), (), ldec=["A"], rdec=["B"], cdec=["C"])]
    goal = ci((), (), (), ldec=["A"], rdec=["B"])
    cfg = SearchConfig(seed=8, trials=400, var_cardinalities={"A": 2, "B": 2, "C": 2},
                       regime_count=4)
    res = search_counterexample(prem, goal, cfg, "VCI")
    assert res is not None
    assert verify_counterexample(res.to_dict(), prem, goal)


def test_cx_vci_regimes_keep_the_map_order():
    """A VCI counterexample lists its regimes in the map's own order, so
    from 11 regimes on s10 follows s9, not s1."""
    cfg = SearchConfig(seed=1, trials=50, var_cardinalities={"A": 2, "B": 2}, regime_count=11)
    res = search_counterexample([], ci((), (), (), ldec=["A"], rdec=["B"]), cfg, "VCI")
    assert res is not None
    assert res.to_dict()["model"]["regimes"] == list(regime_labels(11))


def test_cx_semantics_mismatch():
    with pytest.raises(SemanticsMismatch):
        search_counterexample([], ci(["X"], ["Y"], rdec=["Sigma"]), cfg3(), "SCI")
    with pytest.raises(SemanticsMismatch):
        search_counterexample([], ci(["X"], ["Y"]), cfg3(), "VCI")


def test_cx_determinism():
    prem = [ci(["X"], ["Y"], ["Z"])]
    goal = ci(["X"], ["Y"])
    a = search_counterexample(prem, goal, cfg3(), "SCI")
    b = search_counterexample(prem, goal, cfg3(), "SCI")
    assert a.trial == b.trial
    assert a.model.pmf == b.model.pmf


# -- scans ----------------------------------------------------------------------------


def test_sci_scan_small_clean():
    cfg = SearchConfig(seed=5, trials=25, var_cardinalities={"A": 2, "B": 2, "C": 2},
                       probability_grid=3)
    rs = rule_set("SEPAROID_FULL")
    rep = axiom_soundness_scan(cfg, rs)
    assert rep.ok
    assert all(rep.instances_by_rule[r] > 0 for r in rs.rules)
    assert rep.instances == sum(rep.instances_by_rule.values())


def test_vci_scan_small_clean():
    cfg = SearchConfig(seed=6, trials=40, var_cardinalities={"A": 2, "B": 2, "C": 2},
                       regime_count=4)
    rep = axiom_soundness_scan(cfg, rule_set("VCI_STRONG"))
    assert rep.ok
    assert all(rep.instances_by_rule[r] > 0 for r in ("P1", "P2", "P3", "P4", "P5", "P6"))


def test_exhaustive_vci_tiny_clean():
    rep = exhaustive_vci_scan(max_regimes=2, n_vars=2)
    assert rep.ok and rep.trials == 4 + 16  # (2^s)^2 decmaps for s = 1, 2


def test_exhaustive_vci_rejects_empty_spaces():
    for kwargs in (dict(max_regimes=0), dict(max_regimes=-3), dict(n_vars=0)):
        with pytest.raises(ValueError, match=">= 1"):
            exhaustive_vci_scan(**kwargs)


@pytest.mark.parametrize("field, what", [("var_cardinalities", "variable"),
                                         ("decision_cardinalities", "decision")])
def test_search_config_rejects_a_cardinality_of_zero(field, what):
    # A decision variable with no values would fail later, inside the
    # random family's draw, instead of as a usage error.
    with pytest.raises(ValueError, match=f"^{what} cardinalities must be >= 1$"):
        SearchConfig(seed=0, **{field: {"Th": 0}})


def _vci_scan(names):
    return _Scan(rule_set("VCI_STRONG"), Universe.of(decision=names), "d")


def _per_map_report(names, maps):
    """Each decision map run through _vci_model on its own scan, so no
    joint range is ever shared; the per-rule tallies are summed."""
    tally = dict.fromkeys(rule_set("VCI_STRONG").rules, 0)
    violations = []
    for trial, decmap in enumerate(maps):
        scan = _vci_scan(names)
        _vci_model(scan, trial, decmap)
        for r, c in scan.tally.items():
            tally[r] += c
        violations += scan.violations
    return dict(trials=len(maps), instances=sum(tally.values()),
                instances_by_rule=tally, violations=violations)


def _counts(rep):
    d = rep.to_dict()
    return {k: d[k] for k in ("trials", "instances", "instances_by_rule", "violations")}


def test_vci_range_memo_matches_per_map_scans():
    names = ("A", "B", "C")
    maps = [decmap for decmap, _ in exhaustive_maps(names, 3)]
    assert len(maps) == 8 + 64 + 512
    rep = exhaustive_vci_scan(max_regimes=3, n_vars=3)
    assert _counts(rep) == _per_map_report(names, maps)
    assert rep.instances_by_rule["P6"] == 634016  # counted pair by pair

    cfg = SearchConfig(seed=6, trials=40, var_cardinalities={"A": 2, "B": 2, "C": 2},
                       regime_count=4)
    rep = axiom_soundness_scan(cfg, rule_set("VCI_STRONG"))
    maps = [random_decmap(cfg, t) for t in range(cfg.trials)]
    assert _counts(rep) == _per_map_report(names, maps)
    assert rep.instances_by_rule["P6"] == 19457


def test_vci_range_memo_replays_violations(monkeypatch):
    # An unsound P3 that drops the conditioning slot; the second map is the
    # first with its regimes rotated, so both have one joint range.
    sound_unary = _Engine.unary

    def unary(self, name, k):
        yield from sound_unary(self, name, k)
        if name == "P3" and k[5]:
            yield (k[0], k[1], k[2], k[3], k[4], 0), ""

    monkeypatch.setattr(_Engine, "unary", unary)
    names = ("A", "B", "C")
    first = {"A": {"s0": "0", "s1": "1", "s2": "1"},
             "B": {"s0": "0", "s1": "1", "s2": "0"},
             "C": {"s0": "1", "s1": "0", "s2": "0"}}
    second = {n: {"s0": f["s2"], "s1": f["s0"], "s2": f["s1"]} for n, f in first.items()}
    scan = _vci_scan(names)
    _vci_model(scan, 0, first)
    once, tally = list(scan.violations), dict(scan.tally)
    assert once and {v["rule"] for v in once} == {"P3"}
    _vci_model(scan, 7, second)
    assert scan.violations == once + [{**v, "trial": 7} for v in once]
    assert scan.tally == {r: 2 * c for r, c in tally.items()}
    fresh = _vci_scan(names)
    _vci_model(fresh, 7, second)
    assert fresh.violations == scan.violations[len(once):]


def test_vci_normalized_verdicts_equal_raw_ones(monkeypatch):
    """The scan's VCI verdicts, asked once per partition ids of (x & ~z,
    y & ~z, z) on one scan, equal variation_independent on the raw slots for
    every key of every map of three binary variables on at most three regimes.
    Only the truth tables, expanded from the class verdicts, are compared."""
    tables = _spy_models(monkeypatch)
    names = ("A", "B", "C")
    scan = _vci_scan(names)
    seen = set()
    for trial, (decmap, regimes) in enumerate(exhaustive_maps(names, 3)):
        _close_vci(scan, trial, dec_kernel(decmap, names, regimes))
        cols = [[tuple(decmap[n][s] for n in names if m >> names.index(n) & 1) for s in regimes]
                for m in range(8)]
        for k, ok in _truth(scan, tables[-1][3]).items():
            assert ok == variation_independent(cols[k[1]], cols[k[3]], cols[k[5]]), (decmap, k)
            seen.add((ok, bool((k[1] | k[3]) & k[5])))
    assert len(tables) == 584 and len(seen) == 4


def _oracle_maps(names):
    """Every map of the names on at most three regimes, then on four regimes
    the first map of each raw range."""
    yield from exhaustive_maps(names, 3)
    seen = set()
    for decmap, regimes in exhaustive_maps(names, 4):
        if len(regimes) == 4 and (r := frozenset(zip(*(decmap[n].values() for n in names)))) not in seen:
            seen.add(r)
            yield decmap, regimes


def test_vci_verdicts_match_the_definition(monkeypatch):
    """The scan's class verdicts, read from codes of the relabeled range
    (closed once per range), on every statement over three binary decision
    variables, and check_vci on every one in normal form (X and Y nonempty
    and disjoint from Z), against ``brute_vci`` on each map of
    ``_oracle_maps``.  check_vci on the other statements is
    variation_independent on raw slots, which
    test_vci_normalized_verdicts_equal_raw_ones compares with the scan."""
    names = ("A", "B", "C")
    slots = [mask_names(m, names) for m in range(8)]
    tables, scan, maps, ranges = _spy_models(monkeypatch), _vci_scan(names), 0, {}
    for decmap, regimes in _oracle_maps(names):
        if (key := _range(scan, decmap)) not in ranges:
            _close_vci(scan, len(ranges), dec_kernel(decmap, names, regimes))
            ranges[key] = _truth(scan, tables[-1][3])
        truth, maps = ranges[key], maps + 1
        cols = [tuple(tuple(decmap[n][s] for n in slot) for s in regimes) for slot in slots]
        for x, y, z in product(range(1, 8), range(1, 8), range(8)):
            want = brute_vci(cols[x], cols[y], cols[z])
            assert truth[(0, x, 0, y, 0, z)] == want, (decmap, x, y, z)
            if not (x | y) & z:
                assert check_vci(decmap, slots[x], slots[y], slots[z], regimes) == want
    assert maps == 584 + 162 and len(ranges) == 64


@pytest.mark.parametrize("max_regimes, maps, ranges", [(2, 72, 8), (4, 4680, 64)])
def test_vci_scan_closes_each_range_once(monkeypatch, max_regimes, maps, ranges):
    # One close per joint range up to renaming each variable's values,
    # counted by brute force: each name's values numbered in order of first
    # appearance over the regimes.  The raw ranges, the nonempty subsets of
    # {0,1}^3 with at most s elements, are more (36 and 162).
    calls = []
    model = _Scan.model

    def counted(self, *args, **kw):
        calls.append(args[0])
        return model(self, *args, **kw)

    monkeypatch.setattr(_Scan, "model", counted)
    rep = exhaustive_vci_scan(max_regimes=max_regimes, n_vars=3)
    assert rep.ok and rep.trials == maps
    raw, relabeled = set(), set()
    for decmap, regimes in exhaustive_maps(("A", "B", "C"), max_regimes):
        fs = [decmap[n] for n in ("A", "B", "C")]
        raw.add(frozenset(zip(*(map(f.get, regimes) for f in fs))))
        relabeled.add(frozenset(zip(*([[*dict.fromkeys(f.values())].index(f[s]) for s in regimes]
                                       for f in fs))))
    assert len(calls) == ranges == len(relabeled)
    assert len(raw) == sum(comb(8, i) for i in range(1, max_regimes + 1)) > ranges


def test_vci_scan_kernels_do_not_outlive_the_call():
    """A VCI scan compiles each range it closes outside dec_kernel's
    process-wide cache: the range memo lasts one call, and so do its kernels."""
    models._compiled.cache_clear()
    assert exhaustive_vci_scan(max_regimes=3, n_vars=2).ok
    assert models._compiled.cache_info().currsize == 0


@pytest.mark.parametrize("meet", ["sound", "one block"])
def test_vci_range_memo_replays_what_a_fresh_scan_closes(monkeypatch, meet):
    # Per map of exhaustive_vci_scan(3, 3), on one scan: the tally delta and
    # violations the memo adds, closing or replaying, equal those of a fresh
    # scan closing that map alone.  A one-block meet makes P6 unsound, so
    # replayed violations are checked too; statements are rendered once.
    if meet == "one block":
        monkeypatch.setattr(search, "block_meet", lambda a, b: (0,) * len(a))
    names = ("A", "B", "C")
    scan, replayed = _vci_scan(names), 0
    monkeypatch.setattr(_Scan, "render", lambda self, k, render=cache(scan.render): render(k))
    for trial, (decmap, _) in enumerate(exhaustive_maps(names, 3)):
        before, start = dict(scan.tally), len(scan.violations)
        replayed += _range(scan, decmap) in scan.ranges
        _vci_model(scan, trial, decmap)
        fresh = _vci_scan(names)
        _vci_model(fresh, trial, decmap)
        assert {r: c - before[r] for r, c in scan.tally.items()} == fresh.tally
        assert scan.violations[start:] == fresh.violations
    assert replayed == 584 - len(scan.ranges) and len(scan.ranges) == 29
    assert bool(scan.violations) == (meet == "one block")


def _canonical(labels) -> tuple:
    """The labels renumbered by first appearance: one tuple per partition."""
    first: dict = {}
    return tuple(first.setdefault(v, len(first)) for v in labels)


def _canonical_partitions(n: int) -> list:
    """Every partition of n points as its restricted-growth tuple."""
    return sorted({_canonical(t) for t in product(range(n), repeat=n)})


def _brute_meet(a: tuple, b: tuple) -> tuple:
    """The finest partition that both a and b refine: points joined while
    some point they share a block with, in a or b, has a lower block."""
    comp = list(range(len(a)))
    while True:
        new = [min(comp[j] for j in range(len(a))
                   if a[i] == a[j] or b[i] == b[j] or comp[i] == comp[j]) for i in range(len(a))]
        if new == comp:
            return _canonical(comp)
        comp = new


def test_vci_answers_depend_on_the_partitions_alone():
    """The VCI scans decide range tests and meets once per canonical
    partition (labels numbered by first appearance).  For every triple of
    partitions of 1 to 4 points, variation_independent on the canonical
    labels, on a relabeled copy (each slot by another bijection, none of
    them order-preserving) and brute_vci agree; block_meet on relabeled
    inputs gives the same canonical partition, the finest that both refine."""
    relabel = (lambda v: f"v{9 - v}", lambda v: 7 - 3 * v, lambda v: (v % 2, -v))
    for n, count in zip(range(1, 5), (1, 2, 5, 15)):
        parts = _canonical_partitions(n)
        assert len(parts) == count
        for triple in product(parts, repeat=3):
            copy = [tuple(map(f, t)) for f, t in zip(relabel, triple)]
            assert variation_independent(*triple) == variation_independent(*copy) == brute_vci(
                *triple), triple
        for a, b in product(parts, repeat=2):
            meet = _canonical(block_meet(a, b))
            copy = [tuple(map(f, t)) for f, t in zip(relabel, (a, b))]
            assert _canonical(block_meet(*copy)) == meet == _brute_meet(a, b), (a, b)


def test_vci_scan_asks_each_partition_question_once_per_call(monkeypatch):
    """exhaustive_vci_scan(3, 4), on at most three regimes, whose points
    have 1, 2 and 5 partitions: at most 1 + 2**3 + 5**3 range tests and
    1 + 2**2 + 5**2 meets, each call starting from empty partition tables
    (so a second call makes the same calls again)."""
    calls = Counter()
    for name in ("variation_independent", "block_meet"):
        f = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *a, f=f, name=name: calls.update([name]) or f(*a))
    scans, close = [], search._close_vci

    def spy(scan, trial, dec):
        if all(s is not scan for s in scans):
            scans.append(scan)
            assert scan.parts == [] and scan.ids == scan.vci == scan.meets == {}
        close(scan, trial, dec)

    monkeypatch.setattr(search, "_close_vci", spy)
    first = exhaustive_vci_scan(max_regimes=3, n_vars=4)
    once = dict(calls)
    assert 0 < once["variation_independent"] <= 134 and 0 < once["block_meet"] <= 30
    calls.clear()
    assert exhaustive_vci_scan(max_regimes=3, n_vars=4) == first and first.ok
    assert dict(calls) == once and len(scans) == 2


def test_eci_scan_small_clean():
    cfg = SearchConfig(seed=7, trials=6, var_cardinalities={"X": 2, "Y": 2},
                       regime_count=2, probability_grid=2,
                       decision_cardinalities={"Theta": 2})
    rs = rule_set("ECI_RESTRICTED", ["discrete_variables", "dominating_regime"])
    rep = axiom_soundness_scan(cfg, rs)
    assert rep.ok and rep.instances > 1000
    assert all(rep.instances_by_rule[r] > 0 for r in rs.rules)


@pytest.mark.parametrize("rules, cfg", [
    ("SEPAROID_FULL", SearchConfig(seed=5, trials=25, var_cardinalities={"A": 2, "B": 2, "C": 2},
                                   probability_grid=3)),
    ("ECI_RESTRICTED", SearchConfig(seed=7, trials=6, var_cardinalities={"X": 2, "Y": 2},
                                    regime_count=2, probability_grid=2,
                                    decision_cardinalities={"Theta": 2})),
])
def test_scan_runs_the_engines_rules(monkeypatch, rules, cfg):
    # A deliberately unsound P3 / P3' that also drops the stochastic
    # conditioning slot must be caught, so the scan checks the engine itself.
    sound_unary = _Engine.unary
    mutated = "P3" if rules == "SEPAROID_FULL" else "P3'"

    def unary(self, name, k):
        yield from sound_unary(self, name, k)
        if name == mutated and k[4]:
            yield (k[0], k[1], k[2], k[3], 0, k[5]), ""

    monkeypatch.setattr(_Engine, "unary", unary)
    rep = axiom_soundness_scan(cfg, rule_set(rules))
    assert rep.violations
    assert {v["rule"] for v in rep.violations} == {mutated}
    v = rep.violations[0]
    assert set(v) == {"trial", "rule", "premises", "conclusion"}
    assert len(v["premises"]) == 1 and isinstance(v["conclusion"], str)


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _unsound_p3(monkeypatch, where=None, slot=4):
    """P3, P3' and P3g that also drop the stochastic conditioning part (the
    decision one with ``slot`` 5), on the premises ``where`` admits (every
    premise when it is None)."""
    sound_unary = _Engine.unary

    def unary(self, name, k):
        yield from sound_unary(self, name, k)
        if name in ("P3", "P3'", "P3g") and k[slot] and (where is None or where(k)):
            yield k[:slot] + (0,) + k[slot + 1:], ""

    monkeypatch.setattr(_Engine, "unary", unary)


MUTATED_SCANS = [
    ("SEPAROID_FULL", "P3", SearchConfig(seed=5, trials=25, var_cardinalities={"A": 2, "B": 2, "C": 2},
                                         probability_grid=3),
     488, "e9f55d7ace8827721b36423a4c655ff61e4e34354e93f64acf02325242cbb4fe"),
    ("ECI_RESTRICTED", "P3'", SearchConfig(seed=7, trials=6, var_cardinalities={"X": 2, "Y": 2},
                                           regime_count=2, probability_grid=2,
                                           decision_cardinalities={"Theta": 2}),
     1092, "00f808d1e00be3b850a1259481dde9e85be0d5b4b9e9e28fdbcabde2a36fdec2"),
]
# The digests of the same violations sorted, which closing each model from
# a fresh engine over its true keys gave before the table named them.
SORTED_VIOLATIONS = {
    "SEPAROID_FULL": "1a917a3630e1f4502054db5547841add2dcaa76658a71d084af38ef46c696707",
    "ECI_RESTRICTED": "0c9e924c485737c087901b40004e5337b95a2f9cb54cb0bbd2601bfd2c27e6fe",
}


def _sorted_digest(violations: list) -> str:
    return _digest(sorted(violations, key=lambda v: json.dumps(v, sort_keys=True)))


@pytest.mark.parametrize("rules, mutated, cfg, instances, violations", MUTATED_SCANS)
def test_mutated_scan_keeps_its_violations_in_order(monkeypatch, rules, mutated, cfg,
                                                    instances, violations):
    # The scans of test_scan_runs_the_engines_rules: every violation, in the
    # order of axiom_soundness_scan (per admitted union, its spontaneous
    # instances, then its always-true keys, then its true asked keys).
    _unsound_p3(monkeypatch)
    rep = axiom_soundness_scan(cfg, rule_set(rules))
    assert {v["rule"] for v in rep.violations} == {mutated}
    assert rep.instances == instances
    assert _digest(rep.violations) == violations
    assert _sorted_digest(rep.violations) == SORTED_VIOLATIONS[rules]


def test_warm_always_true_slots_cannot_hide_an_unsound_rule(monkeypatch):
    # The always-true slot entries kept with the sound engine's listings are
    # not reused for a mutated one, whose unsound conclusions come from
    # trivial premises only.
    monkeypatch.setattr(search, "_DOMAINS", {})
    for rules, _, cfg, _, _ in MUTATED_SCANS:
        assert axiom_soundness_scan(cfg, rule_set(rules)).ok
    assert all(any(counts for _, counts, *_ in _always_entries(listing).values())
               for listing in search._DOMAINS.values())
    _unsound_p3(monkeypatch, where=_r_triv)
    for rules, mutated, cfg, _, _ in MUTATED_SCANS:
        rep = axiom_soundness_scan(cfg, rule_set(rules))
        assert rep.violations
        assert {v["rule"] for v in rep.violations} == {mutated}


def _nontrivial(k: tuple) -> bool:
    return not (_r_triv(k) or _l_triv(k))


@pytest.mark.parametrize("where", [None, _nontrivial])
def test_warm_unary_tables_cannot_hide_an_unsound_rule(monkeypatch, where):
    # Tables of unary conclusions filled by the sound engine are not reused
    # for a mutated one: its scans give the reports of a run with every
    # process memo emptied, and the violations pinned cold.  Mutated on
    # non-trivial premises only, its violations are met only where a model's
    # close reads the tables.
    def run():
        return [axiom_soundness_scan(cfg, rule_set(rules)) for rules, _, cfg, _, _ in MUTATED_SCANS]

    monkeypatch.setattr(search, "_DOMAINS", {})
    assert all(rep.ok for rep in run())
    assert all(listing[-1] for listing in search._DOMAINS.values())
    _unsound_p3(monkeypatch, where)
    warm = run()
    assert len(search._DOMAINS) == 2 * len(MUTATED_SCANS)
    monkeypatch.setattr(search, "_DOMAINS", {})
    assert [rep.to_dict() for rep in warm] == [rep.to_dict() for rep in run()]
    for rep, (_, mutated, _, instances, violations) in zip(warm, MUTATED_SCANS):
        assert {v["rule"] for v in rep.violations} == {mutated}
        if where is None:
            assert rep.instances == instances
            assert _digest(rep.violations) == violations


def _unsound_p5(monkeypatch):
    """The P5 family's conclusions with the stochastic conditioning part of
    the first premise dropped.  A first premise is never trivial, so every
    unsound instance is met where a model's close reads the pair tables."""
    sound = _Engine._p5_combine

    def combine(self, s1, s2, pure_w):
        ck = sound(self, s1, s2, pure_w)
        assert _nontrivial(s1)
        return ck[:4] + (0, ck[5]) if ck is not None and s1[4] else ck

    monkeypatch.setattr(_Engine, "_p5_combine", combine)


def test_warm_pair_tables_cannot_hide_an_unsound_rule(monkeypatch):
    # Pair tables filled by the sound engine are not reused for one whose
    # P5 family is unsound: its scans give the reports of a run with every
    # process memo emptied, and only the P5-family rule is named.
    def run():
        return [axiom_soundness_scan(cfg, rule_set(rules)) for rules, _, cfg, _, _ in MUTATED_SCANS]

    monkeypatch.setattr(search, "_DOMAINS", {})
    assert all(rep.ok for rep in run())
    assert all(any(layers for *_, layers, _ in listing[-1].values())
               for listing in search._DOMAINS.values())
    _unsound_p5(monkeypatch)
    warm = run()
    assert len(search._DOMAINS) == 2 * len(MUTATED_SCANS)
    monkeypatch.setattr(search, "_DOMAINS", {})
    assert [rep.to_dict() for rep in warm] == [rep.to_dict() for rep in run()]
    assert [{v["rule"] for v in rep.violations} for rep in warm] == [{"P5"}, {"P5'"}]
    assert all(len(v["premises"]) == 2 for rep in warm for v in rep.violations)


# ScanReport.to_dict() digests of the MUTATED_SCANS configs under
# _unsound_p5, as a close that named each violating pair by enumerating the
# first premise's pairs again gave them.
P5_MUTATED_REPORTS = {
    "SEPAROID_FULL": "b224d58b44344c8674513ef2ff4336c84b9bd6d5c10d632fad51db397be4a4c2",
    "ECI_RESTRICTED": "b4fda48d981aa49ddef363f306bf9fe1e0b41864c1c8ee3ad6b994bb08c88cf5",
}


def test_warm_scan_enumerates_no_rule_instance(monkeypatch):
    # After a warm run, a sound scan reads every instance it meets from the
    # listing and its class table: with the listing engines' unary and
    # binary rules made to raise, the pinned scans give their reports again.
    # Only a model with a violation draws instances, to name them: the
    # P5-mutated scans give their pinned reports cold and warm.
    def run(scans):
        return {name: _digest(scan().to_dict()) for name, scan in scans.items()}

    def enumerate_instances(*args):
        raise AssertionError("a warm scan enumerated rule instances")

    pinned = {name: digest for name, (_, digest, _) in PINNED_REPORTS.items()}
    scans = {name: scan for name, (scan, _, _) in PINNED_REPORTS.items()}
    monkeypatch.setattr(search, "_DOMAINS", {})
    assert run(scans) == pinned
    assert all(listing[-1] for listing in search._DOMAINS.values())
    for listing in search._DOMAINS.values():
        listing[-2].unary = listing[-2].binary = enumerate_instances
    assert run(scans) == pinned
    _unsound_p5(monkeypatch)
    scans = {rules: lambda cfg=cfg, rules=rules: axiom_soundness_scan(cfg, rule_set(rules))
             for rules, _, cfg, _, _ in MUTATED_SCANS}
    assert run(scans) == P5_MUTATED_REPORTS
    assert run(scans) == P5_MUTATED_REPORTS


_ECI_FLAGS = ("discrete_variables", "dominating_regime")


def _scan(rules, flags=(), **cfg):
    return lambda: axiom_soundness_scan(SearchConfig(**cfg), rule_set(rules, flags))


# ScanReport.to_dict() digests from expanding every true key of every model
# in domain order, and whether some model of the scan has a false trivial
# key.  In the two-regime ECI_RESTRICTED and GENERAL scans, models with one
# set of admitted unions differ in which decision-free trivial keys are
# false.
PINNED_REPORTS = {
    "SEPAROID_FULL": (_scan("SEPAROID_FULL", seed=5, trials=25, probability_grid=3,
                            var_cardinalities={"A": 2, "B": 2, "C": 2}),
                      "35b25fd302125a8f24da08a38dca671976daf2cb44490424d8f5ca59cdf0b3e4", False),
    "ECI_RESTRICTED-2": (_scan("ECI_RESTRICTED", _ECI_FLAGS, seed=2, trials=8, regime_count=2,
                               probability_grid=3, var_cardinalities={"X": 2, "Y": 2},
                               decision_cardinalities={"Theta": 2}),
                         "8f528e65a348a763bc058010ca86b9bc758edd13637642cd4cc2be453c2b6961", True),
    "ECI_RESTRICTED-3": (_scan("ECI_RESTRICTED", _ECI_FLAGS, seed=3, trials=8, regime_count=3,
                               probability_grid=3, var_cardinalities={"X": 2, "Y": 2},
                               decision_cardinalities={"Theta": 2}),
                         "fbb16f9e241ba39faba89fd25e676f9692a0f27b37fb9c2559c86e309491ff46", True),
    "GENERAL": (_scan("GENERAL", ("discrete_variables",), seed=2, trials=8, regime_count=2,
                      probability_grid=3, var_cardinalities={"X": 2, "Y": 2},
                      decision_cardinalities={"Theta": 2}),
                "1a401802756914f517d4be0cdb5472e99ab843ea44379edc49f5d5d37d068216", True),
    # P4'' licensed per model: dominating_regime is the only flag
    "ECI_RESTRICTED-dominating": (_scan("ECI_RESTRICTED", ("dominating_regime",), seed=2, trials=8,
                                        regime_count=2, probability_grid=3,
                                        var_cardinalities={"X": 2, "Y": 2},
                                        decision_cardinalities={"Theta": 2}),
                                  "676c5cb425f9de3f851522c623d84394f0a35c90eba7ba863d6ea0e601ece64f",
                                  True),
    "VCI_STRONG": (_scan("VCI_STRONG", seed=6, trials=40, regime_count=4,
                         var_cardinalities={"A": 2, "B": 2, "C": 2}),
                   "1dfbfba533162be32e7acdb6a4bbe9b8b3c9fb679775991cd62afd02acf942a5", False),
    "exhaustive-VCI": (lambda: exhaustive_vci_scan(max_regimes=2, n_vars=3),
                       "db2c03e3cc34f092d9b8823dc24bc71b4c9cfd3a56013852859066f55c44879c", False),
}


@pytest.mark.parametrize("name", PINNED_REPORTS)
def test_scan_reports_equal_cold_and_warm(monkeypatch, name):
    scan, digest, false_trivial = PINNED_REPORTS[name]
    monkeypatch.setattr(search, "_DOMAINS", {})
    seen = _spy_models(monkeypatch)
    assert _digest(scan().to_dict()) == digest
    assert any(not ok for model_scan, _, complementary, verdicts in seen
               for k, ok in _truth(model_scan, verdicts, complementary).items()
               if not _nontrivial(k)) == false_trivial
    assert _digest(scan().to_dict()) == digest


def test_always_true_slots_are_bounded(monkeypatch):
    # Each union's always-true slot entry is kept in the domain's class
    # table, so the entries are bounded by _DOMAINS_MAX and go with their
    # listing: a scan over another domain evicts them, and they are built
    # again, giving the same report.
    scan, digest, _ = PINNED_REPORTS["ECI_RESTRICTED-2"]
    monkeypatch.setattr(search, "_DOMAINS", {})
    monkeypatch.setattr(search, "_DOMAINS_MAX", 1)
    assert _digest(scan().to_dict()) == digest
    [listing] = search._DOMAINS.values()
    always = _always_entries(listing)
    assert always.keys() == listing[0].keys() and all(c for _, c, *_ in always.values())
    PINNED_REPORTS["GENERAL"][0]()
    [other] = search._DOMAINS.values()
    assert other is not listing
    assert _digest(scan().to_dict()) == digest
    [again] = search._DOMAINS.values()
    assert again is not listing and _always_entries(again) == always


def test_trivial_closure_is_kept_per_set_of_true_trivial_keys(monkeypatch):
    # Truth tables fed to _Scan.model directly, on the decision-free union of
    # a mixed-mode domain, where a right-trivial key can be false (one law
    # across the regimes): every key holds on trial 0; on trial 1 only the
    # trivial keys do, but for A _||_ B | B,C, which P3' concludes from the
    # trivial A _||_ B,C | B,C alone.  Both are asked keys, read from the
    # table.  Trial 1 must not reuse trial 0's close: it gives what it gives
    # on a scan of its own.
    false = (1, 0, 2, 0, 6, 0)

    def run(trials):
        scan = _Scan(rule_set("ECI_RESTRICTED"),
                     Universe.of(stochastic=("A", "B", "C"), decision=("Sigma",)))
        for t in trials:
            scan.model(t, lambda k: t == 0 or k != false and (_r_triv(k) or _l_triv(k)),
                       complementary=lambda u: u == 0)
        return scan

    both, first, second = run([0, 1]), run([0]), run([1])
    assert not first.violations
    assert both.violations == second.violations
    assert [(v["rule"], v["premises"], v["conclusion"]) for v in both.violations] == [
        ("P3'", ["A _||_ B,C | B,C"], "A _||_ B | B,C")]
    assert both.tally == {r: first.tally[r] + second.tally[r] for r in both.tally}


def test_domain_listings_are_bounded(monkeypatch):
    # Each pinned scan, with the process memo emptied, gives its digest cold
    # and again warm, and the warm run reuses the listing.  With room for one
    # listing, a scan over another domain evicts it.
    monkeypatch.setattr(search, "_DOMAINS_MAX", 1)
    domains = []
    for name, (scan, digest, _) in PINNED_REPORTS.items():
        monkeypatch.setattr(search, "_DOMAINS", {})
        assert _digest(scan().to_dict()) == digest, name
        [(domain, listing)] = search._DOMAINS.items()
        assert _digest(scan().to_dict()) == digest, name
        assert search._DOMAINS == {domain: listing} and search._DOMAINS[domain] is listing
        domains.append(domain)
    assert len(set(domains)) == 5  # ECI_RESTRICTED-2/-3 and the two VCI scans share theirs
    for name, (scan, digest, _) in PINNED_REPORTS.items():
        assert _digest(scan().to_dict()) == digest, name
        assert len(search._DOMAINS) == 1


def _listed_ids(scan) -> dict:
    """Each listed key's class id, from the listing's own classes."""
    return {k: scan.base[u] + c for u, ks in scan.keys.items()
            for k, c in zip(ks, scan.classes[u])}


def _class_entry(scan, ids: dict, members: list, spontaneous=()) -> tuple:
    """A slot's table entry as the spontaneous instances given and then
    ``expand`` on its keys give it, with each conclusion and second premise
    the bit of its class: unary conclusion bits and counts, pair conclusion
    bits, each pair conclusion bit's second-premise bits, each pair rule's
    second premises with their multiplicities, and the flag-gated rules'
    conclusion bits and counts."""
    need = pneed = gneed = 0
    counts, gcounts, seconds, pairs = Counter(), Counter(), {}, {}
    instances = [(rule, (), ck) for rule, ck in spontaneous]
    instances += [(rule, premises, ck)
                  for k in members for rule, premises, ck, _ in scan.eng.expand(k)]
    for rule, premises, ck in instances:
        c = 1 << ids[ck]
        if len(premises) == 2:
            t = ids[premises[1]]
            pneed |= c
            pairs[c] = pairs.get(c, 0) | 1 << t
            seconds.setdefault(rule, Counter())[t] += 1
        elif rule in search._GATED:
            gneed, gcounts[rule] = gneed | c, gcounts[rule] + 1
        else:
            need, counts[rule] = need | c, counts[rule] + 1
    return need, counts, pneed, pairs, seconds, gneed, gcounts


def test_unary_tables_hold_listed_keys_and_go_with_their_listing(monkeypatch):
    # The class table is keyed by the ids of true slots, and class_id gives
    # every listed key the id the listing gave its class (one past the ids
    # for a key outside the listing).  Each entry holds what expand yields on
    # the slot's keys, after the spontaneous instances of its union for an
    # always-true slot, every conclusion and second premise a listed key
    # given as its class's bit; a pair rule's layer (rule, j, bits) holds
    # the second premises whose multiplicity has bit j.  A second premise
    # the P5 family synthesizes (an implicit tautology) lies in its first
    # premise's decision union and is always true there, so it is that
    # union's always-true bit; indexed second premises occur too.  A scan
    # whose models have no true non-trivial key stores only its always-true
    # slots; with room for one listing, a table is dropped with its listing
    # and filled again.
    monkeypatch.setattr(search, "_DOMAINS", {})
    for name in PINNED_REPORTS:
        PINNED_REPORTS[name][0]()
    assert len(search._DOMAINS) == 5
    seconds = set()
    for rs, s_names, d_names, mode, _ in list(search._DOMAINS):
        scan = _Scan(rs, Universe.of(stochastic=s_names, decision=d_names), mode)
        ids, asked = _listed_ids(scan), _asked(scan)
        assert all(scan.class_id(k) == g for k, g in ids.items())
        assert scan.class_id(next(iter(ids))[:2] + (0, 0) + next(iter(ids))[4:]) == scan.width
        assert scan.table
        for g, (need, counts, pneed, pairs, layers, gated) in scan.table.items():
            u = max((b, u) for u, b in scan.base.items() if b <= g)[1]
            members = [k for k in scan.keys[u] if ids[k] == g]
            always = scan.base[u] + len(scan.reps[u])
            assert g <= always and all((k in asked[u]) == (g < always) for k in members)
            # P4''/P4g are licensed per class
            assert len({k[5] for k in members}) == 1 or g == always
            spontaneous = [(r, ck) for r, ck in scan.eng.spontaneous()
                           if g == always and ck[1] | ck[3] | ck[5] == u]
            want = _class_entry(scan, ids, members, spontaneous)
            assert (need, dict(counts), pneed, dict(pairs)) == want[:4]
            multiplicities: dict = {}
            for rule, j, layer in layers:
                for t in range(scan.width):
                    if layer >> t & 1:
                        seen = multiplicities.setdefault(rule, Counter())
                        seen[t] += 1 << j
            assert multiplicities == want[4]
            cond = members[0][5]
            assert (gated or (cond, 0, ())) == (cond, want[5], tuple(want[6].items()))
            for k in members:
                for _, premises, _, _ in scan.eng.expand(k):
                    if len(premises) == 2:
                        synthesized = scan.eng.implicit(premises[1])
                        assert not synthesized or ids[premises[1]] == always
                        seconds.add(synthesized)
    assert seconds == {True, False}
    cfg = SearchConfig(seed=1, trials=10, var_cardinalities={"A": 2, "B": 2, "C": 2},
                       probability_grid=20)
    monkeypatch.setattr(search, "_DOMAINS", {})
    assert axiom_soundness_scan(cfg, rule_set("SEPAROID_FULL")).ok
    [listing] = search._DOMAINS.values()
    assert len(listing[-1]) == len(_always_entries(listing)) == len(listing[0])
    monkeypatch.setattr(search, "_DOMAINS_MAX", 1)
    first, second = PINNED_REPORTS["SEPAROID_FULL"][0], PINNED_REPORTS["GENERAL"][0]
    first()
    [(domain, listing)] = search._DOMAINS.items()
    table = dict(listing[-1])
    assert table
    second()
    assert domain not in search._DOMAINS and len(search._DOMAINS) == 1
    first()
    assert search._DOMAINS[domain][-1] == table and search._DOMAINS[domain] is not listing


def test_changed_legality_gets_its_own_listing(monkeypatch):
    # A warm listing is not reused for an engine whose legality admits fewer
    # keys: the scan lists the patched engine's domain afresh.
    universe = Universe.of(stochastic=("A", "B", "C"))
    warm = _Scan(rule_set("SEPAROID_FULL"), universe, "s")
    legal = _Engine.legal
    monkeypatch.setattr(_Engine, "legal", lambda self, k: legal(self, k) and k[0] != k[2])
    scan = _Scan(rule_set("SEPAROID_FULL"), universe, "s")
    assert scan.domain != warm.domain
    assert {warm.domain, scan.domain} <= set(search._DOMAINS)
    for old, new in ((warm.keys, scan.keys), (_asked(warm), _asked(scan))):
        assert new == {u: tuple(k for k in ks if k[0] != k[2]) for u, ks in old.items()}
    assert sum(map(len, scan.keys.values())) < sum(map(len, warm.keys.values()))


def test_p6_violations_keep_their_order(monkeypatch):
    # A meet of one block makes P6 unsound.  The violations of the random and
    # exhaustive VCI scans, in order, as the scans listed them when every
    # second premise was looked up afresh for each first one.
    monkeypatch.setattr(search, "block_meet", lambda a, b: (0,) * len(a))
    violations = []
    for seed in range(3):
        cfg = SearchConfig(seed=seed, trials=20, var_cardinalities={"A": 2, "B": 2, "C": 2},
                           regime_count=3)
        violations += axiom_soundness_scan(cfg, rule_set("VCI_STRONG")).violations
    violations += exhaustive_vci_scan(max_regimes=3, n_vars=3).violations
    assert len(violations) == 2369 and {v["rule"] for v in violations} == {"P6"}
    assert _digest(violations) == "40377dd06e4b40185c4370e6d476c899dabeef3df069be3f73583083b88b5d19"


def test_p6_partial_meet_mutation_keeps_its_violations_and_counts(monkeypatch):
    # A meet of one block only for two different label lists, so within one
    # model some (X, Y) have only sound meets and others do not: the scans
    # count P6 per (X, Y) and list the violations of the unsound ones.  The
    # lists are canonical partitions (labels numbered by first appearance),
    # so the hook gives one block exactly when Z and W induce different
    # partitions of the regimes.  The trials, P6 counts and digests are
    # pinned from this hook.
    meet = search.block_meet
    monkeypatch.setattr(search, "block_meet",
                        lambda a, b: (0,) * len(a) if a != b else meet(a, b))
    reports = []
    for seed in range(3):
        cfg = SearchConfig(seed=seed, trials=20, var_cardinalities={"A": 2, "B": 2, "C": 2},
                           regime_count=3)
        reports.append(axiom_soundness_scan(cfg, rule_set("VCI_STRONG")))
    reports.append(exhaustive_vci_scan(max_regimes=3, n_vars=3))
    violations = [v for r in reports for v in r.violations]
    assert [r.trials for r in reports] == [3, 1, 1, 83]
    assert [r.instances_by_rule["P6"] for r in reports] == [5493, 460, 577, 160976]
    assert len(violations) == 404 and {v["rule"] for v in violations} == {"P6"}
    assert _digest(violations) == "8133c3cdec61692dbd86e77df21c32de7fbe753606b977016b4a11fcd282483a"
    assert _digest([r.to_dict() for r in reports]) == (
        "1e76bf20c56695256d60f92ba82b7ffb7e283aa632eae904ce7c02e5d42dbb65")


def _brute_p6(decmap, names, meet=block_meet) -> tuple:
    """P6 on one decision map from its per-regime labels alone: for every
    nonempty X and Y, the Z that are functions of Y with X _||_ Y | Z give
    len(Z's) ** 2 instances, one failing per pair (Z, W) of them without
    X _||_ Y | meet(Z, W).  (instances, failing instances)."""
    regimes = list(decmap[names[0]])
    labels = [tuple(tuple(decmap[n][s] for n in mask_names(m, names)) for s in regimes)
              for m in range(1 << len(names))]
    count = failing = 0
    for x, y in product(labels[1:], labels[1:]):
        zs = [z for z in labels if len(set(zip(y, z))) == len(set(y))
              and variation_independent(x, y, z)]
        count += len(zs) ** 2
        failing += sum(not variation_independent(x, y, meet(z, w)) for z in zs for w in zs)
    return count, failing


@pytest.mark.parametrize("meet", ["sound", "one block"])
@pytest.mark.parametrize("regime_count", [4, 5])
def test_p6_counts_and_soundness_match_a_brute_force_oracle(monkeypatch, regime_count, meet):
    """The VCI scan's P6 count and violations, decided per partition id,
    against ``_brute_p6`` on seeded maps with a 3-valued name: per map on a
    fresh scan, and summed over the maps a soundness scan checks.  A
    one-block meet makes P6 unsound on every map, so the listing of the
    violations is checked too; a soundness scan stops after the first."""
    hook = block_meet if meet == "sound" else (lambda a, b: (0,) * len(a))
    monkeypatch.setattr(search, "block_meet", hook)
    names = ("A", "B", "C")
    cfg = SearchConfig(seed=regime_count, trials=30, var_cardinalities={"A": 3, "B": 2, "C": 2},
                       regime_count=regime_count)
    maps = [random_decmap(cfg, t) for t in range(cfg.trials)]
    oracle = [_brute_p6(decmap, names, hook) for decmap in maps]
    for trial, decmap in enumerate(maps):
        scan = _vci_scan(names)
        _vci_model(scan, trial, decmap)
        assert (scan.tally["P6"], len(scan.violations)) == oracle[trial], decmap
    rep = axiom_soundness_scan(cfg, rule_set("VCI_STRONG"))
    assert rep.ok == (meet == "sound") and rep.trials == (cfg.trials if rep.ok else 1)
    assert rep.instances_by_rule["P6"] == sum(c for c, _ in oracle[:rep.trials]) > 0
    assert len(rep.violations) == sum(f for _, f in oracle[:rep.trials])
    assert {v["rule"] for v in rep.violations} <= {"P6"}


def test_vci_scan_covers_every_range_of_three_binary_names():
    """Every nonempty set of points of three binary decision names, one
    regime per point, closed through _vci_model on one scan: 255 ranges,
    128 up to relabeling.  Each map on any finite regime space has one of
    these ranges, so VCI_STRONG is sound on all of them."""
    names, points = ("A", "B", "C"), list(product("01", repeat=3))
    scan = _vci_scan(names)
    for trial in range(1, 1 << len(points)):
        chosen = [pt for i, pt in enumerate(points) if trial >> i & 1]
        regimes = regime_labels(len(chosen))
        _vci_model(scan, trial, {n: dict(zip(regimes, col)) for n, col in zip(names, zip(*chosen))})
    assert len(scan.ranges) == 128 and scan.violations == []
    assert scan.tally == {"P1": 11858, "P2": 12495, "P3": 86094, "P4": 25832, "P5": 13974,
                          "P6": 133971}


def test_models_sharing_a_trivial_closure_share_no_index(monkeypatch):
    # One family of the pinned two-regime ECI_RESTRICTED scan, closed twice:
    # both models count their unions' always-true slots and true classes'
    # pairs (P5'' ones included) from the domain's class table.  Nothing of
    # the first close may carry over: the second counts the same again.
    cfg = SearchConfig(seed=2, trials=8, regime_count=2, probability_grid=3,
                       var_cardinalities={"X": 2, "Y": 2}, decision_cardinalities={"Theta": 2})
    fam = random_family(cfg, 2)
    scan = _Scan(rule_set("ECI_RESTRICTED", _ECI_FLAGS),
                 Universe.of(stochastic=("X", "Y"), decision=("Sigma", "Theta")))
    dec = scan.dec_sets
    holds = lambda k: fam.eci_general(k[0], dec[k[1]], k[2], dec[k[3]], k[4], dec[k[5]])  # noqa: E731
    tallies = []
    complementary = lambda u: u == 0 or check_complementary(fam, dec[u])  # noqa: E731
    for t in range(2):
        truth = _truth(scan, scan.model(t, holds, complementary), complementary)
        tallies.append(dict(scan.tally))
    assert not scan.violations
    assert any(truth[k] and _nontrivial(k) and "P5''" in {r for r, *_ in scan.table[scan.class_id(k)][4]}
               for ks in _asked(scan).values() for k in ks if k in truth)
    assert tallies[1] == {r: 2 * c for r, c in tallies[0].items()}


def test_no_engine_is_built_after_the_listing(monkeypatch):
    # An engine is built once per domain listing and never per model: not
    # for models where only trivial keys hold, nor for models that read
    # their true non-trivial keys from the domain's table, nor for a model
    # with a violation, which is named from the table too.  The first
    # report is the one pinned from an engine per model.
    cfg = SearchConfig(seed=1, trials=10, var_cardinalities={"A": 2, "B": 2, "C": 2},
                       probability_grid=20)
    built = []
    init = _Engine.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(_Engine, "__init__", counted)
    monkeypatch.setattr(search, "_DOMAINS", {})
    scan = _Scan(rule_set("SEPAROID_FULL"), Universe.of(stochastic=("A", "B", "C")), "s")
    nontrivial = [k for ks in _asked(scan).values() for k in ks]
    assert len(built) == 1 and nontrivial and all(map(_nontrivial, nontrivial))
    for t in range(cfg.trials):
        sci = random_distribution(cfg, t).kernel.sci
        assert not any(sci(k[0], k[2], k[4]) for k in nontrivial)
    built.clear()
    rep = axiom_soundness_scan(cfg, rule_set("SEPAROID_FULL"))
    always = {scan.base[u] + len(scan.reps[u]) for u in scan.keys}
    assert not built and scan.table.keys() == always
    assert _digest(rep.to_dict()) == "2f9de562b56b831ed624539b6478114dde27e98b6839bc24a9864beb161dacbf"
    pinned, digest, _ = PINNED_REPORTS["SEPAROID_FULL"]
    assert _digest(pinned().to_dict()) == digest
    assert not built and scan.table.keys() > always
    _unsound_p3(monkeypatch)
    for rules, _, cfg, instances, _ in MUTATED_SCANS:
        for run in ("cold", "warm"):
            built.clear()
            rep = axiom_soundness_scan(cfg, rule_set(rules))
            assert rep.violations and rep.instances == instances
            assert len(built) == (run == "cold")


def test_scan_stopped_early_reports_the_models_checked(monkeypatch):
    cfg = SearchConfig(seed=0, trials=10, var_cardinalities={"X": 2, "Y": 2},
                       regime_count=2, probability_grid=2,
                       decision_cardinalities={"Theta": 2})
    assert axiom_soundness_scan(cfg, rule_set("ECI_RESTRICTED")).trials == 10
    sound_unary = _Engine.unary

    def unary(self, name, k):  # P1' on decision-free statements
        yield from sound_unary(self, name, k)
        if name == "P1'" and not (k[1] | k[3] | k[5]) and k[2] & ~k[4] and k[0] & ~k[4]:
            yield (k[2], 0, k[0], 0, k[4], 0), ""

    monkeypatch.setattr(_Engine, "unary", unary)
    rep = axiom_soundness_scan(cfg, rule_set("ECI_RESTRICTED"))
    assert {v["trial"] for v in rep.violations} == {7}
    assert rep.trials == 8


def _spy_models(monkeypatch) -> list:
    """Record (scan, holds, complementary, class verdicts) of every
    _Scan.model call."""
    seen = []
    model = _Scan.model

    def spy(self, trial, holds, complementary=None, dominating=None):
        verdicts = model(self, trial, holds, complementary, dominating)
        seen.append((self, holds, complementary, verdicts))
        return verdicts

    monkeypatch.setattr(_Scan, "model", spy)
    return seen


def _truth(scan, verdicts, complementary=None) -> dict:
    """Each key of the unions complementary admits, in domain order, with
    its class's verdict from the bytes _Scan.model returns."""
    return {k: bool(verdicts[scan.base[u] + c]) for u, ks in scan.keys.items()
            if complementary is None or complementary(u) for k, c in zip(ks, scan.classes[u])}


def _asked(scan) -> dict:
    """Union -> its keys with a class of their own (asked keys), in domain
    order."""
    return {u: tuple(k for k, c in zip(ks, scan.classes[u]) if c < len(scan.reps[u]))
            for u, ks in scan.keys.items()}


def _always_entries(listing) -> dict:
    """Union -> the class-table entry of its always-true slot, for the
    unions whose slot has one, from a listing of ``search._DOMAINS``."""
    keys, reps, _, base, _, _, table = listing
    return {u: table[base[u] + len(reps[u])] for u in keys if base[u] + len(reps[u]) in table}


_XYZ = {"X": 2, "Y": 2, "Z": 2}
_ABCD = {"A": 2, "B": 2, "C": 2, "D": 2}
CLASS_SCANS = {
    "SEPAROID_FULL": _scan("SEPAROID_FULL", seed=3, trials=6, probability_grid=1,
                           var_cardinalities=_ABCD),
    "ECI_RESTRICTED-2": _scan("ECI_RESTRICTED", ("discrete_variables",), seed=3, trials=4,
                              regime_count=2, probability_grid=2, var_cardinalities=_XYZ,
                              decision_cardinalities={"Theta": 2}),
    "ECI_RESTRICTED-3": _scan("ECI_RESTRICTED", ("discrete_variables",), seed=3, trials=4,
                              regime_count=3, probability_grid=2, var_cardinalities=_XYZ,
                              decision_cardinalities={"Theta": 2}),
    "GENERAL": _scan("GENERAL", ("discrete_variables",), seed=2, trials=8, regime_count=2,
                     probability_grid=3, var_cardinalities={"X": 2, "Y": 2},
                     decision_cardinalities={"Theta": 2}),
    "VCI_STRONG": _scan("VCI_STRONG", seed=4, trials=10, regime_count=3, var_cardinalities=_ABCD),
}


def _assert_truth_is_per_key(scan, holds, complementary, verdicts) -> dict:
    """The class verdicts give every key of the admitted unions, in domain
    order, the model's own verdict, and set exactly the admitted unions'
    always-true slots; returns the truth table they give."""
    keys = [k for u, ks in scan.keys.items() if complementary is None or complementary(u)
            for k in ks]
    truth = _truth(scan, verdicts, complementary)
    assert list(truth) == keys
    assert [truth[k] for k in keys] == [holds(k) for k in keys]
    assert [verdicts[scan.base[u] + len(scan.reps[u])] for u in scan.keys] == [
        complementary is None or complementary(u) for u in scan.keys]
    assert len(verdicts) == scan.width + 1 and not verdicts[scan.width]
    return truth


@pytest.mark.parametrize("name", CLASS_SCANS)
def test_class_verdicts_equal_the_checkers_on_every_key(monkeypatch, name):
    # _Scan.model asks each model once per class of keys; the truth table it
    # builds from those verdicts, in domain order, must be the model's own
    # verdict on every key of every admitted union.
    seen = _spy_models(monkeypatch)
    assert CLASS_SCANS[name]().ok
    outcomes = set()
    for scan, holds, complementary, verdicts in seen:
        for k, ok in _assert_truth_is_per_key(scan, holds, complementary, verdicts).items():
            outcomes.add((_r_triv(k) or _l_triv(k), _r_triv(k), ok))
    nontrivial = sum(map(_nontrivial, (k for ks in scan.keys.values() for k in ks)))
    assert sum(len(r) for r in scan.reps.values()) < sum(map(len, scan.keys.values()))
    assert len({c for u in scan.classes for c in scan.classes[u]}) < nontrivial
    assert {(False, False, True), (False, False, False)} <= outcomes
    # a decision-free key on several regimes asserts one law across them
    assert ((True, True, False) in outcomes) == name.startswith(("ECI", "GENERAL"))


def test_mixed_classes_are_exact_on_admitted_unions_only():
    # Under GENERAL, clearing the decision conditioning part from the outer
    # slots changes some eci_general verdicts, on unions that do not identify
    # the regime.  The scans admit no such union: with the real admission
    # test the truth table is the verdict on every key, and a mixed-mode
    # model without one is refused.
    cfg = SearchConfig(seed=1, trials=4, var_cardinalities={"X": 2, "Y": 2}, regime_count=3,
                       probability_grid=2, decision_cardinalities={"Theta": 2})
    scan = _Scan(rule_set("GENERAL", ("discrete_variables",)),
                 Universe.of(stochastic=("X", "Y"), decision=("Sigma", "Theta")))
    dec = scan.dec_sets
    changed = 0
    for t in range(cfg.trials):
        fam = random_family(cfg, t)

        def holds(k):
            return fam.eci_general(k[0], dec[k[1]], k[2], dec[k[3]], k[4], dec[k[5]])

        def complementary(u):
            return u == 0 or check_complementary(fam, dec[u])

        _assert_truth_is_per_key(scan, holds, complementary, scan.model(t, holds, complementary))
        for u, ks in scan.keys.items():
            for k in ks:
                cleared = (k[0] & ~k[4], k[1] & ~k[5], k[2] & ~k[4], k[3] & ~k[5], k[4], k[5])
                differs = not (_r_triv(k) or _l_triv(k)) and holds(k) != holds(cleared)
                assert not (differs and complementary(u))
                changed += differs
        with pytest.raises(ValueError, match="complementary"):
            scan.model(t, holds)
    assert changed == 2


# (rule set, universe, mode, listed keys, classes asked with every union
# admitted); the last column was 1,950, 1,950, 582, 4,424 and 2,523 when
# every trivial key was asked and mixed-mode classes kept the decision parts,
# and 143, 993 and 498 for the mixed-mode domains when the decision-free
# left-trivial keys were asked.
_SIGMA_THETA = ("Sigma", "Theta")
ASKED_CLASSES = {
    "SCI A-D": ("SEPAROID_FULL", dict(stochastic=tuple("ABCD")), "s", 3600, 479),
    "VCI A-D": ("VCI_STRONG", dict(decision=tuple("ABCD")), "d", 3600, 479),
    "ECI_RESTRICTED X, Y": ("ECI_RESTRICTED", dict(stochastic=("X", "Y"), decision=_SIGMA_THETA),
                            None, 720, 128),
    "ECI_RESTRICTED X, Y, Z": ("ECI_RESTRICTED",
                               dict(stochastic=("X", "Y", "Z"), decision=_SIGMA_THETA),
                               None, 6944, 860),
    "GENERAL X, Y": ("GENERAL", dict(stochastic=("X", "Y"), decision=_SIGMA_THETA),
                     None, 3600, 483),
}


@pytest.mark.parametrize("name", ASKED_CLASSES)
def test_asked_classes_per_domain_are_pinned(name):
    # A model is asked once per class; the only trivial keys with a class of
    # their own are the decision-free right-trivial ones of a mixed-mode
    # domain whose left part is not inside the conditioning slot.
    rules, names, mode, keys, asked = ASKED_CLASSES[name]
    scan = _Scan(rule_set(rules), Universe.of(**names), mode)
    assert sum(map(len, scan.keys.values())) == keys
    assert sum(map(len, scan.reps.values())) == asked
    trivial_reps = [k for ks in scan.reps.values() for k in ks if not _nontrivial(k)]
    assert trivial_reps == ([k for k in scan.keys[0] if not _l_triv(k) and _r_triv(k)]
                            if mode is None else [])


@pytest.mark.parametrize("name", CLASS_SCANS)
def test_each_model_asks_once_per_asked_class(monkeypatch, name):
    # holds is called once per asked class of the admitted unions, on the
    # class's first key, and never on another key.
    model, asked = _Scan.model, []

    def spy(self, trial, holds, complementary=None, dominating=None):
        calls = []

        def counted(k):
            calls.append(k)
            return holds(k)

        verdicts = model(self, trial, counted, complementary, dominating)
        unions = [u for u in self.keys if complementary is None or complementary(u)]
        assert calls == [k for u in unions for k in self.reps[u]]
        asked.append(len(calls))
        return verdicts

    monkeypatch.setattr(_Scan, "model", spy)
    assert CLASS_SCANS[name]().ok
    assert asked and all(asked)


def _unasked(scan) -> dict:
    """Union -> its keys that get no class, each with its rendered statement
    parsed back; model() writes True for them without asking."""
    universe = Universe.of(stochastic=scan.space.s_names, decision=scan.space.d_names)
    return {u: [(k, parse_statement(scan.render(k), universe))
                for k, c in zip(scan.keys[u], scan.classes[u]) if c == len(scan.reps[u])]
            for u in scan.keys}


def test_keys_without_a_class_hold_under_the_public_checkers():
    # Each trivial key that gets no class holds, by check_sci, check_vci or
    # check_eci_general on its rendered statement, on every seeded model
    # that admits its union: grid-1 models (many zero-mass atoms), 2 and 3
    # regimes, and a Theta decision variable.  These are every trivial key
    # in the pure modes, and in mixed mode those of the nonzero unions and
    # the left-trivial ones of the empty union.
    sci = _Scan(rule_set("SEPAROID_FULL"), Universe.of(stochastic=("A", "B", "C")), "s")
    vci = _Scan(rule_set("VCI_STRONG"), Universe.of(decision=("A", "B", "C")), "d")
    both = Universe.of(stochastic=("X", "Y"), decision=("Sigma", "Theta"))
    eci = [_Scan(rule_set("ECI_RESTRICTED"), both), _Scan(rule_set("GENERAL"), both)]
    unasked = {scan: _unasked(scan) for scan in [sci, vci, *eci]}
    for scan, by_union in unasked.items():
        for u, pairs in by_union.items():
            assert [k for k, _ in pairs] == [k for k in scan.keys[u]
                                             if _l_triv(k) or _r_triv(k) and (scan.mode or u)]
    zero_mass, checked = False, 0
    for regimes, seed in product((2, 3), range(4)):
        cfg = SearchConfig(seed=seed, trials=1, var_cardinalities={"A": 2, "B": 3, "C": 2},
                           regime_count=regimes, probability_grid=1)
        dist, decmap = random_distribution(cfg, 0), random_decmap(cfg, 0)
        zero_mass |= 0 in dist.pmf.values() or len(dist.pmf) < 12
        for _, st in (p for ps in unasked[sci].values() for p in ps):
            assert check_sci(dist, st.left.names, st.right.names, st.cond.names)
        for _, st in (p for ps in unasked[vci].values() for p in ps):
            assert check_vci(decmap, st.left.names, st.right.names, st.cond.names,
                             regime_labels(regimes))
        fam = random_family(SearchConfig(seed=seed, trials=1, var_cardinalities={"X": 2, "Y": 2},
                                         regime_count=regimes, probability_grid=1,
                                         decision_cardinalities={"Theta": 2}), 0)
        for scan in eci:
            for u, pairs in unasked[scan].items():
                if not u or check_complementary(fam, scan.dec_sets[u]):
                    checked += len(pairs)
                    assert all(check_eci_general(fam, st) for _, st in pairs)
    assert zero_mass and checked


# Scans no pinned digest covers: on three regimes, the bench's ECI_RESTRICTED
# X, Y, Z slice, the same on grid 2 with P4'' licensed per model, GENERAL
# over X, Y, Z and VCI_STRONG over A-D; and SEPAROID_FULL over A-D on grid-1
# models.
_XYZ3 = dict(trials=3, regime_count=3, probability_grid=3, var_cardinalities=_XYZ,
             decision_cardinalities={"Theta": 2})
TABLE_SCANS = {
    "SEPAROID_FULL": ("SEPAROID_FULL", (), dict(trials=4, probability_grid=1,
                                                var_cardinalities=_ABCD)),
    "ECI_RESTRICTED": ("ECI_RESTRICTED", _ECI_FLAGS, _XYZ3),
    "ECI_RESTRICTED-dominating": ("ECI_RESTRICTED", ("dominating_regime",),
                                  dict(_XYZ3, probability_grid=2)),
    "GENERAL": ("GENERAL", ("discrete_variables",), _XYZ3),
    "VCI_STRONG": ("VCI_STRONG", (), dict(trials=6, regime_count=3, var_cardinalities=_ABCD)),
}


def _fresh_close(scan, trial, holds, complementary, dominating, truth) -> tuple:
    """The reference close of one model: a fresh engine over the admitted
    unions runs the spontaneous rules, then inserts each true key in domain
    order and expands it at once, so every pair is met when its later
    premise arrives.  Returns its per-rule counts and violations."""
    unions = [u for u in scan.keys if complementary is None or complementary(u)]
    comp = ComplementarityDecl(frozenset(scan.dec_sets[u] for u in unions if u))
    eng = _Engine(scan.rs, scan.space, comp, scan.mode)
    tally, violations = dict.fromkeys(scan.tally, 0), []

    def conclude(rule, premises, ck, k):
        if dominating is None or rule not in search._GATED or dominating(k[5]):
            tally[rule] += 1
            if not (truth[ck] if ck in truth else holds(ck)):
                violations.append({"trial": trial, "rule": rule, "conclusion": scan.render(ck),
                                   "premises": [scan.render(p) for p in premises]})

    for rule, ck in eng.spontaneous():
        conclude(rule, (), ck, None)
    for k in [k for u in unions for k in scan.keys[u] if truth[k]]:
        eng.insert(k)
        for rule, premises, ck, _note in eng.expand(k):
            conclude(rule, premises, ck, k)
    return tally, violations


def _check_closes(monkeypatch) -> list:
    """Check what every _Scan.model call adds to the tally and the
    violations against _fresh_close on its truth table: the tally exactly,
    the violations as a multiset.  Records (scan, truth table, dominating,
    keys asked of the model, fresh violations) per call."""
    model, seen = _Scan.model, []

    def spy(self, trial, holds, complementary=None, dominating=None):
        before, start, asked = dict(self.tally), len(self.violations), []

        def counted(k):
            asked.append(k)
            return holds(k)

        verdicts = model(self, trial, counted, complementary, dominating)
        truth = _truth(self, verdicts, complementary)
        tally, violations = _fresh_close(self, trial, holds, complementary, dominating, truth)
        assert {r: c - before[r] for r, c in self.tally.items()} == tally
        assert _sorted_digest(self.violations[start:]) == _sorted_digest(violations)
        seen.append((self, truth, dominating, asked, violations))
        return verdicts

    monkeypatch.setattr(_Scan, "model", spy)
    return seen


@pytest.mark.parametrize("name", TABLE_SCANS)
def test_table_close_equals_a_full_close_on_every_model(monkeypatch, name):
    # What _Scan.model adds to the tally and the violations, from the
    # domain's class table, equals a fresh engine's close over every true
    # key: the tally exactly, the violations as a multiset.  Checked on
    # sound models, and with P3 (P3', P3g) unsound on every premise, on the
    # models up to the first violating one.  With dominating_regime alone,
    # P4'' is licensed on some classes of the models and not on others.
    rules, flags, fields = TABLE_SCANS[name]
    seen = _check_closes(monkeypatch)

    def closed():
        return [(any(truth[k] for ks in _asked(scan).values() for k in ks
                     if k in truth and _nontrivial(k)), bool(violations))
                for scan, truth, _, _, violations in seen]

    for seed in range(3):
        assert axiom_soundness_scan(SearchConfig(seed=seed, **fields), rule_set(rules, flags)).ok
    assert any(nontrivial for nontrivial, _ in closed()) and not any(bad for _, bad in closed())
    licensed = {dominating(gated[0])  # every true class is in the table
                for scan, truth, dominating, _, violations in seen
                if dominating is not None and not violations
                for ks in _asked(scan).values() for k in ks
                if truth.get(k) and (gated := scan.table[scan.class_id(k)][5])}
    assert licensed == ({True, False} if flags == ("dominating_regime",) else set())
    _unsound_p3(monkeypatch, slot=5 if rules == "VCI_STRONG" else 4)
    seen.clear()
    for seed in range(3):
        assert axiom_soundness_scan(SearchConfig(seed=seed, **fields), rule_set(rules, flags)).violations
    assert [bad for _, bad in closed()].count(True) == 3


def test_conclusions_outside_the_listing_are_asked_of_the_model(monkeypatch):
    # A P3' that also moves the right slot's decision part to the left slot
    # of a non-trivial premise concludes keys ECI_RESTRICTED does not list.
    # No class bit stands for them, so the close asks the model about each,
    # as a fresh engine's close does, and names the false ones.
    sound_unary = _Engine.unary

    def unary(self, name, k):
        yield from sound_unary(self, name, k)
        if name == "P3'" and k[3] and _nontrivial(k):
            yield (k[0], k[3], k[2], 0, k[4], k[5]), ""

    monkeypatch.setattr(_Engine, "unary", unary)
    seen = _check_closes(monkeypatch)
    rep = _scan("ECI_RESTRICTED", _ECI_FLAGS, seed=1, trials=8, regime_count=3, probability_grid=1,
                var_cardinalities={"X": 2, "Y": 2}, decision_cardinalities={"Theta": 2})()
    outside = [k for scan, _, _, asked, _ in seen for k in asked if scan.class_id(k) == scan.width]
    assert outside and {v["rule"] for v in rep.violations} == {"P3'"}


def test_always_true_slots_hold_the_closures_of_their_keys(monkeypatch):
    # On every pinned domain, each union's always-true slot entry counts, per
    # rule, the union's spontaneous instances and those drawn from its
    # always-true keys, all of which conclude always-true keys: with a sound
    # engine nothing is left for a model to check one instance at a time,
    # so the entry never carries the outside bit and never forces a walk.
    monkeypatch.setattr(search, "_DOMAINS", {})
    for run, digest, _ in PINNED_REPORTS.values():
        assert _digest(run().to_dict()) == digest
    checked = 0
    for domain, listing in search._DOMAINS.items():
        rs, s_names, d_names, mode, _ = domain
        scan = _Scan(rs, Universe.of(stochastic=s_names, decision=d_names), mode)
        always = _always_entries(listing)
        assert always.keys() == scan.keys.keys()
        sure = {u: {k for k, c in zip(ks, scan.classes[u]) if c == len(scan.reps[u])}
                for u, ks in scan.keys.items()}
        for u, (need, counts, pneed, pairs, layers, gated) in always.items():
            instances = [(rule, ck) for rule, ck in scan.eng.spontaneous()
                         if ck[1] | ck[3] | ck[5] == u]
            instances += [(rule, ck) for k in sure[u] for rule, _, ck, _ in scan.eng.expand(k)]
            assert instances and all(ck in sure.get(ck[1] | ck[3] | ck[5], ())
                                     and rule not in search._GATED for rule, ck in instances)
            assert dict(counts) == Counter(rule for rule, _ in instances)
            assert need == sum({1 << scan.class_id(ck) for _, ck in instances})
            assert not need >> scan.width and not (pneed or pairs or layers or gated)
            checked += 1
    assert checked == sum(len(listing[0]) for listing in search._DOMAINS.values())


def test_an_unsound_spontaneous_rule_is_named(monkeypatch):
    # P2 that also yields A _||_ B, false on most distributions: the scan
    # names it with no premises, first among the model's violations, cold
    # and warm, and each model's close equals a fresh engine's.
    sound = _Engine.spontaneous

    def spontaneous(self):
        yield from sound(self)
        if "P2" in self.rs.rules:
            yield "P2", (1, 0, 2, 0, 0, 0)

    monkeypatch.setattr(_Engine, "spontaneous", spontaneous)
    monkeypatch.setattr(search, "_DOMAINS", {})
    seen = _check_closes(monkeypatch)
    run = PINNED_REPORTS["SEPAROID_FULL"][0]
    cold, warm = run(), run()
    assert cold.to_dict() == warm.to_dict() and len(search._DOMAINS) == 1
    t = cold.trials - 1
    assert cold.violations[0] == {"trial": t, "rule": "P2", "premises": [],
                                  "conclusion": "A _||_ B"}
    assert any(v["premises"] == [] for *_, violations in seen for v in violations)


def test_a_gated_rule_on_a_trivial_premise_is_walked(monkeypatch):
    # P4'' that also draws Y\Z _||_ Y,Th | Z,Ph from a left-trivial premise,
    # which a sound engine never does, with dominating_regime the only flag:
    # the always-true keys share no conditioning slot, so such a slot
    # carries the outside bit and every close walks its keys, licensing each
    # instance on its own premise; each model's close equals a fresh
    # engine's, and the false conclusions are named.
    sound_unary = _Engine.unary

    def unary(self, name, k):
        yield from sound_unary(self, name, k)
        if name == "P4''" and _l_triv(k) and k[2] & ~k[4]:
            yield (k[2] & ~k[4], 0, k[2], k[3], k[4], k[5]), self.via

    monkeypatch.setattr(_Engine, "unary", unary)
    monkeypatch.setattr(search, "_DOMAINS", {})
    seen = _check_closes(monkeypatch)
    run = PINNED_REPORTS["ECI_RESTRICTED-dominating"][0]
    cold, warm = run(), run()
    assert cold.to_dict() == warm.to_dict()
    assert cold.violations and {v["rule"] for v in cold.violations} == {"P4''"}
    [listing] = search._DOMAINS.values()
    assert any(need >> seen[0][0].width for need, *_ in _always_entries(listing).values())
    licensed = {dominating(k[5]) for _, truth, dominating, _, _ in seen
                for k, ok in truth.items() if ok and _l_triv(k) and k[2] & ~k[4]}
    assert licensed == {True, False}


def test_random_models_are_unchanged():
    # model_to_dict of seeded distributions and families, as drawn before
    # their grid masses came from one helper.
    rows = []
    for seed, grid, cards, regimes in [(1, 4, {"A": 2, "B": 3}, 1),
                                       (2, 1, {"X": 2, "Y": 2, "Z": 2}, 3),
                                       (3, 3, {"X": 3}, 4)]:
        cfg = SearchConfig(seed=seed, trials=1, var_cardinalities=cards, regime_count=regimes,
                           probability_grid=grid, decision_cardinalities={"Th": 2})
        for i in range(20):
            rows += [model_to_dict(random_distribution(cfg, i)), model_to_dict(random_family(cfg, i))]
    assert _digest(rows) == "26d5eb865e3f7fc55b99732170cdd36e15059039e6daa09849b0791cda66a615"


def test_grid_distributions_counts():
    vars_ = {"X": ["0", "1"]}
    assert sum(1 for _ in grid_distributions(vars_, 4)) == 5  # compositions of 4 into 2


def _table(dist) -> tuple:
    return list(dist.pmf.items()), dist.signature()


def _ordered(decmap) -> list:
    return [(n, list(f.items())) for n, f in decmap.items()]


def test_models_yield_what_the_draws_and_enumerations_give():
    """``_models`` is the one model source.  Index by index, its random SCI,
    VCI and ECI models are those of random_distribution, random_decmap and
    random_family; its exhaustive SCI models are grid_distributions' tables
    and its exhaustive VCI models the 584 maps of ``exhaustive_maps`` over
    three names on one to three regimes, both in order (key order
    included)."""
    cfg = SearchConfig(seed=9, trials=15, var_cardinalities={"A": 2, "B": 3}, regime_count=3,
                       probability_grid=3, decision_cardinalities={"Th": 2})
    for semantics, draw, data in [("SCI", random_distribution, _table),
                                  ("VCI", random_decmap, _ordered),
                                  ("ECI", random_family, model_to_dict)]:
        got = [(i, data(m)) for i, m in _models(cfg, semantics)]
        assert got == [(i, data(draw(cfg, i))) for i in range(cfg.trials)], semantics

    grid = SearchConfig(seed=0, var_cardinalities={"X": 2, "Y": 2}, probability_grid=3)
    got = [(i, _table(d)) for i, d in _models(grid, "SCI", exhaustive=True)]
    want = grid_distributions({"X": ("0", "1"), "Y": ("0", "1")}, 3)
    assert got == list(enumerate(map(_table, want)))
    assert len(got) == search.model_count(grid, exhaustive=True) == 20

    maps = SearchConfig(seed=0, var_cardinalities=dict.fromkeys("ABC", 2), regime_count=3)
    got = [(i, _ordered(m)) for i, m in _models(maps, "VCI", exhaustive=True)]
    assert got == [(i, _ordered(m)) for i, (m, _) in enumerate(exhaustive_maps("ABC", 3))]
    assert len(got) == 584


@pytest.mark.parametrize("rules, sym", [("ECI_RESTRICTED", "P1'"), ("GENERAL", "P1g")])
def test_eci_scan_domain_has_decision_free_statements(monkeypatch, rules, sym):
    # On several regimes a statement without decision names asserts one law
    # across them, which is not symmetric: the scan domain holds such
    # statements, so symmetry without the regime conditioned on is caught,
    # and the engine's own rules pass.
    cfg = SearchConfig(seed=0, trials=10, var_cardinalities={"X": 2, "Y": 2},
                       regime_count=2, probability_grid=2,
                       decision_cardinalities={"Theta": 2})
    assert axiom_soundness_scan(cfg, rule_set(rules)).ok
    sound_unary = _Engine.unary

    def unary(self, name, k):
        yield from sound_unary(self, name, k)
        if name == sym and not (k[1] | k[3] | k[5]) and k[2] & ~k[4] and k[0] & ~k[4]:
            yield (k[2], 0, k[0], 0, k[4], 0), ""

    monkeypatch.setattr(_Engine, "unary", unary)
    rep = axiom_soundness_scan(cfg, rule_set(rules))
    assert {v["rule"] for v in rep.violations} == {sym}
