from fractions import Fraction as F

import pytest

from separoid.engine import _Engine, rule_set
from separoid.errors import SemanticsMismatch
from separoid.search import (
    SearchConfig,
    axiom_soundness_scan,
    exhaustive_vci_scan,
    grid_distributions,
    random_decmap,
    random_distribution,
    random_family,
    search_counterexample,
    verify_counterexample,
)

from conftest import ci


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


def test_grid_distributions_counts():
    vars_ = {"X": ["0", "1"]}
    assert sum(1 for _ in grid_distributions(vars_, 4)) == 5  # compositions of 4 into 2


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
