"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

All probability checks are exact rationals, so every tolerance is zero; the
only numeric budgets are wall-clock bounds, asserted where stated.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import hashlib
import json
import random
import time
from fractions import Fraction as F

import pytest

from separoid.causal import InfoBase, Strategy, ace, check_simple_stability, g_formula
from separoid.engine import Limits, NotDerivable, prove, rule_set
from separoid.models import (
    RegimeFamily,
    check_eci,
    check_pairwise_eci,
    check_sci,
    product_space,
)
from separoid.search import (
    SearchConfig,
    axiom_soundness_scan,
    exhaustive_vci_scan,
    search_counterexample,
    verify_counterexample,
)
from separoid.universe import Universe

from conftest import (
    ci,
    dist,
    grid_families,
    materialize_strategy_joint,
    sigma_statements,
)

SEED = 20260810


def report(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)


# -- criterion 1: worked-example derivations --------------------------------------


def test_c1_worked_example_derivations():
    uni = Universe.of(stochastic=["X", "Y", "Z"])
    t0 = time.monotonic()
    d = prove(ci(["X", "Z"], ["Y"], ["Z"]), [ci(["X"], ["Y"], ["Z"])],
              rule_set("SEPAROID_FULL"), universe=uni)
    t_a = time.monotonic() - t0
    ok_a = (not isinstance(d, NotDerivable)
            and d.rule_sequence() == ["P1", "P2", "P3", "P5", "P1"]
            and d.steps == 5 and t_a < 1.0)

    uni5 = Universe.of(stochastic=["X1", "X2", "X3", "X4", "X5"])
    prem = [
        ci(["X3"], ["X1"], ["X2"]),
        ci(["X4"], ["X1", "X2"], ["X3"]),
        ci(["X5"], ["X1", "X2", "X3"], ["X4"]),
    ]
    t0 = time.monotonic()
    d5 = prove(ci(["X3"], ["X1", "X5"], ["X2", "X4"]), prem,
               rule_set("SEPAROID_FULL"), universe=uni5)
    t_b = time.monotonic() - t0
    ok_b = not isinstance(d5, NotDerivable) and t_b < 1.0

    report("C1 worked-example derivations", ok_a and ok_b,
           f"5-step sequence in {t_a:.3f}s; chain goal in {t_b:.3f}s")
    assert ok_a and ok_b


def _digest(rep) -> str:
    """sha256 of a scan report's stable-keyed dict."""
    return hashlib.sha256(json.dumps(rep.to_dict(), sort_keys=True).encode()).hexdigest()


# -- criterion 2: SCI axiom soundness ----------------------------------------------


def test_c2_sci_axiom_soundness():
    cfg = SearchConfig(seed=SEED, trials=1000,
                       var_cardinalities={"A": 2, "B": 2, "C": 2, "D": 2},
                       probability_grid=4)
    t0 = time.monotonic()
    rep = axiom_soundness_scan(cfg, rule_set("SEPAROID_FULL"))
    dt = time.monotonic() - t0
    ok = rep.ok and dt < 60.0
    report("C2 SCI axiom soundness", ok,
           f"{rep.instances} instances, {len(rep.violations)} violations, {dt:.1f}s")
    assert rep.violations == []
    assert dt < 60.0
    assert _digest(rep) == "304995c8d72ad7f8dd777aac250001d6afff856a9e33795bf813b48dd08b06a7"


# -- criterion 3: VCI strong-separoid suite ------------------------------------------


def test_c3_vci_strong_separoid_exhaustive():
    rep = exhaustive_vci_scan(max_regimes=4, n_vars=3)
    report("C3 VCI strong-separoid suite", rep.ok,
           f"{rep.trials} decision maps, {rep.instances} instances, "
           f"{len(rep.violations)} violations")
    assert rep.violations == []
    assert _digest(rep) == "bde50401fea056fca845c380ea62181bba5bf970db550e81a8cc4b3dbaa71337"


def test_c3_vci_strong_separoid_exhaustive_four_variables():
    # Four binary variables on at most three regimes; the digest is that of
    # closing each distinct raw joint range once.
    rep = exhaustive_vci_scan(max_regimes=3, n_vars=4)
    assert rep.ok and rep.trials == 4368 and rep.instances == 154_490_064
    assert _digest(rep) == "43b1bfe44a8ec46b90433fae4991d5cb2feeb08ddb6d52756e3e8043f9667c22"


# -- criterion 4: ECI restricted-axiom suite -----------------------------------------


def test_c4_eci_restricted_axioms():
    rs = rule_set("ECI_RESTRICTED", ["discrete_variables", "dominating_regime"])
    batches = [
        dict(trials=250, var_cardinalities={"X": 2, "Y": 2}, regime_count=3),
        dict(trials=150, var_cardinalities={"X": 2, "Y": 2, "Z": 2}, regime_count=2),
        dict(trials=100, var_cardinalities={"X": 2, "Y": 2, "Z": 2}, regime_count=3),
    ]
    digests = [
        "7b826c3398663262f82323b67b7accdcbebacddcc6c16ca62642a20ba3e612bf",
        "3b9c44167dda139185cad5c84b46a5286f1243cf68b2ff2f353eecd8db1316bb",
        "d96b03e38e2c42c54770bbedc706e831d1fd82a58e9d0d6f3cc59770c902474b",
    ]
    total_instances = 0
    violations = []
    families = 0
    for i, batch in enumerate(batches):
        cfg = SearchConfig(seed=SEED + i, probability_grid=3,
                           decision_cardinalities={"Theta": 2}, **batch)
        rep = axiom_soundness_scan(cfg, rs)
        assert _digest(rep) == digests[i]
        total_instances += rep.instances
        violations += rep.violations
        families += rep.trials
    ok = not violations
    report("C4 ECI restricted axioms", ok,
           f"{families} families, {total_instances} instances "
           f"(P4'' under discrete_variables and dominating_regime), "
           f"{len(violations)} violations")
    assert violations == []


# -- criteria 5, 6, 10: exhaustive two-regime grid -----------------------------------


class GridResults:
    def __init__(self):
        self.families = 0
        self.product_checks = 0
        self.product_mismatches = []
        self.decomposition_checks = 0
        self.decomposition_mismatches = []
        self.symmetry_checks = 0
        self.symmetry_mismatches = []
        self.pairwise_checks = 0
        self.pairwise_mismatches = []
        self.elapsed = 0.0


@pytest.fixture(scope="module")
def grid_results():
    out = GridResults()
    prior = {"r0": F(1, 2), "r1": F(1, 2)}
    stmts = sigma_statements()
    stoch = [(), ("X",), ("Y",), ("X", "Y")]
    lefts = [("X",), ("Y",), ("X", "Y")]
    t0 = time.monotonic()
    for fam in grid_families(grid=4):
        out.families += 1
        memo = {}

        def eci(stmt):
            key = stmt.sort_key()
            if key not in memo:
                memo[key] = check_eci(fam, stmt)[0]
            return memo[key]

        prod = product_space(fam, prior)
        for stmt in stmts:
            lhs = eci(stmt)
            rhs = check_sci(
                prod,
                tuple(stmt.left.stoch),
                tuple(stmt.right.stoch) + tuple(stmt.right.dec),
                tuple(stmt.cond.stoch) + tuple(stmt.cond.dec),
            )
            out.product_checks += 1
            if lhs != rhs:
                out.product_mismatches.append((fam, stmt))
            out.pairwise_checks += 1
            if check_pairwise_eci(fam, stmt) != lhs:
                out.pairwise_mismatches.append((fam, stmt))
        for left in lefts:
            for rs_ in stoch:
                for cs in stoch:
                    whole = eci(ci(left, rs_, cs, rdec=["Sigma"]))
                    part1 = eci(ci(left, rs_, cs, cdec=["Sigma"])) if rs_ else True
                    part2 = eci(ci(left, (), cs, rdec=["Sigma"]))
                    out.decomposition_checks += 1
                    if whole != (part1 and part2):
                        out.decomposition_mismatches.append((fam, left, rs_, cs))
        for left in lefts:
            for right in lefts:
                for cs in stoch:
                    fwd = eci(ci(left, right, cs, cdec=["Sigma"]))
                    bwd = eci(ci(right, left, cs, cdec=["Sigma"]))
                    per_regime = all(
                        check_sci(fam.dists[s], left, right, cs) for s in fam.regimes
                    )
                    out.symmetry_checks += 1
                    if not (fwd == bwd == per_regime):
                        out.symmetry_mismatches.append((fam, left, right, cs))
    out.elapsed = time.monotonic() - t0
    return out


def test_c5_product_space_equivalence(grid_results):
    g = grid_results
    ok = not g.product_mismatches and g.elapsed < 600.0
    report("C5 product-space equivalence", ok,
           f"{g.families} families x {g.product_checks // g.families} statements, "
           f"{len(g.product_mismatches)} mismatches, grid pass {g.elapsed:.1f}s")
    assert g.families == 35 * 35
    assert g.product_mismatches == []
    assert g.elapsed < 600.0


def test_c6_decomposition_and_symmetry(grid_results):
    g = grid_results
    ok = not g.decomposition_mismatches and not g.symmetry_mismatches
    report("C6 decomposition/symmetry biconditionals", ok,
           f"{g.decomposition_checks} decomposition and {g.symmetry_checks} "
           f"symmetry instances, "
           f"{len(g.decomposition_mismatches) + len(g.symmetry_mismatches)} mismatches")
    assert g.decomposition_mismatches == []
    assert g.symmetry_mismatches == []


def test_c10_pairwise_equals_full_on_grid(grid_results):
    g = grid_results
    ok = not g.pairwise_mismatches
    # Discrete-model artifact: witnesses are pointwise-determined here, so the
    # pairwise and full checks must coincide; this does not test the general
    # (non-discrete) separation, which is not representable in this engine.
    report("C10 pairwise/full coincidence (discrete artifact)", ok,
           f"{g.pairwise_checks} statements, {len(g.pairwise_mismatches)} mismatches")
    assert g.pairwise_mismatches == []


# -- criterion 7: ACE identification ---------------------------------------------------


def _joint_ty(pt1, q0, q1):
    vars_ = {"T": ["0", "1"], "Y": ["0", "1"]}
    rows = []
    for t, pt, q in (("0", 1 - pt1, q0), ("1", pt1, q1)):
        rows.append(({"T": t, "Y": "1"}, pt * q))
        rows.append(({"T": t, "Y": "0"}, pt * (1 - q)))
    return dist(vars_, rows)


def test_c7_ace_identification():
    rng = random.Random(SEED)

    def frac(lo=1, hi=7):
        d = rng.randint(lo + 1, hi)
        return F(rng.randint(lo, d - 1), d)

    # randomized trial: observational Y|T kernels equal the interventional ones
    k0, k1 = frac(), frac()
    while k1 == k0:
        k1 = frac()
    pt1 = frac()
    randomized = RegimeFamily(
        ["obs", "do0", "do1"],
        {"obs": _joint_ty(pt1, k0, k1), "do0": _joint_ty(F(0), k0, k1),
         "do1": _joint_ty(F(1), k0, k1)},
        {"Sigma": {"obs": "obs", "do0": "do0", "do1": "do1"}},
    )
    out = ace(randomized, "Y", "T")
    ok_rand = (out.transfer_valid
               and out.ace_observational == out.ace_interventional == k1 - k0)

    # confounded: observational kernels differ and the contrasts disagree
    a0, a1 = frac(), frac()
    while a1 - a0 == k1 - k0 or (a0, a1) == (k0, k1):
        a0, a1 = frac(), frac()
    confounded = RegimeFamily(
        ["obs", "do0", "do1"],
        {"obs": _joint_ty(pt1, a0, a1), "do0": _joint_ty(F(0), k0, k1),
         "do1": _joint_ty(F(1), k0, k1)},
        {"Sigma": {"obs": "obs", "do0": "do0", "do1": "do1"}},
    )
    out2 = ace(confounded, "Y", "T")
    obs_contrast = a1 - a0
    ok_conf = (not out2.transfer_valid and out2.ace_observational is None
               and obs_contrast != out2.ace_interventional)

    report("C7 ACE identification", ok_rand and ok_conf,
           f"randomized ACE {out.ace_interventional} transfers exactly; "
           f"confounded contrasts {out2.ace_interventional} vs {obs_contrast} differ")
    assert ok_rand and ok_conf


# -- criterion 8: g-formula oracle equivalence ------------------------------------------


def _random_two_stage(rng):
    """Observational joint over (L1, A1, L2, A2, Y) from strictly positive
    random kernels, plus a random two-stage strategy."""
    vars_ = {n: ["0", "1"] for n in ("L1", "A1", "L2", "A2", "Y")}

    def kernel(n_ctx):
        out = []
        for _ in range(n_ctx):
            a = rng.randint(1, 4)
            b = rng.randint(1, 4)
            out.append(F(a, a + b))
        return out

    pL1 = kernel(1)[0]
    pA1 = kernel(2)  # by L1
    pL2 = kernel(4)  # by (L1, A1)
    pA2 = kernel(8)  # by (L1, A1, L2)
    pY = kernel(16)  # by (L1, A1, L2, A2)
    rows = []
    for i1, l1 in enumerate("01"):
        for j1, a1 in enumerate("01"):
            for i2, l2 in enumerate("01"):
                for j2, a2 in enumerate("01"):
                    for y in "01":
                        w = pL1 if l1 == "1" else 1 - pL1
                        w *= pA1[i1] if a1 == "1" else 1 - pA1[i1]
                        w *= pL2[i1 * 2 + j1] if l2 == "1" else 1 - pL2[i1 * 2 + j1]
                        idx = i1 * 4 + j1 * 2 + i2
                        w *= pA2[idx] if a2 == "1" else 1 - pA2[idx]
                        idx = i1 * 8 + j1 * 4 + i2 * 2 + j2
                        w *= pY[idx] if y == "1" else 1 - pY[idx]
                        rows.append(({"L1": l1, "A1": a1, "L2": l2, "A2": a2, "Y": y}, w))
    obs = dist(vars_, rows)

    def strat_kernel(history_vars):
        table = {}
        for vals in _assignments(history_vars):
            p = F(rng.randint(0, 4), 4)
            key = tuple(sorted(zip(history_vars, vals)))
            table[key] = {"1": p, "0": 1 - p}
        return table

    strat = Strategy(
        "s",
        ("A1", "A2"),
        (strat_kernel(("L1",)), strat_kernel(("A1", "L1", "L2"))),
    )
    ib = InfoBase(observed=(("L1",), ("L2",)), actions=("A1", "A2"), outcome=("Y",))
    payoff = {("0",): F(rng.randint(0, 6), 3), ("1",): F(rng.randint(1, 9), 3)}
    return obs, ib, strat, payoff


def _assignments(names):
    from itertools import product as _p

    return _p(*(["0", "1"] for _ in names))


def test_c8_gformula_oracle_equivalence():
    rng = random.Random(SEED)
    t0 = time.monotonic()
    mismatches = 0
    for trial in range(100):
        obs, ib, strat, payoff = _random_two_stage(rng)
        joint = materialize_strategy_joint(obs, ib, strat)
        fam = RegimeFamily(
            ["obs", "strategy"], {"obs": obs, "strategy": joint},
            {"Sigma": {"obs": "obs", "strategy": "strategy"}},
        )
        assert check_simple_stability(fam, ib)
        got = g_formula(fam, ib, strat, {k[0]: v for k, v in payoff.items()}, obs="obs")
        want = sum(
            (p * payoff[(key[joint.names.index("Y")],)] for key, p in joint.atoms()),
            F(0),
        )
        if got != want:
            mismatches += 1
    dt = time.monotonic() - t0
    ok = mismatches == 0 and dt < 60.0
    report("C8 g-formula oracle equivalence", ok,
           f"100 two-stage models, {mismatches} mismatches, {dt:.1f}s")
    assert mismatches == 0
    assert dt < 60.0


# -- criterion 9: non-derivability witnesses ---------------------------------------------


def test_c9_nonderivability_witnesses():
    # (a) conditioning cannot be dropped
    prem_a = [ci(["X"], ["Y"], ["Z"])]
    goal_a = ci(["X"], ["Y"])
    cfg_a = SearchConfig(seed=SEED, trials=1000,
                         var_cardinalities={"X": 2, "Y": 2, "Z": 2},
                         probability_grid=1)
    res_a = search_counterexample(prem_a, goal_a, cfg_a, "SCI")
    ok_a = res_a is not None and res_a.trial < 1000
    reload_a = json.loads(json.dumps(res_a.to_dict()))
    ok_a = ok_a and verify_counterexample(reload_a, prem_a, goal_a)

    # (b) the strong-separoid meet property fails for plain independence
    prem_b = [ci(["X"], ["Y"]), ci(["X"], ["Y"], ["W"])]
    goal_b = ci(["X"], ["Y", "W"])
    cfg_b = SearchConfig(seed=SEED, trials=1000,
                         var_cardinalities={"W": 2, "X": 2, "Y": 2},
                         probability_grid=1)
    res_b = search_counterexample(prem_b, goal_b, cfg_b, "SCI")
    ok_b = res_b is not None and res_b.trial < 1000
    reload_b = json.loads(json.dumps(res_b.to_dict()))
    ok_b = ok_b and verify_counterexample(reload_b, prem_b, goal_b)

    report("C9 non-derivability witnesses", ok_a and ok_b,
           f"witnesses at trials {res_a.trial if res_a else '-'} and "
           f"{res_b.trial if res_b else '-'}; both re-verified on reload")
    assert ok_a and ok_b
