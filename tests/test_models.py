from fractions import Fraction as F
from itertools import combinations, product

import pytest

from separoid.errors import (
    EmptyContext,
    InvalidModel,
    InvalidPrior,
    MalformedStatement,
    NotComplementary,
    ZeroConditioningEvent,
)
from separoid.models import (
    DiscreteDistribution,
    RegimeFamily,
    check_complementary,
    check_eci,
    check_eci_general,
    check_pairwise_eci,
    check_sci,
    check_vci,
    compute_S_z,
    conditional,
    conditional_image,
    find_dominating,
    partition_meet,
    product_space,
)
from separoid.search import SearchConfig, random_distribution, random_family

from conftest import (
    brute_conditional,
    brute_sci,
    ci,
    dist,
    grid_families,
    interventional_pair,
    sigma_statements,
)


# -- conditional ---------------------------------------------------------------


def test_conditional_independent_coins(two_fair_coins):
    assert conditional(two_fair_coins, ("X",), {"Y": "0"}) == {("0",): F(1, 2), ("1",): F(1, 2)}


def test_conditional_xor_pins_value(xor_model):
    # oracle: enumerate the four atoms; W=1, Y=0 forces X=1
    assert conditional(xor_model, ("X",), {"W": "1", "Y": "0"}) == {("1",): F(1)}


def test_conditional_zero_event():
    vars_ = {"X": ["0", "1"], "Y": ["0", "1", "2"]}
    rows = [({"X": x, "Y": y}, F(1, 4)) for x in "01" for y in "01"]
    d = dist(vars_, rows)
    with pytest.raises(ZeroConditioningEvent):
        conditional(d, ("X",), {"Y": "2"})


def test_conditional_sums_to_one(xor_model):
    table = conditional(xor_model, ("X", "Y"), {"W": "0"})
    assert sum(table.values()) == 1


# -- check_sci -------------------------------------------------------------------


def test_sci_independent_coins(two_fair_coins):
    assert check_sci(two_fair_coins, "X", "Y", ())


def test_sci_p2_shape_always_true(xor_model, two_fair_coins):
    for d in (xor_model, two_fair_coins):
        assert check_sci(d, "X", "Y", "Y")


def test_sci_xor(xor_model):
    assert check_sci(xor_model, "X", "Y", ())
    assert not check_sci(xor_model, "X", "Y", "W")


def test_sci_unknown_variable(two_fair_coins):
    with pytest.raises(InvalidModel):
        check_sci(two_fair_coins, "Q", "X", ())


def test_sci_matches_bruteforce_oracle():
    cfg = SearchConfig(seed=3, trials=60, var_cardinalities={"A": 2, "B": 2, "C": 2},
                       probability_grid=3)
    names = ("A", "B", "C")
    subsets = [tuple(n for i, n in enumerate(names) if m >> i & 1) for m in range(8)]
    for t in range(cfg.trials):
        d = random_distribution(cfg, t)
        for xs in subsets:
            for ys in subsets:
                for zs in subsets:
                    assert check_sci(d, xs, ys, zs) == brute_sci(d, xs, ys, zs), (t, xs, ys, zs)


# -- check_vci ---------------------------------------------------------------------


def test_vci_p2_always():
    dm = {"A": {"s0": "0", "s1": "1", "s2": "0"}, "B": {"s0": "x", "s1": "y", "s2": "y"}}
    assert check_vci(dm, "A", "B", "B")
    assert check_vci(dm, "B", "A", "A")


def test_vci_full_rectangle():
    dm = {"Th": {"a": "0", "b": "0", "c": "1", "d": "1"},
          "Ph": {"a": "0", "b": "1", "c": "0", "d": "1"}}
    assert check_vci(dm, "Th", "Ph", ())


def test_vci_missing_combination():
    dm = {"Th": {"a": "0", "b": "0", "c": "1"},
          "Ph": {"a": "0", "b": "1", "c": "0"}}
    assert not check_vci(dm, "Th", "Ph", ())


def test_vci_range_product_equivalence():
    """R(X,Y|z) = R(X|z) x R(Y|z) characterizes variation independence."""
    import random

    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 4)
        regimes = [f"s{i}" for i in range(n)]
        dm = {v: {s: str(rng.randint(0, 1)) for s in regimes} for v in "ABC"}
        lhs = check_vci(dm, "A", "B", "C")
        rhs = True
        for z in {dm["C"][s] for s in regimes}:
            sub = [s for s in regimes if dm["C"][s] == z]
            rxy = {(dm["A"][s], dm["B"][s]) for s in sub}
            rx = {dm["A"][s] for s in sub}
            ry = {dm["B"][s] for s in sub}
            rhs = rhs and rxy == {(a, b) for a in rx for b in ry}
        assert lhs == rhs


# -- conditional_image ---------------------------------------------------------------


def test_image_identity():
    dm = {"S": {"a": "a", "b": "b"}}
    assert conditional_image(dm, "S", {}) == {"a", "b"}


def test_image_conditioned():
    dm = {"Th": {"a": "0", "b": "1", "c": "0"}, "Ph": {"a": "x", "b": "x", "c": "y"}}
    assert conditional_image(dm, "Th", {"Ph": "x"}) == {"0", "1"}
    assert conditional_image(dm, "Th", {"Ph": "y"}) == {"0"}


def test_image_empty_context():
    dm = {"Th": {"a": "0"}, "Ph": {"a": "x"}}
    with pytest.raises(EmptyContext):
        conditional_image(dm, "Th", {"Ph": "z"})


# -- check_eci --------------------------------------------------------------------


def test_eci_ineffective_treatment():
    fam = interventional_pair(F(1, 2), F(1, 2))
    ok, table = check_eci(fam, ci(["X"], (), ["T"], rdec=["Sigma"]))
    assert ok
    # the one witness is P(X=1 | T=t) = 1/2 in whichever regime T=t is possible
    assert table.value((), ("1",), ("0",)) == F(1, 2)
    assert table.value((), ("1",), ("1",)) == F(1, 2)
    ok2, _ = check_eci(fam, ci(["X"], ["T"], (), rdec=["Sigma"]))
    assert ok2


def test_eci_p2_shape_with_identity():
    fam = interventional_pair(F(1, 3), F(1, 5))
    stmt = ci(["X"], ["T"], ["T"], rdec=["Sigma"], cdec=["Sigma"])
    assert check_eci(fam, stmt)[0]


def test_eci_differing_marginals():
    fam = interventional_pair(F(1, 2), F(1, 3))
    ok, table = check_eci(fam, ci(["X"], (), (), rdec=["Sigma"]))
    assert not ok and table is None


def test_eci_malformed_left_decision():
    fam = interventional_pair(F(1, 2), F(1, 2))
    with pytest.raises(MalformedStatement):
        check_eci(fam, ci([], ["X"], (), ldec=["Sigma"]))


def test_eci_unknown_stochastic_variable():
    fam = interventional_pair(F(1, 2), F(1, 2))
    with pytest.raises(InvalidModel):
        check_eci(fam, ci(["Q"], (), ["T"], rdec=["Sigma"]))


def test_eci_not_complementary():
    fam = interventional_pair(F(1, 2), F(1, 2))
    fam = fam.with_decision("Const", {"s0": "0", "s1": "0"})
    with pytest.raises(NotComplementary):
        check_eci(fam, ci(["X"], (), (), rdec=["Const"]))


def test_eci_witness_also_versions_the_marginal():
    """A returned witness matches P(X=x | Z=z) wherever P(Z=z) > 0."""
    cfg = SearchConfig(seed=21, trials=120, var_cardinalities={"X": 2, "Z": 2},
                       regime_count=2, probability_grid=2)
    hits = 0
    for t in range(cfg.trials):
        fam = random_family(cfg, t)
        stmt = ci(["X"], (), ["Z"], rdec=["Sigma"])
        ok, table = check_eci(fam, stmt)
        if not ok:
            continue
        hits += 1
        for s in fam.regimes:
            d = fam.dists[s]
            for z in d.values["Z"]:
                if d.probability({"Z": z}) == 0:
                    continue
                cond = conditional(d, ("X",), {"Z": z})
                for x in d.values["X"]:
                    assert table.value((), (x,), (z,)) == cond.get((x,), F(0))
    assert hits > 5


# -- pairwise --------------------------------------------------------------------


def test_pairwise_follows_from_full():
    fam = interventional_pair(F(1, 2), F(1, 2))
    stmt = ci(["X"], (), ["T"], rdec=["Sigma"])
    assert check_eci(fam, stmt)[0]
    assert check_pairwise_eci(fam, stmt)


def test_pairwise_single_regime_needs_per_regime_part(xor_model):
    fam = RegimeFamily(["only"], {"only": xor_model}, {"Sigma": {"only": "only"}})
    good = ci(["X"], ["Y"], (), cdec=["Sigma"])
    bad = ci(["X"], ["Y"], ["W"], cdec=["Sigma"])
    assert check_pairwise_eci(fam, good)
    assert not check_pairwise_eci(fam, bad)


def test_pairwise_equals_full_exhaustively_small():
    """On discrete families witnesses are pointwise-determined, so the
    pairwise and full checks coincide; verified exhaustively at small scale
    (3 regimes, 1 binary variable, masses on a 1/2 grid)."""
    vars_ = {"X": ["0", "1"]}
    pmfs = [
        {("0",): F(m, 2), ("1",): F(2 - m, 2)} for m in range(3)
    ]
    stmt = ci(["X"], (), (), rdec=["Sigma"])
    count = 0
    for trio in product(pmfs, repeat=3):
        dists = {f"s{i}": DiscreteDistribution(vars_, p) for i, p in enumerate(trio)}
        fam = RegimeFamily(["s0", "s1", "s2"], dists,
                           {"Sigma": {s: s for s in ["s0", "s1", "s2"]}})
        assert check_eci(fam, stmt)[0] == check_pairwise_eci(fam, stmt)
        count += 1
    assert count == 27


def _pairwise_by_definition(fam, xs, ys, zs, phi):
    """Pairwise ECI from raw conditionals: within each phi group, every pair
    of regimes (a lone regime on its own) has one w(x, z) equal to
    P(X=x | Y=y, Z=z) in both regimes at every positive (y, z)."""

    def witness_ok(sigmas):
        w = {}
        for s in sigmas:
            d = fam.dists[s]
            for yz in product(*(d.values[n] for n in ys + zs)):
                given = dict(zip(ys + zs, yz))
                cond = brute_conditional(d, xs, given)
                if cond is None:
                    continue
                zpart = tuple(given[n] for n in zs)
                for xv in product(*(d.values[n] for n in xs)):
                    p = cond.get(xv, F(0))
                    if w.setdefault((xv, zpart), p) != p:
                        return False
        return True

    groups = {}
    for s in fam.regimes:
        groups.setdefault(tuple(fam.decvars[n][s] for n in phi), []).append(s)
    return all(
        witness_ok(pair)
        for sigmas in groups.values()
        for pair in (combinations(sigmas, 2) if len(sigmas) > 1 else [sigmas])
    )


def test_pairwise_matches_definition_three_regimes():
    """Seeded 3-regime families: groups of three (phi empty), and groups of
    one and two regimes (phi = Th, a random binary function of the regime)."""
    cfg = SearchConfig(seed=5, trials=40, var_cardinalities={"X": 2, "Y": 2, "Z": 2},
                       regime_count=3, probability_grid=2,
                       decision_cardinalities={"Th": 2})
    stoch = [("X",), ("Y",), ("Z",), ("Y", "Z"), ()]
    outcomes = {True: 0, False: 0}
    sizes = set()
    for t in range(cfg.trials):
        fam = random_family(cfg, t)
        sizes.update(len(g) for g in fam.phi_groups(frozenset({"Th"})).values())
        for ys in stoch:
            for zs in stoch:
                for phi, rdec in (((), ["Sigma"]), (("Th",), ["Sigma"])):
                    stmt = ci(["X"], ys, zs, rdec=rdec, cdec=phi)
                    got = check_pairwise_eci(fam, stmt)
                    assert got == _pairwise_by_definition(fam, ("X",), ys, zs, phi), (t, stmt)
                    outcomes[got] += 1
    assert min(outcomes.values()) > 20
    assert {1, 2, 3} <= sizes


# -- S_z and the general form ---------------------------------------------------


def test_S_z_everywhere_positive(two_fair_coins):
    fam = RegimeFamily(["a", "b"], {"a": two_fair_coins, "b": two_fair_coins})
    assert compute_S_z(fam, ("X",), {"X": "0"}) == ("a", "b")


def test_S_z_interventional():
    fam = interventional_pair(F(1, 2), F(1, 2))
    assert compute_S_z(fam, ("T",), {"T": "1"}) == ("s1",)
    assert compute_S_z(fam, ("T",), {"T": "0"}) == ("s0",)


def test_S_z_outside_support():
    vars_ = {"X": ["0", "1"]}
    d = dist(vars_, [({"X": "0"}, F(1))])
    fam = RegimeFamily(["a"], {"a": d})
    assert compute_S_z(fam, ("X",), {"X": "1"}) == ()


def test_S_z_rejects_unknown_variable():
    fam = interventional_pair(F(1, 2), F(1, 2))
    with pytest.raises(InvalidModel, match="unknown variable 'Q'"):
        compute_S_z(fam, ("Q",), {"Q": "0"})


def test_S_z_rejects_missing_value():
    fam = interventional_pair(F(1, 2), F(1, 2))
    with pytest.raises(InvalidModel, match="no value given for 'X'"):
        compute_S_z(fam, ("X", "T"), {"T": "0"})


def _four_regime_family():
    """(Th, K) complementary binary pair over four regimes; X fair everywhere."""
    vars_ = {"X": ["0", "1"]}
    d = dist(vars_, [({"X": "0"}, F(1, 2)), ({"X": "1"}, F(1, 2))])
    regimes = ["r00", "r01", "r10", "r11"]
    dec = {
        "Th": {r: r[1] for r in regimes},
        "K": {r: r[2] for r in regimes},
    }
    return RegimeFamily(regimes, {r: d for r in regimes}, dec)


def test_eci_general_constant_k_reduces():
    fam = interventional_pair(F(1, 2), F(1, 2))
    fam = fam.with_decision("K", {"s0": "0", "s1": "0"})
    stmt = ci(["X"], (), ["T"], ldec=["K"], rdec=["Sigma"])
    plain = ci(["X"], (), ["T"], rdec=["Sigma"])
    assert check_eci_general(fam, stmt) == check_eci(fam, plain)[0]


def test_eci_general_rectangle_ranges():
    fam = _four_regime_family()
    stmt = ci(["X"], (), (), ldec=["K"], rdec=["Th"])
    assert check_eci_general(fam, stmt)


def test_eci_general_not_complementary():
    fam = interventional_pair(F(1, 2), F(1, 2))
    fam = fam.with_decision("K", {"s0": "0", "s1": "0"})
    with pytest.raises(NotComplementary):
        check_eci_general(fam, ci(["X"], (), (), ldec=["K"]))


def test_eci_general_fails_when_ranges_entangled():
    fam = _four_regime_family()
    # restrict to three regimes: (Th, K) no longer a full rectangle given nothing
    sub = RegimeFamily(
        ["r00", "r01", "r10"],
        {r: fam.dists[r] for r in ["r00", "r01", "r10"]},
        {n: {r: m[r] for r in ["r00", "r01", "r10"]} for n, m in fam.decvars.items()},
    )
    stmt = ci(["X"], (), (), ldec=["K"], rdec=["Th"])
    assert not check_eci_general(sub, stmt)


# -- product space ----------------------------------------------------------------


def test_product_arithmetic():
    vars_ = {"X": ["0", "1"]}
    coin = dist(vars_, [({"X": "0"}, F(1, 2)), ({"X": "1"}, F(1, 2))])
    fam = RegimeFamily(["s0", "s1"], {"s0": coin, "s1": coin})
    prod = product_space(fam, {"s0": F(1, 2), "s1": F(1, 2)})
    assert prod.probability({"X": "0", "_regime": "s0"}) == F(1, 4)


def test_product_marginal_recovers_each_regime():
    fam = interventional_pair(F(1, 3), F(1, 5))
    prod = product_space(fam, {"s0": F(1, 4), "s1": F(3, 4)})
    for s in fam.regimes:
        table = conditional(prod, ("T", "X"), {"_regime": s})
        for key, p in fam.dists[s].atoms():
            assert table.get(key, F(0)) == p


def test_product_rejects_bad_priors():
    fam = interventional_pair(F(1, 2), F(1, 2))
    with pytest.raises(InvalidPrior):
        product_space(fam, {"s0": F(0), "s1": F(1)})
    with pytest.raises(InvalidPrior):
        product_space(fam, {"s0": F(1, 2), "s1": F(1, 3)})


def test_product_equivalence_sampled():
    """check_eci on the family == check_sci on the mixture, decision names
    read as ordinary coordinates (spot check; the exhaustive grid is in the
    acceptance suite)."""
    prior = {"r0": F(1, 2), "r1": F(1, 2)}
    stmts = sigma_statements()
    count = 0
    for fam in grid_families(grid=2):
        prod = product_space(fam, prior)
        for stmt in stmts:
            lhs = check_eci(fam, stmt)[0]
            rhs = check_sci(
                prod,
                tuple(stmt.left.stoch),
                tuple(stmt.right.stoch) + tuple(stmt.right.dec),
                tuple(stmt.cond.stoch) + tuple(stmt.cond.dec),
            )
            assert lhs == rhs, (fam.dists["r0"].pmf, fam.dists["r1"].pmf, stmt)
            count += 1
    assert count == 100 * len(stmts)


# -- complementarity / domination / meet -------------------------------------------


def test_complementary_identity():
    fam = interventional_pair(F(1, 2), F(1, 2))
    assert check_complementary(fam, ["Sigma"])


def test_complementary_constant_fails():
    fam = interventional_pair(F(1, 2), F(1, 2)).with_decision("C", {"s0": "0", "s1": "0"})
    assert not check_complementary(fam, ["C"])


def test_complementary_binary_pair():
    fam = _four_regime_family()
    assert check_complementary(fam, ["Th", "K"])
    assert not check_complementary(fam, ["Th"])


def test_dominating_identical_supports(two_fair_coins):
    fam = RegimeFamily(["b", "a"], {"a": two_fair_coins, "b": two_fair_coins})
    assert find_dominating(fam) == "b"  # first in declaration order


def test_dominating_disjoint_supports():
    fam = interventional_pair(F(1, 2), F(1, 2))
    assert find_dominating(fam) is None


def test_dominating_observational_regime():
    vars_ = {"T": ["0", "1"]}
    full = dist(vars_, [({"T": "0"}, F(1, 2)), ({"T": "1"}, F(1, 2))])
    d0 = dist(vars_, [({"T": "0"}, F(1))])
    d1 = dist(vars_, [({"T": "1"}, F(1))])
    fam = RegimeFamily(["do0", "do1", "obs"], {"obs": full, "do0": d0, "do1": d1})
    assert find_dominating(fam) == "obs"


def test_partition_meet_examples():
    a = {"a": "0", "b": "0", "c": "1", "d": "1"}
    b = {"a": "0", "b": "1", "c": "0", "d": "1"}
    crossing = partition_meet(a, b)
    assert len(set(crossing.values())) == 1  # crossing partitions collapse
    assert partition_meet(a, a) == {"a": "a", "b": "a", "c": "c", "d": "c"}
    const = {"a": "0", "b": "0", "c": "0", "d": "0"}
    assert len(set(partition_meet(a, const).values())) == 1


# -- decomposition and symmetry equivalences (sampled) -------------------------------


def test_decomposition_equivalence_sampled():
    stmts = []
    stoch = [(), ("X",), ("Y",)]
    for left in [("X",), ("Y",)]:
        for rs in stoch:
            for cs in stoch:
                stmts.append((left, rs, cs))
    count = 0
    for fam in grid_families(grid=2):
        for left, rs, cs in stmts:
            whole = check_eci(fam, ci(left, rs, cs, rdec=["Sigma"]))[0]
            part1 = check_eci(fam, ci(left, rs, cs, cdec=["Sigma"]))[0] if rs else True
            part2 = check_eci(fam, ci(left, (), cs, rdec=["Sigma"]))[0]
            assert whole == (part1 and part2)
            count += 1
    assert count


def test_symmetry_with_identity_in_cond_sampled():
    for fam in grid_families(grid=2):
        for left, right in [(("X",), ("Y",)), (("Y",), ("X",))]:
            fwd = check_eci(fam, ci(left, right, (), cdec=["Sigma"]))[0]
            bwd = check_eci(fam, ci(right, left, (), cdec=["Sigma"]))[0]
            per_regime = all(
                check_sci(fam.dists[s], left, right, ()) for s in fam.regimes
            )
            assert fwd == bwd == per_regime


# -- kernel-backed queries against raw pmf sums ------------------------------------


def _oracle_models():
    """Seeded distributions and 3-regime families with explicit zero-mass
    atoms (masses drawn from {0, 1, 2} before normalization)."""
    cards = {"X": 2, "Y": 3, "Z": 2}
    cfg = SearchConfig(seed=11, trials=12, var_cardinalities=cards, regime_count=3,
                       probability_grid=2)
    dists = [random_distribution(cfg, t) for t in range(cfg.trials)]
    fams = [random_family(cfg, t) for t in range(cfg.trials)]
    return dists, fams


def _raw_probability(d, assignment):
    return sum((p for key, p in d.pmf.items()
                if all(key[d.names.index(n)] == v for n, v in assignment.items())), F(0))


def _subsets(names):
    return [c for r in range(len(names) + 1) for c in combinations(names, r)]


def test_queries_match_raw_pmf_sums():
    dists, fams = _oracle_models()
    pool = dists + [f.dists[s] for f in fams for s in f.regimes]
    zero_atoms = sum(1 for d in pool for p in d.pmf.values() if p == 0)
    assert zero_atoms > 50
    zero_events = 0
    for d in pool:
        names = d.names
        for given_names in _subsets(names):
            for gv in product(*(d.values[n] for n in given_names)):
                given = dict(zip(given_names, gv))
                for targets in _subsets(names):
                    brute = brute_conditional(d, targets, given)
                    if brute is None:
                        zero_events += 1
                        with pytest.raises(ZeroConditioningEvent):
                            conditional(d, targets, given)
                        continue
                    assert conditional(d, targets, given) == {
                        k: p for k, p in brute.items() if p}
                assert d.probability(given) == _raw_probability(d, given)
        for n in names:
            for vm in (F, lambda v: F(int(v) ** 2 + 1, 3)):
                raw = sum((p * vm(key[names.index(n)]) for key, p in d.pmf.items()), F(0))
                assert d.expectation(n, vm) == raw
    assert zero_events > 0


def test_supports_and_domination_match_raw_pmf_sums():
    _, fams = _oracle_models()
    found = {True: 0, False: 0}
    for fam in fams:
        names = sorted(fam.variables)
        for zs in _subsets(names):
            for zv in product(*(fam.variables[n] for n in zs)):
                z = dict(zip(zs, zv))
                expected = tuple(s for s in fam.regimes
                                 if _raw_probability(fam.dists[s], z) > 0)
                assert compute_S_z(fam, zs, z) == expected
        support = {s: {k for k, p in fam.dists[s].pmf.items() if p > 0} for s in fam.regimes}
        for subset in _subsets(fam.regimes)[1:]:
            expected = next((s for s in fam.regimes if s in subset
                             and all(support[t] <= support[s] for t in subset)), None)
            assert find_dominating(fam, subset) == expected
            found[expected is not None] += 1
    assert min(found.values()) > 10
