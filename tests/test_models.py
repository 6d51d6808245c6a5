import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path

import pytest

from separoid import models, search
from separoid.errors import (
    CIError,
    EmptyContext,
    InvalidModel,
    InvalidPrior,
    MalformedStatement,
    NotComplementary,
    ZeroConditioningEvent,
)
from separoid.models import (
    DiscreteDistribution,
    MaskKernel,
    RegimeFamily,
    WitnessTable,
    check_complementary,
    check_eci,
    check_eci_general,
    check_pairwise_eci,
    check_sci,
    check_vci,
    compute_S_z,
    conditional,
    conditional_image,
    dominating_per_group,
    find_dominating,
    mask_names,
    partition_meet,
    product_space,
)
from separoid.search import SearchConfig, random_distribution, random_family
from separoid.universe import VarSet

from conftest import (
    brute_conditional,
    brute_eci,
    brute_image,
    brute_sci,
    ci,
    dist,
    exhaustive_maps,
    grid_families,
    interventional_pair,
    sigma_statements,
    vs,
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


def test_sci_argument_forms_and_errors():
    """A name, a tuple, a set, a generator and a VarSet give one verdict;
    with several unknown names the least is reported, and a VarSet carrying
    decision names is malformed, the first bad slot deciding."""
    d = random_distribution(SearchConfig(seed=3, var_cardinalities={"X": 2, "Y": 2, "Z": 2},
                                         probability_grid=2), 0)
    subsets = _subsets(("X", "Y", "Z"))
    verdicts = set()
    for slots in product(subsets, repeat=3):
        want = check_sci(d, *slots)
        forms = [tuple(map(set, slots)), tuple(vs(sl) for sl in slots),
                 tuple(reversed(sl) for sl in slots), tuple((n for n in sl) for sl in slots)]
        if all(len(sl) == 1 for sl in slots):
            forms.append(tuple(sl[0] for sl in slots))
        assert all(check_sci(d, *f) == want for f in forms), slots
        verdicts.add(want)
    assert verdicts == {True, False}
    for args, error, message in [
        ((("Q", "P", "X"), "Y", ()), InvalidModel, "unknown variable 'P'"),
        (({"X", "Q", "B"}, "Y", ()), InvalidModel, "unknown variable 'B'"),
        (((n for n in ("X", "Q", "P")), "Y", ()), InvalidModel, "unknown variable 'P'"),
        (("X", "Y", vs(("Z", "W", "A"))), InvalidModel, "unknown variable 'A'"),
        ((vs(["X"], ["Th", "Sigma"]), "Q", ()), MalformedStatement,
         "expected stochastic names only, got ['Sigma', 'Th']"),
        (("X", vs((), ["Sigma"]), "Q"), MalformedStatement,
         "expected stochastic names only, got ['Sigma']"),
        (("Q", vs((), ["Sigma"]), ()), InvalidModel, "unknown variable 'Q'"),
    ]:
        with pytest.raises(error) as e:
            check_sci(d, *args)
        assert str(e.value) == message


def _sci_oracle_models():
    """Four-variable tables with cardinalities 1, 2 and 3 on grids 1-6 (zero
    atoms included), tables declaring values no atom holds (first and last,
    so value indices differ from declared order), and product-space joints."""
    cards = {"A": 1, "B": 2, "C": 3, "D": 2}
    for grid in range(1, 7):
        yield random_distribution(SearchConfig(seed=17, var_cardinalities=cards,
                                               probability_grid=grid), grid)
    small = random_distribution(SearchConfig(seed=17, var_cardinalities={"A": 1, "B": 2, "C": 3},
                                             probability_grid=2), 0)
    unused = {"A": ("u", "0"), "B": ("0", "1", "u"), "C": ("0", "1", "2"), "D": ("0", "u")}
    yield DiscreteDistribution(unused, {(*k, "0"): p for k, p in small.pmf.items()})
    for index in range(2):
        fam = random_family(SearchConfig(seed=17, var_cardinalities={"A": 3}, regime_count=2,
                                         probability_grid=3, decision_cardinalities={"Th": 2}),
                            index)
        yield product_space(fam, {"s0": F(1, 3), "s1": F(2, 3)})


def test_sci_matches_bruteforce_oracle():
    """Every (X, Y, Z) subset triple, overlapping X and Y and X = Y included,
    on 60 tables of three binary variables and on ``_sci_oracle_models``."""
    cfg = SearchConfig(seed=3, trials=60, var_cardinalities={"A": 2, "B": 2, "C": 2},
                       probability_grid=3)
    for d in [*(random_distribution(cfg, t) for t in range(cfg.trials)), *_sci_oracle_models()]:
        for xs, ys, zs in product(_subsets(d.names), repeat=3):
            assert check_sci(d, xs, ys, zs) == brute_sci(d, xs, ys, zs), (d.names, xs, ys, zs)


@pytest.mark.parametrize("cards, trials", [({"A": 3, "B": 2, "C": 2}, 12),
                                           ({"A": 2, "B": 2, "C": 2, "D": 2}, 3)],
                         ids=["ternary", "four-binary"])
def test_sci_matches_bruteforce_oracle_beyond_three_binary_names(cards, trials):
    """Every (X, Y, Z) subset triple on seeded tables with a ternary name
    (a 2-bit field, so a failing cell need not come first) and with four
    binary names."""
    cfg = SearchConfig(seed=9, trials=trials, var_cardinalities=cards, probability_grid=3)
    for t in range(cfg.trials):
        d = random_distribution(cfg, t)
        for xs, ys, zs in product(_subsets(d.names), repeat=3):
            assert check_sci(d, xs, ys, zs) == brute_sci(d, xs, ys, zs), (t, xs, ys, zs)


def test_undeclared_values_raise_when_the_kernel_is_built():
    """A table built with validate=False whose positive row holds an
    undeclared value raises InvalidModel, worded as a checked table's
    error, on every exact check, in a family too."""
    vars_ = {"X": ["0", "1"], "Y": ["0", "1"]}
    pmf = {("0", "0"): F(1, 2), ("0", "2"): F(1, 2)}
    d = DiscreteDistribution(vars_, pmf, validate=False)
    fam = RegimeFamily(["s0", "s1"], {"s0": dist(vars_, [({"X": 0, "Y": 0}, 1)]), "s1": d},
                       {"Sigma": {"s0": "s0", "s1": "s1"}})
    message = "value '2' not declared for variable 'Y'"
    for call in (lambda: check_sci(d, "X", "Y", ()), lambda: conditional(d, "X", {}),
                 lambda: d.probability({"Y": "0"}),
                 lambda: check_eci(fam, ci(["X"], ["Y"], rdec=["Sigma"])),
                 lambda: compute_S_z(fam, "Y", {"Y": "0"}),
                 lambda: DiscreteDistribution(vars_, pmf)):
        with pytest.raises(InvalidModel) as e:
            call()
        assert str(e.value) == message


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


def test_partial_decision_maps_raise_invalid_model():
    """A decision map that misses a regime is named, as RegimeFamily names
    it, and so is an unknown decision name, at every entry that compiles a
    map: on a map the first in slot order (unknown names before partial
    ones), on a family the least, as ``MaskKernel.mask`` would name it in
    other words."""
    dm = {"T": {"a": "0"}, "U": {"b": "1"}}
    message = "decision variable 'T' is not total on the regimes"
    for call in (lambda: check_vci(dm, "T", "U", ()),
                 lambda: conditional_image(dm, "T", {"U": "1"})):
        with pytest.raises(InvalidModel) as e:
            call()
        assert str(e.value) == message
    with pytest.raises(InvalidModel) as e:
        check_vci(dm, "U", (), (), regimes=["a", "b"])
    assert str(e.value) == "decision variable 'U' is not total on the regimes"
    fam = interventional_pair(F(1, 2), F(1, 2))
    total = {"T": {"a": "0", "b": "1"}, "U": {"a": "1", "b": "1"}}
    calls = [
        (lambda: check_vci(total, "Q", "U", ()), "Q"),
        (lambda: check_vci(total, "T", "U", ("R", "Q")), "Q"),
        (lambda: check_vci(total, "U", "R", "Q"), "R"),
        (lambda: check_vci(dm, "T", "Q", ()), "Q"),  # before T's partial map
        (lambda: conditional_image(total, "Q", {}), "Q"),
        (lambda: conditional_image(total, "T", {"Q": "1"}), "Q"),
        (lambda: check_complementary(fam, ["Q"]), "Q"),
        (lambda: dominating_per_group(fam, ["Sigma", "R", "Q"]), "Q"),
        (lambda: fam.phi_groups(frozenset({"R", "Q"})), "Q"),
    ]
    for call, name in calls:
        with pytest.raises(InvalidModel) as e:
            call()
        assert str(e.value) == f"unknown decision variable {name!r}"
    for call in (lambda: RegimeFamily(fam.regimes, fam.dists, {"T": {"s0": "0"}}),
                 lambda: fam.with_decision("T", {"s1": "0"})):
        with pytest.raises(InvalidModel) as e:
            call()
        assert str(e.value) == message


def test_conditional_image_matches_its_definition():
    """conditional_image against ``brute_image`` on every map of three
    binary names on at most three regimes (``exhaustive_maps``), every X
    slot (a single name also given as a string) and every partial given
    assignment, plus two with a value, "2", that no regime takes; an empty
    image must raise EmptyContext."""
    slots = [mask_names(m, "ABC") for m in range(8)] + ["B"]
    givens = [{n: v for n, v in zip("ABC", vals) if v} for vals in product(("", "0", "1"), repeat=3)]
    givens += [{"A": "2"}, {"C": "2", "A": "1"}]
    seen = Counter()
    for decmap, regimes in exhaustive_maps("ABC", 3):
        for given in givens:
            for x in slots:
                want = brute_image(decmap, x, given, regimes)
                try:
                    got = conditional_image(decmap, x, given)
                except EmptyContext:
                    got = None
                assert got == (want or None), (decmap, x, given)
                seen[bool(want)] += 1
    assert seen[True] and seen[False]


def test_phi_groups_match_a_brute_force_grouping():
    """phi_groups' keys, their order (sorted as strings, so "10" before
    "9") and each group's members in declaration order, against grouping by
    hand, on families whose regimes and decision values are declared out of
    sorted order; a witness table lists its entries in that group order."""
    cfg = SearchConfig(seed=9, trials=12, var_cardinalities={"X": 2}, regime_count=4,
                       probability_grid=2)
    regimes = ["r2", "r0", "r10", "r1"]
    rng = random.Random(9)
    phis = [frozenset(c) for k in range(4) for c in combinations(("Sigma", "Th", "Ka"), k)]
    for t in range(cfg.trials):
        drawn = random_family(cfg, t)
        decvars = {"Sigma": {s: s for s in regimes},
                   "Th": {s: rng.choice(["9", "10", "b"]) for s in regimes},
                   "Ka": {s: rng.choice(["10", "9"]) for s in regimes}}
        fam = RegimeFamily(regimes, dict(zip(regimes, drawn.dists.values())), decvars)
        for phi in phis:
            groups: dict = {}
            for s in regimes:
                groups.setdefault(tuple(decvars[n][s] for n in sorted(phi)), []).append(s)
            assert list(fam.phi_groups(phi).items()) == [(v, tuple(groups[v])) for v in sorted(groups)]
    same = RegimeFamily(regimes, dict.fromkeys(regimes, drawn.dists["s0"]),
                        {"Sigma": decvars["Sigma"], "Th": {"r2": "9", "r0": "10", "r10": "b", "r1": "9"}})
    ok, table = check_eci(same, ci(["X"], (), rdec=["Sigma"], cdec=["Th"]))
    assert ok and table.entries == brute_eci(same, ["X"], (), (), ["Th"])
    assert [k[0] for k in table.entries] == [(v,) for v in ("10", "9", "b") for _ in "01"]


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


def test_product_rejects_unvalidated_regime_tables():
    """Regime tables built with validate=False are checked in the product,
    with the messages a checked product table gives (a key of the wrong
    length is named as such); a valid one gives the product of checked
    tables."""
    vars_ = {"X": ["0", "1"]}
    prior = {"s0": F(1, 2), "s1": F(1, 2)}
    good = {("0",): F(1, 4), ("1",): F(3, 4)}

    def family(pmf, validate=False):
        return RegimeFamily(["s0", "s1"], {
            "s0": DiscreteDistribution(vars_, pmf, validate=validate),
            "s1": DiscreteDistribution(vars_, good)}, {"Sigma": {"s0": "a", "s1": "b"}})

    for pmf, message in [
        ({("0",): F(1, 4), ("1",): F(1, 4)}, "masses sum to 3/4, not 1"),
        ({("0",): F(-1, 4), ("1",): F(5, 4)}, "negative mass on ('a', '0', 's0')"),
        ({("0",): F(1, 2), ("2",): F(1, 2)}, "value '2' not declared for variable 'X'"),
        ({("0", "1"): F(1)}, "assignment ('0', '1') does not cover ('X',)"),
    ]:
        with pytest.raises(InvalidModel) as e:
            product_space(family(pmf), prior)
        assert str(e.value) == message
    prod = product_space(family(good), prior)
    assert prod.validated and prod.pmf == product_space(family(good, True), prior).pmf


def test_product_equivalence_sampled():
    """check_eci on the family == check_sci on the mixture, decision names
    read as ordinary coordinates (spot check; the exhaustive grid is in the
    acceptance suite), under the uniform prior and a skewed one: the
    equivalence holds under any prior with full support on the regimes."""
    stmts = sigma_statements()
    count = 0
    for fam, prior in product(grid_families(grid=2), ({"r0": F(1, 2), "r1": F(1, 2)},
                                                      {"r0": F(1, 7), "r1": F(6, 7)})):
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
    assert count == 2 * 100 * len(stmts)


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


def _observational_family():
    vars_ = {"T": ["0", "1"]}
    full = dist(vars_, [({"T": "0"}, F(1, 2)), ({"T": "1"}, F(1, 2))])
    d0 = dist(vars_, [({"T": "0"}, F(1))])
    d1 = dist(vars_, [({"T": "1"}, F(1))])
    return RegimeFamily(["do0", "do1", "obs"], {"obs": full, "do0": d0, "do1": d1})


def test_dominating_observational_regime():
    assert find_dominating(_observational_family()) == "obs"


def test_dominating_subset_rejects_unknown_labels():
    """An unknown label in the subset raises, naming the least one, rather
    than being dropped."""
    fam = _observational_family()
    for subset, unknown in ((["do1", "nope"], "nope"), (["zz", "obs", "aa"], "aa"),
                            ([], None)):
        with pytest.raises(InvalidModel) as err:
            find_dominating(fam, subset)
        assert str(err.value) == (f"unknown regime {unknown!r}" if unknown
                                  else "empty regime subset")
    assert find_dominating(fam, ["do1", "obs"]) == "obs"


def test_dominating_subset_reads_a_string_as_one_label():
    """A string subset is one regime label, not its characters."""
    fam = RegimeFamily(["ab", "a", "b"], {s: interventional_pair(F(1, 2), F(1, 2)).dists["s0"]
                                          for s in ("ab", "a", "b")})
    assert find_dominating(fam, "b") == "b"
    assert find_dominating(fam, "ab") == "ab"
    with pytest.raises(InvalidModel, match="unknown regime 'ba'"):
        find_dominating(fam, "ba")


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
        for n in names:  # an undeclared given value is an event of mass 0
            with pytest.raises(ZeroConditioningEvent):
                conditional(d, names, {n: "undeclared"})
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


# -- one verdict per regime group, witness tables built on read ---------------------


def _count_calls(monkeypatch, name):
    """Wrap the MaskKernel method with a counter keyed by (kernel, *args)."""
    calls = Counter()
    method = getattr(MaskKernel, name)

    def counted(self, *args):
        calls[self, *args] += 1
        return method(self, *args)

    monkeypatch.setattr(MaskKernel, name, counted)
    return calls


def _grid_shape_family():
    """A two-regime family over two binary variables with the identity
    decision variable, masses on a 1/3 grid."""
    vars_ = {"X": ["0", "1"], "Y": ["0", "1"]}
    atoms = [(x, y) for x in "01" for y in "01"]
    d0 = DiscreteDistribution(vars_, dict(zip(atoms, [F(1, 3), F(1, 3), 0, F(1, 3)])))
    d1 = DiscreteDistribution(vars_, dict(zip(atoms, [F(1, 3), 0, F(1, 3), F(1, 3)])))
    return RegimeFamily(["r0", "r1"], {"r0": d0, "r1": d1}, {"Sigma": {"r0": "r0", "r1": "r1"}})


def test_each_group_verdict_is_computed_once(monkeypatch):
    """check_eci, check_pairwise_eci and check_eci_general over the 84
    grid-shape statements factorize on the family's stacked kernel once per
    distinct normalized stacked triple X\\Z', (Y, R)\\Z' | Z', Z' = (Z, Phi)
    and Phi replaced by the regime column R when it identifies the regime,
    never for a statement whose left slot, or whose right slot and R, lie
    inside Z'; a second round factorizes zero times."""
    calls = _count_calls(monkeypatch, "_factorizes")
    fam = _grid_shape_family()
    stmts = sigma_statements()
    assert len(stmts) == 84
    k, stack = fam.kernel, fam.stacked
    r = 1 << len(k.names)
    wanted, inside = set(), 0
    for st in stmts:
        x, y, z = (k.mask(v.stoch) for v in (st.left, st.right, st.cond))
        phi = st.cond.dec
        z |= r if check_complementary(fam, phi) else stack.mask(phi)
        inside += not x & ~z
        pair = sorted((x & ~z, (y | r) & ~z))
        if pair[0]:
            wanted.add((stack, *pair, z))
    assert inside and len(wanted) < len(stmts)
    first = [(check_eci(fam, st)[0], check_pairwise_eci(fam, st), check_eci_general(fam, st))
             for st in stmts]
    assert set(calls) == wanted and set(calls.values()) == {1}
    assert {v for row in first for v in row} == {True, False}
    calls.clear()
    again = [(check_eci(fam, st)[0], check_pairwise_eci(fam, st), check_eci_general(fam, st))
             for st in stmts]
    assert again == first and not calls


def test_sci_reads_each_marginal_once_per_mask(monkeypatch):
    """Every subset triple on a table over four binary names builds each
    marginal that a factorization reads, of Z, (X, Z), (Y, Z) and
    (X, Y, Z), once per mask; a second round builds none."""
    calls = _count_calls(monkeypatch, "marg")
    d = random_distribution(SearchConfig(seed=5, var_cardinalities=dict.fromkeys("ABCD", 2),
                                         probability_grid=3), 0)
    k = d.kernel
    triples = list(product(_subsets(d.names), repeat=3))
    wanted = set()
    for slots in triples:
        x, y, z = (k.mask(v) for v in slots)
        x, y = x & ~z, y & ~z
        if x and y:
            wanted |= {(k, z), (k, x | z), (k, y | z), (k, x | y | z)}
    first = [check_sci(d, *slots) for slots in triples]
    assert set(calls) == wanted and set(calls.values()) == {1}
    assert set(first) == {True, False}
    calls.clear()
    assert [check_sci(d, *slots) for slots in triples] == first and not calls


def _shared_x_family():
    """Three regimes with one law of (X, Z) and each its own law of Y,
    independent of (X, Z), one with Y constant: X _||_ (Y, Sigma) holds and
    Y _||_ (X, Sigma) fails, so an ordered pair would show."""
    vars_ = {"X": ["0", "1"], "Y": ["0", "1"], "Z": ["0", "1"]}
    pz, px1 = (F(1, 3), F(2, 3)), (F(1, 4), F(1, 2))  # P(Z=z), P(X=1 | Z=z)
    dists = {}
    for s, py1 in zip(("s0", "s1", "s2"), (F(1, 5), F(1, 2), F(0))):
        dists[s] = DiscreteDistribution(vars_, {
            (x, y, z): pz[int(z)] * (px1[int(z)] if x == "1" else 1 - px1[int(z)])
            * (py1 if y == "1" else 1 - py1)
            for x in "01" for y in "01" for z in "01"})
    return RegimeFamily(list(dists), dists, {"Sigma": {s: s for s in dists},
                                             "Th": {"s0": "0", "s1": "0", "s2": "1"}})


def test_normalized_eci_verdicts_equal_raw_ones():
    """fam.eci and check_pairwise_eci, asked in normal form, equal the
    definition (``brute_eci``, full and pairwise) over every (x, y, z) mask
    triple, overlapping ones included, and every phi, on families of three
    and four regimes.  Grid 1 leaves zero-mass contexts."""
    fams = [_shared_x_family()]
    for regimes, grid in product((3, 4), (1, 2)):
        cfg = SearchConfig(seed=20 + regimes + grid, trials=1,
                           var_cardinalities={"X": 2, "Y": 2, "Z": 2}, regime_count=regimes,
                           probability_grid=grid, decision_cardinalities={"Th": 2})
        fams += [random_family(cfg, t) for t in range(2)]
    seen = Counter()
    for fam in fams:
        names = fam.kernel.names
        for phi in map(frozenset, ((), ("Sigma",), ("Th",), ("Sigma", "Th"))):
            for x, y, z in product(range(8), repeat=3):
                xs, ys, zs = (mask_names(m, names) for m in (x, y, z))
                full = brute_eci(fam, xs, ys, zs, phi) is not None
                pairwise = brute_eci(fam, xs, ys, zs, phi, pairwise=True) is not None
                assert fam.eci(x, y, z, phi) == full, (fam.regimes, x, y, z, phi)
                stmt = ci(xs, ys, zs, rdec=() if "Sigma" in phi else ["Sigma"], cdec=phi)
                assert check_pairwise_eci(fam, stmt) == pairwise, stmt
                seen[full, bool(x & z or y & z)] += 1
    assert len(seen) == 4


def test_eci_matches_bruteforce_oracle():
    """check_eci, check_pairwise_eci and fam.eci equal ``brute_eci`` on every
    (x, y, z) mask triple, overlapping ones included, and every phi, and a
    holding check_eci's witness entries equal the oracle's, on the
    ``_oracle_models`` families (three regimes, a three-valued Y, zero-mass
    atoms) and ``_shared_x_family``."""
    seen = Counter()
    for fam in [*_oracle_models()[1], _shared_x_family()]:
        names = fam.kernel.names
        for x, y, z in product(range(8), repeat=3):
            xs, ys, zs = (mask_names(m, names) for m in (x, y, z))
            for phi in map(frozenset, _subsets(sorted(fam.decvars))):
                stmt = ci(xs, ys, zs, rdec=() if "Sigma" in phi else ["Sigma"], cdec=phi)
                want = brute_eci(fam, xs, ys, zs, phi)
                ok, table = check_eci(fam, stmt)
                assert ok == fam.eci(x, y, z, phi) == (want is not None), stmt
                if ok:
                    assert table.entries == want, stmt
                assert check_pairwise_eci(fam, stmt) == (
                    brute_eci(fam, xs, ys, zs, phi, pairwise=True) is not None), stmt
                seen[ok, bool(x & y or x & z or y & z)] += 1
    assert len(seen) == 4


def test_witness_table_is_built_on_first_read(monkeypatch):
    calls = _count_calls(monkeypatch, "laws")
    fam = interventional_pair(F(1, 2), F(1, 2))
    ok, table = check_eci(fam, ci(["X"], (), ["T"], cdec=["Sigma"]))
    # the verdict reads no law; the unread table cost nothing
    assert ok and sum(calls.values()) == 0
    assert table.value(("s0",), ("1",), ("0",)) == F(1, 2)
    assert sum(calls.values()) == 1
    assert table.entries == {(("s0",), ("0",), ("0",)): F(1, 2), (("s0",), ("1",), ("0",)): F(1, 2),
                             (("s1",), ("0",), ("1",)): F(1, 2), (("s1",), ("1",), ("1",)): F(1, 2)}
    assert sum(calls.values()) == 1  # read once, kept


def test_witness_names_are_built_on_first_read(monkeypatch):
    """A table holds its question: no holding check_eci names a slot, and
    reading x_vars builds its names.  It equals, and prints as, a table whose
    every field was read as soon as check_eci returned, and stays unhashable."""
    named = Counter()
    mask_names = models.mask_names

    def counted(mask, names):
        named[mask] += 1
        return mask_names(mask, names)

    monkeypatch.setattr(models, "mask_names", counted)
    fam = interventional_pair(F(1, 2), F(1, 3))
    holding = [stmt for stmt in _slot_statements(("X", "T"), ("Sigma",))
               if not stmt.left.dec and check_eci(fam, stmt)[0]]
    assert len(holding) > 10 and not named
    stmt = ci(["X"], (), ["T"], cdec=["Sigma"])
    ok, table = check_eci(fam, stmt)
    assert ok and table.x_vars == ("X",) and named == {fam.kernel.mask("X"): 1}
    ok, eager = check_eci(interventional_pair(F(1, 2), F(1, 3)), stmt)
    fields = (eager.phi_vars, eager.x_vars, eager.z_vars, eager.entries)
    assert ok and table == eager
    assert (table.phi_vars, table.x_vars, table.z_vars, table.entries) == fields
    assert fields[:3] == (("Sigma",), ("X",), ("T",)) and len(fields[3]) == 4
    assert repr(table) == repr(eager) == (
        "WitnessTable(phi_vars=('Sigma',), x_vars=('X',), z_vars=('T',))")
    with pytest.raises(TypeError):
        hash(table)


def _slot_statements(stoch, decisions):
    """Every statement with a nonempty stochastic left part and each decision
    name in one slot or in none."""
    subsets = [c for r in range(len(stoch) + 1) for c in combinations(stoch, r)]
    for left, right, cond in product(subsets[1:], subsets, subsets):
        for place in product(range(4), repeat=len(decisions)):
            dec = [[], [], []]
            for name, p in zip(decisions, place):
                if p:
                    dec[p - 1].append(name)
            yield ci(left, right, cond, ldec=dec[0], rdec=dec[1], cdec=dec[2])


def _answer(check, fam, stmt):
    """(verdict, witness table or None), or ("raised", type, message)."""
    try:
        out = check(fam, stmt)
    except CIError as e:
        return "raised", type(e), str(e)
    return out if isinstance(out, tuple) else (out, None)


def test_cached_answers_match_fresh_families():
    """One reused family answers every slot combination, twice, as a fresh
    family per call does: verdicts, witness tables (entries, names and
    ==) and errors by type and message, raised again on every repeat."""
    seen = Counter()
    for regimes, seed in ((3, 11), (4, 12)):
        cfg = SearchConfig(seed=seed, trials=1, var_cardinalities={"X": 2, "Y": 2},
                           regime_count=regimes, probability_grid=2,
                           decision_cardinalities={"Th": 2})
        reused = random_family(cfg, 0)
        stmts = list(_slot_statements(("X", "Y"), ("Sigma", "Th")))
        for _ in range(2):
            for stmt in stmts:
                for check in (check_eci, check_pairwise_eci, check_eci_general):
                    got = _answer(check, reused, stmt)
                    want = _answer(check, random_family(cfg, 0), stmt)
                    assert got == want, (check.__name__, stmt)
                    table, fresh = got[1], want[1]
                    if isinstance(table, WitnessTable):
                        assert (table.phi_vars, table.x_vars, table.z_vars, table.entries) == (
                            fresh.phi_vars, fresh.x_vars, fresh.z_vars, fresh.entries)
                        seen["table"] += 1
                    else:
                        seen[got[0]] += 1
    assert seen["table"] and seen[True] and seen[False] and seen["raised"]


def test_witness_tables_equal_under_proportional_counts():
    """Two families with the same conditionals of X given Z but different
    Z-marginals in the regime met first (so the counts of a context are
    proportional, not equal) give == tables; another conditional does not."""
    vars_ = {"X": ["0", "1"], "Z": ["0", "1"]}

    def law(pz1, px1_z0=F(1, 3)):
        px1 = {"0": px1_z0, "1": F(3, 4)}  # P(X=1 | Z=z)
        return DiscreteDistribution(vars_, {
            (x, z): (pz1 if z == "1" else 1 - pz1) * (px1[z] if x == "1" else 1 - px1[z])
            for x in "01" for z in "01"})

    def family(order, a, b):
        return RegimeFamily(order, {"a": a, "b": b}, {"Sigma": {"a": "a", "b": "b"}})

    stmt = ci(["X"], (), ["Z"], rdec=["Sigma"])
    ok1, t1 = check_eci(family(["a", "b"], law(F(1, 2)), law(F(2, 7))), stmt)
    ok2, t2 = check_eci(family(["b", "a"], law(F(1, 2)), law(F(2, 7))), stmt)
    assert ok1 and ok2 and t1 == t2 and t1.entries == t2.entries
    assert t1.value((), ("1",), ("0",)) == F(1, 3)
    ok3, t3 = check_eci(family(["a", "b"], law(F(1, 2), F(1, 4)), law(F(1, 3), F(1, 4))), stmt)
    assert ok3 and t3 != t1 and t3.value((), ("1",), ("0",)) == F(1, 4)


# -- slot masks resolved once per variable signature ----------------------------


def _sibling_families(seed):
    """Two 3-regime families over one names tuple (X, Y), with the same
    tables: in the first {Th} identifies the regime, in the second it does
    not; both declare the identity Sigma."""
    cfg = SearchConfig(seed=seed, trials=1, var_cardinalities={"X": 2, "Y": 2},
                       regime_count=3, probability_grid=2)
    base = random_family(cfg, 0)
    ident = base.with_decision("Th", {s: str(i) for i, s in enumerate(base.regimes)})
    coarse = random_family(cfg, 0).with_decision(
        "Th", {s: str(min(i, 1)) for i, s in enumerate(base.regimes)})
    return ident, coarse, cfg


def _direct_answer(check, fam, stmt):
    """The verdict from masks built with kernel.mask on a family whose
    caches nothing else reads; None where the statement does not apply."""
    k = fam.kernel
    x, y, z = (k.mask(v.stoch) for v in (stmt.left, stmt.right, stmt.cond))
    if check is check_eci_general:
        return fam.eci_general(x, stmt.left.dec, y, stmt.right.dec, z, stmt.cond.dec)
    if stmt.left.dec:
        return None
    return fam.eci(x, y, z, stmt.cond.dec)


def test_shared_masks_are_exact_and_family_checks_do_not_leak():
    """Two families over one names tuple share resolved slot masks but not
    decision checks: asked in either order, the family where {Th} does not
    identify the regime raises NotComplementary every time, and every
    verdict equals the one from masks built directly."""
    seen = Counter()
    for seed, flip in ((31, False), (32, True)):
        ident, coarse, cfg = _sibling_families(seed)
        assert ident.kernel._resolved is coarse.kernel._resolved
        order = [(coarse, False), (ident, True)] if flip else [(ident, True), (coarse, False)]
        stmts = list(_slot_statements(("X", "Y"), ("Sigma", "Th")))
        for fam, identifies in order:
            direct = random_family(cfg, 0).with_decision("Th", fam.decvars["Th"])
            for stmt in stmts:
                for check in (check_eci, check_pairwise_eci, check_eci_general):
                    got = _answer(check, fam, stmt)
                    if stmt.left.dec and check is not check_eci_general:
                        assert got[1] is MalformedStatement, stmt
                    elif stmt.decision_names == {"Th"} and not identifies:
                        assert got[1:] == (NotComplementary,
                                           "decision family ('Th',) does not identify the regime")
                    else:
                        assert got[0] == _direct_answer(check, direct, stmt), (check, stmt)
                    seen[got[0]] += 1
    assert seen["raised"] and seen[True] and seen[False]


def test_unknown_names_raise_on_every_family_and_call():
    """Unknown names, several at once, raise as before on each family and
    each repeat: the first unknown stochastic name met in the left, right
    and conditioning slots, else the least unknown decision name (as
    ``phi_groups`` names it, under every hash seed); a decision name in the
    left slot is malformed before any name is looked up."""
    ident, coarse, _ = _sibling_families(33)
    cases = [
        (ci(["X", "Q"], ["P"], ["R"], rdec=["Sigma"]), "unknown stochastic variable 'Q'"),
        (ci(["X"], ["Y", "P"], ["Q", "R"], cdec=["Ka", "Kb"]),
         "unknown stochastic variable 'P'"),
        (ci(["X"], ["Y"], ["Q"], rdec=["Ka"]), "unknown stochastic variable 'Q'"),
        (ci(["X"], ["Y"], rdec=["Sigma", "Ka"]), "unknown decision variable 'Ka'"),
    ]
    several = ci(["X"], ["Y"], rdec=["Ka", "Th"], cdec=["Kb", "Kc"])
    first = min(n for n in several.decision_names if n not in ident.decvars)
    cases.append((several, f"unknown decision variable {first!r}"))
    for _ in range(2):
        for fam in (ident, coarse, ident):
            for stmt, message in cases:
                for check in (check_eci, check_pairwise_eci, check_eci_general):
                    assert _answer(check, fam, stmt) == ("raised", InvalidModel, message)
                left = ci(stmt.left.stoch, stmt.right.stoch, stmt.cond.stoch,
                          ldec=["Sigma"], rdec=stmt.right.dec)
                for check in (check_eci, check_pairwise_eci):
                    assert _answer(check, fam, left) == (
                        "raised", MalformedStatement,
                        "decision variable in the left slot; use check_eci_general")


def test_unknown_stochastic_names_name_the_least_of_the_first_slot():
    """Several unknown stochastic names: the least unknown name of the first
    slot that has one, in left, right, cond order, whatever the order in
    which the slots' sets iterate."""
    fam = interventional_pair(F(1, 3), F(2, 3))
    cases = [
        (ci(["X", "Q", "P", "R"], ["Y"], rdec=["Sigma"]), "P"),
        (ci(["X"], ["T", "Yb", "Ya", "Yc"], ["W", "V"], rdec=["Sigma"]), "Ya"),
        (ci(["X"], ["T"], ["Zc", "T", "Za", "Zb"], cdec=["Sigma"]), "Za"),
    ]
    for stmt, name in cases:
        for check in (check_eci, check_pairwise_eci, check_eci_general):
            assert _answer(check, fam, stmt) == (
                "raised", InvalidModel, f"unknown stochastic variable {name!r}")


@pytest.mark.parametrize("seed", ["0", "9", "37", "101"])
def test_unknown_stochastic_names_under_each_hash_seed(seed):
    """The test above in a fresh process per PYTHONHASHSEED, so the name
    sets iterate in several orders."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = ("import test_models as t; "
            "t.test_unknown_stochastic_names_name_the_least_of_the_first_slot()")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr


def test_resolved_mask_memo_is_bounded_by_stochastic_triples():
    """Statements that differ only in decision names add one memo entry per
    distinct stochastic triple; every key is made of name sets or name
    tuples, never of a statement."""
    vars_ = {"Mu": ["0", "1"], "Nu": ["0", "1"]}
    d = DiscreteDistribution(vars_, {(a, b): F(1, 4) for a in "01" for b in "01"})
    decs = {f"D{i}": {"s0": "0", "s1": "1"} for i in range(4)}
    fam = RegimeFamily(["s0", "s1"], {"s0": d, "s1": d}, decs)
    memo = fam.kernel._resolved
    before = len(memo)
    stmts = [ci(left, right, cond, rdec=rdec, cdec=cdec)
             for left, right, cond in product((["Mu"], ["Mu", "Nu"]), ((), ["Nu"]), ((), ["Nu"]))
             for rdec, cdec in product(_subsets(tuple(decs))[1:], ((), ["D0"], ["D1", "D3"]))]
    triples = {(st.left.stoch, st.right.stoch, st.cond.stoch) for st in stmts}
    assert len(stmts) > 10 * len(triples)
    for stmt in stmts:
        check_eci(fam, stmt)
        check_pairwise_eci(fam, stmt)
    assert len(memo) - before == len(triples)
    check_sci(d, "Mu", ("Nu",), ())
    assert len(memo) - before == len(triples) + 1
    for key in memo:
        assert isinstance(key, tuple) and len(key) == 3
        for part in key:
            assert isinstance(part, (str, frozenset, tuple)), key
            assert isinstance(part, str) or all(isinstance(n, str) for n in part), key


def test_sci_argument_forms_share_or_skip_the_memo():
    """Every argument form gives the same verdict; only names, tuples of
    names and ``VarSet``s are memoized, and two generators naming different
    variables, asked back to back, each get their own answer."""
    vars_ = {"Ga": ["0", "1"], "Gb": ["0", "1"], "Gc": ["0", "1"]}
    # Ga, Gb independent fair coins, Gc a copy of Ga
    d = DiscreteDistribution(vars_, {(a, b, a): F(1, 4) for a in "01" for b in "01"})
    memo = d.kernel._resolved
    for other, want in (("Gb", True), ("Gc", False)):
        forms = [("Ga", other), (("Ga",), (other,)), (["Ga"], [other]), ({"Ga"}, {other}),
                 (vs(["Ga"]), vs([other])), ((n for n in ["Ga"]), (n for n in [other]))]
        for x, y in forms:
            size = len(memo)
            assert check_sci(d, x, y, ()) is want, (x, y)
            assert len(memo) == size + isinstance(x, (str, tuple, VarSet)), (x, y)
    assert len(memo) == 6
    assert check_sci(d, (n for n in ["Gb"]), (n for n in ["Ga"]), ())
    assert not check_sci(d, (n for n in ["Gc"]), (n for n in ["Ga"]), ())
    assert len(memo) == 6


def test_check_sci_resolves_varset_slots_once(monkeypatch):
    """VarSet slots are memoized per signature: the first check_sci resolves
    their masks through ``MaskKernel.mask``, the second does not."""
    calls = []
    mask = MaskKernel.mask

    def counted(self, names):
        calls.append(1)
        return mask(self, names)

    monkeypatch.setattr(MaskKernel, "mask", counted)
    vars_ = {"Vsa": ["0", "1"], "Vsb": ["0", "1"], "Vsc": ["0", "1"]}  # a signature of its own
    d = DiscreteDistribution(vars_, {(a, b, a): F(1, 4) for a in "01" for b in "01"})
    slots = (vs(["Vsa"]), vs(["Vsb"]), vs(["Vsc"]))
    assert check_sci(d, *slots) and calls
    calls.clear()
    assert check_sci(d, *slots) and not calls


# -- one stored form: integer and Fraction construction agree ----------------------


def _fraction_twin(variables, masses: dict, den: int, validate=True):
    """The table of integer masses over den, built from Fractions."""
    return DiscreteDistribution(variables, {k: F(n, den) for k, n in masses.items()},
                                validate=validate)


def _product_by_fractions(fam: RegimeFamily, prior) -> DiscreteDistribution:
    """product_space's table from raw Fraction products, keyed by assignment."""
    values = {**fam.variables, "_regime": fam.regimes,
              **{n: tuple(sorted(set(m.values()))) for n, m in fam.decvars.items()}}
    pmf = {}
    for s in fam.regimes:
        for key, p in fam.dists[s].pmf.items():
            row = {**dict(zip(fam.variables, key)), "_regime": s,
                   **{n: m[s] for n, m in fam.decvars.items()}}
            pmf[tuple(v for _, v in sorted(row.items()))] = p * prior[s]
    return DiscreteDistribution(values, pmf)


def _assert_one_form(a: DiscreteDistribution, b: DiscreteDistribution):
    """Same pmf (values and order), int_atoms, rows, signature and SCI
    verdicts on every pair of single names given every conditioning set."""
    assert list(a.pmf.items()) == list(b.pmf.items())
    assert a.int_atoms() == b.int_atoms() and a.rows == b.rows
    assert a.signature() == b.signature()
    for x, y in product(a.names, repeat=2):
        for z in _subsets(a.names):
            assert check_sci(a, x, y, z) == check_sci(b, x, y, z), (x, y, z)


def test_integer_and_fraction_construction_agree():
    """_grid_table (through random_distribution and random_family),
    grid_distributions and product_space build from integers; each agrees
    with the same table built from Fractions.  The product is checked for a
    checked family and an unchecked one, under a uniform and a skewed
    prior."""
    variables = {"X": ("0", "1"), "Y": ("0", "1", "2")}
    atoms = list(product(*variables.values()))
    for seed, grid in product(range(6), (1, 2, 4)):
        rng = random.Random(seed)
        masses = [rng.randint(0, grid) for _ in atoms]
        masses[0] += not any(masses)
        d = search._grid_table(random.Random(seed), variables, grid)
        _assert_one_form(d, _fraction_twin(variables, dict(zip(atoms, masses)), sum(masses)))
    small = {"X": ("0", "1"), "Y": ("0", "1")}
    pairs = list(product(*small.values()))
    for d, masses in zip(search.grid_distributions(small, 3), search._compositions(3, 4)):
        assert not d.validated
        _assert_one_form(d, _fraction_twin(small, dict(zip(pairs, masses)), 3, validate=False))
    checked = random_family(SearchConfig(seed=5, var_cardinalities={"X": 2, "Y": 2},
                                         regime_count=2, probability_grid=3,
                                         decision_cardinalities={"Th": 2}), 1)
    grid = list(search.grid_distributions(small, 2))
    unchecked = RegimeFamily(["s0", "s1"], {"s0": grid[3], "s1": grid[7]},
                             {"Sigma": {"s0": "s0", "s1": "s1"}})
    assert all(d.validated for d in checked.dists.values())
    for fam, prior in product((checked, unchecked), ({"s0": F(1, 2), "s1": F(1, 2)},
                                                     {"s0": F(1, 7), "s1": F(6, 7)})):
        prod = product_space(fam, prior)
        assert prod.validated
        _assert_one_form(prod, _product_by_fractions(fam, prior))


@pytest.mark.parametrize("masses, den, message", [
    ({("0",): -1, ("1",): 5}, 4, "negative mass on ('0',)"),
    ({("0",): 1, ("1",): 1}, 4, "masses sum to 1/2, not 1"),
    ({("0",): 1, ("2",): 1}, 2, "value '2' not declared for variable 'X'"),
], ids=["negative", "sum", "undeclared"])
def test_integer_and_fraction_construction_raise_alike(masses, den, message):
    vars_ = {"X": ["0", "1"]}
    for build in (lambda: DiscreteDistribution.from_counts(vars_, masses, den),
                  lambda: _fraction_twin(vars_, masses, den)):
        with pytest.raises(InvalidModel) as e:
            build()
        assert str(e.value) == message


def test_from_counts_rejects_a_nonpositive_denominator():
    for den in (0, -2):
        with pytest.raises(InvalidModel, match=f"denominator {den} is not positive"):
            DiscreteDistribution.from_counts({"X": ["0"]}, {("0",): den}, den)


def test_integer_built_tables_do_not_build_pmf():
    """check_sci, check_eci and product_space read the stored counts: an
    integer-built table's pmf is never built by them."""
    fam = random_family(SearchConfig(seed=9, var_cardinalities={"X": 2, "Y": 2},
                                     regime_count=2, probability_grid=3), 0)
    d = random_distribution(SearchConfig(seed=9, var_cardinalities={"X": 2, "Y": 2}), 0)
    check_sci(d, "X", "Y", ())
    check_eci(fam, ci(["X"], ["Y"], rdec=["Sigma"]))
    prod = product_space(fam, {"s0": F(1, 3), "s1": F(2, 3)})
    check_sci(prod, "X", "_regime", "Y")
    for table in (d, *fam.dists.values(), prod):
        assert "pmf" not in table.__dict__


def test_int_atoms_match_fraction_products():
    """int_atoms gives int(p * den) on every atom, zero masses included, for
    seeded pmfs on grids 1 to 6 and for a product-space joint."""
    dists, zeros = [], 0
    for grid in range(1, 7):
        cfg = SearchConfig(seed=40 + grid, trials=1, var_cardinalities={"X": 2, "Y": 3},
                           regime_count=2, probability_grid=grid)
        dists += [random_distribution(cfg, t) for t in range(4)]
        dists.append(product_space(random_family(cfg, 0), {"s0": F(1, 3), "s1": F(2, 3)}))
    for d in dists:
        den, atoms = d.int_atoms()
        assert den == math.lcm(*(p.denominator for p in d.pmf.values()))
        assert atoms == {k: int(p * den) for k, p in d.pmf.items()}
        zeros += sum(not p for p in d.pmf.values())
    assert zeros
