import hashlib
from fractions import Fraction as F
from functools import partial
from itertools import product

import pytest

from separoid.causal import (
    AceResult,
    InfoBase,
    Strategy,
    ace,
    check_ancillarity,
    check_extended_stability,
    check_simple_stability,
    check_sufficiency,
    g_formula,
)
from separoid.errors import (
    InvalidModel,
    NotIntervention,
    PositivityViolated,
    ReductionMissing,
    StabilityViolated,
)
from separoid.models import DiscreteDistribution, RegimeFamily, check_eci, conditional
from separoid.universe import ReductionRegistry, Universe

from conftest import ci, dist, interventional_pair, materialize_strategy_joint


# -- ancillarity and sufficiency ------------------------------------------------


def test_ancillarity_identical_marginals():
    fam = interventional_pair(F(1, 2), F(1, 2))
    assert check_ancillarity(fam, ["X"])


def test_ancillarity_differs():
    fam = interventional_pair(F(1, 2), F(1, 3))
    assert not check_ancillarity(fam, ["X"])


def _sufficiency_family(theta_a=F(1, 2), theta_b=F(1, 3)):
    """Two iid binary draws with regime-specific success rate; the total is
    sufficient: given T the conditional law of the pair is regime-free."""
    vars_ = {"X1": ["0", "1"], "X2": ["0", "1"], "T": ["0", "1", "2"]}
    dists = {}
    for label, th in (("a", theta_a), ("b", theta_b)):
        rows = []
        for x1 in "01":
            for x2 in "01":
                t = str(int(x1) + int(x2))
                p = (th if x1 == "1" else 1 - th) * (th if x2 == "1" else 1 - th)
                rows.append(({"X1": x1, "X2": x2, "T": t}, p))
                for wrong in "012":
                    if wrong != t:
                        rows.append(({"X1": x1, "X2": x2, "T": wrong}, F(0)))
        dists[label] = dist(vars_, rows)
    return RegimeFamily(["a", "b"], dists, {"Sigma": {"a": "a", "b": "b"}})


def test_one_name_is_one_variable():
    """A name passed as a string is that one variable, not its characters."""
    fam = _sufficiency_family()
    assert check_ancillarity(fam, "X1") == check_ancillarity(fam, ["X1"]) is False
    assert check_ancillarity(fam, "T") == check_ancillarity(fam, ["T"]) is False
    with pytest.raises(InvalidModel, match="'XT'"):
        check_ancillarity(fam, "XT")
    assert check_sufficiency(fam, "X1", ()) == check_sufficiency(fam, ["X1"], ()) is False
    xs = ["X1", "X2", "T"]
    assert check_sufficiency(fam, xs, "T") == check_sufficiency(fam, xs, ["T"]) is True
    assert check_sufficiency(fam, xs, "X1") == check_sufficiency(fam, xs, ["X1"]) is False


def test_sufficiency_single_regime_trivial():
    fam = interventional_pair(F(1, 2), F(1, 2))
    solo = RegimeFamily(["s0"], {"s0": fam.dists["s0"]}, {"Sigma": {"s0": "s0"}})
    assert check_sufficiency(solo, ["X", "T"], ["T"])


def test_sufficiency_binomial_total():
    fam = _sufficiency_family()
    assert not check_ancillarity(fam, ["T"])  # the total itself is not ancillary
    assert check_sufficiency(fam, ["X1", "X2", "T"], ["T"])


def test_sufficiency_fails_when_conditionals_differ():
    # X2's kernel given X1 depends on the regime: X1 alone is not sufficient
    vars_ = {"X1": ["0", "1"], "X2": ["0", "1"]}
    rows_a = [({"X1": x1, "X2": x2}, F(1, 4)) for x1 in "01" for x2 in "01"]
    rows_b = [({"X1": x1, "X2": x2}, F(1, 2) if x1 == x2 else F(0))
              for x1 in "01" for x2 in "01"]
    fam = RegimeFamily(
        ["a", "b"], {"a": dist(vars_, rows_a), "b": dist(vars_, rows_b)},
        {"Sigma": {"a": "a", "b": "b"}},
    )
    assert not check_sufficiency(fam, ["X1", "X2"], ["X1"])


def test_sufficiency_requires_reduction():
    fam = _sufficiency_family()
    with pytest.raises(ReductionMissing):
        check_sufficiency(fam, ["X1", "X2"], ["T"])
    uni = Universe.of(stochastic=["X1", "X2", "T"])
    reg = ReductionRegistry(uni)
    reg.register("T", "X1")  # declared reduction unlocks the check
    assert check_sufficiency(fam, ["X1", "X2"], ["T"], registry=reg)


# -- ACE -------------------------------------------------------------------------


def _ace_family(k0, k1, obs_t1, obs_k0=None, obs_k1=None):
    """Three regimes on (T, Y): do-regimes fix T and draw Y from k_t; the
    observational regime draws T then Y from obs_k (defaults to the same)."""
    obs_k0 = k0 if obs_k0 is None else obs_k0
    obs_k1 = k1 if obs_k1 is None else obs_k1
    vars_ = {"T": ["0", "1"], "Y": ["0", "1"]}

    def joint(pt1, q0, q1):
        rows = []
        for t, pt, q in (("0", 1 - pt1, q0), ("1", pt1, q1)):
            rows.append(({"T": t, "Y": "1"}, pt * q))
            rows.append(({"T": t, "Y": "0"}, pt * (1 - q)))
        return dist(vars_, rows)

    dists = {
        "obs": joint(obs_t1, obs_k0, obs_k1),
        "do0": joint(F(0), k0, k1),
        "do1": joint(F(1), k0, k1),
    }
    return RegimeFamily(
        ["obs", "do0", "do1"], dists,
        {"Sigma": {"obs": "obs", "do0": "do0", "do1": "do1"}},
    )


def test_ace_randomized_trial_transfers():
    fam = _ace_family(k0=F(1, 4), k1=F(3, 4), obs_t1=F(1, 3))
    out = ace(fam, "Y", "T")
    assert out.transfer_valid
    assert out.ace_interventional == F(3, 4) - F(1, 4)
    assert out.ace_observational == out.ace_interventional


def test_ace_null_effect():
    fam = _ace_family(k0=F(2, 5), k1=F(2, 5), obs_t1=F(1, 2))
    out = ace(fam, "Y", "T")
    assert out.ace_interventional == 0 and out.ace_observational == 0


def test_ace_confounded_differs():
    fam = _ace_family(k0=F(1, 4), k1=F(3, 4), obs_t1=F(1, 2),
                      obs_k0=F(1, 2), obs_k1=F(1, 2))
    out = ace(fam, "Y", "T")
    assert not out.transfer_valid
    assert out.ace_observational is None
    assert out.ace_interventional == F(1, 2)


def test_ace_positivity_failure():
    fam = _ace_family(k0=F(1, 4), k1=F(3, 4), obs_t1=F(0))
    out = ace(fam, "Y", "T")
    assert not out.transfer_valid and out.ace_observational is None


def test_ace_rejects_non_intervention():
    fam = _ace_family(k0=F(1, 4), k1=F(3, 4), obs_t1=F(1, 2))
    broken = RegimeFamily(
        ["obs", "do0", "do1"],
        {"obs": fam.dists["obs"], "do0": fam.dists["obs"], "do1": fam.dists["do1"]},
        fam.decvars,
    )
    with pytest.raises(NotIntervention):
        ace(broken, "Y", "T")


# -- stability ---------------------------------------------------------------------


def _staged_obs(kernels):
    """Observational joint over L, A, Y binary from kernels:
    (pL1, pA|L as dict, pY|LA as dict)."""
    pL, pA, pY = kernels
    vars_ = {"L": ["0", "1"], "A": ["0", "1"], "Y": ["0", "1"]}
    rows = []
    for l in "01":
        for a in "01":
            for y in "01":
                w = (pL if l == "1" else 1 - pL)
                w *= pA[l] if a == "1" else 1 - pA[l]
                w *= pY[(l, a)] if y == "1" else 1 - pY[(l, a)]
                rows.append(({"L": l, "A": a, "Y": y}, w))
    return dist(vars_, rows)


def _one_stage_family(shift_y=False, shift_l=False):
    pY = {("0", "0"): F(1, 5), ("0", "1"): F(2, 5), ("1", "0"): F(3, 5), ("1", "1"): F(4, 5)}
    obs = _staged_obs((F(1, 2), {"0": F(1, 3), "1": F(2, 3)}, pY))
    pY2 = dict(pY)
    if shift_y:
        pY2[("0", "1")] = F(1, 7)  # shifted at a context the do regime reaches
    intl = _staged_obs((F(1, 2) if not shift_l else F(1, 4),
                        {"0": F(1), "1": F(1)}, pY2))
    return RegimeFamily(
        ["obs", "do"], {"obs": obs, "do": intl},
        {"Sigma": {"obs": "obs", "do": "do"}},
        info_base={"stages": [{"observed": ["L"], "action": "A"}], "outcome": ["Y"]},
    )


def test_simple_stability_shared_kernels():
    fam = _one_stage_family()
    ib = InfoBase.from_dict(fam.info_base)
    assert check_simple_stability(fam, ib)


def test_simple_stability_broken_l_kernel():
    fam = _one_stage_family(shift_l=True)
    ib = InfoBase.from_dict(fam.info_base)
    assert not check_simple_stability(fam, ib)


def test_simple_stability_broken_y_kernel():
    fam = _one_stage_family(shift_y=True)
    ib = InfoBase.from_dict(fam.info_base)
    assert not check_simple_stability(fam, ib)


def _confounded_family():
    """U confounds A and Y observationally; stable in (L,U) but not in L."""
    vars_ = {"U": ["0", "1"], "A": ["0", "1"], "Y": ["0", "1"]}

    def joint(pa, shared):
        rows = []
        for u in "01":
            for a in "01":
                for y in "01":
                    w = F(1, 2)
                    w *= pa[u] if a == "1" else 1 - pa[u]
                    q = shared[(u, a)]
                    w *= q if y == "1" else 1 - q
                    rows.append(({"U": u, "A": a, "Y": y}, w))
        return dist(vars_, rows)

    shared = {("0", "0"): F(1, 5), ("0", "1"): F(2, 5),
              ("1", "0"): F(3, 5), ("1", "1"): F(4, 5)}
    obs = joint({"0": F(1, 4), "1": F(3, 4)}, shared)
    do = joint({"0": F(1), "1": F(1)}, shared)
    return RegimeFamily(
        ["obs", "do"], {"obs": obs, "do": do},
        {"Sigma": {"obs": "obs", "do": "do"}},
        info_base={
            "stages": [{"observed": [], "action": "A"}],
            "outcome": ["Y"],
            "unmeasured": [["U"]],
        },
    )


def test_extended_stability_vs_simple():
    fam = _confounded_family()
    ib = InfoBase.from_dict(fam.info_base)
    assert check_extended_stability(fam, ib)
    assert not check_simple_stability(fam, ib)


def test_extended_equals_simple_without_u():
    fam = _one_stage_family()
    ib = InfoBase.from_dict(fam.info_base)
    assert check_extended_stability(fam, ib) == check_simple_stability(fam, ib)


def test_extended_stability_broken_u_kernel():
    fam = _confounded_family()
    # make U's law regime-dependent
    bad_do = _confounded_family().dists["do"]
    rows = {k: p for k, p in bad_do.pmf.items()}
    # tilt U: move mass between U=0 and U=1 for A=1,Y=1
    vars_ = bad_do.values
    pmf = dict(rows)
    a = ("1", "0", "1")  # sorted names: A, U, Y
    b = ("1", "1", "1")
    delta = min(pmf[a], F(1, 20))
    pmf[a] -= delta
    pmf[b] += delta
    fam2 = RegimeFamily(
        ["obs", "do"],
        {"obs": fam.dists["obs"], "do": DiscreteDistribution(vars_, pmf)},
        fam.decvars, fam.info_base,
    )
    ib = InfoBase.from_dict(fam.info_base)
    assert not check_extended_stability(fam2, ib)


def test_ancillarity_is_the_eci_reduction():
    # Each regime-invariance check equals check_eci on `left _||_ Sigma |
    # cond` (one statement per stage for stability), Sigma the identity, on
    # each family as declared (with Sigma), with no decision variable and
    # with only a constant one.  Both observational arms of each ACE family
    # are positive, so its transfer test is the statement's verdict.
    def eci(fam, left, cond):
        ident = fam.with_decision("Sigma", {s: s for s in fam.regimes})
        return check_eci(ident, ci(left, (), cond, rdec=["Sigma"]))[0]

    def stability(check):
        return lambda fam: check(fam, InfoBase.from_dict(fam.info_base))

    anc_t = partial(check_ancillarity, T=["T"])
    cases = []  # (family, check, its statements as (left, cond) pairs)
    for p1 in (F(1, 2), F(1, 3)):
        fam = interventional_pair(F(1, 2), p1)
        cases += [(fam, partial(check_ancillarity, T=["X"]), [(["X"], ())]),
                  (fam, anc_t, [(["T"], ())]),
                  (fam, partial(check_sufficiency, X=["X", "T"], T=["T"]), [(["X", "T"], ["T"])])]
    for fam in (_sufficiency_family(), _sufficiency_family(F(1, 2), F(1, 2))):
        cases += [(fam, anc_t, [(["T"], ())])] + [
            (fam, partial(check_sufficiency, X=["X1", "X2", "T"], T=t), [(["X1", "X2", "T"], t)])
            for t in (["T"], ["X1"])]
    for fam in (_ace_family(k0=F(1, 4), k1=F(3, 4), obs_t1=F(1, 3)),
                _ace_family(k0=F(2, 5), k1=F(2, 5), obs_t1=F(1, 2)),
                _ace_family(k0=F(1, 4), k1=F(3, 4), obs_t1=F(1, 2),
                            obs_k0=F(1, 2), obs_k1=F(1, 2))):
        cases += [(fam, lambda f: ace(f, "Y", "T").transfer_valid, [(["Y"], ["T"])]),
                  (fam, anc_t, [(["T"], ())])]
    for shift in ({}, {"shift_l": True}, {"shift_y": True}):
        fam = _one_stage_family(**shift)
        stages = [(["L"], ()), (["Y"], ["L", "A"])]
        cases += [(fam, stability(check_simple_stability), stages),
                  (fam, stability(check_extended_stability), stages)]
    fam = _confounded_family()
    cases += [(fam, stability(check_simple_stability), [((), ()), (["Y"], ["A"])]),
              (fam, stability(check_extended_stability), [(["U"], ()), (["Y"], ["U", "A"])])]

    verdicts = []
    for fam, check, stmts in cases:
        bare = RegimeFamily(fam.regimes, fam.dists, {}, fam.info_base)
        for f in (fam, bare, bare.with_decision("C", {s: "0" for s in fam.regimes})):
            verdicts.append(check(f))
            assert verdicts[-1] == all(eci(fam, left, cond) for left, cond in stmts)
            with pytest.raises(InvalidModel) as exc:
                check_ancillarity(f, ["Q", "P"])
            assert str(exc.value) == "unknown stochastic variable 'P'"
    bits = "".join("1" if v else "0" for v in verdicts)
    assert len(bits) == 3 * 26 and {"0", "1"} <= set(bits)
    digest = hashlib.sha256(bits.encode()).hexdigest()
    assert digest == "d330ae76b8743d19f36114408f4ad2ca7166e7507d981f0c157016a7e2603c1e"


# -- g-formula ----------------------------------------------------------------------


def _strategy(label, actions, tables):
    return Strategy(label, tuple(actions), tuple(
        {tuple(sorted((n, str(v)) for n, v in given.items())): {k: F(v2) for k, v2 in d.items()}
         for given, d in table}
        for table in tables
    ))


def test_gformula_no_actions_is_observational_expectation():
    obs = _one_stage_family().dists["obs"]
    fam = RegimeFamily(["obs"], {"obs": obs}, {"Sigma": {"obs": "obs"}})
    ib = InfoBase(observed=(), actions=(), outcome=("Y",))
    strat = _strategy("s", [], [])
    val = g_formula(fam, ib, strat, obs="obs")
    assert val == obs.expectation("Y")


def test_gformula_static_strategy_equals_do_regime():
    fam = _one_stage_family()
    ib = InfoBase.from_dict(fam.info_base)
    always = _strategy("always", ["A"], [[
        ({"L": "0"}, {"1": 1, "0": 0}),
        ({"L": "1"}, {"1": 1, "0": 0}),
    ]])
    val = g_formula(fam, ib, always, obs="obs")
    # the do regime in the family applies exactly this protocol
    assert val == fam.dists["do"].expectation("Y")


def test_gformula_threshold_strategy_matches_materialized_joint():
    fam = _one_stage_family()
    ib = InfoBase.from_dict(fam.info_base)
    threshold = _strategy("thr", ["A"], [[
        ({"L": "0"}, {"1": 0, "0": 1}),
        ({"L": "1"}, {"1": "1/2", "0": "1/2"}),
    ]])
    val = g_formula(fam, ib, threshold, obs="obs")
    joint = materialize_strategy_joint(fam.dists["obs"], ib, threshold)
    assert val == joint.expectation("Y")


def test_gformula_payoff_map():
    fam = _one_stage_family()
    ib = InfoBase.from_dict(fam.info_base)
    always = _strategy("always", ["A"], [[
        ({"L": "0"}, {"1": 1, "0": 0}),
        ({"L": "1"}, {"1": 1, "0": 0}),
    ]])
    val = g_formula(fam, ib, always, {"0": F(2), "1": F(5)}, obs="obs")
    p1 = fam.dists["do"].expectation("Y")
    assert val == 2 * (1 - p1) + 5 * p1


def test_gformula_requires_stability():
    fam = _one_stage_family(shift_y=True)
    ib = InfoBase.from_dict(fam.info_base)
    always = _strategy("always", ["A"], [[
        ({"L": "0"}, {"1": 1, "0": 0}),
        ({"L": "1"}, {"1": 1, "0": 0}),
    ]])
    with pytest.raises(StabilityViolated):
        g_formula(fam, ib, always, obs="obs")


def test_gformula_positivity_violation_named():
    # obs never plays A=1 when L=1, but the strategy insists on it
    pY = {("0", "0"): F(1, 5), ("0", "1"): F(2, 5), ("1", "0"): F(3, 5), ("1", "1"): F(4, 5)}
    obs = _staged_obs((F(1, 2), {"0": F(1, 3), "1": F(0)}, pY))
    fam = RegimeFamily(["obs"], {"obs": obs}, {"Sigma": {"obs": "obs"}})
    ib = InfoBase(observed=(("L",),), actions=("A",), outcome=("Y",))
    always = _strategy("always", ["A"], [[
        ({"L": "0"}, {"1": 1, "0": 0}),
        ({"L": "1"}, {"1": 1, "0": 0}),
    ]])
    with pytest.raises(PositivityViolated) as exc:
        g_formula(fam, ib, always, obs="obs")
    assert exc.value.context == {"L": "1", "A": "1"}
