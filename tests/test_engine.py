import functools
import gc
import hashlib
import heapq
import itertools
import random

import pytest

from separoid.dsl import parse_session
from separoid.engine import (
    RULES,
    Derivation,
    Limits,
    NotDerivable,
    RuleSet,
    _Engine,
    _filler,
    _pure,
    _setup,
    _Space,
    _submasks,
    apply_rule,
    closure,
    derivation_to_dict,
    format_proof,
    prove,
    replay,
    rule_set,
)
from separoid.errors import GuardViolation, IllFormed, UnknownVariable
from separoid.models import RegimeFamily, check_eci_general, check_sci
from separoid.search import SearchConfig, random_distribution
from separoid.universe import CIStatement, ComplementarityDecl, ReductionRegistry, Universe

from conftest import brute_semigraphoid, ci, dist, vs


RULE_SET_NAMES = ("SEPAROID_FULL", "VCI_STRONG", "ECI_RESTRICTED", "GENERAL")


@pytest.fixture
def uni3():
    return Universe.of(stochastic=["X", "Y", "Z"])


@pytest.fixture
def eci_uni():
    return Universe.of(stochastic=["X", "Y", "Z", "W"], decision=["Th", "Ph"])


@pytest.fixture
def comp():
    return ComplementarityDecl.of(["Th", "Ph"], ["Th"], ["Ph"])


# -- apply_rule ----------------------------------------------------------------


def test_apply_rule_p2_spontaneous():
    uni = Universe.of(stochastic=["X", "Y"])
    out = apply_rule("P2", [], universe=uni)
    assert ci(["X"], ["Y"], ["Y"]) in out
    assert ci(["Y"], ["X"], ["X"]) in out
    assert ci(["X"], ["X", "Y"], ["X", "Y"]) in out


def test_apply_rule_p3_decomposition(uni3):
    uni = Universe.of(stochastic=["X", "Y", "Z", "W"])
    prem = ci(["X"], ["Y", "W"], ["Z"])
    out = apply_rule("P3", [prem], universe=uni)
    assert ci(["X"], ["W"], ["Z"]) in out
    assert ci(["X"], ["Y"], ["Z"]) in out


def test_apply_rule_p1prime_guard(eci_uni, comp):
    stmt = ci(["X"], ["Y"], ["Z"], rdec=["Th"], cdec=["Ph"])
    with pytest.raises(GuardViolation):
        apply_rule("P1'", [stmt], universe=eci_uni, complementarity=comp)


def test_apply_rule_p4pp_needs_flag(eci_uni, comp):
    stmt = ci(["X"], ["Y"], ["Z"], rdec=["Th"], cdec=["Ph"])
    with pytest.raises(GuardViolation):
        apply_rule("P4''", [stmt], universe=eci_uni, complementarity=comp)
    out = apply_rule("P4''", [stmt], universe=eci_uni, complementarity=comp,
                     flags=["discrete_variables"])
    assert ci(["X"], ["Y"], ["X", "Z"], rdec=["Th"], cdec=["Ph"]) in out


def test_apply_rule_p6_is_model_only(uni3):
    with pytest.raises(GuardViolation):
        apply_rule("P6", [], universe=uni3)


def test_apply_rule_rejects_mixed_statement_for_pure_rules(eci_uni):
    mixed = ci(["X"], ["Y"], rdec=["Th"])
    with pytest.raises(GuardViolation):
        apply_rule("P3", [mixed], universe=eci_uni)


def test_apply_rule_honours_a_named_rule_set(uni3, eci_uni, comp):
    # A named rule set must exist and hold the rule; without one, each rule
    # runs in the first rule set that holds it.
    a = ci(["X"], ["Y"], ["Z"])
    for rules in ("ECI_RESTRICTED", "NOPE"):
        with pytest.raises(ValueError):
            apply_rule("P1", [a], universe=uni3, rules=rules)
    assert apply_rule("P1", [a], universe=uni3) == {ci(["Y"], ["X"], ["Z"])}
    pure = [ci(["X"], ["Y"], ["Z"]), ci(["X"], ["W"], ["Y", "Z"]), ci(["X"], ["Y", "W"], ["Z"])]
    mixed = [ci(["X"], ["Y"], ["Z"], rdec=["Th"], cdec=["Ph"]),
             ci(["W"], ["Y"], ["X", "Z"], rdec=["Th"], cdec=["Ph"]),
             ci(["X", "W"], ["Y"], ["Z"], cdec=["Th"]), ci(["X"], ["Y"], ["Z"], cdec=["Th"]),
             ci(["X"], ["W"], ["Y", "Z"], cdec=["Th"])]
    kw = dict(universe=eci_uni, complementarity=comp, flags=["discrete_variables"])
    for name, rule in RULES.items():
        if rule.model_only:
            continue
        holder = next(rs for rs in RULE_SET_NAMES if name in rule_set(rs).rules)
        stmts = pure if holder == "SEPAROID_FULL" else mixed
        if name == "P1'":  # within its guard
            stmts = [s for s in stmts if not s.right.dec and s.cond.dec]
        out = apply_rule(name, stmts, **kw)
        assert out, name
        assert out == apply_rule(name, stmts, rules=holder, **kw), name
        assert out == apply_rule(name, stmts, rules=rule_set(holder), **kw), name


def test_apply_rule_rejects_unknown_flags_on_a_given_rule_set(eci_uni):
    # An unknown flag is refused whether the rule set is named or given, and
    # never enables a flag-gated rule.
    premise = ci(["X"], ["Y"], ["Z"], rdec=["Th"], cdec=["Ph"])
    kw = dict(universe=eci_uni, complementarity=ComplementarityDecl.of(["Th", "Ph"]))
    for rules in ("ECI_RESTRICTED", rule_set("ECI_RESTRICTED"),
                  RuleSet("ECI_RESTRICTED", rule_set("ECI_RESTRICTED").rules, frozenset({"bogus"}))):
        flags = () if isinstance(rules, RuleSet) and rules.flags else ["bogus"]
        with pytest.raises(ValueError, match=r"unknown flags \['bogus'\]"):
            apply_rule("P4''", [premise], rules=rules, flags=flags, **kw)
    out = apply_rule("P4''", [premise], rules=rule_set("ECI_RESTRICTED"),
                     flags=["dominating_regime"], **kw)
    assert out == {ci(["X"], ["Y"], ["X", "Z"], rdec=["Th"], cdec=["Ph"])}


def _spontaneous_by_rule_set(eng: _Engine):
    """The reference generator of the premise-free rules, with one branch
    per rule set: (rule, key) for P2 on the mode's component, P2' over the
    complementary families, and P2g over every split of a family between
    the left and the right slot."""
    s_all, alls, comp = eng.space.s_all, eng.space.alls[eng.o], sorted(eng.comp_masks)
    for name in eng.rs.rules:
        if name == "P2":
            for x in _submasks(alls):
                for y in _submasks(alls):
                    yield name, ((0, x, 0, y, 0, y) if eng.o else (x, 0, y, 0, y, 0))
        elif name == "P2'":
            for x in _submasks(s_all):
                for d in comp:
                    yield name, (x, 0, 0, d, 0, d)
                    for y in _submasks(s_all):
                        yield name, (x, 0, y, d, y, d)
        elif name == "P2g":
            for fam in comp:
                for xd in (0, *_submasks(fam)):
                    yd = fam ^ xd
                    for xs in (0, *_submasks(s_all)):
                        for ys in (0, *_submasks(s_all)):
                            if (xs or xd) and (ys or yd):
                                yield name, (xs, xd, ys, yd, ys, yd)


def _spontaneous_universes():
    """19 engines: SEPAROID_FULL in mode "s" on 1-7 stochastic names beside
    two decision names and in mode "d" on 1-3 decision names beside one
    stochastic name, VCI_STRONG on three decision names, and ECI_RESTRICTED
    and GENERAL on X, Y, Z and P, T, K with 0-3 complementary families (the
    empty family among them)."""
    for n in range(1, 8):
        uni = Universe.of(stochastic=[f"S{i}" for i in range(n)], decision=["P", "T"])
        yield _Engine(rule_set("SEPAROID_FULL"), _Space(uni, None), ComplementarityDecl(), "s")
    for n in range(1, 4):
        uni = Universe.of(stochastic=["S"], decision=[f"D{i}" for i in range(n)])
        yield _Engine(rule_set("SEPAROID_FULL"), _Space(uni, None), ComplementarityDecl(), "d")
    uni = Universe.of(decision=["A", "B", "C"])
    yield _Engine(rule_set("VCI_STRONG"), _Space(uni, None), ComplementarityDecl(), "d")
    uni = Universe.of(stochastic=["X", "Y", "Z"], decision=["P", "T", "K"])
    families = [["T"], ["P", "T"], []]
    for name in ("ECI_RESTRICTED", "GENERAL"):
        for n in range(4):
            comp = ComplementarityDecl.of(*families[:n])
            yield _Engine(rule_set(name), _Space(uni, None), comp, None)


def test_spontaneous_equals_the_per_rule_set_generator():
    """``_Engine.spontaneous`` lists the premise-free rules through
    ``tautology``; on every engine of the matrix it yields, as a set, the
    reference generator's instances, each once."""
    engines = list(_spontaneous_universes())
    assert len(engines) == 19
    for eng in engines:
        got = list(eng.spontaneous())
        want = set(_spontaneous_by_rule_set(eng))
        assert len(got) == len(set(got)) and set(got) == want, (eng.rs.name, eng.mode)
        assert want or (eng.mode is None and not eng.comp_masks), (eng.rs.name, eng.mode)
        assert {k for _rule, k in got} <= set(eng.members())


def _members_by_candidate_filter(eng: _Engine, rights) -> list:
    """The reference listing of ``_Engine.members``: each component's
    (left, right, cond) parts in the order (cond, right, left), kept when
    legal, their product filtered by ``tautology``, one key at a time."""
    def parts(o: int) -> list:
        full = eng.space.alls[o]
        return [(l, r, c) for c in range(full + 1) for r in rights(c)
                for l in range(full + 1) if eng.legal(_pure(o, l, r, c))]

    return [k for ls, rs, cs in parts(0) for ld, rd, cd in parts(1)
            if eng.tautology(k := (ls, ld, rs, rd, cs, cd)) is not None]


def _class_engines():
    """Engines of SEPAROID_FULL in modes "s" and "d", VCI_STRONG,
    ECI_RESTRICTED and GENERAL, each with and without discrete_variables,
    on 0-3 stochastic and 0-2 decision names under every complementarity
    declaration (every set of families of decision names, the empty family
    among them)."""
    cases = [("SEPAROID_FULL", "s"), ("SEPAROID_FULL", "d"), ("VCI_STRONG", "d"),
             ("ECI_RESTRICTED", None), ("GENERAL", None)]
    for n_s, n_d in itertools.product(range(4), range(3)):
        dec = [f"D{i}" for i in range(n_d)]
        uni = Universe.of(stochastic=[f"S{i}" for i in range(n_s)], decision=dec)
        families = [f for n in range(n_d + 1) for f in itertools.combinations(dec, n)]
        for decl in itertools.chain.from_iterable(
                itertools.combinations(families, n) for n in range(len(families) + 1)):
            comp = ComplementarityDecl.of(*decl)
            for (name, mode), flags in itertools.product(cases, ((), ("discrete_variables",))):
                yield _Engine(rule_set(name, flags), _Space(uni, None), comp, mode)


def test_members_decided_once_per_class_match_the_candidate_filter():
    """``members`` and ``spontaneous`` decide one key per zero/nonzero class
    of ls, yet list what the per-key candidate filter lists, in its order."""
    spont = lambda c: (c,)  # noqa: E731
    default = lambda c: (0, *_submasks(c))  # noqa: E731
    engines = list(_class_engines())
    assert len(engines) == 880
    for eng in engines:
        case = (eng.rs.name, eng.rs.flags, eng.mode, eng.space.names, eng.comp_masks)
        assert list(eng.members()) == _members_by_candidate_filter(eng, default), case
        want = _members_by_candidate_filter(eng, spont)
        assert list(eng.members(spont)) == want, case
        assert list(eng.spontaneous()) == [(eng.tautology(k)[1], k) for k in want], case


def _one_step_by_rule(eng: _Engine, name: str, keys: list) -> set:
    """The reference enumerator: apply_rule's conclusions from a loop of its
    own over ``_Engine.unary`` and ``_Engine.binary``, a synthesized
    tautology counted as a second premise only when it was supplied, and
    the premise-free rules from the per-rule-set generator."""
    arity = RULES[name].arity
    if arity == 0:
        return {ck for rn, ck in _spontaneous_by_rule_set(eng) if rn == name}
    eng.clear()
    keyset = set(keys)
    for k in sorted(keyset):
        eng.insert(k)
    out = set()
    for k in sorted(keyset):
        if arity == 1:
            out.update(ck for ck, _note in eng.unary(name, k))
        else:
            out.update(ck for prem, ck in eng.binary(name, k) if all(p in keyset for p in prem))
    return out


def test_apply_rule_equals_a_loop_over_unary_and_binary():
    """On a seeded corpus over stochastic A, B, C and decision P, T, with and
    without the registry A <= B, P <= T, every symbolic rule of the four rule
    sets (the mixed ones under flags, with {T}, {P} and {T, P} declared)
    gives apply_rule the conclusions of the reference loop.  Each premise
    set holds first premises, partners built to pair with them (so second
    premises inside the conditioning slot, tautologies among them, occur),
    supplied members of the spontaneous family and random legal keys."""
    uni = Universe.of(stochastic=["A", "B", "C"], decision=["P", "T"])
    reg = ReductionRegistry(uni)
    reg.register("A", "B")
    reg.register("P", "T")
    comp = ComplementarityDecl.of(["T"], ["P"], ["T", "P"])
    flags = ("pairwise_semantics", "discrete_variables")
    cases = [("SEPAROID_FULL", (), "s"), ("SEPAROID_FULL", (), "d"), ("VCI_STRONG", (), "d"),
             ("ECI_RESTRICTED", flags, None), ("GENERAL", flags, None)]
    keys = list(itertools.product(range(8), range(4), range(8), range(4), range(8), range(4)))
    rng = random.Random(23)
    fired, supplied_tautologies = set(), 0
    for (rs_name, fl, mode), registry in itertools.product(cases, (None, reg)):
        rs = rule_set(rs_name, fl)
        eng = _Engine(rs, _Space(uni, registry), comp, mode)
        legal = [k for k in keys if (k[0] or k[1]) and (k[2] or k[3]) and eng.legal(k)]
        firsts = [k for k in legal if not _filler(k)]
        members = list(eng.members())
        for name in (n for n in rs.rules if not RULES[n].model_only):
            for _ in range(6):
                prems = set(rng.sample(members, 2) + rng.sample(legal, 2))
                for k in rng.sample(firsts, 2):
                    prems.add(k)
                    for _ in range(3):  # w anywhere, then inside k's conditioning slot
                        ws, wd = rng.randrange(8), rng.randrange(4)
                        for w in ((ws, wd), (ws & k[4] & ~k[2], wd & k[5] & ~k[3])):
                            for t in ((k[0], k[1], *w, k[2] | k[4], k[3] | k[5]),
                                      (w[0], 0, k[2], k[3], k[0] | k[4], k[5])):
                                if (t[0] or t[1]) and (t[2] or t[3]) and eng.legal(t):
                                    prems.add(t)
                if name == "P1'":  # P1' raises on a statement outside its guard
                    prems = {k for k in prems if not k[3] and k[5]}
                known = [eng.space.stmt_of(k) for k in sorted(prems)]
                ref, ref_keys = _setup(known, rs, uni, registry, comp)
                want = frozenset(map(ref.space.stmt_of, _one_step_by_rule(ref, name, ref_keys)))
                got = apply_rule(name, known, universe=uni, registry=registry,
                                 complementarity=comp, rules=rs)
                assert got == want, (rs_name, mode, name, sorted(prems))
                fired.update([name] if got else [])
                if RULES[name].arity == 2:
                    supplied_tautologies += sum(
                        ref.implicit(prem[1]) and prem[1] in prems
                        for k in ref_keys for _, prem, _, _ in ref.expand(k, ((name, 2),)))
    assert fired == {n for rs in RULE_SET_NAMES for n in rule_set(rs).rules
                     if not RULES[n].model_only}
    assert supplied_tautologies > 0


# -- closure ---------------------------------------------------------------------


def test_closure_contains_p2_instances(uni3):
    uni = Universe.of(stochastic=["X", "Y"])
    res = closure([], rule_set("SEPAROID_FULL"), universe=uni)
    assert ci(["X"], ["Y"], ["Y"]) in res


def test_closure_contains_lifted_premise(uni3):
    res = closure([ci(["X"], ["Y"], ["Z"])], rule_set("SEPAROID_FULL"), universe=uni3)
    assert ci(["X", "Z"], ["Y"], ["Z"]) in res
    assert not res.truncated


def test_closure_markov_chain_goal():
    uni = Universe.of(stochastic=["X1", "X2", "X3", "X4", "X5"])
    prem = [
        ci(["X3"], ["X1"], ["X2"]),
        ci(["X4"], ["X1", "X2"], ["X3"]),
        ci(["X5"], ["X1", "X2", "X3"], ["X4"]),
    ]
    res = closure(prem, rule_set("SEPAROID_FULL"), universe=uni,
                  limits=Limits(max_statements=200_000, max_depth=30))
    assert ci(["X3"], ["X1", "X5"], ["X2", "X4"]) in res
    assert not res.truncated


def test_closure_superset_and_order_invariance(uni3):
    prems = [ci(["X"], ["Y"], ["Z"]), ci(["X"], ["Z"])]
    rs = rule_set("SEPAROID_FULL")
    base = closure(prems, rs, universe=uni3).statements
    assert set(prems) <= base
    for perm in itertools.permutations(prems):
        assert closure(list(perm), rs, universe=uni3).statements == base


def test_closure_monotone_in_premises(uni3):
    rs = rule_set("SEPAROID_FULL")
    small = closure([ci(["X"], ["Y"], ["Z"])], rs, universe=uni3).statements
    large = closure([ci(["X"], ["Y"], ["Z"]), ci(["Y"], ["Z"])], rs, universe=uni3).statements
    assert small <= large


def test_closure_truncation_marker(uni3):
    """max_statements counts the statements outside the spontaneous family
    (here: right slot inside the conditioning slot); a truncated closure
    still holds the premises and every member of the family."""
    prem = ci(["X"], ["Y"], ["Z"])
    rs = rule_set("SEPAROID_FULL")
    res = closure([prem], rs, universe=uni3, limits=Limits(max_statements=5, max_depth=64))
    assert res.truncated
    members = {s for s in res.statements if s.right <= s.cond}
    assert len(res.statements - members) <= 5
    assert prem in res
    assert members == closure([], rs, universe=uni3).statements


def test_closure_chain6_default_limits():
    """The n=6 Markov chain closes under the default limits: 17,120 of its
    59,015 statements lie outside the spontaneous family."""
    ses = parse_session(_chain(6))
    res = closure(ses.premises, rule_set("SEPAROID_FULL"), universe=ses.universe)
    assert not res.truncated
    assert len(res.statements) == 59_015
    assert sum(not s.right <= s.cond for s in res.statements) == 17_120


def test_prove_and_closure_share_the_statement_limit():
    """Both searches truncate exactly when max_statements is below the
    number of non-tautological statements in the closure."""
    ses = parse_session(_chain(4))
    rs = rule_set("SEPAROID_FULL")
    kw = dict(universe=ses.universe)
    full = closure(ses.premises, rs, **kw).statements
    n = sum(not s.right <= s.cond for s in full)
    goal = ci(["X1"], ["X4"])  # outside the closure: prove explores all of it
    assert goal not in full
    for m in (1, n // 2, n - 1, n, n + 1):
        lim = Limits(max_statements=m)
        res = closure(ses.premises, rs, limits=lim, **kw)
        assert res.truncated == (m < n)
        assert prove(goal, ses.premises, rs, limits=lim, **kw) == NotDerivable(truncated=m < n)


def test_closure_rejects_illformed_premise(eci_uni, comp):
    bad = ci(["X"], ["Y"], rdec=["Th"], ldec=[])  # union {Th} is declared; use undeclared pair
    bad = ci(["X"], ["Y"], rdec=["Th"], cdec=[])
    comp_small = ComplementarityDecl.of(["Th", "Ph"])
    with pytest.raises(IllFormed):
        closure([bad], rule_set("ECI_RESTRICTED"), universe=eci_uni,
                complementarity=comp_small)


# -- prove -----------------------------------------------------------------------


def test_prove_five_step_sequence(uni3):
    d = prove(ci(["X", "Z"], ["Y"], ["Z"]), [ci(["X"], ["Y"], ["Z"])],
              rule_set("SEPAROID_FULL"), universe=uni3)
    assert not isinstance(d, NotDerivable)
    assert d.rule_sequence() == ["P1", "P2", "P3", "P5", "P1"]
    assert d.steps == 5


def test_prove_leaves_no_reference_cycle(uni3):
    """The engine and its indexes are freed by reference counting as prove
    returns a derivation, not held until the cyclic collector runs."""
    gc.collect()
    gc.disable()
    try:
        d = prove(ci(["X", "Z"], ["Y"], ["Z"]), [ci(["X"], ["Y"], ["Z"])],
                  rule_set("SEPAROID_FULL"), universe=uni3)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert d.steps == 5


def test_prove_premise_is_zero_steps(uni3):
    d = prove(ci(["X"], ["Y"], ["Z"]), [ci(["X"], ["Y"], ["Z"])],
              rule_set("SEPAROID_FULL"), universe=uni3)
    assert d.rule == "premise"
    assert d.steps == 0


def test_prove_seeds_no_leaks_for_a_premise_goal(monkeypatch):
    """A goal that is a premise is settled at cost 0, so prove walks none of
    the registry's leaks (32,256 of them on this session)."""
    yielded = []
    leaks = _Engine.leaks

    def counted(self):
        for item in leaks(self):
            yielded.append(item)
            yield item

    monkeypatch.setattr(_Engine, "leaks", counted)
    ses = parse_session("stochastic X1, X2, X3, X4, X5, X6; reduce X1 <= X2;"
                        " premise X1 _||_ X6 | X2;")
    d = prove(ses.premises[0], ses.premises, rule_set("SEPAROID_FULL"),
              universe=ses.universe, registry=ses.registry)
    assert (d.goal, d.rule, d.steps) == (ses.premises[0], "premise", 0)
    assert yielded == []


def test_prove_not_derivable_conclusively(uni3):
    res = prove(ci(["X"], ["Y"]), [ci(["X"], ["Y"], ["Z"])],
                rule_set("SEPAROID_FULL"), universe=uni3)
    assert isinstance(res, NotDerivable)
    assert not res.truncated


def test_prove_truncation_reported(uni3):
    res = prove(ci(["X"], ["Y"]), [ci(["X"], ["Y"], ["Z"])],
                rule_set("SEPAROID_FULL"), universe=uni3,
                limits=Limits(max_statements=3, max_depth=64))
    assert isinstance(res, NotDerivable)
    assert res.truncated


def test_prove_max_depth_cut_is_truncated(uni3):
    """A goal whose only proofs are longer than max_depth is reported as
    truncated, not as conclusively underivable; at the proof's length it is
    derived."""
    goal, prems = ci(["X", "Z"], ["Y"], ["Z"]), [ci(["X"], ["Y"], ["Z"])]
    rs = rule_set("SEPAROID_FULL")
    for depth in (1, 3, 4):
        res = prove(goal, prems, rs, universe=uni3, limits=Limits(max_depth=depth))
        assert res == NotDerivable(truncated=True)
    d = prove(goal, prems, rs, universe=uni3, limits=Limits(max_depth=5))
    assert d.steps == 5
    # the whole closure of the premise costs at most 9 steps: absence is
    # conclusive from there on, and not below
    for depth, truncated in ((8, True), (9, False)):
        res = prove(ci(["X"], ["Y"]), prems, rs, universe=uni3, limits=Limits(max_depth=depth))
        assert res == NotDerivable(truncated=truncated)


def test_prove_registry_reductions(uni3):
    uni = Universe.of(stochastic=["X", "Y", "Z", "W"])
    reg = ReductionRegistry(uni)
    reg.register("W", "Y")
    d = prove(ci(["X"], ["W"], ["Z"]), [ci(["X"], ["Y"], ["Z"])],
              rule_set("SEPAROID_FULL"), universe=uni, registry=reg)
    assert d.rule_sequence() == ["P3"]


def _chain(n: int) -> str:
    """Session of the Markov chain X1..Xn: Xi _||_ X1..X(i-2) | X(i-1)."""
    names = [f"X{i}" for i in range(1, n + 1)]
    text = f"stochastic {', '.join(names)};"
    for i in range(3, n + 1):
        text += f" premise X{i} _||_ {', '.join(names[:i - 2])} | X{i - 1};"
    return text


def _chain_goal(n: int) -> CIStatement:
    return ci(["X1"], [f"X{n}"], [f"X{i}" for i in range(2, n)])


@pytest.mark.parametrize("n", [7, 8, 9])
def test_prove_long_markov_chain_default_limits(n):
    """X1 _||_ Xn | X2..X(n-1) from the chain premises: P4, P3, P1 on the last
    premise, found under the default limits."""
    ses = parse_session(_chain(n))
    d = prove(_chain_goal(n), ses.premises, rule_set("SEPAROID_FULL"), universe=ses.universe)
    assert isinstance(d, Derivation)
    assert d.steps == 3
    assert replay(d, universe=ses.universe, premises=ses.premises)


def test_prove_expands_rule_steps_only_when_due(monkeypatch):
    """On chain-7 the goal's (3, P1) entry comes before the P3, P4 and P5 turns
    of most statements, so those steps run on few of them; expanding every
    settled statement by every rule ran each step on 1,597 statements."""
    ran: dict[str, set] = {}
    for method in ("unary", "binary"):
        def counted(self, name, k, _inner=getattr(_Engine, method)):
            ran.setdefault(name, set()).add(k)
            return _inner(self, name, k)

        monkeypatch.setattr(_Engine, method, counted)
    ses = parse_session(_chain(7))
    d = prove(_chain_goal(7), ses.premises, rule_set("SEPAROID_FULL"), universe=ses.universe)
    assert d.rule_sequence() == ["P4", "P3", "P1"]
    assert len(ran["P5"]) <= 400
    assert len(ran["P5"]) < len(ran["P1"])


def _c1_chain():
    """The longest derivation of the benchmark: X3 _||_ X1, X5 | X2, X4 on
    the chain X1..X5."""
    ses = parse_session(_chain(5))
    return ses, ci(["X3"], ["X1", "X5"], ["X2", "X4"])


def test_prove_c1_chain_twelve_steps():
    ses, goal = _c1_chain()
    d = prove(goal, ses.premises, rule_set("SEPAROID_FULL"), universe=ses.universe)
    assert isinstance(d, Derivation)
    assert d.steps == 12
    assert d.rule_sequence() == "P1 P4 P3 P1 P5 P4 P3 P1 P4 P3 P1 P5".split()
    assert replay(d, universe=ses.universe, premises=ses.premises)


def _record_item_pushes(monkeypatch) -> dict:
    """Record each item entry ``prove`` pushes, by conclusion, in push order."""
    pushed: dict[tuple, list] = {}
    inner = heapq.heappush

    def recorded(heap, entry):
        if entry[3] is not None:  # an item, not a rule-step entry
            pushed.setdefault(entry[3], []).append(entry)
        inner(heap, entry)

    monkeypatch.setattr(heapq, "heappush", recorded)
    return pushed


@pytest.mark.parametrize("case", ["c1_chain", "chain7"])
def test_prove_keeps_one_pending_entry_per_conclusion(monkeypatch, case):
    """Each item entry ``prove`` pushes is strictly below every earlier entry
    for its conclusion, so a conclusion's entries strictly decrease.  On
    c1_chain it pushes 1,744 items, where pushing every route pushed 6,532."""
    pushed = _record_item_pushes(monkeypatch)
    if case == "c1_chain":
        ses, goal = _c1_chain()
    else:
        ses, goal = parse_session(_chain(7)), _chain_goal(7)
    d = prove(goal, ses.premises, rule_set("SEPAROID_FULL"), universe=ses.universe)
    assert isinstance(d, Derivation)
    for entries in pushed.values():
        assert all(a > b for a, b in zip(entries, entries[1:]))
    if case == "c1_chain":
        assert sum(map(len, pushed.values())) <= 3100


def test_prove_prices_family_conclusions_at_push_time(monkeypatch):
    """A member of the spontaneous family is pushed only on a route below its
    family price: a route the pop would skip, the implicit derivation being
    at least as good, is never pushed.  On c1_chain that is 1,744 item
    pushes, where pricing members at the pop pushed 3,020."""
    pushed = _record_item_pushes(monkeypatch)
    ses, goal = _c1_chain()
    d = prove(goal, ses.premises, rule_set("SEPAROID_FULL"), universe=ses.universe)
    assert d.rule_sequence() == "P1 P4 P3 P1 P5 P4 P3 P1 P4 P3 P1 P5".split()
    assert sum(map(len, pushed.values())) <= 1800


def test_prove_left_trivial_goal_outside_guarded_closure():
    """The P1 guard skips trivial statements, so from no premises the
    closure over X, Y holds Y _||_ X | X (P2) but not X _||_ Y | X: prove
    reports the latter conclusively not derivable, although it is true."""
    ses = parse_session("stochastic X, Y, Z;")
    kw = dict(universe=ses.universe)
    rs = rule_set("SEPAROID_FULL")
    assert prove(ci(["X"], ["Y"], ["X"]), [], rs, **kw) == NotDerivable(truncated=False)
    members = closure([], rs, **kw)
    assert ci(["Y"], ["X"], ["X"]) in members
    assert ci(["X"], ["Y"], ["X"]) not in members


# -- prove's exact answers: a seeded corpus -----------------------------------------

_CORPUS = [
    # (session header, rule set, flags, where decision names go: "s" none,
    # "d" everywhere (pure decision), "rc" right or conditioning slot, "any")
    ("stochastic A, B, C, D;", "SEPAROID_FULL", (), "s"),
    ("stochastic A, B, C; reduce C <= A;", "SEPAROID_FULL", (), "s"),
    ("decision A, B, C, D;", "VCI_STRONG", (), "d"),
    ("stochastic L, A, Y; decision Sigma; complementary {Sigma};", "ECI_RESTRICTED", (), "rc"),
    ("stochastic L, A, Y; decision Sigma; complementary {Sigma};",
     "ECI_RESTRICTED", ("discrete_variables",), "rc"),
    ("stochastic A, B, C, D; decision T; complementary {T};",
     "GENERAL", ("discrete_variables",), "any"),
]
_CORPUS_LIMITS = [None, Limits(max_depth=3), Limits(max_depth=6),
                  Limits(max_statements=20), Limits(max_statements=200)]


def _corpus_draw(rng: random.Random, ses, kind: str) -> CIStatement:
    """A random admissible statement with nonempty left and right slots."""
    stoch = sorted(ses.universe.names("stochastic"))
    dec = sorted(ses.universe.names("decision"))
    names = dec if kind == "d" else stoch

    def part():
        return [n for n in names if rng.random() < 0.4]

    slots = [part() or [rng.choice(names)], part(), part()]
    if not slots[1]:
        slots[1] = [rng.choice(names)]
    if kind == "d":
        return CIStatement(*(vs((), s) for s in slots))
    decs = [[], [], []]
    if dec and rng.random() < 0.7:
        decs[rng.choice((1, 2) if kind == "rc" else (0, 1, 2))].extend(dec)
    return CIStatement(*(vs(s, d) for s, d in zip(slots, decs)))


@functools.cache
def _corpus() -> list:
    """(result, rule set, premises, session keywords) of the 2,880 seeded
    prove calls of the corpus, computed once per test session."""
    rows = []
    rng = random.Random(2015)
    for header, rs_name, flags, kind in _CORPUS:
        ses = parse_session(header)
        rs = rule_set(rs_name, flags)
        kw = dict(universe=ses.universe, registry=ses.registry,
                  complementarity=ses.complementarity)
        for _ in range(4):
            prems = [_corpus_draw(rng, ses, kind) for _ in range(rng.randint(1, 3))]
            members = sorted(closure(prems, rs, limits=Limits(max_statements=300), **kw).statements,
                             key=lambda s: s.sort_key())
            goals = [_corpus_draw(rng, ses, kind) for _ in range(12)] + rng.sample(members, 12)
            for lim in _CORPUS_LIMITS:
                rows += [(prove(goal, prems, rs, limits=lim, **kw), rs, prems, kw) for goal in goals]
    return rows


def test_prove_corpus_answers_pinned():
    """2,880 prove calls over all four rule sets, a registry, ECI with and
    without discrete_variables, and default and tight limits: half the goals
    are random, half are closure members.  The sha256 of the results' repr
    (every Derivation and every NotDerivable, truncated or not) is pinned."""
    results = [row[0] for row in _corpus()]
    assert len(results) == 2880
    assert sum(isinstance(r, Derivation) for r in results) == 1731
    assert sum(r == NotDerivable(truncated=True) for r in results) == 539
    digest = hashlib.sha256(repr(results).encode()).hexdigest()
    assert digest == "4c1f27bf24bbfc76d580c3e3bd2aad2028aa2fc3f25cc9d626ab13ecf3b519fd"


def test_prove_corpus_derivations_replay():
    """Every derivation of the corpus replays from its premises under its
    rule set, session and flags."""
    derived = [row for row in _corpus() if isinstance(row[0], Derivation)]
    assert len(derived) == 1731
    for d, rs, prems, kw in derived:
        assert replay(d, rules=rs, premises=prems, **kw), format_proof(d)


# -- prove agrees with closure ------------------------------------------------------

_AGREEMENT = [
    # (session header, rule set, flags, decision names of the statements)
    ("stochastic A, B, C;", "SEPAROID_FULL", (), ()),
    ("stochastic A, B, C, D;", "SEPAROID_FULL", (), ()),
    ("stochastic A, B, C; reduce C <= A;", "SEPAROID_FULL", (), ()),
    ("stochastic A, B, C, D; reduce D <= B; reduce A <= C;", "SEPAROID_FULL", (), ()),
    ("stochastic L, U, A, Y; decision Sigma; complementary {Sigma};",
     "ECI_RESTRICTED", (), ("Sigma",)),
    ("stochastic L, U, A, Y; decision Sigma; complementary {Sigma};",
     "ECI_RESTRICTED", ("discrete_variables",), ("Sigma",)),
]


def _draw(rng: random.Random, stoch, dec):
    """A random statement with nonempty outer slots; the decision names, when
    drawn, all go to the right or all to the conditioning slot."""

    def part():
        return [n for n in stoch if rng.random() < 0.4]

    left, right, cond = part() or [rng.choice(stoch)], part(), part()
    rdec, cdec = [], []
    if dec and rng.random() < 0.7:
        (rdec if rng.random() < 0.5 else cdec).extend(dec)
    if not (right or rdec):
        right = [rng.choice(stoch)]
    return ci(left, right, cond, rdec=rdec, cdec=cdec)


@pytest.mark.parametrize("case", range(len(_AGREEMENT)))
def test_prove_agrees_with_closure(case):
    """prove derives exactly the members of the untruncated closure; every
    derivation replays, and every absence is conclusive."""
    header, rs_name, flags, dec = _AGREEMENT[case]
    rs = rule_set(rs_name, flags)
    rng = random.Random(case)
    for _ in range(3):
        ses = parse_session(header)
        stoch = sorted(ses.universe.names("stochastic"))
        prems = [_draw(rng, stoch, dec) for _ in range(rng.randint(1, 3))]
        kw = dict(universe=ses.universe, registry=ses.registry,
                  complementarity=ses.complementarity)
        res = closure(prems, rs, limits=Limits(max_statements=10**6), **kw)
        assert not res.truncated
        members = sorted(res.statements, key=lambda s: s.sort_key())
        goals = [_draw(rng, stoch, dec) for _ in range(5)]
        goals += [rng.choice(members) for _ in range(3)]
        for goal in goals:
            d = prove(goal, prems, rs, **kw)
            assert isinstance(d, Derivation) == (goal in res), (prems, goal)
            if isinstance(d, Derivation):
                assert replay(d, rules=rs, premises=prems, **kw)
            else:
                assert not d.truncated


# -- prove agrees with an independent semigraphoid oracle -----------------------------


def test_prove_agrees_with_the_semigraphoid_oracle_on_three_names():
    """Over stochastic A, B, C, SEPAROID_FULL is semigraphoid reasoning.  For
    each of the 64 sets of elementary premises a _||_ b | K and each of the
    79 goals whose outer slots are nonempty and disjoint from the
    conditioning slot, prove derives the goal iff ``brute_semigraphoid``
    holds it; every derivation replays and no absence is truncated."""
    names = ("A", "B", "C")
    uni, rs = Universe.of(stochastic=names), rule_set("SEPAROID_FULL")
    elementary = [ci([a], [b], k) for a, b in itertools.combinations(names, 2)
                  for k in ((), tuple(set(names) - {a, b}))]
    subsets = [frozenset(c) for n in range(4) for c in itertools.combinations(names, n)]
    goals = [ci(x, y, z) for z in subsets for x in subsets for y in subsets
             if x and y and not (x | y) & z]
    assert len(elementary) == 6 and len(goals) == 79
    derived = 0
    for bits in range(1 << len(elementary)):
        prems = [e for i, e in enumerate(elementary) if bits >> i & 1]
        holds = brute_semigraphoid(prems)
        for goal in goals:
            d = prove(goal, prems, rs, universe=uni)
            assert isinstance(d, Derivation) == holds(goal), (prems, goal)
            if isinstance(d, Derivation):
                assert replay(d, universe=uni, premises=prems), format_proof(d)
                derived += 1
            else:
                assert not d.truncated, (prems, goal)
    assert 0 < derived < 64 * 79


def test_prove_agrees_with_the_semigraphoid_oracle_on_four_names():
    """Over stochastic A, B, C, D: 40 seeded sets of one to four of the 24
    elementary premises a _||_ b | K, each against the 110 goals whose three
    slots are pairwise disjoint and whose outer slots are nonempty.  prove
    derives a goal iff ``brute_semigraphoid`` holds it; every derivation
    replays and no absence is truncated."""
    names = ("A", "B", "C", "D")
    uni, rs = Universe.of(stochastic=names), rule_set("SEPAROID_FULL")
    subsets = [frozenset(c) for n in range(5) for c in itertools.combinations(names, n)]
    elementary = [ci([a], [b], k) for a, b in itertools.combinations(names, 2)
                  for k in subsets if not {a, b} & k]
    goals = [ci(x, y, z) for z in subsets for x in subsets for y in subsets
             if x and y and not (x & y or (x | y) & z)]
    assert len(elementary) == 24 and len(goals) == 110
    rng, derived = random.Random(4), 0
    for _ in range(40):
        prems = rng.sample(elementary, rng.randint(1, 4))
        holds = brute_semigraphoid(prems)
        for goal in goals:
            d = prove(goal, prems, rs, universe=uni)
            assert isinstance(d, Derivation) == holds(goal), (prems, goal)
            if isinstance(d, Derivation):
                assert replay(d, universe=uni, premises=prems), format_proof(d)
                derived += 1
            else:
                assert not d.truncated, (prems, goal)
    assert 0 < derived < 40 * 110


# -- closure digests -----------------------------------------------------------------


def _canonical_digest(statements) -> str:
    """sha256 of the sorted statement list, one ``L _||_ R | C`` line each,
    slots written as sorted stochastic then sorted decision names."""

    def slot(v):
        return ",".join(sorted(v.stoch) + sorted(v.dec))

    lines = sorted(f"{slot(s.left)} _||_ {slot(s.right)} | {slot(s.cond)}" for s in statements)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


_DEMO = ("stochastic L, U, A, Y; decision Sigma; complementary {Sigma};"
         " premise L, U _||_ Sigma; premise Y _||_ Sigma | A, L, U;"
         " premise A _||_ U | L, Sigma;")


@pytest.mark.parametrize("text, rs_name, flags, count, digest", [
    (_chain(4), "SEPAROID_FULL", (), 1119,
     "c90231ce291d4b67698c30d5b415b2122abb7fbdbd7e7d450030efb0ff6f7b2d"),
    (_chain(5), "SEPAROID_FULL", (), 8261,
     "05d8e7de3e7b2470d80046ce39f3e0c2c0b77d9bb7dac44678cb884467d4deb1"),
    (_DEMO, "ECI_RESTRICTED", (), 2213,
     "547561c18a7b27f21c4b3fd74f50c754e73a31d9692c77a51e8b810534c12272"),
    (_DEMO, "ECI_RESTRICTED", ("discrete_variables",), 2438,
     "492773899d7b3714ef93418a840adf2ebab02f27d205916a60e25292176658bb"),
], ids=["chain4", "chain5", "demo", "demo_dv"])
def test_closure_pinned(text, rs_name, flags, count, digest):
    """The closures keep their exact statement sets (count and digest)."""
    ses = parse_session(text)
    res = closure(ses.premises, rule_set(rs_name, flags), universe=ses.universe,
                  registry=ses.registry, complementarity=ses.complementarity)
    assert not res.truncated
    assert len(res.statements) == count
    assert _canonical_digest(res.statements) == digest


# -- closure results, decoded in one pass ----------------------------------------------

_DECODE_CASES = [
    (_chain(4), "SEPAROID_FULL", ()),
    (_chain(5), "SEPAROID_FULL", ()),
    (_DEMO, "ECI_RESTRICTED", ()),
    ("decision D1, D2, D3, D4; complementary {D1, D2, D3}; complementary {D1, D2, D3, D4};"
     " premise D3 _||_ D1 | D2; premise D4 _||_ D1, D2 | D3;", "VCI_STRONG", ()),
    ("stochastic X, Y, Z; decision K, Th; complementary {K, Th};"
     " premise X, K _||_ Y, Th | Z;", "GENERAL", ()),
]


@pytest.mark.parametrize("text, rs_name, flags", _DECODE_CASES,
                         ids=["chain4", "chain5", "demo", "vci", "general"])
def test_statements_decode_as_stmt_of(text, rs_name, flags):
    """``_Space.statements`` decodes the family and the premises as
    ``stmt_of`` does one key at a time, and shares the slots ``slot``
    hands out."""
    ses = parse_session(text)
    eng, keys = _setup(ses.premises, rule_set(rs_name, flags), ses.universe,
                       ses.registry, ses.complementarity)
    keys = {*eng.members(), *keys}
    sp = eng.space
    got = sp.statements(keys)
    assert got == frozenset(map(sp.stmt_of, keys))
    assert len(got) == len(keys)
    for s in got:
        for v in (s.left, s.right, s.cond):
            assert v is sp.slot(*sp.varset_masks(v))


@pytest.mark.parametrize("text, rs_name, members", [
    (_chain(5), "SEPAROID_FULL", 6541),  # from 7,776 candidate keys
    (_DEMO, "ECI_RESTRICTED", 2190),  # from 3,888 candidate keys
], ids=["chain5", "demo"])
def test_members_asks_tautology_once_per_class(monkeypatch, text, rs_name, members):
    """One ``members()`` pass asks ``tautology`` twice per (rs, cs) and legal
    decision part, 486 times on both sessions, not once per candidate key."""
    ses = parse_session(text)
    eng, _keys = _setup(ses.premises, rule_set(rs_name), ses.universe, ses.registry,
                        ses.complementarity)
    calls = []
    tautology = _Engine.tautology
    monkeypatch.setattr(_Engine, "tautology", lambda self, k: calls.append(k) or tautology(self, k))
    assert sum(1 for _ in eng.members()) == members
    assert len(calls) <= 486


def test_truncated_closure_holds_the_family_and_premises():
    """A truncated closure still holds every member and every premise."""
    ses = parse_session(_chain(5))
    rs = rule_set("SEPAROID_FULL")
    family = closure([], rs, universe=ses.universe).statements
    res = closure(ses.premises, rs, universe=ses.universe, limits=Limits(max_statements=4))
    assert res.truncated
    assert family <= res.statements
    assert set(ses.premises) <= res.statements
    assert len(res.statements - family) == 4


def test_unary_yields_pinned():
    """Every unary rule step of every rule set, on every legal key over
    stochastic A, B, C and decision P, T, with and without the registry
    A <= B, P <= T: the ordered (conclusion, note) yields keep their sha256.
    The pure sets run in each mode they take; the mixed sets under flags
    (so their gated steps run too), with {T}, {P} and {T, P} declared."""
    uni = Universe.of(stochastic=["A", "B", "C"], decision=["P", "T"])
    reg = ReductionRegistry(uni)
    reg.register("A", "B")
    reg.register("P", "T")
    comp = ComplementarityDecl.of(["T"], ["P"], ["T", "P"])
    flags = ("pairwise_semantics", "discrete_variables")
    cases = [("SEPAROID_FULL", (), "s"), ("SEPAROID_FULL", (), "d"), ("VCI_STRONG", (), "d"),
             ("ECI_RESTRICTED", flags, None), ("GENERAL", flags, None)]
    keys = list(itertools.product(range(8), range(4), range(8), range(4), range(8), range(4)))
    h, calls = hashlib.sha256(), 0
    for (name, fl, mode), registry in itertools.product(cases, (None, reg)):
        eng = _Engine(rule_set(name, fl), _Space(uni, registry), comp, mode)
        legal = [k for k in keys if eng.legal(k)]
        for rule in (rule for rule, arity in eng.steps if arity == 1):
            for k in legal:
                yields = [(ck, note) for _, _, ck, note in eng.expand(k, ((rule, 1),))]
                h.update(repr((rule, k, yields)).encode())
            calls += len(legal)
    assert calls == 298_752
    assert h.hexdigest() == "b6de13d4b22f2a8ced6b26ffcc0912e8c9a3cdeefbbcd839be55dd282f32be07"


# -- derivation formatting and replay ---------------------------------------------


def test_format_proof_zero_step(uni3):
    d = prove(ci(["X"], ["Y"], ["Z"]), [ci(["X"], ["Y"], ["Z"])],
              rule_set("SEPAROID_FULL"), universe=uni3)
    assert format_proof(d) == "1. X _||_ Y | Z  [premise]"


def test_format_proof_five_step_has_six_lines(uni3):
    d = prove(ci(["X", "Z"], ["Y"], ["Z"]), [ci(["X"], ["Y"], ["Z"])],
              rule_set("SEPAROID_FULL"), universe=uni3)
    lines = format_proof(d).splitlines()
    assert len(lines) == 6
    assert lines[-1].startswith("6. X,Z _||_ Y | Z")


def test_replay_accepts_valid_and_rejects_malformed(uni3):
    prem = [ci(["X"], ["Y"], ["Z"])]
    d = prove(ci(["X", "Z"], ["Y"], ["Z"]), prem, rule_set("SEPAROID_FULL"), universe=uni3)
    assert replay(d, universe=uni3, premises=prem)
    from separoid.engine import Derivation

    broken = Derivation(d.goal, "P1", ())  # rule citing a missing child
    assert not replay(broken, universe=uni3, premises=prem)
    wrong = Derivation(ci(["X"], ["Y"]), "P1", (d.children[0],))
    assert not replay(wrong, universe=uni3, premises=prem)


def test_replay_rejects_tampered_derivations(uni3, eci_uni, comp):
    # Each tampered derivation differs from one that replays in one step:
    # its rule name, its arity, a guarded statement, or an uncited premise.
    a, b = ci(["X"], ["Y"], ["Z"]), ci(["Y"], ["X"], ["Z"])
    leaf = Derivation(a, "premise")
    good = prove(ci(["X", "Z"], ["Y"], ["Z"]), [a], rule_set("SEPAROID_FULL"), universe=uni3)
    assert replay(good, universe=uni3, premises=[a])
    assert replay(Derivation(b, "P1", (leaf,)), universe=uni3, premises=[a])
    for rule in ("P3", "P1'", "P7"):  # a rule of the set, of another set, of none
        assert not replay(Derivation(b, rule, (leaf,)), universe=uni3, premises=[a])
    assert not replay(Derivation(b, "P1", (leaf, leaf)), universe=uni3, premises=[a])
    assert not replay(Derivation(b, "P5", (leaf,)), universe=uni3, premises=[a])
    assert not replay(good, universe=uni3, premises=[b])
    assert not replay(Derivation(ci(["W"], ["X"], ["Z"]), "P1", (leaf,)), universe=uni3)
    # P1' on a decision-free statement (guarded), then on one whose decision
    # names are all conditioned on
    kw = dict(universe=eci_uni, complementarity=comp, rules="ECI_RESTRICTED")
    with pytest.raises(GuardViolation):
        apply_rule("P1'", [a], **kw)
    assert not replay(Derivation(b, "P1'", (leaf,)), **kw)
    c, d = ci(["X"], ["Y"], ["Z"], cdec=["Th"]), ci(["Y"], ["X"], ["Z"], cdec=["Th"])
    assert replay(Derivation(d, "P1'", (Derivation(c, "premise"),)), premises=[c], **kw)


@pytest.mark.parametrize("entry", ["prove", "closure", "apply_rule", "replay"])
def test_unknown_names_are_named_by_every_entry_point(entry):
    """A name outside the universe, or a decision name in a stochastic part,
    raises ``UnknownVariable`` with ``canonicalize``'s text, naming the
    least offending name of the first slot that has one; ``replay`` answers
    False, whether the name is in a step's premise or in its goal."""
    uni = Universe.of(stochastic=["X", "Y"], decision=["Th", "Ph"])
    good, rs = ci(["X"], ["Y"]), rule_set("SEPAROID_FULL")
    cases = [(ci(["X", "Q", "P", "R"], ["Y"]), "undeclared variable 'P'"),
             (ci(["X"], ["Y", "Th", "Ph"]), "'Ph' is not a stochastic variable"),
             (ci(["X"], ["Y"], ["Th", "Q"]), "undeclared variable 'Q'")]
    for bad, text in cases:
        calls = {"prove": [lambda: prove(bad, [good], rs, universe=uni),
                           lambda: prove(good, [bad], rs, universe=uni)],
                 "closure": [lambda: closure([good, bad], rs, universe=uni)],
                 "apply_rule": [lambda: apply_rule("P1", [bad], universe=uni),
                                lambda: apply_rule("P3", [good, bad], universe=uni)]}
        if entry == "replay":
            swapped = CIStatement(bad.right, bad.left, bad.cond)
            for d in (Derivation(swapped, "P1", (Derivation(bad, "premise"),)),
                      Derivation(bad, "P1", (Derivation(good, "premise"),)),
                      Derivation(bad, "P2")):
                assert replay(d, universe=uni) is False
            continue
        for call in calls[entry]:
            with pytest.raises(UnknownVariable) as err:
                call()
            assert str(err.value) == text


def test_replay_builds_one_engine_per_mode(monkeypatch, uni3):
    # A five-step proof replays on one engine; apply_rule builds one per call.
    prem = [ci(["X"], ["Y"], ["Z"])]
    d = prove(ci(["X", "Z"], ["Y"], ["Z"]), prem, rule_set("SEPAROID_FULL"), universe=uni3)
    built = []
    init = _Engine.__init__

    def counted(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(_Engine, "__init__", counted)
    assert d.steps == 5 and replay(d, universe=uni3, premises=prem)
    assert len(built) == 1


def test_replay_checks_every_occurrence_of_a_goal(uni3):
    # X _||_ Y | Z by P1 from Y _||_ X | Z, itself by P1 from X _||_ Y | Z
    # again: the inner occurrence is a premise, or wrongly cited as P2.  The
    # outer ones replay either way, so only the inner one decides.
    a, b = ci(["X"], ["Y"], ["Z"]), ci(["Y"], ["X"], ["Z"])

    def twice(inner):
        return Derivation(a, "P1", (Derivation(b, "P1", (inner,)),))

    good, bad = twice(Derivation(a, "premise")), twice(Derivation(a, "P2"))
    assert replay(good, universe=uni3) and replay(good, universe=uni3, premises=[a])
    assert not replay(good, universe=uni3, premises=[b])
    assert not replay(bad, universe=uni3) and not replay(bad, universe=uni3, premises=[a])
    assert format_proof(good) == (
        "1. X _||_ Y | Z  [premise]\n2. Y _||_ X | Z  [P1 from 1]\n3. X _||_ Y | Z  [P1 from 2]")
    assert bad.rule_sequence() == ["P2", "P1", "P1"]


def test_replay_and_format_proof_leave_no_reference_cycle(uni3):
    prem = [ci(["X"], ["Y"], ["Z"])]
    d = prove(ci(["X", "Z"], ["Y"], ["Z"]), prem, rule_set("SEPAROID_FULL"), universe=uni3)
    gc.collect()
    gc.disable()
    try:
        assert replay(d, universe=uni3, premises=prem)
        lines = format_proof(d).splitlines()
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert len(lines) == 6


def test_derivation_json_shape(uni3):
    d = prove(ci(["X", "Z"], ["Y"], ["Z"]), [ci(["X"], ["Y"], ["Z"])],
              rule_set("SEPAROID_FULL"), universe=uni3)
    tree = derivation_to_dict(d)
    assert tree["rule"] == "P1"
    assert tree["statement"] == "X,Z _||_ Y | Z"
    assert tree["children"][0]["rule"] == "P5"


# -- extended rules ----------------------------------------------------------------


def test_eci_decomposition_interderivable(eci_uni, comp):
    rs = rule_set("ECI_RESTRICTED")
    main = ci(["X"], ["Y"], ["Z"], rdec=["Th"], cdec=["Ph"])
    split1 = ci(["X"], ["Y"], ["Z"], cdec=["Ph", "Th"])
    split2 = ci(["X"], [], ["Z"], rdec=["Th"], cdec=["Ph"])
    for goal in (split1, split2):
        d = prove(goal, [main], rs, universe=eci_uni, complementarity=comp)
        assert not isinstance(d, NotDerivable)
    d = prove(main, [split1, split2], rs, universe=eci_uni, complementarity=comp)
    assert d.rule_sequence() == ["P5'"]


def test_p4pp_gated_and_noted(eci_uni, comp):
    reg = ReductionRegistry(eci_uni)
    reg.register("W", "X")
    main = ci(["X"], ["Y"], ["Z"], rdec=["Th"], cdec=["Ph"])
    goal = ci(["X"], ["Y"], ["Z", "W"], rdec=["Th"], cdec=["Ph"])
    assert isinstance(
        prove(goal, [main], rule_set("ECI_RESTRICTED"), universe=eci_uni,
              registry=reg, complementarity=comp),
        NotDerivable,
    )
    d = prove(goal, [main], rule_set("ECI_RESTRICTED", ["dominating_regime"]),
              universe=eci_uni, registry=reg, complementarity=comp)
    assert d.rule_sequence() == ["P4''"]
    assert "dominating_regime" in d.note
    assert "via dominating_regime" in format_proof(d)


def test_general_rules_symmetry():
    uni = Universe.of(stochastic=["X", "Y", "Z"], decision=["K", "Th", "Ph"])
    comp = ComplementarityDecl.of(["K", "Th", "Ph"])
    rs = rule_set("GENERAL")
    main = ci(["X"], ["Y"], ["Z"], ldec=["K"], rdec=["Th"], cdec=["Ph"])
    goal = ci(["Y"], ["X"], ["Z"], ldec=["Th"], rdec=["K"], cdec=["Ph"])
    d = prove(goal, [main], rs, universe=uni, complementarity=comp)
    assert d.rule_sequence() == ["P1g"]


def test_eci_symmetry_needs_the_regime_conditioned():
    """Two regimes, Sigma the identity, Theta constant; X=0 in s0, X=1 in s1,
    Y uniform in both.  Without decision names a statement asserts one law
    across both regimes: Y _||_ X holds and X _||_ Y fails, so neither P1'
    nor P1g may turn one into the other.  Conditioned on the regime, the
    symmetry stays."""
    uni = Universe.of(stochastic=["X", "Y"], decision=["Sigma", "Theta"])
    comp = ComplementarityDecl.of(["Sigma"], ["Sigma", "Theta"])
    variables = {"X": ["0", "1"], "Y": ["0", "1"]}
    fam = RegimeFamily(
        ["s0", "s1"],
        {s: dist(variables, [({"X": x, "Y": y}, "1/2") for y in "01"])
         for s, x in (("s0", "0"), ("s1", "1"))},
        {"Sigma": {"s0": "s0", "s1": "s1"}, "Theta": {"s0": "0", "s1": "0"}},
    )
    fwd, back = ci(["Y"], ["X"]), ci(["X"], ["Y"])
    assert check_eci_general(fam, fwd) and not check_eci_general(fam, back)
    kw = dict(universe=uni, complementarity=comp)
    with pytest.raises(GuardViolation):
        apply_rule("P1'", [fwd], **kw)
    assert apply_rule("P1g", [fwd], **kw) == frozenset()
    for rs in ("ECI_RESTRICTED", "GENERAL"):
        assert prove(back, [fwd], rule_set(rs), **kw) == NotDerivable()
    fwd_s, back_s = ci(["Y"], ["X"], cdec=["Sigma"]), ci(["X"], ["Y"], cdec=["Sigma"])
    assert check_eci_general(fam, fwd_s) and check_eci_general(fam, back_s)
    assert back_s in apply_rule("P1'", [fwd_s], **kw)
    assert back_s in apply_rule("P1g", [fwd_s], **kw)


def test_vci_strong_closure_has_p2_instances():
    uni = Universe.of(decision=["A", "B"])
    res = closure([], rule_set("VCI_STRONG"), universe=uni)
    assert ci((), (), (), ldec=["A"], rdec=["B"], cdec=["B"]) in res


def test_vci_closure_derives_symmetry():
    uni = Universe.of(decision=["A", "B", "C"])

    def d(l, r, c=()):
        return ci((), (), (), ldec=l, rdec=r, cdec=c)

    res = closure([d(["A"], ["B"], ["C"])], rule_set("SEPAROID_FULL"), universe=uni)
    assert d(["B"], ["A"], ["C"]) in res


# -- soundness of whole closures against models --------------------------------------


def test_closure_statements_hold_on_random_models():
    """Everything the engine derives from premises true in a model is true in
    that model (spot check of soundness end to end)."""
    uni = Universe.of(stochastic=["A", "B", "C"])
    cfg = SearchConfig(seed=99, trials=40, var_cardinalities={"A": 2, "B": 2, "C": 2},
                       probability_grid=2)
    checked = 0
    for t in range(cfg.trials):
        dist = random_distribution(cfg, t)
        prems = []
        for stmt in [ci(["A"], ["B"], ["C"]), ci(["A"], ["B"]), ci(["B"], ["C"], ["A"])]:
            if check_sci(dist, stmt.left, stmt.right, stmt.cond):
                prems.append(stmt)
        if not prems:
            continue
        res = closure(prems, rule_set("SEPAROID_FULL"), universe=uni,
                      limits=Limits(max_statements=5000, max_depth=12))
        for stmt in res.statements:
            assert check_sci(dist, stmt.left, stmt.right, stmt.cond), (t, stmt)
            checked += 1
    assert checked > 100
