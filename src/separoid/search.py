"""Randomized and exhaustive search for separating models, and soundness
scans that run the engine's own rules over each model's true set.  Verdicts
come from the checkers' own tests in ``models`` (``MaskKernel.sci``, on a
table's kernel or, through ``RegimeFamily.eci``, on a family's stack, and
``variation_independent``), so a fix to a checker reaches every scan.

Random masses are drawn as integers on a coarse grid and normalized, so
degenerate (zero-mass) contexts are common; that is deliberate, since the
witness subtleties of the extended checks live exactly there.  Everything is
a deterministic function of (seed, stream index), never of wall clock or
worker count.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, product
from math import comb, prod
from typing import Iterable, Mapping, Sequence

from .dsl import render_statement
from .engine import RULES, RuleSet, _Engine, _l_triv, _r_triv, _Space, rule_set
from .errors import NotComplementary, SemanticsMismatch
from .files import model_from_dict, model_to_dict
from .models import (
    DiscreteDistribution,
    MaskKernel,
    RegimeFamily,
    block_meet,
    check_complementary,
    check_eci,
    check_sci,
    check_vci,
    dec_compile,
    dominating_per_group,
    mask_names,
    variation_independent,
)
from .universe import CIStatement, ComplementarityDecl, Universe

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
        if any(c < 1 for c in self.decision_cardinalities.values()):
            raise ValueError("decision cardinalities must be >= 1")

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


def _grid_table(rng: random.Random, variables: Mapping[str, Sequence[str]], grid: int):
    """Integer masses in [0, grid] per atom (the first set to 1 when all are
    zero), normalized."""
    atoms = list(product(*(variables[n] for n in sorted(variables))))
    masses = [rng.randint(0, grid) for _ in atoms]
    if not any(masses):
        masses[0] = 1
    total = sum(masses)
    return DiscreteDistribution(variables, {a: Fraction(m, total) for a, m in zip(atoms, masses)})


def random_distribution(cfg: SearchConfig, index: int) -> DiscreteDistribution:
    """Deterministic function of (seed, index): grid masses, normalized."""
    return _grid_table(_rng(cfg, index), _variables(cfg), cfg.probability_grid)


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
    regimes = regime_labels(cfg.regime_count)
    dists = {s: _grid_table(rng, variables, cfg.probability_grid) for s in regimes}
    decvars: dict[str, dict[str, str]] = {"Sigma": {s: s for s in regimes}}
    for n, c in sorted(cfg.decision_cardinalities.items()):
        decvars[n] = {s: str(rng.randrange(c)) for s in regimes}
    return RegimeFamily(regimes, dists, decvars)


def grid_distributions(variables: Mapping[str, Sequence[str]], grid: int):
    """All pmfs whose masses are integers on a 1/grid lattice (exhaustive)."""
    names = tuple(sorted(variables))
    atoms = list(product(*(tuple(variables[n]) for n in names)))
    for masses in _compositions(grid, len(atoms)):
        yield DiscreteDistribution(
            variables,
            {a: Fraction(m, grid) for a, m in zip(atoms, masses)},
            validate=False,
        )


def _compositions(total: int, parts: int):
    """Every tuple of ``parts`` nonnegative integers summing to ``total``."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _models(cfg: SearchConfig, semantics: str, exhaustive: bool = False):
    """The one model source of the search and the scans: (index, model) for
    ``cfg.trials`` seeded draws (looked up by module-global name per call),
    or every grid table (SCI) or every decision map on every regime space of
    1 to ``cfg.regime_count`` regimes (VCI) when exhaustive."""
    if not exhaustive:
        draw = {SCI: random_distribution, VCI: random_decmap, ECI: random_family}[semantics]
        return ((i, draw(cfg, i)) for i in range(cfg.trials))
    variables = _variables(cfg)
    if semantics == SCI:
        return enumerate(grid_distributions(variables, cfg.probability_grid))
    return enumerate(  # VCI: search_counterexample rejects an exhaustive ECI search
        {n: dict(zip(regimes, f)) for n, f in zip(variables, combo)}
        for regimes in map(regime_labels, range(1, cfg.regime_count + 1))
        for combo in product(*(product(v, repeat=len(regimes)) for v in variables.values()))
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
            {"decision_vars": self.model, "regimes": list(next(iter(self.model.values()), ()))}
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


def model_count(cfg: SearchConfig, exhaustive: bool = False) -> int:
    """How many models ``search_counterexample`` tries when none separates:
    ``cfg.trials`` random ones, or every grid table when exhaustive."""
    if not exhaustive:
        return cfg.trials
    atoms = prod(cfg.var_cardinalities.values())
    return comb(cfg.probability_grid + atoms - 1, atoms - 1)


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
        if prod(cfg.var_cardinalities.values()) > 4:
            raise ValueError("exhaustive mode is limited to at most four atoms "
                             "(the product of the variable cardinalities)")
    for i, model in _models(cfg, semantics, exhaustive):
        try:
            if (not all(_holds(model, p, semantics) for p in premises)
                    or _holds(model, goal, semantics)):
                continue
        except NotComplementary:
            continue  # model incompatible with the statement's decision family
        report = {
            "semantics": semantics,
            "trial": i,
            "premises": [{"statement": render_statement(p), "holds": True} for p in premises],
            "goal": {"statement": render_statement(goal), "holds": False},
        }
        return CounterexampleResult(semantics, i, model, report, cfg)
    return None


# -- soundness scans ----------------------------------------------------------


@dataclass
class ScanReport:
    """Outcome of a soundness scan.  ``instances`` counts the rule instances
    whose premises hold on a model, and ``instances_by_rule`` splits that
    count per rule of the rule set (zero for a rule never exercised).  A
    violation names the trial, the rule, and its premises and conclusion as
    rendered statements."""

    rule_set: str
    flags: tuple[str, ...]
    trials: int
    instances: int
    violations: list
    instances_by_rule: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "rule_set": self.rule_set,
            "flags": list(self.flags),
            "trials": self.trials,
            "instances": self.instances,
            "instances_by_rule": dict(self.instances_by_rule),
            "violations": self.violations,
        }


# Domain listings, kept for the process: scan domain -> ``_list_domain``'s tuple.
_DOMAINS: dict = {}
_DOMAINS_MAX = 32
_GATED = tuple(name for name, rule in RULES.items() if rule.flag_gated)
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _cleared(k: tuple) -> tuple:
    """k with its conditioning slot cleared from both outer slots."""
    ls, ld, rs, rd, cs, cd = k
    return ls & ~cs, ld & ~cd, rs & ~cs, rd & ~cd, cs, cd


class _Scan:
    """The engine's own rules run over each model's true set.

    The legal keys with nonempty outer slots are listed by decision union
    once per process and scan domain (``self.domain``) in ``_DOMAINS``:
    legality is asked of an engine with every nonempty union declared
    complementary, so the listing depends on that key alone.  Every
    conclusion the engine draws on a model from true premises must be true
    on it.

    The listing splits the keys once.  A key is trivial when its left or
    right part lies inside the conditioning slot in both components.  In a
    separoid X _||_ Y | Z holds exactly when X\\Z _||_ Y\\Z | Z (Dawid,
    2001), as the checkers answer.  A key that holds on every admitted model
    is *always true* and gets no verdict class of its own: it lies in its
    union's always-true slot.  Every other key is *asked*, once per class,
    on the class's first key; a non-trivial key's class is the key with the
    conditioning slot cleared from both outer slots in both components.  Every union a scan
    admits is empty or identifies the regime, which is why a mixed-mode
    ``model`` call must pass ``complementary``.  Per mode:

    - "s" and "d": ``MaskKernel.sci`` and the VCI verdict of ``_close_vci``
      are asked of X\\Z _||_ Y\\Z | Z, true when either outer part is
      empty, so every trivial key is always true.
    - mixed: ``eci_general`` on (X, K) _||_ (Y, theta) | (Z, phi) is
      eci(X, Y | Z, phi | K) and, when K is not empty, the Y check
      eci(Y, {} | Z, phi | theta) and the range test theta _||_ K | phi (K
      is empty under ECI_RESTRICTED).  SCI on the stack clears Z from X and
      Y, and holds at once when X\\Z is empty.  A part of K or theta inside
      phi is fixed given phi: it changes neither phi | K, phi | theta nor
      the range test, and when all of K or theta lies inside phi the range
      test holds.  If all of a nonempty K lies inside phi, clearing it drops
      the Y check; that check's groups are those of the key's union u = K |
      theta | phi, and on a u that identifies the regime they are single
      regimes, where it holds.  So clearing both components is exact on
      every admitted union.  A left-trivial key (X in Z, K in phi) is
      eci(X, Y | Z, phi) with X\\Z empty, so it holds.  A right-trivial key
      (Y in Z, theta in phi) of a nonzero admitted union holds:
      eci(X, Y | Z, phi | K) is X _||_ Y | Z per regime, as phi | K = u, and
      the Y check has Y\\Z empty.  On the empty union a right-trivial key
      asserts one law of X given Z across every regime and can be false, so
      each decision-free right-trivial key that is not left-trivial is
      asked as a class of its own.

    With every union admitted, four stochastic or decision variables have
    3,600 keys in 479 classes; ECI_RESTRICTED has 720 keys in 128 classes
    over X, Y and 6,944 in 860 over X, Y, Z, and GENERAL 3,600 in 483 over
    X, Y.

    Each (union, class) slot has an id: a union's classes are numbered from
    ``base[union]`` in domain order and its *always-true slot* comes one past
    them; ``class_id`` maps a key to its slot, and a key outside the listing
    to ``width``.  ``model`` returns the class verdicts as bytes, byte g 1
    when slot g is true; an admitted union's always-true slot is 1, and a
    union not admitted and ``width`` stay 0.  Read as one int, bit g for
    byte g, they decide each close.

    A model's rule instances are the spontaneous ones and those
    ``_Engine.expand`` draws on the listing's engine, where every listed key
    is inserted, as a first premise only (its indexes never change after
    the listing).  The domain's table holds an entry per slot, filled the
    first time the slot is true from the instances of its keys, after the
    spontaneous ones concluding in the union for an always-true slot (whose
    instances are unary, as a trivial key is never a first premise): the OR
    of its unary conclusions' bits and the per-rule unary counts; per pair
    rule, the second premises' bits as binary layers (layer j holds the bits
    whose multiplicity has bit j, so the count is the sum of popcount(true &
    layer) << j); and the pairs grouped by conclusion bit, each with the OR
    of its second premises' bits.  P4''/P4g conclusions are licensed per
    class, since a class keeps the conditioning slot and so every key in it
    has the same decision part there; always-true keys share none, so such
    a conclusion there, which ``_filler`` keeps a sound engine from drawing,
    sets the outside bit.  A close of union u ORs its true slots' conclusion
    bits; when every one is true, and no true second premise meets a false
    conclusion, it adds the counts.  Otherwise a conclusion is false,
    outside the listing or in a union not admitted, and only then does it
    walk u one instance at a time (spontaneous ones, then those of the
    always-true keys, then those of the true asked keys, each in domain
    order), concluding every instance whose second premise is true.  The
    walk reads a truth table built per key from the verdicts, once per
    model, and asks the model about any other conclusion, keeping the
    answer for the model's later walks; so the violations, their order and
    the side verdicts are those of a close by key.  A second premise the P5
    family synthesizes (an implicit tautology, never indexed) has its first
    premise's decision union and is an always-true key there; an indexed
    one lies in another union only in mode "d", where every union is
    admitted, so its bit is its verdict.  Reuse is exact: a changed engine
    has a domain of its own; an engine meets each pair of true premises
    once; and a spontaneous instance concludes in its own union, so a model
    gets exactly those of its admitted unions, as an engine declaring only
    them complementary would yield.  So a sound model builds no engine and
    draws no rule instance.  The tables of a bench ``scan`` pass hold 612
    slots (38 always-true) with 41,797 unary conclusions and 9,744 pairs,
    0.83 MB by tracemalloc (the class positions 0.32 MB, the listings'
    engines 1.02 MB), and go with their listing; the oldest listing is
    dropped at ``_DOMAINS_MAX``."""

    def __init__(self, rs: RuleSet, universe: Universe, mode: str | None = None):
        self.rs = rs
        self.mode = mode
        self.space = sp = _Space(universe, None)
        self.domain = (rs, sp.s_names, sp.d_names, mode, tuple(vars(_Engine).values()))
        self.dec_sets = [sp.slot(0, d).dec for d in range(sp.d_all + 1)]
        listing = _DOMAINS.get(self.domain) or self._list_domain()
        self.keys, self.reps, self.classes, self.base, self.pos, self.eng, self.table = listing
        self.width = sum(len(r) + 1 for r in self.reps.values())  # slots; also the outside id
        self.tally = dict.fromkeys(rs.rules, 0)
        self.violations: list = []
        self.ranges: dict = {}  # relabeled VCI range -> (tally delta, violations)
        self.parts, self.ids, self.vci, self.meets = [], {}, {}, {}  # see _close_vci

    def model(self, trial: int, holds, complementary=None, dominating=None) -> bytearray:
        """Close one model's true set under the engine and return its class
        verdicts, byte g 1 when slot g is true (see ``_Scan``).
        ``holds(key)`` is the model's verdict, asked once per class;
        ``complementary(union)`` admits a decision union to the domain (all
        are admitted when absent, which mixed mode refuses);
        ``dominating(phi)`` licenses a P4''/P4g premise conditioned on phi."""
        if complementary is None and self.mode is None:
            raise ValueError("a mixed-mode scan admits a decision union only by complementary")
        unions = [u for u in self.keys if complementary is None or complementary(u)]
        verdicts = bytearray(self.width + 1)
        for u in unions:
            b = self.base[u]
            verdicts[b:b + len(self.reps[u]) + 1] = bytes([*map(holds, self.reps[u]), True])
        true = int(verdicts.translate(_DIGITS)[::-1], 2)  # bit g set when slot g is true
        truth: dict = {}  # per key, built for the first union that must be walked
        for u in unions:
            if not self._close(u, verdicts, true, dominating):
                truth = truth or self.truth(verdicts)
                self._walk(trial, u, verdicts, truth, holds, dominating)
        return verdicts

    def truth(self, verdicts: bytearray) -> dict:
        """Each key of the admitted unions (those whose always-true slot is
        set) with its class verdict, in domain order."""
        return {k: verdicts[b + c] for u, b in self.base.items() if verdicts[b + len(self.reps[u])]
                for k, c in zip(self.keys[u], self.classes[u])}

    def _list_domain(self) -> tuple:
        """The domain's legal keys by decision union, their classes (each
        class's first key in domain order, and each key's class as an index
        into those, one past them for an always-true key), each union's first
        class id, each union's class positions (``None`` for its always-true
        slot), the engine that asked legality, every listed key inserted, and
        an empty table."""
        sp = self.space
        eng = _Engine(self.rs, sp, ComplementarityDecl(frozenset(self.dec_sets[1:])), self.mode)
        slots = [(s, d) for s in range(sp.s_all + 1) for d in range(sp.d_all + 1)]
        keys: dict[int, list] = {}
        for left, right, cond in product(slots[1:], slots[1:], slots):
            if eng.legal(k := left + right + cond):
                keys.setdefault(k[1] | k[3] | k[5], []).append(k)
                eng.insert(k)
        eng.by_left_rjoinc = eng.by_right_ljoinc = {}  # pair each key as first premise only
        reps, classes, base, pos, width = {}, {}, {}, {}, 0
        for u, ks in keys.items():
            keys[u] = tuple(ks)
            cls = [self._class_of(k, u) for k in ks]
            first: dict = {}
            for c, k in zip(cls, ks):
                if c is not None:
                    first.setdefault(c, k)
            pos[u] = {c: i for i, c in enumerate(first)}
            pos[u][None] = len(first)  # the always-true slot
            reps[u], classes[u] = tuple(first.values()), tuple(map(pos[u].__getitem__, cls))
            base[u], width = width, width + len(first) + 1
        if len(_DOMAINS) >= _DOMAINS_MAX:
            del _DOMAINS[next(iter(_DOMAINS))]
        listing = _DOMAINS[self.domain] = (keys, reps, classes, base, pos, eng, {})
        return listing

    def _close(self, u: int, verdicts: bytearray, true: int, dominating) -> bool:
        """Add union u's instances from its true slots' table entries (see
        ``_Scan``); False, adding nothing, when u must be walked."""
        b, missing = self.base[u], ~true
        end = b + len(self.reps[u]) + 1
        entries = []
        for g in compress(range(b, end), verdicts[b:end]):
            entry = self.table.get(g) or self._fill(u, g)
            need, _, pneed, pairs, _, gated = entry
            licensed = gated is not None and (dominating is None or dominating(gated[0]))
            if licensed:
                need |= gated[1]
            if need & missing or pneed & missing and any(t & true for c, t in pairs if c & missing):
                return False
            entries.append((entry, licensed))
        tally = self.tally
        for (_, counts, _, _, layers, gated), licensed in entries:
            for rule, c in counts:
                tally[rule] += c
            for rule, c in gated[2] if licensed else ():
                tally[rule] += c
            for rule, j, layer in layers:
                tally[rule] += (true & layer).bit_count() << j
        return True

    def _walk(self, trial: int, u: int, verdicts, truth: dict, holds, dominating) -> None:
        """Close union u one instance at a time (see ``_Scan``)."""
        n, b = len(self.reps[u]), self.base[u]
        asked = {i for i in range(n) if verdicts[b + i]}
        for rule, premises, ck, k in chain(self._instances(u, {n}), self._instances(u, asked)):
            if len(premises) == 2 and not truth.get(premises[1]):
                continue
            if dominating is not None and rule in _GATED and not dominating(k[5]):
                continue
            self.tally[rule] += 1
            ok = truth.get(ck)
            if ok is None:
                ok = truth[ck] = holds(ck)
            if not ok:
                self.violation(trial, rule, [self.render(p) for p in premises], self.render(ck))

    def _instances(self, u: int, slots: set):
        """(rule, premises, conclusion, first premise) of each instance on
        union u's keys in slots, in domain order, after the spontaneous ones
        concluding in u when slots holds its always-true slot."""
        if len(self.reps[u]) in slots:
            for rule, ck in self.eng.spontaneous():
                if ck[1] | ck[3] | ck[5] == u:
                    yield rule, (), ck, None
        for k, c in zip(self.keys[u], self.classes[u]):
            if c in slots:
                for rule, premises, ck, _note in self.eng.expand(k):
                    yield rule, premises, ck, k

    def _fill(self, u: int, g: int) -> tuple:
        """Store the table entry of union u's slot g (see ``_Scan``)."""
        bit, out, i = self.class_id, 1 << self.width, g - self.base[u]
        need = pneed = gneed = 0
        counts, gcounts, seconds, pairs = Counter(), Counter(), {}, {}
        for rule, premises, ck, k in self._instances(u, {i}):
            c = 1 << bit(ck)
            if len(premises) == 2:
                if (t := bit(premises[1])) == self.width:
                    need |= out  # a second premise outside the listing: always walk
                else:
                    pneed |= c
                    pairs[c] = pairs.get(c, 0) | 1 << t
                    seconds.setdefault(rule, Counter())[t] += 1
            elif rule not in _GATED:
                need |= c
                counts[rule] += 1
            elif i == len(self.reps[u]):
                need |= out  # licensed per key, so always walk
            else:
                cond, gneed = k[5], gneed | c
                gcounts[rule] += 1
        layers = tuple((rule, j, sum(1 << t for t, n in seen.items() if n >> j & 1))
                       for rule, seen in seconds.items()
                       for j in range(max(seen.values()).bit_length()))
        gated = (cond, gneed, tuple(gcounts.items())) if gcounts else None
        entry = self.table[g] = (need, tuple(counts.items()), pneed, tuple(pairs.items()),
                                 layers, gated)
        return entry

    def class_id(self, k: tuple) -> int:
        """The id of k's class (its union's always-true slot for an
        always-true key), as the listing assigns it; ``self.width`` for a key
        outside the listing."""
        u = k[1] | k[3] | k[5]
        if u not in self.pos or not (k[0] | k[1] and k[2] | k[3] and self.eng.legal(k)):
            return self.width
        return self.base[u] + self.pos[u][self._class_of(k, u)]

    def _class_of(self, k: tuple, u: int):
        """The class of k in its decision union u: None when k is always
        true, k itself when it is right-trivial (asked on the empty union of
        a mixed-mode domain), else k with its conditioning slot cleared from
        its outer slots (see ``_Scan``)."""
        if _l_triv(k) or _r_triv(k) and (self.mode or u):
            return None
        return k if _r_triv(k) else _cleared(k)

    def render(self, k: tuple) -> str:
        return render_statement(self.space.stmt_of(k))

    def violation(self, trial: int, rule: str, premises: list, conclusion: str) -> None:
        self.violations.append(
            {"trial": trial, "rule": rule, "premises": premises, "conclusion": conclusion}
        )

    def report(self, trials: int, flags: tuple[str, ...] | None = None) -> ScanReport:
        return ScanReport(
            self.rs.name,
            tuple(sorted(self.rs.flags)) if flags is None else flags,
            trials,
            sum(self.tally.values()),
            self.violations,
            dict(self.tally),
        )


def _range(scan: _Scan, decmap: Mapping) -> tuple:
    """A map's relabeled range: its distinct points in sorted order, each
    name's values numbered by first appearance over the map's regimes."""
    regimes = next(iter(decmap.values()), ())
    cols = [[decmap[n][s] for s in regimes] for n in scan.space.d_names]
    cols = [list(map([*dict.fromkeys(col)].index, col)) for col in cols]
    return tuple(sorted(set(zip(*cols))))


def _sci_model(scan: _Scan, trial: int, dist: DiscreteDistribution) -> None:
    """One SCI model: ``MaskKernel.sci`` on the table's compiled kernel."""
    sci = dist.kernel.sci
    scan.model(trial, lambda k: sci(k[0], k[2], k[4]))


def _vci_model(scan: _Scan, trial: int, decmap: Mapping) -> None:
    """One VCI model, memoized by its relabeled range (``_range``) and
    compiled from the range (``dec_compile``, one row per point, outside
    ``dec_kernel``'s content cache) only to close a range the scan has not
    closed, so no kernel outlives the scan call.  Every variation verdict,
    so the class verdicts, the engine's closure and its order, and every P6
    verdict X _||_ Y | meet(Z, W), depends only on the partitions the names
    induce on the range's points: not on which regime takes a point, nor on
    the labels (renaming a name's values is a bijection); violations name
    keys, never values.  So ``_close_vci`` decides each verdict and meet
    once per partition id, across ranges, and P6 once per pair of ids of X
    and Y in a range.  The memo and the partition tables last one scan call,
    the domain listing the process (see ``_Scan``).  A map whose range the
    scan has closed adds that range's per-rule counts and replays its
    violations under its own trial index, so ``_Scan.model`` and P6 run
    once per range: 64 for 4,680 maps of three variables on up to four
    regimes."""
    key = _range(scan, decmap)
    seen = scan.ranges.get(key)
    if seen is None:
        before, start = dict(scan.tally), len(scan.violations)
        _close_vci(scan, trial, dec_compile(scan.space.d_names, tuple(zip(*key)), len(key)))
        delta = {r: c - before[r] for r, c in scan.tally.items() if c != before[r]}
        scan.ranges[key] = delta, scan.violations[start:]
        return
    delta, violations = seen
    for r, c in delta.items():
        scan.tally[r] += c
    scan.violations.extend({**v, "trial": trial} for v in violations)


def _partition(scan: _Scan, labels: Sequence) -> int:
    """The id of the partition labels induce on their positions: the labels
    renumbered by first appearance, interned in the scan's table."""
    first: dict = {}
    part = tuple([first.setdefault(v, len(first)) for v in labels])
    pid = scan.ids.setdefault(part, len(scan.parts))
    if pid == len(scan.parts):
        scan.parts.append(part)
    return pid


def _close_vci(scan: _Scan, trial: int, dec: MaskKernel) -> None:
    """Variation independence by mask on a compiled decision map (a mask's
    labels are the rows' codes on it, ``MaskKernel.labels``, one row per
    regime or per point of a range; its names are the scan's, so the masks
    agree), then P6 on the model, since meets are not statements the
    engine can hold: X _||_ Y | Z and X _||_ Y | W with Z and W functions
    of Y (Y | Z and Y induce one partition) give X _||_ Y | Z ^ W.  Each
    mask's labels become a partition id (``_partition``; ``scan.parts``
    holds each id's labels), and each answer is decided once per ids in
    the scan's tables, which last the scan call: a verdict
    (``variation_independent``) per ids of (x & ~z, y & ~z, z) in
    ``scan.vci``, as ``MaskKernel.sci`` asks it (given z, names shared with
    Z take fixed values and change no range), and a meet (``block_meet``),
    itself a partition id, per pair of ids in ``scan.meets``.  Both premises
    of P6 with X, Y of ids (a, b) range over the Z whose id c lies in W_ab:
    those b refines with X _||_ Y | Z true (read from ``scan.vci`` on one
    mask per id, normalized as its class was asked).  So P6 is counted and
    decided once per pair of outer ids: n_a * n_b * (sum of cnt[c] over
    W_ab) ** 2 instances (n_a counts the nonempty masks with id a, cnt[c]
    every mask with id c), decided on the ids of (a, b, c ^ d).  Exact only
    because the mode-"d" domain holds every pure-decision key with nonempty
    outer slots.  Only when a meet fails are the true keys listed and the
    pairs walked, in domain order, to list the violations."""
    names, parts, vci, meets = scan.space.d_names, scan.parts, scan.vci, scan.meets
    p = [_partition(scan, dec.labels(m)) for m in range(scan.space.d_all + 1)]

    def holds(x: int, y: int, z: int) -> bool:
        ok = vci.get((x, y, z))
        if ok is None:
            ok = vci[x, y, z] = variation_independent(parts[x], parts[y], parts[z])
        return ok

    def meet(z: int, w: int) -> int:
        m = meets.get((z, w))
        if m is None:
            m = meets[z, w] = meets[w, z] = _partition(scan, block_meet(parts[z], parts[w]))
        return m

    classes = scan.model(trial, lambda k: holds(p[k[1] & ~k[5]], p[k[3] & ~k[5]], p[k[5]]))
    if "P6" not in scan.rs.rules:
        return
    rep = {p[m]: m for m in (0, *range(len(p) - 1, 0, -1))}  # least nonempty mask, else 0
    cnt, outer, sound = Counter(p), Counter(p[1:]), True
    coarser = {b: [(c, z) for c, z in rep.items() if p[rep[b] | z] == b] for b in outer}
    for (a, na), (b, nb) in product(outer.items(), repeat=2):
        x, y = rep[a], rep[b]
        w = [c for c, z in coarser[b]
             if not (x & ~z and y & ~z) or holds(p[x & ~z], p[y & ~z], c)]
        scan.tally["P6"] += na * nb * sum(map(cnt.__getitem__, w)) ** 2
        sound = sound and all(holds(a, b, meet(c, d)) for c in w for d in w)
    if sound:
        return
    true = [k for u, b in scan.base.items() for k, c in zip(scan.keys[u], scan.classes[u])
            if p[k[3] | k[5]] == p[k[3]] and classes[b + c]]
    conds: dict = {}  # (x, y) -> every z that is a function of y with X _||_ Y | Z true
    for _, x, _, y, _, z in true:
        conds.setdefault((x, y), []).append(z)
    for k in true:  # list the violations in domain order; counted above
        _, x, _, y, _, z = k
        for w in sorted(conds[(x, y)]):
            if not holds(p[x], p[y], meet(p[z], p[w])):
                premises = [scan.render(k), scan.render((0, x, 0, y, 0, w))]
                meet_of = f"meet({','.join(mask_names(z, names))}; {','.join(mask_names(w, names))})"
                scan.violation(trial, "P6", premises,
                               f"{scan.render((0, x, 0, y, 0, 0))} | {meet_of}")


def _eci_model(scan: _Scan, trial: int, fam: RegimeFamily) -> None:
    """ECI and general-form verdicts through ``eci_general`` (which is ``eci``
    when the left slot has no decision names), on the keys whose decision
    union is empty or complementary on the family."""
    dec = scan.dec_sets
    dominating = None
    if scan.rs.flags == {"dominating_regime"}:
        dominating = [dominating_per_group(fam, sorted(phi)) for phi in dec].__getitem__
    scan.model(
        trial,
        lambda k: fam.eci_general(k[0], dec[k[1]], k[2], dec[k[3]], k[4], dec[k[5]]),
        complementary=lambda u: u == 0 or check_complementary(fam, dec[u]),
        dominating=dominating,
    )


def exhaustive_vci_scan(max_regimes: int = 4, n_vars: int = 3) -> ScanReport:
    """VCI_STRONG (P1..P6) against the variation checker over every decision
    map with n_vars binary variables on every regime space of size <=
    max_regimes: the exhaustive VCI models of ``_models``, closed by the scan
    loop ``axiom_soundness_scan`` shares (``_soundness``).  Each joint range
    up to relabeling is closed once per call and replayed for the other maps
    that have it (``_vci_model``); range tests and meets are decided once
    per partition of a range's points, P6 once per pair of partitions of X
    and Y (``_close_vci``: on at most three regimes, at most 134 range tests
    and 30 meets).  Ranges and partitions are not kept between calls; the
    domain's listing and its class table are (see ``_Scan``)."""
    if max_regimes < 1 or n_vars < 1:
        raise ValueError("max_regimes and n_vars must be >= 1")
    names = tuple(chr(ord("A") + i) for i in range(n_vars))
    cfg = SearchConfig(seed=0, var_cardinalities=dict.fromkeys(names, 2), regime_count=max_regimes)
    return _soundness(cfg, rule_set("VCI_STRONG"), exhaustive=True, flags=("exhaustive",))


def axiom_soundness_scan(cfg: SearchConfig, rs: RuleSet) -> ScanReport:
    """Soundness of the rule set on trial models: each model's true set must
    be closed under the engine's own rule instantiation, i.e. whenever the
    premises of a rule instance hold on the model, its conclusion holds too.
    The models are the seeded draws of ``_models``, closed by the scan loop
    ``exhaustive_vci_scan`` shares (``_soundness``), which stops after the
    first model with a violation and reports all its violations; ``trials``
    counts the models checked.  They are listed per admitted decision union,
    in domain order, as the union's one walk meets them: the spontaneous
    instances concluding in the union, then those with one of its
    always-true statements as premise, then those with one of its true
    asked statements as first premise, per statement in domain order and
    rule step; a spontaneous instance has no premises and a pair is named by
    both.  P6 violations follow, in the order of ``_close_vci``.

    Scan domain: statements with nonempty outer slots that are legal under
    the rule set and, for ECI_RESTRICTED and GENERAL, whose decision union is
    empty or complementary on the model.  The model is asked once per class
    of statements with one normal form X\\Z _||_ Y\\Z | Z, and never about
    a trivial statement (X or Y inside Z) that holds on every admitted
    model: any under SEPAROID_FULL and VCI_STRONG; under ECI_RESTRICTED and
    GENERAL one with decision names, or whose left part lies inside Z
    (see ``_Scan``).  P6 is checked on the model, and when dominating_regime
    is the only flag, P4''/P4g run only on premises whose conditioning
    decision names have a dominating regime in every group."""
    return _soundness(cfg, rs)


def _soundness(cfg: SearchConfig, rs: RuleSet, exhaustive: bool = False,
               flags: tuple[str, ...] | None = None) -> ScanReport:
    """The one scan loop: close each model of ``_models`` in index order on
    the rule set's scan, up to the first with a violation."""
    names = tuple(sorted(cfg.var_cardinalities))
    if rs.name == "SEPAROID_FULL":
        semantics, scan = SCI, _Scan(rs, Universe.of(stochastic=names), "s")
    elif rs.name == "VCI_STRONG":
        semantics, scan = VCI, _Scan(rs, Universe.of(decision=names), "d")
    elif rs.name in ("ECI_RESTRICTED", "GENERAL"):
        decs = ("Sigma", *cfg.decision_cardinalities)
        semantics, scan = ECI, _Scan(rs, Universe.of(stochastic=names, decision=decs))
    else:
        raise ValueError(f"no soundness scan for rule set {rs.name!r}")
    close = {SCI: _sci_model, VCI: _vci_model, ECI: _eci_model}[semantics]
    for t, model in _models(cfg, semantics, exhaustive):
        close(scan, t, model)
        if scan.violations:
            break
    return scan.report(t + 1, flags)
