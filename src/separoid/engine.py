"""Forward-chaining closure and minimal proof search over separoid rules.

Statements are encoded internally as 6-tuples of bitmasks
``(ls, ld, rs, rd, cs, cd)`` (stochastic/decision component per slot).  Rule
instantiation of "w is a function of y" ranges over nonempty subsets of the
slot plus registry-reduced variables.

Rule families
  SEPAROID_FULL   P1..P5 on pure statements (all-stochastic or all-decision).
  VCI_STRONG      P1..P5 on pure-decision statements; P6 exists only as a
                  model-level property (meets are not representable here).
  ECI_RESTRICTED  P1'..P5', mirrors P3''/P4''/P5'', and DCMP (right-slot
                  decision part may move below the bar).  Left slots are
                  stochastic-only.  P4'' fires only under an enabling flag.
  GENERAL         P1g..P5g for statements whose left slot may carry decision
                  variables; reductions of stochastic variables only; P4g is
                  flag-gated like P4''.
  Symmetry (P1', P1g) holds only with the regime conditioned on: P1' needs
  every decision name of the statement in a nonempty conditioning part, P1g
  a nonempty decision union.  A decision-free statement on a family of
  several regimes asserts one common law across them, which is not
  symmetric.

Instantiation policy (search-space pruning): a statement whose left or
right slot lies inside the conditioning slot is a universally true filler
(``_filler``), and no rule takes a filler as its first premise, except the
two shapes exempt from the guard: decomposition (the P3 family) and DCMP.
Every rule instance with premises comes from ``_Engine.expand``, which
``prove``, ``closure``, ``apply_rule``, ``replay`` and the soundness scans
all read; the premise-free ones come from ``_Engine.spontaneous``.

Implicit tautologies: the spontaneous instances (P2, P2', P2g) and what the
P3 family (and, under ECI_RESTRICTED, DCMP) makes of them form a family that
``_Engine.tautology`` alone defines, with each member's premise-free
derivation and cost: 1 for a bare spontaneous instance ``x _||_ y | y``, 2
for one P3/P3'/P3g step after it (``x _||_ w | y``, w inside y), and under
ECI_RESTRICTED 2 for DCMP on an instance and 3 for P3' after that.
``members`` and ``spontaneous`` list it through ``tautology``, asked once per
class rather than once per key: ``legal`` and ``tautology`` read the left
slot's stochastic part only as zero or nonzero, so one key of each class
decides every key in it.  Members are never indexed; the P5 family
synthesizes them as second premises when it meets the first premise.
``prove`` therefore settles only the statements outside the family (plus the
few members that another route reaches more cheaply, which keep that cost and
its tie-break), and ``build`` writes the members' P2/P3 leaves back into the
proof.  With a registry, P3 can reduce w to a function of y outside y; those
conclusions are ordinary statements, which ``prove`` seeds from ``leaks()``
at the cost of their route out of the family, unless the goal is a premise.
``closure`` runs its rounds on the statements outside the family too, seeded
from ``leaks()``, and adds every member (``_Engine.members``) to its result
at the end.

Deferred expansion (partial expansion, Yoshizumi, Miura & Ishida, AAAI 2000):
``prove`` keeps the statements settled at cost c in a bucket and runs each
rule step on the bucket only when that step's heap entry ``(c + 1, rule
index, ())`` is popped.  Every item the step yields from them costs at least
c + 1 and carries nonempty premises, so it sorts after that entry: items pop
in the order of eager expansion, and steps whose turn never comes are skipped.
The heap also holds at most one pending entry per conclusion: a route is
pushed only when its entry ``(cost, rule index, premises, ...)`` is below the
least one already pushed for that conclusion, a member of the family other
than the goal starting from its family price.  The heap pops in one total
order, so only a conclusion's least entry is ever settled or cut off by
``max_statements``; a route not below it would pop later and be skipped, so
the settled costs and justifications are those of pushing every route.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable

from .dsl import render_statement
from .errors import GuardViolation, IllFormed, UnknownVariable
from .universe import (
    DECISION,
    STOCHASTIC,
    CIStatement,
    ComplementarityDecl,
    ReductionRegistry,
    Universe,
    VarSet,
    canonicalize,
)

FLAGS = frozenset(
    {"discrete_regime_space", "discrete_variables", "dominating_regime", "pairwise_semantics"}
)


@dataclass(frozen=True)
class Limits:
    """Search bounds: non-tautological statements kept, and rounds
    (closure) or rule-applications per derivation tree (prove).  Both
    ``closure`` and ``prove`` leave the members of the spontaneous family
    implicit, so ``max_statements`` counts only the statements outside it."""

    max_statements: int = 50_000
    max_depth: int = 64

    def __post_init__(self):
        if self.max_statements < 1 or self.max_depth < 1:
            raise ValueError("limits must be >= 1")


@dataclass(frozen=True)
class Rule:
    name: str
    arity: int  # 0 spontaneous, 1 unary, 2 binary
    flag_gated: bool = False
    model_only: bool = False
    shape: str = ""  # a unary rule's branch in _Engine.unary, shared by its family


RULES: dict[str, Rule] = {
    r.name: r
    for r in [
        Rule("P1", 1, shape="symmetry"),
        Rule("P2", 0),
        Rule("P3", 1, shape="decomposition"),
        Rule("P4", 1, shape="weak union"),
        Rule("P5", 2),
        Rule("P6", 1, model_only=True),
        Rule("P1'", 1, shape="symmetry"),
        Rule("P2'", 0),
        Rule("P3'", 1, shape="decomposition"),
        Rule("P4'", 1, shape="weak union"),
        Rule("P5'", 2),
        Rule("P3''", 1, shape="left slot"),
        Rule("P4''", 1, flag_gated=True, shape="left slot"),
        Rule("P5''", 2),
        Rule("DCMP", 1, shape="DCMP"),
        Rule("P1g", 1, shape="symmetry"),
        Rule("P2g", 0),
        Rule("P3g", 1, shape="decomposition"),
        Rule("P4g", 1, flag_gated=True, shape="P4g"),
        Rule("P5g", 2),
    ]
}

_RULE_SETS = {
    "SEPAROID_FULL": ("P1", "P2", "P3", "P4", "P5"),
    "VCI_STRONG": ("P1", "P2", "P3", "P4", "P5", "P6"),
    "ECI_RESTRICTED": ("P1'", "P2'", "P3'", "P4'", "P5'", "P3''", "P4''", "P5''", "DCMP"),
    "GENERAL": ("P1g", "P2g", "P3g", "P4g", "P5g"),
}


@dataclass(frozen=True)
class RuleSet:
    name: str
    rules: tuple[str, ...]
    flags: frozenset = frozenset()


def rule_set(name: str, flags: Iterable[str] = ()) -> RuleSet:
    if name not in _RULE_SETS:
        raise ValueError(f"unknown rule set {name!r}; choose from {sorted(_RULE_SETS)}")
    return RuleSet(name, _RULE_SETS[name], _flag_set(flags))


def _flag_set(flags: Iterable[str]) -> frozenset:
    flagset = frozenset(flags)
    bad = flagset - FLAGS
    if bad:
        raise ValueError(f"unknown flags {sorted(bad)}; choose from {sorted(FLAGS)}")
    return flagset


@dataclass(frozen=True)
class Derivation:
    """A proof tree; leaves carry rule == "premise"."""

    goal: CIStatement
    rule: str
    children: tuple = ()
    note: str = ""

    def rule_sequence(self) -> list[str]:
        """Rules in replay (post-)order, shared steps listed once."""
        return [node.rule for node, _ in _replay_order(self) if node.rule != "premise"]

    @property
    def steps(self) -> int:
        return len(self.rule_sequence())


def _replay_order(d: Derivation) -> list[tuple[Derivation, list[int]]]:
    """The distinct steps of a derivation in replay (post-)order, each with
    the 1-based positions of its premises; steps are identified by goal.  An
    explicit stack, since a recursive closure is a reference cycle."""
    steps: list[tuple[Derivation, list[int]]] = []
    index: dict[tuple, int] = {}
    stack = [(d, iter(d.children), [])]
    while stack:
        node, children, nums = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            steps.append((node, nums))
            index[node.goal.sort_key()] = len(steps)
            if stack:
                stack[-1][2].append(len(steps))
        elif (key := child.goal.sort_key()) in index:
            nums.append(index[key])
        else:
            stack.append((child, iter(child.children), []))
    return steps


@dataclass(frozen=True)
class NotDerivable:
    """Goal absent from the closure; `truncated` reports whether limits cut
    the search short (absence is conclusive only when False)."""

    truncated: bool = False


@dataclass(frozen=True)
class ClosureResult:
    statements: frozenset
    truncated: bool = False
    rounds: int = 0

    def __contains__(self, stmt: CIStatement) -> bool:
        return stmt in self.statements


def _submasks(m: int):
    """Nonempty submasks of m, descending."""
    s = m
    while s:
        yield s
        s = (s - 1) & m


class _Space:
    """Name <-> bit translation plus reduction-closure masks, each kept per
    slot component: 0 stochastic, 1 decision."""

    def __init__(self, universe: Universe, registry: ReductionRegistry | None):
        self.universe = universe
        self.names = (universe.names(STOCHASTIC), universe.names(DECISION))
        self.s_names, self.d_names = self.names
        self.alls = [(1 << len(names)) - 1 for names in self.names]
        self.s_all, self.d_all = self.alls
        self._bits = [{n: 1 << i for i, n in enumerate(names)} for names in self.names]
        reg = registry or ReductionRegistry()
        self._var_red = [
            [self.mask(o, reg.reducible_to([n])) for n in names]
            for o, names in enumerate(self.names)
        ]
        self._red_cache: tuple[dict, dict] = ({}, {})
        self._slots: dict[tuple[int, int], VarSet] = {}
        # some variable is a registered function of another
        self.reduces = any(m & (m - 1) for var_red in self._var_red for m in var_red)

    def mask(self, o: int, names: Iterable[str]) -> int:
        """The component-o mask of those names that are of its kind."""
        bits = self._bits[o]
        m = 0
        for n in names:
            m |= bits.get(n, 0)
        return m

    def varset_masks(self, vs: VarSet) -> tuple[int, int]:
        s_bit, d_bit = self._bits
        ms = md = 0
        for n in vs.stoch:
            ms |= s_bit[n]
        for n in vs.dec:
            md |= d_bit[n]
        return ms, md

    def key_of(self, stmt: CIStatement) -> tuple:
        """The key of stmt.  A name outside the universe, or in a part of
        the other kind, raises ``UnknownVariable`` as ``canonicalize``
        words it."""
        try:
            ls, ld = self.varset_masks(stmt.left)
            rs, rd = self.varset_masks(stmt.right)
            cs, cd = self.varset_masks(stmt.cond)
        except KeyError:
            canonicalize(self.universe, stmt)
            raise
        return (ls, ld, rs, rd, cs, cd)

    def slot(self, s: int, d: int) -> VarSet:
        """The slot of a (stochastic mask, decision mask) pair, decoded the
        first time it is met and shared from then on."""
        vs = self._slots.get((s, d))
        if vs is None:
            vs = self._slots[(s, d)] = VarSet(
                frozenset(n for i, n in enumerate(self.s_names) if s >> i & 1),
                frozenset(n for i, n in enumerate(self.d_names) if d >> i & 1),
            )
        return vs

    def stmt_of(self, key: tuple) -> CIStatement:
        ls, ld, rs, rd, cs, cd = key
        slot = self.slot
        return CIStatement(slot(ls, ld), slot(rs, rd), slot(cs, cd))

    def statements(self, keys: Iterable[tuple]) -> frozenset:
        """``stmt_of`` over keys, as a set.  Every slot is decoded first, into
        a table indexed by ``s | d << len(s_names)``: a closure lists 3^n
        keys, beside which its 2^n slots cost little."""
        sh = len(self.s_names)
        tbl = [self.slot(s, d) for d in range(self.d_all + 1) for s in range(self.s_all + 1)]
        return frozenset([CIStatement(tbl[ls | ld << sh], tbl[rs | rd << sh], tbl[cs | cd << sh])
                          for ls, ld, rs, rd, cs, cd in keys])

    def red(self, o: int, mask: int) -> int:
        """The component-o mask closed under the registry: mask plus every
        variable registered as a function of one in it."""
        cache = self._red_cache[o]
        out = cache.get(mask)
        if out is None:
            out = m = mask
            var_red = self._var_red[o]
            while m:
                b = m & -m
                out |= var_red[b.bit_length() - 1]
                m ^= b
            cache[mask] = out
        return out


def _r_triv(k: tuple) -> bool:
    return (k[2] & ~k[4]) == 0 and (k[3] & ~k[5]) == 0


def _l_triv(k: tuple) -> bool:
    return (k[0] & ~k[4]) == 0 and (k[1] & ~k[5]) == 0


def _filler(k: tuple) -> bool:
    """The instantiation guard's predicate (see the module docstring)."""
    return _r_triv(k) or _l_triv(k)


def _pure(o: int, l: int, r: int, c: int) -> tuple:
    """The key of l _||_ r | c with every part in slot component o."""
    return (0, l, 0, r, 0, c) if o else (l, 0, r, 0, c, 0)


def _symmetric(name: str, k: tuple) -> bool:
    """The guard of symmetry rule `name` on k: P1' needs every decision name
    in a nonempty conditioning part, P1g a nonempty decision union."""
    if name == "P1'":
        return not k[3] and k[5] != 0
    return name == "P1" or (k[1] | k[3] | k[5]) != 0


class _Engine:
    """Shared expansion machinery; every rule instance with premises is
    drawn by expand, the premise-free ones by spontaneous."""

    def __init__(self, rs: RuleSet, space: _Space, comp: ComplementarityDecl, mode: str | None):
        self.rs = rs
        self.space = space
        self.mode = mode  # 's' | 'd' for the pure rule sets, else None
        # the slot component the unary rules act on: the pure sets' mode,
        # else stochastic
        self.o = 1 if mode == "d" else 0
        self.steps = [  # a flag-gated rule without a flag concludes nothing
            (name, RULES[name].arity)
            for name in rs.rules
            if RULES[name].arity and not RULES[name].model_only
            and (rs.flags or not RULES[name].flag_gated)
        ]
        self.comp_masks = frozenset(
            space.mask(1, f) for f in comp.families if f <= set(space.d_names)
        )
        # tautologies settled as ordinary statements (prove only)
        self.materialized: set[tuple] = set()
        self.clear()
        self.rule_idx = {name: i for i, name in enumerate(rs.rules)}
        self.via = "via " + ",".join(sorted(rs.flags))  # the flag-gated rules' note

    # -- legality of premises under this rule set ---------------------------

    def legal(self, k: tuple) -> bool:
        if self.mode is not None:
            o = self.o
            return not (k[1 - o] | k[3 - o] | k[5 - o])
        if self.rs.name == "ECI_RESTRICTED" and k[1]:
            return False
        dec_union = k[1] | k[3] | k[5]
        return dec_union == 0 or dec_union in self.comp_masks

    def check_legal(self, stmts: list, keys: list) -> None:
        for stmt, k in zip(stmts, keys):
            if not self.legal(k):
                raise IllFormed(
                    f"statement {stmt!r} is not admissible under rule set {self.rs.name}"
                )

    # -- implicit tautologies --------------------------------------------------

    def tautology(self, k: tuple):
        """``(cost, rule, premises)`` of k's derivation inside the spontaneous
        family, or None when k is not a member.  Members have their right slot
        inside the conditioning slot, so only the P3 family, DCMP and the
        second-premise role of the P5 family apply to them."""
        if self.mode is not None:
            o = self.o
            l, r, c = k[o], k[2 + o], k[4 + o]
            if r & ~c or not (l and r) or k[1 - o] | k[3 - o] | k[5 - o]:
                return None
            if r == c:
                return 1, "P2", ()
            return 2, "P3", (_pure(o, l, c, c),)
        ls, ld, rs, rd, cs, cd = k
        if rs & ~cs:
            return None
        if self.rs.name == "ECI_RESTRICTED":
            if ld or not ls or cd not in self.comp_masks:
                return None
            if rd == cd:
                if rs == cs:
                    return 1, "P2'", ()
                return (2, "P3'", ((ls, 0, cs, cd, cs, cd),)) if rs or cd else None
            if rd or not rs:
                return None
            if rs == cs:
                return 2, "DCMP", ((ls, 0, cs, cd, cs, cd),)
            return 3, "P3'", ((ls, 0, cs, 0, cs, cd),)
        if rd != cd or ld & rd or not (ls or ld) or (ld | rd) not in self.comp_masks:
            return None
        if rs == cs:
            return (1, "P2g", ()) if cs or rd else None
        return (2, "P3g", ((ls, ld, cs, rd, cs, rd),)) if rs or rd else None

    def implicit(self, k: tuple) -> bool:
        """A member of the spontaneous family that is not materialized: never
        indexed, met only where the P5 family synthesizes it."""
        return _r_triv(k) and k not in self.materialized and self.tautology(k) is not None

    def members(self, rights=lambda c: (0, *_submasks(c))):
        """Every member of the spontaneous family whose right part in each
        component is one of ``rights(c)``, c its conditioning part (by
        default any part inside c): the legal keys with such parts, filtered
        by ``tautology``, in the order (cs, rs, ls, decision parts)."""
        return (k for _rule, k in self._named(rights))

    def spontaneous(self):
        """Yield (rule_name, conclusion_key) for the premise-free rules (P2,
        P2', P2g): the members whose right slot is their conditioning slot,
        named by ``tautology``, which alone defines them."""
        return self._named(lambda c: (c,))

    def _named(self, rights):
        """(rule, key) for each key of ``members(rights)``.  ``legal`` and
        ``tautology`` read ls only as zero or nonzero, so each (rs, cs) and
        legal decision part is decided twice, at ls = 0 and at ls = s_all,
        and the second answer holds for every ls in 1..s_all."""
        s_all, d_all = self.space.alls
        dec = [(l, r, c) for c in range(d_all + 1) for r in rights(c)
               for l in range(d_all + 1) if self.legal(_pure(1, l, r, c))]
        for cs in range(s_all + 1):
            for rs in rights(cs):
                cls = [[(a[1], ld, rd, cd) for ld, rd, cd in dec
                        if self.legal(k := (ls, ld, rs, rd, cs, cd)) and (a := self.tautology(k))]
                       for ls in ((0, s_all) if s_all else (0,))]
                for ls in range(s_all + 1):
                    for rule, ld, rd, cd in cls[ls > 0]:
                        yield rule, (ls, ld, rs, rd, cs, cd)

    def leaks(self):
        """Instances from an implicit tautology to a statement outside the
        family, as ``expand`` yields them.  Only a registry makes them: P3
        reduces w to a function of the conditioning slot that lies outside
        it, so the roots are the spontaneous instances whose conditioning
        slot is reducible."""
        if not self.space.reduces:
            return
        sp = self.space
        stack = [
            ck for _name, ck in self.spontaneous()
            if sp.red(0, ck[4]) != ck[4] or sp.red(1, ck[5]) != ck[5]
        ]
        seen = set(stack)
        while stack:
            for item in self.expand(stack.pop()):
                ck = item[2]
                if self.tautology(ck) is None:
                    yield item
                elif ck not in seen:
                    seen.add(ck)
                    stack.append(ck)

    # -- index maintenance ---------------------------------------------------

    def clear(self) -> None:
        """Empty the binary-rule pairing indexes over inserted statements."""
        self.by_left_cond: dict[tuple, list] = {}
        self.by_left_rjoinc: dict[tuple, list] = {}
        self.by_right_cond: dict[tuple, list] = {}
        self.by_right_ljoinc: dict[tuple, list] = {}

    def insert(self, k: tuple) -> None:
        """Index k for pairing; a filler is never a first premise, so it is
        indexed only as a candidate second premise, and an implicit
        tautology not at all."""
        if self.implicit(k):
            return
        left, right, cond = (k[0], k[1]), (k[2], k[3]), (k[4], k[5])
        self.by_left_cond.setdefault((left, cond), []).append(k)
        self.by_right_cond.setdefault((right, cond), []).append(k)
        if not _filler(k):
            rjoinc = (k[2] | k[4], k[3] | k[5])
            ljoinc = (k[0] | k[4], k[5])
            self.by_left_rjoinc.setdefault((left, rjoinc), []).append(k)
            self.by_right_ljoinc.setdefault((right, ljoinc), []).append(k)

    # -- unary rules -----------------------------------------------------------

    def unary(self, name: str, k: tuple):
        """Yield (conclusion_key, note) for a unary rule applied to k.  Each
        shape is written once for all the families that share it: symmetry
        swaps the outer slots under the rule's guard; decomposition shrinks
        component o of the right slot, then drops the slot's stochastic part
        beside a decision part; weak union moves reduced parts of component o
        of the right slot into the conditioning slot.  P3''/P4'' reduce the
        left slot instead.  A filler premise yields nothing, except under
        decomposition and DCMP (the instantiation policy)."""
        ls, ld, rs, rd, cs, cd = k
        shape = RULES[name].shape
        if shape not in ("decomposition", "DCMP") and _filler(k):
            return
        if shape == "symmetry":
            if _symmetric(name, k):
                yield (rs, rd, ls, ld, cs, cd), ""
        elif shape == "decomposition":
            o = self.o
            r = k[2 + o]
            for w in _submasks(self.space.red(o, r)):
                if w != r:
                    yield ((ls, ld, rs, w, cs, cd) if o else (ls, ld, w, rd, cs, cd)), ""
            if rs and rd:
                yield (ls, ld, 0, rd, cs, cd), ""
        elif shape == "weak union":
            o = self.o
            c = k[4 + o]
            for w in _submasks(self.space.red(o, k[2 + o])):
                if c | w != c:
                    yield ((ls, ld, rs, rd, cs, c | w) if o else (ls, ld, rs, rd, c | w, cd)), ""
        elif shape == "left slot":  # P4'' is flag-gated: reached only under a flag
            for w in _submasks(self.space.red(0, ls)):
                if name == "P3''":
                    if w != ls:
                        yield (w, ld, rs, rd, cs, cd), ""
                elif cs | w != cs:
                    yield (ls, ld, rs, rd, cs | w, cd), self.via
        elif shape == "DCMP":
            if rs and rd:
                yield (ls, ld, rs, 0, cs, cd | rd), ""
        elif shape == "P4g":  # flag-gated like P4''
            for w in _submasks(self.space.red(0, rs)):
                yield (ls, ld, rs, 0, cs | w, cd | rd), self.via

    # -- binary rules ----------------------------------------------------------

    @staticmethod
    def _with_right(k: tuple, o: int, w: int) -> tuple:
        """k with component o of its right slot set to w."""
        return k[:2 + o] + (w,) + k[3 + o:]

    def _p5_combine(self, s1: tuple, s2: tuple, pure_w: bool):
        """Contraction conclusion from first premise s1 and second premise s2
        (s2.left == s1.left and s2.cond == join(s1.right, s1.cond)).  Instances
        are kept in normal form: the second premise's right slot must be
        nonempty and disjoint from the first premise's right slot (overlapping
        instances are subsumed by the reduced one, via P3 on the second
        premise)."""
        if pure_w and s2[3]:
            return None
        ws, wd = s2[2], s2[3]
        if not (ws or wd) or ws & s1[2] or wd & s1[3]:
            return None
        return (s1[0], s1[1], s1[2] | ws, s1[3] | wd, s1[4], s1[5])

    def binary(self, name: str, k: tuple):
        """Yield (premises, conclusion_key) pairs where k participates.  The
        first-premise role, which a filler never takes, also pairs k with the
        implicit tautologies, which are never indexed."""
        left, right, cond = (k[0], k[1]), (k[2], k[3]), (k[4], k[5])
        first = not _filler(k)
        if name in ("P5", "P5'", "P5g"):
            pure_w = name in ("P5'", "P5g")
            if first:  # role: first premise x _||_ y | z
                join = (k[2] | k[4], k[3] | k[5])
                for t in self.by_left_cond.get((left, join), ()):
                    ck = self._p5_combine(k, t, pure_w)
                    if ck is not None:
                        yield (k, t), ck
                # implicit second premises x _||_ w | (y v z), w in z outside y
                # (membership does not depend on which such w)
                o = self.o
                free = k[4 + o] & ~k[2 + o]
                base = k[:2] + (0, 0) + join
                if free and self.tautology(self._with_right(base, o, free)):
                    for w in _submasks(free):
                        t = self._with_right(base, o, w)
                        yield (k, t), self._p5_combine(k, t, pure_w)
            # role: second premise x _||_ w | (y v z)
            for s1 in self.by_left_rjoinc.get((left, cond), ()):
                ck = self._p5_combine(s1, k, pure_w)
                if ck is not None:
                    yield (s1, k), ck
        elif name == "P5''":
            if first:  # role: first premise X _||_ (Y,Th) | (Z,Ph)
                tgt = (k[0] | k[4], k[5])
                for t in self.by_right_cond.get((right, tgt), ()):
                    if t[1]:
                        continue
                    ws = t[0]
                    if ws and not ws & k[0]:
                        yield (k, t), (k[0] | ws, 0, k[2], k[3], k[4], k[5])
                # implicit second premises W _||_ (Y,Th) | (X,Z,Ph), for any W
                free = self.space.s_all & ~k[0]
                if free and self.tautology((free, 0, k[2], k[3], tgt[0], tgt[1])):
                    for ws in _submasks(free):
                        t = (ws, 0, k[2], k[3], tgt[0], tgt[1])
                        yield (k, t), (k[0] | ws, 0, k[2], k[3], k[4], k[5])
            # role: second premise W _||_ (Y,Th) | (X,Z,Ph)
            if not k[1]:
                for s1 in self.by_right_ljoinc.get((right, cond), ()):
                    ws = k[0]
                    if ws and not ws & s1[0]:
                        yield (s1, k), (s1[0] | ws, 0, s1[2], s1[3], s1[4], s1[5])

    def expand(self, k: tuple, steps: Iterable[tuple] | None = None):
        """All one-step consequences in which k participates, paired against
        previously inserted statements, by the rule steps given (by default
        every step of the rule set).  Yields (rule_name, premises, ck, note).
        An implicit tautology is paired only where a first premise synthesizes
        it, so each pair is yielded once.  The one caller of ``unary`` and
        ``binary``."""
        for name, arity in steps or self.steps:
            if arity == 1:
                for ck, note in self.unary(name, k):
                    yield name, (k,), ck, note
            elif not self.implicit(k):
                for prem, ck in self.binary(name, k):
                    yield name, prem, ck, ""


def _infer_mode(rs: RuleSet, space: _Space, keys: Iterable[tuple]) -> str | None:
    if rs.name == "VCI_STRONG":
        return "d"
    if rs.name != "SEPAROID_FULL":
        return None
    any_dec = any(k[1] | k[3] | k[5] for k in keys)
    any_stoch = any(k[0] | k[2] | k[4] for k in keys)
    if any_dec and not any_stoch:
        return "d"
    if any_stoch or space.s_names:
        return "s"
    return "d"


def _setup(
    statements: list,
    rs: RuleSet,
    universe: Universe,
    registry: ReductionRegistry | None,
    complementarity: ComplementarityDecl | None,
):
    """An engine for rs in the mode the statements infer, and their keys."""
    space = _Space(universe, registry)
    keys = [space.key_of(s) for s in statements]
    mode = _infer_mode(rs, space, keys)
    return _Engine(rs, space, complementarity or ComplementarityDecl(), mode), keys


def closure(
    premises: Iterable[CIStatement],
    rs: RuleSet,
    *,
    universe: Universe,
    registry: ReductionRegistry | None = None,
    complementarity: ComplementarityDecl | None = None,
    limits: Limits | None = None,
) -> ClosureResult:
    """Least fixed point of guarded rule application, by deterministic rounds.

    The members of the spontaneous family stay implicit while the rounds
    run, as in ``prove``: round 1 expands the premises and takes the
    family's leaks, and every member is added to the result at the end.
    Truncates (with a marker) when the non-tautological statements or the
    rounds reach their limit; the partial closure is still returned and is
    always a superset of the premises and of the family."""
    premises = list(premises)
    lim = limits or Limits()
    eng, keys = _setup(premises, rs, universe, registry, complementarity)
    eng.check_legal(premises, keys)
    known = set(eng.members())
    agenda = sorted(set(keys) - known)
    known.update(agenda)
    kept = len(agenda)  # statements outside the family
    for k in agenda:
        eng.insert(k)
    truncated = False
    rounds = 0
    while agenda or rounds == 0:
        if rounds >= lim.max_depth:
            truncated = True
            break
        rounds += 1
        new = {ck for k in agenda for _name, _prem, ck, _note in eng.expand(k) if ck not in known}
        if rounds == 1:
            new.update(ck for _name, _prem, ck, _note in eng.leaks() if ck not in known)
        if not new:
            break
        room = max(lim.max_statements - kept, 0)
        batch = sorted(new)
        if len(batch) > room:
            batch = batch[:room]
            truncated = True
        known.update(batch)
        kept += len(batch)
        for k in batch:
            eng.insert(k)
        agenda = batch
        if truncated:
            break
    return ClosureResult(eng.space.statements(known), truncated, rounds)


def prove(
    goal: CIStatement,
    premises: Iterable[CIStatement],
    rs: RuleSet,
    *,
    universe: Universe,
    registry: ReductionRegistry | None = None,
    complementarity: ComplementarityDecl | None = None,
    limits: Limits | None = None,
) -> Derivation | NotDerivable:
    """Minimal proof search: cost-ordered expansion of the closure frontier
    where a derivation's cost is its rule-application count; ties broken by
    rule order, then by canonical premise keys.  Expansion is deferred one
    rule step at a time (see the module docstring), premises included, so
    the result is that of expanding each statement as soon as it is settled.
    A route to a conclusion is pushed only when it is below every route
    pushed for it before, and below its family price when it is a member;
    the others could only pop later, to be skipped.

    Implicit tautologies are priced by ``_Engine.tautology`` and never
    settled, unless another route is cheaper or wins the tie-break (then
    they are materialized, and re-met as second premises at their real
    cost) or they are the goal."""
    stmts = [*premises, goal]
    lim = limits or Limits()
    eng, keys = _setup(stmts, rs, universe, registry, complementarity)
    eng.check_legal(stmts, keys)
    goal_key = keys.pop()
    ridx = eng.rule_idx

    cost: dict[tuple, int] = {}
    just: dict[tuple, tuple] = {}
    heap: list = []
    bucket: dict[int, list] = {}  # settled statements by cost, expanded lazily
    kept = 0  # settled statements outside the tautology family
    cut: set[tuple] = set()  # conclusions priced above max_depth
    best: dict[tuple, tuple] = {}  # least entry pushed per conclusion

    def push(name: str, prem: tuple, ck: tuple, note: str) -> None:
        if ck in cost:
            return
        c = 1
        for p in prem:
            pc = cost.get(p)
            c += eng.tautology(p)[0] if pc is None else pc
        if c > lim.max_depth:
            cut.add(ck)
            return
        e = (c, ridx[name], prem, ck, note)
        b = best.get(ck)
        if b is None and ck != goal_key and (fam := eng.tautology(ck)) is not None:
            b = best[ck] = (fam[0], ridx[fam[1]], fam[2])  # the family price
        if b is None or e < b:  # an entry not below b would pop after it, to no effect
            best[ck] = e
            heapq.heappush(heap, e)

    def settle(c: int, rule: str, prem: tuple, ck: tuple, note: str) -> None:
        nonlocal kept
        cost[ck] = c
        just[ck] = (rule, prem, note)
        if eng.tautology(ck) is None:
            kept += 1
        else:
            eng.materialized.add(ck)
        eng.insert(ck)
        if c not in bucket:
            bucket[c] = []
            # sorts before every item the step yields; pushed past max_depth
            # too, since those items still go to cut
            for step in eng.steps:
                heapq.heappush(heap, (c + 1, ridx[step[0]], (), None, step))
        bucket[c].append(ck)

    for k in sorted(set(keys)):
        settle(0, "premise", (), k, "")
    if goal_key not in cost:  # a premise goal is settled: seed nothing
        for item in eng.leaks():
            push(*item)
        fam = eng.tautology(goal_key)
        if fam is not None:
            push(fam[1], fam[2], goal_key, "")

    truncated = False
    while goal_key not in cost and heap:
        c, ri, prem, ck, note = heapq.heappop(heap)
        if ck is None:  # rule step `note` comes due on the statements of cost c - 1
            for k in bucket[c - 1]:
                for item in eng.expand(k, (note,)):
                    push(*item)
            continue
        if ck in cost:
            continue
        if kept >= lim.max_statements and eng.tautology(ck) is None:
            truncated = True
            break
        settle(c, eng.rs.rules[ri], prem, ck, note)

    if goal_key not in cost:
        # a drained heap is conclusive only if every conclusion cut by
        # max_depth was settled on a cheaper route after all
        return NotDerivable(truncated=truncated or any(k not in cost for k in cut))

    return _build(goal_key, just, eng, {})


def _build(k: tuple, just: dict, eng: _Engine, memo: dict) -> Derivation:
    """The proof of k from prove's justifications, with the tautology leaves
    written back.  Not a closure: a recursive closure is a reference cycle,
    which would keep the engine alive until the cyclic collector runs."""
    node = memo.get(k)
    if node is None:
        rule, prem, note = just.get(k) or (*eng.tautology(k)[1:], "")
        node = memo[k] = Derivation(
            eng.space.stmt_of(k), rule, tuple(_build(p, just, eng, memo) for p in prem), note
        )
    return node


def apply_rule(
    rule: Rule | str,
    known: Iterable[CIStatement],
    *,
    universe: Universe,
    registry: ReductionRegistry | None = None,
    complementarity: ComplementarityDecl | None = None,
    rules: RuleSet | str | None = None,
    flags: Iterable[str] = (),
) -> frozenset:
    """All one-step conclusions of a single rule from `known` (strict form:
    raises GuardViolation when a supplied statement matches the rule's shape
    but violates its guard, e.g. P1' on a statement with a decision variable
    in the right slot or none in the conditioning slot, or a flag-gated rule
    without an enabling flag).  Without `rules` the rule runs in the first
    rule set that holds it; a named or given rule set must hold it.  `flags`
    are added to the rule set's own, and an unknown one raises ValueError."""
    name = rule.name if isinstance(rule, Rule) else rule
    if name not in RULES:
        raise ValueError(f"unknown rule {name!r}")
    if rules is None:
        rs = rule_set(next(rsn for rsn, rr in _RULE_SETS.items() if name in rr), flags)
    elif isinstance(rules, str):
        rs = rule_set(rules, flags)
    else:
        rs = RuleSet(rules.name, rules.rules, _flag_set([*rules.flags, *flags]))
    _check_rule(name, rs)
    known = list(known)
    eng, keys = _setup(known, rs, universe, registry, complementarity)
    return frozenset(map(eng.space.stmt_of, _one_step(eng, name, known, keys)))


def _check_rule(name: str, rs: RuleSet) -> None:
    """apply_rule's checks of the rule: in the rule set, symbolic, and
    enabled by a flag where it must be."""
    if name not in rs.rules:
        raise ValueError(f"rule {name!r} is not part of rule set {rs.name}")
    r = RULES[name]
    if r.model_only:
        raise GuardViolation(f"{name} is a model-level property, not a symbolic rule")
    if r.flag_gated and not rs.flags:
        raise GuardViolation(f"{name} fires only under an enabling flag")


def _one_step(eng: _Engine, name: str, known: list, keys: list) -> set:
    """The keys of all one-step conclusions of a checked rule of eng's rule
    set from the statements `known` (with their `keys`), after apply_rule's
    checks of each statement: pure under the pure rule sets, within P1''s
    guard, and legal.  The pairing indexes are emptied first, so one engine
    serves many steps."""
    rs, r = eng.rs, RULES[name]
    for stmt, k in zip(known, keys):
        if rs.name in ("SEPAROID_FULL", "VCI_STRONG"):
            if not eng.legal(k):
                raise GuardViolation(
                    f"{name} applies to pure statements only; got {stmt!r}"
                )
        elif name == "P1'" and k[1] == 0 and not _symmetric(name, k):
            raise GuardViolation(
                f"P1' symmetry is confined to statements whose decision "
                f"variables are all in the conditioning slot, which has at "
                f"least one; got {stmt!r}"
            )
        elif not eng.legal(k):
            raise GuardViolation(f"{stmt!r} is not admissible under {rs.name}")

    if r.arity == 0:
        return {ck for rn, ck in eng.spontaneous() if rn == name}
    eng.clear()
    keyset = set(keys)
    for k in sorted(keyset):
        eng.insert(k)
    # a synthesized tautology counts as a premise only when it was supplied
    return {ck for k in sorted(keyset) for _, prem, ck, _ in eng.expand(k, ((name, r.arity),))
            if all(p in keyset for p in prem)}


def replay(
    d: Derivation,
    *,
    universe: Universe,
    registry: ReductionRegistry | None = None,
    complementarity: ComplementarityDecl | None = None,
    rules: RuleSet | str = "SEPAROID_FULL",
    premises: Iterable[CIStatement] = (),
) -> bool:
    """Re-run every step of a derivation with apply_rule's checks; True iff
    each conclusion is reproduced exactly from its cited premises by a rule
    of the rule set.  One name space serves the whole replay, and one engine
    each mode the steps infer."""
    rs = rule_set(rules) if isinstance(rules, str) else rules
    premise_set = {p.sort_key() for p in premises}
    space = _Space(universe, registry)
    comp = complementarity or ComplementarityDecl()
    engines: dict[str | None, _Engine] = {}
    stack = [d]  # pre-order, as a recursive check would meet the steps
    while stack:
        node = stack.pop()
        if node.rule == "premise":
            if premise_set and node.goal.sort_key() not in premise_set:
                return False
            continue
        if node.rule not in rs.rules or len(node.children) != RULES[node.rule].arity:
            return False
        known = [c.goal for c in node.children]
        try:
            _check_rule(node.rule, rs)
            keys = [space.key_of(s) for s in known]
            mode = _infer_mode(rs, space, keys)
            eng = engines.get(mode) or engines.setdefault(mode, _Engine(rs, space, comp, mode))
            if space.key_of(node.goal) not in _one_step(eng, node.rule, known, keys):
                return False
        except (GuardViolation, UnknownVariable):
            return False
        stack.extend(reversed(node.children))
    return True


def format_proof(d: Derivation) -> str:
    """Numbered step list in replay order; each line cites the rule and the
    step numbers of its premises."""
    lines = []
    for i, (node, nums) in enumerate(_replay_order(d), 1):
        tag = node.rule
        if node.rule != "premise":
            if node.note:
                tag += f" {node.note}"
            if nums:
                tag += " from " + ", ".join(str(n) for n in nums)
        lines.append(f"{i}. {render_statement(node.goal)}  [{tag}]")
    return "\n".join(lines)


def derivation_to_dict(d: Derivation) -> dict:
    return {
        "statement": render_statement(d.goal),
        "rule": d.rule,
        "note": d.note,
        "children": [derivation_to_dict(c) for c in d.children],
    }
