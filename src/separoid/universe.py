"""Variable universe, statements, functional reductions and well-formedness.

Variables come in two kinds: *stochastic* (random variables on the sample
space) and *decision* (functions on the regime space).  A statement slot is a
set of names of each kind; the join of two slots is the component-wise union.
Functional reduction ("is a function of") is a quasiorder maintained per kind
by a small registry; kinds never mix under reduction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .errors import UnknownVariable

STOCHASTIC = "stochastic"
DECISION = "decision"
_KINDS = (STOCHASTIC, DECISION)


class Universe:
    """Declared variable names and their kinds; names unique across kinds."""

    def __init__(self) -> None:
        self._kind: dict[str, str] = {}

    def declare(self, name: str, kind: str) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown kind {kind!r}")
        if not name or not all(c.isalnum() or c == "_" for c in name):
            raise ValueError(f"bad variable name {name!r}")
        old = self._kind.get(name)
        if old is not None and old != kind:
            raise ValueError(f"{name!r} already declared as {old}")
        self._kind[name] = kind

    def kind(self, name: str) -> str:
        try:
            return self._kind[name]
        except KeyError:
            raise UnknownVariable(f"undeclared variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._kind

    def names(self, kind: str | None = None) -> tuple[str, ...]:
        if kind is None:
            return tuple(sorted(self._kind))
        return tuple(sorted(n for n, k in self._kind.items() if k == kind))

    def varset(self, names: Iterable[str] | str) -> "VarSet":
        """Split names by declared kind into a canonical VarSet."""
        if isinstance(names, str):
            names = [names]
        stoch, dec = set(), set()
        for n in names:
            (stoch if self.kind(n) == STOCHASTIC else dec).add(n)
        return VarSet(frozenset(stoch), frozenset(dec))

    @classmethod
    def of(cls, stochastic: Iterable[str] = (), decision: Iterable[str] = ()) -> "Universe":
        u = cls()
        for n in stochastic:
            u.declare(n, STOCHASTIC)
        for n in decision:
            u.declare(n, DECISION)
        return u


@dataclass(frozen=True)
class VarSet:
    """A slot: a set of stochastic names plus a set of decision names."""

    stoch: frozenset = frozenset()
    dec: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "stoch", frozenset(self.stoch))
        object.__setattr__(self, "dec", frozenset(self.dec))
        # hashed once: statements share slots and rehash them
        object.__setattr__(self, "_hash", hash((self.stoch, self.dec)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):  # rebuilt, so the hash follows the process's str hashing
        return VarSet, (self.stoch, self.dec)

    def __repr__(self) -> str:  # sorted names, so the text does not follow str hashing
        return f"VarSet{self.sort_key()!r}"

    def __or__(self, other: "VarSet") -> "VarSet":
        return VarSet(self.stoch | other.stoch, self.dec | other.dec)

    def __le__(self, other: "VarSet") -> bool:  # component-wise inclusion
        return self.stoch <= other.stoch and self.dec <= other.dec

    def __bool__(self) -> bool:
        return bool(self.stoch) or bool(self.dec)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self.stoch)) + tuple(sorted(self.dec))

    def sort_key(self):
        return (tuple(sorted(self.stoch)), tuple(sorted(self.dec)))


EMPTY = VarSet()


def join(a: VarSet, b: VarSet) -> VarSet:
    """Join of two slots: component-wise set union."""
    return a | b


@dataclass(frozen=True)
class CIStatement:
    """A ternary independence assertion ``left _||_ right | cond``."""

    left: VarSet
    right: VarSet
    cond: VarSet = EMPTY

    @cached_property
    def decision_names(self) -> frozenset:
        return self.left.dec | self.right.dec | self.cond.dec

    def is_pure(self, kind: str) -> bool:
        slots = (self.left, self.right, self.cond)
        if kind == STOCHASTIC:
            return not any(s.dec for s in slots)
        return not any(s.stoch for s in slots)

    def sort_key(self):
        return (self.left.sort_key(), self.right.sort_key(), self.cond.sort_key())

    def __repr__(self) -> str:  # delegated to the DSL renderer lazily
        from .dsl import render_statement

        return f"<{render_statement(self)}>"


def statement(universe: Universe, left, right, cond=()) -> CIStatement:
    """Build a canonical statement from name iterables."""
    return CIStatement(universe.varset(left), universe.varset(right), universe.varset(cond))


def canonicalize(universe: Universe, stmt: CIStatement) -> CIStatement:
    """Validate slot names against the universe; slots are sets, so the result
    is sorted and duplicate-free by construction.  Idempotent.  An undeclared
    name, or one in a part of the other kind, raises ``UnknownVariable``
    naming the least such name of the first slot (left, right, cond) that
    has one, whatever order the slot's sets iterate in."""
    for slot in (stmt.left, stmt.right, stmt.cond):
        bad = [(n, kind) for kind, names in ((STOCHASTIC, slot.stoch), (DECISION, slot.dec))
               for n in names if n not in universe or universe.kind(n) != kind]
        if bad:
            n, kind = min(bad)
            universe.kind(n)  # an undeclared name raises here
            raise UnknownVariable(f"{n!r} is not a {kind} variable")
    return stmt


class ReductionRegistry:
    """Registered pairs ``w <= y`` ("w is a function of y"), one kind at a
    time; reflexive-transitive closure is taken on demand."""

    def __init__(self, universe: Universe | None = None):
        self._universe = universe
        self._parents: dict[str, set[str]] = {}
        self._cache: dict[str, frozenset] = {}

    def register(self, child: str, parent: str) -> None:
        if self._universe is not None:
            ck, pk = self._universe.kind(child), self._universe.kind(parent)
            if ck != pk:
                raise ValueError(
                    f"reduction may not mix kinds: {child!r} is {ck}, {parent!r} is {pk}"
                )
        self._parents.setdefault(child, set()).add(parent)
        self._cache.clear()

    @property
    def pairs(self) -> frozenset:
        return frozenset((c, p) for c, ps in self._parents.items() for p in ps)

    def ancestors(self, name: str) -> frozenset:
        """All y with name <= y, including name itself."""
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        seen = {name}
        stack = [name]
        while stack:
            for p in self._parents.get(stack.pop(), ()):
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        result = frozenset(seen)
        self._cache[name] = result
        return result

    def reducible_to(self, names: Iterable[str]) -> frozenset:
        """All u that are <= some member of names (members included)."""
        targets = set(names)
        out = set(targets)
        for u in self._parents:
            if self.ancestors(u) & targets:
                out.add(u)
        return frozenset(out)


def is_reduction(w: VarSet, y: VarSet, reg: ReductionRegistry | None = None) -> bool:
    """True iff every variable of w is a member of y or reduces (via the
    registry's reflexive-transitive closure) to some variable of y."""
    if reg is None:
        return w <= y
    for n in w.stoch:
        if n not in y.stoch and not (reg.ancestors(n) & y.stoch):
            return False
    for n in w.dec:
        if n not in y.dec and not (reg.ancestors(n) & y.dec):
            return False
    return True


@dataclass(frozen=True)
class ComplementarityDecl:
    """Declared families of decision names whose joint map identifies the
    regime.  The symbolic layer cannot inspect the regime space, so this is a
    declared side condition; the model layer verifies it by injectivity."""

    families: frozenset = frozenset()

    @classmethod
    def of(cls, *families: Iterable[str]) -> "ComplementarityDecl":
        return cls(frozenset(frozenset(f) for f in families))

    def is_declared(self, names: Iterable[str]) -> bool:
        return frozenset(names) in self.families


def well_formed(
    stmt: CIStatement, comp: ComplementarityDecl, *, general: bool = False
) -> bool:
    """A statement is well formed when its decision names (if any) form a
    declared complementary family, and decision names appear in the left slot
    only for statements flagged as general-form."""
    if stmt.left.dec and not general:
        return False
    decs = stmt.decision_names
    if decs and not comp.is_declared(decs):
        return False
    return True
