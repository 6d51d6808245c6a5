"""Exact semantics on finite discrete models.

Probabilities are exact rationals throughout; "almost surely" becomes "for
every positive-probability context", which makes all checks decidable with
zero tolerance.  A regime family holds one joint table per regime over a
shared variable signature, plus decision variables as functions on the regime
labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from itertools import product
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (
    EmptyContext,
    InvalidModel,
    InvalidPrior,
    MalformedStatement,
    NotComplementary,
    ZeroConditioningEvent,
)
from .universe import CIStatement, VarSet

Assignment = Mapping[str, str]


def _names(vs) -> tuple[str, ...]:
    """Accept a VarSet (stochastic part only), a name, or a name iterable."""
    if isinstance(vs, VarSet):
        if vs.dec:
            raise MalformedStatement(f"expected stochastic names only, got {sorted(vs.dec)}")
        return tuple(sorted(vs.stoch))
    if isinstance(vs, str):
        return (vs,)
    return tuple(sorted(vs))


def mask_names(mask: int, names: Sequence[str]) -> tuple[str, ...]:
    """The names whose bit is set in the mask (bit i for names[i])."""
    return tuple(n for i, n in enumerate(names) if mask >> i & 1)


class DiscreteDistribution:
    """Exact joint probability table over finitely many discrete variables."""

    def __init__(self, variables: Mapping[str, Sequence[str]], pmf: Mapping, *, validate: bool = True):
        self.names: tuple[str, ...] = tuple(sorted(variables))
        self.values: dict[str, tuple[str, ...]] = {
            n: tuple(str(v) for v in variables[n]) for n in self.names
        }
        self._index = {n: i for i, n in enumerate(self.names)}
        table: dict[tuple, Fraction] = {}
        for key, p in pmf.items():
            if isinstance(key, Mapping):
                key = tuple(str(key[n]) for n in self.names)
            else:
                key = tuple(str(v) for v in key)
            table[key] = table.get(key, Fraction(0)) + Fraction(p)
        self.pmf: dict[tuple, Fraction] = table
        self._marginal_cache: dict[tuple, dict] = {}
        self._int_cache: tuple[int, dict] | None = None
        if validate:
            self._validate()

    def _validate(self) -> None:
        for n, vals in self.values.items():
            if not vals:
                raise InvalidModel(f"variable {n!r} has no values")
            if len(set(vals)) != len(vals):
                raise InvalidModel(f"variable {n!r} has duplicate values")
        total = Fraction(0)
        for key, p in self.pmf.items():
            if len(key) != len(self.names):
                raise InvalidModel(f"assignment {key!r} does not cover {self.names}")
            for n, v in zip(self.names, key):
                if v not in self.values[n]:
                    raise InvalidModel(f"value {v!r} not declared for variable {n!r}")
            if p < 0:
                raise InvalidModel(f"negative mass on {key!r}")
            total += p
        if total != 1:
            raise InvalidModel(f"masses sum to {total}, not 1")

    # -- access ------------------------------------------------------------

    def atoms(self):
        return self.pmf.items()

    def signature(self) -> tuple:
        return tuple((n, self.values[n]) for n in self.names)

    def indices(self, names: Iterable[str]) -> tuple[int, ...]:
        try:
            return tuple(self._index[n] for n in names)
        except KeyError as e:
            raise InvalidModel(f"unknown variable {e.args[0]!r}") from None

    def int_atoms(self) -> tuple[int, dict]:
        """(denominator, atom -> integer numerator) over a common denominator."""
        if self._int_cache is None:
            den = 1
            for p in self.pmf.values():
                den = den * p.denominator // math.gcd(den, p.denominator)
            self._int_cache = (den, {k: int(p * den) for k, p in self.pmf.items()})
        return self._int_cache

    @cached_property
    def kernel(self) -> "MaskKernel":
        """The compiled form every exact check on this table goes through."""
        return MaskKernel(self)

    def marginal(self, names) -> dict[tuple, Fraction]:
        names = _names(names)
        cached = self._marginal_cache.get(names)
        if cached is not None:
            return cached
        idx = self.indices(names)
        out: dict[tuple, Fraction] = {}
        for key, p in self.pmf.items():
            sub = tuple(key[i] for i in idx)
            out[sub] = out.get(sub, Fraction(0)) + p
        self._marginal_cache[names] = out
        return out

    def probability(self, assignment: Assignment) -> Fraction:
        names = _names(assignment.keys())
        vals = tuple(str(assignment[n]) for n in names)
        return self.marginal(names).get(vals, Fraction(0))

    def expectation(self, name: str, value_map: Callable[[str], Fraction] = Fraction) -> Fraction:
        out = Fraction(0)
        for key, p in self.marginal((name,)).items():
            out += p * value_map(key[0])
        return out


class MaskKernel:
    """Integer, mask-indexed form of one distribution.  Bit i of a mask
    stands for the i-th variable name; rows are the positive atoms with
    integer numerators over a common denominator (which cancels in every
    test).  Projection columns, context counts and SCI verdicts are built per
    mask on first use, never for all masks up front."""

    def __init__(self, dist: DiscreteDistribution):
        _, atoms = dist.int_atoms()
        self.names = dist.names
        self._bit = {n: 1 << i for i, n in enumerate(dist.names)}
        self._values = [dist.values[n] for n in dist.names]
        rows = [(key, n) for key, n in atoms.items() if n]
        self._keys = [key for key, _ in rows]
        self._weights = [n for _, n in rows]
        self._proj: dict[int, list] = {}
        self._contexts: dict[tuple, dict] = {}
        self._sci: dict[tuple, bool] = {}

    def mask(self, names: Iterable[str]) -> int:
        m = 0
        for n in names:
            b = self._bit.get(n)
            if b is None:
                raise InvalidModel(f"unknown variable {n!r}")
            m |= b
        return m

    def grid(self, mask: int) -> list[tuple]:
        """All value tuples of the masked variables, in declared value order."""
        return list(product(*(v for i, v in enumerate(self._values) if mask >> i & 1)))

    def proj(self, mask: int) -> list[tuple]:
        """Each positive row's values on the masked variables."""
        col = self._proj.get(mask)
        if col is None:
            idx = [i for i in range(len(self.names)) if mask >> i & 1]
            col = self._proj[mask] = [tuple(key[i] for i in idx) for key in self._keys]
        return col

    def contexts(self, x: int, y: int, z: int) -> dict:
        """Positive context (y, z) -> [n(y, z), z value, {x value: n(x, y, z)}]."""
        key = (x, y | z, z)
        out = self._contexts.get(key)
        if out is None:
            out = self._contexts[key] = {}
            for xa, ca, za, n in zip(self.proj(x), self.proj(y | z), self.proj(z), self._weights):
                c = out.get(ca)
                if c is None:
                    c = out[ca] = [0, za, {}]
                c[0] += n
                c[2][xa] = c[2].get(xa, 0) + n
        return out

    def sci(self, x: int, y: int, z: int) -> bool:
        """X _||_ Y | Z by mask.  Conditioning variables are dropped from the
        outer slots (they are constant within each context), the pair is
        ordered, and the verdict is cached per normalized triple."""
        x &= ~z
        y &= ~z
        if x > y:
            x, y = y, x
        if not x:
            return True
        key = (x, y, z)
        out = self._sci.get(key)
        if out is None:
            out = self._sci[key] = self._factorizes(x, y, z)
        return out

    def _factorizes(self, x: int, y: int, z: int) -> bool:
        """For every positive context z the joint counts of (x, y) are the
        product of their margins: n(x, y, z) n(z) = n(x, z) n(y, z)."""
        slices: dict = {}
        for xa, ya, za, n in zip(self.proj(x), self.proj(y), self.proj(z), self._weights):
            s = slices.get(za)
            if s is None:
                s = slices[za] = [0, {}, {}, {}]
            s[0] += n
            s[1][xa] = s[1].get(xa, 0) + n
            s[2][ya] = s[2].get(ya, 0) + n
            s[3][(xa, ya)] = s[3].get((xa, ya), 0) + n
        for total, dx, dy, dxy in slices.values():
            if len(dxy) != len(dx) * len(dy):
                return False
            for (xa, ya), n in dxy.items():
                if n * total != dx[xa] * dy[ya]:
                    return False
        return True


def conditional(dist: DiscreteDistribution, targets, given: Assignment) -> dict[tuple, Fraction]:
    """Exact conditional pmf of the target variables given a partial
    assignment with positive probability."""
    targets = _names(targets)
    g_names = tuple(sorted(given))
    g_vals = tuple(str(given[n]) for n in g_names)
    denom = dist.marginal(g_names).get(g_vals, Fraction(0)) if g_names else Fraction(1)
    if denom == 0:
        raise ZeroConditioningEvent(f"P({dict(given)!r}) = 0")
    joint = dist.marginal(tuple(sorted(set(targets) | set(g_names))))
    names = tuple(sorted(set(targets) | set(g_names)))
    pos = {n: i for i, n in enumerate(names)}
    out: dict[tuple, Fraction] = {}
    for key, p in joint.items():
        if all(key[pos[n]] == v for n, v in zip(g_names, g_vals)):
            sub = tuple(key[pos[n]] for n in targets)
            out[sub] = out.get(sub, Fraction(0)) + p / denom
    return out


def conditional_expectation(dist, name: str, given: Assignment,
                            value_map: Callable[[str], Fraction] = Fraction) -> Fraction:
    table = conditional(dist, (name,), given)
    return sum((p * value_map(key[0]) for key, p in table.items()), Fraction(0))


def check_sci(dist: DiscreteDistribution, X, Y, Z) -> bool:
    """Exact factorization check: for every conditioning value with positive
    mass, the joint table of (X, Y) is the product of its margins."""
    k = dist.kernel
    return k.sci(k.mask(_names(X)), k.mask(_names(Y)), k.mask(_names(Z)))


# -- variation independence -------------------------------------------------

DecMap = Mapping[str, Mapping[str, str]]


def _dec_fun(decmap: DecMap, names: Sequence[str], regimes: Sequence[str]):
    """Materialize the joint map sigma -> value tuple for decision names."""
    for n in names:
        if n not in decmap:
            raise InvalidModel(f"unknown decision variable {n!r}")
    return {s: tuple(str(decmap[n][s]) for n in names) for s in regimes}


def _dec_names(vs) -> tuple[str, ...]:
    if isinstance(vs, VarSet):
        if vs.stoch:
            raise MalformedStatement(f"expected decision names only, got {sorted(vs.stoch)}")
        return tuple(sorted(vs.dec))
    if isinstance(vs, str):
        return (vs,)
    return tuple(sorted(vs))


def check_vci(decmap: DecMap, X, Y, Z, regimes: Sequence[str] | None = None) -> bool:
    """Range check: R(X | y, z) = R(X | z) for every attainable (y, z)."""
    if regimes is None:
        regimes = sorted({s for m in decmap.values() for s in m})
    names = _dec_names(X), _dec_names(Y), _dec_names(Z)
    fx, fy, fz = (_dec_fun(decmap, n, regimes).values() for n in names)
    return variation_independent(fx, fy, fz)


def variation_independent(fx: Iterable, fy: Iterable, fz: Iterable) -> bool:
    """The VCI range test on three functions given as parallel per-regime
    value sequences: R(X | y, z) = R(X | z) for every attainable (y, z)."""
    r_yz: dict[tuple, set] = {}
    r_z: dict[tuple, set] = {}
    for x, y, z in zip(fx, fy, fz):
        r_yz.setdefault((y, z), set()).add(x)
        r_z.setdefault(z, set()).add(x)
    return all(r_yz[(y, z)] == r_z[z] for (y, z) in r_yz)


def conditional_image(decmap: DecMap, X, given: Assignment, regimes: Sequence[str] | None = None):
    """{X(sigma) : sigma matches the given partial decision assignment}."""
    if regimes is None:
        regimes = sorted({s for m in decmap.values() for s in m})
    single = isinstance(X, str)
    xs = _dec_names(X)
    fx = _dec_fun(decmap, xs, regimes)
    g_names = tuple(sorted(given))
    fg = _dec_fun(decmap, g_names, regimes)
    g_vals = tuple(str(given[n]) for n in g_names)
    matched = [s for s in regimes if fg[s] == g_vals]
    if not matched:
        raise EmptyContext(f"no regime matches {dict(given)!r}")
    out = {fx[s] for s in matched}
    return {v[0] for v in out} if single else out


def partition_meet(a: Mapping[str, str], b: Mapping[str, str]) -> dict[str, str]:
    """Finest common coarsening of the partitions induced by two functions on
    the regime space: connected components of the overlap graph.  Each block
    is labelled by its lowest regime label."""
    regimes = sorted(a)
    if sorted(b) != regimes:
        raise InvalidModel("partition_meet arguments live on different regime spaces")
    parent = {s: s for s in regimes}

    def find(s):
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(s, t):
        rs, rt = find(s), find(t)
        if rs != rt:
            rs, rt = sorted((rs, rt))
            parent[rt] = rs

    for f in (a, b):
        by_val: dict[str, str] = {}
        for s in regimes:
            v = str(f[s])
            if v in by_val:
                union(by_val[v], s)
            else:
                by_val[v] = s
    return {s: find(s) for s in regimes}


# -- regime families ----------------------------------------------------------


class RegimeFamily:
    """A finite regime space with one distribution per regime (shared
    signature) and decision variables as functions on the regimes."""

    def __init__(
        self,
        regimes: Sequence[str],
        dists: Mapping[str, DiscreteDistribution],
        decvars: DecMap | None = None,
        info_base: dict | None = None,
    ):
        self.regimes: tuple[str, ...] = tuple(str(r) for r in regimes)
        if len(set(self.regimes)) != len(self.regimes) or not self.regimes:
            raise InvalidModel("regime labels must be nonempty and unique")
        self.dists: dict[str, DiscreteDistribution] = {str(r): dists[r] for r in regimes}
        sig = self.dists[self.regimes[0]].signature()
        for r in self.regimes:
            if self.dists[r].signature() != sig:
                raise InvalidModel(f"regime {r!r} has a different variable signature")
        self.decvars: dict[str, dict[str, str]] = {}
        for name, mapping in (decvars or {}).items():
            if set(mapping) != set(self.regimes):
                raise InvalidModel(f"decision variable {name!r} is not total on the regimes")
            if name in self.dists[self.regimes[0]].values:
                raise InvalidModel(f"name {name!r} is both stochastic and decision")
            self.decvars[name] = {str(s): str(v) for s, v in mapping.items()}
        self.info_base = info_base
        self._groups: dict[frozenset, dict] = {}
        self._eci: dict[tuple, bool] = {}
        self._vci: dict[tuple, bool] = {}

    @property
    def variables(self) -> dict[str, tuple[str, ...]]:
        return self.dists[self.regimes[0]].values

    def with_decision(self, name: str, mapping: Mapping[str, str]) -> "RegimeFamily":
        dv = dict(self.decvars)
        dv[name] = dict(mapping)
        return RegimeFamily(self.regimes, self.dists, dv, self.info_base)

    def identity_name(self) -> str:
        """Name of an identity-like decision variable, adding one if needed is
        the caller's job (see ensure_identity)."""
        for name, m in self.decvars.items():
            if all(m[s] == s for s in self.regimes):
                return name
        return ""

    def ensure_identity(self) -> tuple["RegimeFamily", str]:
        name = self.identity_name()
        if name:
            return self, name
        name = "_sigma"
        while name in self.decvars or name in self.variables:
            name += "_"
        return self.with_decision(name, {s: s for s in self.regimes}), name

    # -- exact checks by mask (stochastic slots as masks of the shared
    # signature, decision slots as frozensets of names) -------------------

    @property
    def kernel(self) -> MaskKernel:
        """Kernel of the first regime; it carries the shared name -> bit map."""
        return self.dists[self.regimes[0]].kernel

    def phi_groups(self, phi: frozenset) -> dict[tuple, list]:
        """Regimes grouped by their value of the decision names phi, in
        sorted value order."""
        out = self._groups.get(phi)
        if out is None:
            fn = _dec_fun(self.decvars, tuple(sorted(phi)), self.regimes)
            groups: dict[tuple, list] = {}
            for s in self.regimes:
                groups.setdefault(fn[s], []).append(s)
            out = self._groups[phi] = dict(sorted(groups.items()))
        return out

    def witness(self, x: int, y: int, z: int, phi: frozenset) -> dict | None:
        """The ECI common-witness test: within each phi group one w(x, z)
        must equal P(X=x | Y=y, Z=z) in every regime of the group and every
        positive (y, z).  Returns (phi value, x value, z value) -> (n1, n2)
        with w = n1/n2, or None; counts are compared by cross-multiplying."""
        x_grid = self.kernel.grid(x)
        entries: dict = {}
        for phival, sigmas in self.phi_groups(phi).items():
            for s in sigmas:
                for n2, za, nx in self.dists[s].kernel.contexts(x, y, z).values():
                    for xa in x_grid:
                        n1 = nx.get(xa, 0)
                        have = entries.setdefault((phival, xa, za), (n1, n2))
                        if have[0] * n2 != n1 * have[1]:
                            return None
        return entries

    def eci(self, x: int, y: int, z: int, phi: frozenset) -> bool:
        """Verdict of witness(), cached per (x, y, z, phi)."""
        key = (x, y, z, phi)
        out = self._eci.get(key)
        if out is None:
            out = self._eci[key] = self.witness(x, y, z, phi) is not None
        return out

    def eci_general(self, x: int, K: frozenset, y: int, theta: frozenset, z: int,
                    phi: frozenset) -> bool:
        """check_eci_general on validated slots: (X, K) _||_ (Y, theta) | (Z, phi)."""
        if not K:
            return self.eci(x, y, z, phi)
        if not self.eci(x, y, z, phi | K):
            return False
        if y and not self.eci(y, 0, z, phi | theta):
            return False
        return not theta or self._vci_on_supports(K, theta, z, phi)

    def _vci_on_supports(self, K: frozenset, theta: frozenset, z: int, phi: frozenset) -> bool:
        """theta _||_ K | phi by ranges on every S_z, the regimes in which the
        outcome z of Z has positive probability; cached per (K, theta, z, phi)."""
        key = (K, theta, z, phi)
        out = self._vci.get(key)
        if out is None:
            supports: dict[tuple, list] = {}
            for s in self.regimes:
                for za in set(self.dists[s].kernel.proj(z)):
                    supports.setdefault(za, []).append(s)
            out = self._vci[key] = all(
                check_vci(self.decvars, theta, K, phi, regimes=sz) for sz in supports.values()
            )
        return out


def check_complementary(fam: RegimeFamily, names: Iterable[str]) -> bool:
    """True iff the joint map sigma -> values distinguishes every regime."""
    names = _dec_names(names)
    fn = _dec_fun(fam.decvars, names, fam.regimes)
    return len({fn[s] for s in fam.regimes}) == len(fam.regimes)


def _slot_masks(fam: RegimeFamily, stmt: CIStatement) -> tuple[int, int, int]:
    """Masks of the stochastic slots, once every name is known to the family
    and the decision names identify the regime."""
    for n in stmt.left.stoch | stmt.right.stoch | stmt.cond.stoch:
        if n not in fam.variables:
            raise InvalidModel(f"unknown stochastic variable {n!r}")
    for n in stmt.decision_names:
        if n not in fam.decvars:
            raise InvalidModel(f"unknown decision variable {n!r}")
    decs = tuple(sorted(stmt.decision_names))
    if decs and not check_complementary(fam, decs):
        raise NotComplementary(f"decision family {decs} does not identify the regime")
    k = fam.kernel
    return k.mask(stmt.left.stoch), k.mask(stmt.right.stoch), k.mask(stmt.cond.stoch)


@dataclass(frozen=True)
class WitnessTable:
    """Witness values w(phi; x, z) realizing an extended-independence check:
    the common conditional probability of each left-slot assignment given each
    conditioning assignment, per group of regimes sharing a phi value.
    Entries exist only for contexts with positive probability in at least one
    regime of the group."""

    phi_vars: tuple[str, ...]
    x_vars: tuple[str, ...]
    z_vars: tuple[str, ...]
    entries: dict

    def value(self, phi: tuple, x: tuple, z: tuple) -> Fraction | None:
        return self.entries.get((phi, x, z))


def _validate_eci_statement(fam: RegimeFamily, stmt: CIStatement):
    """Slot masks (x, y, z) and phi names of a well-formed ECI statement."""
    if stmt.left.dec:
        raise MalformedStatement(
            "decision variable in the left slot; use check_eci_general"
        )
    return (*_slot_masks(fam, stmt), stmt.cond.dec)


def check_eci(fam: RegimeFamily, stmt: CIStatement) -> tuple[bool, WitnessTable | None]:
    """Extended independence on a finite family: within every group of regimes
    sharing a value of the conditioning decision variables there must be a
    single witness w(x, z) equal to P(X=x | Y=y, Z=z) across all regimes of
    the group and all positive-probability (y, z).  Statements with no
    decision names are checked with a single group containing every regime."""
    x, y, z, phi = _validate_eci_statement(fam, stmt)
    entries = fam.witness(x, y, z, phi)
    if entries is None:
        return False, None
    k = fam.kernel
    return True, WitnessTable(
        tuple(sorted(phi)), mask_names(x, k.names), mask_names(z, k.names),
        {e: Fraction(n1, n2) for e, (n1, n2) in entries.items()},
    )


def check_pairwise_eci(fam: RegimeFamily, stmt: CIStatement) -> bool:
    """Weakening of check_eci: a common witness is required only for each pair
    of regimes within a group (including the degenerate single-regime pair)."""
    x, y, z, phi = _validate_eci_statement(fam, stmt)
    x_grid = fam.kernel.grid(x)
    for sigmas in fam.phi_groups(phi).values():
        tables = []
        for s in sigmas:
            table: dict = {}
            for n2, za, nx in fam.dists[s].kernel.contexts(x, y, z).values():
                for xa in x_grid:
                    n1 = nx.get(xa, 0)
                    have = table.setdefault((xa, za), (n1, n2))
                    if have[0] * n2 != n1 * have[1]:
                        return False  # fails already within one regime
            tables.append(table)
        for i in range(len(tables)):
            for j in range(i + 1, len(tables)):
                ti, tj = tables[i], tables[j]
                for ctx, (a, b) in ti.items():
                    w = tj.get(ctx)
                    if w is not None and a * w[1] != w[0] * b:
                        return False
    return True


def compute_S_z(fam: RegimeFamily, Z, z: Assignment) -> tuple[str, ...]:
    """Regimes for which the outcome z of Z has positive probability."""
    zs = _names(Z)
    for n in zs:
        if str(z[n]) not in fam.variables[n]:
            raise InvalidModel(f"value {z[n]!r} not declared for {n!r}")
    out = []
    for s in fam.regimes:
        if fam.dists[s].probability({n: z[n] for n in zs}) > 0:
            out.append(s)
    return tuple(out)


def check_eci_general(fam: RegimeFamily, stmt: CIStatement) -> bool:
    """General-form check for statements whose left slot carries decision
    variables K: the purely-stochastic-left part conditioned additionally on
    K, the reverse part with K on the right, and variation independence of the
    right/left decision parts on every restriction to the regimes compatible
    with each conditioning outcome."""
    x, y, z = _slot_masks(fam, stmt)
    return fam.eci_general(x, stmt.left.dec, y, stmt.right.dec, z, stmt.cond.dec)


def product_space(
    fam: RegimeFamily, prior: Mapping[str, Fraction], regime_var: str = "_regime"
) -> DiscreteDistribution:
    """Joint distribution on (outcome, regime) with mass P_sigma(omega) *
    prior(sigma); the regime label becomes an ordinary variable and every
    decision variable becomes a variable determined by it."""
    if set(prior) != set(fam.regimes):
        raise InvalidPrior("prior must assign mass to exactly the regime labels")
    masses = {s: Fraction(prior[s]) for s in fam.regimes}
    if any(m <= 0 for m in masses.values()):
        raise InvalidPrior("prior must be strictly positive on every regime")
    if sum(masses.values()) != 1:
        raise InvalidPrior(f"prior sums to {sum(masses.values())}, not 1")
    if regime_var in fam.variables or regime_var in fam.decvars:
        raise InvalidModel(f"regime variable name {regime_var!r} collides")
    variables: dict[str, Sequence[str]] = dict(fam.variables)
    variables[regime_var] = tuple(fam.regimes)
    for d, m in fam.decvars.items():
        variables[d] = tuple(sorted(set(m.values())))
    names = tuple(sorted(variables))
    base = fam.dists[fam.regimes[0]].names
    pmf: dict[tuple, Fraction] = {}
    for s in fam.regimes:
        dist = fam.dists[s]
        for key, p in dist.atoms():
            row = dict(zip(base, key))
            row[regime_var] = s
            for d, m in fam.decvars.items():
                row[d] = m[s]
            full = tuple(row[n] for n in names)
            pmf[full] = pmf.get(full, Fraction(0)) + p * masses[s]
    return DiscreteDistribution(variables, pmf)


def find_dominating(fam: RegimeFamily, subset: Iterable[str] | None = None) -> str | None:
    """Some regime in the subset whose support contains every other member's
    support; ties broken by regime declaration order."""
    labels = [s for s in fam.regimes if subset is None or s in set(subset)]
    if not labels:
        raise InvalidModel("empty regime subset")
    supports = {
        s: frozenset(k for k, p in fam.dists[s].atoms() if p > 0) for s in labels
    }
    for s in labels:
        if all(supports[t] <= supports[s] for t in labels):
            return s
    return None


def dominating_per_group(fam: RegimeFamily, phi_names: Sequence[str]) -> bool:
    """True iff every group of regimes sharing a phi value has a dominating
    regime."""
    return all(
        find_dominating(fam, sigmas) is not None
        for sigmas in fam.phi_groups(frozenset(_dec_names(phi_names))).values()
    )
