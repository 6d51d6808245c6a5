"""Exact semantics on finite discrete models.

Probabilities are exact rationals throughout; "almost surely" becomes "for
every positive-probability context", which makes all checks decidable with
zero tolerance.  A regime family holds one joint table per regime over a
shared variable signature, plus decision variables as functions on the regime
labels.

A table stores one exact form: integer counts per atom over one
denominator, the least common one (``int_atoms``).  Integer masses build it
directly (``DiscreteDistribution.from_counts``, as the search's model
builders and ``product_space`` do); ``Fraction`` masses are brought to it
by one least common multiple.  Both are validated in integers, and ``pmf``
is built from the counts on first read.

Every computation on a table goes through its ``MaskKernel``, one integer
form: the positive atoms as cell codes of declared value indices, and count
tables per mask keyed by masked codes.  Kernels of one signature code alike,
so codes compare across regimes; value tuples are encoded and decoded only
at the public edge.  ``conditional`` (with ``probability``/``expectation``)
reads the law of X given Z from the marginals; SCI checks one equation per
positive cell, on the four marginals read from the kernel's memo, stopping
at the first cell that fails.  ECI is SCI on one stacked kernel per family
(``RegimeFamily.stacked``: every regime's rows, a regime column R and a
column per decision name).  On finite regimes X _||_ (Y, Sigma) | (Z, Phi)
holds exactly when X _||_ (Y, R) | (Z, Phi) does as SCI under a prior with
full support, as each row's numerator over its regime's denominator is;
pairwise ECI coincides with it.  A ``WitnessTable`` holds its question and
builds its names, and its entries from the stack's laws, on first read.
``supports`` gives each S_z by z cell code.

A decision map compiles to the same kernel (``dec_kernel``): one
weight-1 row per regime, each name's values numbered by first appearance;
the kernels of the last 256 maps compiled are kept by content (see
``_compiled``).  ``check_vci``, ``conditional_image``, a family's
``phi_groups`` and ``_vci_on_supports``, and the VCI scans
(``search._close_vci``, on one row per point of a range) read its masked
row codes (``MaskKernel.labels``) and decode values only at the public
edge.  VCI is one range test, ``variation_independent``, on parallel
label sequences: R(X | y, z) = R(X | z) for every attainable (y, z).  It
reads only the partitions the labels induce, so renaming one name's
values keeps every verdict; so does the one meet, ``block_meet``, which
``partition_meet`` labels by lowest regime.

Statement names are resolved to masks once per variable signature: the
kernels of every table, family and product space over one names tuple share
an interned name -> bit map and resolved-mask memo, exactly, since bit
positions depend on the names alone.  Decision checks stay per family: once
per decision-name set, that the names are the family's and identify the regime.
"""

from __future__ import annotations

import math
from functools import cache, cached_property, lru_cache
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


def _name_iter(vs, dec: bool = False) -> Iterable[str]:
    """Unsorted names of a name, a name iterable, or a VarSet: its stochastic
    part, or its decision part when dec is set; the other part is empty."""
    if isinstance(vs, VarSet):
        want, other = (vs.dec, vs.stoch) if dec else (vs.stoch, vs.dec)
        if other:
            kind = "decision" if dec else "stochastic"
            raise MalformedStatement(f"expected {kind} names only, got {sorted(other)}")
        return want
    if isinstance(vs, str):
        return (vs,)
    return vs


def _names(vs, dec: bool = False) -> tuple[str, ...]:
    return tuple(sorted(_name_iter(vs, dec)))


def mask_names(mask: int, names: Sequence[str]) -> tuple[str, ...]:
    """The names whose bit is set in the mask (bit i for names[i])."""
    return tuple(n for i, n in enumerate(names) if mask >> i & 1)


class DiscreteDistribution:
    """Exact joint probability table over finitely many discrete variables,
    stored as integer counts over one denominator, their least common one
    (see ``int_atoms``); ``pmf`` is built from them on first read.
    ``validated`` tells whether the table was checked when built."""

    def __init__(self, variables: Mapping[str, Sequence[str]], pmf: Mapping, *, validate: bool = True):
        """A table from masses keyed by value tuples (in sorted name order)
        or by assignments; masses are read as ``Fraction``s and a key given
        twice adds up."""
        names = tuple(sorted(variables))
        table: dict[tuple, Fraction] = {}
        for key, p in pmf.items():
            if type(key) is not tuple and isinstance(key, Mapping):  # tuples skip the ABC test
                key = tuple(str(key[n]) for n in names)
            else:
                key = tuple(map(str, key))
            if type(p) is not Fraction:
                p = Fraction(p)
            table[key] = table[key] + p if key in table else p
        den = math.lcm(*(p.denominator for p in table.values()))
        self._store(variables, den, {k: p.numerator * (den // p.denominator)
                                     for k, p in table.items()}, validate)

    @classmethod
    def from_counts(cls, variables: Mapping[str, Sequence[str]], counts: Mapping[tuple, int],
                    den: int, *, validate: bool = True) -> "DiscreteDistribution":
        """The table with mass n / den on each key (a tuple of values in
        sorted name order) of counts; checked as ``__init__`` checks."""
        if den < 1:
            raise InvalidModel(f"denominator {den} is not positive")
        g = math.gcd(den, *counts.values())
        self = cls.__new__(cls)
        self._store(variables, den // g, {k: n // g for k, n in counts.items()}, validate)
        return self

    def _store(self, variables, den: int, counts: dict, validate: bool) -> None:
        self.names: tuple[str, ...] = tuple(sorted(variables))
        self.values: dict[str, tuple[str, ...]] = {
            n: tuple(str(v) for v in variables[n]) for n in self.names
        }
        self._den, self._counts = den, counts
        self.validated = validate
        if validate:
            self._validate()

    def _validate(self) -> None:
        for n, vals in self.values.items():
            if not vals:
                raise InvalidModel(f"variable {n!r} has no values")
            if len(set(vals)) != len(vals):
                raise InvalidModel(f"variable {n!r} has duplicate values")
        for key, n in self._counts.items():
            self._check_key(key)
            if n < 0:
                raise InvalidModel(f"negative mass on {key!r}")
        total = sum(self._counts.values())
        if total != self._den:
            raise InvalidModel(f"masses sum to {Fraction(total, self._den)}, not 1")

    def _check_key(self, key: tuple) -> None:
        if len(key) != len(self.names):
            raise InvalidModel(f"assignment {key!r} does not cover {self.names}")
        for n, v in zip(self.names, key):
            if v not in self.values[n]:
                raise InvalidModel(f"value {v!r} not declared for variable {n!r}")

    # -- access ------------------------------------------------------------

    @cached_property
    def pmf(self) -> dict[tuple, Fraction]:
        """Atom -> exact mass, zero masses included, in the stored order."""
        den = self._den
        return {k: Fraction(n, den) for k, n in self._counts.items()}

    def atoms(self):
        return self.pmf.items()

    def signature(self) -> tuple:
        return tuple((n, self.values[n]) for n in self.names)

    def int_atoms(self) -> tuple[int, dict]:
        """The stored form: (den, atom -> integer numerator), zero masses
        included, over the least common denominator of the masses."""
        return self._den, dict(self._counts)

    @cached_property
    def rows(self) -> list[tuple[tuple, int]]:
        """The positive atoms as (key, integer numerator) over the stored
        denominator; a table built unchecked has its keys checked here."""
        rows = [(key, n) for key, n in self._counts.items() if n]
        if not self.validated:
            for key, _ in rows:
                self._check_key(key)
        return rows

    @cached_property
    def kernel(self) -> "MaskKernel":
        """The compiled form every exact check on this table goes through."""
        return MaskKernel(self.names, map(self.values.__getitem__, self.names), self.rows)

    def probability(self, assignment: Assignment) -> Fraction:
        names = _names(assignment)
        vals = tuple(str(assignment[n]) for n in names)
        return conditional(self, names, {}).get(vals, Fraction(0))

    def expectation(self, name: str, value_map: Callable[[str], Fraction] = Fraction) -> Fraction:
        return conditional_expectation(self, name, {}, value_map)


@cache
def _signature(names: tuple[str, ...]) -> tuple[dict, dict]:
    """Interned per names tuple (see the module docstring): the name -> bit
    map and a memo of resolved stochastic slots, keyed by name sets, name
    tuples or ``VarSet``s, never by a statement, holding successful
    resolutions only."""
    return {n: 1 << i for i, n in enumerate(names)}, {}


class MaskKernel:
    """The one compiled form of a distribution or a decision map, built from
    names, each name's values and positive rows; bit i of a mask stands for
    the i-th name.  Each row is a cell code weighted by a positive integer:
    an atom's numerator over a common denominator (which cancels in every
    test), or 1 per regime.  A code holds each value's index among its
    name's values in a bit field as wide as their number needs, and its part
    on a mask is ``code & field_of(mask)``.  Row labels, marginals, laws
    and SCI verdicts are built per mask on first use."""

    def __init__(self, names: Sequence[str], values: Iterable[Sequence[str]],
                 rows: Sequence[tuple[tuple, int]]):
        self.names = names = tuple(names)
        self._bit, self._resolved = _signature(names)
        self._cols, codes, off = [], [], 0  # per variable: values, value -> code, field, offset
        for vals in values:
            width = (len(vals) - 1).bit_length()
            codes.append({v: j << off for j, v in enumerate(vals)})
            self._cols.append((vals, codes[-1], ((1 << width) - 1) << off, off))
            off += width
        self._codes = [sum(map(dict.__getitem__, codes, key)) for key, _ in rows]
        self._weights = [n for _, n in rows]
        self._labels: dict[int, tuple] = {}
        self._marg: dict[int, tuple] = {}
        self._laws: dict[tuple, dict] = {}
        self._sci: dict[tuple, bool] = {}

    def mask(self, names: Iterable[str]) -> int:
        """The names' mask; an unknown name raises, naming the least one."""
        bit = self._bit
        m = 0
        for n in names:
            b = bit.get(n)
            if b is None:
                # names before n are known; an iterator resumes after n
                unknown = min(v for v in (n, *names) if v not in bit)
                raise InvalidModel(f"unknown variable {unknown!r}")
            m |= b
        return m

    def _cols_of(self, mask: int) -> list[tuple]:
        return [col for i, col in enumerate(self._cols) if mask >> i & 1]

    def grid(self, mask: int) -> list[tuple]:
        """All value tuples of the masked variables, in declared value order."""
        return list(product(*(col[0] for col in self._cols_of(mask))))

    def field_of(self, mask: int) -> int:
        return sum(col[2] for col in self._cols_of(mask))

    def code(self, mask: int, values: Iterable[str]) -> int | None:
        """The masked variables' values (in name order) as a cell code, or None."""
        try:
            return sum(col[1][v] for col, v in zip(self._cols_of(mask), values))
        except KeyError:
            return None

    def decode(self, mask: int, code: int) -> tuple:
        """The masked variables' values in a cell code."""
        return tuple(vals[(code & f) >> off] for vals, _, f, off in self._cols_of(mask))

    def labels(self, mask: int) -> tuple[int, ...]:
        """Each row's code on the mask, in row order; cached per mask."""
        out = self._labels.get(mask)
        if out is None:
            f = self.field_of(mask)
            out = self._labels[mask] = tuple([c & f for c in self._codes])
        return out

    def marg(self, mask: int) -> tuple[int, dict]:
        """The mask's bit field and its counts: positive masked cell -> n."""
        out = self._marg.get(mask)
        if out is None:
            f = self.field_of(mask)
            counts: dict = {}
            get = counts.get
            for c, n in zip(self._codes, self._weights):
                c &= f
                counts[c] = get(c, 0) + n
            out = self._marg[mask] = f, counts
        return out

    def laws(self, x: int, z: int) -> dict:
        """Positive z cell -> (n(z), {x cell: n(x, z)}), from the marginals."""
        out = self._laws.get((x, z))
        if out is None:
            fx, (fz, nz) = self.field_of(x), self.marg(z)
            out = self._laws[x, z] = {zc: (n, {}) for zc, n in nz.items()}
            for c, n in self.marg(x | z)[1].items():
                out[c & fz][1][c & fx] = n
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
        """n(c) n(z) = n(x, z) n(y, z) on every positive cell c of (x, y, z),
        the four marginals read from the kernel's memo (``marg`` builds a
        missing one), stopping at the first cell that fails.  This alone
        suffices: within a context both sides sum to n(z)^2 over the
        positive cells, and the right side sums to n(z)^2 over every pair of
        positive margins, so no such pair has a zero cell; the same holds
        when X and Y overlap."""
        memo = self._marg
        fz, nz = memo.get(z) or self.marg(z)
        fxz, nxz = memo.get(x | z) or self.marg(x | z)
        fyz, nyz = memo.get(y | z) or self.marg(y | z)
        for c, n in (memo.get(x | y | z) or self.marg(x | y | z))[1].items():
            if n * nz[c & fz] != nxz[c & fxz] * nyz[c & fyz]:
                return False
        return True


def conditional(dist: DiscreteDistribution, targets, given: Assignment) -> dict[tuple, Fraction]:
    """Exact conditional pmf of the target variables (values in sorted name
    order) given a partial assignment with positive probability; only
    target values with positive conditional probability are listed."""
    k = dist.kernel
    x = k.mask(_names(targets))
    g_names = _names(given)
    g = k.mask(g_names)
    law = k.laws(x, g).get(k.code(g, (str(given[n]) for n in g_names)))
    if law is None:
        raise ZeroConditioningEvent(f"P({dict(given)!r}) = 0")
    return {k.decode(x, c): Fraction(n, law[0]) for c, n in law[1].items()}


def conditional_expectation(dist, name: str, given: Assignment,
                            value_map: Callable[[str], Fraction] = Fraction) -> Fraction:
    table = conditional(dist, (name,), given)
    return sum((p * value_map(key[0]) for key, p in table.items()), Fraction(0))


def check_sci(dist: DiscreteDistribution, X, Y, Z) -> bool:
    """Exact factorization check: for every conditioning value with positive
    mass, the joint table of (X, Y) is the product of its margins.  Slots
    given as a name, a tuple of names or a ``VarSet`` are resolved once per
    signature; any other form is resolved on every call."""
    k = dist.kernel
    try:
        x, y, z = k._resolved[X, Y, Z]
    except (KeyError, TypeError):  # a miss, or an unhashable form
        x, y, z = masks = tuple(k.mask(_name_iter(v)) for v in (X, Y, Z))
        if all(type(v) is VarSet or type(v) in (str, tuple) and all(type(n) is str for n in v)
               for v in (X, Y, Z)):
            k._resolved[X, Y, Z] = masks
    return k.sci(x, y, z)


# -- variation independence -------------------------------------------------

DecMap = Mapping[str, Mapping[str, str]]


def dec_kernel(decmap: DecMap, names: Sequence[str],
               regimes: Sequence[str] | None = None) -> MaskKernel:
    """The decision map on the names compiled to a ``MaskKernel`` on their
    sorted set (through ``_compiled``): one weight-1 row per regime (by
    default every regime the map names, sorted), in regime order, each
    name's values numbered by first appearance over the regimes.  Names are
    checked in the order given: first that each is known, then that each is
    total."""
    for n in names:
        if n not in decmap:
            raise InvalidModel(f"unknown decision variable {n!r}")
    if regimes is None:
        regimes = sorted({s for m in decmap.values() for s in m})
    sorted_names = tuple(sorted(set(names)))
    try:
        cols = tuple([tuple([str(decmap[n][s]) for s in regimes]) for n in sorted_names])
    except KeyError:
        n = next(n for n in names if any(s not in decmap[n] for s in regimes))
        raise InvalidModel(f"decision variable {n!r} is not total on the regimes") from None
    return _compiled(sorted_names, cols, len(regimes))


def dec_compile(names: tuple, cols: tuple, n: int) -> MaskKernel:
    """The kernel of n regimes' values of the names, one column per name."""
    rows = list(zip(*cols)) or [()] * n
    return MaskKernel(names, [tuple(dict.fromkeys(c)) for c in cols], [(r, 1) for r in rows])


# The kernels of the maps last compiled by ``dec_kernel``, kept by content
# for the process: a kernel's answers depend on its columns alone.  A
# counterexample search draws small maps that recur (300 VCI trials on three
# binary names over three regimes hit about half the time at 256 entries,
# less at 64 or 16), and the families of a bench pass share a few maps.
_compiled = lru_cache(maxsize=256)(dec_compile)


def check_vci(decmap: DecMap, X, Y, Z, regimes: Sequence[str] | None = None) -> bool:
    """Range check: R(X | y, z) = R(X | z) for every attainable (y, z)."""
    slots = [_names(v, dec=True) for v in (X, Y, Z)]
    k = dec_kernel(decmap, [n for s in slots for n in s], regimes)
    return variation_independent(*[k.labels(k.mask(s)) for s in slots])


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
    xs, g_names = _names(X, dec=True), _names(given)
    k = dec_kernel(decmap, xs + g_names, regimes)
    x, g = k.mask(xs), k.mask(g_names)
    gc = k.code(g, [str(given[n]) for n in g_names])
    out = {k.decode(x, c) for c in {c for c, gl in zip(k.labels(x), k.labels(g)) if gl == gc}}
    if not out:
        raise EmptyContext(f"no regime matches {dict(given)!r}")
    return {v[0] for v in out} if isinstance(X, str) else out


def partition_meet(a: Mapping[str, str], b: Mapping[str, str]) -> dict[str, str]:
    """Finest common coarsening of the partitions induced by two functions on
    the regime space: connected components of the overlap graph.  Each block
    is labelled by its lowest regime label."""
    regimes = sorted(a)
    if sorted(b) != regimes:
        raise InvalidModel("partition_meet arguments live on different regime spaces")
    blocks = block_meet([str(a[s]) for s in regimes], [str(b[s]) for s in regimes])
    return {s: regimes[i] for s, i in zip(regimes, blocks)}


def block_meet(a: Sequence, b: Sequence) -> tuple[int, ...]:
    """The meet of the partitions two parallel label sequences induce on
    their positions, by union-find: one block id per position, the block's
    lowest position."""
    parent = list(range(len(a)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for f in (a, b):
        first: dict = {}
        for i, v in enumerate(f):
            r, t = sorted((find(first.setdefault(v, i)), find(i)))
            parent[t] = r
    return tuple(map(find, range(len(a))))


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
        self._regime = 1 << len(sig)  # the bit of the regime column in ``stacked``
        self._phi_mask: dict[frozenset, int] = {}
        self._vci: dict[tuple, bool] = {}

    @property
    def variables(self) -> dict[str, tuple[str, ...]]:
        return self.dists[self.regimes[0]].values

    def with_decision(self, name: str, mapping: Mapping[str, str]) -> "RegimeFamily":
        dv = dict(self.decvars)
        dv[name] = dict(mapping)
        return RegimeFamily(self.regimes, self.dists, dv, self.info_base)

    # -- exact checks by mask (stochastic slots as masks of the shared
    # signature, decision slots as frozensets of names) -------------------

    @property
    def kernel(self) -> MaskKernel:
        """Kernel of the first regime; it carries the shared name -> bit map."""
        return self.dists[self.regimes[0]].kernel

    def phi_groups(self, phi: frozenset) -> dict[tuple, tuple]:
        """Regimes grouped by their value of the decision names phi (an
        unknown name raises, naming the least one), in sorted value order;
        each group is a tuple in declaration order."""
        out = self._groups.get(phi)
        if out is None:
            k = dec_kernel(self.decvars, sorted(phi), self.regimes)
            groups: dict[tuple, list] = {}
            for s, c in zip(self.regimes, k.labels(-1)):
                groups.setdefault(k.decode(-1, c), []).append(s)
            out = self._groups[phi] = {v: tuple(g) for v, g in sorted(groups.items())}
        return out

    @cached_property
    def stacked(self) -> MaskKernel:
        """Every regime's rows in one kernel: the stochastic names at their
        bits in ``kernel``, a regime column (read by bit, ``_regime``), then
        the decision names in sorted order.  Each row keeps its numerator
        over its regime's denominator, a prior with full support."""
        decs = sorted(self.decvars)
        values = [*self.variables.values(), self.regimes,
                  *(tuple(dict.fromkeys(self.decvars[d][s] for s in self.regimes)) for d in decs)]
        tails = {s: (s, *(self.decvars[d][s] for d in decs)) for s in self.regimes}
        return MaskKernel((*self.variables, "", *decs), values,
                          [(key + tails[s], n) for s in self.regimes for key, n in self.dists[s].rows])

    def phi_mask(self, phi: frozenset) -> int:
        """The stack's mask of the decision names phi (an unknown name
        raises, as in ``phi_groups``), or of the regime column when phi
        identifies the regime, which is exact: both induce one partition of
        the rows.  Kept in ``_phi_mask``, which the checks read first; the
        stack is not built."""
        if len(self.phi_groups(phi)) == len(self.regimes):
            out = self._regime
        else:  # the decision columns follow the regime column, in name order
            out = sum(self._regime << i for i, d in enumerate(sorted(self.decvars), 1) if d in phi)
        self._phi_mask[phi] = out
        return out

    def eci(self, x: int, y: int, z: int, phi: frozenset) -> bool:
        """X _||_ (Y, Sigma) | (Z, phi) as SCI on ``stacked``: X _||_ (Y, R) |
        (Z, phi), R the regime column.  Within a phi group P(X | y, R = s, z)
        = P_s(X | y, z), so the SCI equations ask one law of X given each z
        across the group's positive (y, z): the common witness."""
        d = self._phi_mask.get(phi)  # read inline: a call shows in a warm check_eci
        if d is None:
            d = self.phi_mask(phi)
        return self.stacked.sci(x, y | self._regime, z | d)

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
        """theta _||_ K | phi by ranges on every S_z; cached per
        (K, theta, z, phi)."""
        key = (K, theta, z, phi)
        out = self._vci.get(key)
        if out is None:
            k = dec_kernel(self.decvars, theta | K | phi, self.regimes)
            fx, fy, fz = (dict(zip(self.regimes, k.labels(k.mask(n)))).__getitem__
                          for n in (theta, K, phi))
            out = self._vci[key] = all(
                variation_independent(map(fx, sz), map(fy, sz), map(fz, sz))
                for sz in self.supports(z).values()
            )
        return out

    def supports(self, z: int) -> dict[int, list]:
        """S_z for every outcome z of the masked variables that has positive
        probability in some regime: z cell code -> the regimes, in
        declaration order, in which it does (codes compare across regimes)."""
        out: dict[int, list] = {}
        for s in self.regimes:
            for zc in self.dists[s].kernel.marg(z)[1]:
                out.setdefault(zc, []).append(s)
        return out


def check_complementary(fam: RegimeFamily, names: Iterable[str]) -> bool:
    """True iff the joint map sigma -> values distinguishes every regime,
    i.e. every group of ``phi_groups`` holds exactly one regime."""
    return len(fam.phi_groups(frozenset(_names(names, dec=True)))) == len(fam.regimes)


def _slot_masks(fam: RegimeFamily, stmt: CIStatement) -> tuple[int, ...]:
    """Masks of the stochastic slots, once every name is known to the family
    (else the least unknown name of the first such slot, in left, right,
    cond order, is named) and the decision names identify the regime.  The
    masks are resolved once per signature; the decision names are checked
    once per family."""
    k = fam.kernel
    key = (stmt.left.stoch, stmt.right.stoch, stmt.cond.stoch)
    masks = k._resolved.get(key)
    if masks is None:
        for names in key:
            if unknown := names - k._bit.keys():
                raise InvalidModel(f"unknown stochastic variable {min(unknown)!r}")
        masks = k._resolved[key] = tuple(map(k.mask, key))
    decs = stmt.decision_names
    if decs and fam._phi_mask.get(decs) != fam._regime:  # else known to identify
        if fam.phi_mask(decs) != fam._regime:
            raise NotComplementary(
                f"decision family {tuple(sorted(decs))} does not identify the regime")
    return masks


class WitnessTable:
    """Witness values w(phi; x, z) realizing an extended-independence check:
    the common conditional probability of each left-slot assignment given each
    conditioning assignment, per group of regimes sharing a phi value.
    Entries exist only for contexts with positive probability in at least one
    regime of the group.  The table holds its question (the family, the left
    and conditioning masks and phi); the three name tuples and the entries
    are built on first read, and ``==`` compares the three name tuples and
    the entries."""

    def __init__(self, fam: RegimeFamily, x: int, z: int, phi: frozenset):
        self._fam, self._x, self._z, self._phi = fam, x, z, phi

    phi_vars = cached_property(lambda self: tuple(sorted(self._phi)))
    x_vars = cached_property(lambda self: mask_names(self._x, self._fam.kernel.names))
    z_vars = cached_property(lambda self: mask_names(self._z, self._fam.kernel.names))

    @cached_property
    def entries(self) -> dict:
        """(phi value, x value, z value) -> w, the stack's law of X given
        (Z, phi), in group order; every x value of a positive context is
        listed, zeros included."""
        fam, x, z = self._fam, self._x, self._z
        k, d = fam.stacked, fam.phi_mask(self._phi)
        fd, laws = k.field_of(d), k.laws(x, z | d)
        x_grid = [(k.code(x, xa), xa) for xa in k.grid(x)]
        entries = {}
        for phival, sigmas in fam.phi_groups(self._phi).items():
            dc = k.code(d, sigmas[:1] if d == fam._regime else phival)
            for zc, (n, nx) in laws.items():
                if zc & fd == dc:
                    za = k.decode(z, zc)
                    for xc, xa in x_grid:
                        entries[phival, xa, za] = Fraction(nx.get(xc, 0), n)
        return entries

    def value(self, phi: tuple, x: tuple, z: tuple) -> Fraction | None:
        return self.entries.get((phi, x, z))

    def __eq__(self, other):
        if not isinstance(other, WitnessTable):
            return NotImplemented
        return ((self.phi_vars, self.x_vars, self.z_vars, self.entries)
                == (other.phi_vars, other.x_vars, other.z_vars, other.entries))

    def __repr__(self) -> str:
        return (f"WitnessTable(phi_vars={self.phi_vars!r}, x_vars={self.x_vars!r}, "
                f"z_vars={self.z_vars!r})")


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
    if not fam.eci(x, y, z, phi):
        return False, None
    return True, WitnessTable(fam, x, z, phi)


def check_pairwise_eci(fam: RegimeFamily, stmt: CIStatement) -> bool:
    """Weakening of check_eci: a common witness is required only for each pair
    of regimes within a group; a group of one regime is checked on its own.
    On a finite family the two are one condition, so this returns
    check_eci's verdict.  A witness of the group is one of each pair.
    Conversely, take positive contexts (y, z) under s and (y', z) under t in
    one group: if s and t differ, the pair (s, t) has one witness, so
    P_s(X | y, z) = P_t(X | y', z); if not, the regime's own check, or any
    pair holding it, gives the same.  So the laws of X given each z agree
    across the group, and that common law is a witness."""
    return fam.eci(*_validate_eci_statement(fam, stmt))


def compute_S_z(fam: RegimeFamily, Z, z: Assignment) -> tuple[str, ...]:
    """Regimes for which the outcome z of Z has positive probability."""
    zs = _names(Z)
    mask = fam.kernel.mask(zs)
    for n in zs:
        if n not in z:
            raise InvalidModel(f"no value given for {n!r}")
        if str(z[n]) not in fam.variables[n]:
            raise InvalidModel(f"value {z[n]!r} not declared for {n!r}")
    return tuple(fam.supports(mask).get(fam.kernel.code(mask, (str(z[n]) for n in zs)), ()))


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
    values = dict(fam.variables)
    values[regime_var] = fam.regimes
    for d, m in fam.decvars.items():
        values[d] = tuple(sorted(set(m.values())))
    values = dict(sorted(values.items()))
    # a regime key, the regime and its decision values, in sorted name order
    base = fam.dists[fam.regimes[0]].names
    order = [(*base, regime_var, *fam.decvars).index(n) for n in values]
    # regime s's count n over den_s has mass n * prior(s) / den_s: each
    # regime's counts are scaled onto the least common denominator
    scales = {s: masses[s] / fam.dists[s]._den for s in fam.regimes}
    den = math.lcm(*(f.denominator for f in scales.values()))
    counts: dict[tuple, int] = {}
    for s in fam.regimes:
        tail = (s, *(m[s] for m in fam.decvars.values()))
        scale = scales[s].numerator * (den // scales[s].denominator)
        for key, n in fam.dists[s]._counts.items():
            if len(key) != len(base):
                raise InvalidModel(f"assignment {key!r} does not cover {base}")
            full = key + tail
            counts[tuple(full[i] for i in order)] = n * scale
    checked = all(fam.dists[s].validated for s in fam.regimes)
    prod = DiscreteDistribution.from_counts(values, counts, den, validate=not checked)
    prod.validated = True  # checked regime tables and prior give a valid product
    return prod


def find_dominating(fam: RegimeFamily, subset: Iterable[str] | None = None) -> str | None:
    """Some regime in the subset whose support contains every other member's
    support; ties broken by regime declaration order.  A string is one
    label; an unknown label raises, naming the least one."""
    if subset is not None:
        subset = {subset} if isinstance(subset, str) else set(subset)
        if unknown := subset.difference(fam.regimes):
            raise InvalidModel(f"unknown regime {min(unknown, key=str)!r}")
    labels = [s for s in fam.regimes if subset is None or s in subset]
    if not labels:
        raise InvalidModel("empty regime subset")
    # S_a of every atom a that is positive in some member of the subset
    atoms = fam.supports(fam.kernel.mask(fam.variables)).values()
    covers = [sa for sa in atoms if not set(labels).isdisjoint(sa)]
    return next((s for s in labels if all(s in sa for sa in covers)), None)


def dominating_per_group(fam: RegimeFamily, phi_names: Sequence[str]) -> bool:
    """True iff every group of regimes sharing a phi value has a dominating
    regime."""
    return all(
        find_dominating(fam, sigmas) is not None
        for sigmas in fam.phi_groups(frozenset(_names(phi_names, dec=True))).values()
    )
