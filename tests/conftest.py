"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's optimized code paths:
conditional tables are computed by direct Fraction sums over the raw pmf, and
the interventional joint for strategy tests is materialized by stagewise
multiplication, so checker results can be compared against independently
computed values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

import pytest

from separoid.models import DiscreteDistribution, RegimeFamily
from separoid.search import regime_labels
from separoid.universe import CIStatement, VarSet


def dist(variables, rows):
    """Build a distribution from {assignment-dict: mass} rows."""
    return DiscreteDistribution(variables, {tuple(str(r[n]) for n in sorted(variables)): Fraction(p) for r, p in rows})


def vs(stoch=(), dec=()):
    return VarSet(frozenset(stoch), frozenset(dec))


def ci(left, right, cond=(), *, rdec=(), cdec=(), ldec=()):
    return CIStatement(vs(left, ldec), vs(right, rdec), vs(cond, cdec))


# -- independent probability oracles -----------------------------------------


def raw_marginal(pmf, names_all, names):
    idx = [names_all.index(n) for n in names]
    out = {}
    for key, p in pmf.items():
        sub = tuple(key[i] for i in idx)
        out[sub] = out.get(sub, Fraction(0)) + p
    return out


def brute_conditional(distr: DiscreteDistribution, targets, given):
    """P(targets | given) by direct Fraction sums over the raw pmf."""
    names = distr.names
    weight = Fraction(0)
    table = {}
    for key, p in distr.pmf.items():
        row = dict(zip(names, key))
        if all(row[n] == str(v) for n, v in given.items()):
            weight += p
            sub = tuple(row[n] for n in targets)
            table[sub] = table.get(sub, Fraction(0)) + p
    if weight == 0:
        return None
    return {k: v / weight for k, v in table.items()}


def brute_sci(distr: DiscreteDistribution, xs, ys, zs) -> bool:
    """Independence oracle via explicit conditional tables and products: per
    declared z value of positive mass, P(x, y | z) by direct sums over the
    raw pmf, its margins by summing it, and every product of positive
    margins against the joint (a joint is zero wherever a margin is)."""
    xs, ys, zs = tuple(sorted(xs)), tuple(sorted(ys)), tuple(sorted(zs))
    if not xs or not ys:
        return True
    cut = len(xs)
    for zvals in product(*(distr.values[n] for n in zs)) if zs else [()]:
        pxy = brute_conditional(distr, xs + ys, dict(zip(zs, zvals)))
        if pxy is None:
            continue
        px, py = {}, {}
        for key, p in pxy.items():
            px[key[:cut]] = px.get(key[:cut], Fraction(0)) + p
            py[key[cut:]] = py.get(key[cut:], Fraction(0)) + p
        for xv, p in px.items():
            for yv, q in py.items():
                if pxy.get(xv + yv, Fraction(0)) != p * q:
                    return False
    return True


@lru_cache(maxsize=8)
def brute_laws(distr: DiscreteDistribution, xs: tuple, ys: tuple, zs: tuple) -> dict:
    """(y value, z value) -> {x value: P(X = x | y, z)} for every (y, z) of
    positive mass and every declared x value, from one pass of direct
    Fraction sums over the raw pmf, grouped by the (y, z) values a row holds;
    so overlapping slots need no care: a shared name takes one value per
    row, and an x that disagrees with (y, z) has probability 0."""
    cols = [[distr.names.index(n) for n in v] for v in (xs, ys, zs)]
    mass, joint = {}, {}
    for key, p in distr.pmf.items():
        xv, yv, zv = (tuple(key[i] for i in c) for c in cols)
        mass[yv, zv] = mass.get((yv, zv), Fraction(0)) + p
        joint[yv, zv, xv] = joint.get((yv, zv, xv), Fraction(0)) + p
    x_grid = list(product(*(distr.values[n] for n in xs)))
    return {yz: {xv: joint.get((*yz, xv), Fraction(0)) / m for xv in x_grid}
            for yz, m in mass.items() if m}


def brute_eci(fam: RegimeFamily, xs, ys, zs, phi=(), pairwise=False) -> dict | None:
    """Extended independence X _||_ (Y, Theta) | (Z, Phi) from its
    definition: within each group of regimes sharing a value of Phi, one
    table w(x, z) equals P_s(X = x | Y = y, Z = z) (``brute_laws``) for
    every regime s of the group and every (y, z) of positive mass under s.
    Returns the witness entries {(phi value, x value, z value): w}, or None
    if some group has no witness; with ``pairwise``, a witness is asked of
    each pair of regimes within a group (a group of one on its own) and the
    entries are {}."""
    xs, ys, zs, phi = (tuple(sorted(v)) for v in (xs, ys, zs, phi))
    groups: dict = {}
    for s in fam.regimes:
        groups.setdefault(tuple(fam.decvars[n][s] for n in phi), []).append(s)
    entries = {}
    for phival, sigmas in groups.items():
        for part in combinations(sigmas, 2) if pairwise and len(sigmas) > 1 else [sigmas]:
            w: dict = {}
            for s in part:
                for (yv, zv), law in brute_laws(fam.dists[s], xs, ys, zs).items():
                    for xv, p in law.items():
                        if w.setdefault((xv, zv), p) != p:
                            return None
            if not pairwise:
                entries.update(((phival, xv, zv), p) for (xv, zv), p in w.items())
    return entries


def exhaustive_maps(names, max_regimes):
    """Every map of the names to binary values on every regime space
    ``regime_labels(size)``, size 1 to max_regimes: (decmap, regimes)."""
    for size in range(1, max_regimes + 1):
        regimes = regime_labels(size)
        for combo in product(product("01", repeat=size), repeat=len(names)):
            yield {n: dict(zip(regimes, f)) for n, f in zip(names, combo)}, regimes


@lru_cache(maxsize=None)
def brute_vci(fx: tuple, fy: tuple, fz: tuple) -> bool:
    """Variation independence X _||_ Y | Z from its definition, on the
    values X, Y and Z take at each regime of a regime list (parallel
    tuples): for every attainable (y, z), the conditional image
    R(X | y, z) = {X(s) : Y(s) = y, Z(s) = z} equals R(X | z) =
    {X(s) : Z(s) = z}."""
    regimes = range(len(fx))
    return all({fx[t] for t in regimes if (fy[t], fz[t]) == (fy[s], fz[s])}
               == {fx[t] for t in regimes if fz[t] == fz[s]} for s in regimes)


def brute_image(decmap, X, given, regimes) -> set:
    """The conditional image {X(s) : s matches the given partial decision
    assignment} from its definition, over a regime list: each matching
    regime's values of X, a value for a single name given as a string, a
    tuple of the values in sorted name order otherwise."""
    matched = [s for s in regimes if all(decmap[n][s] == v for n, v in given.items())]
    if isinstance(X, str):
        return {decmap[X][s] for s in matched}
    return {tuple(decmap[n][s] for n in sorted(X)) for s in matched}


# -- independent semigraphoid oracle ---------------------------------------------


def brute_semigraphoid(premises):
    """Membership in the semigraphoid that elementary premises a _||_ b | K
    (one stochastic name per outer slot, none of them in K) generate.  The
    elementary statements ({a, b}, K) are closed naively under the one rule
    that generates a semigraphoid's elementary part: a _||_ b | Kc and
    a _||_ c | K hold together exactly when a _||_ c | Kb and a _||_ b | K
    do (Studeny, Probabilistic Conditional Independence Structures, 2005).
    The predicate returned takes a statement X _||_ Y | Z with X and Y
    disjoint from Z.  It holds iff X and Y are disjoint and every a _||_ b
    | K with a in X, b in Y and Z <= K <= XYZ minus {a, b} is in the
    closure: the full-independence model satisfies every disjoint statement
    and no a _||_ a | Z, so overlapping outer slots never follow."""
    closed = set()
    for p in premises:
        (a,), (b,), k = p.left.stoch, p.right.stoch, p.cond.stoch
        assert a != b and not {a, b} & k, p
        closed.add((frozenset({a, b}), k))
    grown = True
    while grown:
        grown = False
        for pair, k in list(closed):
            for a in pair:
                (b,) = pair - {a}
                for c in k:
                    base = k - {c}
                    if (frozenset({a, c}), base) in closed:
                        new = {(frozenset({a, c}), base | {b}), (pair, base)} - closed
                        closed |= new
                        grown = grown or bool(new)

    def holds(stmt) -> bool:
        x, y, z = stmt.left.stoch, stmt.right.stoch, stmt.cond.stoch
        assert x and y and not (x | y) & z, stmt
        if x & y:
            return False
        rest = x | y
        return all((frozenset({a, b}), z | frozenset(extra)) in closed
                   for a in x for b in y
                   for n in range(len(rest) - 1)
                   for extra in combinations(sorted(rest - {a, b}), n))

    return holds


# -- canonical small models ----------------------------------------------------


@pytest.fixture
def xor_model():
    """X, Y fair independent coins, W = X xor Y."""
    vars_ = {"X": ["0", "1"], "Y": ["0", "1"], "W": ["0", "1"]}
    rows = []
    for x in "01":
        for y in "01":
            rows.append(({"X": x, "Y": y, "W": str(int(x) ^ int(y))}, Fraction(1, 4)))
    return dist(vars_, rows)


@pytest.fixture
def two_fair_coins():
    vars_ = {"X": ["0", "1"], "Y": ["0", "1"]}
    rows = [({"X": x, "Y": y}, Fraction(1, 4)) for x in "01" for y in "01"]
    return dist(vars_, rows)


def interventional_pair(p0, p1):
    """Two-regime family: regime sj sets T=j surely, X has law pj on {0,1}."""
    vars_ = {"X": ["0", "1"], "T": ["0", "1"]}
    dists = {}
    for j, p in (("0", p0), ("1", p1)):
        rows = [({"X": "1", "T": j}, p), ({"X": "0", "T": j}, 1 - p),
                ({"X": "1", "T": str(1 - int(j))}, Fraction(0)),
                ({"X": "0", "T": str(1 - int(j))}, Fraction(0))]
        dists[f"s{j}"] = dist(vars_, rows)
    return RegimeFamily(["s0", "s1"], dists, {"Sigma": {"s0": "s0", "s1": "s1"}})


# -- exhaustive grid of two-regime families ------------------------------------


def grid_pmfs(n_atoms, grid):
    def comps(total, parts):
        if parts == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in comps(total - head, parts - 1):
                yield (head,) + rest

    yield from comps(grid, n_atoms)


def grid_families(grid=4):
    """Every 2-regime family over two binary variables with atom masses on a
    1/grid lattice, identity decision variable included."""
    vars_ = {"X": ["0", "1"], "Y": ["0", "1"]}
    atoms = [(x, y) for x in "01" for y in "01"]  # sorted names: X, Y
    pmfs = [
        {a: Fraction(m, grid) for a, m in zip(atoms, masses)}
        for masses in grid_pmfs(4, grid)
    ]
    sigma = {"Sigma": {"r0": "r0", "r1": "r1"}}
    for i, p0 in enumerate(pmfs):
        d0 = DiscreteDistribution(vars_, p0, validate=False)
        for p1 in pmfs:
            d1 = DiscreteDistribution(vars_, p1, validate=False)
            yield RegimeFamily(["r0", "r1"], {"r0": d0, "r1": d1}, sigma)


def sigma_statements():
    """Well-formed statements over {X, Y} with the identity decision variable
    placed on either side of the bar."""
    stoch = [(), ("X",), ("Y",), ("X", "Y")]
    out = []
    for left in [("X",), ("Y",), ("X", "Y")]:
        for rs in stoch:
            for cs in stoch:
                out.append(ci(left, rs, cs, rdec=("Sigma",)))
                if rs:
                    out.append(ci(left, rs, cs, cdec=("Sigma",)))
    return out


# -- independent interventional materializer for strategy tests -----------------


def materialize_strategy_joint(obs: DiscreteDistribution, ib, strategy):
    """Build the full interventional joint by stagewise multiplication of
    observational observable-kernels and strategy action-kernels, using only
    raw pmf sums."""
    order: list[str] = []
    for i in range(ib.stages):
        order.extend(sorted(ib.observed[i]))
        order.append(ib.actions[i])
    order.extend(sorted(ib.outcome))
    names_all = obs.names
    pmf_out: dict[tuple, Fraction] = {}

    def extend(pos, history, weight):
        if pos == len(order):
            key = tuple(str(history[n]) for n in sorted(history))
            pmf_out[key] = pmf_out.get(key, Fraction(0)) + weight
            return
        name = order[pos]
        stage = None
        for i, a in enumerate(ib.actions):
            if a == name:
                stage = i
        if stage is not None:
            kernel = strategy.kernel(stage, history)
            for v, p in kernel.items():
                if p:
                    extend(pos + 1, {**history, name: v}, weight * p)
            return
        # observable: conditional from the raw observational pmf
        num = {}
        den = Fraction(0)
        for key, p in obs.pmf.items():
            row = dict(zip(names_all, key))
            if all(row[n] == history[n] for n in history):
                den += p
                num[row[name]] = num.get(row[name], Fraction(0)) + p
        if den == 0:
            raise AssertionError(f"oracle hit a zero-mass context {history!r}")
        for v, p in num.items():
            if p:
                extend(pos + 1, {**history, name: v}, weight * p / den)

    extend(0, {}, Fraction(1))
    variables = {n: obs.values[n] for n in order}
    full = {}
    for key_vals in product(*(variables[n] for n in sorted(order))):
        full[key_vals] = pmf_out.get(key_vals, Fraction(0))
    return DiscreteDistribution(variables, full)
