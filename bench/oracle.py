"""Reference computations the benchmark checks the package against.

Nothing here calls into ``separoid``'s checkers: every probability is a
direct ``Fraction`` sum over the raw atom table (``dist.pmf``), so a verdict
from the package and a verdict from this module are computed independently.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction
from itertools import product


def _rows(dist):
    """(assignment dict, mass) for every atom of a distribution."""
    return [(dict(zip(dist.names, key)), p) for key, p in dist.pmf.items()]


def _cond_table(rows, targets, given):
    """P(targets | given) as a dict, or None when P(given) = 0."""
    weight = Fraction(0)
    table = {}
    for row, p in rows:
        if all(row[n] == v for n, v in given.items()):
            weight += p
            sub = tuple(row[n] for n in targets)
            table[sub] = table.get(sub, Fraction(0)) + p
    if weight == 0:
        return None
    return {k: v / weight for k, v in table.items()}


def brute_sci(dist, xs, ys, zs) -> bool:
    """X _||_ Y | Z on one distribution, by explicit conditional tables."""
    xs, ys, zs = tuple(sorted(xs)), tuple(sorted(ys)), tuple(sorted(zs))
    if not xs or not ys:
        return True
    rows = _rows(dist)
    for zvals in product(*(dist.values[n] for n in zs)):
        given = dict(zip(zs, zvals))
        pxy = _cond_table(rows, xs + ys, given)
        if pxy is None:
            continue
        px = _cond_table(rows, xs, given)
        py = _cond_table(rows, ys, given)
        for xv in product(*(dist.values[n] for n in xs)):
            for yv in product(*(dist.values[n] for n in ys)):
                joint = pxy.get(xv + yv, Fraction(0))
                if joint != px.get(xv, Fraction(0)) * py.get(yv, Fraction(0)):
                    return False
    return True


def brute_eci(fam, stmt) -> bool:
    """Extended independence ``X _||_ (Y, Theta) | (Z, Phi)`` on a regime
    family: within each group of regimes sharing a value of Phi, one table
    w(x, z) must equal P_s(X = x | Y = y, Z = z) for every regime s of the
    group and every (y, z) of positive mass under s."""
    xs = tuple(sorted(stmt.left.stoch))
    ys = tuple(sorted(stmt.right.stoch))
    zs = tuple(sorted(stmt.cond.stoch))
    phi = tuple(sorted(stmt.cond.dec))
    groups: dict = {}
    for s in fam.regimes:
        key = tuple(fam.decvars[n][s] for n in phi)
        groups.setdefault(key, []).append(s)
    values = fam.variables
    for sigmas in groups.values():
        witness: dict = {}
        for s in sigmas:
            rows = _rows(fam.dists[s])
            for yz in product(*(values[n] for n in ys + zs)):
                given = dict(zip(ys + zs, yz))
                table = _cond_table(rows, xs, given)
                if table is None:
                    continue
                zpart = yz[len(ys):]
                for xv in product(*(values[n] for n in xs)):
                    p = table.get(xv, Fraction(0))
                    have = witness.setdefault((xv, zpart), p)
                    if have != p:
                        return False
    return True


def strategy_expectation(obs_rows, order, actions, kernels, outcome, payoff):
    """E[payoff(outcome)] under a dynamic strategy, by materializing the
    interventional joint stage by stage: each observable is drawn from the
    observational conditional given the full history so far, each action
    from the strategy kernel.  Returns (expectation, joint pmf as a dict keyed
    by sorted-name value tuples)."""
    joint: dict = {}

    def extend(pos, history, weight):
        if pos == len(order):
            key = tuple(history[n] for n in sorted(history))
            joint[key] = joint.get(key, Fraction(0)) + weight
            return
        name = order[pos]
        if name in actions:
            hist_key = tuple(sorted(history.items()))
            for v, p in kernels[actions.index(name)][hist_key].items():
                if p:
                    extend(pos + 1, {**history, name: v}, weight * p)
            return
        table = _cond_table(obs_rows, (name,), history)
        if table is None:
            raise ValueError(f"zero-mass observational context {history!r}")
        for (v,), p in sorted(table.items()):
            if p:
                extend(pos + 1, {**history, name: v}, weight * p)

    extend(0, {}, Fraction(1))
    names = sorted(order)
    y = names.index(outcome)
    total = sum((p * payoff[key[y]] for key, p in joint.items()), Fraction(0))
    return total, joint


def brute_sci_stmt(dist, stmt) -> bool:
    return brute_sci(dist, stmt.left.stoch, stmt.right.stoch, stmt.cond.stoch)


class RawDist:
    """A distribution read straight from its JSON form."""

    def __init__(self, variables: dict, atoms: list):
        self.names = tuple(sorted(variables))
        self.values = {n: tuple(variables[n]) for n in self.names}
        self.decvars: dict = {}
        self.pmf: dict = {}
        for atom in atoms:
            key = tuple(str(atom["assign"][n]) for n in self.names)
            self.pmf[key] = self.pmf.get(key, Fraction(0)) + Fraction(atom["p"])


class RawFamily:
    """A regime family read straight from its JSON form."""

    def __init__(self, data: dict):
        self.regimes = tuple(data["regimes"])
        self.variables = {n: tuple(v) for n, v in data["variables"].items()}
        self.names = tuple(sorted(self.variables))
        self.decvars = {n: dict(m) for n, m in data["decision_vars"].items()}
        self.dists = {s: RawDist(data["variables"], data["distributions"][s])
                      for s in self.regimes}


def model_from_json(data: dict):
    if "regimes" in data:
        return RawFamily(data)
    return RawDist(data["variables"], data["distribution"])


def canonical_digest(statements, rename) -> str:
    """sha256 of a statement set rendered with canonical names (``rename``
    maps each generated name back), one statement per line, sorted."""

    def slot(vs):
        return ",".join(sorted(rename[n] for n in vs.stoch)
                        + sorted(rename[n] for n in vs.dec))

    lines = sorted(
        f"{slot(s.left)} _||_ {slot(s.right)} | {slot(s.cond)}" for s in statements
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()
