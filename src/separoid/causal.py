"""Causal and statistical applications: ancillarity, sufficiency, average
causal effect transfer, stagewise stability, and the trajectory-sum g-formula
for dynamic treatment strategies."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from .errors import (
    InvalidModel,
    InvalidPayoff,
    InvalidStrategy,
    NotIntervention,
    PositivityViolated,
    ReductionMissing,
    StabilityViolated,
    ZeroConditioningEvent,
)
from .models import (
    RegimeFamily,
    _name_iter,
    check_eci,
    conditional,
    conditional_expectation,
)
from .universe import EMPTY, CIStatement, ReductionRegistry, VarSet, is_reduction


@dataclass(frozen=True)
class InfoBase:
    """Time-ordered alternation of observable groups and action variables,
    ending in the outcome group; optional unmeasured groups per stage."""

    observed: tuple[tuple[str, ...], ...]  # L_1 .. L_n
    actions: tuple[str, ...]  # A_1 .. A_n
    outcome: tuple[str, ...]  # L_{n+1}
    unmeasured: tuple[tuple[str, ...], ...] = ()

    def __post_init__(self):
        if len(self.observed) != len(self.actions):
            raise InvalidModel("alternation broken: need one action per observed group")
        if self.unmeasured and len(self.unmeasured) != len(self.actions):
            raise InvalidModel("need one unmeasured group per stage when present")
        if not self.outcome:
            raise InvalidModel("outcome group must be nonempty")

    @property
    def stages(self) -> int:
        return len(self.actions)

    def validate_names(self, fam: RegimeFamily) -> None:
        for group in (*self.observed, self.outcome, *self.unmeasured):
            for n in group:
                if n not in fam.variables:
                    raise InvalidModel(f"info base names unknown variable {n!r}")
        for a in self.actions:
            if a not in fam.variables:
                raise InvalidModel(f"info base names unknown action {a!r}")

    @classmethod
    def from_dict(cls, data: Mapping) -> "InfoBase":
        """The ``info_base`` block of a model file; every shape error is an
        ``InvalidModel``."""

        def group(value, where: str) -> tuple[str, ...]:
            if not isinstance(value, (list, tuple)) or not all(isinstance(n, str) for n in value):
                raise InvalidModel(f"info base: {where} must be a list of names")
            return tuple(value)

        def listed(key: str) -> list:
            value = data.get(key, [])
            if not isinstance(value, (list, tuple)):
                raise InvalidModel(f"info base: {key!r} must be a list")
            return value

        if not isinstance(data, Mapping):
            raise InvalidModel("info base must be a map")
        observed, actions = [], []
        for i, st in enumerate(listed("stages")):
            if not isinstance(st, Mapping) or "observed" not in st or "action" not in st:
                raise InvalidModel(f"info base: stage {i} needs 'observed' and 'action'")
            if not isinstance(st["action"], str):
                raise InvalidModel(f"info base: stage {i} 'action' must be a name")
            observed.append(group(st["observed"], f"stage {i} 'observed'"))
            actions.append(st["action"])
        outcome = group(data.get("outcome", []), "'outcome'")
        unmeasured = tuple(group(g, "each 'unmeasured' group") for g in listed("unmeasured"))
        return cls(tuple(observed), tuple(actions), outcome, unmeasured)


@dataclass(frozen=True)
class Strategy:
    """Per-stage action kernels for a target interventional regime: stage i
    maps each history assignment (all earlier observed groups and actions) to
    a distribution over the stage action's values."""

    label: str
    actions: tuple[str, ...]
    kernels: tuple  # per stage: {sorted (name, value) pairs -> {value -> Fraction}}

    def kernel(self, stage: int, history: Mapping[str, str]) -> Mapping[str, Fraction]:
        key = tuple(sorted((str(n), str(v)) for n, v in history.items()))
        table = self.kernels[stage]
        try:
            return table[key]
        except KeyError:
            raise InvalidStrategy(
                f"stage {stage}: no kernel row for history {dict(history)!r}"
            ) from None

    def validate(self, fam: RegimeFamily, ib: InfoBase) -> None:
        if self.actions != ib.actions:
            raise InvalidStrategy(
                f"strategy actions {self.actions} do not match the info base {ib.actions}"
            )
        history: set = set()
        for i, table in enumerate(self.kernels):
            values = set(fam.variables[self.actions[i]])
            history.update(ib.observed[i])
            want = sorted(history)
            for j, (key, dist) in enumerate(table.items()):
                if (names := [n for n, _v in key]) != want:
                    raise InvalidStrategy(f"stage {i}: kernel row {j}: given names {names} "
                                          f"are not the history names {want}")
                if sum(dist.values(), Fraction(0)) != 1:
                    raise InvalidStrategy(f"stage {i}: kernel at {dict(key)!r} does not sum to 1")
                for v, p in dist.items():
                    if v not in values:
                        raise InvalidStrategy(f"stage {i}: value {v!r} not declared for "
                                              f"{self.actions[i]!r}")
                    if p < 0:
                        raise InvalidStrategy(f"stage {i}: negative kernel mass at {dict(key)!r}")
            history.add(self.actions[i])


def _regime_invariant(fam: RegimeFamily, left, cond) -> bool:
    """The ``check_eci`` verdict on `left _||_ Sigma | cond`, Sigma the
    regime, asked as the decision-free `left _||_ {} | cond`: one law of
    left given cond shared by every regime, whether or not the family
    declares an identity.  The table ``check_eci`` returns is never read,
    so its names and entries are never built."""
    return check_eci(fam, CIStatement(VarSet(left), EMPTY, VarSet(cond)))[0]


def check_ancillarity(fam: RegimeFamily, T: str | Iterable[str]) -> bool:
    """The marginal law of T, one name or several, is the same in every
    regime (T _||_ Sigma)."""
    return _regime_invariant(fam, tuple(_name_iter(T)), ())


def check_sufficiency(
    fam: RegimeFamily,
    X: str | Iterable[str],
    T: str | Iterable[str],
    registry: ReductionRegistry | None = None,
) -> bool:
    """The conditional law of the data X given the statistic T (each one
    name or several) is regime-invariant (X _||_ Sigma | T); T must be part
    of X or registered as a function of it."""
    xs, ts = frozenset(_name_iter(X)), frozenset(_name_iter(T))
    if not is_reduction(VarSet(ts), VarSet(xs), registry):
        raise ReductionMissing(
            f"{sorted(ts)} is not a subset of {sorted(xs)} and no reduction is registered"
        )
    return _regime_invariant(fam, xs, ts)


@dataclass(frozen=True)
class AceResult:
    ace_interventional: Fraction
    ace_observational: Fraction | None
    transfer_valid: bool


def ace(
    fam: RegimeFamily,
    outcome: str,
    treatment: str,
    labels: Mapping[str, str] | None = None,
    value_map: Callable[[str], Fraction] = Fraction,
) -> AceResult:
    """Average causal effect across the do-regimes, and its observational
    counterpart when transfer is licensed by outcome _||_ Sigma | treatment
    plus positivity of both observational arms."""
    labels = dict(labels or {})
    obs = labels.get("obs", "obs")
    do0 = labels.get("do0", "do0")
    do1 = labels.get("do1", "do1")
    for lbl in (obs, do0, do1):
        if lbl not in fam.dists:
            raise InvalidModel(f"regime {lbl!r} not present in the family")
    if treatment not in fam.variables or outcome not in fam.variables:
        raise InvalidModel("outcome/treatment must be stochastic variables of the family")
    for t, lbl in (("0", do0), ("1", do1)):
        if fam.dists[lbl].probability({treatment: t}) != 1:
            raise NotIntervention(f"regime {lbl!r} does not set {treatment}={t} surely")

    e1 = fam.dists[do1].expectation(outcome, value_map)
    e0 = fam.dists[do0].expectation(outcome, value_map)
    ace_int = e1 - e0

    stable = _regime_invariant(fam, (outcome,), (treatment,))
    positive = all(fam.dists[obs].probability({treatment: t}) > 0 for t in ("0", "1"))
    if stable and positive:
        eo1 = conditional_expectation(fam.dists[obs], outcome, {treatment: "1"}, value_map)
        eo0 = conditional_expectation(fam.dists[obs], outcome, {treatment: "0"}, value_map)
        return AceResult(ace_int, eo1 - eo0, True)
    return AceResult(ace_int, None, False)


def _stage_statements(ib: InfoBase, extended: bool):
    """Each stage's group with the variables observed before it, in stage
    order, the outcome group last."""
    past: list[str] = []
    for i, action in enumerate(ib.actions):
        group = (*ib.observed[i], *(ib.unmeasured[i] if extended and ib.unmeasured else ()))
        yield group, tuple(past)
        past += (*group, action)
    yield ib.outcome, tuple(past)


def _check_stability(fam: RegimeFamily, ib: InfoBase, extended: bool) -> bool:
    ib.validate_names(fam)
    return all(_regime_invariant(fam, group, past)
               for group, past in _stage_statements(ib, extended))


def check_simple_stability(fam: RegimeFamily, ib: InfoBase) -> bool:
    """Stagewise regime-invariance of each observable kernel given the
    observed past."""
    return _check_stability(fam, ib, extended=False)


def check_extended_stability(fam: RegimeFamily, ib: InfoBase) -> bool:
    """Stagewise regime-invariance with the unmeasured groups included."""
    return _check_stability(fam, ib, extended=True)


def g_formula(
    fam: RegimeFamily,
    ib: InfoBase,
    strategy: Strategy,
    k: Mapping | Callable[[tuple], Fraction] | None = None,
    obs: str = "obs",
) -> Fraction:
    """Expectation of k(outcome) under the strategy regime, by exact
    enumeration of trajectories: action factors come from the strategy
    kernels, observable factors from the observational conditionals (licensed
    by simple stability).  Requires positive observational mass on every
    context reachable with positive strategy probability."""
    ib.validate_names(fam)
    strategy.validate(fam, ib)
    if obs not in fam.dists:
        raise InvalidModel(f"observational regime {obs!r} not present in the family")
    if not check_simple_stability(fam, ib):
        raise StabilityViolated("simple stability fails; observational kernels do not transfer")
    obs_dist = fam.dists[obs]

    if k is None:
        kfun = lambda vals: Fraction(vals[0])  # noqa: E731 - identity on a numeric outcome
    elif callable(k):
        kfun = k
    else:
        table = {
            (key if isinstance(key, tuple) else (str(key),)): Fraction(v)
            for key, v in k.items()
        }

        def kfun(vals):
            try:
                return table[vals]
            except KeyError:
                raise InvalidPayoff(f"payoff map has no value for outcome {vals!r}") from None

    return _trajectories(obs_dist, ib, strategy, kfun, 1, {}, Fraction(1), Fraction(0))


def _trajectories(obs_dist, ib: InfoBase, strategy: Strategy, kfun, stage: int,
                  history: dict, weight: Fraction, total: Fraction) -> Fraction:
    """``total`` plus the g-formula terms of the trajectories extending
    ``history`` from ``stage`` on, added in trajectory order."""
    if weight == 0:
        return total
    if stage > ib.stages:
        try:
            table = conditional(obs_dist, tuple(sorted(ib.outcome)), history)
        except ZeroConditioningEvent:
            raise PositivityViolated(dict(history)) from None
        for vals, p in sorted(table.items()):
            total += weight * p * kfun(vals)
        return total
    group = tuple(sorted(ib.observed[stage - 1]))
    try:
        table = conditional(obs_dist, group, history)
    except ZeroConditioningEvent:
        raise PositivityViolated(dict(history)) from None
    action = ib.actions[stage - 1]
    for vals, p in sorted(table.items()):
        if p == 0:
            continue
        hist2 = dict(history)
        hist2.update(zip(group, vals))
        kernel = strategy.kernel(stage - 1, hist2)
        for avalue in sorted(kernel):
            ap = kernel[avalue]
            if ap == 0:
                continue
            hist3 = dict(hist2)
            hist3[action] = avalue
            total = _trajectories(obs_dist, ib, strategy, kfun, stage + 1, hist3, weight * p * ap, total)
    return total
