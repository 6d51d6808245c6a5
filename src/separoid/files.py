"""JSON file formats: models, regime families, strategies, reports.

Model file (regime family)::

    {"regimes": ["s0", "s1"],
     "variables": {"X": ["0", "1"], "T": ["0", "1"]},
     "decision_vars": {"Sigma": {"s0": "s0", "s1": "s1"}},
     "distributions": {"s0": [{"assign": {"X": "0", "T": "0"}, "p": "1/4"}, ...],
                       "s1": [...]},
     "info_base": {"stages": [{"observed": ["L1"], "action": "A1"}],
                   "outcome": ["Y"],
                   "unmeasured": [["U1"]]}}            # info_base optional

Single-distribution files omit "regimes"/"decision_vars" and carry one
"distribution" list.  Rationals are "num/den" strings; plain integers and
decimal strings are accepted.  Regime labels and values are JSON strings or
numbers.  Atoms not listed have mass zero.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Mapping

from .causal import Strategy
from .errors import InvalidModel, InvalidStrategy
from .models import DiscreteDistribution, RegimeFamily


def parse_fraction(text) -> Fraction:
    """A rational from text.  A decimal exponent is bounded as the mantissa's
    digits are, by Python's default limit of 4,300 digits for an int parsed
    from text, so "1e-99999999" raises rather than build 10^99999999."""
    try:
        exp = re.search(r"e([-+]?[\d_]+)\s*\Z", str(text), re.IGNORECASE)
        if exp and abs(int(exp[1])) > 4300:
            raise ValueError("exponent beyond 4300 in magnitude")
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError) as e:
        raise InvalidModel(f"bad rational {text!r}: {e}") from None


def _text(value, what: str, error: type = InvalidModel) -> str:
    """A regime label, a variable's value or a strategy's action as text.
    JSON null, booleans, lists and objects raise ``error`` rather than be
    read as their Python text."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise error(f"{what}: value {value!r} is not a JSON string or number")
    return str(value)


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def _atoms_to_pmf(variables: Mapping, atoms, where: str) -> dict:
    pmf: dict = {}
    if not isinstance(atoms, list):
        raise InvalidModel(f"{where}: expected a list of atoms")
    for atom in atoms:
        try:
            assign, p = atom["assign"], atom["p"]
        except (TypeError, KeyError):
            raise InvalidModel(f"{where}: atom needs 'assign' and 'p'") from None
        if not isinstance(assign, dict):
            raise InvalidModel(f"{where}: atom 'assign' must be a map")
        if set(assign) != set(variables):
            raise InvalidModel(f"{where}: assignment keys {sorted(assign)} must cover "
                               f"{sorted(variables)}")
        key = tuple(_text(assign[n], f"{where}: variable {n!r}") for n in sorted(variables))
        pmf[key] = pmf.get(key, Fraction(0)) + parse_fraction(p)
    return pmf


def _variables(data: Mapping, kind: str) -> dict:
    variables = data.get("variables")
    if not isinstance(variables, dict) or not variables:
        raise InvalidModel(f"{kind} needs a nonempty 'variables' map")
    for n, vals in variables.items():
        if not isinstance(vals, list):
            raise InvalidModel(f"variable {n!r}: values must be a list")
    return {n: [_text(v, f"variable {n!r}") for v in vals] for n, vals in variables.items()}


def distribution_from_dict(data: Mapping) -> DiscreteDistribution:
    variables = _variables(data, "model")
    atoms = data.get("distribution")
    return DiscreteDistribution(variables, _atoms_to_pmf(variables, atoms, "distribution"))


def family_from_dict(data: Mapping) -> RegimeFamily:
    regimes = data.get("regimes")
    if not isinstance(regimes, list) or not regimes:
        raise InvalidModel("family needs a nonempty 'regimes' list")
    regimes = [_text(r, "'regimes'") for r in regimes]
    variables = _variables(data, "family")
    dists_data = data.get("distributions")
    if not isinstance(dists_data, dict):
        raise InvalidModel("family needs a 'distributions' map keyed by regime")
    dists = {}
    for r in regimes:
        if r not in dists_data:
            raise InvalidModel(f"missing distribution for regime {r!r}")
        dists[r] = DiscreteDistribution(
            variables, _atoms_to_pmf(variables, dists_data[r], f"regime {r}")
        )
    decvars = data.get("decision_vars") or {}
    if not isinstance(decvars, dict) or not all(isinstance(m, dict) for m in decvars.values()):
        raise InvalidModel("'decision_vars' must map each name to a regime -> value map")
    decvars = {n: {s: _text(v, f"decision variable {n!r} at regime {s!r}") for s, v in m.items()}
               for n, m in decvars.items()}
    return RegimeFamily(regimes, dists, decvars, data.get("info_base"))


def model_from_dict(data: Mapping):
    if not isinstance(data, dict):
        raise InvalidModel("a model file holds a JSON object")
    return family_from_dict(data) if "regimes" in data else distribution_from_dict(data)


def _load_json(path: str, error: type):
    """The JSON document in a file; one that does not decode raises `error`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as e:
            raise error(f"{path}: {e}") from None


def load_model(path: str):
    return model_from_dict(_load_json(path, InvalidModel))


def _atoms_to_list(dist: DiscreteDistribution) -> list:
    return [
        {"assign": dict(zip(dist.names, key)), "p": format_fraction(p)}
        for key, p in sorted(dist.atoms())
    ]


def distribution_to_dict(dist: DiscreteDistribution) -> dict:
    return {
        "variables": {n: list(dist.values[n]) for n in dist.names},
        "distribution": _atoms_to_list(dist),
    }


def family_to_dict(fam: RegimeFamily) -> dict:
    out: dict[str, Any] = {
        "regimes": list(fam.regimes),
        "variables": {n: list(v) for n, v in fam.variables.items()},
        "decision_vars": {n: dict(sorted(m.items())) for n, m in sorted(fam.decvars.items())},
        "distributions": {s: _atoms_to_list(fam.dists[s]) for s in fam.regimes},
    }
    if fam.info_base is not None:
        out["info_base"] = fam.info_base
    return out


def model_to_dict(model) -> dict:
    if isinstance(model, RegimeFamily):
        return family_to_dict(model)
    return distribution_to_dict(model)


def dump_model(model, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(model_to_dict(model), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- strategies ---------------------------------------------------------------


def strategy_from_dict(data: Mapping) -> Strategy:
    if not isinstance(data, dict):
        raise InvalidStrategy("a strategy file holds a JSON object")
    label = data.get("label")
    if not isinstance(label, str) or not label:
        raise InvalidStrategy("strategy needs a nonempty 'label'")
    stages = data.get("stages")
    if not isinstance(stages, list):
        raise InvalidStrategy("strategy needs a 'stages' list")
    kernels = []
    actions = []
    for i, st in enumerate(stages):
        try:
            action = st["action"]
            rows = st["kernel"]
        except (TypeError, KeyError):
            raise InvalidStrategy(f"stage {i}: needs 'action' and 'kernel'") from None
        if not isinstance(rows, list):
            raise InvalidStrategy(f"stage {i}: 'kernel' must be a list of rows")
        table: dict = {}
        for j, row in enumerate(rows):
            try:
                given, dist = row["given"], row["dist"]
            except (TypeError, KeyError):
                raise InvalidStrategy(f"stage {i}: kernel rows need 'given' and 'dist'") from None
            if not isinstance(given, dict) or not isinstance(dist, dict):
                raise InvalidStrategy(f"stage {i}: kernel row 'given' and 'dist' must be maps")
            key = tuple(sorted((str(n), _text(v, f"stage {i}: kernel row {j}: given {n!r}",
                                              InvalidStrategy)) for n, v in given.items()))
            if key in table:
                raise InvalidStrategy(f"stage {i}: duplicate kernel row for {dict(given)!r}")
            try:
                table[key] = {str(v): parse_fraction(p) for v, p in dist.items()}
            except InvalidModel as e:
                raise InvalidStrategy(f"stage {i}: kernel row {j}: dist {e}") from None
        actions.append(_text(action, f"stage {i}: 'action'", InvalidStrategy))
        kernels.append(table)
    return Strategy(label, tuple(actions), tuple(kernels))


def load_strategy(path: str):
    return strategy_from_dict(_load_json(path, InvalidStrategy))

