"""Command-line front end.

Exit codes: 0 derived / statement true / zero violations; 1 not derived /
statement false / counterexample found; 2 usage or input error.  All
machine-readable output goes through ``--json`` with stable keys.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import causal, engine, files, models, search
from .dsl import Session, parse_session, parse_statement, render_statement
from .errors import CIError
from .universe import Universe


def _load_session(args) -> Session:
    text = ""
    if getattr(args, "session", None):
        with open(args.session, encoding="utf-8") as fh:
            text = fh.read()
    if getattr(args, "declare", None):
        text += "\n" + args.declare
    return parse_session(text)


def _limits(args) -> engine.Limits:
    return engine.Limits(max_statements=args.max_stmts, max_depth=args.max_steps)


def _rule_set(args) -> engine.RuleSet:
    return engine.rule_set(args.rules, args.flag or ())


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(text)


def _model_universe(model) -> Universe:
    if isinstance(model, models.RegimeFamily):
        return Universe.of(stochastic=model.variables, decision=model.decvars)
    return Universe.of(stochastic=model.names)


def _cmd_derive(args) -> int:
    ses = _load_session(args)
    goal = parse_statement(args.goal, ses.universe)
    result = engine.prove(
        goal,
        ses.premises,
        _rule_set(args),
        universe=ses.universe,
        registry=ses.registry,
        complementarity=ses.complementarity,
        limits=_limits(args),
    )
    if isinstance(result, engine.NotDerivable):
        _emit(
            args,
            {"derived": False, "truncated": result.truncated,
             "goal": render_statement(goal)},
            f"not derivable{' (search truncated by limits)' if result.truncated else ''}",
        )
        return 1
    _emit(
        args,
        {"derived": True, "steps": result.steps,
         "rules": result.rule_sequence(),
         "proof": engine.derivation_to_dict(result),
         "goal": render_statement(goal)},
        engine.format_proof(result),
    )
    return 0


def _cmd_close(args) -> int:
    ses = _load_session(args)
    result = engine.closure(
        ses.premises,
        _rule_set(args),
        universe=ses.universe,
        registry=ses.registry,
        complementarity=ses.complementarity,
        limits=_limits(args),
    )
    stmts = sorted(render_statement(s) for s in result.statements)
    text = "\n".join(stmts)
    if result.truncated:
        text += "\n# truncated by limits"
    _emit(
        args,
        {"statements": stmts, "truncated": result.truncated, "rounds": result.rounds},
        text,
    )
    return 0


def _dispatch_check(model, stmt):
    if isinstance(model, models.RegimeFamily):
        if stmt.left.dec:
            return models.check_eci_general(model, stmt), None
        if stmt.is_pure("decision"):
            return (
                models.check_vci(model.decvars, stmt.left, stmt.right, stmt.cond,
                                 regimes=model.regimes),
                None,
            )
        return models.check_eci(model, stmt)
    if stmt.decision_names:
        raise CIError("single-distribution model cannot check decision variables")
    return models.check_sci(model, stmt.left, stmt.right, stmt.cond), None


def _witness_payload(table):
    if table is None:
        return None
    return {
        "phi_vars": list(table.phi_vars),
        "x_vars": list(table.x_vars),
        "z_vars": list(table.z_vars),
        "entries": [
            {"phi": list(phi), "x": list(x), "z": list(z), "w": files.format_fraction(v)}
            for (phi, x, z), v in sorted(table.entries.items())
        ],
    }


def _cmd_check(args) -> int:
    model = files.load_model(args.model)
    u = _model_universe(model)
    stmt = parse_statement(args.statement, u)
    holds, witness = _dispatch_check(model, stmt)
    payload = {"statement": render_statement(stmt), "holds": holds}
    if witness is not None and holds:
        payload["witness"] = _witness_payload(witness)
    _emit(args, payload, f"{render_statement(stmt)}: {'TRUE' if holds else 'FALSE'}")
    return 0 if holds else 1


def _unique(pairs, what: str) -> dict:
    """A map from (name, value) pairs; a name given twice is an error, not
    the last value silently."""
    out = {}
    for name, val in pairs:
        if name in out:
            raise ValueError(f"{what} names {name!r} more than once")
        out[name] = val
    return out


def _card(item: str) -> tuple[str, int]:
    """One ``--cards`` entry ``NAME=CARDINALITY``."""
    name, _, card = item.partition("=")
    name = name.strip()
    if not name or not card.strip().isdigit():
        raise ValueError(f"--cards entry {item!r} is not NAME=CARDINALITY")
    return name, int(card)


def _parse_cards(text: str | None) -> dict[str, int]:
    """``--cards "X=2,Y=3"`` as a name -> cardinality map."""
    return _unique(map(_card, text.split(",") if text else []), "--cards")


def _cmd_search_cx(args) -> int:
    ses = _load_session(args)
    goal = parse_statement(args.goal, ses.universe)
    cards = _parse_cards(args.cards)
    if not cards:
        cards = {n: 2 for n in ses.universe.names("stochastic" if args.semantics != "vci" else "decision")}
    # random_family always adds the identity Sigma; other session decision
    # variables are drawn as random functions on the regimes
    decisions = (
        {n: args.regimes for n in ses.universe.names("decision") if n != "Sigma"}
        if args.semantics == "eci" else {}
    )
    cfg = search.SearchConfig(
        seed=args.seed,
        trials=args.trials,
        var_cardinalities=cards,
        regime_count=args.regimes,
        probability_grid=args.grid,
        decision_cardinalities=decisions,
    )
    result = search.search_counterexample(
        ses.premises, goal, cfg, args.semantics.upper(), exhaustive=args.exhaustive
    )
    if result is None:
        _emit(args, {"found": False, "trials": search.model_count(cfg, args.exhaustive)},
              "no counterexample found")
        return 0
    payload = {"found": True, **result.to_dict()}
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(
        args,
        payload,
        f"counterexample at trial {result.trial}"
        + (f" (written to {args.out})" if args.out else "\n" + json.dumps(payload, indent=2, sort_keys=True)),
    )
    return 1


def _parse_fractions(text: str, what: str) -> dict[str, Fraction]:
    """A comma-separated ``name=fraction`` list as a name -> fraction map."""
    pairs = (item.partition("=") for item in text.split(","))
    return _unique(((name.strip(), files.parse_fraction(val.strip())) for name, _, val in pairs),
                   what)


def _parse_prior(text: str) -> dict[str, Fraction]:
    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=lambda pairs: _unique(pairs, "prior"))
        if not isinstance(data, dict):
            raise ValueError(f"prior file {text[1:]!r} must hold a JSON object of regime masses")
        return {str(k): files.parse_fraction(v) for k, v in data.items()}
    return _parse_fractions(text, "prior")


def _load_family(args) -> models.RegimeFamily:
    """The model file of a subcommand that needs a regime family."""
    model = files.load_model(args.model)
    if not isinstance(model, models.RegimeFamily):
        raise CIError(f"{args.command} requires a regime-family model")
    return model


def _cmd_product(args) -> int:
    model = _load_family(args)
    prior = _parse_prior(args.prior)
    dist = models.product_space(model, prior, regime_var=args.regime_var)
    payload = files.distribution_to_dict(dist)
    if args.out:
        files.dump_model(dist, args.out)
        _emit(args, payload, f"product model written to {args.out}")
    else:
        _emit(args, payload, json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _cmd_ace(args) -> int:
    model = _load_family(args)
    labels = {"obs": args.obs, "do0": args.do0, "do1": args.do1}
    result = causal.ace(model, args.outcome, args.treatment, labels)
    payload = {
        "ace_interventional": files.format_fraction(result.ace_interventional),
        "ace_interventional_decimal": float(result.ace_interventional),
        "transfer_valid": result.transfer_valid,
        "ace_observational": (
            None
            if result.ace_observational is None
            else files.format_fraction(result.ace_observational)
        ),
    }
    lines = [
        f"interventional ACE = {payload['ace_interventional']}"
        f" ({float(result.ace_interventional):.6g})",
        f"transfer valid     = {result.transfer_valid}",
    ]
    if result.ace_observational is not None:
        lines.append(
            f"observational ACE  = {payload['ace_observational']}"
            f" ({float(result.ace_observational):.6g})"
        )
    _emit(args, payload, "\n".join(lines))
    return 0 if result.transfer_valid else 1


def _cmd_gformula(args) -> int:
    model = _load_family(args)
    if model.info_base is None:
        raise CIError("model file carries no info_base block")
    ib = causal.InfoBase.from_dict(model.info_base)
    strategy = files.load_strategy(args.strategy)
    k = _parse_fractions(args.k, "--k") if args.k else None
    value = causal.g_formula(model, ib, strategy, k, obs=args.obs)
    _emit(
        args,
        {"strategy": strategy.label, "expectation": files.format_fraction(value),
         "expectation_decimal": float(value)},
        f"E[{strategy.label}] = {files.format_fraction(value)} ({float(value):.6g})",
    )
    return 0


def _cmd_scan_axioms(args) -> int:
    cards = _parse_cards(args.cards)
    if args.exhaustive_vci:
        conflicts = [f"--rules {args.rules}"] if args.rules not in (None, "VCI_STRONG") else []
        conflicts += ["--flag"] if args.flag else []
        if conflicts:
            raise ValueError("--exhaustive-vci scans VCI_STRONG without flags; it conflicts with "
                             + " and ".join(conflicts))
        if any(c != 2 for c in cards.values()):
            raise ValueError("--exhaustive-vci enumerates binary decision maps only; "
                             "every --cards cardinality must be 2")
        report = search.exhaustive_vci_scan(args.regimes, len(cards) if cards else 3)
    else:
        args.rules = args.rules or "SEPAROID_FULL"
        if not cards:
            cards = {"A": 2, "B": 2, "C": 2, "D": 2}
        cfg = search.SearchConfig(
            seed=args.seed,
            trials=args.trials,
            var_cardinalities=cards,
            regime_count=args.regimes,
            probability_grid=args.grid,
            decision_cardinalities=(
                {"Theta": 2} if args.rules in ("ECI_RESTRICTED", "GENERAL") else {}
            ),
        )
        report = search.axiom_soundness_scan(cfg, _rule_set(args))
    text = (
        f"{report.rule_set}: {report.instances} instances over {report.trials} models, "
        f"{len(report.violations)} violation(s)"
    )
    if report.violations:
        text += "\nfirst violation: " + json.dumps(report.violations[0], sort_keys=True)
    _emit(args, report.to_dict(), text)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="separoid",
        description="Conditional-independence calculus and finite-model checking",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def session_opts(sp):
        sp.add_argument("-s", "--session", help="session file with declarations/premises")
        sp.add_argument("-e", "--declare", help="inline declarations (same syntax)")

    def engine_opts(sp):
        sp.add_argument("--rules", default="SEPAROID_FULL",
                        choices=sorted(engine._RULE_SETS))
        sp.add_argument("--flag", action="append", choices=sorted(engine.FLAGS),
                        help="enable a side-condition flag (repeatable)")
        sp.add_argument("--max-steps", type=int, default=engine.Limits().max_depth)
        sp.add_argument("--max-stmts", type=int, default=engine.Limits().max_statements)

    sp = sub.add_parser("derive", help="prove a goal from the session premises")
    session_opts(sp)
    engine_opts(sp)
    sp.add_argument("goal")
    sp.set_defaults(func=_cmd_derive)

    sp = sub.add_parser("close", help="deductive closure of the session premises")
    session_opts(sp)
    engine_opts(sp)
    sp.set_defaults(func=_cmd_close)

    sp = sub.add_parser("check", help="evaluate a statement on a model file")
    sp.add_argument("model")
    sp.add_argument("statement")
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("search-cx", help="search for a separating model")
    session_opts(sp)
    sp.add_argument("goal")
    sp.add_argument("--semantics", default="sci", choices=["sci", "vci", "eci"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=1000)
    sp.add_argument("--grid", type=int, default=2)
    sp.add_argument("--regimes", type=int, default=2)
    sp.add_argument("--cards", help="cardinalities, e.g. X=2,Y=2,Z=2")
    sp.add_argument("--exhaustive", action="store_true",
                    help="enumerate every grid pmf (at most four atoms: the product of the "
                         "--cards cardinalities)")
    sp.add_argument("--out", help="write the counterexample to a JSON file")
    sp.set_defaults(func=_cmd_search_cx)

    sp = sub.add_parser("product", help="mix a family into one joint distribution")
    sp.add_argument("model")
    sp.add_argument("prior", help='e.g. "s0=1/2,s1=1/2" or @prior.json')
    sp.add_argument("--regime-var", default="_regime")
    sp.add_argument("--out")
    sp.set_defaults(func=_cmd_product)

    sp = sub.add_parser("ace", help="average causal effect and transfer check")
    sp.add_argument("model")
    sp.add_argument("--outcome", default="Y")
    sp.add_argument("--treatment", default="T")
    sp.add_argument("--obs", default="obs")
    sp.add_argument("--do0", default="do0")
    sp.add_argument("--do1", default="do1")
    sp.set_defaults(func=_cmd_ace)

    sp = sub.add_parser("gformula", help="strategy expectation by trajectory sum")
    sp.add_argument("model")
    sp.add_argument("strategy")
    sp.add_argument("--k", help='outcome payoff map, e.g. "0=0,1=1" (default: numeric outcome)')
    sp.add_argument("--obs", default="obs")
    sp.set_defaults(func=_cmd_gformula)

    sp = sub.add_parser("scan-axioms", help="soundness scan of a rule family")
    sp.add_argument("--rules", choices=sorted(engine._RULE_SETS), help="default SEPAROID_FULL")
    sp.add_argument("--flag", action="append", choices=sorted(engine.FLAGS))
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--trials", type=int, default=100)
    sp.add_argument("--grid", type=int, default=4)
    sp.add_argument("--regimes", type=int, default=3)
    sp.add_argument("--cards")
    sp.add_argument("--exhaustive-vci", action="store_true",
                    help="exhaustive strong-separoid suite over small decision maps: "
                         "one binary variable per --cards entry (default 3), on "
                         "every regime space of at most --regimes regimes")
    sp.set_defaults(func=_cmd_scan_axioms)

    for name, spx in sub.choices.items():
        spx.add_argument("--json", action="store_true", help="machine-readable output")
    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser``'s parser, built once per process for ``main``; parsing
    leaves it as it was, and nothing else holds it to change it."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CIError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
