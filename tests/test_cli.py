import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from separoid import cli
from separoid.cli import main
from separoid.errors import InvalidModel
from separoid.files import parse_fraction

SESSION = """
stochastic X, Y, Z;
premise X _||_ Y | Z;
"""

INEFFECTIVE = {
    "regimes": ["s0", "s1"],
    "variables": {"X": ["0", "1"], "T": ["0", "1"]},
    "decision_vars": {"Sigma": {"s0": "s0", "s1": "s1"}},
    "distributions": {
        "s0": [
            {"assign": {"X": "0", "T": "0"}, "p": "1/2"},
            {"assign": {"X": "1", "T": "0"}, "p": "1/2"},
        ],
        "s1": [
            {"assign": {"X": "0", "T": "1"}, "p": "1/2"},
            {"assign": {"X": "1", "T": "1"}, "p": "1/2"},
        ],
    },
}

ACE_MODEL = {
    "regimes": ["obs", "do0", "do1"],
    "variables": {"T": ["0", "1"], "Y": ["0", "1"]},
    "decision_vars": {"Sigma": {"obs": "obs", "do0": "do0", "do1": "do1"}},
    "distributions": {
        "obs": [
            {"assign": {"T": "0", "Y": "1"}, "p": "1/8"},
            {"assign": {"T": "0", "Y": "0"}, "p": "3/8"},
            {"assign": {"T": "1", "Y": "1"}, "p": "3/8"},
            {"assign": {"T": "1", "Y": "0"}, "p": "1/8"},
        ],
        "do0": [
            {"assign": {"T": "0", "Y": "1"}, "p": "1/4"},
            {"assign": {"T": "0", "Y": "0"}, "p": "3/4"},
        ],
        "do1": [
            {"assign": {"T": "1", "Y": "1"}, "p": "3/4"},
            {"assign": {"T": "1", "Y": "0"}, "p": "1/4"},
        ],
    },
}

GF_MODEL = {
    "regimes": ["obs"],
    "variables": {"L": ["0", "1"], "A": ["0", "1"], "Y": ["0", "1"]},
    "decision_vars": {"Sigma": {"obs": "obs"}},
    "distributions": {
        "obs": [
            {"assign": {"L": l, "A": a, "Y": y},
             "p": f"{(1 + int(l) + 2 * int(a) + int(y))}/24"}
            for l in "01" for a in "01" for y in "01"
        ],
    },
    "info_base": {"stages": [{"observed": ["L"], "action": "A"}], "outcome": ["Y"]},
}

STRATEGY = {
    "label": "always-treat",
    "stages": [
        {"action": "A", "kernel": [
            {"given": {"L": "0"}, "dist": {"0": "0", "1": "1"}},
            {"given": {"L": "1"}, "dist": {"0": "0", "1": "1"}},
        ]}
    ],
}


@pytest.fixture
def session_file(tmp_path):
    p = tmp_path / "session.ci"
    p.write_text(SESSION)
    return str(p)


def write_json(tmp_path, name, data):
    p = tmp_path / name
    p.write_text(json.dumps(data))
    return str(p)


def test_derive_worked_example(session_file, capsys):
    rc = main(["derive", "-s", session_file, "X,Z _||_ Y | Z"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1].startswith("6. X,Z _||_ Y | Z")


def test_derive_json_is_stable(session_file, capsys):
    rc = main(["derive", "-s", session_file, "--json", "X,Z _||_ Y | Z"])
    first = capsys.readouterr().out
    assert rc == 0
    main(["derive", "-s", session_file, "--json", "X,Z _||_ Y | Z"])
    assert capsys.readouterr().out == first
    data = json.loads(first)
    assert data["rules"] == ["P1", "P2", "P3", "P5", "P1"]


def test_derive_failure_exit_code(session_file, capsys):
    rc = main(["derive", "-s", session_file, "X _||_ Y"])
    assert rc == 1


def test_derive_max_steps_cut_reports_truncation(session_file, capsys):
    rc = main(["derive", "-s", session_file, "--max-steps", "3", "X,Z _||_ Y | Z"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "not derivable (search truncated by limits)"
    rc = main(["derive", "-s", session_file, "--max-steps", "3", "--json", "X,Z _||_ Y | Z"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out)["truncated"] is True


def test_derive_left_trivial_goal_outside_guarded_closure(capsys):
    # true, but P1 skips the trivial Y _||_ X | X (see README, NotDerivable)
    rc = main(["derive", "--declare", "stochastic X,Y,Z;", "--json", "X _||_ Y | X"])
    assert rc == 1
    assert json.loads(capsys.readouterr().out) == {
        "derived": False, "goal": "X _||_ Y | X", "truncated": False}


_DEMO = ("stochastic L, U, A, Y; decision Sigma; complementary {Sigma};"
         " premise L, U _||_ Sigma; premise Y _||_ Sigma | A, L, U;"
         " premise A _||_ U | L, Sigma;")


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    """Every ``main`` call parses with one parser, and no call's ``--flag``
    list carries over to the next: each answers as a fresh process would.
    U _||_ Sigma | L on the demo needs P4'' under discrete_variables."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    argv = ["derive", "--rules", "ECI_RESTRICTED", "-e", _DEMO, "U _||_ Sigma | L"]
    flagged = [*argv[:3], "--flag", "discrete_variables", *argv[3:]]
    assert [main(flagged), main(argv), main(flagged), main(argv)] == [0, 1, 0, 1]
    assert built.count("separoid") == 1
    assert cli.build_parser() is not cli.build_parser()  # callers may change theirs


def test_close_contains_goal(session_file, capsys):
    rc = main(["close", "-s", session_file, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert "X,Z _||_ Y | Z" in data["statements"]


def test_check_family(tmp_path, capsys):
    model = write_json(tmp_path, "fam.json", INEFFECTIVE)
    assert main(["check", model, "X _||_ Sigma | T"]) == 0
    capsys.readouterr()
    assert main(["check", model, "X _||_ Sigma, T"]) == 0
    capsys.readouterr()
    rc = main(["check", model, "T _||_ Sigma"])
    assert rc == 1


def test_check_witness_json(tmp_path, capsys):
    model = write_json(tmp_path, "fam.json", INEFFECTIVE)
    rc = main(["check", model, "--json", "X _||_ Sigma | T"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["holds"]
    assert {"phi": [], "x": ["1"], "z": ["0"], "w": "1/2"} in data["witness"]["entries"]


def test_check_single_distribution(tmp_path, capsys):
    single = {
        "variables": {"X": ["0", "1"], "Y": ["0", "1"]},
        "distribution": [
            {"assign": {"X": x, "Y": y}, "p": "1/4"} for x in "01" for y in "01"
        ],
    }
    model = write_json(tmp_path, "single.json", single)
    assert main(["check", model, "X _||_ Y"]) == 0


def test_search_cx_exit_codes(session_file, tmp_path, capsys):
    out = str(tmp_path / "cx.json")
    rc = main(["search-cx", "-s", session_file, "--seed", "0", "--trials", "500",
               "--grid", "1", "--out", out, "X _||_ Y"])
    assert rc == 1
    data = json.loads(open(out).read())
    assert data["found"] and data["report"]["goal"]["holds"] is False
    capsys.readouterr()
    rc = main(["search-cx", "-e", "stochastic X, Y;", "--trials", "50", "X _||_ Y | Y"])
    assert rc == 0
    capsys.readouterr()
    # a session decision variable other than Sigma is drawn on the regimes
    theta = tmp_path / "theta.ci"
    theta.write_text("stochastic X, Y;\ndecision Th;\ncomplementary {Th};\n"
                     "premise X _||_ Y | Th;\n")
    rc = main(["search-cx", "-s", str(theta), "--semantics", "eci", "--trials", "50",
               "--json", "X _||_ Y, Th"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 1 and data["found"]
    assert data["config"]["decision_cardinalities"] == {"Th": 2}


def test_search_cx_not_found_reports_models_tried(capsys):
    # Two binary variables on grid 4: C(4 + 3, 3) = 35 tables, not --trials.
    argv = ["search-cx", "-e", "stochastic X, Y;", "--json", "--grid", "4", "X _||_ Y | Y"]
    assert main(argv + ["--exhaustive"]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": False, "trials": 35}
    assert main(argv + ["--trials", "7"]) == 0
    assert json.loads(capsys.readouterr().out) == {"found": False, "trials": 7}


def test_search_cx_exhaustive_limit_is_four_atoms(capsys):
    # One four-valued variable is four atoms, within the exhaustive limit;
    # five atoms exit 2 with the limit stated as atoms.
    argv = ["search-cx", "-e", "stochastic X;", "--semantics", "sci", "--exhaustive",
            "--grid", "2", "--json", "X _||_ X"]
    assert main(argv + ["--cards", "X=4"]) == 1
    assert json.loads(capsys.readouterr().out)["found"]
    assert main(argv + ["--cards", "X=5"]) == 2
    assert "at most four atoms" in capsys.readouterr().err


def test_product_command(tmp_path, capsys):
    model = write_json(tmp_path, "fam.json", INEFFECTIVE)
    rc = main(["product", model, "s0=1/2,s1=1/2", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    atoms = {tuple(sorted(a["assign"].items())): a["p"] for a in data["distribution"]}
    key = tuple(sorted({"X": "0", "T": "0", "Sigma": "s0", "_regime": "s0"}.items()))
    assert atoms[key] == "1/4"


def test_ace_command(tmp_path, capsys):
    model = write_json(tmp_path, "ace.json", ACE_MODEL)
    rc = main(["ace", model, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert data["transfer_valid"] is True
    assert data["ace_interventional"] == "1/2" == data["ace_observational"]


def test_gformula_command(tmp_path, capsys):
    model = write_json(tmp_path, "gf.json", GF_MODEL)
    strat = write_json(tmp_path, "strategy.json", STRATEGY)
    rc = main(["gformula", model, strat, "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0
    # oracle: single regime, always-treat: E[Y] = sum_l P(l) E[Y | l, A=1]
    from fractions import Fraction as F

    p = {(l, a, y): F(1 + int(l) + 2 * int(a) + int(y), 24)
         for l in "01" for a in "01" for y in "01"}
    want = F(0)
    for l in "01":
        pl = sum(p[(l, a, y)] for a in "01" for y in "01")
        den = p[(l, "1", "0")] + p[(l, "1", "1")]
        want += pl * p[(l, "1", "1")] / den
    assert data["expectation"] == f"{want.numerator}/{want.denominator}"


def test_scan_axioms_command(capsys):
    rc = main(["scan-axioms", "--trials", "5", "--seed", "3", "--json"])
    data = json.loads(capsys.readouterr().out)
    assert rc == 0 and data["violations"] == []


def test_usage_errors_exit_2(tmp_path, capsys):
    assert main(["check", str(tmp_path / "missing.json"), "X _||_ Y"]) == 2
    assert main(["derive", "-e", "stochastic X;", "X _||_"]) == 2
    bad = write_json(tmp_path, "bad.json", {"variables": {}})
    assert main(["check", bad, "X _||_ Y"]) == 2
    capsys.readouterr()
    assert main(["scan-axioms", "--cards", "X"]) == 2
    assert "--cards entry 'X'" in capsys.readouterr().err
    assert main(["scan-axioms", "--exhaustive-vci", "--cards", "A=5"]) == 2
    assert "binary" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["scan-axioms"],
                                  ["search-cx", "-e", "stochastic X, Y;", "X _||_ Y"]],
                         ids=lambda argv: argv[0])
def test_repeated_cards_name_exits_2(capsys, argv):
    # A name given twice in --cards is an error, not the last value silently.
    assert main(argv + ["--cards", "X=2,Y=2, X=3"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --cards names 'X' more than once\n"


def test_repeated_prior_name_exits_2(tmp_path, capsys):
    # A regime given twice in an inline prior is an error, not the last value.
    model = write_json(tmp_path, "fam.json", INEFFECTIVE)
    assert main(["product", model, "s0=1/2,s1=1/4,s1=1/2"]) == 2
    assert capsys.readouterr().err == "error: prior names 's1' more than once\n"


def test_repeated_prior_file_key_exits_2(tmp_path, capsys):
    # Likewise a key repeated in a @prior.json object, which json.load would
    # otherwise collapse to its last value.
    model = write_json(tmp_path, "fam.json", INEFFECTIVE)
    prior = tmp_path / "prior.json"
    prior.write_text('{"s0": "1/4", "s0": "1/2", "s1": "1/2"}', encoding="utf-8")
    assert main(["product", model, f"@{prior}"]) == 2
    assert capsys.readouterr().err == "error: prior names 's0' more than once\n"


@pytest.mark.parametrize("content", ['["s0", "s1"]', '"s0"', "0.5"], ids=["list", "string", "number"])
def test_prior_file_not_an_object_exits_2(tmp_path, capsys, content):
    # A @prior.json file must hold a JSON object; anything else is an error
    # that names the file, not a traceback.
    model = write_json(tmp_path, "fam.json", INEFFECTIVE)
    prior = tmp_path / "prior.json"
    prior.write_text(content, encoding="utf-8")
    assert main(["product", model, f"@{prior}"]) == 2
    assert capsys.readouterr().err == (
        f"error: prior file {str(prior)!r} must hold a JSON object of regime masses\n")


def test_repeated_payoff_outcome_exits_2(tmp_path, capsys):
    # An outcome given twice in the gformula --k payoff map is an error.
    model = write_json(tmp_path, "gf.json", GF_MODEL)
    strat = write_json(tmp_path, "strategy.json", STRATEGY)
    assert main(["gformula", model, strat, "--k", "0=0,1=1,1=5"]) == 2
    assert capsys.readouterr().err == "error: --k names '1' more than once\n"


@pytest.mark.parametrize("argv", [["product", "s0=1"], ["ace"], ["gformula", "strategy.json"]],
                         ids=lambda argv: argv[0])
def test_family_commands_reject_a_single_distribution(tmp_path, capsys, argv):
    single = write_json(tmp_path, "single.json", {
        "variables": {"T": ["0", "1"]},
        "distribution": [{"assign": {"T": "0"}, "p": "1"}],
    })
    assert main([argv[0], single, *argv[1:]]) == 2
    assert capsys.readouterr().err == f"error: {argv[0]} requires a regime-family model\n"


def test_scan_axioms_exhaustive_vci_reads_cards_and_regimes(capsys):
    """--exhaustive-vci takes n_vars from the number of --cards entries
    (default 3) and max_regimes from --regimes, as --help states."""
    with pytest.raises(SystemExit):
        main(["scan-axioms", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "one binary variable per --cards entry (default 3)" in help_text
    assert "at most --regimes regimes" in help_text
    argv = ["scan-axioms", "--exhaustive-vci", "--json"]
    assert main(argv + ["--cards", "A=2,B=2", "--regimes", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 4 + 16  # (2^s)^2, s = 1, 2
    assert main(argv + ["--regimes", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["trials"] == 2 ** 3


def test_scan_axioms_exhaustive_vci_rejects_other_rules_and_flags(capsys):
    # The exhaustive suite is VCI_STRONG without flags: another rule set or a
    # flag is a usage error naming the conflict, never a silent VCI report.
    argv = ["scan-axioms", "--exhaustive-vci", "--regimes", "1", "--json"]
    for extra, named in [(["--rules", "ECI_RESTRICTED"], "--rules ECI_RESTRICTED"),
                         (["--flag", "dominating_regime"], "--flag"),
                         (["--rules", "GENERAL", "--flag", "discrete_variables"],
                          "--rules GENERAL and --flag")]:
        assert main(argv + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == ("error: --exhaustive-vci scans VCI_STRONG without flags; "
                                f"it conflicts with {named}\n")
        assert captured.out == ""
    for extra in ([], ["--rules", "VCI_STRONG"]):
        assert main(argv + extra) == 0
        assert json.loads(capsys.readouterr().out)["rule_set"] == "VCI_STRONG"
    assert main(["scan-axioms", "--trials", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["rule_set"] == "SEPAROID_FULL"


def test_scan_axioms_exhaustive_vci_rejects_empty_regime_spaces(capsys):
    # An exhaustive scan over no regime space would check zero models and
    # report zero violations; it is a usage error, as on the random path.
    for regimes in ("0", "-3"):
        assert main(["scan-axioms", "--exhaustive-vci", "--regimes", regimes]) == 2
        captured = capsys.readouterr()
        assert "max_regimes and n_vars must be >= 1" in captured.err
        assert captured.out == ""


# -- malformed inputs: exit 2 with an error line, never a traceback -------------


def _bad_assign():
    model = json.loads(json.dumps(INEFFECTIVE))
    model["distributions"]["s0"][0]["assign"] = ["X", "T"]
    return model


def _info_base_without(key):
    model = json.loads(json.dumps(GF_MODEL))
    del model["info_base"]["stages"][0][key]
    return model


def _strategy_row(j, key, value):
    strategy = json.loads(json.dumps(STRATEGY))
    strategy["stages"][0]["kernel"][j][key] = value
    return strategy


@pytest.mark.parametrize("model, strategy, argv, named", [
    (GF_MODEL, STRATEGY, ["--k", "0=1"], ""),  # no payoff for the reachable Y=1
    (_info_base_without("observed"), STRATEGY, [], ""),
    (_info_base_without("action"), STRATEGY, [], ""),
    (GF_MODEL, _strategy_row(0, "dist", ["0", "1"]), [], ""),
    (_bad_assign(), None, [], ""),
    (GF_MODEL, _strategy_row(1, "dist", {"0": None, "1": "1"}), [],
     "stage 0: kernel row 1: dist bad rational None"),
    (GF_MODEL, _strategy_row(1, "given", {"L": "1", "Q": "1"}), [],
     "stage 0: kernel row 1: given names ['L', 'Q'] are not the history names ['L']"),
], ids=["payoff-misses-outcome", "stage-without-observed", "stage-without-action",
        "strategy-dist-list", "assign-list", "strategy-dist-null", "strategy-given-outside-history"])
def test_malformed_inputs_exit_2(tmp_path, capsys, model, strategy, argv, named):
    """Each exits 2 with one error line; where ``named`` is given, the line
    names the place of the fault (a strategy's stage and kernel row)."""
    path = write_json(tmp_path, "model.json", model)
    if strategy is None:
        rc = main(["check", path, "X _||_ Sigma | T"])
    else:
        rc = main(["gformula", path, write_json(tmp_path, "strategy.json", strategy)] + argv)
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: " + named) and "Traceback" not in err


def _replaced(doc, path, value):
    """A copy of a JSON document with the value at a key path replaced."""
    out = json.loads(json.dumps(doc))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.mark.parametrize("value", [None, True, ["a"], {"a": 1}],
                         ids=["null", "bool", "list", "object"])
@pytest.mark.parametrize("path, named", [
    (("regimes", 0), "'regimes'"),
    (("variables", "X", 0), "variable 'X'"),
    (("distributions", "s0", 0, "assign", "T"), "regime s0: variable 'T'"),
    (("decision_vars", "Sigma", "s1"), "decision variable 'Sigma' at regime 's1'"),
], ids=["regime", "variables", "assign", "decision_vars"])
def test_model_values_must_be_strings_or_numbers(tmp_path, capsys, path, named, value):
    """A regime label or a value that is not a JSON string or number exits 2,
    naming where it is, rather than be read as its Python text."""
    model = write_json(tmp_path, "model.json", _replaced(INEFFECTIVE, path, value))
    assert main(["check", model, "X _||_ Sigma | T", "--json"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: value {value!r} is not a JSON string or number")


@pytest.mark.parametrize("value", [None, True, ["0"], {"0": 1}],
                         ids=["null", "bool", "list", "object"])
@pytest.mark.parametrize("path, named", [
    (("stages", 0, "kernel", 1, "given", "L"), "stage 0: kernel row 1: given 'L'"),
    (("stages", 0, "action"), "stage 0: 'action'"),
], ids=["given", "action"])
def test_strategy_values_must_be_strings_or_numbers(tmp_path, capsys, path, named, value):
    """A kernel row's given value or a stage's action that is not a JSON
    string or number exits 2, naming the stage and the row, rather than be
    read as its Python text."""
    model = write_json(tmp_path, "gf.json", GF_MODEL)
    strategy = write_json(tmp_path, "strategy.json", _replaced(STRATEGY, path, value))
    assert main(["gformula", model, strategy]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {named}: value {value!r} is not a JSON string or number")


def test_numeric_strategy_values_load_as_their_text(tmp_path, capsys):
    """JSON numbers as a kernel row's given values load as their text."""
    model = write_json(tmp_path, "gf.json", GF_MODEL)
    out = []
    for given in (0, 1), ("0", "1"):
        strategy = STRATEGY
        for j, v in enumerate(given):
            strategy = _replaced(strategy, ("stages", 0, "kernel", j, "given", "L"), v)
        assert main(["gformula", model, write_json(tmp_path, "s.json", strategy), "--json"]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


def test_numeric_model_values_load_as_their_text(tmp_path, capsys):
    """JSON numbers as regime labels, values and masses load as their text."""
    model = {
        "regimes": [0, 1],
        "variables": {"X": [0, 1], "T": [0, 1]},
        "decision_vars": {"Sigma": {"0": 0, "1": 1}},
        "distributions": {str(t): [{"assign": {"X": x, "T": t}, "p": 0.5} for x in (0, 1)]
                          for t in (0, 1)},
    }

    def text(doc):
        if isinstance(doc, dict):
            return {k: text(v) for k, v in doc.items()}
        return [text(v) for v in doc] if isinstance(doc, list) else str(doc)

    out = []
    for doc in (model, text(model)):
        path = write_json(tmp_path, "model.json", doc)
        assert main(["check", path, "X _||_ Sigma | T", "--json"]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1] and '"w": "1/2"' in out[0]


def test_huge_decimal_exponents_are_rejected_at_once(tmp_path, capsys):
    """An exponent beyond 4,300 in magnitude, Python's default digit limit
    for ints parsed from text, exits 2 at once wherever a rational is read;
    one at the limit still parses."""
    assert parse_fraction("1e-4300") == Fraction(1, 10 ** 4300)
    assert parse_fraction("2E+4300") == 2 * 10 ** 4300
    for text in ("1e-4301", "1e99999999", "1e" + "9" * 5000):
        with pytest.raises(InvalidModel):
            parse_fraction(text)
    model = write_json(tmp_path, "model.json", _replaced(
        INEFFECTIVE, ("distributions", "s0", 0, "p"), "1e-99999999"))
    gf = write_json(tmp_path, "gf.json", GF_MODEL)
    strategy = write_json(tmp_path, "strategy.json", _replaced(
        STRATEGY, ("stages", 0, "kernel", 0, "dist", "1"), "1e-99999999"))
    for argv in (["check", model, "X _||_ Sigma | T"],
                 ["gformula", gf, write_json(tmp_path, "s.json", STRATEGY),
                  "--k", "0=1e-99999999,1=1"],
                 ["gformula", gf, strategy]):
        start = time.perf_counter()
        assert main(argv) == 2
        assert time.perf_counter() - start < 1
        assert "exponent beyond 4300" in capsys.readouterr().err


# -- schema mutations: every single-point mutant exits 0, 1 or 2 -------------------

# Valid for check, gformula and ace: L and the kernel of Y given (L, A) are
# the same in every regime, and the do-regimes set A surely.
MUT_MODEL = {
    "regimes": ["obs", "do0", "do1"],
    "variables": {"L": ["0", "1"], "A": ["0", "1"], "Y": ["0", "1"]},
    "decision_vars": {"Sigma": {"obs": "obs", "do0": "do0", "do1": "do1"}},
    "distributions": {
        "obs": [{"assign": {"L": l, "A": a, "Y": y},
                 "p": f"{1 + int(l) + int(a) if y == '1' else 3 - int(l) - int(a)}/16"}
                for l in "01" for a in "01" for y in "01"],
        **{f"do{a}": [{"assign": {"L": l, "A": a, "Y": y},
                       "p": f"{1 + int(l) + int(a) if y == '1' else 3 - int(l) - int(a)}/8"}
                      for l in "01" for y in "01"]
           for a in "01"},
    },
    "info_base": {"stages": [{"observed": ["L"], "action": "A"}], "outcome": ["Y"]},
}
MUT_STRATEGY = {
    "label": "treat-if-L",
    "stages": [{"action": "A", "kernel": [
        {"given": {"L": "0"}, "dist": {"0": "1/2", "1": "1/2"}},
        {"given": {"L": "1"}, "dist": {"0": "0", "1": "1"}},
    ]}],
}
TOKENS = ["", "0", "1", "x", "L", "A", "Y", "obs", "Sigma", "1/2"]


def _paths(doc, prefix=()):
    """Every key or index path into a JSON document, in document order."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _mutants(doc, seed):
    """At every path: drop the key (maps only), and replace the value with a
    list and with a string drawn from TOKENS by a seeded generator."""
    rng = random.Random(seed)
    for path in _paths(doc):
        for kind in ("drop", "list", "string"):
            out = json.loads(json.dumps(doc))
            parent = out
            for key in path[:-1]:
                parent = parent[key]
            if kind == "drop":
                if not isinstance(parent, dict):
                    continue
                del parent[path[-1]]
            elif kind == "list":
                parent[path[-1]] = rng.sample(TOKENS, rng.randrange(3))
            else:
                parent[path[-1]] = rng.choice(TOKENS)
            yield f"{kind} {'/'.join(map(str, path))}", out


def _run_all(tmp_path, capsys, model, strategy):
    m = write_json(tmp_path, "model.json", model)
    s = write_json(tmp_path, "strategy.json", strategy)
    codes = []
    for argv in (["check", m, "Y _||_ Sigma | L, A", "--json"],
                 ["gformula", m, s, "--k", "0=1,1=3"],
                 ["ace", m, "--treatment", "A"]):
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2) and (rc == 2) == err.startswith("error: "), (argv[0], rc, err)
        codes.append(rc)
    return codes


def test_mutation_walk_valid_files_succeed(tmp_path, capsys):
    assert _run_all(tmp_path, capsys, MUT_MODEL, MUT_STRATEGY) == [0, 0, 0]


@pytest.mark.parametrize("which", ["model", "strategy"])
def test_schema_mutants_exit_0_1_or_2(tmp_path, capsys, which):
    doc = MUT_MODEL if which == "model" else MUT_STRATEGY
    n = 0
    for what, mutant in _mutants(doc, seed=20151201):
        pair = (mutant, MUT_STRATEGY) if which == "model" else (MUT_MODEL, mutant)
        try:
            _run_all(tmp_path, capsys, *pair)
        except Exception as e:  # name the mutant whatever escaped main
            raise AssertionError(f"{which} mutant '{what}': {type(e).__name__}: {e}") from e
        n += 1
    assert n > (150 if which == "model" else 30)


# Runs each argv list given as JSON through ``cli.main`` in one process,
# printing each command's output followed by its exit code.
SEEDED_RUN = """
import contextlib, io, json, sys
from separoid.cli import main
out = io.StringIO()
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(out):
        code = main(argv)
    out.write(f"exit {code}\\n")
sys.stdout.write(out.getvalue())
"""


def test_json_output_is_the_same_under_every_hash_seed():
    """The --json output of two derivations and a closure of the demo
    session, a VCI counterexample (which prints a decision map) and two
    short scans, byte for byte, in a fresh process per PYTHONHASHSEED."""
    root = Path(__file__).resolve().parent.parent
    demo = str(root / "demo" / "stability.ci")
    argvs = [
        ["derive", "-s", demo, "--rules", "ECI_RESTRICTED", "--json", "L _||_ Sigma"],
        ["derive", "-s", demo, "--rules", "ECI_RESTRICTED", "--flag", "discrete_variables",
         "--json", "U _||_ Sigma | L"],
        ["close", "-s", demo, "--rules", "ECI_RESTRICTED", "--json"],
        ["search-cx", "-e", "decision A, B, C;", "--semantics", "vci", "--regimes", "3",
         "--cards", "A=2,B=2,C=2", "--trials", "50", "--json", "A _||_ B | C"],
        ["scan-axioms", "--rules", "ECI_RESTRICTED", "--cards", "X=2,Y=2", "--trials", "5",
         "--json"],
        ["scan-axioms", "--rules", "SEPAROID_FULL", "--trials", "5", "--json"],
    ]
    outputs = set()
    for seed in ("0", "9", "37", "101"):
        run = subprocess.run([sys.executable, "-c", SEEDED_RUN, json.dumps(argvs)],
                             capture_output=True,
                             env={**os.environ, "PYTHONHASHSEED": seed,
                                  "PYTHONPATH": str(root / "src")})
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    [out] = outputs
    assert out.count(b"exit 0\n") == 5 and out.count(b"exit 1\n") == 1
    assert b'"decision_vars"' in out and b'"found": true' in out
