import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from separoid.errors import UnknownVariable
from separoid.universe import (
    ComplementarityDecl,
    ReductionRegistry,
    Universe,
    VarSet,
    canonicalize,
    is_reduction,
    join,
    statement,
    well_formed,
)

from conftest import ci, vs


@pytest.fixture
def uni():
    return Universe.of(stochastic=["X", "Y", "Z", "W", "V"], decision=["Th", "Ph", "K"])


def test_canonicalize_sorts_and_dedupes(uni):
    s = statement(uni, ["Y", "X"], ["Z", "Z"], [])
    out = canonicalize(uni, s)
    assert out.left.names == ("X", "Y")
    assert out.right.names == ("Z",)
    assert out.cond.names == ()


def test_canonicalize_idempotent(uni):
    s = statement(uni, ["X", "Y"], ["Th"], ["Z"])
    assert canonicalize(uni, canonicalize(uni, s)) == canonicalize(uni, s)


def test_canonicalize_unknown_variable(uni):
    with pytest.raises(UnknownVariable):
        statement(uni, ["X"], ["Q"], [])
    bad = ci(["X", "Th"], ["Z"])  # decision name in a stochastic field
    with pytest.raises(UnknownVariable):
        canonicalize(uni, bad)


def test_canonicalize_names_the_least_offending_name():
    """Several undeclared names, or names of the other kind: the least such
    name of the first slot that has one, in left, right, cond order,
    whatever order the slots' sets iterate in."""
    u = Universe.of(stochastic=["X", "Y"], decision=["Th", "Ph"])
    cases = [
        (ci(["X", "Q", "P", "R"], ["Y"]), "undeclared variable 'P'"),
        (ci(["X"], ["Y", "Th", "Ph"]), "'Ph' is not a stochastic variable"),
        (ci(["X"], ["Y"], ["Th", "Q", "Ph"]), "'Ph' is not a stochastic variable"),
        (ci(["X"], ["Y"], cdec=["Th", "Z", "Ph", "Y"]), "'Y' is not a decision variable"),
        (ci(["X", "W"], ["Y", "V"]), "undeclared variable 'W'"),
    ]
    for stmt, text in cases:
        with pytest.raises(UnknownVariable) as err:
            canonicalize(u, stmt)
        assert str(err.value) == text


def test_join_examples():
    a, b = vs(["X"], ["Th"]), vs(["Y"])
    assert join(a, b) == vs(["X", "Y"], ["Th"])
    assert join(a, a) == a
    assert join(a, b) == join(b, a)


names_st = st.sets(st.sampled_from(["X", "Y", "Z", "W"]))
dec_st = st.sets(st.sampled_from(["Th", "Ph"]))
varset_st = st.builds(lambda s, d: vs(s, d), names_st, dec_st)


@given(varset_st, varset_st, varset_st)
def test_join_is_semilattice(a, b, c):
    assert join(a, join(b, c)) == join(join(a, b), c)
    assert join(a, b) == join(b, a)
    assert join(a, a) == a


def test_is_reduction_examples(uni):
    reg = ReductionRegistry(uni)
    assert is_reduction(vs(["X"]), vs(["X"]), reg)
    reg.register("W", "Y")
    assert is_reduction(vs(["W"]), vs(["Y", "Z"]), reg)
    reg.register("V", "W")
    assert is_reduction(vs(["V"]), vs(["Y"]), reg)  # transitive closure
    assert not is_reduction(vs(["Z"]), vs(["Y"]), reg)


@given(st.lists(st.tuples(st.sampled_from("XYZWV"), st.sampled_from("XYZWV")), max_size=8),
       st.sets(st.sampled_from("XYZWV")), st.sets(st.sampled_from("XYZWV")),
       st.sets(st.sampled_from("XYZWV")))
def test_is_reduction_quasiorder(pairs, a, b, c):
    reg = ReductionRegistry()
    for child, parent in pairs:
        reg.register(child, parent)
    A, B, C = vs(a), vs(b), vs(c)
    assert is_reduction(A, A, reg)  # reflexive
    if is_reduction(A, B, reg) and is_reduction(B, C, reg):
        assert is_reduction(A, C, reg)  # transitive


def test_reduction_refuses_kind_mixing(uni):
    reg = ReductionRegistry(uni)
    with pytest.raises(ValueError):
        reg.register("Th", "X")
    with pytest.raises(ValueError):
        reg.register("X", "Th")


def test_well_formed_examples():
    comp = ComplementarityDecl.of(["Th", "Ph"], ["K", "Th", "Ph"])
    good = ci(["X"], ["Y"], ["Z"], rdec=["Th"], cdec=["Ph"])
    assert well_formed(good, comp)
    missing = ci(["X"], ["Y"], ["Z"], rdec=["Th"])
    assert not well_formed(missing, comp)  # {Th} alone is not declared
    general = ci(["X"], ["Y"], ["Z"], ldec=["K"], rdec=["Th"], cdec=["Ph"])
    assert well_formed(general, comp, general=True)
    assert not well_formed(general, comp)  # decision name on the left needs the flag


def test_universe_rejects_duplicate_kind_change():
    u = Universe.of(stochastic=["X"])
    with pytest.raises(ValueError):
        u.declare("X", "decision")


def test_varset_hash_is_cached_and_survives_pickling():
    """A VarSet hashes as its (stoch, dec) pair, computed once; a pickled
    copy is rebuilt, so it is equal and hashes alike."""
    a = VarSet(["Y", "X"], ("Th",))
    assert hash(a) == hash((frozenset({"X", "Y"}), frozenset({"Th"}))) == hash(vs("XY", ["Th"]))
    assert a == vs("XY", ["Th"]) and len({a, vs("XY", ["Th"]), vs("XY")}) == 2
    b = pickle.loads(pickle.dumps(a))
    assert b == a and hash(b) == hash(a) and repr(b) == repr(a)


@pytest.mark.parametrize("seed", ["0", "9", "37", "101"])
def test_varset_pickling_holds_under_each_hash_seed(seed):
    """The pickling test, and the test of canonicalize's offending name, in
    a fresh process per PYTHONHASHSEED.  Under 9 and 37 a pickled copy's
    frozensets iterate in another order; the repr lists the sorted names, so
    it does not show that.  For left slot {X, Q, P, R} over {X, Y},
    canonicalize used to name the first unknown name met: R, R, Q and P
    under 0, 9, 37 and 101."""
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = ("import test_universe as t; t.test_varset_hash_is_cached_and_survives_pickling(); "
            "t.test_canonicalize_names_the_least_offending_name()")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path})
    assert run.returncode == 0, run.stderr
    assert repr(vs("YX", ["Th"])) == "VarSet(('X', 'Y'), ('Th',))" == repr(eval(repr(vs("XY", ["Th"]))))


def test_decision_names_computed_once_per_statement():
    """decision_names is kept on the statement; equality, hash and repr do
    not see it."""
    s = ci(["X"], ["Y"], ["Z"], rdec=["Th"], cdec=["Ph", "K"])
    t = ci(["X"], ["Y"], ["Z"], rdec=["Th"], cdec=["Ph", "K"])
    r = repr(t)
    assert s.decision_names == {"Th", "Ph", "K"} and s.decision_names is s.decision_names
    assert s == t and hash(s) == hash(t) and repr(s) == r
