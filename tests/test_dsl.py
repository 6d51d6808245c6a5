import pytest
from hypothesis import given, strategies as st

from separoid.dsl import parse_session, parse_statement, render_statement
from separoid.errors import IllFormed, ParseError, UnknownVariable
from separoid.universe import Universe

from conftest import ci


@pytest.fixture
def uni():
    return Universe.of(stochastic=["X", "Y", "Z"], decision=["Theta", "Phi"])


def test_parse_mixed_statement(uni):
    s = parse_statement("X _||_ Y, Theta | Z, Phi", uni)
    assert s.left.names == ("X",)
    assert s.right.names == ("Y", "Theta")
    assert s.cond.names == ("Z", "Phi")
    assert s.right.dec == frozenset({"Theta"})


def test_parse_p2_shape(uni):
    s = parse_statement("X _||_ Y | Y", uni)
    assert s == ci(["X"], ["Y"], ["Y"])


def test_trailing_bar_is_an_error(uni):
    with pytest.raises(ParseError) as exc:
        parse_statement("X _||_ Y |", uni)
    assert exc.value.offset == 10


def test_zero_means_empty_conditioning(uni):
    assert parse_statement("X _||_ Y | 0", uni) == parse_statement("X _||_ Y", uni)


def test_unknown_name(uni):
    with pytest.raises(UnknownVariable):
        parse_statement("X _||_ Q", uni)


names = st.sets(st.sampled_from(["X", "Y", "Z"]), min_size=1)
maybe_dec = st.sets(st.sampled_from(["Theta", "Phi"]))


@given(names, names, st.sets(st.sampled_from(["X", "Y", "Z"])), maybe_dec, maybe_dec)
def test_render_parse_round_trip(left, right, cond, rdec, cdec):
    uni = Universe.of(stochastic=["X", "Y", "Z"], decision=["Theta", "Phi"])
    s = ci(left, right, cond, rdec=rdec, cdec=cdec)
    assert parse_statement(render_statement(s), uni) == s


def test_session_parsing():
    ses = parse_session(
        """
        stochastic X, Y, Z, W;  # comment
        decision Theta, Phi;
        complementary {Theta, Phi};
        reduce W <= Y;
        premise X _||_ Y, Theta | Z, Phi;
        """
    )
    assert ses.universe.kind("Theta") == "decision"
    assert ses.complementarity.is_declared({"Theta", "Phi"})
    assert "Y" in ses.registry.ancestors("W")
    assert ses.registry.reducible_to(["Y"]) == {"W", "Y"}
    assert len(ses.premises) == 1


def test_session_rejects_non_complementary_premise():
    with pytest.raises(IllFormed):
        parse_session(
            "stochastic X, Y; decision Theta, Phi;"
            "complementary {Theta, Phi};"
            "premise X _||_ Y, Theta | 0;"
        )


def test_session_rejects_unknown_declaration():
    with pytest.raises(ParseError):
        parse_session("frobnicate X;")
