"""Word and presentation syntax."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvb3.grammar import ParseError, parse_presentation_text, parse_word
from pvb3.word import Alphabet, Word

AB = Alphabet(("a", "b"))
a, b = AB.gens()


def test_plain_juxtaposition():
    assert parse_word("a b", AB) == a * b
    assert parse_word("a*b", AB) == a * b
    assert parse_word("a  b\ta", AB) == a * b * a


def test_exponents():
    assert parse_word("a^3", AB) == a ** 3
    assert parse_word("a^-2 b", AB) == a ** -2 * b
    assert parse_word("(a b)^-1", AB) == b.inv() * a.inv()


def test_commutator_bracket():
    assert parse_word("[a, b]", AB) == a.comm(b)
    assert parse_word("[a b, a]^2", AB) == (a * b).comm(a) ** 2
    assert parse_word("[[a, b], a]", AB) == a.comm(b).comm(a)


def test_identity_literal():
    assert parse_word("1", AB).is_identity
    assert parse_word("a 1 b", AB) == a * b


def test_comments_are_ignored():
    assert parse_word("a # trailing\n b", AB) == a * b


def test_zero_exponent_is_rejected():
    with pytest.raises(ParseError, match="exponent 0"):
        parse_word("a^0", AB)


def test_exponent_beyond_an_index_is_rejected_at_its_token():
    with pytest.raises(ParseError, match="exponent -99999999999999999999 is too large") as exc:
        parse_word("a b^-99999999999999999999", AB)
    assert (exc.value.line, exc.value.col) == (1, 6)


def test_unknown_generator_reports_position():
    with pytest.raises(ParseError) as exc:
        parse_word("a c", AB)
    assert exc.value.line == 1
    assert exc.value.col == 3
    assert "unknown generator 'c'" in str(exc.value)


def test_empty_and_malformed_input():
    for bad in ("", "a ^", "a^", "(a", "[a b]", "* a", "a )", "2"):
        with pytest.raises(ParseError):
            parse_word(bad, AB)


def test_presentation_round_trip():
    text = """
    # a free abelian pair
    gens: x y
    rel: [x, y]
    rel: x^2 y^-2
    """
    alphabet, relators = parse_presentation_text(text)
    assert alphabet.names == ("x", "y")
    x, y = alphabet.gens()
    assert relators == (x.comm(y), x ** 2 * y ** -2)


def test_presentation_requires_gens_line():
    with pytest.raises(ParseError, match="no gens"):
        parse_presentation_text("rel: a")
    with pytest.raises(ParseError, match="second gens"):
        parse_presentation_text("gens: a\ngens: b")


def test_presentation_reports_bad_relator_line():
    with pytest.raises(ParseError, match="line 3"):
        parse_presentation_text("# c\ngens: a\nrel: a^0")


@st.composite
def words(draw, alphabet=AB, max_len=10):
    n = len(alphabet)
    letters = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
        max_size=max_len))
    return Word(alphabet, tuple(letters))


@given(words())
@settings(max_examples=200)
def test_rendering_round_trips(w):
    if w.is_identity:
        assert parse_word(str(w), AB).is_identity
    else:
        assert parse_word(str(w), AB) == w


@given(words(), words(), words())
@settings(max_examples=100)
def test_factors_cancel_across_their_boundaries(u, v, x):
    # the letters of all factors are reduced together once, at the end
    text = "(%s) (%s)^-1 [%s, %s] * (%s)^2" % (u, u, v, x, v)
    assert parse_word(text, AB) == u * u.inv() * v.comm(x) * v ** 2
