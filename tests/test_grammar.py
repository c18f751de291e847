"""Word and presentation syntax."""

import re
import sys
from dataclasses import dataclass

import pytest
from hypothesis import assume, given, settings
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


@pytest.mark.parametrize("text, col", [
    ("gens: a\nrel: a c", 8),
    ("gens: a\n  rel:  a c # x", 11),
    ("gens: a\n\trel: a^", 9),
])
def test_bad_relator_column_counts_from_the_start_of_its_line(text, col):
    with pytest.raises(ParseError) as exc:
        parse_presentation_text(text)
    assert (exc.value.line, exc.value.col) == (2, col)
    assert exc.value.message.startswith("in rel: on line 2: ")


def test_presentation_lines_break_only_at_newlines():
    # as in a word, a vertical tab is an unexpected character, not a line break
    with pytest.raises(ParseError) as exc:
        parse_presentation_text("gens: a\nrel: a\v c")
    assert str(exc.value) == "line 2, col 7: in rel: on line 2: unexpected character '\\x0b'"
    alphabet, relators = parse_presentation_text("gens: a b\r\nrel: [a, b]\r\n")
    a_, b_ = alphabet.gens()
    assert relators == (a_.comm(b_),)


@pytest.mark.parametrize("text, message", [
    ("gens: a rel: a", "line 1, col 12: unexpected character ':'"),
    ("gens: a b!", "line 1, col 10: unexpected character '!'"),
    ("\tgens: a 2b", "line 1, col 10: expected a generator name, a letter followed by "
                     "letters, digits or '_', found '2'"),
    ("gens: a\u00a0b", "line 1, col 8: unexpected character '\\xa0'"),
    ("gens: a b a", "line 1, col 11: duplicate generator name 'a'"),
    ("\tgens: a, b a", "line 1, col 13: duplicate generator name 'a'"),
    ("gens: a b\nrel: [a, b]\v", "line 2, col 12: in rel: on line 2: "
                                 "unexpected character '\\x0b'"),
])
def test_gens_line_is_read_by_the_tokenizer(text, message):
    # a bad name is reported at its column in the file, and a line loses
    # only the blanks the tokenizer skips, at its ends as in its middle
    with pytest.raises(ParseError) as exc:
        parse_presentation_text(text)
    assert str(exc.value) == message


def test_gens_names_split_at_commas_and_blanks():
    alphabet, _ = parse_presentation_text("  gens:\ta,b ,, c\r # d\nrel: a b c")
    assert alphabet.names == ("a", "b", "c")


def test_exponent_digits_are_decimal_digits_only():
    # a superscript two is a digit to str.isdigit but not to int()
    with pytest.raises(ParseError) as exc:
        parse_word("a^\u00b2", AB)
    assert str(exc.value) == "line 1, col 3: unexpected character '\u00b2'"
    # other decimal digits still count
    assert parse_word("a^\u0663", AB) == a ** 3


def test_end_of_input_after_a_comment_is_at_the_comment():
    with pytest.raises(ParseError) as exc:
        parse_word("a ^ # x", AB)
    assert str(exc.value) == "line 1, col 5: expected 'NUMBER', found 'end of input'"


def test_a_power_of_the_identity_is_reduced_before_it_is_repeated():
    assert parse_word("(a a^-1)^99999999999", AB).is_identity
    assert parse_word("[a, a]^-99999999999 b", AB) == b


def test_parse_word_builds_one_word(monkeypatch):
    built = []
    post_init = Word.__post_init__
    monkeypatch.setattr(Word, "__post_init__", lambda w: built.append(w) or post_init(w))
    w = parse_word("l12 l13^-1 (l23 l12)^2 [l13, l23 l12]^-3 * 1", Alphabet(("l12", "l13", "l23")))
    assert built == [w]


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


# The parser as it was before the token regex, kept as the oracle.

@dataclass(frozen=True)
class _Token:
    kind: str  # NAME NUMBER ^ [ ] ( ) , * - END
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            while i < n and text[i] != "\n":
                i += 1
        elif ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("NUMBER", text[i:j], line, col))
            col += j - i
            i = j
        elif ch in "^[](),*-":
            tokens.append(_Token(ch, ch, line, col))
            i += 1
            col += 1
        else:
            raise ParseError("unexpected character %r" % ch, line, col)
    tokens.append(_Token("END", "", line, col))
    return tokens


class _WordParser:
    def __init__(self, tokens: list[_Token], alphabet: Alphabet):
        self.tokens = tokens
        self.pos = 0
        self.alphabet = alphabet

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def take(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError("expected %r, found %r" % (kind, tok.text or "end of input"),
                             tok.line, tok.col)
        return self.take()

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    def parse_word(self, *, stop=("END",)) -> Word:
        letters: list = []
        first = True
        while True:
            tok = self.peek()
            if tok.kind in stop:
                if first:
                    self.fail("empty word")
                return Word(self.alphabet, tuple(letters))
            if tok.kind == "*":
                if first:
                    self.fail("word cannot start with '*'")
                self.take()
                continue
            letters += self.parse_factor().letters
            first = False

    def parse_factor(self) -> Word:
        atom = self.parse_atom()
        if self.peek().kind == "^":
            self.take()
            k = self.parse_exponent()
            return atom ** k
        return atom

    def parse_exponent(self) -> int:
        sign = 1
        if self.peek().kind == "-":
            self.take()
            sign = -1
        tok = self.expect("NUMBER")
        k = sign * int(tok.text)
        if k == 0:
            raise ParseError("exponent 0 is not allowed", tok.line, tok.col)
        if abs(k) > sys.maxsize:
            raise ParseError("exponent %d is too large" % k, tok.line, tok.col)
        return k

    def parse_atom(self) -> Word:
        tok = self.peek()
        if tok.kind == "NAME":
            self.take()
            try:
                return self.alphabet.gen(tok.text)
            except KeyError:
                raise ParseError("unknown generator %r (alphabet: %s)"
                                 % (tok.text, " ".join(self.alphabet.names)),
                                 tok.line, tok.col) from None
        if tok.kind == "NUMBER":
            if tok.text == "1":
                self.take()
                return self.alphabet.identity()
            raise ParseError("unexpected number %r (only 1 denotes the identity)" % tok.text,
                             tok.line, tok.col)
        if tok.kind == "(":
            self.take()
            inner = self.parse_word(stop=(")",))
            self.expect(")")
            return inner
        if tok.kind == "[":
            self.take()
            left = self.parse_word(stop=(",",))
            self.expect(",")
            right = self.parse_word(stop=("]",))
            self.expect("]")
            return left.comm(right)
        self.fail("expected a generator, '(', '[' or 1, found %r"
                  % (tok.text or "end of input"))


def _oracle_parse_word(text: str, alphabet: Alphabet) -> Word:
    parser = _WordParser(_tokenize(text), alphabet)
    word = parser.parse_word()
    parser.expect("END")
    return word


FRAGMENTS = (
    "a", "b", "a1", "\u00e9", "b_2", "c", "ab",        # names, the last three unknown
    "1", "2", "3", "01", "\u0663",                    # the identity and other numbers
    "^", "-", "0", "99999999999999999999",           # exponents
    "(", ")", "[", ",", "]", "*",
    " ", "#", "# x", "\n", "\t", "\r", "\v", "!", "_",  # layout, comments, strays
)


@st.composite
def texts(draw):
    """A well-formed word text built from the fragments, with up to three
    more fragments spliced in anywhere."""
    def factor(depth):
        shape = draw(st.integers(0, 4 if depth else 0))
        if shape == 0:
            return draw(st.sampled_from(("a", "b", "a1", "\u00e9", "1")))
        if shape == 1:
            return factor(depth - 1) + draw(st.sampled_from(
                ("^2", "^-3", "^ - 01", "^\u0663", "^0", "^-0", "^99999999999999999999")))
        if shape == 2:
            return "(%s)" % factor(depth - 1)
        if shape == 3:
            return "[%s, %s]" % (factor(depth - 1), factor(depth - 1))
        return draw(st.sampled_from((" ", "*"))).join(
            factor(depth - 1) for _ in range(draw(st.integers(1, 3))))

    text = factor(3)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        text = text[:i] + draw(st.sampled_from(FRAGMENTS)) + text[i:]
    return text


def _outcome(parse, text):
    try:
        return parse(text, Alphabet(("a", "b", "a1", "\u00e9")))
    except ParseError as exc:
        return (exc.line, exc.col, exc.message)


@given(texts())
@settings(max_examples=400)
def test_parser_matches_the_oracle(text):
    # repeat no atom so often that the oracle spends seconds on it
    assume(all(int(run) < 10 or int(run) > sys.maxsize for run in re.findall(r"\d+", text)))
    assert _outcome(parse_word, text) == _outcome(_oracle_parse_word, text)
