"""Text syntax for words and presentations.

Words are written multiplicatively with juxtaposition or ``*``::

    a b^-1 (a b)^2 [a, b]^3

``[u, v]`` is the commutator u^-1 v^-1 u v, ``^`` takes a nonzero integer
exponent, parentheses group, ``1`` is the identity, and ``#`` starts a
comment running to the end of the line.

Presentation files consist of one ``gens:`` line naming the generators and
any number of ``rel:`` lines, one relator each::

    gens: a b
    rel: [a, b]
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .word import Alphabet, Word


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.message = message


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
        letters: list = []  # reduced once at the end, not after every factor
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
        if abs(k) > sys.maxsize:  # Word.__pow__ cannot repeat a tuple that often
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


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a single word over the given alphabet."""
    parser = _WordParser(_tokenize(text), alphabet)
    word = parser.parse_word()
    parser.expect("END")
    return word


def split_names(text: str) -> tuple[str, ...]:
    """Generator names separated by commas, whitespace or both."""
    return tuple(text.replace(",", " ").split())


def parse_presentation_text(text: str) -> tuple[Alphabet, tuple[Word, ...]]:
    """Parse ``gens:``/``rel:`` lines into an alphabet and relator list."""
    alphabet = None
    relator_sources: list[tuple[str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("gens:"):
            if alphabet is not None:
                raise ParseError("second gens: line", lineno, 1)
            names = split_names(line[len("gens:"):])
            if not names:
                raise ParseError("gens: line names no generators", lineno, 1)
            try:
                alphabet = Alphabet(tuple(names))
            except ValueError as exc:
                raise ParseError(str(exc), lineno, 1) from None
        elif line.startswith("rel:"):
            relator_sources.append((line[len("rel:"):], lineno))
        else:
            raise ParseError("expected a gens: or rel: line", lineno, 1)
    if alphabet is None:
        raise ParseError("no gens: line", 1, 1)
    relators = []
    for source, lineno in relator_sources:
        try:
            relators.append(parse_word(source, alphabet))
        except ParseError as exc:
            raise ParseError("in rel: on line %d: %s" % (lineno, exc.message),
                             lineno, exc.col) from None
    return alphabet, tuple(relators)
