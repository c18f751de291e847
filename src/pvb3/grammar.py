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

import re
import sys

from .word import NAME_CHARS, Alphabet, Word, free_reduce, inverse


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("line %d, col %d: %s" % (line, col, message))
        self.line = line
        self.col = col
        self.message = message


# Tokens are (kind, text, line, col) tuples; the kind of a punctuation
# token is its text.  NAME also takes runs that is_name refuses, those not
# starting with a letter, so that such a run is reported at its first character.
_BLANKS = " \t\r"
_TOKEN = re.compile(r"(?P<NUMBER>\d+)|(?P<NAME>%s)|(?P<PUNCT>[\^\[\](),*-])"
                    r"|(?P<SKIP>[%s]+|#[^\n]*)|(?P<NEWLINE>\n)|(?P<BAD>.)" % (NAME_CHARS, _BLANKS))


def _tokenize(text: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "SKIP":
            continue
        if kind == "NEWLINE":
            line, line_start = line + 1, m.end()
            continue
        piece, col = m.group(), m.start() - line_start + 1
        if kind == "BAD" or (kind == "NAME" and not piece[0].isalpha()):
            raise ParseError("unexpected character %r" % piece[0], line, col)
        tokens.append((piece if kind == "PUNCT" else kind, piece, line, col))
    # a comment runs to the end of its line and does not move the column
    tokens.append(("END", "", line, len(text[line_start:].split("#", 1)[0]) + 1))
    return tokens


def _found(token) -> str:
    return repr(token[1] or "end of input")


def _word(tokens, i: int, alphabet: Alphabet, stop: str) -> tuple[list, int]:
    """The letters of the factors from token i up to a ``stop`` token, and
    the index of that token."""
    letters: list = []  # reduced once, by the Word that parse_word builds
    first = True
    while True:
        kind, _, line, col = tokens[i]
        if kind == stop:
            if first:
                raise ParseError("empty word", line, col)
            return letters, i
        if kind == "*":
            if first:
                raise ParseError("word cannot start with '*'", line, col)
            i += 1
            continue
        atom, i = _atom(tokens, i, alphabet)
        if tokens[i][0] == "^":
            k, i = _exponent(tokens, i + 1)
            atom = free_reduce(atom)  # so that (a a^-1)^k is empty for any k
            atom = (atom if k > 0 else inverse(atom)) * abs(k)
        letters += atom
        first = False


def _exponent(tokens, i: int) -> tuple[int, int]:
    sign = 1
    if tokens[i][0] == "-":
        sign, i = -1, i + 1
    kind, text, line, col = tokens[i]
    if kind != "NUMBER":
        raise ParseError("expected 'NUMBER', found %s" % _found(tokens[i]), line, col)
    # int() may refuse a string of more than 640 digits (the least limit
    # sys.set_int_max_str_digits takes); \d matches the zeros of any script
    if len(text) > 640:
        text = "".join(map(str, map(int, text))).lstrip("0") or "0"
        if len(text) > 640:
            raise ParseError("exponent of %d digits is too large" % len(text), line, col)
    k = sign * int(text)
    if k == 0:
        raise ParseError("exponent 0 is not allowed", line, col)
    if abs(k) > sys.maxsize:  # a tuple cannot be repeated that often
        raise ParseError("exponent %d is too large" % k, line, col)
    return k, i + 1


def _atom(tokens, i: int, alphabet: Alphabet) -> tuple[list, int]:
    kind, text, line, col = tokens[i]
    if kind == "NAME":
        try:
            return [(alphabet.index(text), 1)], i + 1
        except KeyError:
            raise ParseError("unknown generator %r (alphabet: %s)"
                             % (text, " ".join(alphabet.names)), line, col) from None
    if kind == "NUMBER":
        if text == "1":
            return [], i + 1
        raise ParseError("unexpected number %r (only 1 denotes the identity)" % text, line, col)
    if kind == "(":
        inner, i = _word(tokens, i + 1, alphabet, ")")
        return inner, i + 1
    if kind == "[":
        left, i = _word(tokens, i + 1, alphabet, ",")
        right, i = _word(tokens, i + 1, alphabet, "]")
        return [*inverse(left), *inverse(right), *left, *right], i + 1
    raise ParseError("expected a generator, '(', '[' or 1, found %s" % _found(tokens[i]),
                     line, col)


def parse_word(text: str, alphabet: Alphabet) -> Word:
    """Parse a single word over the given alphabet."""
    letters, _ = _word(_tokenize(text), 0, alphabet, "END")
    return Word(alphabet, tuple(letters))


def split_names(text: str) -> tuple[str, ...]:
    """Generator names separated by commas, blanks or both, read by the
    tokenizer; any other token, or a name repeated, is an error at its column."""
    names = []
    for kind, piece, line, col in _tokenize(text)[:-1]:
        if kind == "NAME":
            if piece in names:
                raise ParseError("duplicate generator name %r" % piece, line, col)
            names.append(piece)
        elif kind != ",":
            raise ParseError("expected a generator name, a letter followed by letters, "
                             "digits or '_', found %r" % piece, line, col)
    return tuple(names)


def parse_presentation_text(text: str) -> tuple[Alphabet, tuple[Word, ...]]:
    """Parse ``gens:``/``rel:`` lines into an alphabet and relator list."""
    alphabet = None
    relator_sources: list[tuple[str, int, int]] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):  # as _tokenize counts lines
        line = raw.split("#", 1)[0].strip(_BLANKS)
        if not line:
            continue
        keyword = next((k for k in ("gens:", "rel:") if line.startswith(k)), None)
        if keyword is None:
            raise ParseError("expected a gens: or rel: line", lineno, 1)
        body = line[len(keyword):]
        # the column in the file of the body's first character, less one
        offset = len(raw) - len(raw.lstrip(_BLANKS)) + len(keyword)
        if keyword == "rel:":
            relator_sources.append((body, lineno, offset))
            continue
        if alphabet is not None:
            raise ParseError("second gens: line", lineno, 1)
        try:
            alphabet = Alphabet(split_names(body))
        except ParseError as exc:
            raise ParseError(exc.message, lineno, offset + exc.col) from None
        if not alphabet.names:
            raise ParseError("gens: line names no generators", lineno, 1)
    if alphabet is None:
        raise ParseError("no gens: line", 1, 1)
    relators = []
    for source, lineno, offset in relator_sources:
        try:
            relators.append(parse_word(source, alphabet))
        except ParseError as exc:
            raise ParseError("in rel: on line %d: %s" % (lineno, exc.message),
                             lineno, offset + exc.col) from None
    return alphabet, tuple(relators)
