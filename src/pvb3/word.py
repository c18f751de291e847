"""Freely reduced words over a finite alphabet and substitution maps.

A :class:`Word` is an immutable sequence of signed generator letters that is
freely reduced at construction, so equality of words is equality in the free
group.  Conventions used throughout the package:

    y ** k        k-fold power, negative k inverts
    y.conj(x)     x^-1 y x
    x.comm(y)     x^-1 y^-1 x y

:class:`GenMap` sends each generator of a source alphabet to a word over a
target alphabet and extends to the unique homomorphism of free groups.
"""

from __future__ import annotations

import re
from .intlinalg import IntMatrix, Value

Letter = tuple[int, int]

# In a str pattern \w is exactly str.isalnum() or "_", but no class is
# exactly str.isalpha(), so is_name checks the first character apart.
NAME_CHARS = r"\w+"
_NAME_RUN = re.compile(NAME_CHARS)


def is_name(text: str) -> bool:
    """A generator name: a letter, then letters, digits or '_'."""
    return text[:1].isalpha() and _NAME_RUN.fullmatch(text) is not None


class Alphabet(Value):
    """Ordered, duplicate-free tuple of generator names."""

    _fields = ("names",)

    def __init__(self, names) -> None:
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator names: %r" % (names,))
        for name in names:
            if not is_name(name):  # so that the grammar can read every generator
                raise ValueError("generator name must be a letter followed by letters, "
                                 "digits or '_': %r" % name)
        super().__init__(names)
        object.__setattr__(self, "_at", {name: i for i, name in enumerate(names)})

    def __len__(self) -> int:
        return len(self.names)

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def index(self, name: str) -> int:
        try:
            return self._at[name]
        except KeyError:
            raise KeyError("unknown generator %r, alphabet is %r" % (name, self.names)) from None

    def identity(self) -> "Word":
        return Word(self, ())

    def gen(self, name: str) -> "Word":
        return Word(self, ((self.index(name), 1),))

    def gens(self) -> tuple["Word", ...]:
        return tuple(Word(self, ((i, 1),)) for i in range(len(self.names)))


def free_reduce(letters) -> tuple[Letter, ...]:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[Letter] = []
    for g, s in letters:
        if out and out[-1][0] == g and out[-1][1] == -s:
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def inverse(letters) -> tuple[Letter, ...]:
    """The letters of the inverse word."""
    return tuple((g, -s) for g, s in reversed(letters))


class Word(Value):
    _fields = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: tuple[Letter, ...]) -> None:
        # unrolled, as words are made in every inner loop
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "letters", letters)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the letters and reduce them freely: one call per word made,
        which bench/tracing.py counts."""
        n = len(self.alphabet)
        for g, s in self.letters:
            if not 0 <= g < n:
                raise ValueError("letter index %d out of range" % g)
            if s not in (1, -1):
                raise ValueError("letter sign must be +1 or -1, got %r" % (s,))
        reduced = free_reduce(self.letters)
        if reduced != self.letters:
            object.__setattr__(self, "letters", reduced)

    def __len__(self) -> int:
        return len(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def _require_same_alphabet(self, other: "Word") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("words over different alphabets: %r vs %r"
                             % (self.alphabet.names, other.alphabet.names))

    def __mul__(self, other: "Word") -> "Word":
        self._require_same_alphabet(other)
        return Word(self.alphabet, self.letters + other.letters)

    def inv(self) -> "Word":
        return Word(self.alphabet, inverse(self.letters))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inv() ** (-k)
        return Word(self.alphabet, self.letters * k)

    def conj(self, x: "Word") -> "Word":
        """self conjugated by x, i.e. x^-1 self x."""
        return x.inv() * self * x

    def comm(self, other: "Word") -> "Word":
        """[self, other] = self^-1 other^-1 self other."""
        return self.inv() * other.inv() * self * other

    def cyclic_reduction(self) -> tuple["Word", "Word"]:
        """Return (core, u) with self == u^-1 * core * u and core cyclically reduced."""
        letters = list(self.letters)
        tail: list[Letter] = []
        while len(letters) >= 2 and letters[0][0] == letters[-1][0] \
                and letters[0][1] == -letters[-1][1]:
            tail.append(letters.pop())
            letters.pop(0)
        return Word(self.alphabet, tuple(letters)), Word(self.alphabet, tuple(reversed(tail)))

    def exponent_vector(self) -> tuple[int, ...]:
        """Image in the free abelianisation, one coordinate per generator."""
        v = [0] * len(self.alphabet)
        for g, s in self.letters:
            v[g] += s
        return tuple(v)

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        i = 0
        while i < len(self.letters):
            g, s = self.letters[i]
            j = i
            while j < len(self.letters) and self.letters[j] == (g, s):
                j += 1
            k = s * (j - i)
            name = self.alphabet.names[g]
            parts.append(name if k == 1 else "%s^%d" % (name, k))
            i = j
        return " ".join(parts)


class GenMap(Value):
    """Homomorphism of free groups given on generators.

    ``images[i]`` is the image of generator i of ``source``; all images are
    words over ``target``.
    """

    _fields = ("source", "target", "images")

    def __init__(self, source: Alphabet, target: Alphabet, images) -> None:
        images = tuple(images)
        if len(images) != len(source):
            raise ValueError("need %d images, got %d" % (len(source), len(images)))
        for w in images:
            if w.alphabet != target:
                raise ValueError("image %s is not over the target alphabet" % w)
        super().__init__(source, target, images)

    @staticmethod
    def from_dict(source: Alphabet, target: Alphabet, images: dict) -> "GenMap":
        missing = [n for n in source.names if n not in images]
        if missing:
            raise ValueError("missing images for %r" % (missing,))
        unknown = [n for n in images if n not in source]
        if unknown:
            raise ValueError("images for unknown generators %r" % (unknown,))
        return GenMap(source, target, tuple(images[n] for n in source.names))

    @staticmethod
    def identity(alphabet: Alphabet) -> "GenMap":
        return GenMap(alphabet, alphabet, alphabet.gens())

    def __call__(self, w: Word) -> Word:
        if w.alphabet != self.source:
            raise ValueError("word %s is not over the source alphabet" % w)
        letters = []
        for g, s in w.letters:
            image = self.images[g].letters
            letters.extend(image if s == 1 else ((h, -t) for h, t in reversed(image)))
        return Word(self.target, tuple(letters))

    def then(self, other: "GenMap") -> "GenMap":
        """Composite applying self first, then other."""
        if self.target != other.source:
            raise ValueError("composition mismatch")
        return GenMap(self.source, other.target, tuple(other(w) for w in self.images))

    def abelianisation_matrix(self):
        """Rows are exponent vectors of the generator images."""
        return IntMatrix.from_rows([w.exponent_vector() for w in self.images])
