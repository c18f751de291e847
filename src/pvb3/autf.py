"""Automorphisms of free groups, with the basis-conjugating family.

An :class:`Automorphism` carries both directions of a free-group
automorphism so that arbitrary words in automorphisms can be evaluated.
Products are written in application order:

    (f * g)(w) == g(f(w))

so a product of automorphisms reads left to right, like the word it came
from.  Both this order and the reversed one satisfy the defining relations
of the basis-conjugating group (the relations are reversal-symmetric); one
order has to be pinned for the package and this is it.

``epsilon(n, i, j)`` is the automorphism of F_n = <x1, ..., xn> sending
x_i to x_j^-1 x_i x_j and fixing the other generators.
"""

from __future__ import annotations

from itertools import permutations

from .fpres import pv3_new_generators, pv3_new_presentation, pv_presentation
from .intlinalg import Value
from .word import Alphabet, GenMap, Word


class Automorphism(Value):
    _fields = ("forward", "backward")

    def __init__(self, forward: GenMap, backward: GenMap) -> None:
        f, b = forward, backward
        if f.source != f.target or f.source != b.source or b.source != b.target:
            raise ValueError("automorphism must be an endomorphism of one alphabet")
        ident = GenMap.identity(f.source)
        if f.then(b) != ident or b.then(f) != ident:
            raise ValueError("forward and backward maps are not mutually inverse")
        super().__init__(forward, backward)

    @classmethod
    def _unchecked(cls, forward: GenMap, backward: GenMap) -> "Automorphism":
        """For maps known to be mutually inverse: skips the check in __init__."""
        out = object.__new__(cls)
        Value.__init__(out, forward, backward)
        return out

    @property
    def alphabet(self) -> Alphabet:
        return self.forward.source

    @staticmethod
    def identity(alphabet: Alphabet) -> "Automorphism":
        e = GenMap.identity(alphabet)
        return Automorphism._unchecked(e, e)

    @staticmethod
    def inner(w: Word) -> "Automorphism":
        """Conjugation x |-> w^-1 x w."""
        fw = GenMap(w.alphabet, w.alphabet, tuple(x.conj(w) for x in w.alphabet.gens()))
        bw = GenMap(w.alphabet, w.alphabet, tuple(x.conj(w.inv()) for x in w.alphabet.gens()))
        return Automorphism(fw, bw)

    def __call__(self, w: Word) -> Word:
        return self.forward(w)

    def inv(self) -> "Automorphism":
        return Automorphism._unchecked(self.backward, self.forward)

    def __mul__(self, other: "Automorphism") -> "Automorphism":
        return Automorphism._unchecked(self.forward.then(other.forward),
                                       other.backward.then(self.backward))

    def is_identity(self) -> bool:
        return self.forward == GenMap.identity(self.alphabet)

    def is_inner_by(self, w: Word) -> bool:
        return self.forward == Automorphism.inner(w).forward


def word_automorphism(w: Word, images) -> Automorphism:
    """Evaluate a word letter by letter in the given automorphisms.

    ``images[i]`` is substituted for generator i of the word's alphabet;
    composition is in application order, so the value of ``a b`` applies the
    image of ``a`` first.
    """
    images = tuple(images)
    if len(images) != len(w.alphabet):
        raise ValueError("need %d automorphisms, got %d" % (len(w.alphabet), len(images)))
    if not images:
        raise ValueError("empty alphabet")
    out = Automorphism.identity(images[0].alphabet)
    for g, s in w.letters:
        out = out * (images[g] if s == 1 else images[g].inv())
    return out


def free_alphabet(n: int) -> Alphabet:
    return Alphabet(tuple("x%d" % (i + 1) for i in range(n)))


def epsilon(n: int, i: int, j: int) -> Automorphism:
    """Basis-conjugating automorphism of F_n: x_i |-> x_j^-1 x_i x_j."""
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise ValueError("need distinct indices in 1..%d, got (%d, %d)" % (n, i, j))
    alphabet = free_alphabet(n)
    xs = alphabet.gens()
    fw = list(xs)
    bw = list(xs)
    fw[i - 1] = xs[i - 1].conj(xs[j - 1])
    bw[i - 1] = xs[i - 1].conj(xs[j - 1].inv())
    return Automorphism(GenMap(alphabet, alphabet, tuple(fw)),
                        GenMap(alphabet, alphabet, tuple(bw)))


def _commute(f: Automorphism, g: Automorphism) -> bool:
    return (f * g).forward == (g * f).forward


def mccool_disjoint_commutators(n: int) -> list[tuple[str, bool]]:
    """[eij, ekl] = 1 whenever {i,j} and {k,l} are disjoint."""
    out = []
    seen = set()
    for i, j, k, l in permutations(range(1, n + 1), 4):
        key = frozenset(((i, j), (k, l)))
        if key in seen:
            continue
        seen.add(key)
        out.append(("[e%d%d, e%d%d]" % (i, j, k, l),
                    _commute(epsilon(n, i, j), epsilon(n, k, l))))
    return out


def mccool_same_target_commutators(n: int) -> list[tuple[str, bool]]:
    """[eij, ekj] = 1 for distinct i, k conjugating into the same x_j."""
    out = []
    for j in range(1, n + 1):
        rest = [i for i in range(1, n + 1) if i != j]
        for a in range(len(rest)):
            for b in range(a + 1, len(rest)):
                i, k = rest[a], rest[b]
                out.append(("[e%d%d, e%d%d]" % (i, j, k, j),
                            _commute(epsilon(n, i, j), epsilon(n, k, j))))
    return out


def mccool_triple_relations(n: int) -> list[tuple[str, bool]]:
    """eki ekj eij = eij ekj eki for pairwise distinct k, i, j."""
    out = []
    for k, i, j in permutations(range(1, n + 1), 3):
        a, b, c = epsilon(n, k, i), epsilon(n, k, j), epsilon(n, i, j)
        out.append(("e%d%d e%d%d e%d%d = e%d%d e%d%d e%d%d"
                    % (k, i, k, j, i, j, i, j, k, j, k, i),
                    (a * b * c).forward == (c * b * a).forward))
    return out


def pv_relators_in_cb(n: int = 3) -> list[tuple[str, bool]]:
    """Send lij to eij and evaluate each pure-virtual-braid relator.

    A True verdict means the relator's composite is the identity
    endomorphism, so the assignment extends to the presented group.
    """
    pres = pv_presentation(n)
    images = tuple(epsilon(n, int(name[1]), int(name[2]))
                   for name in pres.alphabet.names)
    return [(str(r), word_automorphism(r, images).is_identity())
            for r in pres.relators]


def composition_order_report() -> dict:
    """The composition order the relation families are checked in.

    Composing right to left instead of in application order reverses each
    side's product, which turns each triple relation into itself with its
    sides swapped, so ``mccool_triple_relations`` holds in either order.
    """
    return {"pinned": "application_order"}


def hnn_identities() -> list[tuple[str, bool]]:
    """Identities exhibiting the basis-conjugating group on three letters
    as an HNN extension.

    The change of generators ``pv3_new_generators``, pushed through
    lij |-> eij, gives a1, b1, a2, b2, c1 and the stable letter c2 as
    products of the eij (its map g), and the first block below kills each
    relator of pv3-new on them, so that g induces a homomorphism from
    pv3-new to the basis-conjugating group.  The second block shows that
    the base-subgroup generators act by conjugation (x |-> w^-1 x w for the
    stated w), and the third that conjugation by the stable letter carries
    the one family of subgroup generators onto the other.
    """
    _, g = pv3_new_generators()
    eij = [epsilon(3, int(name[1]), int(name[2])) for name in g.target.names]
    new = [word_automorphism(w, eij) for w in g.images]
    act = lambda w: word_automorphism(w, new)
    x1, x2, x3 = free_alphabet(3).gens()
    a1, b1, a2, b2, c1, c2 = g.source.gens()
    out = [("%s = 1" % r, act(r).is_identity()) for r in pv3_new_presentation().relators]
    out += [("%s is conjugation by %s" % (w, x), act(w).is_inner_by(x)) for w, x in (
        (a1, x3), (a2 * c1.inv() * b1, x2), (b2, x1), (b1 * a2 * c1.inv(), x2),
        (c1 * b2 * c1.inv(), x3 * x1 * x3.inv()))]
    out += [("%s = %s" % (w.conj(c2), v), act(w.conj(c2)).forward == act(v).forward)
            for w, v in ((a1, a1), (b1 * a2 * c1.inv(), a2 * c1.inv() * b1),
                         (c1 * b2 * c1.inv(), b2))]
    return out
