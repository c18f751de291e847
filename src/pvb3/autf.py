"""Automorphisms of free groups, with the basis-conjugating family.

An :class:`Automorphism` is a pair of free-group maps, each checked to be
the other's inverse when it is made.  A word in automorphisms evaluates
to a :class:`GenMap`, the forward map of the composite, in application
order: with ``f = lambda w: word_automorphism(w, images)``,

    f(u * v)(w) == f(v)(f(u)(w))

so a word in automorphisms reads left to right.  Both this order and the
reversed one satisfy the defining relations of the basis-conjugating
group (the relations are reversal-symmetric); one order has to be pinned
for the package and this is it.

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

    @property
    def alphabet(self) -> Alphabet:
        return self.forward.source

    def __call__(self, w: Word) -> Word:
        return self.forward(w)


def word_automorphism(w: Word, images) -> GenMap:
    """Evaluate a word letter by letter in the given automorphisms, to the
    forward map of their composite.

    ``images[i]`` is substituted for generator i of the word's alphabet;
    composition is in application order, so the value of ``a b`` applies the
    image of ``a`` first.
    """
    images = tuple(images)
    if len(images) != len(w.alphabet):
        raise ValueError("need %d automorphisms, got %d" % (len(w.alphabet), len(images)))
    if not images:
        raise ValueError("empty alphabet")
    out = GenMap.identity(images[0].alphabet)
    for g, s in w.letters:
        out = out.then(images[g].forward if s == 1 else images[g].backward)
    return out


def conjugation(w: Word) -> GenMap:
    """Conjugation x |-> w^-1 x w."""
    return GenMap(w.alphabet, w.alphabet, tuple(x.conj(w) for x in w.alphabet.gens()))


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
    return f.forward.then(g.forward) == g.forward.then(f.forward)


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
        a, b, c = (epsilon(n, *pair).forward for pair in ((k, i), (k, j), (i, j)))
        out.append(("e%d%d e%d%d e%d%d = e%d%d e%d%d e%d%d"
                    % (k, i, k, j, i, j, i, j, k, j, k, i),
                    a.then(b).then(c) == c.then(b).then(a)))
    return out


def pv_relators_in_cb(n: int = 3) -> list[tuple[str, bool]]:
    """Send lij to eij and evaluate each pure-virtual-braid relator.

    A True verdict means the relator's composite is the identity
    endomorphism, so the assignment extends to the presented group.
    """
    pres = pv_presentation(n)
    images = tuple(epsilon(n, int(name[1]), int(name[2]))
                   for name in pres.alphabet.names)
    ident = GenMap.identity(free_alphabet(n))
    return [(str(r), word_automorphism(r, images) == ident) for r in pres.relators]


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

    The change of generators ``pv3_new_generators`` gives a1, b1, a2, b2,
    c1 and the stable letter c2 as words in the lij (its map g), and a word
    w of pv3-new acts as g(w) evaluated at lij |-> eij.  Evaluation is a
    homomorphism of free groups, so this is w evaluated at the six
    products of the eij that g gives.  The first block below kills each
    relator of pv3-new, so that g induces a homomorphism from pv3-new to
    the basis-conjugating group.  The second block shows that the
    base-subgroup generators act by conjugation (x |-> w^-1 x w for the
    stated w), and the third that conjugation by the stable letter carries
    the one family of subgroup generators onto the other.
    """
    _, g = pv3_new_generators()
    eij = [epsilon(3, int(name[1]), int(name[2])) for name in g.target.names]
    act = lambda w: word_automorphism(g(w), eij)
    ident = GenMap.identity(free_alphabet(3))
    x1, x2, x3 = ident.images
    a1, b1, a2, b2, c1, c2 = g.source.gens()
    out = [("%s = 1" % r, act(r) == ident) for r in pv3_new_presentation().relators]
    out += [("%s is conjugation by %s" % (w, x), act(w) == conjugation(x)) for w, x in (
        (a1, x3), (a2 * c1.inv() * b1, x2), (b2, x1), (b1 * a2 * c1.inv(), x2),
        (c1 * b2 * c1.inv(), x3 * x1 * x3.inv()))]
    out += [("%s = %s" % (w.conj(c2), v), act(w.conj(c2)) == act(v))
            for w, v in ((a1, a1), (b1 * a2 * c1.inv(), a2 * c1.inv() * b1),
                         (c1 * b2 * c1.inv(), b2))]
    return out
