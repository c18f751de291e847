"""Graded Lie rings presented by degree-two relations.

An element is a tensor polynomial, a ``{word: nonzero int}`` dict with
each word an index tuple; the free Lie ring sits in the tensor algebra
with the Lyndon-word basis.  The standard bracketing of a Lyndon word w
expands as w plus lexicographically larger words (Chen-Fox-Lyndon), so
the coefficients of a Lie element at the Lyndon words are its Lyndon
coordinates times a unitriangular integer matrix.  That change of basis
is invertible over the integers, so lattices, cokernels and membership
read off those coefficients are exactly the ones in the Lyndon basis,
and no coordinates are ever solved for.
Quotients by degree-two relations are handled layer by layer: the ideal
component in each degree is spanned by iterated brackets of generators
against the relations, and invariants come from integer linear algebra.
A presentation's relations are the initial forms of its relators
(``Presentation.initial_forms``), dicts of this format already.
An enveloping-algebra route (tensor algebra modulo the two-sided ideal)
plus the Poincare-Birkhoff-Witt series gives an independent check on
the same dimensions.
"""

from functools import lru_cache
from itertools import product
from math import comb

from .fpres import g3_actions, g3_presentation, semidirect_presentation
from .intlinalg import IntMatrix, Value, cokernel_invariants, row_lattices_equal


def lyndon_words(ngens, degree):
    """All Lyndon words of one length, lexicographically, as index tuples."""
    out = []
    w = [-1]
    while w:
        w[-1] += 1
        m = len(w)
        if m == degree:
            out.append(tuple(w))
        # extend periodically, then strip trailing maximal letters
        while len(w) < degree:
            w.append(w[-m])
        while w and w[-1] == ngens - 1:
            w.pop()
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def _lyndon_columns(ngens, degree):
    return {w: k for k, w in enumerate(lyndon_words(ngens, degree))}


def _bracket(i, e):
    """[x_i, e] for a tensor polynomial e."""
    out = {}
    for k, c in e.items():
        out[(i,) + k] = out.get((i,) + k, 0) + c
        out[k + (i,)] = out.get(k + (i,), 0) - c
    return {k: c for k, c in out.items() if c}


class GradedLieQuotient(Value):
    """Free Lie ring on named generators modulo degree-two relations."""

    _fields = ("names", "relations")

    def __init__(self, names, relations):
        for r in relations:
            if not r or any(len(k) != 2 for k in r):
                raise ValueError("relations must be homogeneous of degree 2")
            if r != {k[::-1]: -c for k, c in r.items()}:
                raise ValueError("relations must be Lie elements, equal to "
                                 "minus their reversal")
        super().__init__(names, relations)

    @property
    def ngens(self):
        return len(self.names)

    def ideal_matrix(self, degree):
        """Iterated brackets of generators against the relations."""
        layer = self.relations
        for _ in range(degree - 2):
            layer = [_bracket(i, e) for e in layer for i in range(self.ngens)]
        # a Lie element's coefficients at the Lyndon words determine it
        columns = _lyndon_columns(self.ngens, degree)
        return IntMatrix(({columns[w]: c for w, c in e.items() if w in columns} for e in layer),
                         len(columns))

    def invariants(self, degree):
        return cokernel_invariants(self.ideal_matrix(degree))


def enveloping_invariants(quotient, top_degree):
    """(free rank, torsion) per degree of the tensor algebra modulo the
    two-sided ideal generated by a quotient's relations."""
    ngens = quotient.ngens
    out = []
    for degree in range(1, top_degree + 1):
        index = {w: k for k, w in enumerate(product(range(ngens), repeat=degree))}
        # a relation's words are distinct, and so are their placements
        rows = [{index[left + k + right]: c for k, c in r.items()}
                for r in quotient.relations for a in range(degree - 1)
                for left in product(range(ngens), repeat=a)
                for right in product(range(ngens), repeat=degree - 2 - a)]
        out.append(cokernel_invariants(IntMatrix(rows, len(index))))
    return tuple(out)


def pbw_coefficients(dims, top_degree):
    """Series coefficients of prod_k (1 - t^k)^(-dims[k-1]) through one
    degree, starting with the constant term."""
    series = [1] + [0] * top_degree
    for k, rank_k in enumerate(dims, start=1):
        if rank_k == 0:
            continue
        factor = [0] * (top_degree + 1)
        for m in range(0, top_degree // k + 1):
            factor[k * m] = comb(rank_k - 1 + m, m)
        series = [sum(series[i] * factor[d - i] for i in range(d + 1))
                  for d in range(top_degree + 1)]
    return tuple(series)


def lie_quotient(pres):
    """The free Lie ring on a presentation's generators modulo the initial
    forms of its relators, which maps onto the group's associated graded
    Lie ring."""
    return GradedLieQuotient(pres.alphabet.names,
                             tuple(form for form in pres.initial_forms() if form))


def semidirect_check():
    """Confirm that g3's Lie ring is the semidirect product of L(a1, a2, c1)
    by L(b1, b2), free abelian of rank W(3, k) + W(2, k) in every degree k
    (W the Witt rank).

    Each initial form of ``semidirect_presentation`` must be +-[b, x] plus
    terms in a1, a2 and c1 only, one form for each b in {b1, b2} and x in
    {a1, a2, c1}.  The relations then read [b, x] = delta_b(x) with
    delta_b(x) in L_2(a1, a2, c1).  A linear map from {a1, a2, c1} to
    L(a1, a2, c1) extends to a unique derivation, and L(b1, b2) is free, so
    these relations present the semidirect product.  The degree-2 ideals of
    that presentation and of g3's must span the same lattice; both ideals
    are generated in degree 2, so they then agree in every degree, and
    ``lie_quotient(g3_presentation())`` is that ring.
    """
    quotient = lie_quotient(pres := semidirect_presentation())
    actions = g3_actions(pres.alphabet)
    base = {pres.alphabet.index(str(b)) for b, _ in actions}
    fibre = {pres.alphabet.index(str(x)) for x, _ in actions[0][1]}
    pairs = []
    for relation in quotient.relations:
        # a Lie element's terms come in pairs (i, j), (j, i)
        acting = [(k, c) for k, c in relation.items() if not fibre.issuperset(k)]
        if len(acting) != 2:
            return False
        pairs += [k for k, c in acting if k[1] in fibre and abs(c) == 1]
    return sorted(pairs) == sorted(product(base, fibre)) and row_lattices_equal(
        quotient.ideal_matrix(2), lie_quotient(g3_presentation()).ideal_matrix(2))
