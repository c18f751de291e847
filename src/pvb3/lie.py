"""Graded Lie rings presented by degree-two relations.

Elements live in the tensor algebra, where the free Lie ring sits with
the Lyndon-word basis.  The standard bracketing of a Lyndon word w
expands as w plus lexicographically larger words (Chen-Fox-Lyndon), so
the coefficients of a Lie element at the Lyndon words are its Lyndon
coordinates times a unitriangular integer matrix.  That change of basis
is invertible over the integers, so lattices, cokernels and membership
read off those coefficients are exactly the ones in the Lyndon basis,
and no coordinates are ever solved for.
Quotients by degree-two relations are handled layer by layer: the ideal
component in each degree is spanned by iterated brackets of generators
against the relations, and invariants come from integer linear algebra.
An enveloping-algebra route (tensor algebra modulo the two-sided ideal)
plus the Poincare-Birkhoff-Witt series gives an independent check on
the same dimensions.
"""

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb

from .intlinalg import IntMatrix, SparseCombination, cokernel_invariants, in_row_lattice


def _mobius(n):
    primes = 0
    m, p = n, 2
    while p * p <= m:
        if m % p == 0:
            primes += 1
            m //= p
            if m % p == 0:
                return 0
        else:
            p += 1
    if m > 1:
        primes += 1
    return -1 if primes % 2 else 1


def witt_rank(ngens, degree):
    """Rank of the free Lie ring's homogeneous component."""
    if degree < 1:
        raise ValueError("degree must be positive")
    total = sum(_mobius(d) * ngens ** (degree // d)
                for d in range(1, degree + 1) if degree % d == 0)
    return total // degree


@lru_cache(maxsize=None)
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


@dataclass(frozen=True, eq=False)
class LieElement(SparseCombination):
    """Integer tensor polynomial, used for Lie computations."""

    ngens: int
    terms: dict

    @staticmethod
    def make(ngens, terms):
        return LieElement(ngens, {k: c for k, c in terms.items() if c})

    @property
    def _space(self):
        return self.ngens

    def _make(self, terms):
        return LieElement.make(self.ngens, terms)

    def bracket(self, other):
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + c1 * c2
                out[k2 + k1] = out.get(k2 + k1, 0) - c1 * c2
        return LieElement.make(self.ngens, out)

    def degree_component(self, degree):
        return LieElement.make(
            self.ngens, {k: c for k, c in self.terms.items() if len(k) == degree})

    def degrees(self):
        return tuple(sorted({len(k) for k in self.terms}))

    def lyndon_coefficients(self, degree):
        """Nonzero coefficients at the Lyndon words of one degree, as
        ``{position in lyndon_words: coefficient}``; on Lie elements they
        determine the element."""
        columns = _lyndon_columns(self.ngens, degree)
        return {columns[word]: c for word, c in self.terms.items() if word in columns}


def lie_gen(ngens, index):
    if not 0 <= index < ngens:
        raise ValueError("generator index out of range")
    return LieElement.make(ngens, {(index,): 1})


@dataclass(frozen=True)
class GradedLieQuotient:
    """Free Lie ring on named generators modulo degree-two relations."""

    names: tuple
    relations: tuple

    def __post_init__(self):
        for r in self.relations:
            if r.degrees() != (2,):
                raise ValueError("relations must be homogeneous of degree 2")
            if r.terms != {k[::-1]: -c for k, c in r.terms.items()}:
                raise ValueError("relations must be Lie elements, equal to "
                                 "minus their reversal")

    @property
    def ngens(self):
        return len(self.names)

    def ideal_matrix(self, degree):
        """Iterated brackets of generators against the relations."""
        layer = list(self.relations)
        for _ in range(degree - 2):
            layer = [lie_gen(self.ngens, i).bracket(e)
                     for e in layer for i in range(self.ngens)]
        return IntMatrix((e.lyndon_coefficients(degree) for e in layer),
                         len(lyndon_words(self.ngens, degree)))

    def invariants(self, degree):
        if degree == 1:
            return self.ngens, ()
        if not self.relations:
            return witt_rank(self.ngens, degree), ()
        return cokernel_invariants(self.ideal_matrix(degree))


def enveloping_invariants(ngens, relations, top_degree):
    """(free rank, torsion) per degree of the tensor algebra modulo the
    two-sided ideal generated by degree-two relations."""
    quadratic = [r.degree_component(2).terms.items() for r in relations]
    out = []
    for degree in range(1, top_degree + 1):
        index = {w: k for k, w in enumerate(product(range(ngens), repeat=degree))}
        # a relation's words are distinct, and so are their placements
        rows = [{index[left + k + right]: c for k, c in terms}
                for terms in quadratic for a in range(degree - 1)
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


def pbw_consistency(lie_dims, env_dims):
    """Whether enveloping dimensions match the Poincare-Birkhoff-Witt
    series of the Lie dimensions; env_dims starts with the degree-0
    value 1."""
    top = len(env_dims) - 1
    return tuple(env_dims) == pbw_coefficients(tuple(lie_dims)[:top], top)


PV3_LIE_NAMES = ("a1", "b1", "a2", "b2", "c1", "c2")


def pv3_lie_quotient(include_free_generator=True):
    """Degree-two presentation of the associated graded Lie ring.

    The six relations only involve the first five generators; the sixth
    spans the free factor and can be omitted to study the other factor
    on its own.
    """
    names = PV3_LIE_NAMES if include_free_generator else PV3_LIE_NAMES[:5]
    n = len(names)
    a1, b1, a2, b2, c1 = (lie_gen(n, k) for k in range(5))
    relations = (
        a1.bracket(b1),
        a2.bracket(b2),
        c1.bracket(b1) - a2.bracket(b1),
        c1.bracket(a1) - b2.bracket(a1),
        c1.bracket(b2) - a1.bracket(b2),
        c1.bracket(a2) - b1.bracket(a2),
    )
    return GradedLieQuotient(names, relations)


def derivation_check():
    """Confirm the weight-one conjugation rule is coherent on the
    four-generator subring of the quadratic presentation.

    The rule d sends each of a1, b1, a2, b2 to the bracket that the
    defining relations assign to its bracket with c1.  Applying d to
    the two commuting-pair relations must give elements of the degree-3
    component of the full relation ideal; that is what makes the
    subring a Lie ideal on which c1 acts through d.  Membership is
    checked exactly over the integers.  The conjugation relations are
    genuinely needed here: the two commuting-pair relations alone span
    an ideal that does not contain these images.
    """
    quotient = pv3_lie_quotient(include_free_generator=False)
    n = quotient.ngens
    a1, b1, a2, b2 = (lie_gen(n, k) for k in range(4))
    images = {0: b2.bracket(a1), 1: a2.bracket(b1),
              2: b1.bracket(a2), 3: a1.bracket(b2)}
    ideal = quotient.ideal_matrix(3)
    for r in (a1.bracket(b1), a2.bracket(b2)):
        image = apply_derivation(r, images).lyndon_coefficients(3)
        if not in_row_lattice(ideal, [image.get(k, 0) for k in range(ideal.ncols)]):
            return False
    return True


def apply_derivation(element, images):
    """Extend generator images by the Leibniz rule over tensor terms."""
    total = LieElement.make(element.ngens, {})
    for word, c in element.terms.items():
        for pos, letter in enumerate(word):
            for k, v in images[letter].terms.items():
                key = word[:pos] + k + word[pos + 1:]
                total = total + LieElement.make(element.ngens, {key: c * v})
    return total
