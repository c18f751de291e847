"""Integer cohomology rings for the three-strand pure virtual braid group.

A ring is the exterior algebra on the duals of a presentation's
generators modulo the degree-two classes that pair to zero with every
initial form of its relators, the kernel of the cup product on H^1
(Fenn and Sjerve, Canad. J. Math. 39, 1987; Matei and Suciu, 2000).
The group splits as a free product of a five-generator factor and an
infinite cyclic factor.  The factor receives a map from a wedge of two
tori and four genus-two surfaces that identifies first and second
cohomology, so its cup products are symplectic pairings on the wedge
summands: a second route to its relations.  The full group's second
route runs through the splitting, by rewriting the free product's
relators in the standard generators: an initial form moves under a
free-group map only through the map's abelianisation.
"""

from itertools import combinations
from math import comb, factorial

from .fpres import (G3_NAMES, Presentation, g3_presentation, pv3_new_generators,
                    pv3_new_presentation, pv_alphabet, pv_presentation)
from .intlinalg import (IntMatrix, SparseCombination, Value, cokernel_invariants, kernel_basis,
                        rank)


class Exterior:
    """Exterior algebra over the integers on a fixed ordered generator list.

    Elements are kept as dictionaries from strictly increasing index
    tuples to nonzero coefficients, so equality is literal.
    """

    def __init__(self, names):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator name")
        self.names = names

    def __len__(self):
        return len(self.names)

    def element(self, terms):
        return ExtElement(self, {k: c for k, c in terms.items() if c})

    def gen(self, name):
        return self.element({(self.names.index(name),): 1})

    def basis(self, degree):
        """Index tuples of the standard monomial basis in one degree,
        empty in negative degrees."""
        return tuple(combinations(range(len(self.names)), degree)) if degree >= 0 else ()


def _merge_sign(left, right):
    # wedge of two increasing tuples: None on repetition, else sorted
    # tuple with the sign of the interleaving permutation
    if set(left) & set(right):
        return None, 0
    inversions = sum(1 for x in right for y in left if y > x)
    return tuple(sorted(left + right)), -1 if inversions % 2 else 1


class ExtElement(SparseCombination):
    _fields = ("algebra", "terms")

    def __init__(self, algebra, terms):
        if not all(terms.values()):
            raise ValueError("exterior element with a zero coefficient")
        super().__init__(algebra, terms)

    @property
    def _space(self):
        return self.algebra.names

    def _make(self, terms):
        return self.algebra.element(terms)

    def __mul__(self, other):
        if isinstance(other, int):
            return other * self
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key, sign = _merge_sign(k1, k2)
                if key is not None:
                    out[key] = out.get(key, 0) + sign * c1 * c2
        return self.algebra.element(out)


class ExteriorQuotient(Value):
    """Quotient of an exterior algebra by an ideal of degree-two relations."""

    _fields = ("algebra", "relations")

    def ideal_matrix(self, degree):
        """Span of relation * monomial inside one graded piece: one sparse
        row per pair, keyed by each product monomial's position in
        ``algebra.basis(degree)``.  Below degree 2 there are no rows."""
        columns = {key: k for k, key in enumerate(self.algebra.basis(degree))}
        monomials = [self.algebra.element({key: 1}) for key in self.algebra.basis(degree - 2)]
        return IntMatrix(({columns[key]: c for key, c in (r * m).terms.items()}
                          for r in self.relations for m in monomials), len(columns))

    def invariants(self, degree):
        """(free rank, torsion) of the graded piece of the quotient."""
        return cokernel_invariants(self.ideal_matrix(degree))


# ---------------------------------------------------------------------------
# The wedge model for the five-generator factor.

WEDGE_BLOCKS = (
    ("x1", "x2"),
    ("x3", "x4"),
    ("y11", "z11", "y12", "z12"),
    ("y21", "z21", "y22", "z22"),
    ("y31", "z31", "y32", "z32"),
    ("y41", "z41", "y42", "z42"),
)

WEDGE_BASIS = tuple(name for block in WEDGE_BLOCKS for name in block)

# first-homology image of each wedge class, in the five-generator basis
WEDGE_HOMOLOGY_IMAGES = {
    "x1": {"a1": 1}, "x2": {"b1": 1}, "x3": {"a2": 1}, "x4": {"b2": 1},
    "y11": {"b1": 1}, "z11": {"c1": 1}, "y12": {"a2": 1}, "z12": {"b1": 1},
    "y21": {"a1": 1}, "z21": {"c1": 1}, "y22": {"b2": 1}, "z22": {"a1": 1},
    "y31": {"b2": 1}, "z31": {"c1": 1}, "y32": {"a1": 1, "b2": 1},
    "z32": {"b2": 1},
    "y41": {"a2": 1}, "z41": {"c1": 1}, "y42": {"a2": 1, "b1": 1},
    "z42": {"a2": 1},
}


def surface_cup(u, v):
    """Cup product of two degree-one classes on the wedge.

    Classes are dictionaries over WEDGE_BASIS; the value is one integer
    per wedge summand, the coefficient on its fundamental class.
    """
    out = []
    for block in WEDGE_BLOCKS:
        total = 0
        for p, q in zip(block[::2], block[1::2]):
            total += u.get(p, 0) * v.get(q, 0) - u.get(q, 0) * v.get(p, 0)
        out.append(total)
    return tuple(out)


def dual_restriction(name):
    """Pull the dual of one generator of the five-generator factor back to the wedge."""
    return {w: WEDGE_HOMOLOGY_IMAGES[w][name] for w in WEDGE_BASIS
            if name in WEDGE_HOMOLOGY_IMAGES[w]}


def g3_cup(u, v):
    """Cup product of two degree-one dual classes, via the wedge model."""
    return surface_cup(dual_restriction(u), dual_restriction(v))


def g3_cup_matrix():
    """Pairing of all lexicographic generator pairs with degree two."""
    pairs = combinations(G3_NAMES, 2)
    return IntMatrix.from_rows([g3_cup(p, q) for p, q in pairs])


def presentation_ring(pres):
    """Exterior algebra on the duals of a presentation's generators modulo
    the kernel of the pairing of degree-two classes with the initial forms
    of the relators.  Above degree 2 this is the cohomology ring only
    where that ring is known to be quadratic."""
    E = Exterior(pres.alphabet.names)
    pairs = E.basis(2)
    forms = IntMatrix(({k: form[pair] for k, pair in enumerate(pairs) if pair in form}
                       for form in pres.initial_forms()), len(pairs))
    return ExteriorQuotient(E, tuple(E.element(dict(zip(pairs, row)))
                                     for row in kernel_basis(forms)))


def g3_ring():
    return presentation_ring(g3_presentation())


# ---------------------------------------------------------------------------
# The full group on three strands.

PV3_DUALS = pv_alphabet(3).names


def free_factor_dual():
    """Degree-one class dual to the infinite cyclic free factor: the c2
    column of the change of generators' abelianisation."""
    f, _ = pv3_new_generators()
    c2 = f.target.index("c2")
    column = {(s,): row.get(c2, 0) for s, row in enumerate(f.abelianisation_matrix().rows)}
    return Exterior(PV3_DUALS).element(column)


def pv3_stability_relations():
    """The free-factor dual multiplied against every generator."""
    E = Exterior(PV3_DUALS)
    sigma = free_factor_dual()
    return tuple(sigma * E.gen(n) for n in PV3_DUALS)


def pv3_ring():
    return presentation_ring(pv_presentation(3))


def pv3_ring_via_splitting():
    """The ring of pv3-new's relators rewritten in the standard generators
    across the splitting."""
    f, g = pv3_new_generators()
    relators = tuple(g(r) for r in pv3_new_presentation().relators)
    return presentation_ring(Presentation(f.source, relators))


def beer_rank(n, r):
    """Closed-form cohomology rank for the group on n strands."""
    if r < 0 or r >= n:
        return 0
    return comb(n - 1, r) * (factorial(n) // factorial(n - r))


def stability_rank():
    """Rank of the span of the free-factor relations alone."""
    return rank(ExteriorQuotient(Exterior(PV3_DUALS), pv3_stability_relations()).ideal_matrix(2))
