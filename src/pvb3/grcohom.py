"""Integer cohomology rings for the three-strand pure virtual braid group.

A ring is the exterior algebra on the duals of a presentation's
generators modulo the degree-two classes that pair to zero with every
initial form of its relators, the kernel of the cup product on H^1
(Fenn and Sjerve, Canad. J. Math. 39, 1987; Matei and Suciu, 2000).
An element is a ``{strictly increasing index tuple: nonzero int}`` dict,
each tuple a monomial in the generator duals.
The group splits as a free product of a five-generator factor and an
infinite cyclic factor.  The factor receives a map from a wedge of two
tori and four genus-two surfaces (``wedge_map``) that identifies first and
second cohomology, so its cup products are symplectic pairings on the wedge
summands: a second route to its relations.  The full group's second
route runs through the splitting, by rewriting the free product's
relators in the standard generators: an initial form moves under a
free-group map only through the map's abelianisation.
"""

from functools import lru_cache
from itertools import combinations
from math import comb, factorial

from .fpres import (G3_NAMES, Presentation, g3_pairs, g3_presentation, pv3_new_generators,
                    pv3_new_presentation, pv_alphabet, pv_presentation)
from .intlinalg import IntMatrix, Value, cokernel_invariants, kernel_basis, rank
from .word import Alphabet, GenMap


def _monomials(ngens, degree):
    """The standard monomials of one degree, empty in negative degrees."""
    return combinations(range(ngens), degree) if degree >= 0 else ()


def _wedge(u, v):
    """Product of two exterior elements."""
    out = {}
    for k1, c1 in u.items():
        for k2, c2 in v.items():
            if set(k1).isdisjoint(k2):
                # the sign of the permutation that sorts k1 + k2
                inversions = sum(y > x for x in k2 for y in k1)
                key = tuple(sorted(k1 + k2))
                out[key] = out.get(key, 0) + (-c1 * c2 if inversions % 2 else c1 * c2)
    return {k: c for k, c in out.items() if c}


class ExteriorQuotient(Value):
    """Exterior algebra on named generators modulo degree-two relations."""

    _fields = ("names", "relations")

    def ideal_matrix(self, degree):
        """Span of relation * monomial inside one graded piece: one sparse
        row per pair, keyed by each product monomial's position among the
        monomials of the degree.  Below degree 2 there are no rows."""
        n = len(self.names)
        columns = {key: k for k, key in enumerate(_monomials(n, degree))}
        return IntMatrix(({columns[key]: c for key, c in _wedge(r, {m: 1}).items()}
                          for r in self.relations for m in _monomials(n, degree - 2)),
                         len(columns))

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


def wedge_map():
    """The map from the wedge's fundamental group, one relator per block
    ([x1, x2] per torus, [y1, z1][y2, z2] per surface), onto the factor:
    each torus onto a commuting pair of ``g3_pairs``, each surface onto
    (y, c1, w, y) for a conjugation pair (y, w), so that its relator goes
    to c1^-1 y c1 w^-1 y^-1 w conjugated by y."""
    target = Alphabet(G3_NAMES)
    (commuting, conjugating), c1 = g3_pairs(target), target.gen("c1")
    return GenMap(Alphabet(WEDGE_BASIS), target, [x for pair in commuting for x in pair] + [
        x for y, w in conjugating for x in (y, c1, w, y)])


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


@lru_cache(maxsize=None)
def _wedge_homology():
    """The rows of the wedge map's abelianisation, built once."""
    return wedge_map().abelianisation_matrix().rows


def dual_restriction(name):
    """A generator's dual pulled back to the wedge: its column of ``_wedge_homology``."""
    k = G3_NAMES.index(name)
    return {w: row[k] for w, row in zip(WEDGE_BASIS, _wedge_homology()) if k in row}


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
    pairs = tuple(_monomials(pres.num_gens, 2))
    forms = IntMatrix(({k: form[pair] for k, pair in enumerate(pairs) if pair in form}
                       for form in pres.initial_forms()), len(pairs))
    return ExteriorQuotient(pres.alphabet.names, tuple(
        {pair: c for pair, c in zip(pairs, row) if c} for row in kernel_basis(forms)))


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
    return {(s,): row[c2] for s, row in enumerate(f.abelianisation_matrix().rows) if c2 in row}


def pv3_stability_relations():
    """The free-factor dual multiplied against every generator."""
    sigma = free_factor_dual()
    return tuple(_wedge(sigma, {(k,): 1}) for k in range(len(PV3_DUALS)))


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
    return rank(ExteriorQuotient(PV3_DUALS, pv3_stability_relations()).ideal_matrix(2))
