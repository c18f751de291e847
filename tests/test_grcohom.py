"""Cohomology rings: wedge model, cup pairing, and every relation route.

The package derives every ring relation from the relators' initial
forms; the relations stated by hand in ``stated_g3_relations`` and
``stated_pv3_relations`` are the oracle for those.  It derives the wedge
model from g3's commuting and conjugation pairs; the first-homology images
typed by hand in ``WEDGE_HOMOLOGY_IMAGES`` are the oracle for that.  The package carries
rings across a change of generators on the group side, by rewriting the
relators; ``substitute`` and ``degree_one_pullback`` carry them on the
cohomology side instead, and are the oracle for that.  An element is an
``{increasing index tuple: int}`` dict; the oracles multiply and add them
with their own ``wedge`` and ``combine``.
"""

import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvb3.autf import Automorphism
from pvb3.fpres import (VERIFIED, Presentation, check_homomorphism_presented, g3_presentation,
                        pv3_new_generators, pv3_new_presentation, pv_presentation)
from pvb3 import grcohom
from pvb3.grcohom import (
    G3_NAMES,
    PV3_DUALS,
    WEDGE_BASIS,
    WEDGE_BLOCKS,
    ExteriorQuotient,
    beer_rank,
    dual_restriction,
    free_factor_dual,
    g3_cup,
    g3_cup_matrix,
    g3_ring,
    pv3_ring,
    pv3_ring_via_splitting,
    pv3_stability_relations,
    presentation_ring,
    stability_rank,
    surface_cup,
    wedge_map,
)
from pvb3.intlinalg import IntMatrix, cokernel_invariants, kernel_basis, rank, row_lattices_equal
from pvb3.word import Alphabet, GenMap

NEW_DUALS = G3_NAMES + ("c2",)

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

# duals of the five group generators, restricted to the wedge
RESTRICTION_TABLE = {
    "a1": {"x1": 1, "y21": 1, "z22": 1, "y32": 1},
    "b1": {"x2": 1, "y11": 1, "z12": 1, "y42": 1},
    "a2": {"x3": 1, "y12": 1, "y41": 1, "y42": 1, "z42": 1},
    "b2": {"x4": 1, "y22": 1, "y31": 1, "y32": 1, "z32": 1},
    "c1": {"z11": 1, "z21": 1, "z31": 1, "z41": 1},
}

# nonzero products of generator duals, one fundamental class each
PRODUCT_TABLE = {
    ("a1", "b1"): (1, 0, 0, 0, 0, 0),
    ("a2", "b2"): (0, 1, 0, 0, 0, 0),
    ("b1", "c1"): (0, 0, 1, 0, 0, 0),
    ("a1", "c1"): (0, 0, 0, 1, 0, 0),
    ("b2", "c1"): (0, 0, 0, 0, 1, 0),
    ("a2", "c1"): (0, 0, 0, 0, 0, 1),
}


def combine(*terms):
    """The sum of c * x over the (c, x) pairs, zero terms dropped."""
    out = Counter()
    for c, x in terms:
        for k, v in x.items():
            out[k] += c * v
    return {k: v for k, v in out.items() if v}


def wedge(x, y):
    """x y in the exterior algebra: each product of generators is sorted by
    adjacent swaps, one sign change a swap, and dies on a repeat."""
    out = Counter()
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            word, sign = list(k1 + k2), c1 * c2
            if len(set(word)) < len(word):
                continue
            for end in range(len(word) - 1, 0, -1):
                for i in range(end):
                    if word[i] > word[i + 1]:
                        word[i], word[i + 1] = word[i + 1], word[i]
                        sign = -sign
            out[tuple(word)] += sign
    return combine((1, out))


def generators(names):
    return tuple({(k,): 1} for k in range(len(names)))


def degree_one(names, **coefficients):
    """The degree-one element with the given coefficients at named generators."""
    return {(names.index(name),): c for name, c in coefficients.items()}


def basis(ngens, degree):
    """The standard monomials of one degree, empty in negative degrees."""
    return tuple(combinations(range(ngens), degree)) if degree >= 0 else ()


def stated_g3_relations():
    """Degree-two relations of the five-generator factor's ring, stated by hand."""
    a1, b1, a2, b2, c1 = generators(G3_NAMES)
    return (combine((1, wedge(a1, c1)), (1, wedge(a1, b2)), (1, wedge(c1, b2))),
            combine((1, wedge(b1, c1)), (1, wedge(b1, a2)), (1, wedge(c1, a2))),
            wedge(a1, a2),
            wedge(b1, b2))


def stated_free_factor_dual():
    return degree_one(PV3_DUALS, l13=1, l31=-1, l12=-1, l21=1, l23=-1, l32=1)


def stated_pv3_relations():
    """Degree-two relations of the full group's ring, stated by hand: the
    three opposite pairs, the free-factor dual against every generator,
    and one more."""
    l12, l21, l13, l31, l23, l32 = generators(PV3_DUALS)
    opposite = (wedge(l12, l21), wedge(l13, l31), wedge(l23, l32))
    sigma = stated_free_factor_dual()
    sparse = combine((1, wedge(l21, l31)), (-1, wedge(l21, l32)), (-1, wedge(l23, l31)))
    return opposite + tuple(wedge(sigma, x) for x in generators(PV3_DUALS)) + (sparse,)


def substitute(element, names, images):
    """Apply a degree-one substitution multiplicatively.

    images maps each of the generator names that the element's indices
    point into to a degree-one element of the target algebra.
    """
    out = {}
    for key, c in element.items():
        term = {(): c}
        for i in key:
            term = wedge(term, images[names[i]])
        out = combine((1, out), (1, term))
    return out


def degree_one_pullback(genmap: GenMap):
    """Induced substitution on dual classes for a group homomorphism.

    For a map with abelianised matrix M (rows are source generator
    images) the dual of target generator t pulls back to the column-t
    combination of source duals.  Returns a dictionary keyed by target
    generator name.
    """
    columns = genmap.abelianisation_matrix().transpose().rows
    return {name: {(s,): c for s, c in column.items()}
            for name, column in zip(genmap.target.names, columns)}


def splitting_pullbacks():
    """Mutually inverse dual substitutions induced by the free-product
    identification, as (new duals in the standard basis, standard duals
    in the new basis)."""
    f, g = pv3_new_generators()
    return degree_one_pullback(f), degree_one_pullback(g)


def pulled_back_ring(ring, genmap):
    """The ring's relations pulled back along a map into its group, as a
    ring on the map's source generators."""
    images = degree_one_pullback(genmap)
    return ExteriorQuotient(genmap.source.names,
                            tuple(substitute(r, ring.names, images) for r in ring.relations))


def ranks_and_torsion(ring, top_degree):
    """Free ranks and torsion of degrees 0..top_degree, each degree computed once."""
    invariants = [ring.invariants(d) for d in range(top_degree + 1)]
    return tuple(free for free, _ in invariants), tuple(torsion for _, torsion in invariants)


def dense_vector(element, ngens, degree):
    """Coefficients of an element at every monomial of ``basis(ngens, degree)``."""
    return tuple(element.get(k, 0) for k in basis(ngens, degree))


def from_vector(ngens, degree, vec):
    mono = basis(ngens, degree)
    assert len(vec) == len(mono)
    return {k: c for k, c in zip(mono, vec) if c}


def reference_ideal_matrix(ring, degree):
    """The dense builder the sparse ideal rows replaced: every product of a
    relation and a monomial made a vector over ``basis(n, degree)``."""
    n = len(ring.names)
    rows = [dense_vector(wedge(r, {key: 1}), n, degree)
            for r in ring.relations for key in basis(n, degree - 2)]
    return IntMatrix.from_rows(rows, len(basis(n, degree)))


def small_elements(ngens, degree):
    mono = basis(ngens, degree)
    return st.lists(st.integers(-3, 3), min_size=len(mono),
                    max_size=len(mono)).map(lambda v: from_vector(ngens, degree, v))


def test_exterior_generators_anticommute_and_square_to_zero():
    u, v, w = generators("uvw")
    product = grcohom._wedge
    assert combine((1, product(u, v)), (1, product(v, u))) == {}
    assert product(u, u) == {}
    assert product(product(u, v), w) == combine((-1, product(product(v, u), w))) == {(0, 1, 2): 1}
    assert product(product(product(u, v), w), u) == {}


@given(small_elements(4, 1), small_elements(4, 1), small_elements(4, 1))
@settings(max_examples=50, deadline=None)
def test_exterior_product_is_bilinear_and_associative(x, y, z):
    product = grcohom._wedge
    assert product(combine((1, x), (1, y)), z) == combine((1, product(x, z)), (1, product(y, z)))
    assert product(x, combine((1, y), (1, z))) == combine((1, product(x, y)), (1, product(x, z)))
    assert product(product(x, y), z) == product(x, product(y, z))
    assert product(x, y) == combine((-1, product(y, x)))


@given(st.integers(0, 3).flatmap(lambda d: small_elements(4, d)),
       st.integers(0, 3).flatmap(lambda d: small_elements(4, d)))
@settings(max_examples=60, deadline=None)
def test_exterior_product_matches_the_oracle(x, y):
    assert grcohom._wedge(x, y) == wedge(x, y)


def test_exterior_vector_round_trip():
    u, v, w = generators("uvw")
    e = combine((2, wedge(u, v)), (-3, wedge(v, w)))
    assert dense_vector(e, 3, 2) == (2, 0, -3)
    assert from_vector(3, 2, dense_vector(e, 3, 2)) == e
    # a mixed-degree element keeps only its terms of the asked degree
    assert from_vector(3, 2, dense_vector(combine((1, u), (1, wedge(u, v))), 3, 2)) == wedge(u, v)


def test_wedge_basis_is_consistent():
    assert len(WEDGE_BASIS) == 20
    assert len(WEDGE_BLOCKS) == 6
    assert set(WEDGE_HOMOLOGY_IMAGES) == set(WEDGE_BASIS)


def test_dual_restriction_golden_values():
    for name, expected in RESTRICTION_TABLE.items():
        assert dual_restriction(name) == expected


def test_restriction_is_transpose_of_homology_images():
    for wname in WEDGE_BASIS:
        for gname in G3_NAMES:
            assert dual_restriction(gname).get(wname, 0) == \
                WEDGE_HOMOLOGY_IMAGES[wname].get(gname, 0), (wname, gname)


def test_wedge_map_abelianises_to_the_homology_images():
    f = wedge_map()
    assert f.source.names == WEDGE_BASIS and f.target == g3_presentation().alphabet
    rows = f.abelianisation_matrix().rows
    assert len(rows) == len(WEDGE_BASIS)
    for wname, row in zip(WEDGE_BASIS, rows):
        assert {G3_NAMES[k]: c for k, c in row.items()} == WEDGE_HOMOLOGY_IMAGES[wname], wname


def wedge_presentation():
    """The wedge's fundamental group: one product of commutators per block."""
    alphabet = Alphabet(WEDGE_BASIS)
    relators = []
    for block in WEDGE_BLOCKS:
        r = alphabet.identity()
        for y, z in zip(block[::2], block[1::2]):
            r = r * alphabet.gen(y).comm(alphabet.gen(z))
        relators.append(r)
    return Presentation(alphabet, relators)


def test_wedge_map_is_a_homomorphism_block_by_block():
    # block k goes to g3's relator k conjugated: a one-step certificate
    results = check_homomorphism_presented(wedge_presentation(), wedge_map(), g3_presentation())
    assert len(results) == len(WEDGE_BLOCKS) == 6
    for k, (_, res) in enumerate(results):
        assert res.status == VERIFIED, (k, res)
        (step,) = res.certificate
        assert (step.relator_index, step.sign) == (k, 1)


def test_cup_products_of_generator_duals():
    for (p, q), expected in PRODUCT_TABLE.items():
        assert g3_cup(p, q) == expected
    assert g3_cup("a1", "a2") == (0,) * 6
    assert g3_cup("b1", "b2") == (0,) * 6
    assert g3_cup("a1", "b2") == (0, 0, 0, -1, 1, 0)
    assert g3_cup("b1", "a2") == (0, 0, -1, 0, 0, 1)


def test_worked_reduction_values():
    assert g3_cup("b2", "a1") == (0, 0, 0, 1, -1, 0)
    assert g3_cup("b2", "b1") == (0,) * 6


@given(st.dictionaries(st.sampled_from(WEDGE_BASIS), st.integers(-3, 3),
                       max_size=6),
       st.dictionaries(st.sampled_from(WEDGE_BASIS), st.integers(-3, 3),
                       max_size=6))
@settings(max_examples=60, deadline=None)
def test_surface_cup_is_antisymmetric(u, v):
    assert surface_cup(u, v) == tuple(-c for c in surface_cup(v, u))
    assert surface_cup(u, u) == (0,) * 6


def test_pairing_matrix_has_full_image():
    m = g3_cup_matrix()
    assert rank(m) == 6


def test_kernel_of_pairing_is_spanned_by_the_four_relations():
    rel = g3_ring().ideal_matrix(2)
    assert rank(rel) == 4
    kernel = kernel_basis(g3_cup_matrix().transpose())
    assert row_lattices_equal(rel, IntMatrix.from_rows(kernel))


RINGS = {
    "pv3": pv3_ring,
    "g3": g3_ring,
    "stated-pv3": lambda: ExteriorQuotient(PV3_DUALS, stated_pv3_relations()),
    "free-exterior": lambda: ExteriorQuotient(PV3_DUALS, ()),
}


@pytest.mark.parametrize("name", RINGS)
def test_sparse_ideal_rows_match_the_dense_reference(name):
    ring = RINGS[name]()
    for degree in range(-1, 7):
        assert ring.ideal_matrix(degree) == reference_ideal_matrix(ring, degree), degree


@pytest.mark.parametrize("name", RINGS)
def test_low_degrees_have_the_whole_basis(name):
    ring = RINGS[name]()
    for degree in (-1, 0, 1):
        assert ring.invariants(degree) == (len(basis(len(ring.names), degree)), ())


def test_five_generator_ring_ranks():
    ring = g3_ring()
    assert ranks_and_torsion(ring, 3) == ((1, 5, 6, 0), ((), (), (), ()))


def test_exterior_algebra_without_relations_has_binomial_ranks():
    ring = ExteriorQuotient(("a", "b", "c"), ())
    assert ranks_and_torsion(ring, 3) == ((1, 3, 3, 1), ((), (), (), ()))


def test_full_ring_ranks_match_closed_form():
    ranks, torsion = ranks_and_torsion(pv3_ring(), 3)
    assert ranks == (1, 6, 6, 0)
    assert torsion == ((), (), (), ())
    assert ranks == tuple(beer_rank(3, r) for r in range(4))


def test_closed_form_rank_values():
    assert [beer_rank(2, r) for r in range(3)] == [1, 2, 0]
    assert [beer_rank(4, r) for r in range(5)] == [1, 12, 36, 24, 0]
    for n in (2, 3, 4, 5):
        assert beer_rank(n, 1) == n * (n - 1)
    assert beer_rank(3, -1) == 0


def test_degree_one_rank_matches_abelianisation():
    for n in (2, 3):
        free, torsion = cokernel_invariants(pv_presentation(n).relator_matrix())
        assert (free, torsion) == (beer_rank(n, 1), ())


def test_both_relation_routes_span_the_same_lattice():
    direct = pv3_ring().ideal_matrix(2)
    rewritten = pv3_ring_via_splitting().ideal_matrix(2)
    f, _ = pv3_new_generators()
    pulled_back = pulled_back_ring(presentation_ring(pv3_new_presentation()), f).ideal_matrix(2)
    for lattice in (direct, rewritten, pulled_back):
        assert rank(lattice) == 9
    assert row_lattices_equal(direct, rewritten)
    assert row_lattices_equal(direct, pulled_back)


def nielsen_transvection(alphabet, i, j, sign, side):
    """x_i -> x_i x_j^sign (side 1) or x_j^sign x_i (side -1), i != j."""
    gens = alphabet.gens()

    def images(s):
        step = gens[j] ** s
        xi = gens[i] * step if side == 1 else step * gens[i]
        return GenMap(alphabet, alphabet, gens[:i] + (xi,) + gens[i + 1:])
    return Automorphism(images(sign), images(-sign))


def random_automorphisms(alphabet, count, seed, length=4):
    rng = random.Random(seed)
    n = len(alphabet)
    out = []
    for _ in range(count):
        # forward maps compose in order, backward maps in reverse
        forward = backward = GenMap.identity(alphabet)
        for _ in range(length):
            i, j = rng.sample(range(n), 2)
            step = nielsen_transvection(alphabet, i, j, rng.choice((1, -1)),
                                        rng.choice((1, -1)))
            forward, backward = forward.then(step.forward), step.backward.then(backward)
        out.append(Automorphism(forward, backward))
    return out


@pytest.mark.parametrize("seed", range(3))
def test_rewriting_the_relators_pulls_the_ring_back_along_the_inverse(seed):
    # the degree-two Magnus term of a word in [F, F] moves under a free map
    # only through its abelianisation, so the ring of phi(R) is g3's ring
    # pulled back along phi^-1
    pres = g3_presentation()
    ring = g3_ring()
    for phi in random_automorphisms(pres.alphabet, 10, seed):
        rewritten = presentation_ring(Presentation(pres.alphabet,
                                                   tuple(phi(r) for r in pres.relators)))
        pulled_back = pulled_back_ring(ring, phi.backward)
        assert row_lattices_equal(rewritten.ideal_matrix(2), pulled_back.ideal_matrix(2))


def stated_pv3_new_relations():
    """The factor's relations, and c2* against each of its generators."""
    c2 = degree_one(NEW_DUALS, c2=1)
    return stated_g3_relations() + tuple(wedge(c2, x) for x in generators(G3_NAMES))


@pytest.mark.parametrize("ring, stated, count", [
    (g3_ring, stated_g3_relations, 4),
    (pv3_ring, stated_pv3_relations, 9),
    (lambda: presentation_ring(pv3_new_presentation()), stated_pv3_new_relations, 9),
], ids=["g3", "pv3", "pv3-new"])
def test_derived_relations_span_the_stated_lattice(ring, stated, count):
    derived = ring()
    assert len(derived.relations) == count
    assert row_lattices_equal(derived.ideal_matrix(2),
                              ExteriorQuotient(derived.names, stated()).ideal_matrix(2))


def test_derived_relations_pair_to_zero_with_every_initial_form():
    for pres in (pv_presentation(3), g3_presentation(), pv_presentation(4)):
        ring = presentation_ring(pres)
        for r in ring.relations:
            for form in pres.initial_forms():
                assert sum(c * form.get(key, 0) for key, c in r.items()) == 0


def test_pv4_ring_ranks_equal_the_closed_form():
    ranks, torsion = ranks_and_torsion(presentation_ring(pv_presentation(4)), 4)
    assert ranks == (1, 12, 36, 24, 0) == tuple(beer_rank(4, r) for r in range(5))
    assert torsion == ((),) * 5


def test_stability_relations_have_one_dependency():
    assert len(pv3_stability_relations()) == 6
    assert stability_rank() == 5
    sigma = free_factor_dual()
    assert wedge(sigma, sigma) == {}


def test_splitting_pullbacks_golden_values():
    new_in_old, old_in_new = splitting_pullbacks()
    assert new_in_old["a1"] == degree_one(PV3_DUALS, l23=1)
    assert new_in_old["b1"] == degree_one(PV3_DUALS, l12=1)
    assert new_in_old["a2"] == degree_one(PV3_DUALS, l32=1)
    assert new_in_old["b2"] == degree_one(PV3_DUALS, l21=1)
    assert new_in_old["c1"] == degree_one(PV3_DUALS, l31=1, l32=-1, l21=-1)
    assert new_in_old["c2"] == free_factor_dual() == stated_free_factor_dual()
    assert old_in_new["l13"] == degree_one(NEW_DUALS, a1=1, b1=1, c1=1, c2=1)
    assert old_in_new["l31"] == degree_one(NEW_DUALS, a2=1, b2=1, c1=1)
    assert old_in_new["l12"] == degree_one(NEW_DUALS, b1=1)
    assert old_in_new["l21"] == degree_one(NEW_DUALS, b2=1)
    assert old_in_new["l23"] == degree_one(NEW_DUALS, a1=1)
    assert old_in_new["l32"] == degree_one(NEW_DUALS, a2=1)


def test_splitting_pullbacks_are_mutually_inverse():
    new_in_old, old_in_new = splitting_pullbacks()
    for n in NEW_DUALS:
        assert substitute(new_in_old[n], PV3_DUALS, old_in_new) == degree_one(NEW_DUALS, **{n: 1})
    for n in PV3_DUALS:
        assert substitute(old_in_new[n], NEW_DUALS, new_in_old) == degree_one(PV3_DUALS, **{n: 1})


@given(small_elements(3, 1), small_elements(3, 1))
@settings(max_examples=40, deadline=None)
def test_substitution_is_multiplicative(x, y):
    images = {"p": degree_one("PQR", P=1, Q=2), "q": degree_one("PQR", Q=1),
              "r": degree_one("PQR", R=1, P=-1)}
    assert substitute(wedge(x, y), "pqr", images) == \
        wedge(substitute(x, "pqr", images), substitute(y, "pqr", images))
