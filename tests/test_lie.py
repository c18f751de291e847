"""Graded Lie quotients, enveloping oracle, PBW bookkeeping.

The package reads ideal rows as coefficients at Lyndon words.  The
triangular solve into the Lyndon bracket basis (``is_lyndon``,
``standard_factorization``, ``bracket_tensor``, ``lyndon_coordinates``)
is the oracle those rows are compared against; it brackets and adds
tensor polynomials, ``{word: int}`` dicts, with its own ``bracket`` and
``combine``.  The package derives
every relation from the relators' initial forms; the six relations
stated by hand in ``stated_pv3_lie_quotient`` are the oracle for those.
``semidirect_check`` reads g3's Lie ring off its semidirect form; the
sums of Witt ranks that form gives in every degree are the oracle for
that.
"""

from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvb3.fpres import (
    Presentation,
    g3_presentation,
    pv3_new_presentation,
    pv_presentation,
    semidirect_presentation,
)
from pvb3 import lie
from pvb3.lie import (
    GradedLieQuotient,
    enveloping_invariants,
    lie_quotient,
    lyndon_words,
    pbw_coefficients,
    semidirect_check,
)
from pvb3.intlinalg import IntMatrix, cokernel_invariants, row_lattices_equal
from pvb3.nq import nilpotent_quotient
from pvb3.word import Alphabet


def gen(index):
    return {(index,): 1}


def combine(*terms):
    """The sum of c * x over the (c, x) pairs, zero terms dropped."""
    out = Counter()
    for c, x in terms:
        for k, v in x.items():
            out[k] += c * v
    return {k: v for k, v in out.items() if v}


def bracket(x, y):
    """xy - yx in the tensor algebra."""
    out = Counter()
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            out[k1 + k2] += c1 * c2
            out[k2 + k1] -= c1 * c2
    return combine((1, out))


def stated_pv3_lie_quotient(free_generator=True):
    """The degree-two presentation of the associated graded Lie ring as
    stated by hand: six relations in the first five generators, the
    sixth spanning the free factor."""
    names = ("a1", "b1", "a2", "b2", "c1", "c2")[:6 if free_generator else 5]
    a1, b1, a2, b2, c1 = (gen(k) for k in range(5))
    relations = (
        bracket(a1, b1),
        bracket(a2, b2),
        combine((1, bracket(c1, b1)), (-1, bracket(a2, b1))),
        combine((1, bracket(c1, a1)), (-1, bracket(b2, a1))),
        combine((1, bracket(c1, b2)), (-1, bracket(a1, b2))),
        combine((1, bracket(c1, a2)), (-1, bracket(b1, a2))),
    )
    return GradedLieQuotient(names, relations)


def pv3_quotient(free_generator=True):
    """The Lie quotient of pv3-new, or of g3 without the free generator."""
    return lie_quotient(pv3_new_presentation() if free_generator else g3_presentation())


def is_lyndon(word):
    return all(word < word[k:] for k in range(1, len(word)))


def standard_factorization(word):
    """Split a Lyndon word before its longest proper Lyndon suffix."""
    if len(word) < 2 or not is_lyndon(word):
        raise ValueError("needs a Lyndon word of length at least two")
    for k in range(1, len(word)):
        if is_lyndon(word[k:]):
            return word[:k], word[k:]
    raise AssertionError("unreachable")


@lru_cache(maxsize=None)
def bracket_tensor(word):
    """Tensor expansion of the standard bracketing of a Lyndon word."""
    if len(word) == 1:
        return gen(word[0])
    left, right = standard_factorization(word)
    return bracket(bracket_tensor(left), bracket_tensor(right))


def lyndon_coordinates(ngens, element, degree):
    """Coefficients over the Lyndon bracket basis in one degree.

    Raises ValueError when the component is not in the free Lie ring.
    """
    remaining = {k: c for k, c in element.items() if len(k) == degree}
    basis = lyndon_words(ngens, degree)
    coords = [0] * len(basis)
    while remaining:
        word = min(remaining)
        if not is_lyndon(word):
            raise ValueError("not a Lie element: leading word %r" % (word,))
        c = remaining[word]
        coords[basis.index(word)] = c
        for k, v in bracket_tensor(word).items():
            value = remaining.get(k, 0) - c * v
            if value:
                remaining[k] = value
            else:
                remaining.pop(k, None)
    return tuple(coords)


def oracle_ideal_matrix(quotient, degree):
    """The ideal rows of ``quotient`` in Lyndon-basis coordinates."""
    rows = []
    layer = list(quotient.relations)
    for _ in range(degree - 2):
        layer = [bracket(gen(i), e) for e in layer for i in range(quotient.ngens)]
    for e in layer:
        rows.append(lyndon_coordinates(quotient.ngens, e, degree))
    return IntMatrix.from_rows(rows, len(lyndon_words(quotient.ngens, degree)))


def lyndon_change_of_basis(ngens, degree):
    """M[w][u] = coefficient of the Lyndon word u in the standard
    bracketing of w, as one sparse dict per row."""
    basis = lyndon_words(ngens, degree)
    column = {u: k for k, u in enumerate(basis)}
    return [{column[u]: c for u, c in bracket_tensor(w).items() if u in column}
            for w in basis]


def assert_rows_are_coordinates_times_change_of_basis(quotient, degree):
    change = lyndon_change_of_basis(quotient.ngens, degree)
    for k, row in enumerate(change):
        # unitriangular: 1 at its own word, nothing at smaller words
        assert row[k] == 1 and min(row) == k
    oracle = oracle_ideal_matrix(quotient, degree)
    expected = []
    for coords in oracle.entries:
        out = [0] * len(change)
        for w, c in enumerate(coords):
            if c:
                for u, v in change[w].items():
                    out[u] += c * v
        expected.append(tuple(out))
    mat = quotient.ideal_matrix(degree)
    assert mat.ncols == oracle.ncols
    assert mat.entries == tuple(expected)
    assert cokernel_invariants(mat) == cokernel_invariants(oracle)


def lie_dims(quotient, top_degree):
    """Free ranks of degrees 1..top_degree, each degree computed once."""
    return tuple(quotient.invariants(d)[0] for d in range(1, top_degree + 1))


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
    total = sum(_mobius(d) * ngens ** (degree // d)
                for d in range(1, degree + 1) if degree % d == 0)
    return total // degree


def test_lyndon_counts_match_witt_numbers():
    for ngens in range(1, 7):
        for degree in range(1, 6):
            assert len(lyndon_words(ngens, degree)) == witt_rank(ngens, degree)


def test_free_lie_ring_ranks_are_witt_numbers():
    # no relations: a cokernel of a matrix with no rows, one column per
    # Lyndon word
    for ngens in range(1, 5):
        free = GradedLieQuotient(tuple("x%d" % k for k in range(ngens)), ())
        for degree in range(1, 6):
            assert free.invariants(degree) == (witt_rank(ngens, degree), ())


def test_frozen_basis_counts():
    assert [len(lyndon_words(2, d)) for d in range(1, 5)] == [2, 1, 2, 3]
    assert len(lyndon_words(6, 2)) == 15
    assert len(lyndon_words(6, 3)) == 70


def test_lyndon_words_are_lyndon_and_sorted():
    words = lyndon_words(3, 4)
    assert all(is_lyndon(w) for w in words)
    assert list(words) == sorted(words)


def test_standard_factorization():
    assert standard_factorization((0, 1, 1)) == ((0, 1), (1,))
    assert standard_factorization((0, 0, 1)) == ((0,), (0, 1))
    with pytest.raises(ValueError):
        standard_factorization((1, 0))
    with pytest.raises(ValueError):
        standard_factorization((0,))


def test_bracketing_expansion_is_frozen():
    assert bracket_tensor((0, 1)) == {(0, 1): 1, (1, 0): -1}
    assert bracket_tensor((0, 1, 1)) == \
        {(0, 1, 1): 1, (1, 0, 1): -2, (1, 1, 0): 1}


def small_tensors(ngens, degree):
    words = st.tuples(*(st.integers(0, ngens - 1) for _ in range(degree)))
    return st.dictionaries(words, st.integers(-3, 3), max_size=4).map(
        lambda t: combine((1, t)))


@given(small_tensors(3, 1), small_tensors(3, 1), small_tensors(3, 1))
@settings(max_examples=40, deadline=None)
def test_bracket_is_alternating_and_satisfies_jacobi(x, y, z):
    assert bracket(x, x) == {}
    assert combine((1, bracket(x, y)), (1, bracket(y, x))) == {}
    assert combine((1, bracket(bracket(x, y), z)), (1, bracket(bracket(y, z), x)),
                   (1, bracket(bracket(z, x), y))) == {}


@given(st.integers(0, 2), st.integers(1, 3).flatmap(lambda d: small_tensors(3, d)))
@settings(max_examples=60, deadline=None)
def test_bracketing_with_a_generator_matches_the_oracle(index, e):
    assert lie._bracket(index, e) == bracket(gen(index), e)


@given(st.lists(st.integers(-4, 4), min_size=8, max_size=8))
@settings(max_examples=40, deadline=None)
def test_lyndon_coordinates_round_trip(coeffs):
    # degree-3 component over three generators has eight Lyndon words
    basis = lyndon_words(3, 3)
    total = combine(*((c, bracket_tensor(w)) for c, w in zip(coeffs, basis)))
    assert lyndon_coordinates(3, total, 3) == tuple(coeffs)


def test_non_lie_tensors_are_rejected():
    with pytest.raises(ValueError):
        lyndon_coordinates(2, {(0, 1): 1}, 2)
    with pytest.raises(ValueError):
        lyndon_coordinates(2, {(0, 0): 1}, 2)


@pytest.mark.parametrize("free_generator", [True, False])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_pv3_ideal_rows_are_lyndon_coordinates_times_a_unitriangular_matrix(
        free_generator, degree):
    quotient = pv3_quotient(free_generator)
    assert_rows_are_coordinates_times_change_of_basis(quotient, degree)


@pytest.mark.parametrize("free_generator", [True, False])
def test_initial_forms_are_the_stated_relations_up_to_sign(free_generator):
    derived = pv3_quotient(free_generator)
    stated = stated_pv3_lie_quotient(free_generator)
    assert derived.names == stated.names
    assert len(derived.relations) == len(stated.relations) == 6
    for d, s in zip(derived.relations, stated.relations):
        assert d == s or d == combine((-1, s))
    for degree in (2, 3):
        assert row_lattices_equal(derived.ideal_matrix(degree), stated.ideal_matrix(degree))


def test_pv3_and_pv3_new_give_the_same_lie_ranks():
    # the splitting changes the basis of H_1, and the initial forms with it
    assert lie_dims(lie_quotient(pv_presentation(3)), 4) == lie_dims(pv3_quotient(), 4)


def test_quotients_drop_zero_initial_forms():
    # a relator in the third term of the lower central series has initial
    # form 0, so it adds no relation
    ab = Alphabet(("a", "b"))
    a, b = ab.gens()
    heisenberg = lie_quotient(Presentation(ab, (a.comm(b).comm(a), a.comm(b).comm(b))))
    assert heisenberg.relations == ()
    assert lie_dims(heisenberg, 3) == (2, 1, 2)
    # dependent relators: each c1-power conjugate of [a1, b1] or [a2, b2]
    # has the same initial form as the commutator itself
    g3 = Alphabet(("a1", "b1", "a2", "b2", "c1"))
    a1, b1, a2, b2, c1 = g3.gens()
    conjugates = tuple(y.comm(z).conj(c1 ** k) for y, z in ((a1, b1), (a2, b2))
                       for k in range(-3, 4))
    assert len(conjugates) == 14
    assert lie_quotient(Presentation(g3, conjugates)).invariants(2) == (8, ())


def test_pv4_lie_ranks_equal_the_lower_central_ranks():
    quotient = lie_quotient(pv_presentation(4))
    assert quotient.names == pv_presentation(4).alphabet.names
    dims = lie_dims(quotient, 4)
    assert dims == (12, 30, 164, 918)
    assert dims == tuple(free for free, _ in nilpotent_quotient(pv_presentation(4), 4).layers)


@st.composite
def quadratic_quotients(draw):
    n = draw(st.integers(2, 4))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    coefficient = st.sampled_from([1, -1, 2, -2, 3, 4, 6])
    relations = []
    for _ in range(draw(st.integers(1, 3))):
        terms = draw(st.dictionaries(st.sampled_from(pairs), coefficient,
                                     min_size=1, max_size=3))
        relations.append(combine(*((c, bracket(gen(i), gen(j))) for (i, j), c in terms.items())))
    return GradedLieQuotient(tuple("x%d" % k for k in range(n)), tuple(relations))


@given(quadratic_quotients(), st.integers(2, 4))
@settings(max_examples=60, deadline=None)
def test_ideal_rows_are_lyndon_coordinates_times_a_unitriangular_matrix(quotient, degree):
    assert_rows_are_coordinates_times_change_of_basis(quotient, degree)


@pytest.mark.parametrize("terms", [{(0, 1): 1}, {(0, 0): 1},
                                   {(0, 1): 1, (1, 0): -1, (1, 1): 2},
                                   {(0, 1): 2, (1, 0): -1}])
def test_non_lie_relation_is_rejected(terms):
    with pytest.raises(ValueError, match="Lie elements"):
        GradedLieQuotient(("x", "y"), (terms,))


def test_pv3_quotient_dimensions():
    q = pv3_quotient()
    assert q.names == ("a1", "b1", "a2", "b2", "c1", "c2")
    assert [q.invariants(d) for d in range(1, 5)] == \
        [(6, ()), (9, ()), (34, ()), (120, ())]


def test_pv3_degree_five_matches_the_koszul_dual_series():
    # prod_k (1 - t^k)^(-phi_k) = 1 / (1 - 6t + 6t^2), the Koszul dual of
    # the cohomology ranks (1, 6, 6), gives phi_5 = 474.
    assert pv3_quotient().invariants(5) == (474, ())


def test_free_factor_contributes_five_in_degree_two():
    with_c2 = lie_dims(pv3_quotient(), 2)
    without = lie_dims(pv3_quotient(free_generator=False), 2)
    assert without == (5, 4)
    assert with_c2[1] - without[1] == 5


def test_quotient_dims_agree_with_group_quotients():
    # same graded ranks from the group side, by collection
    assert lie_dims(pv3_quotient(), 3) == \
        tuple(f for f, _ in nilpotent_quotient(pv_presentation(3), 3).layers)
    names = Alphabet(("a", "b", "c", "d"))
    a, b, c, d = names.gens()
    pres = Presentation(names, (a.comm(b), c.comm(d)))
    rel = (bracket(gen(0), gen(1)), bracket(gen(2), gen(3)))
    quad = GradedLieQuotient(("a", "b", "c", "d"), rel)
    assert lie_dims(quad, 3) == (4, 4, 12)
    assert lie_dims(quad, 3) == tuple(f for f, _ in nilpotent_quotient(pres, 3).layers)


def test_all_pairs_give_abelianization():
    rel = tuple(bracket(gen(i), gen(j)) for i in range(3) for j in range(i + 1, 3))
    q = GradedLieQuotient(("x", "y", "z"), rel)
    assert lie_dims(q, 3) == (3, 0, 0)


def test_inhomogeneous_relation_is_rejected():
    # degrees 1 and 2, degree 3, and the zero element
    for bad in (combine((1, gen(0)), (1, bracket(gen(0), gen(1)))), bracket_tensor((0, 1, 1)), {}):
        with pytest.raises(ValueError, match="homogeneous of degree 2"):
            GradedLieQuotient(("x", "y"), (bad,))


def test_enveloping_dimensions():
    free = GradedLieQuotient(tuple("x%d" % k for k in range(6)), ())
    assert enveloping_invariants(free, 3) == ((6, ()), (36, ()), (216, ()))
    env = enveloping_invariants(pv3_quotient(), 3)
    assert env == ((6, ()), (30, ()), (144, ()))


def dense_enveloping_invariants(ngens, relations, top_degree):
    """The enveloping route on dense rows, kept as the oracle for the
    sparse rows of ``enveloping_invariants``."""
    out = []
    for degree in range(1, top_degree + 1):
        words = tuple(product(range(ngens), repeat=degree))
        index = {w: k for k, w in enumerate(words)}
        rows = []
        for r in relations:
            for a in range(degree - 1):
                b = degree - 2 - a
                for left in product(range(ngens), repeat=a):
                    for right in product(range(ngens), repeat=b):
                        vec = [0] * len(words)
                        for k, c in r.items():
                            vec[index[left + k + right]] += c
                        rows.append(tuple(vec))
        out.append(cokernel_invariants(IntMatrix.from_rows(rows, len(words))))
    return tuple(out)


@given(quadratic_quotients(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_enveloping_rows_match_the_dense_oracle(quotient, top):
    assert enveloping_invariants(quotient, top) == \
        dense_enveloping_invariants(quotient.ngens, quotient.relations, top)


def test_pv3_enveloping_series_through_degree_five():
    # the series 1 / (1 - 6t + 6t^2) of the Koszul dual algebra
    env = enveloping_invariants(pv3_quotient(), 5)
    assert (1,) + tuple(free for free, _ in env) == (1, 6, 30, 144, 684, 3240)
    assert all(torsion == () for _, torsion in env)


def test_pbw_series_values():
    assert pbw_coefficients((6, 9), 2) == (1, 6, 30)
    assert pbw_coefficients((6, 9, 34), 3) == (1, 6, 30, 144)
    # one generator of each degree behaves like a polynomial algebra
    assert pbw_coefficients((3,), 3) == (1, 3, 6, 10)
    # a degree of rank zero contributes the factor 1:
    # (1 - t)^-2 (1 - t^3)^-1 = (1 + 2t + 3t^2 + 4t^3 + ...)(1 + t^3 + ...)
    assert pbw_coefficients((2, 0, 1), 3) == (1, 2, 3, 5)
    assert pbw_coefficients((0, 0), 2) == (1, 0, 0)


def test_pbw_consistency_links_the_two_oracles():
    q = pv3_quotient()
    u = (1,) + tuple(f for f, _ in enveloping_invariants(q, 3))
    assert pbw_coefficients(lie_dims(q, 3), 3) == u
    assert pbw_coefficients((6, 10, 34), 3) != u


def semidirect_rank(degree):
    """Rank of the semidirect product of L(a1, a2, c1) by L(b1, b2) in one
    degree."""
    return witt_rank(3, degree) + witt_rank(2, degree)


def test_g3_lie_ranks_are_the_semidirect_ranks():
    quotient = lie_quotient(g3_presentation())
    for degree in range(1, 7):
        assert quotient.invariants(degree) == (semidirect_rank(degree), ())


def test_g3_lower_central_ranks_are_the_semidirect_ranks():
    layers = nilpotent_quotient(g3_presentation(), 5).layers
    assert layers == tuple((semidirect_rank(k), ()) for k in range(1, 6))
    assert [free for free, _ in layers] == [5, 4, 10, 21, 54]


def test_semidirect_check_passes():
    assert semidirect_check()


def replaced(relators, index, relator):
    return relators[:index] + (relator,) + relators[index + 1:]


P = semidirect_presentation()
B1, C1 = P.alphabet.gen("b1"), P.alphabet.gen("c1")


@pytest.mark.parametrize("relators, g3_lattice", [
    # delta_2(a1) gains 2 [b1, a1]
    (replaced(P.relators, 3, P.relators[3] * P.relators[0] ** 2), True),
    # (b2, c1) missing: five relators
    (P.relators[:5], False),
    # (b2, a2) twice
    (P.relators + (P.relators[4],), True),
    # phi_1(c1) = c1: of the right shape
    (replaced(P.relators, 2, C1.conj(B1) * C1.inv()), False),
], ids=["b1-in-delta", "pair-missing", "pair-repeated", "lattice"])
def test_semidirect_check_fails_off_the_semidirect_form(monkeypatch, relators, g3_lattice):
    # g3_lattice: whether the degree-2 lattice is still g3's, so that only the
    # form of the relations can fail the check
    pres = Presentation(P.alphabet, relators)
    assert row_lattices_equal(lie_quotient(pres).ideal_matrix(2),
                              lie_quotient(g3_presentation()).ideal_matrix(2)) == g3_lattice
    monkeypatch.setattr(lie, "semidirect_presentation", lambda: pres)
    assert not semidirect_check()
