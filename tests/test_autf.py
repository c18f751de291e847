"""Basis-conjugating automorphisms and their defining relations."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvb3 import autf
from pvb3.autf import (
    Automorphism,
    composition_order_report,
    conjugation,
    epsilon,
    free_alphabet,
    hnn_identities,
    mccool_disjoint_commutators,
    mccool_same_target_commutators,
    mccool_triple_relations,
    pv_relators_in_cb,
    word_automorphism,
)
from pvb3.fpres import pv3_new_presentation
from pvb3.grammar import parse_word
from pvb3.word import Alphabet, GenMap, Word

F3 = free_alphabet(3)
x1, x2, x3 = F3.gens()
AB = Alphabet(("a", "b"))


@st.composite
def f3_words(draw, max_len=8):
    letters = draw(st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=max_len))
    return Word(F3, tuple(letters))


def eij(n):
    """The alphabet of the eij on n letters and the automorphisms it names."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    return Alphabet(tuple("e%d%d" % pair for pair in pairs)), [epsilon(n, *p) for p in pairs]


def eij_words(alphabet, max_len=6):
    letters = st.tuples(st.integers(0, len(alphabet) - 1), st.sampled_from((1, -1)))
    return st.lists(letters, max_size=max_len).map(lambda ls: Word(alphabet, tuple(ls)))


def test_epsilon_images():
    e12 = epsilon(3, 1, 2)
    assert e12(x1) == x2.inv() * x1 * x2
    assert e12(x2) == x2
    assert e12(x3) == x3
    assert e12.backward(x1) == x2 * x1 * x2.inv()


def test_epsilon_rejects_bad_indices():
    with pytest.raises(ValueError):
        epsilon(3, 1, 1)
    with pytest.raises(ValueError):
        epsilon(3, 0, 2)
    with pytest.raises(ValueError):
        epsilon(3, 1, 4)


def test_automorphism_requires_mutually_inverse_maps():
    bad = GenMap(F3, F3, (x1 * x2, x2, x3))
    with pytest.raises(ValueError, match="forward and backward maps are not mutually inverse"):
        Automorphism(bad, bad)


def test_automorphism_requires_one_alphabet():
    y1, y2 = free_alphabet(2).gens()
    ident, to_f2 = GenMap.identity(F3), GenMap(F3, y1.alphabet, (y1, y2, y1))
    for forward, backward in ((ident, to_f2), (to_f2, ident), (ident, GenMap.identity(AB))):
        with pytest.raises(ValueError, match="must be an endomorphism of one alphabet"):
            Automorphism(forward, backward)


def test_word_automorphism_needs_one_image_per_letter():
    with pytest.raises(ValueError, match="need 2 automorphisms, got 1"):
        word_automorphism(AB.gen("a"), [epsilon(3, 1, 2)])
    with pytest.raises(ValueError, match="empty alphabet"):
        word_automorphism(Alphabet(()).identity(), [])


def test_products_and_inverses_stay_mutually_inverse():
    # a word in the eij and its inverse evaluate to mutually inverse maps,
    # which the checked constructor proves; words whose images pass 500
    # letters are drawn again, as substituting into them letter by letter
    # takes seconds
    rng = random.Random(25)
    for n in (3, 4):
        alphabet, eps = eij(n)
        products = []
        while len(products) < 12:
            factors = rng.randint(1, 30)
            letters = [(rng.randrange(len(alphabet)), 1 if rng.random() < 0.5 else -1)
                       for _ in range(factors)]
            w = Word(alphabet, tuple(letters))
            f, g = word_automorphism(w, eps), word_automorphism(w.inv(), eps)
            if max(map(len, f.images + g.images)) <= 500:
                products.append(factors)
                assert Automorphism(f, g).forward == f
        assert max(products) >= 20


def test_product_is_application_order():
    alphabet, eps = eij(3)
    e12, e13 = epsilon(3, 1, 2), epsilon(3, 1, 3)
    assert word_automorphism(parse_word("e12 e13", alphabet), eps)(x1) == e13(e12(x1))


@given(st.sampled_from((3, 4)), st.data())
@settings(max_examples=50, deadline=None)
def test_a_product_evaluates_to_the_composite_in_application_order(n, data):
    alphabet, eps = eij(n)
    u, v = data.draw(eij_words(alphabet)), data.draw(eij_words(alphabet))
    assert word_automorphism(u * v, eps) == (
        word_automorphism(u, eps).then(word_automorphism(v, eps)))


def test_powers_and_inverse():
    e12 = epsilon(3, 1, 2)
    one = Alphabet(("e12",))
    ident = GenMap.identity(F3)
    assert word_automorphism(parse_word("e12^3", one), (e12,))(x1) == x2 ** -3 * x1 * x2 ** 3
    assert word_automorphism(parse_word("e12 e12^-1", one), (e12,)) == ident
    assert word_automorphism(one.identity(), (e12,)) == ident


def test_word_automorphism_evaluates_letters_in_order():
    pair = Word(F3.__class__(("u", "v")), ((0, 1), (1, -1)))  # u v^-1
    f = word_automorphism(pair, (epsilon(3, 1, 2), epsilon(3, 1, 3)))
    assert f == epsilon(3, 1, 2).forward.then(epsilon(3, 1, 3).backward)


def test_inner_automorphism_convention():
    f = conjugation(x1 * x2)
    assert f(x3) == (x1 * x2).inv() * x3 * x1 * x2
    assert f != conjugation(x1)
    assert Automorphism(f, conjugation((x1 * x2).inv())).forward == f


@given(f3_words(), f3_words())
@settings(max_examples=100)
def test_inner_composition_multiplies_conjugators(w, v):
    assert conjugation(w).then(conjugation(v)) == conjugation(w * v)


def test_disjoint_family_is_empty_on_three_letters():
    assert mccool_disjoint_commutators(3) == []


def test_disjoint_family_counts_and_holds_on_four_letters():
    rels = mccool_disjoint_commutators(4)
    assert len(rels) == 12
    assert all(ok for _, ok in rels)


def test_same_target_commutators_hold():
    rels = mccool_same_target_commutators(3)
    assert len(rels) == 3
    assert all(ok for _, ok in rels)
    assert ("[e21, e31]", True) in rels


def test_triple_relations_hold_in_both_composition_orders():
    rels = mccool_triple_relations(3)
    assert len(rels) == 6
    assert all(ok for _, ok in rels)
    assert composition_order_report() == {"pinned": "application_order"}
    # composing right to left reverses each side's product, which gives the
    # other side, so the reversed order repeats the same comparisons
    for n in (3, 4):
        for label, _ in mccool_triple_relations(n):
            left, right = label.split(" = ")
            assert left.split()[::-1] == right.split()


def test_triple_relations_on_four_letters():
    rels = mccool_triple_relations(4)
    assert len(rels) == 24
    assert all(ok for _, ok in rels)


def test_hnn_identities_all_hold():
    rels = hnn_identities()
    assert len(rels) == 14
    failures = [label for label, ok in rels if not ok]
    assert failures == []


def test_hnn_identities_read_the_change_of_generators():
    # the first block kills each relator of pv3-new, in its order, and
    # every block names the generators of pv3-new
    labels = [label for label, _ in hnn_identities()]
    assert labels[:6] == ["%s = 1" % r for r in pv3_new_presentation().relators]
    assert labels[2] == "c1^-1 b1 c1 a2^-1 b1^-1 a2 = 1"
    assert labels[-2] == "c2^-1 b1 a2 c1^-1 c2 = a2 c1^-1 b1"
    assert not {"g1", "g2"} & set(" ".join(labels).split())


def test_a_wrong_eij_breaks_the_relator_block(monkeypatch):
    # with e13 standing in for e12, the third and sixth relators of pv3-new
    # no longer die; a block comparing each eij with its rewriting through
    # f would still hold, since g(f(lij)) = lij freely
    real = autf.epsilon
    monkeypatch.setattr(autf, "epsilon",
                        lambda n, i, j: real(n, 1, 3) if (i, j) == (1, 2) else real(n, i, j))
    verdicts = [ok for _, ok in hnn_identities()[:6]]
    assert verdicts == [True, True, False, True, True, False]


def test_pv_relators_die_under_the_conjugating_assignment():
    rels = pv_relators_in_cb(3)
    assert len(rels) == 6
    assert all(ok for _, ok in rels)


def test_pv_relators_die_on_four_strands_too():
    rels = pv_relators_in_cb(4)
    assert len(rels) == 36
    assert all(ok for _, ok in rels)
