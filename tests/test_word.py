"""Free reduction, word arithmetic, substitution homomorphisms."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvb3.grammar import ParseError, parse_word
from pvb3.word import Alphabet, GenMap, Word, free_reduce

AB = Alphabet(("a", "b"))
ABC = Alphabet(("a", "b", "c"))
a, b = AB.gens()


def W(letters, alphabet=AB):
    return Word(alphabet, tuple(letters))


@st.composite
def words(draw, alphabet=AB, max_len=12):
    n = len(alphabet)
    letters = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from((1, -1))),
        max_size=max_len))
    return Word(alphabet, tuple(letters))


@st.composite
def genmaps(draw, source=AB, target=AB):
    images = tuple(draw(words(target, max_len=4)) for _ in source.names)
    return GenMap(source, target, images)


def test_construction_reduces_eagerly():
    w = W([(0, 1), (1, 1), (1, -1), (0, -1), (0, 1)])
    assert w.letters == ((0, 1),)
    assert str(w) == "a"


def test_nested_cancellation():
    # a b b^-1 a^-1 collapses completely
    assert W([(0, 1), (1, 1), (1, -1), (0, -1)]).is_identity


def test_free_reduce_function_matches_constructor():
    raw = ((0, 1), (0, -1), (1, 1))
    assert free_reduce(raw) == ((1, 1),)


def test_str_rendering_folds_exponents():
    w = a * a * b.inv() * b.inv() * b.inv()
    assert str(w) == "a^2 b^-3"
    assert str(AB.identity()) == "1"


def test_alphabet_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        Alphabet(("a", "a"))
    with pytest.raises(ValueError):
        Alphabet(("a", "2x"))


@pytest.mark.parametrize("name", ["a^2", "x(", "a-b", "a b", "a*", "_a", "é'"])
def test_alphabet_rejects_names_the_grammar_cannot_read(name):
    with pytest.raises(ValueError, match="letter followed by letters, digits or '_'"):
        Alphabet(("b", name))


@pytest.mark.parametrize("name", ["\u00b2", "\u00bd", "\u216b"])  # superscript 2, 1/2, roman 12
def test_a_name_starts_with_a_letter_not_any_alphanumeric(name):
    with pytest.raises(ValueError, match="letter followed by letters, digits or '_'"):
        Alphabet(("a", name))
    with pytest.raises(ParseError, match="unexpected character %r" % name):
        parse_word(name, Alphabet(("a",)))
    # after the first letter they may follow
    alphabet = Alphabet(("a" + name, "\u00e92"))
    assert parse_word("a%s \u00e92" % name, alphabet).letters == ((0, 1), (1, 1))


def test_alphabet_accepts_every_grammar_name():
    alphabet = Alphabet(("a_1", "é2", "x12", "Z"))
    for name in alphabet.names:
        assert parse_word(name, alphabet) == alphabet.gen(name)


@pytest.mark.parametrize("letters, message", [
    (((0, 1), (2, 1)), "letter index 2 out of range"),
    (((-1, 1),), "letter index -1 out of range"),
    (((1, 2),), "letter sign must be +1 or -1, got 2"),
    (((0, 0),), "letter sign must be +1 or -1, got 0"),
], ids=["index-above", "index-negative", "sign-2", "sign-0"])
def test_word_rejects_letters_outside_its_alphabet(letters, message):
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        W(letters)


def test_genmap_rejects_images_and_words_of_the_wrong_shape():
    with pytest.raises(ValueError, match="need 2 images, got 1"):
        GenMap(AB, AB, (a,))
    with pytest.raises(ValueError, match="image c is not over the target alphabet"):
        GenMap(AB, AB, (a, ABC.gen("c")))
    f = GenMap.identity(AB)
    with pytest.raises(ValueError, match="word c is not over the source alphabet"):
        f(ABC.gen("c"))
    with pytest.raises(ValueError, match="composition mismatch"):
        f.then(GenMap.identity(ABC))


def test_words_over_different_alphabets_do_not_mix():
    with pytest.raises(ValueError):
        a * ABC.gen("a")


def test_conjugation_convention():
    # b^a = a^-1 b a
    assert b.conj(a).letters == ((0, -1), (1, 1), (0, 1))


def test_commutator_convention():
    # [a, b] = a^-1 b^-1 a b
    assert a.comm(b).letters == ((0, -1), (1, -1), (0, 1), (1, 1))


def test_power_semantics():
    assert (a * b) ** 0 == AB.identity()
    assert (a * b) ** 2 == a * b * a * b
    assert (a * b) ** -1 == b.inv() * a.inv()


@given(words())
@settings(max_examples=200)
def test_inverse_cancels(w):
    assert (w * w.inv()).is_identity
    assert (w.inv() * w).is_identity
    assert w.inv().inv() == w


@given(words(), words(), words())
@settings(max_examples=200)
def test_multiplication_is_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


@given(words())
@settings(max_examples=200)
def test_cyclic_reduction_factorisation(w):
    core, u = w.cyclic_reduction()
    assert u.inv() * core * u == w
    if core:
        g0, s0 = core.letters[0]
        g1, s1 = core.letters[-1]
        assert not (g0 == g1 and s0 == -s1)


@given(words(), genmaps())
@settings(max_examples=200)
def test_genmap_is_homomorphism(w, f):
    assert f(w.inv()) == f(w).inv()


@given(words(), words(), genmaps())
@settings(max_examples=200)
def test_genmap_respects_products(u, v, f):
    assert f(u * v) == f(u) * f(v)


@given(words(), genmaps(), genmaps())
@settings(max_examples=200)
def test_composition_agrees_with_sequential_application(w, f, g):
    assert f.then(g)(w) == g(f(w))


def test_genmap_from_dict_checks_completeness():
    with pytest.raises(ValueError):
        GenMap.from_dict(AB, AB, {"a": a})


def test_genmap_from_dict_rejects_images_of_unknown_generators():
    with pytest.raises(ValueError, match=r"unknown generators \['c'\]"):
        GenMap.from_dict(AB, AB, {"a": b, "b": a, "c": a})


def test_identity_genmap_fixes_words():
    e = GenMap.identity(AB)
    w = a * b.inv() * a
    assert e(w) == w


def test_exponent_vector():
    assert (a * b * a * b.inv() * a).exponent_vector() == (3, 0)


def test_abelianisation_matrix():
    f = GenMap.from_dict(AB, AB, {"a": a * a * b, "b": a * b})
    assert f.abelianisation_matrix().entries == ((2, 1), (1, 1))


@given(words(), genmaps())
def test_genmap_matches_the_product_of_images(w, f):
    # the letter-by-letter product the one-pass substitution replaced
    out = AB.identity()
    for g, s in w.letters:
        out = out * (f.images[g] if s == 1 else f.images[g].inv())
    assert f(w) == out


@given(words(max_len=6), st.integers(-4, 4))
def test_power_matches_repeated_multiplication(w, k):
    out = AB.identity()
    for _ in range(abs(k)):
        out = out * (w if k > 0 else w.inv())
    assert w ** k == out
