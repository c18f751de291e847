"""Presentations, the distinguished groups, and consequence certificates."""

import heapq
import importlib.util
import random
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvb3 import fpres, nq
from pvb3.autf import Automorphism
from pvb3.fpres import (
    REFUTED,
    UNKNOWN,
    VERIFIED,
    CertificateStep,
    ConsequenceResult,
    Presentation,
    SearchBounds,
    check_homomorphism_free,
    STABLE_LETTER,
    check_homomorphism_presented,
    g3_actions,
    g3_pairs,
    g3_presentation,
    is_consequence,
    mapping_torus_presentation,
    pv3_new_generators,
    pv3_new_presentation,
    pv_alphabet,
    pv_presentation,
    residual_nilpotence_criterion,
    semidirect_presentation,
    torus_normal_form,
    verify_certificate,
    _children,
    _decode,
    _encode,
    _join,
)
from pvb3.grammar import parse_word
from pvb3.intlinalg import _in_hermite_span, cokernel_invariants, in_row_lattice
from pvb3.nq import CollectionBudget, nilpotent_quotient
from pvb3.word import Alphabet, GenMap, Word, free_reduce

AB = Alphabet(("a", "b"))
a, b = AB.gens()


def test_pv3_alphabet_order():
    assert pv_alphabet(3).names == ("l12", "l21", "l13", "l31", "l23", "l32")


def test_pv3_relators_match_known_list():
    pres = pv_presentation(3)
    L = {name: pres.alphabet.gen(name) for name in pres.alphabet.names}

    def six(p, q, r):
        return L[p] * L[q] * L[r] * L[p].inv() * L[q].inv() * L[r].inv()

    expected = {
        six("l12", "l13", "l23"),
        six("l21", "l23", "l13"),
        six("l13", "l12", "l32"),
        six("l31", "l32", "l12"),
        six("l23", "l21", "l31"),
        six("l32", "l31", "l21"),
    }
    assert set(pres.relators) == expected
    assert len(pres.relators) == 6


def test_pv4_relator_counts():
    pres = pv_presentation(4)
    commutators = [r for r in pres.relators if len(r) == 4]
    six_letter = [r for r in pres.relators if len(r) == 6]
    assert len(commutators) == 12
    assert len(six_letter) == 24
    assert len(pres.relators) == 36


def test_pv2_is_free_of_rank_two():
    pres = pv_presentation(2)
    assert pres.alphabet.names == ("l12", "l21")
    assert pres.relators == ()


def test_pv_abelianisation_is_free_of_full_rank():
    for n in (3, 4):
        free, torsion = cokernel_invariants(pv_presentation(n).relator_matrix())
        assert free == n * (n - 1)
        assert torsion == ()


def test_g3_presentation_shape():
    pres = g3_presentation()
    assert pres.alphabet.names == ("a1", "b1", "a2", "b2", "c1")
    assert len(pres.relators) == 6
    free, torsion = cokernel_invariants(pres.relator_matrix())
    assert (free, torsion) == (5, ())


def test_new_presentation_adds_one_free_generator():
    pres = pv3_new_presentation()
    assert pres.alphabet.names == ("a1", "b1", "a2", "b2", "c1", "c2")
    # same relator letters as the five-generator group; c2 never occurs
    assert [r.letters for r in pres.relators] == \
        [r.letters for r in g3_presentation().relators]
    assert cokernel_invariants(pres.relator_matrix()) == (6, ())


ORACLES = Path(__file__).resolve().parent.parent / "bench" / "oracles.py"


def load_oracles():
    """The benchmark's oracles, which import nothing from the package."""
    spec = importlib.util.spec_from_file_location("pvb3_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("pres", [
    pv_presentation(3), pv_presentation(4), g3_presentation(), pv3_new_presentation(),
    semidirect_presentation()], ids=["pv3", "pv4", "g3", "pv3-new", "semidirect"])
def test_initial_forms_are_the_degree_two_magnus_terms(pres):
    magnus = load_oracles().magnus
    forms = pres.initial_forms()
    assert len(forms) == len(pres.relators)
    for r, form in zip(pres.relators, forms):
        expansion = magnus(r.letters, 2)
        assert form == {k: c for k, c in expansion.items() if len(k) == 2}, str(r)
        assert all(len(k) != 1 for k in expansion)
        # a Lie element: minus its own reversal
        assert form == {(j, i): -c for (i, j), c in form.items()}


def test_initial_forms_need_relators_with_zero_exponent_sums():
    a, b = AB.gens()
    assert Presentation(AB, (a.comm(b), b.comm(a) * a.comm(b))).initial_forms() == \
        ({(0, 1): 1, (1, 0): -1}, {})
    with pytest.raises(ValueError, match="nonzero exponent sum"):
        Presentation(AB, (a.comm(b), a * b * a)).initial_forms()


def test_generator_change_round_trips_freely():
    f, g = pv3_new_generators()
    assert f.then(g) == GenMap.identity(pv_alphabet(3))
    assert g.then(f) == GenMap.identity(pv3_new_presentation().alphabet)


def test_presentation_text_round_trip():
    pres = g3_presentation()
    again = Presentation.from_text(str(pres))
    assert again == pres


def test_g3_relators_are_built_from_its_pairs():
    # frozen text: both pair lists feed g3 and pv3-new
    assert str(g3_presentation()) == "\n".join((
        "gens: a1 b1 a2 b2 c1",
        "rel: a1^-1 b1^-1 a1 b1",
        "rel: a2^-1 b2^-1 a2 b2",
        "rel: c1^-1 b1 c1 a2^-1 b1^-1 a2",
        "rel: c1^-1 a1 c1 b2^-1 a1^-1 b2",
        "rel: c1^-1 b2 c1 b2^-1 a1^-1 b2^-1 a1 b2",
        "rel: c1^-1 a2 c1 a2^-1 b1^-1 a2^-1 b1 a2"))
    commuting, conjugating = g3_pairs(g3_presentation().alphabet)
    assert ["%s, %s" % pair for pair in commuting + conjugating] == \
        ["a1, b1", "a2, b2", "b1, a2", "a1, b2", "b2, a1 b2", "a2, b1 a2"]


def test_semidirect_relators_are_built_from_the_actions():
    # frozen text: b^-1 x b phi(x)^-1 for (b1; a1, a2, c1), then (b2; a1, a2, c1)
    assert str(semidirect_presentation()) == "\n".join((
        "gens: a1 b1 a2 b2 c1",
        "rel: b1^-1 a1 b1 a1^-1",
        "rel: b1^-1 a2 b1 a2 c1^-1 a2^-1 c1 a2^-1",
        "rel: b1^-1 c1 b1 a2 c1^-1 a2^-1",
        "rel: b2^-1 a1 b2 c1^-1 a1^-1 c1",
        "rel: b2^-1 a2 b2 a2^-1",
        "rel: b2^-1 c1 b2 c1^-1 a1 c1^-1 a1^-1 c1"))
    # both actions are trivial on H_1: each image is x times commutators
    for _, images in g3_actions(semidirect_presentation().alphabet):
        assert all(x.exponent_vector() == y.exponent_vector() for x, y in images)


def test_conjugate_relator_forms():
    pres = g3_presentation()
    a1, b1, a2, b2, c1 = pres.alphabet.gens()
    assert pres.relators[0] == a1.comm(b1)
    assert pres.relators[1] == a2.comm(b2)
    # c1^-1 b1 c1 = a2^-1 b1 a2 is the first conjugation relator
    assert pres.relators[2] == c1.inv() * b1 * c1 * a2.inv() * b1.inv() * a2


# -- consequence certificates -------------------------------------------------

COMM = Presentation(AB, (a * b * a.inv() * b.inv(),))


def test_worked_consequence_example():
    w = a ** 2 * b * a ** -2 * b.inv()
    res = is_consequence(COMM, w)
    assert res.status == VERIFIED
    assert len(res.certificate) == 2
    assert verify_certificate(COMM, w, res.certificate)


def test_explicit_certificate_from_the_worked_example():
    w = a ** 2 * b * a ** -2 * b.inv()
    cert = (CertificateStep(a, 0, 1), CertificateStep(AB.identity(), 0, 1))
    assert verify_certificate(COMM, w, cert)


def test_identity_is_trivially_a_consequence():
    res = is_consequence(COMM, AB.identity())
    assert res.status == VERIFIED
    assert res.certificate == ()


def test_abelianisation_refutation_is_cheap():
    pres = Presentation(AB, (a ** 2,))
    res = is_consequence(pres, a)
    assert res.status == REFUTED
    assert "abelianisation" in res.detail


def test_tampered_certificate_fails_verification():
    w = a ** 2 * b * a ** -2 * b.inv()
    cert = (CertificateStep(a, 0, 1), CertificateStep(AB.identity(), 0, -1))
    assert not verify_certificate(COMM, w, cert)


def test_consequence_result_truthiness():
    assert ConsequenceResult(VERIFIED, ())
    assert not ConsequenceResult(REFUTED)


def test_default_refutation_reaches_class_four():
    # a weight-four commutator with no relators to cancel against
    w = a.comm(b).comm(a).comm(a)
    res = is_consequence(Presentation(AB, ()), w,
                         SearchBounds(max_steps=2, max_states=100))
    assert res.status == REFUTED
    assert "class-4" in res.detail


def test_syzygy_cancelling_pair():
    cert = (CertificateStep(AB.identity(), 0, 1),
            CertificateStep(AB.identity(), 0, -1))
    assert verify_certificate(COMM, AB.identity(), cert)


def test_syzygy_across_duplicate_relators():
    r = a * b * a.inv() * b.inv()
    doubled = Presentation(AB, (r, r))
    cert = (CertificateStep(AB.identity(), 0, 1),
            CertificateStep(AB.identity(), 1, -1))
    assert verify_certificate(doubled, AB.identity(), cert)


def test_single_nontrivial_relator_is_not_a_syzygy():
    assert not verify_certificate(COMM, AB.identity(), (CertificateStep(AB.identity(), 0, 1),))


def test_relator_images_under_change_of_generators_are_consequences():
    # one direction of the free-product comparison, single relator
    f, g = pv3_new_generators()
    new_pres = pv3_new_presentation()
    old_pres = pv_presentation(3)
    image = g(new_pres.relators[0])  # [a1, b1] rewritten in the lij letters
    res = is_consequence(old_pres, image)
    assert res.status == VERIFIED
    assert verify_certificate(old_pres, image, res.certificate)


def test_consequence_search_reaches_conjugated_targets():
    # this relator image is not cyclically reduced, and the prefix-insertion
    # search only cracks it after peeling the conjugating letter off
    f, g = pv3_new_generators()
    new_pres = pv3_new_presentation()
    w = f(pv_presentation(3).relators[3])
    core, outer = w.cyclic_reduction()
    assert not outer.is_identity
    res = is_consequence(new_pres, w)
    assert res.status == VERIFIED
    assert verify_certificate(new_pres, w, res.certificate)


def test_presentation_inputs_must_match_their_alphabets():
    pres = Presentation(AB, (a.comm(b),))
    c = Alphabet(("c",)).gen("c")
    to_c = GenMap.from_dict(AB, c.alphabet, {"a": c, "b": c})
    for call, message in (
            (lambda: Presentation(AB, (a, c)),
             "relator c is not over the presentation alphabet"),
            (lambda: pv_presentation(1), "need at least two strands"),
            (lambda: residual_nilpotence_criterion(to_c), "need an endomorphism"),
            (lambda: is_consequence(pres, c), "word is not over the presentation alphabet"),
            (lambda: check_homomorphism_free(pres, GenMap.identity(c.alphabet)),
             "substitution source does not match the presentation"),
            (lambda: check_homomorphism_presented(pres, GenMap.identity(c.alphabet), pres),
             "substitution source does not match the presentation"),
            (lambda: check_homomorphism_presented(pres, to_c, pres),
             "substitution target does not match the target presentation")):
        with pytest.raises(ValueError, match="^%s$" % message):
            call()


def test_check_homomorphism_free():
    pres = Presentation(AB, (a.comm(b),))
    z = Alphabet(("x",))
    x, = z.gens()
    collapse = GenMap.from_dict(AB, z, {"a": x, "b": x})
    assert check_homomorphism_free(pres, collapse) == [(str(a.comm(b)), True)]
    apart = GenMap.identity(AB)
    assert check_homomorphism_free(pres, apart)[0][1] is False


def test_check_homomorphism_presented_certifies_the_change_of_generators():
    old, new = pv_presentation(3), pv3_new_presentation()
    f, _ = pv3_new_generators()
    results = check_homomorphism_presented(old, f, new)
    assert [label for label, _ in results] == [str(r) for r in old.relators]
    for r, (_, res) in zip(old.relators, results):
        assert res.status == VERIFIED
        assert verify_certificate(new, f(r), res.certificate)


def test_check_homomorphism_presented_refutes_a_surviving_relator():
    # the identity map does not kill [a, b] in the free group; the short
    # search gives up and the class-2 quotient shows the commutator
    [(label, res)] = check_homomorphism_presented(
        Presentation(AB, (a.comm(b),)), GenMap.identity(AB), Presentation(AB, ()),
        SearchBounds(max_states=300))
    assert label == str(a.comm(b))
    assert res == ConsequenceResult(REFUTED, None, "nonzero in the class-2 quotient")


# -- mapping tori -------------------------------------------------------------


@dataclass(frozen=True)
class TorusElement:
    """Oracle: the normal form w t^k as a group element, with the product
    (u t^j)(v t^k) = u phi^j(v) t^(j+k)."""

    torus: "MappingTorus"
    fiber: Word
    shift: int

    def __mul__(self, other):
        return TorusElement(self.torus,
                            self.fiber * self.torus.twist(other.fiber, self.shift),
                            self.shift + other.shift)

    def inv(self):
        # (w t^k)^-1 = t^-k w^-1 = phi^-k(w^-1) t^-k
        return TorusElement(self.torus, self.torus.twist(self.fiber.inv(), -self.shift),
                            -self.shift)

    @property
    def is_identity(self):
        return self.shift == 0 and self.fiber.is_identity


@dataclass(frozen=True)
class MappingTorus:
    """Oracle for ``torus_normal_form``: the semidirect product of a free
    group with Z acting by an automorphism, one letter multiplied at a time."""

    automorphism: Automorphism

    def twist(self, w, k):
        phi = self.automorphism if k >= 0 else self.automorphism.inv()
        for _ in range(abs(k)):
            w = phi(w)
        return w

    def element(self, fiber, shift=0):
        return TorusElement(self, fiber, shift)

    def from_word(self, w):
        fiber = self.automorphism.alphabet
        t_index = w.alphabet.index(STABLE_LETTER)
        out = self.element(fiber.identity())
        for g, s in w.letters:
            if g == t_index:
                out = out * self.element(fiber.identity(), s)
            else:
                out = out * self.element(fiber.gen(w.alphabet.names[g]) ** s)
        return out


def unimodular_example():
    """phi: a -> a^2 b, b -> a b on the free group of rank two."""
    fw = GenMap.from_dict(AB, AB, {"a": a ** 2 * b, "b": a * b})
    bw = GenMap.from_dict(AB, AB, {"a": a * b.inv(), "b": b * a.inv() * b})
    return Automorphism(fw, bw)


def klein_bottle_example():
    """phi: a -> a^-1 on the free group of rank one."""
    z = Alphabet(("a",))
    inv_map = GenMap.from_dict(z, z, {"a": z.gen("a").inv()})
    return Automorphism(inv_map, inv_map)


def test_unimodular_example_is_an_automorphism():
    phi = unimodular_example()  # constructor validates both composites
    assert phi(a) == a ** 2 * b


def test_mapping_torus_presentation_relators():
    phi = unimodular_example()
    pres = mapping_torus_presentation(phi)
    assert pres.alphabet.names == ("a", "b", "t")
    aa, bb, t = pres.alphabet.gens()
    assert pres.relators[0] == t * aa * t.inv() * (aa ** 2 * bb).inv()
    assert pres.relators[1] == t * bb * t.inv() * (aa * bb).inv()


def test_mapping_torus_stable_letter_conjugation():
    phi = unimodular_example()
    torus = MappingTorus(phi)
    t = torus.element(AB.identity(), 1)
    wa = torus.element(a)
    assert t * wa * t.inv() == torus.element(phi(a))
    aa, bb, tt = mapping_torus_presentation(phi).alphabet.gens()
    assert torus_normal_form(phi, tt * aa * tt.inv()) == (phi(a), 0)
    assert torus_normal_form(phi, tt.inv() * aa * tt) == (phi.inv()(a), 0)
    assert torus_normal_form(phi, tt ** 2 * bb) == (phi(phi(b)), 2)


def test_mapping_torus_word_identities():
    phi = unimodular_example()
    aa, bb, t = mapping_torus_presentation(phi).alphabet.gens()
    # t b t^-1 = a b
    assert torus_normal_form(phi, t * bb * t.inv()) == (a * b, 0)
    # [t^-1, b^-1] = a
    assert torus_normal_form(phi, t.inv().comm(bb.inv())) == (a, 0)
    # b = [b^-1, t^-1] [a, t^-1]
    assert torus_normal_form(phi, bb.inv().comm(t.inv()) * aa.comm(t.inv())) == (b, 0)


@st.composite
def torus_elements(draw, torus):
    letters = draw(st.lists(
        st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=6))
    shift = draw(st.integers(-3, 3))
    return torus.element(Word(AB, tuple(letters)), shift)


@given(st.data())
@settings(max_examples=60)
def test_mapping_torus_multiplication_associates(data):
    torus = MappingTorus(unimodular_example())
    x = data.draw(torus_elements(torus))
    y = data.draw(torus_elements(torus))
    z = data.draw(torus_elements(torus))
    assert (x * y) * z == x * (y * z)
    assert (x * x.inv()).is_identity


TORUS_EXAMPLES = {"unimodular": unimodular_example(), "klein": klein_bottle_example()}


def torus_words(draw, phi, max_len):
    full = mapping_torus_presentation(phi).alphabet
    letters = st.tuples(st.integers(0, len(full) - 1), st.sampled_from((1, -1)))
    return Word(full, tuple(draw(st.lists(letters, max_size=max_len))))


@pytest.mark.parametrize("example", sorted(TORUS_EXAMPLES))
@given(st.data())
@settings(max_examples=80, deadline=None)
def test_torus_normal_form_matches_the_oracle(example, data):
    phi = TORUS_EXAMPLES[example]
    w = torus_words(data.draw, phi, 9)
    expected = MappingTorus(phi).from_word(w)
    assert torus_normal_form(phi, w) == (expected.fiber, expected.shift)


@pytest.mark.parametrize("example", sorted(TORUS_EXAMPLES))
@given(st.data())
@settings(max_examples=60, deadline=None)
def test_torus_normal_form_ignores_a_spliced_relator(example, data):
    # u r^s u^-1 is trivial in the mapping torus, wherever it is inserted
    phi = TORUS_EXAMPLES[example]
    pres = mapping_torus_presentation(phi)
    w = torus_words(data.draw, phi, 5)
    u = torus_words(data.draw, phi, 3)
    r = data.draw(st.sampled_from(pres.relators)) ** data.draw(st.sampled_from((1, -1)))
    cut = data.draw(st.integers(0, len(w)))
    head, tail = Word(w.alphabet, w.letters[:cut]), Word(w.alphabet, w.letters[cut:])
    assert torus_normal_form(phi, head * u * r * u.inv() * tail) == torus_normal_form(phi, w)


def test_klein_bottle_torus():
    phi = klein_bottle_example()
    pres = mapping_torus_presentation(phi)
    aa, t = pres.alphabet.gens()
    assert pres.relators == (t * aa * t.inv() * aa,)


def test_residual_nilpotence_criterion_applies_to_unimodular_example():
    verdict, det = residual_nilpotence_criterion(unimodular_example().forward)
    assert verdict == "CRITERION_APPLIES"
    assert det == -1


def test_residual_nilpotence_criterion_inconclusive_for_inversion():
    z = Alphabet(("a",))
    x, = z.gens()
    inv_map = GenMap.from_dict(z, z, {"a": x.inv()})
    verdict, det = residual_nilpotence_criterion(inv_map)
    assert verdict == "INCONCLUSIVE"
    assert det == -2


@given(st.permutations(range(2)), st.data())
@settings(max_examples=40)
def test_criterion_verdict_is_relabelling_invariant(perm, data):
    images = {}
    for name in AB.names:
        letters = data.draw(st.lists(
            st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=5))
        images[name] = Word(AB, tuple(letters))
    phi = GenMap.from_dict(AB, AB, images)
    sigma = GenMap(AB, AB, tuple(AB.gens()[i] for i in perm))
    sigma_inv = GenMap(AB, AB, tuple(AB.gens()[perm.index(i)] for i in range(2)))
    relabelled = sigma_inv.then(phi).then(sigma)
    assert residual_nilpotence_criterion(phi)[0] == \
        residual_nilpotence_criterion(relabelled)[0]


def test_stable_letter_name_clash_is_rejected():
    phi = Automorphism.identity(Alphabet(("a", "t")))
    with pytest.raises(ValueError, match="stable letter 't' clashes"):
        mapping_torus_presentation(phi)


# -- the int-encoded search against the Word-based one it replaced -----------


DESCENT = "certificate found by descent"


def oracle_insertions(pres, bounds, came_from, heap, limit, descent=False):
    """Pop (rank, state, steps) from the heap and insert every relator at
    each prefix, until the empty word or limit states: a level search ranks
    a child by (steps, length), a descent keeps only the children shorter
    than their parent and ranks them by length.  Whether it reached 1."""
    inserts = []
    for idx, r in enumerate(pres.relators):
        for s in (1, -1):
            inserts.append((idx, s, (r ** s).letters))
    while heap and len(came_from) < limit:
        _, letters, steps = heapq.heappop(heap)
        if steps >= bounds.max_steps:
            continue
        for p in range(0, min(len(letters), bounds.max_prefix) + 1):
            head, tail = letters[:p], letters[p:]
            for idx, s, rel_letters in inserts:
                key = Word(pres.alphabet, head + rel_letters + tail).letters
                if key in came_from or descent and len(key) >= len(letters):
                    continue
                came_from[key] = (letters, p, idx, s)
                if not key:
                    return True
                rank = (len(key),) if descent else (steps + 1, len(key))
                heapq.heappush(heap, (rank, key, steps + 1))
    return False


def oracle_is_consequence(pres, w, bounds=SearchBounds(), descent=True):
    """The search as it was before it ran on int-encoded letters: a Word
    for every state, and one nilpotent quotient built per refutation class.
    With the descent, a descent of a tenth of max_states states comes first,
    and the level search runs only if it fails; without it, the level
    search runs alone, as it did before the descent."""
    if w.alphabet != pres.alphabet:
        raise ValueError("word is not over the presentation alphabet")
    if w.is_identity:
        return ConsequenceResult(VERIFIED, ())
    if not in_row_lattice(pres.relator_matrix(), w.exponent_vector()):
        return ConsequenceResult(REFUTED, None, "nonzero in the abelianisation")
    core, outer = w.cyclic_reduction()
    if not outer.is_identity:
        inner = oracle_is_consequence(pres, core, bounds, descent)
        if inner.status != VERIFIED:
            return inner
        shift = outer.inv()
        certificate = tuple(
            CertificateStep(shift * step.conjugator, step.relator_index, step.sign)
            for step in inner.certificate)
        assert verify_certificate(pres, w, certificate)
        return ConsequenceResult(VERIFIED, certificate, inner.detail)

    start, found, detail = w.letters, False, ""
    if descent:
        came_from = {start: None}
        found = oracle_insertions(pres, bounds, came_from, [((len(start),), start, 0)],
                                  bounds.max_states // 10, True)
        detail = DESCENT if found else ""
    if not found:
        came_from = {start: None}
        found = oracle_insertions(pres, bounds, came_from, [((0, len(start)), start, 0)],
                                  bounds.max_states)

    if found:
        moves = []
        key = ()
        while came_from[key] is not None:
            parent, p, idx, s = came_from[key]
            moves.append((parent, p, idx, s))
            key = parent
        moves.reverse()
        certificate = tuple(
            CertificateStep(Word(pres.alphabet, parent[:p]), idx, -s)
            for parent, p, idx, s in moves)
        assert verify_certificate(pres, w, certificate)
        return ConsequenceResult(VERIFIED, certificate, detail)

    for c in range(2, bounds.refute_class + 1):
        if not nilpotent_quotient(pres, c).image_is_trivial(w):
            return ConsequenceResult(
                REFUTED, None, "nonzero in the class-%d quotient" % c)
    return ConsequenceResult(UNKNOWN, None,
                             "bounds exhausted without certificate or refutation")


ABCD = Alphabet(("a", "b", "c", "d"))
# relators of length 1 and 2, which can cancel completely into a state
SHORT = Presentation(ABCD, (ABCD.gen("d"), ABCD.gen("a") * ABCD.gen("b"),
                            ABCD.gen("c") ** 2))
SEARCH_PRESENTATIONS = {"pv3": pv_presentation(3), "pv3-new": pv3_new_presentation(),
                        "g3": g3_presentation(), "short": SHORT}


@st.composite
def free_words(draw, alphabet, min_len=0, max_len=3):
    letters = draw(st.lists(
        st.tuples(st.integers(0, len(alphabet) - 1), st.sampled_from((1, -1))),
        min_size=min_len, max_size=max_len))
    return Word(alphabet, tuple(letters))


@st.composite
def search_questions(draw):
    """A presentation and a word: a product of conjugated relators, freely
    reduced so that factors may cancel into each other; a word with zero
    exponent sums; or a commutator."""
    pres = SEARCH_PRESENTATIONS[draw(st.sampled_from(sorted(SEARCH_PRESENTATIONS)))]
    alphabet = pres.alphabet
    kind = draw(st.sampled_from(("product", "h1-trivial", "commutator")))
    if kind == "product":
        w = alphabet.identity()
        for _ in range(draw(st.integers(1, 3))):
            r = pres.relators[draw(st.integers(0, len(pres.relators) - 1))]
            w = w * r.conj(draw(free_words(alphabet))) ** draw(st.sampled_from((1, -1)))
    elif kind == "h1-trivial":
        x = draw(free_words(alphabet, 1, 4))
        back = draw(st.permutations(x.inv().letters))
        w = x * Word(alphabet, tuple(back))
    else:
        w = draw(free_words(alphabet, 1, 2)).comm(draw(free_words(alphabet, 1, 2)))
    return pres, w


@given(search_questions(),
       st.builds(SearchBounds, max_steps=st.sampled_from((1, 2, 3, 12)),
                 max_prefix=st.sampled_from((0, 3, 8)), max_states=st.sampled_from((200, 2000)),
                 refute_class=st.sampled_from((2, 3))))
@settings(max_examples=60, deadline=None)
def test_search_matches_word_based_oracle(question, bounds):
    pres, w = question
    res = is_consequence(pres, w, bounds)
    assert res == oracle_is_consequence(pres, w, bounds)
    assert_descent_only_adds(res, oracle_is_consequence(pres, w, bounds, descent=False))


def assert_descent_only_adds(res, old):
    """A search result against the level-order oracle without the
    descent: equal, unless the descent found a certificate, never for a
    word the oracle refutes."""
    if res.detail == DESCENT:
        assert res.status == VERIFIED and old.status != REFUTED
    else:
        assert res == old


def test_descent_keeps_the_splitting_certificates():
    # suite check 06: the relator images both ways; the descent certifies
    # all but the images of pv3's relators 3 and 4 in pv3-new, whose cores
    # have no shorter child, and the level search certifies those two
    f, g = pv3_new_generators()
    old, new = pv_presentation(3), pv3_new_presentation()
    details = []
    for pres, images in ((new, map(f, old.relators)), (old, map(g, new.relators))):
        for w in images:
            res = is_consequence(pres, w)
            assert res.status == VERIFIED
            assert res == oracle_is_consequence(pres, w)
            assert_descent_only_adds(res, oracle_is_consequence(pres, w, descent=False))
            details.append(res.detail)
    assert details == [DESCENT] * 3 + [""] * 2 + [DESCENT] * 7


def test_descent_keeps_every_answer_on_seeded_products():
    # products of 1-4 conjugated relators, conjugators of length 0-3; the
    # descent decides some products that the level order leaves UNKNOWN
    rng, gained = random.Random(27), 0
    bounds = SearchBounds(max_states=5_000, refute_class=2)
    for pres in (pv_presentation(3), pv3_new_presentation(), g3_presentation()):
        gens = pres.alphabet.gens()
        for count in (1, 2, 3, 4):
            for _ in range(3):
                w = pres.alphabet.identity()
                for _ in range(count):
                    u = pres.alphabet.identity()
                    for _ in range(rng.randint(0, 3)):
                        u = u * rng.choice(gens) ** rng.choice((1, -1))
                    w = w * pres.relators[rng.randrange(len(pres.relators))].conj(u)
                res = is_consequence(pres, w, bounds)
                old = oracle_is_consequence(pres, w, bounds, descent=False)
                assert_descent_only_adds(res, old)
                assert res.status == VERIFIED
                gained += old.status == UNKNOWN
    assert gained > 0


def test_search_matches_oracle_when_bounds_run_out():
    # neither commutator gets a certificate from a 300-state search; the
    # first is refuted in the class-2 quotient, and the second stays
    # UNKNOWN because refutation is allowed no quotient beyond class 1
    pres = pv_presentation(3)
    l12, l21, l13 = pres.alphabet.gens()[:3]
    for w, bounds, status in (
            (l12.comm(l13), SearchBounds(max_states=300, refute_class=2), REFUTED),
            (l12.comm(l21), SearchBounds(max_states=300, refute_class=1), UNKNOWN)):
        res = is_consequence(pres, w, bounds)
        assert res.status == status
        assert res == oracle_is_consequence(pres, w, bounds)


def codes(word):
    return _encode(word.letters)


def test_join_cancels_a_whole_relator():
    x, y = AB.gens()
    head = codes(x * y)
    rel = codes((x * y).inv())
    assert _join(head, rel) == _encode(())
    assert _join(_join(head, rel), codes(b)) == codes(b)


def test_join_cancellation_runs_from_head_into_tail():
    head, rel, tail = codes(a * b), codes(b.inv()), codes(a.inv() * b * b)
    assert _join(_join(head, rel), tail) == codes(b * b)
    assert _join(_join(head, rel), codes(a.inv())) == _encode(())


@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=8),
       st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=8))
def test_join_is_free_reduction_of_the_concatenation(u, v):
    u, v = free_reduce(u), free_reduce(v)
    assert _join(_encode(u), _encode(v)) == _encode(free_reduce(u + v))
    assert _decode(_encode(u)) == u
    # the encoding orders states exactly as the letter pairs do
    assert (_encode(u) < _encode(v)) == (u < v)


WIDE = Alphabet(tuple("x%d" % i for i in range(300)))
# few generators, so that letters cancel often, with codes on both sides of
# 128 and 256, where a one-byte or a Latin-1 encoding would stop
wide_letters = st.lists(st.tuples(st.sampled_from((0, 63, 64, 127, 128, 299)),
                                  st.sampled_from((1, -1))), max_size=8)


@given(wide_letters, wide_letters)
def test_encoding_past_one_byte_round_trips_joins_and_orders(u, v):
    u, v = free_reduce(u), free_reduce(v)
    assert _decode(_encode(u)) == u
    assert _join(_encode(u), _encode(v)) == _encode(free_reduce(u + v))
    assert (_encode(u) < _encode(v)) == (u < v)


def test_encoding_of_letters_above_index_127():
    x = WIDE.gens()
    w = x[299] * x[128].inv() * x[200]
    assert _decode(codes(w)) == w.letters
    assert _join(codes(w), codes(w.inv())) == _encode(())
    assert _join(codes(w), codes(x[200].inv() * x[7])) == codes(
        x[299] * x[128].inv() * x[7])
    assert codes(x[7]) < codes(x[150].inv()) < codes(x[150]) < codes(x[299])


def test_search_over_a_300_letter_alphabet():
    x = WIDE.gens()
    r = x[299].comm(x[200])
    pres = Presentation(WIDE, (r,))
    u, v = x[150] * x[7].inv(), x[250] * x[150]
    w = u * r * u.inv() * v * r.inv() * v.inv()
    res = is_consequence(pres, w)
    assert res.status == VERIFIED
    assert res == oracle_is_consequence(pres, w)


def test_search_memory_stays_small():
    pres = pv_presentation(3)
    l12, _, l13 = pres.alphabet.gens()[:3]
    bounds = SearchBounds(max_states=50_000, refute_class=1)
    tracemalloc.start()
    try:
        res = is_consequence(pres, l12.comm(l13), bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == UNKNOWN
    assert peak < 15 * 2 ** 20, "search peaked at %.1f MB" % (peak / 2 ** 20)


def test_refutation_comes_before_the_level_search():
    # the walk refutes the commutator before the level search builds a
    # state: at the default bounds that search would fill 200,000 states
    pres = pv_presentation(3)
    l12, _, l13 = pres.alphabet.gens()[:3]
    tracemalloc.start()
    try:
        res = is_consequence(pres, l12.comm(l13))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res == ConsequenceResult(REFUTED, None, "nonzero in the class-2 quotient")
    assert peak < 10 * 2 ** 20, "search peaked at %.1f MB" % (peak / 2 ** 20)


# a 46-letter commutator of weight 5: every quotient of class 4 or less
# kills it, and neither the descent nor the level search verifies it
GAMMA5 = "[[[[l12, l23], l31], l13], l32]"


def test_an_unknown_search_stays_small_and_asks_again_without_building(monkeypatch):
    # GAMMA5 stays UNKNOWN: the class-4 tower walked before the level
    # search stays kept with the presentation while the search fills 20,000
    pres, bounds = pv_presentation(3), SearchBounds(max_states=20_000)
    w = parse_word(GAMMA5, pres.alphabet)
    tracemalloc.start()
    try:
        res = is_consequence(pres, w, bounds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == UNKNOWN
    assert peak < 9 * 2 ** 20, "search peaked at %.1f MB" % (peak / 2 ** 20)
    # a second question walks the kept stages and builds none
    real, calls = nq._advance, []
    monkeypatch.setattr(nq, "_advance", lambda *args: calls.append(args) or real(*args))
    assert is_consequence(pres, w, bounds) == res
    assert calls == []


# three relators, no conjugators: the level search needs about 10,400
# states for a certificate that the descent finds by expanding three
LATE_PRES = pv_presentation(3)
LATE_WORD = LATE_PRES.relators[2].inv() * LATE_PRES.relators[5] * LATE_PRES.relators[4]
# a pv3 relator's image in pv3-new (suite check 06): no child of its
# six-letter core is shorter, so the descent makes no step, the walk that
# follows cannot refute it, and the level search needs 10,268 states
CLIMB_PRES = pv3_new_presentation()
CLIMB_WORD = pv3_new_generators()[0](pv_presentation(3).relators[3])
CLIMB_BOUNDS = SearchBounds(max_states=20_000)


def patch_tower(monkeypatch, failures):
    """Count calls to quotient_tower; the first `failures` of them raise."""
    real, calls = nq.quotient_tower, []

    def tower(*args):
        calls.append(args)
        if len(calls) <= failures:
            raise CollectionBudget("collection exceeded 0 steps")
        return real(*args)

    monkeypatch.setattr(nq, "quotient_tower", tower)
    return calls


def test_walk_leaves_a_late_certificate_unchanged(monkeypatch):
    calls = patch_tower(monkeypatch, failures=0)
    res = is_consequence(CLIMB_PRES, CLIMB_WORD, CLIMB_BOUNDS)
    assert calls == [(CLIMB_PRES, CLIMB_BOUNDS.refute_class)]
    monkeypatch.undo()
    assert res.status == VERIFIED and res.detail == ""
    assert res == oracle_is_consequence(CLIMB_PRES, CLIMB_WORD, CLIMB_BOUNDS)


def test_collection_budget_in_the_walk_does_not_stop_a_certificate(monkeypatch):
    calls = patch_tower(monkeypatch, failures=10)
    res = is_consequence(CLIMB_PRES, CLIMB_WORD, CLIMB_BOUNDS)
    assert len(calls) == 1
    monkeypatch.undo()
    assert res.status == VERIFIED and res.detail == ""
    assert res == oracle_is_consequence(CLIMB_PRES, CLIMB_WORD, CLIMB_BOUNDS)


def test_collection_budget_in_the_walk_is_named_in_an_unknown(monkeypatch):
    # a budget stop in the walk lets the level search run, and when that
    # finds no certificate the answer is UNKNOWN with the stop in its
    # detail; the walk is not repeated, since the same build and
    # collection would stop again
    pres = pv_presentation(3)
    l12, _, l13 = pres.alphabet.gens()[:3]
    w, bounds = l12.comm(l13), SearchBounds(max_states=300)
    calls = patch_tower(monkeypatch, failures=1)
    children = spy_children(monkeypatch)
    res = is_consequence(pres, w, bounds)
    assert res.status == UNKNOWN and res.certificate is None
    assert res.detail.endswith("the walk stopped: collection exceeded 0 steps")
    assert len(calls) == 1
    assert any(not descent for _, descent in children)
    monkeypatch.undo()
    res = is_consequence(pres, w, bounds)
    assert res == ConsequenceResult(REFUTED, None, "nonzero in the class-2 quotient")
    assert res == oracle_is_consequence(pres, w, bounds)


def test_a_budget_stop_leaves_the_other_relator_images_answered(monkeypatch):
    # each relator image gets its own answer: the images of pv3's relators
    # 3 and 4 in pv3-new reach the walk, stop there, and are UNKNOWN within
    # 50 states, while the descent still certifies the other four
    f, _ = pv3_new_generators()
    calls = patch_tower(monkeypatch, failures=10)
    out = check_homomorphism_presented(LATE_PRES, f, CLIMB_PRES, SearchBounds(max_states=50))
    assert len(calls) == 2
    assert [res.status for _, res in out] == [VERIFIED] * 3 + [UNKNOWN] * 2 + [VERIFIED]
    assert all(res.detail.endswith("the walk stopped: collection exceeded 0 steps")
               for _, res in out if res.status == UNKNOWN)


# u^-1 r u w u^-1 r^-1 u w^-1 for pv3's relator 4: a consequence whose
# image in the class-4 quotient takes more than the default collection
# budget, and which neither the descent nor the level search certifies
BUDGET_WORD = ("l13^-1 l32 l12 l31^-1 l32^-1 l12^-1 l31 l13 l21 l32^-2 l23 l31 l13^-1 "
               "l31 l13^-2 l31^-1 l12 l32 l31 l12^-1 l32^-1 l13^2 l31^-1 l13 l31^-1 "
               "l23^-1 l32^2 l21^-1")


def test_a_budget_stop_in_the_walk_answers_unknown_at_default_bounds():
    pres = pv_presentation(3)
    r = pres.relators[4]
    u = parse_word("l31 l13", pres.alphabet)
    v = parse_word("l21 l32^-2 l23 l31 l13^-1 l31 l13^-1", pres.alphabet)
    w = parse_word(BUDGET_WORD, pres.alphabet)
    assert w == r.conj(u) * v * r.inv().conj(u) * v.inv()
    assert is_consequence(pres, w) == ConsequenceResult(
        UNKNOWN, None, "bounds exhausted without certificate or refutation; "
        "the walk stopped: collection exceeded 10000000 steps")


def test_the_walk_collects_no_word_in_class_1(monkeypatch):
    # commutators of two and three generators, as in the benchmark's
    # comm2 and comm3 questions: the abelianisation check decides class 1
    rng, classes = random.Random(31), []
    real = nq.NilpotentQuotient.image_is_trivial
    for pres in (pv_presentation(3), pv3_new_presentation(), g3_presentation()):
        gens, bounds = pres.alphabet.gens(), SearchBounds(max_states=2_000)
        for weight in (2, 3) * 4:
            x, *rest = rng.sample(gens, weight)
            w = x.comm(rest[0]).comm(rest[1]) if rest[1:] else x.comm(rest[0])
            monkeypatch.setattr(nq.NilpotentQuotient, "image_is_trivial",
                                lambda q, w: classes.append(q.class_) or real(q, w))
            res = is_consequence(pres, w, bounds)
            monkeypatch.undo()
            assert res == oracle_is_consequence(pres, w, bounds)
    assert classes and min(classes) == 2


# -- the search level by level, against the heap-ordered oracle ---------------


small_letters = st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))),
                         min_size=1, max_size=4)


@given(st.lists(small_letters, min_size=1, max_size=3),
       st.lists(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=9),
                min_size=1, max_size=4),
       st.integers(0, 9))
def test_children_are_the_reduced_insertions(relators, states, max_prefix):
    rels = [_encode(r) for r in map(free_reduce, relators) if r]
    seams = {}  # shared across the states, as across one search
    for letters in map(free_reduce, states):
        state = _encode(letters)
        rows = list(_children(state, max_prefix, rels, seams))
        assert len(rows) == min(len(state), max_prefix) + 1
        # with shorter, a row is the children shorter than the state
        short = list(_children(state, max_prefix, rels, seams, shorter=True))
        for p, row in enumerate(rows):
            want = sorted(_encode(free_reduce(letters[:p] + _decode(rel) + letters[p:]))
                          for rel in rels)
            assert sorted(row) == want
            assert sorted(short[p]) == [kid for kid in want if len(kid) < len(state)]


def test_children_cancel_a_whole_relator_on_into_the_tail():
    x, y, z, t = ABCD.gens()
    rels = [codes(x * y)]
    state = codes((x * y).inv().conj(z.inv()) * t)  # z (x y)^-1 z^-1 t
    assert list(_children(state, 8, rels, {}))[3] == [codes(t)]


def test_search_cut_inside_a_level_matches_the_oracle():
    # r2 times a conjugate of r2 reduces to eight letters, none of whose
    # children is shorter, so neither word gets a certificate from the
    # descent: it is VERIFIED from 110 states on, inside the second level,
    # and the certificate of CLIMB_WORD needs 10,268 states
    r = CLIMB_PRES.relators
    u = parse_word("a2^-1 b1 a2", CLIMB_PRES.alphabet)
    twice = r[2] * u * r[2] * u.inv()
    assert str(twice) == "c1^-1 b1^2 c1 a2^-1 b1^-2 a2"
    questions = [(twice, m) for m in range(100, 121)]
    questions += [(CLIMB_WORD, m) for m in (10_267, 10_268)]
    statuses = set()
    for w, max_states in questions:
        bounds = SearchBounds(max_states=max_states, refute_class=1)
        res = is_consequence(CLIMB_PRES, w, bounds)
        assert res == oracle_is_consequence(CLIMB_PRES, w, bounds)
        statuses.add((w, res.status))
    assert statuses == {(twice, UNKNOWN), (twice, VERIFIED),
                        (CLIMB_WORD, UNKNOWN), (CLIMB_WORD, VERIFIED)}


def spy_children(monkeypatch):
    """A list that gets (state, shorter) for each state _children expands
    from now: the descent asks for the shorter children, the level search
    for all of them."""
    real, calls = fpres._children, []

    def spying(letters, max_prefix, rels, seams, shorter=False):
        calls.append((letters, shorter))
        return real(letters, max_prefix, rels, seams, shorter)

    monkeypatch.setattr(fpres, "_children", spying)
    return calls


def three_relator_products():
    """Two products of three conjugated relators in each of pv3, pv3-new
    and g3, the first unconjugated and the others by one generator each,
    and LATE_WORD."""
    rng, words = random.Random(23), [(LATE_PRES, LATE_WORD)]
    for pres in (pv_presentation(3), pv3_new_presentation(), g3_presentation()):
        for _ in range(2):
            w = pres.alphabet.identity()
            for u in (pres.alphabet.identity(), *rng.sample(pres.alphabet.gens(), 2)):
                w = w * pres.relators[rng.randrange(len(pres.relators))].conj(u)
            words.append((pres, w))
    return words


def test_three_relator_products_descend_without_a_level_state(monkeypatch):
    # the descent runs before the level search and certifies each product
    # by deleting one relator block at a time: no state gets a level's
    # children, so none of the thousands of children of the first two
    # levels is built
    calls, towers = spy_children(monkeypatch), patch_tower(monkeypatch, failures=0)
    for pres, w in three_relator_products():
        calls.clear()
        res = is_consequence(pres, w)
        assert res.status == VERIFIED and res.detail == DESCENT and len(res.certificate) == 3
        assert 0 < len(calls) <= len(res.certificate) + 1
        assert all(descent for _, descent in calls)
        assert towers == []  # a descent certificate walks no quotient
        assert res == oracle_is_consequence(pres, w)


# left-normed commutators of generators of weight 2, 3 and 4: each
# survives in the quotient of its weight's class
COMMUTATORS = ((pv_presentation(3), ("[l12, l13]", "[[l12, l13], l23]",
                                     "[[[l12, l23], l31], l13]")),
               (pv3_new_presentation(), ("[c1, c2]", "[[c1, c2], a1]", "[[[c1, c2], a1], b2]")),
               (g3_presentation(), ("[a1, a2]", "[[a1, a2], c1]", "[[[a1, a2], c1], b1]")))


def test_commutators_are_refuted_before_any_level_state(monkeypatch):
    # one walk of the tower refutes each commutator before the level
    # search builds a state; the oracle searches 2,000 states first
    for pres, texts in COMMUTATORS:
        for weight, text in enumerate(texts, 2):
            w = parse_word(text, pres.alphabet)
            calls, towers = spy_children(monkeypatch), patch_tower(monkeypatch, failures=0)
            res = is_consequence(pres, w)
            assert res == ConsequenceResult(
                REFUTED, None, "nonzero in the class-%d quotient" % weight)
            assert all(descent for _, descent in calls)
            assert towers == [(pres, SearchBounds().refute_class)]
            monkeypatch.undo()
            assert res == oracle_is_consequence(pres, w, SearchBounds(max_states=2_000))


def test_late_and_refuted_words_match_the_oracle():
    # LATE_WORD at the bounds that once decided how its long children were
    # built, and [l32, l21], refuted by the walk before the level search
    for max_states in (113_370, 113_379, 113_380):
        bounds = SearchBounds(max_states=max_states, refute_class=1)
        res = is_consequence(LATE_PRES, LATE_WORD, bounds)
        assert res.status == VERIFIED and res.detail == DESCENT
        assert res == oracle_is_consequence(LATE_PRES, LATE_WORD, bounds)
    l32, l21 = (LATE_PRES.alphabet.gen(name) for name in ("l32", "l21"))
    for bounds in (SearchBounds(), SearchBounds(max_states=2_000, refute_class=2)):
        res = is_consequence(LATE_PRES, l32.comm(l21), bounds)
        assert res == ConsequenceResult(REFUTED, None, "nonzero in the class-2 quotient")
    assert res == oracle_is_consequence(LATE_PRES, l32.comm(l21), bounds)


def test_the_level_search_certifies_what_the_descent_leaves(monkeypatch):
    # the images of pv3's relators 3 and 4 in pv3-new, and r2 times a
    # conjugate of r2 there: the descent stops within a few states, and
    # the level search finds the certificate past its first level (after
    # 109, 97 and 2 expanded states)
    f, _ = pv3_new_generators()
    r = CLIMB_PRES.relators
    u = parse_word("a2^-1 b1 a2", CLIMB_PRES.alphabet)
    calls = spy_children(monkeypatch)
    for w in (f(LATE_PRES.relators[3]), f(LATE_PRES.relators[4]), r[2] * u * r[2] * u.inv()):
        calls.clear()
        res = is_consequence(CLIMB_PRES, w)
        assert res.status == VERIFIED and res.detail == ""
        descended = [state for state, descent in calls if descent]
        assert 0 < len(descended) <= 5
        assert len(calls) - len(descended) > 1
        assert res == oracle_is_consequence(CLIMB_PRES, w)


def seeded_questions(rng, pres, count):
    """count words over pres: products of 1-4 conjugated relators, freely
    reduced, so that factors may cancel into each other; a commutator of
    two short words times a relator; a word with zero exponent sums; and
    a random word."""
    gens, out = pres.alphabet.gens(), []

    def word(lo, hi):
        w = pres.alphabet.identity()
        for _ in range(rng.randint(lo, hi)):
            w = w * rng.choice(gens) ** rng.choice((1, -1))
        return w

    for k in range(count):
        kind = k % 4
        if kind == 0:
            w = pres.alphabet.identity()
            for _ in range(rng.randint(1, 4)):
                r = pres.relators[rng.randrange(len(pres.relators))] ** rng.choice((1, -1))
                w = w * r.conj(word(0, 3))
        elif kind == 1:
            w = word(1, 2).comm(word(1, 2)) * pres.relators[rng.randrange(len(pres.relators))]
        elif kind == 2:
            x = word(1, 4)
            back = list(x.inv().letters)
            rng.shuffle(back)
            w = x * Word(pres.alphabet, tuple(back))
        else:
            w = word(1, 6)
        out.append(w)
    return out


def test_descent_first_matches_the_level_search_on_seeded_questions():
    # each status is the level-search-only oracle's wherever that decides;
    # where it does not, the descent may verify but never refute
    rng, bounds, statuses = random.Random(29), SearchBounds(max_states=1_000), set()
    for pres in (pv_presentation(3), pv3_new_presentation(), g3_presentation()):
        for w in seeded_questions(rng, pres, 104):
            res = is_consequence(pres, w, bounds)
            old = oracle_is_consequence(pres, w, bounds, descent=False)
            assert res.status == old.status or old.status == UNKNOWN and res.status == VERIFIED
            if res.status == VERIFIED:
                assert verify_certificate(pres, w, res.certificate)
            statuses.add((res.status, res.detail == DESCENT))
    assert statuses >= {(VERIFIED, True), (VERIFIED, False), (REFUTED, False)}


def test_certificate_through_a_state_longer_than_the_core():
    # the six-letter core of a pv3 relator's image in pv3-new is cleared
    # only after a relator is inserted that it does not cancel
    f, _ = pv3_new_generators()
    pres = pv3_new_presentation()
    core = f(pv_presentation(3).relators[3]).cyclic_reduction()[0]
    res = is_consequence(pres, core)
    assert res.status == VERIFIED
    assert res == oracle_is_consequence(pres, core)
    lengths, state = [], core
    for step in res.certificate:
        u, r = step.conjugator, pres.relators[step.relator_index]
        state = (u * r ** step.sign * u.inv()).inv() * state
        lengths.append(len(state.letters))
    assert lengths[-1] == 0
    assert max(lengths) > len(core.letters)


def test_a_state_reached_from_two_parents_keeps_the_first():
    # the descent makes no step from the one-letter core, and two parents
    # in one level of the level search reach a state of the certificate's
    # path: the first of them in expansion order must stay its parent
    pres = Presentation.from_text("gens: a b\nrel: b^-1 a^2\nrel: b^-1 a")
    x, y = pres.alphabet.gens()
    res = is_consequence(pres, y)
    assert res == oracle_is_consequence(pres, y)
    assert res.certificate == (CertificateStep(y, 1, -1), CertificateStep(x, 0, 1),
                               CertificateStep(x ** 0, 1, -1))


def test_search_depth_and_prefix_bounds_match_the_oracle():
    pres = LATE_PRES
    r, g = pres.relators, pres.alphabet.gens()
    words = (r[1].conj(g[2]), r[0] * r[3], r[4].inv() * r[2].conj(g[0] * g[5]), g[0].comm(g[1]))
    for bounds in (SearchBounds(max_steps=1, refute_class=2),
                   SearchBounds(max_steps=2, refute_class=2),
                   SearchBounds(max_prefix=0, max_steps=0, refute_class=2)):
        for w in words:
            assert is_consequence(pres, w, bounds) == oracle_is_consequence(pres, w, bounds)
    assert is_consequence(pres, r[0] * r[3], SearchBounds(max_steps=1)).status == UNKNOWN
    assert is_consequence(pres, r[0] * r[3], SearchBounds(max_steps=2)).status == VERIFIED


def test_first_of_two_moves_to_one_child_is_the_certificate_step():
    # every insertion of a^-3 into a^6 gives a^3, both relators give a^-3:
    # each step is the first move, at p = 0 with the first relator
    x = Alphabet(("a", "b")).gens()[0]
    pres = Presentation(x.alphabet, (x ** 3, x ** -3))
    res = is_consequence(pres, x ** 6)
    assert res == oracle_is_consequence(pres, x ** 6)
    assert res.certificate == (CertificateStep(x ** 0, 0, 1),) * 2


def test_short_relators_match_the_oracle():
    x, y, z, t = ABCD.gens()
    bounds = SearchBounds(max_states=2_000, refute_class=2)
    for w in (t.conj(x), (x * y).conj(z) * t.inv(), z * (x * y).inv() * z.inv() * t * x * y,
              z ** 2 * t.conj(y) * z ** -2, x.comm(t), y * x, z.comm(x * y)):
        res = is_consequence(SHORT, w, bounds)
        assert res == oracle_is_consequence(SHORT, w, bounds)
        assert res.status == VERIFIED


def test_long_states_keep_the_search_memory_small():
    # GAMMA5: states of about 48 letters
    pres = pv_presentation(3)
    w = parse_word(GAMMA5, pres.alphabet)
    tracemalloc.start()
    try:
        res = is_consequence(pres, w, SearchBounds(max_states=50_000, refute_class=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == UNKNOWN
    assert peak < 10.5 * 2 ** 20, "search peaked at %.1f MB" % (peak / 2 ** 20)


def test_descent_verifies_four_conjugated_relators():
    # the level search does not reach this certificate's fourth level within
    # 50,000 states; deleting one relator block at a time lets its
    # conjugator cancel, so the descent finds it
    pres = pv_presentation(3)
    r, conjugators = pres.relators, ("l12 l13 l23", "l21 l31^-1 l32", "l13^-1 l23 l12",
                                     "l32 l21 l31")
    u = [parse_word(text, pres.alphabet) for text in conjugators]
    w = r[0].conj(u[0]) * r[3].conj(u[1]) * r[5].inv().conj(u[2]) * r[1].conj(u[3])
    bounds = SearchBounds(max_states=50_000, refute_class=1)
    res = is_consequence(pres, w, bounds)
    assert res.status == VERIFIED and res.detail == DESCENT
    assert len(res.certificate) == 4
    assert res == oracle_is_consequence(pres, w, bounds)
    assert oracle_is_consequence(pres, w, bounds, descent=False).status == UNKNOWN


# -- the abelianisation check, one Hermite form per presentation -------------


TORSION = Presentation.from_text("gens: a b c\nrel: a^2\nrel: b^4 c^6\nrel: [a, b]")


@pytest.mark.parametrize("pres", [pv_presentation(3), pv_presentation(4), g3_presentation(),
                                  TORSION, Presentation(AB, ())],
                         ids=["pv3", "pv4", "g3", "torsion", "no-relators"])
def test_cached_abelianisation_agrees_with_row_lattice_membership(pres):
    rng = random.Random(len(pres.alphabet) * 100 + len(pres.relators))
    mat, n = pres.relator_matrix(), len(pres.alphabet)
    outcomes = set()
    for _ in range(150):
        if pres.relators and rng.random() < 0.5:  # a lattice vector, perhaps moved
            v = [0] * n
            for r in pres.relators:
                c = rng.randint(-3, 3)
                v = [x + c * e for x, e in zip(v, r.exponent_vector())]
            if rng.random() < 0.5:
                v[rng.randrange(n)] += rng.choice((-1, 1, 2))
        else:
            v = [rng.randint(-2, 2) * rng.randint(0, 1) for _ in range(n)]
        want = in_row_lattice(mat, v)
        assert _in_hermite_span(*pres._abelian, list(v)) == want
        letters = [(g, 1 if e > 0 else -1) for g, e in enumerate(v) for _ in range(abs(e))]
        rng.shuffle(letters)  # the letters of one generator share a sign: nothing cancels
        res = is_consequence(pres, Word(pres.alphabet, tuple(letters)),
                             SearchBounds(max_steps=0, refute_class=1))
        assert (res.detail == "nonzero in the abelianisation") == (not want)
        outcomes.add(want)
    assert outcomes == {True, False}
    assert pres._abelian is pres._abelian


def test_torsion_example_has_torsion_in_its_abelianisation():
    assert cokernel_invariants(TORSION.relator_matrix()) == (1, (2, 2))


# -- certificates checked by one free reduction, against Word products --------


def oracle_verify_certificate(pres, w, certificate):
    """verify_certificate as a chain of Word products, as it was before it
    joined the letters of the factors and reduced them once."""
    out = pres.alphabet.identity()
    for step in certificate:
        r = pres.relators[step.relator_index]
        out = out * step.conjugator * r ** step.sign * step.conjugator.inv()
    return out == w


def random_steps(rng, pres, count, first_index):
    """count steps with conjugators of 0-8 letters and either sign; the
    first uses relator first_index."""
    alphabet = pres.alphabet
    return [CertificateStep(
        Word(alphabet, tuple((rng.randrange(len(alphabet)), rng.choice((1, -1)))
                             for _ in range(rng.randint(0, 8)))),
        first_index if k == 0 else rng.randrange(len(pres.relators)), rng.choice((1, -1)))
        for k in range(count)]


def tampered(rng, pres, certificate):
    """The certificate with one step changed, dropped, added or moved."""
    steps = list(certificate)
    k = rng.randrange(len(steps))
    u, idx, sign = steps[k].conjugator, steps[k].relator_index, steps[k].sign
    x = pres.alphabet.gens()[rng.randrange(len(pres.alphabet))]
    change = rng.choice(("sign", "power", "index", "conjugator", "drop", "add", "swap"))
    if change == "sign":
        steps[k] = CertificateStep(u, idx, -sign)
    elif change == "power":  # outside the CLI's +1 and -1, but the product is defined
        steps[k] = CertificateStep(u, idx, sign * rng.choice((0, 2, 3)))
    elif change == "index":
        steps[k] = CertificateStep(u, (idx + rng.randint(1, 2)) % len(pres.relators), sign)
    elif change == "conjugator":
        steps[k] = CertificateStep(u * x ** rng.choice((1, -1)), idx, sign)
    elif change == "drop":
        del steps[k]
    elif change == "add":
        steps.insert(k, CertificateStep(x, rng.randrange(len(pres.relators)), sign))
    else:
        steps[k], steps[-1] = steps[-1], steps[k]
    return tuple(steps)


@pytest.mark.parametrize("name", sorted(SEARCH_PRESENTATIONS))
def test_certificate_check_matches_the_word_product_oracle(name):
    pres = SEARCH_PRESENTATIONS[name]
    rng = random.Random(name)
    identity = pres.alphabet.identity()
    assert verify_certificate(pres, identity, ()) and oracle_verify_certificate(pres, identity, ())
    seen = set()
    for trial in range(120):
        certificate = tuple(random_steps(rng, pres, rng.randint(0, 6),
                                         trial % len(pres.relators)))
        # the product, by the oracle's Word arithmetic
        w = identity
        for step in certificate:
            r = pres.relators[step.relator_index] ** step.sign
            w = w * r.conj(step.conjugator.inv())
        other = w * pres.alphabet.gens()[rng.randrange(len(pres.alphabet))]
        cases = [(w, certificate), (other, certificate), (identity, certificate)]
        if certificate:
            cases += [(w, tampered(rng, pres, certificate)) for _ in range(3)]
            cases.append((identity, certificate + tuple(
                CertificateStep(s.conjugator, s.relator_index, -s.sign)
                for s in reversed(certificate))))
        for target, steps in cases:
            got = verify_certificate(pres, target, steps)
            assert got == oracle_verify_certificate(pres, target, steps)
            seen.add(got)
        assert verify_certificate(pres, w, certificate)
    assert seen == {True, False}


def test_certificate_conjugator_over_another_alphabet_is_rejected():
    pres = pv_presentation(3)
    w = pres.relators[0]
    certificate = (CertificateStep(pres.alphabet.identity(), 0, 1), CertificateStep(a, 1, -1))
    with pytest.raises(ValueError) as oracle_error:
        oracle_verify_certificate(pres, w, certificate)
    with pytest.raises(ValueError) as error:
        verify_certificate(pres, w, certificate)
    assert str(error.value) == str(oracle_error.value)
    assert "words over different alphabets" in str(error.value)
    # a target over another alphabet is not the product, even when empty
    assert not verify_certificate(pres, AB.identity(), ())
    assert not oracle_verify_certificate(pres, AB.identity(), ())
