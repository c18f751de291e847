"""The value types' contract: equal values are ``==`` and hash alike,
fields of the immutable types cannot be assigned, and copies and pickles
come back equal.  ``PcSystem`` is the one mutable type, and its equality
ignores its collection caches."""

import copy
import pickle

import pytest

from pvb3.autf import epsilon
from pvb3.fpres import (
    VERIFIED,
    CertificateStep,
    ConsequenceResult,
    Presentation,
    SearchBounds,
    pv_presentation,
)
from pvb3.grcohom import Exterior, ExteriorQuotient
from pvb3.intlinalg import IntMatrix
from pvb3.lie import lie_gen, lie_quotient
from pvb3.nq import PcSystem, nilpotent_quotient
from pvb3.suite import PASS, CheckResult, Report, SuiteOptions
from pvb3.word import Alphabet, GenMap, Word

WEDGE = Exterior(("x", "y", "z"))


def _word():
    return Word(Alphabet(("a", "b")), ((0, 1), (1, -1), (1, 1), (0, 1)))


def _pv3():
    # pv_presentation is cached, so equal values are built from its text
    return Presentation.from_text(str(pv_presentation(3)))


def _wedge_quotient():
    x, y, z = (WEDGE.gen(n) for n in WEDGE.names)
    return ExteriorQuotient(WEDGE, (x * y, y * z))


# name -> (build a fresh value, hashable, a field to assign or None if mutable)
BUILDERS = {
    "IntMatrix": (lambda: IntMatrix([{0: 1}, {1: -2}], 3), False, "ncols"),
    "Alphabet": (lambda: Alphabet(("a", "b")), True, "names"),
    "Word": (_word, True, "letters"),
    "GenMap": (lambda: GenMap.identity(Alphabet(("a", "b"))), True, "images"),
    "PcSystem": (lambda: PcSystem([1, 1, 2], [0, 0, 0], {}, {(1, 0): {2: 1}},
                                  [{0: 1}, {1: 1}]), False, None),
    "NilpotentQuotient": (lambda: nilpotent_quotient(_pv3(), 2), False, "class_"),
    "Presentation": (_pv3, True, "relators"),
    "SearchBounds": (lambda: SearchBounds(max_steps=3, max_states=500), True, "max_steps"),
    "CertificateStep": (lambda: CertificateStep(_word(), 1, -1), True, "sign"),
    "ConsequenceResult": (lambda: ConsequenceResult(
        VERIFIED, (CertificateStep(_word(), 0, 1),), "found"), True, "status"),
    "Automorphism": (lambda: epsilon(3, 1, 2), True, "forward"),
    "ExtElement": (lambda: WEDGE.gen("x") * WEDGE.gen("z") + 2 * WEDGE.gen("y"), True, "terms"),
    "ExteriorQuotient": (_wedge_quotient, True, "relations"),
    "LieElement": (lambda: lie_gen(3, 0).bracket(lie_gen(3, 2)), True, "terms"),
    "GradedLieQuotient": (lambda: lie_quotient(_pv3()), True, "relations"),
    "SuiteOptions": (lambda: SuiteOptions(class_=4, max_degree=4), True, "class_"),
    "CheckResult": (lambda: CheckResult("01-id", "anchor", PASS, "details", 1.5), True, "status"),
    "Report": (lambda: Report(SuiteOptions(), (CheckResult("01-id", "a", PASS, "d", 0.0),)),
               True, "checks"),
}
NAMES = sorted(BUILDERS)


def _same(left, right):
    # an ExteriorQuotient's algebra compares by identity, so a copy is
    # compared through the algebra's names
    if isinstance(left, ExteriorQuotient):
        return left.algebra.names == right.algebra.names and left.relations == right.relations
    return left == right


def test_every_value_type_is_covered():
    assert {type(build()).__name__ for build, _, _ in BUILDERS.values()} == set(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_equal_values_are_equal_and_hash_alike(name):
    build, hashable, _ = BUILDERS[name]
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert first != object()
    if hashable:
        assert hash(first) == hash(second)
    else:
        with pytest.raises(TypeError):
            hash(first)


@pytest.mark.parametrize("name", [n for n in NAMES if BUILDERS[n][2]])
def test_fields_of_immutable_values_cannot_be_assigned(name):
    build, _, field = BUILDERS[name]
    value = build()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_copies_and_pickles_come_back_equal(name):
    value = BUILDERS[name][0]()
    assert _same(copy.deepcopy(value), value)
    assert _same(pickle.loads(pickle.dumps(value)), value)


def test_the_pc_system_stays_mutable_and_its_equality_ignores_the_caches():
    build = BUILDERS["PcSystem"][0]
    system, other = build(), build()
    system.collect([(1, 1), (0, 1)])
    assert system._conj_cache or system._reach
    assert system == other and repr(system) == repr(other)
    assert "_conj_cache" not in repr(system) and "_reach" not in repr(system)
    other.budget = 5
    assert other.budget == 5 and system != other


def test_defaults_and_keyword_construction():
    assert SearchBounds() == SearchBounds(12, 8, 200_000, 4)
    bounds = SearchBounds(max_states=300)
    assert (bounds.max_steps, bounds.max_prefix, bounds.max_states, bounds.refute_class) \
        == (12, 8, 300, 4)
    options = SuiteOptions(class_=4, max_degree=4)
    assert (options.class_, options.max_degree, options.bounds, options.timings) \
        == (4, 4, SearchBounds(), False)
    assert SuiteOptions() == SuiteOptions(3, 3, SearchBounds(), False)
    assert ConsequenceResult(VERIFIED) == ConsequenceResult(VERIFIED, None, "")


def test_presentation_caches_and_unchecked_automorphisms_survive():
    pres = Presentation(Alphabet(("a", "b")), (Alphabet(("a", "b")).gen("a") ** 2,))
    assert pres._abelian is pres._abelian
    nilpotent_quotient(pres, 1)
    assert len(pres._tower) == 1
    f = epsilon(3, 1, 2)
    assert (f * f.inv()).is_identity()


def test_iterable_fields_are_kept_as_tuples():
    # names, relators and images given as lists make the same, hashable values
    ab = Alphabet(("a", "b"))
    listed = Alphabet(["a", "b"])
    assert listed == ab and hash(listed) == hash(ab) and listed.names == ("a", "b")
    a, b = ab.gens()
    assert Word(listed, ((0, 1),)) * b == a * b
    assert GenMap(listed, listed, [b, a]) == GenMap(ab, ab, (b, a))
    hash(GenMap(listed, listed, [b, a]))
    assert Presentation(listed, [a.comm(b)]) == Presentation(ab, (a.comm(b),))
    hash(Presentation(listed, [a.comm(b)]))
