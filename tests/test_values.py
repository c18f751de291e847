"""The value types' contract: equal values are ``==`` and hash alike,
fields cannot be assigned, and copies and pickles come back equal.
``PcSystem``'s equality ignores its collection caches."""

import copy
import importlib
import pickle
import pkgutil

import pytest

import pvb3
from pvb3.autf import epsilon
from pvb3.fpres import (
    VERIFIED,
    CertificateStep,
    ConsequenceResult,
    Presentation,
    SearchBounds,
    pv_presentation,
)
from pvb3.grcohom import ExteriorQuotient
from pvb3.intlinalg import IntMatrix, Value
from pvb3.lie import lie_quotient
from pvb3.nq import NilpotentQuotient, PcSystem, nilpotent_quotient
from pvb3.suite import PASS, CheckResult, Report, SuiteOptions
from pvb3.word import Alphabet, GenMap, Word


def _word():
    return Word(Alphabet(("a", "b")), ((0, 1), (1, -1), (1, 1), (0, 1)))


def _pv3():
    # pv_presentation is cached, so equal values are built from its text
    return Presentation.from_text(str(pv_presentation(3)))


def _wedge_quotient():
    # x y and y z over the generators x, y, z
    return ExteriorQuotient(("x", "y", "z"), ({(0, 1): 1}, {(1, 2): 1}))


# name -> (build a fresh value, hashable, a field to assign)
BUILDERS = {
    "IntMatrix": (lambda: IntMatrix([{0: 1}, {1: -2}], 3), False, "ncols"),
    "Alphabet": (lambda: Alphabet(("a", "b")), True, "names"),
    "Word": (_word, True, "letters"),
    "GenMap": (lambda: GenMap.identity(Alphabet(("a", "b"))), True, "images"),
    "PcSystem": (lambda: PcSystem([1, 1, 2], [0, 0, 0], {}, {(1, 0): {2: 1}},
                                  [{0: 1}, {1: 1}]), False, "comms"),
    "NilpotentQuotient": (lambda: nilpotent_quotient(_pv3(), 2), False, "class_"),
    "Presentation": (_pv3, True, "relators"),
    "SearchBounds": (lambda: SearchBounds(max_steps=3, max_states=500), True, "max_steps"),
    "CertificateStep": (lambda: CertificateStep(_word(), 1, -1), True, "sign"),
    "ConsequenceResult": (lambda: ConsequenceResult(
        VERIFIED, (CertificateStep(_word(), 0, 1),), "found"), True, "status"),
    "Automorphism": (lambda: epsilon(3, 1, 2), True, "forward"),
    # the two quotients hold their relations as dicts
    "ExteriorQuotient": (_wedge_quotient, False, "relations"),
    "GradedLieQuotient": (lambda: lie_quotient(_pv3()), False, "relations"),
    "SuiteOptions": (lambda: SuiteOptions(class_=4, max_degree=4), True, "class_"),
    "CheckResult": (lambda: CheckResult("01-id", "anchor", PASS, "details", 1.5), True, "status"),
    "Report": (lambda: Report(SuiteOptions(), (CheckResult("01-id", "a", PASS, "d", 0.0),)),
               True, "checks"),
}
NAMES = sorted(BUILDERS)


def value_types(cls=Value):
    """Every subclass of ``cls`` defined in the package, at any depth."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("pvb3."):
            yield sub
        yield from value_types(sub)


def test_every_value_type_is_covered():
    for module in pkgutil.iter_modules(pvb3.__path__):
        importlib.import_module("pvb3." + module.name)
    types = {cls.__name__ for cls in value_types()}
    assert len(types) == 16
    assert {type(build()).__name__ for build, _, _ in BUILDERS.values()} == types == set(NAMES)


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


@pytest.mark.parametrize("name", NAMES)
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
    assert copy.deepcopy(value) == value
    assert pickle.loads(pickle.dumps(value)) == value


def test_pc_system_equality_ignores_the_caches():
    build = BUILDERS["PcSystem"][0]
    system, other = build(), build()
    system.collect([(1, 1), (0, 1)])
    assert system._conj_cache and not other._conj_cache
    assert system == other and repr(system) == repr(other)
    assert "_conj_cache" not in repr(system) and "_reach" not in repr(system)


def test_a_value_takes_each_field_once():
    with pytest.raises(TypeError, match="^NilpotentQuotient takes 4 fields, got 2$"):
        NilpotentQuotient(Alphabet(("a",)), 1)


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


def test_quotients_over_separately_built_exterior_algebras_are_equal():
    # a quotient compares its names and relations, not the objects that hold them
    names = tuple("xyz")
    relations = tuple(dict(r) for r in _wedge_quotient().relations)
    assert ExteriorQuotient(names, relations) == _wedge_quotient()
    assert ExteriorQuotient(names, relations[:1]) != _wedge_quotient()
