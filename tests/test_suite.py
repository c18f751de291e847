"""Fault injection into the suite's checks.

Each case replaces one name a check imports with a wrong answer and runs
that check alone through ``run_suite``: the check must report its own
FAIL (or FLAGGED) text, and the report's exit status must follow.  The
last two cases raise inside a check instead, which ``run_suite`` turns
into UNKNOWN for a budget stop and into FAIL for any other error.
"""

from itertools import count
from types import SimpleNamespace

import pytest

from pvb3 import suite
from pvb3.fpres import REFUTED, ConsequenceResult
from pvb3.intlinalg import IntMatrix
from pvb3.nq import CollectionBudget
from pvb3.word import GenMap

CHECKS = {entry[0][:2]: entry for entry in suite.CHECKS}


def run_one(monkeypatch, number):
    """The report of check ``number`` run alone, at the default options."""
    monkeypatch.setattr(suite, "CHECKS", (CHECKS[number],))
    report = suite.run_suite()
    (result,) = report.checks
    return report, result


def on_call(n, fake):
    """A stand-in for ``real`` that answers ``fake`` on its n-th call only."""
    def make(real):
        calls = count(1)
        return lambda *args: fake if next(calls) == n else real(*args)
    return make


def with_torsion(real):
    """A ring factory whose every degree gains torsion 2."""
    def make(*args):
        ring = real(*args)
        return SimpleNamespace(invariants=lambda d: (ring.invariants(d)[0], (2,)))
    return make


def zero_last_column(real):
    return lambda: IntMatrix.from_rows([row[:-1] + (0,) for row in real().entries])


def broken_inverse(real):
    f, g = real()
    return lambda: (f, GenMap(g.source, g.target, (g.images[0] ** 2,) + g.images[1:]))


def flat_layers(pres, c):
    return SimpleNamespace(layers=((1, ()),) * c)


def surviving_fiber(real):
    def make(pres, c):
        q = real(pres, c)
        return SimpleNamespace(layers=q.layers, image_is_trivial=lambda w: False)
    return make


def layers_with_torsion(real):
    return lambda pres, c: SimpleNamespace(
        layers=tuple((r, (2,)) for r, _ in real(pres, c).layers))


def one_quotient(image):
    return lambda real: lambda pres, c: [SimpleNamespace(class_=2, image=image)]


CASES = [
    ("01", "beer_rank", lambda real: lambda n, r: real(n, r) + 1,
     "graded ranks (1, 6, 6, 0), closed form (2, 7, 7, 1)"),
    ("01", "pv3_ring", with_torsion,
     "ranks match but torsion ((2,), (2,), (2,), (2,)) appeared"),
    ("02", "g3_ring", lambda real: lambda: SimpleNamespace(invariants=lambda d: (0, ())),
     "graded ranks (0, 0, 0, 0), expected (1, 5, 6, 0)"),
    ("02", "g3_ring", with_torsion, "unexpected torsion ((2,), (2,), (2,), (2,))"),
    ("02", "rank", lambda real: lambda m: 3, "relation span has rank 3, expected 4"),
    ("02", "g3_cup_matrix", zero_last_column,
     "pairing kernel differs from the span of the four relations"),
    ("03", "dual_restriction", lambda real: lambda name: {},
     "golden values off: restriction of a1*, restriction of b1*, restriction of a2*, "
     "restriction of b2*, restriction of c1*"),
    ("03", "g3_cup", lambda real: lambda u, v: (0,) * 6,
     "golden values off: a1* b1*, a2* b2*, b1* c1*, a1* c1*, b2* c1*, a2* c1*, a1* b2*, "
     "b1* a2*, b2* a1*"),
    ("03", "pv3_new_generators", lambda real: lambda: (real()[0], real()[0]),
     "golden values off: change-of-basis product"),
    ("04", "row_lattices_equal", lambda real: lambda a, b: False,
     "the two relation lists span different lattices"),
    ("04", "rank", lambda real: lambda m: 8, "common relation span has rank 8, expected 9"),
    ("04", "stability_rank", lambda real: lambda: 4,
     "free-factor relations have rank 4, expected 5"),
    ("05", "hnn_identities", lambda real: lambda: [("c2^-1 a1 c2 = a1", False)],
     "failed identities: stable-letter identities: c2^-1 a1 c2 = a1"),
    ("06", "pv3_new_generators", broken_inverse, "round trip failed on l23"),
    ("06", "check_homomorphism_presented",
     lambda real: lambda *args: [("r", ConsequenceResult(REFUTED, None, "nonzero"))],
     "image of relator r refuted: nonzero"),
    ("07", "nilpotent_quotient", lambda real: lambda pres, c: SimpleNamespace(layers=()),
     "free group of rank 2: layers ()"),
    ("07", "torus_normal_form", on_call(1, None),
     "stable-letter conjugation: t b t^-1 is not a b"),
    ("07", "torus_normal_form", on_call(2, None), "commutator identity [t^-1, b^-1] = a fails"),
    ("07", "torus_normal_form", on_call(3, None), "commutator identity for b fails"),
    ("07", "nilpotent_quotient", surviving_fiber,
     "fiber generator a survives in the class-2 quotient"),
    ("08", "nilpotent_quotient", lambda real: flat_layers,
     "group ranks (1, 1, 1) differ from Lie dimensions (6, 9, 34)"),
    ("08", "pbw_coefficients", lambda real: lambda dims, top: (),
     "enveloping dimensions (1, 6, 30, 144) break the series identity"),
    ("08", "semidirect_check", lambda real: lambda: False,
     "g3's quadratic relations do not present the semidirect product"),
    ("09", "residual_nilpotence_criterion", on_call(1, ("INCONCLUSIVE", 0)),
     "worked example gave ('INCONCLUSIVE', 0), expected (CRITERION_APPLIES, -1)"),
    ("09", "residual_nilpotence_criterion", on_call(2, ("CRITERION_APPLIES", 1)),
     "inversion on one letter gave ('CRITERION_APPLIES', 1)"),
    ("09", "residual_nilpotence_criterion", on_call(3, ("CRITERION_APPLIES", 1)),
     "identity map gave ('CRITERION_APPLIES', 1)"),
    ("09", "residual_nilpotence_criterion", on_call(4, ("CRITERION_APPLIES", 1)),
     "verdict changed under a generator permutation"),
    ("10", "quotient_tower", one_quotient(lambda w: w),
     "words equal by the defining relation differ at class 2"),
    ("10", "quotient_tower", one_quotient(lambda w: w.exponent_vector()),
     "not separated by class 3: l12 l21 vs l21 l12, l13 l31 vs l31 l13, l23 l32 vs l32 l23"),
]


@pytest.mark.parametrize("number, name, fake, details", CASES,
                         ids=["%s-%s" % case[:2] for case in CASES])
def test_a_wrong_engine_answer_fails_its_check(monkeypatch, number, name, fake, details):
    monkeypatch.setattr(suite, name, fake(getattr(suite, name)))
    report, result = run_one(monkeypatch, number)
    assert (result.status, result.details) == (suite.FAIL, details)
    assert report.exit_code == 1


def test_every_check_has_a_fault_case():
    assert sorted({case[0] for case in CASES}) == sorted(CHECKS)


def test_low_degrees_off_the_paper_fail_the_graded_check(monkeypatch):
    # the group and the Lie side agree, but not on the paper's (6, 9)
    monkeypatch.setattr(suite, "lie_quotient",
                        lambda pres: SimpleNamespace(invariants=lambda d: (1, ())))
    monkeypatch.setattr(suite, "nilpotent_quotient", flat_layers)
    report, result = run_one(monkeypatch, "08")
    assert (result.status, result.details) == (suite.FAIL, "low degrees (1, 1), expected (6, 9)")
    assert report.exit_code == 1


def test_torsion_in_the_group_flags_the_graded_check(monkeypatch):
    monkeypatch.setattr(suite, "nilpotent_quotient",
                        layers_with_torsion(suite.nilpotent_quotient))
    report, result = run_one(monkeypatch, "08")
    assert result.status == suite.FLAGGED
    assert result.details == ("dimensions agree (6, 9, 34) but torsion "
                              "((2,), (2,), (2,), (), (), ()) appeared in degrees "
                              "where none is promised")
    assert report.exit_code == 0


@pytest.mark.parametrize("error, status, details", [
    (CollectionBudget("collection exceeded 5 steps"), suite.UNKNOWN,
     "stopped: collection exceeded 5 steps"),
    (ValueError("no such ring"), suite.FAIL, "error: no such ring"),
], ids=["budget", "error"])
def test_a_check_that_raises_is_reported_not_propagated(monkeypatch, error, status, details):
    def raise_(*args):
        raise error

    monkeypatch.setattr(suite, "pv3_ring", raise_)
    report, result = run_one(monkeypatch, "01")
    assert (result.status, result.details) == (status, details)
    assert report.exit_code == int(status == suite.FAIL)
