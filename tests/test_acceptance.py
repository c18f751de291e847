"""Acceptance battery: one test per headline computation, in a fixed order.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per claim.  Every test recomputes its values from scratch, compares them
against independently frozen expectations, and enforces a wall-clock
budget, so a pass here certifies both the mathematics and that the
computation stays desk-scale.
"""

import time
from contextlib import contextmanager
from itertools import permutations

from pvb3.autf import (
    Automorphism,
    hnn_identities,
    mccool_disjoint_commutators,
    mccool_same_target_commutators,
    mccool_triple_relations,
    pv_relators_in_cb,
)
from pvb3.fpres import (
    VERIFIED,
    Presentation,
    SearchBounds,
    is_consequence,
    mapping_torus_presentation,
    pv3_new_generators,
    pv3_new_presentation,
    pv_presentation,
    residual_nilpotence_criterion,
    torus_normal_form,
)
from pvb3.grcohom import (
    beer_rank,
    dual_restriction,
    g3_cup,
    g3_cup_matrix,
    g3_ring,
    pv3_ring,
    pv3_ring_via_splitting,
    stability_rank,
)
from pvb3.intlinalg import IntMatrix, kernel_basis, rank, row_lattices_equal
from pvb3.lie import enveloping_invariants, lie_quotient, pbw_coefficients, semidirect_check
from pvb3.nq import nilpotent_quotient
from pvb3.suite import _GOLDEN_CUPS, _GOLDEN_DUALS
from pvb3.word import Alphabet, GenMap


@contextmanager
def budget(seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, "took %.2f s, budget %g s" % (elapsed, seconds)


def test_01_full_ring_ranks_match_the_closed_form():
    with budget(1):
        invariants = [pv3_ring().invariants(d) for d in range(4)]
        ranks = tuple(free for free, _ in invariants)
        assert ranks == (1, 6, 6, 0)
        assert tuple(torsion for _, torsion in invariants) == ((), (), (), ())
        assert ranks == tuple(beer_rank(3, r) for r in range(4))
        assert all(isinstance(r, int) for r in ranks)


def test_02_factor_ring_ranks_and_pairing_kernel():
    with budget(1):
        ring = g3_ring()
        assert tuple(ring.invariants(d)[0] for d in range(4)) == (1, 5, 6, 0)
        assert ring.invariants(3) == (0, ())  # top degree vanishes exactly
        relations = ring.ideal_matrix(2)
        kernel = IntMatrix.from_rows(kernel_basis(g3_cup_matrix().transpose()))
        assert rank(kernel) == 4
        assert row_lattices_equal(kernel, relations)


def test_03_wedge_golden_values_bit_exact():
    with budget(1):
        for name, support in _GOLDEN_DUALS.items():
            assert dual_restriction(name) == {k: 1 for k in support}, name
        for (u, v), value in _GOLDEN_CUPS.items():
            assert g3_cup(u, v) == value, (u, v)
        assert g3_cup("b2", "b1") == (0, 0, 0, 0, 0, 0)
        assert g3_cup("b2", "a1") == (0, 0, 0, 1, -1, 0)
        f, g = pv3_new_generators()
        fm, gm = f.abelianisation_matrix(), g.abelianisation_matrix()
        assert fm * gm == IntMatrix.identity(6)
        assert gm * fm == IntMatrix.identity(6)


def test_04_relation_span_routes_agree():
    with budget(1):
        direct = pv3_ring().ideal_matrix(2)
        transported = pv3_ring_via_splitting().ideal_matrix(2)
        assert row_lattices_equal(direct, transported)
        assert rank(direct) == 9
        assert stability_rank() == 5  # six relations, linearly dependent


def test_05_automorphism_identity_families():
    with budget(1):
        disjoint = mccool_disjoint_commutators(4)
        shared = mccool_same_target_commutators(3)
        triples = mccool_triple_relations(3)
        relators = pv_relators_in_cb(3)
        hnn = hnn_identities()
        assert len(disjoint) == 12 and all(ok for _, ok in disjoint)
        assert len(shared) == 3 and all(ok for _, ok in shared)
        assert len(triples) == 6 and all(ok for _, ok in triples)
        assert len(relators) == 6 and all(ok for _, ok in relators)
        assert len(hnn) == 14 and all(ok for _, ok in hnn)


def test_06_free_product_splitting_certified():
    with budget(30):
        old = pv_presentation(3)
        new = pv3_new_presentation()
        f, g = pv3_new_generators()
        for x in old.alphabet.gens():
            assert g(f(x)) == x
        for y in new.alphabet.gens():
            assert f(g(y)) == y
        bounds = SearchBounds()
        for r in old.relators:
            assert is_consequence(new, f(r), bounds).status == VERIFIED, str(r)
        for r in new.relators:
            assert is_consequence(old, g(r), bounds).status == VERIFIED, str(r)


def test_07_nilpotent_engine_oracles():
    with budget(10):
        ab = Alphabet(("a", "b"))
        a, b = ab.gens()
        assert nilpotent_quotient(Presentation(ab, ()), 4).layers == (
            (2, ()), (1, ()), (2, ()), (3, ()))
        heisenberg = Presentation(ab, (a.comm(b).comm(a), a.comm(b).comm(b)))
        assert nilpotent_quotient(heisenberg, 3).layers == ((2, ()), (1, ()), (0, ()))
        at = Alphabet(("a", "t"))
        aa, tt = at.gens()
        klein = Presentation(at, (tt * aa * tt.inv() * aa,))
        assert nilpotent_quotient(klein, 4).layers == (
            (1, (2,)), (0, (2,)), (0, (2,)), (0, (2,)))

        fw = GenMap.from_dict(ab, ab, {"a": a ** 2 * b, "b": a * b})
        bw = GenMap.from_dict(ab, ab, {"a": a * b.inv(), "b": b * a.inv() * b})
        phi = Automorphism(fw, bw)
        pres = mapping_torus_presentation(phi)
        wa, wb, wt = pres.alphabet.gens()
        assert torus_normal_form(phi, wt.inv().comm(wb.inv())) == (a, 0)
        assert torus_normal_form(
            phi, wb.inv().comm(wt.inv()) * wa.comm(wt.inv())) == (b, 0)
        assert nilpotent_quotient(pres, 2).image_is_trivial(wa)


def test_08_graded_lie_matches_lower_central_ranks():
    with budget(120):
        quotient = lie_quotient(pv3_new_presentation())
        lie_dims = tuple(quotient.invariants(d)[0] for d in range(1, 4))
        group_layers = nilpotent_quotient(pv_presentation(3), 3).layers
        assert tuple(r for r, _ in group_layers) == lie_dims
        assert lie_dims[0] == 6 and lie_dims[1] == 9
        env = enveloping_invariants(quotient, 3)
        assert all(t == () for _, t in env)
        assert (1,) + tuple(r for r, _ in env) == pbw_coefficients(lie_dims, 3)
        assert semidirect_check()


def _permuted(phi, sigma):
    """Conjugate an endomorphism by a relabelling of the generators."""
    alphabet = phi.source
    gens = alphabet.gens()
    fwd = GenMap(alphabet, alphabet, tuple(gens[i] for i in sigma))
    inverse = [0] * len(sigma)
    for pos, i in enumerate(sigma):
        inverse[i] = pos
    bwd = GenMap(alphabet, alphabet, tuple(gens[i] for i in inverse))
    return fwd.then(phi).then(bwd)


def test_09_mapping_torus_determinant_criterion():
    with budget(1):
        ab = Alphabet(("a", "b"))
        a, b = ab.gens()
        phi = GenMap.from_dict(ab, ab, {"a": a ** 2 * b, "b": a * b})
        assert residual_nilpotence_criterion(phi) == ("CRITERION_APPLIES", -1)

        f1 = Alphabet(("a",))
        x, = f1.gens()
        inversion = GenMap.from_dict(f1, f1, {"a": x.inv()})
        assert residual_nilpotence_criterion(inversion)[0] == "INCONCLUSIVE"
        assert residual_nilpotence_criterion(GenMap.identity(f1))[0] == \
            "INCONCLUSIVE"

        abc = Alphabet(("a", "b", "c"))
        p, q, r = abc.gens()
        cycle = GenMap.from_dict(abc, abc, {"a": q, "b": r, "c": p * q})
        for sample in (phi, GenMap.identity(ab), cycle):
            verdict = residual_nilpotence_criterion(sample)
            for sigma in permutations(range(len(sample.source))):
                assert residual_nilpotence_criterion(
                    _permuted(sample, sigma)) == verdict, sigma


def test_10_quotient_separation_of_short_words():
    with budget(10):
        pres = pv_presentation(3)
        gen = {name: pres.alphabet.gen(name) for name in pres.alphabet.names}
        pairs = (
            (gen["l12"] * gen["l21"], gen["l21"] * gen["l12"]),
            (gen["l13"] * gen["l31"], gen["l31"] * gen["l13"]),
            (gen["l23"] * gen["l32"], gen["l32"] * gen["l23"]),
        )
        control = (gen["l12"] * gen["l13"] * gen["l23"],
                   gen["l23"] * gen["l13"] * gen["l12"])
        assert control[0] != control[1]  # distinct as free words
        separated = set()
        for class_ in range(1, 4):
            q = nilpotent_quotient(pres, class_)
            assert q.image(control[0]) == q.image(control[1])
            for k, (u, v) in enumerate(pairs):
                assert u != v
                if q.image(u) != q.image(v):
                    separated.add(k)
        assert separated == {0, 1, 2}
