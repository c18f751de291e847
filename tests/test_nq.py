"""Nilpotent quotients: layer invariants, images, refutation fallback."""

import copy
import gc
import inspect
import random
import sys
import weakref
from bisect import bisect_right
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvb3 import intlinalg, nq
from pvb3.autf import Automorphism
from pvb3.fpres import (
    REFUTED,
    UNKNOWN,
    Presentation,
    SearchBounds,
    g3_presentation,
    is_consequence,
    mapping_torus_presentation,
    pv3_new_presentation,
    pv_presentation,
)
from pvb3.grammar import parse_word
from pvb3.grcohom import beer_rank
from pvb3.intlinalg import _subtract, cokernel_invariants, hermite_normal_form, smith_normal_form
from pvb3.lie import pbw_coefficients
from pvb3.nq import CollectionBudget, PcSystem, nilpotent_quotient, quotient_tower
from pvb3.word import Alphabet, GenMap, Word

AB = Alphabet(("a", "b"))
a, b = AB.gens()
F2 = Presentation(AB, ())


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def mobius(n):
    primes = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            m //= p
            if m % p == 0:
                return 0
        else:
            p += 1
    if m > 1:
        primes.append(m)
    return -1 if len(primes) % 2 else 1


def witt(n, d):
    """Independent oracle for ranks of the free Lie ring."""
    total = sum(mobius(e) * n ** (d // e) for e in divisors(d))
    assert total % d == 0
    return total // d


def test_free_group_layers_match_witt_oracle():
    for n, depth in ((2, 4), (3, 3)):
        names = Alphabet(tuple("xyz"[:n]))
        layers = nilpotent_quotient(Presentation(names, ()), depth).layers
        assert layers == tuple((witt(n, d), ()) for d in range(1, depth + 1))


def test_abelian_square_kills_everything_above_degree_one():
    assert nilpotent_quotient(Presentation(AB, (a.comm(b),)), 3).layers == \
        ((2, ()), (0, ()), (0, ()))


def test_heisenberg_layers():
    pres = Presentation(AB, (a.comm(b).comm(a), a.comm(b).comm(b)))
    assert nilpotent_quotient(pres, 3).layers == ((2, ()), (1, ()), (0, ()))


def test_generator_eliminated_by_a_relator_still_counts():
    # x = [z, y] forces x into the derived subgroup; the group is free of rank 2
    names = Alphabet(("x", "y", "z"))
    x, y, z = names.gens()
    pres = Presentation(names, (x * z.comm(y).inv(),))
    assert nilpotent_quotient(pres, 3).layers == ((2, ()), (1, ()), (2, ()))


def test_klein_bottle_layers():
    names = Alphabet(("a", "t"))
    ka, kt = names.gens()
    pres = Presentation(names, (kt * ka * kt.inv() * ka,))
    assert nilpotent_quotient(pres, 4).layers == ((1, (2,)), (0, (2,)), (0, (2,)), (0, (2,)))


def test_cyclic_two_layers_and_images():
    names = Alphabet(("a",))
    g = names.gen("a")
    pres = Presentation(names, (g ** 2,))
    q = nilpotent_quotient(pres, 2)
    assert q.layers == ((0, (2,)), (0, ()))
    assert q.image(g ** 3) == q.image(g)
    assert q.image_is_trivial(g ** 4)
    assert not q.image_is_trivial(g)


def test_trivial_group_from_coprime_powers():
    names = Alphabet(("a",))
    g = names.gen("a")
    pres = Presentation(names, (g ** 3, g ** 5))
    q = nilpotent_quotient(pres, 2)
    assert q.layers == ((0, ()), (0, ()))
    assert q.image_is_trivial(g)


def test_pv3_layers_are_torsion_free():
    layers = nilpotent_quotient(pv_presentation(3), 3).layers
    assert layers == ((6, ()), (9, ()), (34, ()))


def test_relators_die_in_their_quotients():
    for pres, depth in ((pv_presentation(3), 2),
                        (Presentation(AB, (a.comm(b),)), 3)):
        q = nilpotent_quotient(pres, depth)
        for r in pres.relators:
            assert q.image_is_trivial(r)


@given(st.data())
@settings(max_examples=30, deadline=None)
def test_conjugates_of_relators_die(data):
    pres = pv_presentation(3)
    q = nilpotent_quotient(pres, 2)
    r = data.draw(st.sampled_from(pres.relators))
    letters = data.draw(st.lists(
        st.tuples(st.integers(0, 5), st.sampled_from((1, -1))), max_size=5))
    u = Word(pres.alphabet, tuple(letters))
    assert q.image_is_trivial(r.conj(u))


@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from((1, -1))), max_size=8))
@settings(max_examples=60, deadline=None)
def test_image_of_inverse_cancels(letters):
    q = nilpotent_quotient(Presentation(AB, (a ** 2 * b ** 2,)), 3)
    w = Word(AB, tuple(letters))
    assert q.image_is_trivial(w * w.inv())


def test_final_system_is_consistent():
    for pres, depth in ((pv_presentation(3), 3), (F2, 4)):
        system = nilpotent_quotient(pres, depth).system
        assert not any(d for _, d in system.consistency_discrepancies(depth))
        assert not any(d for _, d in collected_discrepancies(system, depth))


def test_lcs_ranks_property():
    q = nilpotent_quotient(F2, 4)
    assert q.layers == ((2, ()), (1, ()), (2, ()), (3, ()))


def test_separation_of_commuting_counterexamples():
    pres = pv_presentation(3)
    q = nilpotent_quotient(pres, 3)
    L = {name: pres.alphabet.gen(name) for name in pres.alphabet.names}
    pairs = [
        (L["l12"] * L["l21"], L["l21"] * L["l12"]),
        (L["l13"] * L["l31"], L["l31"] * L["l13"]),
        (L["l23"] * L["l32"], L["l32"] * L["l23"]),
    ]
    for left, right in pairs:
        assert q.image(left) != q.image(right)
    # control: this pair really is equal in the group (a defining relation)
    same = (L["l12"] * L["l13"] * L["l23"], L["l23"] * L["l13"] * L["l12"])
    assert q.image(same[0]) == q.image(same[1])


def test_mapping_torus_fiber_dies_in_class_two():
    fw = GenMap.from_dict(AB, AB, {"a": a ** 2 * b, "b": a * b})
    bw = GenMap.from_dict(AB, AB, {"a": a * b.inv(), "b": b * a.inv() * b})
    phi = Automorphism(fw, bw)
    pres = mapping_torus_presentation(phi)
    q2 = nilpotent_quotient(pres, 2)
    aa, bb, t = pres.alphabet.gens()
    assert q2.image_is_trivial(aa)
    assert q2.image_is_trivial(bb)
    assert not q2.image_is_trivial(t)
    # the worked commutator identity holds in the class-3 quotient as well
    q3 = nilpotent_quotient(pres, 3)
    assert q3.image_is_trivial(t.inv().comm(bb.inv()) * aa.inv())


def test_refutation_by_class_two_quotient():
    pres = Presentation(AB, (a ** 2,))
    res = is_consequence(pres, a.comm(b),
                         SearchBounds(max_steps=3, max_states=500, refute_class=2))
    assert res.status == REFUTED
    assert "class-2" in res.detail


def test_unknown_when_bounds_exhausted_without_refutation():
    # a weight-four commutator is invisible below class 4 and there are no
    # relators to build a certificate from
    w = a.comm(b).comm(a).comm(a)
    res = is_consequence(F2, w,
                         SearchBounds(max_steps=2, max_states=100, refute_class=3))
    assert res.status == UNKNOWN


def test_collection_budget_is_enforced(monkeypatch):
    # every collection reads the one budget; the class-2 stage fits in 50
    # steps and the class-3 stage does not
    pres = pv_presentation(3)
    monkeypatch.setattr(nq, "DEFAULT_BUDGET", 50)
    with pytest.raises(CollectionBudget):
        nilpotent_quotient(pres, 3)
    # the failed stage is not kept, and a later call builds it again
    assert [q.class_ for q in pres._tower] == [1, 2]
    monkeypatch.undo()
    assert nilpotent_quotient(pres, 3).layers == ((6, ()), (9, ()), (34, ()))


def test_torsion_of_order_three_and_more_collects():
    # a swap can complete a run of a^n from the right, behind the collector's
    # position; for n = 2 that run is always seen from its start
    for n in (2, 3, 4, 5):
        pres = Presentation(AB, (a ** n,))
        q = nilpotent_quotient(pres, 3)
        assert q.layers == ((1, (n,)), (0, (n,)), (0, (n, n)))
        assert not any(d for _, d in q.system.consistency_discrepancies(3))
        assert q.image_is_trivial(b.inv() * a ** n * b)


def test_class_must_be_positive():
    with pytest.raises(ValueError):
        nilpotent_quotient(F2, 0)


def reference_overlap_pairs(system, max_weight):
    """The full C(n, 3) triple walk filtered by weight, kept as the oracle
    for the bucketed enumeration of the overlaps."""
    n = system.num
    for i, j, k in combinations(range(n), 3):
        if system.weights[i] + system.weights[j] + system.weights[k] > max_weight:
            continue
        u_ji = system.comms.get((j, i), {})
        u_kj = system.comms.get((k, j), {})
        way1 = [(k, 1), (i, 1), (j, 1)] + system.expand(u_ji)
        way2 = [(j, 1), (k, 1)] + system.expand(u_kj) + [(i, 1)]
        yield ("triple %d %d %d" % (k, j, i), way1, way2)
    yield from power_overlap_pairs(system, max_weight)


def power_overlap_pairs(system, max_weight):
    """The power-left, power-right and power-self overlaps, in index order."""
    for j in range(system.num):
        dj = system.orders[j]
        if dj < 2:
            continue
        vj = system.powers[j]
        for i in range(j):
            if system.weights[i] + system.weights[j] > max_weight:
                continue
            u_ji = system.expand(system.comms.get((j, i), {}))
            yield ("power-left %d %d" % (j, i),
                   system.expand(vj) + [(i, 1)],
                   [(j, 1)] * (dj - 1) + [(i, 1), (j, 1)] + u_ji)
        for k in range(j + 1, system.num):
            if system.weights[j] + system.weights[k] > max_weight:
                continue
            u_kj = system.expand(system.comms.get((k, j), {}))
            yield ("power-right %d %d" % (k, j),
                   [(k, 1)] + system.expand(vj),
                   [(j, 1), (k, 1)] + u_kj + [(j, 1)] * (dj - 1))
        yield ("power-self %d" % j,
               [(j, 1)] + system.expand(vj),
               system.expand(vj) + [(j, 1)])


def bucketed_overlap_pairs(system, max_weight):
    """Every overlap as the two letter sequences to collect, with the
    triples enumerated by weight as PcSystem.consistency_discrepancies does."""
    w = system.weights
    for i in range(system.num):
        for j in range(i + 1, system.num):
            if w[i] + 2 * w[j] > max_weight:
                break
            u_ji = system.expand(system.comms.get((j, i), {}))
            for k in range(j + 1, bisect_right(w, max_weight - w[i] - w[j])):
                u_kj = system.comms.get((k, j), {})
                way1 = [(k, 1), (i, 1), (j, 1)] + u_ji
                way2 = [(j, 1), (k, 1)] + system.expand(u_kj) + [(i, 1)]
                yield ("triple %d %d %d" % (k, j, i), way1, way2)
    yield from power_overlap_pairs(system, max_weight)


def collected_discrepancies(system, max_weight):
    """Every overlap's discrepancy collected both ways: the oracle for the
    full-weight triples that consistency_discrepancies reads off the
    Jacobi identity instead."""
    for label, way1, way2 in bucketed_overlap_pairs(system, max_weight):
        delta = system.collect(way1)
        _subtract(delta, system.collect(way2), 1)
        yield label, delta


def test_bucketed_overlaps_match_the_full_triple_walk(monkeypatch):
    working = []
    discrepancies = PcSystem.consistency_discrepancies

    def spy(system, max_weight):
        working.append((system, max_weight))
        return discrepancies(system, max_weight)

    monkeypatch.setattr(PcSystem, "consistency_discrepancies", spy)
    names = Alphabet(("a", "t"))
    ka, kt = names.gens()
    nilpotent_quotient(pv_presentation(3), 4)
    nilpotent_quotient(Presentation(names, (kt * ka * kt.inv() * ka,)), 4)
    assert [w for _, w in working] == [1, 2, 3, 4, 1, 2, 3, 4]
    assert any(any(o >= 2 for o in system.orders) for system, _ in working)
    for system, max_weight in working:
        reference = list(reference_overlap_pairs(system, max_weight))
        assert list(bucketed_overlap_pairs(system, max_weight)) == reference
        assert [label for label, _ in discrepancies(system, max_weight)] == \
            [label for label, _, _ in reference]


def fresh(pres):
    """An equal presentation with no kept stages: the named ones are cached."""
    return Presentation.from_text(str(pres))


def build_with(monkeypatch, discrepancies, make, depth):
    """The class-1 to class-depth stages of a fresh make(), built with
    ``discrepancies`` as the consistency test, and each stage's overlaps."""
    overlaps = []

    def spy(system, max_weight):
        overlaps.append(list(discrepancies(system, max_weight)))
        return iter(overlaps[-1])

    with monkeypatch.context() as patch:
        patch.setattr(PcSystem, "consistency_discrepancies", spy)
        return list(quotient_tower(make(), depth)), overlaps


def assert_matches_the_collecting_oracle(monkeypatch, make, depth):
    fast, fast_overlaps = build_with(monkeypatch, PcSystem.consistency_discrepancies, make, depth)
    slow, slow_overlaps = build_with(monkeypatch, collected_discrepancies, make, depth)
    # each overlap, decided by either route, has the collected discrepancy,
    # and every stage has the same pc presentation and layers
    assert fast_overlaps == slow_overlaps
    assert fast == slow


@pytest.mark.parametrize("make, depth", [
    (lambda: pv_presentation(3), 5),
    (pv3_new_presentation, 5),
    (g3_presentation, 6),  # relative orders from class 5 on: both routes
    (lambda: pv_presentation(4), 3),
], ids=["pv3", "pv3-new", "g3", "pv4"])
def test_jacobi_discrepancies_match_the_collecting_oracle(monkeypatch, make, depth):
    assert_matches_the_collecting_oracle(monkeypatch, lambda: fresh(make()), depth)


def overlaps_read_off(monkeypatch, pres, depth):
    """(overlaps decided without collecting, overlaps) of each stage built."""
    calls, counts = [0], []
    collect, discrepancies = PcSystem.collect, PcSystem.consistency_discrepancies

    def counting_collect(system, letters):
        calls[0] += 1
        return collect(system, letters)

    def spy(system, max_weight):
        read_off = total = 0
        before = calls[0]
        for item in discrepancies(system, max_weight):
            read_off += calls[0] == before
            total += 1
            yield item
            before = calls[0]
        counts.append((read_off, total))

    with monkeypatch.context() as patch:
        patch.setattr(PcSystem, "collect", counting_collect)
        patch.setattr(PcSystem, "consistency_discrepancies", spy)
        list(quotient_tower(pres, depth))
    return counts


def test_full_weight_triples_are_read_off_the_jacobi_identity(monkeypatch):
    # a change that sends full-weight triples back to collection moves these;
    # the lighter triples and g3's relative orders from class 5 on collect
    assert overlaps_read_off(monkeypatch, fresh(pv_presentation(3)), 5) == \
        [(0, 0), (0, 0), (20, 20), (135, 155), (726, 881)]
    assert overlaps_read_off(monkeypatch, fresh(pv_presentation(4)), 3) == \
        [(0, 0), (0, 0), (220, 220)]
    assert overlaps_read_off(monkeypatch, fresh(g3_presentation()), 6) == \
        [(0, 0), (0, 0), (10, 10), (40, 50), (130, 180), (347, 600)]


def test_quotient_tower_matches_separate_builds():
    # one chain of stages gives every class exactly as a fresh build does,
    # and later stages leave the kept stages below them untouched
    names = Alphabet(("a", "t"))
    ka, kt = names.gens()
    for make in (lambda: pv_presentation(3),
                 lambda: Presentation(names, (kt * ka * kt.inv() * ka,))):
        pres = make()
        low = list(quotient_tower(pres, 3))
        before = copy.deepcopy(low)
        tower = list(quotient_tower(pres, 4))
        assert [q.class_ for q in tower] == [1, 2, 3, 4]
        assert all(q is k for q, k in zip(tower, low)) and low == before
        assert tower == [nilpotent_quotient(make(), c) for c in range(1, 5)]
    assert list(quotient_tower(F2, 0)) == []


def count_builds(monkeypatch):
    """The class of each stage nq._advance builds, in order."""
    real, built = nq._advance, []

    def spy(system, pres, new_weight):
        built.append(new_weight)
        return real(system, pres, new_weight)

    monkeypatch.setattr(nq, "_advance", spy)
    return built


def test_each_stage_is_built_once_per_presentation(monkeypatch):
    built = count_builds(monkeypatch)
    pres = pv_presentation(3)
    q3 = nilpotent_quotient(pres, 3)
    q4 = nilpotent_quotient(pres, 4)
    assert built == [1, 2, 3, 4]
    tower = list(quotient_tower(pres, 4))
    assert tower[2] is q3 and tower[3] is q4
    assert q4.layers[:3] == q3.layers
    assert built == [1, 2, 3, 4]


def test_a_dropped_presentation_frees_its_stages_at_once():
    # a stage keeps the alphabet, not the presentation that keeps the
    # stage, so no reference cycle holds the tower until a collection
    pres = pv_presentation(3)
    stage = weakref.ref(nilpotent_quotient(pres, 4))
    gc.disable()
    try:
        assert stage() is not None
        del pres
        assert stage() is None
    finally:
        gc.enable()


# weight-four commutators of pv4 that die in its class-3 quotient, not in class 4
PV4_WEIGHT_FOUR = ("[[[l12, l13], l14], l21]", "[[[l12, l23], l34], l41]",
                   "[[[l12, l13], l23], l14]")


def test_refutations_on_one_presentation_share_its_tower(monkeypatch):
    bounds = SearchBounds(max_states=1_000)
    fresh = []
    for text in PV4_WEIGHT_FOUR:
        pres = pv_presentation(4)
        fresh.append(is_consequence(pres, parse_word(text, pres.alphabet), bounds))
    assert {res.detail for res in fresh} == {"nonzero in the class-4 quotient"}
    built = count_builds(monkeypatch)
    pres = pv_presentation(4)
    shared = [is_consequence(pres, parse_word(text, pres.alphabet), bounds)
              for text in PV4_WEIGHT_FOUR]
    assert built == [1, 2, 3, 4]  # not 12 stages
    assert shared == fresh


def test_a_walk_that_stops_at_class_two_builds_two_stages(monkeypatch):
    built = count_builds(monkeypatch)
    pres = pv_presentation(3)
    l12, _, l13 = pres.alphabet.gens()[:3]
    res = is_consequence(pres, l12.comm(l13), SearchBounds(max_states=300))
    assert res.detail == "nonzero in the class-2 quotient"
    assert built == [1, 2]
    assert [q.class_ for q in pres._tower] == [1, 2]


def reference_negated_rest(row, col, index_of):
    """-1 times the entries of an HNF row after its pivot, reindexed."""
    out = {}
    for m in range(col + 1, len(row)):
        if row[m]:
            target = index_of[m]
            if target is None:
                raise AssertionError("HNF row references an eliminated column")
            out[target] = out.get(target, 0) - row[m]
    return out


def reference_stage_one(pres):
    """The former separate class-1 construction, kept as the oracle for
    building class 1 as the first tail stage over the trivial group."""
    n = pres.num_gens
    matrix = pres.relator_matrix()
    rows, pivots = hermite_normal_form(matrix)
    rows = [[row.get(j, 0) for j in range(n)] for row in rows]
    pivot_at = {col: (val, row) for row, (col, val) in zip(rows, pivots)}
    eliminated = {col for col, (val, _) in pivot_at.items() if val == 1}
    kept = [col for col in range(n) if col not in eliminated]
    index_of = [None] * n
    for new, col in enumerate(kept):
        index_of[col] = new

    weights = [1] * len(kept)
    orders = [0] * len(kept)
    powers = {}
    images = []
    definitions = set()
    for col in kept:
        if col in pivot_at:
            val, row = pivot_at[col]
            orders[index_of[col]] = val
            powers[index_of[col]] = reference_negated_rest(row, col, index_of)
    for k in range(n):
        if k in eliminated:
            _, row = pivot_at[k]
            images.append(reference_negated_rest(row, k, index_of))
        else:
            images.append({index_of[k]: 1})
            definitions.add(("img", k))

    system = PcSystem(weights, orders, powers, {}, images, frozenset(definitions))
    return system, cokernel_invariants(matrix)


def small_presentations():
    ka, kt = Alphabet(("a", "t")).gens()
    xyz = Alphabet(("x", "y", "z"))
    x, y, z = xyz.gens()
    g = Alphabet(("a",)).gen("a")
    return [
        Presentation(AB, ()),  # not F2, whose stages earlier tests have built
        Presentation(Alphabet(()), ()),
        Presentation(AB, (a.comm(b).comm(a), a.comm(b).comm(b))),
        Presentation(ka.alphabet, (kt * ka * kt.inv() * ka,)),
        Presentation(xyz, (x * z.comm(y).inv(),)),
        Presentation(g.alphabet, (g ** 6,)),
        Presentation(g.alphabet, (g ** 3, g ** 5)),
        Presentation(AB, (a ** 4, b ** 6, (a * b) ** 2)),
        Presentation(AB, (a ** 4, b ** 6, (a * b) ** 2, a.comm(b) ** 3)),
        Presentation(AB, (a ** 3, b ** 3)),
        Presentation(AB, (a ** 2 * b ** 2,)),
    ]


def two_generator_presentations():
    power = st.tuples(st.integers(0, 1), st.integers(-6, 6).filter(bool))
    relator = st.lists(power, min_size=1, max_size=4).map(
        lambda powers: Word(AB, tuple((g, 1 if e > 0 else -1)
                                      for g, e in powers for _ in range(abs(e)))))
    return st.lists(relator, max_size=3).map(lambda rels: Presentation(AB, tuple(rels)))


@given(two_generator_presentations())
@settings(max_examples=40, deadline=None)
def test_jacobi_discrepancies_match_the_collecting_oracle_on_samples(pres):
    # many of these have relative orders from class 1 on
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_the_collecting_oracle(
            monkeypatch, lambda: Presentation(pres.alphabet, pres.relators), 5)


def assert_class_one_matches_reference(pres):
    system, layer = reference_stage_one(pres)
    (q,) = quotient_tower(pres, 1)
    assert q.system == system
    assert q.layers == (layer,)


def test_class_one_matches_the_separate_construction():
    fixed = small_presentations() + [pv_presentation(3), pv_presentation(4),
                                     g3_presentation()]
    for pres in fixed:
        assert_class_one_matches_reference(pres)
    # class-1 pivots of 2 or more give weight-1 orders and powers, not only
    # eliminations: <a, b | a^4, b^6, (ab)^2> has pivots 2 and 2, and in
    # <a, b | a^2 b^2> the power of a is b^-2
    (q,) = quotient_tower(Presentation(AB, (a ** 4, b ** 6, (a * b) ** 2)), 1)
    assert q.system.orders == [2, 2]
    (q,) = quotient_tower(Presentation(AB, (a ** 2 * b ** 2,)), 1)
    assert q.system.orders == [2, 0] and q.system.powers == {0: {1: -2}}


@given(two_generator_presentations())
@settings(max_examples=60, deadline=None)
def test_class_one_matches_the_separate_construction_on_samples(pres):
    assert_class_one_matches_reference(pres)


def assert_layers_match_the_whole_lattice(monkeypatch, pres, depth):
    """Each stage runs one HNF and one Smith form, and its layer equals the
    cokernel of the whole constraint lattice handed to that HNF."""
    lattices, smith_widths = [], []

    def hnf_spy(mat):
        lattices.append(mat)
        return hermite_normal_form(mat)

    def smith_spy(mat):
        smith_widths.append(mat.ncols)
        return smith_normal_form(mat)

    monkeypatch.setattr(nq, "hermite_normal_form", hnf_spy)
    monkeypatch.setattr(intlinalg, "smith_normal_form", smith_spy)
    for q in quotient_tower(pres, depth):
        new = q.system.weights.count(q.class_)
        if lattices:
            (lattice,) = lattices
            # the layer comes from the surviving tails alone
            assert smith_widths == [new]
            assert q.layers[-1] == cokernel_invariants(lattice)
        else:
            assert q.layers[-1] == (0, ()) and new == 0 and smith_widths == []
        lattices.clear()
        smith_widths.clear()


def test_layers_match_the_whole_constraint_lattice(monkeypatch):
    for pres, depth in [(pres, 4) for pres in small_presentations()] + [
            (pv_presentation(3), 4), (g3_presentation(), 3)]:
        assert_layers_match_the_whole_lattice(monkeypatch, pres, depth)


@given(two_generator_presentations())
@settings(max_examples=30, deadline=None)
def test_layers_match_the_whole_constraint_lattice_on_samples(pres):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_layers_match_the_whole_lattice(monkeypatch, pres, 3)


def assert_sparse_vector(vec, num):
    assert isinstance(vec, dict)
    assert all(type(g) is int and 0 <= g < num for g in vec), vec
    assert all(type(e) is int and e != 0 for e in vec.values()), vec


def assert_normal_forms_are_sparse(monkeypatch, pres, depth):
    """Every stored power, commutator and image, every normal form that
    collection returns and every consistency discrepancy is a dict of
    nonzero int exponents at generators of its system.  Returns how many
    normal forms it checked and how many discrepancies."""
    checked, discrepancies = [], []
    for name in ("collect", "word_image"):
        def spy(system, arg, original=getattr(PcSystem, name)):
            vec = original(system, arg)
            assert_sparse_vector(vec, system.num)
            checked.append(vec)
            return vec

        monkeypatch.setattr(PcSystem, name, spy)

    def overlaps(system, max_weight, original=PcSystem.consistency_discrepancies):
        for label, delta in original(system, max_weight):
            assert_sparse_vector(delta, system.num)
            discrepancies.append(delta)
            yield label, delta

    monkeypatch.setattr(PcSystem, "consistency_discrepancies", overlaps)
    for q in quotient_tower(pres, depth):
        system = q.system
        for vec in [*system.powers.values(), *system.comms.values(), *system.images]:
            assert_sparse_vector(vec, system.num)
        # a stored commutator is never trivial: absent pairs commute
        assert all(system.comms.values())
    return len(checked), len(discrepancies)


def test_normal_forms_are_sparse(monkeypatch):
    counts = [assert_normal_forms_are_sparse(monkeypatch, pres, depth)
              for pres, depth in [(pres, 4) for pres in small_presentations()] + [
                  (pv_presentation(3), 4), (g3_presentation(), 3)]]
    # only the presentation without generators and the free group of rank 2,
    # whose one triple through class 4 is of full weight, collect nothing
    assert [collected > 0 for collected, _ in counts].count(False) == 2
    assert counts[0] == (0, 1) and counts[1] == (0, 0)


@given(two_generator_presentations())
@settings(max_examples=30, deadline=None)
def test_normal_forms_are_sparse_on_samples(pres):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_normal_forms_are_sparse(monkeypatch, pres, 3)


def test_vectors_expand_and_densify_in_generator_order():
    q = nilpotent_quotient(Presentation(AB, (a ** 2 * b ** 2,)), 2)
    assert q.system.expand({2: 1, 0: -2}) == [(0, -1), (0, -1), (2, 1)]
    assert q.system.expand_inv({2: 1, 0: -2}) == [(2, -1), (0, 1), (0, 1)]
    vec = q.system.word_image(a ** 3)
    assert q.image(a ** 3) == tuple(vec.get(g, 0) for g in range(q.system.num))
    assert q.image(a ** 3) == (1, -2, 0)
    with pytest.raises(ValueError):
        q.image_is_trivial(Alphabet(("x",)).gen("x"))


def test_pv4_class_four_layers_match_the_koszul_dual_series():
    layers = nilpotent_quotient(pv_presentation(4), 4).layers
    assert layers == ((12, ()), (30, ()), (164, ()), (918, ()))
    # prod_k (1 - t^k)^-phi_k = 1 / sum_r (-1)^r beer_rank(4, r) t^r
    series = [1]
    for d in range(1, 5):
        series.append(-sum((-1) ** r * beer_rank(4, r) * series[d - r]
                           for r in range(1, min(d, 3) + 1)))
    assert series == [1, 12, 108, 888, 7056]
    assert pbw_coefficients([free for free, _ in layers], 4) == tuple(series)


def reference_conjugate(system, cache, j, sj, i, si):
    """Letters for b_i^-si b_j^sj b_i^si, cached for every pair, commuting
    or not, as the collector once did."""
    key = (j, sj, i, si)
    if key not in cache:
        u = system.comms.get((j, i))
        if not u:
            out = [(j, sj)]
        elif sj == -1:
            out = [(g, -s) for g, s in reversed(reference_conjugate(system, cache, j, 1, i, si))]
        elif si == 1:
            out = [(j, 1)] + system.expand(u)
        else:
            out = [(j, 1)]
            for g, s in system.expand_inv(u):
                out.extend(reference_conjugate(system, cache, g, s, i, -1))
        cache[key] = out
    return cache[key]


def reference_collect(system, letters):
    """Unit-letter collection that splices a conjugate in on every swap,
    kept as the oracle for PcSystem.collect: (normal form, steps taken)."""
    cache = {}
    w = list(letters)
    steps = 0
    p = 0
    while p < len(w):
        steps += 1
        g, s = w[p]
        d = system.orders[g]
        if p + 1 < len(w):
            g2, s2 = w[p + 1]
            if g2 == g and s2 == -s:
                del w[p:p + 2]
                p = max(0, p - 1)
                continue
            if g2 < g:
                w[p:p + 2] = [(g2, s2)] + reference_conjugate(system, cache, g, s, g2, s2)
                p = max(0, p - 1)
                continue
        if d >= 2 and s == -1:
            w[p:p + 1] = [(g, 1)] * (d - 1) + system.expand_inv(system.powers[g])
            p = max(0, p - 1)
            continue
        if d >= 2 and s == 1:
            run = [(g, 1)] * d
            start = p if w[p:p + d] == run else p - d + 1
            if start >= 0 and w[start:start + d] == run:
                w[start:start + d] = system.expand(system.powers[g])
                p = max(0, start - 1)
                continue
        p += 1
    vec = {}
    for g, s in w:
        vec[g] = vec.get(g, 0) + s
    return vec, steps


def assert_exact_budget(system, letters, vec, steps, collect=None):
    """``collect(letters)``, by default ``system.collect(letters)``, gives
    ``vec`` within a budget of ``steps``, and ``system.collect`` stops at
    one step fewer."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nq, "DEFAULT_BUDGET", steps)
        assert (collect or system.collect)(letters) == vec
        patch.setattr(nq, "DEFAULT_BUDGET", steps - 1)
        with pytest.raises(CollectionBudget):
            system.collect(letters)


def collection_samples():
    """(quotient, seeded random letter lists) over pv3 at classes 2-4, g3,
    <a, b | a^n> for n = 2..5 and the twisted circle bundle at class 4.
    Half the words are products of generator images, half are raw pc letters."""
    names = Alphabet(("a", "t"))
    ka, kt = names.gens()
    quotients = list(quotient_tower(pv_presentation(3), 4))[1:]
    quotients += [nilpotent_quotient(pres, 4) for pres in (
        g3_presentation(), Presentation(names, (kt * ka * kt.inv() * ka,)),
        *(Presentation(AB, (a ** n,)) for n in (2, 3, 4, 5)))]
    rng = random.Random(18)
    for q in quotients:
        system = q.system
        max_len = 4 if q.class_ == 4 and system.num > 50 else 8
        gens = len(q.alphabet)
        words = []
        for _ in range(12):
            w = Word(q.alphabet, tuple(
                (rng.randrange(gens), rng.choice((1, -1)))
                for _ in range(rng.randint(1, max_len))))
            words.append([letter for g, s in w.letters for letter in (
                system.expand(system.images[g]) if s == 1
                else system.expand_inv(system.images[g]))])
            words.append([(rng.randrange(system.num), rng.choice((1, -1)))
                          for _ in range(rng.randint(1, 2 * max_len))])
        yield q, words


def test_collect_matches_the_splicing_reference_step_for_step():
    torsion = 0
    for q, words in collection_samples():
        system = q.system
        torsion += any(o >= 2 for o in system.orders)
        for letters in filter(None, words):
            assert_exact_budget(system, letters, *reference_collect(system, letters))
    assert torsion == 5


def test_tower_built_by_the_reference_collector_is_identical(monkeypatch):
    names = Alphabet(("a", "t"))
    ka, kt = names.gens()

    def presentations():
        # fresh each time: the stages kept with a presentation are not rebuilt
        return (pv_presentation(3), Presentation(names, (kt * ka * kt.inv() * ka,)),
                Presentation(AB, (a ** 3,)))

    fast = [list(quotient_tower(pres, 4)) for pres in presentations()]
    calls = []

    def reference(system, letters):
        calls.append(system)
        return reference_collect(system, letters)[0]

    monkeypatch.setattr(PcSystem, "collect", reference)
    for pres, tower in zip(presentations(), fast):
        del calls[:]
        assert list(quotient_tower(pres, 4)) == tower
        assert calls  # the reference collector built this tower


def test_conjugate_cache_holds_only_pairs_a_commutator_changes():
    pres = pv_presentation(3)
    tower = list(quotient_tower(pres, 4))
    rng = random.Random(4)
    for _ in range(8):
        tower[-1].image(Word(pres.alphabet, tuple(
            (rng.randrange(6), rng.choice((1, -1))) for _ in range(6))))
    assert tower[-1].system._conj_cache
    for q in tower:
        system = q.system
        assert all((j, i) in system.comms for j, _, i, _ in system._conj_cache)


def _carry_line(code):
    """The line of ``code`` that counts each carry, read from the source
    once, when this module loads: a later edit of the file cannot move it."""
    lines, first = inspect.getsourcelines(code)
    return first + next(k for k, line in enumerate(lines) if "steps += p - q" in line)


CARRY_LINE = _carry_line(PcSystem.collect.__code__)


def watch_carries(system, letters, see):
    """``system.collect(letters)``, handing ``see`` the collector's locals at
    the line that counts each carry, after the carried letter y has moved to w[q]."""
    code = PcSystem.collect.__code__

    def at_line(frame, event, arg):
        if event == "line" and frame.f_lineno == CARRY_LINE:
            see(frame.f_locals)
        return at_line

    old = sys.gettrace()
    sys.settrace(lambda frame, event, arg: at_line if frame.f_code is code else None)
    try:
        return system.collect(letters)
    finally:
        sys.settrace(old)


def carry_ends(system, letters):
    """How the carries of ``system.collect(letters)`` end: where the carried
    letter stops (position 0, or beside a letter above it with a commutator,
    below it, equal to it or cancelling it) and which side has torsion."""
    ends = set()

    def see(v):
        w, q, y = v["w"], v["q"], v["y"]
        if not q:
            ends.add("to 0")
        elif w[q - 1][0] != y[0]:
            ends.add("blocked" if w[q - 1][0] > y[0] else "below")
        else:
            ends.add("same" if w[q - 1] == y else "cancel")
        # torsion on one side only, so that its guard alone decides
        if (v["d"] >= 2) != (system.orders[y[0]] >= 2):
            ends.add("torsion passed" if v["d"] >= 2 else "torsion carried")

    watch_carries(system, letters, see)
    return ends


def test_carried_letters_match_the_splicing_reference_step_for_step():
    # raw pc letters, so that letters of every weight and order meet in any order
    quotients = [nilpotent_quotient(Presentation(AB, (a ** n,)), 5) for n in (2, 3, 5, 7)]
    quotients += [nilpotent_quotient(Presentation(AB, (a ** n, b ** m)), 3)
                  for n, m in ((2, 2), (3, 3), (6, 4))]
    # where a torsion letter is carried past free letters it commutes with
    abc = Alphabet(("a", "b", "c"))
    quotients.append(nilpotent_quotient(Presentation(abc, (abc.gen("a") ** 3,)), 3))
    quotients += list(quotient_tower(pv_presentation(3), 4))[1:]
    rng = random.Random(19)
    ends = set()
    for q in quotients:
        system = q.system
        words = []
        for k in range(20):
            # every other word on two to four generators, so that equal
            # letters meet and torsion runs form across a carry
            gens = (range(system.num) if k % 2 else
                    rng.sample(range(system.num), rng.randint(2, 4)))
            words.append([(rng.choice(gens), rng.choice((1, -1)))
                          for _ in range(rng.randint(1, 40))])
        n = system.orders[0]
        if system.orders[1] < 2 and n >= 3:
            # b is carried to the front past n - 1 letters of the central top
            # generator, and the next one completes a run of n that starts
            # behind the place b left
            top = (system.num - 1, 1)
            words.append([top] * (n - 1) + [(1, 1), top])
        for k, letters in enumerate(words):
            vec, steps = reference_collect(system, letters)
            assert_exact_budget(system, letters, vec, steps)
            if k < 5 and steps < 2000:
                ends |= carry_ends(system, letters)
    assert ends == {"to 0", "blocked", "below", "same", "cancel",
                    "torsion passed", "torsion carried"}


def test_long_carries_keep_the_step_count():
    # four conjugated pv3 relators, 48 letters; the count is that of the
    # collector that swapped one place per step
    pres = pv_presentation(3)
    l12, l21, l13, l31, l23, l32 = pres.alphabet.gens()
    r = pres.relators
    w = pres.alphabet.identity()
    for u, rel in ((l12 * l23 * l31, r[0]), (l32.inv() * l13 * l21, r[3].inv()),
                   (l21 * l21 * l13.inv(), r[4]), (l31 * l12.inv() * l32, r[1].inv())):
        w = w * u * rel * u.inv()
    assert len(w) == 48
    system = list(quotient_tower(pres, 4))[-1].system
    letters = [letter for g, s in w.letters for letter in (
        system.expand(system.images[g]) if s == 1 else system.expand_inv(system.images[g]))]
    assert_exact_budget(system, letters, {}, 587_424)


def brute_reach(system):
    """The last generator with a commutator on each generator (itself if none)."""
    return [max([j for j, i in system.comms if i == g], default=g) for g in range(system.num)]


def test_reach_is_the_last_commutator_partner_of_each_generator():
    # a fresh value equal to a kept stage, so that nothing has collected in it
    stage = list(quotient_tower(pv_presentation(3), 4))[-1].system
    system = PcSystem(*(getattr(stage, name) for name in PcSystem._fields))
    assert system == stage and not system._conj_cache
    assert system._reach == brute_reach(system)  # built with the value
    system.collect([(1, 1), (0, 1)])
    assert system._conj_cache and system._reach == brute_reach(system)
    assert any(r > g for g, r in enumerate(system._reach))
    assert any(r == g for g, r in enumerate(system._reach))


def image_letters(system, w):
    return [letter for g, s in w.letters for letter in (
        system.expand(system.images[g]) if s == 1 else system.expand_inv(system.images[g]))]


def quick_images(system, make_word, count, budget=200_000):
    """Images of ``count`` words from ``make_word()`` that collect within
    ``budget`` steps, so that the oracle stays quick."""
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nq, "DEFAULT_BUDGET", budget)
        while len(out) < count:
            letters = image_letters(system, make_word())
            try:
                system.collect(letters)
            except CollectionBudget:
                continue
            out.append(letters)
    return out


def carry_jump_samples():
    """(family, system, letter lists) whose carries cross long sorted runs of
    letters above the carried letter's last commutator partner.

    - pv3 class 5: images of products of conjugated relators, 12-20 letters;
    - g3 class 5: images of 12-letter words in powers of up to 4, whose
      collection brings in commutators with exponents up to 8;
    - <a, b | a^n>, n = 2..5, class 6: a normal form over the upper half of
      the pc generators, torsion letters among them, then low letters carried
      across it; and random raw letters."""
    rng = random.Random(25)
    pres = pv_presentation(3)

    def relator_product():
        w = pres.alphabet.identity()
        while len(w) < 12:
            u = Word(pres.alphabet, tuple((rng.randrange(6), rng.choice((1, -1)))
                                          for _ in range(rng.randint(0, 2))))
            w = w * u * rng.choice(pres.relators) * u.inv()
        return w if len(w) <= 20 else relator_product()

    system = nilpotent_quotient(pres, 5).system
    yield "pv3", system, quick_images(system, relator_product, 6)

    g3 = g3_presentation()

    def powers():
        w = g3.alphabet.identity()
        while len(w) < 12:
            w = w * rng.choice(g3.alphabet.gens()) ** (rng.choice((1, -1)) * rng.randint(1, 4))
        return w

    system = nilpotent_quotient(g3, 5).system
    yield "g3", system, quick_images(system, powers, 8)

    for n in (2, 3, 4, 5):
        system = nilpotent_quotient(Presentation(AB, (a ** n,)), 6).system
        half = system.num // 2
        words = []
        for _ in range(10):
            run = []
            for g in sorted(rng.sample(range(half, system.num), half // 2)):
                order = system.orders[g]
                run += system.expand({g: rng.randint(1, order - 1) if order >= 2
                                      else rng.choice((1, -1)) * rng.randint(1, 3)})
            words.append(run + [(rng.randrange(half), rng.choice((1, -1)))
                                for _ in range(rng.randint(1, 4))])
            words.append([(rng.randrange(system.num), rng.choice((1, -1)))
                          for _ in range(rng.randint(10, 30))])
        yield "torsion", system, words


def test_carry_jumps_match_the_splicing_reference_step_for_step():
    crossed = {}
    for family, system, words in carry_jump_samples():
        reach = brute_reach(system)

        def see(v):
            # the letters the carry passed that lie above the carried letter's reach
            w, p, q, y = v["w"], v["p"], v["q"], v["y"]
            above = [x for x in w[q + 1:p + 2] if x[0] > reach[y[0]]]
            torsion = sum(system.orders[x[0]] >= 2 for x in above)
            best = crossed.get(family, (0, 0))
            crossed[family] = (max(best[0], len(above)), max(best[1], torsion))

        for letters in words:
            vec, steps = reference_collect(system, letters)
            assert_exact_budget(system, letters, vec, steps,
                                lambda letters: watch_carries(system, letters, see))
    assert all(crossed[family][0] >= 10 for family in ("pv3", "g3", "torsion"))
    assert crossed["torsion"][1] >= 5
