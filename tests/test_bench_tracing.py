"""The benchmark tracer still finds every function it wraps in pvb3 and
reads the same counts from the matrices it sees.

``bench/tracing.py`` looks its targets up by module and name and counts
matrix cells from ``nrows``, ``ncols`` and ``entries``, so a rename or a
change of matrix format inside the package would break a traced benchmark
run while every other test passes.  The tracer is loaded from its file;
here it is installed and uninstalled, its counters are called directly,
one traced NQ build pins the collection and elimination counts, and the
traced splitting questions pin one search and one abelianisation
elimination per consequence question.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

from pvb3 import nq
from pvb3.fpres import (
    check_homomorphism_presented,
    g3_presentation,
    pv3_new_generators,
    pv3_new_presentation,
    pv_presentation,
)
from pvb3.intlinalg import IntMatrix
from pvb3.lie import lie_quotient

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("pvb3_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets(tracing):
    """Name -> (namespace, attribute) of every TRACED target."""
    out = {}
    for module, qual, *_ in tracing.TRACED:
        owner = importlib.import_module("pvb3." + module)
        attr = qual
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = vars(owner).get(cls_name)
        out[module + "." + qual] = owner, attr
    return out


def snapshot(tracing, owners):
    """Every name bound in the package's modules and in the traced classes."""
    spaces = [importlib.import_module("pvb3." + m) for m in tracing.MODULES]
    spaces += [importlib.import_module("pvb3")] + [owner for owner, _ in owners]
    return [(space, dict(vars(space))) for space in spaces]


def test_tracer_wraps_every_target_and_restores_the_originals():
    tracing = load_tracing()
    found = targets(tracing)
    missing = [name for name, (owner, attr) in found.items()
               if owner is None or attr not in vars(owner)]
    assert missing == []
    originals = {name: vars(owner)[attr] for name, (owner, attr) in found.items()}
    before = snapshot(tracing, found.values())
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, (owner, attr) in found.items():
            assert vars(owner)[attr].__wrapped__ is originals[name], name
    finally:
        tracer.uninstall()
    for name, (owner, attr) in found.items():
        assert vars(owner)[attr] is originals[name], name
    for (space, old), (_, new) in zip(before, snapshot(tracing, found.values())):
        assert old.keys() == new.keys()
        assert all(new[k] is v for k, v in old.items()), space


def test_matrix_counters_read_sparse_rows_as_their_dense_twins():
    # the tracer counts cells and nonzeros of a matrix from its nrows,
    # ncols and entries, and ideal rows from nrows
    tracing = load_tracing()
    sparse = lie_quotient(pv3_new_presentation()).ideal_matrix(3)
    # (sparse matrix, dense twin, rows, cells, nonzeros)
    cases = [(sparse, IntMatrix.from_rows(sparse.entries, 70), 36, 2520, 70),
             (IntMatrix([{}, {4: -2}, {}], 5),
              IntMatrix.from_rows([[0] * 5, [0, 0, 0, 0, -2], [0] * 5]), 3, 15, 1),
             (IntMatrix([], 3), IntMatrix.from_rows([], 3), 0, 0, 0)]
    for a, b, rows, cells, nnz in cases:
        assert a == b
        assert tracing._mat_cells(a) == tracing._mat_cells(b) == cells
        assert tracing._mat_nnz(a) == tracing._mat_nnz(b) == nnz
        counters = Counter()
        tracing._ideal((), {}, a, counters)
        tracing._ideal((), {}, b, counters)
        assert counters == {"lie.ideal_rows": 2 * rows}


def test_traced_nq_builds_count_overlaps_collections_and_eliminations():
    # the overlaps are counted as the items consistency_discrepancies
    # yields, so it must stay a generator; a change in how stages collect
    # or what they eliminate moves these counts.  Every overlap of pv3 and
    # g3 through class 3 is a full-weight triple read off the Jacobi
    # identity, so the 36 collections are the 12 relators' images per stage
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        for pres in (pv_presentation(3), g3_presentation()):
            nq.nilpotent_quotient(pres, 3)
    finally:
        tracer.uninstall()
    counts = {name: tracer.counters[name] for name in (
        "nq.builds", "nq.overlaps", "nq.collect_calls", "nq.collect_letters_in",
        "nq.budget_stops", "intlinalg.hnf_calls", "intlinalg.hnf_cells")}
    assert counts == {"nq.builds": 2, "nq.overlaps": 30, "nq.collect_calls": 36,
                      "nq.collect_letters_in": 216, "nq.budget_stops": 0,
                      "intlinalg.hnf_calls": 12, "intlinalg.hnf_cells": 2192}


def test_traced_splitting_questions_search_each_word_once():
    # the 12 relator images of the free-product splitting: 8 of them are
    # not cyclically reduced, and the search on their cyclic core must
    # not repeat the abelianisation check, whose 6x6 HNF is built once
    # per presentation.  The descent leaves two pv3-new images to the walk
    # of that presentation's class-4 tower, built here before tracing, so
    # that the walk reads kept stages and no NQ elimination is counted
    old, new = pv_presentation(3), pv3_new_presentation()
    f, g = pv3_new_generators()
    nq.nilpotent_quotient(new, 4)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        results = (check_homomorphism_presented(old, f, new)
                   + check_homomorphism_presented(new, g, old))
    finally:
        tracer.uninstall()
    assert len(results) == 12
    counts = {name: tracer.counters[name] for name in (
        "fpres.queries", "fpres.verified", "fpres.certificate_steps",
        "intlinalg.hnf_calls", "intlinalg.hnf_cells")}
    assert counts == {"fpres.queries": 12, "fpres.verified": 12,
                      "fpres.certificate_steps": 20,
                      "intlinalg.hnf_calls": 2, "intlinalg.hnf_cells": 72}
