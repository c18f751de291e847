"""The benchmark's own consequence questions, answered and checked in tier-1.

``bench/run.py`` is loaded from its file, with ``bench`` on the path for
the modules it imports.  Its ``word-problem`` workload generates the
questions and checks every answer with its own oracles, which never call
into the package: certificates are multiplied out by the benchmark, and a
refuted consequence or a verified nontrivial word is an error.
"""

import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
SEED = 3


def word_problem(monkeypatch):
    """The word-problem workload, prepared for SEED."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("pvb3_bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    work = run.WordProblem()
    work.prepare(SEED)
    return work


def test_word_problem_batches_decide_every_question_correctly(monkeypatch):
    work = word_problem(monkeypatch)
    for b in range(3):  # the exhausting questions rotate over three batches
        out = work.run(work.inputs(SEED, b), trace=False, scale=False)
        assert out.errors == []
        assert out.failed == 0
        assert out.decided == out.attempted == 71


def test_word_problem_commutators_expand_no_level_state(monkeypatch):
    # comm2 and comm3 are refuted by the tower walk before the level
    # search: every state expanded for them is the descent's, which asks
    # for the shorter children only
    work = word_problem(monkeypatch)
    real, level = work.fpres._children, []

    def spying(letters, max_prefix, rels, seams, shorter=False):
        if not shorter:
            level.append(letters)
        return real(letters, max_prefix, rels, seams, shorter)

    monkeypatch.setattr(work.fpres, "_children", spying)
    kinds = []
    for b in range(3):  # over the three presentations
        for item in work.inputs(SEED, b):
            if item["kind"] in ("comm2", "comm3"):
                kinds.append((item["kind"], item["presentation"]))
                assert work.op(item)[1].status == "REFUTED"
    assert len(kinds) == 6 and len(set(kinds)) == 6
    assert level == []
