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


def test_word_problem_batches_decide_every_question_correctly(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("pvb3_bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    work, seed = run.WordProblem(), 3
    work.prepare(seed)
    for b in range(3):  # the exhausting questions rotate over three batches
        out = work.run(work.inputs(seed, b), trace=False, scale=False)
        assert out.errors == []
        assert out.failed == 0
        assert out.decided == out.attempted == 71
