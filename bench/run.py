"""Benchmark of the pvb3 engines: four seeded workloads, one command.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src``
there.  Each workload repeats batches of work until they have taken
``--seconds`` (at least two batches; the set-up probes taken between
batches do not count), checks every answer against the oracles
in ``oracles.py`` and prints its metrics, then one JSON result as the last
line of stdout.  The exit status is 1 on any wrong answer and 2 when the
program cannot be found.

With ``--trace 0`` every end-to-end metric is reported, its times
scaled to a fixed reference speed of the machine, which ``speed.py``
samples while the program runs.  With ``--trace 1`` each batch runs
twice, traced and then untraced, and the per-module metrics come from
the traced runs (``tracing.py``): counters from the first batch, so they
repeat exactly for a seed, and times as means per traced batch.
``trace.overhead_s`` is the traced minus the untraced batch wall time.
Traced runs are not scaled.  See NOTES.md for the workloads and the
metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time

import oracles
import speed
from tracing import COUNTERS, TIMES, Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_TIMEOUT_S = 150
HARD_STOP_S = 120
SUITE_ARGV = ["suite", "--class", "4", "--max-degree", "4", "--json", "-", "--timings"]
SUITE_CHECK_IDS = ("01-pv3-ring-ranks", "02-g3-ring-ranks", "03-wedge-golden-values",
                   "04-relation-span-routes", "05-automorphism-identities",
                   "06-free-product-splitting", "07-nilpotent-engine-oracles",
                   "08-graded-lie-comparison", "09-mapping-torus-criterion",
                   "10-quotient-separation")
SUITE_CHECKS = len(SUITE_CHECK_IDS)
TOWER = (("pv3", 4), ("pv3-new", 4), ("g3", 4), ("pv4", 3))
QA_PRESENTATIONS = ("pv3", "pv3-new", "g3")


class ChildError(RuntimeError):
    pass


def run_child(task):
    """Run child.py on a task; returns (wall seconds, parsed reply)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, CHILD], input=json.dumps(task), cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise ChildError("child exited %d: %s" % (proc.returncode, proc.stderr.strip()[-500:]))
    return wall, json.loads(proc.stdout.strip().splitlines()[-1])


def process_s(wall, reply):
    """A child's wall time, at the reference speed if it sampled the speed."""
    sampled = reply.get("speed")
    if sampled is None:
        return wall
    return (wall - sampled["spent"]) * speed.factor(sampled["samples"], -math.inf, math.inf)


def op_s(reply):
    """The time of a child's op, at the reference speed if it sampled the speed."""
    sampled = reply.get("speed")
    if sampled is None:
        return reply["op_s"]
    start, end = reply["op_window"]
    return speed.scaled(sampled["samples"], start, end, reply["op_spent"])


class Batch:
    """What one batch did: timings, tallies, wrong answers, trace totals.

    ``wall_s`` and ``latencies_ms`` are at the reference speed when the
    batch was run with ``scale``; ``raw_wall_s`` never is.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.raw_wall_s = 0.0
        self.latencies_ms = []
        self.attempted = 0
        self.decided = 0
        self.failed = 0
        self.errors = []
        self.totals = None
        self.check_ms = {}


def add_totals(into, totals):
    for k, v in totals.items():
        into[k] = into.get(k, 0) + v


# -- workloads ---------------------------------------------------------------


class SuiteClass4:
    """The headline command, one fresh interpreter per sample."""

    name = "suite-class4"
    in_process = False
    setup_repeats = 7
    tail_pct = 90

    def setup_task(self):
        return {"kind": "setup", "texts": []}

    def prepare(self, seed):
        self.expected = str(oracles.pv_lcs_ranks(3, 4))

    def inputs(self, seed, b):
        return {"argv": SUITE_ARGV}

    def run(self, inputs, trace, scale):
        out = Batch()
        out.attempted = SUITE_CHECKS
        try:
            wall, reply = run_child({"kind": "suite", "argv": inputs["argv"], "trace": trace,
                                     "scale": scale})
        except (ChildError, subprocess.TimeoutExpired) as err:
            out.failed = SUITE_CHECKS
            out.errors.append("suite run failed: %s" % err)
            return out
        out.raw_wall_s = wall
        out.wall_s = process_s(wall, reply)
        out.latencies_ms.append(out.wall_s * 1000.0)
        checks = json.loads(reply["value"])["checks"]
        if reply["exit"] != 0 or len(checks) != SUITE_CHECKS:
            out.errors.append("suite exit %d with %d checks" % (reply["exit"], len(checks)))
        for c in checks:
            out.check_ms[c["id"]] = c["wall_ms"]
            if c["status"] == "PASS":
                out.decided += 1
            else:
                out.errors.append("%s: %s %s" % (c["id"], c["status"], c["details"]))
            if c["details"].startswith(("stopped:", "error:")):
                out.failed += 1
            if c["id"].startswith("08-") and self.expected not in c["details"]:
                out.errors.append("check 08 does not report %s: %s" % (self.expected, c["details"]))
        if trace:
            out.totals = reply["totals"]
            out.totals["self_s.startup"] += wall - reply["totals"]["trace.root_s"]
        return out


class NqTower:
    """Four quotient builds, each in its own interpreter."""

    name = "nq-tower"
    in_process = False
    setup_repeats = 7
    tail_pct = 90

    def setup_task(self):
        return {"kind": "setup", "texts": [oracles.presentation_text(p) for p, _ in TOWER]}

    def prepare(self, seed):
        self.texts = {p: oracles.presentation_text(p) for p, _ in TOWER}

    def inputs(self, seed, b):
        order = list(TOWER)
        random.Random("nq-tower:%d:%d" % (seed, b)).shuffle(order)
        return [{"presentation": p, "class": c, "text": self.texts[p]} for p, c in order]

    def run(self, inputs, trace, scale):
        out = Batch()
        out.totals = {} if trace else None
        start = time.perf_counter()
        for item in inputs:
            out.attempted += 1
            try:
                wall, reply = run_child({"kind": "build", "text": item["text"],
                                         "class": item["class"], "trace": trace,
                                         "scale": scale})
            except (ChildError, subprocess.TimeoutExpired) as err:
                out.failed += 1
                out.errors.append("%s build failed: %s" % (item["presentation"], err))
                continue
            out.decided += 1
            out.wall_s += process_s(wall, reply)
            out.latencies_ms.append(op_s(reply) * 1000.0)
            layers = reply["value"]
            want = oracles.LCS_ORACLE[item["presentation"]](item["class"])
            if tuple(f for f, _ in layers) != want or any(t for _, t in layers):
                out.errors.append("%s class %d layers %s, expected ranks %s and no torsion"
                                  % (item["presentation"], item["class"], layers, want))
            if trace:
                add_totals(out.totals, reply["totals"])
                out.totals["self_s.startup"] += wall - reply["totals"]["trace.root_s"]
        out.raw_wall_s = time.perf_counter() - start
        if not scale:
            out.wall_s = out.raw_wall_s
        return out


class InProcess:
    """Ops run in this interpreter, one root span each when traced."""

    in_process = True

    def run(self, inputs, trace, scale):
        out = Batch()
        tracer = None
        if trace:
            tracer = Tracer()
            tracer.install()
        sampler = speed.Sampler() if scale else None
        windows = []  # (start, end, handler time within) per op
        try:
            if sampler:
                sampler.start()
            start = time.perf_counter()
            for k, item in enumerate(inputs):
                spent = sampler.spent if sampler else 0.0
                t = time.perf_counter()
                try:
                    item["value"] = tracer.op(k, self.op, item) if tracer else self.op(item)
                except Exception as err:  # a raised op is counted, not fatal
                    item["value"] = err
                windows.append((t, time.perf_counter(), sampler.spent - spent if sampler else 0.0))
            out.raw_wall_s = time.perf_counter() - start
        finally:
            if sampler:
                sampler.stop()
            if tracer:
                tracer.uninstall()
        if sampler:
            out.latencies_ms = [speed.scaled(sampler.samples, *w) * 1000.0 for w in windows]
            out.wall_s = sum(out.latencies_ms) / 1000.0
        else:
            out.latencies_ms = [(end - t) * 1000.0 for t, end, _ in windows]
            out.wall_s = out.raw_wall_s
        if tracer:
            out.totals = tracer.totals()
            out.totals["self_s.bench"] += out.wall_s - tracer.root_s
        out.attempted = len(inputs)
        for item in inputs:
            value = item["value"]
            if isinstance(value, Exception):
                out.failed += 1
                if type(value).__name__ != "CollectionBudget":
                    out.errors.append("%s raised %r" % (item["text"], value))
            else:
                self.check(item, value, out)
        return out


class NqNormalForms(InProcess):
    """Normal forms of random words in the pv3 class-3 and class-4 quotients."""

    name = "nq-normal-forms"
    setup_repeats = 5
    tail_pct = 90
    # class -> {word length: words of that length per batch}.  Every batch
    # has the same lengths, since cost grows steeply with length.  The
    # cost of class-4 words of length 6 varies most (70 ms on average, up
    # to about 0.6 s), so a batch holds only two of them: more would leave
    # a run fewer words in all and its figures more dependent on the seed.
    SHAPES = {3: {n: 4 for n in range(4, 13)}, 4: {4: 6, 5: 6, 6: 2}}
    # lengths of the class-3 words also asked with a conjugated relator
    # spliced in; at class 4 such words run to seconds
    INSERTED = range(4, 12)

    def setup_task(self):
        return {"kind": "setup", "texts": [oracles.presentation_text("pv3")],
                "build": [[0, c] for c in self.SHAPES]}

    def prepare(self, seed):
        from pvb3.fpres import Presentation
        from pvb3.grammar import parse_word
        from pvb3.nq import nilpotent_quotient

        self.parse_word = parse_word  # untimed: parsing is set-up here
        self.names, self.relators = oracles.presentation("pv3")
        self.pres = Presentation.from_text(oracles.presentation_text("pv3"))
        self.quotients = {c: nilpotent_quotient(self.pres, c) for c in self.SHAPES}
        # the weight-1 part of a normal form is linear in the exponent sums
        self.weight1 = {}
        for c, q in self.quotients.items():
            free, torsion = q.layers[0]
            n1 = free + len(torsion)
            self.weight1[c] = (n1, [q.image(g)[:n1] for g in self.pres.alphabet.gens()])

    def inputs(self, seed, b):
        rng = random.Random("%s:%d:%d" % (self.name, seed, b))
        n = len(self.names)
        items = []
        for c, counts in self.SHAPES.items():
            for length, repeats in counts.items():
                for k in range(repeats):
                    w = random_word(rng, n, length)
                    items.append({"class": c, "text": oracles.render(w, self.names),
                                  "letters": w, "pair": None})
                    if c == 3 and k == 0 and length in self.INSERTED:
                        # w with u r^+-1 u^-1 spliced in at a random point
                        p = rng.randint(0, len(w))
                        r = self.relators[rng.randrange(len(self.relators))]
                        r = r if rng.random() < 0.5 else oracles.inverse(r)
                        u = random_word(rng, n, rng.randint(0, 1))
                        w2 = oracles.reduce(w[:p] + oracles.conjugate(r, u) + w[p:])
                        items.append({"class": c, "text": oracles.render(w2, self.names),
                                      "letters": w2, "pair": items[-1]})
        # spread each kind over the batch's wall time
        rng.shuffle(items)
        for item in items:
            item["word"] = self.parse_word(item["text"], self.pres.alphabet)
        return items

    def op(self, item):
        return self.quotients[item["class"]].image(item["word"])

    def check(self, item, value, out):
        out.decided += 1
        if item["word"].letters != item["letters"]:
            out.errors.append("parsed %s differently" % item["text"])
        n1, gens = self.weight1[item["class"]]
        sums = oracles.exponent_sums(item["letters"], len(self.names))
        want = tuple(sum(e * g[i] for e, g in zip(sums, gens)) for i in range(n1))
        if tuple(value[:n1]) != want:
            out.errors.append("class %d weight-1 part of %s is %s, exponent sums give %s"
                              % (item["class"], item["text"], value[:n1], want))
        if item["pair"] is not None:
            base = item["pair"]["value"]
            if not isinstance(base, Exception) and tuple(base) != tuple(value):
                out.errors.append("inserting a relator changed the class-%d normal form of %s"
                                  % (item["class"], item["text"]))


def random_word(rng, ngens, length):
    """Freely reduced word of the given length."""
    out = []
    while len(out) < length:
        g, s = rng.randrange(ngens), rng.choice((1, -1))
        if not out or out[-1] != (g, -s):
            out.append((g, s))
    return tuple(out)


class WordProblem(InProcess):
    """A seeded session of consequence questions, given as text."""

    name = "word-problem"
    setup_repeats = 7
    tail_pct = 90
    # kind -> questions per batch.  The latencies form steps by kind; the
    # counts put the median in the middle of the two-relator block (about
    # 1 ms), the 90th percentile inside the block of three-relator products
    # and long relator images (about 100 ms), and keep the searches that
    # exhaust their bounds (seconds each) to three a batch.
    MIX = (("h1", 2), ("prod1", 2), ("image", 12), ("prod2", 40), ("prod3", 12),
           ("comm2", 1), ("comm3", 1), ("prod4", 1))
    # conjugator lengths of the relator products; four relators with
    # conjugators of length 3 stay UNKNOWN, since the search inserts
    # relators no deeper than 8 letters
    CONJUGATORS = {1: (0, 2), 2: (0, 2), 3: (0, 1), 4: (3, 3)}
    # the searches that exhaust their bounds rotate over the presentations
    # with the batch index, so every three batches ask the same mix
    ROTATE = {"comm2": 0, "comm3": 1, "prod4": 2}
    EXPECT = {"h1": "nontrivial", "comm2": "nontrivial", "comm3": "nontrivial"}

    def setup_task(self):
        return {"kind": "setup", "texts": [oracles.presentation_text(p) for p in QA_PRESENTATIONS]}

    def prepare(self, seed):
        from pvb3 import fpres, grammar
        from pvb3.fpres import Presentation

        # looked up at each call, so that the tracer's wrappers are seen
        self.fpres, self.grammar = fpres, grammar
        self.own = {p: oracles.presentation(p) for p in QA_PRESENTATIONS}
        self.pres = {p: Presentation.from_text(oracles.presentation_text(p))
                     for p in QA_PRESENTATIONS}
        self.commutators = {}
        for p in QA_PRESENTATIONS:
            magnus = oracles.MagnusOracle(p)
            self.commutators[p] = {2: oracles.commutator_pairs(magnus, 2),
                                   3: oracles.commutator_pairs(magnus, 3)}
        f, g = oracles.splitting_images()
        self.images = ([("pv3-new", oracles.substitute(r, f)) for r in self.own["pv3"][1]]
                       + [("pv3", oracles.substitute(r, g)) for r in self.own["pv3-new"][1]])

    def _product(self, rng, p, k, lo, hi):
        """k conjugated relators whose concatenation is freely reduced.

        With no cancellation across factor boundaries each relator stays
        a contiguous block, and the search finds every such product with
        conjugators of length at most 2 (600 of 600 two-factor and 300 of
        300 three-factor samples); with cancellation about 1 in 50 stays
        UNKNOWN, which would make a batch's time depend on the seed.
        """
        names, rels = self.own[p]
        while True:
            w = ()
            for _ in range(k):
                r = rels[rng.randrange(len(rels))]
                r = r if rng.random() < 0.5 else oracles.inverse(r)
                u = random_word(rng, len(names), rng.randint(lo, hi))
                w += u + r + oracles.inverse(u)
            if oracles.reduce(w) == w:
                return w

    def inputs(self, seed, b):
        rng = random.Random("%s:%d:%d" % (self.name, seed, b))
        items = []
        for kind, count in self.MIX:
            for k in range(count):
                p = rng.choice(QA_PRESENTATIONS)
                if kind in self.ROTATE:
                    p = QA_PRESENTATIONS[(b + self.ROTATE[kind]) % len(QA_PRESENTATIONS)]
                names = self.own[p][0]
                text = None
                if kind == "h1":
                    w = ()
                    while not any(oracles.exponent_sums(w, len(names))):
                        w = random_word(rng, len(names), rng.randint(3, 6))
                elif kind == "image":
                    p, w = self.images[k]
                    names = self.own[p][0]
                elif kind.startswith("prod"):
                    k_rel = int(kind[-1])
                    w = self._product(rng, p, k_rel, *self.CONJUGATORS[k_rel])
                else:
                    idx = rng.choice(self.commutators[p][int(kind[-1])])
                    x = [names[i] for i in idx]
                    text = "[%s, %s]" % (x[0], x[1]) if len(x) == 2 else \
                        "[[%s, %s], %s]" % tuple(x)
                    w = ((idx[0], 1),)
                    for i in idx[1:]:
                        w = oracles.commutator(w, ((i, 1),))
                items.append({"kind": kind, "presentation": p, "letters": w,
                              "text": text or oracles.render(w, names),
                              "expect": self.EXPECT.get(kind, "consequence")})
        rng.shuffle(items)
        return items

    def op(self, item):
        pres = self.pres[item["presentation"]]
        w = self.grammar.parse_word(item["text"], pres.alphabet)
        return w, self.fpres.is_consequence(pres, w)

    def check(self, item, value, out):
        w, result = value
        where = "%s in %s (%s)" % (item["text"], item["presentation"], item["kind"])
        if w.letters != item["letters"]:
            out.errors.append("parsed %s differently" % where)
        if result.status in ("VERIFIED", "REFUTED"):
            out.decided += 1
        if result.status == "VERIFIED":
            rels = self.own[item["presentation"]][1]
            prod = ()
            for step in result.certificate:
                r = rels[step.relator_index]
                r = r if step.sign == 1 else oracles.inverse(r)
                prod = oracles.reduce(prod + oracles.conjugate(r, step.conjugator.letters))
            if prod != item["letters"]:
                out.errors.append("certificate for %s does not multiply out to it" % where)
            if item["expect"] == "nontrivial":
                out.errors.append("VERIFIED a word proven nontrivial: %s" % where)
        elif result.status == "REFUTED" and item["expect"] == "consequence":
            out.errors.append("REFUTED a constructed consequence: %s" % where)


WORKLOADS = {w.name: w for w in (SuiteClass4, NqTower, NqNormalForms, WordProblem)}


# -- measurement -------------------------------------------------------------


def tail(values, pct):
    """(percentile value, number of samples above it)."""
    value = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return value, sum(1 for v in values if v > value)


def digest(inputs):
    """Hash of what the program is given: texts, classes, presentations."""
    keep = ("argv", "text", "class", "presentation", "kind")
    items = inputs if isinstance(inputs, list) else [inputs]
    blob = json.dumps([{k: x[k] for k in keep if k in x} for x in items], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def provenance(seed, workload, inputs_sha256):
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):  # never a repository above the checkout
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, timeout=10)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    pkg = os.path.join(SRC, "pvb3")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"workload": workload, "seed": seed, "commit": commit,
            "src_sha256": src.hexdigest()[:16], "python": platform.python_version(),
            "nproc": os.cpu_count(), "inputs_sha256": inputs_sha256}


class SetupProbes:
    """Fresh-interpreter set-ups, spread over the run so that one slow
    spell of a shared machine does not decide the median."""

    def __init__(self, work, scale):
        self.work = work
        self.scale = scale
        self.walls = []
        self.imports = []

    def take(self):
        if len(self.walls) < self.work.setup_repeats:
            wall, reply = run_child(dict(self.work.setup_task(), scale=self.scale))
            self.walls.append(process_s(wall, reply))
            self.imports.append(reply["import_s"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "pvb3", "__init__.py")):
        print("error: no program at %s; run from the root of a checkout" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import pvb3
    if not os.path.abspath(pvb3.__file__).startswith(SRC + os.sep):
        print("error: imported pvb3 from %s, not %s" % (pvb3.__file__, SRC), file=sys.stderr)
        return 2

    work = WORKLOADS[args.workload]()
    scale = not args.trace
    setup = SetupProbes(work, scale)
    setup.take()
    work.prepare(args.seed)

    batches = []
    first_digest = None
    start = time.perf_counter()
    measured = 0.0  # time in batches; the set-up probes between them do not count
    b = 0
    while True:
        elapsed = time.perf_counter() - start
        traced = [x for x in batches if x.totals is not None]
        plain = [x for x in batches if x.totals is None]
        if args.trace:
            enough = traced and plain
        else:
            n = sum(len(x.latencies_ms) for x in plain)
            enough = len(plain) >= 2 and (not work.in_process or n * (100 - work.tail_pct) >= 1000)
        if (measured >= args.seconds and enough) or elapsed >= HARD_STOP_S:
            break
        # traced runs ask each batch twice, traced and then untraced, so
        # that the overhead compares the same work
        batch_start = time.perf_counter()
        inputs = work.inputs(args.seed, b // 2 if args.trace else b)
        if first_digest is None:
            first_digest = digest(inputs)
        batches.append(work.run(inputs, trace=bool(args.trace) and b % 2 == 0, scale=scale))
        measured += time.perf_counter() - batch_start
        b += 1
        setup.take()
    while len(setup.walls) < work.setup_repeats:
        setup.take()
    if work.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    plain = [x for x in batches if x.totals is None]
    traced = [x for x in batches if x.totals is not None]
    errors = [e for x in batches for e in x.errors]
    attempted = sum(x.attempted for x in batches)
    failed = sum(x.failed for x in batches)
    latencies = [v for x in plain for v in x.latencies_ms]
    info = provenance(args.seed, args.workload, first_digest)
    info.update(batches=len(batches), traced_batches=len(traced), attempted=attempted,
                failed=failed, wrong=len(errors))

    if not latencies:
        for e in errors[:20]:
            print("WRONG " + e)
        print("error: no op completed", file=sys.stderr)
        return 1

    metrics = {}
    samples = {}

    def put(name, value, unit, n):
        metrics[name] = {"value": value, "unit": unit}
        samples[name] = n

    if not args.trace:
        p_tail, beyond = tail(latencies, work.tail_pct)
        info.update(op_tail_percentile=work.tail_pct, op_tail_beyond=beyond)
        info["raw_wall_s"] = statistics.median(x.raw_wall_s for x in plain)
        put("wall_s", statistics.fmean(x.wall_s for x in plain), "s", len(plain))
        put("op_p50_ms", statistics.median(latencies), "ms", len(latencies))
        put("op_tail_ms", p_tail, "ms", len(latencies))
        put("setup_s", statistics.median(setup.walls), "s", len(setup.walls))
        put("peak_rss_mb", rss_kb / 1024.0, "MB", 1)
        put("decided_share", sum(x.decided for x in plain) / sum(x.attempted for x in plain),
            "share", sum(x.attempted for x in plain))
        info["failed_share"] = failed / attempted
    else:
        first = traced[0].totals
        for name in COUNTERS:
            put(name, first.get(name, 0), "count", 1)
        means = {k: statistics.fmean(x.totals.get(k, 0.0) for x in traced)
                 for k in TIMES + ("trace.spans",)}
        for k in TIMES:
            put(k, means[k], "s", len(traced))
        put("trace.spans", means["trace.spans"], "count", len(traced))
        traced_wall = statistics.fmean(x.wall_s for x in traced)
        plain_wall = statistics.fmean(x.wall_s for x in plain)
        put("trace.wall_s", traced_wall, "s", len(traced))
        put("trace.untraced_wall_s", plain_wall, "s", len(plain))
        put("trace.overhead_s", traced_wall - plain_wall, "s", len(traced) + len(plain))
        put("trace.self_sum_s", sum(means[k] for k in TIMES if k.startswith("self_s.")),
            "s", len(traced))
        put("cli.startup_s", statistics.median(setup.imports), "s", len(setup.imports))
        for check_id in SUITE_CHECK_IDS:
            values = [x.check_ms[check_id] for x in plain if check_id in x.check_ms]
            put("suite.check_ms." + check_id, statistics.median(values) if values else 0.0,
                "ms", len(values))

    print("provenance " + json.dumps(info, sort_keys=True))
    for name, m in metrics.items():
        print("%-44s %14.6g %-6s n=%d" % (name, m["value"], m["unit"], samples[name]))
    for e in errors[:20]:
        print("WRONG " + e)
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
