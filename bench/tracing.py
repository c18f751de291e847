"""Spans and counters recorded around the program's public functions.

``Tracer.install`` replaces each function in ``TRACED`` at every name the
program looks it up by: module globals (including ``from .x import f``
copies and the package's re-exports) and class attributes for methods.
Each call records one span (name, start, end, parent span, op id) in
memory plus counters computed from the call's arguments and result.
``uninstall`` puts the originals back.

When an op ends its spans are folded into per-batch totals: a span's self
time is its duration minus the time its child spans cover, and self time
is summed by module, the part of the span name before the first dot.
Inclusive times are summed over outermost spans of a name only, so a
recursive call is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import time

MODULES = ("intlinalg", "word", "grammar", "fpres", "autf", "nq", "grcohom",
           "lie", "suite", "cli")


def _mat_cells(mat):
    return mat.nrows * mat.ncols


def _mat_nnz(mat):
    return sum(1 for row in mat.entries for x in row if x)


def _snf(args, kwargs, result, counters):
    counters["intlinalg.snf_cells"] += _mat_cells(args[0])
    counters["intlinalg.snf_nnz"] += _mat_nnz(args[0])


def _hnf(args, kwargs, result, counters):
    counters["intlinalg.hnf_cells"] += _mat_cells(args[0])


def _collect(args, kwargs, result, counters):
    counters["nq.collect_letters_in"] += len(args[1])


def _ideal(args, kwargs, result, counters):
    counters["lie.ideal_rows"] += result.nrows


def _consequence(args, kwargs, result, counters):
    counters["fpres." + result.status.lower()] += 1
    if result.certificate:
        counters["fpres.certificate_steps"] += len(result.certificate)


_AUTF = ("mccool_disjoint_commutators", "mccool_same_target_commutators",
         "mccool_triple_relations", "pv_relators_in_cb", "hnn_identities",
         "composition_order_report")

# (module, qualified name, call counter, argument/result counter, outermost
# only).  A generator's call counter counts the items it yields.
TRACED = (
    ("intlinalg", "smith_normal_form", "intlinalg.snf_calls", _snf, False),
    ("intlinalg", "hermite_normal_form", "intlinalg.hnf_calls", _hnf, False),
    ("intlinalg", "cokernel_invariants", None, None, False),
    ("intlinalg", "in_row_lattice", None, None, False),
    ("intlinalg", "kernel_basis", None, None, False),
    ("intlinalg", "rank", None, None, False),
    ("word", "Word.__post_init__", "word.words_built", None, False),
    ("word", "GenMap.__call__", "word.genmap_calls", None, False),
    ("grammar", "parse_word", None, None, False),
    ("grammar", "parse_presentation_text", None, None, False),
    ("fpres", "is_consequence", "fpres.queries", _consequence, True),
    ("nq", "nilpotent_quotient", "nq.builds", None, True),
    ("nq", "PcSystem.collect", "nq.collect_calls", _collect, False),
    ("nq", "PcSystem.consistency_discrepancies", "nq.overlaps", None, False),
    ("nq", "NilpotentQuotient.image", None, None, False),
    ("lie", "GradedLieQuotient.ideal_matrix", None, _ideal, False),
    ("lie", "GradedLieQuotient.invariants", "lie.invariants_calls", None, False),
    ("lie", "enveloping_invariants", None, None, False),
    ("grcohom", "ExteriorQuotient.invariants", "grcohom.invariants_calls", None, False),
) + tuple(("autf", name, None, None, False) for name in _AUTF)

# inclusive-time metric -> span names whose outermost time it sums
INCLUSIVE = {
    "intlinalg.snf_s": ("intlinalg.smith_normal_form",),
    "intlinalg.hnf_s": ("intlinalg.hermite_normal_form",),
    "nq.build_s": ("nq.nilpotent_quotient",),
    "nq.consistency_s": ("nq.PcSystem.consistency_discrepancies",),
    "nq.collect_s": ("nq.PcSystem.collect",),
    "word.genmap_s": ("word.GenMap.__call__",),
    "lie.ideal_matrix_s": ("lie.GradedLieQuotient.ideal_matrix",),
    "lie.invariants_s": ("lie.GradedLieQuotient.invariants",),
    "lie.enveloping_s": ("lie.enveloping_invariants",),
    "grcohom.invariants_s": ("grcohom.ExteriorQuotient.invariants",),
    "autf.identities_s": tuple("autf." + n for n in _AUTF),
    "grammar.parse_s": ("grammar.parse_word", "grammar.parse_presentation_text"),
}

COUNTERS = ("intlinalg.snf_calls", "intlinalg.snf_cells", "intlinalg.snf_nnz",
            "intlinalg.hnf_calls", "intlinalg.hnf_cells",
            "nq.builds", "nq.overlaps", "nq.collect_calls", "nq.collect_letters_in",
            "nq.budget_stops",
            "fpres.queries", "fpres.verified", "fpres.refuted", "fpres.unknown",
            "fpres.certificate_steps",
            "word.words_built", "word.genmap_calls",
            "lie.ideal_rows", "lie.invariants_calls", "grcohom.invariants_calls")

# "bench" is op time outside any traced call, the batch loop around ops
# and the tracer folding each op's spans; "startup" a fresh interpreter's
# start and import; "cli" the command line and the suite code under it
SELF_MODULES = ("bench", "startup", "cli") + tuple(
    m for m in MODULES if m not in ("cli", "suite"))

TIMES = tuple(INCLUSIVE) + ("fpres.consequence_self_s",) + tuple(
    "self_s." + m for m in SELF_MODULES)


class Tracer:
    """Spans and totals of one batch (or one child process)."""

    def __init__(self):
        self.installed = []
        self.spans = []      # [name, start, end, parent index, op id] of the open op
        self.stack = []
        self.op_id = None
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.self_s = dict.fromkeys(SELF_MODULES, 0.0)
        self.inclusive = {}
        self.self_by_name = {}
        self.span_count = 0
        self.root_s = 0.0

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.op_id])
        self.stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def op(self, op_id, fn, *args, name="bench.op"):
        """Run one op under a root span and fold its spans into the totals."""
        self.op_id = op_id
        self._open(name)
        try:
            return fn(*args)
        finally:
            self._close()
            root = self.spans[0]
            self.root_s += root[2] - root[1]
            self._fold()

    def _fold(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        for k, (name, start, end, parent, _) in enumerate(self.spans):
            own = end - start - child[k]
            module = name.split(".", 1)[0]
            self.self_s[module] = self.self_s.get(module, 0.0) + own
            self.self_by_name[name] = self.self_by_name.get(name, 0.0) + own
            outer = parent
            while outer is not None and self.spans[outer][0] != name:
                outer = self.spans[outer][3]
            if outer is None:
                self.inclusive[name] = self.inclusive.get(name, 0.0) + end - start
        self.span_count += len(self.spans)
        self.spans = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, calls, count, outermost):
        tracer = self

        def wrapper(*args, **kwargs):
            nested = outermost and any(tracer.spans[i][0] == name for i in tracer.stack)
            if calls and not nested:
                tracer.counters[calls] += 1
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                if name == "nq.PcSystem.collect" and type(err).__name__ == "CollectionBudget":
                    tracer.counters["nq.budget_stops"] += 1
                raise
            finally:
                tracer._close()
            if count and not nested:
                count(args, kwargs, result, tracer.counters)
            return result

        def generator(*args, **kwargs):
            # consumed by a plain for loop in the caller, so the span covers
            # the whole iteration
            tracer._open(name)
            try:
                for item in fn(*args, **kwargs):
                    tracer.counters[calls] += 1
                    yield item
            finally:
                tracer._close()

        out = generator if inspect.isgeneratorfunction(fn) else wrapper
        out.__wrapped__ = fn
        return out

    def install(self):
        mods = {m: importlib.import_module("pvb3." + m) for m in MODULES}
        mods["pvb3"] = importlib.import_module("pvb3")
        for module, qual, calls, count, outermost in TRACED:
            name = "%s.%s" % (module, qual)
            if "." in qual:
                cls_name, attr = qual.split(".")
                cls = getattr(mods[module], cls_name)
                original = cls.__dict__[attr]
                self.installed.append((cls, attr, original))
                setattr(cls, attr, self._wrap(original, name, calls, count, outermost))
                continue
            original = getattr(mods[module], qual)
            wrapped = self._wrap(original, name, calls, count, outermost)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.installed.append((mod, attr, original))
                        setattr(mod, attr, wrapped)

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed = []

    def totals(self):
        """Counters, self time by module and inclusive metric times."""
        out = dict(self.counters)
        for metric, names in INCLUSIVE.items():
            out[metric] = sum(self.inclusive.get(n, 0.0) for n in names)
        out["fpres.consequence_self_s"] = self.self_by_name.get("fpres.is_consequence", 0.0)
        for module, value in self.self_s.items():
            out["self_s." + module] = value
        out["trace.spans"] = self.span_count
        out["trace.root_s"] = self.root_s
        return out
