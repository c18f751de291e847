"""The ten-check verification battery behind the command-line report.

Each check recomputes one finished calculation from scratch and compares
it with values frozen here, so a run certifies the whole chain: exact
integer linear algebra, the presentations and their change of
generators, the nilpotent-quotient engine, the cohomology rings, and
the graded Lie comparison.

Statuses: PASS and FAIL mean the comparison ran to completion; UNKNOWN
means the check was skipped under the given options or stopped by a
resource bound; FLAGGED records an observation the suite reports
without judging, such as torsion in a degree where none is promised
either way.  A report fails overall exactly when some check is FAIL.
"""

from __future__ import annotations

import json
import time

from .autf import (
    Automorphism,
    hnn_identities,
    mccool_disjoint_commutators,
    mccool_same_target_commutators,
    mccool_triple_relations,
    pv_relators_in_cb,
)
from .fpres import (
    Presentation,
    mapping_torus_presentation,
    pv3_new_certificates,
    pv3_new_generators,
    pv3_new_presentation,
    pv_presentation,
    residual_nilpotence_criterion,
    torus_normal_form,
    verify_certificate,
)
from .grcohom import (
    beer_rank,
    dual_restriction,
    g3_cup,
    g3_cup_matrix,
    g3_ring,
    pv3_ring,
    pv3_ring_via_splitting,
    stability_rank,
)
from .intlinalg import IntMatrix, Value, kernel_basis, rank, row_lattices_equal
from .lie import enveloping_invariants, lie_quotient, pbw_coefficients, semidirect_check
from .nq import CollectionBudget, nilpotent_quotient, quotient_tower
from .word import Alphabet, GenMap

PASS = "PASS"
FAIL = "FAIL"
UNKNOWN = "UNKNOWN"
FLAGGED = "FLAGGED"

SCHEMA_VERSION = 2


class SuiteOptions(Value):
    """Knobs shared by the whole battery.

    ``class_`` is the nilpotency class used wherever the main group's
    lower central series is involved; the small fixed engine oracles
    keep their intrinsic depths.  ``max_degree`` caps the graded Lie
    comparison, and ``timings`` adds wall-clock figures to the output.
    """

    _fields = ("class_", "max_degree", "timings")

    def __init__(self, class_: int = 3, max_degree: int = 3, timings: bool = False) -> None:
        super().__init__(class_, max_degree, timings)

    def as_dict(self) -> dict:
        return {"class": self.class_, "max_degree": self.max_degree, "timings": self.timings}


class CheckResult(Value):
    _fields = ("check_id", "anchor", "status", "details", "wall_ms")

    def as_dict(self, timings: bool = False) -> dict:
        out = {"id": self.check_id, "anchor": self.anchor,
               "status": self.status, "details": self.details}
        if timings:
            out["wall_ms"] = round(self.wall_ms, 1)
        return out


class Report(Value):
    _fields = ("options", "checks")

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if c.status == FAIL)

    @property
    def exit_code(self) -> int:
        return 1 if self.failures else 0

    def as_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "options": self.options.as_dict(),
            "checks": [c.as_dict(self.options.timings) for c in self.checks],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2) + "\n"

    def render(self) -> str:
        lines = []
        for c in self.checks:
            stamp = "  [%.0f ms]" % c.wall_ms if self.options.timings else ""
            lines.append("%-7s %s  %s%s" % (c.status, c.check_id, c.details, stamp))
        counts = {}
        for c in self.checks:
            counts[c.status] = counts.get(c.status, 0) + 1
        tally = ", ".join("%d %s" % (counts[s], s)
                          for s in (PASS, FAIL, UNKNOWN, FLAGGED) if s in counts)
        lines.append("%d checks: %s" % (len(self.checks), tally))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The individual checks.  Each returns (status, details).


def _check_pv3_ring(options: SuiteOptions):
    ring = pv3_ring()
    invariants = [ring.invariants(d) for d in range(4)]
    ranks = tuple(r for r, _ in invariants)
    expected = tuple(beer_rank(3, r) for r in range(4))
    if ranks != expected:
        return FAIL, "graded ranks %s, closed form %s" % (ranks, expected)
    torsion = tuple(t for _, t in invariants)
    if any(torsion):
        return FAIL, "ranks match but torsion %s appeared" % (torsion,)
    return PASS, "graded ranks %s with no torsion, equal to the closed form" % (ranks,)


def _check_g3_ring(options: SuiteOptions):
    ring = g3_ring()
    invariants = [ring.invariants(d) for d in range(4)]
    ranks = tuple(r for r, _ in invariants)
    if ranks != (1, 5, 6, 0):
        return FAIL, "graded ranks %s, expected (1, 5, 6, 0)" % (ranks,)
    torsion = tuple(t for _, t in invariants)
    if any(torsion):
        return FAIL, "unexpected torsion %s" % (torsion,)
    rel = ring.ideal_matrix(2)
    if rank(rel) != 4:
        return FAIL, "relation span has rank %d, expected 4" % rank(rel)
    kernel = IntMatrix.from_rows(kernel_basis(g3_cup_matrix().transpose()))
    if not row_lattices_equal(rel, kernel):
        return FAIL, "pairing kernel differs from the span of the four relations"
    return PASS, ("graded ranks (1, 5, 6, 0); the degree-two pairing kernel "
                  "is exactly the span of the four relations")


_GOLDEN_DUALS = {
    "a1": ("x1", "y21", "z22", "y32"),
    "b1": ("x2", "y11", "z12", "y42"),
    "a2": ("x3", "y12", "y41", "y42", "z42"),
    "b2": ("x4", "y22", "y31", "y32", "z32"),
    "c1": ("z11", "z21", "z31", "z41"),
}

_GOLDEN_CUPS = {
    ("a1", "b1"): (1, 0, 0, 0, 0, 0),
    ("a2", "b2"): (0, 1, 0, 0, 0, 0),
    ("b1", "c1"): (0, 0, 1, 0, 0, 0),
    ("a1", "c1"): (0, 0, 0, 1, 0, 0),
    ("b2", "c1"): (0, 0, 0, 0, 1, 0),
    ("a2", "c1"): (0, 0, 0, 0, 0, 1),
    ("a1", "b2"): (0, 0, 0, -1, 1, 0),
    ("b1", "a2"): (0, 0, -1, 0, 0, 1),
    ("a1", "a2"): (0, 0, 0, 0, 0, 0),
    ("b1", "b2"): (0, 0, 0, 0, 0, 0),
    ("b2", "a1"): (0, 0, 0, 1, -1, 0),
    ("b2", "b1"): (0, 0, 0, 0, 0, 0),
}


def _check_wedge_golden(options: SuiteOptions):
    bad = []
    for name, support in _GOLDEN_DUALS.items():
        if dual_restriction(name) != {k: 1 for k in support}:
            bad.append("restriction of %s*" % name)
    for (u, v), value in _GOLDEN_CUPS.items():
        if g3_cup(u, v) != value:
            bad.append("%s* %s*" % (u, v))
    f, g = pv3_new_generators()
    m = f.abelianisation_matrix() * g.abelianisation_matrix()
    n = g.abelianisation_matrix() * f.abelianisation_matrix()
    if m != IntMatrix.identity(6) or n != IntMatrix.identity(6):
        bad.append("change-of-basis product")
    if bad:
        return FAIL, "golden values off: " + ", ".join(bad)
    return PASS, ("all %d restriction supports and %d cup values reproduced; "
                  "the change-of-basis matrices multiply to the identity"
                  % (len(_GOLDEN_DUALS), len(_GOLDEN_CUPS)))


def _check_relation_routes(options: SuiteOptions):
    direct = pv3_ring().ideal_matrix(2)
    transported = pv3_ring_via_splitting().ideal_matrix(2)
    if not row_lattices_equal(direct, transported):
        return FAIL, "the two relation lists span different lattices"
    r = rank(direct)
    if r != 9:
        return FAIL, "common relation span has rank %d, expected 9" % r
    s = stability_rank()
    if s != 5:
        return FAIL, "free-factor relations have rank %d, expected 5" % s
    return PASS, ("both derivations span the same rank-9 lattice; the six "
                  "free-factor relations are dependent, of rank 5")


def _check_automorphisms(options: SuiteOptions):
    batches = (
        ("pairwise-disjoint commutators", mccool_disjoint_commutators(4)),
        ("shared-target commutators", mccool_same_target_commutators(3)),
        ("triple relations", mccool_triple_relations(3)),
        ("braid relators in the conjugating image", pv_relators_in_cb(3)),
        ("stable-letter identities", hnn_identities()),
    )
    bad = []
    total = 0
    for label, verdicts in batches:
        total += len(verdicts)
        bad += ["%s: %s" % (label, name) for name, ok in verdicts if not ok]
    if bad:
        return FAIL, "failed identities: " + "; ".join(bad)
    return PASS, "%d endomorphism identities hold across %d families" % (
        total, len(batches))


def _check_free_product(options: SuiteOptions):
    f, g = pv3_new_generators()
    old, new = pv_presentation(3), pv3_new_presentation()
    for (there, back, pres, target), certificates in zip(
            ((f, g, old, new), (g, f, new, old)), pv3_new_certificates()):
        for x in there.source.gens():
            if back(there(x)) != x:
                return FAIL, "round trip failed on %s" % x
        for r, certificate in zip(pres.relators, certificates):
            if not verify_certificate(target, there(r), certificate):
                return FAIL, "the stored certificate of relator %s does not verify" % r
    return PASS, ("generator maps are mutually inverse and all %d relator images carry "
                  "consequence certificates" % (len(old.relators) + len(new.relators)))


def _worked_automorphism() -> Automorphism:
    """a |-> a^2 b, b |-> a b, the monodromy of checks 07 and 09."""
    ab = Alphabet(("a", "b"))
    a, b = ab.gens()
    return Automorphism(GenMap.from_dict(ab, ab, {"a": a ** 2 * b, "b": a * b}),
                        GenMap.from_dict(ab, ab, {"a": a * b.inv(), "b": b * a.inv() * b}))


def _check_nq_engine(options: SuiteOptions):
    if options.class_ < 2:
        return UNKNOWN, "skipped: the engine oracles need quotients of class 2 and up"
    ab = Alphabet(("a", "b"))
    a, b = ab.gens()
    at = Alphabet(("a", "t"))
    aa, tt = at.gens()
    for label, pres, want in (
            ("free group of rank 2", Presentation(ab, ()), ((2, ()), (1, ()), (2, ()), (3, ()))),
            ("Heisenberg group", Presentation(ab, (a.comm(b).comm(a), a.comm(b).comm(b))),
             ((2, ()), (1, ()), (0, ()))),
            ("twisted circle bundle", Presentation(at, (tt * aa * tt.inv() * aa,)),
             ((1, (2,)), (0, (2,)), (0, (2,)), (0, (2,))))):
        if (layers := nilpotent_quotient(pres, len(want)).layers) != want:
            return FAIL, "%s: layers %s" % (label, layers)

    phi = _worked_automorphism()
    pres = mapping_torus_presentation(phi)
    wa, wb, wt = pres.alphabet.gens()
    if torus_normal_form(phi, wt * wb * wt.inv()) != (a * b, 0):
        return FAIL, "stable-letter conjugation: t b t^-1 is not a b"
    if torus_normal_form(phi, wt.inv().comm(wb.inv())) != (a, 0):
        return FAIL, "commutator identity [t^-1, b^-1] = a fails"
    if torus_normal_form(phi, wb.inv().comm(wt.inv()) * wa.comm(wt.inv())) != (b, 0):
        return FAIL, "commutator identity for b fails"
    q2 = nilpotent_quotient(pres, 2)
    if not q2.image_is_trivial(wa):
        return FAIL, "fiber generator a survives in the class-2 quotient"
    return PASS, ("free/Heisenberg/twisted-bundle layers, the worked "
                  "commutator identities, and the vanishing of the fiber "
                  "all as expected")


def _check_lie(options: SuiteOptions):
    if options.class_ < 2:
        return UNKNOWN, "skipped: the graded comparison needs class 2 and up"
    if options.max_degree < 1:
        return UNKNOWN, "skipped: the graded comparison needs max degree 1 and up"
    top = min(options.class_, options.max_degree)
    quotient = lie_quotient(pv3_new_presentation())
    lie_invariants = [quotient.invariants(d) for d in range(1, top + 1)]
    lie_dims = tuple(r for r, _ in lie_invariants)
    group_layers = nilpotent_quotient(pv_presentation(3), top).layers
    group_dims = tuple(r for r, _ in group_layers)
    if group_dims != lie_dims:
        return FAIL, "group ranks %s differ from Lie dimensions %s" % (
            group_dims, lie_dims)
    if lie_dims[:2] != (6, 9)[:top]:
        return FAIL, "low degrees %s, expected (6, 9)" % (lie_dims[:2],)
    env_top = min(top, 3)
    env = enveloping_invariants(quotient, env_top)
    env_dims = (1,) + tuple(r for r, _ in env)
    if env_dims != pbw_coefficients(lie_dims[:env_top], env_top):
        return FAIL, "enveloping dimensions %s break the series identity" % (
            env_dims,)
    if not semidirect_check():
        return FAIL, "g3's quadratic relations do not present the semidirect product"
    torsion = tuple(t for _, t in group_layers) + tuple(t for _, t in lie_invariants)
    if any(torsion):
        return FLAGGED, ("dimensions agree %s but torsion %s appeared in "
                         "degrees where none is promised" % (lie_dims, torsion))
    return PASS, ("degrees 1..%d: group ranks %s equal the quadratic Lie "
                  "dimensions; enveloping series consistent; g3's Lie ring "
                  "is the semidirect product in every degree" % (top, lie_dims))


def _check_criterion(options: SuiteOptions):
    phi = _worked_automorphism().forward
    ab = phi.source
    a, b = ab.gens()
    verdict = residual_nilpotence_criterion(phi)
    if verdict != ("CRITERION_APPLIES", -1):
        return FAIL, "worked example gave %s, expected (CRITERION_APPLIES, -1)" % (
            verdict,)
    f1 = Alphabet(("a",))
    x, = f1.gens()
    inv = residual_nilpotence_criterion(GenMap.from_dict(f1, f1, {"a": x.inv()}))
    if inv[0] != "INCONCLUSIVE":
        return FAIL, "inversion on one letter gave %s" % (inv,)
    ident = residual_nilpotence_criterion(GenMap.identity(f1))
    if ident[0] != "INCONCLUSIVE":
        return FAIL, "identity map gave %s" % (ident,)
    swap = GenMap.from_dict(ab, ab, {"a": b, "b": a})
    conjugated = swap.then(phi).then(swap)
    if residual_nilpotence_criterion(conjugated) != verdict:
        return FAIL, "verdict changed under a generator permutation"
    return PASS, ("unit determinant -1 detected on the worked example, "
                  "inconclusive cases stay inconclusive, and the verdict "
                  "is permutation invariant")


def _check_separation(options: SuiteOptions):
    if options.class_ < 2:
        return UNKNOWN, "skipped: separation needs nilpotency class at least 2"
    pres = pv_presentation(3)
    gen = {name: pres.alphabet.gen(name) for name in pres.alphabet.names}
    pairs = (
        ("l12 l21 vs l21 l12", gen["l12"] * gen["l21"], gen["l21"] * gen["l12"]),
        ("l13 l31 vs l31 l13", gen["l13"] * gen["l31"], gen["l31"] * gen["l13"]),
        ("l23 l32 vs l32 l23", gen["l23"] * gen["l32"], gen["l32"] * gen["l23"]),
    )
    control = (gen["l12"] * gen["l13"] * gen["l23"],
               gen["l23"] * gen["l13"] * gen["l12"])
    separated = {}
    for q in quotient_tower(pres, options.class_):
        if q.image(control[0]) != q.image(control[1]):
            return FAIL, ("words equal by the defining relation differ "
                          "at class %d" % q.class_)
        for label, u, v in pairs:
            if label not in separated and q.image(u) != q.image(v):
                separated[label] = q.class_
        if len(separated) == len(pairs):
            break
    missing = [label for label, _, _ in pairs if label not in separated]
    if missing:
        return FAIL, "not separated by class %d: %s" % (
            options.class_, ", ".join(missing))
    where = "; ".join("%s at class %d" % (label, separated[label])
                      for label, _, _ in pairs)
    return PASS, ("distinguished %s; the pair equal by a defining relation "
                  "stays equal" % where)


CHECKS = (
    ("01-pv3-ring-ranks",
     "graded cohomology ranks of the full three-strand group match the "
     "closed-form count, with no torsion",
     _check_pv3_ring),
    ("02-g3-ring-ranks",
     "cohomology of the five-generator factor: ranks (1, 5, 6, 0) and the "
     "degree-two pairing kernel spanned by the four stated relations",
     _check_g3_ring),
    ("03-wedge-golden-values",
     "restriction and cup-product tables of the torus-and-surface wedge "
     "model, and invertibility of the change of dual bases",
     _check_wedge_golden),
    ("04-relation-span-routes",
     "the directly stated ring relations and the ones transported across "
     "the splitting span the same lattice; free-factor relations have one "
     "dependency",
     _check_relation_routes),
    ("05-automorphism-identities",
     "basis-conjugating relations, braid relators dying in the conjugating "
     "image, and the stable-letter conjugation identities",
     _check_automorphisms),
    ("06-free-product-splitting",
     "the change of generators is a mutually inverse pair and every relator "
     "on either side is a certified consequence on the other",
     _check_free_product),
    ("07-nilpotent-engine-oracles",
     "lower-central layers of benchmark groups against closed-form and "
     "hand-worked values, including a torsion mapping torus",
     _check_nq_engine),
    ("08-graded-lie-comparison",
     "lower-central ranks of the three-strand group against the quadratic "
     "Lie presentation, with the enveloping-series and semidirect-form "
     "cross-checks",
     _check_lie),
    ("09-mapping-torus-criterion",
     "determinant test for lower-central stabilisation of a free-by-cyclic "
     "group, with permutation invariance",
     _check_criterion),
    ("10-quotient-separation",
     "distinct short braid words receive distinct nilpotent normal forms "
     "while words equal by a defining relation stay equal",
     _check_separation),
)


def run_suite(options: SuiteOptions = SuiteOptions()) -> Report:
    results = []
    for check_id, anchor, fn in CHECKS:
        start = time.perf_counter()
        try:
            status, details = fn(options)
        except CollectionBudget as stop:
            status, details = UNKNOWN, "stopped: %s" % stop
        except Exception as err:  # a crash is a failed check, not a crash of the run
            status, details = FAIL, "error: %s" % err
        wall_ms = (time.perf_counter() - start) * 1000.0
        results.append(CheckResult(check_id, anchor, status, details, wall_ms))
    return Report(options, tuple(results))
