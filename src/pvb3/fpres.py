"""Finite presentations, consequence certificates, and the groups under study.

The distinguished presentations:

``pv_presentation(n)``
    Pure virtual braids on n strands, generators lij for i != j, with the
    commutator relators [lij, lkl] for disjoint index pairs and the
    six-letter relators lki lkj lij lki^-1 lkj^-1 lij^-1.

``g3_presentation()``
    The group generated by a1, b1, a2, b2, c1 in which the two pairs
    (a1, b1), (a2, b2) commute internally and c1 conjugates each of
    b1, a1, b2, a2 the same way a specific word in the other pair does;
    ``g3_pairs`` lists both kinds of pair.

``pv3_new_presentation()``
    The same relators with one extra free generator c2; this is the free
    product of the previous group with the integers.

``pv3_new_generators()``
    The mutually inverse substitution maps relating the lij alphabet to the
    a/b/c alphabet.  Both composites are identities on the nose in the free
    groups; that the relators match up is a consequence check.

``semidirect_presentation()``
    g3 over its own alphabet as the semidirect product of F(a1, a2, c1) by
    F(b1, b2), which act by the automorphisms of ``g3_actions``.

Consequence checking is certificate-based: a word is exhibited as a product
of conjugated relators, and certificates found by search are re-verified by
free reduction before being returned.
"""

from __future__ import annotations

from collections import defaultdict
from functools import cached_property
from heapq import heappop, heappush
from itertools import permutations

from . import nq
from .grammar import parse_presentation_text, parse_word
from .intlinalg import IntMatrix, Value, _in_hermite_span, determinant, hermite_normal_form
from .word import Alphabet, GenMap, Word, free_reduce, inverse


class Presentation(Value):
    _fields = ("alphabet", "relators")

    def __init__(self, alphabet: Alphabet, relators) -> None:
        relators = tuple(relators)
        for r in relators:
            if r.alphabet != alphabet:
                raise ValueError("relator %s is not over the presentation alphabet" % r)
        super().__init__(alphabet, relators)

    @staticmethod
    def from_text(text: str) -> "Presentation":
        alphabet, relators = parse_presentation_text(text)
        return Presentation(alphabet, relators)

    @property
    def num_gens(self) -> int:
        return len(self.alphabet)

    def relator_matrix(self):
        """Exponent vectors of the relators, one row each."""
        return IntMatrix.from_rows([r.exponent_vector() for r in self.relators], self.num_gens)

    def initial_forms(self) -> tuple[dict, ...]:
        """Initial forms of the relators: their degree-two Magnus terms
        under x -> 1 + X, as ``{(i, j): coefficient of X_i X_j}`` dicts.
        A relator with a nonzero exponent sum has none: ValueError."""
        forms = []
        for r in self.relators:
            form, exponents = defaultdict(int), defaultdict(int)
            for g, s in r.letters:
                # each earlier letter pairs with this one; x^-1 = 1 - X + X^2 - ...
                for i, e in exponents.items():
                    form[i, g] += s * e
                if s < 0:
                    form[g, g] += 1
                exponents[g] += s
            if any(exponents.values()):
                raise ValueError("relator %s has a nonzero exponent sum" % r)
            forms.append({k: c for k, c in form.items() if c})
        return tuple(forms)

    @cached_property
    def _abelian(self) -> tuple[list, list]:
        """Hermite form of the relator exponent rows, for the abelianisation."""
        return hermite_normal_form(self.relator_matrix())

    @cached_property
    def _inserts(self) -> tuple[list, dict, dict]:
        """The codes of the search's (index, sign) moves, each code's first
        move, and the _seams met."""
        moves = [(idx, s) for idx, r in enumerate(self.relators) for s in (1, -1) if r]
        rels = [_encode((self.relators[i] ** s).letters) for i, s in moves]
        return rels, dict(zip(reversed(rels), reversed(moves))), {}

    @cached_property
    def _tower(self) -> list:
        """The nilpotent quotients of class 1, 2, ... built so far: nq.quotient_tower."""
        return []

    def __str__(self) -> str:
        lines = ["gens: " + " ".join(self.alphabet.names)]
        lines += ["rel: " + str(r) for r in self.relators]
        return "\n".join(lines)


def pv_alphabet(n: int) -> Alphabet:
    names = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            names.append("l%d%d" % (i, j))
            names.append("l%d%d" % (j, i))
    return Alphabet(tuple(names))


def pv_presentation(n: int) -> Presentation:
    """Pure virtual braid group on n strands."""
    if n < 2:
        raise ValueError("need at least two strands")
    alphabet = pv_alphabet(n)
    l = {(i, j): alphabet.gen("l%d%d" % (i, j))
         for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    relators = []
    seen = set()
    for i, j, k, m in permutations(range(1, n + 1), 4):
        key = frozenset(((i, j), (k, m)))
        if key in seen:
            continue
        seen.add(key)
        relators.append(l[i, j].comm(l[k, m]))
    for k, i, j in permutations(range(1, n + 1), 3):
        relators.append(l[k, i] * l[k, j] * l[i, j]
                        * l[k, i].inv() * l[k, j].inv() * l[i, j].inv())
    return Presentation(alphabet, tuple(relators))


G3_NAMES = ("a1", "b1", "a2", "b2", "c1")


def g3_pairs(alphabet: Alphabet) -> tuple[tuple, tuple]:
    """g3's commuting pairs (y, z), with relators [y, z], and conjugation pairs
    (y, w), with relators c1^-1 y c1 w^-1 y^-1 w, over an alphabet with its names."""
    a1, b1, a2, b2 = (alphabet.gen(n) for n in G3_NAMES[:4])
    return ((a1, b1), (a2, b2)), ((b1, a2), (a1, b2), (b2, a1 * b2), (a2, b1 * a2))


def g3_actions(alphabet: Alphabet) -> tuple[tuple, tuple]:
    """The automorphisms phi_1 and phi_2 of F(a1, a2, c1) by which b1 and b2
    act in g3, as pairs (b, ((x, phi(x)) for x = a1, a2, c1)) over an
    alphabet with g3's names."""
    a1, b1, a2, b2, c1 = (alphabet.gen(n) for n in G3_NAMES)
    return ((b1, ((a1, a1), (a2, a2 * c1.inv() * a2 * c1 * a2.inv()), (c1, a2 * c1 * a2.inv()))),
            (b2, ((a1, c1.inv() * a1 * c1), (a2, a2), (c1, c1.inv() * a1 * c1 * a1.inv() * c1))))


def _conjugation_relators(alphabet: Alphabet) -> tuple[Word, ...]:
    (commuting, conjugating), c1 = g3_pairs(alphabet), alphabet.gen("c1")
    return tuple(y.comm(z) for y, z in commuting) + tuple(
        c1.inv() * y * c1 * w.inv() * y.inv() * w for y, w in conjugating)


def g3_presentation() -> Presentation:
    alphabet = Alphabet(G3_NAMES)
    return Presentation(alphabet, _conjugation_relators(alphabet))


def semidirect_presentation() -> Presentation:
    """g3 as the semidirect product of F(a1, a2, c1) by F(b1, b2): the
    relators b^-1 x b phi(x)^-1 of ``g3_actions``, in its order."""
    alphabet = Alphabet(G3_NAMES)
    return Presentation(alphabet, tuple(x.conj(b) * y.inv() for b, images in g3_actions(alphabet)
                                        for x, y in images))


def pv3_new_presentation() -> Presentation:
    """Free product of the five-generator group with one more free generator."""
    alphabet = Alphabet(G3_NAMES + ("c2",))
    return Presentation(alphabet, _conjugation_relators(alphabet))


def pv3_new_generators() -> tuple[GenMap, GenMap]:
    """Substitutions (old to new, new to old), mutually inverse as free maps."""
    old = pv_alphabet(3)
    new = Alphabet(G3_NAMES + ("c2",))
    a1, b1, a2, b2, c1, c2 = new.gens()
    l = {name: old.gen(name) for name in old.names}
    f = GenMap.from_dict(old, new, {
        "l12": c2.inv() * b1,
        "l21": b2 * c1.inv() * c2,
        "l13": c2,
        "l31": c2.inv() * c1,
        "l23": c2.inv() * a1,
        "l32": a2 * c1.inv() * c2,
    })
    g = GenMap.from_dict(new, old, {
        "a1": l["l13"] * l["l23"],
        "b1": l["l13"] * l["l12"],
        "a2": l["l32"] * l["l31"],
        "b2": l["l21"] * l["l31"],
        "c1": l["l13"] * l["l31"],
        "c2": l["l13"],
    })
    return f, g


_PV3_NEW_STEPS = (
    ((("c2^-1 b1 a1", 0, -1),), (("b1 a2 c1^-1 b1^-1 c1", 2, -1),), (("b2", 3, 1),),
     (("c2^-1 a1 b2 a1^-1 c1 b2^-1", 3, 1), ("c2^-1 a1 b2 a1^-1 c1 b2^-2 a1 b2", 4, 1),
      ("c2^-1 a1 b2 a1^-1 c1", 3, -1)),
     (("c2^-1 c1", 2, -1), ("c2^-1 b1 c1", 5, -1), ("c2^-1 b1 a2 c1 a2^-1 b1^-1 a2", 2, 1)),
     (("a2 b2", 1, 1),)),
    ((("l23^-1 l13^-1 l12^-1", 0, -1),), (("l31^-1 l32^-1 l31^-1 l21^-1", 5, 1),),
     (("l31^-1 l12 l13 l32^-1 l12^-1 l13^-1", 1, -1),),
     (("l31^-1 l23 l13 l21^-1 l23^-1 l13^-1", 2, 1),),
     (("l31^-1 l13^-1 l21 l31 l13 l21^-1 l23^-1 l13^-1", 2, 1),
      ("l31^-1 l13^-1 l21 l31 l23^-1 l21^-1 l31^-1", 3, 1),
      ("l31^-1 l13^-1 l23^-1 l21^-1", 2, -1)),
     (("l31^-1 l13^-1 l32 l31 l13 l32^-1 l12^-1 l13^-1", 1, -1),
      ("l31^-1 l13^-1 l32 l31 l12^-1 l32^-1 l31^-1", 4, -1),
      ("l31^-1 l13^-1 l12^-1 l32^-1", 1, 1))),
)


def pv3_new_certificates() -> tuple[tuple, tuple]:
    """For each map of ``pv3_new_generators``, old to new then new to old, a
    consequence certificate of each source relator's image, in relator order:
    the steps (conjugator, relator index, sign) that check_homomorphism_presented
    finds at the default bounds, with the conjugators parsed over the target."""
    return tuple(tuple(tuple(CertificateStep(parse_word(u, m.target), i, s) for u, i, s in steps)
                       for steps in certificates)
                 for m, certificates in zip(pv3_new_generators(), _PV3_NEW_STEPS))


STABLE_LETTER = "t"


def mapping_torus_presentation(phi) -> Presentation:
    """Presentation of the mapping torus of an automorphism phi of a free
    group, with t w t^-1 = phi(w) for fiber words w."""
    fiber = phi.alphabet
    if STABLE_LETTER in fiber:
        raise ValueError("stable letter %r clashes with a fiber generator" % STABLE_LETTER)
    full = Alphabet(fiber.names + (STABLE_LETTER,))
    t = full.gen(STABLE_LETTER)
    inc = GenMap(fiber, full, full.gens()[:-1])
    relators = tuple(t * inc(x) * t.inv() * inc(phi(x)).inv() for x in fiber.gens())
    return Presentation(full, relators)


def torus_normal_form(phi, w: Word) -> tuple[Word, int]:
    """The pair (v, k) with w = v t^k in the mapping torus of the
    automorphism phi, for a word w over the fiber letters and t.

    w is read left to right: t^s adds s to k, and a fiber letter x appends
    phi^k(x) to v, since t^k x = phi^k(x) t^k.
    """
    fiber, full = phi.alphabet, w.alphabet
    stable = full.index(STABLE_LETTER)
    back = phi.backward
    v, k = fiber.identity(), 0
    for g, s in w.letters:
        if g == stable:
            k += s
            continue
        x = fiber.gen(full.names[g]) ** s
        for _ in range(abs(k)):
            x = phi(x) if k > 0 else back(x)
        v = v * x
    return v, k


def residual_nilpotence_criterion(phi: GenMap) -> tuple[str, int]:
    """Determinant test on the abelianised monodromy.

    Returns (verdict, det(A - E)) where A abelianises phi.  When the
    determinant is a unit the mapping torus has no homology obstruction to
    approximating the fiber by nilpotent quotients and the verdict is
    CRITERION_APPLIES; otherwise the test is INCONCLUSIVE.
    """
    if phi.source != phi.target:
        raise ValueError("need an endomorphism")
    a = phi.abelianisation_matrix()
    diff = IntMatrix.from_rows([[x - int(i == j) for j, x in enumerate(row)]
                                for i, row in enumerate(a.entries)])
    d = determinant(diff)
    return ("CRITERION_APPLIES" if abs(d) == 1 else "INCONCLUSIVE", d)


# -- consequence certificates ------------------------------------------------

VERIFIED = "VERIFIED"
REFUTED = "REFUTED"
UNKNOWN = "UNKNOWN"


class SearchBounds(Value):
    _fields = ("max_steps", "max_prefix", "max_states", "refute_class")

    def __init__(self, max_steps: int = 12, max_prefix: int = 8, max_states: int = 200_000,
                 refute_class: int = 4) -> None:
        super().__init__(max_steps, max_prefix, max_states, refute_class)


class CertificateStep(Value):
    """One factor u r^sign u^-1 of a consequence certificate: (conjugator
    u, relator_index, sign)."""

    _fields = ("conjugator", "relator_index", "sign")


class ConsequenceResult(Value):
    _fields = ("status", "certificate", "detail")

    def __init__(self, status: str, certificate: tuple[CertificateStep, ...] | None = None,
                 detail: str = "") -> None:
        super().__init__(status, certificate, detail)


def verify_certificate(pres: Presentation, w: Word, certificate) -> bool:
    """Check that the certificate product freely reduces to w: the letters
    of its factors u r^sign u^-1 are joined and freely reduced once.

    Against the identity this checks an identity among relations: a
    certificate whose product is trivial.
    """
    letters = []
    for step in certificate:
        r, u = pres.relators[step.relator_index], step.conjugator
        r._require_same_alphabet(u)
        power = (r.letters if step.sign > 0 else inverse(r.letters)) * abs(step.sign)
        letters += [*u.letters, *power, *inverse(u.letters)]
    return w.alphabet == pres.alphabet and free_reduce(letters) == w.letters


def _encode(letters) -> str:
    """Letter (g, s) as the code point 2g + (s > 0), one per letter: str order
    is the (g, s) order, the inverse is the code point ^ 1, and the alphabet
    may have any size."""
    return "".join([chr(2 * g + (s > 0)) for g, s in letters])


def _decode(codes: str) -> tuple[tuple[int, int], ...]:
    return tuple((e >> 1, 1 if e & 1 else -1) for e in map(ord, codes))


def _join(u: str, v: str) -> str:
    """Free reduction of u + v for freely reduced u, v: cancel at the seam only."""
    i, n = 0, min(len(u), len(v))
    while i < n and ord(u[-1 - i]) == ord(v[i]) ^ 1:
        i += 1
    return u[:len(u) - i] + v[i:]


def _seams(rels: list[str], u: str, v: str) -> tuple[list, list]:
    """The rels that cancel against neither letter u nor v when inserted between
    them ("" at an end), and the others as (a, rel[a:len(rel) - b], b, x, y,
    rel): a and b letters cancel, unless none are left or x precedes u or y
    follows v."""
    h, t = (chr(ord(c) ^ 1) if c else "" for c in (u, v))
    cuts = [(int(r[0] == h), int(r[-1] == t), r) for r in rels]
    return [r for a, b, r in cuts if not a + b], [
        (a, r[a:len(r) - b], b, chr(ord(r[1]) ^ 1) if a and len(r) > 1 else None,
         chr(ord(r[-2]) ^ 1) if b and len(r) > 1 else None, r) for a, b, r in cuts if a + b]


def _children(letters: str, max_prefix: int, rels: list[str], seams: dict,
              shorter: bool = False):
    """For each p up to max_prefix, the reduced letters[:p] + rel +
    letters[p:] for all rels, in no fixed order; with shorter, only those
    shorter than letters, so no rel that cancels at neither seam.  seams
    caches _seams."""
    n = len(letters)
    for p in range(min(n, max_prefix) + 1):
        head, tail = letters[:p], letters[p:]
        key = (head[-1:], tail[:1])
        plain, seam = seams.get(key) or seams.setdefault(key, _seams(rels, *key))
        yield ([] if shorter else [f"{head}{rel}{tail}" for rel in plain]) + [
            kid for a, mid, b, x, y, rel in seam
            if len(kid := f"{head[:p - a]}{mid}{tail[b:]}" if mid and x != head[-2:-1]
                   and y != tail[1:2] else _join(_join(head, rel), tail)) < n or not shorter]


def is_consequence(pres: Presentation, w: Word,
                   bounds: SearchBounds = SearchBounds()) -> ConsequenceResult:
    """Decide whether w lies in the normal closure of the relators:
    VERIFIED with a certificate, REFUTED, or UNKNOWN when the bounds run out.

    The abelianisation check comes first.  Then a descent, best-first in
    (length, str) order over the children shorter than their parent,
    within ``max_steps`` and a tenth of ``max_states`` states, verifies the
    products whose relator blocks cancel one by one (Dehn's algorithm), and
    says so in the detail.  Else one walk of the nilpotent quotients of
    class 2 to ``refute_class``, kept with the presentation, looks for a
    quotient in which the word survives: that refutes it.  A collection
    budget stop ends the walk and is named in the detail of an UNKNOWN.
    Only a word the walk does not refute goes to the level search, which
    inserts conjugated relators level by level, each level in (length, str)
    order, up to ``max_states`` states.  A certificate is returned only
    after it has been re-verified by free reduction.
    """
    if w.alphabet != pres.alphabet:
        raise ValueError("word is not over the presentation alphabet")
    if w.is_identity:
        return ConsequenceResult(VERIFIED, ())

    # cheap refutation first: the image in the abelianisation must vanish
    if not _in_hermite_span(*pres._abelian, list(w.exponent_vector())):
        return ConsequenceResult(REFUTED, None, "nonzero in the abelianisation")

    # a word and its cyclic core lie in the normal closure together, and
    # the search does much better on the core; w == outer^-1 core outer
    core, outer = w.cyclic_reduction()
    rels, first, seams = pres._inserts
    start = _encode(core.letters)

    def descend(limit):
        """The parent links of a descent that reaches the empty word within
        limit states, else None; the heap holds (length, state, steps)."""
        links, heap = {start: None}, [(len(start), start, 0)]
        while heap and len(links) < limit:
            _, parent, steps = heappop(heap)
            if steps < bounds.max_steps:
                rows = _children(parent, bounds.max_prefix, rels, seams, shorter=True)
                kids = {kid for row in rows for kid in row}.difference(links)
                links.update(dict.fromkeys(kids, parent))
                if "" in kids:
                    return links
                for kid in kids:
                    heappush(heap, (len(kid), kid, steps + 1))
        return None

    def frontier():
        """(state, the level of its children) in the order (level, len, str)
        for max_steps levels, each length sorted only when reached."""
        level = [start]
        for _ in range(bounds.max_steps):
            after, buckets = [], defaultdict(list)
            for key in level:
                buckets[len(key)].append(key)
            for n in sorted(buckets):
                for letters in sorted(buckets.pop(n)):
                    yield letters, after
            level = after

    links, stop = descend(bounds.max_states // 10), ""
    if not links:
        try:
            # class 1 is only built, as the base of class 2: the
            # abelianisation check above already decided it
            for q in nq.quotient_tower(pres, bounds.refute_class):
                if q.class_ > 1 and not q.image_is_trivial(w):
                    return ConsequenceResult(
                        REFUTED, None, "nonzero in the class-%d quotient" % q.class_)
        except nq.CollectionBudget as err:
            stop = "; the walk stopped: %s" % err
    # each state (see _encode) -> the state it was first reached from; the
    # level search runs only when neither the descent nor the walk decided
    came_from, states = links or {start: None}, frontier()
    while "" not in came_from and len(came_from) < bounds.max_states and (
            state := next(states, None)) is not None:
        (parent, level), kids = state, set()
        for row in _children(parent, bounds.max_prefix, rels, seams):
            kids.update(row)
            if "" in kids:
                break
        new = kids.difference(came_from)  # looks up each kid, not each key
        came_from.update(dict.fromkeys(new, parent))
        level += new

    if "" not in came_from:
        return ConsequenceResult(
            UNKNOWN, None, "bounds exhausted without certificate or refutation" + stop)
    # each step is the first move, in (p, relator, sign) order, to the child; at p
    # it can only insert parent[:p]^-1 key parent[p:]^-1, reduced (back is parent^-1)
    certificate, key, shift = (), "", inverse(outer.letters)
    while (parent := came_from[key]) is not None:
        n, back = len(parent), "".join([chr(ord(c) ^ 1) for c in reversed(parent)])
        p, (idx, s) = next((p, first[r]) for p in range(min(n, bounds.max_prefix) + 1)
                           if (r := _join(_join(back[n - p:], key), back[:n - p])) in first)
        step = CertificateStep(Word(pres.alphabet, shift + _decode(parent[:p])), idx, -s)
        certificate, key = (step, *certificate), parent
    if not verify_certificate(pres, w, certificate):
        raise AssertionError("search produced an invalid certificate")
    return ConsequenceResult(VERIFIED, certificate,
                             "certificate found by descent" if links else "")


def check_homomorphism_presented(
        pres: Presentation, images: GenMap, target: Presentation,
        bounds: SearchBounds = SearchBounds()) -> list[tuple[str, ConsequenceResult]]:
    """Relator-by-relator check that a substitution kills the relators in a
    target presentation (so the map induces a homomorphism of the presented
    groups): each relator image gets a consequence search."""
    if images.source != pres.alphabet:
        raise ValueError("substitution source does not match the presentation")
    if images.target != target.alphabet:
        raise ValueError("substitution target does not match the target presentation")
    return [(str(r), is_consequence(target, images(r), bounds)) for r in pres.relators]
