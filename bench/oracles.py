"""Independent answers the benchmark checks the program against.

Nothing here imports ``pvb3``.  Words are tuples of (generator index,
sign) letters over an alphabet given as a tuple of names, in the same
order as the ``gens:`` line of the presentation text the program is
handed, so letter indices agree on both sides.

* ``presentation``: the benchmark's own definition of pv_n, the
  five-generator factor g3 and its free product with Z (pv3-new), as
  letter tuples and as ``gens:``/``rel:`` text.
* ``pv_lcs_ranks`` / ``g3_lcs_ranks``: lower-central ranks from closed
  forms, the Koszul-dual series of the cohomology ranks for pv_n and a
  sum of two Witt numbers for g3.
* ``MagnusOracle``: proves a word nontrivial in the presented group from
  the lowest-degree term of its Magnus expansion.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import comb, factorial

# -- free groups -----------------------------------------------------------


def reduce(letters):
    out = []
    for g, s in letters:
        if out and out[-1] == (g, -s):
            out.pop()
        else:
            out.append((g, s))
    return tuple(out)


def inverse(letters):
    return tuple((g, -s) for g, s in reversed(letters))


def commutator(u, v):
    """[u, v] = u^-1 v^-1 u v, the program's convention."""
    return reduce(inverse(u) + inverse(v) + u + v)


def conjugate(r, u):
    """u r u^-1, the shape of one certificate factor."""
    return reduce(u + r + inverse(u))


def exponent_sums(letters, ngens):
    v = [0] * ngens
    for g, s in letters:
        v[g] += s
    return tuple(v)


def render(letters, names):
    if not letters:
        return "1"
    return " ".join(names[g] if s == 1 else "%s^-1" % names[g] for g, s in letters)


# -- presentations ---------------------------------------------------------


def _pv(n):
    names = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            names += ["l%d%d" % (i, j), "l%d%d" % (j, i)]
    x = {(int(nm[1]), int(nm[2])): ((k, 1),) for k, nm in enumerate(names)}
    rels, seen = [], set()
    for i, j, k, m in permutations(range(1, n + 1), 4):
        key = frozenset(((i, j), (k, m)))
        if key not in seen:
            seen.add(key)
            rels.append(commutator(x[i, j], x[k, m]))
    for k, i, j in permutations(range(1, n + 1), 3):
        a, b, c = x[k, i], x[k, j], x[i, j]
        rels.append(reduce(a + b + c + inverse(a) + inverse(b) + inverse(c)))
    return tuple(names), tuple(rels)


def _g3(extra_free_generator):
    names = ("a1", "b1", "a2", "b2", "c1") + (("c2",) if extra_free_generator else ())
    a1, b1, a2, b2, c1 = (((k, 1),) for k in range(5))
    rels = [commutator(a1, b1), commutator(a2, b2)]
    for y, w in ((b1, a2), (a1, b2), (b2, a1 + b2), (a2, b1 + a2)):
        # c1^-1 y c1 = w^-1 y w
        rels.append(reduce(inverse(c1) + y + c1 + inverse(w) + inverse(y) + w))
    return names, tuple(rels)


PRESENTATIONS = {
    "pv3": lambda: _pv(3),
    "pv4": lambda: _pv(4),
    "g3": lambda: _g3(False),
    "pv3-new": lambda: _g3(True),
}


def presentation(name):
    """(generator names, relators as letter tuples)."""
    return PRESENTATIONS[name]()


def presentation_text(name):
    names, rels = presentation(name)
    lines = ["gens: " + " ".join(names)]
    lines += ["rel: " + render(r, names) for r in rels]
    return "\n".join(lines) + "\n"


def splitting_images():
    """The change of generators between pv3 and pv3-new, as letter maps.

    Returns (old_to_new, new_to_old), each a tuple of images indexed by
    source generator.  Every relator of one side maps to a consequence of
    the relators of the other.
    """
    old, _ = presentation("pv3")
    new, _ = presentation("pv3-new")
    o = {nm: ((k, 1),) for k, nm in enumerate(old)}
    a1, b1, a2, b2, c1, c2 = (((k, 1),) for k in range(6))
    f = {"l12": inverse(c2) + b1, "l21": b2 + inverse(c1) + c2, "l13": c2,
         "l31": inverse(c2) + c1, "l23": inverse(c2) + a1, "l32": a2 + inverse(c1) + c2}
    g = {"a1": o["l13"] + o["l23"], "b1": o["l13"] + o["l12"], "a2": o["l32"] + o["l31"],
         "b2": o["l21"] + o["l31"], "c1": o["l13"] + o["l31"], "c2": o["l13"]}
    return tuple(f[nm] for nm in old), tuple(g[nm] for nm in new)


def substitute(letters, images):
    out = []
    for g, s in letters:
        out += images[g] if s == 1 else inverse(images[g])
    return reduce(out)


# -- lower-central ranks ---------------------------------------------------


def _mobius(n):
    out, m, p = 1, n, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    return -out if m > 1 else out


def witt(ngens, k):
    return sum(_mobius(d) * ngens ** (k // d) for d in range(1, k + 1) if k % d == 0) // k


def g3_lcs_ranks(top):
    """The five-generator factor: phi_k = W(2, k) + W(3, k)."""
    return tuple(witt(2, k) + witt(3, k) for k in range(1, top + 1))


def pv_lcs_ranks(n, top):
    """prod_k (1 - t^k)^(-phi_k) = 1 / sum_r (-1)^r b_r t^r, where
    b_r = C(n-1, r) n! / (n-r)! is the closed-form cohomology rank."""
    b = [comb(n - 1, r) * factorial(n) // factorial(n - r) for r in range(n)]
    hilbert = [1] + [0] * top
    for d in range(1, top + 1):
        hilbert[d] = sum((-1) ** (r + 1) * b[r] * hilbert[d - r]
                         for r in range(1, min(d, n - 1) + 1))
    phis = []
    for k in range(1, top + 1):
        series = [1] + [0] * top
        for j, phi in enumerate(phis, start=1):
            factor = [0] * (top + 1)
            for m in range(top // j + 1):
                factor[j * m] = comb(phi - 1 + m, m) if phi else int(m == 0)
            series = [sum(series[i] * factor[d - i] for i in range(d + 1))
                      for d in range(top + 1)]
        phis.append(hilbert[k] - series[k])
    return tuple(phis)


LCS_ORACLE = {
    "pv3": lambda top: pv_lcs_ranks(3, top),
    "pv3-new": lambda top: pv_lcs_ranks(3, top),
    "pv4": lambda top: pv_lcs_ranks(4, top),
    "g3": g3_lcs_ranks,
}


# -- Magnus expansion ------------------------------------------------------


def magnus(letters, top):
    """Truncated Magnus expansion x -> 1 + X, as {monomial: coefficient}."""
    out = {(): 1}
    for g, s in letters:
        # (1 + X)^-1 = 1 - X + X^2 - ...
        factor = [(((g,) * m), (1 if s == 1 else (-1) ** m))
                  for m in range(0, (1 if s == 1 else top) + 1)]
        nxt = {}
        for mono, c in out.items():
            for f, fc in factor:
                if len(mono) + len(f) <= top:
                    key = mono + f
                    nxt[key] = nxt.get(key, 0) + c * fc
        out = {k: c for k, c in nxt.items() if c}
    return out


class _Span:
    """Echelon basis of a rational row span, sparse rows as dicts."""

    def __init__(self, rows):
        self.pivots = {}
        for r in rows:
            r = self._reduce(dict(r))
            if r:
                p = min(r)
                inv = Fraction(1, 1) / r[p]
                self.pivots[p] = {k: v * inv for k, v in r.items()}

    def _reduce(self, r):
        for p in sorted(self.pivots):
            c = r.get(p)
            if c:
                for k, v in self.pivots[p].items():
                    x = r.get(k, 0) - c * v
                    if x:
                        r[k] = x
                    else:
                        r.pop(k, None)
        return r

    def __contains__(self, row):
        return not self._reduce(dict(row))


class MagnusOracle:
    """Proves words nontrivial in a presented group.

    If w lies in gamma_d of the free group, its Magnus expansion starts
    1 + m_d(w) + ....  If w dies in the group, m_d(w) lies in the degree-d
    part of the two-sided ideal generated by the quadratic parts q_i of
    the relators.  For d = 2 that part is span{q_i}; for d = 3 it is
    span{X q_i, q_i X}, because the q_i are linearly independent (checked
    here), so the cubic parts of the relators cannot contribute.  A lowest
    term outside that span therefore proves w != 1.  Only used on words
    in gamma_2 or gamma_3; the presentations have relators in gamma_2.
    """

    def __init__(self, name):
        self.names, rels = presentation(name)
        n = len(self.names)
        quads = []
        for r in rels:
            if any(exponent_sums(r, n)):
                raise ValueError("relator outside gamma_2")
            quads.append({k: c for k, c in magnus(r, 2).items() if len(k) == 2})
        self.spans = {2: _Span(quads)}
        if len(self.spans[2].pivots) != len(quads):
            raise ValueError("quadratic relator parts are dependent")
        cubic = []
        for q in quads:
            for x in range(n):
                cubic.append({(x,) + k: c for k, c in q.items()})
                cubic.append({k + (x,): c for k, c in q.items()})
        self.spans[3] = _Span(cubic)

    def proves_nontrivial(self, letters):
        m = magnus(letters, 3)
        for d in (1, 2, 3):
            part = {k: c for k, c in m.items() if len(k) == d}
            if part:
                return d in self.spans and part not in self.spans[d]
        return False


def commutator_pairs(oracle, weight):
    """Generator tuples whose left-normed commutator the oracle proves
    nontrivial: pairs for weight 2, triples for weight 3."""
    n = len(oracle.names)
    out = []
    for idx in product(range(n), repeat=weight):
        if len(set(idx[:2])) < 2:
            continue
        w = ((idx[0], 1),)
        for g in idx[1:]:
            w = commutator(w, ((g, 1),))
        if oracle.proves_nontrivial(w):
            out.append(idx)
    return tuple(out)
