"""Nilpotent quotients of finitely presented groups.

The quotient G/gamma_{c+1} is produced class by class as a weighted
polycyclic presentation.  Each stage appends central "tail" generators of
the next weight to every relation that is not the definition of an existing
generator, enforces associativity and power-overlap consistency together
with the original relators, and then cuts the tail lattice down by the
resulting integral constraints.  Class 1 is the first such stage, over the
trivial group: its tails are the images of the original generators and its
constraints are the exponent vectors of the relators.  Definitions never
receive tails, and the image relation of every eliminated original
generator always does; both points are load-bearing, each failure mode
having a small group that detects it.  Each stage eliminates its constraint
lattice once, by one Hermite normal form on sparse rows: each unit-pivot
row replaces its tail by minus the rest of the row, and the other rows give
the layer by their Smith factors and the torsion powers by their entries.
Finished stages are kept with the presentation, each built once when reached.

Normal forms are exponent vectors over the polycyclic generators, held as
``{generator: nonzero exponent}`` dicts, the row format of ``IntMatrix``,
and computed by collecting unit letters, leftmost violation first.  Letters
of a pair with no ``comms`` entry commute, so a carried letter moves left in
one move, jumping by bisection over the sorted prefix past every letter above
its last commutator partner.  Steps still count one swap per place, so a
step budget makes a runaway input raise :class:`CollectionBudget`, not loop,
at the same count as a collector that swaps one place at a time.
"""

from __future__ import annotations

from bisect import bisect_right

from .intlinalg import IntMatrix, Value, _subtract, hermite_cokernel, hermite_normal_form
from .word import Word

DEFAULT_BUDGET = 10_000_000


class CollectionBudget(RuntimeError):
    """Raised when a single collection exceeds its step budget."""


class PcSystem(Value):
    """Weighted polycyclic presentation of a nilpotent group.

    Generator i has ``weights[i]`` and ``orders[i]`` (0 means infinite
    order; otherwise ``powers[i]`` holds the normal form of b_i^orders[i]).
    ``comms[(j, i)]`` for j > i is the normal form of [b_j, b_i]; absent
    pairs commute.  ``images[k]`` expresses original generator k of the
    finitely presented group in the polycyclic generators.  Every normal
    form is a ``{generator: nonzero exponent}`` dict.  Unlike the other
    values it is built up in place, so it is mutable and unhashable, and
    its collection caches are not fields.
    """

    _fields = ("weights", "orders", "powers", "comms", "images", "definitions", "budget")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, weights: list[int], orders: list[int], powers: dict[int, dict[int, int]],
                 comms: dict[tuple[int, int], dict[int, int]], images: list[dict[int, int]],
                 definitions: set | None = None, budget: int = DEFAULT_BUDGET) -> None:
        super().__init__(weights, orders, powers, comms, images,
                         set() if definitions is None else definitions, budget)
        self._conj_cache = {}
        self._reach = []

    @property
    def num(self) -> int:
        return len(self.weights)

    # -- letter expansion ----------------------------------------------------

    def expand(self, vec) -> list[tuple[int, int]]:
        out = []
        for i, e in sorted(vec.items()):
            out.extend([(i, 1 if e > 0 else -1)] * abs(e))
        return out

    def expand_inv(self, vec) -> list[tuple[int, int]]:
        return [(g, -s) for g, s in reversed(self.expand(vec))]

    def _conjugate(self, j, sj, i, si) -> list[tuple[int, int]]:
        """Letters for b_i^-si b_j^sj b_i^si, j > i, with no naked b_i left.

        Cached only when a commutator changes it: a pair with no ``comms``
        entry commutes and gives [(j, sj)].  Inserting the raw commutator
        identity would wrap the correction in b_i^+-1, re-triggering the
        swap it came from; resolving the conjugate recursively (the recursion
        climbs to strictly higher generators) makes collection terminate.
        """
        u = self.comms.get((j, i))
        if not u:
            return [(j, sj)]
        key = (j, sj, i, si)
        hit = self._conj_cache.get(key)
        if hit is not None:
            return hit
        if sj == -1:
            out = [(g, -s) for g, s in reversed(self._conjugate(j, 1, i, si))]
        elif si == 1:
            out = [(j, 1)] + self.expand(u)
        else:
            # b_i b_j b_i^-1 = b_j (b_i u^-1 b_i^-1), letter by letter
            out = [(j, 1)]
            for g, s in self.expand_inv(u):
                out.extend(self._conjugate(g, s, i, -1))
        self._conj_cache[key] = out
        return out

    # -- collection ----------------------------------------------------------

    def collect(self, letters) -> dict[int, int]:
        """Normal form of a product of unit letters, as an exponent vector."""
        end = (self.num, 0)  # above every generator, so never swapped or cancelled
        w = list(letters) + [end]
        orders, comms, budget, reach = self.orders, self.comms, self.budget, self._reach
        if not reach:  # built here, as _advance adds tail keys after construction
            reach.extend(range(self.num))
            for j, i in comms:
                reach[i] = max(reach[i], j)
        steps = 0
        p = 0
        while w[p] is not end:
            steps += 1
            if steps > budget:
                raise CollectionBudget("collection exceeded %d steps" % budget)
            g, s = w[p]
            d = orders[g]
            g2, s2 = w[p + 1]
            if g2 == g and s2 == -s:
                del w[p:p + 2]
                p = p - 1 if p else 0
                continue
            if g2 < g:
                if (g, g2) in comms:
                    w[p:p + 2] = [(g2, s2)] + self._conjugate(g, s, g2, s2)
                    p = p - 1 if p else 0
                    continue
                # Carry the commuting letter in one move to the first letter
                # that is not above it or has a commutator with it, counting
                # one swap per place; w[:p] is sorted, so bisection skips every
                # letter above reach[g2], its last commutator partner (w[-1] is end).
                q = p
                if w[p - 1][0] > reach[g2]:
                    q = bisect_right(w, (reach[g2], 1), 0, p)
                while q and w[q - 1][0] > g2 and (w[q - 1][0], g2) not in comms:
                    q -= 1
                y = w[p + 1]
                w[q:p + 2] = [y] + w[q:p + 1]
                steps += p - q
                if d < 2 and orders[g2] < 2 and (not q or w[q - 1][0] < g2 or w[q - 1] == y):
                    # no rule fires again before p + 1, so count the advances
                    # back over the settled letters and go on from there; the
                    # budget check at the top of the loop sees the bulk steps
                    steps += p - q + 2 if q else p + 1
                    p += 1
                else:
                    p = q - 1 if q else 0
                continue
            if d >= 2 and s == -1:
                # b^-1 = b^(d-1) v^-1
                w[p:p + 1] = [(g, 1)] * (d - 1) + self.expand_inv(self.powers[g])
                p = p - 1 if p else 0
                continue
            if d >= 2 and s == 1:
                # A full run starts at p, or ends at p when a swap brought its
                # last letter in from the right; for d >= 3 the latter cannot
                # be seen from the run's start, which lies behind p.
                run = [(g, 1)] * d
                start = p if w[p:p + d] == run else p - d + 1
                if start >= 0 and w[start:start + d] == run:
                    w[start:start + d] = self.expand(self.powers[g])
                    p = max(0, start - 1)
                    continue
            p += 1
        # w is now sorted by generator with no cancelling neighbours, so
        # each generator's letters share one sign and no exponent is zero
        vec: dict[int, int] = {}
        for g, s in w[:-1]:
            vec[g] = vec.get(g, 0) + s
        for i, e in vec.items():
            if orders[i] >= 2 and not 0 <= e < orders[i]:
                raise AssertionError("collection left exponent %d at torsion generator %d"
                                     % (e, i))
        return vec

    def word_image(self, w: Word) -> dict[int, int]:
        letters = []
        for g, s in w.letters:
            letters.extend(self.expand(self.images[g]) if s == 1
                           else self.expand_inv(self.images[g]))
        return self.collect(letters)

    # -- consistency ---------------------------------------------------------

    def _overlap_pairs(self, max_weight: int):
        """(way1, way2) letter sequences whose collections must agree."""
        n = self.num
        w = self.weights
        # Weights never decrease along the index, so for i < j < k the
        # admissible k form a prefix, and once w[i] + 2 w[j] is too heavy
        # no later j has any.
        for i in range(n):
            for j in range(i + 1, n):
                if w[i] + 2 * w[j] > max_weight:
                    break
                u_ji = self.expand(self.comms.get((j, i), {}))
                for k in range(j + 1, bisect_right(w, max_weight - w[i] - w[j])):
                    u_kj = self.comms.get((k, j), {})
                    way1 = [(k, 1), (i, 1), (j, 1)] + u_ji
                    way2 = [(j, 1), (k, 1)] + self.expand(u_kj) + [(i, 1)]
                    yield ("triple %d %d %d" % (k, j, i), way1, way2)
        for j in range(n):
            dj = self.orders[j]
            if dj < 2:
                continue
            vj = self.powers[j]
            for i in range(j):
                if self.weights[i] + self.weights[j] > max_weight:
                    continue
                u_ji = self.expand(self.comms.get((j, i), {}))
                yield ("power-left %d %d" % (j, i),
                       self.expand(vj) + [(i, 1)],
                       [(j, 1)] * (dj - 1) + [(i, 1), (j, 1)] + u_ji)
            for k in range(j + 1, n):
                if self.weights[j] + self.weights[k] > max_weight:
                    continue
                u_kj = self.expand(self.comms.get((k, j), {}))
                yield ("power-right %d %d" % (k, j),
                       [(k, 1)] + self.expand(vj),
                       [(j, 1), (k, 1)] + u_kj + [(j, 1)] * (dj - 1))
            yield ("power-self %d" % j,
                   [(j, 1)] + self.expand(vj),
                   self.expand(vj) + [(j, 1)])

    def consistency_discrepancies(self, max_weight: int):
        for label, way1, way2 in self._overlap_pairs(max_weight):
            delta = self.collect(way1)
            _subtract(delta, self.collect(way2), 1)
            yield label, delta


class NilpotentQuotient(Value):
    """A tower's stage ``class_``: its PcSystem and each layer's (rank, torsion)."""

    _fields = ("alphabet", "class_", "system", "layers")

    def _normal_form(self, w: Word) -> dict[int, int]:
        if w.alphabet != self.alphabet:
            raise ValueError("word is not over the presentation alphabet")
        return self.system.word_image(w)

    def image(self, w: Word) -> tuple[int, ...]:
        """The normal form of ``w`` as a dense exponent vector."""
        vec = self._normal_form(w)
        return tuple(vec.get(g, 0) for g in range(self.system.num))

    def image_is_trivial(self, w: Word) -> bool:
        return not self._normal_form(w)


def _advance(system: PcSystem, pres, new_weight: int) \
        -> tuple[PcSystem, tuple[int, tuple[int, ...]]]:
    base = system.num

    # each tail is named by the definition it becomes if it survives
    tails = [("comm", j, i) for j in range(base) for i in range(j)
             if system.weights[i] + system.weights[j] <= new_weight]
    tails += [("pow", i) for i in range(base) if system.orders[i] >= 2]
    tails += [("img", k) for k in range(pres.num_gens)]
    tails = [tail for tail in tails if tail not in system.definitions]

    s = len(tails)

    work = PcSystem(
        weights=system.weights + [new_weight] * s,
        orders=system.orders + [0] * s,
        powers={i: dict(v) for i, v in system.powers.items()},
        comms={pair: dict(v) for pair, v in system.comms.items()},
        images=[dict(v) for v in system.images],
        budget=system.budget,
    )
    for m, tail in enumerate(tails):
        if tail[0] == "comm":
            vec = work.comms.setdefault(tail[1:], {})
        elif tail[0] == "pow":
            vec = work.powers[tail[1]]
        else:
            vec = work.images[tail[1]]
        vec[base + m] = 1

    # each constraint, on the tails alone: tail m is column m
    constraint_rows = []
    for label, delta in work.consistency_discrepancies(new_weight):
        if any(g < base for g in delta):
            raise AssertionError("consistency discrepancy %s touches old generators" % label)
        constraint_rows.append({g - base: e for g, e in delta.items()})
    for r in pres.relators:
        value = work.word_image(r)
        if any(g < base for g in value):
            raise AssertionError("relator %s fails to vanish below the new weight" % r)
        constraint_rows.append({g - base: e for g, e in value.items()})
    if s == 0:
        return system, (0, ())

    rows, pivots = hermite_normal_form(IntMatrix(constraint_rows, s))
    row_at = {col: row for row, (col, _) in zip(rows, pivots)}
    survivors, layer = hermite_cokernel(rows, pivots, s)
    index = {m: base + new for m, new in survivors.items()}

    def negated_rest(m) -> dict[int, int]:
        """Minus the entries of tail m's row after its pivot, on the new indices."""
        rest = {mm: -x for mm, x in row_at[m].items() if mm != m}
        if not rest.keys() <= index.keys():
            raise AssertionError("eliminated tail depends on an eliminated tail")
        return {index[mm]: x for mm, x in rest.items()}

    # each tail as a sparse vector over the new generators
    image = [{index[m]: 1} if m in index else negated_rest(m) for m in range(s)]

    def rebuilt(vec) -> dict[int, int]:
        out = {g: e for g, e in vec.items() if g < base}
        for g, e in vec.items():
            if g >= base:
                _subtract(out, image[g - base], -e)
        return out

    new_system = PcSystem(
        weights=system.weights + [new_weight] * len(survivors),
        orders=system.orders + [0] * len(survivors),
        powers={i: rebuilt(v) for i, v in work.powers.items()},
        comms={pair: vec for pair, vec in
               ((pair, rebuilt(v)) for pair, v in work.comms.items()) if vec},
        images=[rebuilt(v) for v in work.images],
        definitions=set(system.definitions),
        budget=system.budget,
    )
    for m, idx in index.items():
        if m in row_at:
            new_system.orders[idx] = row_at[m][m]
            new_system.powers[idx] = negated_rest(m)
        new_system.definitions.add(tails[m])
    return new_system, layer


def quotient_tower(pres, class_: int):
    """Yield the quotients of class 1 to class_ kept with pres, building any
    missing; pres is read for its alphabet, relators, num_gens and _tower."""
    tower = pres._tower
    for c in range(1, class_ + 1):
        if c > len(tower):
            system, layers = (tower[-1].system, tower[-1].layers) if tower else (
                PcSystem([], [], {}, {}, [{} for _ in range(pres.num_gens)]), ())
            system, layer = _advance(system, pres, c)
            tower.append(NilpotentQuotient(pres.alphabet, c, system, layers + (layer,)))
        yield tower[c - 1]


def nilpotent_quotient(pres, class_: int) -> NilpotentQuotient:
    """Polycyclic presentation of G/gamma_{class_+1} with layer invariants."""
    if class_ < 1:
        raise ValueError("class must be at least 1")
    return list(quotient_tower(pres, class_))[-1]
