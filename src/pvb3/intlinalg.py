"""Exact linear algebra over the integers.

Rank, determinant, Hermite and Smith normal forms, integer kernels and
lattice membership.  Everything runs on arbitrary-precision Python ints;
no floating point is used anywhere.  The Smith form carries its unimodular
transforms so the factorisation can be re-verified by exact multiplication.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass


class NonSquareMatrixError(ValueError):
    """Raised when a determinant is requested for a rectangular matrix."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        widths = {len(row) for row in self.entries}
        if len(widths) > 1:
            raise ValueError("ragged rows")
        for row in self.entries:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError("entries must be ints, got %r" % (x,))

    @staticmethod
    def from_rows(rows) -> "IntMatrix":
        return IntMatrix(tuple(tuple(int(x) for x in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(m: int, n: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * n for _ in range(m)))

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @property
    def ncols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        cols = other.transpose().entries
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries))

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)


@dataclass(frozen=True)
class SmithForm:
    """Factorisation left * source * right = diag(factors).

    ``factors`` has length min(nrows, ncols) and satisfies the divisibility
    chain d_1 | d_2 | ... with every d_i >= 0.  ``left`` and ``right`` are
    unimodular.
    """

    source: IntMatrix
    factors: tuple[int, ...]
    left: IntMatrix
    right: IntMatrix

    @property
    def rank(self) -> int:
        return sum(1 for d in self.factors if d != 0)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(d for d in self.factors if d > 1)

    def verify(self) -> bool:
        prod = self.left * self.source * self.right
        m, n = prod.nrows, prod.ncols
        for i in range(m):
            for j in range(n):
                want = self.factors[i] if i == j and i < len(self.factors) else 0
                if prod.entries[i][j] != want:
                    return False
        return (abs(determinant(self.left)) == 1
                and abs(determinant(self.right)) == 1)


def _swap_rows(a, i, j):
    a[i], a[j] = a[j], a[i]


def _add_row(a, i, j, q):
    # row i += q * row j
    ai, aj = a[i], a[j]
    for k in range(len(ai)):
        ai[k] += q * aj[k]


def _neg_row(a, i):
    a[i] = [-x for x in a[i]]


def smith_normal_form(mat: IntMatrix) -> SmithForm:
    """Smith normal form with unimodular transforms.

    The pivot choice is always the smallest nonzero magnitude in the working
    submatrix, with (row, col) order breaking ties, so the computation is
    deterministic.  The zero matrix yields all-zero factors.
    """
    m, n = mat.nrows, mat.ncols
    a = [list(row) for row in mat.entries]
    u = [list(row) for row in IntMatrix.identity(m).entries]
    # Track the transpose of V so column ops on A are row ops here.
    vt = [list(row) for row in IntMatrix.identity(n).entries]

    def col_swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        _swap_rows(vt, i, j)

    def col_add(i, j, q):
        # col i += q * col j
        for row in a:
            row[i] += q * row[j]
        _add_row(vt, i, j, q)

    t = 0
    bound = min(m, n)
    while t < bound:
        # Locate smallest-magnitude nonzero entry of the trailing submatrix.
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (pivot is None or abs(x) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot[0] != t:
            _swap_rows(a, t, pivot[0])
            _swap_rows(u, t, pivot[0])
        if pivot[1] != t:
            col_swap(t, pivot[1])
        while True:
            # Clear the pivot column.
            dirty = False
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    _add_row(a, i, t, -q)
                    _add_row(u, i, t, -q)
                    if a[i][t] != 0:
                        _swap_rows(a, t, i)
                        _swap_rows(u, t, i)
                        dirty = True
            if dirty:
                continue
            # Clear the pivot row.
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    col_add(j, t, -q)
                    if a[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
            if dirty:
                continue
            # Enforce divisibility of the remaining block by the pivot.
            viol = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if a[i][j] % a[t][t] != 0:
                        viol = i
                        break
                if viol is not None:
                    break
            if viol is None:
                break
            _add_row(a, t, viol, 1)
            _add_row(u, t, viol, 1)
        if a[t][t] < 0:
            _neg_row(a, t)
            _neg_row(u, t)
        t += 1

    factors = tuple(a[i][i] if i < m and i < n else 0 for i in range(bound))
    right = IntMatrix.from_rows(vt).transpose()
    return SmithForm(mat, factors, IntMatrix.from_rows(u), right)


def rank(mat: IntMatrix) -> int:
    return len(hermite_normal_form(mat)[0])


def determinant(mat: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = mat.nrows
    if n != mat.ncols:
        raise NonSquareMatrixError("determinant of %dx%d matrix" % (mat.nrows, mat.ncols))
    if n == 0:
        return 1
    a = [list(row) for row in mat.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    _swap_rows(a, k, i)
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def is_unit_determinant(mat: IntMatrix) -> bool:
    """True iff the matrix lies in GL_n(Z)."""
    return abs(determinant(mat)) == 1


def hermite_normal_form(mat: IntMatrix):
    """Row-style Hermite normal form of the lattice spanned by the rows.

    Returns (rows, pivots) where ``rows`` is a list of nonzero reduced rows
    and ``pivots`` is a list of (column, value) pairs, one per row, in
    increasing column order with positive pivot values.  Entries above a
    pivot are reduced into [0, pivot).
    """
    work = [list(row) for row in mat.entries if any(row)]
    n = mat.ncols
    done: list[list[int]] = []
    pivots: list[tuple[int, int]] = []
    for col in range(n):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            best = live[0]
            for r in live[1:]:
                q = r[col] // best[col]
                for k in range(col, n):
                    r[k] -= q * best[k]
            live = [best] + [r for r in live[1:] if r[col] != 0]
        pivot_row = live[0]
        work = [r for r in work if r is not pivot_row and any(r)]
        if pivot_row[col] < 0:
            pivot_row[:] = [-x for x in pivot_row]
        # Reduce earlier pivot rows above this pivot.
        for r in done:
            q = r[col] // pivot_row[col]
            if q:
                for k in range(col, n):
                    r[k] -= q * pivot_row[k]
        done.append(pivot_row)
        pivots.append((col, pivot_row[col]))
    return done, pivots


def in_row_lattice(mat: IntMatrix, vec) -> bool:
    """Whether ``vec`` lies in the integer row span of ``mat``."""
    rows, pivots = hermite_normal_form(mat)
    v = [int(x) for x in vec]
    if len(v) != mat.ncols:
        raise ValueError("vector length %d, matrix has %d columns" % (len(v), mat.ncols))
    for row, (col, val) in zip(rows, pivots):
        q, r = divmod(v[col], val)
        if r != 0:
            return False
        if q:
            for k in range(col, len(v)):
                v[k] -= q * row[k]
    return not any(v)


def row_lattices_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Exact equality of the integer lattices spanned by the rows."""
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return (all(in_row_lattice(b, row) for row in a.entries)
            and all(in_row_lattice(a, row) for row in b.entries))


def kernel_basis(mat: IntMatrix) -> list[tuple[int, ...]]:
    """Basis of the right integer kernel {x : mat @ x = 0}.

    Derived from the Smith form: the kernel is spanned by the columns of the
    right transform that meet zero invariant factors.  The result is a basis
    of the full (saturated) kernel lattice.
    """
    sf = smith_normal_form(mat)
    n = mat.ncols
    basis = []
    for j in range(n):
        d = sf.factors[j] if j < len(sf.factors) else 0
        if d == 0:
            basis.append(sf.right.col(j))
    return basis


def cokernel_invariants(mat: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion factors) of Z^ncols / row span.

    Sparse elimination on row dicts takes +-1 pivots in order of lowest
    Markowitz cost (|row| - 1) * (|col| - 1), ties broken by (row, col).  A
    pivot clears its column by row operations only, then its row and column
    are dropped, which leaves the cokernel unchanged.  Only the block left
    without a unit entry goes through the dense Smith form.
    """
    rows: dict[int, dict[int, int]] = {}
    cols: dict[int, set[int]] = {}
    for i, row in enumerate(mat.entries):
        if any(row):
            rows[i] = {j: x for j, x in enumerate(row) if x}
            for j in rows[i]:
                cols.setdefault(j, set()).add(i)

    def cost(i, j):
        return (len(rows[i]) - 1) * (len(cols[j]) - 1)

    # Every live unit entry has a heap item with its current cost; items
    # whose cost or entry has since changed are skipped when popped.
    heap = [(cost(i, j), i, j) for i, r in rows.items()
            for j, x in r.items() if x in (1, -1)]
    heapq.heapify(heap)
    pivots = 0
    while heap:
        c, i, j = heapq.heappop(heap)
        r = rows.get(i)
        if r is None or r.get(j) not in (1, -1) or c != cost(i, j):
            continue
        pivots += 1
        del rows[i]
        for col in r:
            cols[col].discard(i)
        touched = sorted(cols[j])
        for k in touched:
            rk = rows[k]
            f = rk[j] * r[j]
            for col, x in r.items():
                y = rk.get(col, 0) - f * x
                if y:
                    rk[col] = y
                    cols[col].add(k)
                else:
                    del rk[col]
                    cols[col].discard(k)
            if not rk:
                del rows[k]
        for col in r:
            for k in cols[col]:
                if rows[k][col] in (1, -1):
                    heapq.heappush(heap, (cost(k, col), k, col))
        for k in touched:
            if k in rows:
                for col, x in rows[k].items():
                    if x in (1, -1):
                        heapq.heappush(heap, (cost(k, col), k, col))
    free = mat.ncols - pivots
    if not rows:
        return free, ()
    live = sorted({j for r in rows.values() for j in r})
    sf = smith_normal_form(IntMatrix.from_rows(
        [[rows[i].get(j, 0) for j in live] for i in sorted(rows)]))
    return free - sf.rank, sf.torsion
