"""Exact linear algebra over the integers.

Rank, determinant, Hermite and Smith normal forms, integer kernels and
lattice membership.  Everything runs on arbitrary-precision Python ints;
no floating point is used anywhere.  The Hermite normal form is the one
dense elimination behind ranks, lattice membership, kernels and Smith
factors; cokernels are eliminated sparsely first.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from math import gcd


class NonSquareMatrixError(ValueError):
    """Raised when a determinant is requested for a rectangular matrix."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix stored as a tuple of row tuples and its width.

    The width is kept apart from the rows so that a matrix without rows
    still has its columns.
    """

    entries: tuple[tuple[int, ...], ...]
    ncols: int

    def __post_init__(self) -> None:
        if any(len(row) != self.ncols for row in self.entries):
            raise ValueError("ragged rows")
        for row in self.entries:
            for x in row:
                if not isinstance(x, int) or isinstance(x, bool):
                    raise TypeError("entries must be ints, got %r" % (x,))

    @staticmethod
    def from_rows(rows, ncols: int | None = None) -> "IntMatrix":
        """Matrix of ``rows``; ``ncols`` gives the width when ``rows`` may be empty."""
        entries = tuple(tuple(int(x) for x in row) for row in rows)
        if ncols is None:
            ncols = len(entries[0]) if entries else 0
        return IntMatrix(entries, ncols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @staticmethod
    def zero(m: int, n: int) -> "IntMatrix":
        return IntMatrix(tuple((0,) * n for _ in range(m)), n)

    @property
    def nrows(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(self.col(j) for j in range(self.ncols)), self.nrows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        cols = other.transpose().entries
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in cols)
            for row in self.entries), other.ncols)


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
                    a[k], a[i] = a[i], a[k]
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

    The rows (column j of mat | e_j) span the lattice of all (mat @ x, x).
    Its Hermite form is in echelon order, so the rows whose pivot falls past
    the first ``mat.nrows`` columns span every lattice vector that is zero
    there: their tails are a basis of the full (saturated) kernel lattice.
    """
    m, n = mat.nrows, mat.ncols
    rows, pivots = hermite_normal_form(IntMatrix.from_rows(
        [mat.col(j) + tuple(int(i == j) for i in range(n)) for j in range(n)], m + n))
    return [tuple(row[m:]) for row, (col, _) in zip(rows, pivots) if col >= m]


def smith_normal_form(mat: IntMatrix) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of ``mat``.

    Row Hermite forms of the matrix and of its transpose alternate until
    every row holds only its pivot (Kannan and Bachem, SIAM J. Comput. 8,
    1979); each pass leaves the factors unchanged, and a pass that keeps
    the first pivot clears its row and column for good.  The pivots are
    then turned into a divisibility chain by replacing each pair with its
    gcd and lcm, which leaves the group they present unchanged.
    """
    rows, pivots = hermite_normal_form(mat)
    while any(sum(1 for x in row if x) > 1 for row in rows):
        rows, pivots = hermite_normal_form(IntMatrix.from_rows(zip(*rows)))
    factors = [val for _, val in pivots]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return tuple(factors)


def cokernel_invariants(mat: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion factors) of Z^ncols / row span.

    Sparse elimination on row dicts takes +-1 pivots in order of lowest
    Markowitz cost (|row| - 1) * (|col| - 1), ties broken by (row, col).  A
    pivot clears its column by row operations only, then its row and column
    are dropped, which leaves the cokernel unchanged.  Only the block left
    without a unit entry goes through ``smith_normal_form``.
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
    factors = smith_normal_form(IntMatrix.from_rows(
        [[rows[i].get(j, 0) for j in live] for i in sorted(rows)]))
    return free - len(factors), tuple(d for d in factors if d > 1)
