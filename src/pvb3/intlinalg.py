"""Exact linear algebra over the integers.

Rank, determinant, Hermite and Smith normal forms, integer kernels and
lattice membership.  Everything runs on arbitrary-precision Python ints;
no floating point is used anywhere.  One sparse elimination, the Hermite
normal form, is behind ranks, lattice membership and comparison, kernels,
Smith factors and cokernels; only the determinant eliminates on its own.
The Hermite rows are ``{column: nonzero entry}`` dicts, and every reader
here consumes them without making them dense.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from math import gcd


class NonSquareMatrixError(ValueError):
    """Raised when a determinant is requested for a rectangular matrix."""


def _check_ints(row) -> None:
    for x in row:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError("entries must be ints, got %r" % (x,))


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
            _check_ints(row)

    @staticmethod
    def from_rows(rows, ncols: int | None = None) -> "IntMatrix":
        """Matrix of ``rows``; ``ncols`` gives the width when ``rows`` may be empty."""
        entries = tuple(tuple(row) for row in rows)
        if ncols is None:
            ncols = len(entries[0]) if entries else 0
        return IntMatrix(entries, ncols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.entries)

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
    increasing column order with positive pivot values.  Each row is a
    ``{column: nonzero entry}`` dict whose least key is its pivot column.
    Entries above a pivot are reduced into [0, pivot).

    Sparse rows wait in buckets by leading column while the columns are
    swept in order; Euclid on a column's rows reduces by the smallest entry,
    then the shortest row, and a row that loses its lead moves on to its new
    one (Dumas, Saunders and Villard, J. Symbolic Comput. 32, 2001).
    """
    n = mat.ncols
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in mat.entries:
        r = dict(zip(compress(range(n), row), filter(None, row)))
        if r:
            buckets.setdefault(min(r), []).append(r)
    done: list[dict[int, int]] = []
    pivots: list[tuple[int, int]] = []
    for col in range(n):
        live = buckets.pop(col, None)
        if live is None:
            continue
        while len(live) > 1:
            live.sort(key=lambda r: (abs(r[col]), len(r)))
            best = live[0]
            for r in live[1:]:
                _subtract(r, best, r[col] // best[col])
                if r and col not in r:
                    buckets.setdefault(min(r), []).append(r)
            live = [r for r in live if col in r]
        pivot_row = live[0]
        if pivot_row[col] < 0:
            for j in pivot_row:
                pivot_row[j] = -pivot_row[j]
        val = pivot_row[col]
        for r in done:
            q = r.get(col, 0) // val
            if q:
                _subtract(r, pivot_row, q)
        done.append(pivot_row)
        pivots.append((col, val))
    return done, pivots


def _subtract(r: dict[int, int], s: dict[int, int], q: int) -> None:
    """r -= q * s on sparse rows, for q != 0."""
    for j, x in s.items():
        y = r.get(j, 0) - q * x
        if y:
            r[j] = y
        else:
            del r[j]


def in_row_lattice(mat: IntMatrix, vec) -> bool:
    """Whether ``vec`` lies in the integer row span of ``mat``."""
    v = list(vec)
    if len(v) != mat.ncols:
        raise ValueError("vector length %d, matrix has %d columns" % (len(v), mat.ncols))
    _check_ints(v)
    rows, pivots = hermite_normal_form(mat)
    for row, (col, val) in zip(rows, pivots):
        q, r = divmod(v[col], val)
        if r != 0:
            return False
        if q:
            for k, x in row.items():
                v[k] -= q * x
    return not any(v)


def row_lattices_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Exact equality of the integer lattices spanned by the rows, whose
    reduced Hermite forms agree exactly when the lattices do."""
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return hermite_normal_form(a) == hermite_normal_form(b)


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
    return [tuple(row.get(j, 0) for j in range(m, m + n))
            for row, (col, _) in zip(rows, pivots) if col >= m]


def smith_normal_form(mat: IntMatrix) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of ``mat``.

    Row Hermite forms of the matrix and of its transpose alternate until
    every row holds only its pivot (Kannan and Bachem, SIAM J. Comput. 8,
    1979); each pass leaves the factors unchanged, and a pass that keeps
    the first pivot clears its row and column for good.  The pivots are
    then turned into a divisibility chain by replacing each pair with its
    gcd and lcm, which leaves the group they present unchanged.
    """
    width, (rows, pivots) = mat.ncols, hermite_normal_form(mat)
    while any(len(row) > 1 for row in rows):
        # the transpose has a row per column of the last pass's input
        width, (rows, pivots) = len(rows), hermite_normal_form(IntMatrix.from_rows(
            [[row.get(j, 0) for row in rows] for j in range(width)], len(rows)))
    factors = [val for _, val in pivots]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return tuple(factors)


def cokernel_invariants(mat: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion factors) of Z^ncols / row span.

    The Hermite form has cleared every entry above a unit pivot, so each
    unit-pivot row only eliminates its own column and drops out with it.
    The rows left present the cokernel on the other columns and go through
    ``smith_normal_form``.
    """
    rows, pivots = hermite_normal_form(mat)
    units = {col for col, val in pivots if val == 1}
    keep = [j for j in range(mat.ncols) if j not in units]
    factors = smith_normal_form(IntMatrix.from_rows(
        [[row.get(j, 0) for j in keep] for row, (_, val) in zip(rows, pivots) if val != 1],
        len(keep)))
    return len(keep) - len(factors), tuple(d for d in factors if d > 1)
