"""Exact linear algebra over the integers.

Rank, determinant, Hermite and Smith normal forms, integer kernels and
lattice membership.  Everything runs on arbitrary-precision Python ints;
no floating point is used anywhere.  One sparse elimination, the Hermite
normal form, is behind ranks, lattice membership and comparison, kernels,
Smith factors and cokernels; only the determinant eliminates on its own.
A matrix holds its rows as ``{column: nonzero entry}`` dicts, the format
the Hermite form reads and returns, so no reader here makes a row dense;
the exterior and Lie elements are dicts too, keyed by monomials instead
of columns.  ``Value`` is the immutable base of the package's value
types, this matrix among them.
"""

from __future__ import annotations

from collections import defaultdict
from math import gcd
from operator import attrgetter


def _check_ints(values) -> None:
    for x in values:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError("entries must be ints, got %r" % (x,))


class Value:
    """Immutable value: the fields named in order by ``_fields`` are set
    once, when the value is made, and ``==``, ``hash`` and ``repr`` read them.

    Assigning or deleting an attribute raises AttributeError, so fields
    are set through ``object.__setattr__``, which keeps the attributes
    inline and fast to read; ``functools.cached_property``, ``copy`` and
    ``pickle`` write ``__dict__`` directly, so caches, copies and pickles
    still work.
    """

    _fields: tuple[str, ...] = ()

    def __init__(self, *values) -> None:
        if len(values) != len(self._fields):
            raise TypeError("%s takes %d fields, got %d"
                            % (type(self).__name__, len(self._fields), len(values)))
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __init_subclass__(cls) -> None:
        # one C call fetches the fields for == and hash
        if "_fields" in vars(cls):
            cls._key = staticmethod(attrgetter(*cls._fields))

    def __eq__(self, other):
        if self is other:  # first: each Word product compares two alphabets
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))


class IntMatrix(Value):
    """Immutable integer matrix: a tuple of sparse rows and its width.

    Each row is a ``{column: nonzero int}`` dict, and a zero row is empty;
    ``rows`` may be given as any iterable of them and is kept as a tuple.
    The width is kept apart from the rows so that a matrix without rows
    still has its columns.  The row dicts are shared, not copied, and are
    never mutated, neither here nor by any function that reads them.
    """

    _fields = ("rows", "ncols")

    def __init__(self, rows, ncols: int) -> None:
        rows = tuple(rows)
        for row in rows:
            if not isinstance(row, dict):
                raise TypeError("rows must be {column: entry} dicts, got %r" % (row,))
            _check_ints(row)
            _check_ints(row.values())
            if row and not 0 <= min(row) <= max(row) < ncols:
                raise ValueError("column out of range 0..%d in %r" % (ncols - 1, row))
            if 0 in row.values():
                raise ValueError("sparse rows hold nonzero entries only, got %r" % (row,))
        super().__init__(rows, ncols)

    @staticmethod
    def from_rows(rows, ncols: int | None = None) -> "IntMatrix":
        """Matrix of dense ``rows``; ``ncols`` gives the width when ``rows`` may be empty."""
        dense = [tuple(row) for row in rows]
        if ncols is None:
            ncols = len(dense[0]) if dense else 0
        if any(len(row) != ncols for row in dense):
            raise ValueError("ragged rows")
        for row in dense:
            _check_ints(row)
        return IntMatrix(({j: x for j, x in enumerate(row) if x} for row in dense), ncols)

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(({i: 1} for i in range(n)), n)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        """The rows made dense."""
        return tuple(tuple(row.get(j, 0) for j in range(self.ncols)) for row in self.rows)

    def transpose(self) -> "IntMatrix":
        cols: list[dict[int, int]] = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return IntMatrix(cols, self.nrows)

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch: %dx%d times %dx%d"
                             % (self.nrows, self.ncols, other.nrows, other.ncols))
        out = []
        for row in self.rows:
            acc: dict[int, int] = {}
            for k, x in row.items():
                _subtract(acc, other.rows[k], -x)
            out.append(acc)
        return IntMatrix(out, other.ncols)


def rank(mat: IntMatrix) -> int:
    return len(hermite_normal_form(mat)[0])


def determinant(mat: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = mat.nrows
    if n != mat.ncols:
        raise ValueError("determinant of %dx%d matrix" % (mat.nrows, mat.ncols))
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
    Entries above a pivot are reduced into [0, pivot).  The rows of ``mat``
    are copied before elimination, never changed.

    Sparse rows wait in buckets by leading column while the columns are
    swept in order; Euclid on a column's rows reduces by the smallest entry,
    then the shortest row, and a row that loses its lead moves on to its new
    one (Dumas, Saunders and Villard, J. Symbolic Comput. 32, 2001).
    """
    buckets: dict[int, list[dict[int, int]]] = {}
    for row in mat.rows:
        if row:
            buckets.setdefault(min(row), []).append(dict(row))
    done: list[dict[int, int]] = []
    # column -> positions in ``done`` of the rows nonzero there, so that the
    # back-reduction visits only the rows a new pivot's column meets
    holders: defaultdict[int, set[int]] = defaultdict(set)
    pivots: list[tuple[int, int]] = []
    for col in range(mat.ncols):
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
        for i in list(holders.get(col, ())):
            r = done[i]
            q = r[col] // val
            if q:
                for j, x in pivot_row.items():
                    old = r.get(j, 0)
                    y = old - q * x
                    if y:
                        r[j] = y
                        if not old:
                            holders[j].add(i)
                    else:
                        del r[j]
                        holders[j].remove(i)
        for j in pivot_row:
            holders[j].add(len(done))
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
    return _in_hermite_span(*hermite_normal_form(mat), v)


def _in_hermite_span(rows, pivots, v: list) -> bool:
    """Whether the vector v lies in the span of the Hermite form (rows,
    pivots); v is reduced in place."""
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
    rows, pivots = hermite_normal_form(IntMatrix(
        ({**col, m + j: 1} for j, col in enumerate(mat.transpose().rows)), m + n))
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
        width, (rows, pivots) = len(rows), hermite_normal_form(
            IntMatrix(rows, width).transpose())
    factors = [val for _, val in pivots]
    for i in range(len(factors)):
        for j in range(i + 1, len(factors)):
            g = gcd(factors[i], factors[j])
            factors[i], factors[j] = g, factors[i] * factors[j] // g
    return tuple(factors)


def hermite_cokernel(rows, pivots, ncols: int):
    """({kept column: new index}, (free rank, torsion factors)) of
    Z^ncols / row span, from the lattice's Hermite form (rows, pivots).

    The Hermite form has cleared every entry above a unit pivot, so each
    unit-pivot row only eliminates its own column and drops out with it.
    The rows left are zero on those columns; re-keyed onto the kept ones
    they present the cokernel and go through ``smith_normal_form``.
    """
    units = {col for col, val in pivots if val == 1}
    keep = {j: k for k, j in enumerate(j for j in range(ncols) if j not in units)}
    factors = smith_normal_form(IntMatrix(
        ({keep[j]: x for j, x in row.items()} for row, (_, val) in zip(rows, pivots) if val != 1),
        len(keep)))
    return keep, (len(keep) - len(factors), tuple(d for d in factors if d > 1))


def cokernel_invariants(mat: IntMatrix) -> tuple[int, tuple[int, ...]]:
    """(free rank, torsion factors) of Z^ncols / row span."""
    return hermite_cokernel(*hermite_normal_form(mat), mat.ncols)[1]
