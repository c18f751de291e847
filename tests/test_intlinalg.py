"""Exact integer linear algebra: normal forms, kernels, lattices."""

from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pvb3 import intlinalg, nq
from pvb3.fpres import pv3_new_presentation, pv_presentation
from pvb3.intlinalg import (
    IntMatrix,
    NonSquareMatrixError,
    cokernel_invariants,
    determinant,
    hermite_normal_form,
    in_row_lattice,
    kernel_basis,
    rank,
    row_lattices_equal,
    smith_normal_form,
)
from pvb3.lie import lie_quotient


def rational_rank(rows):
    """Independent rank oracle: Gaussian elimination over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    ncols = len(a[0]) if a else 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


# Reference oracle: the dense Smith normal form with unimodular transforms
# that the package used before it read Smith factors and kernels off the
# Hermite form.

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


def reference_smith_form(mat: IntMatrix) -> SmithForm:
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


# Reference oracle: the dense Hermite normal form the package used before
# the sparse one.  The reduced form is unique, so both must agree exactly.

def dense_hermite_normal_form(mat: IntMatrix):
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


def checked_dense_hnf(mat: IntMatrix):
    """``hermite_normal_form`` with its sparse rows checked, then made dense.

    Each row must be a dict without zero values whose keys run from its
    pivot column to below ``mat.ncols``.
    """
    rows, pivots = hermite_normal_form(mat)
    assert len(rows) == len(pivots)
    for row, (col, _) in zip(rows, pivots):
        assert isinstance(row, dict) and all(row.values())
        assert min(row) == col and max(row) < mat.ncols
    return [[row.get(j, 0) for j in range(mat.ncols)] for row in rows], pivots


def membership_lattices_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Reference lattice equality: each matrix holds every row of the other."""
    if a.ncols != b.ncols:
        raise ValueError("column count mismatch")
    return (all(in_row_lattice(b, row) for row in a.entries)
            and all(in_row_lattice(a, row) for row in b.entries))


small_entries = st.integers(min_value=-9, max_value=9)
unit_free_entries = st.sampled_from([0, 2, 3, 4, 6])


@st.composite
def matrices(draw, max_dim=5, entries=small_entries):
    m = draw(st.integers(min_value=1, max_value=max_dim))
    n = draw(st.integers(min_value=1, max_value=max_dim))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    return IntMatrix.from_rows(rows)


@st.composite
def sparse_wide_matrices(draw):
    # up to four nonzero entries a row, none of them a unit, so Euclid
    # moves rows between leading columns and leaves non-unit pivots to
    # reduce above
    m = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=1, max_value=16))
    rows = []
    for _ in range(m):
        row = [0] * n
        for j in draw(st.lists(st.integers(min_value=0, max_value=n - 1), max_size=4)):
            row[j] = draw(st.sampled_from([-6, -4, -3, -2, 2, 3, 4, 6]))
        rows.append(row)
    return IntMatrix.from_rows(rows, n)


# matrices of every width with no rows at all
rowless_matrices = st.integers(min_value=0, max_value=5).map(lambda n: IntMatrix.from_rows([], n))


def smith_invariants(m):
    """Reference (free rank, torsion) of the cokernel, read off the dense Smith form."""
    sf = reference_smith_form(m)
    return m.ncols - sf.rank, sf.torsion


def test_diagonal_two_three_has_factors_one_six():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert smith_normal_form(m) == (1, 6)
    sf = reference_smith_form(m)
    assert sf.factors == (1, 6)
    assert sf.verify()


def test_zero_matrix_all_factors_zero():
    assert smith_normal_form(IntMatrix.from_rows([[0] * 4] * 3, 4)) == ()
    sf = reference_smith_form(IntMatrix.from_rows([[0] * 4] * 3, 4))
    assert sf.factors == (0, 0, 0)
    assert sf.rank == 0
    assert sf.verify()


def test_unimodular_fibonacci_matrix():
    m = IntMatrix.from_rows([[1, 1], [1, 0]])
    assert determinant(m) == -1
    assert abs(determinant(m)) == 1
    assert abs(determinant(IntMatrix.from_rows([[2, 0], [0, 1]]))) != 1


def test_determinant_rejects_rectangular():
    with pytest.raises(NonSquareMatrixError):
        determinant(IntMatrix.from_rows([[0] * 3] * 2, 3))


def test_determinant_empty_matrix_is_one():
    assert determinant(IntMatrix.from_rows([])) == 1


def test_cokernel_of_multiplication_by_two():
    free, torsion = cokernel_invariants(IntMatrix.from_rows([[2]]))
    assert (free, torsion) == (0, (2,))


def test_cokernel_with_free_part():
    # Z^3 modulo the rows of [[1,0,0],[0,2,0]] is Z/2 + Z
    free, torsion = cokernel_invariants(IntMatrix.from_rows([[1, 0, 0], [0, 2, 0]]))
    assert (free, torsion) == (1, (2,))


@given(matrices())
@settings(max_examples=200)
def test_smith_factorisation_verifies(m):
    sf = reference_smith_form(m)
    assert sf.verify()
    # divisibility chain
    for a, b in zip(sf.factors, sf.factors[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert all(d >= 0 for d in sf.factors)


@given(matrices())
@settings(max_examples=200)
def test_rank_matches_rational_oracle(m):
    expected = rational_rank(m.entries)
    assert rank(m) == expected
    assert len(smith_normal_form(m)) == expected


@given(matrices())
@settings(max_examples=200)
def test_kernel_vectors_annihilate_and_span(m):
    basis = kernel_basis(m)
    for v in basis:
        prod = [sum(a * b for a, b in zip(row, v)) for row in m.entries]
        assert not any(prod)
    assert len(basis) == m.ncols - rank(m)
    if basis:
        assert rank(IntMatrix.from_rows(basis)) == len(basis)


@given(st.one_of(matrices(), matrices(entries=unit_free_entries), rowless_matrices))
@settings(max_examples=300)
def test_kernel_basis_is_the_saturated_kernel_of_the_reference(m):
    # the columns of the reference's right transform at zero factors span
    # the whole integer kernel, so a kernel basis scaled by 2 fails here
    sf = reference_smith_form(m)
    expected = [tuple(row.get(j, 0) for row in sf.right.rows) for j in range(m.ncols)
                if j >= len(sf.factors) or sf.factors[j] == 0]
    assert row_lattices_equal(IntMatrix.from_rows(kernel_basis(m), m.ncols),
                              IntMatrix.from_rows(expected, m.ncols))


def test_kernel_of_matrix_without_rows_is_everything():
    assert kernel_basis(IntMatrix.from_rows([], 3)) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert kernel_basis(IntMatrix.from_rows([[2, 4]])) == [(2, -1)]


@given(matrices())
@settings(max_examples=200)
def test_hnf_pivots_strictly_increase(m):
    rows, pivots = checked_dense_hnf(m)
    cols = [c for c, _ in pivots]
    assert cols == sorted(set(cols))
    for row, (col, val) in zip(rows, pivots):
        assert val > 0
        assert row[col] == val
        assert not any(row[:col])
    # entries above a pivot are reduced
    for i, (col, val) in enumerate(pivots):
        for earlier in rows[:i]:
            assert 0 <= earlier[col] < val


@given(matrices(), st.lists(small_entries, min_size=5, max_size=5))
@settings(max_examples=200)
def test_integer_row_combinations_lie_in_row_lattice(m, coeffs):
    coeffs = coeffs[: m.nrows]
    vec = [0] * m.ncols
    for c, row in zip(coeffs, m.entries):
        for k in range(m.ncols):
            vec[k] += c * row[k]
    assert in_row_lattice(m, vec)


def test_membership_detects_non_members():
    m = IntMatrix.from_rows([[2, 0], [0, 2]])
    assert in_row_lattice(m, [4, -2])
    assert not in_row_lattice(m, [1, 0])
    assert not in_row_lattice(m, [2, 1])


def test_membership_in_matrix_without_rows():
    m = IntMatrix.from_rows([], 2)
    assert in_row_lattice(m, [0, 0])
    assert not in_row_lattice(m, [1, 0])
    with pytest.raises(ValueError):
        in_row_lattice(m, [0, 0, 0])


def test_lattice_equality_is_basis_independent():
    a = IntMatrix.from_rows([[1, 2], [0, 3]])
    b = IntMatrix.from_rows([[1, 5], [1, 2]])  # row ops applied to a
    assert row_lattices_equal(a, b)
    assert not row_lattices_equal(a, IntMatrix.from_rows([[1, 2], [0, 6]]))


@given(matrices(max_dim=4))
@settings(max_examples=100)
def test_smith_factors_invariant_under_row_shuffle(m):
    shuffled = IntMatrix.from_rows(list(reversed(m.entries)))
    assert smith_normal_form(m) == smith_normal_form(shuffled)


@given(st.one_of(matrices(max_dim=7), matrices(max_dim=6, entries=unit_free_entries),
                 rowless_matrices))
@settings(max_examples=300)
def test_smith_factors_match_the_reference(m):
    factors = smith_normal_form(m)
    assert factors == tuple(d for d in reference_smith_form(m).factors if d)
    assert all(d > 0 for d in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@pytest.mark.parametrize("rows, shapes", [
    ([[2, 4], [3, 6], [5, 10]], [(3, 2), (2, 1)]),
    ([[2, 4], [6, 3], [0, 9]], [(3, 2), (2, 2)]),
    ([[2, 4, 0, 6], [3, 6, 0, 9]], [(2, 4), (4, 1)]),
    ([[6, 4, 0, 2], [0, 3, 9, 6]], [(2, 4), (4, 2), (2, 2)]),
])
def test_smith_passes_transpose_non_square_sparse_rows(monkeypatch, rows, shapes):
    # each transpose has a row per column of the pass before and a column
    # per Hermite row it made
    seen = []

    def spy(mat):
        seen.append((mat.nrows, mat.ncols))
        return hermite_normal_form(mat)

    m = IntMatrix.from_rows(rows)
    monkeypatch.setattr(intlinalg, "hermite_normal_form", spy)
    assert smith_normal_form(m) == tuple(d for d in reference_smith_form(m).factors if d)
    assert seen == shapes


def test_matrix_without_rows_keeps_its_width():
    m = IntMatrix.from_rows([], 5)
    assert (m.nrows, m.ncols) == (0, 5)
    assert IntMatrix.from_rows([], 5) == m
    assert (m.transpose().nrows, m.transpose().ncols) == (5, 0)
    assert m.transpose().transpose() == m
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2]], 3)


def test_matrix_multiplication_shapes_and_identity():
    m = IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]])
    assert (IntMatrix.identity(2) * m).entries == m.entries
    assert (m * IntMatrix.identity(3)).entries == m.entries
    with pytest.raises(ValueError):
        m * m


@given(matrices(max_dim=7))
@settings(max_examples=300)
def test_cokernel_matches_smith_form(m):
    assert cokernel_invariants(m) == smith_invariants(m)


@given(matrices(max_dim=6, entries=unit_free_entries))
@settings(max_examples=200)
def test_cokernel_without_unit_entries_matches_smith_form(m):
    # no +-1 pivot exists, so the whole matrix is the leftover block
    assert cokernel_invariants(m) == smith_invariants(m)


@given(matrices(max_dim=5),
       st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6))
@settings(max_examples=200)
def test_cokernel_of_rank_deficient_matrix_matches_smith_form(m, picks):
    repeated = IntMatrix.from_rows(list(m.entries) + [m.entries[p % m.nrows] for p in picks])
    assert cokernel_invariants(repeated) == smith_invariants(repeated)
    assert cokernel_invariants(repeated) == cokernel_invariants(m)


@given(st.data())
@settings(max_examples=200)
def test_cokernel_through_unit_pivot_cascades(data):
    # Rows [I | B] and [0 | C] have the cokernel of C.  Random row
    # operations hide the unit diagonal, so each pivot fills in and exposes
    # the next.
    r, k, n = (data.draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    b_rows = [[data.draw(small_entries) for _ in range(n)] for _ in range(r)]
    c_rows = [[data.draw(small_entries) for _ in range(n)] for _ in range(k)]
    rows = ([[int(i == j) for j in range(r)] + row for i, row in enumerate(b_rows)]
            + [[0] * r + row for row in c_rows])
    ops = data.draw(st.lists(st.tuples(st.integers(0, r + k - 1), st.integers(0, r + k - 1),
                                       st.integers(-3, 3)), max_size=12))
    for i, j, q in ops:
        if i != j:
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    mixed = IntMatrix.from_rows(rows)
    expected = smith_invariants(IntMatrix.from_rows(c_rows))
    assert cokernel_invariants(mixed) == smith_invariants(mixed) == expected


@pytest.mark.parametrize("m, n", [(1, 1), (3, 4), (4, 2), (0, 5)])
def test_cokernel_of_zero_matrix_is_free(m, n):
    assert cokernel_invariants(IntMatrix.from_rows([[0] * n] * m, n)) == (n, ())


def test_cokernel_of_matrix_without_rows_is_trivial():
    assert cokernel_invariants(IntMatrix.from_rows([])) == (0, ()) == \
        smith_invariants(IntMatrix.from_rows([]))


@given(st.one_of(matrices(), matrices(entries=unit_free_entries), rowless_matrices))
@settings(max_examples=300)
def test_sparse_hnf_matches_the_dense_reference(m):
    assert checked_dense_hnf(m) == dense_hermite_normal_form(m)


@given(sparse_wide_matrices())
@settings(max_examples=300)
def test_sparse_hnf_matches_the_dense_reference_on_sparse_wide_matrices(m):
    assert checked_dense_hnf(m) == dense_hermite_normal_form(m)


def test_sparse_hnf_matches_the_dense_reference_on_pv3_nq_lattices(monkeypatch):
    lattices = []

    def recording(mat):
        lattices.append(mat)
        return hermite_normal_form(mat)

    monkeypatch.setattr(nq, "hermite_normal_form", recording)
    nq.nilpotent_quotient(pv_presentation(3), 4)
    assert len(lattices) == 4
    for mat in lattices:
        assert checked_dense_hnf(mat) == dense_hermite_normal_form(mat)


@pytest.mark.parametrize("degree", [3, 4])
def test_sparse_hnf_matches_the_dense_reference_on_lie_ideal_matrices(degree):
    mat = lie_quotient(pv3_new_presentation()).ideal_matrix(degree)
    assert checked_dense_hnf(mat) == dense_hermite_normal_form(mat)


def test_hnf_moves_a_row_that_loses_its_lead_and_reduces_above_a_non_unit_pivot():
    # row 2 minus twice row 1 is (0, -5, -6) and leads in column 1; made
    # positive, its pivot 5 reduces the 6 above it
    m = IntMatrix.from_rows([[2, 6, 3], [4, 7, 0]])
    assert checked_dense_hnf(m) == ([[2, 1, -3], [0, 5, 6]], [(0, 2), (1, 5)]) \
        == dense_hermite_normal_form(m)


def test_hnf_back_reduction_creates_and_cancels_entries_of_an_earlier_row():
    # the pivot in column 1 turns row 0 into (1, 0, -10, 0): a new entry in
    # column 2, which the pivot 3 there must still reach, and none left in
    # column 3, which the pivot 2 there must skip
    m = IntMatrix.from_rows([[1, 2, 0, 2], [0, 1, 5, 1], [0, 0, 3, 0], [0, 0, 0, 2]])
    expected = ([[1, 0, 2, 0], [0, 1, 2, 1], [0, 0, 3, 0], [0, 0, 0, 2]],
                [(0, 1), (1, 1), (2, 3), (3, 2)])
    assert checked_dense_hnf(m) == expected == dense_hermite_normal_form(m)


@given(st.data())
@settings(max_examples=300)
def test_lattice_equality_matches_the_membership_reference(data):
    # b is a row-operated copy of a, sometimes with a row scaled or added
    a = data.draw(matrices(max_dim=4))
    rows = [list(row) for row in a.entries]
    ops = data.draw(st.lists(st.tuples(st.integers(0, a.nrows - 1), st.integers(0, a.nrows - 1),
                                       st.integers(-3, 3)), max_size=8))
    for i, j, q in ops:
        if i != j:
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    rows[0] = [data.draw(st.sampled_from([1, 1, -1, 2])) * x for x in rows[0]]
    rows += data.draw(st.lists(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=a.ncols,
                                        max_size=a.ncols), max_size=1))
    b = IntMatrix.from_rows(rows, a.ncols)
    assert row_lattices_equal(a, b) == membership_lattices_equal(a, b) == row_lattices_equal(b, a)


def test_lattice_equality_rejects_a_width_mismatch():
    with pytest.raises(ValueError):
        row_lattices_equal(IntMatrix.from_rows([[1, 0]]), IntMatrix.from_rows([[1, 0, 0]]))


# a float or bool zero is rejected although it would not be stored
@pytest.mark.parametrize("rows", [[[2.5, 1]], [[True, 0]], [[2.5, 1], [True, 0]],
                                  [[0.0, 1]], [[1, False]]])
def test_from_rows_rejects_non_integers(rows):
    with pytest.raises(TypeError):
        IntMatrix.from_rows(rows)


@pytest.mark.parametrize("vec", [[2.9, 0], [True, 0], [2.0, 0]])
def test_membership_rejects_non_integer_vectors(vec):
    with pytest.raises(TypeError):
        in_row_lattice(IntMatrix.from_rows([[2, 0]]), vec)


@st.composite
def sparse_and_dense_rows(draw):
    """The same rows twice: as ``{column: nonzero entry}`` dicts and dense."""
    n = draw(st.integers(min_value=0, max_value=6))
    entries = st.integers(min_value=-9, max_value=9).filter(bool)
    sparse = draw(st.lists(st.dictionaries(st.integers(min_value=0, max_value=n - 1), entries,
                                           max_size=n) if n else st.just({}), max_size=6))
    return sparse, [[row.get(j, 0) for j in range(n)] for row in sparse], n


@given(sparse_and_dense_rows())
@settings(max_examples=200)
def test_sparse_construction_equals_the_dense_one(data):
    sparse, dense, n = data
    m = IntMatrix(sparse, n)
    assert m == IntMatrix.from_rows(dense, n)
    assert m.rows == tuple(sparse) and (m.nrows, m.ncols) == (len(dense), n)
    assert m.entries == tuple(map(tuple, dense))
    assert IntMatrix.from_rows(m.entries, n) == m


@pytest.mark.parametrize("row, error", [
    ({3: 1}, ValueError), ({-1: 1}, ValueError), ({0: 1, 1: 0}, ValueError),
    ({0: True}, TypeError), ({0: 2.5}, TypeError), ({True: 1}, TypeError), ({2.5: 1}, TypeError),
    ((1, 0, 0), TypeError),
])
def test_sparse_construction_rejects_bad_columns_and_entries(row, error):
    with pytest.raises(error):
        IntMatrix(({0: 1}, row), 3)


@given(st.one_of(matrices(), matrices(entries=unit_free_entries), sparse_wide_matrices(),
                 rowless_matrices))
@settings(max_examples=200)
def test_readers_leave_the_rows_unchanged(m):
    before = [dict(row) for row in m.rows]
    hermite_normal_form(m)
    smith_normal_form(m)
    cokernel_invariants(m)
    kernel_basis(m)
    assert list(m.rows) == before
