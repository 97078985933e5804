"""The exact primitives against the plain algorithms they replaced.

KMatrix.inverse and det are one fraction-free elimination over O_K,
_smith_form scans for its pivot without tuples, _hnf_rows and index_in
work from the echelon pivots.  The references below are the earlier
implementations, kept verbatim apart from being free functions: Gauss-Jordan
over KElement, the tuple-scanning Smith form, the sort-based HNF and the
index through a pivot search per basis row.  Every output is canonical, so
the new code must agree with them exactly.
"""

import random
from fractions import Fraction

import pytest

from iqtheta import FieldId, KMatrix, SingularMatrixError, SublatticeError
from iqtheta.lattices import (
    IntLattice,
    _hnf_rows,
    _smith_form,
    index_in,
    lattice_image,
    lattice_intersect,
    standard_matrix_lattice,
)

# -- references ------------------------------------------------------------


def _reference_det(self):
    if not self.is_square():
        raise ValueError("determinant of a non-square matrix")
    n = self.rows
    work = [list(row) for row in self._entries]
    det = self.field.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot is None:
            return self.field.zero()
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        inv = self.field.one() / work[col][col]
        for r in range(col + 1, n):
            if work[r][col].is_zero():
                continue
            factor = work[r][col] * inv
            for c in range(col, n):
                work[r][c] = work[r][c] - factor * work[col][c]
    return det


def _reference_inverse(self):
    """Exact inverse by Gauss-Jordan elimination, pivot = first nonzero entry."""
    if not self.is_square():
        raise ValueError("inverse of a non-square matrix")
    n = self.rows
    work = [list(row) for row in self._entries]
    aug = [list(KMatrix.identity(n, self.field)._entries[i]) for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = self.field.one() / work[col][col]
        work[col] = [x * inv for x in work[col]]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r == col or work[r][col].is_zero():
                continue
            factor = work[r][col]
            work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
            aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return KMatrix(aug)


def _reference_hnf_rows(rows):
    """Canonical row Hermite normal form.

    Returns an echelon basis with positive pivots and the entries above each
    pivot reduced into [0, pivot).  Zero rows are dropped.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    result = []
    for col in range(ncols):
        live = [r for r in work if r[col] != 0]
        if not live:
            continue
        # gcd-eliminate until one row carries this column
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            for r in live[1:]:
                q = r[col] // base[col]
                for j in range(ncols):
                    r[j] -= q * base[j]
            live = [r for r in live if r[col] != 0]
        pivot_row = live[0]
        work.remove(pivot_row)
        work = [r for r in work if any(r)]
        result.append(pivot_row)
    # normalize pivot signs and reduce above-pivot entries
    pivots = []
    for r in result:
        p = next(j for j, x in enumerate(r) if x != 0)
        if r[p] < 0:
            for j in range(ncols):
                r[j] = -r[j]
        pivots.append(p)
    for i in range(len(result)):
        p = pivots[i]
        d = result[i][p]
        for k in range(i):
            q = result[k][p] // d
            if q:
                for j in range(ncols):
                    result[k][j] -= q * result[i][j]
    return result


def _reference_smith_form(a):
    """Smith normal form of A: returns (diag, V^-1) with U @ A @ V = D.

    diag is the nonnegative divisibility chain on the diagonal of D.  U is
    not kept; V^-1 is updated in place, each column operation on A acting
    on it as the inverse row operation.
    """
    rows = len(a)
    cols = len(a[0])
    A = [list(r) for r in a]
    V_inv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def add_row(dst, src, q):
        # row_dst += q * row_src
        for j in range(cols):
            A[dst][j] += q * A[src][j]

    def add_col(dst, src, q):
        # col_dst += q * col_src, so row_src(V^-1) -= q * row_dst(V^-1)
        for r in A:
            r[dst] += q * r[src]
        for j in range(cols):
            V_inv[src][j] -= q * V_inv[dst][j]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # a minimal-magnitude nonzero pivot of the trailing block, the first
        # in row-major order, moves to (t, t); a unit ends the search
        best = None
        for cand in ((abs(A[i][j]), i, j) for i in range(t, rows)
                     for j in range(t, cols) if A[i][j]):
            if best is None or cand < best:
                best = cand
                if cand[0] == 1:
                    break
        if best is None:
            break
        _, bi, bj = best
        A[t], A[bi] = A[bi], A[t]
        for r in A:
            r[t], r[bj] = r[bj], r[t]
        V_inv[t], V_inv[bj] = V_inv[bj], V_inv[t]
        dirty = False
        for i in range(t + 1, rows):
            if A[i][t] != 0:
                add_row(i, t, -(A[i][t] // A[t][t]))
                if A[i][t] != 0:
                    dirty = True
        if dirty:
            continue
        for j in range(t + 1, cols):
            if A[t][j] != 0:
                add_col(j, t, -(A[t][j] // A[t][t]))
                if A[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # force divisibility of the trailing block by the pivot (a unit
        # divides everything)
        p = A[t][t]
        stained = None if abs(p) == 1 else next(
            (i for i in range(t + 1, rows) if any(A[i][j] % p for j in range(t + 1, cols))), None)
        if stained is not None:
            add_row(t, stained, 1)
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
        t += 1
    return [A[i][i] for i in range(limit)], V_inv


def _reference_scaled_coordinates(self, nums, den):
    """coordinates() of the vector nums / den with integers nums and
    den > 0, by back-substitution down the echelon pivots."""
    s = self.scale
    if any(x * s % den for x in nums):
        return None
    target = [x * s // den for x in nums]
    coeffs = []
    for row in self.basis:
        p = next(j for j, x in enumerate(row) if x != 0)
        if target[p] % row[p] != 0:
            return None
        c = target[p] // row[p]
        coeffs.append(c)
        if c:
            for j in range(p, self.ambient_dim):
                target[j] -= c * row[j]
    return None if any(target) else coeffs


def _reference_index_in(L, S):
    """[L : S] for a finite-index sublattice S of L (no rep materialization).

    Full-rank HNF bases are upper triangular, so the index is the ratio of
    the covolumes: the products of the diagonals under each scale.
    """
    n = L.rank
    if n != L.ambient_dim or S.rank != n or S.ambient_dim != n:
        raise SublatticeError("index requires full-rank lattices")
    if not all(_reference_scaled_coordinates(L, row, S.scale) is not None
               for row in S.basis):
        raise SublatticeError("S is not a sublattice of L")
    num = L.scale**n
    den = S.scale**n
    for i in range(n):
        num *= S.basis[i][i]
        den *= L.basis[i][i]
    return num // den


# -- draws -----------------------------------------------------------------


def _entry(rng, field, dens):
    return field.element(Fraction(rng.randint(-4, 4), rng.choice(dens)),
                         Fraction(rng.randint(-3, 3), rng.choice(dens)))


def _singular(rng, field, n, dens):
    """An n x n matrix with no zero row whose last row is a K-combination
    of the others (row n-1 = sum c_i row_i, some c_i nonzero)."""
    while True:
        rows = [[_entry(rng, field, dens) for _ in range(n)] for _ in range(n - 1)]
        cs = [_entry(rng, field, dens) for _ in range(n - 1)]
        last = [field.zero()] * n
        for c, row in zip(cs, rows):
            last = [x + c * y for x, y in zip(last, row)]
        M = KMatrix(rows + [last])
        if all(not all(x.is_zero() for x in row) for row in M.entry_rows()):
            return M


def _int_matrix(rng, rows, cols, lo=-6, hi=6, rank=None):
    """A random integer matrix, of the given rank when rank is set (a
    product of rows x rank and rank x cols factors)."""
    if rank is None:
        return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]
    left = [[rng.randint(-2, 2) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rank)]
    return [[sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(cols)]
            for i in range(rows)]


# -- inverse and det -------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_and_det_equal_the_reference(d, n):
    field = FieldId(d)
    rng = random.Random(100 * d + n)
    for trial in range(30):
        dens = (1,) if trial % 3 == 0 else (1, 2, 3, 5, 6)
        M = KMatrix([[_entry(rng, field, dens) for _ in range(n)] for _ in range(n)])
        det = M.det()
        assert det == _reference_det(M)
        if det.is_zero():
            with pytest.raises(SingularMatrixError, match="matrix is singular"):
                M.inverse()
            continue
        inv = M.inverse()
        assert inv == _reference_inverse(M)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_singular_matrices_without_zero_rows(d, n):
    field = FieldId(d)
    rng = random.Random(900 + 10 * d + n)
    for trial in range(10):
        M = _singular(rng, field, n, (1,) if trial % 2 else (1, 2, 3))
        assert M.det() == _reference_det(M) == field.zero()
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            _reference_inverse(M)
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            M.inverse()


def test_inverse_and_det_need_square_matrices():
    field = FieldId(2)
    M = KMatrix([[field.one(), field.delta()]])
    with pytest.raises(ValueError, match="non-square"):
        M.inverse()
    with pytest.raises(ValueError, match="non-square"):
        M.det()


# -- Smith and Hermite forms -----------------------------------------------


@pytest.mark.parametrize("shape", [(1, 1), (2, 2), (3, 3), (4, 4), (6, 6),
                                   (2, 4), (4, 2), (3, 5), (5, 3)])
def test_smith_form_equals_the_reference(shape):
    rows, cols = shape
    rng = random.Random(rows * 31 + cols)
    for trial in range(40):
        rank = None if trial % 4 else rng.randint(0, min(rows, cols) - 1) or None
        a = _int_matrix(rng, rows, cols, rank=rank)
        if trial % 5 == 1:  # small entries: many ties for the pivot
            a = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(rows)]
        assert _smith_form(a) == _reference_smith_form(a)


def test_smith_form_of_zero_and_rank_deficient_matrices():
    for a in ([[0, 0], [0, 0]], [[0, 0, 0]], [[2, 4], [1, 2]], [[0, 3], [0, 6], [0, 9]]):
        assert _smith_form(a) == _reference_smith_form(a)


@pytest.mark.parametrize("shape", [(1, 3), (3, 3), (6, 6), (8, 6), (4, 6), (6, 4)])
def test_hnf_rows_equal_the_reference(shape):
    rows, cols = shape
    rng = random.Random(rows * 17 + cols)
    for trial in range(40):
        rank = None if trial % 3 else rng.randint(0, min(rows, cols))
        a = _int_matrix(rng, rows, cols, rank=rank or None)
        if rank == 0:
            a = [[0] * cols for _ in range(rows)]
        assert _hnf_rows(a) == _reference_hnf_rows(a)


# -- index -----------------------------------------------------------------


def _screen_pairs():
    """(L, L meet Lambda) of the images the group-order screen indexes."""
    rng = random.Random(44)
    pairs = []
    for d in (1, 2, 3, 7):
        field = FieldId(d)
        for g in (1, 2):
            for h in (1, 2, 3):
                for _ in range(3):
                    T = KMatrix([[_entry(rng, field, (1, 1, 2, 3)) for _ in range(h)]
                                 for _ in range(h)])
                    if T.det().is_zero():
                        continue
                    for M in (T.conj_transpose(), T.inverse()):
                        L = lattice_image(g, h, M)
                        pairs.append((L, lattice_intersect(L, standard_matrix_lattice(g, h))))
    return pairs


def test_index_in_equals_the_reference():
    rng = random.Random(7)
    pairs = _screen_pairs()
    assert len(pairs) > 100
    outcomes = set()
    for L, S in pairs:
        assert index_in(L, S) == _reference_index_in(L, S)
        # and a random full-rank lattice over L, a sublattice of L or not
        n = L.ambient_dim
        other = IntLattice.from_int_rows(
            [[rng.randint(-3, 3) * L.scale if j >= i else 0 for j in range(n)]
             for i in range(n)], rng.choice((1, 1, 2)), n)
        if other.rank == n:
            try:
                want = _reference_index_in(L, other)
            except SublatticeError:
                outcomes.add("outside")
                with pytest.raises(SublatticeError, match="not a sublattice"):
                    index_in(L, other)
            else:
                outcomes.add("inside")
                assert index_in(L, other) == want
    assert outcomes == {"inside", "outside"}


def test_index_in_error_paths():
    std = IntLattice.standard(2)
    half = IntLattice.from_int_rows([[1, 0], [0, 1]], 2, 2)
    line = IntLattice.from_int_rows([[1, 1]], 1, 2)
    for L, S in ((line, std), (std, line), (std, IntLattice.standard(3))):
        with pytest.raises(SublatticeError, match="full-rank"):
            _reference_index_in(L, S)
        with pytest.raises(SublatticeError, match="full-rank"):
            index_in(L, S)
    # half-integer vectors lie in (1/2)Z^2 but not in Z^2
    assert index_in(half, std) == _reference_index_in(half, std) == 4
    for L, S in ((std, half), (IntLattice.from_int_rows([[2, 1], [0, 3]], 1, 2),
                               IntLattice.from_int_rows([[1, 0], [0, 3]], 1, 2))):
        with pytest.raises(SublatticeError, match="not a sublattice"):
            _reference_index_in(L, S)
        with pytest.raises(SublatticeError, match="not a sublattice"):
            index_in(L, S)


def test_scaled_coordinates_equal_the_reference():
    rng = random.Random(23)
    for trial in range(200):
        n = rng.randint(1, 6)
        rank = rng.randint(1, n)
        L = IntLattice.from_int_rows(_int_matrix(rng, rank, n, -4, 4), rng.randint(1, 6), n)
        if L.rank == 0:
            continue
        if trial % 2:  # a vector of L, (sum c_i b_i) / scale
            k = rng.randint(1, 3)
            c = [rng.randint(-3, 3) for _ in L.basis]
            nums = [k * sum(ci * row[j] for ci, row in zip(c, L.basis)) for j in range(n)]
            den = k * L.scale
            assert _reference_scaled_coordinates(L, nums, den) == c
        else:
            nums, den = [rng.randint(-9, 9) for _ in range(n)], rng.randint(1, 6)
        assert L.scaled_coordinates(nums, den) == _reference_scaled_coordinates(L, nums, den)
