"""Integer lattices, finite quotients, and exact character sums."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from iqtheta import (
    FieldId,
    GroupCapError,
    KMatrix,
    SublatticeError,
    character_group,
    character_orthogonality_report,
    character_phase,
    shift_group,
)
from iqtheta.lattices import (
    IntLattice,
    _hnf_rows,
    index_in,
    lattice_image,
    lattice_intersect,
    lattice_sum,
    quotient_group,
    standard_matrix_lattice,
)


def kmatrix_to_coords(M):
    """Row-major (a, b) coordinates of a g x h matrix: a vector in Q^(2gh)."""
    return tuple(c for row in M.entry_rows() for x in row for c in (x.a, x.b))


def rational_basis(L):
    """The basis rows of L as rational vectors."""
    return [[Fraction(x, L.scale) for x in row] for row in L.basis]


def test_hnf_basis_is_canonical():
    # same lattice from different generating sets must normalize identically
    rows_a = [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(3)]]
    rows_b = [
        [Fraction(3), Fraction(3)],  # row sums and swaps of the above
        [Fraction(1), Fraction(3)],
        [Fraction(2), Fraction(0)],
    ]
    La = IntLattice.from_rational_rows(rows_a, 2)
    Lb = IntLattice.from_rational_rows(rows_b, 2)
    assert La == Lb
    assert La.basis == Lb.basis and La.scale == Lb.scale
    # reducing above a later pivot must not re-dirty an earlier pivot column
    Lc = IntLattice.from_int_rows([[1, 3, 0], [0, 2, 1], [0, 0, 4]], 1, 3)
    Ld = IntLattice.from_int_rows([[1, 1, 3], [0, 2, 1], [0, 0, 4]], 1, 3)
    assert Lc == Ld
    assert Lc.basis == ((1, 1, 3), (0, 2, 1), (0, 0, 4))


def _assert_hnf(basis):
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    assert pivots == sorted(set(pivots))
    for i, p in enumerate(pivots):
        assert basis[i][p] > 0
        for k in range(i):
            assert 0 <= basis[k][p] < basis[i][p]


def test_hnf_canonical_under_unimodular_row_operations():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 5)
        rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(rng.randint(1, n))]
        base = IntLattice.from_int_rows(rows, 1, n)
        _assert_hnf(base.basis)
        mixed = [list(r) for r in rows]
        for _ in range(12):
            i, j = rng.sample(range(len(mixed)), 2) if len(mixed) > 1 else (0, 0)
            op = rng.randint(0, 2)
            if op == 0 and i != j:
                q = rng.randint(-3, 3)
                mixed[i] = [x + q * y for x, y in zip(mixed[i], mixed[j])]
            elif op == 1:
                mixed[i], mixed[j] = mixed[j], mixed[i]
            else:
                mixed[i] = [-x for x in mixed[i]]
        assert IntLattice.from_int_rows(mixed, 1, n) == base


def test_membership_and_index():
    L = IntLattice.from_rational_rows(
        [[Fraction(1, 2), Fraction(0)], [Fraction(0), Fraction(1)]], 2
    )
    S = IntLattice.standard(2)
    assert L.contains([Fraction(1, 2), Fraction(3)])
    assert not L.contains([Fraction(1, 3), Fraction(0)])
    assert index_in(L, S) == 2


def _reference_intersect(L1, L2):
    """L1 meet L2 through a left kernel: the rows x of HNF([M | I]) with
    x M = 0, for M the basis of L1 stacked on minus that of L2."""
    s = math.lcm(L1.scale, L2.scale)
    n = L1.ambient_dim
    a1 = [[x * (s // L1.scale) for x in row] for row in L1.basis]
    stacked = a1 + [[-x * (s // L2.scale) for x in row] for row in L2.basis]
    k = len(stacked)
    aug = [row + [int(i == j) for j in range(k)] for i, row in enumerate(stacked)]
    kernel = [r[n:] for r in _hnf_rows(aug) if not any(r[:n])]
    rows = [[sum(kv[i] * a1[i][j] for i in range(len(a1))) for j in range(n)]
            for kv in kernel]
    return IntLattice.from_int_rows(rows, s, n)


def _random_T(rng, field, h):
    while True:
        T = KMatrix([[field.element(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                    Fraction(rng.randint(-2, 2), rng.randint(1, 2)))
                      for _ in range(h)] for _ in range(h)])
        if not T.det().is_zero():
            return T


def _intersection_pairs():
    rng = random.Random(11)
    pairs = []
    while len(pairs) < 40:  # random full-rank pairs of dimension 2 to 6
        n = rng.randint(2, 6)
        L1, L2 = (IntLattice.from_rational_rows(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)], n) for _ in range(2))
        if L1.rank == L2.rank == n:
            pairs.append((L1, L2))
    for d in (1, 2, 3, 7):  # the images that the groups intersect with Lambda
        field = FieldId(d)
        for g in (1, 2):
            for h in (1, 2, 3):
                T = _random_T(rng, field, h)
                for M in (T.conj_transpose(), T.inverse()):
                    pairs.append((lattice_image(g, h, M), standard_matrix_lattice(g, h)))
    return pairs


def test_sum_and_intersection_sandwich():
    # the intersection is the one a left-kernel construction gives, so it is
    # no proper sublattice of L1 meet L2, and [L1 : L1 meet L2] = [L1 + L2 : L2]
    for L1, L2 in _intersection_pairs():
        inter = lattice_intersect(L1, L2)
        total = lattice_sum(L1, L2)
        assert inter == _reference_intersect(L1, L2) == lattice_intersect(L2, L1)
        for vec in rational_basis(inter):
            assert L1.contains(vec) and L2.contains(vec)
        for vec in rational_basis(L1) + rational_basis(L2):
            assert total.contains(vec)
        assert index_in(L1, inter) == index_in(total, L2)
        assert index_in(L2, inter) == index_in(total, L1)


def test_intersection_refuses_rank_deficient_lattices():
    std = IntLattice.standard(2)
    line = IntLattice.from_rational_rows([[Fraction(1), Fraction(1)]], 2)
    for pair in ((line, std), (std, line), (line, line)):
        with pytest.raises(SublatticeError):
            lattice_intersect(*pair)
    with pytest.raises(ValueError):
        lattice_intersect(std, IntLattice.standard(3))


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_image_is_canonical(d):
    # lattice_image returns the canonical HNF under the normalized scale, so
    # it equals the lattice of its own basis rows and the image it is read
    # back as inside the sum with Lambda (character_orthogonality_report)
    rng = random.Random(200 + d)
    field = FieldId(d)
    for g in (1, 2):
        for h in (1, 2, 3):
            T = _random_T(rng, field, h)
            for M in (T.conj_transpose(), T.inverse()):
                image = lattice_image(g, h, M)
                assert image == IntLattice.from_int_rows(
                    image.basis, image.scale, image.ambient_dim)
                total = lattice_sum(image, standard_matrix_lattice(g, h))
                assert lattice_intersect(total, image) == image


def test_quotient_invariant_factors_diagonal_case():
    # (1/3)Z x (1/2)Z over Z x Z has invariant factors (1|6) -> [6] here
    L = IntLattice.from_rational_rows(
        [[Fraction(1, 3), Fraction(0)], [Fraction(0), Fraction(1, 2)]], 2
    )
    S = IntLattice.standard(2)
    field = FieldId(1)
    grp = quotient_group(L, lattice_intersect(L, S), field, 1, 1, 10**6)
    assert grp.order == 6
    assert list(grp.invariant_factors) == [6]
    assert len(grp.representatives) == 6


def test_quotient_group_against_sympy_smith_form():
    from sympy.matrices.normalforms import smith_normal_form

    rng = random.Random(23)
    field = FieldId(2)
    for trial in range(8):
        h = 1 + trial % 2
        n = 2 * h
        while True:
            basis = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                      for _ in range(n)] for _ in range(n)]
            L = IntLattice.from_rational_rows(basis, n)
            if L.rank == n:
                break
        while True:
            m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if sympy.Matrix(m).det() != 0 and abs(sympy.Matrix(m).det()) <= 60:
                break
        lb = rational_basis(L)
        S = IntLattice.from_rational_rows(
            [[sum(m[i][k] * lb[k][j] for k in range(n)) for j in range(n)]
             for i in range(n)], n)
        grp = quotient_group(L, S, field, 1, h)
        c_rows = [L.coordinates(row) for row in rational_basis(S)]
        snf = smith_normal_form(sympy.Matrix(c_rows))
        expected = sorted(abs(int(snf[i, i])) for i in range(n))
        assert list(grp.invariant_factors) == [x for x in expected if x > 1]
        assert grp.order == index_in(L, S) == len(grp.representatives)
        coords = [kmatrix_to_coords(r) for r in grp.representatives]
        assert all(L.contains(c) for c in coords)
        for i in range(len(coords)):
            for j in range(i):
                diff = [x - y for x, y in zip(coords[i], coords[j])]
                assert not S.contains(diff)


def test_coordinates_round_trip():
    L = IntLattice.from_rational_rows(
        [[Fraction(1, 2), Fraction(1, 3)], [Fraction(0), Fraction(2, 3)]], 2
    )
    vec = [Fraction(3, 2), Fraction(-1, 3)]
    c = L.coordinates(vec)
    back = [sum(ci * row[j] for ci, row in zip(c, rational_basis(L))) for j in range(2)]
    assert back == vec
    assert L.coordinates([Fraction(1, 4), Fraction(0)]) is None


def test_group_cap_raises():
    field = FieldId(1)
    T = KMatrix.from_rational_rows([[Fraction(1, 97)]], field)
    with pytest.raises(GroupCapError):
        shift_group(1, T, max_order=100)


@pytest.mark.parametrize("d,expected", [(1, 27), (3, 27)])
def test_cubic_like_group_orders(d, expected):
    # T^-1 integral with |N(det T)| = 27 forces |G1| = 27 and trivial G2
    field = FieldId(3)
    one = field.one()
    w1 = field.delta() - one
    w2 = w1 * w1
    T = KMatrix([[one, one, one], [one, w1, w2], [one, w2, w1]]).scale(
        Fraction(1, 3)
    )
    g1 = shift_group(1, T)
    g2 = character_group(1, T)
    assert g1.order == expected
    assert g2.is_trivial()
    assert list(g1.invariant_factors) == [3, 3, 3]


def test_cartan_chain_group_orders():
    # lower bidiagonal T with diag (1/h, ..., 1) gives order prod j^2 at d in {1,3}
    for d, h, expected in ((1, 2, 4), (3, 2, 4), (1, 3, 36), (3, 3, 36)):
        field = FieldId(d)
        zero = field.zero()
        rows = []
        for i in range(h):
            row = [zero] * h
            row[i] = field.from_rational(Fraction(1, h - i))
            rows.append(row)
        for i in range(1, h):
            rows[i][i - 1] = field.from_rational(Fraction(-1, h - i + 1))
        T = KMatrix(rows).scale(field.one() / field.delta().conj())
        g1 = shift_group(1, T)
        assert g1.order == expected, (d, h)
        assert character_group(1, T).is_trivial()


def test_covolume_identity_random_T():
    # |G1| * |N(det T)|^g equals the index of the intersection in Lambda
    rng = random.Random(23)
    field = FieldId(2)
    checked = 0
    while checked < 8:
        T = KMatrix(
            [
                [field.element(Fraction(rng.randint(-2, 2), rng.randint(1, 2)),
                               Fraction(rng.randint(-1, 1), 1))
                 for _ in range(2)]
                for _ in range(2)
            ]
        )
        det = T[(0, 0)] * T[(1, 1)] - T[(0, 1)] * T[(1, 0)]
        if det.is_zero():
            continue
        try:
            g1 = shift_group(1, T, max_order=10**5)
        except GroupCapError:
            continue
        image = lattice_image(1, 2, T.conj_transpose())
        std = standard_matrix_lattice(1, 2)
        inter = lattice_intersect(image, std)
        lhs = g1.order * det.norm()
        rhs = index_in(std, inter)
        assert lhs == rhs, (lhs, rhs)
        checked += 1


def _generic_image_rows(g, h, M):
    # one generator per (row, column, basis element) of Mat(g, h; O_K)
    field = M.field
    rows = []
    for j in range(g):
        for k in range(h):
            for beta in (field.one(), field.delta()):
                N = [[field.zero()] * h for _ in range(g)]
                N[j][k] = beta
                rows.append(kmatrix_to_coords(KMatrix(N) @ M))
    return rows


def _abs_det(rows):
    mat = [list(r) for r in rows]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        det *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            mat[r] = [x - f * y for x, y in zip(mat[r], mat[col])]
    return abs(det)


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_image_and_index_match_generic_construction(d):
    # lattice_image against the HNF of all 2gh generator rows, and index_in
    # against the covolume ratio from Fraction elimination
    rng = random.Random(100 + d)
    field = FieldId(d)
    for g in (1, 2, 3):
        for h in (1, 2, 3):
            while True:
                T = KMatrix(
                    [
                        [field.element(Fraction(rng.randint(-3, 3), rng.randint(1, 3)),
                                       rng.randint(-2, 2))
                         for _ in range(h)]
                        for _ in range(h)
                    ]
                )
                if not T.det().is_zero():
                    break
            std = standard_matrix_lattice(g, h)
            for M in (T.conj_transpose(), T.inverse()):
                image = lattice_image(g, h, M)
                generic = IntLattice.from_rational_rows(
                    _generic_image_rows(g, h, M), 2 * g * h
                )
                assert image == generic, (d, g, h)
                inter = lattice_intersect(image, std)
                ratio = _abs_det(rational_basis(inter)) / _abs_det(
                    rational_basis(image)
                )
                assert ratio.denominator == 1
                assert index_in(image, inter) == ratio, (d, g, h)
                assert index_in(std, inter) == _abs_det(rational_basis(inter))


def test_index_in_error_paths():
    L = IntLattice.from_rational_rows(
        [[Fraction(2), Fraction(0)], [Fraction(1), Fraction(3)]], 2
    )
    std = IntLattice.standard(2)
    with pytest.raises(SublatticeError):
        index_in(L, std)  # (1, 0) is not in L
    assert index_in(std, L) == 6
    line = IntLattice.from_rational_rows([[Fraction(1), Fraction(1)]], 2)
    with pytest.raises(SublatticeError):
        index_in(std, line)
    with pytest.raises(SublatticeError):
        index_in(line, line)
    with pytest.raises(SublatticeError):
        lattice_image(1, 2, KMatrix.from_rational_rows([[1, 2], [2, 4]], FieldId(1)))


def test_character_phase_exact():
    field = FieldId(3)
    M = KMatrix([[field.element(Fraction(1, 3), Fraction(1, 2))]])
    B = KMatrix([[field.element(Fraction(1, 5), Fraction(1, 7))]])
    q = character_phase(M, B)
    assert isinstance(q, Fraction)
    assert 0 <= q < 1


def test_smith_normal_form_against_sympy():
    rng = random.Random(31)
    for _ in range(6):
        rows = [[rng.randint(-4, 4) for _ in range(3)] for _ in range(3)]
        m = sympy.Matrix(rows)
        if m.det() == 0:
            continue
        # sympy gives the diagonal of the Smith form over ZZ
        from sympy.matrices.normalforms import smith_normal_form

        snf = smith_normal_form(m)
        diag = [abs(int(snf[i, i])) for i in range(3) if snf[i, i] != 0]
        # quotient Z^3 / rows Z^3 has those invariant factors (dropping 1s)
        L = IntLattice.standard(3)
        S = IntLattice.from_rational_rows(
            [[Fraction(x) for x in row] for row in rows], 3
        )
        assert index_in(L, S) == abs(int(m.det()))
        nontrivial = [x for x in diag if x != 1]
        grp_order = 1
        for x in nontrivial:
            grp_order *= x
        assert grp_order == abs(int(m.det()))


def test_matsumoto_groups_match():
    field = FieldId(1)
    one = field.one()
    i_ = field.delta()
    c = (one - i_) * Fraction(1, 2)
    T = KMatrix([[c, c], [c, -c]])
    for g in (1, 2):
        g1 = shift_group(g, T)
        g2 = character_group(g, T)
        assert g1.order == 2**g
        assert g2.order == 2**g
        assert g1.invariant_factors == g2.invariant_factors


def test_orthogonality_report_both_directions():
    # in-image cosets give the trivial character sum, others split into
    # equally weighted roots of unity summing to zero; checked exactly
    field = FieldId(1)
    one = field.one()
    i_ = field.delta()
    c = (one - i_) * Fraction(1, 2)
    T = KMatrix([[c, c], [c, -c]])
    report = character_orthogonality_report(1, T)
    assert any(r["in_image"] for r in report)
    assert any(not r["in_image"] for r in report)
    for r in report:
        assert r["ok"]
        for q in r["phases"]:
            assert isinstance(q, Fraction)  # exact, no floats anywhere


def test_shift_group_identity_trivial():
    field = FieldId(5)
    T = KMatrix.identity(2, field)
    assert shift_group(1, T).is_trivial()
    assert character_group(1, T).is_trivial()


def test_group_json_rep_cap():
    field = FieldId(3)
    one = field.one()
    w1 = field.delta() - one
    w2 = w1 * w1
    T = KMatrix([[one, one, one], [one, w1, w2], [one, w2, w1]]).scale(
        Fraction(1, 3)
    )
    group = shift_group(1, T)
    blob = group.to_json(rep_limit=5)
    # the listed representatives are built from their coordinates alone
    assert "representatives" not in group.__dict__
    assert blob["order"] == 27
    assert len(blob["representatives"]) == 5
    assert blob["representatives_truncated"] is True
    assert blob["representatives"] == [r.to_json() for r in group.representatives[:5]]
    full = group.to_json()
    assert full["representatives"] == [r.to_json() for r in group.representatives]
    assert "representatives_truncated" not in full
    assert group.to_json(rep_limit=27) == full


@pytest.mark.parametrize("d", [2, 3, 7])
def test_orthogonality_exact_at_ramified_prime(d):
    # T = [[sqrt(-d)]] has |G2| = d for d = 3 mod 4 and |G2| = 2 for d = 2;
    # these orders share a factor with the index of O_K in its Re-pairing
    # dual, so they only pass because character_phase twists B into the dual
    field = FieldId(d)
    T = KMatrix([[field.sqrt_minus_d()]])
    g2 = character_group(1, T)
    assert g2.order == (d if d % 4 == 3 else 2)
    report = character_orthogonality_report(1, T)
    assert any(not r["in_image"] for r in report)
    assert all(r["ok"] for r in report)
