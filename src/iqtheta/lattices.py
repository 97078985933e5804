"""Z-lattices of matrices over O_K and their finite quotients.

A g x h matrix over K is identified with a vector in Q^(2gh) by reading each
entry's coordinates (a, b) over the basis {1, delta}, row-major.  Matrices
over O_K become exactly Z^(2gh).  Images of the standard lattice under right
multiplication, intersections, and finite quotients are all computed in this
coordinate picture with exact integer arithmetic (Hermite and Smith normal
forms).  The row HNF is canonical, so a lattice has one representation.  An
intersection reads one basis over the other by back-substitution and takes
one Smith form; a quotient L/S reads the coordinates of S over the HNF basis
of L the same way, and its order and one generator per invariant factor
are read off the Smith form and the inverse of its column transform, all
kept in integers; its cosets, sums of those generators, are made only
when read.  The index [L : S] of full-rank lattices reads the diagonal
pivots: each row of S back-substitutes from its diagonal on, and the index
is the ratio of the diagonal products.  Images of T^-1 take the inverse
from KMatrix.inverse, one fraction-free elimination over O_K.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .errors import GroupCapError, SublatticeError
from .kfield import FieldId, KMatrix, _reduced, dual_generator, re_trace_of_product

# ---------------------------------------------------------------------------
# integer matrix helpers (rows are vectors; all exact)
# ---------------------------------------------------------------------------


def _hnf_rows(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical row Hermite normal form.

    Returns an echelon basis with positive pivots and the entries above each
    pivot reduced into [0, pivot).  Zero rows are dropped.  Column by
    column, the rows still in play are gcd-eliminated by the one of least
    magnitude until one row carries the column; it becomes the next pivot
    row and reduces the rows above it.  The rows in play are zero before the
    column, so every row operation starts there.
    """
    work = [list(r) for r in rows]
    if not work:
        return []
    ncols = len(work[0])
    result: list[list[int]] = []
    for col in range(ncols):
        live = [r for r in work if r[col]]
        if not live:
            continue
        work = [r for r in work if not r[col]]
        while True:
            base, least = live[0], abs(live[0][col])
            for r in live:
                x = r[col]
                if -least < x < least:
                    base, least = r, abs(x)
            b = base[col]
            left = []
            for r in live:
                if r is not base:
                    q = r[col] // b
                    for j in range(col, ncols):
                        r[j] -= q * base[j]
                    (left if r[col] else work).append(r)
            if not left:
                break
            left.append(base)
            live = left
        if b < 0:
            for j in range(col, ncols):
                base[j] = -base[j]
            b = -b
        for r in result:
            q = r[col] // b
            if q:
                for j in range(col, ncols):
                    r[j] -= q * base[j]
        result.append(base)
    return result


def _smith_form(a: Sequence[Sequence[int]]) -> tuple[list[int], list[list[int]]]:
    """Smith normal form of A: returns (diag, V^-1) with U @ A @ V = D.

    diag is the nonnegative divisibility chain on the diagonal of D.  U is
    not kept; V^-1 is updated in place, each column operation on A acting
    on it as the inverse row operation.  Rows and columns before the
    current pivot t are zero off the diagonal, so the operations start at
    t (their entries there would stay zero).
    """
    rows = len(a)
    cols = len(a[0])
    A = [list(r) for r in a]
    V_inv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    t = 0
    limit = min(rows, cols)
    while t < limit:
        # a minimal-magnitude nonzero pivot of the trailing block, the first
        # in row-major order, moves to (t, t); a unit ends the search
        best, bi, bj = 0, t, t
        for i in range(t, rows):
            row = A[i]
            for j in range(t, cols):
                x = row[j]
                if x:
                    if x < 0:
                        x = -x
                    if x < best or not best:
                        best, bi, bj = x, i, j
                        if x == 1:
                            break
            if best == 1:
                break
        if not best:
            break
        if bi != t:
            A[t], A[bi] = A[bi], A[t]
        if bj != t:
            for r in A[t:]:
                r[t], r[bj] = r[bj], r[t]
            V_inv[t], V_inv[bj] = V_inv[bj], V_inv[t]
        dirty = False
        top = A[t]
        p = top[t]
        for i in range(t + 1, rows):
            row = A[i]
            if row[t]:
                q = row[t] // p
                for j in range(t, cols):
                    row[j] -= q * top[j]
                if row[t]:
                    dirty = True
        if dirty:
            continue
        # col_j -= q col_t, so row_t(V^-1) += q row_j(V^-1); column t is
        # zero below the pivot now, so the column operation changes top only
        vt = V_inv[t]
        for j in range(t + 1, cols):
            if top[j]:
                q = top[j] // p
                top[j] -= q * p
                for k, v in enumerate(V_inv[j]):
                    vt[k] += q * v
                if top[j]:
                    dirty = True
        if dirty:
            continue
        # force divisibility of the trailing block by the pivot (a unit
        # divides everything)
        stained = None if abs(p) == 1 else next(
            (i for i in range(t + 1, rows) if any(map(p.__rmod__, A[i][t + 1:]))), None)
        if stained is not None:
            for j, x in enumerate(A[stained]):
                top[j] += x
            continue
        if p < 0:
            A[t] = [-x for x in top]
        t += 1
    return [A[i][i] for i in range(limit)], V_inv


# ---------------------------------------------------------------------------
# coordinate maps
# ---------------------------------------------------------------------------


def _int_coords(M: KMatrix) -> tuple[list[int], int]:
    """(nums, den) with nums / den the row-major (a, b) coordinates of the
    entries a + b*delta of M, a vector in Q^(2gh), and den their least
    common denominator."""
    den = math.lcm(*(x.den for row in M.entry_rows() for x in row))
    nums: list[int] = []
    for row in M.entry_rows():
        for x in row:
            k = den // x.den
            nums.append(x.n * k)
            nums.append(x.m * k)
    return nums, den


def coords_to_kmatrix(nums: Sequence[int], den: int, g: int, h: int, field: FieldId) -> KMatrix:
    """The g x h matrix whose row-major (a, b) coordinates are nums / den."""
    if len(nums) != 2 * g * h:
        raise ValueError("coordinate vector has wrong length")
    return KMatrix(
        [
            [_reduced(nums[k], nums[k + 1], den, field)
             for k in range(2 * h * i, 2 * h * (i + 1), 2)]
            for i in range(g)
        ]
    )


# ---------------------------------------------------------------------------
# lattices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLattice:
    """(1/scale) * Z-span of the HNF basis rows inside Q^ambient_dim.

    Normalized so that gcd(scale, all basis entries) = 1; two lattices are
    equal iff their dataclass fields are.
    """

    ambient_dim: int
    scale: int
    basis: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.basis)

    @staticmethod
    def standard(dim: int) -> "IntLattice":
        rows = tuple(tuple(1 if i == j else 0 for j in range(dim)) for i in range(dim))
        return IntLattice(dim, 1, rows)

    @staticmethod
    def from_rational_rows(rows: Sequence[Sequence[Fraction]], dim: int) -> "IntLattice":
        scale = 1
        for row in rows:
            for x in row:
                scale = scale * x.denominator // math.gcd(scale, x.denominator)
        int_rows = [[int(x * scale) for x in row] for row in rows]
        return IntLattice.from_int_rows(int_rows, scale, dim)

    @staticmethod
    def from_int_rows(rows: Sequence[Sequence[int]], scale: int, dim: int) -> "IntLattice":
        """(1/scale) * Z-span of integer rows, normalized."""
        hnf = _hnf_rows(rows)
        g = math.gcd(scale, *itertools.chain.from_iterable(hnf)) if hnf else 1
        if g > 1:
            scale //= g
            hnf = [[x // g for x in row] for row in hnf]
        return IntLattice(dim, scale, tuple(tuple(r) for r in hnf))

    def coordinates(self, vec: Sequence[Fraction]) -> Optional[list[int]]:
        """Integer coefficients of vec over the basis rows, None if vec is
        not in the lattice."""
        vec = [Fraction(x) for x in vec]
        den = math.lcm(*(x.denominator for x in vec))
        return self.scaled_coordinates([int(x * den) for x in vec], den)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """The pivot column of each basis row."""
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.basis)

    def scaled_coordinates(self, nums: Sequence[int], den: int) -> Optional[list[int]]:
        """coordinates() of the vector nums / den with integers nums and
        den > 0, by back-substitution down the echelon pivots.

        The target scale nums - den sum_i c_i b_i stays in integers: the
        coefficient at a pivot p with entry e is its p-th entry over den e,
        and the vector lies in the lattice when each of these divisions is
        exact and nothing is left off the pivots."""
        s = self.scale
        target = [x * s for x in nums]
        coeffs: list[int] = []
        for row, p in zip(self.basis, self.pivots):
            c, r = divmod(target[p], den * row[p])
            if r:
                return None
            coeffs.append(c)
            if c:
                c *= den
                for j in range(p, self.ambient_dim):
                    target[j] -= c * row[j]
        return None if any(target) else coeffs

    def contains(self, vec: Sequence[Fraction]) -> bool:
        return self.coordinates(vec) is not None

    def contains_kmatrix(self, M: KMatrix) -> bool:
        return self.scaled_coordinates(*_int_coords(M)) is not None


def lattice_image(g: int, h: int, M: KMatrix) -> IntLattice:
    """The lattice {N @ M : N in Mat(g, h; O_K)} in coordinates.

    M must be a nonsingular h x h matrix over K.  Right multiplication acts
    on each row of N separately, so the image is g diagonal copies of the
    one-row image under one scale; a block-diagonal matrix of HNF blocks is
    already in HNF.
    """
    if M.rows != M.cols or M.rows != h:
        raise ValueError("M must be h x h")
    # generators 1 * M_row and delta * M_row of each row image, where
    # delta * (a + b delta) = -N(delta) b + (a + Tr(delta) b) delta, all
    # over the common denominator of M
    nrm, tr = M.field.delta_norm, M.field.delta_trace
    nums, den = _int_coords(M)
    rows: list[list[int]] = []
    for i in range(h):
        ab = nums[2 * h * i:2 * h * (i + 1)]
        rows.append(ab)
        rows.append([c for a, b in zip(ab[::2], ab[1::2])
                     for c in (-nrm * b, a + tr * b)])
    row_lat = IntLattice.from_int_rows(rows, den, 2 * h)
    if row_lat.rank != 2 * h:
        raise SublatticeError("image lattice is not full rank (singular M)")
    pad = [0] * (2 * h)
    basis = tuple(
        tuple(pad * j + list(r) + pad * (g - 1 - j))
        for j in range(g)
        for r in row_lat.basis
    )
    return IntLattice(2 * g * h, row_lat.scale, basis)


def lattice_sum(L1: IntLattice, L2: IntLattice) -> IntLattice:
    if L1.ambient_dim != L2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    s = math.lcm(L1.scale, L2.scale)
    rows = [[x * (s // L.scale) for x in row] for L in (L1, L2) for row in L.basis]
    return IntLattice.from_int_rows(rows, s, L1.ambient_dim)


def lattice_intersect(L1: IntLattice, L2: IntLattice) -> IntLattice:
    """L1 meet L2 for full-rank lattices, read off one Smith form.

    Over L2's triangular basis B2, L1's basis is K / D with K = s2 B1
    adj(B2) and D = s1 det(B2) (back-substitution).  With U K V = diag(a_i),
    L1 is spanned by the rows (a_i / D) (V^-1)_i, V^-1 unimodular, so the
    meet with Z^n is spanned by lcm(a_i, D) / D (V^-1)_i, mapped through B2.
    """
    if L1.ambient_dim != L2.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = L1.ambient_dim
    if L1.rank != n or L2.rank != n:
        raise SublatticeError("intersection requires full-rank lattices")
    B2 = L2.basis
    # the columns of B2 that are not unit vectors, each with its pivot and
    # its nonzero entries above the pivot (none for Lambda)
    cols = [(j, B2[j][j], [(i, B2[i][j]) for i in range(j) if B2[i][j]]) for j in range(n)]
    cols = [(j, p, above) for j, p, above in cols if above or p != 1]
    det2 = math.prod(p for _, p, _ in cols)
    c = det2 * L2.scale
    K = []
    for row in L1.basis:
        y = [c * x for x in row]  # y B2 = det(B2) s2 row, y = s2 row adj(B2)
        for j, p, above in cols:
            acc = y[j]
            for i, b in above:
                acc -= y[i] * b
            y[j] = acc // p
        K.append(y)
    D = L1.scale * det2
    diag, v_inv = _smith_form(K)
    rows = []
    for a, v in zip(diag, v_inv):
        m = math.lcm(a, D) // D
        r = [m * x for x in v]
        vec = r[:]  # r B2
        for j, p, above in cols:
            vec[j] = r[j] * p + sum(r[i] * b for i, b in above)
        rows.append(vec)
    return IntLattice.from_int_rows(rows, L2.scale, n)


# ---------------------------------------------------------------------------
# finite quotients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """A finite quotient L/S as its Smith form gives it.

    invariant_factors is the ascending divisibility chain (entries > 1),
    order their product and generators one vector per factor, in integer
    coordinates over scale (see _int_coords: row-major (a, b) of each entry
    of a g x h matrix over field).  The cosets, sums of the generators
    listed mixed-radix (last factor fastest, the zero coset first), are
    made only when read: coords keeps them all, representatives as KMatrix
    values, and to_json(rep_limit) makes only those it lists.
    """

    invariant_factors: tuple[int, ...]
    order: int
    generators: tuple[tuple[int, ...], ...]
    scale: int
    g: int
    h: int
    field: FieldId

    def _cosets(self) -> Iterator[tuple[int, ...]]:
        vecs = iter([(0,) * (2 * self.g * self.h)])
        for d, gen in zip(self.invariant_factors, self.generators):
            vecs = _multiples(vecs, d, gen)
        return vecs

    @cached_property
    def coords(self) -> tuple[tuple[int, ...], ...]:
        # through a list: a tuple grown from an iterator rejoins the youngest
        # GC generation at each resize, so every young collection walks it
        return tuple(list(self._cosets()))

    @cached_property
    def representatives(self) -> tuple[KMatrix, ...]:
        return tuple(coords_to_kmatrix(v, self.scale, self.g, self.h, self.field)
                     for v in self.coords)

    def is_trivial(self) -> bool:
        return self.order == 1

    def to_json(self, rep_limit: Optional[int] = None) -> dict:
        """The group as JSON, listing the first rep_limit representatives
        (all of them without a limit), each made from its coordinates."""
        listed = list(itertools.islice(self._cosets(), rep_limit))
        out = {
            "invariant_factors": list(self.invariant_factors),
            "order": self.order,
            "representatives": [
                coords_to_kmatrix(v, self.scale, self.g, self.h, self.field).to_json()
                for v in listed],
        }
        if len(listed) < self.order:
            out["representatives_truncated"] = True
        return out


def _multiples(vecs: Iterator[tuple], d: int, gen: tuple) -> Iterator[tuple]:
    """Each vector of vecs, then it plus gen, 2 gen, ..., (d - 1) gen."""
    for vec in vecs:
        for _ in range(d):
            yield vec
            vec = tuple(map(operator.add, vec, gen))


def quotient_group(
    L: IntLattice,
    S: IntLattice,
    field: FieldId,
    g: int,
    h: int,
    max_order: int = 10**6,
) -> FiniteAbelianGroup:
    """The quotient L/S for a finite-index full-rank sublattice S of L.

    Its invariant factors are the Smith form of S's coordinates over the
    lattice basis of L, and its generators the rows of V^-1 at those
    factors mapped back through that basis, in integers over L.scale; no
    coset is made here (see FiniteAbelianGroup).
    """
    if L.ambient_dim != S.ambient_dim:
        raise ValueError("ambient dimensions differ")
    n = L.rank
    if n != L.ambient_dim or S.rank != n:
        raise SublatticeError("quotient requires full-rank lattices")
    c_rows: list[list[int]] = []
    for srow in S.basis:
        coeffs = L.scaled_coordinates(srow, S.scale)
        if coeffs is None:
            raise SublatticeError("S is not a sublattice of L")
        c_rows.append(coeffs)
    # S's coordinates over L are nonsingular here, so no factor is 0
    diag, v_inv = _smith_form(c_rows)
    order = math.prod(diag)
    if order > max_order:
        raise GroupCapError(f"quotient order {order} exceeds cap {max_order}")
    factors = tuple(d for d in diag if d > 1)
    gens = tuple(tuple(sum(v[i] * L.basis[i][j] for i in range(j + 1)) for j in range(n))
                 for d, v in zip(diag, v_inv) if d > 1)
    return FiniteAbelianGroup(factors, order, gens, L.scale, g, h, field)


def standard_matrix_lattice(g: int, h: int) -> IntLattice:
    """Mat(g, h; O_K) in coordinates: exactly Z^(2gh)."""
    return IntLattice.standard(2 * g * h)


def quotient_lattices(g: int, M: KMatrix) -> tuple[IntLattice, IntLattice]:
    """(L, S) for L = Lambda @ M and S = L meet Lambda, Lambda =
    Mat(g, h; O_K): L / S is the shift group for M = conj_transpose(T) and
    the character group for M = T^-1, and index_in(L, S) its order."""
    h = M.rows
    L = lattice_image(g, h, M)
    return L, lattice_intersect(L, standard_matrix_lattice(g, h))


def shift_group(g: int, T: KMatrix, max_order: int = 10**6) -> FiniteAbelianGroup:
    """The quotient (Lambda @ conj_transpose(T)) / its intersection with Lambda.

    Its cosets index the characteristic shifts on the right-hand side of the
    relation; Lambda = Mat(g, h; O_K).
    """
    L, S = quotient_lattices(g, T.conj_transpose())
    return quotient_group(L, S, T.field, g, T.rows, max_order)


def character_group(g: int, T: KMatrix, max_order: int = 10**6) -> FiniteAbelianGroup:
    """The quotient (Lambda @ T^-1) / its intersection with Lambda.

    Its cosets index the character twists summed on the right-hand side.
    """
    L, S = quotient_lattices(g, T.inverse())
    return quotient_group(L, S, T.field, g, T.rows, max_order)


def character_phase(M: KMatrix, B: KMatrix) -> Fraction:
    """Re Tr(conj_transpose(M) @ c B) reduced mod 1 into [0, 1).

    c = dual_generator(field) moves B into the lattice dual to Lambda under
    the Re pairing; without it the phases fail to be characters of the
    quotient for d > 1 (O_K is self dual only for d = 1).
    """
    q = re_trace_of_product(M, B.scale(dual_generator(B.field)))
    return q - (q.numerator // q.denominator)


def index_in(L: IntLattice, S: IntLattice) -> int:
    """[L : S] for a finite-index sublattice S of L (no rep materialization).

    Full-rank HNF bases are upper triangular, so the index is the ratio of
    the covolumes: the products of the diagonals under each scale.
    """
    n = L.rank
    if n != L.ambient_dim or S.rank != n or S.ambient_dim != n:
        raise SublatticeError("index requires full-rank lattices")
    # row i of S, over the scale of L, back-substituted from column i on:
    # both bases are upper triangular with their pivots on the diagonal
    B, num, den = L.basis, L.scale, S.scale
    for i, row in enumerate(S.basis):
        t = [x * num for x in row]
        for j in range(i, n):
            if t[j]:
                c, r = divmod(t[j], den * B[j][j])
                if r:
                    raise SublatticeError("S is not a sublattice of L")
                c *= den
                bj = B[j]
                for k in range(j + 1, n):
                    t[k] -= c * bj[k]
    num **= n
    den **= n
    for i in range(n):
        num *= S.basis[i][i]
        den *= B[i][i]
    return num // den


def character_orthogonality_report(
    g: int, T: KMatrix, max_order: int = 10**6
) -> list[dict]:
    """Exact-arithmetic check of the character sums over the B-group.

    For each representative M of (Lambda conj_transpose(T) + Lambda) modulo
    Lambda conj_transpose(T), collects the exact phases q_B over the B-group
    and decides, purely in rational arithmetic, whether the character sum is
    |G2| (trivial character, forced by M in the image lattice) or 0 (the
    phases form all m-th roots of unity with equal multiplicity).
    """
    h = T.rows
    field = T.field
    image = lattice_image(g, h, T.conj_transpose())
    total = lattice_sum(image, standard_matrix_lattice(g, h))
    cosets = quotient_group(total, image, field, g, h, max_order)
    g2 = character_group(g, T, max_order)
    report = []
    for M in cosets.representatives:
        phases = [character_phase(M, B) for B in g2.representatives]
        in_image = image.contains_kmatrix(M)
        distinct = sorted(set(phases))
        m = len(distinct)
        counts = [sum(1 for q in phases if q == v) for v in distinct]
        if in_image:
            ok = distinct == [Fraction(0)]
        else:
            ok = (
                m > 1
                and distinct == [Fraction(j, m) for j in range(m)]
                and len(set(counts)) == 1
            )
        report.append(
            {
                "rep": M,
                "in_image": in_image,
                "phases": phases,
                "sum_is_order": in_image,
                "sum_is_zero": not in_image,
                "ok": ok,
            }
        )
    return report
