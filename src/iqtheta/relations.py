"""Construction and numerical verification of theta transformation relations.

Given an invertible T in Mat(h; K) and a Hermitian positive definite P, the
series Theta^Q with Q = conj(T)^t P T expands as a finite character sum:

    Theta^Q[A0 conj(T)^-t; B0 T](W)
        = (1 / #G2) * sum over B in G2, A in G1 of
            exp(-2*pi*i * Re Tr(conj(A0)^t c B))
            * Theta^P[A0 + A; B0 + c B](W)

where G1 = Lambda conj(T)^t / (Lambda conj(T)^t meet Lambda) and
G2 = Lambda T^-1 / (Lambda T^-1 meet Lambda) for Lambda = Mat(g, h; O_K),
and c = dual_generator(field).  The scalar c places the shifted vectors in
the lattice dual to Lambda under the Re pairing, which is what makes
B |-> exp(2*pi*i*Re Tr(conj(N + A)^t c B)) run through every character of
Lambda / (Lambda meet Lambda conj(T)^t) exactly once; with c omitted the
collapse fails for d > 1 whenever #G2 shares a factor with d (or with 2
when -d is not 1 mod 4), because O_K is not self dual there.
Both sides are computed independently here; the report carries the residual.

A Hermitian positive definite P over K is P = L^H D L, with L unipotent
lower triangular and D the diagonal of its rational pivots, so
Theta^P[A0; B0] is the left side of the relation of (L, D) at A0 L^H and
B0 L^-1, whose right side is an exact-coefficient polynomial in
one-column thetas.

Every side is a sum of products of thetas, compiled in integers as it is
emitted, by one emitter (_Emitter) into one type (_Sum): a relation's two
sides (RelationInstance.lhs, and rhs by _right_side, which also restates
a relation over a preset's printed classes), a decomposition's
expansion, and each side of a preset identity check (_sum).  A factor is one theta
(a, b, P) over O_K or Z: scaling W by s is scaling P by s, and the phase
of a check-variant theta is part of its term's coefficient, so every
factor reads W itself.  A side's leaves are keyed by integers
(thetas._leaf_keys) and interned by family (the leaves that share P and
A0 and differ in B0), then by B0; its rows are (q, leaf indices).
Lowering (`_lower_terms`) puts each family into one table of distinct
leaves (thetas._Family) and each product of several leaves (an exactly
diagonal P, split into columns) after them, once per owner and
ThetaParams (_Plans).  Evaluation (`_sum_terms`) takes one W in one pass:
it checks W once, evaluates each leaf once into a list of values that
belongs to that one evaluation, one thetas._theta_batch per group of
families that share a P, then each product, and multiplies each row's
entries by index in the order the terms and factors are written.  The
first failing group raises its error.  The evaluation and hit counts are
the plan's leaf count and its leaf reads beyond them.  A relation and an
identity check compare their sides in one function (_compare_sides), as
does the decompose command: Theta^P[A0; B0] (_theta_sum) against the
expansion.
Evaluations of several plans at one W can share a table of family values
(a thetas.ThetaCache passed as cache, as a suite entry does): each batch
then evaluates only the families that the table lacks at that W and
radius.  The counts stay the plan's, so a report does not depend on what
the table held.
The compiled sum is the only description of a side: a relation's terms
(RelationInstance.terms) and a decomposition's monomials
(PDecomposition.monomials) are its rows, and no KMatrix characteristic is
built for them.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Iterable, Optional, Sequence

from . import thetas
from .errors import DomainError, GroupCapError, SingularMatrixError
from .kfield import (
    FieldId,
    KMatrix,
    dual_generator,
    json_int,
)
from .lattices import (
    FiniteAbelianGroup,
    _int_coords,
    character_group,
    shift_group,
)
from .thetas import (
    _BASES,
    MatrixLike,
    ThetaCache,
    ThetaParams,
    _as_complex_matrix,
    _at,
    _check_w_shape,
    _Family,
    _leaf_keys,
    _p_parts,
    _part_keys,
    _phase_of,
    _product,
    _weights,
)

__all__ = [
    "RelationSpec",
    "RelationInstance",
    "VerificationReport",
    "build_relation",
    "evaluate_relation",
    "decompose_rational_P",
    "PDecomposition",
]


# -- sums of coefficient times product of thetas -------------------------------


@dataclass(frozen=True)
class _Plan:
    """Compiled sums lowered for one ThetaParams (see _lower_terms), read
    by index from one table of values per evaluation (_sum_terms).

    The table holds each family's leaves, family by family (family f's
    leaf j is entry starts[f] + j), each group of families (one P) filled
    by one batch, then each product's value: the product of its leaves
    (thetas._product), as a factor of several leaves is.  A row
    (coefficient, table indices) is its coefficient times those entries,
    left to right."""

    families: tuple[_Family, ...]  # each distinct (group, A0) once, in first-read order
    starts: tuple[int, ...]  # per family its first table entry, then the leaf count
    groups: tuple[tuple[int, ...], ...]  # family indices, one batch each
    products: tuple[tuple[int, ...], ...]  # leaf entries; table entry starts[-1] + k
    sides: tuple[tuple[tuple[complex, tuple[int, ...]], ...], ...]
    reads: int  # the leaf reads of the rows, a product's leaves each one


@dataclass(frozen=True)
class _Sum:
    """A sum compiled to integer leaves as it was emitted (see _Emitter).
    families holds each distinct (P, A0) once, in first-read order, as
    (index into ps, A0, its B0 keys, their leaf indices), A0 and each B0 as
    they are keyed (thetas._Family), and ps each distinct part of P with
    its key, as thetas._p_parts gives them; a row (q, leaf indices) stands
    for coeff_scale * exp(-2*pi*i*q / q_den) times its factors, each the
    product of factor_leaves of its leaves at eps / factor_leaves, every
    theta summed over the lattice ("O_K" or "Z", see thetas._BASES)."""

    ps: tuple[tuple[KMatrix, tuple[tuple[int, ...], int]], ...]
    families: tuple[tuple[int, tuple, tuple[tuple, ...], tuple[int, ...]], ...]
    rows: tuple[tuple[int, tuple[int, ...]], ...]
    q_den: int = 1
    coeff_scale: Fraction = Fraction(1)
    factor_leaves: int = 1
    lattice: str = "O_K"


class _Emitter:
    """The leaves of one _Sum, interned as they are emitted: each part of P
    once, by its key (part), and each family once, by (part index, A0), as
    a dict B0 -> leaf index (families), where a new B0 takes the next leaf
    index.  Parts, families and leaves are numbered in first-read order,
    leaves across families."""

    def __init__(self) -> None:
        self.ps: dict = {}  # P key -> (its index, the part with its key)
        self.families = defaultdict(partial(defaultdict, itertools.count().__next__))

    def part(self, p: tuple[KMatrix, tuple]) -> int:
        """The index of the part p, as thetas._p_parts gives it."""
        return self.ps.setdefault(p[1], (len(self.ps), p))[0]

    def sum(self, rows: Iterable[tuple[int, tuple[int, ...]]], a_key: Optional[Callable] = None,
            b_key: Optional[Callable] = None, **side) -> _Sum:
        """The rows (q, leaf indices), read in full first, as a _Sum with the
        fields side gives; a_key and b_key key the A0 and B0 that the
        families were interned by (thetas._int_key), when they are not keys."""
        rows = tuple(rows)
        return _Sum(
            ps=tuple(p for _, p in self.ps.values()), rows=rows, **side,
            families=tuple((j, a if a_key is None else a_key(a),
                            tuple(fam if b_key is None else map(b_key, fam)),
                            tuple(fam.values()))
                           for (j, a), fam in self.families.items()))


def _sum(rows: Iterable[tuple[int, Iterable[tuple]]], **side) -> _Sum:
    """The rows (q, leaves) as a _Sum with the fields side gives, a leaf
    (P part, A0, B0) as thetas._leaf_keys gives it."""
    emit = _Emitter()
    return emit.sum(((q, tuple([emit.families[emit.part(p), a][b] for p, a, b in leaves]))
                     for q, leaves in rows), **side)


def _theta_sum(P: KMatrix, A0: KMatrix, B0: KMatrix) -> _Sum:
    """Theta^P[A0; B0] with coefficient 1, compiled: one row, one factor of
    the leaves of thetas._leaf_keys."""
    leaves = _leaf_keys(P, A0, B0)
    return _sum([(0, leaves)], factor_leaves=len(leaves))


def _lower_terms(params: ThetaParams, sides: Iterable[_Sum]) -> _Plan:
    """Lower compiled sums together into one plan, so they share leaves.

    Each family of a side goes straight into one thetas._Family, interned
    by (group, A0) and then by B0, and the side's rows read its leaf
    indices through the interned ones.  Every leaf is interned before any
    row is built, so each product of several leaves follows them."""
    families: list[_Family] = []
    index: dict[tuple, int] = {}  # (group, A0) -> family index

    def intern(fam: _Family) -> tuple[int, Sequence[int]]:
        """fam's index in families and the positions of its B0 keys there."""
        f = index.setdefault((fam.group, fam.a), len(families))
        if f == len(families):
            families.append(fam)
            return f, range(len(fam.bs))
        return f, list(map(families[f].intern, fam.bs))

    # per side, per family its leaf indices and where they went
    staged = []
    for side in sides:
        w = side.factor_leaves
        leaf_params = replace(params, eps=params.eps / w) if w > 1 else params
        basis = _BASES[side.lattice]
        staged.append((side, [(ids, intern(_Family(side.ps[j][0].field, *side.ps[j], a,
                                                   leaf_params, basis, bs)))
                              for j, a, bs, ids in side.families]))

    starts = (0, *itertools.accumulate(len(fam.bs) for fam in families))
    n = starts[-1]
    products: dict[tuple[int, ...], int] = {}
    rows = []
    reads = 0
    for side, got in staged:
        ids = [0] * sum(len(leaf_ids) for leaf_ids, _ in got)
        for leaf_ids, (f, slots) in got:
            for i, j in zip(leaf_ids, slots):
                ids[i] = starts[f] + j
        w = side.factor_leaves
        scale = float(side.coeff_scale)
        coeffs = {q: scale * _phase_of(q, side.q_den)
                  for q in {q for q, _ in side.rows}}
        rows.append(tuple([
            (coeffs[q], tuple(map(ids.__getitem__, idx)) if w == 1 else
             tuple(n + products.setdefault(tuple(map(ids.__getitem__, idx[k:k + w])),
                                           len(products))
                   for k in range(0, len(idx), w)))
            for q, idx in side.rows]))
        reads += sum(len(idx) for _, idx in side.rows)
    groups: dict[tuple, list[int]] = {}
    for f, fam in enumerate(families):
        groups.setdefault(fam.group, []).append(f)
    return _Plan(families=tuple(families), starts=starts,
                 groups=tuple(map(tuple, groups.values())),
                 products=tuple(products), sides=tuple(rows), reads=reads)


class _Plans(dict):
    """An owner's compiled sides lowered together (_lower_terms), so they
    share leaves: params -> its plan, lowered on first use."""

    def __init__(self, *sides: _Sum) -> None:
        super().__init__()
        self.sides = sides

    def __missing__(self, params: ThetaParams) -> _Plan:
        plan = self[params] = _lower_terms(params, self.sides)
        return plan


def _sum_terms(
    plan: _Plan, W: MatrixLike, cache: Optional[ThetaCache] = None
) -> tuple[list[complex], int, int]:
    """The plan at W: the sum of each side, and the theta evaluations and
    hits of the plan's leaf reads.

    One pass: W is checked once (thetas._at), and against each group's g
    before any batch runs; then each group of families, field and Riemann
    alike, is one thetas._theta_batch, in group order, filling its
    families' table entries.  The batch reads and fills cache, a table of
    family values shared with other evaluations, when one is given.  The
    first failing group raises its error.  The evaluations are the plan's
    leaves, the hits its other leaf reads, whatever cache held.
    Each term starts from its coefficient and multiplies its table entries
    left to right; real and imaginary parts are summed with fsum.
    """
    at = _at(_as_complex_matrix(W, "W"))
    for group in plan.groups:
        _check_w_shape(plan.families[group[0]].g, at)
    evals = plan.starts[-1]
    table: list = [None] * evals
    batch = thetas._theta_batch if cache is None else partial(thetas._theta_batch, cache=cache)
    for group in plan.groups:
        families = [plan.families[f] for f in group]
        for f, v in zip(group, batch(families, at.w, at.lam_y)):
            table[plan.starts[f]:plan.starts[f + 1]] = v.values
    for f in plan.products:
        table.append(_product(map(table.__getitem__, f)))
    sums = []
    for side in plan.sides:
        re_parts: list[float] = []
        im_parts: list[float] = []
        for acc, idx in side:
            for i in idx:
                acc *= table[i]
            re_parts.append(acc.real)
            im_parts.append(acc.imag)
        sums.append(complex(math.fsum(re_parts), math.fsum(im_parts)))
    return sums, evals, plan.reads - evals


@dataclass(frozen=True)
class VerificationReport:
    """Residual of lhs against rhs and the verdict under the tolerance."""

    lhs: complex
    rhs: complex
    residual_abs: float
    residual_rel: float
    term_count: int
    theta_evals: int
    cache_hits: int
    tolerance: float
    passed: bool

    @classmethod
    def compare(
        cls,
        lhs: complex,
        rhs: complex,
        term_count: int,
        theta_evals: int,
        cache_hits: int,
        eps: float,
    ) -> "VerificationReport":
        """Report lhs against rhs, passing when the relative residual is at
        most max(1e-9, 4 * term_count * eps)."""
        residual_abs = abs(lhs - rhs)
        denom = max(abs(lhs), abs(rhs), 1e-12)
        residual_rel = residual_abs / denom
        tolerance = max(1e-9, term_count * 4.0 * eps)
        return cls(
            lhs=lhs,
            rhs=rhs,
            residual_abs=residual_abs,
            residual_rel=residual_rel,
            term_count=term_count,
            theta_evals=theta_evals,
            cache_hits=cache_hits,
            tolerance=tolerance,
            passed=residual_rel <= tolerance,
        )

    def to_json(self) -> dict:
        out = asdict(self)
        out["lhs"] = [self.lhs.real, self.lhs.imag]
        out["rhs"] = [self.rhs.real, self.rhs.imag]
        return out


def _compare_sides(plans: _Plans, W: MatrixLike, params: Optional[ThetaParams],
                   term_count: int, scale: Optional[float] = None,
                   cache: Optional[ThetaCache] = None) -> VerificationReport:
    """The first side of plans against the second at W (see _sum_terms,
    which reads family values through cache when one is given), the second
    times scale, outside its sum, when a scale is given."""
    if params is None:
        params = ThetaParams()
    (lhs, rhs), evals, hits = _sum_terms(plans[params], W, cache)
    if scale is not None:
        rhs = scale * rhs
    return VerificationReport.compare(lhs, rhs, term_count, evals, hits, params.eps)


# -- relation instances ---------------------------------------------------------


def _check_g(g: int) -> int:
    """g, read as the row count of a characteristic: ValueError under 1."""
    if g < 1:
        raise ValueError(f"g must be >= 1, got g = {g}")
    return g


@dataclass(frozen=True)
class RelationSpec:
    """Input data (d, g, T, P, A0, B0) of one relation instance.

    T is h x h invertible over K, P is h x h Hermitian positive definite
    with exact entries, A0 and B0 are g x h characteristics over K.
    """

    field: FieldId
    g: int
    T: KMatrix
    P: KMatrix
    A0: KMatrix
    B0: KMatrix
    name: str = ""

    @property
    def h(self) -> int:
        return self.T.rows

    def validate(self) -> None:
        _check_g(self.g)
        h = self.h
        if self.T.cols != h:
            raise DomainError("T must be square")
        if self.P.rows != h or self.P.cols != h:
            raise DomainError("P must match the size of T")
        if self.P.conj_transpose() != self.P:
            raise DomainError("P must be Hermitian")
        for m, nm in ((self.A0, "A0"), (self.B0, "B0")):
            if m.rows != self.g or m.cols != h:
                raise DomainError(f"{nm} must be {self.g} x {h}")
        for m in (self.T, self.P, self.A0, self.B0):
            if m.field != self.field:
                raise DomainError("all matrices must live over the same field")

    def to_json(self) -> dict:
        return {
            "d": self.field.d,
            "g": self.g,
            "T": self.T.to_json(),
            "P": self.P.to_json(),
            "A0": self.A0.to_json(),
            "B0": self.B0.to_json(),
            "name": self.name,
        }

    @staticmethod
    def from_json(obj: dict) -> "RelationSpec":
        field = FieldId(json_int(obj["d"], "d"))
        spec = RelationSpec(
            field=field,
            g=_check_g(json_int(obj["g"], "g")),
            T=KMatrix.from_json(obj["T"], field),
            P=KMatrix.from_json(obj["P"], field),
            A0=KMatrix.from_json(obj["A0"], field),
            B0=KMatrix.from_json(obj["B0"], field),
            name=str(obj.get("name", "")),
        )
        spec.validate()
        return spec


@dataclass(frozen=True)
class RelationInstance:
    """A relation: its left side Theta^Q[lhs_A; lhs_B], its groups, and its
    right side compiled (rhs, see build_relation).  The common factor
    scale = 1/#G2 stays outside the sum."""

    spec: RelationSpec
    Q: KMatrix
    lhs_A: KMatrix
    lhs_B: KMatrix
    G1: FiniteAbelianGroup
    G2: FiniteAbelianGroup
    rhs: _Sum

    @property
    def scale(self) -> Fraction:
        return Fraction(1, self.G2.order)

    @property
    def terms(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The compiled rows of the right side, one per term, which the
        benchmark's tracer counts."""
        return self.rhs.rows

    @cached_property
    def lhs(self) -> _Sum:
        """The left side, Theta^Q[lhs_A; lhs_B] with coefficient 1, compiled
        (see _theta_sum)."""
        return _theta_sum(self.Q, self.lhs_A, self.lhs_B)

    @cached_property
    def _plans(self) -> _Plans:
        return _Plans(self.lhs, self.rhs)

    def group_metadata(self) -> dict:
        return {
            "G1_order": self.G1.order,
            "G1_invariant_factors": list(self.G1.invariant_factors),
            "G2_order": self.G2.order,
            "G2_invariant_factors": list(self.G2.invariant_factors),
            "term_count": self.G1.order * self.G2.order,
        }


def _check_term_count(g1: FiniteAbelianGroup, g2: FiniteAbelianGroup, max_order: int) -> None:
    """GroupCapError when the relation over g1 and g2 has over max_order terms."""
    if g1.order * g2.order > max_order:
        raise GroupCapError(
            f"the relation has {g1.order * g2.order} terms, over the cap {max_order}")


def _check_max_order(max_order: float) -> None:
    """ValueError for a cap below 1; math.inf caps nothing."""
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")


def build_relation(spec: RelationSpec, max_order: int = 10**6) -> RelationInstance:
    """Assemble the groups, and the right side over them (_right_side): A
    runs over G1 and b = c B over G2, each factor one theta, the product
    of its leaves.

    max_order caps each group and the term count |G1| |G2|, which is
    checked before the expansion is built: GroupCapError over the cap,
    ValueError for a cap below 1."""
    _check_max_order(max_order)
    spec.validate()
    try:
        lhs_A = spec.A0 @ spec.T.conj_transpose().inverse()
    except SingularMatrixError:
        raise DomainError("T must be invertible") from None
    Q = spec.T.conj_transpose() @ spec.P @ spec.T
    g1 = shift_group(spec.g, spec.T, max_order=max_order)
    g2 = character_group(spec.g, spec.T, max_order=max_order)
    _check_term_count(g1, g2, max_order)
    rhs = _right_side(spec, g1.coords, g1.scale, *_dual_coords(g2), len(_p_parts(spec.P)))
    return RelationInstance(spec=spec, Q=Q, lhs_A=lhs_A, lhs_B=spec.B0 @ spec.T, G1=g1, G2=g2,
                            rhs=rhs)


def _right_side(spec: RelationSpec, a_reps: Iterable[Sequence[int]], a_den: int,
                b_reps: Sequence[Sequence[int]], b_den: int, factor_leaves: int) -> _Sum:
    """The relation's expansion over the shifts a_reps / a_den and the dual
    shifts b_reps / b_den (coordinates, see lattices._int_coords), compiled
    in integers.  A term is b (outer) and A (inner), with the phase
    q / q_den = Re Tr(A0^H b) mod 1 and the factor Theta^P[A0 + A; B0 + b],
    the product of factor_leaves of its leaves.  A0 + A (reduced mod O_K)
    and B0 + b are cut into parts (thetas._part_keys): single columns for
    an exactly diagonal P with h > 1 (see thetas._leaf_keys), else the
    whole matrix.  A leaf is interned by its family, the indices of its P
    and its A part, and then by the index of its B part."""
    g, h = spec.g, spec.h
    a0, a0_den = _int_coords(spec.A0)
    # q_i / (2 a0_den b_den) = Re Tr(A0^H b_i), and q_den the lcm of their
    # reduced denominators
    qs = [sum(map(operator.mul, a0, _weights(b, spec.field))) for b in b_reps]
    common = math.gcd(2 * a0_den * b_den, *qs)
    q_den = 2 * a0_den * b_den // common
    ps = _p_parts(spec.P)
    w = h // len(ps)  # columns per part
    a_parts, a_keys = _part_keys(a0, a0_den, a_reps, a_den, g, h, w, True)
    b_parts, b_keys = _part_keys(*_int_coords(spec.B0), b_reps, b_den, g, h, w, False)
    emit = _Emitter()  # families keyed by (P, A part index), leaves by B part index
    p_ids = [emit.part(p) for p in ps]
    a_fams = [[emit.families[key] for key in zip(p_ids, a)] for a in a_parts]
    rows = ((q // common % q_den, tuple([fam[k] for fam, k in zip(fams, b)]))
            for q, b in zip(qs, b_parts) for fams in a_fams)
    return emit.sum(rows, a_keys.__getitem__, b_keys.__getitem__,
                    q_den=q_den, factor_leaves=factor_leaves)


def evaluate_relation(
    inst: RelationInstance,
    W: MatrixLike,
    params: Optional[ThetaParams] = None,
    corrupt: Optional[str] = None,
    cache: Optional[ThetaCache] = None,
) -> VerificationReport:
    """Evaluate both sides of the relation at W and report the residual.

    corrupt is a test hook: "phase" moves the phase of the first term of
    the right side by 1/3 and "drop" omits that term, so harness failure
    detection can be exercised.  cache, when given, is a table of family
    values shared with other evaluations (see thetas.ThetaCache); without
    one, every family is evaluated and nothing is kept.
    """
    if corrupt not in (None, "phase", "drop"):
        raise ValueError(f"unknown corruption mode: {corrupt!r}")
    # a corrupted relation is a new instance, so its plan is lowered fresh
    term_count = inst.G1.order * inst.G2.order
    rhs = inst.rhs
    if corrupt == "drop":
        inst = replace(inst, rhs=replace(rhs, rows=rhs.rows[1:]))
    elif corrupt == "phase":  # over 3 q_den, the first q moves by q_den
        (q, idx), *rest = rhs.rows
        inst = replace(inst, rhs=replace(rhs, q_den=3 * rhs.q_den, rows=(
            (3 * q + rhs.q_den, idx), *((3 * r, i) for r, i in rest))))
    return _compare_sides(inst._plans, W, params, term_count, float(inst.scale), cache)


# -- Hermitian P as a polynomial in one-column thetas -----------------------


@dataclass(frozen=True)
class PDecomposition:
    """The pivots of P = L^H diag(lambdas) L (one per column, repeats kept)
    plus the expansion, the right side of the relation of (L, diag(lambdas))
    compiled to one-column leaves (a _Sum): a part is one distinct [[lam]],
    a family ([[lam]], a column of A0 L^H + A reduced mod O_K) with its b,
    and a monomial a row of one leaf per column, each its own factor, with
    coefficient scale 1/#G2."""

    field: FieldId
    g: int
    lambdas: tuple[Fraction, ...]
    expansion: _Sum

    def lambda_product(self) -> Fraction:
        return math.prod(self.lambdas, start=Fraction(1))

    @property
    def monomials(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """The compiled rows of the expansion, one per monomial, which the
        benchmark's tracer counts."""
        return self.expansion.rows

    @cached_property
    def _plans(self) -> _Plans:
        return _Plans(self.expansion)

    def evaluate(
        self, W: MatrixLike, params: Optional[ThetaParams] = None
    ) -> complex:
        if params is None:
            params = ThetaParams()
        return _sum_terms(self._plans[params], W)[0][0]


# the monomial count's cap: the default order cap of each group
_MAX_MONOMIALS = 10**6


def decompose_rational_P(
    field: FieldId,
    g: int,
    P: KMatrix,
    A0: KMatrix,
    B0: KMatrix,
) -> PDecomposition:
    """Expand Theta^P[A0; B0](W) as a polynomial in one-column thetas.

    P must be Hermitian positive definite over K.  It is P = L^H D L with
    L unipotent lower triangular and D = diag(lam_1, ..., lam_h), whose
    pivots are rational (each is real and in K) and multiply to det P; the
    expansion is the right side of the relation of (L, D) at A0 L^H and
    B0 L^-1 (_right_side), over the groups of L, each one-column leaf its
    own factor.  GroupCapError when it has over _MAX_MONOMIALS monomials.
    """
    _check_g(g)
    if P.rows != P.cols:
        raise DomainError("P must be square")
    for m, nm in ((A0, "A0"), (B0, "B0")):
        if m.rows != g or m.cols != P.rows:
            raise DomainError(f"{nm} must be {g} x {P.rows}")
    if P.conj_transpose() != P:
        raise DomainError("P must be Hermitian")

    # P = L^H D L column by column from the last, whose pivot is P's last
    # diagonal entry: P_jj = lam_j + sum_k lam_k |L_kj|^2 and, for i < j,
    # P_ji = lam_j L_ji + sum_k lam_k conj(L_kj) L_ki, both over k > j
    h = P.rows
    one, zero = field.one(), field.zero()
    rows = [[one if i == k else zero for k in range(h)] for i in range(h)]
    lambdas = [Fraction(0)] * h
    for j in reversed(range(h)):
        below = range(j + 1, h)
        lam = P[(j, j)].a - sum(lambdas[k] * rows[k][j].norm() for k in below)
        if lam <= 0:
            raise DomainError(f"P is not positive definite: pivot {lam} <= 0")
        lambdas[j] = lam
        for i in range(j):
            x = P[(j, i)]
            for k in below:
                x = x - rows[k][j].conj() * rows[k][i] * lambdas[k]
            rows[j][i] = x / lam
    L = KMatrix(rows)

    # a group is its Smith form until its cosets are read, so the groups
    # take no cap of their own and an expansion over the monomial cap is
    # refused before any coset is made
    g1, g2 = shift_group(g, L, math.inf), character_group(g, L, math.inf)
    count = g1.order * g2.order
    if count > _MAX_MONOMIALS:
        raise GroupCapError(
            f"the decomposition has {count} monomials, over the cap {_MAX_MONOMIALS}"
        )
    D = KMatrix([[field.from_rational(lam) if i == k else zero for k in range(h)]
                 for i, lam in enumerate(lambdas)])
    spec = RelationSpec(field, g, L, D, A0 @ L.conj_transpose(), B0 @ L.inverse())
    expansion = _right_side(spec, g1.coords, g1.scale, *_dual_coords(g2), 1)
    return PDecomposition(field=field, g=g, lambdas=tuple(lambdas),
                          expansion=replace(expansion, coeff_scale=Fraction(1, g2.order)))


def _dual_coords(group: FiniteAbelianGroup) -> tuple[list[list[int]], int]:
    """c B for each representative B of group and c = dual_generator, as
    coordinates over one denominator (see lattices._int_coords)."""
    c = dual_generator(group.field)
    t, nd = group.field.delta_trace, group.field.delta_norm
    out = []
    for v in group.coords:
        cb = []
        for n, m in zip(v[::2], v[1::2]):  # (n + m delta)(c.n + c.m delta)
            mm = m * c.m
            cb += (n * c.n - nd * mm, n * c.m + m * c.n + t * mm)
        out.append(cb)
    return out, group.scale * c.den
