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

The same machinery, applied to unipotent rational T from a Schur
complement ladder, rewrites Theta^P for any rational symmetric positive
definite P as an exact-coefficient polynomial in one-column thetas.

Every side is a sum of products of thetas, compiled in integers as it is
emitted, by one emitter (_Emitter) into one type (_Sum): a relation's two
sides (RelationInstance.lhs and rhs), a decomposition's expansion, and
each side of a preset identity check (_sum).  A factor is one theta
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
from functools import cached_property, lru_cache, partial
from typing import Callable, Iterable, Optional, Sequence

from . import thetas
from .errors import DomainError, GroupCapError, SingularMatrixError
from .kfield import (
    FieldId,
    KElement,
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
    _block,
    _center,
    _check_w_shape,
    _Family,
    _int_key,
    _leaf_keys,
    _p_parts,
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


def build_relation(spec: RelationSpec, max_order: int = 10**6) -> RelationInstance:
    """Assemble the groups, and the right side compiled in integers.

    A term is B in G2 (outer) and A in G1 (inner), with the phase
    q / q_den = Re Tr(A0^H c B) mod 1 and the factor Theta^P[A0 + A; B0 + c B].
    A0 + A (reduced mod O_K) and B0 + c B are read off the groups' integer
    coordinates, each over one denominator, and cut into parts: single
    columns for an exactly diagonal P with h > 1 (see thetas._leaf_keys), else
    the whole matrix.  A leaf is interned by its family, the indices of
    its P and its A part, and then by the index of its B part.

    max_order caps each group and the term count |G1| |G2|, which is
    checked before the expansion is built: GroupCapError over the cap."""
    spec.validate()
    try:
        lhs_A = spec.A0 @ spec.T.conj_transpose().inverse()
    except SingularMatrixError:
        raise DomainError("T must be invertible") from None
    Q = spec.T.conj_transpose() @ spec.P @ spec.T
    g1 = shift_group(spec.g, spec.T, max_order=max_order)
    g2 = character_group(spec.g, spec.T, max_order=max_order)
    _check_term_count(g1, g2, max_order)
    lhs_B = spec.B0 @ spec.T
    g, h = spec.g, spec.h
    b_duals, b_den = _dual_coords(g2)
    a0, a0_den = _int_coords(spec.A0)
    # q_i / (2 a0_den b_den) = Re Tr(A0^H c B_i), and q_den the lcm of their
    # reduced denominators
    qs = [sum(map(operator.mul, a0, _weights(b, spec.field))) for b in b_duals]
    common = math.gcd(2 * a0_den * b_den, *qs)
    q_den = 2 * a0_den * b_den // common
    ps = _p_parts(spec.P)
    w = h // len(ps)  # columns per part

    def parts(base: list[int], base_den: int, reps, rep_den: int, center: bool):
        """Per rep, the indices of the parts of base + rep; the distinct
        parts as leaf keys (see thetas._int_key), by index."""
        den = math.lcm(base_den, rep_den)
        base = [v * (den // base_den) for v in base]
        k = den // rep_den
        out, table = [], {}
        for rep in reps:
            m = [u + v * k for u, v in zip(base, rep)]
            if center:
                m = [_center(v, den) for v in m]
            out.append([table.setdefault(tuple(_block(m, g, h, j, w)), len(table))
                        for j in range(len(ps))])
        return out, [_int_key(part, den) for part in table]

    a_parts, a_coords = parts(a0, a0_den, g1.coords, g1.scale, True)
    b_parts, b_coords = parts(*_int_coords(spec.B0), b_duals, b_den, False)
    emit = _Emitter()  # families keyed by (P, A part index), leaves by B part index
    p_ids = [emit.part(p) for p in ps]
    a_fams = [[emit.families[key] for key in zip(p_ids, a)] for a in a_parts]
    rows = ((q // common % q_den, tuple([fam[k] for fam, k in zip(fams, b)]))
            for q, b in zip(qs, b_parts) for fams in a_fams)
    rhs = emit.sum(rows, a_coords.__getitem__, b_coords.__getitem__,
                   q_den=q_den, factor_leaves=len(ps))
    return RelationInstance(spec=spec, Q=Q, lhs_A=lhs_A, lhs_B=lhs_B, G1=g1, G2=g2, rhs=rhs)


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


# -- rational P as a polynomial in one-column thetas ------------------------


@dataclass(frozen=True)
class PDecomposition:
    """Schur pivot sequence (one entry per level, repeats kept) plus the
    expansion, compiled to one-column leaves as it was emitted (a _Sum): a
    part is one distinct [[lam]], a family ([[lam]], a reduced mod O_K)
    with its b, and a monomial a row of one leaf per level, each its own
    factor, with coefficient scale."""

    field: FieldId
    g: int
    lambdas: tuple[Fraction, ...]
    expansion: _Sum

    def lambda_product(self) -> Fraction:
        prod = Fraction(1)
        for lam in self.lambdas:
            prod *= lam
        return prod

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


def _rational_entry(x: KElement, what: str) -> Fraction:
    if not x.is_rational():
        raise DomainError(f"{what} must have rational entries")
    return x.a


def _schur_split(P: KMatrix) -> tuple[Fraction, KMatrix, KMatrix]:
    """P = K^t diag(lam1, P1) K with K unipotent lower triangular.

    Returns (lam1, P1, K).  P must be rational symmetric with positive
    leading entry and an invertible trailing block.
    """
    field = P.field
    h = P.rows
    r = [P[(0, j)] for j in range(1, h)]  # 1 x (h-1)
    p1 = KMatrix([[P[(i, j)] for j in range(1, h)] for i in range(1, h)])
    p1_inv = p1.inverse()
    # column vector P1^-1 R^t
    r_col = KMatrix.column_vector(r)
    x = p1_inv @ r_col  # (h-1) x 1
    mu1 = P[(0, 0)]
    for i in range(h - 1):
        mu1 = mu1 - r[i] * x[(i, 0)]
    lam1 = _rational_entry(mu1, "P")
    if lam1 <= 0:
        raise DomainError(f"P is not positive definite: Schur pivot {lam1} <= 0")
    one = field.one()
    zero = field.zero()
    k_rows = [[one] + [zero] * (h - 1)]
    for i in range(h - 1):
        k_rows.append(
            [x[(i, 0)]] + [one if j == i else zero for j in range(h - 1)]
        )
    return (lam1, p1, KMatrix(k_rows))


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

    P must be rational symmetric positive definite.  Each Schur step peels
    the leading pivot via the transformation relation for the unipotent K,
    producing exact coefficients; the pivots lam_j multiply to det P.
    """
    _check_g(g)
    if P.rows != P.cols:
        raise DomainError("P must be square")
    for m, nm in ((A0, "A0"), (B0, "B0")):
        if m.rows != g or m.cols != P.rows:
            raise DomainError(f"{nm} must be {g} x {P.rows}")
    for i in range(P.rows):
        for j in range(P.cols):
            _rational_entry(P[(i, j)], "P")
            if P[(i, j)] != P[(j, i)]:
                raise DomainError("P must be symmetric")

    # the pivot, unipotent factor and its two groups at each level depend on
    # P alone, so build that chain once instead of once per branch.  The
    # expansion has one monomial per choice of (A, B) in G1 x G2 at every
    # level.  A group is its Smith form until its cosets are read, so the
    # groups take no cap of their own and an expansion over the monomial
    # cap is refused before any coset is made
    levels = []
    lambdas: list[Fraction] = []
    count = 1
    cur = P
    while cur.rows > 1:
        lam1, p1, k_mat = _schur_split(cur)
        lambdas.append(lam1)
        a_grp, b_grp = shift_group(g, k_mat, math.inf), character_group(g, k_mat, math.inf)
        count *= a_grp.order * b_grp.order
        levels.append((k_mat, a_grp, b_grp))
        cur = p1
    last = _rational_entry(cur[(0, 0)], "P")
    if last <= 0:
        raise DomainError(f"P is not positive definite: pivot {last} <= 0")
    lambdas.append(last)
    if count > _MAX_MONOMIALS:
        raise GroupCapError(
            f"the decomposition has {count} monomials, over the cap {_MAX_MONOMIALS}"
        )

    # The expansion runs in integers.  Every A of the recursion is kept over
    # one denominator da and every B over db, multiples of the denominators
    # at every level, so a sum is a sum of integers and a product with a
    # rational x of K an exact integer division, and Re Tr(A^H B) has the
    # denominator 2 da db.  A column is (n_0, m_0, n_1, m_1, ...) for the
    # entries (n_i + m_i delta) / den.
    da, db = _int_coords(A0)[1], _int_coords(B0)[1]
    groups = []
    for k_mat, a_grp, b_grp in levels:
        b_duals, b_den = _dual_coords(b_grp)
        x = [k_mat[(i, 0)] for i in range(1, k_mat.rows)]
        dx = math.lcm(*(v.den for v in x))
        da = math.lcm(da * dx, _least_den(a_grp.coords, a_grp.scale))
        db = math.lcm(db * dx, _least_den(b_duals, b_den))
        groups.append((x, a_grp, b_duals, b_den))
    q_den = 2 * da * db
    chain = [
        ([(v.n, v.den) for v in x],
         [_columns(a, a_grp.scale, da, g, a_grp.h) for a in a_grp.coords],
         [(c, _weights(sum(c, ()), field))
          for c in (_columns(b, b_den, db, g, a_grp.h) for b in b_duals)])
        for x, a_grp, b_duals, b_den in groups
    ]
    emit = _Emitter()  # families keyed by (pivot, a), leaves by b
    pivot = [emit.part(_p_parts(KMatrix([[field.from_rational(lam)]]))[0]) for lam in lambdas]
    families = emit.families
    expansion: list[tuple[int, tuple[int, ...]]] = []

    def reduced(col) -> tuple:  # mod O_K
        return tuple([_center(v, da) for v in col])

    def recurse(level: int, A: tuple, B: tuple, q: int, prefix: tuple) -> None:
        xs, a_reps, b_duals = chain[level]
        # A K^t adds x_j times column 0 to column j; B K^-1 subtracts the x_j
        # multiples of the columns j from column 0
        a0 = A[0]
        a_rest = [tuple(u + v * n // d for u, v in zip(col, a0))
                  for col, (n, d) in zip(A[1:], xs)]
        a_flat = a0 + sum(a_rest, ())
        b0 = B[0]
        for col, (n, d) in zip(B[1:], xs):
            b0 = tuple(u - v * n // d for u, v in zip(b0, col))
        a_next = [(families[pivot[level], reduced(_add(a0, r[0]))],
                   tuple(map(_add, a_rest, r[1:]))) for r in a_reps]
        last = level + 1 == len(chain)
        if last:  # what is left is the last column, whose family A alone fixes
            a_next = [(fam, families[pivot[-1], reduced(A_next[0])]) for fam, A_next in a_next]
        for s, w in b_duals:
            q_next = (q + sum(map(operator.mul, a_flat, w))) % q_den
            b = _add(b0, s[0])
            B_next = tuple(map(_add, B[1:], s[1:]))
            if last:
                expansion.extend([(q_next, prefix + (fam[b], fam_last[B_next[0]]))
                                  for fam, fam_last in a_next])
                continue
            for fam, A_next in a_next:
                recurse(level + 1, A_next, B_next, q_next, prefix + (fam[b],))

    A = _columns(*_int_coords(A0), da, g, P.rows)
    B = _columns(*_int_coords(B0), db, g, P.rows)
    if chain:
        recurse(0, A, B, 0, ())
    else:
        expansion.append((0, (families[pivot[0], reduced(A[0])][B[0]],)))

    key = lru_cache(maxsize=None)(_int_key)  # columns repeat across the leaves
    return PDecomposition(field=field, g=g, lambdas=tuple(lambdas), expansion=emit.sum(
        expansion, lambda a: key(a, da), lambda b: key(b, db), q_den=q_den,
        coeff_scale=Fraction(1, math.prod(len(b) for _, _, b, _ in groups))))


def _add(u: tuple, v: tuple) -> tuple:
    return tuple(map(operator.add, u, v))


def _columns(
    nums: Sequence[int], den: int, target: int, g: int, h: int
) -> tuple[tuple[int, ...], ...]:
    """The columns of the g x h matrix with row-major coordinates nums / den
    (see lattices._int_coords), each (n_0, m_0, n_1, m_1, ...) over target,
    a multiple of the least common denominator of nums / den."""
    return tuple(tuple(v * target // den for v in _block(nums, g, h, j, 1)) for j in range(h))


def _least_den(vecs: Iterable[Iterable[int]], den: int) -> int:
    """The least common denominator of every coordinate v / den of vecs."""
    return den // math.gcd(den, *(v for vec in vecs for v in vec))


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
