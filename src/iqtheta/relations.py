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

Every side is a sum of Terms, evaluated in two steps.  Lowering
(`_lower_terms`) runs once per Term tuple and ThetaParams: each Term's
float coefficient, and per factor either the thetas leaves it multiplies
(see thetas._lower) with the scale of W they read, or a Riemann theta.
The plan is cached on the object that owns the Terms (RelationInstance,
IdentityCheck, PDecomposition), one per ThetaParams.  Evaluation
(`_sum_terms`) takes one W: it builds and checks each scaled W once, then
makes one ThetaCache lookup per leaf occurrence, in the order the terms and
factors are written.  theta_general is the same pipeline for one factor.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Optional

import numpy as np

from .errors import DomainError, SingularMatrixError
from .kfield import (
    FieldId,
    KElement,
    KMatrix,
    dual_generator,
    json_int,
    re_trace_of_product,
)
from .lattices import FiniteAbelianGroup, character_group, shift_group
from .thetas import (
    MatrixLike,
    ThetaCache,
    ThetaParams,
    _as_complex_matrix,
    _at,
    _Leaf,
    _leaves_value,
    _lower,
    _lower_check,
    riemann_theta_z0,
)

__all__ = [
    "ThetaFactor",
    "Term",
    "RelationSpec",
    "RelationTerm",
    "RelationInstance",
    "VerificationReport",
    "build_relation",
    "evaluate_relation",
    "decompose_rational_P",
    "PDecomposition",
]


# -- sums of coefficient times product of thetas -------------------------------


@dataclass(frozen=True)
class ThetaFactor:
    """One theta factor inside a product term.

    kind "field": Theta^p[a; b](W) over an imaginary quadratic order, with
    p an exact square matrix (a scalar [[s]] encodes the argument s*W).
    kind "check": the linear-phase variant at w_scale * W.
    kind "riemann": the classical real theta at z = 0 and w_scale * Omega,
    with a and b tuples of rationals.
    """

    kind: str
    a: object
    b: object
    p: Optional[KMatrix] = None
    w_scale: Fraction = Fraction(1)


@dataclass(frozen=True)
class Term:
    """coeff_scale * exp(-2*pi*i*coeff_q) * prod of the factors at W.

    Relation right hand sides, identity check sides and P-decomposition
    monomials are all sums of these.
    """

    coeff_q: Fraction
    coeff_scale: Fraction
    factors: tuple[ThetaFactor, ...]


def _phase(q: Fraction) -> complex:
    """exp(-2*pi*i*q) for exact rational q, reduced mod 1 first."""
    q = q - math.floor(q)
    return complex(np.exp(-2j * np.pi * float(q)))


class _FieldOp:
    """A field factor: the product of its leaves at W itself."""

    __slots__ = ("w", "leaves")

    def __init__(self, w: int, leaves: tuple[_Leaf, ...]) -> None:
        self.w = w
        self.leaves = leaves

    def value(self, ws: list, cache: ThetaCache) -> complex:
        return _leaves_value(self.leaves, ws[self.w], cache).value


class _CheckOp:
    """A check factor: a fixed phase times one leaf at its scaled W."""

    __slots__ = ("w", "leaf", "phase")

    def __init__(self, w: int, leaf: _Leaf, phase: complex) -> None:
        self.w = w
        self.leaf = leaf
        self.phase = phase

    def value(self, ws: list, cache: ThetaCache) -> complex:
        return self.phase * _leaves_value((self.leaf,), ws[self.w], cache).value


class _RiemannOp:
    """A Riemann factor, never cached: riemann_theta_z0 at its scaled W."""

    __slots__ = ("w", "a", "b", "params")

    def __init__(self, w: int, a: object, b: object, params: ThetaParams) -> None:
        self.w = w
        self.a = a
        self.b = b
        self.params = params

    def value(self, ws: list, cache: ThetaCache) -> complex:
        return riemann_theta_z0(self.a, self.b, ws[self.w][0], self.params).value


@dataclass(frozen=True)
class _Plan:
    """Term sums lowered for one ThetaParams; see _lower_terms."""

    # one entry per W the factors read: (float(w_scale), or None for W
    # itself; whether it is doubled; whether leaves read it, so it needs
    # the per-W check)
    scales: tuple[tuple[Optional[float], bool, bool], ...]
    bare: tuple[object, ...]
    sides: tuple[tuple[tuple[complex, tuple[object, ...]], ...], ...]
    riemann_evals: int


def _lower_terms(
    params: ThetaParams,
    sides: Iterable[Iterable[Term]],
    bare: Iterable[ThetaFactor] = (),
) -> _Plan:
    """Lower bare factors and Term sums together, so they share leaves.

    Equal factors are lowered once, and equal leaf keys are interned, so a
    cache hit compares keys by identity.  riemann_evals counts the Riemann
    factor occurrences, each evaluated on every call.
    """
    scales: dict[tuple[Optional[float], bool], int] = {}
    checked: set[int] = set()
    leaves: dict = {}
    ops: dict[ThetaFactor, object] = {}
    riemann_evals = 0

    def w_index(scale: Optional[float], doubled: bool, by_leaves: bool) -> int:
        i = scales.setdefault((scale, doubled), len(scales))
        if by_leaves:
            checked.add(i)
        return i

    def intern(leaf: _Leaf) -> _Leaf:
        return leaves.setdefault(leaf.key, leaf)

    def lower(f: ThetaFactor) -> object:
        nonlocal riemann_evals
        if f.kind == "riemann":
            riemann_evals += 1
        op = ops.get(f)
        if op is not None:
            return op
        if f.kind == "field":
            lowered = _lower(f.a.field, f.p, f.a, f.b, params)
            op = _FieldOp(w_index(None, False, True), tuple(map(intern, lowered)))
        elif f.kind == "check":
            phase, leaf, doubled = _lower_check(f.a.field, f.a, f.b, params)
            op = _CheckOp(w_index(float(f.w_scale), doubled, True), intern(leaf), phase)
        elif f.kind == "riemann":
            op = _RiemannOp(w_index(float(f.w_scale), False, False), f.a, f.b, params)
        else:
            raise ValueError(f"unknown factor kind {f.kind!r}")
        ops[f] = op
        return op

    bare_ops = tuple(lower(f) for f in bare)
    lowered_sides = tuple(
        tuple(
            (
                float(t.coeff_scale) * _phase(t.coeff_q),
                tuple(lower(f) for f in t.factors),
            )
            for t in side
        )
        for side in sides
    )
    return _Plan(
        scales=tuple(
            (scale, doubled, i in checked)
            for (scale, doubled), i in scales.items()
        ),
        bare=bare_ops,
        sides=lowered_sides,
        riemann_evals=riemann_evals,
    )


def _cached_plan(plans: dict, params: ThetaParams, lower: Callable[[], _Plan]) -> _Plan:
    """plans[params], lowered on first use (plans is an owner's own dict)."""
    plan = plans.get(params)
    if plan is None:
        plan = plans[params] = lower()
    return plan


def _sum_terms(
    plan: _Plan, W: MatrixLike, cache: ThetaCache
) -> tuple[list[complex], list[complex]]:
    """The plan at W: the value of each bare factor, then the sum of each side.

    Each scaled W is built once (W * float(w_scale), then doubled) and,
    when leaves read it, checked once.  Each term starts from its
    coefficient and multiplies its factors left to right; real and
    imaginary parts are summed with fsum.
    """
    base = _as_complex_matrix(W, "W")
    ws = []
    for scale, doubled, by_leaves in plan.scales:
        w = base if scale is None else base * scale
        if doubled:
            w = 2.0 * w
        ws.append(_at(w) if by_leaves else (w,))
    bare = [op.value(ws, cache) for op in plan.bare]
    sums = []
    for side in plan.sides:
        re_parts: list[float] = []
        im_parts: list[float] = []
        for acc, ops in side:
            for op in ops:
                acc *= op.value(ws, cache)
            re_parts.append(acc.real)
            im_parts.append(acc.imag)
        sums.append(complex(math.fsum(re_parts), math.fsum(im_parts)))
    return bare, sums


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


# -- relation instances ---------------------------------------------------------


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
            g=json_int(obj["g"], "g"),
            T=KMatrix.from_json(obj["T"], field),
            P=KMatrix.from_json(obj["P"], field),
            A0=KMatrix.from_json(obj["A0"], field),
            B0=KMatrix.from_json(obj["B0"], field),
            name=str(obj.get("name", "")),
        )
        spec.validate()
        return spec


@dataclass(frozen=True)
class RelationTerm:
    """One summand of the right hand side, with exact characteristics."""

    a_shift: KMatrix
    b_shift: KMatrix
    a_char: KMatrix
    b_char: KMatrix
    phase_q: Fraction  # term coefficient is exp(-2*pi*i*phase_q)


@dataclass(frozen=True)
class RelationInstance:
    spec: RelationSpec
    Q: KMatrix
    lhs_A: KMatrix
    lhs_B: KMatrix
    G1: FiniteAbelianGroup
    G2: FiniteAbelianGroup
    terms: tuple[RelationTerm, ...]

    @property
    def scale(self) -> Fraction:
        return Fraction(1, self.G2.order)

    @cached_property
    def rhs_terms(self) -> tuple[Term, ...]:
        """terms as Term objects for the shared sum, built once per instance.

        The common factor scale = 1/#G2 stays outside the sum.
        """
        P = self.spec.P
        return tuple(
            Term(
                coeff_q=t.phase_q,
                coeff_scale=Fraction(1),
                factors=(ThetaFactor(kind="field", a=t.a_char, b=t.b_char, p=P),),
            )
            for t in self.terms
        )

    @cached_property
    def _plans(self) -> dict:
        """The lhs factor and rhs_terms lowered together, per ThetaParams."""
        return {}

    def _lhs_factor(self) -> ThetaFactor:
        return ThetaFactor(kind="field", a=self.lhs_A, b=self.lhs_B, p=self.Q)

    def group_metadata(self) -> dict:
        return {
            "G1_order": self.G1.order,
            "G1_invariant_factors": list(self.G1.invariant_factors),
            "G2_order": self.G2.order,
            "G2_invariant_factors": list(self.G2.invariant_factors),
            "term_count": len(self.terms),
        }


def build_relation(spec: RelationSpec, max_order: int = 10**6) -> RelationInstance:
    """Assemble groups, characteristics and exact phases for spec."""
    spec.validate()
    try:
        lhs_A = spec.A0 @ spec.T.conj_transpose().inverse()
    except SingularMatrixError:
        raise DomainError("T must be invertible") from None
    Q = spec.T.conj_transpose() @ spec.P @ spec.T
    g1 = shift_group(spec.g, spec.T, max_order=max_order)
    g2 = character_group(spec.g, spec.T, max_order=max_order)
    lhs_B = spec.B0 @ spec.T
    dual = dual_generator(spec.field)
    terms: list[RelationTerm] = []
    for b_rep in g2.representatives:
        b_dual = b_rep.scale(dual)
        q = re_trace_of_product(spec.A0, b_dual)
        q = q - math.floor(q)
        for a_rep in g1.representatives:
            terms.append(
                RelationTerm(
                    a_shift=a_rep,
                    b_shift=b_rep,
                    a_char=spec.A0 + a_rep,
                    b_char=spec.B0 + b_dual,
                    phase_q=q,
                )
            )
    return RelationInstance(
        spec=spec, Q=Q, lhs_A=lhs_A, lhs_B=lhs_B, G1=g1, G2=g2, terms=tuple(terms)
    )


def evaluate_relation(
    inst: RelationInstance,
    W: MatrixLike,
    params: Optional[ThetaParams] = None,
    corrupt: Optional[str] = None,
) -> VerificationReport:
    """Evaluate both sides of the relation at W and report the residual.

    corrupt is a test hook: "phase" perturbs one term coefficient and
    "drop" omits one term, so harness failure detection can be exercised.
    """
    if params is None:
        params = ThetaParams()
    if corrupt not in (None, "phase", "drop"):
        raise ValueError(f"unknown corruption mode: {corrupt!r}")
    terms = inst.rhs_terms
    if corrupt == "drop":
        terms = terms[1:]
    elif corrupt == "phase":
        first = replace(terms[0], coeff_q=terms[0].coeff_q + Fraction(1, 3))
        terms = (first,) + terms[1:]

    def lower() -> _Plan:
        return _lower_terms(params, (terms,), (inst._lhs_factor(),))

    # a corrupted plan is lowered fresh and never cached
    plan = lower() if corrupt else _cached_plan(inst._plans, params, lower)
    cache = ThetaCache()
    (lhs,), (rhs_sum,) = _sum_terms(plan, W, cache)
    rhs = float(inst.scale) * rhs_sum
    return VerificationReport.compare(
        complex(lhs), rhs, len(inst.terms), cache.misses, cache.hits, params.eps
    )


# -- rational P as a polynomial in one-column thetas ------------------------


@dataclass(frozen=True)
class PDecomposition:
    """Schur pivot sequence (one entry per level, repeats kept) plus monomials.

    Each monomial is a Term whose factors are one-column field thetas
    Theta^(lam_j)[a_j; b_j](W), one per level j.
    """

    field: FieldId
    g: int
    lambdas: tuple[Fraction, ...]
    monomials: tuple[Term, ...]

    def lambda_product(self) -> Fraction:
        prod = Fraction(1)
        for lam in self.lambdas:
            prod *= lam
        return prod

    @cached_property
    def _plans(self) -> dict:
        """The monomials lowered, per ThetaParams."""
        return {}

    def evaluate(
        self,
        W: MatrixLike,
        params: Optional[ThetaParams] = None,
        cache: Optional[ThetaCache] = None,
    ) -> complex:
        if params is None:
            params = ThetaParams()
        if cache is None:
            cache = ThetaCache()
        plan = _cached_plan(
            self._plans, params, lambda: _lower_terms(params, (self.monomials,))
        )
        return _sum_terms(plan, W, cache)[1][0]


def _rational_entry(x: KElement, what: str) -> Fraction:
    if not x.is_rational():
        raise DomainError(f"{what} must have rational entries")
    return x.a


def _schur_split(P: KMatrix) -> tuple[Fraction, KMatrix, KMatrix, KMatrix]:
    """P = K^t diag(lam1, P1) K with K unipotent lower triangular.

    Returns (lam1, P1, K, M) where M = K^-1.  P must be rational symmetric
    with positive leading entry and an invertible trailing block.
    """
    field = P.field
    h = P.rows
    mu1 = _rational_entry(P[(0, 0)], "P")
    r = [P[(0, j)] for j in range(1, h)]  # 1 x (h-1)
    p1 = KMatrix([[P[(i, j)] for j in range(1, h)] for i in range(1, h)])
    p1_inv = p1.inverse()
    # column vector P1^-1 R^t
    r_col = KMatrix.column_vector(r)
    x = p1_inv @ r_col  # (h-1) x 1
    lam1 = mu1 - sum(
        (r[i] * x[(i, 0)]).a for i in range(h - 1)
    )
    if lam1 <= 0:
        raise DomainError(f"P is not positive definite: Schur pivot {lam1} <= 0")
    one = field.one()
    zero = field.zero()
    k_rows = [[one] + [zero] * (h - 1)]
    m_rows = [[one] + [zero] * (h - 1)]
    for i in range(h - 1):
        k_rows.append(
            [x[(i, 0)]] + [one if j == i else zero for j in range(h - 1)]
        )
        m_rows.append(
            [-x[(i, 0)]] + [one if j == i else zero for j in range(h - 1)]
        )
    return (lam1, p1, KMatrix(k_rows), KMatrix(m_rows))


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
    # P alone, so build that chain once instead of once per branch
    chain: list[tuple[KMatrix, KMatrix, FiniteAbelianGroup, FiniteAbelianGroup]] = []
    lambdas: list[Fraction] = []
    cur = P
    while cur.rows > 1:
        lam1, p1, k_mat, m_mat = _schur_split(cur)
        lambdas.append(lam1)
        chain.append(
            (k_mat, m_mat, shift_group(g, k_mat), character_group(g, k_mat))
        )
        cur = p1
    last = _rational_entry(cur[(0, 0)], "P")
    if last <= 0:
        raise DomainError(f"P is not positive definite: pivot {last} <= 0")
    lambdas.append(last)

    dual = dual_generator(field)
    lam_mats = [KMatrix([[field.from_rational(lam)]]) for lam in lambdas]
    monomials: list[Term] = []

    def recurse(
        level: int,
        A_cur: KMatrix,
        B_cur: KMatrix,
        q_acc: Fraction,
        scale_acc: Fraction,
        factors: tuple[ThetaFactor, ...],
    ) -> None:
        if level == len(chain):
            last_factor = ThetaFactor(
                kind="field", a=A_cur, b=B_cur, p=lam_mats[level]
            )
            monomials.append(
                Term(
                    coeff_q=q_acc - math.floor(q_acc),
                    coeff_scale=scale_acc,
                    factors=factors + (last_factor,),
                )
            )
            return
        h = len(lambdas) - level
        k_mat, m_mat, g1, g2 = chain[level]
        a_thm = A_cur @ k_mat.transpose()
        b_thm = B_cur @ m_mat
        scale_next = scale_acc / g2.order
        for b_rep in g2.representatives:
            b_dual = b_rep.scale(dual)
            q = q_acc + re_trace_of_product(a_thm, b_dual)
            b_char = b_thm + b_dual
            for a_rep in g1.representatives:
                a_char = a_thm + a_rep
                recurse(
                    level + 1,
                    KMatrix([[a_char[(i, j)] for j in range(1, h)] for i in range(g)]),
                    KMatrix([[b_char[(i, j)] for j in range(1, h)] for i in range(g)]),
                    q,
                    scale_next,
                    factors
                    + (
                        ThetaFactor(
                            kind="field",
                            a=a_char.column(0),
                            b=b_char.column(0),
                            p=lam_mats[level],
                        ),
                    ),
                )

    recurse(0, A0, B0, Fraction(0), Fraction(1), ())
    return PDecomposition(
        field=field, g=g, lambdas=tuple(lambdas), monomials=tuple(monomials)
    )
