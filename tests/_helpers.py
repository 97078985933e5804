"""Shared test helpers (imported by the test modules beside this file)."""

import bisect
import itertools
import math
import tracemalloc
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial

from iqtheta.kfield import FieldId, KMatrix, dual_generator, re_trace_of_product
from iqtheta.lattices import _int_coords, coords_to_kmatrix
from iqtheta.relations import _sum
from iqtheta.thetas import _Family, _int_key, _leaf_keys, _p_parts


# -- the sums as exact terms: a reference that the compiled sums are checked on


@dataclass(frozen=True)
class ThetaFactor:
    """One theta factor inside a product term: Theta^p[a; b](W), the sum
    over Mat(g, h; O_K) for lattice "O_K" and over Mat(g, h; Z) for lattice
    "Z" (a Riemann theta at z = 0, built by thetas._z_factor).  a and b are
    exact g x h characteristics and p an exact h x h Hermitian matrix;
    scaling W by s is the factor with s*p."""

    a: KMatrix
    b: KMatrix
    p: KMatrix
    lattice: str = "O_K"


@dataclass(frozen=True)
class Term:
    """coeff_scale * exp(-2*pi*i*coeff_q) * prod of the factors at W: the
    input form that compile_terms reads."""

    coeff_q: Fraction
    coeff_scale: Fraction
    factors: tuple[ThetaFactor, ...]


@dataclass(frozen=True)
class RelationTerm:
    """One summand of a relation's right side, with exact characteristics."""

    a_shift: KMatrix
    b_shift: KMatrix
    a_char: KMatrix
    b_char: KMatrix
    phase_q: Fraction  # term coefficient is exp(-2*pi*i*phase_q)


def relation_terms(inst) -> tuple[RelationTerm, ...]:
    """The right side of a relations.RelationInstance term by term, B in G2
    (outer) and A in G1 (inner), built from the groups' representatives in
    KMatrix arithmetic: the factor Theta^P[A0 + A; B0 + c B] with the phase
    Re Tr(A0^H c B) mod 1, c = dual_generator."""
    A0, B0, c = inst.spec.A0, inst.spec.B0, dual_generator(inst.spec.field)
    duals = [(b, b.scale(c)) for b in inst.G2.representatives]
    return tuple(RelationTerm(a, b, A0 + a, B0 + bc, re_trace_of_product(A0, bc) % 1)
                 for b, bc in duals for a in inst.G1.representatives)


def lhs_terms(inst) -> tuple[Term, ...]:
    """The left side of a relation, Theta^Q[lhs_A; lhs_B], as one Term with
    coefficient 1."""
    return (Term(Fraction(0), Fraction(1), (ThetaFactor(inst.lhs_A, inst.lhs_B, inst.Q),)),)


def rhs_terms(inst) -> tuple[Term, ...]:
    """relation_terms as Terms; the scale 1/#G2 stays outside."""
    return tuple(Term(t.phase_q, Fraction(1), (ThetaFactor(t.a_char, t.b_char, inst.spec.P),))
                 for t in relation_terms(inst))


def printed_terms(inst, printed) -> tuple[Term, ...]:
    """A relation restated over its printed one-row classes (1 x h
    KMatrix values), built in KMatrix arithmetic: for each g-tuple rho of
    printed rows, in product order, one factor per part of P
    (thetas._p_parts) at the columns of A0 + rho under it, with b = 0."""
    spec = inst.spec
    parts = [p for p, _ in _p_parts(spec.P)]
    w = spec.h // len(parts)  # columns per part
    zero = KMatrix.zeros(spec.g, w, spec.field)
    terms = []
    for rho in itertools.product(printed, repeat=spec.g):
        rows = (spec.A0 + KMatrix([m.entry_rows()[0] for m in rho])).entry_rows()
        terms.append(Term(Fraction(0), Fraction(1), tuple(
            ThetaFactor(KMatrix([row[j * w:(j + 1) * w] for row in rows]), zero, p)
            for j, p in enumerate(parts))))
    return tuple(terms)


def monomials(dec) -> tuple[Term, ...]:
    """The expansion of a relations.PDecomposition as Terms of one-column
    field factors, read off its compiled rows."""
    s = dec.expansion
    col = partial(coords_to_kmatrix, g=dec.g, h=1, field=dec.field)
    factors = {i: ThetaFactor(col(*a), col(*b), s.ps[j][0])
               for j, a, bs, ids in s.families for b, i in zip(bs, ids)}
    return tuple(Term(Fraction(q, s.q_den), s.coeff_scale, tuple(factors[i] for i in idx))
                 for q, idx in s.rows)


def family_leaf(family: _Family, j: int) -> _Family:
    """Leaf j of a thetas._Family, as a family of one."""
    return _Family(family.field, family.P, family.group[3], family.a, family.params,
                   family.basis, (family.bs[j],))


# -- statements built as they are printed: references for the printed checks


def side_multiset(side) -> Counter:
    """A compiled side (relations._Sum) as the multiset of its rows, each
    (q / q_den mod 1, the keys (P, A0, B0) of its leaves in order)."""
    leaf = {i: (side.ps[j][1], a, b) for j, a, bs, ids in side.families for b, i in zip(bs, ids)}
    return Counter((Fraction(q, side.q_den) % 1, tuple(map(leaf.__getitem__, idx)))
                   for q, idx in side.rows)


def matsumoto_statement(a1, a2, b1, b2) -> tuple[Counter, Counter]:
    """Matsumoto's check-variant statement at the g x 1 characteristics a1,
    a2, b1, b2 over d = 1, built row by row in KElement arithmetic as the
    printed formula reads, with conj(e) in its coefficient; its two sides
    as multisets (see side_multiset), without their scales 2^g and 1.

    Left: theta_check[a1 + a2; b1 + b2] theta_check[a1 - a2; b1 - b2].
    Right, over the g-tuples e (outer) and f of {0, (1 - i)/2}:
    exp(2 pi i Re((1 + i)^t conj(e) (b1 + b2))) theta_check[e + a1'; f + b1']
    theta_check[e + a2'; f + b2'] with x' = (1 + i) x, where theta_check[a; b]
    = exp(-2 pi i Re(a^H b)) Theta^[[1]][a; b]."""
    field = a1.field
    one, i_ = field.one(), field.delta()

    def check(a, b):  # (the phase of theta_check[a; b], its leaf's keys)
        (p, ka, kb), = _leaf_keys(KMatrix([[one]]), a, b)
        return re_trace_of_product(a, b), (p[1], ka, kb)

    def row(q, factors):
        return (q + sum(f[0] for f in factors)) % 1, tuple(f[1] for f in factors)

    lhs = Counter([row(0, [check(a1 + a2, b1 + b2), check(a1 - a2, b1 - b2)])])
    a1s, a2s, b1s, b2s = (x.scale(one + i_) for x in (a1, a2, b1, b2))
    reps = [KMatrix.column_vector(t) for t in
            itertools.product([field.zero(), (one - i_) * Fraction(1, 2)], repeat=a1.rows)]
    rhs = Counter(row(-re_trace_of_product(e, (b1 + b2).scale(one + i_)),
                      [check(e + a1s, f + b1s), check(e + a2s, f + b2s)])
                  for e in reps for f in reps)
    return lhs, rhs


def bracket_column(field, rho) -> KMatrix:
    """The characteristic column of the bracket labels rho, in KElement
    arithmetic: d = 3 maps (r1, r2) to r1/3 + r2/sqrt(-3), d = 1 to
    (r1 + r2 i)/4."""
    if field.d == 3:
        inv_rt = field.sqrt_minus_d() * Fraction(-1, 3)  # 1/sqrt(-3)
        return KMatrix.column_vector(field.from_rational(Fraction(r1, 3)) + inv_rt * r2
                                     for r1, r2 in rho)
    assert field.d == 1
    return KMatrix.column_vector(field.element(Fraction(r1, 4), Fraction(r2, 4))
                                 for r1, r2 in rho)


def bracket_display(field, g, lhs_rows, rhs_rows, scale):
    """A bracket display compiled from its labels: on the left the product
    over lhs_rows of the thetas at W, on the right, for each term of
    rhs_rows, the product of the thetas at scale*W; each factor's
    characteristic is the column of its g bracket labels
    (bracket_column), with b = 0.  The two sides as compiled sums
    (relations._sum)."""
    zero = KMatrix.zeros(g, 1, field)
    leaf = cache(lambda rows, s: _leaf_keys(
        KMatrix([[field.from_rational(s)]]), bracket_column(field, rows), zero)[0])

    def side(terms, s):
        return _sum([(0, [leaf(tuple(rows), s) for rows in t]) for t in terms])

    return side([lhs_rows], 1), side(rhs_rows, scale)


def cubic_display(which: int, g: int):
    """cubic_d3_cor{which}'s display at v = 0 (see bracket_display):
    corollary 1 (Theta{0,0})^3(W), corollary 2 the product of Theta{0,c}
    over c in (0, 1, -1), each a 27^g-term sum at 3W over the bracket
    labels (rho1, rho2, sigma2) of each row."""
    step = 0 if which == 1 else 1
    rhs = [list(zip(*[((r1 - step, r2), (r1 + step, r2 + s2), (r1, r2 - s2))
                      for r1, r2, s2 in combo]))
           for combo in itertools.product(itertools.product((0, 1, -1), repeat=3), repeat=g)]
    return bracket_display(FieldId(3), g, [[(0, c * step)] * g for c in (0, 1, -1)], rhs, 3)


def quartic_display(g: int):
    """quartic_d1_zero's display (see bracket_display): (Theta{0,0})^4(W) as
    a 256^g-term sum at 4W over the bracket labels rho in O_K/4O_K and
    sigma, sigma' in 2O_K/4O_K of each row."""
    rho_labels = list(itertools.product((0, 1, -1, 2), repeat=2))
    sig_labels = list(itertools.product((0, 2), repeat=2))
    rhs = [
        list(zip(*[((r1, r2), (r2 + s1, -r1 + s2), (r2 + t1, -r1 + t2),
                    (-r1 + s2 - t2, -r2 - s1 + t1))
                   for (r1, r2), (s1, s2), (t1, t2) in zip(rho, sig, sigp)]))
        for rho in itertools.product(rho_labels, repeat=g)
        for sig in itertools.product(sig_labels, repeat=g)
        for sigp in itertools.product(sig_labels, repeat=g)
    ]
    return bracket_display(FieldId(1), g, [[(0, 0)] * g] * 4, rhs, 4)


# -- compiled sums and plans


def reduce_mod_integral(A0: KMatrix) -> KMatrix:
    """The representative of A0 mod Mat(g, h; O_K) whose entries have
    delta-coordinates in [-1/2, 1/2), as a leaf keys its A0 (thetas._int_key
    with center)."""
    return coords_to_kmatrix(*_int_key(*_int_coords(A0), center=True), A0.rows, A0.cols,
                             A0.field)


def compile_terms(terms):
    """Terms of one coefficient scale, one lattice and one leaf count per
    factor as a compiled side (relations._sum): each factor's leaves keyed
    by thetas._leaf_keys of its exact matrices, each q over the least
    common denominator of the terms' phases."""
    (scale,) = {t.coeff_scale for t in terms}
    (lattice,) = {f.lattice for t in terms for f in t.factors}
    leaves = [[_leaf_keys(f.p, f.a, f.b) for f in t.factors] for t in terms]
    (w,) = {len(f) for factors in leaves for f in factors}
    q_den = math.lcm(*(t.coeff_q.denominator for t in terms))
    rows = [(int(t.coeff_q * q_den), [leaf for f in factors for leaf in f])
            for t, factors in zip(terms, leaves)]
    return _sum(rows, q_den=q_den, coeff_scale=scale, factor_leaves=w, lattice=lattice)


def row_a0s(side) -> list[tuple[KMatrix, ...]]:
    """Per row of a compiled side (relations._Sum), the A0 of each leaf as
    its key holds it: reduced mod the lattice, as reduce_mod_integral
    gives it."""
    a0 = {}
    for j, (nums, den), _, ids in side.families:
        p = side.ps[j][0]
        m = coords_to_kmatrix(nums, den, len(nums) // (2 * p.rows), p.rows, p.field)
        a0.update(dict.fromkeys(ids, m))
    return [tuple(map(a0.__getitem__, idx)) for _, idx in side.rows]


def plan_factor(plan, i: int) -> tuple[int, ...]:
    """The leaves whose product table entry i of a relations._Plan is."""
    n = plan.starts[-1]
    return (i,) if i < n else plan.products[i - n]


def plan_leaf(plan, i: int):
    """The leaf of table entry i of a relations._Plan, as a family of one."""
    f = bisect.bisect_right(plan.starts, i) - 1
    return family_leaf(plan.families[f], i - plan.starts[f])


def leaf_phase(family, j: int = 0) -> tuple:
    """The linear phase (M, k, e(q0)) of leaf j of a thetas._Family."""
    phases = family.phases
    c, shift = phases.leaves[j]
    modulus, k, _ = phases.sums[c]
    return modulus, k, shift


def traced_peak(f, *args):
    """(f(*args), the peak of the memory traced by tracemalloc during the
    call, in bytes above what was traced when it started)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = f(*args)
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
