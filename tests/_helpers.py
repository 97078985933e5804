"""Shared test helpers (imported by the test modules beside this file)."""

import bisect
import itertools
import math
import tracemalloc
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from iqtheta.kfield import KMatrix, dual_generator, re_trace_of_product
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
