"""Shared test helpers (imported by the test modules beside this file)."""

import bisect
import math
import tracemalloc

from iqtheta.kfield import KMatrix
from iqtheta.lattices import _int_coords, coords_to_kmatrix
from iqtheta.relations import _sum
from iqtheta.thetas import _int_key, _leaf_keys


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
    return plan.families[f].leaf(i - plan.starts[f])


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
