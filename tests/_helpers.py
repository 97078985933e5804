"""Shared test helpers (imported by the test modules beside this file)."""

import tracemalloc

from iqtheta.kfield import KMatrix
from iqtheta.lattices import _int_coords, coords_to_kmatrix
from iqtheta.thetas import _int_key


def reduce_mod_integral(A0: KMatrix) -> KMatrix:
    """The representative of A0 mod Mat(g, h; O_K) whose entries have
    delta-coordinates in [-1/2, 1/2), as a leaf keys its A0 (thetas._int_key
    with center)."""
    return coords_to_kmatrix(*_int_key(*_int_coords(A0), center=True), A0.rows, A0.cols,
                             A0.field)


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
