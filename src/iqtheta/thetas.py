"""Numerical evaluation of matrix theta series over imaginary quadratic orders.

The central object is

    Theta^P[A0; B0](W) = sum over N in Mat(g, h; O_K) of
        exp(pi*i * Tr(conj(N+A0)^t W (N+A0) P) + 2*pi*i * Re Tr(conj(N+A0)^t B0))

which converges exactly when Y = (W - conj(W)^t) / (2i) and P are positive
definite.  Every term has modulus exp(-pi * Q(X)) with X = N + A0 and
Q(X) = Re Tr(X^H Y X P), and Q(X) >= lam_min(Y) * lam_min(P) * ||X||_F^2.
The radius r and the tail bound come from that isotropic decay, but the
sum runs over the ellipsoid Q(X) <= lam_Y * lam_P * r^2, which lies inside
the ball ||X||_F <= r and is much smaller when Y kron P is anisotropic.
The tail bound stays rigorous: in the norm sqrt(Q) / rho, rho^2 =
lam_Y * lam_P, distinct points are at least 1 apart (nonzero elements of
O_K have modulus >= 1), so the packing argument of `shell_tail_bound`
holds verbatim after that linear change of variables (see _theta_dense).

The ellipsoid is enumerated Fincke-Pohst style (`_ellipsoid_points`): in
the real coordinates (u, v) of each entry u + v*delta, from the Cholesky
factor of the Gram matrix of Q, one coordinate at a time from the last,
each level vectorized over runs of its frontier.  Evaluation is
deterministic: the points come in a fixed (lexicographic) order and are
summed in that order in chunks, with compensated accumulation of the chunk
subtotals.  The exponent of every point is one quadratic form: with x the
row-major vec of X, vec(W X P) = (W kron P^T) x, so a chunk of rows costs
one matrix product and one einsum over the flattened points of every family
in it (`_quad`), rather than a small matrix product per point or per
family; a 1-point family keeps a 1-row product, which BLAS rounds by its
own path.  The linear phase e(Re Tr(X^H B0)) is exact: with X = A0 +
sum_i z_i e_i over integer coordinates z, it is e(q0) times the root of
unity e((z.k mod M) / M), with q0, M and the integers k read off A0 and B0
(`_FamilyPhases`), so only the quadratic part is rounded inside exp.

The classical Riemann theta at z = 0 and s * Omega is the same sum over N
in Z^g, with P = [[s]] and a symmetric W = Omega (`_z_factor`;
`riemann_theta_z0` is s = 1): its leaf has the entry basis (1,) where a
field theta's has (1, delta), and the enumerator, kernel and tail bound are
the ones above.  Scaling W is always scaling P, so a theta reads W itself:
the check variant (`theta_check_variant`) is an exact phase times one
theta, with P = [[2]] where its series runs at 2W.

W is the only floating-point input.  P, A0 and B0 are exact matrices over K
(a KMatrix, or nested lists of int/Fraction).

Every theta runs in two steps.  The exact, W-independent work is done
once: `_leaf_keys` splits an exactly diagonal P into 1x1 columns and keys
each resulting dense theta (a leaf) by integers: A0 reduced mod the
lattice (O_K or Z) and B0 as coordinates over their least common
denominator (see `_Family`), so equal rationals give equal keys whichever
path built them.  Evaluation takes one W: the per-W check (`_at`: square,
finite, inside H1 with lam_min(Y) at least the eigenvalue grid, one
eigensolve) runs once, then the leaves are evaluated.  Only the three
public thetas lower matrices (`_lower`: shapes, then `_leaf_keys`), each
leaf one `_theta_dense` call, through a ThetaCache if one is passed.

Sums of many factors (relations.py) are compiled to these keys as they are
built, and lowered once into a table of distinct leaves held as families
(`_Family`): the leaves that share (field, shape, P, ThetaParams, entry
basis), their group, and A0 mod the lattice, and differ only in B0 (in a
relation, the thetas at B0 + c b for b in G2), one record each with its B0
keys.  A plan is evaluated at one W into a list of leaf values, by index,
that belongs to that one evaluation.  Before the term loop the families of
each group are evaluated together, one `_theta_batch` per group:
lam_min(P), the Gram matrix and its Cholesky factor, the (W kron P^T) form
and the radii are computed once per group.  A family's leaves share the
points and the quadratic exponent, so one enumeration runs over one center
per family and one exp per point serves the whole family; each leaf then
applies its own exact phase, one phase sum serving the leaves of a family
that differ only in e(q0).  A family's float inputs, its e(q0) and its
shared phase sums do not depend on W and are built once, on its first
evaluation.  The batch returns each family's values with the one tail
bound and point count they share.  Radii, tail bounds and point counts are
the ones a leaf gets alone, and a leaf's summation does not depend on its
batch or family, so its value is bit for bit the one a `_theta_dense` call
of its own gives; `_theta_dense` is the batch of one, which the public
thetas use.  A batch that fails raises its own error.

A caller that evaluates several plans at one W can pass a ThetaCache as the
table of family values they share (a suite entry does: the built relation
and the printed statement read many families at eps/h and at eps, which
give one radius).  A family is keyed by everything its values depend on:
the W bytes, its group without eps, A0, its B0 keys and the radius
`_theta_batch` picks at W.  Without one, every family is evaluated and
nothing is kept between calls.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, TruncationError
from .kfield import FieldId, KMatrix, re_trace_of_product
from .lattices import _int_coords

__all__ = [
    "ThetaParams",
    "ThetaValue",
    "ThetaCache",
    "in_type1_domain",
    "choose_radius",
    "shell_tail_bound",
    "theta_general",
    "theta_check_variant",
    "riemann_theta_z0",
]

MatrixLike = Union[KMatrix, Sequence[Sequence[complex]], np.ndarray]
ExactLike = Union[KMatrix, Sequence[Sequence[Union[int, Fraction]]]]

# Fixed chunk sizes keep the floating-point summation order independent of
# memory pressure and caller threading.
_EVAL_CHUNK = 1 << 18
_MAX_POINTS = 6_000_000
# The leaves of one group are enumerated together in batches of about this
# many points (by ellipsoid volume), so a batch's frontier stays small.
_BATCH_POINTS = 1 << 13
# The kernel's per-row stages run over at most this many rows of a block at
# a time (one more where a lone last row would be left; see _sub_blocks), so
# no array of float rows, entries, products or phase factors spans a block;
# the enumerator makes each level's children, and a block's points, in runs
# of at most this many (or of one parent with more).
_ROW_CHUNK = 1 << 12
# numpy evaluates a * t, for a temporary t of at least 256 KiB (2^14
# complex128), as t * a written into t (temporary elision), and a complex
# product with FMA rounds differently with its operands swapped.  The phase
# product is written as factors * quad from this many points on and as
# quad * factors below, the order numpy gave the expression quad * factors,
# so its bits hold whether or not numpy elides a temporary.
_ELIDE_ROWS = 1 << 14

# A leaf's roots of unity exp(2 pi i j / M) come from a cached table when M
# is at most this; above it, from a table built for one piece of at least M
# points, else per point (see _phase_sum).
_ROOTS_MAX = 1 << 10
# Integers below this are exact in a float64, and so is a sum of them that
# stays below it, in any order.
_FLOAT_INTS = 2.0 ** 53

# Eigenvalues are snapped down to this grid before entering the tail bound, so
# a one-ulp wobble in the eigensolver cannot move the chosen radius.
_LAMBDA_GRID = 2.0 ** -20


@dataclass(frozen=True)
class ThetaParams:
    """Accuracy and budget knobs for a single theta evaluation."""

    eps: float = 1e-12
    max_radius: float = 64.0

    def __post_init__(self) -> None:
        # written so that NaN fails too; inf is accepted
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if not self.max_radius > 0.0:
            raise ValueError(f"max_radius must be positive, got {self.max_radius}")


@dataclass(frozen=True)
class ThetaValue:
    """A truncated theta sum together with its rigorous truncation bound."""

    value: complex
    tail_bound: float
    lattice_points_used: int


class ThetaCache:
    """Memo table of family values that callers share across their calls,
    counting hits and misses.

    It has one key: _theta_batch keys a family's values by (W bytes, the
    family's value_key, the radius it gets at W), so characteristics that
    differ by an integral matrix share one entry, and a family read at eps
    and at eps/h is evaluated once where both give one radius.  The public
    thetas read each leaf through it as a family of one (_theta_dense);
    compiled sums (relations.py) take it as the table of family values that
    their evaluations share, when a caller passes one (a suite entry does,
    see presets._run_one_preset).
    """

    def __init__(self) -> None:
        self._store: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key):
        """The value stored under key, counted as a hit, or None."""
        value = self._store.get(key)
        if value is not None:
            self.hits += 1
        return value

    def put(self, key, value) -> None:
        """Store the value of a missed key."""
        self.misses += 1
        self._store[key] = value

    def get_or_compute(self, key, compute: Callable[[], ThetaValue]) -> ThetaValue:
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value


def _as_complex_matrix(m: MatrixLike, name: str) -> np.ndarray:
    if isinstance(m, KMatrix):
        arr = m.embed()
    else:
        arr = np.asarray(m, dtype=np.complex128)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DomainError(f"{name} must be a matrix, got ndim={arr.ndim}")
    return np.ascontiguousarray(arr, dtype=np.complex128)


def _snap(x: float) -> float:
    return math.floor(x / _LAMBDA_GRID) * _LAMBDA_GRID


def in_type1_domain(W: MatrixLike, tol: float = 1e-10) -> tuple[bool, float]:
    """Check membership in the type-I domain H1.

    Returns (ok, lam) where lam is the smallest eigenvalue of
    Y = (W - conj(W)^t) / (2i).  Membership requires lam > tol.
    """
    arr = _as_complex_matrix(W, "W")
    if arr.shape[0] != arr.shape[1]:
        return (False, float("-inf"))
    y = (arr - arr.conj().T) / 2j
    lam = float(np.linalg.eigvalsh(y)[0])
    return (lam > tol, lam)


def _shell_term(k: int, decay: float, dim: int) -> float:
    """The bound on the terms with norm in [k, k+1): at most
    2^dim * ((k + 3/2)^dim - (k - 1/2)^dim) points, each of modulus at most
    exp(-decay * k^2)."""
    count = (2.0 ** dim) * ((k + 1.5) ** dim - (k - 0.5) ** dim)
    return count * math.exp(-decay * k * k)


def shell_tail_bound(radius: int, decay: float, dim: int) -> float:
    """Upper bound for the sum of exp(-decay * ||x||^2) over lattice points
    with ||x|| >= radius, assuming pairwise distances >= 1.

    Points with norm in [k, k+1) carry disjoint balls of radius 1/2 inside
    the annulus [k - 1/2, k + 3/2), so their count is at most
    2^dim * ((k + 3/2)^dim - (k - 1/2)^dim).  At most 512 shells are summed.
    """
    if decay <= 0.0:
        return float("inf")
    total = 0.0
    for k in range(max(radius, 1), max(radius, 1) + 512):
        term = _shell_term(k, decay, dim)
        total += term
        if term < total * 1e-18:
            break
    return total


def _radius_floor(offset_norm: float) -> int:
    return max(1, int(math.ceil(offset_norm)) + 1)


def _shell_peak(decay: float, dim: int, cap: int) -> int:
    """The first k >= 1 whose shell term is at least the next one's, or cap
    if that k is larger.  The terms rise up to it and fall after it (the
    log of the count is concave, the log of the exponential falls linearly
    in k^2), so this is a doubling search and a bisection."""

    def falls(k: int) -> bool:
        return _shell_term(k + 1, decay, dim) <= _shell_term(k, decay, dim)

    lo, hi = 0, 1
    while not falls(hi):
        if hi >= cap:
            return cap
        lo, hi = hi, min(2 * hi, cap)
    return _bisect(falls, lo, hi)


def _bisect(pred: Callable[[int], bool], lo: int, hi: int) -> int:
    """The first k in (lo, hi] with pred(k), for pred false at lo, true at
    hi and monotone in between."""
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _first_fit(
    eps: float, decay: float, dim: int, floor_r: int, last: int
) -> Optional[int]:
    """The smallest radius r in [floor_r, last] whose shell tail bound is
    at most eps, or None; see choose_radius."""

    def fits(r: int) -> bool:
        return shell_tail_bound(r, decay, dim) <= eps

    if floor_r <= last and fits(floor_r):
        return floor_r
    if floor_r >= last or decay <= 0.0:
        return None
    peak = _shell_peak(decay, dim, last + 1)
    for r in range(max(floor_r + 1, peak - 512), min(peak, last + 1)):
        if _shell_term(r, decay, dim) <= eps and fits(r):
            return r
    lo = max(floor_r, peak - 1)  # every radius up to lo fails
    step = 1
    while lo < last:
        hi = min(lo + step, last)
        if fits(hi):
            return _bisect(fits, lo, hi)
        lo = hi
        step *= 2
    return None


def choose_radius(
    eps: float,
    decay: float,
    dim: int,
    offset_norm: float = 0.0,
    max_radius: float = 64.0,
) -> int:
    """Smallest integer radius r, from a floor up to max_radius, whose shell
    tail bound is at most eps.

    offset_norm only floors the radius so that the near-origin points of the
    shifted lattice are always enumerated.

    The search takes O(log r) tail bounds, so an infinite max_radius ends
    too.  It returns the smallest such radius because the tail bound S(r)
    sums the shells [r, r + 512): the shell terms rise up to their peak and
    fall after it, so S rises with r while the whole window lies before the
    peak, and falls with r from the peak on.  Past a floor that does not
    fit, the radii before the last 512 before the peak cannot fit; those
    512 are tried in turn (skipping the ones whose first shell term alone
    exceeds eps, since S(r) is at least that term), and from the peak on a
    doubling search and a bisection find the first radius that fits.
    """
    last = int(min(max_radius, 2.0 ** 62))
    try:
        radius = _first_fit(eps, decay, dim, _radius_floor(offset_norm), last)
    except OverflowError:  # the shell count at a huge radius and dim
        raise TruncationError(
            f"the tail bound overflows before it falls to eps={eps:.3e} "
            f"(decay={decay:.3e}, dim={dim})"
        ) from None
    if radius is None:
        tail = shell_tail_bound(last, decay, dim)
        raise TruncationError(
            f"required radius exceeds max_radius={max_radius:g}: "
            f"tail bound at the cap is {tail:.3e} > eps={eps:.3e} "
            f"(decay={decay:.3e}, dim={dim})"
        )
    return radius


def _center(n: int, den: int) -> int:
    """n - floor(n/den + 1/2) * den, with floor(n/den + 1/2) =
    (2n + den) // (2 den): n/den moved into [-1/2, 1/2) by an integer."""
    return n - (2 * n + den) // (2 * den) * den


def _int_key(
    nums: Sequence[int], den: int, center: bool = False
) -> tuple[tuple[int, ...], int]:
    """The coordinates nums / den over their least common denominator, as
    (nums, den); with center, each first moved into [-1/2, 1/2) by an
    integer (see _center), which is A0 reduced mod the lattice.  Equal
    rationals give equal pairs."""
    if center:
        nums = [_center(v, den) for v in nums]
    g = math.gcd(den, *nums)
    if g == 1:
        return tuple(nums), den
    return tuple(v // g for v in nums), den // g


def _offsets(
    nums: Sequence[int], den: int, g: int, h: int, basis: tuple[complex, ...]
) -> np.ndarray:
    """The g x h matrix with row-major coordinates nums / den, embedded."""
    # n / den rounds like float(Fraction(n, den)), so the floats are the
    # ones the rational coordinates give; over Z (basis (1,)) m is 0
    dc = basis[1] if len(basis) == 2 else 0.0
    return np.array(
        [n / den + (m / den) * dc for n, m in zip(nums[::2], nums[1::2])],
        dtype=np.complex128,
    ).reshape(g, h)


def _exact(m: ExactLike, name: str, field: FieldId) -> KMatrix:
    """m as a KMatrix: a KMatrix as is, nested lists of int/Fraction over
    field; any other input (numpy arrays, floats, complex) is a TypeError."""
    if isinstance(m, KMatrix):
        return m
    if isinstance(m, (list, tuple)) and all(
        isinstance(row, (list, tuple))
        and all(isinstance(x, (int, Fraction)) and not isinstance(x, bool) for x in row)
        for row in m
    ):
        return KMatrix.from_rational_rows(m, field)
    raise TypeError(
        f"{name} must be a KMatrix or nested lists of int/Fraction, "
        f"got {type(m).__name__}"
    )


def _ellipsoid_points(
    R: np.ndarray, C: np.ndarray, bounds: np.ndarray, radii: Sequence[int]
) -> tuple[np.ndarray, Iterator[tuple[np.ndarray, list[tuple[int, int, int]]]]]:
    """The integer points z with |R (z + c)|^2 <= bound, for each row c of C
    with its own bound (Fincke-Pohst).

    R is upper triangular with a positive diagonal, so the form is
    sum_i R_ii^2 (y_i + sum_{j>i} R_ij/R_ii y_j)^2 with y = z + c, and each
    coordinate, given the ones after it, ranges over one interval.  The
    coordinates are fixed from the last to the first, each level
    vectorized over runs of the frontier of every center; a node keeps the
    index of its center, and the nodes of one center stay contiguous.

    Returns the number of points of each center and an iterator over
    blocks (rows, segments): integer rows whose column j is coordinate
    n-1-j, and (center, start, end) for each run of rows of one center.
    A center's points come in lexicographic order of (z_{n-1}, ..., z_0),
    cut into pieces of at most _EVAL_CHUNK points (more only if one
    interval is longer) at the same places whatever the other centers are;
    a block holds consecutive whole pieces up to _EVAL_CHUNK rows in all,
    or one longer piece.

    Coordinates are held in the narrowest integer type that holds every
    level's intervals, taken as each level is made, and read as floats
    (exact) only for a level's center product.  The centers' intervals are
    taken at once.  Every later level, and then every block's points, are
    the children of the level before, made by one writer
    (_runs_of_children) one run of at most _ROW_CHUNK children (or one
    parent with more) at a time.  A level's intervals are written to arrays
    of its size: lo as int64, counts and owners as int32, and each node's
    interval center and what is left of its bound as float64 where another
    level follows.  The blocks are made one at a time (_blocks), so memory
    holds the last level's nodes and one block of rows (n bytes a point at
    int8, against 8n as floats), and the node arrays go once the last
    block is made.  A center's product runs per run of parents: a row's
    product does not depend on the other rows, and a center reaches the
    points only through the integer intervals.

    TruncationError as soon as a run takes a center past _MAX_POINTS nodes
    of a level, before the next level is made; radii are only reported
    there.  A level's nodes are counted per center only once its total is
    past the cap, each node once, about _ROW_CHUNK at a time.
    """
    m, n = C.shape
    diag = R.diagonal()
    q = R / diag[:, None]
    qi = q[n - 1, :n - 1:-1]
    Z = np.empty((m, 0), dtype=np.int8)
    rem = np.asarray(bounds, dtype=np.float64)
    owner = np.arange(m)
    center, lo, counts, top = _intervals(
        Z, rem, C[:, :n - 1:-1] @ qi + C[:, n - 1], qi, diag[n - 1])
    edges = _bounds(counts)
    if edges[-1] > _MAX_POINTS:  # else no center is over the cap
        _check_cap(counts, 1, n, radii)
    for i in range(n - 2, -1, -1):
        # the children of the nodes so far hold coordinates n-1, ..., i+1,
        # in the type of the levels so far
        qi = q[i, :i:-1]
        shift = C[:, :i:-1] @ qi + C[:, i]
        total = int(edges[-1])
        Z_next = np.empty((total, n - 1 - i), dtype=np.min_scalar_type(-int(top) - 1))
        lo_next = np.empty(total, dtype=np.int64)
        counts_next = np.empty(total, dtype=np.int32)
        owner_next = np.empty(total, dtype=np.int32)
        # interval centers and what is left of the bounds: read by a next level
        center_next, rem_next = (np.empty(total), np.empty(total)) if i else (None, None)
        per_center = 0  # the nodes 0..counted-1 of each center
        done = counted = 0
        for a, b, z, (rem_c, center_c, owner_c) in _runs_of_children(
                Z, lo, counts, edges, 0, len(counts), Z_next, rem, center, owner):
            rem_c -= (diag[i + 1] * (z - center_c)) ** 2
            del center_c  # the parents' centers: not held while the intervals are taken
            center_c, lo_c, counts_c, level_top = _intervals(
                Z_next[a:b], rem_c, shift.take(owner_c), qi, diag[i])
            top = max(top, level_top)
            lo_next[a:b] = lo_c
            counts_next[a:b] = counts_c
            owner_next[a:b] = owner_c
            if i:
                center_next[a:b], rem_next[a:b] = center_c, rem_c
            done += int(counts_c.sum())
            while done > _MAX_POINTS and counted < b:  # else no center is over the cap
                stop = min(counted + _ROW_CHUNK, b)
                per_center = per_center + np.bincount(
                    owner_next[counted:stop], counts_next[counted:stop], m)
                counted = stop
                _check_cap(per_center, n - i, n, radii)
        Z, rem, owner, center = Z_next, rem_next, owner_next, center_next
        lo, counts = lo_next, counts_next
        edges = _bounds(counts)

    first = owner.searchsorted(np.arange(m + 1))  # a center's nodes are contiguous
    cut = edges[first]
    pieces = _pieces(edges, first.tolist())
    return cut[1:] - cut[:-1], _blocks(
        Z, lo, counts, edges, pieces, np.min_scalar_type(-int(top) - 1))


def _intervals(
    Z: np.ndarray, rem: np.ndarray, shift: np.ndarray, qi: np.ndarray, d: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """The next coordinate's interval of each node of a level of
    _ellipsoid_points (Z its integer coordinates so far, rem what is left of
    its bound, shift its center's part of the center): (center, lo, counts,
    the largest |z| of the intervals).  Z is read as floats for the product
    with qi; the conversion is exact."""
    center = -(Z.astype(np.float64) @ qi) - shift
    half = np.sqrt(np.maximum(rem, 0.0)) / d
    lo = np.ceil(center - half)
    # a node's coordinate runs over lo up to hi = floor(center + half), held
    # in counts until the count replaces it; an empty node (hi = lo - 1)
    # holds none and can only widen the type
    counts = np.floor(center + half)
    top = float(np.maximum(-lo, counts).max(initial=0.0))
    counts = (counts - lo + 1.0).astype(np.int64)
    np.maximum(counts, 0, out=counts)
    return center, lo, counts, top


def _check_cap(per_center: np.ndarray, levels: int, n: int, radii: Sequence[int]) -> None:
    """TruncationError if a center counts more than _MAX_POINTS nodes after
    the given number of levels of n; radii are only reported."""
    over = np.flatnonzero(per_center > _MAX_POINTS)
    if len(over):
        j = int(over[0])
        raise TruncationError(
            f"lattice enumeration exceeds max_points={_MAX_POINTS}: "
            f"{int(per_center[j])} points after {levels} of {n} coordinates "
            f"(radius {radii[j]}, dim {n})"
        )


def _bounds(counts: np.ndarray) -> np.ndarray:
    """The index of each node's first child, for counts children each,
    then one past the last node's last child: node i's children are
    bounds[i]:bounds[i+1], in int64."""
    bounds = np.zeros(len(counts) + 1, dtype=np.int64)
    np.add.accumulate(counts, dtype=np.int64, out=bounds[1:])
    return bounds


def _node_runs(bounds: Sequence[int], s: int, e: int, size: int) -> list[tuple[int, int]]:
    """Nodes s..e-1, node i's children bounds[i]:bounds[i+1] (see _bounds),
    cut in order into runs (a, b) of at most size children, or of one node
    that has more."""
    runs = []
    while s < e:
        b = max(bisect_right(bounds, bounds[s] + size, s + 1, e + 1) - 1, s + 1)
        runs.append((s, b))
        s = b
    return runs


def _runs_of_children(
    Z: np.ndarray, lo: np.ndarray, counts: np.ndarray, bounds: np.ndarray, s: int, e: int,
    out: np.ndarray, *per_node: np.ndarray
) -> Iterator[tuple[np.ndarray, ...]]:
    """The children of nodes s..e-1 of a level of _ellipsoid_points, one per
    integer of each node's interval lo..lo+counts-1, in order (bounds their
    first children, see _bounds), written to out from its row 0, node s's
    first child, in out's integer type.  One run of parents at a time
    (_node_runs at _ROW_CHUNK): the run's parents, with a spare last
    column, are taken into whole rows of out, one per child, and the last
    column set to the new coordinate, summed in int64 (its partial sums
    need not fit out's type).  Gives, per run, its rows a..b-1 of out, the
    new coordinate and each per_node array at the children's parents."""
    base = int(bounds[s])
    for p, q in _node_runs(bounds, s, e, _ROW_CHUNK):
        node = np.arange(q - p).repeat(counts[p:q])  # each child's parent
        a, b = int(bounds[p]) - base, int(bounds[q]) - base
        parents = np.empty((q - p, out.shape[1]), dtype=out.dtype)
        parents[:, :-1] = Z[p:q]
        # node is in range, and take buffers out unless the mode is "clip"
        parents.take(node, axis=0, out=out[a:b], mode="clip")
        z = (lo[p:q] - bounds[p:q]).take(node) + np.arange(a + base, b + base)
        out[a:b, -1] = z
        yield a, b, z, [x[p:q].take(node) for x in per_node]


def _blocks(
    Z: np.ndarray, lo: np.ndarray, counts: np.ndarray, edges: np.ndarray,
    pieces: list[tuple[int, int, int]], dtype: np.dtype
) -> Iterator[tuple[np.ndarray, list[tuple[int, int, int]]]]:
    """The blocks (rows, segments) of _ellipsoid_points over its last-level
    nodes and pieces: a block's rows, in dtype, are the children of its
    pieces' nodes (_runs_of_children), a piece's points edges[s]:edges[e]
    for its nodes s..e-1; the node arrays are released once the last
    block is made."""
    # the pieces cover the nodes in order: piece k holds points cut[k]..cut[k+1]-1
    cut = [0, *edges.take([e for _, _, e in pieces]).tolist()]
    for k, k_end in _node_runs(cut, 0, len(pieces), _EVAL_CHUNK):
        base = cut[k]
        rows = np.empty((cut[k_end] - base, Z.shape[1] + 1), dtype=dtype)
        for _ in _runs_of_children(Z, lo, counts, edges, pieces[k][1], pieces[k_end - 1][2], rows):
            pass
        segments = [(j, cut[i] - base, cut[i + 1] - base)
                    for i, (j, _, _) in enumerate(pieces[k:k_end], k)]
        if k_end == len(pieces):  # not read again: freed while the kernel runs
            del Z, lo, counts, edges
        yield rows, segments


def _pieces(edges: np.ndarray, first: list[int]) -> list[tuple[int, int, int]]:
    """The nodes of each center (center j's are first[j]..first[j+1]-1,
    node i's points edges[i]:edges[i+1]) cut in order into pieces (center,
    first node, end node) of at most _EVAL_CHUNK points, or of one node
    that has more (_node_runs)."""
    return [(j, a, b) for j, (s, e) in enumerate(zip(first, first[1:]))
            for a, b in _node_runs(edges, s, e, _EVAL_CHUNK)]


class _FamilyFloats(NamedTuple):
    """The float inputs of a family's dense thetas that its group does not
    share, all W-independent; they depend on A0 only."""

    offsets: np.ndarray  # A0 reduced mod the lattice, embedded
    offset_norm: float
    coords: np.ndarray  # each entry's coordinates in the basis, row-major


class _FamilyPhases(NamedTuple):
    """A family's linear phases, exactly.  For a point X = A0 + sum_i z_i e_i
    (e_i runs over the basis times each entry's matrix unit, A0 reduced
    mod the lattice), Re Tr(X^H B0) = q0 + sum_i z_i t_i with
    q0 = Re Tr(A0^H B0) and t_i = Re(conj(e_i) B0_entry) rational, so
    e(Re Tr(X^H B0)) = e(q0) e((z.k mod M) / M) for M the common
    denominator of the t_i and the integers k = M t mod M.  The leaves with
    equal (M, k) differ only in e(q0), so they share one phase sum.
    W-independent."""

    # per phase sum: (M, k in the enumerator's column order, k as a float64
    # row where 1 < M < 2^53, else None)
    sums: tuple[tuple[int, tuple[int, ...], Optional[np.ndarray]], ...]
    leaves: tuple[tuple[int, complex], ...]  # per B0 of the family: (its sum, e(q0))


class _FamilyValue(NamedTuple):
    """A family at one W: each leaf's value, and the bound and points they share."""

    values: list[complex]
    tail_bound: float
    points: int


# The Z-basis of a real theta's entries; a field theta's is (1, delta).
_Z_BASIS = (1.0,)
# The leaf basis of each lattice a theta sums over (None: the field's).
_BASES = {"O_K": None, "Z": _Z_BASIS}
# The field whose KMatrix holds a real theta's rational A0 and B0: any field
# would do, since only their rational parts are read over _Z_BASIS.
_RATIONALS = FieldId(1)


class _Family:
    """The dense thetas Theta^P[A0; B0] over the lattice Mat(g, h; Z basis)
    that share P, A0 reduced mod that lattice, eps, max_radius and the
    basis ((1, delta) for O_K, (1,) for Z): one leaf per B0 key of bs.

    A0 and each B0 are keys (nums, den): the row-major coordinates (n, m)
    of the entries (n + m delta) / den over their least common denominator
    (see _int_key), so equal rationals give equal keys whichever path built
    them.  The float and phase inputs are built on the first evaluation and
    kept for every later W, so bs is complete by then."""

    def __init__(self, field: FieldId, P: KMatrix, p_key: tuple, a: tuple,
                 params: ThetaParams, basis: Optional[tuple] = None, bs: Sequence = ()) -> None:
        if basis is None:
            basis = (1.0, field.delta_complex)
        h = P.rows
        # what the families of one batch share
        self.group = (field.d, len(a[0]) // (2 * h), h, p_key, params.eps,
                      params.max_radius, basis)
        self.field, self.P, self.params, self.basis = field, P, params, basis
        self.a, self.bs = a, list(bs)
        self._slots: Optional[dict] = None

    @property
    def g(self) -> int:
        return self.group[1]

    @property
    def key(self) -> tuple:
        """The identity of the family: its group, A0 and B0 keys."""
        return self.group, self.a, tuple(self.bs)

    @cached_property
    def value_key(self) -> tuple:
        """key without eps, which reaches the family's values only through
        the radius (see _theta_batch); built on the first evaluation, as
        floats and phases are."""
        d, g, h, p_key, _, max_radius, basis = self.group
        return (d, g, h, p_key, max_radius, basis), self.a, tuple(self.bs)

    def intern(self, b: tuple[tuple[int, ...], int]) -> int:
        """b's position in bs, appended if new (lowering only: see phases)."""
        if self._slots is None:
            self._slots = {x: j for j, x in enumerate(self.bs)}
        j = self._slots.setdefault(b, len(self.bs))
        if j == len(self.bs):
            self.bs.append(b)
        return j

    @cached_property
    def floats(self) -> _FamilyFloats:
        (nums, den), g, h = self.a, self.g, self.P.rows
        offsets = _offsets(nums, den, g, h, self.basis)
        return _FamilyFloats(
            offsets,
            math.sqrt(float(np.sum(np.abs(offsets) ** 2))),
            np.array([c / den for c in (nums if len(self.basis) == 2 else nums[::2])]),
        )

    @cached_property
    def phases(self) -> _FamilyPhases:
        nb = len(self.basis)
        nums, den_a = self.a
        if nb == 1:
            nums = nums[::2]
        shared: dict[tuple, int] = {}  # (M, k) -> its sum
        leaves = []
        d = self.field.d
        for b in self.bs:
            modulus, k, den, w = _phase_residues(d, *b, nb)
            # q0 = Re Tr(A0^H B0) = (c . w) / (den_a den) for the
            # coordinates c / den_a of A0's entries in the basis
            q0 = sum(map(operator.mul, nums, w))
            leaves.append((shared.setdefault((modulus, k), len(shared)),
                           _phase_of(-q0, den_a * den)))
        # k < M, so exact as floats where M < 2^53
        return _FamilyPhases(
            tuple((modulus, k, np.array(k, dtype=np.float64) if 1 < modulus < _FLOAT_INTS else None)
                  for modulus, k in shared),
            tuple(leaves))


# each d's FieldId, built once: FieldId(d) checks that d is squarefree
_field = lru_cache(maxsize=64)(FieldId)


@lru_cache(maxsize=1 << 12)
def _phase_residues(
    d: int, nums: tuple[int, ...], den: int, nb: int
) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
    """The Re pairing with B0 = nums / den (row-major coordinates, see
    _Family) over Q(sqrt(-d)) in integers, and the modulus M and the
    integers k of _FamilyPhases read off it; all depend on B0 and the basis
    alone: the leaves of a relation, a decomposition's too, repeat each
    B0 across G1.  The cache is keyed on ints
    only: a FieldId, a dataclass, hashes in Python.

    Returns (M, k, D, w) with t_i = Re(conj(e_i) y) = w_i / D for each
    entry y of B0, row-major, and each basis element e_i."""
    w = _weights(nums, _field(d))
    if nb == 1:
        w = w[::2]
    # M is the lcm of the reduced denominators of the t_i, and k_i = M t_i
    common = math.gcd(2 * den, *w)
    modulus = 2 * den // common
    return modulus, tuple(v // common % modulus for v in reversed(w)), 2 * den, w


def _weights(nums: Sequence[int], field: FieldId) -> tuple[int, ...]:
    """The Re pairing in integers: w with Re Tr(X^H Y) = (x . w) / (2 dx dy)
    for X and Y with row-major coordinates x / dx and nums / dy (see
    _Family)."""
    # for y = (n + m delta) / dy, Re(y) = (2n + Tr(delta) m) / (2 dy) and
    # Re(conj(delta) y) = (Tr(delta) n + 2 N(delta) m) / (2 dy)
    tr, nd2 = field.delta_trace, 2 * field.delta_norm
    return tuple(w for n, m in zip(nums[::2], nums[1::2])
                 for w in (2 * n + tr * m, tr * n + nd2 * m))


@lru_cache(maxsize=64)
def _roots(modulus: int) -> np.ndarray:
    """exp(2 pi i (j / modulus)) for j < modulus, the expression that
    _phase_sum evaluates per point; read-only, since the cache hands it to
    every caller (_roots.__wrapped__ builds it uncached)."""
    table = np.exp(2j * np.pi * (np.arange(modulus) / modulus))
    table.flags.writeable = False
    return table


def _float_residues(modulus: int, zmax: float, k: tuple[int, ...]) -> bool:
    """Whether z.k and its residue mod M = modulus are exact as floats for
    every row z with |z| <= zmax (see _residues)."""
    return modulus < _FLOAT_INTS and modulus + zmax * sum(k) < _FLOAT_INTS


def _residues(z: np.ndarray, ks: np.ndarray, modulus: int) -> np.ndarray:
    """z.k mod M = modulus for the integer rows z, as floats, for k given
    as the float row ks: exact where _float_residues holds.  z.k and its
    partial sums are then integers below 2^53 - M in absolute value, so
    the product is exact in any order.  floor(fl(v / M)) could only be off
    by rounding up to the next integer N, which needs N - v / M (at least
    1 / M) <= |v / M| 2^-53, so |v| >= 2^53.  So q is floor(v / M), and
    r = v - M q is exact (|M q| < |v| + M) and in [0, M): np.mod on floats
    costs ten times as much."""
    v = np.matmul(z.astype(np.float64), ks)
    r = np.divide(v, modulus)
    np.floor(r, out=r)
    r *= modulus
    return np.subtract(v, r, out=r)


def _phase_sum(
    quad: np.ndarray, z: np.ndarray, modulus: int, k: tuple[int, ...],
    ks: Optional[np.ndarray], into: Optional[np.ndarray] = None
) -> complex:
    """The sum over the rows z of integer coordinates (column j is
    coordinate n-1-j) of quad times e((z.k mod M) / M), M = modulus.

    With ks, k as a float row, where _float_residues holds, the residues
    z.k mod M are taken as floats (_residues), exactly; else ks is None and
    they are taken in Python integers.  e(r / M) is exp(2 pi i (r / M))
    with r / M correctly rounded either way (int / int rounds correctly);
    on the float path it is read from a table of _roots, cached up to
    _ROOTS_MAX and built for this call up to the number of rows: the same
    floats, so the value does not depend on the path.  The residues and
    factors are built one sub-block of rows at a time (_sub_blocks) and
    multiplied into the terms, elementwise, so the cut leaves every bit;
    the terms are one array over the piece, summed whole: into, which the
    caller may give as quad itself once it no longer needs it, else the
    factors' own array where one sub-block spans the piece, else a new
    one.  The product takes its operand order from the piece's size (see
    _ELIDE_ROWS)."""
    if modulus == 1:
        return quad.sum()
    cuts = _sub_blocks(0, len(quad))
    table = None
    if ks is not None and modulus <= _ROOTS_MAX:
        table = _roots(modulus)
    elif ks is not None and modulus <= len(quad):
        table = _roots.__wrapped__(modulus)
    for a, b in cuts:
        if ks is None:
            factors = _turns(np.array([sum(map(operator.mul, row, k)) % modulus / modulus
                                       for row in z[a:b].tolist()]))
        elif table is not None:
            factors = table[_residues(z[a:b], ks, modulus).astype(np.intp)]
        else:
            factors = _turns(_residues(z[a:b], ks, modulus) / modulus)
        if into is None:
            into = factors if len(cuts) == 1 else np.empty_like(quad)
        if len(quad) >= _ELIDE_ROWS:
            np.multiply(factors, quad[a:b], out=into[a:b])
        else:
            np.multiply(quad[a:b], factors, out=into[a:b])
    return into.sum()


def _turns(q: np.ndarray) -> np.ndarray:
    """exp(2 pi i q), in one new array."""
    e = np.multiply(2j * np.pi, q)
    return np.exp(e, out=e)


def _sub_blocks(start: int, end: int) -> list[tuple[int, int]]:
    """Rows start..end-1 cut in order into runs of _ROW_CHUNK rows, the
    last one taking a lone last row: BLAS computes a 1-row product by
    another path (gemv), which rounds differently from the same row in a
    longer product."""
    cuts = [*range(start, max(end - 1, start + 1), _ROW_CHUNK), end]
    return list(zip(cuts, cuts[1:]))


def _row_chunks(
    segments: Sequence[tuple[int, int, int]]
) -> list[tuple[int, int, list[tuple[int, int, int]]]]:
    """The rows of a block (see _ellipsoid_points) in chunks (a, b, parts)
    of at most _ROW_CHUNK + 1 rows a..b-1: consecutive parts (j, s, e),
    each a sub-block s..e-1 of segment j (see _sub_blocks)."""
    chunks: list = []
    for j, start, end in segments:
        for s, e in _sub_blocks(start, end):
            if chunks and e - chunks[-1][0] <= _ROW_CHUNK + 1:
                chunks[-1][1] = e
                chunks[-1][2].append((j, s, e))
            else:
                chunks.append([s, e, [(j, s, e)]])
    return [tuple(c) for c in chunks]


def _piece_sums(quad: np.ndarray, z: np.ndarray, phases: _FamilyPhases,
                zmax: float) -> list[complex]:
    """The phase sums of one piece (see _FamilyPhases.sums), in order, over
    its rows z and exponents quad, each with its float row of k where
    _float_residues holds (see _phase_sum); the last sum multiplies into
    quad, which the piece does not read again."""
    out = []
    last = len(phases.sums) - 1
    for c, (modulus, k, ks) in enumerate(phases.sums):
        if ks is not None and not _float_residues(modulus, zmax, k):
            ks = None
        out.append(_phase_sum(quad, z, modulus, k, ks, quad if c == last else None))
    return out


def _entries(z: np.ndarray, basis: tuple[complex, ...]) -> np.ndarray:
    """The entries of the points z (rows of integer coordinates, column j
    is coordinate n-1-j), elementwise (a product z @ e rounds differently):
    entry i is z_{2i} + z_{2i+1} delta over (1, delta), written through
    its real and imaginary views with the roundings of that complex
    expression on z as floats (int to float64 is exact), so bit for bit
    the same."""
    n = z.shape[1]
    x = np.empty((len(z), n // len(basis)), dtype=np.complex128)
    if len(basis) == 1:
        x.real = z[:, ::-1]
        x.imag = 0.0
        return x
    np.multiply(z[:, n - 2 :: -2], basis[1].real, out=x.real)
    x.real += z[:, n - 1 :: -2]
    np.multiply(z[:, n - 2 :: -2], basis[1].imag, out=x.imag)
    return x


def _quad(
    z: np.ndarray, segments: Sequence[tuple[int, int, int]], offsets: np.ndarray,
    m_t: np.ndarray, basis: tuple[complex, ...]
) -> np.ndarray:
    """exp(i pi x^t m_t x) for each row of a block (see _ellipsoid_points),
    x the entries of the row plus the offsets of its segment's center:
    conj(x)^t (W kron P^T) x = Tr(X^H W X P) for m_t = (W kron P^T)^T.

    The block runs in chunks of at most _ROW_CHUNK + 1 rows (_row_chunks),
    each with its offsets added per row, one matrix product and one einsum.
    A row of a product of two or more rows has the same bits at any
    position in it, but BLAS computes a 1-row product by another path
    (gemv), which rounds differently: a 1-point segment keeps a 1-row
    product of its own (see _sub_blocks), so each row's bits do not depend
    on its chunk."""
    e1 = np.empty(len(z), dtype=np.complex128)
    for a, b, parts in _row_chunks(segments):
        x = _entries(z[a:b], basis)
        if len(parts) == 1:  # one row of offsets, broadcast: no array of them
            x += offsets[parts[0][0]]
        else:
            x += np.repeat(offsets[[j for j, _, _ in parts]],
                           [e - s for _, s, e in parts], axis=0)
        y = np.matmul(x, m_t)
        for _, s, e in parts:
            if e - s == 1:
                np.matmul(x[s - a:e - a], m_t, out=y[s - a:e - a])
        np.einsum("nk,nk->n", np.conjugate(x, out=x), y, out=e1[a:b])
        del x, y  # before the next chunk's are built
    return np.exp(np.multiply(1j * np.pi, e1, out=e1), out=e1)


def _theta_batch(
    families: Sequence[_Family], W: np.ndarray, lam_y: float,
    cache: Optional[ThetaCache] = None,
) -> list[_FamilyValue]:
    """The families of one group (see _Family.group) at a checked W (see
    _at): for each leaf, the sum over the ellipsoid Q(X) = Re Tr(X^H Y X P)
    <= lam_Y lam_P r^2 of its shifted lattice.  Over Z, W must be symmetric.

    The radius r and the tail bound are the isotropic ones: with
    rho^2 = snap(lam_Y) snap(lam_P) <= lam_min(Y kron P^T), every term has
    modulus exp(-pi Q(X)) = exp(-decay |X|'^2) in the norm |X|' =
    sqrt(Q(X)) / rho, and distinct points differ by a nonzero N in
    Mat(g, h; O_K) or Mat(g, h; Z), so Q(N) >= rho^2 |N|_F^2 >= rho^2: they
    are at least 1 apart in |.|'.  shell_tail_bound's packing argument holds
    verbatim after this linear change of variables, so it bounds the terms with
    |X|' >= r.  The enumerated set contains every point with Q < rho^2 r^2,
    since the bound uses the unsnapped eigenvalues times (1 + 1e-9), so
    float rounding can only add points; an empty ellipsoid gives the value
    0, which the tail bound then covers.  The ellipsoid lies inside the
    ball |X|_F <= r (Q >= lam_Y lam_P |X|_F^2); for g = h = 1 it is that
    disk.

    The Y kron P work is done once for the group: lam_min(P) (with P's
    floats, once per P: _p_floats), the Gram matrix of Q and its Cholesky
    factor, the (W kron P^T) form, and one radius per radius floor.  A
    family's leaves share the offsets, radius, bound, points and quadratic
    exponent, and differ only in the linear phase: each family is one
    center of the enumeration and one exp(i pi e1) per point (_quad, one
    matrix product and one einsum per chunk of rows, whatever families the
    chunk holds), and each of its phase sums (see _FamilyPhases) takes
    e(z.k / M) from the integer coordinates z in one _phase_sum per piece.
    The families are cut, in order, into batches of about _BATCH_POINTS
    points by the ellipsoid volume, one enumeration each; a family
    estimated above that runs alone.  Each leaf keeps its own summation
    (each piece of its points summed alone, the piece sums fsum-ed, then
    times e(q0)), so its value does not depend on the other leaves of its
    batch or family.

    With a cache (a table of family values that a caller shares across
    evaluations, see ThetaCache), each family is first looked up under
    (W bytes, its value_key, its radius), and only the families it lacks
    are enumerated and then stored.  eps reaches a family's values only
    through the radius: the bound, the tail bound and the points follow
    from the radius at W.  So a family read at eps and at eps/h (a
    diagonal P's columns) is enumerated once where both give one radius,
    and its values are the ones it would get alone, bit for bit.

    Memory: a family's working set is its integer rows (n bytes a point at
    int8, see _ellipsoid_points) and at most two complex arrays over a
    piece: the exponent (16 bytes a point), which exp overwrites, and, for
    each phase sum but the piece's last, its terms (16), while the last
    sum multiplies into the exponent.  The entries, their per-row offsets,
    their products (y, which spans a chunk of rows, not one family's part
    of it), and one phase sum's float rows, z.k and its residues, their
    indices and the factors exist for at most _ROW_CHUNK + 1 rows at a
    time (_row_chunks, _phase_sum).  The product of the exponents and the
    phase factors takes its operand order from the piece's size (see
    _ELIDE_ROWS), not from how numpy evaluates an expression.
    """
    first = families[0]
    basis = first.basis
    nb = len(basis)
    if nb == 1:
        _check_symmetric(W)
    p, lam_p_raw = _p_floats(first.P)
    floats = [fam.floats for fam in families]
    g, h = floats[0].offsets.shape
    lam_p = _snap(lam_p_raw)
    if lam_p <= 0.0:
        raise DomainError(f"P must be positive definite, lam_min={lam_p:g}")
    decay = math.pi * _snap(lam_y) * lam_p
    dim = nb * g * h
    params = first.params
    radius_at: dict[int, int] = {}
    radii = []
    for f in floats:
        key = _radius_floor(f.offset_norm)
        if key not in radius_at:
            radius_at[key] = choose_radius(
                params.eps, decay, dim, offset_norm=f.offset_norm,
                max_radius=params.max_radius,
            )
        radii.append(radius_at[key])
    out: list[Optional[_FamilyValue]] = [None] * len(families)
    if cache is not None:
        w_key = W.tobytes()
        keys = [(w_key, fam.value_key, r) for fam, r in zip(families, radii)]
        out = [cache.get(key) for key in keys]
    todo = [f for f, v in enumerate(out) if v is None]
    if not todo:
        return out
    tails = {r: shell_tail_bound(r, decay, dim) for r in {radii[f] for f in todo}}
    phases = {f: families[f].phases for f in todo}

    # Gram matrix of Q in the real coordinates of each entry in the basis
    # e, x = sum_s u_s e_s + offset: G[(k,s),(l,t)] = Re(H[k,l] conj(e_s)
    # e_t) for H = Y kron P^T, built by broadcasting
    y = (W - W.conj().T) / 2j
    hm = (y[:, None, :, None] * p.T[None, :, None, :]).reshape(g * h, g * h)
    e = np.array(basis)
    ee = e.conj()[:, None] * e[None, :]
    gram = (hm[:, None, :, None] * ee[None, :, None, :]).real
    R = np.linalg.cholesky(gram.reshape(dim, dim)).T
    bounds = {f: lam_y * lam_p_raw * radii[f] * radii[f] * (1.0 + 1e-9) for f in todo}
    # m_t = kron(W, P^T)^T, built by broadcasting: np.kron costs tens of
    # microseconds per call, which the many small thetas would pay.
    m_t = (W.T[:, None, :, None] * p[None, :, None, :]).reshape(g * h, g * h)

    # the points of each family, estimated by the volume of its ellipsoid:
    # the unit ball's times the product of the half axes sqrt(bound) / R_ii
    with np.errstate(over="ignore"):
        estimates = (math.pi ** (dim / 2) / math.gamma(dim / 2 + 1)
                     * np.prod(np.sqrt([bounds[f] for f in todo])[:, None] / np.diag(R),
                               axis=1))
    batches: list[list[int]] = [[]]
    est = 0.0
    for f, estimate in zip(todo, estimates.tolist()):
        if batches[-1] and est + estimate > _BATCH_POINTS:
            batches.append([])
            est = 0.0
        batches[-1].append(f)
        est += estimate

    # per family and phase sum, the real and imaginary parts of its pieces
    sums = {f: [([], []) for _ in ph.sums] for f, ph in phases.items()}
    points = {}
    for batch in batches:
        counts, blocks = _ellipsoid_points(
            R, np.array([floats[f].coords for f in batch]),
            np.array([bounds[f] for f in batch]), [radii[f] for f in batch],
        )
        points.update(zip(batch, counts.tolist()))
        offsets = np.array([floats[f].offsets.reshape(-1) for f in batch])
        # per family of the batch: its phases and the parts of its sums
        phase_sums = [(phases[f], sums[f]) for f in batch]
        residues = any(ks is not None for ph, _ in phase_sums for _, _, ks in ph.sums)
        for z, segments in blocks:
            quad = _quad(z, segments, offsets, m_t, basis)
            zmax = float(max(int(z.max(initial=0)), -int(z.min(initial=0)))) if residues else 0.0
            for j, start, end in segments:
                fam_phases, fam_parts = phase_sums[j]
                for s, (re, im) in zip(
                        _piece_sums(quad[start:end], z[start:end], fam_phases, zmax),
                        fam_parts):
                    re.append(float(s.real))
                    im.append(float(s.imag))
    for f in todo:
        totals = [complex(math.fsum(re), math.fsum(im)) for re, im in sums[f]]
        out[f] = _FamilyValue([shift * totals[c] for c, shift in phases[f].leaves],
                              tails[radii[f]], points[f])
        if cache is not None:
            cache.put(keys[f], out[f])
    return out


def _theta_dense(
    leaf: _Family, W: np.ndarray, lam_y: float, cache: Optional[ThetaCache] = None
) -> ThetaValue:
    """One leaf (a family of one) at a checked W (see _at): the batch of one,
    read through cache as _theta_batch reads a family."""
    (value,), tail, points = _theta_batch((leaf,), W, lam_y, cache)[0]
    return ThetaValue(value, tail, points)


@lru_cache(maxsize=1 << 8)
def _p_floats(P: KMatrix) -> tuple[np.ndarray, float]:
    """P embedded, read-only, and lam_min(P) unsnapped: they depend on P
    alone, and the batches of a plan share a few P (see _p_parts)."""
    try:
        p = _as_complex_matrix(P, "P")
    except OverflowError:
        raise DomainError("an exact entry of P is too large for a float") from None
    p.flags.writeable = False
    return p, float(np.linalg.eigvalsh(p)[0])


@lru_cache(maxsize=1 << 8)
def _p_parts(P: KMatrix) -> tuple[tuple[KMatrix, tuple[tuple[int, ...], int]], ...]:
    """The parts of P with their keys (see _Family): the 1x1 diagonal
    entries of an exactly diagonal P with h > 1, else P itself; DomainError
    unless P is Hermitian.  Cached: the factors of a plan share a few P."""
    if P.conj_transpose() != P:
        raise DomainError("P must be Hermitian")
    h = P.rows
    if h > 1 and all(P[(i, j)].is_zero() for i in range(h) for j in range(h) if i != j):
        parts = [KMatrix([[P[(j, j)]]]) for j in range(h)]
    else:
        parts = [P]
    return tuple((p, _int_key(*_int_coords(p))) for p in parts)


def _block(nums: Sequence[int], g: int, h: int, j: int, w: int) -> list[int]:
    """Columns j*w up to (j + 1)*w of the g x h matrix with row-major
    coordinates nums (see _Family), row-major."""
    return [v for i in range(g) for v in nums[2 * (i * h + j * w):2 * (i * h + j * w + w)]]


def _leaf_keys(
    P: KMatrix, A0: KMatrix, B0: KMatrix
) -> tuple[tuple[tuple[KMatrix, tuple], tuple, tuple], ...]:
    """Theta^P[A0; B0] keyed by integers: per part of P (see _p_parts), the
    part with its key, the columns of A0 under it reduced mod the lattice
    and those of B0, each a key (nums, den) (see _Family).  The theta is the
    product of these leaves, each at eps over their number."""
    parts = _p_parts(P)
    g, h = A0.rows, A0.cols
    w = h // len(parts)  # columns per part
    (a, da), (b, db) = _int_coords(A0), _int_coords(B0)
    return tuple((part, _int_key(_block(a, g, h, j, w), da, center=True),
                  _int_key(_block(b, g, h, j, w), db))
                 for j, part in enumerate(parts))


def _part_keys(base: Sequence[int], base_den: int, reps: Iterable[Sequence[int]], rep_den: int,
               g: int, h: int, w: int, center: bool) -> tuple[list[list[int]], list[tuple]]:
    """Per rep, the indices of the parts of w columns of the g x h matrix
    base / base_den + rep / rep_den (row-major coordinates, see _Family),
    each reduced mod the lattice when center (see _center); and the
    distinct parts by index, in first-read order, as leaf keys (_int_key)."""
    den = math.lcm(base_den, rep_den)
    base = [v * (den // base_den) for v in base]
    k = den // rep_den
    out, table = [], {}
    for rep in reps:
        m = [u + v * k for u, v in zip(base, rep)]
        if center:
            m = [_center(v, den) for v in m]
        out.append([table.setdefault(tuple(_block(m, g, h, j, w)), len(table))
                    for j in range(h // w)])
    return out, [_int_key(part, den) for part in table]


def _lower(
    field: FieldId,
    P: ExactLike,
    A0: ExactLike,
    B0: ExactLike,
    params: ThetaParams,
    lattice: str = "O_K",
) -> tuple[_Family, ...]:
    """Theta^P[A0; B0] as the leaves whose product it is, each a family of
    one: the exact checks and the keys of _leaf_keys, done once for every
    W.  The sum runs over Mat(g, h; O_K), or over Mat(g, h; Z) for lattice
    "Z" (see _z_factor).  An exactly diagonal P with h > 1 factors over
    columns: one 1x1 leaf per column, each at eps/h."""
    P = _exact(P, "P", field)
    A0 = _exact(A0, "A0", field)
    B0 = _exact(B0, "B0", field)
    g, h = A0.rows, A0.cols
    if (B0.rows, B0.cols) != (g, h):
        raise DomainError(f"B0 must have shape {(g, h)}, got {(B0.rows, B0.cols)}")
    if (P.rows, P.cols) != (h, h):
        raise DomainError(f"P must be {h}x{h} to match A0, got {(P.rows, P.cols)}")
    leaves = _leaf_keys(P, A0, B0)
    if len(leaves) > 1:
        params = replace(params, eps=params.eps / len(leaves))
    return tuple(_Family(field, *part, a, params, _BASES[lattice], (b,))
                 for part, a, b in leaves)


def _rational(x: object) -> Fraction:
    """x exactly: an int or Fraction as it is, anything else as its float."""
    return x if isinstance(x, (int, Fraction)) else Fraction(float(x))


def _z_factor(
    a: Sequence[object], b: Sequence[object], scale: object = 1
) -> tuple[KMatrix, KMatrix, KMatrix, str]:
    """The Riemann theta with characteristics (a, b) at z = 0 and
    scale * Omega, as the factor (A0, B0, P, lattice) of the theta over Z
    with A0 = a, B0 = b and P = [[scale]], all exact (a float as the
    rational it is)."""
    A0, B0 = (KMatrix([[_RATIONALS.from_rational(_rational(x))] for x in v])
              for v in (a, b))
    if B0.rows != A0.rows:
        raise DomainError(f"b must have {A0.rows} entries, got {B0.rows}")
    return A0, B0, KMatrix([[_RATIONALS.from_rational(_rational(scale))]]), "Z"


def _check_symmetric(w: np.ndarray) -> None:
    """DomainError unless w is square and symmetric, as a real theta's
    period matrix must be."""
    if w.shape[0] != w.shape[1] or not (np.abs(w - w.T) <= 1e-12).all():
        raise DomainError("Omega must be symmetric")


def _phase(q: Fraction) -> complex:
    """exp(-2*pi*i*q) for exact rational q, reduced mod 1 first."""
    return _phase_of(q.numerator, q.denominator)


def _phase_of(n: int, den: int) -> complex:
    """exp(-2*pi*i*n/den), n/den reduced mod 1 first."""
    return _residue_phase(n % den, den)


@lru_cache(maxsize=1 << 12)
def _residue_phase(r: int, den: int) -> complex:
    """exp(-2*pi*i*r/den) for 0 <= r < den, memoized: the leaves of a plan
    repeat few residues."""
    # r / den rounds like float(q - floor(q)) for q = n/den and r = n mod
    # den, whatever factor n and den share (int / int rounds correctly)
    return complex(np.exp(-2j * np.pi * (r / den)))


class _CheckedW(NamedTuple):
    """A W that passed the per-W check (see _at)."""

    w: np.ndarray
    lam_y: float  # lam_min(Y)


def _at(w: np.ndarray) -> _CheckedW:
    """The per-W check: w with lam_min(Y).

    DomainError unless w is square, finite and inside the type-I domain
    with a lam_min(Y) that the tail bound can use: one that _snap keeps
    above 0."""
    if w.shape[0] != w.shape[1]:
        raise DomainError(f"W must be square, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise DomainError("W must be finite")
    lam_y = in_type1_domain(w)[1]
    if _snap(lam_y) <= 0.0:
        raise DomainError(
            f"W is not in the type-I domain: Y must be positive definite, "
            f"lam_min(Y)={lam_y:g} < {_LAMBDA_GRID:g}"
        )
    return _CheckedW(w, lam_y)


def _check_w_shape(g: int, at: _CheckedW) -> None:
    """DomainError unless the checked W is g x g."""
    if at.w.shape != (g, g):
        raise DomainError(f"W must be {g}x{g} to match A0, got {at.w.shape}")


def _product(values: Iterable[complex]) -> complex:
    """The product of values from complex(1.0), left to right: the value of
    a factor of several leaves, here and in a plan's table alike."""
    prod = complex(1.0)
    for v in values:
        prod *= v
    return prod


def _leaves_value(
    leaves: tuple[_Family, ...], at: _CheckedW, cache: Optional[ThetaCache]
) -> ThetaValue:
    """The product of the leaves at a checked W (see _at), each leaf read
    through cache as a family of one (see _theta_dense); a single leaf is
    returned as is."""
    _check_w_shape(leaves[0].g, at)
    vals = [_theta_dense(leaf, at.w, at.lam_y, cache) for leaf in leaves]
    if len(vals) == 1:
        return vals[0]
    bound_hi = 1.0
    bound_lo = 1.0
    for v in vals:
        bound_hi *= abs(v.value) + v.tail_bound
        bound_lo *= abs(v.value)
    return ThetaValue(
        _product(v.value for v in vals), bound_hi - bound_lo,
        sum(v.lattice_points_used for v in vals),
    )


def theta_general(
    field: FieldId,
    W: MatrixLike,
    P: ExactLike,
    A0: ExactLike,
    B0: ExactLike,
    params: Optional[ThetaParams] = None,
    cache: Optional[ThetaCache] = None,
) -> ThetaValue:
    """Evaluate Theta^P[A0; B0](W) for A0, B0 in Mat(g, h) over K.

    W is a g x g complex matrix with (W - conj(W)^t)/(2i) positive definite;
    P (h x h Hermitian positive definite), A0 and B0 are exact: KMatrix
    values or nested lists of int/Fraction.  This is the one-factor plan:
    lower (A0 is reduced mod O_K; when P is exactly diagonal the sum factors
    over columns and each column is its own cached leaf), check W once, and
    evaluate the leaves.
    """
    if params is None:
        params = ThetaParams()
    leaves = _lower(field, P, A0, B0, params)
    return _leaves_value(leaves, _at(_as_complex_matrix(W, "W")), cache)


def theta_check_variant(
    field: FieldId,
    a: ExactLike,
    b: ExactLike,
    W: MatrixLike,
    params: Optional[ThetaParams] = None,
    cache: Optional[ThetaCache] = None,
) -> ThetaValue:
    """Evaluate the linear-phase variant of the rank-one-column theta.

    For -d not congruent to 1 mod 4 the linear phase reads the lattice point
    alone, which differs from Theta[a; b](W) by exp(-2*pi*i*Re(conj(a)^t b)).
    For -d congruent to 1 mod 4 the series uses 2W and a doubled phase, equal
    to exp(-4*pi*i*Re(conj(a)^t b)) * Theta[a; 2b](2W), evaluated as
    Theta^P[a; 2b](W) with P = [[2]].  The theta is theta_general's, read
    through the same cache.
    """
    a = _exact(a, "a", field)
    b = _exact(b, "b", field)
    q, P = re_trace_of_product(a, b), KMatrix([[field.one()]])
    if field.one_mod_four:
        q, b, P = 2 * q, b.scale(2), KMatrix([[field.from_rational(2)]])
    base = theta_general(field, W, P, a, b, params, cache)
    return ThetaValue(
        _phase(q) * base.value, base.tail_bound, base.lattice_points_used
    )


def riemann_theta_z0(
    a: Sequence[float],
    b: Sequence[float],
    Omega: MatrixLike,
    params: Optional[ThetaParams] = None,
) -> ThetaValue:
    """Classical Riemann theta with characteristics at z = 0:

        sum over n in Z^g of
            exp(pi*i * (n+a)^t Omega (n+a) + 2*pi*i * (n+a)^t b)

    Omega must be symmetric with positive definite imaginary part.  a and b
    are taken exactly (a float as the rational it is).  This is the batch
    of one of a leaf over Z (see _z_factor): the field thetas' kernel
    with the basis (1,).
    """
    if params is None:
        params = ThetaParams()
    at = _at(_as_complex_matrix(Omega, "Omega"))
    A0, B0, P, lattice = _z_factor(a, b)
    (leaf,) = _lower(_RATIONALS, P, A0, B0, params, lattice)
    if leaf.g != at.w.shape[0]:
        raise DomainError(f"a must have {at.w.shape[0]} entries, got {leaf.g}")
    return _theta_dense(leaf, at.w, at.lam_y)
