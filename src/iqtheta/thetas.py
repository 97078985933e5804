"""Numerical evaluation of matrix theta series over imaginary quadratic orders.

The central object is

    Theta^P[A0; B0](W) = sum over N in Mat(g, h; O_K) of
        exp(pi*i * Tr(conj(N+A0)^t W (N+A0) P) + 2*pi*i * Re Tr(conj(N+A0)^t B0))

which converges exactly when Y = (W - conj(W)^t) / (2i) and P are positive
definite.  Every term has modulus exp(-pi * Tr(X^H Y X P)) with X = N + A0,
bounded by exp(-pi * lam_min(Y) * lam_min(P) * ||X||_F^2), so truncation to an
embedded ball with an explicit tail bound is rigorous.

Evaluation is deterministic: lattice points are enumerated in a fixed order,
sorted by squared norm (ties broken by enumeration order), and summed in fixed
chunks with compensated accumulation of the chunk subtotals.  Within a chunk,
the exponent of every point is one quadratic form: with x the row-major vec
of X, vec(W X P) = (W kron P^T) x, so the chunk costs one matrix product over
the flattened points rather than a small matrix product per point.  That form
changes only the rounding of each exponent; the point order and the chunking
are the same as for a per-point product.

W is the only floating-point input.  P, A0 and B0 are exact matrices over K
(a KMatrix, or nested lists of int/Fraction).

Every theta runs in two steps.  Lowering (`_lower`) does all the exact,
W-independent work once: it checks shapes and that P is Hermitian, reduces
A0 mod O_K, splits an exactly diagonal P into 1x1 columns, and stores the
float P, offsets and B0 of each resulting dense theta (a leaf) with its
cache key.  Evaluation takes one W: the per-W check (`_at`: square, finite,
inside H1, one eigensolve) runs once, then each leaf is one ThetaCache
lookup and, on a miss, one `_theta_dense` call.  `theta_general` is the
one-factor plan: lower, check W, evaluate the leaves.  Sums of many factors
(relations.py) lower their whole term tuple once and evaluate it per W.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, TruncationError
from .kfield import FieldId, KElement, KMatrix, re_trace_of_product

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
_COMBINE_ELEMS = 1 << 23
_MAX_POINTS = 6_000_000

# Eigenvalues are snapped down to this grid before entering the tail bound, so
# a one-ulp wobble in the eigensolver cannot move the chosen radius.
_LAMBDA_GRID = 2.0 ** -20


@dataclass(frozen=True)
class ThetaParams:
    """Accuracy and budget knobs for a single theta evaluation."""

    eps: float = 1e-12
    max_radius: float = 64.0

    def __post_init__(self) -> None:
        if self.eps <= 0.0:
            raise ValueError("eps must be positive")
        if self.max_radius <= 0.0:
            raise ValueError("max_radius must be positive")


@dataclass(frozen=True)
class ThetaValue:
    """A truncated theta sum together with its rigorous truncation bound."""

    value: complex
    tail_bound: float
    lattice_points_used: int


class ThetaCache:
    """Memo table for theta evaluations within one verification run.

    Instances are meant to be short lived and private to a single relation
    evaluation so that hit counts are reproducible.  Keys must capture every
    input that affects the value: a dense theta is keyed by (leaf key, W
    bytes), where the leaf key holds the field, shapes, P, A0 reduced mod
    O_K, B0, eps and max_radius, so characteristics that differ by an
    integral matrix share one entry.
    """

    def __init__(self) -> None:
        self._store: dict = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key, compute: Callable[[], ThetaValue]) -> ThetaValue:
        try:
            value = self._store[key]
        except KeyError:
            self.misses += 1
            value = compute()
            self._store[key] = value
            return value
        self.hits += 1
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


def shell_tail_bound(radius: int, decay: float, dim: int) -> float:
    """Upper bound for the sum of exp(-decay * ||x||^2) over lattice points
    with ||x|| >= radius, assuming pairwise distances >= 1.

    Points with norm in [k, k+1) carry disjoint balls of radius 1/2 inside
    the annulus [k - 1/2, k + 3/2), so their count is at most
    2^dim * ((k + 3/2)^dim - (k - 1/2)^dim).
    """
    if decay <= 0.0:
        return float("inf")
    total = 0.0
    for k in range(max(radius, 1), max(radius, 1) + 512):
        count = (2.0 ** dim) * ((k + 1.5) ** dim - (k - 0.5) ** dim)
        term = count * math.exp(-decay * k * k)
        total += term
        if term < total * 1e-18:
            break
    return total


def choose_radius(
    eps: float,
    decay: float,
    dim: int,
    offset_norm: float = 0.0,
    max_radius: float = 64.0,
) -> int:
    """Smallest integer radius whose shell tail bound is below eps.

    offset_norm only floors the radius so that the near-origin points of the
    shifted lattice are always enumerated.
    """
    floor_r = max(1, int(math.ceil(offset_norm)) + 1)
    r = floor_r
    while r <= max_radius:
        if shell_tail_bound(r, decay, dim) <= eps:
            return r
        r += 1
    tail = shell_tail_bound(int(max_radius), decay, dim)
    raise TruncationError(
        f"required radius exceeds max_radius={max_radius:g}: "
        f"tail bound at the cap is {tail:.3e} > eps={eps:.3e} "
        f"(decay={decay:.3e}, dim={dim})"
    )


def _centered(f: Fraction) -> Fraction:
    return f - math.floor(f + Fraction(1, 2))


def _reduce_mod_integral(A0: KMatrix) -> KMatrix:
    """The representative of A0 mod Mat(g, h; O_K) whose entries have
    delta-coordinates in [-1/2, 1/2).  Shifting A0 by an integral matrix and
    reindexing N leaves the theta sum unchanged for every B0."""
    return KMatrix(
        [[KElement(_centered(x.a), _centered(x.b), x.field) for x in row]
         for row in A0.entry_rows()]
    )


def _offsets(A0: KMatrix, field: FieldId) -> np.ndarray:
    dc = field.delta_complex
    return np.array(
        [[float(x.a) + float(x.b) * dc for x in row] for row in A0.entry_rows()],
        dtype=np.complex128,
    )


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


def _entry_candidates(
    field: FieldId, offset: complex, radius: float
) -> tuple[np.ndarray, np.ndarray]:
    """All points x = u + v*delta + offset with |x| <= radius, enumerated in
    lexicographic (v, u) order.  Returns (x values, squared norms)."""
    dc = field.delta_complex
    r2 = radius * radius + 1e-12
    vs: list[np.ndarray] = []
    us: list[np.ndarray] = []
    v_lo = int(math.ceil((-radius - offset.imag) / dc.imag))
    v_hi = int(math.floor((radius - offset.imag) / dc.imag))
    for v in range(v_lo, v_hi + 1):
        im = v * dc.imag + offset.imag
        rem = r2 - im * im
        if rem < 0.0:
            continue
        half = math.sqrt(rem)
        center = v * dc.real + offset.real
        u_lo = int(math.ceil(-half - center))
        u_hi = int(math.floor(half - center))
        if u_hi < u_lo:
            continue
        u = np.arange(u_lo, u_hi + 1, dtype=np.int64)
        us.append(u)
        vs.append(np.full(u.shape, v, dtype=np.int64))
    if not us:
        return (np.empty(0, dtype=np.complex128), np.empty(0))
    u_all = np.concatenate(us)
    v_all = np.concatenate(vs)
    x = u_all + v_all * dc + offset
    w2 = x.real * x.real + x.imag * x.imag
    keep = w2 <= r2
    return (np.ascontiguousarray(x[keep]), np.ascontiguousarray(w2[keep]))


def _ball_combine(
    weights: Sequence[np.ndarray], r2: float
) -> tuple[np.ndarray, np.ndarray]:
    """Indices into the per-slot candidate lists whose squared norms sum to
    at most r2.  Rows come out in lexicographic order of the index tuples."""
    idx = np.zeros((1, 0), dtype=np.int32)
    tot = np.zeros(1)
    for w2 in weights:
        m = len(w2)
        if m == 0:
            return (np.zeros((0, idx.shape[1] + 1), dtype=np.int32), np.zeros(0))
        step = max(1, _COMBINE_ELEMS // m)
        parts_idx = []
        parts_tot = []
        count = 0
        for s in range(0, len(tot), step):
            block = tot[s : s + step]
            grid = block[:, None] + w2[None, :]
            keep = grid <= r2
            rows, cols = np.nonzero(keep)
            count += len(rows)
            if count > _MAX_POINTS:
                raise TruncationError(
                    f"lattice enumeration exceeds max_points={_MAX_POINTS}"
                )
            parts_idx.append(
                np.concatenate(
                    [idx[s + rows], cols[:, None].astype(np.int32)], axis=1
                )
            )
            parts_tot.append(grid[keep])
        idx = np.concatenate(parts_idx, axis=0)
        tot = np.concatenate(parts_tot)
    return (idx, tot)


def _chunk_sum(values_iter) -> complex:
    sub_re: list[float] = []
    sub_im: list[float] = []
    for vals in values_iter:
        s = vals.sum()
        sub_re.append(float(s.real))
        sub_im.append(float(s.imag))
    return complex(math.fsum(sub_re), math.fsum(sub_im))


def _theta_dense(
    field: FieldId,
    W: np.ndarray,
    P: np.ndarray,
    offsets: np.ndarray,
    B0: np.ndarray,
    lam_y: float,
    params: ThetaParams,
) -> ThetaValue:
    g, h = offsets.shape
    lam_p = _snap(float(np.linalg.eigvalsh(P)[0]))
    if lam_p <= 0.0:
        raise DomainError(f"P must be positive definite, lam_min={lam_p:g}")
    decay = math.pi * _snap(lam_y) * lam_p
    dim = 2 * g * h
    offset_norm = math.sqrt(float(np.sum(np.abs(offsets) ** 2)))
    radius = choose_radius(
        params.eps, decay, dim, offset_norm=offset_norm, max_radius=params.max_radius
    )
    tail = shell_tail_bound(radius, decay, dim)

    cands = [
        _entry_candidates(field, complex(offsets[i, j]), float(radius))
        for i in range(g)
        for j in range(h)
    ]
    idx, tot = _ball_combine([w2 for (_, w2) in cands], radius * radius + 1e-12)
    n = idx.shape[0]
    if n == 0:
        raise TruncationError("empty lattice enumeration; radius too small")
    order = np.argsort(tot, kind="stable")
    del tot

    # m_t = kron(W, P^T)^T, built by broadcasting: np.kron costs tens of
    # microseconds per call, which the many small thetas would pay.
    m_t = (W.T[:, None, :, None] * P[None, :, None, :]).reshape(g * h, g * h)
    b_re = np.ascontiguousarray(B0.real).reshape(-1)
    b_im = np.ascontiguousarray(B0.imag).reshape(-1)

    def chunks():
        # the points are gathered one chunk at a time, in sorted order, so
        # memory holds O(chunk) complex points rather than all n of them
        for s in range(0, n, _EVAL_CHUNK):
            rows = idx[order[s : s + _EVAL_CHUNK]]
            x = np.empty((rows.shape[0], g * h), dtype=np.complex128)
            for k in range(g * h):
                x[:, k] = cands[k][0][rows[:, k]]
            e1 = np.einsum("nk,nk->n", x.conj(), x @ m_t)
            e2 = x.real @ b_re + x.imag @ b_im
            yield np.exp(1j * np.pi * e1 + 2j * np.pi * e2)

    return ThetaValue(_chunk_sum(chunks()), tail, n)


class _LeafKey:
    """The cache identity of one dense theta, hashed once at lowering:
    (d, g, h, P, A0 reduced mod O_K, B0, eps, max_radius)."""

    __slots__ = ("data", "_hash")

    def __init__(self, data: tuple) -> None:
        self.data = data
        self._hash = hash(data)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, _LeafKey)
            and self._hash == other._hash
            and self.data == other.data
        )


@dataclass(frozen=True, eq=False)
class _Leaf:
    """One dense theta with every W-independent input precomputed."""

    key: _LeafKey
    field: FieldId
    g: int
    P: np.ndarray
    offsets: np.ndarray
    B0: np.ndarray
    params: ThetaParams


def _leaf(
    field: FieldId, P: KMatrix, A0: KMatrix, B0: KMatrix, params: ThetaParams
) -> _Leaf:
    g, h = A0.rows, A0.cols
    key = _LeafKey((field.d, g, h, P, A0, B0, params.eps, params.max_radius))
    return _Leaf(
        key, field, g, _as_complex_matrix(P, "P"), _offsets(A0, field),
        _as_complex_matrix(B0, "B0"), params,
    )


def _lower(
    field: FieldId, P: ExactLike, A0: ExactLike, B0: ExactLike, params: ThetaParams
) -> tuple[_Leaf, ...]:
    """Theta^P[A0; B0] as the leaves whose product it is: the exact checks,
    the mod-O_K reduction of A0 and the float inputs, done once for every W.

    An exactly diagonal P with h > 1 factors over columns: one 1x1 leaf per
    column, each at eps/h.  Otherwise there is a single leaf.
    """
    P = _exact(P, "P", field)
    A0 = _exact(A0, "A0", field)
    B0 = _exact(B0, "B0", field)
    g, h = A0.rows, A0.cols
    if (B0.rows, B0.cols) != (g, h):
        raise DomainError(f"B0 must have shape {(g, h)}, got {(B0.rows, B0.cols)}")
    if (P.rows, P.cols) != (h, h):
        raise DomainError(f"P must be {h}x{h} to match A0, got {(P.rows, P.cols)}")
    if P.conj_transpose() != P:
        raise DomainError("P must be Hermitian")
    A0 = _reduce_mod_integral(A0)
    diagonal = all(P[(i, j)].is_zero() for i in range(h) for j in range(h) if i != j)
    if diagonal and h > 1:
        col_params = replace(params, eps=params.eps / h)
        return tuple(
            _leaf(field, KMatrix([[P[(j, j)]]]), A0.column(j), B0.column(j), col_params)
            for j in range(h)
        )
    return (_leaf(field, P, A0, B0, params),)


def _lower_check(
    field: FieldId, a: ExactLike, b: ExactLike, params: ThetaParams
) -> tuple[complex, _Leaf, bool]:
    """theta_check_variant lowered: (phase, leaf, whether W is doubled).

    The value at W is phase times the leaf at W, or at 2W when doubled."""
    a = _exact(a, "a", field)
    b = _exact(b, "b", field)
    q = re_trace_of_product(a, b)
    doubled = field.one_mod_four
    if doubled:
        q *= 2
        b = b.scale(2)
    q -= math.floor(q)
    phase = complex(np.exp(-2j * np.pi * float(q)))
    (leaf,) = _lower(field, KMatrix([[field.one()]]), a, b, params)
    return phase, leaf, doubled


def _at(w: np.ndarray) -> tuple[np.ndarray, bytes, float]:
    """The per-W check: w with its cache-key bytes and lam_min(Y).

    DomainError unless w is square, finite and inside the type-I domain."""
    if w.shape[0] != w.shape[1]:
        raise DomainError(f"W must be square, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise DomainError("W must be finite")
    ok, lam_y = in_type1_domain(w)
    if not ok:
        raise DomainError(
            f"W is not in the type-I domain: lam_min(Y)={lam_y:g} <= 0"
        )
    return w, w.tobytes(), lam_y


def _leaves_value(
    leaves: tuple[_Leaf, ...],
    at: tuple[np.ndarray, bytes, float],
    cache: Optional[ThetaCache],
) -> ThetaValue:
    """The product of the leaves at a checked W (see _at), one cache lookup
    per leaf; a single leaf is returned as is."""
    w, w_bytes, lam_y = at
    g = leaves[0].g
    if w.shape != (g, g):
        raise DomainError(f"W must be {g}x{g} to match A0, got {w.shape}")
    vals: list[ThetaValue] = []
    for leaf in leaves:

        def compute(leaf: _Leaf = leaf) -> ThetaValue:
            return _theta_dense(
                leaf.field, w, leaf.P, leaf.offsets, leaf.B0, lam_y, leaf.params
            )

        if cache is None:
            vals.append(compute())
        else:
            vals.append(cache.get_or_compute((leaf.key, w_bytes), compute))
    if len(vals) == 1:
        return vals[0]
    prod = complex(1.0)
    bound_hi = 1.0
    bound_lo = 1.0
    for v in vals:
        prod *= v.value
        bound_hi *= abs(v.value) + v.tail_bound
        bound_lo *= abs(v.value)
    return ThetaValue(
        prod, bound_hi - bound_lo, sum(v.lattice_points_used for v in vals)
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
    to exp(-4*pi*i*Re(conj(a)^t b)) * Theta[a; 2b](2W).
    """
    if params is None:
        params = ThetaParams()
    phase, leaf, doubled = _lower_check(field, a, b, params)
    w_arr = _as_complex_matrix(W, "W")
    if doubled:
        w_arr = 2.0 * w_arr
    base = _leaves_value((leaf,), _at(w_arr), cache)
    return ThetaValue(
        phase * base.value, base.tail_bound, base.lattice_points_used
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

    Omega must be symmetric with positive definite imaginary part.  Serves
    as an independent reference implementation for genus-g identities.
    """
    if params is None:
        params = ThetaParams()
    om = _as_complex_matrix(Omega, "Omega")
    g = om.shape[0]
    if not np.isfinite(om).all():
        raise DomainError("Omega must be finite")
    if om.shape != (g, g) or not np.allclose(om, om.T, rtol=0.0, atol=1e-12):
        raise DomainError("Omega must be symmetric")
    lam = _snap(float(np.linalg.eigvalsh(om.imag)[0]))
    if lam <= 0.0:
        raise DomainError(f"Im(Omega) must be positive definite, lam_min={lam:g}")
    a_vec = np.asarray(a, dtype=np.float64).reshape(g)
    b_vec = np.asarray(b, dtype=np.float64).reshape(g)
    off = a_vec - np.floor(a_vec + 0.5)
    decay = math.pi * lam
    offset_norm = float(np.linalg.norm(off))
    radius = choose_radius(
        params.eps, decay, g, offset_norm=offset_norm, max_radius=params.max_radius
    )
    tail = shell_tail_bound(radius, decay, g)

    r2 = radius * radius + 1e-12
    cands = []
    for i in range(g):
        lo = int(math.ceil(-radius - off[i]))
        hi = int(math.floor(radius - off[i]))
        u = np.arange(lo, hi + 1, dtype=np.float64) + off[i]
        cands.append((u, u * u))
    idx, tot = _ball_combine([w2 for (_, w2) in cands], r2)
    n = idx.shape[0]
    if n == 0:
        raise TruncationError("empty lattice enumeration; radius too small")
    order = np.argsort(tot, kind="stable")
    idx = idx[order]
    pts = np.empty((n, g), dtype=np.float64)
    for k in range(g):
        pts[:, k] = cands[k][0][idx[:, k]]

    def chunks():
        for s in range(0, n, _EVAL_CHUNK):
            x = pts[s : s + _EVAL_CHUNK]
            e1 = np.einsum("ni,ij,nj->n", x, om, x)
            e2 = x @ b_vec
            yield np.exp(1j * np.pi * e1 + 2j * np.pi * e2)

    return ThetaValue(_chunk_sum(chunks()), tail, n)
