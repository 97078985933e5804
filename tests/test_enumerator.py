"""The ellipsoid enumerator of field thetas, against the ball enumerator it
replaced and against brute-force box sums.

`_theta_dense` sums over the ellipsoid Q(X) = Re Tr(X^H Y X P) <= bound with
bound = lam_Y lam_P r^2 (1 + 1e-9); the oracle here is the isotropic ball
|X|_F <= r that it used to enumerate (per-entry candidate discs combined by
`_ball_combine`, the enumerator's former code), filtered by Q computed
straight from its definition.
"""

import json
import math
import re
from fractions import Fraction
from pathlib import Path
from typing import Sequence

import numpy as np
import pytest

from iqtheta import FieldId, KMatrix, ThetaParams, TruncationError, theta_general
from iqtheta import thetas
from iqtheta.relations import RelationSpec, build_relation, evaluate_relation
from iqtheta.thetas import _MAX_POINTS, choose_radius, in_type1_domain

from _helpers import reduce_mod_integral, traced_peak

_COMBINE_ELEMS = 1 << 23


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


def _entry_candidates(field, offset, radius):
    """All (u, v) with |u + v*delta + offset| <= radius, in lexicographic
    (v, u) order, with their squared norms."""
    dc = field.delta_complex
    r2 = radius * radius + 1e-12
    uv = []
    v_lo = int(math.ceil((-radius - offset.imag) / dc.imag))
    v_hi = int(math.floor((radius - offset.imag) / dc.imag))
    for v in range(v_lo, v_hi + 1):
        im = v * dc.imag + offset.imag
        rem = r2 - im * im
        if rem < 0.0:
            continue
        half = math.sqrt(rem)
        center = v * dc.real + offset.real
        for u in range(int(math.ceil(-half - center)), int(math.floor(half - center)) + 1):
            uv.append((u, v))
    uv = np.array(uv, dtype=np.int64).reshape(-1, 2)
    x = uv[:, 0] + uv[:, 1] * dc + offset
    w2 = x.real ** 2 + x.imag ** 2
    keep = w2 <= r2
    return uv[keep], w2[keep]


def _ball_points(field, offsets, radius):
    """Integer coordinates (u, v per entry, row-major) of every point of
    N + offsets with |N + offsets|_F <= radius."""
    cands = [_entry_candidates(field, complex(o), radius) for o in offsets.ravel()]
    idx, _ = _ball_combine([w2 for (_, w2) in cands], radius * radius + 1e-12)
    return np.concatenate([cands[k][0][idx[:, k]] for k in range(len(cands))], axis=1)


def _points_to_x(field, z, offsets):
    """(n, 2gh) integer coordinates -> (n, g, h) complex points N + offsets."""
    g, h = offsets.shape
    x = z[:, 0::2] + z[:, 1::2] * field.delta_complex
    return x.reshape(-1, g, h) + offsets


def _q_form(x, y, p):
    return np.einsum("nki,kl,nlj,ji->n", x.conj(), y, x, p).real


def _terms(x, W, p, b0):
    quad = np.einsum("nki,kl,nlj,ji->n", x.conj(), W, x, p)
    lin = np.einsum("nij,ij->n", x.conj(), b0).real
    return np.exp(1j * math.pi * quad + 2j * math.pi * lin)


def _random_case(seed, d, g, h):
    """Anisotropic W (Im W with eigenvalues 1 and 6) and a non-diagonal
    exact P with lam_min(P) >= 1."""
    rng = np.random.default_rng(seed)
    field = FieldId(d)

    def small():
        return field.element(int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))

    def rational():
        return field.element(Fraction(int(rng.integers(-7, 8)), int(rng.integers(1, 7))),
                             Fraction(int(rng.integers(-7, 8)), int(rng.integers(1, 7))))

    while True:
        M = KMatrix([[small() for _ in range(h)] for _ in range(h)])
        P = M.conj_transpose() @ M + KMatrix.identity(h, field)
        if h == 1 or any(not P[(i, j)].is_zero() for i in range(h) for j in range(h) if i != j):
            break
    A0 = KMatrix([[rational() for _ in range(h)] for _ in range(g)])
    B0 = KMatrix([[rational() for _ in range(h)] for _ in range(g)])
    U, _ = np.linalg.qr(rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g)))
    Y = U @ np.diag([1.0, 6.0][:g] if g > 1 else [1.5]) @ U.conj().T
    X = rng.normal(size=(g, g)) + 1j * rng.normal(size=(g, g))
    W = (X + X.conj().T) / 2 + 1j * Y
    return field, W, P, A0, B0


def _recorded_theta(monkeypatch, field, W, P, A0, B0):
    """theta_general, with the enumerator's bound, radius and points recorded."""
    calls = []
    inner = thetas._ellipsoid_points

    def recorder(R, C, bounds, radii):
        counts, blocks = inner(R, C, bounds, radii)
        blocks = list(blocks)
        calls.append((bounds[0], radii[0], [z for z, _ in blocks]))
        return counts, iter(blocks)

    monkeypatch.setattr(thetas, "_ellipsoid_points", recorder)
    val = theta_general(field, W, P, A0, B0)
    ((bound, radius, blocks),) = calls
    z = np.concatenate(blocks)[:, ::-1].astype(np.int64)  # coordinate order
    return val, z, bound, radius


def _gram(field, y, p):
    """The real Gram matrix of Q in the coordinates (u, v) of each entry,
    straight from Q(X) = Re Tr(X^H Y X P) on the basis matrices."""
    g, h = y.shape[0], p.shape[0]
    n = 2 * g * h
    basis = np.zeros((n, g, h), dtype=np.complex128)
    for k in range(g * h):
        basis[2 * k].reshape(-1)[k] = 1.0
        basis[2 * k + 1].reshape(-1)[k] = field.delta_complex
    gram = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            gram[i, j] = np.trace(basis[i].conj().T @ y @ basis[j] @ p).real
    return (gram + gram.T) / 2


SHAPES = [(1, 2), (2, 1), (2, 2), (1, 3)]


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("g,h", SHAPES)
def test_ellipsoid_points_are_the_filtered_ball(monkeypatch, d, g, h):
    field, W, P, A0, B0 = _random_case(1000 * d + 10 * g + h, d, g, h)
    val, z, bound, radius = _recorded_theta(monkeypatch, field, W, P, A0, B0)
    A0r = reduce_mod_integral(A0)
    offsets = A0r.embed()
    y = (W - W.conj().T) / 2j
    p = P.embed()
    assert bound == pytest.approx(
        in_type1_domain(W)[1] * np.linalg.eigvalsh(p)[0] * radius ** 2, rel=2e-9
    )

    # every enumerated point is inside the ellipsoid, each exactly once
    assert len(z) == val.lattice_points_used
    assert len({tuple(r) for r in z}) == len(z)
    assert (_q_form(_points_to_x(field, z, offsets), y, p) <= bound).all()

    # and it is the ball of the same radius, filtered by Q <= bound
    ball = _ball_points(field, offsets, radius * (1.0 + 2e-9))
    q_ball = _q_form(_points_to_x(field, ball, offsets), y, p)
    expected = ball[q_ball <= bound]
    assert sorted(map(tuple, z)) == sorted(map(tuple, expected))
    if g * h > 1:
        assert len(expected) < len(ball)

    # the sum over the bounding box of the ellipsoid, which contains every
    # point the enumeration skipped with Q < bound, agrees within the tail
    gram_inv = np.linalg.inv(_gram(field, y, p))
    c = np.array([float(t) for row in A0r.entry_rows() for x in row for t in (x.a, x.b)])
    half = np.sqrt(bound * np.diag(gram_inv))
    axes = [np.arange(math.ceil(-ci - hi), math.floor(-ci + hi) + 1) for ci, hi in zip(c, half)]
    box = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    assert len(box) < 1_000_000
    box_sum = _terms(_points_to_x(field, box, offsets), W, p, B0.embed()).sum()
    assert abs(val.value - box_sum) <= val.tail_bound + 1e-13


def test_skipped_ball_points_stay_below_the_tail_bound(monkeypatch):
    # Im W with eigenvalues 1 and 40: the ball is far larger than the
    # ellipsoid, and every term it adds is covered by the tail bound
    field = FieldId(2)
    U, _ = np.linalg.qr(np.array([[1.0, 2.0], [-0.5, 1.0]]) + 0.3j)
    Y = U @ np.diag([1.0, 40.0]) @ U.conj().T
    W = np.array([[0.2, 0.1 - 0.3j], [0.1 + 0.3j, -0.4]]) + 1j * Y
    P = KMatrix([[field.from_rational(Fraction(3, 2))]])
    A0 = KMatrix([[field.element(Fraction(1, 3), Fraction(-1, 4))],
                  [field.element(Fraction(2, 5), Fraction(1, 2))]])
    B0 = KMatrix([[field.element(Fraction(1, 7), Fraction(1, 3))],
                  [field.element(Fraction(-1, 2), 0)]])
    val, z, bound, radius = _recorded_theta(monkeypatch, field, W, P, A0, B0)
    offsets = reduce_mod_integral(A0).embed()
    p = P.embed()
    m = 2 * radius + 2
    axis = np.arange(-m, m + 1)
    box = np.stack([a.ravel() for a in np.meshgrid(*[axis] * 4, indexing="ij")], axis=1)
    x = _points_to_x(field, box, offsets)
    inside = _q_form(x, (W - W.conj().T) / 2j, p) <= bound
    assert inside.sum() == len(z) == val.lattice_points_used
    ball = _ball_points(field, offsets, radius)
    assert len(ball) > 10 * len(z)
    skipped = np.abs(_terms(x[~inside], W, p, B0.embed())).sum()
    assert 0.0 < skipped <= val.tail_bound
    box_sum = _terms(x, W, p, B0.embed()).sum()
    assert abs(val.value - box_sum) <= val.tail_bound + 1e-13


def test_over_cap_raises_with_the_cost(monkeypatch):
    field, W, P, A0, B0 = _random_case(7, 1, 2, 2)
    full = theta_general(field, W, P, A0, B0)
    radius = choose_radius(
        1e-12,
        math.pi * thetas._snap(in_type1_domain(W)[1])
        * thetas._snap(float(np.linalg.eigvalsh(P.embed())[0])),
        8,
        offset_norm=float(np.linalg.norm(reduce_mod_integral(A0).embed())),
    )
    cap = full.lattice_points_used // 2
    monkeypatch.setattr(thetas, "_MAX_POINTS", cap)
    with pytest.raises(TruncationError) as err:
        theta_general(field, W, P, A0, B0)
    msg = str(err.value)
    found = re.fullmatch(
        rf"lattice enumeration exceeds max_points={cap}: (\d+) points after "
        rf"(\d) of 8 coordinates \(radius {radius}, dim 8\)",
        msg,
    )
    assert found, msg
    assert int(found.group(1)) > cap
    assert 2 <= int(found.group(2)) <= 8


def test_one_by_one_is_the_disc():
    # for g = h = 1 the ellipsoid is the disc |x| <= r of the ball code
    for d in (1, 2, 3, 7):
        field = FieldId(d)
        A0 = KMatrix([[field.element(Fraction(1, 3), Fraction(-1, 5))]])
        P = KMatrix([[field.from_rational(Fraction(5, 4))]])
        W = [[0.3 + 0.8j]]
        val = theta_general(field, W, P, A0, KMatrix.zeros(1, 1, field))
        offsets = A0.embed()
        radius = choose_radius(
            ThetaParams().eps, math.pi * thetas._snap(0.8) * thetas._snap(1.25), 2,
            offset_norm=abs(offsets[0, 0]),
        )
        assert val.lattice_points_used == len(_ball_points(field, offsets, radius))


def test_empty_ellipsoid_is_zero_within_the_tail():
    # Q = |x1|^2 + 100 |x2|^2 with x2 in 1/2 + Z[i]: every point has
    # Q >= 25 > lam_Y lam_P r^2, so nothing is enumerated and the whole sum
    # is tail
    field = FieldId(1)
    W = np.array([[1j, 0.0], [0.0, 100j]])
    A0 = [[0], [Fraction(1, 2)]]
    val = theta_general(field, W, [[1]], A0, [[0], [0]])
    assert (val.value, val.lattice_points_used) == (0, 0)
    axis = np.arange(-3, 4)
    box = np.stack([a.ravel() for a in np.meshgrid(*[axis] * 4, indexing="ij")], axis=1)
    offsets = np.array([[0.0], [0.5]])
    terms = _terms(_points_to_x(field, box, offsets), W, np.eye(1), np.zeros((2, 1)))
    assert 0.0 < abs(terms.sum()) <= val.tail_bound


# -- the kernel's per-point arrays on recorded inputs ----------------------------


_PLAN_GOLDEN = json.loads((Path(__file__).parent / "data" / "plan_golden.json").read_text())
# the criterion-4 relation of plan_golden.json with the largest family: the
# random_relations benchmark's peak, one family of 80,907 points at dim 8
_LARGEST = 13


@pytest.fixture(scope="module")
def recorded_batches():
    """The _theta_batch calls of relation _LARGEST at its recorded W, each
    as ((families, W, lam_y), its largest family's point count)."""
    unit = _PLAN_GOLDEN["relations"][_LARGEST]
    calls = []
    inner = thetas._theta_batch

    def recorder(families, W, lam_y):
        out = inner(families, W, lam_y)
        calls.append(((families, W, lam_y), max(v.points for v in out)))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thetas, "_theta_batch", recorder)
        W = np.array([[complex(re, im) for re, im in row] for row in unit["W"]])
        evaluate_relation(build_relation(RelationSpec.from_json(unit["spec"])), W,
                          ThetaParams(eps=unit["eps"]))
    return calls


def test_largest_recorded_family_holds_only_its_point_arrays(recorded_batches):
    # the batch of one family holds its rows, entries, products and phases
    # per point (64 + 64 + 64 + 16 bytes at dim 8 over O_K) at its peak: it
    # read 344 bytes a point with temporaries of the rows and entries
    args, points = max(recorded_batches, key=lambda call: call[1])
    assert (points, len(args[0])) == (80_907, 1)
    assert points <= thetas._EVAL_CHUNK  # one piece, one segment
    ((value, _, _),), peak = traced_peak(thetas._theta_batch, *args)
    assert value == thetas._theta_batch(*args)[0].values
    assert peak / points < 300


def _gathered_rows(Z, lo, starts, counts, s, e):
    """The rows of nodes s..e-1 as the enumerator used to build them: a
    gather of the node rows, then lo plus each point's index in its node."""
    node = np.repeat(np.arange(s, e), counts[s:e])
    out = np.empty((len(node), Z.shape[1] + 1))
    out[:, :-1] = Z[node]
    out[:, -1] = lo[node] + (np.arange(starts[s], starts[s] + len(node)) - starts[node])
    return out


def _summed_entries(z, basis):
    """The entries z_{2i} + z_{2i+1} delta as one complex expression."""
    n = z.shape[1]
    if len(basis) == 1:
        return z[:, ::-1].astype(np.complex128)
    return z[:, n - 1 :: -2] + z[:, n - 2 :: -2] * basis[1]


def _checking_rows(monkeypatch):
    """Make _block_rows and _entries assert, on every call, that they give
    the bits of the expressions they replaced; returns, per _block_rows
    call, whether some lo of its nodes was -0.0."""
    signed = []
    rows_of, entries_of = thetas._block_rows, thetas._entries

    def rows(Z, lo, starts, counts, s, e):
        out = rows_of(Z, lo, starts, counts, s, e)
        assert out.tobytes() == _gathered_rows(Z, lo, starts, counts, s, e).tobytes()
        signed.append(bool(np.signbit(lo[s:e][lo[s:e] == 0]).any()))
        return out

    def entries(z, basis):
        out = entries_of(z, basis)
        assert out.tobytes() == _summed_entries(z, basis).tobytes()
        return out

    monkeypatch.setattr(thetas, "_block_rows", rows)
    monkeypatch.setattr(thetas, "_entries", entries)
    return signed


def test_rows_and_entries_are_the_bits_of_the_old_expressions(monkeypatch, recorded_batches):
    signed = _checking_rows(monkeypatch)
    for args, _ in recorded_batches:
        thetas._theta_batch(*args)
    assert len(signed) >= len(recorded_batches)
    # the largest family again, in blocks that start past its first node
    monkeypatch.setattr(thetas, "_EVAL_CHUNK", 4096)
    del signed[:]
    thetas._theta_batch(*max(recorded_batches, key=lambda call: call[1])[0])
    assert len(signed) > 10

    # a center -1/4 with half-width 1/2 puts np.ceil(-3/4) = -0.0 at each
    # level; the rows still hold +0.0, and so do the entries' parts
    del signed[:]
    counts, blocks = thetas._ellipsoid_points(
        np.eye(2), np.array([[0.25, 0.25]]), np.array([0.25]), [1])
    ((z, segments),) = list(blocks)
    assert counts.tolist() == [1] and segments == [(0, 0, 1)] and signed == [True]
    assert z.tolist() == [[0.0, 0.0]] and not np.signbit(z).any()
    for basis in (thetas._Z_BASIS, (1.0, FieldId(3).delta_complex), (1.0, 1j)):
        x = thetas._entries(z, basis)
        assert not np.signbit(x.view(np.float64)).any()
