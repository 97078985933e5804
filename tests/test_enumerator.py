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
import tracemalloc
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
    # small coordinates: the rows come as int8
    assert {z.dtype for z in blocks} == {np.dtype(np.int8)}
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


# the relation of plan_golden.json whose batch has the most phase sums per
# point: 72 over 960 points, in two families
_MOST_SUMS = 15


def _record_batches(k):
    """The _theta_batch calls of plan_golden relation k at its recorded W,
    each as ((families, W, lam_y), the point count of each family)."""
    unit = _PLAN_GOLDEN["relations"][k]
    calls = []
    inner = thetas._theta_batch

    def recorder(families, W, lam_y):
        out = inner(families, W, lam_y)
        calls.append(((families, W, lam_y), [v.points for v in out]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thetas, "_theta_batch", recorder)
        W = np.array([[complex(re, im) for re, im in row] for row in unit["W"]])
        evaluate_relation(build_relation(RelationSpec.from_json(unit["spec"])), W,
                          ThetaParams(eps=unit["eps"]))
    return calls


@pytest.fixture(scope="module")
def recorded_batches():
    """The _theta_batch calls of relation _LARGEST (see _record_batches)."""
    return _record_batches(_LARGEST)


def _largest(calls):
    """The arguments of the call with the largest family."""
    return max(calls, key=lambda call: max(call[1]))[0]


def _stage_peaks(args):
    """(_theta_batch(*args), its traced peaks in bytes above what was traced
    at its start: until _ellipsoid_points returns, and after that)."""
    inner = thetas._ellipsoid_points
    peaks = []

    def enumeration(*a):
        out = inner(*a)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return out

    tracing = tracemalloc.is_tracing()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(thetas, "_ellipsoid_points", enumeration)
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = thetas._theta_batch(*args)
            kernel = tracemalloc.get_traced_memory()[1]
        finally:
            if not tracing:
                tracemalloc.stop()
    (enumerated,) = peaks
    return out, enumerated - before, kernel - before


def test_largest_recorded_family_holds_only_its_point_arrays(recorded_batches):
    # the batch of one family holds per point its integer rows (8 bytes at
    # dim 8, int8) and the exponent (16), which its one phase sum
    # multiplies into; the enumerator's last level (44,334 nodes) is made
    # one run of parents at a time into integer arrays of its nodes, and
    # the entries, products, residues and factors exist for one chunk of
    # rows at a time.  The enumeration (until _ellipsoid_points returns)
    # and the kernel after it are measured apart
    args = _largest(recorded_batches)
    points = thetas._theta_batch(*args)[0].points
    assert (points, len(args[0])) == (80_907, 1)
    assert points <= thetas._EVAL_CHUNK  # one piece, one segment
    ((value, _, _),), enumeration, kernel = _stage_peaks(args)
    assert value == thetas._theta_batch(*args)[0].values
    assert enumeration / points < 35
    assert kernel / points < 35


def test_most_phase_sums_per_point_hold_one_block_of_products():
    # a piece's phase sums take their float rows, residues and factors one
    # sum and one sub-block of at most _ROW_CHUNK + 1 rows at a time, and
    # each is dropped before the next is built.  Holding the residues of
    # all of a piece's sums at once would add 8 bytes a point per sum
    calls = _record_batches(_MOST_SUMS)

    def sums(call):
        return sum(len(fam.phases.sums) for fam in call[0][0])

    call = max(calls, key=lambda call: sums(call) / max(sum(call[1]), 1))
    args, points = call[0], sum(call[1])
    assert (points, sums(call), len(args[0])) == (960, 72, 2)
    want = [v.values for v in thetas._theta_batch(*args)]
    got, peak = traced_peak(thetas._theta_batch, *args)
    assert [v.values for v in got] == want
    assert peak / points < 110


def test_many_sums_over_a_piece_hold_no_wide_block():
    # plan_golden relation 16's second batch: one family of 3,889 points
    # and 99 phase sums, whose z.k took a block of 67 sums over the piece
    # (2.1 MB, 879 traced bytes a point) when blocks were sized by
    # _EVAL_CHUNK values
    args, points = _record_batches(16)[1]
    ((fam,), (n,)) = (args[0], points)
    assert (n, len(fam.phases.sums)) == (3889, 99)
    want = [v.values for v in thetas._theta_batch(*args)]
    got, peak = traced_peak(thetas._theta_batch, *args)
    assert [v.values for v in got] == want
    assert peak / n < 135


def test_over_cap_raises_before_the_points_are_made(monkeypatch, recorded_batches):
    # at half the largest family's points its last level (44,334 nodes) is
    # over the cap before it is made; at 50,000 the last level is made and
    # counted one run of parents at a time, and the first run that takes
    # the center past the cap raises, well before its 80,907 points
    args = _largest(recorded_batches)
    _, full = traced_peak(thetas._theta_batch, *args)
    for cap, levels in ((80_907 // 2, 7), (50_000, 8)):
        monkeypatch.setattr(thetas, "_MAX_POINTS", cap)
        tracemalloc.start()
        try:
            with pytest.raises(TruncationError) as err:
                thetas._theta_batch(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        found = re.fullmatch(
            rf"lattice enumeration exceeds max_points={cap}: (\d+) points after "
            rf"{levels} of 8 coordinates \(radius 5, dim 8\)", str(err.value))
        assert found, str(err.value)
        assert cap < int(found.group(1)) < 80_907
        assert peak < full
        if levels == 7:
            assert peak < 0.8 * full


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
    """Make _blocks and _entries assert, on every block and call, that they
    give what the expressions they replaced gave: rows of an integer type
    that hold the integers of the gathered float rows of the block's nodes,
    and entries with the bits of the complex expression on those rows as
    floats; returns the type of the rows of each block."""
    types = []
    blocks_of, entries_of = thetas._blocks, thetas._entries

    def blocks(Z, lo, counts, edges, pieces, dtype):
        k = 0  # the block's first piece: a block's segments are its pieces
        for rows, segments in blocks_of(Z, lo, counts, edges, pieces, dtype):
            s, e = pieces[k][1], pieces[k + len(segments) - 1][2]
            k += len(segments)
            assert rows.dtype.kind == "i"
            assert np.array_equal(rows, _gathered_rows(Z, lo, edges, counts, s, e))
            types.append(rows.dtype)
            yield rows, segments

    def entries(z, basis):
        out = entries_of(z, basis)
        assert out.tobytes() == _summed_entries(z.astype(np.float64), basis).tobytes()
        return out

    monkeypatch.setattr(thetas, "_blocks", blocks)
    monkeypatch.setattr(thetas, "_entries", entries)
    return types


def test_rows_and_entries_are_the_bits_of_the_old_expressions(monkeypatch, recorded_batches):
    types = _checking_rows(monkeypatch)
    for args, _ in recorded_batches:
        thetas._theta_batch(*args)
    assert len(types) >= len(recorded_batches)
    # every coordinate is within 127: one byte each
    assert set(types) == {np.dtype(np.int8)}
    # the largest family again, in blocks that start past its first node
    monkeypatch.setattr(thetas, "_EVAL_CHUNK", 4096)
    del types[:]
    thetas._theta_batch(*_largest(recorded_batches))
    assert len(types) > 10

    # a center -1/4 with half-width 1/2 puts np.ceil(-3/4) = -0.0 at each
    # level; the rows hold the integer 0, and the entries' parts are +0.0
    del types[:]
    counts, blocks = thetas._ellipsoid_points(
        np.eye(2), np.array([[0.25, 0.25]]), np.array([0.25]), [1])
    ((z, segments),) = list(blocks)
    assert counts.tolist() == [1] and segments == [(0, 0, 1)] and types == [np.int8]
    assert z.tolist() == [[0, 0]]
    for basis in (thetas._Z_BASIS, (1.0, FieldId(3).delta_complex), (1.0, 1j)):
        x = thetas._entries(z, basis)
        assert not np.signbit(x.view(np.float64)).any()


def test_rows_take_the_narrowest_integer_type():
    # coordinates up to 127 fit int8, 128 needs int16: a disc of radius
    # 127.5 about the origin, and one of the same radius about 1/2
    for c, dtype, top in ((0.0, np.int8, 127), (-0.5, np.int16, 128)):
        counts, blocks = thetas._ellipsoid_points(
            np.eye(1), np.array([[c]]), np.array([127.5 ** 2]), [128])
        ((z, _),) = list(blocks)
        assert z.dtype == dtype and int(np.abs(z).max()) == top
        assert z[:, 0].tolist() == list(range(-127, top + 1))


def test_sub_blocks_leave_no_lone_row(monkeypatch, recorded_batches):
    c = thetas._ROW_CHUNK
    for n in (1, 2, c - 1, c, c + 1, c + 2, 2 * c, 2 * c + 1, 5 * c + 3):
        cuts = thetas._sub_blocks(7, 7 + n)
        assert [a for a, _ in cuts[1:]] == [b for _, b in cuts[:-1]]
        assert (cuts[0][0], cuts[-1][1]) == (7, 7 + n)
        sizes = [b - a for a, b in cuts]
        assert sizes[:-1] == [c] * (len(sizes) - 1)
        assert sizes[-1] <= c + 1 and (sizes[-1] > 1 or n == 1)
    # the chunks of a block hold the cuts of its segments in order, at most
    # c + 1 rows each; a 1-point segment is one part of its chunk
    segments = [(0, 0, 3), (1, 3, 4), (2, 4, 4 + 2 * c + 1), (3, 2 * c + 5, 2 * c + 10)]
    chunks = thetas._row_chunks(segments)
    assert [part for _, _, parts in chunks for part in parts] == [
        (j, a, b) for j, s, e in segments for a, b in thetas._sub_blocks(s, e)]
    assert all(parts[0][1] == a and parts[-1][2] == b <= a + c + 1 for a, b, parts in chunks)
    assert chunks[0][2][:2] == segments[:2]
    assert thetas._row_chunks(segments[:1]) == [(0, 3, segments[:1])]

    # relation _LARGEST in sub-blocks of 64 rows, its enumerations' last
    # levels in runs of about 64 children and its blocks' last columns in
    # runs of about 64 rows: the same counts, rows and values, bit for bit
    enumerations = []
    inner = thetas._ellipsoid_points

    def recording(*a):
        counts, blocks = inner(*a)
        blocks = list(blocks)
        enumerations.append((counts.tolist(), [(z.dtype, z.tobytes(), segments)
                                               for z, segments in blocks]))
        return counts, iter(blocks)

    monkeypatch.setattr(thetas, "_ellipsoid_points", recording)
    runs = []
    node_runs = thetas._node_runs
    monkeypatch.setattr(thetas, "_node_runs", lambda *a: runs.append(node_runs(*a)) or runs[-1])
    want = [thetas._theta_batch(*args) for args, _ in recorded_batches]
    points = enumerations[:]
    assert max(len(r) for r in runs) > 1  # the largest family's last level
    del enumerations[:], runs[:]
    monkeypatch.setattr(thetas, "_ROW_CHUNK", 64)
    assert [thetas._theta_batch(*args) for args, _ in recorded_batches] == want
    assert enumerations == points
    assert max(len(r) for r in runs) > 80_907 // 64 // 2
    monkeypatch.setattr(thetas, "_ellipsoid_points", inner)

    # a segment of _ROW_CHUNK + 1 rows at g h = 3, whose last sub-block
    # takes the lone last row (BLAS may compute a 1-row product by another
    # path, which rounds differently from the same row in a longer one):
    # no chunk holds a lone row, and the values are the whole segment's
    field, W, P, A0, B0 = _random_case(9, 7, 1, 3)
    (leaf,) = thetas._lower(field, P, A0, B0, ThetaParams())
    at = thetas._at(W)
    monkeypatch.setattr(thetas, "_ROW_CHUNK", thetas._EVAL_CHUNK)
    ((_, _, points),) = want = thetas._theta_batch((leaf,), at.w, at.lam_y)
    assert points == 8
    monkeypatch.setattr(thetas, "_ROW_CHUNK", points - 1)
    chunks = []
    row_chunks = thetas._row_chunks
    monkeypatch.setattr(thetas, "_row_chunks",
                        lambda segments: chunks.append(row_chunks(segments)) or chunks[-1])
    assert thetas._theta_batch((leaf,), at.w, at.lam_y) == want
    assert chunks == [[(0, points, [(0, 0, points)])]]


# -- one product per chunk -------------------------------------------------------


def _per_part_quad(z, segments, offsets, m_t, basis):
    """thetas._quad as the kernel computed it with one offset add, matrix
    product and einsum per part of each chunk (see thetas._row_chunks)."""
    e1 = np.empty(len(z), dtype=np.complex128)
    for a, b, parts in thetas._row_chunks(segments):
        x = thetas._entries(z[a:b], basis)
        y = np.empty_like(x)
        for j, s, e in parts:
            xs = x[s - a:e - a]
            xs += offsets[j]
            ys = np.matmul(xs, m_t, out=y[s - a:e - a])
            np.einsum("nk,nk->n", np.conjugate(xs, out=xs), ys, out=e1[s:e])
    return np.exp(np.multiply(1j * np.pi, e1, out=e1), out=e1)


def _one_point_batch():
    """A batch of four families at d = 1, g = 2, h = 1 whose second, at
    A0 = 0, has a single point: with Y = 20 [[2, 1], [1, 2]] (lam_min 20)
    and P = [[1]], it gets radius 1, and every nonzero N = (a, b) has
    Q(N) = 20 (|a|^2 + |b|^2 + |a + b|^2) >= 40, above the bound 20 r^2.
    Returns (the _theta_batch arguments, the points of each family)."""
    field = FieldId(1)
    W = np.array([[0.3 + 40j, 0.1 + 20j], [0.1 + 20j, -0.2 + 40j]])
    at = thetas._at(W)
    half, third, quarter = Fraction(1, 2), Fraction(1, 3), Fraction(1, 4)
    families = tuple(
        thetas._lower(field, [[1]], a, [[third], [0]], ThetaParams())[0]
        for a in ([[half], [0]], [[0], [0]], [[0], [third]], [[quarter], [quarter]]))
    return (families, at.w, at.lam_y), [32, 1, 31, 26]


def test_chunk_products_are_the_per_part_products(monkeypatch):
    # every recorded batch of plan_golden's relations, and a batch whose
    # 1-point family sits inside a chunk of 90 rows: each family's values
    # are the ones of one offset add, product and einsum per part
    batches = [args for k in range(len(_PLAN_GOLDEN["relations"]))
               for args, _ in _record_batches(k)]
    args, points = _one_point_batch()
    batches.append(args)
    want = [thetas._theta_batch(*args) for args in batches]
    assert [v.points for v in want[-1]] == points
    monkeypatch.setattr(thetas, "_quad", _per_part_quad)
    assert [thetas._theta_batch(*args) for args in batches] == want


def test_one_point_segments_keep_a_one_row_product(monkeypatch):
    # a chunk runs one product over its rows, and a 1-point segment in it
    # one more of its own row (BLAS computes a 1-row product by another
    # path, which rounds differently from the same row in a longer one)
    args, points = _one_point_batch()
    rows = []
    matmul = np.matmul

    def recording(x, m, **kwargs):
        if m.dtype == np.complex128:  # the quadratic form, not z.k
            rows.append(len(x))
        return matmul(x, m, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    assert [v.points for v in thetas._theta_batch(*args)] == points
    assert rows == [sum(points), 1]


def _assert_cut(bounds, s, e, size, runs):
    """runs cut nodes s..e-1 in order into the longest runs of at most size
    children (node i's are bounds[i]:bounds[i+1]), or of one node that has
    more."""
    assert [a for a, _ in runs] == [s] + [b for _, b in runs[:-1]]
    assert (runs[-1][1] if runs else s) == e
    for a, b in runs:
        assert bounds[b] - bounds[a] <= size or b == a + 1
        assert b == e or bounds[b + 1] - bounds[a] > size


def test_one_cut_rule_makes_runs_and_pieces(monkeypatch, recorded_batches):
    # every level's runs of parents, every center's pieces and every
    # block's pieces come from _node_runs; the rows come from the one
    # writer, and the helpers it replaced are gone
    assert not hasattr(thetas, "_block_rows") and not hasattr(thetas, "_cache_value")
    calls = []
    node_runs = thetas._node_runs
    monkeypatch.setattr(thetas, "_node_runs",
                        lambda *a: calls.append((*a, node_runs(*a))) or calls[-1][-1])
    for chunk in (thetas._ROW_CHUNK, 64):
        monkeypatch.setattr(thetas, "_ROW_CHUNK", chunk)
        del calls[:]
        for args, _ in recorded_batches:
            thetas._theta_batch(*args)
        runs = [call for call in calls if call[3] == chunk]
        assert max(len(call[-1]) for call in runs) > (1 if chunk > 64 else 80_907 // 64 // 2)
        for call in runs:
            _assert_cut(*call)
    # the largest family's center in pieces of at most 4,096 points
    monkeypatch.setattr(thetas, "_EVAL_CHUNK", 4096)
    cuts = []
    pieces_of = thetas._pieces
    monkeypatch.setattr(thetas, "_pieces", lambda *a: cuts.append((a, pieces_of(*a))) or cuts[-1][1])
    thetas._theta_batch(*_largest(recorded_batches))
    (((edges, first), pieces),) = cuts
    assert len(pieces) > 80_907 // 4096
    for j in range(len(first) - 1):
        _assert_cut(edges, first[j], first[j + 1], 4096,
                    [(s, e) for jj, s, e in pieces if jj == j])
