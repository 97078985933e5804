"""Plans: each compiled sum is lowered once per owner and ThetaParams, and
evaluating a plan at W gives, bit for bit, the sum of the public theta
calls, and the evaluation and hit counts of those calls on one cache."""

import gc
import json
import math
import os
import random
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from iqtheta import (
    DomainError,
    FieldId,
    GroupCapError,
    KMatrix,
    ThetaCache,
    ThetaParams,
    ThetaValue,
    TruncationError,
    build_relation,
    decompose_rational_P,
    default_W_samples,
    evaluate_relation,
    make_preset,
    riemann_theta_z0,
    run_paper_suite,
    theta_check_variant,
    theta_general,
)
from iqtheta import presets, relations, thetas
from iqtheta.cli import main
from iqtheta.kfield import dual_generator, re_trace_of_product
from iqtheta.lattices import _int_coords, character_group, shift_group
from iqtheta.relations import (
    RelationSpec,
    _lower_terms,
    _sum_terms,
)

from _helpers import (
    Term,
    ThetaFactor,
    compile_terms,
    family_leaf,
    leaf_phase,
    lhs_terms,
    monomials,
    plan_factor,
    plan_leaf,
    relation_terms,
    rhs_terms,
)


def _factor_value(f, W, params, cache):
    if f.lattice == "O_K":
        return theta_general(f.a.field, W, f.p, f.a, f.b, params, cache).value
    # over Z, P = [[s]] is the Riemann theta at s * Omega
    a, b = ([row[0].a for row in m.entry_rows()] for m in (f.a, f.b))
    return riemann_theta_z0(a, b, np.asarray(W) * float(f.p[(0, 0)].a), params).value


def _naive(sides, W, params, cache):
    """The plan's sums, one public call per factor occurrence."""
    sums = []
    for side in sides:
        re_parts, im_parts = [], []
        for t in side:
            acc = float(t.coeff_scale) * thetas._phase(t.coeff_q)
            for f in t.factors:
                acc *= _factor_value(f, W, params, cache)
            re_parts.append(acc.real)
            im_parts.append(acc.imag)
        sums.append(complex(math.fsum(re_parts), math.fsum(im_parts)))
    return sums


def _check(field, a, b, s=Fraction(1)):
    """theta_check_variant[a; b] at s W as (q, factor) with
    exp(-2 pi i q) times the factor: q = Re Tr(a^H b) and Theta^[[s]][a; b],
    where -d is 1 mod 4 the series at 2 s W with q and b doubled."""
    k = 2 if field.one_mod_four else 1
    return (k * re_trace_of_product(a, b),
            ThetaFactor(a, b.scale(k), KMatrix([[field.from_rational(k * s)]])))


def _col(field, g, seed):
    return KMatrix([[field.element(Fraction(seed + k, 3 + k), Fraction(1 - seed, 5 + 2 * k))]
                    for k in range(g)])


def _mat(field, g, h, seed):
    return KMatrix([[field.element(Fraction(seed + i - j, 4 + i + j), Fraction(j - seed, 7 + i))
                     for j in range(h)] for i in range(g)])


def _diag(field, entries):
    h = len(entries)
    return KMatrix([[field.from_rational(entries[i]) if i == j else field.zero()
                     for j in range(h)] for i in range(h)])


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("g", [1, 2])
def test_plan_matches_public_calls_bit_for_bit(d, g):
    field = FieldId(d)
    params = ThetaParams(eps=1e-11)
    W = (np.array([[0.15 + 1.1j]]) if g == 1
         else np.array([[0.1 + 1.2j, 0.2 - 0.1j], [0.2 - 0.1j, -0.3 + 0.9j]]))
    p01 = field.element(Fraction(1, 2), Fraction(1, 2))
    dense_p = KMatrix([[field.from_rational(2), p01], [p01.conj(), field.from_rational(3)]])
    diag2 = [ThetaFactor(_mat(field, g, 2, k), _mat(field, g, 2, k + 1),
                         _diag(field, [2, Fraction(5, 2)])) for k in (1, 4)]
    diag3 = ThetaFactor(_mat(field, g, 3, 3), _mat(field, g, 3, -1),
                        _diag(field, [1, 2, Fraction(3, 2)]))
    dense = ThetaFactor(_mat(field, g, 2, 0), _mat(field, g, 2, 5), dense_p)
    # check-variant thetas at s * W: their phases go into the coefficients
    phases, checks = zip(*(_check(field, _col(field, g, k), _col(field, g, 2 - k), s)
                           for k, s in enumerate((Fraction(1, 2), Fraction(1), Fraction(2)))))
    riemann = [ThetaFactor(*thetas._z_factor(tuple(Fraction(k, 2) for _ in range(g)),
                                             tuple(Fraction(1 - k, 2) for _ in range(g)), s))
               for k, s in ((0, 1), (1, 2))]
    # each side of one coefficient scale, lattice and leaf count per factor
    sides = (
        (
            Term(Fraction(1, 3), Fraction(1), (diag2[0], diag2[1])),
            Term(Fraction(0), Fraction(1), (diag2[0], diag2[0])),  # repeated
        ),
        (Term(Fraction(5, 7), Fraction(3), (diag3,)),
         Term(Fraction(1, 6), Fraction(3), (diag3, diag3))),
        (
            Term(Fraction(1, 4) + sum(phases), Fraction(1), tuple(checks)),
            Term(Fraction(2, 3) + phases[2], Fraction(1), (checks[2], dense)),
        ),
        (Term(phases[0], Fraction(-2, 5), (dense, dense, checks[0])),),
        (
            Term(Fraction(0), Fraction(1, 2), (riemann[0], riemann[0])),
            Term(Fraction(1, 3), Fraction(1, 2), (riemann[1], riemann[0])),
        ),
    ) + tuple((Term(Fraction(0), Fraction(1), (f,)),) for f in (dense, checks[1], riemann[1]))
    plan = _lower_terms(params, tuple(map(compile_terms, sides)))
    got, evals, hits = _sum_terms(plan, W)
    naive_cache = ThetaCache()
    want = _naive(sides, W, params, naive_cache)
    assert got == want  # complex ==: bit for bit
    # the naive sum evaluates each Riemann read outside the cache; the plan
    # evaluates each distinct Riemann leaf once and reads it from its table
    reads = [f for side in sides for t in side for f in t.factors if f.lattice == "Z"]
    assert len(set(reads)) == 2 and len(reads) == 5
    assert (evals, hits) == (naive_cache.misses + 2, naive_cache.hits + 3)
    assert hits > 0


def test_equal_w_bytes_share_a_leaf():
    # a check-variant factor (d = 1: P = [[1]], b as it is) and a field
    # factor with P = [[1]] read the same leaf at W: one evaluation and one
    # hit, as one public call per factor on one cache
    field = FieldId(1)
    params = ThetaParams(eps=1e-11)
    W = np.array([[0.15 + 1.1j]])
    a, b = _col(field, 1, 1), _col(field, 1, 2)
    q, check = _check(field, a, b)
    plain = ThetaFactor(a, b, KMatrix.identity(1, field))
    sides = ((Term(q, Fraction(1), (check, plain)),),)
    plan = _lower_terms(params, tuple(map(compile_terms, sides)))
    got, evals, hits = _sum_terms(plan, W)
    cache = ThetaCache()
    assert got == _naive(sides, W, params, cache)
    assert (evals, hits) == (cache.misses, cache.hits) == (1, 1)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("g", [1, 2])
def test_folded_check_form_matches_theta_check_variant(d, g):
    # a check-variant theta as a plain factor with its phase in the Term's
    # coefficient gives theta_check_variant times the Term's own phase, to
    # a few ulps (one phase of the exact sum, against rounded phases multiplied)
    field = FieldId(d)
    params = ThetaParams(eps=1e-11)
    W = (np.array([[0.15 + 1.1j]]) if g == 1
         else np.array([[0.1 + 1.2j, 0.2 - 0.1j], [0.2 - 0.1j, -0.3 + 0.9j]]))
    for k in range(3):
        pairs = [(_col(field, g, k), _col(field, g, 2 - k)),
                 (_col(field, g, k + 1), _col(field, g, -k))]
        for q0 in (Fraction(0), Fraction(1, 3), Fraction(5, 7)):
            q, factors, want = q0, [], thetas._phase(q0)
            for a, b in pairs:
                q_ab, factor = _check(field, a, b)
                q += q_ab
                factors.append(factor)
                want *= theta_check_variant(field, a, b, W, params).value
            side = compile_terms((Term(q, Fraction(1), tuple(factors)),))
            (got,), _, _ = _sum_terms(_lower_terms(params, (side,)), W)
            assert abs(got - want) <= 8 * np.finfo(float).eps * abs(want)


def _relation():
    field = FieldId(1)
    i_ = field.delta()
    c = (field.one() - i_) * Fraction(1, 2)
    T = KMatrix([[c, c], [c, -c]])
    P = KMatrix.identity(2, field)
    A0 = KMatrix([[field.element(Fraction(1, 3)), field.element(Fraction(1, 4))]])
    B0 = KMatrix([[field.element(Fraction(1, 5)), field.element(Fraction(1, 7))]])
    return build_relation(RelationSpec(field=field, g=1, T=T, P=P, A0=A0, B0=B0))


def _count_lowerings(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return _lower_terms(*args, **kwargs)

    monkeypatch.setattr(relations, "_lower_terms", counting)
    return calls


def test_plan_lowered_once_per_owner_and_params(monkeypatch):
    calls = _count_lowerings(monkeypatch)
    W = [[0.1 + 1.05j]]
    coarse = ThetaParams(eps=1e-8)

    inst = _relation()
    first = evaluate_relation(inst, W)
    assert evaluate_relation(inst, W) == first
    evaluate_relation(inst, [[0.2 + 0.9j]])
    assert len(calls) == 1
    evaluate_relation(inst, W, coarse)
    evaluate_relation(inst, W, ThetaParams(eps=1e-8))  # an equal ThetaParams
    assert len(calls) == 2
    # a corrupted plan is lowered fresh every time and never cached
    evaluate_relation(inst, W, corrupt="drop")
    evaluate_relation(inst, W, corrupt="drop")
    assert len(calls) == 4
    evaluate_relation(inst, W)
    assert len(calls) == 4
    evaluate_relation(_relation(), W)  # a new owner lowers its own plan
    assert len(calls) == 5

    del calls[:]
    (check,) = make_preset("jacobi_identity").identity_checks
    check.evaluate(W)
    check.evaluate([[0.3 + 1.2j]])
    check.evaluate(W, coarse)
    check.evaluate(W, coarse)
    assert len(calls) == 2

    del calls[:]
    field = FieldId(1)
    P = KMatrix.from_rational_rows([[2, -1], [-1, 2]], field)
    A0 = KMatrix.from_rational_rows([[Fraction(1, 3), Fraction(1, 4)]], field)
    B0 = KMatrix.from_rational_rows([[Fraction(1, 5), Fraction(1, 6)]], field)
    dec = decompose_rational_P(field, 1, P, A0, B0)
    assert dec.evaluate(W) == dec.evaluate(W)
    dec.evaluate(W, coarse)
    assert len(calls) == 2


def test_an_evaluation_reads_w_once(monkeypatch):
    # a plan reads W itself once, whatever the scales of W its factors
    # stand for (here 1 and 2 in the Riemann quadratic, a doubled check
    # variant at d = 3): one conversion, one check, then one batch per
    # group of families, and nothing more
    calls = []
    for module, name in ((relations, "_as_complex_matrix"), (relations, "_at"),
                         (thetas, "_theta_batch")):
        inner = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, _inner=inner, _name=name:
                            calls.append(_name) or _inner(*args))
    field = FieldId(3)
    q, check = _check(field, _col(field, 1, 1), _col(field, 1, 2))
    side = compile_terms((Term(q, Fraction(1), (check,)),))
    inst = _relation()
    (identity,) = make_preset("riemann_quad").identity_checks
    dec = decompose_rational_P(*_decomposition_input(3, 1, 3))
    plan = _lower_terms(ThetaParams(), (side,))
    owners = [
        (lambda W: evaluate_relation(inst, W), inst._plans),
        (identity.evaluate, identity._plans),
        (lambda W: _sum_terms(plan, W), {None: plan}),
        (dec.evaluate, dec._plans),
    ]
    groups = []
    for evaluate, plans in owners:
        del calls[:]
        evaluate([[0.1 + 1.05j]])
        (lowered,) = plans.values()
        groups.append(len(lowered.groups))
        assert calls == ["_as_complex_matrix", "_at"] + ["_theta_batch"] * groups[-1]
    assert groups == [1, 2, 1, 2]


@pytest.mark.parametrize("name", ["jacobi_identity", "prop_half_general", "matsumoto"])
def test_evaluated_identity_check_is_collected(name):
    # the plan cached on the check must not keep the check alive
    (check,) = make_preset(name).identity_checks
    assert check.evaluate(default_W_samples(check.g)[0]).passed
    assert check._plans
    ref = weakref.ref(check)
    del check
    gc.collect()
    assert ref() is None


# -- leaves evaluated in batches ------------------------------------------------


def _group(d, g, h, count, seed=0):
    """count leaves of one group as its families: one P, characteristics
    from a fixed grid, the first with A0 = 0 so that the radius floors
    differ."""
    field = FieldId(d)
    rng = np.random.default_rng(seed)
    M = KMatrix([[field.element(int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
                  for _ in range(h)] for _ in range(h)])
    P = M.conj_transpose() @ M + KMatrix.identity(h, field)
    params = ThetaParams(eps=1e-3)

    def char(k):
        if k == 0:
            return KMatrix.zeros(g, h, field)
        return KMatrix([[field.element(Fraction(int(rng.integers(-5, 6)), 6),
                                       Fraction(int(rng.integers(-5, 6)), 6))
                         for _ in range(h)] for _ in range(g)])

    families: dict = {}  # A0 -> its family
    for k in range(count):
        a = thetas._int_key(*_int_coords(char(k)), center=True)
        b = thetas._int_key(*_int_coords(char(k + 1)))
        if a not in families:
            families[a] = thetas._Family(field, P, thetas._int_key(*_int_coords(P)), a, params)
        families[a].intern(b)
    return tuple(families.values())


def _W(g):
    # Im W large enough that the radius floors, not eps, set the radii
    return (np.array([[0.2 + 4.2j]]) if g == 1
            else np.array([[0.1 + 4.0j, 0.3 - 0.2j], [0.3 - 0.2j, -0.2 + 5.0j]]))


def _batch_calls(monkeypatch):
    """The number of centers of each enumeration."""
    calls = []
    inner = thetas._ellipsoid_points

    def counting(R, C, bounds, radii):
        calls.append(len(C))
        return inner(R, C, bounds, radii)

    monkeypatch.setattr(thetas, "_ellipsoid_points", counting)
    return calls


def _recorded(monkeypatch, name):
    """The calls of thetas.<name>, as (arguments, result)."""
    calls = []
    inner = getattr(thetas, name)

    def recording(*args):
        out = inner(*args)
        calls.append((args, out))
        return out

    monkeypatch.setattr(thetas, name, recording)
    return calls


def _leaves(families):
    """The leaves of the families, in order, each a family of one."""
    return [family_leaf(fam, j) for fam in families for j in range(len(fam.bs))]


def _group_families(plan):
    """The plan's groups of families, in batch order."""
    return [[plan.families[f] for f in group] for group in plan.groups]


def _values(got):
    """The values of a batch of families, leaf by leaf, as ThetaValues."""
    return [ThetaValue(v, r.tail_bound, r.points) for r in got for v in r.values]


def _one_by_one(families, W, lam_y):
    return [thetas._theta_dense(leaf, W, lam_y) for leaf in _leaves(families)]


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("g,h", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_batch_is_bit_identical_to_one_leaf_calls(monkeypatch, d, g, h):
    families = _group(d, g, h, 12, seed=10 * d + g + h)
    floors = {thetas._radius_floor(fam.floats.offset_norm) for fam in families}
    assert len(floors) > 1
    W = _W(g)
    lam_y = thetas._at(W).lam_y
    calls = _batch_calls(monkeypatch)
    got = _values(thetas._theta_batch(families, W, lam_y))
    # one enumeration for the whole group, one center per family
    assert calls == [len(families)]
    want = _one_by_one(families, W, lam_y)
    assert len(got) == len(want) == 12
    for a, b in zip(got, want):
        assert (a.value, a.tail_bound, a.lattice_points_used) == (
            b.value, b.tail_bound, b.lattice_points_used)
    assert len({v.tail_bound for v in got}) > 1  # the radii differ too


def _reference_pieces(edges, first):
    """Each center's nodes (center j's first[j]..first[j+1]-1, node i's
    points edges[i]:edges[i+1]) cut into pieces of at most _EVAL_CHUNK
    points (or one node), one searchsorted per piece."""
    ends = edges[1:]
    pieces = []
    for j in range(len(first) - 1):
        s, stop = first[j], first[j + 1]
        while s < stop:
            e = int(np.searchsorted(ends, edges[s] + thetas._EVAL_CHUNK, side="right"))
            e = min(max(e, s + 1), stop)
            pieces.append((j, s, e))
            s = e
    return pieces


def test_centers_cut_into_pieces(monkeypatch):
    families = _group(3, 2, 2, 16, seed=5)
    W = _W(2)
    lam_y = thetas._at(W).lam_y
    points = sorted(v.lattice_points_used for v in _one_by_one(families, W, lam_y))
    # one batch, and a chunk that the larger families overflow: their
    # centers are cut into several pieces, the others stay whole
    monkeypatch.setattr(thetas, "_BATCH_POINTS", math.inf)
    monkeypatch.setattr(thetas, "_EVAL_CHUNK", points[len(points) // 2])
    cuts = _recorded(monkeypatch, "_pieces")
    want = _one_by_one(families, W, lam_y)
    assert _values(thetas._theta_batch(families, W, lam_y)) == want
    for args, pieces in cuts:
        assert pieces == _reference_pieces(*args)
    per_center = Counter(j for j, _, _ in cuts[-1][1])
    assert len(per_center) == len(families) > 1
    assert max(per_center.values()) > 1 and min(per_center.values()) == 1


def test_batches_straddle_the_cap(monkeypatch):
    families = _group(3, 2, 2, 16, seed=5)
    W = _W(2)
    lam_y = thetas._at(W).lam_y
    want = _one_by_one(families, W, lam_y)
    median = sorted(v.lattice_points_used for v in want)[len(want) // 2]
    # a cap that a few leaves fill: the group runs as several batches
    monkeypatch.setattr(thetas, "_BATCH_POINTS", 2.5 * median)
    calls = _batch_calls(monkeypatch)
    assert _values(thetas._theta_batch(families, W, lam_y)) == want
    assert sum(calls) == len(families) and len(calls) > 1 and max(calls) > 1
    # a cap below every family's estimate: each family runs alone
    monkeypatch.setattr(thetas, "_BATCH_POINTS", 1e-9)
    del calls[:]
    assert _values(thetas._theta_batch(families, W, lam_y)) == want
    assert calls == [1] * len(families)


def _assert_batches_by_family(monkeypatch, plan, W):
    """Each group of the plan at W: bit for bit the one-leaf calls, one
    enumeration with one center per family (one family per A0), and one
    phase sum per piece for each distinct (M, k) of a family's leaves.
    Returns the leaves, families and phase sums of the plan."""
    at = thetas._at(np.asarray(W, dtype=complex))
    calls = _batch_calls(monkeypatch)
    cuts = _recorded(monkeypatch, "_pieces")
    sums = _recorded(monkeypatch, "_phase_sum")
    leaves = families = phase_sums = 0
    for group in _group_families(plan):
        del calls[:], cuts[:], sums[:]
        got = thetas._theta_batch(group, at.w, at.lam_y)
        assert len({fam.a for fam in group}) == len(group)
        assert calls == [len(group)]
        ((_, pieces),) = cuts
        per_center = Counter(j for j, _, _ in pieces)
        # each family's distinct (M, k), read off each B0 alone
        phases = [{thetas._phase_residues(fam.field.d, *b, len(fam.basis))[:2] for b in fam.bs}
                  for fam in group]
        assert len(sums) == sum(len(ks) * per_center[f] for f, ks in enumerate(phases))
        phase_sums += len(sums)
        assert _values(got) == _one_by_one(group, at.w, at.lam_y)
        leaves += len(_leaves(group))
        families += len(group)
    return leaves, families, phase_sums


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("g", [1, 2])
def test_relation_leaves_batch_by_family(monkeypatch, d, g):
    # with this T, |G1| = 1 and |G2| > 1: the right-hand thetas share their
    # A0 and differ in B0 + c b, b in G2, so they are one family of leaves
    # that differ only in the linear phase (denominators well above 1)
    field = FieldId(d)
    one, zero = field.one(), field.zero()
    T = KMatrix([[one + field.delta(), zero], [one, one + one]])
    P = KMatrix.from_rational_rows([[2, 1], [1, 2]], field)
    A0 = KMatrix([[field.element(Fraction(1, 3), Fraction(1, 2)),
                   field.element(Fraction(1, 4))]] * g)
    B0 = KMatrix([[field.element(Fraction(1, 5)),
                   field.element(Fraction(1, 2), Fraction(1, 7))]] * g)
    inst = build_relation(RelationSpec(field, g, T, P, A0, B0))
    plan = _lower_terms(ThetaParams(eps=1e-6), (inst.lhs, inst.rhs))
    leaves, families, _ = _assert_batches_by_family(monkeypatch, plan, _W(g))
    assert leaves == 1 + len(relation_terms(inst)) and families == 2
    assert all(leaf_phase(leaf)[0] > 1 for leaf in _leaves(plan.families))


def test_decomposition_leaves_batch_by_family(monkeypatch):
    field = FieldId(3)
    P = KMatrix.from_rational_rows([[2, -1], [-1, 2]], field)
    A0 = KMatrix.from_rational_rows([[Fraction(1, 3), Fraction(-1, 4)],
                                     [Fraction(1, 2), 0]], field)
    B0 = KMatrix.from_rational_rows([[Fraction(1, 5), Fraction(1, 2)],
                                     [0, Fraction(1, 3)]], field)
    dec = decompose_rational_P(field, 2, P, A0, B0)
    plan = _lower_terms(ThetaParams(eps=1e-9), (dec.expansion,))
    leaves, families, phase_sums = _assert_batches_by_family(monkeypatch, plan, _W(2))
    assert (leaves, families) == (16 + 256, 1 + 16)
    # the one family of 16 leaves has 16 (M, k), and each of the 16
    # families of 16 leaves shares one (M, k): 32 phase sums, not 272
    assert phase_sums == 16 + 16


def test_residues_in_blocks_of_sums(monkeypatch):
    # no residue block holds more than _ROW_CHUNK + 1 values: each phase
    # sum takes its residues one sub-block of rows at a time, in a piece
    # of one sub-block and a longer one alike.  With pieces of at most 40
    # points and sub-blocks of up to 17 rows, the 16 (M, k) of the
    # decomposition's first family run over both kinds of piece, bit for
    # bit the one-leaf calls and the values at the default _ROW_CHUNK
    monkeypatch.setattr(thetas, "_EVAL_CHUNK", 40)
    field = FieldId(3)
    P = KMatrix.from_rational_rows([[2, -1], [-1, 2]], field)
    A0 = KMatrix.from_rational_rows([[Fraction(1, 3), Fraction(-1, 4)],
                                     [Fraction(1, 2), 0]], field)
    B0 = KMatrix.from_rational_rows([[Fraction(1, 5), Fraction(1, 2)],
                                     [0, Fraction(1, 3)]], field)
    dec = decompose_rational_P(field, 2, P, A0, B0)
    plan = _lower_terms(ThetaParams(eps=1e-9), (dec.expansion,))
    at = thetas._at(_W(2))

    def values():
        return [_values(thetas._theta_batch(group, at.w, at.lam_y))
                for group in _group_families(plan)]

    want = values()
    monkeypatch.setattr(thetas, "_ROW_CHUNK", 16)
    residues = _recorded(monkeypatch, "_residues")
    steps = []
    exact = thetas._float_residues
    monkeypatch.setattr(thetas, "_float_residues", lambda *a: steps.append(a) or exact(*a))
    _assert_batches_by_family(monkeypatch, plan, _W(2))
    assert len(steps) > 1000
    assert max(out.size for _, out in residues) <= thetas._ROW_CHUNK + 1
    assert max(len(z) for (z, _, _), _ in residues) <= thetas._ROW_CHUNK + 1
    # one sum's row of k per block, over a whole piece of one sub-block
    # and over one sub-block of a longer piece
    assert all(ks.shape == (4,) for (_, ks, _), _ in residues)
    assert any(len(z) < thetas._ROW_CHUNK for (z, _, _), _ in residues)
    assert any(len(z) == thetas._ROW_CHUNK for (z, _, _), _ in residues)
    assert values() == want


# -- one table of family values per suite entry ---------------------------------


def _radius(fam, lam_y):
    """The radius a family gets at a W with lam_min(Y) = lam_y (see
    thetas._theta_batch), computed here from its parts."""
    lam_p = float(np.linalg.eigvalsh(fam.P.embed())[0])
    decay = math.pi * thetas._snap(lam_y) * thetas._snap(lam_p)
    return thetas.choose_radius(fam.params.eps, decay, len(fam.basis) * fam.g * fam.P.rows,
                                offset_norm=fam.floats.offset_norm,
                                max_radius=fam.params.max_radius)


def test_table_serves_a_family_read_at_eps_and_at_eps_over_h(monkeypatch):
    # the first column of diag(1, 3) is a leaf at eps/2, and the theta of
    # that column alone the same family at eps.  eps reaches the values
    # only through the radius: at Im W = 1 both get radius 4, the values
    # are equal bit for bit and the second read is served from the table;
    # at Im W = 1.13 they get 3 and 4, and each is evaluated
    field = FieldId(1)
    P = KMatrix([[field.from_rational(1), field.zero()],
                 [field.zero(), field.from_rational(3)]])
    column, _ = thetas._lower(field, P, [[Fraction(1, 3), Fraction(1, 5)]],
                              [[Fraction(1, 2), 0]], ThetaParams())
    (alone,) = thetas._lower(field, [[1]], [[Fraction(1, 3)]], [[Fraction(1, 2)]],
                             ThetaParams())
    assert column.params.eps == alone.params.eps / 2
    assert column.value_key == alone.value_key
    calls = _batch_calls(monkeypatch)
    for im, radii in ((1.0, [4, 4]), (1.13, [3, 4])):
        at = thetas._at(np.array([[0.2 + 1j * im]]))
        assert [_radius(fam, at.lam_y) for fam in (alone, column)] == radii
        served = radii[0] == radii[1]
        want = [thetas._theta_batch((fam,), at.w, at.lam_y) for fam in (alone, column)]
        assert (want[0] == want[1]) is served
        del calls[:]
        cache = ThetaCache()
        assert [thetas._theta_batch((fam,), at.w, at.lam_y, cache)
                for fam in (alone, column)] == want
        assert calls == [1] * (2 - served)
        assert (cache.hits, cache.misses) == (served, 2 - served)


def test_suite_entry_evaluates_each_distinct_family_once(monkeypatch):
    # prop_half_general at d = 1: the relation reads the columns of its
    # diagonal P at eps/2, the printed statement the same families at eps,
    # at the same sample W.  The families the kernel enumerates are the
    # distinct (W, family, radius) keys, half of the families read
    batches = []
    inner = thetas._theta_batch

    def recording(families, W, lam_y, cache=None):
        batches.append((families, W, lam_y))
        return inner(families, W, lam_y, cache)

    monkeypatch.setattr(thetas, "_theta_batch", recording)
    calls = _batch_calls(monkeypatch)
    rows, _, _ = presets._run_one_preset(("prop_half_general", {"d": 1}), ThetaParams())
    assert len(rows) == 6 and all(row["passed"] for row in rows)
    read = [(W.tobytes(), fam.value_key, _radius(fam, lam_y))
            for families, W, lam_y in batches for fam in families]
    assert sum(calls) == len(set(read)) == len(read) // 2 == 30


def test_evaluations_without_a_table_evaluate_every_family(monkeypatch):
    # evaluate_relation and IdentityCheck.evaluate hand the kernel no table
    # unless one is given, and keep no values between calls: each call
    # enumerates every family of its plan, and gives the same report
    preset = make_preset("prop_half_general", d=1)
    (check,) = preset.identity_checks
    args = []
    inner = thetas._theta_batch
    monkeypatch.setattr(thetas, "_theta_batch",
                        lambda *a: args.append(len(a)) or inner(*a))
    calls = _batch_calls(monkeypatch)
    W = default_W_samples(1)[0]
    owners = [(lambda W: evaluate_relation(preset.relation, W), preset.relation._plans),
              (check.evaluate, check._plans)]
    for evaluate, plans in owners:
        reports = []
        for _ in range(2):
            del calls[:]
            reports.append(evaluate(W))
            (plan,) = plans.values()
            assert sum(calls) == len(plan.families)
        assert reports[0] == reports[1]
    assert set(args) == {3}


def test_over_budget_leaf_in_a_batch_raises(monkeypatch):
    families = _group(1, 1, 2, 10, seed=3)
    W = _W(1)
    lam_y = thetas._at(W).lam_y
    want = _one_by_one(families, W, lam_y)
    points = [v.lattice_points_used for v in want]
    worst = max(range(len(points)), key=points.__getitem__)
    assert sorted(points)[-2] < points[worst]
    monkeypatch.setattr(thetas, "_MAX_POINTS", points[worst] - 1)
    calls = _batch_calls(monkeypatch)
    with pytest.raises(TruncationError, match=f"exceeds max_points={points[worst] - 1}: "
                       f"{points[worst]} points after 4 of 4 coordinates"):
        thetas._theta_batch(families, W, lam_y)
    assert calls == [len(families)] == [10]
    for leaf, v in zip(_leaves(families), want):  # the others stay within the budget
        if v is not want[worst]:
            assert thetas._theta_dense(leaf, W, lam_y) == v


def test_failing_batch_raises_at_the_first_failing_factor(monkeypatch):
    # the batch of the 1x2 leaves runs before the term loop and goes over
    # budget, but a factor ahead of them in term order does not match W:
    # the plan raises what one public call per factor raises first
    field = FieldId(2)
    params = ThetaParams(eps=1e-9)
    P = KMatrix.from_rational_rows([[2, 1], [1, 2]], field)
    wide = ThetaFactor(KMatrix.zeros(2, 2, field), KMatrix.zeros(2, 2, field), P)
    fine = [ThetaFactor(_mat(field, 1, 2, k), _mat(field, 1, 2, k + 1), P)
            for k in range(4)]
    sides = (tuple(Term(Fraction(0), Fraction(1), (f,)) for f in [wide] + fine),)
    plan = _lower_terms(params, tuple(map(compile_terms, sides)))
    W = [[0.1 + 1.3j]]
    points = max(theta_general(field, W, f.p, f.a, f.b, params).lattice_points_used
                 for f in fine)
    monkeypatch.setattr(thetas, "_MAX_POINTS", points - 1)
    with pytest.raises(TruncationError):
        thetas._theta_batch(_group_families(plan)[1], thetas._at(np.array(W)).w,
                            thetas._at(np.array(W)).lam_y)
    with pytest.raises(DomainError) as want:
        _naive(sides, W, params, ThetaCache())
    batches = []
    inner = thetas._theta_batch
    monkeypatch.setattr(thetas, "_theta_batch", lambda *a: batches.append(a) or inner(*a))
    with pytest.raises(DomainError) as got:
        _sum_terms(plan, W)
    assert str(got.value) == str(want.value) == "W must be 2x2 to match A0, got (1, 1)"
    assert batches == []  # every group's g is checked before any batch


def test_the_first_failing_group_raises(monkeypatch):
    # both groups fail at W: the first goes over budget in its batch, the
    # second has a P that is not positive definite.  The plan raises the
    # first group's error and never runs the second batch, though one
    # public call per factor, in term order, fails first on the second
    field = FieldId(2)
    params = ThetaParams(eps=1e-9)
    P = KMatrix.from_rational_rows([[2, 1], [1, 2]], field)
    not_pd = KMatrix.from_rational_rows([[1, 2], [2, 1]], field)
    W = [[0.1 + 1.3j]]
    fine = [ThetaFactor(_mat(field, 1, 2, k), _mat(field, 1, 2, k + 1), P) for k in range(4)]
    points = [theta_general(field, W, f.p, f.a, f.b, params).lattice_points_used for f in fine]
    order = sorted(range(len(fine)), key=points.__getitem__)
    assert points[order[0]] < max(points)  # the first term stays within the budget alone
    bad = ThetaFactor(_mat(field, 1, 2, 0), _mat(field, 1, 2, 1), not_pd)
    factors = [fine[order[0]], bad, *(fine[k] for k in order[1:])]
    sides = (tuple(Term(Fraction(0), Fraction(1), (f,)) for f in factors),)
    plan = _lower_terms(params, tuple(map(compile_terms, sides)))
    assert len(plan.groups) == 2
    monkeypatch.setattr(thetas, "_MAX_POINTS", max(points) - 1)
    at = thetas._at(np.array(W))
    first, second = _group_families(plan)
    with pytest.raises(TruncationError) as want:
        thetas._theta_batch(first, at.w, at.lam_y)
    with pytest.raises(DomainError, match="P must be positive definite, lam_min=-1"):
        thetas._theta_batch(second, at.w, at.lam_y)
    with pytest.raises(DomainError, match="P must be positive definite"):
        _naive(sides, W, params, ThetaCache())
    batches = []
    inner = thetas._theta_batch
    monkeypatch.setattr(thetas, "_theta_batch", lambda *a: batches.append(a[0]) or inner(*a))
    with pytest.raises(TruncationError) as got:
        _sum_terms(plan, W)
    assert str(got.value) == str(want.value)
    assert batches == [first]


def _decomposition_cases():
    field = FieldId(3)
    A0 = KMatrix.from_rational_rows([[Fraction(1, 3), Fraction(-1, 4)]], field)
    B0 = KMatrix.from_rational_rows([[Fraction(1, 5), Fraction(1, 2)]], field)
    yield field, KMatrix.from_rational_rows([[2, -1], [-1, 2]], field), A0, B0
    yield field, KMatrix.from_rational_rows([[3, 1], [1, 2]], field), A0, B0
    yield (field, KMatrix.from_rational_rows([[Fraction(5, 2)]], field),
           A0.column(0), B0.column(0))


@pytest.mark.parametrize("case", range(3))
def test_shared_cache_counts_match_public_calls(case):
    # a decomposition's plan gives the values of one public call per
    # monomial factor, and the evaluation and hit counts of those calls on
    # one cache; the direct theta is the same public call either way
    field, P, A0, B0 = list(_decomposition_cases())[case]
    params = ThetaParams(eps=1e-11)
    W = [[0.15 + 1.2j]]
    dec = decompose_rational_P(field, 1, P, A0, B0)
    poly = dec.evaluate(W, params)
    (got_poly,), evals, hits = _sum_terms(
        _lower_terms(params, (compile_terms(monomials(dec)),)), W)
    direct = theta_general(field, W, P, A0, B0, params)
    naive_cache = ThetaCache()
    (want_poly,) = _naive((monomials(dec),), W, params, naive_cache)
    assert (evals, hits) == (naive_cache.misses, naive_cache.hits)
    assert hits > 0 or len(monomials(dec)) == 1  # a 1x1 P is one monomial
    want_direct = theta_general(field, W, P, A0, B0, params, naive_cache)
    assert poly == got_poly == want_poly
    assert direct == want_direct


# -- decompositions compiled to leaves ------------------------------------------


def _decomposition_input(d, g, h):
    """(field, g, P, A0, B0) with characteristics off the lattice: h = 2
    has one Schur level, h = 3 two (both with groups > 1 at g = 1; the
    second is trivial at g = 2, which keeps the expansion small)."""
    field = FieldId(d)
    rows = {2: [[2, -1], [-1, 2]],
            3: ([[3, Fraction(3, 2), 0], [Fraction(3, 2), 2, 1], [0, 1, 2]] if g == 1
                else [[3, 1, 1], [1, 2, 0], [1, 0, 2]])}[h]
    P = KMatrix.from_rational_rows(rows, field)
    A0 = KMatrix([[field.element(Fraction(1 + i, 3 + j), Fraction(j - i, 4)) for j in range(h)]
                  for i in range(g)])
    B0 = KMatrix([[field.element(Fraction(i - j, 5), Fraction(1, 2 + i + j)) for j in range(h)]
                  for i in range(g)])
    return field, g, P, A0, B0


def _reference_monomials(field, g, P, A0, B0):
    """The expansion as Terms through KMatrix and Fraction arithmetic, with
    the characteristics unreduced: at each Schur level, Theta^P[A; B] is
    1/#G2 times the sum over b in G2 and a in G1 of
    exp(-2 pi i Re Tr((A K^t)^H c b)) times the leading column's theta
    and the rest at (A K^t + a, B K^-1 + c b)."""
    dual = dual_generator(field)
    levels, cur = [], P
    while cur.rows > 1:
        lam, cur, K = relations._schur_split(cur)
        levels.append((KMatrix([[field.from_rational(lam)]]), K.transpose(), K.inverse(),
                       shift_group(g, K).representatives,
                       [b.scale(dual) for b in character_group(g, K).representatives]))
    last = KMatrix([[cur[(0, 0)]]])
    terms = []

    def recurse(level, A, B, q, scale, factors):
        if level == len(levels):
            terms.append(Term(q - math.floor(q), scale,
                              factors + (ThetaFactor(A, B, last),)))
            return
        p, k_t, M, a_reps, b_duals = levels[level]
        a_thm, b_thm = A @ k_t, B @ M
        for b in b_duals:
            q_b = q + re_trace_of_product(a_thm, b)
            b_char = b_thm + b
            for a in a_reps:
                a_char = a_thm + a
                recurse(level + 1, a_char.columns(1), b_char.columns(1), q_b,
                        scale / len(b_duals),
                        factors + (ThetaFactor(a_char.column(0), b_char.column(0), p),))

    recurse(0, A0, B0, Fraction(0), Fraction(1), ())
    return tuple(terms)


def _leaf_keys(plan, side=0):
    """Per term of the side, the keys of each factor's leaves."""
    return [[[plan_leaf(plan, j).key for j in plan_factor(plan, i)] for i in idx]
            for _, idx in plan.sides[side]]


def _group_keys(plan):
    return [[leaf.key for leaf in _leaves(group)] for group in _group_families(plan)]


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("h", [2, 3])
def test_compiled_plan_matches_lowered_monomials(d, g, h):
    # the plan a decomposition compiles from its leaf table is the plan of
    # its monomials, and of the expansion through KMatrix arithmetic, each
    # factor keyed from its matrices (thetas._leaf_keys): the same
    # coefficients, the same leaves per term, the same groups and the same
    # values bit for bit
    args = _decomposition_input(d, g, h)
    dec = decompose_rational_P(*args)
    params = ThetaParams(eps=1e-9)
    compiled = _lower_terms(params, (dec.expansion,))
    W = _W(g)
    for terms in (monomials(dec), _reference_monomials(*args)):
        lowered = _lower_terms(params, (compile_terms(terms),))
        assert [c for c, _ in compiled.sides[0]] == [c for c, _ in lowered.sides[0]]
        assert _leaf_keys(compiled) == _leaf_keys(lowered)
        assert _group_keys(compiled) == _group_keys(lowered)
        assert _sum_terms(compiled, W) == _sum_terms(lowered, W)
    assert _leaf_count(dec.expansion) == sum(
        len(_leaves(group)) for group in _group_families(compiled))
    assert len({c for c, _ in compiled.sides[0]}) > 1


def _random_relation(d, g, h, diagonal, seed):
    """A relation with random T, A0 and B0 and 2 to 48 terms; P is diagonal
    with entries in 1..3, or h + 1 on the diagonal and 1 elsewhere."""
    rng = random.Random(seed)
    field = FieldId(d)

    def entry(den):
        return field.element(Fraction(rng.randint(-3, 3), den),
                             Fraction(rng.randint(-2, 2), den))

    P = KMatrix.from_rational_rows(
        [[(rng.randint(1, 3) if diagonal else h + 1) if i == j else int(not diagonal)
          for j in range(h)] for i in range(h)], field)
    while True:
        T = KMatrix([[entry(rng.choice((1, 2))) for _ in range(h)] for _ in range(h)])
        A0, B0 = (KMatrix([[entry(rng.randint(2, 5)) for _ in range(h)] for _ in range(g)])
                  for _ in range(2))
        if T.det().is_zero():
            continue
        try:
            inst = build_relation(RelationSpec(field, g, T, P, A0, B0), max_order=48)
        except GroupCapError:
            continue
        if 2 <= inst.G1.order * inst.G2.order <= 48:
            return inst


@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("g", [1, 2])
@pytest.mark.parametrize("diagonal", [True, False])
def test_compiled_relation_matches_lowered_terms(d, g, diagonal):
    # the plan of a relation's compiled sides is the plan of its Terms, each
    # factor keyed from its matrices (thetas._leaf_keys): the same
    # coefficients, the same leaves per factor, the same groups and the
    # same values bit for bit.  build_relation and _sum share one emitter,
    # so the right side is, field for field, the sum its Terms compile to,
    # each distinct part of P once (most diagonal draws repeat an entry)
    inst = _random_relation(d, g, 3 if g == 1 else 2, diagonal, seed=10 * d + g)
    assert (inst.rhs.factor_leaves > 1) == diagonal
    assert inst.rhs == compile_terms(rhs_terms(inst))
    params = ThetaParams(eps=1e-6)
    compiled = _lower_terms(params, (inst.lhs, inst.rhs))
    lowered = _lower_terms(params, (compile_terms(lhs_terms(inst)), compile_terms(rhs_terms(inst))))
    for side, (got, want) in enumerate(zip(compiled.sides, lowered.sides)):
        assert [c for c, _ in got] == [c for c, _ in want]
        assert _leaf_keys(compiled, side) == _leaf_keys(lowered, side)
    assert _group_keys(compiled) == _group_keys(lowered)
    assert _sum_terms(compiled, _W(g)) == _sum_terms(lowered, _W(g))


def test_decomposition_interns_each_pivot_once():
    # repeated Schur pivots share one part of P
    field = FieldId(1)
    zero = KMatrix.zeros(1, 3, field)
    dec = decompose_rational_P(field, 1, KMatrix.identity(3, field).scale(2), zero, zero)
    assert dec.lambdas == (2, 2, 2)
    assert [p for p, _ in dec.expansion.ps] == [KMatrix([[field.from_rational(2)]])]


def _lower_and_family_calls(monkeypatch):
    """The argument lists of every thetas._lower call and of every
    thetas._Family built."""
    lowered, families = [], []
    inner = thetas._lower
    monkeypatch.setattr(thetas, "_lower", lambda *args: lowered.append(args) or inner(*args))

    class Counted(thetas._Family):
        def __init__(self, *args, **kwargs):
            families.append(args)
            super().__init__(*args, **kwargs)

    for module in (thetas, relations):
        monkeypatch.setattr(module, "_Family", Counted)
    return lowered, families


def _distinct_leaves(plan):
    return {leaf.key for leaf in _leaves(plan.families)}


def _leaf_count(side):
    """The leaves of a compiled side."""
    return sum(len(ids) for *_, ids in side.families)


def test_decomposition_lowers_no_factor(monkeypatch):
    # evaluating a fresh decomposition builds one record per family of its
    # distinct leaves, and lowers no factor
    lowered, families = _lower_and_family_calls(monkeypatch)
    dec = decompose_rational_P(*_decomposition_input(3, 1, 3))
    assert (lowered, families) == ([], [])
    dec.evaluate(_W(1), ThetaParams(eps=1e-9))
    (plan,) = dec._plans.values()
    assert lowered == []
    assert len(families) == len(plan.families) == len(dec.expansion.families)
    distinct = _distinct_leaves(plan)
    assert plan.starts[-1] == len(distinct) == _leaf_count(dec.expansion) > len(
        dec.expansion.families)
    assert sum(len(ops) for _, ops in plan.sides[0]) > len(distinct)


def test_relation_lowers_no_factor(monkeypatch):
    # evaluating a fresh relation lowers no factor: it builds one record per
    # family of its compiled sides, the left one a row of one leaf
    lowered, families = _lower_and_family_calls(monkeypatch)
    inst = _random_relation(3, 1, 3, True, seed=5)
    evaluate_relation(inst, _W(1), ThetaParams(eps=1e-6))
    (plan,) = inst._plans.values()
    assert lowered == []
    assert _leaf_count(inst.lhs) == len(inst.lhs.families) == 1
    assert len(families) == len(inst.rhs.families) + 1 == len(plan.families)
    assert plan.starts[-1] == _leaf_count(inst.rhs) + 1 == len(_distinct_leaves(plan))
    assert [len(plan_factor(plan, i)) for _, idx in plan.sides[1] for i in idx] == [
        inst.rhs.factor_leaves] * len(inst.rhs.rows)


def test_lowering_builds_one_record_per_family(monkeypatch):
    # a decomposition and a relation's right side are lowered family by
    # family: one thetas._Family per family of their leaves and no record
    # per leaf; the families' phase data is built once per plan, not once
    # per W
    assert not hasattr(thetas, "_Leaf") and not hasattr(thetas, "_LeafKey")
    lowered, families = _lower_and_family_calls(monkeypatch)
    params = ThetaParams(eps=1e-9)
    dec = decompose_rational_P(*_decomposition_input(3, 1, 3))
    inst = _random_relation(1, 1, 3, True, seed=0)
    for side in (dec.expansion, inst.rhs):
        del families[:]
        plan = _lower_terms(params, (side,))
        assert len(families) == len(plan.families) == len(side.families)
        assert plan.starts[-1] == _leaf_count(side) > len(side.families)
    assert lowered == []
    made = []
    inner = thetas._FamilyPhases
    monkeypatch.setattr(thetas, "_FamilyPhases", lambda *a: made.append(a) or inner(*a))
    plan = _lower_terms(params, (dec.expansion,))
    first = _sum_terms(plan, _W(1))
    assert len(made) == len(plan.families)
    _sum_terms(plan, [[0.3 + 1.7j]])
    assert _sum_terms(plan, _W(1)) == first
    assert len(made) == len(plan.families)


def test_suite_lowers_no_factor(monkeypatch):
    # every side of the suite, relation or identity check, is compiled to
    # integer leaves: no plan lowers a factor
    def refuse(*args):
        raise AssertionError("a factor was lowered")

    monkeypatch.setattr(thetas, "_lower", refuse)
    result = run_paper_suite()
    assert len(result.reports) == 138 and result.all_passed


def test_plan_reads_leaves_by_index(monkeypatch):
    # every compiled side (a decomposition, a relation's two sides, an
    # identity check's) goes into the leaf table as the integers it was
    # compiled to: lowering it constructs and hashes no KMatrix.  The term
    # loop multiplies table entries by index,
    # without the one-factor reader _leaves_value, and counts the
    # evaluations and hits that reading each factor through one cache gave
    inst = _random_relation(1, 1, 3, True, seed=0)
    dec = decompose_rational_P(*_decomposition_input(3, 1, 3))
    (check,) = make_preset("jacobi_identity").identity_checks
    lhs = inst.lhs
    params = ThetaParams(eps=1e-9)
    made, hashed = [], []
    init, of, hash_ = KMatrix.__init__, KMatrix._of.__func__, KMatrix.__hash__
    with monkeypatch.context() as m:
        m.setattr(KMatrix, "__init__", lambda self, *a: made.append(a) or init(self, *a))
        m.setattr(KMatrix, "_of", classmethod(lambda cls, *a: made.append(a) or of(cls, *a)))
        m.setattr(KMatrix, "__hash__", lambda self: hashed.append(self) or hash_(self))
        for side in (dec.expansion, inst.rhs, lhs, check.lhs, check.rhs):
            assert _lower_terms(params, (side,)).starts[-1] == _leaf_count(side)
        assert (made, hashed) == ([], [])
        thetas._lower(FieldId(1), [[1]], [[0]], [[0]], params)  # the probes see lowering
        assert made and hashed

    assert not hasattr(thetas, "_table_value")
    read = []
    inner = thetas._leaves_value
    monkeypatch.setattr(thetas, "_leaves_value", lambda *a: read.append(a) or inner(*a))
    cases = [((lhs, inst.rhs), (13, 84)), ((dec.expansion,), (49, 719)),
             ((check.lhs, check.rhs), (3, 9))]
    for sides, counts in cases:
        plan = _lower_terms(params, sides)
        _, evals, hits = _sum_terms(plan, _W(1))
        assert (evals, hits) == counts
        assert evals == plan.starts[-1]
        assert evals + hits == plan.reads == sum(
            len(plan_factor(plan, i)) for side in plan.sides for _, idx in side for i in idx)
    assert read == []
    theta_general(FieldId(1), _W(1), [[1]], [[0]], [[0]])  # the probe sees a public call
    assert len(read) == 1
    # the relation's diagonal P makes each of its terms a product of columns
    assert len(_lower_terms(params, (inst.rhs,)).products) == len(inst.rhs.rows)


# -- recorded outputs of the relation and decomposition plans -------------------


_PLAN_GOLDEN = json.loads((Path(__file__).parent / "data" / "plan_golden.json").read_text())


@pytest.mark.parametrize("k", range(len(_PLAN_GOLDEN["relations"])))
def test_recorded_relation_is_unchanged(k):
    # the 19 relations of the criterion-4 draws (the random_relations
    # benchmark's), each at its recorded W: both sides bit for bit and the
    # evaluation and hit counts
    unit = _PLAN_GOLDEN["relations"][k]
    W = np.array([[complex(re, im) for re, im in row] for row in unit["W"]])
    rep = evaluate_relation(build_relation(RelationSpec.from_json(unit["spec"])), W,
                            ThetaParams(eps=unit["eps"]))
    assert [rep.lhs.real.hex(), rep.lhs.imag.hex()] == unit["lhs"]
    assert [rep.rhs.real.hex(), rep.rhs.imag.hex()] == unit["rhs"]
    assert (rep.theta_evals, rep.cache_hits) == (unit["theta_evals"], unit["cache_hits"])


@pytest.mark.parametrize("k", range(len(_PLAN_GOLDEN["decompose"])))
def test_recorded_decomposition_output_is_unchanged(capsys, k):
    # the 10 criterion-7 draws (the decompose benchmark's) through the CLI:
    # stdout byte for byte
    unit = _PLAN_GOLDEN["decompose"][k]
    assert main(unit["argv"]) == 0
    assert capsys.readouterr().out == unit["stdout"]


# the relation of plan_golden.json with the largest family (80,907 points)
_LARGEST_RELATION = 13
_RELATION_HEX = """
import json, sys
import numpy as np
from iqtheta import RelationSpec, ThetaParams, build_relation, evaluate_relation
unit = json.load(sys.stdin)
W = np.array([[complex(re, im) for re, im in row] for row in unit["W"]])
rep = evaluate_relation(build_relation(RelationSpec.from_json(unit["spec"])), W,
                        ThetaParams(eps=unit["eps"]))
print(json.dumps([[x.real.hex(), x.imag.hex()] for x in (rep.lhs, rep.rhs)]))
"""


def test_recorded_outputs_at_one_blas_thread():
    # the benchmark runs OpenBLAS on one thread, the tests on its default:
    # the largest relation and the 2x2 decomposition give the recorded bits
    # on one thread too
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"),
               OPENBLAS_NUM_THREADS="1")
    unit = _PLAN_GOLDEN["relations"][_LARGEST_RELATION]
    proc = subprocess.run([sys.executable, "-c", _RELATION_HEX], input=json.dumps(unit),
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [unit["lhs"], unit["rhs"]]
    golden = json.loads((Path(__file__).parent / "data" / "decompose_golden.json").read_text())
    proc = subprocess.run(
        [sys.executable, "-m", "iqtheta", "decompose", "--spec", json.dumps(golden["specs"]["g2_h2"]),
         "--W", json.dumps(golden["W"]["g2_h2"])],
        capture_output=True, text=True, timeout=120, env=env)
    assert (proc.returncode, proc.stdout) == (0, golden["stdout"]["g2_h2"])
