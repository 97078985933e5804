"""Term plans: each Term sum is lowered once per owner and ThetaParams, and
evaluating a plan at W gives, bit for bit, the sum of the public theta
calls, with the same cache traffic."""

import gc
import math
import weakref
from fractions import Fraction

import numpy as np
import pytest

from iqtheta import (
    FieldId,
    KMatrix,
    ThetaCache,
    ThetaParams,
    build_relation,
    decompose_rational_P,
    default_W_samples,
    evaluate_relation,
    make_preset,
    riemann_theta_z0,
    theta_check_variant,
    theta_general,
)
from iqtheta import presets, relations
from iqtheta.relations import (
    RelationSpec,
    Term,
    ThetaFactor,
    _lower_terms,
    _phase,
    _sum_terms,
)


def _factor_value(f, W, params, cache):
    if f.kind == "field":
        return theta_general(f.a.field, W, f.p, f.a, f.b, params, cache).value
    w = W * float(f.w_scale)
    if f.kind == "check":
        return theta_check_variant(f.a.field, f.a, f.b, w, params, cache).value
    return riemann_theta_z0(f.a, f.b, w, params).value


def _naive(bare, sides, W, params, cache):
    """The plan's sums, one public call per factor occurrence."""
    values = [_factor_value(f, W, params, cache) for f in bare]
    sums = []
    for side in sides:
        re_parts, im_parts = [], []
        for t in side:
            acc = float(t.coeff_scale) * _phase(t.coeff_q)
            for f in t.factors:
                acc *= _factor_value(f, W, params, cache)
            re_parts.append(acc.real)
            im_parts.append(acc.imag)
        sums.append(complex(math.fsum(re_parts), math.fsum(im_parts)))
    return values, sums


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
    diag2 = ThetaFactor("field", _mat(field, g, 2, 1), _mat(field, g, 2, 2),
                        p=_diag(field, [2, Fraction(5, 2)]))
    diag3 = ThetaFactor("field", _mat(field, g, 3, 3), _mat(field, g, 3, -1),
                        p=_diag(field, [1, 2, Fraction(3, 2)]))
    dense = ThetaFactor("field", _mat(field, g, 2, 0), _mat(field, g, 2, 5), p=dense_p)
    checks = [ThetaFactor("check", _col(field, g, k), _col(field, g, 2 - k), w_scale=s)
              for k, s in enumerate((Fraction(1, 2), Fraction(1), Fraction(2)))]
    riemann = [ThetaFactor("riemann", tuple(Fraction(k, 2) for _ in range(g)),
                           tuple(Fraction(1 - k, 2) for _ in range(g)), w_scale=Fraction(s))
               for k, s in ((0, 1), (1, 2))]
    sides = (
        (
            Term(Fraction(1, 3), Fraction(1), (diag2, diag3)),
            Term(Fraction(0), Fraction(-2, 5), (dense, dense, diag2)),  # repeated
            Term(Fraction(5, 7), Fraction(3), (diag3,)),
        ),
        (
            Term(Fraction(1, 4), Fraction(1), tuple(checks)),
            Term(Fraction(0), Fraction(1, 2), (checks[0], riemann[0], riemann[0])),
            Term(Fraction(2, 3), Fraction(1), (riemann[1], checks[2], dense)),
        ),
    )
    bare = (dense, checks[1], riemann[1])
    plan = _lower_terms(params, sides, bare)
    assert plan.riemann_evals == 4
    cache = ThetaCache()
    got = _sum_terms(plan, W, cache)
    naive_cache = ThetaCache()
    want = _naive(bare, sides, W, params, naive_cache)
    assert got == want  # complex ==: bit for bit
    assert (cache.hits, cache.misses) == (naive_cache.hits, naive_cache.misses)
    assert cache.hits > 0


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
    monkeypatch.setattr(presets, "_lower_terms", counting)
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
