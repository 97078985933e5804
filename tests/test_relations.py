"""Relation assembly, evaluation, corruption controls, and P decomposition."""

import hashlib
import json
import math
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from iqtheta import (
    DEFAULT_SUITE_PLAN,
    DomainError,
    FieldId,
    GroupCapError,
    KMatrix,
    RelationSpec,
    ThetaParams,
    build_relation,
    decompose_rational_P,
    default_W_samples,
    evaluate_relation,
    make_preset,
    theta_general,
)
from iqtheta.kfield import hat, re_trace_of_product
from iqtheta.lattices import character_group, coords_to_kmatrix, shift_group
from iqtheta.relations import (
    VerificationReport,
    _lower_terms,
    _sum_terms,
)

from _helpers import (
    RelationTerm,
    Term,
    ThetaFactor,
    compile_terms,
    lhs_terms,
    monomials,
    plan_factor,
    plan_leaf,
    relation_terms,
    rhs_terms,
)


def _cubic_spec():
    field = FieldId(3)
    one = field.one()
    w1 = field.delta() - one
    w2 = w1 * w1
    T = KMatrix([[one, one, one], [one, w1, w2], [one, w2, w1]]).scale(
        Fraction(1, 3)
    )
    P = KMatrix.identity(3, field).scale(Fraction(3))
    A0 = KMatrix(
        [[field.element(Fraction(1, 2)), field.element(Fraction(1, 3)),
          field.element(0, Fraction(1, 2))]]
    )
    B0 = KMatrix(
        [[field.element(Fraction(1, 5)), field.zero(), field.element(Fraction(1, 4))]]
    )
    return RelationSpec(field=field, g=1, T=T, P=P, A0=A0, B0=B0, name="cubic")


def _matsumoto_spec():
    field = FieldId(1)
    one = field.one()
    i_ = field.delta()
    c = (one - i_) * Fraction(1, 2)
    T = KMatrix([[c, c], [c, -c]])
    P = KMatrix.identity(2, field)
    A0 = KMatrix([[field.element(Fraction(1, 3)), field.element(Fraction(1, 4))]])
    B0 = KMatrix([[field.element(Fraction(1, 5)), field.element(Fraction(1, 7))]])
    return RelationSpec(field=field, g=1, T=T, P=P, A0=A0, B0=B0)


def test_cubic_build_exact_data():
    inst = build_relation(_cubic_spec())
    field = inst.spec.field
    assert inst.Q == KMatrix.identity(3, field)
    assert inst.G1.order == 27
    assert list(inst.G1.invariant_factors) == [3, 3, 3]
    assert inst.G2.is_trivial()
    assert len(relation_terms(inst)) == 27
    assert inst.scale == Fraction(1)
    meta = inst.group_metadata()
    assert meta == {
        "G1_order": 27,
        "G1_invariant_factors": [3, 3, 3],
        "G2_order": 1,
        "G2_invariant_factors": [],
        "term_count": 27,
    }


def test_phases_vanish_with_trivial_G2():
    inst = build_relation(_cubic_spec())
    # only b = 0 contributes, so every coefficient is exp(0)
    assert all(t.phase_q == 0 for t in relation_terms(inst))
    assert all(t.b_shift.is_zero() for t in relation_terms(inst))


def test_cubic_relation_verifies():
    inst = build_relation(_cubic_spec())
    rep = evaluate_relation(inst, [[1.1j]])
    assert rep.passed, rep.residual_rel
    assert rep.residual_rel < 1e-9
    assert rep.term_count == 27
    assert rep.theta_evals > 0


def test_matsumoto_relation_verifies():
    inst = build_relation(_matsumoto_spec())
    assert inst.G1.order == 2
    assert inst.G2.order == 2
    rep = evaluate_relation(inst, [[0.2 + 1.0j]])
    assert rep.passed, rep.residual_rel
    assert rep.residual_rel < 1e-10


def test_rhs_independent_of_coset_representatives():
    # shifting every G1 rep by an integral element of the image lattice and
    # every G2 rep by an integral element of Lambda T^-1 must leave the sum
    spec = _matsumoto_spec()
    inst = build_relation(spec)
    shift = KMatrix(
        [[spec.field.one(), spec.field.one()]]
    )  # (1,1) lies in both intersection lattices for this T
    terms = []
    for t in relation_terms(inst):
        a2 = t.a_shift + shift
        b2 = t.b_shift + shift
        bh = hat(b2)
        q = re_trace_of_product(spec.A0, bh)
        q -= math.floor(q)
        terms.append(
            RelationTerm(
                a_shift=a2,
                b_shift=b2,
                a_char=spec.A0 + a2,
                b_char=spec.B0 + bh,
                phase_q=q,
            )
        )
    # the moved terms as a Term sum, each factor keyed from its matrices
    moved = tuple(
        Term(t.phase_q, Fraction(1), (ThetaFactor(t.a_char, t.b_char, spec.P),))
        for t in terms
    )
    W = [[0.15 + 0.95j]]
    r1 = evaluate_relation(inst, W)
    (moved_sum,), _, _ = _sum_terms(_lower_terms(ThetaParams(), (compile_terms(moved),)), W)
    r2 = VerificationReport.compare(
        r1.lhs, float(inst.scale) * moved_sum, len(moved), 0, 0, ThetaParams().eps
    )
    assert r2.rhs == pytest.approx(r1.rhs, abs=1e-11)
    assert r1.passed and r2.passed


def test_corruption_controls_fail_loudly():
    inst = build_relation(_cubic_spec())
    W = [[1.1j]]
    clean = evaluate_relation(inst, W)
    assert clean.passed
    broken_phase = evaluate_relation(inst, W, corrupt="phase")
    assert not broken_phase.passed
    assert broken_phase.residual_rel > 1e-3
    broken_drop = evaluate_relation(inst, W, corrupt="drop")
    assert not broken_drop.passed
    assert broken_drop.residual_rel > 1e-3
    with pytest.raises(ValueError, match="corruption"):
        evaluate_relation(inst, W, corrupt="bogus")


@pytest.mark.parametrize("mode", ["phase", "drop"])
def test_corruption_matches_the_corrupted_terms(mode):
    # the corrupted compiled side is the Term sum with the first term's
    # phase moved by 1/3, or without that term, to the bit
    inst = build_relation(_matsumoto_spec())
    W = [[0.15 + 0.95j]]
    terms = rhs_terms(inst)
    if mode == "phase":
        terms = (replace(terms[0], coeff_q=terms[0].coeff_q + Fraction(1, 3)),) + terms[1:]
    else:
        terms = terms[1:]
    sides = (compile_terms(lhs_terms(inst)), compile_terms(terms))
    (lhs, rhs_sum), _, _ = _sum_terms(_lower_terms(ThetaParams(), sides), W)
    rep = evaluate_relation(inst, W, corrupt=mode)
    assert (rep.lhs, rep.rhs) == (lhs, float(inst.scale) * rhs_sum)
    assert rep.term_count == 4 and not rep.passed


def test_build_and_evaluate_make_no_terms():
    # the right side is compiled: building, evaluating and the metadata
    # build no KMatrix representative of either group, and the terms of
    # the reference built from the representatives match it
    for spec in (_cubic_spec(), _matsumoto_spec()):
        inst = build_relation(spec)
        rep = evaluate_relation(inst, [[0.1 + 1.05j]])
        evaluate_relation(inst, [[0.1 + 1.05j]], corrupt="phase")
        meta = inst.group_metadata()
        assert "representatives" not in inst.G1.__dict__
        assert "representatives" not in inst.G2.__dict__
        terms = relation_terms(inst)
        assert rep.term_count == meta["term_count"] == len(terms)
        assert len(inst.rhs.rows) == len(rhs_terms(inst)) == len(terms)
        assert [Fraction(q, inst.rhs.q_den) for q, _ in inst.rhs.rows] == [
            t.phase_q for t in terms]


def test_build_caps_the_term_count():
    # T = 13/11: the groups have 121 and 169 elements, each under a cap of
    # 1000, but the right side has 121 * 169 = 20,449 terms
    field = FieldId(1)
    T = KMatrix([[field.element(Fraction(13, 11))]])
    spec = RelationSpec(field, 1, T, KMatrix.identity(1, field),
                        KMatrix.zeros(1, 1, field), KMatrix.zeros(1, 1, field))
    assert sorted((shift_group(1, T, 1000).order, character_group(1, T, 1000).order)) == [121, 169]
    with pytest.raises(GroupCapError, match="the relation has 20449 terms, over the cap 1000"):
        build_relation(spec, max_order=1000)
    assert len(build_relation(spec, max_order=20449).rhs.rows) == 20449


@pytest.mark.parametrize("cap", [0, -5])
def test_build_refuses_a_cap_below_one(cap):
    # a cap below 1 is refused by name before any group is built, and
    # math.inf caps nothing
    field = FieldId(1)
    T = KMatrix([[field.element(Fraction(1, 2))]])
    zero = KMatrix.zeros(1, 1, field)
    spec = RelationSpec(field, 1, T, KMatrix.identity(1, field), zero, zero)
    with pytest.raises(ValueError, match=f"^max_order must be at least 1, got {cap}$"):
        build_relation(spec, max_order=cap)
    assert build_relation(spec, max_order=math.inf).G1.order == 4


_RELATIONS = json.loads(
    (Path(__file__).parent / "data" / "groups_golden.json").read_text())["relations"]


def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


def _terms_digest(inst):
    return _digest([[t.a_char.to_json(), t.b_char.to_json(),
                     [t.phase_q.numerator, t.phase_q.denominator]]
                    for t in relation_terms(inst)])


def _plan_digest(plan):
    # the leaves in batch order (key data, the integer coordinates of A0
    # and B0 as matrices), and per side and term the coefficient's bits and
    # each factor's leaves by position.  Batch order is group by group,
    # each group's leaves in the order the rows first read them
    first: dict = {}
    for side in plan.sides:
        for _, idx in side:
            for i in idx:
                for j in plan_factor(plan, i):
                    first.setdefault(j, len(first))
    group_of = {f: k for k, group in enumerate(plan.groups) for f in group}
    family_of = [f for f, fam in enumerate(plan.families) for _ in fam.bs]
    order = sorted(range(plan.starts[-1]), key=lambda j: (group_of[family_of[j]], first[j]))
    pos = {i: k for k, i in enumerate(order)}
    keys = []
    for i in order:
        leaf = plan_leaf(plan, i)
        d, g, h, _, eps, r, basis = leaf.group
        A, B = (coords_to_kmatrix(*x, g, h, leaf.field).to_json() for x in (leaf.a, leaf.bs[0]))
        keys.append([d, g, h, leaf.P.to_json(), A, B, repr(eps), repr(r), repr(basis)])
    sides = [[[c.real.hex(), c.imag.hex(), [[pos[j] for j in plan_factor(plan, i)] for i in idx]]
              for c, idx in side] for side in plan.sides]
    sizes = [sum(len(plan.families[f].bs) for f in group) for group in plan.groups]
    return _digest([sizes, keys, sides])


def test_suite_relations_are_unchanged():
    # per relation of the suite, the reference terms built from the groups'
    # representatives (a_char, b_char, phase_q, in order) and the plan that
    # evaluation lowers (leaf keys, groups, coefficients) are those that
    # building the terms and lowering them factor by factor gave; making the
    # preset and evaluating build no representative
    params = ThetaParams()
    seen = set()
    for name, kwargs in DEFAULT_SUITE_PLAN:
        preset = make_preset(name, **kwargs)
        inst = preset.relation
        if inst is None:
            continue
        key = ":".join([name] + [f"{k}{v}" for k, v in sorted(kwargs.items())])
        evaluate_relation(inst, default_W_samples(preset.g)[0], params)
        assert "representatives" not in inst.G1.__dict__
        assert "representatives" not in inst.G2.__dict__
        assert _plan_digest(inst._plans[params]) == _RELATIONS[key]["plan"], key
        assert _terms_digest(inst) == _RELATIONS[key]["terms"], key
        seen.add(key)
    assert seen == set(_RELATIONS)


def test_spec_json_roundtrip():
    spec = _cubic_spec()
    blob = json.dumps(spec.to_json())
    back = RelationSpec.from_json(json.loads(blob))
    assert back == spec
    assert back.h == 3


def test_spec_validation_errors():
    field = FieldId(1)
    one = field.one()
    i_ = field.delta()
    T = KMatrix.identity(2, field)
    good_p = KMatrix.identity(2, field)
    bad_p = KMatrix([[one, i_], [field.zero(), one]])
    A0 = KMatrix.zeros(1, 2, field)
    B0 = KMatrix.zeros(1, 2, field)
    with pytest.raises(DomainError, match="Hermitian"):
        RelationSpec(field=field, g=1, T=T, P=bad_p, A0=A0, B0=B0).validate()
    with pytest.raises(DomainError, match="A0"):
        RelationSpec(
            field=field, g=1, T=T, P=good_p, A0=KMatrix.zeros(2, 2, field), B0=B0
        ).validate()
    other = FieldId(2)
    with pytest.raises(DomainError, match="same field"):
        RelationSpec(
            field=field,
            g=1,
            T=T,
            P=good_p,
            A0=KMatrix.zeros(1, 2, other),
            B0=B0,
        ).validate()


def _decompose_g1(rows):
    """decompose_rational_P over Q(i) at g = 1 and zero characteristics."""
    field = FieldId(1)
    z = KMatrix.zeros(1, len(rows), field)
    return decompose_rational_P(field, 1, _rational_mat(field, rows), z, z)


def _non_hermitian_P():
    """P = [[2, i], [i, 2]] over Q(i): P_10 is not conj(P_01)."""
    field = FieldId(1)
    i_ = field.delta()
    z = KMatrix.zeros(1, 2, field)
    P = KMatrix([[field.from_rational(2), i_], [i_, field.from_rational(2)]])
    decompose_rational_P(field, 1, P, z, z)


def _non_square_T():
    field = FieldId(1)
    z = KMatrix.zeros(1, 1, field)
    RelationSpec(field=field, g=1, T=KMatrix.zeros(1, 2, field),
                 P=KMatrix.identity(1, field), A0=z, B0=z).validate()


@pytest.mark.parametrize("call,message", [
    (_non_square_T, "T must be square"),
    (lambda: _decompose_g1([[1, 0]]), "P must be square"),
    (lambda: _decompose_g1([[-1]]), "P is not positive definite: pivot -1 <= 0"),
    # the trailing block [[0]] is singular: its pivot is refused before
    # any division by it
    (lambda: _decompose_g1([[1, 1], [1, 0]]), "P is not positive definite: pivot 0 <= 0"),
    (lambda: _decompose_g1([[2, 1], [0, 2]]), "P must be Hermitian"),
    (_non_hermitian_P, "P must be Hermitian"),
], ids=["T-non-square", "P-non-square", "P-negative", "P-singular-trailing-block",
        "P-not-symmetric", "P-not-Hermitian"])
def test_relation_inputs_are_checked(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def test_singular_T_rejected():
    field = FieldId(1)
    one = field.one()
    T = KMatrix([[one, one], [one, one]])
    spec = RelationSpec(
        field=field,
        g=1,
        T=T,
        P=KMatrix.identity(2, field),
        A0=KMatrix.zeros(1, 2, field),
        B0=KMatrix.zeros(1, 2, field),
    )
    with pytest.raises(DomainError, match="invertible"):
        build_relation(spec)


def _rational_mat(field, rows):
    return KMatrix(
        [[field.from_rational(Fraction(x)) for x in row] for row in rows]
    )


@pytest.mark.parametrize("g", [1, 2])
def test_schur_ladder_tridiagonal_exact(g):
    # the one Schur step has |G1| = |G2| = 4^g, so 16^g monomials in all
    field = FieldId(1)
    P = _rational_mat(field, [[2, -1], [-1, 2]])
    a_rows = [[Fraction(1, 3), Fraction(1, 4)], [Fraction(1, 5), Fraction(1, 6)]]
    b_rows = [[Fraction(1, 5), Fraction(1, 6)], [Fraction(1, 7), Fraction(1, 8)]]
    A0 = _rational_mat(field, a_rows[:g])
    B0 = _rational_mat(field, b_rows[:g])
    dec = decompose_rational_P(field, g, P, A0, B0)
    assert dec.lambdas == (Fraction(3, 2), Fraction(2))
    assert dec.lambda_product() == Fraction(3)
    assert len(monomials(dec)) == 16**g
    W = (
        [[1.05j]]
        if g == 1
        else [[1.05j, 0.1 + 0.05j], [-0.1 + 0.05j, 1.1j]]
    )
    poly = dec.evaluate(W)
    dense = theta_general(field, W, P, A0, B0).value
    assert poly == pytest.approx(dense, abs=1e-11)


def _schur_chain_work(p_rows):
    """(pivot list, estimated monomial count) or None when not PD.

    The expansion multiplies its monomial count by about den(x)^4 per level,
    so huge denominators must be rejected up front to keep runtime bounded.
    """
    cur = sympy.Matrix([[sympy.Rational(x) for x in row] for row in p_rows])
    work = 1
    pivots = []
    while cur.shape[0] > 1:
        h = cur.shape[0]
        p1 = cur[1:, 1:]
        r = cur[0, 1:].T
        if p1.det() == 0:
            return None
        x = p1.LUsolve(r)
        lam = cur[0, 0] - (r.T * x)[0, 0]
        if lam <= 0:
            return None
        pivots.append(Fraction(lam.p, lam.q))
        denom_prod = 1
        for i in range(h - 1):
            denom_prod *= Fraction(x[i]).denominator
        work *= denom_prod**4
        cur = p1
    if cur[0, 0] <= 0:
        return None
    pivots.append(Fraction(cur[0, 0].p, cur[0, 0].q))
    return pivots, work


@pytest.mark.parametrize("d", [1, 2])
def test_decompose_random_P_matches_dense(d):
    # random half-integer PD matrices, rejecting chains whose expansion
    # would be intractably large
    rng = random.Random(1000 + d)
    field = FieldId(d)
    done = 0
    while done < 4:
        h = rng.choice((2, 3))
        p_rows = [[Fraction(0)] * h for _ in range(h)]
        for i in range(h):
            p_rows[i][i] = Fraction(rng.choice((4, 5, 6)), 2)
            for j in range(i):
                off = Fraction(rng.choice((-2, -1, 0, 1, 2)), 2)
                p_rows[i][j] = off
                p_rows[j][i] = off
        chain = _schur_chain_work(p_rows)
        if chain is None or chain[1] > 1024:
            continue
        P = _rational_mat(field, p_rows)
        A0 = KMatrix(
            [[field.element(Fraction(1, 3 + j), Fraction(1, 4 + j))
              for j in range(h)]]
        )
        B0 = KMatrix([[field.element(Fraction(1, 2 + j)) for j in range(h)]])
        dec = decompose_rational_P(field, 1, P, A0, B0)
        det = sympy.Matrix(p_rows).det()
        assert dec.lambda_product() == det
        assert all(lam > 0 for lam in dec.lambdas)
        assert list(chain[0]) == list(dec.lambdas)
        W = [[1.15j]]
        poly = dec.evaluate(W)
        dense = theta_general(field, W, P, A0, B0).value
        assert poly == pytest.approx(dense, abs=1e-9)
        done += 1


def test_decompose_rejects_indefinite_P():
    field = FieldId(1)
    P = _rational_mat(field, [[1, 2], [2, 1]])
    z = KMatrix.zeros(1, 2, field)
    with pytest.raises(DomainError, match="positive definite"):
        decompose_rational_P(field, 1, P, z, z)


def _characteristics(field, h):
    """1 x h characteristics A0 and B0 with delta parts, so that A0 L^H is
    not A0 L^t."""
    A0 = KMatrix([[field.element(Fraction(1, 3), Fraction(1 + j, 4)) for j in range(h)]])
    B0 = KMatrix([[field.element(Fraction(1, 5), Fraction(-j, 3)) for j in range(h)]])
    return A0, B0


def test_decompose_hermitian_P_matches_dense():
    # P = [[2, i], [-i, 2]] = L^H diag(3/2, 2) L with L = [[1, 0], [-i/2, 1]]
    field = FieldId(1)
    i_ = field.delta()
    P = KMatrix([[field.from_rational(2), i_], [i_.conj(), field.from_rational(2)]])
    A0, B0 = _characteristics(field, 2)
    dec = decompose_rational_P(field, 1, P, A0, B0)
    assert dec.lambdas == (Fraction(3, 2), Fraction(2))
    assert field.from_rational(dec.lambda_product()) == P.det()
    W = [[0.05 + 1.15j]]
    dense = theta_general(field, W, P, A0, B0).value
    assert dec.evaluate(W) == pytest.approx(dense, rel=1e-10)


# a unipotent entry below the diagonal: its delta part is never 0
_below = st.builds(lambda a, b, den: (Fraction(a, den), Fraction(b, den)),
                   st.integers(-1, 1), st.sampled_from((-1, 1)), st.sampled_from((1, 2, 3)))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(d=st.sampled_from((1, 2, 3, 7)), data=st.data())
def test_decompose_hermitian_draws_match_dense(d, data):
    # P = M^H diag(lam) M with M unipotent lower triangular over K: the
    # pivots are lam (L = M and D = diag(lam) are unique), their product is
    # det P exactly, and the expansion is the dense theta
    field = FieldId(d)
    h = data.draw(st.integers(2, 3), label="h")
    M = KMatrix([[field.element(*data.draw(_below)) if j < i else field.from_rational(int(i == j))
                  for j in range(h)] for i in range(h)])
    lams = data.draw(st.lists(st.sampled_from((Fraction(1), Fraction(3, 2), Fraction(2), Fraction(3))),
                              min_size=h, max_size=h), label="lambdas")
    P = M.conj_transpose() @ KMatrix([[field.from_rational(lam if i == j else 0)
                                       for j in range(h)] for i, lam in enumerate(lams)]) @ M
    assert not all(x.is_rational() for row in P.entry_rows() for x in row)
    A0, B0 = _characteristics(field, h)
    assume(shift_group(1, M, math.inf).order * character_group(1, M, math.inf).order <= 4096)
    dec = decompose_rational_P(field, 1, P, A0, B0)
    assert dec.lambdas == tuple(lams)
    assert field.from_rational(dec.lambda_product()) == P.det()
    W = [[0.05 + 1.0j]]
    dense = theta_general(field, W, P, A0, B0).value
    assert dec.evaluate(W) == pytest.approx(dense, rel=1e-9)

@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_unipotent_relation_every_field(d):
    # fractional unipotent T gives |G1| = |G2| = 4 over every field; for
    # d > 1 the character shifts must land in the dual lattice, so this
    # pins the dual twist (hat-form shifts fail here with residual ~0.3)
    field = FieldId(d)
    one = field.one()
    zero = field.zero()
    T = KMatrix([[one, zero], [field.element(Fraction(-1, 2)), one]])
    P = KMatrix.identity(2, field).scale(Fraction(2))
    A0 = KMatrix(
        [[field.element(Fraction(1, 3)), field.element(Fraction(1, 4), Fraction(1, 2))]]
    )
    B0 = KMatrix(
        [[field.element(Fraction(1, 5)), field.element(0, Fraction(1, 3))]]
    )
    inst = build_relation(RelationSpec(field=field, g=1, T=T, P=P, A0=A0, B0=B0))
    assert inst.G1.order == 4
    assert inst.G2.order == 4
    rep = evaluate_relation(inst, [[1.05j]])
    assert rep.passed, rep.residual_rel
    assert rep.residual_rel < 1e-10
