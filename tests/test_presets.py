"""Worked-example catalog: structure, printed-form cross-checks, suite output."""

import itertools
import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from iqtheta import (
    DEFAULT_SUITE_PLAN,
    DomainError,
    FieldId,
    KMatrix,
    PRESET_NAMES,
    RelationSpec,
    bracket_to_characteristic,
    default_W_samples,
    default_omega_samples,
    evaluate_relation,
    make_preset,
    run_paper_suite,
)
from hypothesis import given, settings, strategies as st

from iqtheta.lattices import _int_coords, coords_to_kmatrix, shift_group
from iqtheta.presets import (_compare_classes, _cubic_relation, _default_alpha, _label_classes,
                             _label_coords, _printed_relation)
from iqtheta.relations import _sum
from iqtheta.thetas import _block, _int_key, _leaf_keys

from _helpers import (bracket_column, compile_terms, cubic_display, matsumoto_statement,
                      printed_terms, quartic_display, reduce_mod_integral, relation_terms,
                      row_a0s, side_multiset)


_RELATION_PRESETS = [(name, params) for name, params in DEFAULT_SUITE_PLAN
                     if name not in ("jacobi_identity", "half_formulas", "double_formulas",
                                     "riemann_quad")] + [
    ("matsumoto", {"g": 3}), ("prop_half_general", {"d": 11}),
    ("cartan_Ah", {"h": 2, "d": 2})]


@pytest.mark.parametrize("name,params", _RELATION_PRESETS,
                         ids=[f"{n}-{p}" for n, p in _RELATION_PRESETS])
def test_expected_claims_agree_with_the_computed_groups(name, params):
    # a preset's expected block states the paper's claims beside what was
    # computed: each claim is read against the built relation
    preset = make_preset(name, **params)
    inst, expected = preset.relation, preset.expected
    assert expected["computed_G1_order"] == inst.G1.order
    claims = {"expected_G1_order": inst.G1.order, "expected_G2_order": inst.G2.order}
    for key, order in claims.items():
        if key in expected:
            assert expected[key] == order, key
    if expected.get("expected_G2_trivial"):
        assert inst.G2.order == 1 and inst.G2.is_trivial()
    P = inst.spec.P
    diagonal = [P[(i, i)] for i in range(P.rows)]
    assert all(x.is_rational() for x in diagonal)
    assert expected["scaled_args"] == [str(x.a) for x in diagonal]


def test_bracket_characteristics_d3():
    # (r1, r2) -> r1/3 + r2/sqrt(-3); with sqrt(-3) = 2*delta - 1 the second
    # basis label is -(2*delta - 1)/3 = 1/3 - (2/3)*delta
    field = FieldId(3)
    m = bracket_to_characteristic(field, [(1, 0), (0, 1), (-1, 2)])
    assert m[(0, 0)] == field.element(Fraction(1, 3))
    assert m[(1, 0)] == field.element(Fraction(1, 3), Fraction(-2, 3))
    assert m[(2, 0)] == field.element(Fraction(1, 3), Fraction(-4, 3))
    # label times sqrt(-3) must be integral in the second slot
    assert (m[(1, 0)] * field.sqrt_minus_d()).is_rational()


def test_bracket_characteristics_d1():
    field = FieldId(1)
    m = bracket_to_characteristic(field, [(1, 2), (-1, 0)])
    assert m[(0, 0)] == field.element(Fraction(1, 4), Fraction(2, 4))
    assert m[(1, 0)] == field.element(Fraction(-1, 4))


def test_bracket_characteristics_other_d_rejected():
    with pytest.raises(DomainError, match="d in"):
        bracket_to_characteristic(FieldId(2), [(0, 0)])


def test_unknown_preset_lists_names():
    with pytest.raises(ValueError, match="valid names"):
        make_preset("nonsense")


@pytest.mark.parametrize("name,params", [("jacobi_identity", {"g": 2}),
                                         ("cubic_d3", {"h": 4}),
                                         ("matsumoto", {"alphas": None})])
def test_unknown_preset_key_raises_type_error(name, params):
    with pytest.raises(TypeError, match="unexpected keyword"):
        make_preset(name, **params)


@pytest.mark.parametrize("name", ["jacobi_identity", "cubic_d3"])
@pytest.mark.parametrize("cap", [0, -5])
def test_make_preset_refuses_a_cap_below_one(name, cap):
    # with a relation (cubic_d3) or without one (jacobi_identity), a cap
    # below 1 is refused by name, as g below 1 is; math.inf caps nothing
    with pytest.raises(ValueError, match=f"^max_order must be at least 1, got {cap}$"):
        make_preset(name, max_order=cap)
    assert make_preset(name, max_order=math.inf).name == name


@pytest.mark.parametrize("name,d", [("cubic_d3", 2), ("quartic_d1", 3),
                                    ("matsumoto", 7), ("cubic_d3_cor1", 1)])
def test_field_locked_presets_reject_other_d(name, d):
    with pytest.raises(DomainError):
        make_preset(name, d=d)


def test_cartan_needs_two_blocks():
    with pytest.raises(DomainError, match="h >= 2"):
        make_preset("cartan_Ah", h=1)


def test_default_samples_shapes():
    for g in (1, 2):
        ws = default_W_samples(g)
        oms = default_omega_samples(g)
        assert len(ws) == 3 and len(oms) == 3
        for om in oms:
            assert np.allclose(om, om.T)
            assert np.linalg.eigvalsh(om.imag).min() > 0
    with pytest.raises(DomainError):
        default_W_samples(3)
    with pytest.raises(DomainError):
        default_omega_samples(3)


def test_jacobi_identity_evaluates():
    preset = make_preset("jacobi_identity")
    assert preset.relation is None
    check = preset.identity_checks[0]
    rep = check.evaluate(np.array([[1j]]))
    assert rep.passed
    assert rep.residual_rel < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_prop_half_general_parametrization_status(d):
    # the printed index set only matches the computed shift group when the
    # generator has unit norm; otherwise the statement check is skipped and
    # the mismatch is surfaced as a warning, never a failure
    preset = make_preset("prop_half_general", d=d)
    dn = FieldId(d).delta_norm
    assert preset.expected["computed_G1_order"] == preset.relation.G1.order
    assert preset.relation.G2.is_trivial()
    if dn == 1:
        assert preset.expected["parametrization_matches"]
        assert len(preset.identity_checks) == 1
        assert preset.warnings == ()
    else:
        assert not preset.expected["parametrization_matches"]
        assert preset.identity_checks == ()
        assert len(preset.warnings) == 1
        assert "skipped" in preset.warnings[0]


@pytest.mark.parametrize("d", [1, 2, 3, 7])
def test_prop_half_general_2_matches_everywhere(d):
    preset = make_preset("prop_half_general_2", d=d)
    dn = FieldId(d).delta_norm
    assert preset.expected["parametrization_matches"]
    assert preset.expected["printed_parametrization_count"] == 4 * dn * dn
    assert preset.relation.G1.order == 4 * dn * dn
    assert preset.warnings == ()
    assert len(preset.identity_checks) == 1


def test_cubic_phases_and_orders():
    preset = make_preset("cubic_d3", g=1)
    assert preset.expected["computed_G1_order"] == 27
    assert preset.expected["expected_G2_trivial"]
    assert preset.relation.G2.is_trivial()
    # B0 = 0 forces every theorem coefficient to be trivial
    assert preset.expected["all_phases_zero_when_B0_zero"]
    assert all(t.phase_q == 0 for t in relation_terms(preset.relation))
    assert preset.expected["parametrization_matches"]
    assert preset.warnings == ()


def test_cartan_Q_is_cartan_matrix():
    for h, d in ((2, 1), (2, 3), (3, 3)):
        preset = make_preset("cartan_Ah", h=h, d=d)
        assert preset.expected["Q_is_cartan_matrix"]
        assert preset.expected["parametrization_matches"]
        q = preset.relation.Q
        for i in range(h):
            assert q[(i, i)] == preset.field.from_rational(2)
            for j in range(h):
                if abs(i - j) == 1:
                    assert q[(i, j)] == preset.field.from_rational(-1)
                elif i != j:
                    assert q[(i, j)].is_zero()


def test_cubic_cor_zero_offset_adds_bracket_display():
    field = FieldId(3)
    cor1 = make_preset("cubic_d3_cor1", g=1,
                       v=bracket_to_characteristic(field, [(0, 0)]))
    names1 = [c.name for c in cor1.identity_checks]
    assert names1 == ["cubic_d3_cor1_printed_g1", "cubic_bracket_cube_g1"]
    cor2 = make_preset("cubic_d3_cor2", g=1,
                       v=bracket_to_characteristic(field, [(0, 0)]))
    names2 = [c.name for c in cor2.identity_checks]
    assert names2 == ["cubic_d3_cor2_printed_g1", "cubic_bracket_product_g1"]
    # nonzero offset keeps only the printed specialization
    cor1b = make_preset("cubic_d3_cor1", g=1)
    assert [c.name for c in cor1b.identity_checks] == ["cubic_d3_cor1_printed_g1"]
    rep = cor1.identity_checks[1].evaluate(np.array([[1j]]))
    assert rep.passed, rep.residual_rel


def test_quartic_zero_includes_fourth_power_display():
    preset = make_preset("quartic_d1_zero", g=1)
    names = [c.name for c in preset.identity_checks]
    assert "quartic_bracket_fourth_g1" in names
    assert preset.expected["specialization"] == "all characteristics zero"


def test_matsumoto_structure():
    preset = make_preset("matsumoto", g=1)
    inst = preset.relation
    assert inst.G1.order == 2
    assert inst.G2.order == 2
    assert len(relation_terms(inst)) == 4
    assert len({repr(t.a_char) for t in relation_terms(inst)}) == 2
    assert preset.expected["parametrization_matches"]
    # the printed-coefficient discrepancy is documented, not silently fixed
    assert any("printed coefficient" in w for w in preset.warnings)
    rep = preset.identity_checks[0].evaluate(np.array([[0.1 + 1.0j]]))
    assert rep.passed, rep.residual_rel


def test_suite_small_plan_shapes():
    plan = (("jacobi_identity", {}), ("half_formulas", {}))
    result = run_paper_suite(plan=plan)
    assert len(result.reports) == 9  # (1 + 2) checks x 3 sample points
    assert result.all_passed
    assert result.warnings == []
    for row in result.reports:
        for key in ("id", "preset", "g", "d", "W_index", "residual_rel",
                    "tolerance", "passed", "theta_evals"):
            assert key in row
    blob = json.loads(result.to_json())
    assert [r["id"] for r in blob["reports"]] == [r["id"] for r in result.reports]
    csv_text = result.to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0].startswith("preset,")
    assert len(lines) == 10


_SUITE_GOLDEN = json.loads((Path(__file__).parent / "data" / "suite_golden.json").read_text())


def test_suite_reports_are_unchanged():
    # the recorded suite: the same warnings, and the same reports in the
    # same order with the same counts, tolerances and verdicts; a residual
    # may move by rounding but stays within its tolerance
    result = run_paper_suite()
    assert result.warnings == _SUITE_GOLDEN["warnings"]
    exact = ("id", "term_count", "theta_evals", "cache_hits", "tolerance", "passed")
    assert ([{k: r[k] for k in exact} for r in result.reports]
            == [{k: r[k] for k in exact} for r in _SUITE_GOLDEN["reports"]])
    assert all(r["residual_rel"] <= r["tolerance"] for r in result.reports)


def test_suite_thread_order_stable():
    plan = (("jacobi_identity", {}), ("double_formulas", {}))
    serial = run_paper_suite(plan=plan, threads=1)
    threaded = run_paper_suite(plan=plan, threads=2)
    assert serial.to_json() == threaded.to_json()


def test_preset_names_all_constructible():
    # every catalog name builds with defaults; ids in the suite rows are unique
    for name in PRESET_NAMES:
        preset = make_preset(name)
        assert preset.name == name
        assert preset.relation is not None or preset.identity_checks


# -- statement checks restated from the printed classes -------------------------


_REAL_THETA_PRESETS = {"jacobi_identity", "half_formulas", "double_formulas",
                       "riemann_quad"}
_FOLD_CASES = [e for e in DEFAULT_SUITE_PLAN if e[0] not in _REAL_THETA_PRESETS] + [
    ("cubic_d3", {"g": 2}),
    ("cartan_Ah", {"h": 2, "g": 2}),
    ("prop_half_general_2", {"d": 1, "g": 2}),
]


@pytest.mark.parametrize(
    "name,params", _FOLD_CASES,
    ids=[f"{n}-" + "-".join(f"{k}{v}" for k, v in p.items()) for n, p in _FOLD_CASES],
)
def test_statement_checks_restate_the_relation(name, params):
    # each term's factor characteristics, mod O_K, are the columns of one
    # relation term's characteristic: the same multiset over all terms
    preset = make_preset(name, **params)
    inst = preset.relation
    h = inst.spec.h
    expected = Counter(
        tuple(reduce_mod_integral(t.a_char.column(j)) for j in range(h))
        for t in relation_terms(inst)
    )
    checks = [c for c in preset.identity_checks if "bracket" not in c.name]
    skipped = any("skipped" in w for w in preset.warnings)
    assert len(checks) == (0 if skipped else 1)
    for check in checks:
        assert Counter(row_a0s(check.rhs)) == expected


# the relation presets with a statement check: prop_half_general has one
# only where its printed classes match, at d = 1 and 3
_PRINTED_CASES = [(name, params) for name, params in _RELATION_PRESETS if name != "matsumoto"
                  and (name != "prop_half_general" or params["d"] in (1, 3))] + [
    ("cubic_d3_cor1", {"g": 2}), ("cubic_d3_cor2", {"g": 2}),
    ("cartan_Ah", {"h": 3, "d": 1, "g": 2}), ("cartan_Ah", {"h": 4, "d": 3}),
    ("prop_half_general", {"d": 3, "g": 2}), ("prop_half_general_2", {"d": 2, "g": 2})]


@pytest.mark.parametrize("name,params", _PRINTED_CASES,
                         ids=[f"{n}-{p}" for n, p in _PRINTED_CASES])
def test_printed_statements_match_the_kmatrix_reference(monkeypatch, name, params):
    # the statement check's sides against the relation restated over the
    # printed classes in KMatrix arithmetic, and Theta^Q with each leaf its
    # own factor
    printed = []

    def record(*args):
        (rows, den), field = args[6], args[1]
        printed.append([coords_to_kmatrix(r, den, 1, len(r) // 2, field) for r in rows])
        return _printed_relation(*args)

    monkeypatch.setattr("iqtheta.presets._printed_relation", record)
    preset = make_preset(name, **params)
    inst, check = preset.relation, preset.identity_checks[0]
    assert check.name.startswith(inst.spec.name)
    assert compile_terms(printed_terms(inst, *printed)) == check.rhs
    assert check.lhs == _sum([(0, _leaf_keys(inst.Q, inst.lhs_A, inst.lhs_B))])


def _choice_keys(rows, w, center):
    # the reference for Matsumoto's statement keys, from KElement rows: for
    # each g-tuple of one row of h entries among rows[k] for each row k, the
    # leaf keys of the matrix of those rows, one per part of w columns
    den = math.lcm(*(x.den for row in rows for c in row for x in c))
    coords = [[tuple(v for x in c for v in (x.n * (den // x.den), x.m * (den // x.den)))
               for c in row] for row in rows]
    g, h = len(rows), len(rows[0][0])
    for choice in itertools.product(*coords):
        nums = tuple(itertools.chain.from_iterable(choice))
        yield tuple(_int_key(_block(nums, g, h, j, w), den, center) for j in range(h // w))


@pytest.mark.parametrize("g", [1, 2])
def test_matsumoto_statement_keys_match_the_per_row_choices(g):
    # row (e, f) of the statement holds the leaves (e + a1s, f + b1s) and
    # (e + a2s, f + b2s), f (the dual shift b) outer and e (the shift A)
    # inner as in relations._right_side, A0's columns centered
    preset = make_preset("matsumoto", g=g)
    (check,) = preset.identity_checks
    spec, field = preset.relation.spec, FieldId(1)
    e_reps = [field.zero(), (field.one() - field.delta()) * Fraction(1, 2)]
    cols = [[m[(k, j)] for k in range(g)] for m in (spec.A0, spec.B0) for j in (0, 1)]
    keys = [[key for (key,) in _choice_keys([[[e + x] for e in e_reps] for x in col], 1, k < 2)]
            for k, col in enumerate(cols)]
    want = [((keys[0][i], keys[2][j]), (keys[1][i], keys[3][j]))
            for j in range(2**g) for i in range(2**g)]
    leaf = {i: (a, b) for _, a, bs, ids in check.rhs.families for b, i in zip(bs, ids)}
    assert [tuple(map(leaf.__getitem__, idx)) for _, idx in check.rhs.rows] == want


def _k(field, *xs):
    return [field.element(Fraction(a), Fraction(b)) for a, b in xs]


def _first_term(preset):
    (check,) = [c for c in preset.identity_checks if "bracket" not in c.name]
    return Counter(row_a0s(check.rhs)[0])


def _cols(*entries):
    return Counter(reduce_mod_integral(KMatrix([[x]])) for x in entries)


@pytest.mark.parametrize("variant,d", [(1, 1), (2, 1), (2, 2), (2, 7)])
def test_prop_half_printed_combinations(variant, d):
    field = FieldId(d)
    a1, a2 = _k(field, (Fraction(1, 5), Fraction(1, 7)),
                (Fraction(2, 9), Fraction(-1, 4)))
    name = "prop_half_general" if variant == 1 else "prop_half_general_2"
    preset = make_preset(name, d=d, alpha1=KMatrix([[a1]]), alpha2=KMatrix([[a2]]))
    delta = field.delta()
    base = a1 * delta if variant == 1 else a1
    two_delta = delta * 2
    assert _first_term(preset) == _cols((base + a2) / two_delta,
                                        (base - a2) / two_delta)


@pytest.mark.parametrize("h,d", [(2, 1), (3, 3)])
def test_cartan_printed_combinations(h, d):
    field = FieldId(d)
    alphas = _k(field, *[(Fraction(1, j + 4), Fraction(j, 7)) for j in range(h)])
    preset = make_preset("cartan_Ah", h=h, d=d,
                         alphas=[KMatrix([[a]]) for a in alphas])
    delta = field.delta()
    cur = [a / (delta * (h - j)) for j, a in enumerate(alphas)]
    prev = [field.zero()] + cur
    assert _first_term(preset) == _cols(*(c - p for c, p in zip(cur, prev)))


def test_cubic_printed_combinations():
    field = FieldId(3)
    a1, a2, a3 = _k(field, (Fraction(1, 5), Fraction(1, 7)),
                    (Fraction(2, 9), Fraction(-1, 4)), (Fraction(3, 11), 0))
    w1 = field.delta() - field.one()
    w2 = w1 * w1
    preset = make_preset("cubic_d3", alphas=[KMatrix([[a]]) for a in (a1, a2, a3)])
    assert _first_term(preset) == _cols(
        (a1 + a2 * w2 + a3 * w1) / 3,
        (a1 + a2 * w1 + a3 * w2) / 3,
        (a1 + a2 + a3) / 3,
    )
    # the corollaries: equal characteristics v, and v split by 1/sqrt(-3)
    v = field.element(Fraction(1, 5))
    third = field.from_rational(Fraction(1, 3))
    cor1 = make_preset("cubic_d3_cor1", v=KMatrix([[v]]))
    assert _first_term(cor1) == _cols(field.zero(), field.zero(), v)
    cor2 = make_preset("cubic_d3_cor2", v=KMatrix([[v]]))
    assert _first_term(cor2) == _cols(-third, third, v)


def test_quartic_printed_combinations():
    field = FieldId(1)
    a1, a2, a3, a4 = _k(field, (Fraction(1, 5), Fraction(1, 7)),
                        (Fraction(2, 9), Fraction(-1, 4)), (Fraction(3, 11), 0),
                        (0, Fraction(1, 6)))
    i_ = field.delta()
    preset = make_preset("quartic_d1",
                         alphas=[KMatrix([[a]]) for a in (a1, a2, a3, a4)])
    assert _first_term(preset) == _cols(
        (a1 - a2 * i_ - a3 * i_ - a4) / 4,
        (-a1 * i_ + a2 - a3 - a4 * i_) / 4,
        (a1 * i_ + a2 - a3 + a4 * i_) / 4,
        (a1 + a2 * i_ + a3 * i_ - a4) / 4,
    )


# -- compiled checks ------------------------------------------------------------


def test_matsumoto_rejects_a_malformed_characteristic():
    b2 = KMatrix([[FieldId(1).element(Fraction(1, 3))]])
    with pytest.raises(DomainError, match=r"^matsumoto: b2 must be a 2 x 1 KMatrix over "
                       r"d = 1, got 1 x 1 over d = 1$"):
        make_preset("matsumoto", g=2, b2=b2)


def test_riemann_quad_rejects_a_malformed_characteristic():
    with pytest.raises(DomainError, match=r"^riemann_quad: a1 must have g = 2 entries, got 1$"):
        make_preset("riemann_quad", g=2, a1=[Fraction(1, 2)])


def _kmatrices_built(monkeypatch, build):
    """The KMatrix values that build() constructs (see
    test_plan_reads_leaves_by_index)."""
    made = []
    init, of = KMatrix.__init__, KMatrix._of.__func__
    with monkeypatch.context() as m:
        m.setattr(KMatrix, "__init__", lambda self, *a: made.append(a) or init(self, *a))
        m.setattr(KMatrix, "_of", classmethod(lambda cls, *a: made.append(a) or of(cls, *a)))
        build()
    return len(made)


def test_matsumoto_builds_no_kmatrix_per_term(monkeypatch):
    # the statement check's 4^g rows are read off per-row choices in
    # integers: the exact matrices built grow at most linearly in g
    counts = [_kmatrices_built(monkeypatch, lambda: make_preset("matsumoto", g=g))
              for g in (3, 6)]
    assert counts[1] <= 2 * counts[0]


def test_matsumoto_at_genus_three():
    # the suite covers g <= 2: at g = 3 the relation and the statement
    # check each read 130 distinct leaves once
    W = np.array([[0.1 + 1.2j, 0.2 + 0.1j, -0.1j],
                  [0.2 + 0.1j, 1.0j, 0.15],
                  [-0.1j, 0.15, -0.2 + 1.1j]])
    preset = make_preset("matsumoto", g=3)
    (check,) = preset.identity_checks
    for rep, terms in ((evaluate_relation(preset.relation, W), 64), (check.evaluate(W), 65)):
        assert rep.passed, rep.residual_rel
        assert (rep.term_count, rep.theta_evals, rep.cache_hits) == (terms, 130, 0)


def _p_larger_than_t():
    field = FieldId(1)
    z = KMatrix.zeros(1, 2, field)
    RelationSpec(field=field, g=1, T=KMatrix.identity(2, field),
                 P=KMatrix.identity(3, field), A0=z, B0=z).validate()


@pytest.mark.parametrize("call,message", [
    (lambda: make_preset("cartan_Ah", h=2, alphas=[KMatrix.zeros(1, 1, FieldId(1))]),
     "cartan_Ah with h=2 needs 2 characteristic columns"),
    (lambda: make_preset("cubic_d3", alphas=[KMatrix.zeros(1, 1, FieldId(3))]),
     "cubic_d3 needs three characteristic columns"),
    (lambda: make_preset("quartic_d1", alphas=[KMatrix.zeros(1, 1, FieldId(1))]),
     "quartic_d1 needs four characteristic columns"),
    (_p_larger_than_t, "P must match the size of T"),
], ids=["cartan-columns", "cubic-columns", "quartic-columns", "P-size"])
def test_presets_and_specs_check_their_sizes(call, message):
    with pytest.raises(DomainError) as err:
        call()
    assert str(err.value) == message


def _cubic_classes_twice_one():
    # cubic_d3's printed classes with the first listed again: every class
    # of G1 is covered, one of them twice
    field = FieldId(3)
    alphas = [_default_alpha(field, 1, j + 1) for j in range(3)]
    inst, matches, _, (rows, den) = _cubic_relation("cubic_d3", 1, alphas, 10**6)
    assert matches
    return _compare_classes(inst.G1, (rows + rows[:1], den))


@pytest.mark.parametrize("call,want,error", [
    (_cubic_classes_twice_one,
     (False, "printed classes cover the group with uneven multiplicities [1, 2]"), None),
    (lambda: make_preset("matsumoto", a1=[[0]]),
     "matsumoto: a1 must be a 1 x 1 KMatrix over d = 1, got list", DomainError),
], ids=["uneven-multiplicities", "matsumoto-a1-type"])
def test_printed_classes_and_characteristics_are_checked(call, want, error):
    if error is None:
        assert call() == want
        return
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == want


# -- statements and displays against their printed constructions ------------------


def _assert_sides_match(check, lhs, rhs, lhs_scale=1):
    # lhs and rhs: the reference sides as multisets (see side_multiset)
    assert (side_multiset(check.lhs), side_multiset(check.rhs)) == (lhs, rhs)
    assert (check.lhs.coeff_scale, check.rhs.coeff_scale) == (lhs_scale, 1)
    assert (check.lhs.factor_leaves, check.rhs.factor_leaves) == (1, 1)
    assert check.lhs.lattice == check.rhs.lattice == "O_K"


def _matsumoto_agrees(g, **cols):
    # the characteristics not in cols are the preset's defaults, read back
    # from A0 = (a1, a2)(1 + i) and B0 = (b1, b2)(1 + i)
    preset = make_preset("matsumoto", g=g, **cols)
    spec = preset.relation.spec
    inv = spec.field.one() / (spec.field.one() + spec.field.delta())
    read = [m.column(j).scale(inv) for m in (spec.A0, spec.B0) for j in (0, 1)]
    a1, a2, b1, b2 = (cols.get(k, x) for k, x in zip(("a1", "a2", "b1", "b2"), read))
    (check,) = preset.identity_checks
    _assert_sides_match(check, *matsumoto_statement(a1, a2, b1, b2), lhs_scale=2**g)


@pytest.mark.parametrize("g", [1, 2])
def test_matsumoto_statement_is_the_printed_formula(g):
    # the check, the relation over printed G1 = G2 with its phases moved by
    # Re Tr(A0^H B0), against the per-row KElement formula it replaced
    _matsumoto_agrees(g)


def _column(field, g):
    entry = st.builds(lambda a, b, c, d: field.element(Fraction(a, b), Fraction(c, d)),
                      st.integers(-6, 6), st.integers(1, 8), st.integers(-6, 6),
                      st.integers(1, 8))
    return st.lists(entry, min_size=g, max_size=g).map(
        lambda xs: KMatrix.column_vector(xs))


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(g=st.sampled_from((1, 2)), data=st.data())
def test_matsumoto_statement_is_the_printed_formula_at_any_characteristics(g, data):
    cols = {k: data.draw(_column(FieldId(1), g), label=k) for k in ("a1", "a2", "b1", "b2")}
    _matsumoto_agrees(g, **cols)


_DISPLAYS = [("cubic_d3_cor1", 1, 1), ("cubic_d3_cor1", 2, 1), ("cubic_d3_cor2", 1, 2),
             ("cubic_d3_cor2", 2, 2), ("quartic_d1_zero", 1, None), ("quartic_d1_zero", 2, None)]


def _display_preset(name, g):
    v = {} if name == "quartic_d1_zero" else {"v": KMatrix.zeros(g, 1, FieldId(3))}
    return make_preset(name, g=g, **v)


@pytest.mark.parametrize("name,g,which", _DISPLAYS, ids=[f"{n}-g{g}" for n, g, _ in _DISPLAYS])
def test_bracket_displays_are_their_label_constructions(name, g, which):
    # a display, the relation over its label classes, against the sums
    # compiled label by label from the KElement characteristics
    display = _display_preset(name, g).identity_checks[-1]
    lhs, rhs = quartic_display(g) if which is None else cubic_display(which, g)
    _assert_sides_match(display, side_multiset(lhs), side_multiset(rhs))


@pytest.mark.parametrize("name,g,which", _DISPLAYS[::2], ids=[n for n, _, _ in _DISPLAYS[::2]])
def test_bracket_label_classes_are_the_shift_group(monkeypatch, name, g, which):
    # exactly: a mistyped label fails here in integers
    classes = []

    def record(inst, labels):
        classes.append((inst.spec.T, _label_classes(inst, labels)))
        return classes[-1][1]

    monkeypatch.setattr("iqtheta.presets._label_classes", record)
    _display_preset(name, g)
    ((T, display),) = classes
    assert _compare_classes(shift_group(1, T), display) == (True, "")


@pytest.mark.parametrize("d", [1, 3])
def test_label_coords_are_the_kelement_labels(d):
    field = FieldId(d)
    labels = list(itertools.product(range(-4, 5), repeat=2))
    (nums,), den = _label_coords(d, [labels])
    ref, ref_den = _int_coords(bracket_column(field, labels))
    assert [Fraction(n, den) for n in nums] == [Fraction(n, ref_den) for n in ref]
    assert bracket_to_characteristic(field, labels) == bracket_column(field, labels)


# a characteristic column of each preset that takes one: (preset, params,
# the column's name, its keyword, or ("alphas", the count, its index))
_COLUMN_PARAMS = [
    ("prop_half_general", {"d": 1}, "alpha1", "alpha1"),
    ("prop_half_general_2", {"d": 2}, "alpha2", "alpha2"),
    ("cartan_Ah", {"h": 2, "d": 3}, "alphas[1]", ("alphas", 2, 1)),
    ("cubic_d3", {}, "alphas[0]", ("alphas", 3, 0)),
    ("cubic_d3_cor1", {}, "v", "v"),
    ("cubic_d3_cor2", {}, "v", "v"),
    ("quartic_d1", {}, "alphas[3]", ("alphas", 4, 3)),
    ("matsumoto", {}, "b1", "b1"),
]
_BAD_COLUMNS = {
    "rows": (lambda d: KMatrix.zeros(2, 1, FieldId(d)), lambda d: f"2 x 1 over d = {d}"),
    "columns": (lambda d: KMatrix.zeros(1, 2, FieldId(d)), lambda d: f"1 x 2 over d = {d}"),
    "type": (lambda d: [[0]], lambda d: "list"),
    "field": (lambda d: KMatrix.zeros(1, 1, FieldId(7)), lambda d: "1 x 1 over d = 7"),
}


@pytest.mark.parametrize("bad", sorted(_BAD_COLUMNS))
@pytest.mark.parametrize("name,params,param,where", _COLUMN_PARAMS,
                         ids=[f"{n}-{p}" for n, _, p, _ in _COLUMN_PARAMS])
def test_characteristic_columns_are_checked_by_name(name, params, param, where, bad):
    d = make_preset(name, **params).field.d
    make, got = _BAD_COLUMNS[bad]
    if isinstance(where, tuple):
        key, n, j = where
        cols = [_default_alpha(FieldId(d), 1, k + 1) for k in range(n)]
        cols[j] = make(d)
        params = dict(params, **{key: cols})
    else:
        params = dict(params, **{where: make(d)})
    with pytest.raises(DomainError) as err:
        make_preset(name, **params)
    assert str(err.value) == f"{name}: {param} must be a 1 x 1 KMatrix over d = {d}, got {got(d)}"
