"""Worked-example catalog: structure, printed-form cross-checks, suite output."""

import json
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
from iqtheta.presets import _compare_classes, _cubic_relation, _default_alpha

from _helpers import reduce_mod_integral, relation_terms, row_a0s


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
    inst, matches, _, printed = _cubic_relation("cubic_d3", 1, alphas, 10**6)
    assert matches
    return _compare_classes(inst.G1, printed + printed[:1])


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
