"""Catalog of worked theta relations and classical identity checks.

Each preset bundles an exactly constructed relation instance (where one
exists), independent identity checks built from the printed closed forms,
expected group metadata, and warnings produced by cross-checking the
printed index-set parametrizations against the computed shift group.
Pass or fail always rides on the computed groups; a printed
parametrization that enumerates a different class set only produces a
warning.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .kfield import FieldId, KElement, KMatrix
from .lattices import FiniteAbelianGroup, character_group, shift_group
from .relations import (
    RelationInstance,
    RelationSpec,
    Term,
    ThetaFactor,
    VerificationReport,
    _cached_plan,
    _lower_terms,
    _sum_terms,
    build_relation,
    evaluate_relation,
)
from .thetas import MatrixLike, ThetaCache, ThetaParams

__all__ = [
    "PRESET_NAMES",
    "IdentityCheck",
    "Preset",
    "bracket_to_characteristic",
    "make_preset",
    "default_W_samples",
    "default_omega_samples",
    "DEFAULT_SUITE_PLAN",
    "SuiteResult",
    "run_paper_suite",
]

PRESET_NAMES = (
    "riemann_quad",
    "jacobi_identity",
    "half_formulas",
    "double_formulas",
    "prop_half_general",
    "prop_half_general_2",
    "cartan_Ah",
    "cubic_d3",
    "cubic_d3_cor1",
    "cubic_d3_cor2",
    "quartic_d1",
    "quartic_d1_zero",
    "matsumoto",
)


# -- identity check framework ------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """lhs == rhs, each side a sum of coefficiented theta products."""

    name: str
    g: int
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...]
    needs_symmetric_W: bool = False

    @cached_property
    def _plans(self) -> dict:
        """lhs and rhs lowered together, so they share leaves, per ThetaParams."""
        return {}

    def evaluate(
        self, W: MatrixLike, params: Optional[ThetaParams] = None
    ) -> VerificationReport:
        if params is None:
            params = ThetaParams()
        plan = _cached_plan(
            self._plans, params, lambda: _lower_terms(params, (self.lhs, self.rhs))
        )
        cache = ThetaCache()
        _, (lhs, rhs) = _sum_terms(plan, W, cache)
        return VerificationReport.compare(
            lhs,
            rhs,
            len(self.lhs) + len(self.rhs),
            cache.misses + plan.riemann_evals,
            cache.hits,
            params.eps,
        )


# -- small constructors ------------------------------------------------------


def _col(entries: Sequence[KElement]) -> KMatrix:
    return KMatrix.column_vector(list(entries))


def _row_matrix(cols: Sequence[KMatrix]) -> KMatrix:
    g = cols[0].rows
    return KMatrix(
        [[c[(i, 0)] for c in cols] for i in range(g)]
    )


def _zero_col(field: FieldId, g: int) -> KMatrix:
    return _col([field.zero()] * g)


def _const_col(x: KElement, g: int) -> KMatrix:
    return _col([x] * g)


def _field_factor(a: KMatrix, b: KMatrix, scale: Fraction) -> ThetaFactor:
    field = a.field
    return ThetaFactor(
        kind="field", a=a, b=b, p=KMatrix([[field.from_rational(scale)]])
    )


def _dense_factor(a: KMatrix, b: KMatrix, p: KMatrix) -> ThetaFactor:
    return ThetaFactor(kind="field", a=a, b=b, p=p)


def _plain_term(factors: Sequence[ThetaFactor],
                scale: Fraction = Fraction(1),
                q: Fraction = Fraction(0)) -> Term:
    return Term(coeff_q=q, coeff_scale=scale, factors=tuple(factors))


def bracket_to_characteristic(
    field: FieldId, rho: Sequence[tuple[int, int]]
) -> KMatrix:
    """Characteristic column for the integer-pair bracket labels.

    d = 3: row (r1, r2) maps to r1/3 + r2/sqrt(-3); d = 1: to (r1 + r2*i)/4.
    """
    if field.d == 3:
        inv_rt = field.sqrt_minus_d() * Fraction(-1, 3)  # 1/sqrt(-3)
        third = Fraction(1, 3)
        return _col(
            [field.from_rational(Fraction(r1) * third) + inv_rt * r2
             for (r1, r2) in rho]
        )
    if field.d == 1:
        quarter = Fraction(1, 4)
        return _col(
            [field.element(Fraction(r1) * quarter, Fraction(r2) * quarter)
             for (r1, r2) in rho]
        )
    raise DomainError("bracket characteristics are defined for d in {1, 3}")


# -- residue systems used by the printed index sets --------------------------


def _cubic_r_reps(field: FieldId) -> list[KElement]:
    # O_K / 3 O_K via c1 + c2 sqrt(-3), c1, c2 in {0, 1, -1}
    rt = field.sqrt_minus_d()
    return [
        field.from_rational(c1) + rt * c2
        for c1 in (0, 1, -1)
        for c2 in (0, 1, -1)
    ]


def _cubic_s_reps(field: FieldId) -> list[KElement]:
    rt = field.sqrt_minus_d()
    return [rt * c for c in (0, 1, -1)]


def _quartic_r_reps(field: FieldId) -> list[KElement]:
    return [
        field.element(r1, r2) for r1 in (0, 1, -1, 2) for r2 in (0, 1, -1, 2)
    ]


def _quartic_s_reps(field: FieldId) -> list[KElement]:
    return [field.element(s1, s2) for s1 in (0, 2) for s2 in (0, 2)]


def _vectors(reps: Sequence[KElement], g: int) -> list[tuple[KElement, ...]]:
    return list(itertools.product(reps, repeat=g))


# -- parametrization cross-checks --------------------------------------------


def _class_key(m: KMatrix) -> tuple:
    out = []
    for row in m.entry_rows():
        for x in row:
            out.append((x.a - math.floor(x.a), x.b - math.floor(x.b)))
    return tuple(out)


def _compare_classes(
    group: FiniteAbelianGroup, printed: Sequence[KMatrix]
) -> tuple[bool, str]:
    """Exact comparison of the printed class multiset with the group."""
    from collections import Counter

    printed_keys = Counter(_class_key(m) for m in printed)
    group_keys = {_class_key(m) for m in group.representatives}
    if set(printed_keys) == group_keys:
        mults = set(printed_keys.values())
        if len(mults) == 1:
            return (True, "")
        return (
            False,
            f"printed classes cover the group with uneven multiplicities {sorted(mults)}",
        )
    extra = len(set(printed_keys) - group_keys)
    missing = len(group_keys - set(printed_keys))
    return (
        False,
        f"printed index set enumerates {len(printed_keys)} distinct classes; "
        f"{extra} outside the computed shift group, {missing} group classes missing "
        f"(group order {group.order})",
    )


# -- preset container ---------------------------------------------------------


@dataclass(frozen=True)
class Preset:
    name: str
    params: dict
    field: Optional[FieldId]
    g: int
    relation: Optional[RelationInstance]
    identity_checks: tuple[IdentityCheck, ...]
    expected: dict
    warnings: tuple[str, ...] = ()


def _default_alpha(field: FieldId, g: int, j: int) -> KMatrix:
    # deterministic small characteristics, distinct per slot and row
    return _col(
        [field.element(Fraction(1, j + k + 2), Fraction(1, j + k + 3))
         for k in range(g)]
    )


# -- classical real-theta presets ---------------------------------------------


def _jacobi_factor(a: Fraction, b: Fraction, scale: int = 1) -> ThetaFactor:
    return ThetaFactor(
        kind="riemann", a=(a,), b=(b,), w_scale=Fraction(scale)
    )


def _preset_jacobi_identity() -> Preset:
    h_ = Fraction(1, 2)
    z = Fraction(0)
    t00 = _jacobi_factor(z, z)
    t10 = _jacobi_factor(h_, z)
    t01 = _jacobi_factor(z, h_)
    check = IdentityCheck(
        name="jacobi_identity",
        g=1,
        lhs=(_plain_term([t00] * 4),),
        rhs=(_plain_term([t10] * 4), _plain_term([t01] * 4)),
        needs_symmetric_W=True,
    )
    return Preset(
        name="jacobi_identity",
        params={},
        field=None,
        g=1,
        relation=None,
        identity_checks=(check,),
        expected={"identity_count": 1},
    )


def _preset_half_formulas() -> Preset:
    h_ = Fraction(1, 2)
    z = Fraction(0)
    t00 = _jacobi_factor(z, z)
    t10 = _jacobi_factor(h_, z)
    t00_2 = _jacobi_factor(z, z, 2)
    t10_2 = _jacobi_factor(h_, z, 2)
    sq = IdentityCheck(
        name="half_formulas_sum_of_squares",
        g=1,
        lhs=(_plain_term([t00, t00]),),
        rhs=(_plain_term([t00_2, t00_2]), _plain_term([t10_2, t10_2])),
        needs_symmetric_W=True,
    )
    cross = IdentityCheck(
        name="half_formulas_cross",
        g=1,
        lhs=(_plain_term([t10, t10]),),
        rhs=(_plain_term([t00_2, t10_2], scale=Fraction(2)),),
        needs_symmetric_W=True,
    )
    return Preset(
        name="half_formulas",
        params={},
        field=None,
        g=1,
        relation=None,
        identity_checks=(sq, cross),
        expected={"identity_count": 2},
    )


def _preset_double_formulas() -> Preset:
    h_ = Fraction(1, 2)
    z = Fraction(0)
    t00 = _jacobi_factor(z, z)
    t01 = _jacobi_factor(z, h_)
    t00_2 = _jacobi_factor(z, z, 2)
    t01_2 = _jacobi_factor(z, h_, 2)
    avg = IdentityCheck(
        name="double_formulas_average",
        g=1,
        lhs=(_plain_term([t00_2, t00_2]),),
        rhs=(
            _plain_term([t00, t00], scale=Fraction(1, 2)),
            _plain_term([t01, t01], scale=Fraction(1, 2)),
        ),
        needs_symmetric_W=True,
    )
    geo = IdentityCheck(
        name="double_formulas_geometric",
        g=1,
        lhs=(_plain_term([t01_2, t01_2]),),
        rhs=(_plain_term([t00, t01]),),
        needs_symmetric_W=True,
    )
    return Preset(
        name="double_formulas",
        params={},
        field=None,
        g=1,
        relation=None,
        identity_checks=(avg, geo),
        expected={"identity_count": 2},
    )


def _preset_riemann_quad(
    g: int = 1,
    a1: Optional[Sequence[Fraction]] = None,
    a2: Optional[Sequence[Fraction]] = None,
) -> Preset:
    if a1 is None:
        a1 = tuple(Fraction(1, 2) for _ in range(g))
    if a2 is None:
        a2 = tuple(Fraction(k % 2, 2) for k in range(g))
    a1 = tuple(Fraction(x) for x in a1)
    a2 = tuple(Fraction(x) for x in a2)
    zeros = tuple(Fraction(0) for _ in range(g))
    lhs = _plain_term(
        [
            ThetaFactor(kind="riemann", a=a1, b=zeros),
            ThetaFactor(kind="riemann", a=a2, b=zeros),
        ]
    )
    rhs = []
    for dvec in itertools.product((Fraction(0), Fraction(1)), repeat=g):
        c1 = tuple((d + x + y) / 2 for d, x, y in zip(dvec, a1, a2))
        c2 = tuple((d + x - y) / 2 for d, x, y in zip(dvec, a1, a2))
        rhs.append(
            _plain_term(
                [
                    ThetaFactor(kind="riemann", a=c1, b=zeros, w_scale=Fraction(2)),
                    ThetaFactor(kind="riemann", a=c2, b=zeros, w_scale=Fraction(2)),
                ]
            )
        )
    check = IdentityCheck(
        name=f"riemann_quad_g{g}",
        g=g,
        lhs=(lhs,),
        rhs=tuple(rhs),
        needs_symmetric_W=True,
    )
    return Preset(
        name="riemann_quad",
        params={"g": g, "a1": [str(x) for x in a1], "a2": [str(x) for x in a2]},
        field=None,
        g=g,
        relation=None,
        identity_checks=(check,),
        expected={"rhs_terms": 2**g},
    )


# -- two-fold propositions -----------------------------------------------------


def _prop_printed_shifts(field: FieldId) -> list[KMatrix]:
    """Printed (u, v, w) classes shared by both two-fold propositions, g = 1."""
    delta = field.delta()
    two_delta = delta * 2
    dn = field.delta_norm
    out = []
    for u in range(2 * dn):
        for v in range(2):
            for w in range(dn):
                x = field.from_rational(u) + delta * v
                first = (x + field.from_rational(2 * w)) / two_delta
                second = x / two_delta
                out.append(KMatrix([[first, second]]))
    return out


def _preset_prop_half(
    variant: int,
    d: int = 1,
    g: int = 1,
    alpha1: Optional[KMatrix] = None,
    alpha2: Optional[KMatrix] = None,
) -> Preset:
    field = FieldId(d)
    if alpha1 is None:
        alpha1 = _default_alpha(field, g, 1)
    if alpha2 is None:
        alpha2 = _default_alpha(field, g, 2)
    delta = field.delta()
    dn = field.delta_norm
    cd = delta.conj()
    inv = field.one() / (cd * 2)
    one = field.one()
    if variant == 1:
        t_rows = [[cd, one], [cd, -one]]
    else:
        t_rows = [[one, one], [one, -one]]
    T = KMatrix(t_rows).scale(inv)
    P = KMatrix.from_rational_rows(
        [[2 * dn, 0], [0, 2 * dn]], field
    )
    A0 = _row_matrix([alpha1, alpha2]) @ T.conj_transpose()
    B0 = KMatrix([[field.zero()] * 2 for _ in range(g)])
    name = "prop_half_general" if variant == 1 else "prop_half_general_2"
    spec = RelationSpec(field, g, T, P, A0, B0, name=name)
    inst = build_relation(spec)

    printed = _prop_printed_shifts(field)
    g1_row = inst.G1 if g == 1 else shift_group(1, T)
    matches, detail = _compare_classes(g1_row, printed)
    warnings = []
    if not matches:
        warnings.append(
            f"{name} d={d}: {detail}; statement-form check skipped, "
            "verification uses the computed shift group"
        )

    checks: list[IdentityCheck] = []
    two_dn = Fraction(2 * dn)
    lhs_scale1 = Fraction(dn) if variant == 1 else Fraction(1)
    lhs = _plain_term(
        [
            _field_factor(alpha1, _zero_col(field, g), lhs_scale1),
            _field_factor(alpha2, _zero_col(field, g), Fraction(1)),
        ]
    )
    if matches:
        rhs_terms = []
        two_delta = delta * 2
        shift_vecs = _vectors(
            [(u, v, w) for u in range(2 * dn) for v in range(2) for w in range(dn)],
            g,
        )
        for rows in shift_vecs:
            f1 = []
            f2 = []
            for k in range(g):
                u, v, w = rows[k]
                x = field.from_rational(u) + delta * v
                base1 = alpha1[(k, 0)] * delta if variant == 1 else alpha1[(k, 0)]
                s1 = (base1 + alpha2[(k, 0)] + x + field.from_rational(2 * w)) / two_delta
                s2 = (base1 - alpha2[(k, 0)] + x) / two_delta
                f1.append(s1)
                f2.append(s2)
            rhs_terms.append(
                _plain_term(
                    [
                        _field_factor(_col(f1), _zero_col(field, g), two_dn),
                        _field_factor(_col(f2), _zero_col(field, g), two_dn),
                    ]
                )
            )
        checks.append(
            IdentityCheck(
                name=f"{name}_statement_d{d}",
                g=g,
                lhs=(lhs,),
                rhs=tuple(rhs_terms),
            )
        )

    expected = {
        "printed_parametrization_count": (4 * dn * dn) ** g,
        "computed_G1_order": inst.G1.order,
        "expected_G2_trivial": True,
        "parametrization_matches": matches,
        "scaled_args": [str(2 * dn)] * 2,
    }
    return Preset(
        name=name,
        params={"d": d, "g": g},
        field=field,
        g=g,
        relation=inst,
        identity_checks=tuple(checks),
        expected=expected,
        warnings=tuple(warnings),
    )


# -- Cartan chain --------------------------------------------------------------


def _cartan_matrix(field: FieldId, h: int) -> KMatrix:
    rows = []
    for i in range(h):
        row = []
        for j in range(h):
            if i == j:
                row.append(field.from_rational(2))
            elif abs(i - j) == 1:
                row.append(field.from_rational(-1))
            else:
                row.append(field.zero())
        rows.append(row)
    return KMatrix(rows)


def _preset_cartan(
    h: int = 2, d: int = 1, g: int = 1, alphas: Optional[Sequence[KMatrix]] = None
) -> Preset:
    if h < 2:
        raise DomainError("cartan_Ah needs h >= 2")
    field = FieldId(d)
    if alphas is None:
        alphas = [_default_alpha(field, g, j + 1) for j in range(h)]
    if len(alphas) != h:
        raise DomainError(f"cartan_Ah with h={h} needs {h} characteristic columns")
    delta = field.delta()
    dn = field.delta_norm
    cd = delta.conj()
    zero = field.zero()
    t_rows = []
    for i in range(h):
        row = [zero] * h
        row[i] = field.from_rational(Fraction(1, h - i))
        t_rows.append(row)
    for i in range(1, h):
        t_rows[i][i - 1] = field.from_rational(Fraction(-1, h - i + 1))
    T = KMatrix(t_rows).scale(field.one() / cd)
    p_diag = [Fraction((h + 2 - j) * (h + 1 - j)) * dn for j in range(1, h + 1)]
    P = KMatrix(
        [
            [field.from_rational(p_diag[i]) if i == j else zero for j in range(h)]
            for i in range(h)
        ]
    )
    A0 = _row_matrix(list(alphas)) @ T.conj_transpose()
    B0 = KMatrix([[zero] * h for _ in range(g)])
    spec = RelationSpec(field, g, T, P, A0, B0, name=f"cartan_A{h}")
    inst = build_relation(spec)

    # Q must be the Cartan matrix exactly
    q_expected = _cartan_matrix(field, h)
    q_ok = inst.Q == q_expected
    warnings = []
    if not q_ok:
        warnings.append(f"cartan_Ah h={h} d={d}: Q differs from the Cartan matrix")

    # printed classes, one row
    printed = []
    ranges = [
        [(u, v) for u in range(dn * (h + 1 - j)) for v in range(h + 1 - j)]
        for j in range(1, h + 1)
    ]
    for combo in itertools.product(*ranges):
        entries = []
        prev = None
        for j in range(1, h + 1):
            u, v = combo[j - 1]
            cur = (field.from_rational(u) + delta * v) / (
                delta * Fraction(h + 1 - j)
            )
            if prev is None:
                entries.append(cur)
            else:
                entries.append(cur - prev)
            prev = cur
        printed.append(KMatrix([entries]))
    g1_row = inst.G1 if g == 1 else shift_group(1, T)
    matches, detail = _compare_classes(g1_row, printed)
    if not matches:
        warnings.append(
            f"cartan_Ah h={h} d={d}: {detail}; statement-form check skipped"
        )

    checks: list[IdentityCheck] = []
    if matches:
        lhs = _plain_term(
            [_dense_factor(_row_matrix(list(alphas)), B0, q_expected)]
        )
        rhs_terms = []
        row_combos = _vectors(list(itertools.product(*ranges)), g)
        for combo_rows in row_combos:
            factors = []
            for j in range(1, h + 1):
                col_entries = []
                for k in range(g):
                    combo = combo_rows[k]
                    u, v = combo[j - 1]
                    cur = (
                        alphas[j - 1][(k, 0)]
                        + field.from_rational(u)
                        + delta * v
                    ) / (delta * Fraction(h + 1 - j))
                    if j == 1:
                        col_entries.append(cur)
                    else:
                        u0, v0 = combo[j - 2]
                        prev = (
                            alphas[j - 2][(k, 0)]
                            + field.from_rational(u0)
                            + delta * v0
                        ) / (delta * Fraction(h + 2 - j))
                        col_entries.append(cur - prev)
                factors.append(
                    _field_factor(
                        _col(col_entries),
                        _zero_col(field, g),
                        p_diag[j - 1],
                    )
                )
            rhs_terms.append(_plain_term(factors))
        checks.append(
            IdentityCheck(
                name=f"cartan_A{h}_statement_d{d}",
                g=g,
                lhs=(lhs,),
                rhs=tuple(rhs_terms),
            )
        )

    expected_order = 1
    for j in range(1, h + 1):
        expected_order *= dn * (h + 1 - j) ** 2
    expected = {
        "printed_parametrization_count": expected_order**g,
        "computed_G1_order": inst.G1.order,
        "expected_G2_trivial": True,
        "parametrization_matches": matches,
        "Q_is_cartan_matrix": q_ok,
        "scaled_args": [str(x) for x in p_diag],
    }
    return Preset(
        name="cartan_Ah",
        params={"h": h, "d": d, "g": g},
        field=field,
        g=g,
        relation=inst,
        identity_checks=tuple(checks),
        expected=expected,
        warnings=tuple(warnings),
    )


# -- cubic family (d = 3) -------------------------------------------------------


def _cubic_T(field: FieldId) -> KMatrix:
    one = field.one()
    w1 = field.delta() - one  # primitive cube root of unity
    w2 = w1 * w1
    third = Fraction(1, 3)
    return KMatrix(
        [
            [one, one, one],
            [one, w1, w2],
            [one, w2, w1],
        ]
    ).scale(third)


def _cubic_instance(
    field: FieldId, g: int, alphas: Sequence[KMatrix], name: str
) -> RelationInstance:
    T = _cubic_T(field)
    P = KMatrix.identity(3, field).scale(3)
    A0 = _row_matrix(list(alphas)) @ T.conj_transpose()
    B0 = KMatrix([[field.zero()] * 3 for _ in range(g)])
    return build_relation(RelationSpec(field, g, T, P, A0, B0, name=name))


def _cubic_printed_classes(field: FieldId) -> list[KMatrix]:
    third = Fraction(1, 3)
    out = []
    for r in _cubic_r_reps(field):
        for s in _cubic_s_reps(field):
            first = (r * (-2) - s) * third
            second = r * third
            third_slot = (r + s) * third
            out.append(KMatrix([[first, second, third_slot]]))
    return out


def _cubic_statement_check(
    field: FieldId,
    g: int,
    alphas: Sequence[KMatrix],
    name: str,
) -> IdentityCheck:
    one = field.one()
    w1 = field.delta() - one
    w2 = w1 * w1
    third = Fraction(1, 3)
    zero = _zero_col(field, g)
    lhs = _plain_term(
        [_field_factor(a, zero, Fraction(1)) for a in alphas]
    )
    r_vecs = _vectors(_cubic_r_reps(field), g)
    s_vecs = _vectors(_cubic_s_reps(field), g)
    rhs = []
    for rv in r_vecs:
        for sv in s_vecs:
            c1 = []
            c2 = []
            c3 = []
            for k in range(g):
                a1 = alphas[0][(k, 0)]
                a2 = alphas[1][(k, 0)]
                a3 = alphas[2][(k, 0)]
                c1.append((a1 + a2 * w2 + a3 * w1 + rv[k]) * third)
                c2.append((a1 + a2 * w1 + a3 * w2 + rv[k] + sv[k]) * third)
                c3.append((a1 + a2 + a3 + rv[k] - sv[k]) * third)
            rhs.append(
                _plain_term(
                    [_field_factor(_col(c), zero, Fraction(3)) for c in (c1, c2, c3)]
                )
            )
    return IdentityCheck(name=name, g=g, lhs=(lhs,), rhs=tuple(rhs))


def _preset_cubic(g: int = 1, alphas: Optional[Sequence[KMatrix]] = None) -> Preset:
    field = FieldId(3)
    if alphas is None:
        alphas = [_default_alpha(field, g, j + 1) for j in range(3)]
    if len(alphas) != 3:
        raise DomainError("cubic_d3 needs three characteristic columns")
    inst = _cubic_instance(field, g, alphas, "cubic_d3")
    g1_row = inst.G1 if g == 1 else shift_group(1, inst.spec.T)
    matches, detail = _compare_classes(g1_row, _cubic_printed_classes(field))
    warnings = [] if matches else [f"cubic_d3: {detail}"]
    checks = [
        _cubic_statement_check(field, g, alphas, f"cubic_d3_statement_g{g}")
    ]
    expected = {
        "printed_parametrization_count": 27**g,
        "computed_G1_order": inst.G1.order,
        "expected_G1_order": 27**g,
        "expected_G2_trivial": True,
        "parametrization_matches": matches,
        "scaled_args": ["3", "3", "3"],
        "all_phases_zero_when_B0_zero": all(
            t.phase_q == 0 for t in inst.terms
        ),
    }
    return Preset(
        name="cubic_d3",
        params={"g": g},
        field=field,
        g=g,
        relation=inst,
        identity_checks=tuple(checks),
        expected=expected,
        warnings=tuple(warnings),
    )


def _cubic_bracket_display(field: FieldId, g: int, which: int) -> IdentityCheck:
    # corollary 1: (Theta{0,0})^3(W), corollary 2: the product of Theta{0,c}
    # over c in (0, 1, -1); each a 27^g-term sum at 3W over bracket labels
    shift = 0 if which == 1 else 1
    zero_b = _zero_col(field, g)
    lhs = _plain_term(
        [
            _field_factor(
                bracket_to_characteristic(field, [(0, c * shift)] * g),
                zero_b,
                Fraction(1),
            )
            for c in (0, 1, -1)
        ]
    )
    labels = list(itertools.product((0, 1, -1), repeat=3))  # rho1, rho2, sigma2
    rhs = []
    for combo in itertools.product(labels, repeat=g):
        rows1 = [(c[0] - shift, c[1]) for c in combo]
        rows2 = [(c[0] + shift, c[1] + c[2]) for c in combo]
        rows3 = [(c[0], c[1] - c[2]) for c in combo]
        rhs.append(
            _plain_term(
                [
                    _field_factor(
                        bracket_to_characteristic(field, rows), zero_b, Fraction(3)
                    )
                    for rows in (rows1, rows2, rows3)
                ]
            )
        )
    name = "cube" if which == 1 else "product"
    return IdentityCheck(
        name=f"cubic_bracket_{name}_g{g}", g=g, lhs=(lhs,), rhs=tuple(rhs)
    )


def _preset_cubic_cor(
    which: int, g: int = 1, v: Optional[KMatrix] = None
) -> Preset:
    field = FieldId(3)
    if v is None:
        v = _col(
            [field.element(Fraction(1, k + 5), 0) for k in range(g)]
        )
    inv_rt = field.sqrt_minus_d() * Fraction(-1, 3)  # 1/sqrt(-3)
    ones = _const_col(field.one(), g)
    shift = _col([inv_rt for _ in range(g)])
    if which == 1:
        alphas = [v, v, v]
        name = "cubic_d3_cor1"
    else:
        alphas = [v, v + shift, v - shift]
        name = "cubic_d3_cor2"
    inst = _cubic_instance(field, g, alphas, name)

    third = Fraction(1, 3)
    zero_b = _zero_col(field, g)
    lhs = _plain_term([_field_factor(a, zero_b, Fraction(1)) for a in alphas])
    r_vecs = _vectors(_cubic_r_reps(field), g)
    s_vecs = _vectors(_cubic_s_reps(field), g)
    rhs = []
    for rv in r_vecs:
        for sv in s_vecs:
            if which == 1:
                c1 = [rv[k] * third for k in range(g)]
                c2 = [(rv[k] + sv[k]) * third for k in range(g)]
            else:
                c1 = [(rv[k] - ones[(k, 0)]) * third for k in range(g)]
                c2 = [(rv[k] + sv[k] + ones[(k, 0)]) * third for k in range(g)]
            c3 = [v[(k, 0)] + (rv[k] - sv[k]) * third for k in range(g)]
            rhs.append(
                _plain_term(
                    [_field_factor(_col(c), zero_b, Fraction(3)) for c in (c1, c2, c3)]
                )
            )
    checks = [
        IdentityCheck(name=f"{name}_printed_g{g}", g=g, lhs=(lhs,), rhs=tuple(rhs))
    ]
    if v.is_zero() and g <= 2:
        checks.append(_cubic_bracket_display(field, g, which))
    expected = {
        "computed_G1_order": inst.G1.order,
        "expected_G1_order": 27**g,
        "expected_G2_trivial": True,
        "scaled_args": ["3", "3", "3"],
        "specialization": "equal characteristics" if which == 1 else
                          "characteristics split by 1/sqrt(-3)",
    }
    return Preset(
        name=name,
        params={"g": g},
        field=field,
        g=g,
        relation=inst,
        identity_checks=tuple(checks),
        expected=expected,
    )


# -- quartic family (d = 1) ------------------------------------------------------


def _quartic_T(field: FieldId) -> KMatrix:
    one = field.one()
    i_ = field.delta()
    m1 = -one
    mi = -i_
    quarter = Fraction(1, 4)
    return KMatrix(
        [
            [one, i_, i_, m1],
            [i_, one, m1, i_],
            [mi, one, m1, mi],
            [one, mi, mi, m1],
        ]
    ).scale(quarter)


def _quartic_printed_classes(field: FieldId) -> list[KMatrix]:
    i_ = field.delta()
    quarter = Fraction(1, 4)
    out = []
    for r in _quartic_r_reps(field):
        for s1 in _quartic_s_reps(field):
            for s2 in _quartic_s_reps(field):
                slots = [
                    r,
                    r * (-1) * i_ + s1,
                    r * (-1) * i_ + s2,
                    -r - s1 * i_ + s2 * i_,
                ]
                out.append(KMatrix([[x * quarter for x in slots]]))
    return out


def _preset_quartic(g: int = 1, alphas: Optional[Sequence[KMatrix]] = None) -> Preset:
    field = FieldId(1)
    if alphas is None:
        alphas = [_default_alpha(field, g, j + 1) for j in range(4)]
    if len(alphas) != 4:
        raise DomainError("quartic_d1 needs four characteristic columns")
    T = _quartic_T(field)
    P = KMatrix.identity(4, field).scale(4)
    A0 = _row_matrix(list(alphas)) @ T.conj_transpose()
    B0 = KMatrix([[field.zero()] * 4 for _ in range(g)])
    inst = build_relation(RelationSpec(field, g, T, P, A0, B0, name="quartic_d1"))
    g1_row = inst.G1 if g == 1 else shift_group(1, T)
    matches, detail = _compare_classes(g1_row, _quartic_printed_classes(field))
    warnings = [] if matches else [f"quartic_d1: {detail}"]

    i_ = field.delta()
    quarter = Fraction(1, 4)
    zero_b = _zero_col(field, g)
    lhs = _plain_term([_field_factor(a, zero_b, Fraction(1)) for a in alphas])
    r_vecs = _vectors(_quartic_r_reps(field), g)
    s_vecs = _vectors(_quartic_s_reps(field), g)
    rhs = []
    for rv in r_vecs:
        for s1v in s_vecs:
            for s2v in s_vecs:
                cols = [[], [], [], []]
                for k in range(g):
                    a1 = alphas[0][(k, 0)]
                    a2 = alphas[1][(k, 0)]
                    a3 = alphas[2][(k, 0)]
                    a4 = alphas[3][(k, 0)]
                    r = rv[k]
                    s1 = s1v[k]
                    s2 = s2v[k]
                    cols[0].append((a1 - a2 * i_ - a3 * i_ - a4 + r) * quarter)
                    cols[1].append(
                        ((a1 * i_) * (-1) + a2 - a3 - a4 * i_ - r * i_ + s1)
                        * quarter
                    )
                    cols[2].append(
                        (a1 * i_ + a2 - a3 + a4 * i_ - r * i_ + s2) * quarter
                    )
                    cols[3].append(
                        (a1 + a2 * i_ + a3 * i_ - a4 - r - s1 * i_ + s2 * i_)
                        * quarter
                    )
                rhs.append(
                    _plain_term(
                        [
                            _field_factor(_col(c), zero_b, Fraction(4))
                            for c in cols
                        ]
                    )
                )
    checks = [
        IdentityCheck(
            name=f"quartic_d1_statement_g{g}", g=g, lhs=(lhs,), rhs=tuple(rhs)
        )
    ]
    expected = {
        "printed_parametrization_count": 256**g,
        "computed_G1_order": inst.G1.order,
        "expected_G1_order": 256**g,
        "expected_G2_trivial": True,
        "parametrization_matches": matches,
        "scaled_args": ["4", "4", "4", "4"],
    }
    return Preset(
        name="quartic_d1",
        params={"g": g},
        field=field,
        g=g,
        relation=inst,
        identity_checks=tuple(checks),
        expected=expected,
        warnings=tuple(warnings),
    )


def _preset_quartic_zero(g: int = 1) -> Preset:
    field = FieldId(1)
    zero_col = _zero_col(field, g)
    preset = _preset_quartic(g, [zero_col] * 4)
    zero_b = zero_col
    z_char = bracket_to_characteristic(field, [(0, 0)] * g)
    lhs = _plain_term([_field_factor(z_char, zero_b, Fraction(1))] * 4)
    rho_labels = list(itertools.product((0, 1, -1, 2), repeat=2))
    sig_labels = list(itertools.product((0, 2), repeat=2))
    rhs = []
    for rho in itertools.product(rho_labels, repeat=g):
        for sig in itertools.product(sig_labels, repeat=g):
            for sigp in itertools.product(sig_labels, repeat=g):
                rows1 = [(rho[k][0], rho[k][1]) for k in range(g)]
                rows2 = [
                    (rho[k][1] + sig[k][0], -rho[k][0] + sig[k][1])
                    for k in range(g)
                ]
                rows3 = [
                    (rho[k][1] + sigp[k][0], -rho[k][0] + sigp[k][1])
                    for k in range(g)
                ]
                rows4 = [
                    (
                        -rho[k][0] + sig[k][1] - sigp[k][1],
                        -rho[k][1] - sig[k][0] + sigp[k][0],
                    )
                    for k in range(g)
                ]
                rhs.append(
                    _plain_term(
                        [
                            _field_factor(
                                bracket_to_characteristic(field, rows),
                                zero_b,
                                Fraction(4),
                            )
                            for rows in (rows1, rows2, rows3, rows4)
                        ]
                    )
                )
    display = IdentityCheck(
        name=f"quartic_bracket_fourth_g{g}", g=g, lhs=(lhs,), rhs=tuple(rhs)
    )
    return Preset(
        name="quartic_d1_zero",
        params={"g": g},
        field=field,
        g=g,
        relation=preset.relation,
        identity_checks=preset.identity_checks + (display,),
        expected=dict(preset.expected, specialization="all characteristics zero"),
        warnings=preset.warnings,
    )


# -- Matsumoto relation (d = 1) ---------------------------------------------------


def _preset_matsumoto(
    g: int = 1,
    a1: Optional[KMatrix] = None,
    a2: Optional[KMatrix] = None,
    b1: Optional[KMatrix] = None,
    b2: Optional[KMatrix] = None,
) -> Preset:
    field = FieldId(1)
    if a1 is None:
        a1 = _default_alpha(field, g, 1)
    if a2 is None:
        a2 = _default_alpha(field, g, 2)
    if b1 is None:
        b1 = _col(
            [field.element(Fraction(1, k + 4), Fraction(1, k + 2)) for k in range(g)]
        )
    if b2 is None:
        b2 = _col(
            [field.element(Fraction(1, k + 6), Fraction(1, k + 3)) for k in range(g)]
        )
    one = field.one()
    i_ = field.delta()
    half = Fraction(1, 2)
    c = (one - i_) * half
    T = KMatrix([[c, c], [c, -c]])
    P = KMatrix.identity(2, field)
    one_plus_i = one + i_
    # theorem characteristics reproducing the product form on the left
    a1s, a2s, b1s, b2s = (x.scale(one_plus_i) for x in (a1, a2, b1, b2))
    A0 = _row_matrix([a1s, a2s])
    B0 = _row_matrix([b1s, b2s])
    spec = RelationSpec(field, g, T, P, A0, B0, name="matsumoto")
    inst = build_relation(spec)

    # printed G1 = G2: diagonal pairs (e, e) over e in {0, (1-i)/2} per row
    e_reps = [field.zero(), (one - i_) * half]
    printed = []
    for ev in _vectors(e_reps, 1):
        printed.append(KMatrix([[ev[0], ev[0]]]))
    g1_row = inst.G1 if g == 1 else shift_group(1, T)
    m1, d1 = _compare_classes(g1_row, printed)
    g2_row = inst.G2 if g == 1 else character_group(1, T)
    m2, d2 = _compare_classes(g2_row, printed)
    warnings = []
    if not m1:
        warnings.append(f"matsumoto: shift group differs from printed reps: {d1}")
    if not m2:
        warnings.append(f"matsumoto: character group differs from printed reps: {d2}")

    # statement in the linear-phase variant; the coefficient uses conj(e)
    # where the printed form has conj(f), which fails numerically
    warnings.append(
        "matsumoto: printed coefficient exp(2*pi*i*Re((1+i)^t(b1+b2)conj(f))) "
        "does not reproduce the product side for generic b; the verified form "
        "uses conj(e) in its place"
    )
    lhs = _plain_term(
        [
            ThetaFactor(kind="check", a=a1 + a2, b=b1 + b2),
            ThetaFactor(kind="check", a=a1 - a2, b=b1 - b2),
        ],
        scale=Fraction(2**g),
    )
    b_sum = b1 + b2
    rhs = []
    for ev in _vectors(e_reps, g):
        for fv in _vectors(e_reps, g):
            q = Fraction(0)
            for k in range(g):
                q -= (one_plus_i * ev[k].conj() * b_sum[(k, 0)]).re()
            e_col = _col(list(ev))
            f_col = _col(list(fv))
            rhs.append(
                _plain_term(
                    [
                        ThetaFactor(kind="check", a=e_col + a1s, b=f_col + b1s),
                        ThetaFactor(kind="check", a=e_col + a2s, b=f_col + b2s),
                    ],
                    q=q - math.floor(q),
                )
            )
    check = IdentityCheck(
        name=f"matsumoto_statement_g{g}", g=g, lhs=(lhs,), rhs=tuple(rhs)
    )
    expected = {
        "computed_G1_order": inst.G1.order,
        "computed_G2_order": inst.G2.order,
        "expected_G1_order": 2**g,
        "expected_G2_order": 2**g,
        "parametrization_matches": m1 and m2,
        "scaled_args": ["1", "1"],
        "check_variant_conversion":
            "theta_check[a;b] = exp(-2*pi*i*Re(conj(a)^t b)) * theta[a;b]",
        "statement_coefficient":
            "exp(2*pi*i*Re((1+i)^t conj(e)(b1+b2))), rep-independent; "
            "the printed conj(f) variant only agrees when the b phase is trivial",
    }
    return Preset(
        name="matsumoto",
        params={"g": g},
        field=field,
        g=g,
        relation=inst,
        identity_checks=(check,),
        expected=expected,
        warnings=tuple(warnings),
    )


# -- dispatch -------------------------------------------------------------------


def _field_locked(
    name: str, d_req: int, build: Callable[..., Preset]
) -> Callable[..., Preset]:
    def make(d: int = d_req, **params) -> Preset:
        if d != d_req:
            raise DomainError(f"{name} requires d = {d_req}")
        return build(**params)

    return make


_BUILDERS: dict[str, Callable[..., Preset]] = {
    "riemann_quad": _preset_riemann_quad,
    "jacobi_identity": _preset_jacobi_identity,
    "half_formulas": _preset_half_formulas,
    "double_formulas": _preset_double_formulas,
    "prop_half_general": partial(_preset_prop_half, 1),
    "prop_half_general_2": partial(_preset_prop_half, 2),
    "cartan_Ah": _preset_cartan,
    "cubic_d3": _field_locked("cubic_d3", 3, _preset_cubic),
    "cubic_d3_cor1": _field_locked("cubic_d3_cor1", 3, partial(_preset_cubic_cor, 1)),
    "cubic_d3_cor2": _field_locked("cubic_d3_cor2", 3, partial(_preset_cubic_cor, 2)),
    "quartic_d1": _field_locked("quartic_d1", 1, _preset_quartic),
    "quartic_d1_zero": _field_locked("quartic_d1_zero", 1, _preset_quartic_zero),
    "matsumoto": _field_locked("matsumoto", 1, _preset_matsumoto),
}


def make_preset(name: str, **params) -> Preset:
    """Construct a preset by name.  Unknown keys raise TypeError."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        ) from None
    return build(**params)


# -- default samples and the suite ------------------------------------------------


def default_W_samples(g: int) -> list[np.ndarray]:
    """Three deterministic points of the type-I domain per genus."""
    if g == 1:
        return [
            np.array([[1j]]),
            np.array([[0.25 + 0.9j]]),
            np.array([[-0.2 + 1.3j]]),
        ]
    if g == 2:
        return [
            np.array([[1j, 0], [0, 1j]]),
            np.array([[1.0j, 0.3 + 0.2j], [-0.3 + 0.2j, 1.2j]]),
            np.array([[0.2 + 1.1j, -0.1 + 0.15j], [0.1 + 0.15j, 1.0j]]),
        ]
    raise DomainError(f"no default samples for g={g}")


def default_omega_samples(g: int) -> list[np.ndarray]:
    """Symmetric period matrices with positive definite imaginary part."""
    if g == 1:
        return [
            np.array([[1j]]),
            np.array([[2j]]),
            np.array([[(1 + 5j) / 3]]),
        ]
    if g == 2:
        return [
            np.array([[1j, 0], [0, 1j]]),
            np.array([[1.1j, 0.2 + 0.1j], [0.2 + 0.1j, 0.9j]]),
            np.array([[0.3 + 1.2j, -0.15j], [-0.15j, 0.1 + 1.0j]]),
        ]
    raise DomainError(f"no default samples for g={g}")


DEFAULT_SUITE_PLAN: tuple[tuple[str, dict], ...] = (
    ("jacobi_identity", {}),
    ("half_formulas", {}),
    ("double_formulas", {}),
    ("riemann_quad", {"g": 1}),
    ("riemann_quad", {"g": 2}),
    ("cubic_d3", {"g": 1}),
    ("cubic_d3", {"g": 2}),
    ("cubic_d3_cor1", {"g": 1}),
    ("cubic_d3_cor2", {"g": 1}),
    ("quartic_d1", {"g": 1}),
    ("quartic_d1_zero", {"g": 1}),
    ("matsumoto", {"g": 1}),
    ("matsumoto", {"g": 2}),
    ("prop_half_general", {"d": 1}),
    ("prop_half_general", {"d": 2}),
    ("prop_half_general", {"d": 3}),
    ("prop_half_general", {"d": 7}),
    ("prop_half_general_2", {"d": 1}),
    ("prop_half_general_2", {"d": 2}),
    ("prop_half_general_2", {"d": 3}),
    ("prop_half_general_2", {"d": 7}),
    ("cartan_Ah", {"h": 2, "d": 1}),
    ("cartan_Ah", {"h": 2, "d": 3}),
    ("cartan_Ah", {"h": 3, "d": 1}),
    ("cartan_Ah", {"h": 3, "d": 3}),
)


@dataclass
class SuiteResult:
    reports: list
    warnings: list
    seconds: list  # parallel to reports; kept out of the JSON payload

    @property
    def all_passed(self) -> bool:
        return all(r["passed"] for r in self.reports)

    def to_json(self) -> str:
        return json.dumps(
            {"reports": self.reports, "warnings": self.warnings}, indent=2
        )

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["preset", "g", "d", "order_G1", "residual_rel", "seconds"])
        for row, sec in zip(self.reports, self.seconds):
            writer.writerow(
                [
                    row["id"],
                    row["g"],
                    row["d"] if row["d"] is not None else "",
                    row["order_G1"] if row["order_G1"] is not None else "",
                    f"{row['residual_rel']:.3e}",
                    f"{sec:.3f}",
                ]
            )
        return buf.getvalue()


def _run_one_preset(
    entry: tuple[str, dict], params: ThetaParams
) -> tuple[list, list, list]:
    name, kwargs = entry
    preset = make_preset(name, **dict(kwargs))
    rows = []
    secs = []
    warnings = [w for w in preset.warnings]
    d_val = preset.field.d if preset.field is not None else None

    def add_row(check_id: str, w_idx: int, order_g1, rep) -> None:
        rows.append(
            {
                "id": check_id,
                "preset": preset.name,
                "params": {k: v for k, v in preset.params.items()
                           if isinstance(v, (int, str))},
                "g": preset.g,
                "d": d_val,
                "W_index": w_idx,
                "order_G1": order_g1,
                "residual_abs": rep.residual_abs,
                "residual_rel": rep.residual_rel,
                "term_count": rep.term_count,
                "theta_evals": rep.theta_evals,
                "cache_hits": rep.cache_hits,
                "tolerance": rep.tolerance,
                "passed": rep.passed,
            }
        )

    if preset.relation is not None:
        for w_idx, W in enumerate(default_W_samples(preset.g)):
            t0 = time.perf_counter()
            rep = evaluate_relation(preset.relation, W, params)
            secs.append(time.perf_counter() - t0)
            add_row(
                _entry_id(preset, "relation", w_idx),
                w_idx,
                preset.relation.G1.order,
                rep,
            )
    for check in preset.identity_checks:
        samples = (
            default_omega_samples(check.g)
            if check.needs_symmetric_W
            else default_W_samples(check.g)
        )
        for w_idx, W in enumerate(samples):
            t0 = time.perf_counter()
            rep = check.evaluate(W, params)
            secs.append(time.perf_counter() - t0)
            order_g1 = (
                preset.relation.G1.order if preset.relation is not None else None
            )
            add_row(_entry_id(preset, check.name, w_idx), w_idx, order_g1, rep)
    return rows, secs, warnings


def _entry_id(preset: Preset, check: str, w_idx: int) -> str:
    parts = [preset.name]
    for key in ("d", "h", "g"):
        if key in preset.params:
            parts.append(f"{key}{preset.params[key]}")
    if check != preset.name:
        parts.append(check)
    parts.append(f"W{w_idx}")
    return ":".join(parts)


def run_paper_suite(
    params: Optional[ThetaParams] = None,
    threads: int = 1,
    plan: Optional[Sequence[tuple[str, dict]]] = None,
) -> SuiteResult:
    """Evaluate the full worked-example catalog at the default samples.

    Reports come back in plan order regardless of thread count, and the
    JSON payload contains no timing data, so output is reproducible.
    """
    if params is None:
        params = ThetaParams()
    if plan is None:
        plan = DEFAULT_SUITE_PLAN
    entries = list(plan)
    results: list[tuple[list, list, list]]
    if threads <= 1:
        results = [_run_one_preset(e, params) for e in entries]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(
                pool.map(lambda e: _run_one_preset(e, params), entries)
            )
    reports: list = []
    warnings: list = []
    seconds: list = []
    for rows, secs, warns in results:
        reports.extend(rows)
        seconds.extend(secs)
        warnings.extend(warns)
    return SuiteResult(reports=reports, warnings=warnings, seconds=seconds)
