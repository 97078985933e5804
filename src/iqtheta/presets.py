"""Catalog of worked theta relations and classical identity checks.

Each preset bundles an exactly constructed relation instance (where one
exists), identity checks, expected group metadata, and warnings produced
by cross-checking the printed index-set parametrizations against the
computed shift group.  Pass or fail always rides on the computed groups; a
printed parametrization that enumerates a different class set only
produces a warning.

Every preset is assembled by one of two builders:

- `_family_preset`, for the (T, P) families (the two-fold propositions,
  Cartan, cubic and its corollaries, quartic and its zero case,
  Matsumoto).  A family writes its printed one-row classes once, read
  into integer rows over one denominator (`_int_rows`).  The rows are
  compared exactly with G1 (`_compare_classes`), and the statement check
  (`_printed_check`) is the relation's own expansion over them.  Further
  checks ride along: the cubic and quartic bracket displays
  (`_bracket_check`) and Matsumoto's check-variant statement, whose keys
  are read off the same rows (thetas._part_keys).
- `_identity_preset`, for the real-theta identities (Jacobi, the half and
  double formulas, Riemann's quartic), each given as data: a check is
  (name, lhs, rhs), a side a list of terms (scale, factors), and a factor
  (a, b, s) is Theta[a; b](s Omega).

Every check side is a compiled sum (relations._Sum), emitted by
relations._sum or relations._right_side as relation sides are: rows of integer leaf keys
(thetas._leaf_keys) with integer phases over one denominator and one
coefficient scale, the only description of the side, so no check lowers
a factor.  A check compares its sides as a relation does
(relations._compare_sides).
"""

from __future__ import annotations

import csv
import inspect
import io
import itertools
import json
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from functools import cache, cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .kfield import FieldId, KElement, KMatrix, re_trace_of_product
from .lattices import FiniteAbelianGroup, _int_coords, character_group, shift_group
from .relations import (
    RelationInstance,
    RelationSpec,
    VerificationReport,
    _check_max_order,
    _compare_sides,
    _Plans,
    _Sum,
    _right_side,
    _sum,
    build_relation,
    evaluate_relation,
)
from .thetas import (MatrixLike, ThetaCache, ThetaParams, _int_key, _leaf_keys, _part_keys,
                     _z_factor)

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

# -- identity check framework ------------------------------------------------


@dataclass(frozen=True)
class IdentityCheck:
    """lhs == rhs, each side a sum of coefficiented theta products,
    compiled to integer leaves (relations._Sum); its term count is the
    rows of both, and no scale multiplies either sum."""

    name: str
    g: int
    lhs: _Sum
    rhs: _Sum

    @property
    def needs_symmetric_W(self) -> bool:
        """Whether W must be a symmetric Omega: the sums run over Z."""
        return self.lhs.lattice == "Z"

    @cached_property
    def _plans(self) -> _Plans:
        return _Plans(self.lhs, self.rhs)

    def evaluate(
        self, W: MatrixLike, params: Optional[ThetaParams] = None,
        cache: Optional[ThetaCache] = None,
    ) -> VerificationReport:
        """lhs against rhs at W, family values read through cache when one
        is given (see relations.evaluate_relation)."""
        return _compare_sides(self._plans, W, params, len(self.lhs.rows) + len(self.rhs.rows),
                              cache=cache)


# -- small constructors ------------------------------------------------------


def _col(entries: Sequence[KElement]) -> KMatrix:
    return KMatrix.column_vector(list(entries))


def _row_matrix(cols: Sequence[KMatrix]) -> KMatrix:
    g = cols[0].rows
    return KMatrix(
        [[c[(i, 0)] for c in cols] for i in range(g)]
    )


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


def _bracket_check(
    name: str,
    field: FieldId,
    g: int,
    lhs_rows: Sequence[Sequence[tuple[int, int]]],
    rhs_rows: Sequence[Sequence[Sequence[tuple[int, int]]]],
    scale: int,
) -> IdentityCheck:
    """A bracket display: on the left the product over lhs_rows of the
    thetas at W, on the right, for each term of rhs_rows, the product of
    the thetas at scale*W; each factor's characteristic is the column of
    its g bracket labels (bracket_to_characteristic), with b = 0."""
    zero = KMatrix.zeros(g, 1, field)
    leaf = cache(lambda rows, s: _leaf_keys(
        KMatrix([[field.from_rational(s)]]), bracket_to_characteristic(field, rows), zero)[0])

    def side(terms: Sequence[Sequence[Sequence[tuple[int, int]]]], s: int) -> _Sum:
        return _sum([(0, [leaf(tuple(rows), s) for rows in t]) for t in terms])

    return IdentityCheck(name=name, g=g, lhs=side([lhs_rows], 1), rhs=side(rhs_rows, scale))


# -- printed parametrizations -------------------------------------------------

_Classes = tuple[list[tuple[int, ...]], int]  # integer rows over one denominator (_int_rows)


def _int_rows(printed: Sequence[KMatrix]) -> _Classes:
    """The printed one-row classes as integer coordinate rows over one
    denominator (see lattices._int_coords), and that denominator."""
    nums, den = _int_coords(KMatrix([m.entry_rows()[0] for m in printed]))
    n = len(nums) // len(printed)
    return [tuple(nums[k:k + n]) for k in range(0, len(nums), n)], den


def _compare_classes(group: FiniteAbelianGroup, classes: _Classes) -> tuple[bool, str]:
    """Exact comparison of the printed class multiset with the group, each
    class keyed in integers as a leaf keys its A0 (thetas._int_key with
    center), the group's read off its coordinates."""
    rows, den = classes
    printed_keys = Counter(_int_key(r, den, center=True) for r in rows)
    group_keys = {_int_key(v, group.scale, center=True) for v in group.coords}
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


def _printed_relation(
    name: str,
    field: FieldId,
    g: int,
    T: KMatrix,
    P: KMatrix,
    alphas: Sequence[KMatrix],
    printed: Sequence[KMatrix],
    max_order: int,
) -> tuple[RelationInstance, bool, str, _Classes]:
    """The relation with A0 = (alphas) conj(T)^t and B0 = 0, so that its
    left side is Theta^Q[(alphas); 0], whether the printed one-row classes
    enumerate the one-row shift group (G1 = G(1)^g), and the classes."""
    A0 = _row_matrix(list(alphas)) @ T.conj_transpose()
    B0 = KMatrix.zeros(g, T.rows, field)
    inst = build_relation(RelationSpec(field, g, T, P, A0, B0, name=name), max_order)
    classes = _int_rows(printed)
    matches, detail = _compare_classes(inst.G1 if g == 1 else shift_group(1, T), classes)
    return inst, matches, detail, classes


def _printed_check(inst: RelationInstance, classes: _Classes, name: str) -> IdentityCheck:
    """The relation restated over its printed classes, for B0 = 0 and
    trivial G2, each leaf its own factor at eps: its left side, and its
    right side (relations._right_side) with A over every g-tuple of
    printed rows and b = 0."""
    (rows, den), spec = classes, inst.spec
    a_reps = (sum(rho, ()) for rho in itertools.product(rows, repeat=spec.g))
    rhs = _right_side(spec, a_reps, den, [[0] * (2 * spec.g * spec.h)], 1, 1)
    return IdentityCheck(name=name, g=spec.g, lhs=replace(inst.lhs, factor_leaves=1), rhs=rhs)


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


def _family_preset(
    name: str,
    params: dict,
    inst: RelationInstance,
    classes: Optional[_Classes],
    check: Optional[str],
    expected: dict,
    warnings: Sequence[str] = (),
    extra: Sequence[IdentityCheck] = (),
) -> Preset:
    """A (T, P) family's preset: its relation, the statement check named
    check over the printed classes (none when check is None), then the
    extra checks."""
    checks = () if check is None else (_printed_check(inst, classes, check),)
    return Preset(
        name=name,
        params=params,
        field=inst.spec.field,
        g=inst.spec.g,
        relation=inst,
        identity_checks=checks + tuple(extra),
        expected=expected,
        warnings=tuple(warnings),
    )


def _default_alpha(field: FieldId, g: int, j: int) -> KMatrix:
    # deterministic small characteristics, distinct per slot and row
    return _col(
        [field.element(Fraction(1, j + k + 2), Fraction(1, j + k + 3))
         for k in range(g)]
    )


# -- classical real-theta presets ---------------------------------------------


def _identity_preset(
    name: str, params: dict, g: int, expected: dict, checks: Sequence[tuple]
) -> Preset:
    """Real-theta identities, each at symmetric Omega.  A check is (name,
    lhs, rhs), a side a list of terms (scale, factors) of one scale, and a
    factor (a, b, s) is Theta[a; b](s Omega), a and b g-tuples of
    rationals, compiled over Z; each distinct factor is keyed once."""

    @cache
    def leaf(a: tuple, b: tuple, s: object) -> tuple:
        A0, B0, P, _ = _z_factor(a, b, s)
        return _leaf_keys(P, A0, B0)[0]

    def side(terms: Sequence[tuple]) -> _Sum:
        (scale,) = {scale for scale, _ in terms}
        return _sum([(0, [leaf(*f) for f in factors]) for _, factors in terms],
                    coeff_scale=Fraction(scale), lattice="Z")

    return Preset(
        name=name,
        params=params,
        field=None,
        g=g,
        relation=None,
        identity_checks=tuple(
            IdentityCheck(check, g, side(lhs), side(rhs))
            for check, lhs, rhs in checks
        ),
        expected=expected,
    )


# Theta[a; b](s Omega) at g = 1, as (a, b, s)
_HALF = Fraction(1, 2)
_T00, _T10, _T01 = ((0,), (0,), 1), ((_HALF,), (0,), 1), ((0,), (_HALF,), 1)
_T00_2, _T10_2, _T01_2 = ((0,), (0,), 2), ((_HALF,), (0,), 2), ((0,), (_HALF,), 2)

_GENUS_ONE = {
    "jacobi_identity": (
        ("jacobi_identity", [(1, [_T00] * 4)], [(1, [_T10] * 4), (1, [_T01] * 4)]),
    ),
    "half_formulas": (
        ("half_formulas_sum_of_squares", [(1, [_T00, _T00])],
         [(1, [_T00_2, _T00_2]), (1, [_T10_2, _T10_2])]),
        ("half_formulas_cross", [(1, [_T10, _T10])], [(2, [_T00_2, _T10_2])]),
    ),
    "double_formulas": (
        ("double_formulas_average", [(1, [_T00_2, _T00_2])],
         [(_HALF, [_T00, _T00]), (_HALF, [_T01, _T01])]),
        ("double_formulas_geometric", [(1, [_T01_2, _T01_2])], [(1, [_T00, _T01])]),
    ),
}


def _preset_genus_one(name: str) -> Preset:
    checks = _GENUS_ONE[name]
    return _identity_preset(name, {}, 1, {"identity_count": len(checks)}, checks)


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
    for name, a in (("a1", a1), ("a2", a2)):
        if len(a) != g:
            raise DomainError(f"riemann_quad: {name} must have g = {g} entries, got {len(a)}")
    zeros = (0,) * g
    rhs = []
    for dvec in itertools.product((0, 1), repeat=g):
        c1 = tuple((d + x + y) / 2 for d, x, y in zip(dvec, a1, a2))
        c2 = tuple((d + x - y) / 2 for d, x, y in zip(dvec, a1, a2))
        rhs.append((1, [(c1, zeros, 2), (c2, zeros, 2)]))
    return _identity_preset(
        "riemann_quad",
        {"g": g, "a1": [str(x) for x in a1], "a2": [str(x) for x in a2]},
        g,
        {"rhs_terms": 2**g},
        [(f"riemann_quad_g{g}", [(1, [(a1, zeros, 1), (a2, zeros, 1)])], rhs)],
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
    max_order: int = 10**6,
) -> Preset:
    field = FieldId(d)
    if alpha1 is None:
        alpha1 = _default_alpha(field, g, 1)
    if alpha2 is None:
        alpha2 = _default_alpha(field, g, 2)
    dn = field.delta_norm
    cd = field.delta().conj()
    one = field.one()
    first = cd if variant == 1 else one
    T = KMatrix([[first, one], [first, -one]]).scale(one / (cd * 2))
    P = KMatrix.from_rational_rows([[2 * dn, 0], [0, 2 * dn]], field)
    name = "prop_half_general" if variant == 1 else "prop_half_general_2"
    printed = _prop_printed_shifts(field)
    inst, matches, detail, classes = _printed_relation(
        name, field, g, T, P, [alpha1, alpha2], printed, max_order
    )
    expected = {
        "printed_parametrization_count": len(printed) ** g,
        "computed_G1_order": inst.G1.order,
        "expected_G2_trivial": True,
        "parametrization_matches": matches,
        "scaled_args": [str(2 * dn)] * 2,
    }
    skipped = (f"{name} d={d}: {detail}; statement-form check skipped, "
               "verification uses the computed shift group")
    return _family_preset(
        name, {"d": d, "g": g}, inst, classes,
        f"{name}_statement_d{d}" if matches else None, expected,
        () if matches else (skipped,),
    )


# -- Cartan chain --------------------------------------------------------------


def _preset_cartan(
    h: int = 2, d: int = 1, g: int = 1, alphas: Optional[Sequence[KMatrix]] = None,
    max_order: int = 10**6,
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
    T = KMatrix.from_rational_rows(
        [[Fraction(1, h - i) if j == i else Fraction(-1, h - i + 1) if j == i - 1 else 0
          for j in range(h)] for i in range(h)], field).scale(field.one() / cd)
    p_diag = [Fraction((h + 2 - j) * (h + 1 - j)) * dn for j in range(1, h + 1)]
    P = KMatrix.from_rational_rows(
        [[p_diag[i] if i == j else 0 for j in range(h)] for i in range(h)], field)
    # printed classes, one row: entry j is c_j - c_{j-1} with
    # c_j = (u + delta v) / (delta (h + 1 - j)), c_0 = 0
    printed = []
    ranges = [
        [(u, v) for u in range(dn * (h + 1 - j)) for v in range(h + 1 - j)]
        for j in range(1, h + 1)
    ]
    for combo in itertools.product(*ranges):
        cur = [
            (field.from_rational(u) + delta * v) / (delta * Fraction(h + 1 - j))
            for j, (u, v) in enumerate(combo, 1)
        ]
        printed.append(KMatrix([[c - p for c, p in zip(cur, [zero] + cur)]]))
    inst, matches, detail, classes = _printed_relation(
        f"cartan_A{h}", field, g, T, P, alphas, printed, max_order
    )

    # Q must be the Cartan matrix exactly
    q_ok = inst.Q == KMatrix.from_rational_rows(
        [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(h)] for i in range(h)],
        field)
    warnings = []
    if not q_ok:
        warnings.append(f"cartan_Ah h={h} d={d}: Q differs from the Cartan matrix")
    if not matches:
        warnings.append(
            f"cartan_Ah h={h} d={d}: {detail}; statement-form check skipped"
        )
    expected = {
        "printed_parametrization_count": len(printed) ** g,
        "computed_G1_order": inst.G1.order,
        "expected_G2_trivial": True,
        "parametrization_matches": matches,
        "Q_is_cartan_matrix": q_ok,
        "scaled_args": [str(x) for x in p_diag],
    }
    return _family_preset(
        "cartan_Ah", {"h": h, "d": d, "g": g}, inst, classes,
        f"cartan_A{h}_statement_d{d}" if matches else None, expected, warnings,
    )


# -- cubic family (d = 3) -------------------------------------------------------


def _cubic_relation(
    name: str, g: int, alphas: Sequence[KMatrix], max_order: int
) -> tuple[RelationInstance, bool, str, _Classes]:
    """T = (1/3)[[1, 1, 1], [1, w, w^2], [1, w^2, w]] with w a primitive cube
    root of unity, P = 3I, and the printed classes
    ((-2r - s)/3, r/3, (r + s)/3), r in O_K/3O_K, s in sqrt(-3){0, 1, -1}."""
    field = FieldId(3)
    one = field.one()
    w1 = field.delta() - one
    w2 = w1 * w1
    third = Fraction(1, 3)
    T = KMatrix([[one, one, one], [one, w1, w2], [one, w2, w1]]).scale(third)
    rt = field.sqrt_minus_d()
    r_reps = [field.from_rational(c1) + rt * c2 for c1 in (0, 1, -1) for c2 in (0, 1, -1)]
    s_reps = [rt * c for c in (0, 1, -1)]
    printed = [
        KMatrix([[(r * (-2) - s) * third, r * third, (r + s) * third]])
        for r in r_reps
        for s in s_reps
    ]
    return _printed_relation(
        name, field, g, T, KMatrix.identity(3, field).scale(3), alphas, printed, max_order
    )


def _preset_cubic(
    g: int = 1, alphas: Optional[Sequence[KMatrix]] = None, max_order: int = 10**6
) -> Preset:
    field = FieldId(3)
    if alphas is None:
        alphas = [_default_alpha(field, g, j + 1) for j in range(3)]
    if len(alphas) != 3:
        raise DomainError("cubic_d3 needs three characteristic columns")
    inst, matches, detail, classes = _cubic_relation("cubic_d3", g, alphas, max_order)
    expected = {
        "printed_parametrization_count": len(classes[0]) ** g,
        "computed_G1_order": inst.G1.order,
        "expected_G1_order": 27**g,
        "expected_G2_trivial": True,
        "parametrization_matches": matches,
        "scaled_args": ["3", "3", "3"],
        "all_phases_zero_when_B0_zero": all(q == 0 for q, _ in inst.rhs.rows),
    }
    return _family_preset(
        "cubic_d3", {"g": g}, inst, classes, f"cubic_d3_statement_g{g}", expected,
        () if matches else (f"cubic_d3: {detail}",),
    )


def _preset_cubic_cor(
    which: int, g: int = 1, v: Optional[KMatrix] = None, max_order: int = 10**6
) -> Preset:
    field = FieldId(3)
    if v is None:
        v = _col(
            [field.element(Fraction(1, k + 5), 0) for k in range(g)]
        )
    inv_rt = field.sqrt_minus_d() * Fraction(-1, 3)  # 1/sqrt(-3)
    shift = _col([inv_rt for _ in range(g)])
    if which == 1:
        alphas = [v, v, v]
        name = "cubic_d3_cor1"
    else:
        alphas = [v, v + shift, v - shift]
        name = "cubic_d3_cor2"
    inst, _, _, classes = _cubic_relation(name, g, alphas, max_order)
    display = ()
    if v.is_zero() and g <= 2:
        # corollary 1: (Theta{0,0})^3(W), corollary 2: the product of
        # Theta{0,c} over c in (0, 1, -1); each a 27^g-term sum at 3W over
        # the bracket labels (rho1, rho2, sigma2) of each row
        step = 0 if which == 1 else 1
        rhs = [list(zip(*[((r1 - step, r2), (r1 + step, r2 + s2), (r1, r2 - s2))
                          for r1, r2, s2 in combo]))
               for combo in itertools.product(itertools.product((0, 1, -1), repeat=3),
                                              repeat=g)]
        display = (_bracket_check(
            f"cubic_bracket_{'cube' if which == 1 else 'product'}_g{g}", field, g,
            [[(0, c * step)] * g for c in (0, 1, -1)], rhs, 3),)
    expected = {
        "computed_G1_order": inst.G1.order,
        "expected_G1_order": 27**g,
        "expected_G2_trivial": True,
        "scaled_args": ["3", "3", "3"],
        "specialization": "equal characteristics" if which == 1 else
                          "characteristics split by 1/sqrt(-3)",
    }
    return _family_preset(
        name, {"g": g}, inst, classes, f"{name}_printed_g{g}", expected, extra=display
    )


# -- quartic family (d = 1) ------------------------------------------------------


def _preset_quartic(
    g: int = 1, alphas: Optional[Sequence[KMatrix]] = None, max_order: int = 10**6
) -> Preset:
    field = FieldId(1)
    if alphas is None:
        alphas = [_default_alpha(field, g, j + 1) for j in range(4)]
    if len(alphas) != 4:
        raise DomainError("quartic_d1 needs four characteristic columns")
    one = field.one()
    i_ = field.delta()
    quarter = Fraction(1, 4)
    T = KMatrix(
        [
            [one, i_, i_, -one],
            [i_, one, -one, i_],
            [-i_, one, -one, -i_],
            [one, -i_, -i_, -one],
        ]
    ).scale(quarter)
    # printed classes (r, -ir + s1, -ir + s2, -r - is1 + is2)/4 with
    # r in O_K/4O_K and s1, s2 in 2O_K/4O_K
    r_reps = [field.element(r1, r2) for r1 in (0, 1, -1, 2) for r2 in (0, 1, -1, 2)]
    s_reps = [field.element(s1, s2) for s1 in (0, 2) for s2 in (0, 2)]
    printed = [
        KMatrix([[x * quarter for x in (r, -r * i_ + s1, -r * i_ + s2,
                                        -r - s1 * i_ + s2 * i_)]])
        for r in r_reps
        for s1 in s_reps
        for s2 in s_reps
    ]
    inst, matches, detail, classes = _printed_relation(
        "quartic_d1", field, g, T, KMatrix.identity(4, field).scale(4), alphas, printed,
        max_order,
    )
    expected = {
        "printed_parametrization_count": len(printed) ** g,
        "computed_G1_order": inst.G1.order,
        "expected_G1_order": 256**g,
        "expected_G2_trivial": True,
        "parametrization_matches": matches,
        "scaled_args": ["4", "4", "4", "4"],
    }
    return _family_preset(
        "quartic_d1", {"g": g}, inst, classes, f"quartic_d1_statement_g{g}", expected,
        () if matches else (f"quartic_d1: {detail}",),
    )


def _preset_quartic_zero(g: int = 1, max_order: int = 10**6) -> Preset:
    # quartic_d1 at zero characteristics, with the bracket display added
    field = FieldId(1)
    preset = _preset_quartic(g, [KMatrix.zeros(g, 1, field)] * 4, max_order)
    # (Theta{0,0})^4(W) as a 256^g-term sum at 4W over the bracket labels
    # rho in O_K/4O_K and sigma, sigma' in 2O_K/4O_K of each row
    rho_labels = list(itertools.product((0, 1, -1, 2), repeat=2))
    sig_labels = list(itertools.product((0, 2), repeat=2))
    rhs = [
        list(zip(*[((r1, r2), (r2 + s1, -r1 + s2), (r2 + t1, -r1 + t2),
                    (-r1 + s2 - t2, -r2 - s1 + t1))
                   for (r1, r2), (s1, s2), (t1, t2) in zip(rho, sig, sigp)]))
        for rho in itertools.product(rho_labels, repeat=g)
        for sig in itertools.product(sig_labels, repeat=g)
        for sigp in itertools.product(sig_labels, repeat=g)
    ]
    display = _bracket_check(f"quartic_bracket_fourth_g{g}", field, g,
                             [[(0, 0)] * g] * 4, rhs, 4)
    return _family_preset(
        "quartic_d1_zero", {"g": g}, preset.relation, None, None,
        dict(preset.expected, specialization="all characteristics zero"),
        preset.warnings, preset.identity_checks + (display,),
    )


# -- Matsumoto relation (d = 1) ---------------------------------------------------


def _preset_matsumoto(
    g: int = 1,
    a1: Optional[KMatrix] = None,
    a2: Optional[KMatrix] = None,
    b1: Optional[KMatrix] = None,
    b2: Optional[KMatrix] = None,
    max_order: int = 10**6,
) -> Preset:
    field = FieldId(1)
    if a1 is None:
        a1 = _default_alpha(field, g, 1)
    if a2 is None:
        a2 = _default_alpha(field, g, 2)
    if b1 is None:
        b1 = _col([field.element(Fraction(1, k + 4), Fraction(1, k + 2)) for k in range(g)])
    if b2 is None:
        b2 = _col([field.element(Fraction(1, k + 6), Fraction(1, k + 3)) for k in range(g)])
    for name, x in (("a1", a1), ("a2", a2), ("b1", b1), ("b2", b2)):
        if not (isinstance(x, KMatrix) and (x.rows, x.cols) == (g, 1) and x.field == field):
            got = (f"{x.rows} x {x.cols} over d = {x.field.d}" if isinstance(x, KMatrix)
                   else type(x).__name__)
            raise DomainError(f"matsumoto: {name} must be a {g} x 1 KMatrix over d = 1, "
                              f"got {got}")
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
    inst = build_relation(spec, max_order)

    # printed G1 = G2: diagonal pairs (e, e) over e in {0, (1-i)/2} per row
    e_reps = [field.zero(), (one - i_) * half]
    classes = _int_rows([KMatrix([[e, e]]) for e in e_reps])
    g1_row = inst.G1 if g == 1 else shift_group(1, T)
    m1, d1 = _compare_classes(g1_row, classes)
    g2_row = inst.G2 if g == 1 else character_group(1, T)
    m2, d2 = _compare_classes(g2_row, classes)
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

    # Over d = 1 (-1 is not 1 mod 4), theta_check[a; b] is
    # exp(-2*pi*i*Re(a^H b)) Theta^[[1]][a; b]: one leaf over P = [[1]], its
    # phase in its term's q.  Left: 2^g times the thetas at (a1 + a2,
    # b1 + b2) and (a1 - a2, b1 - b2)
    pairs = ((a1 + a2, b1 + b2), (a1 - a2, b1 - b2))
    q_lhs = sum(re_trace_of_product(a, b) for a, b in pairs) % 1
    lhs = [_leaf_keys(KMatrix([[one]]), a, b)[0] for a, b in pairs]
    p = lhs[0][0]
    # Right: for each g-tuple e and f of choices in e_reps (f inner), the
    # thetas at (e + a1s, f + b1s) and (e + a2s, f + b2s), all read off the
    # per-row choices (e_k, f_k): keys concatenate rows, and q sums the
    # rows' integer phases -Re((1+i) conj(e_k)(b1 + b2)_k) + Re(conj(e_k +
    # a1s_k)(f_k + b1s_k)) + Re(conj(e_k + a2s_k)(f_k + b2s_k)) over q_den
    cols = [[m[(k, 0)] for k in range(g)] for m in (a1s, a2s, b1s, b2s, b1 + b2)]
    # per column, the key of e + col for each g-tuple e (the first entries
    # of the printed rows), A0's (a1s, a2s) centered
    rows, den = classes
    e_tuples = [sum(t, ()) for t in itertools.product([r[:2] for r in rows], repeat=g)]
    keys = [[table[i] for (i,) in parts] for parts, table in (
        _part_keys(*_int_coords(m), e_tuples, den, g, 1, 1, k < 2)
        for k, m in enumerate((a1s, a2s, b1s, b2s)))]
    phases = [[[-(one_plus_i * e.conj() * y).re() + ((e + x1).conj() * (f + y1)).re()
                + ((e + x2).conj() * (f + y2)).re() for f in e_reps] for e in e_reps]
              for x1, x2, y1, y2, y in zip(*cols)]
    q_den = math.lcm(*(r.denominator for row in phases for rs in row for r in rs))
    phases = [[[r.numerator * (q_den // r.denominator) for r in rs] for rs in row]
              for row in phases]
    rhs = (
        (q % q_den, [(p, keys[0][i], keys[2][j]), (p, keys[1][i], keys[3][j])])
        for i, es in enumerate(itertools.product((0, 1), repeat=g))
        for j, q in enumerate(map(sum, itertools.product(*(r[e] for r, e in zip(phases, es)))))
    )
    check = IdentityCheck(
        name=f"matsumoto_statement_g{g}", g=g, rhs=_sum(rhs, q_den=q_den),
        lhs=_sum([(q_lhs.numerator, lhs)], q_den=q_lhs.denominator, coeff_scale=Fraction(2**g)))
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
    return _family_preset(
        "matsumoto", {"g": g}, inst, None, None, expected, warnings, (check,)
    )


# -- dispatch -------------------------------------------------------------------


def _field_locked(
    name: str, d_req: int, build: Callable[..., Preset]
) -> Callable[..., Preset]:
    def make(d: int = d_req, **params) -> Preset:
        if d != d_req:
            raise DomainError(f"{name} requires d = {d_req}")
        return build(**params)

    # make takes d and the parameters of build (see make_preset)
    sig = inspect.signature(build)
    d_param = inspect.Parameter("d", inspect.Parameter.POSITIONAL_OR_KEYWORD, default=d_req)
    make.__signature__ = sig.replace(parameters=[d_param, *sig.parameters.values()])
    return make


_BUILDERS: dict[str, Callable[..., Preset]] = {
    "riemann_quad": _preset_riemann_quad,
    **{name: partial(_preset_genus_one, name) for name in _GENUS_ONE},
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
PRESET_NAMES = tuple(_BUILDERS)


def make_preset(name: str, max_order: int = 10**6, **params) -> Preset:
    """Construct a preset by name.  max_order caps the groups and the term
    count of its relation, if it has one (see build_relation); a cap below
    1 raises ValueError either way.  A parameter that the preset does not
    take raises TypeError, naming the ones it takes."""
    try:
        build = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        ) from None
    accepted = inspect.signature(build).parameters
    takes = [p for p in accepted if p != "max_order"]
    unknown = [k for k in params if k not in takes]
    if unknown:
        raise TypeError(f"preset {name}: takes {', '.join(takes) or 'no parameters'}; "
                        f"got unexpected keyword {', '.join(unknown)}")
    if params.get("g", 1) < 1:
        raise ValueError(f"preset {name} needs g >= 1, got g = {params['g']}")
    _check_max_order(max_order)
    if "max_order" in accepted:
        params["max_order"] = max_order
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
    """The report rows, per-report seconds and warnings of one suite entry:
    its relation and each identity check at each sample W.

    The entry's evaluations share one table of family values (a
    ThetaCache), dropped when the entry ends: the built relation and the
    printed statement read many families at one W, at eps/h and at eps,
    and evaluate each once where both give one radius.  The reports'
    theta_evals and cache_hits stay the counts of each plan's leaves."""
    name, kwargs = entry
    preset = make_preset(name, **dict(kwargs))
    head = {
        "preset": preset.name,
        "params": {k: v for k, v in preset.params.items() if isinstance(v, (int, str))},
        "g": preset.g,
        "d": preset.field.d if preset.field is not None else None,
    }
    order_g1 = preset.relation.G1.order if preset.relation is not None else None
    # (check id, samples, evaluation at (W, params)) in report order
    runs = [] if preset.relation is None else [
        ("relation", default_W_samples(preset.g), partial(evaluate_relation, preset.relation))
    ]
    runs += [
        (check.name,
         (default_omega_samples if check.needs_symmetric_W else default_W_samples)(check.g),
         check.evaluate)
        for check in preset.identity_checks
    ]
    rows = []
    secs = []
    cache = ThetaCache()
    for check_id, samples, evaluate in runs:
        for w_idx, W in enumerate(samples):
            t0 = time.perf_counter()
            rep = evaluate(W, params, cache=cache)
            secs.append(time.perf_counter() - t0)
            fields = asdict(rep)
            del fields["lhs"], fields["rhs"]
            rows.append({"id": _entry_id(preset, check_id, w_idx), **head,
                         "W_index": w_idx, "order_G1": order_g1, **fields})
    return rows, secs, list(preset.warnings)


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

    Entries run serially in plan order (threads has no effect), and the
    JSON payload contains no timing data, so output is reproducible.
    """
    if params is None:
        params = ThetaParams()
    if plan is None:
        plan = DEFAULT_SUITE_PLAN
    reports: list = []
    warnings: list = []
    seconds: list = []
    for entry in plan:
        rows, secs, warns = _run_one_preset(entry, params)
        reports.extend(rows)
        seconds.extend(secs)
        warnings.extend(warns)
    return SuiteResult(reports=reports, warnings=warnings, seconds=seconds)
