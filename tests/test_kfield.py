"""Exact arithmetic in O_K and K for several imaginary quadratic fields."""

import json
import math
import random
from fractions import Fraction

import pytest
import sympy

from iqtheta import (
    FieldId,
    FieldMismatchError,
    KElement,
    KMatrix,
    SingularMatrixError,
    hat,
    re_trace_of_product,
)

DS = (1, 2, 3, 5, 7)


def _rand_frac(rng: random.Random, den: int = 6) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.randint(1, den))


def _rand_elt(field: FieldId, rng: random.Random) -> KElement:
    return field.element(_rand_frac(rng), _rand_frac(rng))


@pytest.mark.parametrize("d", DS)
def test_ring_axioms(d):
    field = FieldId(d)
    rng = random.Random(100 + d)
    for _ in range(25):
        x, y, z = (_rand_elt(field, rng) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert x + field.zero() == x
        assert x * field.one() == x
        assert x + (-x) == field.zero()


@pytest.mark.parametrize("d", DS)
def test_conj_and_norm_against_sympy(d):
    field = FieldId(d)
    rng = random.Random(200 + d)
    rt = sympy.sqrt(-d)
    delta_s = (1 + rt) / 2 if field.one_mod_four else rt
    for _ in range(15):
        x = _rand_elt(field, rng)
        y = _rand_elt(field, rng)
        xs = sympy.Rational(x.a) + sympy.Rational(x.b) * delta_s
        ys = sympy.Rational(y.a) + sympy.Rational(y.b) * delta_s
        prod = x * y
        ps = sympy.expand(xs * ys)
        got = sympy.Rational(prod.a) + sympy.Rational(prod.b) * delta_s
        assert sympy.simplify(ps - got) == 0
        # the nontrivial automorphism is complex conjugation under the embedding
        cs = sympy.expand(sympy.conjugate(xs))
        cg = sympy.Rational(x.conj().a) + sympy.Rational(x.conj().b) * delta_s
        assert sympy.simplify(cs - cg) == 0
        # norm = x * conj(x), a nonnegative rational
        ns = sympy.expand(xs * cs)
        assert sympy.simplify(ns - sympy.Rational(x.norm())) == 0
        assert x.norm() >= 0
        assert (x * y).norm() == x.norm() * y.norm()


@pytest.mark.parametrize("d", DS)
def test_re_is_half_trace(d):
    field = FieldId(d)
    rng = random.Random(300 + d)
    for _ in range(15):
        x = _rand_elt(field, rng)
        tr = x + x.conj()
        assert tr.b == 0
        assert x.re() == Fraction(tr.a, 2)


def test_d3_cube_roots_of_unity():
    field = FieldId(3)
    omega = field.delta() - field.one()
    assert omega * omega + omega + field.one() == field.zero()
    assert omega * omega * omega == field.one()
    rt = field.sqrt_minus_d()
    assert rt == field.delta() * 2 - field.one()
    assert rt * rt == field.from_rational(-3)


def test_unit_groups():
    assert len(FieldId(1).units()) == 4
    assert len(FieldId(3).units()) == 6
    assert len(FieldId(2).units()) == 2
    assert len(FieldId(7).units()) == 2
    for d in DS:
        field = FieldId(d)
        for u in field.units():
            assert u.norm() == 1
            assert any(u * v == field.one() for v in field.units())


@pytest.mark.parametrize("d", DS)
def test_division_inverts_multiplication(d):
    field = FieldId(d)
    rng = random.Random(400 + d)
    for _ in range(15):
        x = _rand_elt(field, rng)
        y = _rand_elt(field, rng)
        if y.is_zero():
            continue
        assert (x / y) * y == x


@pytest.mark.parametrize("d", DS)
def test_embedding_matches_exact_arithmetic(d):
    field = FieldId(d)
    rng = random.Random(500 + d)
    dc = field.delta_complex
    assert abs(dc * dc.conjugate() - field.delta_norm) < 1e-12
    for _ in range(10):
        x = _rand_elt(field, rng)
        y = _rand_elt(field, rng)
        assert abs((x * y).embed() - x.embed() * y.embed()) < 1e-12
        assert abs(x.embed().conjugate() - x.conj().embed()) < 1e-12
        assert abs(complex(float(x.norm())) - x.embed() * x.embed().conjugate()) < 1e-12


@pytest.mark.parametrize("d", (1, 2, 3, 7))
def test_hat_makes_trace_pairing_integral(d):
    field = FieldId(d)
    rng = random.Random(600 + d)
    for _ in range(20):
        S = KMatrix(
            [[field.element(rng.randint(-4, 4), rng.randint(-4, 4))
              for _ in range(2)] for _ in range(2)]
        )
        L = KMatrix(
            [[field.element(rng.randint(-4, 4), rng.randint(-4, 4))
              for _ in range(2)] for _ in range(2)]
        )
        q = re_trace_of_product(S, hat(L))
        assert q.denominator == 1
        assert S.is_integral() and L.is_integral()


def test_hat_branches():
    plain = FieldId(2)
    split = FieldId(3)
    m = KMatrix([[plain.delta()]])
    assert hat(m) == m
    m3 = KMatrix([[split.delta()]])
    assert hat(m3) == m3.scale(2)


@pytest.mark.parametrize("d", DS)
def test_matrix_inverse_roundtrip(d):
    field = FieldId(d)
    rng = random.Random(700 + d)
    for _ in range(8):
        M = KMatrix(
            [[field.element(rng.randint(-2, 2), rng.randint(-1, 1))
              for _ in range(2)] for _ in range(2)]
        )
        try:
            inv = M.inverse()
        except SingularMatrixError:
            continue
        assert M @ inv == KMatrix.identity(2, field)
        assert inv @ M == KMatrix.identity(2, field)
    # 3 x 3 and 4 x 4 with denominators
    inverted = 0
    for n in (3, 4):
        for _ in range(8):
            M = KMatrix(
                [[field.element(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                Fraction(rng.randint(-2, 2), rng.randint(1, 3)))
                  for _ in range(n)] for _ in range(n)]
            )
            try:
                inv = M.inverse()
            except SingularMatrixError:
                continue
            inverted += 1
            assert M @ inv == KMatrix.identity(n, field)
            assert inv @ M == KMatrix.identity(n, field)
    assert inverted >= 12


def test_singular_matrix_raises():
    field = FieldId(1)
    M = KMatrix.from_rational_rows([[1, 2], [2, 4]], field)
    with pytest.raises(SingularMatrixError):
        M.inverse()


def test_conj_transpose_involution_and_trace():
    field = FieldId(7)
    rng = random.Random(800)
    M = KMatrix(
        [[field.element(_rand_frac(rng), _rand_frac(rng)) for _ in range(3)]
         for _ in range(3)]
    )
    assert M.conj_transpose().conj_transpose() == M
    tr = M.trace()
    s = field.zero()
    for i in range(3):
        s = s + M[(i, i)]
    assert tr == s


@pytest.mark.parametrize("d", (1, 3, 5))
def test_serialization_roundtrip(d):
    field = FieldId(d)
    rng = random.Random(900 + d)
    x = _rand_elt(field, rng)
    assert KElement.from_json(json.loads(json.dumps(x.to_json())), field) == x
    M = KMatrix(
        [[_rand_elt(field, rng) for _ in range(2)] for _ in range(3)]
    )
    blob = json.dumps(M.to_json())
    assert KMatrix.from_json(json.loads(blob), field) == M


def test_field_rejects_bad_d():
    with pytest.raises(ValueError):
        FieldId(4)  # not squarefree
    with pytest.raises(ValueError):
        FieldId(0)
    with pytest.raises(ValueError):
        FieldId(-3)
    with pytest.raises(ValueError, match="squarefree positive integer"):
        FieldId(2**63 + 3)  # squarefree, but past the trial division bound


def test_squarefree_test_against_factorization():
    from iqtheta.kfield import _is_squarefree

    def reference(n):
        return all(e == 1 for e in sympy.factorint(n).values())

    for n in range(1, 3000):
        assert _is_squarefree(n) == reference(n), n
    p, q = 999983, 1000003  # primes above the cube root of their products
    for n in (p * q, p * p, 2 * p * p, p * q * q, 3 * p * q, 10**18 + 3,
              2**61 - 1, 2**63 - 25, 2**62 + 1):
        assert _is_squarefree(n) == reference(n), n


def test_delta_quadratic_equation():
    # delta satisfies x^2 - tr*x + norm = 0 with integer tr, norm
    for d in DS:
        field = FieldId(d)
        delta = field.delta()
        lhs = delta * delta - delta * field.delta_trace + field.from_rational(
            field.delta_norm
        )
        assert lhs == field.zero()
        assert math.isclose(
            abs(field.delta_complex) ** 2, field.delta_norm, rel_tol=1e-12
        )


_F1, _F2 = FieldId(1), FieldId(2)
_I1, _I2 = KMatrix.identity(1, _F1), KMatrix.identity(2, _F1)


@pytest.mark.parametrize("call,error,message", [
    (lambda: _F1.one() + _F2.one(), FieldMismatchError, "fields differ: d=1 vs d=2"),
    (lambda: _F1.one() / _F1.zero(), ZeroDivisionError, "division by zero element"),
    (lambda: _F1.one() / 0, ZeroDivisionError, "division by zero"),
    (lambda: _F1.element(0.5), TypeError, "expected an exact rational, got float"),
    (lambda: KMatrix([[_F1.one(), _F1.one()], [_F1.one()]]), ValueError, "ragged rows"),
    (lambda: KMatrix([[_F1.one(), _F2.one()]]), FieldMismatchError,
     "mixed fields in one matrix"),
    (lambda: _I2 + _I1, ValueError, "shape mismatch"),
    (lambda: _I1 + KMatrix.identity(1, _F2), FieldMismatchError, "fields differ"),
    (lambda: _I2 @ _I1, ValueError, "shape mismatch in product"),
    (lambda: re_trace_of_product(_I1, KMatrix.identity(1, _F2)), FieldMismatchError,
     "fields differ"),
    (lambda: re_trace_of_product(_I2, _I1), ValueError, "shape mismatch"),
], ids=["element-fields", "divide-by-zero-element", "divide-by-zero", "float-entry",
        "ragged-rows", "mixed-fields", "sum-shapes", "sum-fields", "product-shapes",
        "trace-fields", "trace-shapes"])
def test_arithmetic_refuses_mismatched_operands(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message


_X = _F1.element(1, 2)


@pytest.mark.parametrize("call,want,error", [
    (lambda: _X == 1, False, None),
    (lambda: repr(_X), "KElement(a=Fraction(1, 1), b=Fraction(2, 1), field=FieldId(d=1))", None),
    (lambda: _X * "s", None, TypeError),
    (lambda: _X / "s", None, TypeError),
    (lambda: KMatrix([[_X, _X]]).trace(), "trace of a non-square matrix", ValueError),
], ids=["equals-int", "repr", "times-str", "over-str", "trace-non-square"])
def test_elements_and_matrices_at_rare_operands(call, want, error):
    # an element is never equal to a plain int, and a str is no operand
    if error is None:
        assert call() == want
        return
    with pytest.raises(error) as err:
        call()
    assert want is None or str(err.value) == want
