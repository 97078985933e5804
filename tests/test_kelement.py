"""The integer form of KElement, (n + m*delta)/den, against a reference
that keeps the coordinates a, b as Fractions and uses the textbook
formulas; and the integer mod-O_K reduction against its Fraction
definition."""

import json
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from iqtheta import FieldId, KElement, KMatrix
from iqtheta.lattices import _int_coords
from iqtheta.thetas import _Z_BASIS, _offsets

from _helpers import reduce_mod_integral

# small fields, both kinds of integral basis, and two large squarefree d
# (999999937 is prime and 1 mod 4, 10^18 + 3 is prime and 3 mod 4)
DS = (1, 2, 3, 7, 999999937, 10**18 + 3)
# two instances per d, so that equality never rests on identity
# (FieldId trial-divides d, so each is built once)
FIELDS = {d: FieldId(d) for d in DS}
TWINS = {d: FieldId(d) for d in DS}


class _Ref:
    """a + b*delta with Fraction coordinates."""

    def __init__(self, a, b, d):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d
        self.one_mod_four = d % 4 == 3

    def __add__(self, o):
        return _Ref(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, o):
        return _Ref(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, o):
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        if self.one_mod_four:  # delta^2 = delta - (1 + d)/4
            m = Fraction(1 + self.d, 4)
            return _Ref(a1 * a2 - m * b1 * b2, a1 * b2 + a2 * b1 + b1 * b2, self.d)
        return _Ref(a1 * a2 - self.d * b1 * b2, a1 * b2 + a2 * b1, self.d)

    def scaled(self, c):
        return _Ref(self.a * c, self.b * c, self.d)

    def conj(self):
        if self.one_mod_four:  # conj(delta) = 1 - delta
            return _Ref(self.a + self.b, -self.b, self.d)
        return _Ref(self.a, -self.b, self.d)

    def norm(self):
        a, b = self.a, self.b
        if self.one_mod_four:
            return a * a + a * b + b * b * Fraction(1 + self.d, 4)
        return a * a + self.d * b * b

    def re(self):
        return self.a + self.b / 2 if self.one_mod_four else self.a

    def __truediv__(self, o):
        return (self * o.conj()).scaled(1 / o.norm())


_small = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12))
_large = st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**25))
_rational = st.one_of(_small, st.integers(-5, 5).map(Fraction), _large)


def _same(x: KElement, ref: _Ref) -> None:
    """x equals ref, in canonical integer form, with Fraction coordinates."""
    assert type(x.a) is Fraction and type(x.b) is Fraction
    assert (x.a, x.b) == (ref.a, ref.b)
    assert x.den > 0 and math.gcd(x.n, x.m, x.den) == 1
    assert x == KElement(ref.a, ref.b, x.field)
    assert hash(x) == hash(KElement(ref.a, ref.b, TWINS[x.field.d]))


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(d=st.sampled_from(DS), a1=_rational, b1=_rational, a2=_rational,
       b2=_rational, c=_rational)
def test_arithmetic_matches_fraction_reference(d, a1, b1, a2, b2, c):
    field = FIELDS[d]
    x, y = KElement(a1, b1, field), KElement(a2, b2, field)
    rx, ry = _Ref(a1, b1, d), _Ref(a2, b2, d)
    _same(x, rx)
    _same(x + y, rx + ry)
    _same(x - y, rx - ry)
    _same(-x, _Ref(-a1, -b1, d))
    _same(x * y, rx * ry)
    _same(x * c, rx.scaled(c))
    _same(c * x, rx.scaled(c))
    _same(x.conj(), rx.conj())
    if c != 0:
        _same(x / c, rx.scaled(1 / c))
    if not y.is_zero():
        _same(x / y, rx / ry)
    assert type(x.norm()) is Fraction and x.norm() == rx.norm()
    assert type(x.re()) is Fraction and x.re() == rx.re()
    assert x.is_zero() == (a1 == 0 and b1 == 0)
    assert x.is_integral() == (a1.denominator == 1 and b1.denominator == 1)
    assert x.is_rational() == (b1 == 0)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(d=st.sampled_from(DS), a=_rational, b=_rational, c=_rational,
       k=st.integers(-10**6, 10**6).filter(bool))
def test_equal_values_along_different_paths(d, a, b, c, k):
    field = FIELDS[d]
    x = KElement(a, b, field)
    y = KElement(c, a, field)
    paths = [
        KElement(Fraction(a.numerator * k, a.denominator * k),
                 Fraction(b.numerator * -k, b.denominator * -k), TWINS[d]),
        (x * k) / k,  # a common factor, and a negative divisor when k < 0
        x * Fraction(k, 7) / Fraction(-k, 7) * -1,
        x + y - y,
        -(-x),
        x.conj().conj(),
    ]
    if not y.is_zero():
        paths.append(x * y / y)
    for z in paths:
        assert z == x and hash(z) == hash(x)
        assert (z.n, z.m, z.den) == (x.n, x.m, x.den)
    assert len({x, *paths}) == 1
    M = KMatrix([[x, y]])
    N = KMatrix([[paths[1], y + x - x]])
    assert M == N and hash(M) == hash(N)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(d=st.sampled_from(DS), a=_rational, b=_rational)
def test_json_round_trip(d, a, b):
    field = FIELDS[d]
    x = KElement(a, b, field)
    blob = x.to_json()
    assert blob == {"a": [a.numerator, a.denominator], "b": [b.numerator, b.denominator]}
    back = KElement.from_json(json.loads(json.dumps(blob)), field)
    assert back == x and hash(back) == hash(x)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(d=st.sampled_from(DS),
       entries=st.lists(st.tuples(_rational, _rational), min_size=1, max_size=4))
def test_floats_match_float_of_fraction(d, entries):
    """embed() and the offsets of a leaf read n / den; they must equal the
    floats of the Fraction coordinates bit for bit."""
    field = FIELDS[d]
    xs = [KElement(a, b, field) for a, b in entries]
    dc = field.delta_complex
    for x in xs:
        a, b = float(x.a), float(x.b)
        assert x.embed() == complex(a + b * dc.real, b * dc.imag)
    A0 = KMatrix([xs])
    want = np.array([[float(x.a) + float(x.b) * dc for x in xs]])
    assert _offsets(*_int_coords(A0), 1, len(xs), (1.0, dc)).tobytes() == want.tobytes()
    # over Z (a real theta's basis) the offsets are the rational parts
    rational = KMatrix([[field.from_rational(x.a) for x in xs]])
    want = np.array([[float(x.a) for x in xs]], dtype=np.complex128)
    assert _offsets(*_int_coords(rational), 1, len(xs), _Z_BASIS).tobytes() == want.tobytes()


def _centered(f: Fraction) -> Fraction:
    return f - math.floor(f + Fraction(1, 2))


_boundary = st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2),
                             Fraction(-3, 2), Fraction(0), Fraction(-7)])


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(d=st.sampled_from(DS),
       entries=st.lists(st.tuples(st.one_of(_rational, _boundary),
                                  st.one_of(_rational, _boundary)),
                        min_size=1, max_size=4))
def test_reduce_mod_integral_is_the_fraction_definition(d, entries):
    field = FIELDS[d]
    A0 = KMatrix([[KElement(a, b, field) for a, b in entries]])
    got = reduce_mod_integral(A0)
    for x, (a, b) in zip(got.entry_rows()[0], entries):
        assert (x.a, x.b) == (_centered(a), _centered(b))
        assert x.den > 0 and math.gcd(x.n, x.m, x.den) == 1
    assert got == KMatrix([[KElement(_centered(a), _centered(b), field)
                            for a, b in entries]])


def test_reduce_mod_integral_boundary():
    field = FieldId(1)
    for a in (Fraction(1, 2), Fraction(-1, 2), Fraction(5, 2), Fraction(-5, 2)):
        (x,), = reduce_mod_integral(KMatrix([[field.element(a, -a)]])).entry_rows()
        assert (x.a, x.b) == (Fraction(-1, 2), Fraction(-1, 2))
    (x,), = reduce_mod_integral(
        KMatrix([[field.element(Fraction(-7, 3), Fraction(7, 3))]])).entry_rows()
    assert (x.a, x.b) == (Fraction(-1, 3), Fraction(1, 3))
