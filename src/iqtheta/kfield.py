"""Exact arithmetic in imaginary quadratic fields K = Q(sqrt(-d)).

Elements are stored in coordinates over the integral basis {1, delta} of the
ring of integers O_K, where

    delta = sqrt(-d)            if -d is not congruent to 1 mod 4,
    delta = (1 + sqrt(-d)) / 2  if -d is congruent to 1 mod 4 (i.e. d = 3 mod 4).

With this basis an element is integral exactly when both coordinates are
integers, which is what the lattice layer relies on.  An element is kept as
(n + m*delta)/den in Python integers, reduced so that the form is unique;
its products use delta^2 = Tr(delta)*delta - N(delta) for every d.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .errors import FieldMismatchError, SingularMatrixError

Rational = Fraction

RationalLike = Union[int, Fraction]


def _ratio(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an exact rational, denominator > 0."""
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    if isinstance(x, int):
        return x, 1
    raise TypeError(f"expected an exact rational, got {type(x).__name__}")


def json_int(x: object, what: str) -> int:
    """An integer read from JSON.  Floats, bools and strings raise TypeError
    instead of being truncated or coerced."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} must be a JSON integer, got {x!r}")
    return x


def _is_squarefree(n: int) -> bool:
    """Whether n > 0 has no square prime factor.

    Trial division runs only while k^3 <= n for the cofactor n left so far:
    then every prime factor of n exceeds the cube root of n, so n has at
    most two, and it has a square factor exactly when it is a perfect
    square other than 1.
    """
    if n <= 0:
        return False
    k = 2
    while k * k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return False
        k += 1 if k == 2 else 2
    r = math.isqrt(n)
    return n == 1 or r * r != n


@dataclass(frozen=True)
class FieldId:
    """Identifies K = Q(sqrt(-d)) for a squarefree positive integer d."""

    d: int

    def __post_init__(self) -> None:
        # d below 2^63 bounds the trial division of _is_squarefree
        if (not isinstance(self.d, int) or not self.d < 2**63
                or not _is_squarefree(self.d)):
            raise ValueError(f"d must be a squarefree positive integer, got {self.d!r}")

    # the field's constants are read on every product, so each is computed
    # once per FieldId (cached_property writes past the frozen __setattr__)

    @cached_property
    def one_mod_four(self) -> bool:
        """True when -d = 1 mod 4, i.e. delta = (1 + sqrt(-d))/2."""
        return self.d % 4 == 3

    @cached_property
    def delta_norm(self) -> int:
        """|delta|^2, always a positive integer."""
        return (1 + self.d) // 4 if self.one_mod_four else self.d

    @cached_property
    def delta_trace(self) -> int:
        """delta + conj(delta)."""
        return 1 if self.one_mod_four else 0

    @cached_property
    def delta_complex(self) -> complex:
        im = math.sqrt(self.d)
        return complex(0.5, im / 2.0) if self.one_mod_four else complex(0.0, im)

    def zero(self) -> "KElement":
        return _canonical(0, 0, 1, self)

    def one(self) -> "KElement":
        return _canonical(1, 0, 1, self)

    def delta(self) -> "KElement":
        return _canonical(0, 1, 1, self)

    def sqrt_minus_d(self) -> "KElement":
        """The element sqrt(-d), regardless of which basis delta uses."""
        if self.one_mod_four:
            return _canonical(-1, 2, 1, self)
        return self.delta()

    def from_rational(self, x: RationalLike) -> "KElement":
        return KElement(x, 0, self)

    def element(self, a: RationalLike, b: RationalLike = 0) -> "KElement":
        return KElement(a, b, self)

    def units(self) -> tuple["KElement", ...]:
        """The unit group of O_K."""
        one = self.one()
        if self.d == 1:
            i = self.delta()
            return (one, i, -one, -i)
        if self.d == 3:
            # zeta = delta is a primitive sixth root of unity here.
            z = self.delta()
            return (one, z, z * z, -one, -z, -(z * z))
        return (one, -one)


class KElement:
    """(n + m*delta) / den with Python integers, den > 0 and
    gcd(n, m, den) = 1.

    The form is canonical, so equality and the hash read only n, m, den and
    field.d; the hash is computed once.  The coordinates a = n/den and
    b = m/den over {1, delta} are Fraction properties.  Instances are
    immutable: every operation returns a new element.
    """

    __slots__ = ("n", "m", "den", "field", "_hash")

    def __init__(self, a: RationalLike, b: RationalLike, field: FieldId) -> None:
        an, ad = _ratio(a)
        bn, bd = _ratio(b)
        if ad == bd:
            self.n, self.m, self.den = an, bn, ad
        else:
            # both fractions are reduced, so the common form is too
            g = math.gcd(ad, bd)
            self.n, self.m, self.den = an * (bd // g), bn * (ad // g), ad // g * bd
        self.field = field
        self._hash = None

    @property
    def a(self) -> Fraction:
        return Fraction(self.n, self.den)

    @property
    def b(self) -> Fraction:
        return Fraction(self.m, self.den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KElement):
            return NotImplemented
        return (
            self.n == other.n
            and self.m == other.m
            and self.den == other.den
            and self.field.d == other.field.d
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.n, self.m, self.den, self.field.d))
        return h

    def __repr__(self) -> str:
        return f"KElement(a={self.a!r}, b={self.b!r}, field={self.field!r})"

    def _check(self, other: "KElement") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError(f"fields differ: d={self.field.d} vs d={other.field.d}")

    def __add__(self, other: "KElement") -> "KElement":
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _reduced(self.n + other.n, self.m + other.m, d1, self.field)
        return _reduced(
            self.n * d2 + other.n * d1, self.m * d2 + other.m * d1, d1 * d2, self.field
        )

    def __sub__(self, other: "KElement") -> "KElement":
        self._check(other)
        d1, d2 = self.den, other.den
        if d1 == d2:
            return _reduced(self.n - other.n, self.m - other.m, d1, self.field)
        return _reduced(
            self.n * d2 - other.n * d1, self.m * d2 - other.m * d1, d1 * d2, self.field
        )

    def __neg__(self) -> "KElement":
        return _canonical(-self.n, -self.m, self.den, self.field)

    def __mul__(self, other: Union["KElement", RationalLike]) -> "KElement":
        if isinstance(other, KElement):
            self._check(other)
            f = self.field
            n1, m1, n2, m2 = self.n, self.m, other.n, other.m
            mm = m1 * m2
            # delta^2 = Tr(delta)*delta - N(delta)
            return _reduced(
                n1 * n2 - f.delta_norm * mm,
                n1 * m2 + n2 * m1 + f.delta_trace * mm,
                self.den * other.den,
                f,
            )
        if isinstance(other, (int, Fraction)):
            num, den = _ratio(other)
            return _reduced(self.n * num, self.m * num, self.den * den, self.field)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: Union["KElement", RationalLike]) -> "KElement":
        if isinstance(other, KElement):
            self._check(other)
            f = self.field
            t, nd = f.delta_trace, f.delta_norm
            n2, m2 = other.n, other.m
            norm = n2 * n2 + t * n2 * m2 + nd * m2 * m2
            if norm == 0:
                raise ZeroDivisionError("division by zero element")
            # self * conj(other) / N(other), conj(n2 + m2 delta) = n2 + t*m2 - m2*delta
            cn = n2 + t * m2
            n1, m1 = self.n, self.m
            return _reduced(
                (n1 * cn + nd * m1 * m2) * other.den,
                (m1 * cn - n1 * m2 - t * m1 * m2) * other.den,
                self.den * norm,
                f,
            )
        if isinstance(other, (int, Fraction)):
            num, den = _ratio(other)
            if num == 0:
                raise ZeroDivisionError("division by zero")
            if num < 0:
                num, den = -num, -den
            return _reduced(self.n * den, self.m * den, self.den * num, self.field)
        return NotImplemented

    def conj(self) -> "KElement":
        # conj(delta) = Tr(delta) - delta
        t = self.field.delta_trace
        return _canonical(self.n + t * self.m, -self.m, self.den, self.field)

    def re(self) -> Fraction:
        """Real part under any complex embedding; exact."""
        return Fraction(2 * self.n + self.field.delta_trace * self.m, 2 * self.den)

    def norm(self) -> Fraction:
        """x * conj(x) as an exact nonnegative rational."""
        f = self.field
        n, m = self.n, self.m
        return Fraction(
            n * n + f.delta_trace * n * m + f.delta_norm * m * m, self.den * self.den
        )

    def is_zero(self) -> bool:
        return self.n == 0 and self.m == 0

    def is_integral(self) -> bool:
        return self.den == 1

    def is_rational(self) -> bool:
        return self.m == 0

    def embed(self) -> complex:
        # integer true division rounds like float(Fraction(n, den))
        dc = self.field.delta_complex
        a, b = self.n / self.den, self.m / self.den
        return complex(a + b * dc.real, b * dc.imag)

    def __str__(self) -> str:
        a, b = self.a, self.b
        return f"{a.numerator}/{a.denominator}+{b.numerator}/{b.denominator}*delta"

    def to_json(self) -> dict:
        a, b = self.a, self.b
        return {
            "a": [a.numerator, a.denominator],
            "b": [b.numerator, b.denominator],
        }

    @staticmethod
    def from_json(obj: dict, field: FieldId) -> "KElement":
        a = Fraction(json_int(obj["a"][0], "a"), json_int(obj["a"][1], "a"))
        b = Fraction(json_int(obj["b"][0], "b"), json_int(obj["b"][1], "b"))
        return KElement(a, b, field)


def _canonical(n: int, m: int, den: int, field: FieldId) -> KElement:
    """(n + m*delta)/den, already in canonical form."""
    x = object.__new__(KElement)
    x.n = n
    x.m = m
    x.den = den
    x.field = field
    x._hash = None
    return x


def _reduced(n: int, m: int, den: int, field: FieldId) -> KElement:
    """(n + m*delta)/den for den > 0, divided by gcd(n, m, den)."""
    if den != 1:
        g = math.gcd(n, m, den)
        if g != 1:
            n //= g
            m //= g
            den //= g
    return _canonical(n, m, den, field)


class KMatrix:
    """Immutable matrix over K with exact entries."""

    __slots__ = ("rows", "cols", "field", "_entries", "_hash")

    def __init__(self, entries: Sequence[Sequence[KElement]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("KMatrix must be nonempty")
        field = rows[0][0].field
        for row in rows:
            if len(row) != len(rows[0]):
                raise ValueError("ragged rows")
            for x in row:
                if x.field is not field and x.field != field:
                    raise FieldMismatchError("mixed fields in one matrix")
        self._entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.field = field
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, rows: tuple[tuple[KElement, ...], ...], field: FieldId) -> "KMatrix":
        """rows as a matrix without the checks of __init__: for a nonempty,
        rectangular tuple of tuples over field, made from checked matrices."""
        M = object.__new__(cls)
        M._entries = rows
        M.rows = len(rows)
        M.cols = len(rows[0])
        M.field = field
        M._hash = None
        return M

    @staticmethod
    def identity(n: int, field: FieldId) -> "KMatrix":
        return KMatrix(
            [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int, field: FieldId) -> "KMatrix":
        z = field.zero()
        return KMatrix([[z for _ in range(cols)] for _ in range(rows)])

    @staticmethod
    def from_rational_rows(rows: Sequence[Sequence[RationalLike]], field: FieldId) -> "KMatrix":
        return KMatrix([[field.from_rational(x) for x in row] for row in rows])

    @staticmethod
    def column_vector(entries: Iterable[KElement]) -> "KMatrix":
        return KMatrix([[x] for x in entries])

    # -- access ------------------------------------------------------------

    def __getitem__(self, idx: tuple[int, int]) -> KElement:
        return self._entries[idx[0]][idx[1]]

    def entry_rows(self) -> tuple[tuple[KElement, ...], ...]:
        return self._entries

    def column(self, j: int) -> "KMatrix":
        return KMatrix._of(tuple((row[j],) for row in self._entries), self.field)

    def columns(self, start: int) -> "KMatrix":
        """The columns from start on (start < cols)."""
        return KMatrix._of(tuple(row[start:] for row in self._entries), self.field)

    def __eq__(self, other: object) -> bool:
        return self is other or (
            isinstance(other, KMatrix)
            and self.field.d == other.field.d
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((self.field.d, self._entries))
        return h

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in row) for row in self._entries)
        return f"KMatrix(d={self.field.d}, [{body}])"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "KMatrix") -> None:
        if self.field is not other.field and self.field != other.field:
            raise FieldMismatchError("fields differ")

    def __add__(self, other: "KMatrix") -> "KMatrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return KMatrix._of(
            tuple(
                tuple(x + y for x, y in zip(r1, r2))
                for r1, r2 in zip(self._entries, other._entries)
            ),
            self.field,
        )

    def __sub__(self, other: "KMatrix") -> "KMatrix":
        return self + (-other)

    def __neg__(self) -> "KMatrix":
        return KMatrix._of(tuple(tuple(-x for x in row) for row in self._entries), self.field)

    def __matmul__(self, other: "KMatrix") -> "KMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        other_cols = tuple(zip(*other._entries))
        out = []
        for row in self._entries:
            out_row = []
            for col in other_cols:
                acc = row[0] * col[0]
                for k in range(1, self.cols):
                    acc = acc + row[k] * col[k]
                out_row.append(acc)
            out.append(tuple(out_row))
        return KMatrix._of(tuple(out), self.field)

    def scale(self, c: Union[KElement, RationalLike]) -> "KMatrix":
        return KMatrix._of(tuple(tuple(x * c for x in row) for row in self._entries), self.field)

    def transpose(self) -> "KMatrix":
        return KMatrix._of(tuple(zip(*self._entries)), self.field)

    def conj(self) -> "KMatrix":
        return KMatrix._of(tuple(tuple(x.conj() for x in row) for row in self._entries), self.field)

    def conj_transpose(self) -> "KMatrix":
        return self.conj().transpose()

    def is_square(self) -> bool:
        return self.rows == self.cols

    def _eliminate(
        self, augment: bool
    ) -> Optional[tuple[int, int, tuple[int, int], list[list[int]]]]:
        """Fraction-free Gauss-Jordan elimination (Bareiss) over O_K on
        A = D M, D the common denominator of the entries, augmented by the
        identity when augment is set.  Entries are kept as integer pairs
        (a, b) for a + b*delta, flat per row.  Each update
        (p x - r y) / prev by the previous pivot prev is an exact division
        in O_K (Sylvester's identity), computed in integers as
        x conj(prev) / N(prev).  The pivot is the first nonzero entry of
        its column.

        Returns (D, s, p, rows) for the sign s = +-1 of the row swaps,
        the last pivot p = (a, b) = s det(A) and the eliminated rows, whose
        right block, when augmented, is p A^-1; None when M is singular.
        """
        n = self.rows
        nd, t = self.field.delta_norm, self.field.delta_trace
        D = math.lcm(*(x.den for row in self._entries for x in row))
        width = 2 * n * (2 if augment else 1)
        work: list[list[int]] = []
        for i, row in enumerate(self._entries):
            r = []
            for x in row:
                k = D // x.den
                r.append(x.n * k)
                r.append(x.m * k)
            if augment:
                r.extend([0] * (2 * n))
                r[2 * (n + i)] = 1
            work.append(r)
        sign = 1
        # conj(prev) = (ca + cb delta) and N(prev), for prev = 1 at first
        ca, cb, norm = 1, 0, 1
        for k in range(n):
            kk = 2 * k
            piv = next((i for i in range(k, n) if work[i][kk] or work[i][kk + 1]), None)
            if piv is None:
                return None
            if piv != k:
                work[k], work[piv] = work[piv], work[k]
                sign = -sign
            prow = work[k]
            pa, pb = prow[kk], prow[kk + 1]
            divide = (ca, cb, norm) != (1, 0, 1)
            for i in range(n):
                if i == k:
                    continue
                row = work[i]
                ra, rb = row[kk], row[kk + 1]
                row[kk] = row[kk + 1] = 0
                for j in range(kk + 2, width, 2):
                    xa, xb, ya, yb = row[j], row[j + 1], prow[j], prow[j + 1]
                    # u = p x - r y, then u conj(prev) / N(prev)
                    ua = pa * xa - ra * ya - nd * (pb * xb - rb * yb)
                    ub = pa * xb + pb * xa - ra * yb - rb * ya + t * (pb * xb - rb * yb)
                    if divide:
                        ua, ub = (ua * ca - nd * ub * cb) // norm, \
                            (ua * cb + ub * ca + t * ub * cb) // norm
                    row[j], row[j + 1] = ua, ub
            ca, cb, norm = pa + t * pb, -pb, pa * pa + t * pa * pb + nd * pb * pb
        return D, sign, (pa, pb), work

    def det(self) -> KElement:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        out = self._eliminate(False)
        if out is None:
            return self.field.zero()
        D, sign, (a, b), _ = out
        return _reduced(sign * a, sign * b, D**self.rows, self.field)

    def inverse(self) -> "KMatrix":
        """Exact inverse read off the fraction-free elimination (_eliminate):
        M^-1 = D (p A^-1) / p for A = D M, each entry one division by p in
        O_K, x conj(p) / N(p)."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        out = self._eliminate(True)
        if out is None:
            raise SingularMatrixError("matrix is singular")
        D, _, (pa, pb), work = out
        n, f = self.rows, self.field
        nd, t = f.delta_norm, f.delta_trace
        ca, cb = D * (pa + t * pb), -D * pb
        norm = pa * pa + t * pa * pb + nd * pb * pb
        return KMatrix._of(
            tuple(
                tuple(
                    _reduced(xa * ca - nd * xb * cb, xa * cb + xb * ca + t * xb * cb, norm, f)
                    for xa, xb in zip(row[2 * n::2], row[2 * n + 1::2])
                )
                for row in work
            ),
            f,
        )

    def trace(self) -> KElement:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        acc = self.field.zero()
        for i in range(self.rows):
            acc = acc + self._entries[i][i]
        return acc

    def is_integral(self) -> bool:
        return all(x.is_integral() for row in self._entries for x in row)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self._entries for x in row)

    def embed(self):
        """Entrywise complex embedding as a numpy array."""
        import numpy as np

        return np.array(
            [[x.embed() for x in row] for row in self._entries], dtype=complex
        )

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[x.to_json() for x in row] for row in self._entries],
        }

    @staticmethod
    def from_json(obj: dict, field: FieldId) -> "KMatrix":
        return KMatrix(
            [[KElement.from_json(e, field) for e in row] for row in obj["entries"]]
        )


def hat(B: KMatrix) -> KMatrix:
    """B itself, or 2B when -d = 1 mod 4.

    This is the rescaling that makes Re Tr(conj(S)^t * hat(L)) integral for
    all integral S, L, which the character sums depend on.
    """
    if B.field.one_mod_four:
        return B.scale(2)
    return B


def dual_generator(field: FieldId) -> KElement:
    """Scalar c with c*O_K = {y : Re(conj(n)*y) in Z for all n in O_K}.

    The pairing (n, y) -> Re(conj(n)*y) realizes characters of quotients of
    O_K-lattices through vectors of the dual lattice, and the dual of O_K is
    c*O_K rather than O_K itself whenever d > 1.  Normalized to c = 1 for
    d = 1, where the ring is self dual.
    """
    if field.d == 1:
        return field.one()
    scale = 2 if field.one_mod_four else 1
    return field.sqrt_minus_d() * Fraction(scale, field.d)


def re_trace_of_product(M: KMatrix, B: KMatrix) -> Fraction:
    """Re Tr(conj_transpose(M) @ B) as an exact rational.

    Computed entrywise: sum over (i, j) of Re(conj(x) * y) for x = M[i,j]
    and y = B[i,j].  With x = (n1 + m1 delta)/den1 and y likewise, that is
    (2 n1 n2 + Tr(delta)(n1 m2 + m1 n2) + 2 N(delta) m1 m2) / (2 den1 den2),
    summed in integers over one growing denominator.
    """
    if M.field != B.field:
        raise FieldMismatchError("fields differ")
    if (M.rows, M.cols) != (B.rows, B.cols):
        raise ValueError("shape mismatch")
    t, nd2 = M.field.delta_trace, 2 * M.field.delta_norm
    num, den = 0, 1
    for row_m, row_b in zip(M.entry_rows(), B.entry_rows()):
        for x, y in zip(row_m, row_b):
            n1, m1, n2, m2 = x.n, x.m, y.n, y.m
            term = 2 * n1 * n2 + t * (n1 * m2 + m1 * n2) + nd2 * m1 * m2
            d = x.den * y.den
            if d == den:
                num += term
            else:
                num, den = num * d + term * den, den * d
    return Fraction(num, 2 * den)
