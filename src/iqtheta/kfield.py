"""Exact arithmetic in imaginary quadratic fields K = Q(sqrt(-d)).

Elements are stored in coordinates over the integral basis {1, delta} of the
ring of integers O_K, where

    delta = sqrt(-d)            if -d is not congruent to 1 mod 4,
    delta = (1 + sqrt(-d)) / 2  if -d is congruent to 1 mod 4 (i.e. d = 3 mod 4).

With this basis an element is integral exactly when both coordinates are
integers, which is what the lattice layer relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import FieldMismatchError, SingularMatrixError

Rational = Fraction

RationalLike = Union[int, Fraction]


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
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

    @property
    def one_mod_four(self) -> bool:
        """True when -d = 1 mod 4, i.e. delta = (1 + sqrt(-d))/2."""
        return self.d % 4 == 3

    @property
    def delta_norm(self) -> int:
        """|delta|^2, always a positive integer."""
        return (1 + self.d) // 4 if self.one_mod_four else self.d

    @property
    def delta_trace(self) -> int:
        """delta + conj(delta)."""
        return 1 if self.one_mod_four else 0

    @property
    def delta_complex(self) -> complex:
        im = math.sqrt(self.d)
        return complex(0.5, im / 2.0) if self.one_mod_four else complex(0.0, im)

    def zero(self) -> "KElement":
        return KElement(Fraction(0), Fraction(0), self)

    def one(self) -> "KElement":
        return KElement(Fraction(1), Fraction(0), self)

    def delta(self) -> "KElement":
        return KElement(Fraction(0), Fraction(1), self)

    def sqrt_minus_d(self) -> "KElement":
        """The element sqrt(-d), regardless of which basis delta uses."""
        if self.one_mod_four:
            return KElement(Fraction(-1), Fraction(2), self)
        return self.delta()

    def from_rational(self, x: RationalLike) -> "KElement":
        return KElement(_frac(x), Fraction(0), self)

    def element(self, a: RationalLike, b: RationalLike = 0) -> "KElement":
        return KElement(_frac(a), _frac(b), self)

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


@dataclass(frozen=True)
class KElement:
    """a + b*delta with exact rational coordinates."""

    a: Fraction
    b: Fraction
    field: FieldId

    def _check(self, other: "KElement") -> None:
        if self.field != other.field:
            raise FieldMismatchError(f"fields differ: d={self.field.d} vs d={other.field.d}")

    def __add__(self, other: "KElement") -> "KElement":
        self._check(other)
        return KElement(self.a + other.a, self.b + other.b, self.field)

    def __sub__(self, other: "KElement") -> "KElement":
        self._check(other)
        return KElement(self.a - other.a, self.b - other.b, self.field)

    def __neg__(self) -> "KElement":
        return KElement(-self.a, -self.b, self.field)

    def __mul__(self, other: Union["KElement", RationalLike]) -> "KElement":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            return KElement(self.a * c, self.b * c, self.field)
        self._check(other)
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        if self.field.one_mod_four:
            # delta^2 = delta - (1+d)/4
            m = Fraction(1 + self.field.d, 4)
            return KElement(a1 * a2 - m * b1 * b2, a1 * b2 + a2 * b1 + b1 * b2, self.field)
        return KElement(a1 * a2 - self.field.d * b1 * b2, a1 * b2 + a2 * b1, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other: Union["KElement", RationalLike]) -> "KElement":
        if isinstance(other, (int, Fraction)):
            c = _frac(other)
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return KElement(self.a / c, self.b / c, self.field)
        self._check(other)
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero element")
        return (self * other.conj()) / n

    def conj(self) -> "KElement":
        if self.field.one_mod_four:
            # conj(delta) = 1 - delta
            return KElement(self.a + self.b, -self.b, self.field)
        return KElement(self.a, -self.b, self.field)

    def re(self) -> Fraction:
        """Real part under any complex embedding; exact."""
        if self.field.one_mod_four:
            return self.a + self.b / 2
        return self.a

    def norm(self) -> Fraction:
        """x * conj(x) as an exact nonnegative rational."""
        if self.field.one_mod_four:
            return self.a * self.a + self.a * self.b + self.b * self.b * Fraction(1 + self.field.d, 4)
        return self.a * self.a + self.field.d * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def is_integral(self) -> bool:
        return self.a.denominator == 1 and self.b.denominator == 1

    def is_rational(self) -> bool:
        return self.b == 0

    def embed(self) -> complex:
        dc = self.field.delta_complex
        return complex(float(self.a) + float(self.b) * dc.real, float(self.b) * dc.imag)

    def __str__(self) -> str:
        a, b = self.a, self.b
        return f"{a.numerator}/{a.denominator}+{b.numerator}/{b.denominator}*delta"

    def to_json(self) -> dict:
        return {
            "a": [self.a.numerator, self.a.denominator],
            "b": [self.b.numerator, self.b.denominator],
        }

    @staticmethod
    def from_json(obj: dict, field: FieldId) -> "KElement":
        a = Fraction(json_int(obj["a"][0], "a"), json_int(obj["a"][1], "a"))
        b = Fraction(json_int(obj["b"][0], "b"), json_int(obj["b"][1], "b"))
        return KElement(a, b, field)


class KMatrix:
    """Immutable matrix over K with exact entries."""

    __slots__ = ("rows", "cols", "field", "_entries")

    def __init__(self, entries: Sequence[Sequence[KElement]]):
        rows = tuple(tuple(row) for row in entries)
        if not rows or not rows[0]:
            raise ValueError("KMatrix must be nonempty")
        field = rows[0][0].field
        for row in rows:
            if len(row) != len(rows[0]):
                raise ValueError("ragged rows")
            for x in row:
                if x.field != field:
                    raise FieldMismatchError("mixed fields in one matrix")
        self._entries = rows
        self.rows = len(rows)
        self.cols = len(rows[0])
        self.field = field

    # -- constructors ------------------------------------------------------

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
    def row_vector(entries: Iterable[KElement]) -> "KMatrix":
        return KMatrix([list(entries)])

    @staticmethod
    def column_vector(entries: Iterable[KElement]) -> "KMatrix":
        return KMatrix([[x] for x in entries])

    # -- access ------------------------------------------------------------

    def __getitem__(self, idx: tuple[int, int]) -> KElement:
        return self._entries[idx[0]][idx[1]]

    def entry_rows(self) -> tuple[tuple[KElement, ...], ...]:
        return self._entries

    def column(self, j: int) -> "KMatrix":
        return KMatrix([[row[j]] for row in self._entries])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, KMatrix)
            and self.field == other.field
            and self._entries == other._entries
        )

    def __hash__(self) -> int:
        return hash((self.field, self._entries))

    def __repr__(self) -> str:
        body = "; ".join(", ".join(str(x) for x in row) for row in self._entries)
        return f"KMatrix(d={self.field.d}, [{body}])"

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other: "KMatrix") -> None:
        if self.field != other.field:
            raise FieldMismatchError("fields differ")

    def __add__(self, other: "KMatrix") -> "KMatrix":
        self._check(other)
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return KMatrix(
            [
                [self._entries[i][j] + other._entries[i][j] for j in range(self.cols)]
                for i in range(self.rows)
            ]
        )

    def __sub__(self, other: "KMatrix") -> "KMatrix":
        return self + (-other)

    def __neg__(self) -> "KMatrix":
        return KMatrix([[-x for x in row] for row in self._entries])

    def __matmul__(self, other: "KMatrix") -> "KMatrix":
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = self.field.zero()
                for k in range(self.cols):
                    acc = acc + self._entries[i][k] * other._entries[k][j]
                row.append(acc)
            out.append(row)
        return KMatrix(out)

    def scale(self, c: Union[KElement, RationalLike]) -> "KMatrix":
        if isinstance(c, (int, Fraction)):
            c = self.field.element(c)
        return KMatrix([[x * c for x in row] for row in self._entries])

    def transpose(self) -> "KMatrix":
        return KMatrix(
            [[self._entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def conj(self) -> "KMatrix":
        return KMatrix([[x.conj() for x in row] for row in self._entries])

    def conj_transpose(self) -> "KMatrix":
        return self.conj().transpose()

    def is_square(self) -> bool:
        return self.rows == self.cols

    def det(self) -> KElement:
        if not self.is_square():
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        work = [list(row) for row in self._entries]
        det = self.field.one()
        for col in range(n):
            pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if pivot is None:
                return self.field.zero()
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            det = det * work[col][col]
            inv = self.field.one() / work[col][col]
            for r in range(col + 1, n):
                if work[r][col].is_zero():
                    continue
                factor = work[r][col] * inv
                for c in range(col, n):
                    work[r][c] = work[r][c] - factor * work[col][c]
        return det

    def inverse(self) -> "KMatrix":
        """Exact inverse by Gauss-Jordan elimination, pivot = first nonzero entry."""
        if not self.is_square():
            raise ValueError("inverse of a non-square matrix")
        n = self.rows
        work = [list(row) for row in self._entries]
        aug = [list(KMatrix.identity(n, self.field)._entries[i]) for i in range(n)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
            if pivot is None:
                raise SingularMatrixError("matrix is singular")
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = self.field.one() / work[col][col]
            work[col] = [x * inv for x in work[col]]
            aug[col] = [x * inv for x in aug[col]]
            for r in range(n):
                if r == col or work[r][col].is_zero():
                    continue
                factor = work[r][col]
                work[r] = [x - factor * y for x, y in zip(work[r], work[col])]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
        return KMatrix(aug)

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

    Computed entrywise: sum over (i, j) of Re(conj(M[i,j]) * B[i,j]).
    """
    if M.field != B.field:
        raise FieldMismatchError("fields differ")
    if (M.rows, M.cols) != (B.rows, B.cols):
        raise ValueError("shape mismatch")
    acc = Fraction(0)
    for i in range(M.rows):
        for j in range(M.cols):
            acc += (M[i, j].conj() * B[i, j]).re()
    return acc
