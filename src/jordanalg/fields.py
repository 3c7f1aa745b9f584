"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Raw values are plain Python objects: `fractions.Fraction` for Q and ints
in the range [0, p) for GF(p).  The Field object does arithmetic on raw
values; the Scalar wrapper adds operator syntax and field checking on
top.  Characteristic 2 is rejected up front because every construction
in this package divides by 2.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .errors import DivisionByZero, FieldMismatch, ParseError

RawScalar = Union[Fraction, int]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """A scalar field: the rationals ('Q') or an odd prime field ('GF', p)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind == "Q":
            if p is not None:
                raise ValueError("rationals take no modulus")
            self.p = None
        elif kind == "GF":
            if p is None or not is_prime(p):
                raise ValueError(f"modulus {p!r} is not prime")
            if p == 2:
                raise ValueError("characteristic 2 is not supported")
            self.p = p
        else:
            raise ValueError(f"unknown field kind {kind!r}")
        self.kind = kind

    # ------------------------------------------------------------------
    # identity

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.kind == other.kind and self.p == other.p

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def __repr__(self) -> str:
        return "Q" if self.kind == "Q" else f"GF({self.p})"

    @property
    def is_rational(self) -> bool:
        return self.kind == "Q"

    def __call__(self, value) -> "Scalar":
        return Scalar(self, value)

    # ------------------------------------------------------------------
    # raw-value arithmetic

    def zero(self) -> RawScalar:
        return Fraction(0) if self.kind == "Q" else 0

    def one(self) -> RawScalar:
        return Fraction(1) if self.kind == "Q" else 1

    def half(self) -> RawScalar:
        return Fraction(1, 2) if self.kind == "Q" else (self.p + 1) // 2

    def from_int(self, n: int) -> RawScalar:
        return Fraction(n) if self.kind == "Q" else n % self.p

    def coerce(self, value) -> RawScalar:
        """Normalize an int, Fraction or Scalar into this field's raw form."""
        if type(value) is int:
            return self.from_int(value)
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldMismatch(f"scalar from {value.field} used in {self}")
            return value.value
        if isinstance(value, bool):
            raise TypeError("bool is not a scalar")
        if isinstance(value, int):
            return self.from_int(value)
        if isinstance(value, Fraction):
            if self.kind == "Q":
                return value
            den = value.denominator % self.p
            if den == 0:
                raise DivisionByZero(f"denominator of {value} vanishes mod {self.p}")
            return value.numerator * pow(den, self.p - 2, self.p) % self.p
        raise TypeError(f"cannot coerce {type(value).__name__} into {self}")

    def add(self, a: RawScalar, b: RawScalar) -> RawScalar:
        return a + b if self.kind == "Q" else (a + b) % self.p

    def sub(self, a: RawScalar, b: RawScalar) -> RawScalar:
        return a - b if self.kind == "Q" else (a - b) % self.p

    def mul(self, a: RawScalar, b: RawScalar) -> RawScalar:
        return a * b if self.kind == "Q" else (a * b) % self.p

    def neg(self, a: RawScalar) -> RawScalar:
        return -a if self.kind == "Q" else (-a) % self.p

    def inv(self, a: RawScalar) -> RawScalar:
        if a == 0:
            raise DivisionByZero("inverse of zero")
        if self.kind == "Q":
            return 1 / a
        return pow(a, self.p - 2, self.p)

    def div(self, a: RawScalar, b: RawScalar) -> RawScalar:
        if b == 0:
            raise DivisionByZero("division by zero")
        if self.kind == "Q":
            return a / b
        return a * pow(b, self.p - 2, self.p) % self.p

    # ------------------------------------------------------------------
    # squares

    def is_square_raw(self, a: RawScalar) -> bool:
        """Square test; zero counts as a square."""
        if a == 0:
            return True
        if self.kind == "Q":
            if a < 0:
                return False
            num, den = a.numerator, a.denominator
            return math.isqrt(num) ** 2 == num and math.isqrt(den) ** 2 == den
        return pow(a, (self.p - 1) // 2, self.p) == 1

    def sqrt_raw(self, a: RawScalar) -> RawScalar | None:
        """A canonical square root, or None when `a` is not a square.

        Over Q the nonnegative root is returned; over GF(p) the smaller
        of the two residues.
        """
        if a == 0:
            return self.zero()
        if self.kind == "Q":
            if not self.is_square_raw(a):
                return None
            return Fraction(math.isqrt(a.numerator), math.isqrt(a.denominator))
        if not self.is_square_raw(a):
            return None
        r = _tonelli_shanks(a, self.p)
        return min(r, self.p - r)

    # ------------------------------------------------------------------
    # text form

    def parse_raw(self, text: str) -> RawScalar:
        """Parse an integer or a fraction a/b and coerce it into the field."""
        text = text.strip()
        if not text:
            raise ParseError("empty scalar")
        num, slash, den = text.partition("/")
        try:
            return self.coerce(Fraction(int(num), int(den)) if slash else int(num))
        except (ValueError, ZeroDivisionError, DivisionByZero) as exc:
            raise ParseError(f"bad scalar {text!r} for {self}: {exc}") from exc

    def format_raw(self, a: RawScalar) -> str:
        if self.kind == "Q":
            if a.denominator == 1:
                return str(a.numerator)
            return f"{a.numerator}/{a.denominator}"
        return str(a)


def _tonelli_shanks(a: int, p: int) -> int:
    """Square root of a quadratic residue a modulo an odd prime p."""
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # find a quadratic non-residue
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


RATIONALS = Field("Q")


def prime_field(p: int) -> Field:
    return Field("GF", p)


def parse_field(text: str) -> Field:
    """Parse a CLI field spec: 'Q' or 'GF:p'."""
    text = text.strip()
    if text == "Q":
        return RATIONALS
    if text.startswith("GF:"):
        try:
            p = int(text[3:])
        except ValueError as exc:
            raise ParseError(f"bad field spec {text!r}") from exc
        try:
            return prime_field(p)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
    raise ParseError(f"bad field spec {text!r}; expected 'Q' or 'GF:p'")


class Scalar:
    """A field element with operator syntax and strict field checking."""

    __slots__ = ("field", "value")

    def __init__(self, field: Field, value):
        self.field = field
        self.value = field.coerce(value)

    def _raw_other(self, other) -> RawScalar:
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldMismatch(f"{self.field} vs {other.field}")
            return other.value
        return self.field.coerce(other)

    def __add__(self, other):
        return Scalar(self.field, self.field.add(self.value, self._raw_other(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return Scalar(self.field, self.field.sub(self.value, self._raw_other(other)))

    def __rsub__(self, other):
        return Scalar(self.field, self.field.sub(self._raw_other(other), self.value))

    def __mul__(self, other):
        return Scalar(self.field, self.field.mul(self.value, self._raw_other(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return Scalar(self.field, self.field.div(self.value, self._raw_other(other)))

    def __rtruediv__(self, other):
        return Scalar(self.field, self.field.div(self._raw_other(other), self.value))

    def __neg__(self):
        return Scalar(self.field, self.field.neg(self.value))

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == self.field.coerce(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"Scalar({self.field}, {self.field.format_raw(self.value)})"

    def __str__(self) -> str:
        return self.field.format_raw(self.value)

    def inverse(self) -> "Scalar":
        return Scalar(self.field, self.field.inv(self.value))


def is_square(a: Scalar) -> bool:
    return a.field.is_square_raw(a.value)


def sqrt_if_square(a: Scalar) -> Scalar | None:
    root = a.field.sqrt_raw(a.value)
    return None if root is None else Scalar(a.field, root)
