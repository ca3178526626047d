"""Exact scalar arithmetic over the rationals and quadratic extensions.

Every coordinate in the library is either a ``fractions.Fraction`` or a
``QuadExt`` value ``a + b*sqrt(d)`` with rational ``a``, ``b`` and a fixed
square-free integer ``d >= 2``.  All operations are exact field operations;
nothing in this module (or anything built on it) ever rounds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

Scalar = Union[Fraction, "QuadExt"]
ScalarLike = Union[int, Fraction, "QuadExt"]


def _sign_rational(x) -> int:
    if x > 0:
        return 1
    if x < 0:
        return -1
    return 0


def is_squarefree(d: int) -> bool:
    if d < 1:
        return False
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def quad_sign(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rational (or integer) a and b, via sign
    analysis of a, b and a^2 - b^2 d."""
    if b == 0:
        return _sign_rational(a)
    if a == 0:
        return _sign_rational(b)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    t = a * a - b * b * d
    # a > 0, b < 0:  positive iff a^2 > b^2 d;  a < 0, b > 0: the mirror case.
    if a > 0:
        return _sign_rational(t)
    return -_sign_rational(t)


class QuadExt:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Instances always have b != 0; arithmetic that lands back in Q returns a
    plain Fraction.  Mixing two different values of d is an error.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: ScalarLike, b: ScalarLike, d: int):
        if isinstance(a, QuadExt) or isinstance(b, QuadExt):
            raise TypeError("QuadExt components must be rational")
        if not (isinstance(d, int) and d >= 2 and is_squarefree(d)):
            raise ValueError(f"d must be a square-free integer >= 2, got {d!r}")
        b = Fraction(b)
        if b == 0:
            raise ValueError("QuadExt requires b != 0; use a Fraction instead")
        object.__setattr__(self, "a", Fraction(a))
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    def __setattr__(self, name, value):
        raise AttributeError("QuadExt is immutable")

    # -- coercion helpers -------------------------------------------------

    def _coerce(self, other):
        """Return other as (a, b) rational components, or None if unsupported."""
        if isinstance(other, QuadExt):
            if other.d != self.d:
                raise ValueError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return None

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        return quadext(self.a + parts[0], self.b + parts[1], self.d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __sub__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        return quadext(self.a - parts[0], self.b - parts[1], self.d)

    def __rsub__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        return quadext(parts[0] - self.a, parts[1] - self.b, self.d)

    def __mul__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        c, e = parts
        return quadext(self.a * c + self.b * e * self.d, self.a * e + self.b * c, self.d)

    __rmul__ = __mul__

    def _inverse(self):
        # (a + b sqrt d)^-1 = (a - b sqrt d) / (a^2 - b^2 d); the denominator is
        # nonzero because sqrt(d) is irrational.
        n = self.a * self.a - self.b * self.b * self.d
        return quadext(self.a / n, -self.b / n, self.d)

    def __truediv__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        c, e = parts
        if e == 0:
            if c == 0:
                raise ZeroDivisionError("division by zero")
            return quadext(self.a / c, self.b / c, self.d)
        return self * QuadExt(c, e, self.d)._inverse()

    def __rtruediv__(self, other):
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        inv = self._inverse()
        return (parts[0] + quadext(0, parts[1], self.d) if parts[1] else parts[0]) * inv

    def __abs__(self):
        return -self if self.sign() < 0 else self

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        return quad_sign(self.a, self.b, self.d)

    def _cmp(self, other) -> int:
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        return quad_sign(self.a - parts[0], self.b - parts[1], self.d)

    def __eq__(self, other):
        c = self._cmp(other)
        return c == 0 if c is not NotImplemented else NotImplemented

    def __ne__(self, other):
        c = self._cmp(other)
        return c != 0 if c is not NotImplemented else NotImplemented

    def __lt__(self, other):
        c = self._cmp(other)
        return c < 0 if c is not NotImplemented else NotImplemented

    def __le__(self, other):
        c = self._cmp(other)
        return c <= 0 if c is not NotImplemented else NotImplemented

    def __gt__(self, other):
        c = self._cmp(other)
        return c > 0 if c is not NotImplemented else NotImplemented

    def __ge__(self, other):
        c = self._cmp(other)
        return c >= 0 if c is not NotImplemented else NotImplemented

    def __hash__(self):
        # b != 0 always, so no QuadExt ever equals a rational; a component
        # hash keeps equal QuadExt values colliding correctly.
        return hash((self.a, self.b, self.d))

    def __bool__(self):
        return True  # b != 0 means the value is irrational, hence nonzero

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(self.d)

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def __str__(self):
        return f"({self.a} + {self.b}*sqrt({self.d}))"


def quadext(a: ScalarLike, b: ScalarLike, d: int) -> Scalar:
    """Build a + b*sqrt(d), collapsing to a Fraction when b == 0."""
    b = Fraction(b)
    if b == 0:
        return Fraction(a)
    return QuadExt(a, b, d)


def sign(x: ScalarLike) -> int:
    """Exact sign of a scalar: -1, 0 or +1."""
    if isinstance(x, QuadExt):
        return x.sign()
    return _sign_rational(x)


def as_scalar(x: ScalarLike) -> Scalar:
    if isinstance(x, QuadExt):
        return x
    return Fraction(x)


def to_float(x: ScalarLike) -> float:
    """One-way float conversion, for rendering and reporting only."""
    return float(x)


# -- serialization ----------------------------------------------------------
#
# Wire format: a decimal integer string, "p/q", or for quadratic values
# {"a": "p/q", "b": "p/q", "d": n}.  Round-trips are bit exact.


def scalar_to_json(x: ScalarLike):
    if isinstance(x, QuadExt):
        return {"a": _frac_to_text(x.a), "b": _frac_to_text(x.b), "d": x.d}
    x = Fraction(x)
    return _frac_to_text(x)


def _frac_to_text(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def scalar_from_json(value, quad_d: int | None = None) -> Scalar:
    """Parse a serialized scalar.

    quad_d, when given, is the only sqrt argument admitted; a mismatch is a
    ValueError so a rational-only document cannot smuggle in radicals.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return _fraction(value)
    if isinstance(value, dict):
        try:
            a = _fraction(value["a"])
            b = _fraction(value["b"])
            d = value["d"]
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed quadratic scalar: {value!r}") from exc
        if not isinstance(d, int):
            raise ValueError(f"quadratic scalar d must be an integer: {value!r}")
        if quad_d is None:
            raise ValueError("quadratic scalar in a rational-field document")
        if d != quad_d:
            raise ValueError(f"scalar uses sqrt({d}) but the document declares sqrt({quad_d})")
        return quadext(a, b, d)
    raise ValueError(f"not a scalar: {value!r}")


def _fraction(value) -> Fraction:
    """Fraction(value), with a zero denominator a ValueError like any other
    malformed number."""
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
