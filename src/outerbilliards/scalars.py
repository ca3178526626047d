"""Exact scalar arithmetic over the rationals and quadratic extensions.

Every coordinate in the library is either a ``fractions.Fraction`` or a
``QuadExt`` value ``a + b*sqrt(d)`` with rational ``a``, ``b`` and a fixed
square-free integer ``d >= 2``.  This is the one module that knows how a
number of Q(sqrt d) is built: a ``QuadExt`` is a ``QuadInt`` numerator
``r + s*sqrt(d)`` (int ``r`` and ``s``) over a positive int denominator, in
lowest terms.  ``as_integer_ratio()`` hands out that pair, as
``Fraction.as_integer_ratio()`` hands out two ints, so other modules compute
on integers over either field alike.  Each arithmetic operation is one rule
in ``QuadInt`` arithmetic on the two operands' pairs, followed by one
division, `ratio`; each comparison is one test of the sign of the
difference.  All operations are exact field operations; nothing in this
module (or anything built on it) ever rounds.

This is also where a ``Fraction`` is built from an int pair: `coprime_fraction`
fills a new ``Fraction``'s two slots from a pair already in lowest terms, as
``QuadExt._make`` fills a ``QuadExt``'s, without a second pass through
``Fraction.__new__``'s type dispatch and gcd.  That is what Python 3.12's own
``Fraction._from_coprime_ints`` does; the slot names it relies on,
``('_numerator', '_denominator')`` on every supported Python, are pinned by a
test, so a release that changes them fails loudly.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Union

Scalar = Union[Fraction, "QuadExt"]
ScalarLike = Union[int, Fraction, "QuadExt"]

# Input bounds, checked before `Fraction` or `is_squarefree` sees an input: a
# scalar's text has at most SCALAR_DIGITS characters and an exponent of at most
# SCALAR_DIGITS; a radicand d < RADICAND_BOUND costs < 1.4 million divisions.
SCALAR_DIGITS = 1000
RADICAND_BOUND = 2 ** 64


def is_squarefree(d: int) -> bool:
    """Whether no square > 1 divides d >= 1, in O(cbrt d) divisions.  Trial
    division divides out every k with k**3 <= the cofactor m; what is left
    has all its prime factors >= k > cbrt(m), so at most two of them, and m
    is square-free unless it is a prime's square."""
    if d < 1:
        return False
    m, k = d, 2
    while k * k * k <= m:
        if m % k == 0:
            m //= k
            if m % k == 0:
                return False
        k += 1 if k == 2 else 2
    r = math.isqrt(m)
    return m == 1 or r * r != m


def is_radicand(d) -> bool:
    """Whether d is a square-free int (not a bool), 2 <= d < RADICAND_BOUND."""
    return type(d) is int and 2 <= d < RADICAND_BOUND and is_squarefree(d)


def quad_sign(a, b, d: int) -> int:
    """Exact sign of a + b*sqrt(d) for rational (or integer) a and b, via sign
    analysis of a, b and a^2 - b^2 d."""
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return (b > 0) - (b < 0)
    if a > 0 and b > 0:
        return 1
    if a < 0 and b < 0:
        return -1
    t = a * a - b * b * d
    # a > 0, b < 0:  positive iff a^2 > b^2 d;  a < 0, b > 0: the mirror case.
    return (t > 0) - (t < 0) if a > 0 else (t < 0) - (t > 0)


class QuadInt:
    """r + s*sqrt(d) with int r and s: an integer of Q(sqrt d), d square-free
    (taken on trust; `QuadExt` checks it where a value enters).  Plain ints
    mix in freely and s may be 0; comparisons are exact, and hashing agrees
    with them; two different d are a ValueError."""

    __slots__ = ("r", "s", "d")

    def __init__(self, r: int, s: int, d: int):
        self.r, self.s, self.d = r, s, d

    def _split(self, other):
        if type(other) is int:
            return other, 0
        if type(other) is QuadInt:
            if other.d != self.d:
                raise ValueError(f"cannot mix sqrt({self.d}) with sqrt({other.d})")
            return other.r, other.s
        raise TypeError(f"cannot combine QuadInt with {type(other).__name__}")

    def __add__(self, other):
        r, s = self._split(other)
        return QuadInt(self.r + r, self.s + s, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        r, s = self._split(other)
        return QuadInt(self.r - r, self.s - s, self.d)

    def __rsub__(self, other):
        r, s = self._split(other)
        return QuadInt(r - self.r, s - self.s, self.d)

    def __neg__(self):
        return QuadInt(-self.r, -self.s, self.d)

    def __mul__(self, other):
        if type(other) is int:
            return QuadInt(self.r * other, self.s * other, self.d)
        r, s = self._split(other)
        # (u + v sqrt d)(r + s sqrt d) = (u r + v s d) + (u s + v r) sqrt d
        return QuadInt(self.r * r + self.s * s * self.d, self.r * s + self.s * r, self.d)

    __rmul__ = __mul__

    def sign(self) -> int:
        return quad_sign(self.r, self.s, self.d)

    def _cmp(self, other) -> int:
        if type(other) is int:
            return quad_sign(self.r - other, self.s, self.d)
        r, s = self._split(other)
        return quad_sign(self.r - r, self.s - s, self.d)

    def __eq__(self, other):
        return self._cmp(other) == 0

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __hash__(self):
        # equal to the int r where s == 0, so hashed as r there
        return hash(self.r) if self.s == 0 else hash((self.r, self.s, self.d))

    def __floor__(self) -> int:
        return quad_floor_div(self.r, self.s, 1, 0, self.d)

    def __repr__(self):
        return f"QuadInt({self.r}, {self.s}, {self.d})"


def cleared(num, den) -> tuple:
    """num/den for ints or QuadInts as (num', den'), den' an int > 0 (0 if den is): a QuadInt
    den r + s*sqrt(d) is cleared by its conjugate, to r^2 - s^2*d != 0 (sqrt(d) is irrational)."""
    if type(den) is QuadInt:
        r, s, d = den.r, den.s, den.d
        num, den = num * QuadInt(r, -s, d), r * r - s * s * d
    return (-num, -den) if den < 0 else (num, den)


def coprime_fraction(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime ints n and d > 0, taken on trust: the
    canonical reduced value, equal in type, hash, str and pickle to
    ``Fraction(n, d)``.  Every Fraction built from an int pair is built here."""
    x = object.__new__(Fraction)
    x._numerator, x._denominator = n, d
    return x


def ratio(num, den) -> Scalar:
    """num/den for ints or QuadInts, den != 0 (else a ZeroDivisionError): a
    Fraction, reduced by one gcd and built by `coprime_fraction`, or a QuadExt
    in lowest terms.  Every QuadExt result is built here."""
    num, den = cleared(num, den)
    if den == 0:
        raise ZeroDivisionError("division by zero")
    r, s = (num, 0) if type(num) is int else (num.r, num.s)
    if s == 0:
        g = math.gcd(r, den)
        return coprime_fraction(r // g, den // g)
    g = math.gcd(r, s, den)
    if g > 1:
        r, s, den = r // g, s // g, den // g
    return QuadExt._make(QuadInt(r, s, num.d), den)


def int_parts(x) -> tuple:
    """The int parts of an int or a QuadInt: (x, 0), or (r, s)."""
    return (x, 0) if type(x) is int else (x.r, x.s)


def primitive(*xs) -> tuple:
    """The primitive form of ints and QuadInts xs, not all 0: their positive
    multiple whose first nonzero entry is an int (over Q(sqrt d), times that
    entry's conjugate, negated if negative) and whose int parts have gcd 1.
    Two vectors are positive multiples exactly when their forms are equal."""
    if QuadInt not in map(type, xs):
        g = math.gcd(*xs)
        return tuple([x // g for x in xs])
    lead = next(x for x in xs if x != 0)
    if type(lead) is QuadInt and lead.s:
        k = QuadInt(lead.r, -lead.s, lead.d)
        k = k if k.sign() > 0 else -k
        xs = [x * k for x in xs]
    g = math.gcd(*[t for x in xs for t in int_parts(x)])
    return tuple(x // g if type(x) is int else x.r // g if x.s == 0
                 else QuadInt(x.r // g, x.s // g, x.d) for x in xs)


def floor_div(num, den) -> int:
    """floor(num / den) for ints or QuadInts, den != 0, without building the
    quotient: over the int q > 0 of `cleared`, floor(x / q) = floor(x) // q."""
    num, den = cleared(num, den)
    return math.floor(num) // den


def quad_floor_div(r, s, q, t, d: int) -> int:
    """floor((r + s*sqrt(d)) / (q + t*sqrt(d))) for ints, q + t*sqrt(d) != 0: times the
    conjugate, over the int q^2 - t^2*d != 0 made positive; y^2*d is a square only for y = 0."""
    x, y, q = r * q - s * t * d, s * q - r * t, q * q - t * t * d
    if q < 0:
        x, y, q = -x, -y, -q
    root = math.isqrt(y * y * d)
    return (x + (root if y >= 0 else -root - 1)) // q


class QuadExt:
    """An element a + b*sqrt(d) of the real quadratic field Q(sqrt(d)).

    Instances always have b != 0; arithmetic that lands back in Q returns a
    plain Fraction.  Mixing two different values of d is an error.  Stored
    as `as_integer_ratio()`: a QuadInt numerator over a positive int
    denominator, with no common factor.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, a: ScalarLike, b: ScalarLike, d: int):
        if isinstance(a, QuadExt) or isinstance(b, QuadExt):
            raise TypeError("QuadExt components must be rational")
        if not is_radicand(d):
            raise ValueError(f"d must be a square-free int, 2 <= d < 2**64, got {d!r}")
        a, b = Fraction(a), Fraction(b)
        if b == 0:
            raise ValueError("QuadExt requires b != 0; use a Fraction instead")
        # over the lcm of two reduced denominators no factor is common to all
        den = math.lcm(a.denominator, b.denominator)
        self._num = QuadInt(a.numerator * (den // a.denominator),
                            b.numerator * (den // b.denominator), d)
        self._den = den

    @classmethod
    def _make(cls, num: QuadInt, den: int) -> "QuadExt":
        x = object.__new__(cls)
        x._num, x._den = num, den
        return x

    @property
    def a(self) -> Fraction:
        return ratio(self._num.r, self._den)

    @property
    def b(self) -> Fraction:
        return ratio(self._num.s, self._den)

    @property
    def d(self) -> int:
        return self._num.d

    def as_integer_ratio(self):
        """(QuadInt numerator, positive int denominator), in lowest terms."""
        return self._num, self._den

    # -- arithmetic: one rule per operation ---------------------------------
    #
    # A rule maps two operands' (numerator, denominator) pairs, left operand
    # first, to the result's pair; `_operators` turns it into the forward and
    # the reflected operator, as `fractions.Fraction._operator_fallbacks` does.

    @staticmethod
    def _coerce(other):
        """other's `as_integer_ratio()`, or None if unsupported."""
        if isinstance(other, (QuadExt, int, Fraction)):
            return other.as_integer_ratio()
        return None

    def _operators(rule):
        def forward(self, other):
            parts = self._coerce(other)
            if parts is None:
                return NotImplemented
            return ratio(*rule(self._num, self._den, *parts))

        def reflected(self, other):
            parts = self._coerce(other)
            if parts is None:
                return NotImplemented
            return ratio(*rule(*parts, self._num, self._den))

        return forward, reflected

    __add__, __radd__ = _operators(lambda n1, q1, n2, q2: (n1 * q2 + n2 * q1, q1 * q2))
    __sub__, __rsub__ = _operators(lambda n1, q1, n2, q2: (n1 * q2 - n2 * q1, q1 * q2))
    __mul__, __rmul__ = _operators(lambda n1, q1, n2, q2: (n1 * n2, q1 * q2))
    __truediv__, __rtruediv__ = _operators(lambda n1, q1, n2, q2: (n1 * q2, q1 * n2))

    def __neg__(self):
        return QuadExt._make(-self._num, self._den)

    def __pos__(self):
        return self

    def _inverse(self):
        return ratio(self._den, self._num)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __floor__(self) -> int:
        return math.floor(self._num) // self._den

    # -- comparisons: each one test of the sign of self - other ------------

    def sign(self) -> int:
        return self._num.sign()

    def _cmp(self, other) -> int:
        parts = self._coerce(other)
        if parts is None:
            return NotImplemented
        n, q = parts
        return (self._num * q - n * self._den).sign()

    def _comparison(test):
        def compare(self, other):
            c = self._cmp(other)
            return NotImplemented if c is NotImplemented else test(c)

        return compare

    __eq__ = _comparison(lambda c: c == 0)
    __lt__ = _comparison(lambda c: c < 0)
    __le__ = _comparison(lambda c: c <= 0)
    __gt__ = _comparison(lambda c: c > 0)
    __ge__ = _comparison(lambda c: c >= 0)
    del _operators, _comparison

    def __hash__(self):
        # b != 0 always, so no QuadExt ever equals a rational; equal values
        # share their lowest-terms form
        return hash((self._num.r, self._num.s, self._den, self._num.d))

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
    """Exact sign of a scalar, an int or a QuadInt: -1, 0 or +1."""
    if isinstance(x, (QuadExt, QuadInt)):
        return x.sign()
    return (x > 0) - (x < 0)


def radicand(x: ScalarLike) -> Optional[int]:
    """The d of a QuadExt; None for a rational."""
    return x.d if isinstance(x, QuadExt) else None


# -- serialization ----------------------------------------------------------
#
# Wire format: a decimal integer string, "p/q", or for quadratic values
# {"a": "p/q", "b": "p/q", "d": n}.  Round-trips are bit exact.


def scalar_to_json(x: ScalarLike):
    # str of a Fraction is "p/q", or "p" where q == 1, as str of an int is
    if isinstance(x, QuadExt):
        return {"a": str(x.a), "b": str(x.b), "d": x.d}
    return str(x)


def scalar_from_json(value, quad_d: int | None = None) -> Scalar:
    """Parse a serialized scalar.

    quad_d, when given, is the only sqrt argument admitted; a mismatch is a
    ValueError so a rational-only document cannot smuggle in radicals.
    """
    if isinstance(value, bool):
        raise ValueError(f"not a scalar: {value!r}")
    if isinstance(value, (int, str)):
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


def bounded_int(text: str) -> int:
    """int(text); text past SCALAR_DIGITS characters is a ValueError before
    int reads it (Python's int-to-str limit is lifted while the CLI runs)."""
    if len(text) > SCALAR_DIGITS:
        raise ValueError(f"integer past {SCALAR_DIGITS} characters: {text[:24]!r}")
    return int(text)


def _fraction(value) -> Fraction:
    """Fraction(str(value)); a zero denominator, or text past the
    SCALAR_DIGITS bound (checked before Fraction parses it), is a ValueError."""
    value = str(value)
    exp = re.search(r"[eE][-+]?([\d_]+)", value)
    if len(value) > SCALAR_DIGITS or exp and int(exp[1]) > SCALAR_DIGITS:
        raise ValueError(f"scalar past {SCALAR_DIGITS} characters or exponent: {value[:24]!r}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
