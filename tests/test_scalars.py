"""Exact scalar arithmetic: field axioms, ordering, serialization."""

import decimal
import inspect
import math
import operator
import pickle
import textwrap
import time
from fractions import Fraction

import pytest

from outerbilliards import dynamics, geometry, scalars
from outerbilliards.rng import Rng
from outerbilliards.scalars import (
    QuadExt,
    QuadInt,
    RADICAND_BOUND,
    SCALAR_DIGITS,
    floor_div,
    is_radicand,
    is_squarefree,
    quadext,
    ratio,
    scalar_from_json,
    scalar_to_json,
    sign,
)


def rand_fraction(rng, i, span=40):
    num = rng.int_range(2 * i, -span, span)
    den = rng.int_range(2 * i + 1, 1, span)
    return Fraction(num, den)


def rand_scalar(rng, i, d=5):
    kind = rng.int_range(3 * i, 0, 2)
    a = rand_fraction(rng.split(1), i)
    if kind == 0:
        return a
    b = rand_fraction(rng.split(2), i)
    return quadext(a, b if b != 0 else Fraction(1, 3), d)


def test_quadext_requires_squarefree():
    assert is_squarefree(5)
    assert is_squarefree(6)
    assert not is_squarefree(8)
    assert not is_squarefree(12)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 8)
    with pytest.raises(ValueError):
        QuadExt(1, 1, 1)


def test_is_squarefree_matches_trial_division():
    def by_trial_division(d):
        k = 2
        while k * k <= d:
            if d % (k * k) == 0:
                return False
            k += 1
        return True

    assert [d for d in range(-2, 20001) if is_squarefree(d)] == [
        d for d in range(1, 20001) if by_trial_division(d)]


def test_is_squarefree_on_two_large_prime_factors():
    """Two prime factors near 10^9: trial division to sqrt(d) takes 10^9
    steps, to cbrt(d) about 10^6."""
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    t0 = time.perf_counter()
    assert not is_squarefree(p * p)
    assert is_squarefree(p * q)
    assert not is_squarefree(4 * p * q)
    assert time.perf_counter() - t0 < 1.0


def test_radicand_bound_comes_before_the_square_free_test(within_seconds):
    """2**64 - 1 and 2**64 + 1 are both square-free; only the first is
    below the bound, and past it no division is tried."""
    assert RADICAND_BOUND == 2 ** 64
    assert is_radicand(2 ** 64 - 1) and is_squarefree(2 ** 64 + 1)
    assert not is_radicand(2 ** 64 + 1)
    t0 = time.perf_counter()
    assert not is_radicand(10 ** 69 + 7)
    assert not is_radicand(True) and not is_radicand(5.0)
    assert time.perf_counter() - t0 < 0.1
    with pytest.raises(ValueError, match="2\\*\\*64"):
        QuadExt(0, 1, 2 ** 64 + 1)


@pytest.mark.parametrize("text, ok", [
    ("1" * SCALAR_DIGITS, True), ("1" * (SCALAR_DIGITS + 1), False),
    ("-3/" + "7" * (SCALAR_DIGITS - 3), True), ("2.5e1000", True), ("1E-1000", True),
    ("1e1001", False), ("1e-1001", False), ("1e+0001001", False), ("1e1_001", False),
    ("7e5000", False),
])
def test_scalar_text_bound(text, ok, within_seconds):
    """A scalar's text: at most SCALAR_DIGITS characters, an exponent of at
    most SCALAR_DIGITS; the same bound inside a quadratic scalar."""
    for value, quad_d in ((text, None), ({"a": text, "b": "1", "d": 5}, 5)):
        if ok:
            scalar_from_json(value, quad_d=quad_d)
        else:
            with pytest.raises(ValueError, match="past 1000"):
                scalar_from_json(value, quad_d=quad_d)


def test_quadext_collapses_to_fraction():
    x = quadext(3, 0, 5)
    assert isinstance(x, Fraction) and x == 3
    y = QuadExt(1, 2, 5) - QuadExt(0, 2, 5)
    assert isinstance(y, Fraction) and y == 1


def test_quadext_sign_analysis():
    # 2 - sqrt(5) < 0 < 3 - sqrt(5)
    assert sign(quadext(2, -1, 5)) == -1
    assert sign(quadext(3, -1, 5)) == 1
    assert sign(quadext(-2, 1, 5)) == 1
    assert sign(quadext(-3, 1, 5)) == -1
    assert sign(quadext(0, 1, 5)) == 1
    assert sign(quadext(0, -1, 5)) == -1
    assert sign(Fraction(0)) == 0


def test_field_axioms_randomized():
    rng = Rng(2024).split(11)
    for i in range(300):
        a = rand_scalar(rng.split(0), i)
        b = rand_scalar(rng.split(1), i)
        c = rand_scalar(rng.split(2), i)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + 0 == a and a * 1 == a
        if sign(a) != 0:
            assert a * (1 / a if not isinstance(a, QuadExt) else Fraction(1) / a) == 1
            assert (b / a) * a == b


def parts(x):
    return (x.a, x.b) if isinstance(x, QuadExt) else (x, 0)


def test_ops_match_fraction_pair_oracle():
    """QuadExt arithmetic (a QuadInt over an int) against the same
    operations written on the (a, b) Fraction pairs, with d = 5."""
    rng = Rng(11).split(3)
    for i in range(400):
        x, y = rand_scalar(rng.split(0), i), rand_scalar(rng.split(1), i)
        (xa, xb), (ya, yb) = parts(x), parts(y)
        assert parts(x + y) == (xa + ya, xb + yb)
        assert parts(x - y) == (xa - ya, xb - yb)
        assert parts(x * y) == (xa * ya + 5 * xb * yb, xa * yb + xb * ya)
        if sign(y) != 0:
            n = ya * ya - 5 * yb * yb
            assert parts(x / y) == ((xa * ya - 5 * xb * yb) / n, (xb * ya - xa * yb) / n)
        if isinstance(x, QuadExt):
            num, den = x.as_integer_ratio()
            assert den > 0 and math.gcd(num.r, num.s, den) == 1
            assert (Fraction(num.r, den), Fraction(num.s, den)) == (xa, xb)


def rand_quadext(rng, i, d=5):
    b = rand_fraction(rng.split(2), i)
    return QuadExt(rand_fraction(rng.split(1), i), b if b != 0 else Fraction(1, 3), d)


ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def reflected_mismatches():
    """Each reflected operator with an int and with a Fraction on the left of
    a QuadExt, against the Fraction pair oracle (d = 5): the (left, op, x,
    got, expected) cases that disagree, a raised ZeroDivisionError
    included."""
    rng = Rng(13).split(4)
    bad = []
    for i in range(200):
        x = rand_quadext(rng.split(0), i)
        xa, xb = parts(x)
        n = xa * xa - 5 * xb * xb
        for left in (rng.int_range(i, -30, 30), rand_fraction(rng.split(3), i)):
            expected = {"+": (left + xa, xb), "-": (left - xa, -xb),
                        "*": (left * xa, left * xb), "/": (left * xa / n, -left * xb / n)}
            for op, apply in ARITHMETIC.items():
                try:
                    got = parts(apply(left, x))
                except ZeroDivisionError as exc:
                    got = exc
                if got != expected[op]:
                    bad.append((left, op, x, got, expected[op]))
    return bad


def test_reflected_ops_match_fraction_pair_oracle():
    assert reflected_mismatches() == []


def test_reflected_oracle_trips_on_forward_rules(monkeypatch):
    """Negative control: reflected subtraction and division computing
    self - other and self / other are caught by the oracle above."""
    monkeypatch.setattr(QuadExt, "__rsub__", QuadExt.__sub__)
    monkeypatch.setattr(QuadExt, "__rtruediv__", QuadExt.__truediv__)
    ops = {op for _, op, *_ in reflected_mismatches()}
    assert ops == {"-", "/"}


def test_comparisons_match_decimal_oracle_in_both_orders():
    """All five comparisons of a QuadExt with a QuadExt, a Fraction or an
    int, with the QuadExt on either side, against the sign of the
    difference: exact where the sqrt(5) parts agree, else to 60 digits."""
    rng = Rng(17).split(6)
    with decimal.localcontext(decimal.Context(prec=60)):
        sqrt5 = decimal.Decimal(5).sqrt()
        for i in range(300):
            x = rand_quadext(rng.split(0), i)
            kind = i % 4
            y = (rand_quadext(rng.split(1), i) if kind == 0 else x if kind == 1
                 else rand_fraction(rng.split(1), i) if kind == 2 else rng.int_range(i, -5, 5))
            a, b = (u - v for u, v in zip(parts(x), parts(y)))
            c = (sign(a) if b == 0 else
                 sign(decimal.Decimal(a.numerator) / a.denominator
                      + decimal.Decimal(b.numerator) / b.denominator * sqrt5))
            for left, right, s in ((x, y, c), (y, x, -c)):
                assert ((left == right, left < right, left <= right, left > right, left >= right)
                        == (s == 0, s < 0, s <= 0, s > 0, s >= 0)), (left, right)


@pytest.mark.parametrize("other", [1.5, "2"])
def test_unsupported_operands_raise_type_error(other):
    """A float or a str on either side of every arithmetic operator and
    ordering is a TypeError; equality with one is False."""
    x = QuadExt(1, 2, 5)
    for op in (*ARITHMETIC.values(), operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            op(x, other)
        with pytest.raises(TypeError):
            op(other, x)
    assert x != other and other != x


def test_floor_is_exact():
    rng = Rng(5).split(8)
    cases = [QuadExt(-2, 1, 5), QuadExt(2, -1, 5), QuadExt(3, -1, 5),
             QuadExt(0, 10 ** 9, 2), QuadExt(Fraction(-7, 3), Fraction(-1, 9), 13)]
    cases += [rand_scalar(rng, i) for i in range(300)]
    for x in cases:
        f = math.floor(x)
        assert type(f) is int and f <= x < f + 1, x
    assert math.floor(QuadInt(4, -2, 5)) == -1  # 4 - 2 sqrt 5 = -0.47


def test_floor_div_is_the_floor_of_the_quotient():
    """floor_div(num, den) on ints and QuadInts, either sign of den, equals
    floor of the `ratio` quotient, and is an int."""
    rng = Rng(7).split(2)
    values = [0, 1, -1, 7, -7, QuadInt(4, -2, 5), QuadInt(-4, 2, 5), QuadInt(0, 3, 5)]
    for i in range(40):
        x = rand_scalar(rng, i)
        num, den = x.as_integer_ratio()
        values += [num, num * den]
    for num in values:
        for den in values[1:]:
            if den == 0:
                continue
            q = floor_div(num, den)
            x = ratio(num, den)
            assert type(q) is int and q <= x < q + 1, (num, den)


def test_mixed_rational_quadext_arithmetic():
    r = Fraction(3, 2)
    q = QuadExt(1, 1, 5)
    assert r + q == q + r == QuadExt(Fraction(5, 2), 1, 5)
    assert r * q == QuadExt(Fraction(3, 2), Fraction(3, 2), 5)
    assert (q - q) == 0
    assert q / q == 1
    assert 1 / q == QuadExt(Fraction(-1, 4), Fraction(1, 4), 5)
    # (1 + sqrt5)(−1 + sqrt5) = 4, so 1/(1+sqrt5) = (−1+sqrt5)/4
    assert q * (1 / q) == 1


def test_mixing_different_radicands_raises():
    with pytest.raises(ValueError):
        QuadExt(1, 1, 5) + QuadExt(1, 1, 7)


def test_ordering_transitive_and_matches_decimal_oracle():
    # float/decimal used strictly as a test oracle; the kernel never rounds
    prec = decimal.getcontext().prec
    rng = Rng(7).split(99)
    vals = []
    for i in range(10_000):
        a = rand_fraction(rng.split(0), i, span=25)
        b = rand_fraction(rng.split(1), i, span=25)
        if b == 0:
            b = Fraction(1, 7)
        vals.append(QuadExt(a, b, 5))
    with decimal.localcontext(decimal.Context(prec=60)):
        sqrt5 = decimal.Decimal(5).sqrt()

        def approx(q):
            return (decimal.Decimal(q.a.numerator) / q.a.denominator
                    + (decimal.Decimal(q.b.numerator) / q.b.denominator) * sqrt5)

        for i in range(0, len(vals) - 1, 2):
            x, y = vals[i], vals[i + 1]
            ax, ay = approx(x), approx(y)
            if abs(ax - ay) > decimal.Decimal("1e-30"):
                assert (x < y) == (ax < ay)
    assert decimal.getcontext().prec == prec  # the oracle's precision stays in its context
    # transitivity spot-check on sorted triples
    s = sorted(vals[:300])
    for i in range(len(s) - 2):
        assert s[i] <= s[i + 1] <= s[i + 2]
        assert s[i] <= s[i + 2]


def test_serialization_round_trip():
    cases = [Fraction(5), Fraction(-7, 3), quadext(Fraction(1, 2), Fraction(-2, 3), 5)]
    for x in cases:
        enc = scalar_to_json(x)
        d = x.d if isinstance(x, QuadExt) else None
        assert scalar_from_json(enc, quad_d=d) == x
    assert scalar_to_json(Fraction(5)) == "5"
    assert scalar_to_json(Fraction(-7, 3)) == "-7/3"
    assert scalar_from_json("12") == Fraction(12)
    assert scalar_from_json(3) == Fraction(3)


def test_serialization_rejects_field_mismatch():
    enc = {"a": "1", "b": "1/2", "d": 5}
    with pytest.raises(ValueError):
        scalar_from_json(enc)  # rational document cannot hold radicals
    with pytest.raises(ValueError):
        scalar_from_json(enc, quad_d=7)
    with pytest.raises(ValueError):
        scalar_from_json({"a": "1"}, quad_d=5)
    with pytest.raises(ValueError):
        scalar_from_json(True)


def test_fraction_slots_are_pinned():
    """`coprime_fraction` fills these two slots; a Python release that
    renames or adds one must fail here, not build a broken Fraction."""
    assert Fraction.__slots__ == ("_numerator", "_denominator")


def big_int(rng, i, words):
    """A seeded int of up to 64*words bits, either sign."""
    x = 0
    for w in range(words):
        x = x << 64 | rng.u64(words * i + w)
    return -x if rng.u64(~i) & 1 else x


def same_fraction(got, want) -> bool:
    """Whether got is want in every way a caller can see."""
    return (type(got) is Fraction and got == want and hash(got) == hash(want)
            and str(got) == str(want) and repr(got) == repr(want)
            and pickle.dumps(got) == pickle.dumps(want)
            and pickle.loads(pickle.dumps(got)) == want)


def fraction_parity_mismatches():
    """Every int-pair Fraction route against `Fraction(n, d)` on seeded
    random ints, zero numerators, d == 1 and values of several hundred
    digits, pairs with and without a common factor: the (route, n, d) cases
    whose value, type, hash, str, repr, pickle or + - * / results with a
    second Fraction differ.  The routes are looked up on their modules, so a
    patched route is the one tested."""
    rng = Rng(35).split(1)
    bad = []
    for i in range(300):
        words = 1 + i % 5 if i % 3 else 1 + i % 17  # up to 1,088 bits, 328 digits
        n, d = big_int(rng.split(0), i, words), abs(big_int(rng.split(1), i, words)) + 1
        k = abs(big_int(rng.split(2), i, 1 + i % 4)) + 1 if i % 2 else 1
        n = 0 if i % 7 == 0 else n * k
        d = 1 if i % 5 == 0 else d * k
        want = Fraction(n, d)
        other = Fraction(big_int(rng.split(3), i, 2), abs(big_int(rng.split(4), i, 1)) + 1)
        g = math.gcd(n, d)
        routes = {
            "coprime_fraction": scalars.coprime_fraction(n // g, d // g),
            "ratio": scalars.ratio(n, d),
            "ratio, negated pair": scalars.ratio(-n, -d),
            "ratio, QuadInt": scalars.ratio(QuadInt(n, 0, 5), d),
            "point_of x": geometry.point_of((n, 1, d)).x,
            "point_of y": geometry.point_of((-1, n, d)).y,
        }
        if n:
            routes["QuadExt.a"] = QuadExt(want, 1, 5).a
            routes["QuadExt.b"] = QuadExt(1, want, 5).b
        for route, got in routes.items():
            ok = same_fraction(got, want)
            for apply in ARITHMETIC.values():
                ok = ok and same_fraction(apply(got, other), apply(want, other))
                ok = ok and (not want or same_fraction(apply(other, got), apply(other, want)))
            if not ok:
                bad.append((route, n, d))
    for i in range(64):
        bits = 1 + i % 40
        if not same_fraction(rng.unit(i, bits), Fraction(rng.odd(i, bits), 2 << bits)):
            bad.append(("Rng.unit", i, bits))
    return bad


def test_int_pair_fractions_match_fraction():
    assert fraction_parity_mismatches() == []


@pytest.mark.parametrize("num", [5, -5, 0, QuadInt(5, 0, 5), QuadInt(1, 2, 5)])
@pytest.mark.parametrize("den", [0, QuadInt(0, 0, 5)])
def test_ratio_by_zero_raises(num, den):
    with pytest.raises(ZeroDivisionError):
        ratio(num, den)


def test_parity_catches_dropped_gcd(monkeypatch):
    """Negative control: `ratio` and `point_of` feeding `coprime_fraction`
    the unreduced pair (the gcd dropped) fail the parity test above and at
    least one orbit event-log golden."""
    from test_dynamics import ORBIT_GOLDEN, test_orbit_golden_event_log

    for module, name, reduced, unreduced in [
            (scalars, "ratio", "coprime_fraction(r // g, den // g)", "coprime_fraction(r, den)"),
            (geometry, "point_of", "coprime_fraction(X // g, L // g), coprime_fraction(Y // h, L // h)",
             "coprime_fraction(X, L), coprime_fraction(Y, L)")]:
        source = textwrap.dedent(inspect.getsource(getattr(module, name)))
        assert source.count(reduced) == 1
        namespace = dict(vars(module))
        exec(source.replace(reduced, unreduced), namespace)
        monkeypatch.setattr(module, name, namespace[name])
    monkeypatch.setattr(dynamics, "point_of", geometry.point_of)
    assert {route for route, *_ in fraction_parity_mismatches()} >= {"ratio", "point_of x"}
    failed = 0
    for case in ORBIT_GOLDEN:
        try:
            test_orbit_golden_event_log(case)
        except AssertionError:
            failed += 1
    assert failed >= 1
