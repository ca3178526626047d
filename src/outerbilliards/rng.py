"""Splittable counter-based pseudo-random values.

Sampling in this library must be bit-exact across runs and platforms, so we
avoid stateful generators: every value is a pure function of (seed, stream
tags, counter), mixed with the SplitMix64 finalizer.  Outputs feed exact
rational constructions; nothing here touches floats.
"""

from __future__ import annotations

from fractions import Fraction

from .scalars import coprime_fraction, ratio

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4B7C15


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class Rng:
    """Counter-based generator; `split` derives independent child streams."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = _mix64((seed & _MASK) ^ 0x5851F42D4C957F2D)

    def split(self, *tags: int) -> "Rng":
        child = Rng.__new__(Rng)
        s = self._state
        for t in tags:
            s = _mix64(s ^ _mix64((t & _MASK) + _GAMMA))
        child._state = s
        return child

    def u64(self, counter: int) -> int:
        return _mix64(self._state + (counter & _MASK) * _GAMMA)

    def int_range(self, counter: int, lo: int, hi: int) -> int:
        """Deterministic integer in [lo, hi]."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.u64(counter) % (hi - lo + 1)

    def odd(self, counter: int, bits: int = 32) -> int:
        """The odd int 2z+1 < 2^(bits+1), z the top `bits` bits of `u64`."""
        return 2 * (self.u64(counter) >> (64 - bits)) + 1

    def unit(self, counter: int, bits: int = 32) -> Fraction:
        """Rational strictly inside (0, 1): `odd` / 2^(bits+1), coprime as drawn."""
        return coprime_fraction(self.odd(counter, bits), 2 << bits)

    def draw(self, counter: int, lo: tuple, hi: tuple) -> tuple:
        """lo + u*(hi - lo), u = `unit(counter)`, on (num, den) pairs, den > 0 (ints, or
        QuadInt numerators): a pair strictly between lo and hi when they differ, not reduced."""
        (ln, ld), (hn, hd), one = lo, hi, 2 << 32
        return ln * hd * one + self.odd(counter) * (hn * ld - ln * hd), ld * hd * one

    def between(self, counter: int, lo, hi):
        """Scalar strictly between lo and hi: `draw` on their `as_integer_ratio()`s."""
        return ratio(*self.draw(counter, lo.as_integer_ratio(), hi.as_integer_ratio()))
