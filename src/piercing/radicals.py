"""Exact square roots and one-radicand quadratic points.

The disk constructions need at most one square root per point: the sqrt(3)
offsets of the hexagonal disk patterns, and the lower crossing of two
circles in the oracle.  A RadPoint holds such a point in the int form that
bodies.membership decides, coordinate k being (A[k] + B[k] sqrt(m)) / q;
nothing here adds or multiplies roots.

Its key needs no factoring.  1, sqrt(m) and sqrt(m') are linearly
independent over the rationals when sqrt(m m') is irrational (Besicovitch
1940), so for m and m' not perfect squares and b, b' nonzero,
a + b sqrt(m) = a' + b' sqrt(m') iff a = a' and b^2 m = b'^2 m' with b and
b' of one sign.  A coordinate a + b sqrt(m) is keyed as
(a, sign(b) b^2 m), and equal values have equal keys whatever radicand
writes them.
"""

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .geom import Point


def sqrt_exact(q: Fraction):
    """The exact rational square root of q, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def is_square(m: int) -> bool:
    """Whether the int m >= 0 is a perfect square."""
    return isqrt(m) ** 2 == m


# trial division stops at this prime bound, so a radicand below its cube is
# always reduced to squarefree
_TRIAL_BOUND = 1 << 16


@lru_cache(maxsize=1 << 12)
def _reduce_radicand(m: int):
    """m = f**2 * m' with m' squarefree; returns (f, m').

    Trial division strips every prime p with p**3 <= m (m shrinking as it
    goes); what is left has at most two prime factors, all larger, so it is
    squarefree unless it is a perfect square.  The division stops at
    _TRIAL_BOUND, so a remainder above 48 bits can still hide the square of
    a larger prime; RadPoint.key is exact either way.  Memoised: the
    oracle's circle intersections repeat a few hundred radicands thousands
    of times.
    """
    f = core = 1
    p = 2
    while p * p * p <= m and p < _TRIAL_BOUND:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            f *= p ** (e // 2)
            if e % 2:
                core *= p
        p += 1 if p == 2 else 2
    r = isqrt(m)
    if r * r == m:
        return f * r, core
    return f, core * m


class RadPoint:
    """A planar point with coordinates (A[k] + B[k] sqrt(m)) / q: ints,
    q > 0, and the form bodies.int_point returns as it is.  B is None for a
    rational point, and m is then unused; where B is given, m is not a
    perfect square.  It prints as its coordinates' sums of terms,
    Radical(a + b*sqrt(m)), the form printed points have always had.
    """

    __slots__ = ("q", "m", "A", "B")

    def __init__(self, q, m, A, B=None):
        self.q, self.m, self.A, self.B = q, m, tuple(A), None if B is None else tuple(B)

    @classmethod
    def of_fractions(cls, m, xs, ys):
        """The point with coordinates xs[k] + ys[k] sqrt(m), for rationals
        xs and ys (ys None for a rational point)."""
        q = lcm(*[v.denominator for v in (*xs, *(ys or ()))])
        A, B = ([v.numerator * (q // v.denominator) for v in vs] for vs in (xs, ys or ()))
        return cls(q, m, A, None if ys is None else B)

    def key(self):
        """Per coordinate a + b sqrt(m), the pair (a, sign(b) b^2 m) of
        rationals: equal points have equal keys (module docstring)."""
        q, m = self.q, self.m
        B = self.B or (0,) * len(self.A)
        return tuple((Fraction(a, q), Fraction(b * abs(b) * m, q * q)) for a, b in zip(self.A, B))

    def __eq__(self, other):
        if not isinstance(other, (RadPoint, Point, tuple)):
            return NotImplemented
        return self.key() == point_key(other)

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        q, m = self.q, self.m
        B = self.B or (0,) * len(self.A)
        coords = []
        for a, b in zip(self.A, B):
            terms = [str(Fraction(a, q))] if a else []
            if b:
                terms.append("%s*sqrt(%d)" % (Fraction(b, q), m))
            coords.append("Radical(%s)" % (" + ".join(terms) or "0"))
        return "RadPoint(%s)" % ", ".join(coords)


def point_key(p):
    """RadPoint.key of a RadPoint, a Point or a box tuple: a rational
    coordinate a keys as (a, 0)."""
    if isinstance(p, RadPoint):
        return p.key()
    return tuple((v, 0) for v in (p if isinstance(p, tuple) else (p.x, p.y)))
