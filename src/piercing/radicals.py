"""Exact arithmetic on expressions a1*sqrt(m1) + a2*sqrt(m2) + ...

Expressions are built from rationals with +, -, * and square roots of
nonnegative rationals.  They are kept in a canonical form mapping each
square class of radicands to a rational coefficient, which makes the zero
test exact: square roots of rationals in distinct square classes are
linearly independent over the rationals.  Nonzero signs are then decided
by interval refinement with exact rational bounds, which always terminates
on a canonical nonzero value.
"""

from fractions import Fraction
from itertools import combinations
from math import isqrt

from .errors import PrecisionExhausted
from .geom import frac

_SMALL_SQUARES = [p * p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]


def sqrt_exact(q: Fraction):
    """The exact rational square root of q, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _reduce_radicand(m: int):
    """Extract small square factors: m = f**2 * m'; returns (f, m')."""
    f = 1
    for s in _SMALL_SQUARES:
        while m % s == 0:
            m //= s
            f *= isqrt(s)
    return f, m


def canonical_radicands(ms) -> bool:
    """True when terms over the integer radicands ms are already in the
    canonical form of Radical, so that {m: c} with nonzero c is their sum:
    distinct positive radicands, each 1 or a non-square that
    _reduce_radicand leaves alone, and no two in one square class."""
    if len(set(ms)) != len(ms):
        return False
    for m in ms:
        if m < 1 or (m > 1 and (sqrt_exact(m) is not None or _reduce_radicand(m) != (1, m))):
            return False
    return not any(sqrt_exact(k * m) is not None for k, m in combinations(ms, 2))


class Radical:
    """A canonical sum of rational multiples of square roots of integers.

    The terms dict maps a positive integer radicand (1 for the rational
    part) to its rational coefficient.  Radicands are merged whenever their
    ratio is a perfect rational square, so distinct keys lie in distinct
    square classes.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @classmethod
    def of(cls, q) -> "Radical":
        q = frac(q)
        return cls({1: q} if q else {})

    @classmethod
    def sqrt(cls, q) -> "Radical":
        """sqrt of a nonnegative rational, as a Radical."""
        q = frac(q)
        if q < 0:
            raise ValueError("negative radicand %s" % q)
        if q == 0:
            return cls({})
        r = sqrt_exact(q)
        if r is not None:
            return cls({1: r})
        # sqrt(p/d) = sqrt(p*d)/d with an integer radicand
        p, d = q.numerator, q.denominator
        f, m = _reduce_radicand(p * d)
        return cls({m: Fraction(f, d)})

    def _add_term(self, m: int, coeff: Fraction):
        if not coeff:
            return
        terms = self.terms
        if m in terms:
            c = terms[m] + coeff
            if c:
                terms[m] = c
            else:
                del terms[m]
            return
        for k in terms:
            # same square class iff k*m is a perfect square
            s = sqrt_exact(Fraction(k * m))
            if s is not None:
                # sqrt(m) = s/k * sqrt(k)
                c = terms[k] + coeff * s / k
                if c:
                    terms[k] = c
                else:
                    del terms[k]
                return
        terms[m] = coeff

    def __add__(self, other):
        other = _coerce(other)
        out = Radical(dict(self.terms))
        for m, c in other.terms.items():
            out._add_term(m, c)
        return out

    __radd__ = __add__

    def __neg__(self):
        return Radical({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-_coerce(other))

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        out = Radical()
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                if m1 == m2:
                    out._add_term(1, c1 * c2 * m1)
                    continue
                f, m = _reduce_radicand(m1 * m2)
                out._add_term(m, c1 * c2 * f)
        return out

    __rmul__ = __mul__

    def is_rational(self):
        return all(m == 1 for m in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if self.is_rational():
            return self.terms[1]
        raise ValueError("not rational: %r" % self)

    def sign(self, max_bits: int = 4096) -> int:
        """Exact sign: -1, 0 or +1."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            ((m, c),) = self.terms.items()
            return 1 if c > 0 else -1
        if all(c > 0 for c in self.terms.values()):
            return 1
        if all(c < 0 for c in self.terms.values()):
            return -1
        bits = 16
        while bits <= max_bits:
            lo, hi = self._bounds(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise PrecisionExhausted("sign undecided after %d bits" % max_bits)

    def _bounds(self, bits: int):
        """Exact rational lower/upper bounds on the value."""
        lo = hi = Fraction(0)
        scale = 1 << bits
        for m, c in self.terms.items():
            if m == 1:
                lo += c
                hi += c
                continue
            s = isqrt(m * scale * scale)
            r_lo = Fraction(s, scale)
            r_hi = Fraction(s + 1, scale)
            if c > 0:
                lo += c * r_lo
                hi += c * r_hi
            else:
                lo += c * r_hi
                hi += c * r_lo
        return lo, hi

    def __float__(self):
        # fast non-directed rounding; use _bounds for rigorous enclosures
        import math

        return float(sum(float(c) * math.sqrt(m) for m, c in self.terms.items()))

    def __eq__(self, other):
        return (self - _coerce(other)).sign() == 0

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __le__(self, other):
        return (self - _coerce(other)).sign() <= 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

    def __ge__(self, other):
        return (self - _coerce(other)).sign() >= 0

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "Radical(0)"
        bits = []
        for m, c in sorted(self.terms.items()):
            bits.append(str(c) if m == 1 else "%s*sqrt(%d)" % (c, m))
        return "Radical(%s)" % " + ".join(bits)


def _coerce(x) -> Radical:
    if isinstance(x, Radical):
        return x
    return Radical.of(x)


def refine_sign(expr, max_bits: int = 4096) -> int:
    """Sign of a Radical or rational expression: -1, 0 or +1.

    Zero is detected symbolically from the canonical form; nonzero signs
    fall back to interval refinement, doubling precision up to max_bits
    before raising PrecisionExhausted.
    """
    return _coerce(expr).sign(max_bits)


class RadPoint:
    """A 2-D point with Radical coordinates (used for disk constructions)."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = _coerce(x)
        self.y = _coerce(y)

    @classmethod
    def of(cls, p):
        if isinstance(p, RadPoint):
            return p
        return cls(p.x, p.y)

    def __add__(self, other):
        return RadPoint(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return RadPoint(self.x - other.x, self.y - other.y)

    def __mul__(self, s):
        return RadPoint(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.x == other.x and self.y == other.y

    def is_rational(self):
        return self.x.is_rational() and self.y.is_rational()

    def key(self):
        """Hashable canonical form; equal keys imply equal points."""
        return (
            tuple(sorted(self.x.terms.items())),
            tuple(sorted(self.y.terms.items())),
        )

    def __repr__(self):
        return "RadPoint(%r, %r)" % (self.x, self.y)


def dist2(p: RadPoint, q) -> Radical:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy
