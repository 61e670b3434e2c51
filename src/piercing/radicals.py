"""Exact arithmetic on expressions a1*sqrt(m1) + a2*sqrt(m2) + ...

Expressions are built from rationals with +, -, * and square roots of
nonnegative rationals.  They are kept in a canonical form mapping each
squarefree radicand to a rational coefficient, which makes the zero test
and equality exact: square roots of distinct squarefree integers are
linearly independent over the rationals, so equal values have equal terms
(and equal hashes).  Nonzero signs are then decided by interval refinement
with exact rational bounds, which always terminates on a canonical nonzero
value.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, isqrt

from .errors import PrecisionExhausted
from .geom import frac


def sqrt_exact(q: Fraction):
    """The exact rational square root of q, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = isqrt(n), isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


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
    a larger prime: Radical._add_term merges such a radicand into its
    square class exactly, but equal values written with it and with its
    squarefree part hash apart.  Memoised: the oracle's circle
    intersections repeat a few hundred radicands thousands of times.
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


def canonical_radicands(ms) -> bool:
    """True when terms over the integer radicands ms are already in the
    canonical form of Radical, so that {m: c} with nonzero c is their sum:
    distinct positive radicands that _reduce_radicand leaves alone (1 for
    the rational part), no two in one square class."""
    if len(set(ms)) != len(ms):
        return False
    if not all(m >= 1 and _reduce_radicand(m) == (1, m) for m in ms):
        return False
    return not any(isqrt(k * m) ** 2 == k * m for k, m in combinations(ms, 2))


class Radical:
    """A canonical sum of rational multiples of square roots of integers.

    The terms dict maps a positive integer radicand (1 for the rational
    part) to its nonzero rational coefficient.  Radicands are squarefree
    (_reduce_radicand, with the caveat there) and no two lie in one square
    class, so equal values have equal terms.
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
        """Add coeff * sqrt(m), in place, for m as _reduce_radicand leaves
        it.  Two such radicands share a square class only if they are equal
        or one hides a large square (_reduce_radicand); then k*m is a
        perfect square and the term joins the other."""
        if not coeff:
            return
        terms = self.terms
        if m not in terms:
            for k in terms:
                s = isqrt(k * m)
                if s * s == k * m:
                    # sqrt(m) = s/k * sqrt(k)
                    m, coeff = k, coeff * Fraction(s, k)
                    break
        c = terms.get(m, 0) + coeff
        if c:
            terms[m] = c
        else:
            del terms[m]

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
                # squarefree m1 = g a and m2 = g b make m1 m2 = g^2 a b
                g = gcd(m1, m2)
                out._add_term(m1 // g * (m2 // g), c1 * c2 * g)
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
            r_lo, r_hi = Fraction(s, scale), Fraction(s + 1, scale)
            if c < 0:
                r_lo, r_hi = r_hi, r_lo
            lo += c * r_lo
            hi += c * r_hi
        return lo, hi

    def __float__(self):
        # fast non-directed rounding; use _bounds for rigorous enclosures
        import math

        return float(sum(float(c) * math.sqrt(m) for m, c in self.terms.items()))

    def __eq__(self, other):
        return (self - _coerce(other)).sign() == 0

    def __lt__(self, other):
        return (self - _coerce(other)).sign() < 0

    def __gt__(self, other):
        return (self - _coerce(other)).sign() > 0

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
