"""Exact circle-arrangement checks.

Disk constructions live on the lattice generated by sqrt(3), so in suitably
substituted coordinates (x or y divided by sqrt(3)) every circle becomes a
diagonal conic  w1*(x-a)^2 + w2*(y-b)^2 = r2  with rational data.  Pairwise
curve intersections then have coordinates in a single square-root extension
and all verification predicates reduce to exact radical signs.

The coverage criterion: a region (conic disk, optionally cut by a rational
halfplane) is covered by a union of conic disks iff
  (a) every arrangement vertex inside the region lies in the union,
  (b) every boundary arc of the region between consecutive vertices has a
      sample point in the union,
  (c) every arc of a cover circle whose sample lies strictly inside the
      region is covered by some other disk.
Each circle's vertices are ordered by their exact stereographic parameter
(Conic.param), and every arc is sampled at a rational point between its
ends, so the verdict is exact.
"""

from fractions import Fraction
from itertools import combinations
import math

from .errors import VerificationFailed
from .geom import Point, frac
from .radicals import RadPoint, Radical, sqrt_exact


class Conic:
    """The disk w1*(x-a)^2 + w2*(y-b)^2 <= r2 with positive rational data."""

    __slots__ = ("w1", "w2", "a", "b", "r2")

    def __init__(self, w1, w2, center: Point, r2):
        self.w1, self.w2 = frac(w1), frac(w2)
        self.a, self.b = center.x, center.y
        self.r2 = frac(r2)
        if self.w1 <= 0 or self.w2 <= 0 or self.r2 <= 0:
            raise VerificationFailed("degenerate conic")

    def value(self, p: RadPoint) -> Radical:
        dx = p.x - self.a
        dy = p.y - self.b
        return dx * dx * self.w1 + dy * dy * self.w2 - self.r2

    def side(self, p: RadPoint) -> int:
        return self.value(p).sign()

    def base_point(self):
        """A rational point on the boundary, with its parametrization axis."""
        r = sqrt_exact(self.r2 / self.w1)
        if r is not None:
            return Point(self.a + r, self.b), "x", r
        r = sqrt_exact(self.r2 / self.w2)
        if r is not None:
            return Point(self.a, self.b + r), "y", r
        raise VerificationFailed("no rational point on conic")

    def param_point(self, t: Fraction) -> RadPoint:
        """Rational point from the stereographic sweep off the base point."""
        _, axis, r = self.base_point()
        t = frac(t)
        if axis == "x":
            lam = -2 * self.w1 * r / (self.w1 + self.w2 * t * t)
            return RadPoint(Radical.of(self.a + r + lam), Radical.of(self.b + lam * t))
        lam = -2 * self.w2 * r / (self.w1 * t * t + self.w2)
        return RadPoint(Radical.of(self.a + lam * t), Radical.of(self.b + r + lam))

    def param(self, p: RadPoint):
        """The t with param_point(t) == p for a boundary point p, or None at
        the base point: the slope of the line from the base point to p.  It
        is exact when p's coordinates share one square root, as every
        arrangement vertex's do, and it is monotone along the boundary."""
        _, axis, r = self.base_point()
        if axis == "x":
            num, den = p.y - self.b, p.x - self.a - r
        else:
            num, den = p.x - self.a, p.y - self.b - r
        if not den.terms:
            return None
        # times the conjugate of den over its rational norm
        conj = Radical({m: c if m == 1 else -c for m, c in den.terms.items()})
        norm = den * conj
        if not norm.is_rational():
            raise VerificationFailed("boundary point with several square roots")
        return num * conj * (1 / norm.as_fraction())

    def intersect_line(self, n: Point, c):
        """Conic boundary meets the line n.p = c."""
        c = frac(c)
        n2 = n.norm2()
        p0 = Point(n.x * c / n2, n.y * c / n2)
        d = n.perp()
        A = self.w1 * d.x * d.x + self.w2 * d.y * d.y
        B = 2 * (self.w1 * d.x * (p0.x - self.a) + self.w2 * d.y * (p0.y - self.b))
        C = (
            self.w1 * (p0.x - self.a) ** 2
            + self.w2 * (p0.y - self.b) ** 2
            - self.r2
        )
        disc = B * B - 4 * A * C
        if disc < 0:
            return []
        if disc == 0:
            return [_line_point(p0, d, Radical.of(-B / (2 * A)))]
        root = Radical.sqrt(disc)
        t1 = (Radical.of(-B) + root) * (Fraction(1, 2) / A)
        t2 = (Radical.of(-B) - root) * (Fraction(1, 2) / A)
        return [_line_point(p0, d, t1), _line_point(p0, d, t2)]

    def intersect_conic(self, other):
        """Boundary intersection of two conics with the same quadratic part."""
        if self.w1 * other.w2 != self.w2 * other.w1:
            raise VerificationFailed("conics must share their quadratic part")
        # rescale other so its weights match exactly
        s = self.w1 / other.w1
        ow2 = other.w2 * s
        if ow2 != self.w2:
            raise VerificationFailed("conics must share their quadratic part")
        or2 = other.r2 * s
        nx = 2 * self.w1 * (other.a - self.a)
        ny = 2 * self.w2 * (other.b - self.b)
        if nx == 0 and ny == 0:
            return []
        c = (
            self.w1 * (other.a ** 2 - self.a ** 2)
            + self.w2 * (other.b ** 2 - self.b ** 2)
            + self.r2
            - or2
        )
        return self.intersect_line(Point(nx, ny), c)


def _line_point(p0: Point, d: Point, t: Radical) -> RadPoint:
    return RadPoint(Radical.of(p0.x) + t * d.x, Radical.of(p0.y) + t * d.y)


class CoverageCheck:
    """Exact check that a conic region (optionally halfplane-cut) is covered."""

    def __init__(self, region: Conic, covers, halfplane=None):
        self.region = region
        self.covers = covers
        self.halfplane = halfplane  # (normal Point, offset): keep n.p <= c

    def _in_region(self, p: RadPoint, strict=False) -> bool:
        s = self.region.side(p)
        if s > 0 or (strict and s == 0):
            return False
        if self.halfplane is not None:
            n, c = self.halfplane
            h = (p.x * n.x + p.y * n.y - c).sign()
            if h > 0 or (strict and h == 0):
                return False
        return True

    def _in_union(self, p: RadPoint, skip=None) -> bool:
        return any(i != skip and c.side(p) <= 0 for i, c in enumerate(self.covers))

    def verify(self) -> bool:
        curves = [self.region, *self.covers]
        vertices = [p for u, v in combinations(curves, 2) for p in u.intersect_conic(v)]
        if self.halfplane is not None:
            vertices += [p for c in curves for p in c.intersect_line(*self.halfplane)]
        vertices = _dedup(vertices)

        # (a) vertices inside the region are covered
        for v in vertices:
            if self._in_region(v) and not self._in_union(v):
                return False

        # (b) region boundary arcs
        if not self._check_circle_arcs(self.region, vertices):
            return False
        if self.halfplane is not None and not self._check_line(vertices):
            return False

        # (c) cover circle arcs strictly inside the region
        return all(self._check_circle_arcs(cover, vertices, skip=i)
                   for i, cover in enumerate(self.covers))

    def _check_circle_arcs(self, circle: Conic, vertices, skip=None) -> bool:
        """Whether each arc sample of circle in the region lies in the union,
        or for cover skip, each one strictly inside lies in another cover."""
        on = [v for v in vertices if circle.side(v) == 0]
        return not any(self._in_region(s, strict=skip is not None) and not self._in_union(s, skip)
                       for s in arc_samples(circle, on))

    def _check_line(self, vertices) -> bool:
        n, c = self.halfplane
        d = n.perp()
        n2 = n.norm2()
        # the line is n c / n2 + s d, at d-coordinate p.d = s n2
        ts = sorted(v.x * d.x + v.y * d.y for v in vertices
                    if (v.x * n.x + v.y * n.y - c).sign() == 0)
        for tu, tv in zip(ts, ts[1:]):
            s = _rational_between(tu, tv) / n2
            sample = RadPoint(n.x * c / n2 + d.x * s, n.y * c / n2 + d.y * s)
            if self._in_region(sample) and not self._in_union(sample):
                return False
        return True


def arc_samples(circle: Conic, on) -> list:
    """One rational point strictly inside each arc into which the distinct
    boundary points on cut circle (one point anywhere when on is empty).

    Conic.param orders the points along the boundary.  Between neighbours
    the sample is at a rational parameter; on the arc through the base
    point it is the base point, or, when that is one of on, an integer
    parameter below the first and one above the last."""
    ts = sorted(t for t in map(circle.param, on) if t is not None)
    samples = [circle.param_point(_rational_between(u, v)) for u, v in zip(ts, ts[1:])]
    if len(ts) == len(on):
        samples.append(RadPoint.of(circle.base_point()[0]))
    elif ts:
        lo, hi = ts[0]._bounds(16)[0], ts[-1]._bounds(16)[1]
        samples += [circle.param_point(math.floor(lo) - 1), circle.param_point(math.floor(hi) + 1)]
    else:
        samples.append(circle.param_point(0))
    return samples


def _rational_between(a: Radical, b: Radical) -> Fraction:
    """An exact rational strictly between two distinct radical values."""
    if a > b:
        a, b = b, a
    bits = 16
    while bits <= 1 << 20:
        alo, ahi = a._bounds(bits)
        blo, bhi = b._bounds(bits)
        if ahi < blo:
            return (ahi + blo) / 2
        bits *= 2
    raise VerificationFailed("values too close to separate")


def _dedup(points):
    out = []
    for p in points:
        if not any(p == q for q in out):
            out.append(p)
    return out
