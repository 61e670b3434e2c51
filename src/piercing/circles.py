"""Exact circle-arrangement checks.

Disk constructions live on the lattice generated by sqrt(3), so in suitably
substituted coordinates (x or y divided by sqrt(3)) every circle becomes a
diagonal conic  w1*(x-a)^2 + w2*(y-b)^2 = r2  with rational data.  Pairwise
curve intersections then have coordinates in a single square-root extension,
(A + B sqrt(m)) / q with ints (bodies.int_point), and every side test is
the sign of P + Q sqrt(m) on ints (bodies.root_sign).

The coverage criterion: a region (conic disk, optionally cut by a rational
halfplane) is covered by a union of conic disks iff
  (a) every arrangement vertex inside the region lies in the union,
  (b) every boundary arc of the region between consecutive vertices has a
      sample point in the union,
  (c) every arc of a cover circle whose sample lies strictly inside the
      region is covered by some other disk.
Each circle's vertices are ordered by their exact stereographic parameter
(Conic.param), and every arc is sampled at a rational point between its
ends, so the verdict is exact.  Radicals build and order the vertices
only: each vertex and sample is converted to ints once.
"""

from fractions import Fraction
from itertools import combinations
import math

from .bodies import int_point, root_sign
from .errors import VerificationFailed
from .geom import Point, _plane, _scaled, frac
from .radicals import RadPoint, Radical, canonical_radicands, sqrt_exact


class Conic:
    """The disk w1*(x-a)^2 + w2*(y-b)^2 <= r2 with positive rational data."""

    __slots__ = ("w1", "w2", "a", "b", "r2", "_ints")

    def __init__(self, w1, w2, center: Point, r2):
        self.w1, self.w2 = frac(w1), frac(w2)
        self.a, self.b = center.x, center.y
        self.r2 = frac(r2)
        if self.w1 <= 0 or self.w2 <= 0 or self.r2 <= 0:
            raise VerificationFailed("degenerate conic")
        # the data cleared of denominators: weights and r2 over k, centre over l
        k, [(W1, W2), (R2, _)] = _scaled([Point(self.w1, self.w2), Point(self.r2, 0)])
        l, [(U, V)] = _scaled([center])
        self._ints = (W1, W2, R2 * l * l, U, V, l)

    def side(self, e) -> int:
        """The sign of w1 (x-a)^2 + w2 (y-b)^2 - r2 at the point of the
        int_point entry e = (q, m, A, B): times k l^2 q^2, P + Q sqrt(m) with
        X = l A_x - q U, Y = l A_y - q V, P = W1 (X^2 + m l^2 B_x^2) +
        W2 (Y^2 + m l^2 B_y^2) - R2 l^2 q^2, Q = 2 l (W1 X B_x + W2 Y B_y)."""
        W1, W2, R, U, V, l = self._ints
        q, m, (ax, ay), B = e
        X, Y = l * ax - q * U, l * ay - q * V
        P = W1 * X * X + W2 * Y * Y - R * q * q
        if B is None:
            return (P > 0) - (P < 0)
        bx, by = l * B[0], l * B[1]
        return root_sign(P + m * (W1 * bx * bx + W2 * by * by), 2 * (W1 * X * bx + W2 * Y * by), m)

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
        return [_line_point(p0, d, (Radical.of(-B) + s * root) * (Fraction(1, 2) / A))
                for s in (1, -1)]

    def intersect_conic(self, other):
        """Boundary intersection of two conics with the same quadratic part."""
        if self.w1 * other.w2 != self.w2 * other.w1:
            raise VerificationFailed("conics must share their quadratic part")
        # other rescaled to weights w1, w2 has r2 * w1 / other.w1
        nx = 2 * self.w1 * (other.a - self.a)
        ny = 2 * self.w2 * (other.b - self.b)
        if nx == 0 and ny == 0:
            return []
        c = (self.w1 * (other.a ** 2 - self.a ** 2) + self.w2 * (other.b ** 2 - self.b ** 2)
             + self.r2 - other.r2 * self.w1 / other.w1)
        return self.intersect_line(Point(nx, ny), c)


def _line_point(p0: Point, d: Point, t: Radical) -> RadPoint:
    return RadPoint(Radical.of(p0.x) + t * d.x, Radical.of(p0.y) + t * d.y)


def _line_side(plane, e) -> int:
    """The sign of A x + B y - C at the point of the int_point entry e, for
    the int halfplane (A, B, C) of geom._plane."""
    a, b, c = plane
    q, m, (ax, ay), B = e
    P = a * ax + b * ay - c * q
    return root_sign(P, 0 if B is None else a * B[0] + b * B[1], m)


class CoverageCheck:
    """Exact check that a conic region (optionally halfplane-cut) is covered."""

    def __init__(self, region: Conic, covers, halfplane=None):
        self.region = region
        self.covers = covers
        self.halfplane = halfplane  # (normal Point, offset): keep n.p <= c
        self._plane = None if halfplane is None else _plane(*halfplane)

    def _in_region(self, e, strict=False) -> bool:
        """Whether the point of the int_point entry e is in the region."""
        most = -1 if strict else 0
        return self.region.side(e) <= most and (self._plane is None
                                                or _line_side(self._plane, e) <= most)

    def _in_union(self, e, skip=None) -> bool:
        return any(i != skip and c.side(e) <= 0 for i, c in enumerate(self.covers))

    def verify(self) -> bool:
        curves = [self.region, *self.covers]
        vertices = [p for u, v in combinations(curves, 2) for p in u.intersect_conic(v)]
        if self.halfplane is not None:
            vertices += [p for c in curves for p in c.intersect_line(*self.halfplane)]
        # every vertex has one square root at most, so int_point takes it
        vertices, ints = _dedup(vertices, list(map(int_point, vertices)))

        # (a) vertices inside the region are covered
        for e in ints:
            if self._in_region(e) and not self._in_union(e):
                return False

        # (b) region boundary arcs
        if not self._check_circle_arcs(self.region, vertices, ints):
            return False
        if self.halfplane is not None and not self._check_line(vertices, ints):
            return False

        # (c) cover circle arcs strictly inside the region
        return all(self._check_circle_arcs(cover, vertices, ints, skip=i)
                   for i, cover in enumerate(self.covers))

    def _check_circle_arcs(self, circle: Conic, vertices, ints, skip=None) -> bool:
        """Whether each arc sample of circle in the region lies in the union,
        or for cover skip, each one strictly inside lies in another cover."""
        on = [v for v, e in zip(vertices, ints) if circle.side(e) == 0]
        return not any(self._in_region(e, strict=skip is not None) and not self._in_union(e, skip)
                       for e in map(int_point, arc_samples(circle, on)))

    def _check_line(self, vertices, ints) -> bool:
        n, c = self.halfplane
        d = n.perp()
        n2 = n.norm2()
        # the line is n c / n2 + s d, at d-coordinate p.d = s n2
        ts = sorted(v.x * d.x + v.y * d.y for v, e in zip(vertices, ints)
                    if _line_side(self._plane, e) == 0)
        for tu, tv in zip(ts, ts[1:]):
            s = _rational_between(tu, tv) / n2
            sample = int_point(Point(n.x * c / n2 + d.x * s, n.y * c / n2 + d.y * s))
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


def _dedup(points, ints):
    """The distinct points, first occurrences in order, and their int_point
    entries.  Over radicands in canonical form (canonical_radicands) equal
    points have equal entries; otherwise the points are compared as
    Radicals."""
    if canonical_radicands(sorted({e[1] for e in ints})):
        first = {}
        for k, (q, m, A, B) in enumerate(ints):
            first.setdefault((q, m, tuple(A), B), k)
        keep = first.values()
    else:
        keep = [k for k, p in enumerate(points) if not any(p == q for q in points[:k])]
    return [points[k] for k in keep], [ints[k] for k in keep]
