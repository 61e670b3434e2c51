"""Exact circle-arrangement checks on rational vertices.

Disk constructions live on the lattice generated by sqrt(3), so in suitably
substituted coordinates (x or y divided by sqrt(3)) every circle becomes a
diagonal conic  w1*(x-a)^2 + w2*(y-b)^2 = r2  with rational data.  The disk
patterns' arrangements are the radius-1 arrangement scaled by r, so every
vertex is a rational Point; a pair of curves meeting at an irrational point
raises VerificationFailed instead of giving a verdict.  Every side test is
the sign of an int on the point's homogeneous triple (geom._hom).

The coverage criterion: a region (conic disk, optionally cut by a rational
halfplane) is covered by a union of conic disks iff
  (a) every arrangement vertex inside the region lies in the union,
  (b) every boundary arc of the region between consecutive vertices has a
      sample point in the union,
  (c) every arc of a cover circle whose sample lies strictly inside the
      region is covered by some other disk.
Each circle's vertices are ordered by their rational stereographic
parameter (Conic.param), and every arc is sampled at the midpoint of its
two end parameters, so the verdict is exact.
"""

from fractions import Fraction
from itertools import combinations
from math import isqrt

from .errors import VerificationFailed
from .geom import Point, _hom, _plane, _scaled, frac
from .radicals import sqrt_exact


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

    def side(self, p: Point) -> int:
        """The sign of w1 (x-a)^2 + w2 (y-b)^2 - r2 at p: times k l^2 w^2
        on the triple (X, Y, w) of p, W1 (l X - w U)^2 + W2 (l Y - w V)^2
        - R2 l^2 w^2."""
        W1, W2, R, U, V, l = self._ints
        X, Y, w = _hom(p)
        X, Y = l * X - w * U, l * Y - w * V
        P = W1 * X * X + W2 * Y * Y - R * w * w
        return (P > 0) - (P < 0)

    def base_point(self):
        """A rational point on the boundary, with its parametrization axis."""
        r = sqrt_exact(self.r2 / self.w1)
        if r is not None:
            return Point(self.a + r, self.b), "x", r
        r = sqrt_exact(self.r2 / self.w2)
        if r is not None:
            return Point(self.a, self.b + r), "y", r
        raise VerificationFailed("no rational point on conic")

    def param_point(self, t) -> Point:
        """Rational point from the stereographic sweep off the base point."""
        _, axis, r = self.base_point()
        t = frac(t)
        if axis == "x":
            lam = -2 * self.w1 * r / (self.w1 + self.w2 * t * t)
            return Point(self.a + r + lam, self.b + lam * t)
        lam = -2 * self.w2 * r / (self.w1 * t * t + self.w2)
        return Point(self.a + lam * t, self.b + r + lam)

    def param(self, p: Point):
        """The t with param_point(t) == p for a boundary point p, or None at
        the base point: the slope of the line from the base point to p,
        which is monotone along the boundary."""
        _, axis, r = self.base_point()
        if axis == "x":
            num, den = p.y - self.b, p.x - self.a - r
        else:
            num, den = p.x - self.a, p.y - self.b - r
        return None if den == 0 else num / den

    def intersect_line(self, n: Point, c):
        """Conic boundary meets the line n.p = c, at rational points only.

        On the int line a x + b y = c and the shifted coordinates
        (u, v) = (l x - U, l y - V), where the boundary is W1 u^2 + W2 v^2
        = R, the line is a u + b v = e; its points (a e - b s, b e + a s) / N
        with N = a^2 + b^2 meet the boundary where A s^2 + 2 H s + C = 0."""
        W1, W2, R, U, V, l = self._ints
        a, b, c = _plane(n, c)
        e = c * l - a * U - b * V
        N = a * a + b * b
        A = W1 * b * b + W2 * a * a
        H = a * b * e * (W2 - W1)
        disc = H * H - A * (e * e * (W1 * a * a + W2 * b * b) - R * N * N)
        if disc < 0:
            return []
        root = isqrt(disc)
        if root * root != disc:
            raise VerificationFailed("curves meet at an irrational point")
        x, y, q = (a * e + U * N) * A, (b * e + V * N) * A, l * N * A
        return [Point(Fraction(x - b * s, q), Fraction(y + a * s, q))
                for s in {-H + root, -H - root}]

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


def _line_side(plane, p: Point) -> int:
    """The sign of A x + B y - C at p, for the int halfplane (A, B, C) of
    geom._plane: A X + B Y - C w on the triple (X, Y, w) of p."""
    a, b, c = plane
    X, Y, w = _hom(p)
    P = a * X + b * Y - c * w
    return (P > 0) - (P < 0)


class CoverageCheck:
    """Exact check that a conic region (optionally halfplane-cut) is covered."""

    def __init__(self, region: Conic, covers, halfplane=None):
        self.region = region
        self.covers = covers
        self.halfplane = halfplane  # (normal Point, offset): keep n.p <= c
        self._plane = None if halfplane is None else _plane(*halfplane)

    def _in_region(self, p: Point, strict=False) -> bool:
        most = -1 if strict else 0
        return self.region.side(p) <= most and (self._plane is None
                                                or _line_side(self._plane, p) <= most)

    def _in_union(self, p: Point, skip=None) -> bool:
        return any(i != skip and c.side(p) <= 0 for i, c in enumerate(self.covers))

    def verify(self) -> bool:
        curves = [self.region, *self.covers]
        vertices = [p for u, v in combinations(curves, 2) for p in u.intersect_conic(v)]
        if self.halfplane is not None:
            vertices += [p for c in curves for p in c.intersect_line(*self.halfplane)]
        vertices = list(dict.fromkeys(vertices))

        # (a) vertices inside the region are covered
        for p in vertices:
            if self._in_region(p) and not self._in_union(p):
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
        on = [p for p in vertices if circle.side(p) == 0]
        return not any(self._in_region(p, strict=skip is not None) and not self._in_union(p, skip)
                       for p in arc_samples(circle, on))

    def _check_line(self, vertices) -> bool:
        n, c = self.halfplane
        d = n.perp()
        n2 = n.norm2()
        # the line is n c / n2 + s d, at d-coordinate p.d = s n2
        ts = sorted(p.dot(d) for p in vertices if _line_side(self._plane, p) == 0)
        for tu, tv in zip(ts, ts[1:]):
            sample = (n * c + d * ((tu + tv) / 2)) / n2
            if self._in_region(sample) and not self._in_union(sample):
                return False
        return True


def arc_samples(circle: Conic, on) -> list:
    """One rational point strictly inside each arc into which the distinct
    boundary points on cut circle (one point anywhere when on is empty).

    Conic.param orders the points along the boundary.  Between neighbours
    the sample is at the midpoint of their parameters; on the arc through
    the base point it is the base point, or, when that is one of on, the
    parameters one below the first and one above the last."""
    ts = sorted(t for t in map(circle.param, on) if t is not None)
    samples = [circle.param_point((u + v) / 2) for u, v in zip(ts, ts[1:])]
    if len(ts) == len(on):
        samples.append(circle.base_point()[0])
    elif ts:
        samples += [circle.param_point(ts[0] - 1), circle.param_point(ts[-1] + 1)]
    else:
        samples.append(circle.param_point(0))
    return samples
