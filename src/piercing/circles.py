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
Samples are rational points on the conic, located by float bisection and
accepted only after exact betweenness checks, so the verdict is exact.
"""

from fractions import Fraction
from functools import cmp_to_key
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

    def angle_cmp(self, p: RadPoint, q: RadPoint) -> int:
        """Compare two boundary points by ccw angle from the +x axis."""
        kp, kq = self._bucket(p), self._bucket(q)
        if kp != kq:
            return -1 if kp < kq else 1
        # within an open quadrant the x coordinate is strictly monotone
        s = (p.x - q.x).sign()
        if s == 0:
            return 0
        if kp in (1, 3):  # upper half: angle grows as x falls
            return -s
        return s

    def _bucket(self, p: RadPoint) -> int:
        sx = (p.x - self.a).sign()
        sy = (p.y - self.b).sign()
        order = {
            (1, 0): 0,
            (1, 1): 1,
            (0, 1): 2,
            (-1, 1): 3,
            (-1, 0): 4,
            (-1, -1): 5,
            (0, -1): 6,
            (1, -1): 7,
        }
        return order[(sx, sy)]

    def strictly_between(self, p, u, v) -> bool:
        """Is p strictly inside the ccw arc from u to v?"""
        if self.angle_cmp(p, u) == 0 or self.angle_cmp(p, v) == 0:
            return False
        uv = self.angle_cmp(u, v)
        up = self.angle_cmp(u, p)
        pv = self.angle_cmp(p, v)
        if uv < 0:
            return up < 0 and pv < 0
        return up < 0 or pv < 0

    def float_angle(self, p: RadPoint) -> float:
        return math.atan2(float(p.y) - float(self.b), float(p.x) - float(self.a))

    def arc_sample(self, u, v) -> RadPoint:
        """A rational boundary point strictly inside the ccw arc (u, v).

        Float bisection proposes parameters; every acceptance is an exact
        betweenness check, so a wrong float can only cost retries.
        """
        _, axis, r = self.base_point()
        au = self.float_angle(u)
        av = self.float_angle(v)
        if av <= au:
            av += 2 * math.pi
        for k in range(1, 64):
            # walk candidate angles through the arc, densifying each round
            for j in range(1, 2 ** min(k, 6)):
                theta = au + (av - au) * j / (2 ** min(k, 6))
                t = self._t_for_angle(theta, axis)
                if t is None:
                    continue
                t = Fraction(t).limit_denominator(2 ** (10 + k))
                p = self.param_point(t)
                if self.strictly_between(p, u, v):
                    return p
        raise VerificationFailed("arc sample not found")

    def _t_for_angle(self, theta, axis):
        """Float inverse of param_point at an unscaled boundary angle."""
        w1, w2 = float(self.w1), float(self.w2)
        # the scaled angle makes the conic a circle
        psi = math.atan2(math.sqrt(w2) * math.sin(theta), math.sqrt(w1) * math.cos(theta))
        c, s = math.cos(psi), math.sin(psi)
        if axis == "x":
            if 1 - c < 1e-12:
                return None  # at the base point
            tau = -math.copysign(math.sqrt((1 + c) / (1 - c)), s)
            return tau * math.sqrt(w1 / w2)
        if 1 - s < 1e-12:
            return None
        sigma = -math.copysign(math.sqrt((1 + s) / (1 - s)), c)
        return sigma * math.sqrt(w2 / w1)

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
        curves = [("region", self.region)]
        for i, c in enumerate(self.covers):
            curves.append((i, c))
        # all pairwise vertices
        vertices = []
        for i in range(len(curves)):
            for j in range(i + 1, len(curves)):
                vertices.extend(curves[i][1].intersect_conic(curves[j][1]))
        if self.halfplane is not None:
            n, c = self.halfplane
            for _, curve in curves:
                vertices.extend(curve.intersect_line(n, c))
        vertices = _dedup(vertices)

        # (a) vertices inside the region are covered
        for v in vertices:
            if self._in_region(v) and not self._in_union(v):
                return False

        # (b) region boundary arcs
        if not self._check_circle_arcs(self.region, vertices, skip=None, boundary=True):
            return False
        if self.halfplane is not None and not self._check_line(vertices):
            return False

        # (c) cover circle arcs strictly inside the region
        for i, cover in enumerate(self.covers):
            if not self._check_circle_arcs(cover, vertices, skip=i, boundary=False):
                return False
        return True

    def _check_circle_arcs(self, circle: Conic, vertices, skip, boundary) -> bool:
        on = [v for v in vertices if circle.side(v) == 0]
        on = _dedup(on)
        on.sort(key=cmp_to_key(circle.angle_cmp))
        samples = []
        if not on:
            samples.append(circle.param_point(Fraction(1, 3)))
        else:
            for i in range(len(on)):
                u = on[i]
                v = on[(i + 1) % len(on)]
                if len(on) == 1:
                    # one vertex: sample anywhere else on the circle
                    for t in (Fraction(1, 3), Fraction(3), Fraction(-1, 3), Fraction(-3)):
                        p = circle.param_point(t)
                        if circle.angle_cmp(p, u) != 0:
                            samples.append(p)
                            break
                    break
                samples.append(circle.arc_sample(u, v))
        for s in samples:
            if boundary:
                if self._in_region(s) and not self._in_union(s):
                    return False
            else:
                if self._in_region(s, strict=True) and not self._in_union(s, skip=skip):
                    return False
        return True

    def _check_line(self, vertices) -> bool:
        n, c = self.halfplane
        d = n.perp()
        on = [v for v in vertices if (v.x * n.x + v.y * n.y - c).sign() == 0]
        on = _dedup(on)
        if not on:
            return True  # the line misses the region circle entirely
        # sort along the line by the d-parameter
        def cmp(p, q):
            return (p.x * d.x + p.y * d.y - (q.x * d.x + q.y * d.y)).sign()

        on.sort(key=cmp_to_key(cmp))
        for u, v in zip(on, on[1:]):
            tu = u.x * d.x + u.y * d.y
            tv = v.x * d.x + v.y * d.y
            tm = _rational_between(tu, tv)
            n2 = n.norm2()
            p0 = Point(n.x * c / n2, n.y * c / n2)
            sample = RadPoint(Radical.of(p0.x) + d.x * tm, Radical.of(p0.y) + d.y * tm)
            if self._in_region(sample) and not self._in_union(sample):
                return False
        return True


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
