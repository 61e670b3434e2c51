"""Exact planar geometry over rational coordinates.

Everything in this module is a pure function over immutable values and is
exact; no epsilon appears anywhere.  Points, areas and predicates are
Fraction arithmetic.  Clipping (clip_chain, intersection_chain,
region_minus_polygons, chain_area) runs on one integer kernel (_clip) over
homogeneous int triples and converts to Points only on the way in and out.
Degenerate convex regions (segments, single points) are represented by
vertex chains of length 2 and 1 and count as nonempty.
"""

from fractions import Fraction
from math import gcd, lcm

from .errors import DegenerateInput


def frac(x) -> Fraction:
    """Coerce ints, strings like '3/4' and Fractions to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("refusing float %r: coordinates must be exact" % x)
    return Fraction(x)


class Point:
    """A 2-D point (or vector) with exact rational coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = frac(x)
        self.y = frac(y)

    def __add__(self, other):
        return Point(self.x + other.x, self.y + other.y)

    def __sub__(self, other):
        return Point(self.x - other.x, self.y - other.y)

    def __neg__(self):
        return Point(-self.x, -self.y)

    def __mul__(self, s):
        return Point(self.x * s, self.y * s)

    __rmul__ = __mul__

    def __truediv__(self, s):
        return Point(self.x / s, self.y / s)

    def dot(self, other):
        return self.x * other.x + self.y * other.y

    def cross(self, other):
        return self.x * other.y - self.y * other.x

    def perp(self):
        """Rotate 90 degrees counterclockwise."""
        return Point(-self.y, self.x)

    def norm2(self):
        return self.x * self.x + self.y * self.y

    def __eq__(self, other):
        return isinstance(other, Point) and self.x == other.x and self.y == other.y

    def __lt__(self, other):
        return (self.x, self.y) < (other.x, other.y)

    def __hash__(self):
        return hash((self.x, self.y))

    def __iter__(self):
        yield self.x
        yield self.y

    def __repr__(self):
        return "Point(%s, %s)" % (self.x, self.y)


def orient(a: Point, b: Point, c: Point) -> Fraction:
    """Twice the signed area of triangle abc; positive iff ccw."""
    return (b - a).cross(c - a)


class Interval:
    """A closed rational interval [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = frac(lo), frac(hi)
        if lo > hi:
            raise DegenerateInput("empty interval [%s, %s]" % (lo, hi))
        self.lo = lo
        self.hi = hi

    def overlaps(self, other) -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def length(self):
        return self.hi - self.lo

    def __contains__(self, v):
        return self.lo <= v <= self.hi

    def __eq__(self, other):
        return self.lo == other.lo and self.hi == other.hi

    def __repr__(self):
        return "Interval(%s, %s)" % (self.lo, self.hi)


def convex_hull(points) -> "ConvexPolygon":
    """Minimal ccw convex polygon containing the input points.

    Collinear points on the hull boundary are dropped, so the result is
    strictly convex.  Raises DegenerateInput if the points span less than
    two dimensions.
    """
    pts = sorted(set(points))
    if len(pts) < 3:
        raise DegenerateInput("need at least 3 distinct points")

    def chain(seq):
        out = []
        for p in seq:
            while len(out) > 1 and orient(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise DegenerateInput("all points collinear")
    return ConvexPolygon(hull, _trusted=True)


class ConvexPolygon:
    """A strictly convex polygon stored as a ccw vertex list.

    Construction canonicalizes arbitrary input by hulling, so collinear or
    repeated vertices are merged; at least three distinct non-collinear
    points are required.
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices, _trusted=False):
        if _trusted:
            self.vertices = list(vertices)
        else:
            self.vertices = convex_hull(vertices).vertices

    def __len__(self):
        return len(self.vertices)

    def __iter__(self):
        return iter(self.vertices)

    def __eq__(self, other):
        # same vertex set up to rotation of the list
        if not isinstance(other, ConvexPolygon) or len(self) != len(other):
            return False
        a, b = self.vertices, other.vertices
        try:
            i = b.index(a[0])
        except ValueError:
            return False
        n = len(a)
        return all(a[j] == b[(i + j) % n] for j in range(n))

    def __repr__(self):
        return "ConvexPolygon(%r)" % (self.vertices,)

    def edges(self):
        v = self.vertices
        n = len(v)
        for i in range(n):
            yield v[i], v[(i + 1) % n]

    def halfplanes(self):
        """Yield (normal, offset) with the polygon equal to {p : n.p <= c}."""
        for a, b in self.edges():
            n = (b - a).perp()  # inward for ccw; flip for outward
            yield Point(-n.x, -n.y), (-n.x) * a.x + (-n.y) * a.y

    def area(self) -> Fraction:
        v = self.vertices
        s = Fraction(0)
        for i in range(len(v)):
            s += v[i].cross(v[(i + 1) % len(v)])
        return s / 2

    def translate(self, t: Point) -> "ConvexPolygon":
        return ConvexPolygon([p + t for p in self.vertices], _trusted=True)

    def scale(self, s) -> "ConvexPolygon":
        """Scale about the origin by a positive rational factor."""
        s = frac(s)
        if s <= 0:
            raise DegenerateInput("scale must be positive")
        return ConvexPolygon([p * s for p in self.vertices], _trusted=True)

    def linear_map(self, a, b, c, d) -> "ConvexPolygon":
        """Apply the matrix [[a, b], [c, d]]; reverses orientation if det < 0."""
        a, b, c, d = frac(a), frac(b), frac(c), frac(d)
        det = a * d - b * c
        if det == 0:
            raise DegenerateInput("singular linear map")
        pts = [Point(a * p.x + b * p.y, c * p.x + d * p.y) for p in self.vertices]
        if det < 0:
            pts.reverse()
        return ConvexPolygon(pts, _trusted=True)

    def contains(self, p: Point) -> bool:
        """Closed containment test, exact."""
        v = self.vertices
        for i in range(len(v)):
            if orient(v[i], v[(i + 1) % len(v)], p) < 0:
                return False
        return True

    def support(self, d: Point) -> Fraction:
        """max over the polygon of the inner product with d."""
        return max(p.dot(d) for p in self.vertices)

    def extent(self, d: Point) -> Interval:
        vals = [p.dot(d) for p in self.vertices]
        return Interval(min(vals), max(vals))

    def bounding_box(self):
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return Interval(min(xs), max(xs)), Interval(min(ys), max(ys))

    def is_centrally_symmetric(self):
        """Return the center if the polygon is centrally symmetric, else None."""
        v = self.vertices
        n = len(v)
        if n % 2:
            return None
        c = (v[0] + v[n // 2]) / 2
        for i in range(n // 2):
            if v[i] + v[i + n // 2] != c * 2:
                return None
        return c

    def is_parallelogram(self):
        return len(self.vertices) == 4 and self.is_centrally_symmetric() is not None


def reflect(c: ConvexPolygon) -> ConvexPolygon:
    """The reflexion -C about the origin; a point reflection keeps ccw order."""
    return ConvexPolygon([-p for p in c.vertices], _trusted=True)


def minkowski_sum(a: ConvexPolygon, b: ConvexPolygon) -> ConvexPolygon:
    """Exact Minkowski sum by merging the two sorted edge chains."""

    def chain(poly):
        # rotate vertex list to start at the lowest-then-leftmost vertex
        v = poly.vertices
        i = min(range(len(v)), key=lambda k: (v[k].y, v[k].x))
        return v[i:] + v[:i]

    va, vb = chain(a), chain(b)
    ea = [va[(i + 1) % len(va)] - va[i] for i in range(len(va))]
    eb = [vb[(i + 1) % len(vb)] - vb[i] for i in range(len(vb))]
    out = [va[0] + vb[0]]
    i = j = 0
    while i < len(ea) or j < len(eb):
        if i == len(ea):
            e = eb[j]
            j += 1
        elif j == len(eb):
            e = ea[i]
            i += 1
        else:
            c = ea[i].cross(eb[j])
            if c > 0:
                e = ea[i]
                i += 1
            elif c < 0:
                e = eb[j]
                j += 1
            else:
                e = ea[i] + eb[j]
                i += 1
                j += 1
        out.append(out[-1] + e)
    return ConvexPolygon(out[:-1])


# ---------------------------------------------------------------------------
# the integer clipping kernel
#
# A point is a homogeneous int triple (X, Y, W) with W > 0 and
# gcd(X, Y, W) = 1, the point (X/W, Y/W); in that form tuple equality is value
# equality.  A halfplane is an int triple (A, B, C) for A*X + B*Y <= C*W.  The
# public functions take and return Points and convert only at this edge.


def _hom(p: Point) -> tuple:
    """The homogeneous int triple of a Point."""
    x, y = p.x, p.y
    dx, dy = x.denominator, y.denominator
    if dx == dy:
        return x.numerator, y.numerator, dx
    w = lcm(dx, dy)
    return x.numerator * (w // dx), y.numerator * (w // dy), w


def _point(h) -> Point:
    """The Point of a homogeneous int triple."""
    x, y, w = h
    return Point(Fraction(x, w), Fraction(y, w))


def _planes(poly: ConvexPolygon) -> list:
    """The int triples of poly's halfplanes, in the order of halfplanes().

    The vertices are scaled by the lcm of their denominators; each triple
    is divided by its gcd.
    """
    v = poly.vertices
    d = lcm(*(p.x.denominator for p in v), *(p.y.denominator for p in v))
    xy = [(p.x.numerator * (d // p.x.denominator), p.y.numerator * (d // p.y.denominator))
          for p in v]
    out = []
    for i in range(len(xy)):
        (xa, ya), (xb, yb) = xy[i], xy[(i + 1) % len(xy)]
        # the outward normal of the ccw edge ab, n.p <= n.a scaled by d
        a, b = yb - ya, xa - xb
        t = (a * d, b * d, a * xa + b * ya)
        g = gcd(*t)
        out.append((t[0] // g, t[1] // g, t[2] // g))
    return out


def _plane(n: Point, c) -> tuple:
    """The int triple of the halfplane {p : n.p <= c}."""
    c = frac(c)
    d = lcm(n.x.denominator, n.y.denominator, c.denominator)
    t = (n.x.numerator * (d // n.x.denominator), n.y.numerator * (d // n.y.denominator),
         c.numerator * (d // c.denominator))
    g = gcd(*t) or 1
    return t[0] // g, t[1] // g, t[2] // g


def _clip(chain, plane) -> list:
    """Clip a convex chain of int triples against an int halfplane.

    Vertices inside or on the line stay in order; where an edge ab crosses
    the line strictly, with signed values da and db, the crossing point is
    |db|*a + |da|*b, reduced by one gcd.  A two-point chain is a segment,
    walked both ways.  The result is deduplicated.
    """
    p, q, r = plane
    vals = [p * x + q * y - r * w for x, y, w in chain]
    m = len(chain)
    if m == 1:
        return list(chain) if vals[0] <= 0 else []
    out = []
    for i in range(m):
        a, da = chain[i], vals[i]
        j = i + 1 if i + 1 < m else 0
        db = vals[j]
        if da <= 0:
            out.append(a)
            if da == 0 or db <= 0:
                continue
            ea, eb = db, -da
        elif db < 0:
            ea, eb = -db, da
        else:
            continue
        b = chain[j]
        x = ea * a[0] + eb * b[0]
        y = ea * a[1] + eb * b[1]
        w = ea * a[2] + eb * b[2]
        g = gcd(x, y, w)
        out.append((x // g, y // g, w // g))
    dedup = []
    for v in out:
        if v not in dedup:
            dedup.append(v)
    return dedup


def _has_area(chain) -> bool:
    """Whether a convex chain of int triples bounds positive area: a sign
    test on its fan determinants, which share one sign on a convex chain."""
    if len(chain) < 3:
        return False
    x0, y0, w0 = chain[0]
    for i in range(1, len(chain) - 1):
        x1, y1, w1 = chain[i]
        x2, y2, w2 = chain[i + 1]
        if x0 * (y1 * w2 - w1 * y2) - y0 * (x1 * w2 - w1 * x2) + w0 * (x1 * y2 - y1 * x2):
            return True
    return False


def _subtract(piece, planes) -> list:
    """Convex decomposition of a chain minus the polygon with these planes."""
    out = []
    rest = piece
    for a, b, c in planes:
        # the part of `rest` strictly outside this halfplane leaves the
        # difference; the rest continues to the next halfplane
        outside = _clip(rest, (-a, -b, -c))
        if _has_area(outside):
            out.append(outside)
        rest = _clip(rest, (a, b, c))
        if not rest:
            break
    return out


def _chain(region) -> list:
    """Int triples of a ConvexPolygon's vertices or of a chain of Points."""
    return [_hom(p) for p in (region.vertices if isinstance(region, ConvexPolygon) else region)]


def clip_chain(points, n: Point, c) -> list:
    """Clip a convex vertex chain against the halfplane {p : n.p <= c}.

    The chain may be degenerate (a point or a segment).  Returns the clipped
    chain, deduplicated, possibly empty.
    """
    if not points:
        return []
    return [_point(h) for h in _clip(_chain(points), _plane(n, c))]


def intersection_chain(a, b: ConvexPolygon) -> list:
    """Vertices of the (possibly degenerate) intersection of two polygons.

    a may also be a convex vertex chain.  Returns [] when disjoint, [p] for a
    touching point, [p, q] for a shared segment, and a ccw vertex list when
    the intersection has interior.
    """
    pts = _chain(a)
    for plane in _planes(b):
        pts = _clip(pts, plane)
        if not pts:
            return []
    return [_point(h) for h in pts]


def chain_area(points) -> Fraction:
    """Area of a convex vertex chain, exact; 0 below three vertices."""
    if len(points) < 3:
        return Fraction(0)
    hs = [_hom(p) for p in points]
    d = lcm(*(w for _, _, w in hs))
    xs = [(x * (d // w), y * (d // w)) for x, y, w in hs]
    s = 0
    for i in range(len(xs)):
        (x1, y1), (x2, y2) = xs[i - 1], xs[i]
        s += x1 * y2 - y1 * x2
    return Fraction(abs(s), 2 * d * d)


def polygons_intersect(a: ConvexPolygon, b: ConvexPolygon) -> bool:
    """Closed intersection test via separating axes over both edge normal sets."""
    for poly in (a, b):
        for p, q in poly.edges():
            n = (q - p).perp()
            ia = a.extent(n)
            ib = b.extent(n)
            if not ia.overlaps(ib):
                return False
    return True


def region_minus_polygons(region, polys) -> list:
    """Residue of a convex region after removing a list of convex polygons.

    Only full-dimensional residue pieces are kept; a residue of measure zero
    counts as fully covered (bodies are closed).
    """
    pieces = [_chain(region)]
    for poly in polys:
        planes = _planes(poly)
        nxt = []
        for piece in pieces:
            nxt.extend(_subtract(piece, planes))
        pieces = nxt
        if not pieces:
            break
    return [[_point(h) for h in c] for c in pieces]


def covers_region(region, polys) -> bool:
    """Exact test that the union of `polys` covers the convex `region`."""
    return not region_minus_polygons(region, polys)
