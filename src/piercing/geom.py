"""Exact planar geometry over rational coordinates.

Everything in this module is a pure function over immutable values and is
exact; no epsilon appears anywhere.  Points are Fraction arithmetic.
The hull, polygon containment and the symmetry centre run on one scaled
form (_scaled: the vertices times the lcm of their denominators, as int
pairs), which _planes shares; clipping (clip_chain, region_minus_polygons)
runs on one integer kernel (_split, whose inside half is _clip) over
homogeneous int triples, and a translate's halfplanes are its polygon's
shifted on ints (_shifted).  Both convert to Points only on the way in and
out.  Every polygon area is one int formula on such triples (_twice_area),
which the union area sums over the pieces _subtract leaves.
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


def orient(a, b, c):
    """Twice the signed area of triangle abc of (x, y) pairs; positive iff ccw."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _scaled(points) -> tuple:
    """(d, ((X, Y), ...)): the points times the lcm d of their denominators,
    all ints, so two point lists are equal iff their tuples are."""
    d = lcm(*(p.x.denominator for p in points), *(p.y.denominator for p in points))
    return d, tuple([(p.x.numerator * (d // p.x.denominator),
                      p.y.numerator * (d // p.y.denominator)) for p in points])


class Interval:
    """A closed rational interval [lo, hi]."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = frac(lo), frac(hi)
        if lo > hi:
            raise DegenerateInput("empty interval [%s, %s]" % (lo, hi))
        self.lo = lo
        self.hi = hi

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
    two dimensions.  The vertices are the caller's Points, the first of
    any duplicates; the chain runs on their scaled int pairs.
    """
    points = list(points)
    first = dict(zip(reversed(_scaled(points)[1]), reversed(points)))
    pts = sorted(first)
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
    return ConvexPolygon([first[k] for k in hull], _trusted=True)


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

    def area(self) -> Fraction:
        num, den = _twice_area(list(map(_hom, self.vertices)))
        return Fraction(num, 2 * den)

    def translate(self, t: Point) -> "ConvexPolygon":
        return ConvexPolygon([p + t for p in self.vertices], _trusted=True)

    def scale(self, s) -> "ConvexPolygon":
        """Scale about the origin by a positive rational factor."""
        s = frac(s)
        if s <= 0:
            raise DegenerateInput("scale must be positive")
        return ConvexPolygon([p * s for p in self.vertices], _trusted=True)

    def contains(self, p: Point) -> bool:
        """Closed containment test, exact."""
        return _contains(*_scaled(self.vertices), p)

    def support(self, d: Point) -> Fraction:
        """max over the polygon of the inner product with d."""
        return max(p.dot(d) for p in self.vertices)

    def bounding_box(self):
        xs = [p.x for p in self.vertices]
        ys = [p.y for p in self.vertices]
        return Interval(min(xs), max(xs)), Interval(min(ys), max(ys))

    def is_centrally_symmetric(self):
        """Return the center if the polygon is centrally symmetric, else None."""
        return _centre(*_scaled(self.vertices))

    def is_parallelogram(self):
        return len(self.vertices) == 4 and self.is_centrally_symmetric() is not None


def _contains(d, xy, p: Point) -> bool:
    """Whether p is in the ccw polygon with scaled vertices xy over d.

    With p = (X, Y) / W, each edge ab's orient(a, b, d p) has the sign of
    the int (b - a) x (d (X, Y) - W a).
    """
    X, Y, W = _hom(p)
    X, Y = X * d, Y * d
    for (ax, ay), (bx, by) in zip(xy[-1:] + xy, xy):
        if (bx - ax) * (Y - W * ay) < (by - ay) * (X - W * ax):
            return False
    return True


def _centre(d, xy):
    """The centre of the polygon with scaled vertices xy over d, if it is
    centrally symmetric, else None: opposite vertices share one int sum."""
    if len(xy) % 2:
        return None
    h = len(xy) // 2
    cx, cy = xy[0][0] + xy[h][0], xy[0][1] + xy[h][1]
    if any(ax + bx != cx or ay + by != cy for (ax, ay), (bx, by) in zip(xy, xy[h:])):
        return None
    return Point(Fraction(cx, 2 * d), Fraction(cy, 2 * d))


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
    """The int triples of poly's edges' halfplanes, edge by edge (ccw).

    The vertices are scaled by the lcm of their denominators; each triple
    is divided by its gcd.
    """
    d, xy = _scaled(poly.vertices)
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


def _crossing(a, b, da, db) -> tuple:
    """The point where the edge ab of int triples, with signed values da
    and db of opposite signs, crosses the line: |db| a + |da| b, reduced by
    one gcd."""
    ea, eb = abs(db), abs(da)
    x = ea * a[0] + eb * b[0]
    y = ea * a[1] + eb * b[1]
    w = ea * a[2] + eb * b[2]
    g = gcd(x, y, w)
    return x // g, y // g, w // g


def _split(chain, plane, both=True) -> tuple:
    """(inside, outside): a convex chain of distinct int triples cut by an
    int halfplane, the part in it and the part in the closure of its
    complement, from one pass of signed values.

    Each part keeps the chain's vertices on its side or on the line, in
    order, and after each edge that crosses the line strictly the crossing
    point (_crossing), deduplicated.  A chain wholly on one side is returned
    as it is.  A two-point chain is a segment, walked both ways, and is cut
    without the list of values.  With both False the outside is not built
    and reads [].
    """
    p, q, r = plane
    m = len(chain)
    if m == 2:
        a, b = chain
        da = p * a[0] + q * a[1] - r * a[2]
        db = p * b[0] + q * b[1] - r * b[2]
        if da < 0 and db < 0:
            return chain, []
        if (da < 0 < db) or (db < 0 < da):
            x = _crossing(a, b, da, db)
            parts = ([a, x], [x, b]) if da < 0 else ([x, b], [a, x])
            return parts if both else (parts[0], [])
        return ([v for v, d in ((a, da), (b, db)) if d <= 0],
                [v for v, d in ((a, da), (b, db)) if d >= 0] if both else [])
    vals = [p * x + q * y - r * w for x, y, w in chain]
    if not vals or max(vals) < 0:
        return chain, []
    if min(vals) > 0:
        return [], chain if both else []
    inside, outside = [], []
    crossed = False
    for i in range(m):
        a, da = chain[i], vals[i]
        j = i + 1 if i + 1 < m else 0
        db = vals[j]
        if da <= 0:
            inside.append(a)
        if both and da >= 0:
            outside.append(a)
        if (da < 0 < db) or (db < 0 < da):
            x = _crossing(a, chain[j], da, db)
            inside.append(x)
            if both:
                outside.append(x)
            crossed = True
    if crossed:
        inside, outside = list(dict.fromkeys(inside)), list(dict.fromkeys(outside))
    return inside, outside


def _clip(chain, plane) -> list:
    """The part of a convex chain of distinct int triples in an int
    halfplane: the inside half of _split."""
    return _split(chain, plane, False)[0]


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


def _twice_area(chain) -> tuple:
    """(num, den): twice the area of a convex chain of int triples, num / den
    with num >= 0, over the squared lcm of their weights."""
    W = lcm(*(w for _, _, w in chain))
    xy = [(x * (W // w), y * (W // w)) for x, y, w in chain]
    return abs(sum(x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(xy, xy[1:] + xy[:1]))), W * W


def _subtract(piece, planes) -> list:
    """Convex decomposition of a chain minus the polygon with these planes:
    the part of the chain outside each halfplane leaves the difference, and
    the rest continues to the next halfplane.  A rest of fewer than three
    vertices meets the polygon in measure zero: the chain is kept whole."""
    out = []
    rest = piece
    for plane in planes:
        rest, outside = _split(rest, plane)
        if len(rest) < 3:
            return [piece] if _has_area(piece) else []
        if outside and _has_area(outside):
            out.append(outside)
    return out


def _shifted(planes, o: Point) -> list:
    """The int halfplanes of a polygon translated by o, from its own planes
    (_planes): a x + b y <= c becomes (a W, b W, c W + a X + b Y) for o =
    (X, Y) / W, divided by its gcd, the triple _planes gives the translate."""
    X, Y, W = _hom(o)
    out = []
    for a, b, c in planes:
        t = (a * W, b * W, c * W + a * X + b * Y)
        g = gcd(*t)
        out.append((t[0] // g, t[1] // g, t[2] // g))
    return out


def _chain(region) -> list:
    """Int triples of a ConvexPolygon's vertices or of a chain of Points,
    a repeated vertex kept once."""
    pts = region.vertices if isinstance(region, ConvexPolygon) else region
    return list(dict.fromkeys(map(_hom, pts)))


def clip_chain(points, n: Point, c) -> list:
    """Clip a convex vertex chain against the halfplane {p : n.p <= c}.

    The chain may be degenerate (a point or a segment).  Returns the clipped
    chain, deduplicated, possibly empty.
    """
    if not points:
        return []
    return [_point(h) for h in _clip(_chain(points), _plane(n, c))]


def region_minus_polygons(region, polys, offsets=None) -> list:
    """Residue of a convex region after removing a list of convex polygons,
    or, given offsets, the translates p + o of each polygon p by each offset
    o, p by p: their halfplanes are p's shifted on ints (_shifted), so no
    translate is built.

    Only full-dimensional residue pieces are kept; a residue of measure zero
    counts as fully covered (bodies are closed).
    """
    pieces = [_chain(region)]
    plane_lists = map(_planes, polys)
    if offsets is not None:
        plane_lists = (_shifted(planes, o) for planes in plane_lists for o in offsets)
    for planes in plane_lists:
        nxt = []
        for piece in pieces:
            nxt.extend(_subtract(piece, planes))
        pieces = nxt
        if not pieces:
            break
    return [[_point(h) for h in c] for c in pieces]


def covers_region(region, polys, offsets=None) -> bool:
    """Exact test that the union of `polys`, or of their translates by
    `offsets`, covers the convex `region` (region_minus_polygons)."""
    return not region_minus_polygons(region, polys, offsets)
