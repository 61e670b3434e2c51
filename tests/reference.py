"""Reference implementations the tests compare the package against.

Each decides on realized bodies (Family.realize) with Fraction and Radical
arithmetic, member by member, with none of the package's int layer.
Radical is the general sum of square roots that the package's one-radicand
RadPoint replaced, RadicalPoint a point of two of them, rad_point the
RadPoint of one, and body_contains a realized body's containment of such a
point, decided by Radical signs.  The intersection graph is decided by
intersects on every pair (bodies_intersect, separating axes for polygons:
polygons_intersect, on the Fraction extent and overlaps), the oracle's
coverage masks by body_contains, and the containment step of the
smallest-first argument with an explicit common point.  halfplanes gives
a polygon's Fraction halfplanes.  The clipping
functions are the Fraction versions of geom's integer kernel, and the
lattice offset search tests Fraction lattice points against every realized
member, and the greedy's seed order is a sort by top_key on the Fraction
columns (fraction_columns, which family_of_columns builds a family
from).  The grid's centres, line keys, order and points are its Fraction
version (grid_lines).  The union area is inclusion-exclusion over the realized
polygons, clipped on geom's int kernel (kernel_intersection_chain,
kernel_chain_area), which keeps the equivalence tests fast.  The section of
a polygon at an abscissa is the Fraction version of the sandwich search's
int walk, edge by edge.  lowest_point is the lowest point of an
intersection of realized members (circle_circle_points for disks), which
each oracle candidate is for the members holding it; padded_candidates is
the oracle's larger candidate set of every vertex, reference point, centre
and crossing, on ints, whose maximal masks the oracle's must keep
(maximal_masks), and max_independent_set the oracle's independent set
search on adjacency sets.  The rational points
of a circle are ordered by angle about its centre with a quadrant comparator
(angle_cmp, strictly_between).  call_budget
bounds the work of a block by counting its calls, a deterministic
stand-in for a time or memory limit.  disjoint_extension is the loop that
built the grid and lattice witnesses before they became cluster seeds.
AffineMap, normalize_affine and linear_map map a family or a polygon by a
rational affine map, which the affine-invariance tests use.  body_contains
decides a rational point on a realized body in Fractions too.
members lists a family's Member objects, in Fractions.
members_document writes an instance in the hand-written members form, one
object per member, which the reader still takes and the certificate
digests were taken on; spelled_out writes back every field the writer
leaves out, in the layout those digests were taken on.  recheck decides
the claim of a certificate or cover-pattern document from the document
alone, reading it with document_members, for the soundness sweep.  value_key is an
exact key of a point's value, and dedupe_points drops repeated keys;
rational_coords gives the Fraction coordinates of a Point, a box tuple or
a rational RadPoint, and as_rad_point the RadPoint of a Point or box tuple.
pairs_scaled reads an instance's columns one distinct value at a time,
through jsonio._pair and bodies.scale_table.  pattern_keys and
tuple_key_count count a symbolic certificate's distinct points on
per-seed tuples of value_key.  convex_hull,
contains and centre are the Fraction versions of geom's hull, containment
and symmetry centre, which run on scaled int pairs.  translates_residue
is the polygon pattern check on translates built in Fractions, and
hexagon_sandwich the hexagon sandwich search with Fraction chords, slabs
and areas (inscribed_hexagon).  random_family is the generator as it was
before it drew into columns: one list of every draw and a (form, draw)
dict scaled by bodies.scale_table.
"""

from fractions import Fraction
import itertools
import math
import random
import sys

from piercing import geom, jsonio
from piercing.bodies import (
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    _triple,
    box_columns,
    coverage,
    disk_columns,
    int_translations,
    member_polygons,
    neighbor_index,
    pair_checker,
    scale_table,
)
from piercing.certificates import greedy_pattern
from piercing.covers import (disk_half_cover, disk_seven_cover, homothet_cover,
                             translate_cluster_cover)
from piercing.errors import DegenerateInput, PiercingError
from piercing.generators import _rand_frac_form
from piercing.geom import ConvexPolygon, Interval, Point, frac
from piercing.radicals import RadPoint, _reduce_radicand, sqrt_exact
from piercing.sandwich import sandwich_parallelograms
from piercing.translates import _clusters, _offset_candidates


def orient(a, b, c):
    """Twice the signed area of triangle abc of Points, in Fractions."""
    return (b - a).cross(c - a)


def convex_hull(points):
    """The ccw hull of Points by the monotone chain on sorted(set(points))."""
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

    hull = chain(pts)[:-1] + chain(reversed(pts))[:-1]
    if len(hull) < 3:
        raise DegenerateInput("all points collinear")
    return ConvexPolygon(hull, _trusted=True)


def contains(poly, p):
    """Closed containment of a Point in a ccw ConvexPolygon, in Fractions."""
    v = poly.vertices
    return all(orient(v[i], v[(i + 1) % len(v)], p) >= 0 for i in range(len(v)))


def centre(poly):
    """The centre of a centrally symmetric ConvexPolygon, else None."""
    v = poly.vertices
    n = len(v)
    if n % 2:
        return None
    c = (v[0] + v[n // 2]) / 2
    if any(v[i] + v[i + n // 2] != c * 2 for i in range(n // 2)):
        return None
    return c


def clip_chain(points, n, c):
    """Clip a convex vertex chain against {p : n.p <= c}, in Fractions."""
    if not points:
        return []
    if len(points) == 1:
        return list(points) if points[0].dot(n) <= c else []
    out = []
    m = len(points)
    if m == 2:
        pairs = [(points[0], points[1]), (points[1], points[0])]
    else:
        pairs = [(points[i], points[(i + 1) % m]) for i in range(m)]
    for a, b in pairs:
        da = a.dot(n) - c
        db = b.dot(n) - c
        if da <= 0:
            out.append(a)
        if (da < 0 < db) or (db < 0 < da):
            t = da / (da - db)
            out.append(a + (b - a) * t)
    dedup = []
    for p in out:
        if p not in dedup:
            dedup.append(p)
    return dedup


def halfplanes(poly):
    """Yield (normal, offset) with the polygon equal to {p : n.p <= c}."""
    for a, b in poly.edges():
        n = (b - a).perp()  # inward for ccw; flip for outward
        yield Point(-n.x, -n.y), (-n.x) * a.x + (-n.y) * a.y


def extent(poly, d):
    """The Interval of p . d over the polygon's vertices p."""
    vals = [p.dot(d) for p in poly.vertices]
    return Interval(min(vals), max(vals))


def overlaps(a, b):
    """Whether the closed Intervals a and b meet."""
    return a.lo <= b.hi and b.lo <= a.hi


def intersection_chain(a, b):
    """Vertices of the intersection of polygon a (or a chain) and polygon b."""
    pts = list(a.vertices) if isinstance(a, ConvexPolygon) else list(a)
    for n, c in halfplanes(b):
        pts = clip_chain(pts, n, c)
        if not pts:
            return []
    return pts


def kernel_intersection_chain(a, b):
    """Vertices of the (possibly degenerate) intersection of two polygons on
    geom's int kernel: a (a polygon or a convex chain) clipped by each int
    halfplane of b.  Returns [] when disjoint, [p] for a touching point,
    [p, q] for a shared segment, and a ccw vertex list otherwise."""
    pts = geom._chain(a)
    for plane in geom._planes(b):
        pts = geom._clip(pts, plane)
        if not pts:
            return []
    return [geom._point(h) for h in pts]


def kernel_chain_area(points):
    """Area of a convex vertex chain on ints: the shoelace sum over the
    vertices scaled by the lcm of their denominators; 0 below three."""
    if len(points) < 3:
        return Fraction(0)
    hs = [geom._hom(p) for p in points]
    d = math.lcm(*(w for _, _, w in hs))
    xs = [(x * (d // w), y * (d // w)) for x, y, w in hs]
    s = 0
    for i in range(len(xs)):
        (x1, y1), (x2, y2) = xs[i - 1], xs[i]
        s += x1 * y2 - y1 * x2
    return Fraction(abs(s), 2 * d * d)


def intersection(a, b):
    """The intersection polygon of a and b, or its degenerate chain, or None."""
    pts = kernel_intersection_chain(a, b)
    if not pts:
        return None
    return ConvexPolygon(pts) if len(pts) >= 3 else pts


def chain_area(points):
    if len(points) < 3:
        return Fraction(0)
    s = Fraction(0)
    for i in range(len(points)):
        s += points[i].cross(points[(i + 1) % len(points)])
    return abs(s) / 2


def section(xs, a):
    """lo/hi extent in y of the convex vertex list xs at abscissa a, or None."""
    lo = hi = None
    n = len(xs)
    for i in range(n):
        p, q = xs[i], xs[(i + 1) % n]
        if p.x == q.x:
            if p.x == a:
                ylo, yhi = min(p.y, q.y), max(p.y, q.y)
                lo = ylo if lo is None else min(lo, ylo)
                hi = yhi if hi is None else max(hi, yhi)
            continue
        t = (a - p.x) / (q.x - p.x)
        if 0 <= t <= 1:
            y = p.y + t * (q.y - p.y)
            lo = y if lo is None else min(lo, y)
            hi = y if hi is None else max(hi, y)
    if lo is None:
        return None
    return lo, hi


def subtract_chain(piece, poly):
    """piece minus poly, halfplane by halfplane; a piece whose rest inside
    the halfplanes so far has fewer than three vertices meets poly in
    measure zero and is kept whole."""
    out = []
    rest = list(piece)
    for n, c in halfplanes(poly):
        outside = clip_chain(rest, -n, -c)
        rest = clip_chain(rest, n, c)
        if len(rest) < 3:
            return [list(piece)] if chain_area(piece) else []
        if chain_area(outside) > 0:
            out.append(outside)
    return out


def region_minus_polygons(region, polys):
    """Full-dimensional residue pieces of a convex region minus polygons."""
    pieces = [list(region.vertices) if isinstance(region, ConvexPolygon) else list(region)]
    for poly in polys:
        nxt = []
        for piece in pieces:
            nxt.extend(subtract_chain(piece, poly))
        pieces = nxt
        if not pieces:
            break
    return pieces


def translates_residue(region, cover, offsets):
    """region minus the translates cover + o, each built in Fractions and
    subtracted in Fractions: the path of the polygon pattern checks before
    the translates' halfplanes were shifted on ints."""
    return region_minus_polygons(region, [cover.translate(o) for o in offsets])


def _chord(c, u):
    """(n, pts, beta, lo, hi, half) of sandwich.inscribed_hexagon(c, u), in
    Fractions: pts holds the vertices in coordinates (beta, alpha) of the
    basis (n, u), n = u.perp(), as pairs; the sections across u come from
    section, and the chord of half the central section at beta from lo to
    hi from a linear solve between neighbouring vertex betas."""
    n = u.perp()
    det = n.cross(u)
    pts = [(p.cross(u) / det, n.cross(p) / det) for p in c.vertices]
    xs = [Point(b, a) for b, a in pts]
    lo0, hi0 = section(xs, 0)
    half = (hi0 - lo0) / 2
    prev = (Fraction(0), lo0, hi0)
    for b in sorted({b for b, _ in pts if b > 0}):
        lo, hi = section(xs, b)
        if hi - lo <= half:
            pb, plo, phi = prev
            t = (phi - plo - half) / (phi - plo - hi + lo)
            return n, pts, pb + t * (b - pb), plo + t * (lo - plo), phi + t * (hi - phi), half
        prev = (b, lo, hi)
    mid = (lo + hi) / 2
    return n, pts, b, mid - half / 2, mid + half / 2, half


def inscribed_hexagon(c, u):
    """The six vertices of sandwich.inscribed_hexagon(c, u), in Fractions
    (_chord)."""
    n, _, beta, lo, hi, half = _chord(c, u)
    p1, p2, p6 = n * beta + u * hi, u * half, n * beta + u * lo
    return [p1, p2, -p6, -p1, -p2, p6]


def hexagon_sandwich(c):
    """(direction, inner hexagon, ratio): the first candidate direction of
    sandwich.hexagon_sandwich with the greatest area ratio of the inscribed
    hexagon to the intersection of the support slabs of c across its edges,
    about the centre of c.  The ratio is taken in Fractions in the (beta,
    alpha) coordinates of _chord, as a linear map keeps it."""
    from piercing.sandwich import _dedup_directions, _uniform_directions

    o = centre(c)
    cen = ConvexPolygon([p - o for p in c.vertices], _trusted=True)
    v = cen.vertices
    dirs = v + [(v[(i + 1) % len(v)] - v[i]).perp() for i in range(len(v))]
    best = None
    for u in _dedup_directions(dirs + _uniform_directions(64)):
        _, pts, beta, lo, hi, half = _chord(cen, u)
        hexagon = [(beta, hi), (0, half), (-beta, -lo), (-beta, -hi), (0, -half), (beta, lo)]
        slabs = []
        for (x0, y0), (x1, y1) in zip(hexagon, hexagon[1:4]):
            a, b = y0 - y1, x1 - x0  # normal to the edge
            slabs.append((a, b, max(a * x + b * y for x, y in pts)))
        (a1, b1, h1), (a2, b2, h2), (a3, b3, h3) = slabs
        det = a1 * b2 - b1 * a2
        corners = [Point((s1 * b2 - s2 * b1) / det, (s2 * a1 - s1 * a2) / det)
                   for s1, s2 in ((h1, h2), (h1, -h2), (-h1, -h2), (-h1, h2))]
        outer = clip_chain(clip_chain(corners, Point(a3, b3), h3), Point(-a3, -b3), h3)
        ratio = chain_area([Point(x, y) for x, y in hexagon]) / chain_area(outer)
        if best is None or ratio > best[1]:
            best = (u, ratio)
    u, ratio = best
    return u, [p + o for p in inscribed_hexagon(cen, u)], ratio


class PrecisionExhausted(Exception):
    """Radical.sign found no sign within its bit budget."""


class Radical:
    """A canonical sum of rational multiples of square roots of integers:
    the general arithmetic that the one-radicand RadPoint replaced, kept to
    check it.

    The terms dict maps a positive integer radicand (1 for the rational
    part) to its nonzero rational coefficient.  Radicands are squarefree
    (_reduce_radicand, up to its trial bound) and no two lie in one square
    class, so equal values have equal terms.  Nonzero signs are decided by
    interval refinement with exact rational bounds.
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
        it; a radicand that hides a large square joins its square class."""
        if not coeff:
            return
        terms = self.terms
        if m not in terms:
            for k in terms:
                s = math.isqrt(k * m)
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
                g = math.gcd(m1, m2)
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
            s = math.isqrt(m * scale * scale)
            r_lo, r_hi = Fraction(s, scale), Fraction(s + 1, scale)
            if c < 0:
                r_lo, r_hi = r_hi, r_lo
            lo += c * r_lo
            hi += c * r_hi
        return lo, hi

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
    """Sign of a Radical or rational expression: -1, 0 or +1."""
    return _coerce(expr).sign(max_bits)


def radical_sum(terms) -> Radical:
    """The sum of c * sqrt(m) over (m, c) pairs, in Radical arithmetic."""
    out = Radical()
    for m, c in terms:
        out = out + Radical.sqrt(m) * c
    return out


class RadicalPoint:
    """A 2-D point with Radical coordinates, any number of radicands."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = _coerce(x)
        self.y = _coerce(y)

    @classmethod
    def of(cls, p):
        """The RadicalPoint of a Point, a RadPoint or a RadicalPoint."""
        if isinstance(p, RadicalPoint):
            return p
        if isinstance(p, RadPoint):
            root = Radical.sqrt(p.m)
            return cls(*[Radical.of(Fraction(a, p.q)) + root * Fraction(b, p.q)
                         for a, b in zip(p.A, p.B or (0, 0))])
        return cls(p.x, p.y)

    def __eq__(self, other):
        other = RadicalPoint.of(other)
        return self.x == other.x and self.y == other.y

    def is_rational(self):
        return self.x.is_rational() and self.y.is_rational()

    def __repr__(self):
        return "RadicalPoint(%r, %r)" % (self.x, self.y)


def rad_point(x, y):
    """The RadPoint (x, y) of Radicals or rationals x and y that share at
    most one radicand; ValueError when they have two."""
    x, y = _coerce(x), _coerce(y)
    roots = (x.terms.keys() | y.terms.keys()) - {1}
    if len(roots) > 1:
        raise ValueError("more than one radicand")
    m = max(roots, default=1)
    a = [v.terms.get(1, Fraction(0)) for v in (x, y)]
    b = [v.terms.get(m, Fraction(0)) for v in (x, y)] if roots else None
    return RadPoint.of_fractions(m, a, b)


def body_contains(body, p):
    """Whether the realized body contains p, a RadPoint or RadicalPoint too:
    the signs of n . p - c over the polygon's halfplanes, or of
    |p - c|^2 - r^2 for a disk, in Radical arithmetic.  A rational point
    is decided in Fractions: contains for a polygon, the squared distance
    for a disk, and every coordinate's range for a box."""
    if isinstance(p, RadPoint) and p.B is None:
        p = rational_coords(p) if body.kind == "box" else Point(*rational_coords(p))
    if not isinstance(p, (RadPoint, RadicalPoint)):
        if body.kind == "polygon":
            return contains(body.polygon, p)
        if body.kind == "disk":
            return (p - body.center).norm2() <= body.radius * body.radius
        return all(m <= frac(v) <= m + s for v, m, s in zip(p, body.mins, body.sides))
    p = RadicalPoint.of(p)
    if body.kind == "polygon":
        return all(((n.x * p.x + n.y * p.y) - c).sign() <= 0
                   for n, c in halfplanes(body.polygon))
    dx, dy = p.x - body.center.x, p.y - body.center.y
    return (dx * dx + dy * dy - body.radius * body.radius).sign() <= 0


class SingularMap(PiercingError):
    pass


class DisksNotClosedUnderAffine(PiercingError):
    pass


def linear_map(poly, a, b, c, d):
    """poly under the matrix [[a, b], [c, d]]; reverses orientation if det < 0."""
    a, b, c, d = frac(a), frac(b), frac(c), frac(d)
    det = a * d - b * c
    if det == 0:
        raise DegenerateInput("singular linear map")
    pts = [Point(a * p.x + b * p.y, c * p.x + d * p.y) for p in poly.vertices]
    if det < 0:
        pts.reverse()
    return ConvexPolygon(pts, _trusted=True)


class AffineMap:
    """x -> M x + v with a nonsingular rational 2x2 matrix M."""

    def __init__(self, a, b, c, d, tx=0, ty=0):
        self.a, self.b, self.c, self.d = frac(a), frac(b), frac(c), frac(d)
        self.t = Point(tx, ty)
        if self.a * self.d - self.b * self.c == 0:
            raise SingularMap("determinant is zero")

    def apply_vector(self, p: Point) -> Point:
        return Point(self.a * p.x + self.b * p.y, self.c * p.x + self.d * p.y)

    def apply_point(self, p: Point) -> Point:
        return self.apply_vector(p) + self.t

    def is_similarity(self):
        """Rational similarities have M = [[a, -b], [b, a]] (or a reflection)
        and a rational operator norm."""
        if self.b == -self.c and self.a == self.d:
            pass
        elif self.b == self.c and self.a == -self.d:
            pass
        else:
            return None
        return sqrt_exact(self.a * self.a + self.b * self.b)


def normalize_affine(f: Family, m: AffineMap) -> Family:
    """Transformed family; the intersection graph is unchanged."""
    if f.base.kind == "polygon":
        base = PolygonBody(
            linear_map(f.base.polygon, m.a, m.b, m.c, m.d),
            m.apply_vector(f.base.reference_point),
        )
        moved = [Member(m.apply_point(mem.t), mem.s) for mem in members(f)]
        return Family(base, moved, f.kind)
    if f.base.kind == "disk":
        scale = m.is_similarity()
        if scale is None:
            raise DisksNotClosedUnderAffine(
                "disks only admit similarity maps with rational scale"
            )
        base = DiskBody(m.apply_vector(f.base.center), f.base.radius * scale)
        moved = [Member(m.apply_point(mem.t), mem.s) for mem in members(f)]
        return Family(base, moved, f.kind)
    raise SingularMap("affine maps are supported for polygon and disk families")


def rational_coords(p):
    """The Fraction coordinates of a Point, a box tuple or a rational
    RadPoint."""
    if isinstance(p, RadPoint):
        if p.B is not None:
            raise ValueError("not a rational point")
        return tuple(Fraction(a, p.q) for a in p.A)
    return p if isinstance(p, tuple) else (p.x, p.y)


def as_rad_point(p):
    """The RadPoint of a Point, a box tuple or a RadPoint."""
    return p if isinstance(p, RadPoint) else RadPoint.of_fractions(1, rational_coords(p))


def _terms(p):
    """Per coordinate of a Point, a box tuple or a RadPoint, {radicand:
    coefficient} of its nonzero terms, the rational part's radicand being 1."""
    if isinstance(p, RadPoint):
        return [{k: Fraction(c, p.q) for k, c in ((1, a), (p.m, b)) if c}
                for a, b in zip(p.A, p.B or (0,) * len(p.A))]
    return [{1: v} if v else {} for v in rational_coords(p)]


def value_key(p, scale=1):
    """Hashable key of the value of point p times scale: the rational part
    of each coordinate, then for each coordinate a flat tuple of its other
    terms' radicands and coefficients, by increasing radicand.

    Squarefree radicands give equal values equal keys whatever the point's
    type (Point, RadPoint, RadicalPoint or box tuple)."""
    terms = [p.x.terms, p.y.terms] if isinstance(p, RadicalPoint) else _terms(p)
    return (*[t.get(1, 0) * scale for t in terms],
            *[tuple(x for m in sorted(t) if m != 1 for x in (m, t[m] * scale)) for t in terms])


def dedupe_points(points):
    """points without repeated values (value_key), first occurrences in
    order."""
    seen = set()
    out = []
    for p in points:
        k = value_key(p)
        if k not in seen:
            seen.add(k)
            out.append(p)
    return out


def members(f):
    """The Member of each index of f: its translation (Family.translation)
    and its scale, as Fractions."""
    D, _, S = f.scaled_translations()
    return [Member(f.translation(i), Fraction(s, D)) for i, s in enumerate(S)]


def fraction_columns(f):
    """(columns, scales): columns[k][i] is coordinate k of member i's
    translation and scales[i] its scale, Fractions from members(f)."""
    ms = members(f)
    ts = [m.t if f.base.kind == "box" else (m.t.x, m.t.y) for m in ms]
    return [list(col) for col in zip(*ts)], [m.s for m in ms]


def family_of_columns(base, columns, scales, kind="translates"):
    """The family whose member i has translation coordinates columns[k][i]
    and scale scales[i], built from Member objects."""
    make = tuple if base.kind == "box" else (lambda t: Point(*t))
    return Family(base, [Member(make(t), s) for t, s in zip(zip(*columns), scales)], kind)


def top_key(f):
    """Exact sort key: decreasing top coordinate, then translation lex, index.

    Tops come straight from the columns: top(s*C + t) is s*top(C) shifted
    by the last translation coordinate, with top(C) the high end of the
    base's bounding box on the last axis.
    """
    base_top = f.base.bbox()[-1].hi
    columns, scales = fraction_columns(f)

    def key(i):
        t = tuple(col[i] for col in columns)
        return (-(base_top * scales[i] + t[-1]), t, i)

    return key


def grid_lines(f, pair=None):
    """(line, order, points) of translates.grid_pierce on Fractions: the
    centres of the members' P-translates in the basis of the sandwich
    pair's P (a box's own sides for a box base), the line offset per line
    axis, each member's line keys, the cluster order, and the deduplicated
    points placed over the clusters of neighbor_index and pair_checker."""
    base = f.base
    half = Fraction(1, 2)
    columns, _ = fraction_columns(f)
    if isinstance(base, BoxBody):
        sides = base.sides
        centres = [tuple((lo + side / 2 + v) / side for lo, side, v in zip(base.mins, sides, t))
                   for t in zip(*columns)]

        def place(x):
            return tuple(a * side for a, side in zip(x, sides))

        k_line = 1
    else:
        pair = pair or sandwich_parallelograms(base.polygon)
        la = pair.line_axis
        axes = (pair.p.u, pair.p.v) if la == 1 else (pair.p.v, pair.p.u)
        det = axes[0].cross(axes[1])
        c = pair.p.center
        centres = []
        for x, y in zip(*columns):
            p = Point(c.x + x, c.y + y)
            centres.append((p.cross(axes[1]) / det, axes[0].cross(p) / det))

        def place(x):
            return axes[0] * x[0] + axes[1] * x[1]

        k_line = math.ceil(pair.lambdas[la])

    def line_offset(alphas):
        fracs = sorted({(a + half) % 1 for a in alphas})
        best_gap, best_mid = None, None
        for i, lo in enumerate(fracs):
            hi = fracs[i + 1] if i + 1 < len(fracs) else fracs[0] + 1
            if best_gap is None or hi - lo > best_gap:
                best_gap, best_mid = hi - lo, (lo + hi) / 2 % 1
        return best_mid

    n = len(f)
    offs = [line_offset([c[k] for c in centres]) for k in range(len(centres[0]) - 1)]
    line = []
    for c in centres:
        key = tuple(math.floor(x + half - off) for x, off in zip(c, offs))
        assert all(x - half < j + off < x + half for x, j, off in zip(c, key, offs))
        line.append(key)
    order = sorted(range(n), key=lambda i: (line[i], centres[i][-1], centres[i][:-1], i))
    near = neighbor_index(f)
    points = []
    for i, hits in _clusters(n, order, lambda i: [j for j in near(i) if line[j] == line[i]],
                             pair_checker(f)):
        c_seed = centres[i][-1] - half
        used = set()
        for m in (i, *hits):
            c_m = centres[m][-1] - half
            k = max(1, math.ceil(c_m - c_seed))
            assert k <= k_line and c_m <= c_seed + k <= c_m + 1
            used.add(k)
        pos = tuple(j + off for j, off in zip(line[i], offs))
        points.extend(place(pos + (c_seed + k,)) for k in sorted(used))
    return line, order, dedupe_points(points)


class MixedKinds(Exception):
    """Two bodies of different kinds were tested against each other."""


def polygons_intersect(a, b):
    """Whether two ConvexPolygons meet (closed): separating axes over both
    edge normal sets, on Fraction extents."""
    for poly in (a, b):
        for p, q in poly.edges():
            n = (q - p).perp()
            if not overlaps(extent(a, n), extent(b, n)):
                return False
    return True


def bodies_intersect(a, b):
    """Whether two realized bodies of one kind meet (closed): polygons by
    polygons_intersect, disks by centre distance against the radius sum,
    boxes by overlapping sides on every axis."""
    if a.kind != b.kind:
        raise MixedKinds("%s vs %s" % (a.kind, b.kind))
    if a.kind == "polygon":
        return polygons_intersect(a.polygon, b.polygon)
    if a.kind == "disk":
        rr = a.radius + b.radius
        return (a.center - b.center).norm2() <= rr * rr
    return all(m1 <= m2 + s2 and m2 <= m1 + s1
               for m1, s1, m2, s2 in zip(a.mins, a.sides, b.mins, b.sides))


def intersects(f, i, j):
    """Whether members i and j of f meet, on their realized bodies."""
    return bodies_intersect(f.realize(i), f.realize(j))


def intersection_graph_bruteforce(f):
    """Adjacency sets over member indices, by intersects on every pair."""
    n = len(f)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if intersects(f, i, j):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def graphs_equal(a, b) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def bodies(f):
    """Every member of f, realized."""
    return [f.realize(i) for i in range(len(f))]


def circle_circle_points(c1, r1, c2, r2):
    """Intersection points of two ordinary circles with rational data.

    Returns [] when disjoint or concentric, one RadicalPoint at a tangency
    (rational), else two RadicalPoints in a single sqrt extension.
    """
    r1, r2 = frac(r1), frac(r2)
    u = c2 - c1
    d2 = u.norm2()
    if d2 == 0:
        return []
    a = (d2 + r1 * r1 - r2 * r2) / (2 * d2)
    t2 = r1 * r1 / d2 - a * a
    if t2 < 0:
        return []
    mid = c1 + u * a
    if t2 == 0:
        return [RadicalPoint(mid.x, mid.y)]
    t = Radical.sqrt(t2)
    px = Radical.of(mid.x)
    py = Radical.of(mid.y)
    ox = t * (-u.y)
    oy = t * u.x
    return [RadicalPoint(px + ox, py + oy), RadicalPoint(px - ox, py - oy)]


_QUADRANTS = {(1, 0): 0, (1, 1): 1, (0, 1): 2, (-1, 1): 3,
              (-1, 0): 4, (-1, -1): 5, (0, -1): 6, (1, -1): 7}


def _sign(v):
    return (v > 0) - (v < 0)


def angle_cmp(circle, p, q):
    """Compare two rational boundary Points of a circles.Conic by ccw angle
    from the +x axis about its centre: by the quadrant or half-axis each
    lies on, then by x, which is strictly monotone within an open quadrant."""
    def bucket(u):
        return _QUADRANTS[_sign(u.x - circle.a), _sign(u.y - circle.b)]

    kp, kq = bucket(p), bucket(q)
    if kp != kq:
        return -1 if kp < kq else 1
    s = _sign(p.x - q.x)
    return -s if kp in (1, 3) else s  # in the upper half the angle grows as x falls


def strictly_between(circle, p, u, v):
    """Is p strictly inside the ccw arc of circle from u to v (the whole
    circle but u when u == v)?"""
    if angle_cmp(circle, p, u) == 0 or angle_cmp(circle, p, v) == 0:
        return False
    up, pv = angle_cmp(circle, u, p), angle_cmp(circle, p, v)
    if angle_cmp(circle, u, v) < 0:
        return up < 0 and pv < 0
    return up < 0 or pv < 0


def padded_candidates(f):
    """The oracle's candidate RadPoints as it built them before it kept
    only lowest points, on the int columns: every vertex and the
    reference point of each polygon member, then every vertex of each
    meeting pair's intersection (member i clipped by every halfplane of
    member j); each disk centre, then both crossings of each pair of
    circles; for boxes the products of low corner coordinates that some
    member holds.  Repeated entries are dropped, first occurrences in order,
    rational ones first."""
    if f.base.kind == "box":
        scale, _, lo_cols, _ = box_columns(f, range(len(f)))
        combos = [RadPoint(scale, 1, c)
                  for c in itertools.product(*[sorted(set(col)) for col in lo_cols])]
        return [e for e, m in zip(combos, coverage(f, combos)) if m]
    D, cols, S = int_translations(f)
    meets = pair_checker(f)
    rad = []
    if f.base.kind == "polygon":
        points, planes = member_polygons(f.base, D, cols, S)
        rx, ry, w = geom._hom(f.base.reference_point)
        refs = [_triple(s * rx + x * w, s * ry + y * w, D * w) for s, x, y in zip(S, *cols)]
        rat = [p for pts, ref in zip(points, refs) for p in (*pts, ref)]
        for i, pts in enumerate(points):
            for j, hps in enumerate(planes[i + 1:], i + 1):
                clipped = pts if meets(i, j) else []
                for plane in hps:
                    clipped = clipped and geom._clip(clipped, plane)
                rat.extend(clipped)
    else:
        # crossings c_i + K / h (du, dv) +- t (-dv, du), h = 2 |du, dv|^2,
        # t^2 = delta / h^2, t = k sqrt(m) / d as in Radical.sqrt
        LD, us, vs, rs = disk_columns(f.base, D, cols, S)
        rat = [_triple(u, v, LD) for u, v in zip(us, vs)]
        for i, (u, v, R) in enumerate(zip(us, vs, rs)):
            for u2, v2, R2 in zip(us[i + 1:], vs[i + 1:], rs[i + 1:]):
                du, dv = u2 - u, v2 - v
                h = 2 * (du * du + dv * dv)
                K = h // 2 + R * R - R2 * R2
                delta = 2 * h * R * R - K * K
                if not h or delta < 0:
                    continue
                g = math.gcd(delta, h * h)
                d = h * h // g
                k, m = _reduce_radicand(delta // g * d)
                ax, ay, q = (h * u + K * du) * d, (h * v + K * dv) * d, h * LD * d
                bx, by = -h * k * dv, h * k * du
                if m == 1:
                    rat += [_triple(ax + bx, ay + by, q), _triple(ax - bx, ay - by, q)]
                else:
                    g = math.gcd(q, ax, ay, bx, by)
                    rad += [(q // g, m, (ax // g, ay // g), (e * bx // g, e * by // g))
                            for e in (1, -1)]
    return [RadPoint(w, 1, (x, y)) for x, y, w in dict.fromkeys(rat)] + [
        RadPoint(*e) for e in dict.fromkeys(rad)]


def maximal_masks(masks):
    """The set of masks that no other mask strictly contains."""
    masks = set(masks)
    return {m for m in masks if not any(m != o and m & o == m for o in masks)}


def lowest_point(f, members):
    """The lowest point (least y, then least x) of the intersection of the
    realized members, as a RadicalPoint; None when it is empty.  Polygons: one
    member clipped by the others in Fractions.  Disks: the highest of the
    lowest points of the members' pairs (a member paired with itself), each
    the lowest of the two bottom points and the two circle crossings that
    lie in both disks.  No point of the intersection lies below it, so it
    is the intersection's lowest point iff every member holds it; by Helly
    it is whenever the intersection is nonempty."""
    bs = [f.realize(i) for i in members]
    if f.base.kind == "polygon":
        chain = list(bs[0].polygon.vertices)
        for b in bs[1:]:
            chain = chain and intersection_chain(chain, b.polygon)
        pts = [RadicalPoint.of(p) for p in chain]
        return min(pts, key=lambda p: (p.y, p.x)) if pts else None
    lows = []
    for a, b in itertools.combinations_with_replacement(bs, 2):
        pts = [RadicalPoint.of(c.center - Point(0, c.radius)) for c in (a, b)]
        pts += circle_circle_points(a.center, a.radius, b.center, b.radius)
        pts = [p for p in pts if body_contains(a, p) and body_contains(b, p)]
        if not pts:
            return None
        lows.append(min(pts, key=lambda p: (p.y, p.x)))
    p = max(lows, key=lambda p: (p.y, p.x))
    return p if all(body_contains(b, p) for b in bs) else None


def max_independent_set(adj):
    """Maximum independent set on adjacency sets, exact: branch on the
    vertex with the most neighbours left (the lowest on ties), bounded by a
    greedy clique cover grown from the lowest vertex in increasing order."""
    best = []

    def clique_cover_bound(verts):
        bound = 0
        rest = set(verts)
        while rest:
            v = min(rest)
            clique = {v}
            for u in sorted(rest - {v}):
                if all(u in adj[w] or u == w for w in clique):
                    clique.add(u)
            rest -= clique
            bound += 1
        return bound

    def rec(verts, chosen):
        nonlocal best
        if not verts:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if len(chosen) + clique_cover_bound(verts) <= len(best):
            return
        v = max(verts, key=lambda x: (len(adj[x] & verts), -x))
        rec(verts - {v} - adj[v], chosen + [v])
        rec(verts - {v}, chosen)

    rec(set(range(len(adj))), [])
    return sorted(best)


def clique_partition_number(adj):
    """Exact minimum clique partition (chromatic number of the complement)."""
    n = len(adj)
    if n == 0:
        return 0
    comp = [set(range(n)) - adj[i] - {i} for i in range(n)]
    best = n

    def rec(i, classes):
        nonlocal best
        if len(classes) >= best:
            return
        if i == n:
            best = len(classes)
            return
        for cl in classes:
            if not cl & comp[i]:
                cl.add(i)
                rec(i + 1, classes)
                cl.remove(i)
        classes.append({i})
        rec(i + 1, classes)
        classes.pop()

    rec(0, [])
    return best


def coverage_masks(f, candidates):
    """masks[k] has bit i set iff the realized member i contains
    candidates[k], a point of any type."""
    bs = bodies(f)
    masks = []
    for p in candidates:
        m = 0
        for i, b in enumerate(bs):
            if body_contains(b, p):
                m |= 1 << i
        masks.append(m)
    return masks


def common_point(a, b):
    """A point of both realized bodies a and b, of the same kind."""
    if isinstance(a, PolygonBody):
        pts = intersection_chain(a.polygon, b.polygon)
        if not pts:
            raise DegenerateInput("bodies are disjoint")
        return pts[0]
    if not bodies_intersect(a, b):
        raise DegenerateInput("bodies are disjoint")
    if isinstance(a, BoxBody):
        return tuple(max(m1, m2) for m1, m2 in zip(a.mins, b.mins))
    v = b.center - a.center
    if v == Point(0, 0) or v.norm2() <= a.radius * a.radius:
        return b.center
    # the point of the centre segment at r_a / (r_a + r_b) of the way lies
    # in both disks when they meet
    return a.center + v * (a.radius / (a.radius + b.radius))


def containment_witness(f, i, j):
    """The translate of member i's scale inside member j through a common point.

    For members with s_i <= s_j that intersect, p + (s_i/s_j) * (B_j - p) is a
    translate of the seed-sized homothet contained in B_j and meeting B_i at
    p; this is the containment step of the smallest-first argument.
    """
    D, _, S = f.scaled_translations()
    si, sj = Fraction(S[i], D), Fraction(S[j], D)
    if si > sj:
        raise DegenerateInput("member i must not be larger")
    bi, bj = f.realize(i), f.realize(j)
    p = common_point(bi, bj)
    lam = si / sj
    if isinstance(bj, DiskBody):
        return DiskBody(p + (bj.center - p) * lam, bj.radius * lam)
    if isinstance(bj, BoxBody):
        mins = tuple(pv + (m - pv) * lam for pv, m in zip(p, bj.mins))
        return BoxBody(mins, tuple(s * lam for s in bj.sides))
    verts = [p + (v - p) * lam for v in bj.polygon.vertices]
    return PolygonBody(ConvexPolygon(verts, _trusted=True))


def body_contains_body(outer, inner) -> bool:
    """Exact containment check between realized bodies of the same kind."""
    if isinstance(outer, DiskBody):
        d2 = (inner.center - outer.center).norm2()
        dr = outer.radius - inner.radius
        return dr >= 0 and d2 <= dr * dr
    if isinstance(outer, BoxBody):
        return all(
            mo <= mi and mi + si <= mo + so
            for mo, so, mi, si in zip(outer.mins, outer.sides, inner.mins, inner.sides)
        )
    return all(outer.polygon.contains(p) for p in inner.polygon.vertices)


def union_area(f):
    """Exact area of the union of a polygon family by inclusion-exclusion
    over the realized members' convex intersections (the int kernel), which
    takes 2^n steps when every member meets every other."""
    polys = [f.realize(i).polygon for i in range(len(f))]
    total = Fraction(0)

    def rec(start, chain, sign, area):
        nonlocal total
        total += sign * area
        for i in range(start, len(polys)):
            nxt = kernel_intersection_chain(chain, polys[i])
            a = kernel_chain_area(nxt)
            if a:
                rec(i + 1, nxt, -sign, a)

    for i, poly in enumerate(polys):
        rec(i + 1, poly, 1, poly.area())
    return total


def _union_bbox(f):
    boxes = [f.realize(i).bbox() for i in range(len(f))]
    return (Interval(min(b[0].lo for b in boxes), max(b[0].hi for b in boxes)),
            Interval(min(b[1].lo for b in boxes), max(b[1].hi for b in boxes)))


def lattice_points(f, spec, offset):
    """Lattice points (+offset) in the union's bounding box, in index order,
    each with the realized members that contain it, ascending."""
    ix, iy = _union_bbox(f)
    bs = bodies(f)
    return [(p, [i for i, b in enumerate(bs) if body_contains(b, p)])
            for p in spec.points_in_bbox(ix, iy, offset)]


def lattice_offset_points(f, spec, center, target, seed=0):
    """lattice_pierce's offset search: the fewest lattice points inside the
    union over the offsets, stopping once at most target."""
    best = None
    for off in _offset_candidates(spec, seed):
        pts = [p for p, held in lattice_points(f, spec, off + center) if held]
        if best is None or len(pts) < len(best):
            best = pts
        if len(best) <= target:
            break
    return best


def lattice_offset_members(f, spec, center, target, seed=0):
    """lattice_witness's offset search and recheck: each lattice point takes
    its first containing member not taken yet; the most members over the
    offsets, stopping once at least target, then extended in index order by
    every member that meets none kept (intersects)."""
    best = []
    for off in _offset_candidates(spec, seed):
        chosen = []
        for _, held in lattice_points(f, spec, off + center):
            free = [i for i in held if i not in chosen]
            if free:
                chosen.append(free[0])
        if len(chosen) > len(best):
            best = chosen
        if len(best) >= target:
            break
    kept = []
    for i in best + list(range(len(f))):
        if i not in kept and not any(intersects(f, i, j) for j in kept):
            kept.append(i)
    return kept


def disjoint_extension(order, candidates, check):
    """The members of order, in order, that meet no member kept before
    them; each is tested only against its candidates (grid neighbours).
    The loop that built the grid and lattice witnesses before they became
    the seeds of translates._clusters over the same order."""
    kept = []
    chosen = set()
    for i in order:
        if i not in chosen and not any(j in chosen and check(i, j) for j in candidates(i)):
            kept.append(i)
            chosen.add(i)
    return kept


class CallBudgetExceeded(Exception):
    pass


class call_budget:
    """A deterministic bound on work, unlike wall time: inside the block,
    every call of a Python function or a builtin counts (sys.setprofile),
    or with a name only the calls of Python functions of that name, and
    the call past limit raises CallBudgetExceeded."""

    def __init__(self, limit, name=None):
        self.limit = limit
        self.name = name
        self.calls = 0

    def _count(self, frame, event, arg):
        if self.name:
            counted = event == "call" and frame.f_code.co_name == self.name
        else:
            counted = event in ("call", "c_call")
        if counted:
            self.calls += 1
            if self.calls > self.limit:
                raise CallBudgetExceeded("more than %d calls" % self.limit)

    def __enter__(self):
        self._outer = sys.getprofile()
        sys.setprofile(self._count)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._outer)


def members_document(instance):
    """The members form of a columnar instance document: one
    {"t": [...], "s": ...} per member, each value the reduced v / D (an int
    when whole), and s = 1 for a translate.  With D = 1 the entries are
    taken as written."""
    D, cols = instance["D"], instance["t"]
    scales = instance.get("s", [D] * len(cols[0]))

    def out(v):
        if D == 1:
            return v
        g = math.gcd(v, D)
        return v // g if g == D else "%d/%d" % (v // g, D // g)

    ts = zip(*[map(out, col) for col in cols])
    return {"base": instance["base"], "kind": instance.get("kind", "translates"),
            "members": [{"t": list(t), "s": out(s)} for t, s in zip(ts, scales)]}


def spelled_out(doc):
    """A document with every field the writer may leave out written as the
    earlier writer put it: each rational point as {"kind": "rational",
    "xy": [...]} (in points, refine_points, offsets and tau_points), an
    instance's "kind", a polygon base's "reference_point" (its centre when
    it is centrally symmetric, else its lowest-then-leftmost vertex) and a
    certificate's "info", each at its earlier place among the keys."""
    doc = dict(doc)
    for key in ("points", "refine_points", "offsets", "tau_points"):
        if isinstance(doc.get(key), list):
            doc[key] = [{"kind": "rational", "xy": p} if isinstance(p, list) else p
                        for p in doc[key]]
    if "instance" in doc:
        doc["instance"] = spelled_out(doc["instance"])
        doc.setdefault("info", {})
    if "base" in doc:
        base = doc["base"]
        if base.get("type") == "polygon" and "reference_point" not in base:
            vs = [Point(Fraction(x), Fraction(y)) for x, y in base["vertices"]]
            c = centre(ConvexPolygon(vs))
            if c is None:
                c = min(vs, key=lambda p: (p.y, p.x))
            base = {**base, "reference_point": [jsonio._num_out(c.x), jsonio._num_out(c.y)]}
        doc = {"base": base, "kind": doc.get("kind", "translates"),
               **{k: v for k, v in doc.items() if k not in ("base", "kind")}}
    return doc


def pairs_scaled(instance):
    """(D, cols, S) of a columnar instance document: each distinct value
    v / D0 reduced to a pair by jsonio._pair, then rescaled over the lcm of
    the pairs' denominators (bodies.scale_table).  The members form is
    read as columns over D0 = 1."""
    if "members" in instance:
        ms = instance["members"]
        instance = {"kind": instance.get("kind", "translates"), "D": 1,
                    "t": [list(col) for col in zip(*[m["t"] for m in ms])],
                    "s": [m.get("s", 1) for m in ms]}
    D0, raw = instance["D"], instance["t"]
    ss = instance.get("s", [D0] * len(raw[0]))
    pairs = {x: jsonio._pair(x, D0) for x in set(itertools.chain(ss, *raw))}
    D, scaled = scale_table(pairs)
    cols = [[scaled[x] for x in col] for col in raw]
    S = [scaled[x] for x in ss] if instance.get("kind") == "homothets" else [D] * len(ss)
    return D, cols, S


def pattern_keys(f, offsets, seeds, masks=None):
    """(scale, keys): value_key(p, scale) for every pattern point p placed
    at the seeds, as tuples of ints and of radicand-coefficient tuples,
    offset by offset on the scaled columns; with masks, offset o only at
    the seeds whose mask has bit o."""
    D, cols, S = f.scaled_translations()
    anchor = rational_coords(_pattern_anchor(f.base))
    terms = [[{**t, 1: t.get(1, 0) + a} for t, a in zip(_terms(o), anchor)] for o in offsets]
    L = math.lcm(*(c.denominator for row in terms for t in row for c in t.values()))
    ss = [S[i] for i in seeds]
    ts = [[L * col[i] for i in seeds] for col in cols]
    keys = []
    for row in terms:
        rational = [[q * s + v for s, v in zip(ss, tcol)]
                    for q, tcol in zip([int(t.get(1, 0) * L) for t in row], ts)]
        radical = []
        for t in row:
            rad = [(m, int(c * L)) for m, c in sorted(t.items()) if m != 1]
            radical.append([tuple(x for m, c in rad for x in (m, c * s)) for s in ss])
        keys.extend(zip(*rational, *radical))
    if masks is not None:
        n = len(ss)
        keys = [k for i, k in enumerate(keys) if masks[i % n] >> (i // n) & 1]
    return D * L, keys


def tuple_key_count(cert, f):
    """The number of distinct points of a symbolic certificate on f, from
    pattern_keys and the value_key of each refine point."""
    scale, keys = pattern_keys(f, greedy_pattern(f, cert.method).offsets, cert._pattern_seeds(),
                               cert.masks)
    return len(set(keys) | {value_key(p, scale) for p in cert.extra})


def random_family(base, n, box_size=10, kind="translates", scale_range=(1, 3), seed=0):
    """generators.random_family as it was before it drew into columns: all
    2n (or 3n) draws in one list, sliced per axis, then one reduced pair
    per distinct draw of each form in a (form, draw)-keyed dict, scaled by
    bodies.scale_table."""
    rng = random.Random(seed)
    dim = base.dim if base.kind == "box" else 2
    forms = [_rand_frac_form(0, box_size, 32)] * dim
    if kind != "translates":
        forms.append(_rand_frac_form(scale_range[0], scale_range[1], 8))
    spans = [span for span, _, _, _ in forms]
    draws = [rng.randrange(span) for _ in range(n) for span in spans]
    cols = [draws[k::len(forms)] for k in range(len(forms))]
    drawn = [set(ks) for ks in cols]
    pairs = {}  # draw j of form k, (span, a, b, q), is (a + j b) / q, reduced
    for k, ((_, a, b, q), js) in enumerate(zip(forms, drawn)):
        for j in js:
            g = math.gcd(a + j * b, q)
            pairs[k, j] = (a + j * b) // g, q // g
    D, scaled = scale_table(pairs)
    cols = [list(map({j: scaled[k, j] for j in js}.__getitem__, ks))
            for k, (ks, js) in enumerate(zip(cols, drawn))]
    S = cols.pop() if kind != "translates" else [D] * n
    if S and min(S) <= 0:
        raise DegenerateInput("scale must be positive")
    return Family.from_scaled(base, (D, cols, S), kind)


def _rational(x):
    """The Fraction of a JSON int or rational string (bool and float
    refused)."""
    if type(x) not in (int, str):
        raise ValueError("not an exact rational: %r" % (x,))
    return Fraction(x)


def _doc_point(p, dim=None):
    """A document point: a bare coordinate list or {"xy": [...]} as a Point,
    or as a tuple of dim coordinates for a box, or {"kind": "radical"}
    terms as a RadicalPoint."""
    if isinstance(p, dict) and p.get("kind") == "radical":
        return RadicalPoint(*[radical_sum([(m, _rational(c)) for m, c in p[k]]) for k in "xy"])
    xy = [_rational(v) for v in (p if isinstance(p, list) else p["xy"])]
    if len(xy) != (dim or 2):
        raise ValueError("a point needs %d coordinates" % (dim or 2))
    return tuple(xy) if dim else Point(*xy)


def _doc_body(b):
    if b["type"] == "polygon":
        ref = b.get("reference_point")
        return PolygonBody(ConvexPolygon([_doc_point(v) for v in b["vertices"]]),
                           _doc_point(ref) if ref else None)
    if b["type"] == "disk":
        return DiskBody(_doc_point(b["center"]), _rational(b["radius"]))
    sides = [_rational(v) for v in b["side_lengths"]]
    return BoxBody([_rational(v) for v in b.get("min_corner") or [0] * len(sides)], sides)


def document_members(instance):
    """(base, kind, ts, ss, bodies): an instance document's base, its
    members' translations and scales, and the realized members, in
    Fractions, from the columns (entries over D) or the members form."""
    base = _doc_body(instance["base"])
    kind = instance.get("kind", "translates")
    if "members" in instance:
        ts = [[_rational(v) for v in m["t"]] for m in instance["members"]]
        ss = [_rational(m.get("s", 1)) for m in instance["members"]]
    else:
        D = _rational(instance["D"])
        ts = [[_rational(v) / D for v in t] for t in zip(*instance["t"])]
        ss = [_rational(v) / D for v in instance.get("s", [instance["D"]] * len(ts))]
    ts = [tuple(t) if base.kind == "box" else Point(*t) for t in ts]
    if kind == "translates":
        ss = [Fraction(1)] * len(ts)
    return base, kind, ts, ss, [base.scale_translate(s, t) for t, s in zip(ts, ss)]


def _pattern_anchor(base):
    """A pattern's anchor, the point its offsets are relative to: a disk's
    or box's centre, a polygon's centre when it is centrally symmetric, else
    its lowest-then-leftmost vertex."""
    if base.kind == "disk":
        return base.center
    if base.kind == "box":
        return tuple(m + s / 2 for m, s in zip(base.mins, base.sides))
    c = centre(base.polygon)
    return c if c is not None else min(base.polygon.vertices, key=lambda p: (p.y, p.x))


def _placed(base, offsets, s, t):
    """The pattern points s (anchor + o) + t at a seed of scale s and
    translation t."""
    a = _pattern_anchor(base)
    if base.kind == "box":
        return [tuple(s * (c + v) + u for c, v, u in zip(a, rational_coords(o), t))
                for o in offsets]
    out = []
    for o in offsets:
        if isinstance(o, RadPoint) and o.B:
            o = RadicalPoint.of(o)
            out.append(RadicalPoint(s * (o.x + a.x) + t.x, s * (o.y + a.y) + t.y))
        else:
            o = Point(*[Fraction(v, o.q) for v in o.A]) if isinstance(o, RadPoint) else o
            out.append((o + a) * s + t)
    return out


def recheck(doc):
    """Whether what an accepted certificate or cover-pattern document claims
    holds, decided from the document alone in Fractions and Radicals.

    A certificate: every realized member (document_members) contains one of
    its points (body_contains), the witness members are pairwise disjoint
    (bodies_intersect on every pair, so a repeated member fails), and the
    points, counted once per value (value_key), number at most factor
    times the witness.  An explicit certificate lists its points and
    witness.  A symbolic one has the method's pattern (translate_cluster_cover
    for "greedy", homothet_cover for "greedy-homothets") placed at each
    cluster's seed, all but the last when it has refine points, which
    pierce that last cluster; with "masks", one int per such cluster, only
    the offsets of the set bits of its mask are placed.  Its witness is the
    seeds (flat clusters) or its witness list (clusters [seed, members]).

    A cover pattern: a polygon's offsets leave no residue of the convex
    hull of its region's vertices (translates_residue), a box's offsets
    cover every cell of the grid their faces cut, and a disk's offsets
    are, as a set of values, those of the pattern covers built and circles
    verified."""
    if doc.get("type") == "cover_pattern":
        return _recheck_pattern(doc)
    base, kind, ts, ss, bodies = document_members(doc["instance"])
    dim = base.dim if base.kind == "box" else None
    if "points" in doc:
        points = [_doc_point(p, dim) for p in doc["points"]]
        witness = doc["witness"]
    else:
        clusters = doc["clusters"]
        seeds = [c[0] for c in clusters]
        witness = doc["witness"] if "witness" in doc else seeds
        extra = [_doc_point(p, dim) for p in doc["refine_points"]]
        cover = translate_cluster_cover if doc["method"] == "greedy" else homothet_cover
        offsets = cover(base).offsets
        pattern_seeds = seeds[:-1] if extra else seeds
        masks = doc.get("masks", [(1 << len(offsets)) - 1] * len(pattern_seeds))
        points = [p for i, mask in zip(pattern_seeds, masks)
                  for p in _placed(base, [o for k, o in enumerate(offsets) if mask >> k & 1],
                                   ss[i], ts[i])] + extra
    if not all(any(body_contains(b, p) for p in points) for b in bodies):
        return False
    if any(bodies_intersect(bodies[i], bodies[j])
           for a, i in enumerate(witness) for j in witness[a + 1:]):
        return False
    return len({value_key(p) for p in points}) <= doc["factor"] * len(witness)


def _recheck_pattern(doc):
    half = doc["region_kind"] == "diff_half"
    kind = doc["base_kind"]
    if kind == "polygon":
        region = convex_hull([_doc_point(p) for p in doc["region"]])
        cover = ConvexPolygon([_doc_point(p) for p in doc["cover"]])
        return not translates_residue(region, cover, [_doc_point(p) for p in doc["offsets"]])
    if kind == "disk":
        want = (disk_half_cover if half else disk_seven_cover)(_rational(doc["radius"])).offsets
        return {value_key(_doc_point(p)) for p in doc["offsets"]} == set(map(value_key, want))
    sides = [_rational(v) for v in doc["sides"]]
    offsets = [_doc_point(p, len(sides)) for p in doc["offsets"]]
    region = [(-s, s) for s in sides]
    if half:
        region[-1] = (-sides[-1], Fraction(0))
    cuts = [sorted({lo, hi} | {v for o in offsets for v in (o[k] - s / 2, o[k] + s / 2)
                               if lo < v < hi})
            for k, ((lo, hi), s) in enumerate(zip(region, sides))]
    return all(any(all(abs((a + b) / 2 - o[k]) <= s / 2 for k, ((a, b), s) in
                       enumerate(zip(cell, sides))) for o in offsets)
               for cell in itertools.product(*[zip(c, c[1:]) for c in cuts]))
