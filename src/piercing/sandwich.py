"""Parallelogram and hexagon sandwiches of planar convex bodies.

A sandwich pair is two parallel parallelograms P inside C inside Q; the
edge-length ratios decide the grid-decomposition factor

    gamma = ceil(lambda_line) * ceil(lambda_class + 1)

minimized over the two axis orderings.  The search is a finite sweep over
direction pairs drawn from edge directions and vertex differences.  Every
pair is ranked by its exact gamma on int coordinates: the body in the
pair's basis, scaled to ints, with its sections taken by one walk along
the lower and upper chains.  No float is used.  Only the winning pair is
built in Fractions, and it is verified before it is returned.
"""

from fractions import Fraction
from math import ceil, gcd, lcm

from .errors import NotCentrallySymmetric, NotHexagon, SearchFailed, VerificationFailed
from .geom import ConvexPolygon, Point, _clip, _hom, _plane, _point, _twice_area, frac

_UNIFORM_DIRS = 64


class Parallelogram:
    """{center + a*u + b*v : a, b in [-1/2, 1/2]} with full edge vectors u, v."""

    __slots__ = ("center", "u", "v")

    def __init__(self, center: Point, u: Point, v: Point):
        if u.cross(v) == 0:
            raise SearchFailed("degenerate parallelogram")
        self.center = center
        self.u = u
        self.v = v

    def corners(self):
        c, u, v = self.center, self.u, self.v
        h = Fraction(1, 2)
        return [c - u * h - v * h, c + u * h - v * h, c + u * h + v * h, c - u * h + v * h]

    def as_polygon(self) -> ConvexPolygon:
        return ConvexPolygon(self.corners())


class SandwichPair:
    """P inside C inside Q, parallel, with exact ratios and gamma."""

    def __init__(self, p: Parallelogram, q: Parallelogram, lambdas, line_axis: int):
        self.p = p
        self.q = q
        self.lambdas = (frac(lambdas[0]), frac(lambdas[1]))
        self.line_axis = line_axis  # which of (u, v) carries the per-line points
        l_line = self.lambdas[line_axis]
        l_class = self.lambdas[1 - line_axis]
        self.gamma = ceil(l_line) * ceil(l_class + 1)

    def verify(self, c: ConvexPolygon) -> bool:
        if any(l < 1 for l in self.lambdas):
            return False
        if self.q.u != self.p.u * self.lambdas[0] or self.q.v != self.p.v * self.lambdas[1]:
            return False
        if not all(c.contains(pt) for pt in self.p.corners()):
            return False
        qpoly = self.q.as_polygon()
        return all(qpoly.contains(pt) for pt in c.vertices)


def _dedup_directions(dirs):
    keys = {}  # first occurrences, in order
    for d in dirs:
        if d.x == 0 and d.y == 0:
            continue
        # canonical primitive integer vector with positive leading entry
        num = (d.x.numerator * d.y.denominator, d.y.numerator * d.x.denominator)
        g = gcd(*num)
        key = (num[0] // g, num[1] // g)
        keys[(-key[0], -key[1]) if key < (0, 0) else key] = None
    return [Point(x, y) for x, y in keys]


def _candidate_directions(c: ConvexPolygon):
    v = c.vertices
    dirs = [b - a for a, b in c.edges()]
    n = len(v)
    for i in range(n):
        for j in range(i + 2, n):
            dirs.append(v[j] - v[i])
    return _dedup_directions(dirs)


# ---------------------------------------------------------------------------
# int coordinates and sections
#
# A convex polygon in the basis (u, v) is a ccw list of int pairs (a, b):
# the vertices and u, v are scaled by the lcm of their denominators, so
# that a vertex p is (a * xscale) u + (b * yscale) v for two Fractions.  A
# section value is an unreduced (numerator, denominator) pair with a
# positive denominator.


def _int_coords(points, u: Point, v: Point):
    """(pts, xscale, yscale): the convex ccw vertex list points in the basis
    (u, v) as a ccw list of int pairs, and the scales back to Fractions."""
    d = lcm(*(p.x.denominator for p in points), *(p.y.denominator for p in points))
    ux, uy, du = _hom(u)
    vx, vy, dv = _hom(v)
    det = ux * vy - uy * vx
    s = 1 if det > 0 else -1
    pts = []
    for p in points:
        x = p.x.numerator * (d // p.x.denominator)
        y = p.y.numerator * (d // p.y.denominator)
        pts.append((s * (x * vy - y * vx), s * (ux * y - uy * x)))
    if s < 0:
        pts.reverse()  # the basis map reverses orientation
    m = d * abs(det)
    return pts, Fraction(du, m), Fraction(dv, m)


def _walk(chain, ts):
    """The values of a left-to-right chain at the sorted int abscissae ts."""
    out = []
    j, last = 0, len(chain) - 2
    for t in ts:
        while j < last and chain[j + 1][0] < t:
            j += 1
        (a0, b0), (a1, b1) = chain[j], chain[j + 1]
        out.append((b0 * (a1 - t) + b1 * (t - a0), a1 - a0))
    return out


def _sections(pts, ts):
    """The section (lo, hi) of the ccw int polygon pts at each abscissa of
    the sorted int list ts, or None outside it.

    One walk along the lower chain and one along the upper chain, each from
    the leftmost to the rightmost column with edges parallel to the y-axis
    left out, so a section at such an edge spans it.
    """
    n = len(pts)
    i = pts.index(min(pts))  # leftmost, lowest
    j = pts.index(max(pts))  # rightmost, highest
    # a strictly convex polygon has at most one such edge on each side, and
    # ccw it runs up on the right and down on the left
    r = j - 1 if pts[j - 1][0] == pts[j][0] else j  # rightmost, lowest
    l = i - 1 if pts[i - 1][0] == pts[i][0] else i  # leftmost, highest
    twice = pts + pts
    lower = twice[i:i + (r - i) % n + 1]
    upper = twice[j:j + (l - j) % n + 1][::-1]
    amin, amax = lower[0][0], lower[-1][0]
    return [s if amin <= t <= amax else None
            for t, s in zip(ts, zip(_walk(lower, ts), _walk(upper, ts)))]


def _best_box(pts, k):
    """The widest common section of pts at a and a + width/k over the
    candidate abscissae a, as (a, lo, hi) with the abscissae scaled by 2k,
    or None.

    The objective is concave piecewise-linear, so breakpoints plus midpoints
    of adjacent breakpoints locate the optimum well; exactness of the
    sandwich never depends on the optimum being global.  The scale 2k makes
    the span and the midpoints ints.  Ties go to the first candidate in
    order: the breakpoints left to right, then the midpoints.
    """
    pts = [(2 * k * a, b) for a, b in pts]
    xs = [a for a, _ in pts]
    amin, amax = min(xs), max(xs)
    span = (amax - amin) // k
    cands = sorted({a for a in xs if a <= amax - span}
                   | {a - span for a in xs if a - span >= amin})
    ts = [cands[0]]
    for a in cands[1:]:
        ts += [(ts[-1] + a) // 2, a]
    left = _sections(pts, ts)
    right = _sections(pts, [t + span for t in ts])
    best = None
    for i in [*range(0, len(ts), 2), *range(1, len(ts), 2)]:
        (l1, h1), (l2, h2) = left[i], right[i]
        lo = l1 if l1[0] * l2[1] >= l2[0] * l1[1] else l2
        hi = h1 if h1[0] * h2[1] <= h2[0] * h1[1] else h2
        en, ed = hi[0] * lo[1] - lo[0] * hi[1], hi[1] * lo[1]
        if en > 0 and (best is None or en * best[1] > best[0] * ed):
            best = (en, ed, ts[i], lo, hi)
    return None if best is None else best[2:]


def _build_pair(c, uu, vv, k, line_axis, box) -> SandwichPair:
    """The SandwichPair, in Fractions, of a box that _best_box found."""
    pts, xscale, yscale = _int_coords(c.vertices, uu, vv)
    amin, amax = min(a for a, _ in pts), max(a for a, _ in pts)
    bmin, bmax = min(b for _, b in pts), max(b for _, b in pts)
    width, height = (amax - amin) * xscale, (bmax - bmin) * yscale
    span = width / k
    t, lo, hi = box
    a1 = Fraction(t, 2 * k) * xscale
    ylo, yhi = Fraction(*lo) * yscale, Fraction(*hi) * yscale
    center = uu * (a1 + span / 2) + vv * ((ylo + yhi) / 2)
    p = Parallelogram(center, uu * span, vv * (yhi - ylo))
    qcenter = uu * ((amin + amax) * xscale / 2) + vv * ((bmin + bmax) * yscale / 2)
    q = Parallelogram(qcenter, uu * width, vv * height)
    return SandwichPair(p, q, (k, height / (yhi - ylo)), line_axis)


def _pair_gammas(c, u, v):
    """(gamma, strict score, choice) of the direction pair (u, v), or None.

    gamma is the least over the axis orders, the spans 1/k and the line
    axes, and choice = (uu, vv, k, line_axis, box) the first item in that
    order that reaches it.  The strict score is the least of the same
    products with each ceil(lambda_b) replaced by floor(lambda_b) + 1.
    """
    gamma = strict = choice = None
    for uu, vv in ((u, v), (v, u)):
        pts, _, _ = _int_coords(c.vertices, uu, vv)
        height = max(b for _, b in pts) - min(b for _, b in pts)
        for k in (1, 2, 3):
            box = _best_box(pts, k)
            if box is None:
                continue
            (ln, ld), (hn, hd) = box[1:]
            # lambda_b = height / (hi - lo) = num / den
            num, den = height * hd * ld, hn * ld - ln * hd
            cb, fb = -(-num // den), num // den + 1
            for line_axis, (g, gs) in enumerate(((k * (cb + 1), k * (fb + 1)),
                                                 ((k + 1) * cb, (k + 1) * fb))):
                if gamma is None or g < gamma:
                    gamma, choice = g, (uu, vv, k, line_axis, box)
                strict = gs if strict is None else min(strict, gs)
    return None if gamma is None else (gamma, strict, choice)


def sandwich_parallelograms(c: ConvexPolygon) -> SandwichPair:
    """A verified sandwich pair minimizing gamma over the direction sweep.

    Parallelograms short-circuit to P = Q = C with gamma 2.  Every other
    direction pair gets its exact gamma and strict score (_pair_gammas);
    the first pair in candidate order with the least (gamma, strict score)
    is built.  The strict score breaks ties between pairs of equal gamma as
    the float ranking that preceded it did, so certificates keep their
    bytes.  Raises SearchFailed if no swept pair reaches the planar
    guarantee gamma <= 6, which would indicate a search bug rather than a
    valid outcome.
    """
    if c.is_parallelogram():
        v = c.vertices
        center = (v[0] + v[2]) / 2
        p = Parallelogram(center, v[1] - v[0], v[3] - v[0])
        pair = SandwichPair(p, p, (1, 1), 0)
        if not pair.verify(c):
            raise VerificationFailed("parallelogram sandwich pair does not verify")
        return pair

    dirs = _candidate_directions(c)
    best = None  # (gamma, strict score, choice)
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            if dirs[i].cross(dirs[j]) != 0:
                got = _pair_gammas(c, dirs[i], dirs[j])
                if got is not None and (best is None or got[:2] < best[:2]):
                    best = got
    if best is None or best[0] > 6:
        raise SearchFailed("no direction pair reached gamma <= 6")
    pair = _build_pair(c, *best[2])
    if not pair.verify(c):
        raise VerificationFailed("best sandwich pair does not verify")
    return pair


class HexagonSandwich:
    """Inscribed affinely regular hexagon and circumscribed parallel hexagon."""

    def __init__(self, h_in: ConvexPolygon, h_out: ConvexPolygon, center: Point):
        self.h_in = h_in
        self.h_out = h_out
        self.center = center
        self.area_ratio = h_in.area() / h_out.area()


def require_centrally_symmetric(c: ConvexPolygon) -> Point:
    center = c.is_centrally_symmetric()
    if center is None:
        raise NotCentrallySymmetric("body is not centrally symmetric")
    return center


def _chord(pts):
    """The chord p6 p1 of the hexagon inscribed_hexagon builds, in its int
    frame pts (coordinates (beta, alpha)), as ints (Z, B, L, H, F) over one
    denominator Z: the chord lies at beta = B/Z from alpha = L/Z to H/Z,
    and its length F/Z is half that of the section at beta = 0.  None when
    that section is empty.

    The sections at 0 and at each vertex beta above it come from one walk
    (_sections) and are put over one even denominator M.  The width shrinks
    linearly between neighbouring betas, so the first beta where it is at
    most F/M is passed by a linear solve, exact on ints; when none is (an
    edge parallel to the axis tops the body) the chord is centred on that
    edge.
    """
    ts = [0, *sorted({b for b, _ in pts if b > 0})]
    secs = _sections(pts, ts)
    if secs[0] is None:
        return None
    M = 2 * lcm(*(d for sec in secs for _, d in sec))
    L = [n * (M // d) for (n, d), _ in secs]
    H = [n * (M // d) for _, (n, d) in secs]
    F = (H[0] - L[0]) // 2  # every value over M is even
    for k in range(1, len(ts)):
        if H[k] - L[k] <= F:
            # t = tn / td of the way from beta ts[k-1] to ts[k]
            j = k - 1
            td = H[j] - L[j] - H[k] + L[k]
            tn = H[j] - L[j] - F
            return (M * td, M * (ts[j] * td + tn * (ts[k] - ts[j])),
                    L[j] * td + tn * (L[k] - L[j]), H[j] * td + tn * (H[k] - H[j]), F * td)
    return 2 * M, 2 * M * ts[-1], L[-1] + H[-1] - F, L[-1] + H[-1] + F, 2 * F


def inscribed_hexagon(c: ConvexPolygon, direction: Point) -> ConvexPolygon:
    """Affinely regular hexagon inscribed in a centered symmetric polygon.

    p2 and p5 are the boundary points on the line through the origin with
    the given direction; p1p6 is the parallel chord of exactly half that
    length (_chord); p3 = -p6, p4 = -p1.  The chords are sections across
    the direction, on int coordinates (beta, alpha) in the basis
    (direction.perp(), direction).
    """
    u = direction
    n = u.perp()
    pts, bscale, ascale = _int_coords(c.vertices, n, u)
    chord = _chord(pts)
    if chord is None:
        raise SearchFailed("section outside polygon")
    Z, B, L, H, F = chord
    off = n * (Fraction(B, Z) * bscale)
    p2 = u * (Fraction(F, Z) * ascale)
    p1 = u * (Fraction(H, Z) * ascale) + off
    p6 = u * (Fraction(L, Z) * ascale) + off
    p3, p4, p5 = -p6, -p1, -p2
    hexagon = ConvexPolygon([p1, p2, p3, p4, p5, p6])
    if len(hexagon) != 6:
        raise SearchFailed("degenerate inscribed hexagon")
    return hexagon


def support_hexagon(c: ConvexPolygon, h_in: ConvexPolygon) -> ConvexPolygon:
    """Minimal circumscribed region with sides parallel to the hexagon's sides.

    The intersection of the three support slabs of c with the inscribed
    hexagon's edge normals: a centrally symmetric hexagon (possibly with
    fewer effective sides) containing c.
    """
    verts = h_in.vertices
    normals = [(verts[i + 1] - verts[i]).perp() for i in range(3)]
    (n1, h1), (n2, h2), (n3, h3) = [(nv, c.support(nv)) for nv in normals]
    # start from slab 1 x slab 2, then clip with slab 3
    det = n1.cross(n2)
    corners = []
    for s1 in (h1, -h1):
        for s2 in (h2, -h2):
            # solve n1.p = s1, n2.p = s2
            x = (s1 * n2.y - s2 * n1.y) / det
            y = (s2 * n1.x - s1 * n2.x) / det
            corners.append(_hom(Point(x, y)))
    chain = [corners[0], corners[1], corners[3], corners[2]]
    chain = _clip(_clip(chain, _plane(n3, h3)), _plane(-n3, h3))
    return ConvexPolygon([_point(h) for h in chain])


def _uniform_directions(k: int):
    # rational points on the circle via the tangent half-angle map
    out = []
    for i in range(k):
        t = Fraction(2 * i - k, 2 * k)  # t in [-1/2, 1/2) covers half the circle
        out.append(Point(1 - t * t, 2 * t))
    return out


def _hexagon_ratio(pts):
    """(num, den): the area of the hexagon that inscribed_hexagon builds in
    the int frame pts over that of its support_hexagon, or None.

    In the frame, with _chord's (Z, B, L, H, F), the hexagon is p1 = (B, H),
    p2 = (0, F), p6 = (B, L) over Z and their reflexions, of area 3 B F /
    Z^2 as H - L = F.  Its edges p1p2 and p2p3 have the normals (H - F, -B)
    and (L + F, -B), whose determinant is B F, and p3p4 the beta axis; the
    three support slabs meet in the parallelogram of the first two cut to
    the third.  A linear map keeps the ratio.
    """
    chord = _chord(pts)
    if chord is None:
        return None
    Z, B, L, H, F = chord
    (ax, ay), (bx, by) = (H - F, -B), (L + F, -B)
    h1 = max(ax * x + ay * y for x, y in pts)
    h2 = max(bx * x + by * y for x, y in pts)
    h3 = max(x for x, _ in pts)
    # the corners with a.p = s1, b.p = s2, in turn
    det = B * F
    corners = [(s1 * by - s2 * ay, s2 * ax - s1 * bx, det)
               for s1, s2 in ((h1, h2), (h1, -h2), (-h1, -h2), (-h1, h2))]
    num, den = _twice_area(_clip(_clip(corners, (1, 0, h3)), (-1, 0, h3)))
    return 6 * B * F * den, Z * Z * num


def hexagon_sandwich(c: ConvexPolygon) -> HexagonSandwich:
    """Best inscribed/circumscribed hexagon sandwich over the direction sweep.

    Each direction is scored on ints (_hexagon_ratio), and the first with
    the greatest area ratio is built in Fractions."""
    center = require_centrally_symmetric(c)
    centered = c.translate(-center)
    dirs = [p for p in centered.vertices]
    for a, b in centered.edges():
        dirs.append((b - a).perp())
    dirs += _uniform_directions(_UNIFORM_DIRS)
    best = best_ratio = None
    for d in _dedup_directions(dirs):
        ratio = _hexagon_ratio(_int_coords(centered.vertices, d.perp(), d)[0])
        if ratio is not None and (best is None or ratio[0] * best_ratio[1] > best_ratio[0] * ratio[1]):
            best, best_ratio = d, ratio
    if best is None:
        raise SearchFailed("no inscribed hexagon found")
    h_in = inscribed_hexagon(centered, best)
    h_out = support_hexagon(centered, h_in)
    return HexagonSandwich(h_in.translate(center), h_out.translate(center), center)


def _hexagon_vertices(c: ConvexPolygon):
    if len(c.vertices) != 6:
        raise NotHexagon("need 6 distinct vertices")
    if c.is_centrally_symmetric() is None:
        raise NotHexagon("hexagon is not centrally symmetric")
    return c.vertices


def hexagon_sandwich_special(c: ConvexPolygon) -> SandwichPair:
    """A sandwich pair with gamma <= 3 for a centrally symmetric hexagon.

    Either the hexagon fits in a parallelogram built on one vertex pair's
    rectangle frame (ratio 2 by 1), or the parallelogram on alternating
    vertices p1 p3 p4 p6 is circumscribed by a parallel copy with ratios
    (w, 1), w <= 2.  All six labelings are tried; the best verified pair
    wins.
    """
    verts = _hexagon_vertices(c)
    center = c.is_centrally_symmetric()
    v = [p - center for p in verts]
    best = None
    for k in range(6):
        p1, p2, p3, p4 = [v[(k + i) % 6] for i in range(4)]
        # case B frame: P = parallelogram p1 p3 p4 p6 (center origin), then
        # case A: rectangle p2 p3 p5 p6 inside the bounding parallelogram;
        # neither is flat, as p1 p3 p4 are not collinear and p2 x p3 != 0
        for d1, d2 in ((p3 - p1, p4 - p3), (p3 - p2, -(p3 + p2))):
            pts, xscale, yscale = _int_coords(v, d1, d2)
            amin, amax = min(a for a, _ in pts), max(a for a, _ in pts)
            bmin, bmax = min(b for _, b in pts), max(b for _, b in pts)
            lam = ((amax - amin) * xscale, (bmax - bmin) * yscale)
            pgram = Parallelogram(center, d1, d2)
            q = Parallelogram(
                center + d1 * ((amin + amax) * xscale / 2) + d2 * ((bmin + bmax) * yscale / 2),
                d1 * lam[0],
                d2 * lam[1],
            )
            for line_axis in (0, 1):
                pair = SandwichPair(pgram, q, lam, line_axis)
                if pair.gamma <= 3 and pair.verify(c) and (best is None or pair.gamma < best.gamma):
                    best = pair
    if best is None:
        raise SearchFailed("no gamma <= 3 sandwich found for hexagon")
    return best
