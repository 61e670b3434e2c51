"""Parallelogram and hexagon sandwiches of planar convex bodies.

A sandwich pair is two parallel parallelograms P inside C inside Q; the
edge-length ratios decide the grid-decomposition factor

    gamma = ceil(lambda_line) * ceil(lambda_class + 1)

minimized over the two axis orderings.  The search is a finite sweep over
direction pairs drawn from edge directions and vertex differences; floats
only rank candidates, every returned pair is re-derived and verified with
exact rational arithmetic.
"""

from fractions import Fraction
from math import ceil, gcd

from .errors import NotCentrallySymmetric, NotHexagon, SearchFailed, VerificationFailed
from .geom import ConvexPolygon, Point, clip_chain, frac

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

    def area(self):
        return abs(self.u.cross(self.v))


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


def _basis_coords(points, u: Point, v: Point):
    det = u.cross(v)
    return [Point(p.cross(v) / det, u.cross(p) / det) for p in points]


def _section(xs, a):
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


def _best_box_for_span(xs, span):
    """Maximize the common y-extent of sections at a and a+span (concave 1-D).

    Returns (a1, ylo, yhi) with the largest exact extent, or None.  The
    objective is concave piecewise-linear, so breakpoints plus midpoints of
    adjacent breakpoints locate the optimum well; exactness of the sandwich
    never depends on the optimum being global.
    """
    axs = sorted({p.x for p in xs} | {p.x - span for p in xs})
    amin = min(p.x for p in xs)
    amax = max(p.x for p in xs)
    cands = [a for a in axs if amin <= a <= amax - span]
    if not cands:
        return None
    cands += [(cands[i] + cands[i + 1]) / 2 for i in range(len(cands) - 1)]
    best = None
    for a in cands:
        s1 = _section(xs, a)
        s2 = _section(xs, a + span)
        if s1 is None or s2 is None:
            continue
        ylo = max(s1[0], s2[0])
        yhi = min(s1[1], s2[1])
        if yhi <= ylo:
            continue
        if best is None or yhi - ylo > best[2] - best[1]:
            best = (a, ylo, yhi)
    return best


def _evaluate_pair(c, u, v, spans=(1, 2, 3)):
    """Best sandwich for one direction pair; exact. Returns SandwichPair or None."""
    best = None
    for swap in (False, True):
        uu, vv = (v, u) if swap else (u, v)
        xs = _basis_coords(c.vertices, uu, vv)
        amin = min(p.x for p in xs)
        amax = max(p.x for p in xs)
        bmin = min(p.y for p in xs)
        bmax = max(p.y for p in xs)
        width = amax - amin
        height = bmax - bmin
        for k in spans:
            span = width / k
            got = _best_box_for_span(xs, span)
            if got is None:
                continue
            a1, ylo, yhi = got
            lam_a = width / span  # = k exactly
            lam_b = height / (yhi - ylo)
            center = uu * (a1 + span / 2) + vv * ((ylo + yhi) / 2)
            p = Parallelogram(center, uu * span, vv * (yhi - ylo))
            qcenter = uu * ((amin + amax) / 2) + vv * ((bmin + bmax) / 2)
            q = Parallelogram(qcenter, uu * width, vv * height)
            for line_axis in (0, 1):
                pair = SandwichPair(p, q, (lam_a, lam_b), line_axis)
                if best is None or pair.gamma < best.gamma:
                    best = pair
    return best


def _float_score(c, u, v):
    """Cheap float estimate of the best gamma for a direction pair."""

    def fsection(xs, a):
        lo = hi = None
        n = len(xs)
        for i in range(n):
            (px, py), (qx, qy) = xs[i], xs[(i + 1) % n]
            if px == qx:
                continue
            t = (a - px) / (qx - px)
            if 0 <= t <= 1:
                y = py + t * (qy - py)
                lo = y if lo is None else min(lo, y)
                hi = y if hi is None else max(hi, y)
        return (lo, hi) if lo is not None else None

    best = 99.0
    for uu, vv in ((u, v), (v, u)):
        det = float(uu.cross(vv))
        if det == 0:
            return 99.0
        xs = [(float(p.cross(vv)) / det, float(uu.cross(p)) / det) for p in c.vertices]
        axs = sorted(x for x, _ in xs)
        amin, amax = axs[0], axs[-1]
        height = max(y for _, y in xs) - min(y for _, y in xs)
        width = amax - amin
        if width <= 0 or height <= 0:
            return 99.0
        for k in (1, 2, 3):
            span = width / k
            fbest = 0.0
            cands = [a for a in axs + [x - span for x in axs] if amin <= a <= amax - span]
            cands += [(a + b) / 2 for a, b in zip(cands, cands[1:])]
            for a in cands:
                s1, s2 = fsection(xs, a), fsection(xs, a + span)
                if not s1 or not s2:
                    continue
                f = min(s1[1], s2[1]) - max(s1[0], s2[0])
                fbest = max(fbest, f)
            if fbest <= 0:
                continue
            lam_b = height / fbest * (1 + 1e-9)
            best = min(best, ceil(lam_b) * (k + 1), k * ceil(lam_b + 1))
    return best


def sandwich_parallelograms(c: ConvexPolygon, max_exact: int = 16) -> SandwichPair:
    """A verified sandwich pair minimizing gamma over the direction sweep.

    Parallelograms short-circuit to P = Q = C with gamma 2.  Raises
    SearchFailed if no swept pair reaches the planar guarantee gamma <= 6,
    which would indicate a search bug rather than a valid outcome.
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
    pairs = []
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            if dirs[i].cross(dirs[j]) != 0:
                pairs.append((dirs[i], dirs[j]))
    ranked = sorted(pairs, key=lambda uv: _float_score(c, uv[0], uv[1]))

    best = None
    for u, v in ranked[:max_exact]:
        got = _evaluate_pair(c, u, v)
        if got is not None and (best is None or got.gamma < best.gamma):
            best = got
            if best.gamma <= 2:
                break
    if best is None or best.gamma > 6:
        for u, v in ranked[max_exact:]:
            got = _evaluate_pair(c, u, v)
            if got is not None and (best is None or got.gamma < best.gamma):
                best = got
                if best.gamma <= 6:
                    break
    if best is None or best.gamma > 6:
        raise SearchFailed("no direction pair reached gamma <= 6")
    if not best.verify(c):
        raise VerificationFailed("best sandwich pair does not verify")
    return best


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


def inscribed_hexagon(c: ConvexPolygon, direction: Point) -> ConvexPolygon:
    """Affinely regular hexagon inscribed in a centered symmetric polygon.

    p2 and p5 are the boundary points on the line through the origin with
    the given direction; p1p6 is the parallel chord of exactly half that
    length, found by an exact piecewise-linear solve; p3 = -p6, p4 = -p1.
    """
    u = direction
    n = u.perp()
    xs = _basis_coords(c.vertices, u, n)
    full = _section_width(xs, Fraction(0))
    half = full / 2
    # beta breakpoints above the axis
    betas = sorted({p.y for p in xs if p.y > 0})
    prev_b, prev_w = Fraction(0), full
    beta_star = None
    for b in betas:
        w = _section_width(xs, b)
        if w <= half:
            # linear interpolation within this piece is exact
            beta_star = prev_b + (prev_w - half) * (b - prev_b) / (prev_w - w)
            break
        prev_b, prev_w = b, w
    a2 = full / 2
    if beta_star is None:
        # an edge parallel to the axis tops the body: the width jumps past
        # half there, so center a half-length chord on that edge
        beta_star = betas[-1]
    lo, hi = _section_at_beta(xs, beta_star)
    if hi - lo < a2:
        raise SearchFailed("chord solve inexact")  # guards the linear solve
    if hi - lo > a2:
        mid = (lo + hi) / 2
        lo, hi = mid - a2 / 2, mid + a2 / 2
    # section at beta=0 is [-a2, a2] by central symmetry
    p2 = u * a2
    p1 = u * hi + n * beta_star
    p6 = u * lo + n * beta_star
    p3, p4, p5 = -p6, -p1, -p2
    hexagon = ConvexPolygon([p1, p2, p3, p4, p5, p6])
    if len(hexagon) != 6:
        raise SearchFailed("degenerate inscribed hexagon")
    return hexagon


def _section_width(xs, b) -> Fraction:
    got = _section_at_beta(xs, b)
    return got[1] - got[0]


def _section_at_beta(xs, b):
    swapped = [Point(p.y, p.x) for p in xs]
    got = _section(swapped, b)
    if got is None:
        raise SearchFailed("section outside polygon")
    return got


def support_hexagon(c: ConvexPolygon, h_in: ConvexPolygon) -> ConvexPolygon:
    """Minimal circumscribed region with sides parallel to the hexagon's sides.

    The intersection of the three support slabs of c with the inscribed
    hexagon's edge normals: a centrally symmetric hexagon (possibly with
    fewer effective sides) containing c.
    """
    normals = []
    verts = h_in.vertices
    for i in range(3):
        e = verts[(i + 1) % 6] - verts[i]
        normals.append(e.perp())
    slabs = [(nv, c.support(nv)) for nv in normals]
    # start from slab 1 x slab 2, then clip with slab 3
    (n1, h1), (n2, h2), (n3, h3) = slabs
    det = n1.cross(n2)
    corners = []
    for s1 in (h1, -h1):
        for s2 in (h2, -h2):
            # solve n1.p = s1, n2.p = s2
            x = (s1 * n2.y - s2 * n1.y) / det
            y = (s2 * n1.x - s1 * n2.x) / det
            corners.append(Point(x, y))
    chain = [corners[0], corners[1], corners[3], corners[2]]
    chain = clip_chain(chain, n3, h3)
    chain = clip_chain(chain, -n3, h3)
    return ConvexPolygon(chain)


def _uniform_directions(k: int):
    # rational points on the circle via the tangent half-angle map
    out = []
    for i in range(k):
        t = Fraction(2 * i - k, 2 * k)  # t in [-1/2, 1/2) covers half the circle
        out.append(Point(1 - t * t, 2 * t))
    return out


def hexagon_sandwich(c: ConvexPolygon, extra_directions: int = _UNIFORM_DIRS) -> HexagonSandwich:
    """Best inscribed/circumscribed hexagon sandwich over the direction sweep."""
    center = require_centrally_symmetric(c)
    centered = c.translate(-center)
    dirs = [p for p in centered.vertices]
    for a, b in centered.edges():
        dirs.append((b - a).perp())
    dirs += _uniform_directions(extra_directions)
    dirs = _dedup_directions(dirs)
    best = None
    for d in dirs:
        try:
            h_in = inscribed_hexagon(centered, d)
            h_out = support_hexagon(centered, h_in)
        except (SearchFailed, NotHexagon):
            continue
        ratio = h_in.area() / h_out.area()
        if best is None or ratio > best.area_ratio:
            best = HexagonSandwich(h_in.translate(center), h_out.translate(center), center)
    if best is None:
        raise SearchFailed("no inscribed hexagon found")
    return best


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
            coords = _basis_coords(v, d1, d2)
            amin = min(q.x for q in coords)
            amax = max(q.x for q in coords)
            bmin = min(q.y for q in coords)
            bmax = max(q.y for q in coords)
            lam = (amax - amin, bmax - bmin)
            pgram = Parallelogram(center, d1, d2)
            q = Parallelogram(
                center + d1 * ((amin + amax) / 2) + d2 * ((bmin + bmax) / 2),
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
