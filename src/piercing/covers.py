"""Verified covering patterns for cluster piercing.

A pattern certifies region <= union of (cover_body + offset_j) exactly:
polygon regions by clipping until the residue is empty, disk regions by the
circle-arrangement criterion, boxes by cell decomposition.  The offsets
double as pierce-point offsets relative to a cluster seed's reference point,
because a translate with reference a contains the point q iff a lies in
-(C - ref) + q.
"""

from fractions import Fraction
import itertools

from .bodies import BoxBody, DiskBody
from .circles import Conic, CoverageCheck
from .errors import ConstructionFailed, NotCentrallySymmetric, VerificationFailed
from .geom import (
    ConvexPolygon,
    Point,
    clip_chain,
    frac,
    minkowski_sum,
    reflect,
    region_minus_polygons,
)
from .radicals import RadPoint
from .sandwich import inscribed_hexagon, sandwich_parallelograms

DOWN = Point(0, -1)


class CoverPattern:
    """An exactly verified claim: region <= union of cover_body translates."""

    def __init__(self, region_kind, base_kind, offsets, data=None):
        self.region_kind = region_kind  # "diff" or "diff_half"
        self.base_kind = base_kind
        self.offsets = list(offsets)
        self.data = data or {}

    @property
    def size(self):
        return len(self.offsets)

    def __repr__(self):
        return "CoverPattern(%s/%s, %d offsets)" % (
            self.base_kind,
            self.region_kind,
            self.size,
        )


_pattern_cache = {}


def _cached(key, build):
    got = _pattern_cache.get(key)
    if got is None:
        got = build()
        _pattern_cache[key] = got
    return got


def _capped(pat: CoverPattern, size: int) -> CoverPattern:
    """pat, checked to have at most the size its construction promises."""
    if pat.size > size:
        raise ConstructionFailed("pattern has %d offsets, more than %d" % (pat.size, size))
    return pat


def _poly_key(poly: ConvexPolygon):
    return tuple((p.x, p.y) for p in poly.vertices)


def _sandwich_pair(poly: ConvexPolygon):
    """sandwich_parallelograms(poly), built once per polygon."""
    return _cached(("sandwich", _poly_key(poly)), lambda: sandwich_parallelograms(poly))


# ---------------------------------------------------------------------------
# polygon patterns


def _polygon_pattern(region_kind, region, cover: ConvexPolygon, offsets) -> CoverPattern:
    """The pattern of the cover translates at offsets, once they leave no
    residue of the region chain (region_minus_polygons)."""
    if region_minus_polygons(region, [cover], offsets):
        raise VerificationFailed("cover residue is nonempty")
    return CoverPattern(region_kind, "polygon", offsets, data={"body": cover, "region": region})


def seven_cover(s: ConvexPolygon) -> CoverPattern:
    """Cover 2S by at most seven translates of the centrally symmetric S.

    One translate sits at the center, six at the vertices of an affinely
    regular hexagon (the side midpoints of a hexagon inscribed in 2S).
    Parallelograms take the 4-translate fast path.
    """

    def build():
        center = s.is_centrally_symmetric()
        if center is None:
            raise NotCentrallySymmetric("seven_cover needs a centrally symmetric body")
        s0 = s.translate(-center)
        region = s0.scale(2)
        if s0.is_parallelogram():
            # the four quadrant translates are centered on the vertices
            return _polygon_pattern("diff", list(region.vertices), s0, list(s0.vertices))
        hexagon = inscribed_hexagon(region, s0.vertices[0])
        hv = hexagon.vertices
        offsets = [Point(0, 0)] + [(hv[i] + hv[(i + 1) % 6]) / 2 for i in range(6)]
        return _polygon_pattern("diff", list(region.vertices), s0, offsets)

    return _cached(("seven", _poly_key(s)), build)


def halfplane_four_cover(s: ConvexPolygon, direction: Point = DOWN) -> CoverPattern:
    """Cover (2S) cut to the halfplane {d.x >= 0} by at most four translates.

    The hexagon chord is aligned with the halfplane boundary, leaving the
    center translate plus the three side midpoints on the kept side.
    Parallelograms with an edge pair parallel to the boundary need two.
    """

    def build():
        center = s.is_centrally_symmetric()
        if center is None:
            raise NotCentrallySymmetric("halfplane cover needs a centrally symmetric body")
        d = direction
        s0 = s.translate(-center)
        region2 = s0.scale(2)
        region_chain = clip_chain(list(region2.vertices), -d, Fraction(0))
        if s0.is_parallelogram():
            kept = [o for o in s0.vertices if o.dot(d) > 0]
            if len(kept) == 2:
                try:
                    return _polygon_pattern("diff_half", region_chain, s0, kept)
                except VerificationFailed:
                    pass
        hexagon = inscribed_hexagon(region2, -d.perp())
        hv = hexagon.vertices
        mids = [(hv[i] + hv[(i + 1) % 6]) / 2 for i in range(6)]
        offsets = [Point(0, 0)] + [m for m in mids if m.dot(d) > 0]
        if len(offsets) != 4:
            raise VerificationFailed("expected three kept side midpoints")
        return _polygon_pattern("diff_half", region_chain, s0, offsets)

    return _cached(("half", _poly_key(s), (direction.x, direction.y)), build)


# Offsets on the canonical triangle (0,0), (1,0), (0,1), as vectors for the
# cover body -T0: five cover the lower half of T0 - T0, twelve all of it.
# Each mapped pattern is verified exactly when it is built.
_TRAPEZOID_OFFSETS = [
    Point(0, 0),
    Point(1, 0),
    Point(Fraction(1, 2), Fraction(-1, 2)),
    Point(Fraction(1, 2), 0),
    Point(1, Fraction(-1, 2)),
]

_TRIANGLE_DIFF_OFFSETS = [
    Point(0, 0),
    Point(1, 0),
    Point(0, 1),
    Point(Fraction(1, 2), Fraction(-1, 2)),
    Point(Fraction(1, 2), Fraction(1, 2)),
    Point(Fraction(-1, 2), 1),
    Point(Fraction(1, 2), 0),
    Point(1, Fraction(-1, 2)),
    Point(1, Fraction(1, 2)),
    Point(Fraction(1, 2), 1),
    Point(Fraction(-1, 2), Fraction(1, 2)),
    Point(0, Fraction(1, 2)),
]


def _triangle_normalizer(t: ConvexPolygon):
    """Affine map data sending the triangle to (0,0),(1,0),(0,1).

    The reference (lowest-then-leftmost) vertex goes to the origin.
    """
    v = t.vertices
    if len(v) != 3:
        raise VerificationFailed("not a triangle")
    i0 = min(range(3), key=lambda i: (v[i].y, v[i].x))
    v0, v1, v2 = v[i0], v[(i0 + 1) % 3], v[(i0 + 2) % 3]
    return v0, v1 - v0, v2 - v0  # origin, image of (1,0), image of (0,1)


def triangle_trapezoid_cover(t: ConvexPolygon) -> CoverPattern:
    """Cover the lower half of T-T by at most five translates of -T.

    The canonical triangle's offsets (_TRAPEZOID_OFFSETS) are mapped back
    through the normalizing map and verified exactly; the returned offsets
    are vectors in the original coordinates.
    """

    def build():
        v0, e1, e2 = _triangle_normalizer(t)
        # map offsets back: q_orig = L(q) with L the inverse normalizer
        offsets = [e1 * q.x + e2 * q.y for q in _TRAPEZOID_OFFSETS]
        cover = reflect(t.translate(-v0))
        diff = minkowski_sum(t, reflect(t))
        # the kept side in original coordinates: L^{-T} maps the normal
        region_chain = _clip_lower_imageside(diff, e1, e2)
        return _polygon_pattern("diff_half", region_chain, cover, offsets)

    return _cached(("trap", _poly_key(t)), build)


def _clip_lower_imageside(diff: ConvexPolygon, e1: Point, e2: Point):
    # halfplane y <= 0 in normalized coords means cross(e1, p) <= 0 in
    # original coords (p = a e1 + b e2, b = cross(e1, p)/det, det > 0)
    n = Point(-e1.y, e1.x)  # cross(e1, p) = n.p
    return clip_chain(list(diff.vertices), n, Fraction(0))


# ---------------------------------------------------------------------------
# disk patterns


def disk_seven_offsets(r):
    """{0} plus sqrt(3)*r times the sixth roots of unity."""
    r = frac(r)
    n, q = r.numerator, 2 * r.denominator
    # the root at k * 60 degrees is (b sqrt(3), a) n / q
    return [RadPoint(1, 1, (0, 0))] + [
        RadPoint(q, 3, (0, a * n), (b * n, 0))
        for b, a in ((2, 0), (1, 3), (-1, 3), (-2, 0), (-1, -3), (1, -3))]


def disk_half_offsets(r):
    """{0, (0, -sqrt3 r), (+-3r/2, -sqrt3 r/2)}: the lower half of the 7-cover."""
    r = frac(r)
    n, q = r.numerator, 2 * r.denominator
    return [RadPoint(1, 1, (0, 0))] + [
        RadPoint(q, 3, (a * n, 0), (0, b * n)) for a, b in ((0, -2), (3, -1), (-3, -1))]


def _verify_disk_seven(r):
    # substitute x = sqrt(3) X: weights (3, 1), all centers rational.  The
    # arrangement is the radius-1 one scaled by r, so its vertices are
    # rational Points, the only kind CoverageCheck decides
    r = frac(r)
    region = Conic(3, 1, Point(0, 0), 4 * r * r)
    covers = [Conic(3, 1, Point(0, 0), r * r)]
    for cx, cy in [(r, 0), (r / 2, 3 * r / 2), (-r / 2, 3 * r / 2), (-r, 0),
                   (-r / 2, -3 * r / 2), (r / 2, -3 * r / 2)]:
        covers.append(Conic(3, 1, Point(cx, cy), r * r))
    if not CoverageCheck(region, covers).verify():
        raise VerificationFailed("seven-disk cover did not verify")


def _verify_disk_half(r):
    # substitute y = sqrt(3) Y: weights (1, 3); the line y = 0 meets every
    # circle at rational points too, like the pairs of circles
    r = frac(r)
    region = Conic(1, 3, Point(0, 0), 4 * r * r)
    covers = [
        Conic(1, 3, Point(0, 0), r * r),
        Conic(1, 3, Point(0, -r), r * r),
        Conic(1, 3, Point(3 * r / 2, -r / 2), r * r),
        Conic(1, 3, Point(-3 * r / 2, -r / 2), r * r),
    ]
    if not CoverageCheck(region, covers, halfplane=(Point(0, 1), 0)).verify():
        raise VerificationFailed("half-disk cover did not verify")


def disk_seven_cover(r) -> CoverPattern:
    def build():
        _verify_disk_seven(r)
        return CoverPattern("diff", "disk", disk_seven_offsets(r), data={"radius": frac(r)})

    return _cached(("disk7", frac(r)), build)


def disk_half_cover(r) -> CoverPattern:
    """Four disks covering the lower half of the doubled disk; the seed rule
    is 'topmost', so the halfplane direction is fixed downward."""

    def build():
        _verify_disk_half(r)
        return CoverPattern("diff_half", "disk", disk_half_offsets(r), data={"radius": frac(r)})

    return _cached(("diskhalf", frac(r)), build)


# ---------------------------------------------------------------------------
# box patterns


def box_cover(sides, half: bool) -> CoverPattern:
    """Cover [-s, s]^d (last axis cut to [-s_d, 0] when half) by unit boxes.

    Offsets are the centers of the 2^d (or 2^{d-1}) quadrant boxes; the
    cover is exact by construction and checked by cell decomposition.
    """
    sides = tuple(frac(s) for s in sides)
    d = len(sides)

    def build():
        last = [(-sides[-1] / 2,)] if half else [(-sides[-1] / 2,), (sides[-1] / 2,)]
        rest = itertools.product(*[(-s / 2, s / 2) for s in sides[:-1]])
        offsets = [tuple(r) + l for r in rest for l in last]
        _verify_box_pattern(sides, offsets, half)
        return CoverPattern("diff_half" if half else "diff", "box", offsets,
                            data={"sides": sides})

    return _cached(("box", sides, half), build)


def _verify_box_pattern(sides, offsets, half):
    d = len(sides)
    region = [(-s, s) for s in sides]
    if half:
        region[-1] = (-sides[-1], Fraction(0))
    cuts = []
    for k in range(d):
        vals = {region[k][0], region[k][1]}
        for o in offsets:
            vals.add(o[k] - sides[k] / 2)
            vals.add(o[k] + sides[k] / 2)
        cuts.append(sorted(v for v in vals if region[k][0] <= v <= region[k][1]))
    for cell in itertools.product(*[zip(c, c[1:]) for c in cuts]):
        mid = [(a + b) / 2 for a, b in cell]
        ok = any(
            all(abs(m - o[k]) <= sides[k] / 2 for k, m in enumerate(mid))
            for o in offsets
        )
        if not ok:
            raise VerificationFailed("box cover misses a cell")


# ---------------------------------------------------------------------------
# dispatch by base body


def homothet_cover(body) -> CoverPattern:
    """Pattern covering C-C by translates of -(C - ref); drives Theorem-4 greedy.

    Sizes: parallelogram 4, triangle <= 12, disk 7, centrally symmetric <= 7,
    general polygon <= 16 via the sandwich grid.
    """
    if isinstance(body, BoxBody):
        return box_cover(body.sides, half=False)
    if isinstance(body, DiskBody):
        return disk_seven_cover(body.radius)
    poly = body.polygon
    if poly.is_centrally_symmetric() is not None:
        return _capped(seven_cover(poly), 7)
    if len(poly.vertices) == 3:
        def build():
            v0, e1, e2 = _triangle_normalizer(poly)
            offsets = [e1 * q.x + e2 * q.y for q in _TRIANGLE_DIFF_OFFSETS]
            cover = reflect(poly.translate(-v0))
            diff = minkowski_sum(poly, reflect(poly))
            return _polygon_pattern("diff", list(diff.vertices), cover, offsets)

        return _capped(_cached(("diff12", _poly_key(poly)), build), 12)
    return _general_polygon_cover(poly)


def _general_polygon_cover(poly: ConvexPolygon) -> CoverPattern:
    """C-C fits in 2Q, which a grid of at most 16 P-translates covers."""

    def build():
        import math

        pair = _sandwich_pair(poly)
        ref = poly.anchor()
        cover = reflect(poly.translate(-ref))
        # unit-step grid of P-translates covering 2*(Q - q_center) in P's basis
        u, v = pair.p.u, pair.p.v
        l1, l2 = pair.lambdas
        n1, n2 = math.ceil(2 * l1), math.ceil(2 * l2)

        def centers(lam, n):
            # n unit cells cover [-lam, lam]; clamp the last one to the edge
            return [min(-lam + Fraction(1, 2) + i, lam - Fraction(1, 2)) for i in range(n)]

        cells = [u * a + v * b for a in centers(l1, n1) for b in centers(l2, n2)]
        # -(P - ref) is P's shape centered at ref - p_center
        pc = pair.p.center
        offsets = [g + pc - ref for g in cells]
        diff = minkowski_sum(poly, reflect(poly))
        return _polygon_pattern("diff", list(diff.vertices), cover, offsets)

    return _capped(_cached(("gen16", _poly_key(poly)), build), 16)


def translate_cluster_cover(body) -> CoverPattern:
    """Pattern for the topmost-seed greedy on translate families.

    Sizes: parallelogram 2, triangle 5, disk 4, centrally symmetric 4,
    box 2^(d-1).
    """
    if isinstance(body, BoxBody):
        return box_cover(body.sides, half=True)
    if isinstance(body, DiskBody):
        return disk_half_cover(body.radius)
    poly = body.polygon
    if poly.is_centrally_symmetric() is not None:
        return _capped(halfplane_four_cover(poly, DOWN), 4)
    if len(poly.vertices) == 3:
        return _capped(triangle_trapezoid_cover(poly), 5)
    raise VerificationFailed("no halfplane pattern for this base")

