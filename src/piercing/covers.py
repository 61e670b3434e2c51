"""Verified covering patterns for cluster piercing.

A pattern certifies region <= union of (cover_body + offset_j) exactly:
polygon regions by clipping until the residue is empty, disk regions by the
circle-arrangement criterion, boxes by cell decomposition.  The offsets
double as pierce-point offsets relative to a cluster seed's reference point,
because a translate with reference a contains the point q iff a lies in
-(C - ref) + q.  They are built and verified as geom Points (box tuples),
and a verified pattern holds them as radicals.RadPoints.

A greedy pattern depends on the base body alone, so the two dispatchers,
translate_cluster_cover and homothet_cover, keep one pattern per base and
kind on the pattern cache (_cached); the constructors behind them keep
nothing.
"""

from fractions import Fraction
from functools import cache
import itertools
import math

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


class CoverPattern:
    """An exactly verified claim: region <= union of cover_body translates,
    whose offsets are RadPoints."""

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
    """The cache's entry for key, built by build() on a miss; a build that
    raises stores nothing."""
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


def _sandwich_pair(base):
    """sandwich_parallelograms of a polygon base, built once per polygon."""
    return _cached(("sandwich", base.frame.key), lambda: sandwich_parallelograms(base.polygon))


# ---------------------------------------------------------------------------
# polygon patterns


def _polygon_pattern(region_kind, region, cover: ConvexPolygon, offsets) -> CoverPattern:
    """The pattern of the cover translates at offsets, once they leave no
    residue of the region chain (region_minus_polygons)."""
    if region_minus_polygons(region, [cover], offsets):
        raise VerificationFailed("cover residue is nonempty")
    return CoverPattern(region_kind, "polygon", [RadPoint.of_fractions(1, o) for o in offsets],
                        data={"body": cover, "region": region})


def seven_cover(s: ConvexPolygon) -> CoverPattern:
    """Cover 2S by at most seven translates of the centrally symmetric S.

    One translate sits at the center, six at the vertices of an affinely
    regular hexagon (the side midpoints of a hexagon inscribed in 2S).
    Parallelograms take the 4-translate fast path.
    """
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


def halfplane_four_cover(s: ConvexPolygon) -> CoverPattern:
    """Cover (2S) cut to the lower halfplane {y <= 0} by at most four translates.

    The hexagon chord is horizontal, leaving the center translate plus the
    three side midpoints below it.  Parallelograms with a horizontal edge
    pair need two.
    """
    center = s.is_centrally_symmetric()
    if center is None:
        raise NotCentrallySymmetric("halfplane cover needs a centrally symmetric body")
    s0 = s.translate(-center)
    region2 = s0.scale(2)
    region_chain = clip_chain(list(region2.vertices), Point(0, 1), Fraction(0))
    if s0.is_parallelogram():
        kept = [o for o in s0.vertices if o.y < 0]
        if len(kept) == 2:
            try:
                return _polygon_pattern("diff_half", region_chain, s0, kept)
            except VerificationFailed:
                pass
    hexagon = inscribed_hexagon(region2, Point(-1, 0))
    hv = hexagon.vertices
    mids = [(hv[i] + hv[(i + 1) % 6]) / 2 for i in range(6)]
    offsets = [Point(0, 0)] + [m for m in mids if m.y < 0]
    if len(offsets) != 4:
        raise VerificationFailed("expected three kept side midpoints")
    return _polygon_pattern("diff_half", region_chain, s0, offsets)


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


def _triangle_cover(body, canonical, half: bool) -> CoverPattern:
    """Translates of -(T - v0) covering T - T, or with half its part on the
    lower side of the line through 0 along e1, verified exactly.

    v0 is the triangle's lowest-then-leftmost vertex (bodies.Frame.low) and
    e1, e2 its edges from v0: the affine map sending (0,0), (1,0), (0,1) to
    v0, v0 + e1, v0 + e2 takes the canonical offsets to q -> q.x e1 + q.y e2.
    """
    t = body.polygon
    v, i = t.vertices, body.frame.low
    v0 = v[i]
    e1, e2 = v[(i + 1) % 3] - v0, v[(i + 2) % 3] - v0
    region = list(minkowski_sum(t, reflect(t)).vertices)
    if half:
        # y <= 0 in the canonical frame is cross(e1, p) <= 0
        region = clip_chain(region, Point(-e1.y, e1.x), Fraction(0))
    offsets = [e1 * q.x + e2 * q.y for q in canonical]
    return _polygon_pattern("diff_half" if half else "diff", region,
                            reflect(t.translate(-v0)), offsets)


def triangle_trapezoid_cover(body) -> CoverPattern:
    """Cover the lower half of T-T by at most five translates of -T, for a
    triangle body: the canonical triangle's _TRAPEZOID_OFFSETS mapped to T
    (_triangle_cover), as vectors in the original coordinates."""
    return _triangle_cover(body, _TRAPEZOID_OFFSETS, half=True)


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


@cache
def _check_once(check, r):
    """check(r), run once per radius and process, whichever pattern entry asks
    for it (the dispatchers, a pattern file's verify); a check that fails
    raises and is not kept."""
    check(r)


def _verify_disk_seven(r):
    # substitute x = sqrt(3) X: weights (3, 1), all centers rational.  The
    # arrangement is the radius-1 one scaled by r, so its vertices are
    # rational Points, the only kind CoverageCheck decides
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
    r = frac(r)
    _check_once(_verify_disk_seven, r)
    return CoverPattern("diff", "disk", disk_seven_offsets(r), data={"radius": r})


def disk_half_cover(r) -> CoverPattern:
    """Four disks covering the lower half of the doubled disk; the seed rule
    is 'topmost', so the halfplane direction is fixed downward."""
    r = frac(r)
    _check_once(_verify_disk_half, r)
    return CoverPattern("diff_half", "disk", disk_half_offsets(r), data={"radius": r})


# ---------------------------------------------------------------------------
# box patterns


def box_cover(sides, half: bool) -> CoverPattern:
    """Cover [-s, s]^d (last axis cut to [-s_d, 0] when half) by unit boxes.

    Offsets are the centers of the 2^d (or 2^{d-1}) quadrant boxes; the
    cover is exact by construction and checked by cell decomposition.
    """
    sides = tuple(frac(s) for s in sides)
    last = [(-sides[-1] / 2,)] if half else [(-sides[-1] / 2,), (sides[-1] / 2,)]
    rest = itertools.product(*[(-s / 2, s / 2) for s in sides[:-1]])
    offsets = [tuple(r) + l for r in rest for l in last]
    _verify_box_pattern(sides, offsets, half)
    return CoverPattern("diff_half" if half else "diff", "box",
                        [RadPoint.of_fractions(1, o) for o in offsets], data={"sides": sides})


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
# dispatch by base body: one pattern per base and kind, kept on the pattern
# cache under the base's frame key (bodies.Frame.key)


def homothet_cover(body) -> CoverPattern:
    """Pattern covering C-C by translates of -(C - ref); drives Theorem-4 greedy.

    Sizes: parallelogram 4, triangle <= 12, disk 7, centrally symmetric <= 7,
    general polygon <= 16 via the sandwich grid.
    """
    def build():
        if isinstance(body, BoxBody):
            return box_cover(body.sides, half=False)
        if isinstance(body, DiskBody):
            return disk_seven_cover(body.radius)
        if body.frame.centre is not None:
            return _capped(seven_cover(body.polygon), 7)
        if len(body.polygon.vertices) == 3:
            return _capped(_triangle_cover(body, _TRIANGLE_DIFF_OFFSETS, half=False), 12)
        return _capped(_general_polygon_cover(body), 16)

    return _cached(("homothet", body.frame.key), build)


def _general_polygon_cover(body) -> CoverPattern:
    """C-C fits in 2Q, which a grid of at most 16 P-translates covers."""
    pair = _sandwich_pair(body)
    ref = body.frame.anchor
    cover = reflect(body.polygon.translate(-ref))
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
    diff = minkowski_sum(body.polygon, reflect(body.polygon))
    return _polygon_pattern("diff", list(diff.vertices), cover, offsets)


def translate_cluster_cover(body) -> CoverPattern:
    """Pattern for the topmost-seed greedy on translate families.

    Sizes: parallelogram 2, triangle 5, disk 4, centrally symmetric 4,
    box 2^(d-1).
    """
    def build():
        if isinstance(body, BoxBody):
            return box_cover(body.sides, half=True)
        if isinstance(body, DiskBody):
            return disk_half_cover(body.radius)
        if body.frame.centre is not None:
            return _capped(halfplane_four_cover(body.polygon), 4)
        if len(body.polygon.vertices) == 3:
            return _capped(triangle_trapezoid_cover(body), 5)
        raise VerificationFailed("no halfplane pattern for this base")

    return _cached(("translate", body.frame.key), build)
