"""Constructors for the extremal paper instances and random experiment families."""

from fractions import Fraction
import random

from .bodies import DiskBody, Family, Member, PolygonBody, pair_checker
from .errors import ConstructionFailed, EpsilonTooLarge, TooLarge
from .geom import ConvexPolygon, Point, frac, minkowski_sum, reflect

GRID_CAP = 4096


def unit_square() -> PolygonBody:
    return PolygonBody(ConvexPolygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)]))


def unit_triangle() -> PolygonBody:
    return PolygonBody(ConvexPolygon([Point(0, 0), Point(1, 0), Point(0, 1)]))


def unit_disk() -> DiskBody:
    return DiskBody(Point(0, 0), 1)


def hexagon_body() -> PolygonBody:
    """A centrally symmetric hexagon with rational vertices."""
    return PolygonBody(
        ConvexPolygon(
            [Point(2, 0), Point(1, 2), Point(-1, 2), Point(-2, 0), Point(-1, -2), Point(1, -2)]
        )
    )


def five_square_cycle() -> Family:
    """Five axis-parallel unit squares whose intersection graph is a 5-cycle."""
    ts = [
        Point(0, 0),
        Point(1, Fraction(1, 2)),
        Point(Fraction(1, 2), Fraction(3, 2)),
        Point(Fraction(-1, 2), 2),
        Point(-1, 1),
    ]
    return Family(unit_square(), [Member(t) for t in ts])


def nine_triangles(epsilon=Fraction(1, 100)) -> Family:
    """Nine translates of a triangle with nu = 1 and tau = 3.

    Three pairwise-tangent translates A, B, C plus six copies, each shifted
    by epsilon along the vector between two of the anchors.  The family must
    be pairwise-intersecting; too large an epsilon breaks that.
    """
    eps = frac(epsilon)
    if not 0 < eps < Fraction(1, 10):
        raise EpsilonTooLarge("epsilon must be in (0, 1/10)")
    a = Point(0, 0)
    b = Point(1, 0)
    c = Point(0, 1)
    ts = [a, b, c]
    for src, dst in ((a, b), (a, c), (b, a), (b, c), (c, a), (c, b)):
        ts.append(src + (dst - src) * eps)
    fam = Family(unit_triangle(), [Member(t) for t in ts])
    check = pair_checker(fam)
    for i in range(9):
        for j in range(i + 1, 9):
            if not check(i, j):
                raise EpsilonTooLarge("family is not pairwise-intersecting")
    return fam


def grid_family(n: int, base, cap: int = GRID_CAP) -> Family:
    """n**4 translates on the planar grid {(t1/n, t2/n) : 1 <= t_i <= n**2}."""
    if n < 1:
        raise TooLarge("n must be >= 1")
    count = n ** 4
    if count > cap:
        raise TooLarge("grid family of %d members exceeds the cap %d" % (count, cap))
    members = []
    for t1 in range(1, n * n + 1):
        for t2 in range(1, n * n + 1):
            members.append(Member(Point(Fraction(t1, n), Fraction(t2, n))))
    return Family(base, members)


def _rand_frac(rng, lo, hi, denom=32):
    lo, hi = frac(lo), frac(hi)
    steps = int((hi - lo) * denom)
    return lo + Fraction(rng.randrange(steps + 1), denom)


def random_family(base, n, box_size=10, kind="translates", scale_range=(1, 3), seed=0) -> Family:
    """Reproducible random family: rational translations in a square box."""
    rng = random.Random(seed)
    members = []
    for _ in range(n):
        if base.kind == "box":
            t = tuple(_rand_frac(rng, 0, box_size) for _ in range(base.dim))
        else:
            t = Point(_rand_frac(rng, 0, box_size), _rand_frac(rng, 0, box_size))
        s = 1 if kind == "translates" else _rand_frac(rng, scale_range[0], scale_range[1], 8)
        members.append(Member(t, s))
    return Family(base, members, kind)


def pairwise_intersecting_family(base, n, seed=0, attempts=1000) -> Family:
    """n translates with all pairs intersecting.

    Reference points are sampled from (C-C)/2, so any two translations
    differ by a vector of C-C and the translates meet; the property is
    re-verified exactly.
    """
    rng = random.Random(seed)
    members = []
    if base.kind == "polygon":
        diff = minkowski_sum(base.polygon, reflect(base.polygon))
        half = diff.scale(Fraction(1, 2))
        bx, by = half.bounding_box()
        for _ in range(n):
            for _ in range(attempts):
                p = Point(_rand_frac(rng, bx.lo, bx.hi), _rand_frac(rng, by.lo, by.hi))
                if half.contains(p):
                    members.append(Member(p))
                    break
            else:
                raise ConstructionFailed("rejection sampling failed")
    elif base.kind == "disk":
        r = base.radius
        for _ in range(n):
            for _ in range(attempts):
                p = Point(_rand_frac(rng, -r, r), _rand_frac(rng, -r, r))
                if p.norm2() <= r * r:
                    members.append(Member(p))
                    break
            else:
                raise ConstructionFailed("rejection sampling failed")
    elif base.kind == "box":
        for _ in range(n):
            t = tuple(_rand_frac(rng, -s / 2, s / 2) for s in base.sides)
            members.append(Member(t))
    else:
        raise ConstructionFailed("unsupported base kind")
    fam = Family(base, members)
    check = pair_checker(fam)
    for i in range(n):
        for j in range(i + 1, n):
            if not check(i, j):
                raise ConstructionFailed("family is not pairwise-intersecting")
    return fam


def random_centrally_symmetric_polygon(rng_or_seed, half_vertices=4, spread=10) -> PolygonBody:
    """A random centrally symmetric polygon with 2*half_vertices vertices.

    Vertices sit on a common circle through the rational parametrization
    ((1-t^2, 2t)/(1+t^2)), so they are always in strictly convex position
    and the mirrored set closes up exactly.
    """
    rng = rng_or_seed if isinstance(rng_or_seed, random.Random) else random.Random(rng_or_seed)
    from .geom import convex_hull

    denom = 64
    while True:
        ts = sorted({Fraction(rng.randrange(-denom + 1, denom), denom)
                     for _ in range(half_vertices)})
        if len(ts) < half_vertices:
            continue
        pts = []
        for t in ts:
            w = 1 + t * t
            pts.append(Point(spread * (1 - t * t) / w, spread * 2 * t / w))
        pts = pts + [-p for p in pts]
        hull = convex_hull(pts)
        if len(hull) == 2 * half_vertices and hull.is_centrally_symmetric() is not None:
            return PolygonBody(hull)


def random_convex_polygon(rng_or_seed, max_vertices=12, spread=10) -> PolygonBody:
    rng = rng_or_seed if isinstance(rng_or_seed, random.Random) else random.Random(rng_or_seed)
    from .geom import convex_hull
    from .errors import DegenerateInput

    while True:
        k = rng.randrange(3, max_vertices + 1)
        pts = [
            Point(_rand_frac(rng, -spread, spread), _rand_frac(rng, -spread, spread))
            for _ in range(k)
        ]
        try:
            return PolygonBody(convex_hull(pts))
        except DegenerateInput:
            continue


def random_cs_hexagon(rng_or_seed, spread=10) -> PolygonBody:
    return random_centrally_symmetric_polygon(rng_or_seed, half_vertices=3, spread=spread)
