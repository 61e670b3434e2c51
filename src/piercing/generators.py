"""Constructors for the extremal paper instances and random experiment families."""

from fractions import Fraction
from math import gcd, lcm
import random

from .bodies import (MAX_SCALE_BITS, DiskBody, Family, Member, PolygonBody, collector_paused,
                     common_slab_bounds, pair_checker)
from .errors import ConstructionFailed, DegenerateInput, EpsilonTooLarge, TooLarge
from .geom import ConvexPolygon, Point, convex_hull, frac, minkowski_sum, reflect

GRID_CAP = 4096
_BLOCK = 4096  # members random_family draws at a time
_ATTEMPTS = 1000  # rejection draws per member of pairwise_intersecting_family


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


def grid_family(n: int, base) -> Family:
    """n**4 translates on the planar grid {(t1/n, t2/n) : 1 <= t_i <= n**2}."""
    if n < 1:
        raise TooLarge("n must be >= 1")
    count = n ** 4
    if count > GRID_CAP:
        raise TooLarge("grid family of %d members exceeds the cap %d" % (count, GRID_CAP))
    members = []
    for t1 in range(1, n * n + 1):
        for t2 in range(1, n * n + 1):
            members.append(Member(Point(Fraction(t1, n), Fraction(t2, n))))
    return Family(base, members)


def _rand_frac(rng, lo, hi, denom=32):
    lo, hi = frac(lo), frac(hi)
    steps = int((hi - lo) * denom)
    return lo + Fraction(rng.randrange(steps + 1), denom)


def _rand_frac_form(lo, hi, denom):
    """(span, a, b, q): _rand_frac(rng, lo, hi, denom) is
    Fraction(a + k b, q) for k = rng.randrange(span)."""
    lo, hi = frac(lo), frac(hi)
    return int((hi - lo) * denom) + 1, lo.numerator * denom, lo.denominator, lo.denominator * denom


def _draw_columns(rng, spans, n):
    """n members' draws rng.randrange(span), span by span, as one column
    per span holding one int object per distinct draw.  The members are
    drawn _BLOCK at a time, so no list of every draw is built."""
    randrange, table, cols = rng.randrange, {}, [[] for _ in spans]
    for start in range(0, n, _BLOCK):
        drawn = [randrange(span) for _ in range(min(_BLOCK, n - start)) for span in spans]
        drawn = list(map(table.setdefault, drawn, drawn))
        for k, col in enumerate(cols):
            col += drawn[k::len(spans)]
    return cols


@collector_paused()
def random_family(base, n, box_size=10, kind="translates", scale_range=(1, 3), seed=0) -> Family:
    """Reproducible random family: rational translations in a square box.

    Each coordinate, then the scale of a homothet, is one _rand_frac draw
    (denominators 32 and 8), member by member, into one column per axis
    and one for the scales (_draw_columns).  Draw j of a form
    (_rand_frac_form) is (a + j b) / q, so the lcm D of the reduced
    denominators drawn is the lcm over the forms of q / gcd(q, a + j b over
    the drawn j), and a draw's scaled value is (a + j b) D / q.  Over
    MAX_SCALE_BITS, D is 1 and the values are the Fractions themselves, as
    scale_table gives them.  The family is built from these columns
    (Family.from_scaled); its lists of ints form no cycle, so the cyclic
    collector is held off (collector_paused)."""
    rng = random.Random(seed)
    dim = base.dim if base.kind == "box" else 2
    forms = [_rand_frac_form(0, box_size, 32)] * dim
    if kind != "translates":
        forms.append(_rand_frac_form(scale_range[0], scale_range[1], 8))
    cols = _draw_columns(rng, [span for span, _, _, _ in forms], n)
    drawn = [set(col) for col in cols]
    D = 1
    for (_, a, b, q), js in zip(forms, drawn):
        D = lcm(D, q // gcd(q, *[a + j * b for j in js]))
    wide = D.bit_length() > MAX_SCALE_BITS
    for k, ((_, a, b, q), js) in enumerate(zip(forms, drawn)):
        value = {j: Fraction(a + j * b, q) if wide else (a + j * b) * D // q for j in js}
        cols[k] = list(map(value.__getitem__, cols[k]))
    D = 1 if wide else D
    S = cols.pop() if kind != "translates" else [D] * n
    if S and min(S) <= 0:
        raise DegenerateInput("scale must be positive")
    return Family.from_scaled(base, (D, cols, S), kind)


def pairwise_intersecting_family(base, n, seed=0) -> Family:
    """n translates with all pairs intersecting.

    Reference points are sampled from (C-C)/2, so any two translations
    differ by a vector of C-C and the translates meet; the property is
    re-verified exactly, on the slab bounds for polygons and boxes.
    """
    rng = random.Random(seed)
    members = []
    if base.kind == "polygon":
        diff = minkowski_sum(base.polygon, reflect(base.polygon))
        half = diff.scale(Fraction(1, 2))
        bx, by = half.bounding_box()
        for _ in range(n):
            for _ in range(_ATTEMPTS):
                p = Point(_rand_frac(rng, bx.lo, bx.hi), _rand_frac(rng, by.lo, by.hi))
                if half.contains(p):
                    members.append(Member(p))
                    break
            else:
                raise ConstructionFailed("rejection sampling failed")
    elif base.kind == "disk":
        r = base.radius
        for _ in range(n):
            for _ in range(_ATTEMPTS):
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
    if base.kind != "disk":
        meet = common_slab_bounds(fam) is not None
    else:
        check = pair_checker(fam)
        meet = all(check(i, j) for i in range(n) for j in range(i + 1, n))
    if not meet:
        raise ConstructionFailed("family is not pairwise-intersecting")
    return fam


def random_centrally_symmetric_polygon(rng_or_seed, half_vertices=4, spread=10) -> PolygonBody:
    """A random centrally symmetric polygon with 2*half_vertices vertices.

    Vertices sit on a common circle through the rational parametrization
    ((1-t^2, 2t)/(1+t^2)) at t = a/64, that is ((64^2-a^2, 2*64a)/(64^2+a^2)),
    so they are always in strictly convex position and the mirrored set
    closes up exactly.
    """
    rng = rng_or_seed if isinstance(rng_or_seed, random.Random) else random.Random(rng_or_seed)
    while True:
        params = sorted({rng.randrange(-63, 64) for _ in range(half_vertices)})
        if len(params) < half_vertices:
            continue
        pts = [Point(spread * Fraction(4096 - a * a, 4096 + a * a),
                     spread * Fraction(128 * a, 4096 + a * a)) for a in params]
        pts = pts + [-p for p in pts]
        hull = convex_hull(pts)
        if len(hull) == 2 * half_vertices and hull.is_centrally_symmetric() is not None:
            return PolygonBody(hull)


def random_convex_polygon(rng_or_seed, max_vertices=12, spread=10) -> PolygonBody:
    rng = rng_or_seed if isinstance(rng_or_seed, random.Random) else random.Random(rng_or_seed)
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
