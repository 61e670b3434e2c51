"""Piercing certificates: points, clusters, a disjoint witness, and a factor.

A certificate is checkable on its own: every member must contain one of the
points (exact), the witness members must be pairwise disjoint (exact), and
|points| <= factor * |witness|.

An explicit certificate lists its points.  Membership checks go through a
uniform grid over the points, so verification stays near-linear; the grid
only prunes.  Polygon and box membership of a rational point is decided
exactly on the family's int slabs (bodies.Family.slabs); the disk screen
answers only where its float error bound, taken from the operands of each
comparison, settles the sign.  Everything else is an exact test on the
realized member.

A symbolic certificate (the greedies') lists seeds and clusters instead.
Its method names a cover pattern and an order (greedy_rule), and by the
cluster lemma a member that meets its seed and is not above it in that
order contains a point of the pattern placed at the seed.  So each member
costs one exact pair test and one int comparison; only the points the
refine step chose for the last cluster are checked one by one.  Its points
are placed and deduplicated only when asked for (PierceCertificate.points).
"""

from fractions import Fraction
from itertools import chain
import math
from operator import add, mul
import random
import statistics

from .bodies import Family, pair_checker, pairwise_disjoint
from .covers import _triangle_normalizer, homothet_cover, translate_cluster_cover
from .errors import UnsupportedBase, VerificationFailed
from .geom import Point
from .radicals import RadPoint, Radical

_U = 2.0 ** -53  # unit roundoff of a double
_TINY = 1e-300  # covers the absolute error of conversions that underflow


def _ratio(n, d):
    """(x, e): the float n / d and its error bound u|x|, for ints n and d
    (a correctly rounded division) or a Fraction n (float() of a Fraction
    is correctly rounded too)."""
    x = float(n / d)
    return x, _U * abs(x) + _TINY


def _float_coord(v):
    """(x, e): a float x with |x - v| <= e, for a rational or a Radical v.

    int / int is correctly rounded, so a rational is off by at most u|x|.
    Each radical term c*sqrt(m) is off by at most 4u of itself (converting
    c and m, the root, the product), and summing k terms adds at most
    (k - 1)u of their magnitudes; the bound doubles (k + 3)u for the
    rounding of the bound itself.
    """
    if isinstance(v, Radical):
        x = mag = 0.0
        for m, c in v.terms.items():
            t = c.numerator / c.denominator * math.sqrt(m)
            x += t
            mag += abs(t)
        return x, 2 * (len(v.terms) + 3) * _U * mag + _TINY
    return _ratio(v.numerator, v.denominator)


def _float_points(points):
    """The one float pass: (xs, exs, ys, eys), each point's first two
    coordinates as floats and their error bounds."""
    xs, exs, ys, eys = [], [], [], []
    for p in points:
        x, ex = _float_coord(p[0] if isinstance(p, tuple) else p.x)
        y, ey = _float_coord(p[1] if isinstance(p, tuple) else p.y)
        xs.append(x)
        exs.append(ex)
        ys.append(y)
        eys.append(ey)
    return xs, exs, ys, eys


def _float_members(f: Family, indices):
    """The one float pass over the checked members: (x, ex, y, ey, size)
    per index, in the order of indices.

    (x, y) is the member's image s*a + t of the base anchor a (the centre
    of a disk, else the low corner of the base's bounding box) and ex, ey
    bound its error; size is the member's radius for disks, else its
    scale.  Each value is one correctly rounded division on the columns of
    Family.scaled_translations(): a*s + t = (a.num S + T a.den) / (a.den D).
    """
    base = f.base
    disk = base.kind == "disk"
    ax, ay = (base.center.x, base.center.y) if disk else [iv.lo for iv in base.bbox()[:2]]
    radius = base.radius if disk else Fraction(1)
    D, (xs, ys, *_), S = f.scaled_translations()
    (an, ad), (bn, bd) = [(v.numerator, v.denominator) for v in (ax, ay)]
    rn, rdD, adD, bdD = radius.numerator, radius.denominator * D, ad * D, bd * D
    return [_ratio(an * S[i] + xs[i] * ad, adD) + _ratio(bn * S[i] + ys[i] * bd, bdD)
            + (float(rn * S[i] / rdD),) for i in indices]


def _exact_point(p):
    """(q, P): the point as int numerators P over one denominator q, or
    None when a coordinate is irrational."""
    if isinstance(p, RadPoint):
        if not p.is_rational():
            return None
        p = (p.x.as_fraction(), p.y.as_fraction())
    elif not isinstance(p, tuple):
        p = (p.x, p.y)
    q = math.lcm(*[v.denominator for v in p])
    return q, [v.numerator * (q // v.denominator) for v in p]


def _membership(f: Family, points, fpts):
    """member(i, fm) -> test(k): True or False where member i is decided to
    contain point k or not, None where the answer is open; fm is member
    i's float pass entry.

    Polygons and boxes decide exactly on the family's slabs
    (Family.slabs): the point P/q lies in member i iff
    q lo <= form . P <= q hi on every slab, so only points with irrational
    coordinates stay open.  Each point is converted once.  Disks use the
    float screen.
    """
    if f.base.kind == "disk":
        return lambda i, fm: _float_disk_screen(fm, fpts)
    forms, lo, hi = f.slabs()
    exact = []
    for p in points:
        e = _exact_point(p)
        if e is not None:
            q, P = e
            e = q, [sum(map(mul, form, P)) for form in forms]
        exact.append(e)

    def member(i, fm):
        li, hi_ = lo[i], hi[i]

        def test(k):
            e = exact[k]
            if e is None:
                return None
            q, us = e
            return all(q * a <= u <= q * b for a, u, b in zip(li, us, hi_))

        return test

    return member


def _disk_screen(body, fpts):
    """k -> True/False where floats decide the realized disk body contains
    point k, else None."""
    (cx, ecx), (cy, ecy) = _float_coord(body.center.x), _float_coord(body.center.y)
    return _float_disk_screen((cx, ecx, cy, ecy, _float_coord(body.radius)[0]), fpts)


def _float_disk_screen(fdisk, fpts):
    """k -> True/False where floats decide that the disk contains point k,
    else None; fdisk is (cx, ecx, cy, ecy, r) as _float_members gives it.

    The float gap |p - c|^2 - r^2 is within tol of the exact one: each
    difference carries the point's own error, the centre's conversion
    error and one rounding; squaring, summing and subtracting r^2 add a
    few ulps of ax^2 + ay^2 + r^2, with ax = |px| + |cx|.
    """
    cx, ecx, cy, ecy, r = fdisk
    rr = r * r

    xs, exs, ys, eys = fpts

    def screen(k):
        px, py = xs[k], ys[k]
        dx = px - cx
        dy = py - cy
        gap = dx * dx + dy * dy - rr
        ax = abs(px) + abs(cx)
        ay = abs(py) + abs(cy)
        erx = exs[k] + ecx + _U * ax
        ery = eys[k] + ecy + _U * ay
        tol = (1.001 * (erx * (2 * ax + erx) + ery * (2 * ay + ery))
               + 8 * _U * (ax * ax + ay * ay + rr) + _TINY)
        if gap > tol:
            return False
        if gap < -tol:
            return True
        return None

    return screen


def _point_grid(f: Family, fmembers, fpts):
    """candidates(fm): the points in the grid cells that the bounding box
    of the member with float pass entry fm, padded, overlaps.  Only
    prunes."""
    base = f.base
    if base.kind == "disk":
        offsets = [(-1.0, 1.0)] * 2
    else:
        offsets = [(0.0, float(iv.hi - iv.lo)) for iv in base.bbox()[:2]]
    (xlo, xhi), (ylo, yhi) = offsets

    def box(fm):
        x, _, y, _, size = fm
        b = (x + size * xlo, x + size * xhi, y + size * ylo, y + size * yhi)
        pad = 1e-9 * max(1.0, max(map(abs, b)))
        return b[0] - pad, b[1] + pad, b[2] - pad, b[3] + pad

    widths = [max(b[1] - b[0], b[3] - b[2]) for b in map(box, fmembers)]
    cell = (statistics.median(widths) if widths else 0.0) or 1.0
    grid = {}
    for k, (x, y) in enumerate(zip(fpts[0], fpts[2])):
        grid.setdefault((math.floor(x / cell), math.floor(y / cell)), []).append(k)

    def candidates(fm):
        bxlo, bxhi, bylo, byhi = box(fm)
        out = []
        for cx in range(math.floor(bxlo / cell), math.floor(bxhi / cell) + 1):
            for cy in range(math.floor(bylo / cell), math.floor(byhi / cell) + 1):
                out.extend(grid.get((cx, cy), ()))
        return out

    return candidates


# ---------------------------------------------------------------------------
# the greedies' cluster lemma and pattern points

def seed_columns(f: Family):
    """Int columns whose topmost order (last column descending, then the
    others, then index) is greedy_pierce's seed order.

    They are the scaled translations T (Family.scaled_translations), and
    for a triangle the coordinates [across, up] = [T x e2, e1 x T] of the
    frame of covers._triangle_normalizer, in which the trapezoid pattern's
    cut edge is horizontal; e1, e2 are the triangle's edges from its
    lowest-leftmost vertex, cleared of denominators.
    """
    cols = f.scaled_translations()[1]
    if f.base.kind == "polygon" and len(f.base.polygon.vertices) == 3:
        _, e1, e2 = _triangle_normalizer(f.base.polygon)
        L = math.lcm(e1.x.denominator, e1.y.denominator, e2.x.denominator, e2.y.denominator)
        (ax, ay), (bx, by) = [(int(e.x * L), int(e.y * L)) for e in (e1, e2)]
        xs, ys = cols
        cols = [[x * by - y * bx for x, y in zip(xs, ys)],
                [ax * y - ay * x for x, y in zip(xs, ys)]]
    return cols


def greedy_rule(f: Family, method):
    """(pattern, rank) for a greedy method on f: a member that meets member
    i and has rank <= rank[i] contains a point of the pattern placed at i
    (_placer).  This is the cluster lemma behind both greedies.

    "greedy" (translates): the pattern covers the lower part of C - C, cut
    by a line through the origin (the trapezoid's cut edge for a triangle),
    and rank is the last seed column (seed_columns), so a member not above
    the seed has its offset in that part.  "greedy-homothets": the pattern
    covers C - C and rank is -S, since a member at least as large as the
    seed that meets it contains a seed-sized translate meeting it.  Raises
    UnsupportedBase when the method does not apply to f.
    """
    base = f.base
    if method == "greedy":
        if f.kind != "translates":
            raise UnsupportedBase("greedy_pierce needs a translate family")
        if base.kind == "polygon" and base.polygon.is_centrally_symmetric() is None \
                and len(base.polygon.vertices) != 3:
            raise UnsupportedBase("polygon base is neither centrally symmetric nor a triangle")
        return translate_cluster_cover(base), seed_columns(f)[-1]
    if method == "greedy-homothets":
        return homothet_cover(base), [-s for s in f.scaled_translations()[2]]
    raise UnsupportedBase("no greedy rule for method %r" % (method,))


def _coords(p):
    return p if isinstance(p, tuple) else (p.x, p.y)


def _anchor(body):
    """The pattern anchor: center for symmetric bodies, the lowest-leftmost
    vertex otherwise (the same vertex the triangle pattern is built on)."""
    if body.kind == "disk":
        return body.center
    if body.kind == "box":
        return tuple(m + s / 2 for m, s in zip(body.mins, body.sides))
    c = body.polygon.is_centrally_symmetric()
    if c is not None:
        return c
    return min(body.polygon.vertices, key=lambda p: (p.y, p.x))


def _radical_parts(r):
    """(rational part, the other terms) of a Radical."""
    terms = dict(r.terms)
    return terms.pop(1, 0), terms


def _placer(f: Family, offsets):
    """i -> member i's pattern points a s_i + t_i + o s_i over the offsets
    o, with a the base anchor (s_i = 1 for translates).

    Polygon and box points are placed on the scaled columns
    (Family.scaled_translations): a coordinate (a + o) s_i + t_i is
    ((a + o) S_i + T_i) / D, one Fraction built from two ints.  Disk offsets
    are Radicals; each is split once into its rational part plus the anchor
    and its other terms, and offsets with equal parts in a coordinate share
    that coordinate's Radical.  A shared part costs one Fraction addition to
    t_i (none when it is zero), and for homothets a multiply by s_i per term.
    """
    D, cols, S = f.scaled_translations()
    anchor = _anchor(f.base)
    if f.base.kind != "disk":
        rows = [[(v.numerator, v.denominator, v.denominator * D) for v in map(add, anchor, o)]
                for o in offsets]
        make = tuple if f.base.kind == "box" else (lambda xy: Point(*xy))

        def place(i):
            s, t = S[i], [col[i] for col in cols]
            return [make([Fraction(n * s + d * v, dD) for (n, d, dD), v in zip(row, t)])
                    for row in rows]

        return place
    # per axis, the distinct (rational part + anchor, other terms) of the offsets
    parts = ([], [])
    pairs = []
    for o in offsets:
        pair = []
        for axis, a, r in zip(parts, (anchor.x, anchor.y), (o.x, o.y)):
            q, rest = _radical_parts(r)
            part = (q + a, rest)
            if part not in axis:
                axis.append(part)
            pair.append(axis.index(part))
        pairs.append(pair)
    scaled = f.kind == "homothets"

    def place(i):
        m = f.members[i]
        s = m.s
        coords = []
        for axis, t in zip(parts, (m.t.x, m.t.y)):
            out = []
            for v, rest in axis:
                if scaled:
                    terms = {r: c * s for r, c in rest.items()}
                    v = v * s
                else:
                    terms = dict(rest)
                c = v + t if v else t
                if c:
                    terms[1] = c
                out.append(Radical(terms))
            coords.append(out)
        xs, ys = coords
        return [RadPoint(xs[a], ys[b]) for a, b in pairs]

    return place


def _terms(v):
    """{radicand: coefficient} of a rational or Radical coordinate."""
    if isinstance(v, Radical):
        return v.terms
    return {1: v} if v else {}


def value_key(p, scale=1):
    """Hashable key of the value of point p times scale: the rational part
    of each coordinate, then for each coordinate a flat tuple of its other
    terms' radicands and coefficients, by increasing radicand.

    Radicals keep squarefree radicands, so equal values have equal keys
    whatever the point's type (Point, RadPoint or box tuple)."""
    terms = [_terms(v) for v in _coords(p)]
    return (*[t.get(1, 0) * scale for t in terms],
            *[tuple(x for m in sorted(t) if m != 1 for x in (m, t[m] * scale)) for t in terms])


def dedupe_points(points):
    """points without repeated values, first occurrences in order."""
    seen = set()
    out = []
    for p in points:
        k = value_key(p)
        if k not in seen:
            seen.add(k)
            out.append(p)
    return out


def _pattern_keys(f: Family, offsets, seeds):
    """(scale, keys): value_key(p, scale) for every pattern point p placed
    at the seeds, computed from ints alone, one offset at a time.

    With L the lcm of the denominators of the anchored offsets a + o, the
    scale D L makes a placed coordinate ((a + o) S_i + T_i) L an int
    combination of square roots: q S_i + L T_i plus c S_i sqrt(m) over the
    other terms c sqrt(m) of L (a + o).  Those terms depend on S_i alone,
    so they are built once per distinct scale.
    """
    D, cols, S = f.scaled_translations()
    anchor = _coords(_anchor(f.base))
    terms = [[_terms(a + v) for a, v in zip(anchor, _coords(o))] for o in offsets]
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
            by_scale = {s: tuple(x for m, c in rad for x in (m, c * s)) for s in set(ss)}
            radical.append([by_scale[s] for s in ss])
        keys.extend(zip(*rational, *radical))
    return D * L, keys


class PierceCertificate:
    """Points (or a symbolic cover), clusters, a witness and a factor.

    points=None makes the certificate symbolic: method is "greedy" or
    "greedy-homothets" (greedy_rule), family is the family it pierces, and
    extra holds the points the refine step chose for the last cluster
    (empty when that cluster keeps the pattern).  Every other cluster is
    pierced by the method's pattern placed at its seed, and the witness is
    the seeds.
    """

    def __init__(self, method, factor, points, clusters, witness, info=None,
                 family=None, extra=()):
        self.method = method
        self.factor = int(factor)
        self.symbolic = points is None
        self._points = None if self.symbolic else list(points)
        # (seed index, member indices) pairs; tuples of ints, which the cyclic
        # collector stops tracking, so a large certificate adds nothing to
        # its full collections
        self.clusters = [(seed, tuple(members)) for seed, members in clusters]
        self.witness = list(witness)
        self.info = info or {}
        self.family = family
        self.extra = list(extra)
        self._counted = None  # (family, distinct point count)

    def __repr__(self):
        return "PierceCertificate(%s, %d points, witness %d, factor %d)" % (
            self.method,
            self.point_count(),
            len(self.witness),
            self.factor,
        )

    def _pattern_seeds(self):
        """The seeds whose clusters the pattern pierces."""
        seeds = [s for s, _ in self.clusters]
        return seeds[:-1] if self.extra else seeds

    @property
    def points(self):
        """The piercing points; a symbolic certificate places its pattern at
        the seeds and drops repeated values on first access."""
        if self._points is None:
            place = _placer(self.family, greedy_rule(self.family, self.method)[0].offsets)
            placed = [p for i in self._pattern_seeds() for p in place(i)]
            self._points = dedupe_points(placed + self.extra)
        return self._points

    def explicit(self):
        """The same certificate with its points listed."""
        return PierceCertificate(self.method, self.factor, self.points, self.clusters,
                                 self.witness, self.info)

    def _distinct(self, f: Family):
        """The number of distinct points, for the certificate on f; a
        symbolic certificate counts value keys on ints, placing nothing."""
        if not self.symbolic:
            return len(self._points)
        if self._counted is None or self._counted[0] is not f:
            offsets = greedy_rule(f, self.method)[0].offsets
            scale, keys = _pattern_keys(f, offsets, self._pattern_seeds())
            seen = set(keys)
            seen.update(value_key(p, scale) for p in self.extra)
            self._counted = (f, len(seen))
        return self._counted[1]

    def point_count(self) -> int:
        """len(self.points), without placing a symbolic certificate's points."""
        return self._distinct(self.family)

    @property
    def ratio(self):
        return Fraction(self.point_count(), max(1, len(self.witness)))

    def verify(self, f: Family, sample=None, seed=0):
        """Exact certificate check; raises VerificationFailed.

        sample limits the membership checks of an explicit certificate to a
        random subset of members (for benchmark-scale runs); a symbolic
        certificate, the witness and the point budget are always checked
        completely.
        """
        n = len(f)
        if self.symbolic:
            self._verify_clusters(f)
            sample = None
        else:
            indices = range(n)
            if sample is not None and sample < n:
                indices = random.Random(seed).sample(range(n), sample)
            _check_members(f, indices, self._points)
        if not self.witness:
            raise VerificationFailed("empty witness")
        wset = set(self.witness)
        if len(wset) != len(self.witness):
            raise VerificationFailed("witness repeats a member")
        if not pairwise_disjoint(Family(f.base, [f.members[i] for i in self.witness], f.kind)):
            raise VerificationFailed("witness members are not pairwise disjoint")
        if self.symbolic and self.witness != [s for s, _ in self.clusters]:
            raise VerificationFailed("witness differs from the cluster seeds")
        if self._distinct(f) > self.factor * len(self.witness):
            raise VerificationFailed("|points| exceeds factor * |witness|")
        if self.clusters:
            if not all(seed_i in members for seed_i, members in self.clusters):
                raise VerificationFailed("cluster seed outside its cluster")
            listed = sorted(chain.from_iterable(members for _, members in self.clusters))
            if listed != list(range(n)):
                if len(set(listed)) != len(listed):
                    raise VerificationFailed("clusters overlap")
                if sample is None:
                    raise VerificationFailed("clusters do not partition the family")
        return True

    def _verify_clusters(self, f: Family):
        """The cluster lemma for every pattern cluster (greedy_rule), and
        exact membership for a refined last cluster."""
        try:
            _, rank = greedy_rule(f, self.method)
        except UnsupportedBase as e:
            raise VerificationFailed(str(e)) from e
        if self.extra and not self.clusters:
            raise VerificationFailed("refine points without a cluster")
        check = pair_checker(f)
        pattern_clusters = self.clusters[:-1] if self.extra else self.clusters
        for s, members in pattern_clusters:
            top = rank[s]
            for j in members:
                if rank[j] > top:
                    raise VerificationFailed(
                        "member %d lies above its seed %d in the greedy order" % (j, s))
                if not check(s, j):
                    raise VerificationFailed("member %d misses its seed %d" % (j, s))
        if self.extra:
            _check_members(f, self.clusters[-1][1], self.extra)


def _check_members(f: Family, indices, points):
    """Every member in indices contains one of points, decided exactly;
    raises VerificationFailed."""
    indices = list(indices)
    fpts = _float_points(points)
    fmembers = _float_members(f, indices)
    candidates = _point_grid(f, fmembers, fpts)
    member = _membership(f, points, fpts)
    for i, fm in zip(indices, fmembers):
        # a member is realized only where its test leaves the answer open
        test = member(i, fm)
        for k in candidates(fm):
            inside = test(k)
            if inside is None:
                inside = f.realize(i).contains(points[k])
            if inside:
                break
        else:
            # the grid can only prune; fall back to the full scan before
            # declaring failure
            body = f.realize(i)
            if not any(body.contains(p) for p in points):
                raise VerificationFailed("member %d contains no piercing point" % i)
