"""Piercing certificates: points, clusters, a disjoint witness, and a factor.

A certificate is checkable on its own: every member must contain one of the
points (exact), the witness members must be pairwise disjoint (exact), and
|points| <= factor * |witness|.

An explicit certificate lists its points.  Every decision is exact on ints,
on the membership layer that the oracle shares (bodies.int_point,
bodies.membership): each point is converted once to (A + B sqrt(m)) / q
per coordinate and bucketed on one exact grid per scale class of the
members (bodies.scale_classes), so verification is near-linear per
occupied class: O((n + points) * classes), with at most
log2(S_max / S_min) + 1 classes.  Polygon and box membership of a
rational point is decided on the family's int slabs (bodies.Family.slabs),
disk membership by the sign of P + Q sqrt(m) on ints.  Only the points
that only hand-written files carry, with more than one radicand or
irrational in a polygon or box family, are tested on the realized member.

A symbolic certificate (the greedies') lists seeds and clusters instead.
Its method names a cover pattern and an order (greedy_rule), and by the
cluster lemma a member that meets its seed and is not above it in that
order contains a point of the pattern placed at the seed.  So each member
costs one exact pair test and one int comparison; only the points the
refine step chose for the last cluster are checked one by one.  Its points
are placed and deduplicated only when asked for (PierceCertificate.points).
"""

from fractions import Fraction
from itertools import chain, product
import math
from operator import add

from .bodies import (
    Family,
    box_columns,
    int_point,
    membership,
    pair_checker,
    pairwise_disjoint,
    scale_classes,
)
from .covers import _triangle_normalizer, homothet_cover, translate_cluster_cover
from .errors import UnsupportedBase, VerificationFailed
from .geom import Point
from .radicals import RadPoint, Radical


def _floor_root(b, m):
    """floor(b sqrt(m)) for ints b and m >= 0: -ceil(|b| sqrt(m)) for b < 0."""
    n = b * b * m
    return math.isqrt(n) if b >= 0 or not n else -1 - math.isqrt(n - 1)


def _cell_key(e, scale, cell):
    """The key of the point bodies.int_point gave as e on the grid of one
    scale class, in the frame where member boxes are scaled by scale
    (bodies.scale_classes): per coordinate
    floor(scale (A + B sqrt(m)) / (q cell)), which for cell = num / den is
    (a + floor(b sqrt(m))) // (q num) with a = scale den A and
    b = scale den B (_floor_root)."""
    q, m, A, B = e
    num, den = cell.numerator, cell.denominator * scale
    d = q * num
    if B is None:
        return tuple([den * a // d for a in A])
    return tuple([(den * a + _floor_root(den * b, m)) // d for a, b in zip(A, B)])


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
            rest = dict(r.terms)
            part = (rest.pop(1, 0) + a, rest)
            if part not in axis:
                axis.append(part)
            pair.append(axis.index(part))
        pairs.append(pair)
    scaled = f.kind == "homothets"
    (txs, tys), scales = f.columns, f.scales

    def place(i):
        s = scales[i]
        coords = []
        for axis, t in zip(parts, (txs[i], tys[i])):
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
    if type(p) is Point:
        # a rational point has no other terms; a zero coordinate gives
        # Fraction(0), equal to the general path's int 0
        if scale == 1:
            return p.x, p.y, (), ()
        return p.x * scale, p.y * scale, (), ()
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

    def verify(self, f: Family):
        """Exact certificate check of every member, the witness and the
        point budget; raises VerificationFailed."""
        n = len(f)
        if self.symbolic:
            self._verify_clusters(f)
        else:
            _check_members(f, range(n), self._points)
        if not self.witness:
            raise VerificationFailed("empty witness")
        wset = set(self.witness)
        if len(wset) != len(self.witness):
            raise VerificationFailed("witness repeats a member")
        if not pairwise_disjoint(f.subfamily(self.witness)):
            raise VerificationFailed("witness members are not pairwise disjoint")
        if self.symbolic and self.witness != [s for s, _ in self.clusters]:
            raise VerificationFailed("witness differs from the cluster seeds")
        if self._distinct(f) > self.factor * len(self.witness):
            raise VerificationFailed("|points| exceeds factor * |witness|")
        if self.clusters:
            if not all(seed_i in members for seed_i, members in self.clusters):
                raise VerificationFailed("cluster seed outside its cluster")
            marks = bytearray(n)
            for j in chain.from_iterable(members for _, members in self.clusters):
                if not 0 <= j < n:
                    raise VerificationFailed("clusters do not partition the family")
                if marks[j]:
                    raise VerificationFailed("clusters overlap")
                marks[j] = 1
            if marks.count(0):
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
    raises VerificationFailed.

    The points are converted once (bodies.int_point) and filed once per
    scale class of the members (bodies.scale_classes, _cell_key); a member
    sees the points of the <= 2^d cells its box (bodies.box_columns) meets
    at its class.  It is
    realized only for a point that bodies.membership leaves open; points
    with more than one radicand have no cell and are seen by every member."""
    indices = list(indices)
    ipts = [int_point(p) for p in points]
    scale, ss, lo_cols, sides = box_columns(f, indices)
    classes, cells = scale_classes(ss, max(sides))
    grids = {c: {} for c in cells}
    loose = []
    for k, e in enumerate(ipts):
        if e is None:
            loose.append(k)
        else:
            for c, grid in grids.items():
                grid.setdefault(_cell_key(e, scale, cells[c]), []).append(k)
    member = membership(f, ipts)
    for i, s, lo, c in zip(indices, ss, zip(*lo_cols), classes):
        test = member(i)
        cell = cells[c]
        keys = product(*[range(a // cell, (a + s * w) // cell + 1) for a, w in zip(lo, sides)])
        for k in chain(*[grids[c].get(key, ()) for key in keys], loose):
            inside = test(k)
            if inside is None:
                inside = f.realize(i).contains(points[k])
            if inside:
                break
        else:
            raise VerificationFailed("member %d contains no piercing point" % i)
