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
log2(S_max / S_min) + 1 classes.  Polygon and box membership is decided on
the family's int slabs (bodies.Family.slabs), disk membership by the sign
of P + Q sqrt(m) on ints; no member is realized.  The point budget counts
distinct points (radicals.point_key).  A file's point with more than one
radicand has no such form and fails verification (jsonio).

A symbolic certificate (the greedies') lists seeds and clusters instead.
Its method names a cover pattern and an order (greedy_rule), and by the
cluster lemma a member that meets its seed and is not above it in that
order contains a point of the pattern placed at the seed.  So each member
costs one exact pair test and one int comparison; only the points the
refine step chose for the last cluster are checked one by one.  A polygon
or box cluster may keep only some of the pattern's offsets, a mask
(offset_masks): then each member costs one test of the masked points'
slab values on ints (_slab_pierced), and only those points count.  Its points
are built only when asked for (PierceCertificate.points), from the one int
key per placed point that the distinct-point count uses (_packed_keys):
repeated keys are dropped and each kept key is decoded to one point.
"""

from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import reduce
from itertools import accumulate, chain, product, repeat
import math
from operator import add, and_, mul, or_

from .bodies import (
    Family,
    box_columns,
    collector_paused,
    int_base_slabs,
    int_point,
    membership,
    pair_checker,
    pairwise_disjoint,
    scale_classes,
)
from .covers import (_cached, _poly_key, _triangle_normalizer, homothet_cover,
                     translate_cluster_cover)
from .errors import UnsupportedBase, VerificationFailed
from .geom import Point
from .radicals import RadPoint, point_key


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


def greedy_supported(base) -> bool:
    """Whether the translate greedy has a cover pattern for base: a disk, a
    box, or a centrally symmetric or triangular polygon."""
    return base.kind != "polygon" or base.polygon.is_centrally_symmetric() is not None \
        or len(base.polygon.vertices) == 3


def greedy_pattern(f: Family, method):
    """The cover pattern of a greedy method on f (greedy_rule); raises
    UnsupportedBase when the method does not apply to f."""
    if method == "greedy":
        if f.kind != "translates":
            raise UnsupportedBase("greedy_pierce needs a translate family")
        if not greedy_supported(f.base):
            raise UnsupportedBase("polygon base is neither centrally symmetric nor a triangle")
        return translate_cluster_cover(f.base)
    if method == "greedy-homothets":
        return homothet_cover(f.base)
    raise UnsupportedBase("no greedy rule for method %r" % (method,))


def greedy_rule(f: Family, method):
    """(pattern, rank) for a greedy method on f: a member that meets member
    i and has rank <= rank[i] contains a point of the pattern placed at i
    (_packed_keys).  This is the cluster lemma behind both greedies.

    "greedy" (translates): the pattern covers the lower part of C - C, cut
    by a line through the origin (the trapezoid's cut edge for a triangle),
    and rank is the last seed column (seed_columns), so a member not above
    the seed has its offset in that part.  "greedy-homothets": the pattern
    covers C - C and rank is -S, since a member at least as large as the
    seed that meets it contains a seed-sized translate meeting it.  Raises
    UnsupportedBase when the method does not apply to f.  The rank is an
    O(n) column; greedy_pattern gives the pattern alone.
    """
    pattern = greedy_pattern(f, method)
    if method == "greedy":
        return pattern, seed_columns(f)[-1]
    return pattern, [-s for s in f.scaled_translations()[2]]


def _coords(p):
    return p if isinstance(p, tuple) else (p.x, p.y)


def _anchor(body):
    """The pattern anchor: a disk's centre, a box's centre, a polygon's
    ConvexPolygon.anchor (the same vertex the triangle pattern is built on)."""
    if body.kind == "disk":
        return body.center
    if body.kind == "box":
        return tuple(m + s / 2 for m, s in zip(body.mins, body.sides))
    return body.polygon.anchor()


def _terms(p):
    """Per coordinate of a point, {radicand: coefficient} of its nonzero
    terms, the rational part's radicand being 1."""
    if isinstance(p, RadPoint):
        q, m = p.q, p.m
        return [{k: Fraction(c, q) for k, c in ((1, a), (m, b)) if c}
                for a, b in zip(p.A, p.B or (0,) * len(p.A))]
    return [{1: v} if v else {} for v in _coords(p)]


def _on_roots(p, roots):
    """p written over the radicand in roots whose product with its own is a
    perfect square, if any: sqrt(p.m) = s / m sqrt(m) for s^2 = p.m m."""
    if isinstance(p, RadPoint) and p.B and p.m not in roots:
        for m in roots:
            s = math.isqrt(p.m * m)
            if s * s == p.m * m:
                return RadPoint(p.q * m, m, [a * m for a in p.A], [b * s for b in p.B])
    return p


def _picks(masks, values):
    """{mask: the values at its set bits, ascending} for each distinct mask."""
    return {m: [v for o, v in enumerate(values) if m >> o & 1] for m in set(masks)}


def _packed_keys(f: Family, offsets, seeds, masks=None):
    """(keys, key, point): keys lists the key of each placed point, seed by
    seed: offsets[o] at seeds[i] for each set bit o of masks[i], ascending
    (every offset when masks is None); key(p) is the key of any point p,
    and point(k) decodes one.

    On int columns (Family.scaled_translations), with L the lcm of the
    denominators of the anchored offsets a + o, a placed coordinate times
    D L has the int digit q S_i + L T_i for its rational part and c S_i per
    term c sqrt(m) of L (a + o).  A key is the digits in mixed radix over
    bounds from the seed columns' extents, so equal keys are equal values,
    and it is linear: A_o S_i + B_i.  A point whose radicand m is not the
    pattern's m' but has m m' a perfect square is first written over m'
    (_on_roots).  A point out of bounds is no pattern point; its key is
    radicals.point_key.  Fraction columns (over MAX_SCALE_BITS) key a point
    by its digits as Fractions (_value_keys), with no denominator common to
    the members."""
    D, cols, S = f.scaled_translations()
    anchor = _coords(_anchor(f.base))
    terms = [[{**t, 1: t.get(1, 0) + a} for t, a in zip(_terms(o), anchor)] for o in offsets]
    # one digit per (axis, radicand), the rational part's radicand being 1
    digits = sorted({(k, 1) for k in range(len(cols))}
                    | {(k, m) for row in terms for k, t in enumerate(row) for m in t})
    roots = {m for _, m in digits if m > 1}
    ss = list(map(S.__getitem__, seeds))
    ts = [list(map(col.__getitem__, seeds)) for col in cols]
    if masks is None:
        masks = [(1 << len(offsets)) - 1] * len(seeds)
    if isinstance(cols[0][0], Fraction):
        return _value_keys(f, terms, digits, roots, ss, ts, masks)
    L = math.lcm(*(c.denominator for row in terms for t in row for c in t.values()))
    scale = D * L
    coefs = [[int(row[k].get(m, 0) * L) for k, m in digits] for row in terms]
    ends = (min(ss, default=1), max(ss, default=1))
    lo, hi = [], []
    for (k, m), cs in zip(digits, zip(*coefs)):
        v = [c * s for c in (min(cs), max(cs)) for s in ends]
        t = (L * min(ts[k], default=0), L * max(ts[k], default=0)) if m == 1 else (0, 0)
        lo.append(min(v) + t[0])
        hi.append(max(v) + t[1])
    radices = [b - a + 1 for a, b in zip(lo, hi)]
    weights = list(accumulate(radices[:-1], mul, initial=1))
    B = [0] * len(seeds)
    for (k, m), w in zip(digits, weights):
        if m == 1:
            B = list(map(add, B, map((L * w).__mul__, ts[k])))
    picks = _picks(masks, [sum(map(mul, c, weights)) for c in coefs])
    keys = [a * s + b for s, b, m in zip(ss, B, masks) for a in picks[m]]

    def key(p):
        p = _on_roots(p, roots)
        terms = {(k, m): c * scale for k, t in enumerate(_terms(p)) for m, c in t.items()}
        digit = [terms.get(km, 0) for km in digits]
        if terms.keys() - digits or not all(
                a <= c <= b and c.denominator == 1 for a, c, b in zip(lo, digit, hi)):
            return point_key(p)
        return sum(map(mul, map(int, digit), weights))

    def point(k):
        v, xs = k - sum(map(mul, lo, weights)), [{} for _ in cols]
        for (axis, m), a, r in zip(digits, lo, radices):
            v, x = divmod(v, r)
            xs[axis][m] = a + x
        A = [x[1] for x in xs]
        if roots:
            (m,) = roots
            B = [x.get(m, 0) for x in xs]
            return RadPoint(scale, m, A, B if any(B) else None)
        xs = [Fraction(a, scale) for a in A]
        return tuple(xs) if f.base.kind == "box" else Point(*xs)

    return keys, key, point


def _value_keys(f: Family, terms, digits, roots, ss, ts, masks):
    """_packed_keys on Fraction columns: a key is the tuple of a point's
    digits, each coordinate's rational part and its coefficient per
    radicand, exact per seed as c S_i + T_i and c S_i, so equal keys are
    equal values; a point with a term no digit holds keys as
    radicals.point_key, a tuple of pairs that equals no digit tuple."""
    picks = _picks(masks, [[row[k].get(m, 0) for k, m in digits] for row in terms])
    shifts = zip(*[ts[k] if m == 1 else [0] * len(ss) for k, m in digits])
    keys = [tuple(c * s + t for c, t in zip(cs, shift))
            for s, shift, m in zip(ss, shifts, masks) for cs in picks[m]]

    def key(p):
        terms = {(k, m): c for k, t in enumerate(_terms(_on_roots(p, roots)))
                 for m, c in t.items()}
        if terms.keys() - digits:
            return point_key(p)
        return tuple(terms.get(km, 0) for km in digits)

    def point(k):
        xs = [{} for _ in ts]
        for (axis, m), v in zip(digits, k):
            xs[axis][m] = v
        A = [x[1] for x in xs]
        if roots:
            (m,) = roots
            B = [x.get(m, 0) for x in xs]
            return RadPoint.of_fractions(m, A, B if any(B) else None)
        return tuple(A) if f.base.kind == "box" else Point(*A)

    return keys, key, point


def _offset_slabs(base, pattern):
    """(M, tables, own) for the offsets of a polygon or box pattern, built
    once per base and pattern on the pattern cache of covers (_cached):
    per slab of bodies.int_base_slabs (L w, L lo_k, L hi_k), the ints
    d[k][o] = M (L w . (a + o) - L lo_k) ascending, for a the anchor and M
    clearing a and o, with the ORs of their offsets' bits' prefixes and
    those ORs inverted; own is the mask of the offsets with a + o in the
    base, 0 <= d[k][o] <= M (L hi_k - L lo_k) on every slab."""
    key = _poly_key(base.polygon) if base.kind == "polygon" else (base.mins, base.sides)

    def build():
        anchor = _coords(_anchor(base))
        coords = [_coords(o) for o in pattern.offsets]
        M = math.lcm(*[v.denominator for v in chain(anchor, *coords)])

        def cleared(v):
            return v.numerator * (M // v.denominator)

        points = [[cleared(a) + cleared(v) for a, v in zip(anchor, o)] for o in coords]
        tables = []
        own = (1 << len(points)) - 1
        for w, lo, hi in int_base_slabs(base):
            ds, bits = zip(*sorted((sum(map(mul, w, p)) - M * lo, 1 << o)
                                   for o, p in enumerate(points)))
            ors = [0, *accumulate(bits, or_)]
            nors = [~x for x in ors]
            own &= ors[bisect_right(ds, M * (hi - lo))] & nors[bisect_left(ds, 0)]
            tables.append((ds, ors, nors))
        return M, tables, own

    return _cached(("offset slabs", key, pattern.region_kind), build)


def _slab_pierced(f: Family, pattern):
    """(own, pierced): pierced(s, j) is the mask of the pattern's offsets
    whose points, placed at seed s, lie in member j of a polygon or box
    family, and own = pierced(s, s) for every s; decided on the slabs of
    Family.slabs, on ints (Fractions over MAX_SCALE_BITS), with no point
    built.

    On slab k the point of offset o at seed s has the value
    S_s d[k][o] / M + lo[s][k] (_offset_slabs).  So it lies in member j iff
    lo[j][k] - lo[s][k] <= S_s d[k][o] / M <= hi[j][k] - lo[s][k] on every
    slab: with the offsets sorted by d[k], two bisections give each slab's
    mask as two ORs of prefixes, and pierced is their AND.  For j = s the
    bounds are 0 and (L hi_k - L lo_k) S_s, which is own."""
    if f.base.kind == "disk":
        raise UnsupportedBase("offset masks need a polygon or box base")
    M, tables, own = _offset_slabs(f.base, pattern)
    _, los, his = f.slabs()
    S = f.scaled_translations()[2]
    ints = type(los[0][0]) is int  # Fraction bounds over MAX_SCALE_BITS
    scaled = {}  # per seed scale S_s, the tables of the values S_s d[k] / M
    full = (1 << pattern.size) - 1

    def rows(q):
        # for int bounds x: x <= v iff x <= floor(v), and v <= x iff ceil(v) <= x
        out = []
        for ds, ors, nors in tables:
            floors = [q * d // M for d in ds] if ints else [Fraction(q * d, M) for d in ds]
            ceils = [-(-q * d // M) for d in ds] if ints else floors
            out.append((floors, ceils, ors, nors))
        return out

    def pierced(s, j):
        q = S[s]
        table = scaled.get(q) or scaled.setdefault(q, rows(q))
        mask = full
        for (floors, ceils, ors, nors), a, b, base in zip(table, los[j], his[j], los[s]):
            mask &= ors[bisect_right(ceils, b - base)] & nors[bisect_left(floors, a - base)]
        return mask

    return own, pierced


def offset_masks(f: Family, pattern, clusters):
    """Per (seed, members) cluster, the offsets of the pattern it keeps as a
    mask, bit o for pattern.offsets[o]; None for a disk family, or when
    every mask is full.

    The first offset whose point, placed at the seed, lies in every member
    (in the members' common slab bounds, max lo and min hi per slab, as
    bodies.common_slab_bounds takes them; found as the lowest bit of the
    AND of the members' masks of _slab_pierced) is the mask alone.
    Otherwise the members, seed first, go by first fit: one that no kept
    point pierces keeps the first offset that does.  A member that none
    pierces raises VerificationFailed."""
    if f.base.kind == "disk":
        return None
    own, pierced = _slab_pierced(f, pattern)
    masks = []
    for s, members in clusters:
        if len(members) == 1 and own:
            masks.append(own & -own)
            continue
        held = [own, *map(pierced, repeat(s), members[1:])]
        common = reduce(and_, held)
        if common:
            masks.append(common & -common)
            continue
        m = 0
        for j, h in zip(members, held):
            if not h:
                raise VerificationFailed("member %d holds no point of its seed's pattern" % j)
            if not h & m:
                m |= h & -h
        masks.append(m)
    full = (1 << pattern.size) - 1
    return None if masks.count(full) == len(masks) else masks


class PierceCertificate:
    """Points (or a symbolic cover), clusters, a witness and a factor.

    points=None makes the certificate symbolic: method is "greedy" or
    "greedy-homothets" (greedy_rule), family is the family it pierces, and
    extra holds the points the refine step chose for the last cluster
    (empty when that cluster keeps the pattern).  Every other cluster is
    pierced by the method's pattern placed at its seed, and the witness is
    the seeds; each cluster's members start with its seed.  masks, one per
    pattern cluster (offset_masks), keeps only the offsets of its set bits
    at that seed; None keeps every offset at every seed.
    """

    def __init__(self, method, factor, points, clusters, witness, info=None,
                 family=None, extra=(), masks=None):
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
        self.masks = masks
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
        """The piercing points.  A symbolic certificate builds them on first
        access from the keys that _distinct counts (_packed_keys): seed by
        seed, first occurrences of each value, then the refine points whose
        values are not among them."""
        if self._points is None:
            f = self.family
            keys, key, point = _packed_keys(f, greedy_pattern(f, self.method).offsets,
                                            self._pattern_seeds(), self.masks)
            seen = dict.fromkeys(keys)
            points = list(map(point, seen))
            for p in self.extra:
                k = key(p)
                if k not in seen:
                    seen[k] = None
                    points.append(p)
            self._points = points
        return self._points

    def explicit(self):
        """The same certificate with its points listed."""
        return PierceCertificate(self.method, self.factor, self.points, self.clusters,
                                 self.witness, self.info)

    @collector_paused()
    def _distinct(self, f: Family):
        """The number of distinct points, for the certificate on f: an
        explicit certificate counts their keys (radicals.point_key), and a
        symbolic one packed int keys, placing nothing."""
        if self._counted is None or self._counted[0] is not f:
            if self.symbolic:
                offsets = greedy_pattern(f, self.method).offsets
                keys, key, _ = _packed_keys(f, offsets, self._pattern_seeds(), self.masks)
                keys = chain(keys, map(key, self.extra))
            else:
                keys = map(point_key, self._points)
            self._counted = (f, len(set(keys)))
        return self._counted[1]

    def point_count(self) -> int:
        """len(self.points), without placing a symbolic certificate's points."""
        return self._distinct(self.family)

    @property
    def ratio(self):
        return Fraction(self.point_count(), max(1, len(self.witness)))

    @collector_paused()
    def verify(self, f: Family):
        """Exact certificate check of every member, the witness and the
        point budget; raises VerificationFailed.  The distinct points are
        counted only when the points placed exceed the budget."""
        n = len(f)
        if self.symbolic:
            placed = self._verify_clusters(f)
        else:
            _check_members(f, range(n), self._points)
            placed = len(self._points)
        if not self.witness:
            raise VerificationFailed("empty witness")
        wset = set(self.witness)
        if len(wset) != len(self.witness):
            raise VerificationFailed("witness repeats a member")
        if not pairwise_disjoint(f.subfamily(self.witness)):
            raise VerificationFailed("witness members are not pairwise disjoint")
        if self.symbolic and self.witness != [s for s, _ in self.clusters]:
            raise VerificationFailed("witness differs from the cluster seeds")
        budget = self.factor * len(self.witness)
        if placed > budget and self._distinct(f) > budget:
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
        """The cluster lemma for every pattern cluster with a full mask
        (greedy_rule), for every other that each member holds one of its
        masked points (_slab_pierced), and exact membership for a refined
        last cluster; returns the number of points placed, which the
        distinct points never outnumber."""
        if self.extra and not self.clusters:
            raise VerificationFailed("refine points without a cluster")
        pattern_clusters = self.clusters[:-1] if self.extra else self.clusters
        try:
            pattern, rank = greedy_rule(f, self.method)
            lemma, placed = self._check_masks(f, pattern, pattern_clusters)
        except UnsupportedBase as e:
            raise VerificationFailed(str(e)) from e
        check = pair_checker(f)
        for s, members in lemma:
            top = rank[s]
            for j in members:
                if rank[j] > top:
                    raise VerificationFailed(
                        "member %d lies above its seed %d in the greedy order" % (j, s))
                if not check(s, j):
                    raise VerificationFailed("member %d misses its seed %d" % (j, s))
        if self.extra:
            _check_members(f, self.clusters[-1][1], self.extra)
        return placed + len(self.extra)

    def _check_masks(self, f: Family, pattern, clusters):
        """(lemma, placed): that each member of a cluster whose mask is not
        full holds one of its masked points (_slab_pierced), the clusters
        left to the cluster lemma, and the number of pattern points placed."""
        full = (1 << pattern.size) - 1
        if self.masks is None:
            return clusters, pattern.size * len(clusters)
        if len(self.masks) != len(clusters):
            raise VerificationFailed("%d masks for %d pattern clusters"
                                     % (len(self.masks), len(clusters)))
        lemma = [c for c, mask in zip(clusters, self.masks) if mask == full]
        if len(lemma) < len(clusters):
            own, pierced = _slab_pierced(f, pattern)
            for (s, members), mask in zip(clusters, self.masks):
                for j in members if mask != full else ():
                    if not mask & (own if j == s else pierced(s, j)):
                        raise VerificationFailed(
                            "member %d holds no masked point of its seed %d" % (j, s))
        return lemma, sum(map(int.bit_count, self.masks))


def _check_members(f: Family, indices, points):
    """Every member in indices contains one of points, decided exactly;
    raises VerificationFailed.

    The points are converted once (bodies.int_point; a point with more
    than one radicand never gets here, because jsonio._Reader.radical
    rejects it) and filed once per scale class of the
    members (bodies.scale_classes, _cell_key); a member sees the points of
    the <= 2^d cells its box (bodies.box_columns) meets at its class, and
    bodies.membership decides each on ints."""
    indices = list(indices)
    ipts = [int_point(p) for p in points]
    scale, ss, lo_cols, sides = box_columns(f, indices)
    classes, cells = scale_classes(ss, max(sides))
    grids = {c: {} for c in cells}
    for k, e in enumerate(ipts):
        for c, grid in grids.items():
            grid.setdefault(_cell_key(e, scale, cells[c]), []).append(k)
    member = membership(f, ipts)
    for i, s, lo, c in zip(indices, ss, zip(*lo_cols), classes):
        cell = cells[c]
        keys = product(*[range(a // cell, (a + s * w) // cell + 1) for a, w in zip(lo, sides)])
        if not any(map(member(i), chain(*[grids[c].get(key, ()) for key in keys]))):
            raise VerificationFailed("member %d contains no piercing point" % i)
