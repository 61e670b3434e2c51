"""Convex bodies, families of translates/homothets, intersection graphs.

A member body is s*C + t: the base scaled about the origin, then translated.
All coordinates are exact rationals; disks admit radical (sqrt) query points
for containment because some disk constructions need them.

The integer kernel: a family is scaled once by the lcm D of its translation
and scale denominators (Family.scaled_translations), so member i is
(S_i C + T_i) / D with int columns T and S.  Pair tests (pair_checker), the
translate grid (neighbor_index) and the homothet/topmost orders run on these
ints, and polygon and box members are slabs lo <= w.p <= hi with int bounds
(Family.slabs), which also decide membership in certificate checks.  Over
MAX_SCALE_BITS the same code runs on Fractions with D = 1.
"""

from fractions import Fraction
import itertools
import math
from operator import le
import statistics

from .errors import (
    DegenerateInput,
    DisksNotClosedUnderAffine,
    MixedKinds,
    SingularMap,
)
from .geom import ConvexPolygon, Interval, Point, frac, intersection_chain, polygons_intersect
from .radicals import RadPoint, dist2

# A family whose common translation and scale denominator D needs more bits
# than this keeps its translations and scales as Fractions (D = 1):
# adversarial denominators make the scaled integers, and their squares in
# the disk test, huge.  random_family needs 5 (translations over 32, scales
# over 8).
MAX_SCALE_BITS = 128


class PolygonBody:
    kind = "polygon"

    def __init__(self, polygon: ConvexPolygon, reference_point: Point = None):
        self.polygon = polygon
        if reference_point is None:
            c = polygon.is_centrally_symmetric()
            if c is not None:
                reference_point = c
            else:
                # lowest-then-leftmost vertex; for a triangle with a
                # horizontal lower side this is the lower-left vertex
                reference_point = min(polygon.vertices, key=lambda p: (p.y, p.x))
        if not polygon.contains(reference_point):
            raise DegenerateInput("reference point outside body")
        self.reference_point = reference_point

    def scale_translate(self, s, t: Point):
        s = frac(s)
        poly = self.polygon.scale(s).translate(t) if s != 1 else self.polygon.translate(t)
        return PolygonBody(poly, self.reference_point * s + t)

    def contains(self, p) -> bool:
        if isinstance(p, RadPoint):
            if p.is_rational():
                p = Point(p.x.as_fraction(), p.y.as_fraction())
            else:
                return all(
                    ((n.x * p.x + n.y * p.y) - c).sign() <= 0
                    for n, c in self.polygon.halfplanes()
                )
        return self.polygon.contains(p)

    def intersects(self, other) -> bool:
        if not isinstance(other, PolygonBody):
            raise MixedKinds("polygon vs %s" % other.kind)
        return polygons_intersect(self.polygon, other.polygon)

    def bbox(self):
        return self.polygon.bounding_box()

    def measure(self) -> Fraction:
        return self.polygon.area()

    def top(self) -> Fraction:
        return max(p.y for p in self.polygon.vertices)

    def common_point(self, other) -> Point:
        pts = intersection_chain(self.polygon, other.polygon)
        if not pts:
            raise DegenerateInput("bodies are disjoint")
        return pts[0]


class DiskBody:
    kind = "disk"

    def __init__(self, center: Point, radius):
        radius = frac(radius)
        if radius <= 0:
            raise DegenerateInput("radius must be positive")
        self.center = center
        self.radius = radius
        self.reference_point = center

    def scale_translate(self, s, t: Point):
        s = frac(s)
        return DiskBody(self.center * s + t, self.radius * s)

    def contains(self, p) -> bool:
        if isinstance(p, RadPoint):
            d = dist2(p, RadPoint.of(self.center))
            return (d - self.radius * self.radius).sign() <= 0
        d = p - self.center
        return d.norm2() <= self.radius * self.radius

    def intersects(self, other) -> bool:
        if not isinstance(other, DiskBody):
            raise MixedKinds("disk vs %s" % other.kind)
        d = self.center - other.center
        rr = self.radius + other.radius
        return d.norm2() <= rr * rr

    def bbox(self):
        c, r = self.center, self.radius
        return Interval(c.x - r, c.x + r), Interval(c.y - r, c.y + r)

    def measure(self):
        # pi * r**2 is irrational; exposed as a float for reporting only
        import math

        return math.pi * float(self.radius) ** 2

    def top(self) -> Fraction:
        return self.center.y + self.radius

    def common_point(self, other) -> Point:
        if not self.intersects(other):
            raise DegenerateInput("bodies are disjoint")
        v = other.center - self.center
        if v == Point(0, 0):
            return self.center
        # the point of [c1, c2] at distance min(r1, |c1c2|) from c1 lies in both
        n2 = v.norm2()
        rr = self.radius * self.radius
        if n2 <= rr:
            return other.center
        # walk from the boundary of self toward other: midpoint of the
        # overlap interval along the center line, computed with the exact
        # fraction r1/(r1+r2) which lies in both disks when they intersect
        return self.center + v * (self.radius / (self.radius + other.radius))


class BoxBody:
    kind = "box"

    def __init__(self, mins, sides):
        self.mins = tuple(frac(v) for v in mins)
        self.sides = tuple(frac(v) for v in sides)
        if len(self.mins) != len(self.sides) or len(self.mins) < 2:
            raise DegenerateInput("box needs matching dim >= 2")
        if any(s <= 0 for s in self.sides):
            raise DegenerateInput("box sides must be positive")
        self.dim = len(self.mins)
        self.reference_point = self.mins

    def scale_translate(self, s, t):
        s = frac(s)
        t = tuple(frac(v) for v in t)
        return BoxBody(
            tuple(m * s + tv for m, tv in zip(self.mins, t)),
            tuple(side * s for side in self.sides),
        )

    def contains(self, p) -> bool:
        return all(m <= frac(v) <= m + s for v, m, s in zip(p, self.mins, self.sides))

    def intersects(self, other) -> bool:
        if not isinstance(other, BoxBody):
            raise MixedKinds("box vs %s" % other.kind)
        return all(
            m1 <= m2 + s2 and m2 <= m1 + s1
            for m1, s1, m2, s2 in zip(self.mins, self.sides, other.mins, other.sides)
        )

    def bbox(self):
        return tuple(Interval(m, m + s) for m, s in zip(self.mins, self.sides))

    def measure(self) -> Fraction:
        out = Fraction(1)
        for s in self.sides:
            out *= s
        return out

    def top(self) -> Fraction:
        return self.mins[-1] + self.sides[-1]

    def common_point(self, other):
        if not self.intersects(other):
            raise DegenerateInput("bodies are disjoint")
        return tuple(
            max(m1, m2)
            for m1, m2 in zip(self.mins, other.mins)
        )


class Member:
    """One family member: a translation vector and a positive scale."""

    __slots__ = ("t", "s")

    def __init__(self, t, s=1):
        self.t = t
        self.s = frac(s)
        if self.s <= 0:
            raise DegenerateInput("scale must be positive")

    def __repr__(self):
        return "Member(%r, %s)" % (self.t, self.s)


class Family:
    """A base convex body plus translate/homothet members."""

    def __init__(self, base, members, kind="translates"):
        if kind not in ("translates", "homothets"):
            raise DegenerateInput("unknown family kind %r" % kind)
        if not members:
            raise DegenerateInput("family must be nonempty")
        if kind == "translates" and any(m.s != 1 for m in members):
            raise DegenerateInput("translate families require scale 1")
        self.base = base
        self.members = list(members)
        self.kind = kind
        self._realized = [None] * len(members)
        self._scaled = None
        self._slabs = None

    def __len__(self):
        return len(self.members)

    def dim(self):
        return self.base.dim if self.base.kind == "box" else 2

    def realize(self, i):
        body = self._realized[i]
        if body is None:
            m = self.members[i]
            body = self.base.scale_translate(m.s, m.t)
            self._realized[i] = body
        return body

    def bodies(self):
        return [self.realize(i) for i in range(len(self))]

    def intersects(self, i, j) -> bool:
        return self.realize(i).intersects(self.realize(j))

    def scaled_translations(self):
        """(D, cols, S) with cols[k][i] = D * t_i[k], one list per axis, and
        S[i] = D * s_i, so member i is (S_i C + T_i) / D.

        D is the lcm of the translation and scale denominators and the
        columns hold ints; when D would need more than MAX_SCALE_BITS bits,
        D is 1 and the columns hold the Fractions themselves.  Computed once
        per family.
        """
        if self._scaled is None:
            self._scaled = _scale_translations(self)
        return self._scaled

    def slabs(self):
        """(forms, lo, hi) for a polygon or box family: member i is the set
        of points p with lo[i][k] <= forms[k] . p <= hi[i][k] for every k.

        The forms are int vectors and the bounds are ints (Fractions over
        MAX_SCALE_BITS), one slab per edge direction of a polygon base and
        one per axis of a box.  Computed once per family.
        """
        if self._slabs is None:
            self._slabs = _member_slabs(self)
        return self._slabs


def _translation_columns(f: Family):
    if f.base.kind == "box":
        return [list(col) for col in zip(*(m.t for m in f.members))]
    return [[m.t.x for m in f.members], [m.t.y for m in f.members]]


def _scale_translations(f: Family):
    cols = _translation_columns(f)
    homothets = f.kind == "homothets"
    if homothets:
        cols.append([m.s for m in f.members])
    D = 1
    for d in {v.denominator for col in cols for v in col}:
        D = math.lcm(D, d)
        if D.bit_length() > MAX_SCALE_BITS:
            D = 1
            break
    else:
        cols = [[v.numerator * (D // v.denominator) for v in col] for col in cols]
    if homothets:
        return D, cols[:-1], cols[-1]
    return D, cols, [D] * len(f)  # every translate has s = 1


def _base_slabs(base):
    """(w, lo, hi) per slab of the base: a primitive int vector w and the
    extent [lo, hi] of w . p over the base.  Polygons take one w per edge
    direction (the slabs' intersection is the polygon, and the edges of
    s C - s' C have no other directions), boxes the unit vectors."""
    if base.kind == "box":
        return [(tuple(int(a == k) for a in range(base.dim)), m, m + side)
                for k, (m, side) in enumerate(zip(base.mins, base.sides))]
    out = []
    for a, b in base.polygon.edges():
        n = b - a
        L = math.lcm(n.x.denominator, n.y.denominator)
        wx, wy = int(n.y * L), -int(n.x * L)
        g = math.gcd(wx, wy)
        w = (wx // g, wy // g) if (wx, wy) > (0, 0) else (-wx // g, -wy // g)
        if any(w == row[0] for row in out):
            continue
        vals = [w[0] * v.x + w[1] * v.y for v in base.polygon.vertices]
        out.append((w, min(vals), max(vals)))
    return out


def _member_slabs(f: Family):
    # D (w . p) over member i spans [S_i lo + w . T_i, S_i hi + w . T_i];
    # each slab is multiplied by the lcm L of its extent's denominators
    D, cols, S = f.scaled_translations()
    forms, los, his = [], [], []
    for w, lo, hi in _base_slabs(f.base):
        L = math.lcm(lo.denominator, hi.denominator)
        lo, hi = int(lo * L), int(hi * L)
        lw = [c * L for c in w]
        forms.append(tuple(c * D for c in lw))
        wt = [0] * len(S)
        for c, col in zip(lw, cols):
            if c:
                wt = [a + c * v for a, v in zip(wt, col)]
        los.append([lo * s + v for s, v in zip(S, wt)])
        his.append([hi * s + v for s, v in zip(S, wt)])
    return forms, list(zip(*los)), list(zip(*his))


def neighbor_index(f: Family):
    """candidates(i): the members j != i whose bodies may meet member i.

    Only prunes: the candidates include every true neighbour and callers
    test each one exactly.  Translate families are bucketed by their scaled
    translations (Family.scaled_translations) on a grid whose cell is the
    base's widest bounding-box side times D, so members that meet sit in
    adjacent cells.  Homothet families use a grid over float bounding boxes
    padded past any conversion error; pair_checker then decides each
    candidate on the scaled ints.
    """
    if f.kind != "translates":
        return _bbox_grid(f)
    D, cols, _ = f.scaled_translations()
    cell = max(iv.length() for iv in f.base.bbox()) * D
    # one int key per member: the cell coordinates in mixed radix, each
    # digit kept off its range ends so that the +-1 steps never carry
    keys = [0] * len(f)
    steps = [0]
    stride = 1
    for col in cols:
        digits = [v * cell.denominator // cell.numerator for v in col]
        lo = min(digits) - 1
        keys = [k + (d - lo) * stride for k, d in zip(keys, digits)]
        steps = [s + d * stride for s in steps for d in (-1, 0, 1)]
        stride *= max(digits) - lo + 2
    grid = {}
    for i, key in enumerate(keys):
        grid.setdefault(key, []).append(i)

    def candidates(i):
        key = keys[i]
        out = []
        for step in steps:
            out.extend(grid.get(key + step, ()))
        out.remove(i)
        return out

    return candidates


def _bbox_grid(f: Family):
    # each float bound is within a few ulps of the exact s * C + t one
    base = [(float(iv.lo), float(iv.hi)) for iv in f.base.bbox()]
    boxes = []
    for m in f.members:
        s = float(m.s)
        t = m.t if isinstance(m.t, tuple) else (m.t.x, m.t.y)
        span = [(lo * s + float(v), hi * s + float(v)) for (lo, hi), v in zip(base, t)]
        boxes.append(tuple([lo for lo, _ in span] + [hi for _, hi in span]))
    # the pad dominates the float error, so exactly overlapping boxes overlap
    pad = 1e-9 * max(1.0, max(abs(v) for b in boxes for v in b)) + 1e-12
    dim = len(boxes[0]) // 2
    cell = statistics.median(max(b[dim + k] - b[k] for k in range(dim)) for b in boxes) or 1.0
    grid = {}
    spans = []
    for i, b in enumerate(boxes):
        span = [range(math.floor((b[k] - pad) / cell), math.floor((b[dim + k] + pad) / cell) + 1)
                for k in range(dim)]
        spans.append(span)
        for key in itertools.product(*span):
            grid.setdefault(key, []).append(i)

    def candidates(i):
        near = set()
        for key in itertools.product(*spans[i]):
            near.update(grid[key])
        near.discard(i)
        bi = boxes[i]
        return [j for j in near
                if all(bi[k] <= boxes[j][dim + k] + pad and boxes[j][k] <= bi[dim + k] + pad
                       for k in range(dim))]

    return candidates


def pair_checker(f: Family):
    """Exact pairwise-intersection test check(i, j), with no float.

    Decided on the scaled columns of Family.scaled_translations(), where
    member i is (S_i C + T_i) / D.  Polygons and boxes meet iff their slabs
    (Family.slabs) overlap on every slab: for a polygon that is
    n . (T_i - T_j) <= S_j h_C(n) + S_i h_C(-n) over the edge normals n of C
    and -C, the edge normals of S_j C - S_i C.  Disks with centre c and
    radius r meet iff |(S_i - S_j) c + T_i - T_j| <= r (S_i + S_j), cleared
    of denominators: for translates S_i = S_j and the columns T serve as
    they are; for homothets the scaled centres and radii are computed once
    per member.  A pair costs three multiplies either way.  Over
    MAX_SCALE_BITS the same tests run on Fractions.
    """
    base = f.base
    if base.kind != "disk":
        _, lo, hi = f.slabs()

        def check(i, j):
            return all(map(le, lo[i], hi[j])) and all(map(le, lo[j], hi[i]))

        return check
    D, (xs, ys), S = f.scaled_translations()
    p, q = base.radius.numerator, base.radius.denominator
    if f.kind == "translates":
        # S_i = S_j = D: the centre term vanishes and the reach is 2 r D
        qq, reach = q * q, (2 * p * D) ** 2

        def check(i, j):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            return qq * (dx * dx + dy * dy) <= reach

        return check
    # L times the scaled centres S c + T and radii S r
    c = base.center
    L = math.lcm(c.x.denominator, c.y.denominator, q)
    ax, ay, b = int(c.x * L), int(c.y * L), p * (L // q)
    us = [ax * s + L * x for s, x in zip(S, xs)]
    vs = [ay * s + L * y for s, y in zip(S, ys)]
    rs = [b * s for s in S]

    def check(i, j):
        dx = us[i] - us[j]
        dy = vs[i] - vs[j]
        reach = rs[i] + rs[j]
        return dx * dx + dy * dy <= reach * reach

    return check


def intersection_graph(f: Family):
    """Adjacency sets over member indices; edge iff the closed bodies meet.

    Candidate pairs come from neighbor_index, so bounded-density inputs
    cost O(n + edges) expected; pair_checker decides each one exactly."""
    n = len(f)
    adj = [set() for _ in range(n)]
    if n <= 1:
        return adj
    candidates = neighbor_index(f)
    check = pair_checker(f)
    for i in range(n):
        for j in candidates(i):
            if j > i and check(i, j):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def pairwise_disjoint(f: Family) -> bool:
    """True when no two members meet: intersection_graph's candidates and
    exact test, stopping at the first meeting pair and keeping no graph."""
    candidates = neighbor_index(f)
    check = pair_checker(f)
    return not any(check(i, j) for i in range(len(f)) for j in candidates(i) if j > i)


def intersection_graph_bruteforce(f: Family):
    n = len(f)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if f.intersects(i, j):
                adj[i].add(j)
                adj[j].add(i)
    return adj


def graphs_equal(a, b) -> bool:
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


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
        from .radicals import sqrt_exact

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
            f.base.polygon.linear_map(m.a, m.b, m.c, m.d),
            m.apply_vector(f.base.reference_point),
        )
        members = [Member(m.apply_point(mem.t), mem.s) for mem in f.members]
        return Family(base, members, f.kind)
    if f.base.kind == "disk":
        scale = m.is_similarity()
        if scale is None:
            raise DisksNotClosedUnderAffine(
                "disks only admit similarity maps with rational scale"
            )
        base = DiskBody(m.apply_vector(f.base.center), f.base.radius * scale)
        members = [Member(m.apply_point(mem.t), mem.s) for mem in f.members]
        return Family(base, members, f.kind)
    raise SingularMap("affine maps are supported for polygon and disk families")
