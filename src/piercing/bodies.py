"""Convex bodies, families of translates/homothets, intersection graphs.

A member body is s*C + t: the base scaled about the origin, then translated.
All coordinates are exact rationals; disks admit radical (sqrt) query points
for containment because some disk constructions need them.

The integer kernel: a family is scaled once by the lcm D of its translation
and scale denominators (Family.scaled_translations), so member i is
(S_i C + T_i) / D with int columns T and S.  Pair tests (pair_checker), the
pair grid (neighbor_index) and the homothet/topmost orders run on these
ints, and polygon and box members are slabs lo <= w.p <= hi with int bounds
(Family.slabs).  Point membership is decided here too, for certificate
checks and for the oracle's coverage masks alike: a point becomes ints
(A + B sqrt(m)) / q once (int_point), and membership tests it against a
member's slabs, or a disk member by the exact sign of P + Q sqrt(m).  The
members' scaled bounding boxes (box_columns) are int too, and one exact
grid per power-of-two scale class of the members (scale_classes) gives
the pair candidates (neighbor_index) and, in certificates, the points a
member tests.  Over MAX_SCALE_BITS the same code runs on Fractions with
D = 1.
"""

from fractions import Fraction
import math
from operator import le, mul

from .errors import (
    DegenerateInput,
    DisksNotClosedUnderAffine,
    MixedKinds,
    SingularMap,
)
from .geom import ConvexPolygon, Interval, Point, frac, polygons_intersect
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
            return all(((n.x * p.x + n.y * p.y) - c).sign() <= 0
                       for n, c in self.polygon.halfplanes())
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
        return math.pi * float(self.radius) ** 2

    def top(self) -> Fraction:
        return self.center.y + self.radius


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


class Member:
    """One family member: a translation vector and a positive scale."""

    __slots__ = ("t", "s")

    def __init__(self, t, s=1):
        self.t = t
        self.s = frac(s)
        if self.s.numerator <= 0:
            raise DegenerateInput("scale must be positive")

    def __repr__(self):
        return "Member(%r, %s)" % (self.t, self.s)


class Family:
    """A base convex body plus translate/homothet members, held as columns.

    columns[k][i] is coordinate k of member i's translation (one list per
    axis: two for a polygon or disk base, dim for a box) and scales[i] its
    scale, exact rationals.  The Member objects (members) are derived from
    the columns on first access; the greedies, the verifier and the JSON
    codec work on the columns and their scaled ints alone.
    """

    def __init__(self, base, members, kind="translates"):
        """members: Member objects, whose translations and scales become
        the columns."""
        members = list(members)
        if base.kind == "box":
            columns = [list(col) for col in zip(*(m.t for m in members))]
        else:
            columns = [[m.t.x for m in members], [m.t.y for m in members]]
        self._setup(base, columns, [m.s for m in members], kind)

    @classmethod
    def from_columns(cls, base, columns, scales, kind="translates", scaled=None):
        """The family whose member i has translation coordinates
        columns[k][i] and scale scales[i] (Fractions).  scaled, when given,
        is its scaled_translations() triple."""
        f = cls.__new__(cls)
        f._setup(base, columns, scales, kind)
        f._scaled = scaled
        return f

    def _setup(self, base, columns, scales, kind):
        if kind not in ("translates", "homothets"):
            raise DegenerateInput("unknown family kind %r" % kind)
        if not scales:
            raise DegenerateInput("family must be nonempty")
        # each distinct scale object is checked once
        distinct = dict(zip(map(id, scales), scales)).values()
        if any(s.numerator <= 0 for s in distinct):
            raise DegenerateInput("scale must be positive")
        if kind == "translates" and any(s != 1 for s in distinct):
            raise DegenerateInput("translate families require scale 1")
        self.base = base
        self.columns = columns
        self.scales = scales
        self.kind = kind
        self._members = None
        self._realized = {}
        self._scaled = None
        self._slabs = None

    def __len__(self):
        return len(self.scales)

    def dim(self):
        return self.base.dim if self.base.kind == "box" else 2

    def translation(self, i):
        """Member i's translation: a tuple for a box base, else a Point."""
        t = tuple(col[i] for col in self.columns)
        return t if self.base.kind == "box" else Point(*t)

    @property
    def members(self):
        """The Member of each index, built from the columns on first access."""
        if self._members is None:
            self._members = [Member(self.translation(i), s) for i, s in enumerate(self.scales)]
        return self._members

    def subfamily(self, indices):
        """The family of the members in indices, in that order.  It takes
        this family's scaled columns (scaled_translations), as any common
        denominator D scales exactly, and its slab rows once computed."""
        indices = list(indices)

        def pick(col):
            return [col[i] for i in indices]

        D, cols, S = self.scaled_translations()
        sub = Family.from_columns(self.base, [pick(col) for col in self.columns],
                                  pick(self.scales), self.kind,
                                  (D, [pick(col) for col in cols], pick(S)))
        if self._slabs:
            forms, lo, hi = self._slabs
            sub._slabs = forms, pick(lo), pick(hi)
        return sub

    def realize(self, i):
        body = self._realized.get(i)
        if body is None:
            body = self._realized[i] = self.base.scale_translate(self.scales[i],
                                                                 self.translation(i))
        return body

    def intersects(self, i, j) -> bool:
        return self.realize(i).intersects(self.realize(j))

    def scaled_translations(self):
        """(D, cols, S) with cols[k][i] = D * t_i[k], one list per axis, and
        S[i] = D * s_i, so member i is (S_i C + T_i) / D.

        D is the lcm of the translation and scale denominators and the
        columns hold ints; when D would need more than MAX_SCALE_BITS bits,
        D is 1 and the columns hold the Fractions themselves.  Computed once
        per family (jsonio's reader fills it in as it parses).
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


def scale_table(values):
    """(D, scaled) for a dict of Fractions: D is the lcm of their
    denominators and scaled[k] = D * values[k], an int; when D would need
    more than MAX_SCALE_BITS bits, D is 1 and scaled is values."""
    D = 1
    for d in {v.denominator for v in values.values()}:
        D = math.lcm(D, d)
        if D.bit_length() > MAX_SCALE_BITS:
            return 1, values
    return D, {k: v.numerator * (D // v.denominator) for k, v in values.items()}


def _scale_translations(f: Family):
    # once per distinct value object: where members share their Fractions,
    # as random_family's do, a member costs one dict lookup
    cols = list(f.columns)
    homothets = f.kind == "homothets"
    if homothets:
        cols.append(f.scales)
    distinct = {}
    for col in cols:
        distinct.update(zip(map(id, col), col))
    D, scaled = scale_table(distinct)
    cols = [list(map(scaled.__getitem__, map(id, col))) for col in cols]
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


def box_columns(f: Family, indices):
    """(scale, ss, lo_cols, sides), the frame of member_boxes: scale = L D,
    L clearing the denominators of the base's bounding box B; ss holds the
    scales S_i of the members in indices, lo_cols per axis the low bounds
    S_i L B_lo + L T_i of their boxes, and sides the sides of L B, so a box
    has high bounds lo + S_i side: ints, or Fractions over MAX_SCALE_BITS."""
    D, cols, S = f.scaled_translations()
    bbox = f.base.bbox()
    L = math.lcm(*[v.denominator for iv in bbox for v in (iv.lo, iv.hi)])
    ss = [S[i] for i in indices]
    lo_cols = [[a * s + L * col[i] for s, i in zip(ss, indices)]
               for a, col in zip([int(iv.lo * L) for iv in bbox], cols)]
    return L * D, ss, lo_cols, [int(iv.length() * L) for iv in bbox]


def member_boxes(f: Family, indices):
    """(scale, boxes): the bounding box of each member in indices times
    scale, as (lo, hi) tuples with one bound per axis (box_columns)."""
    scale, ss, lo_cols, sides = box_columns(f, indices)
    hi_cols = [[v + s * w for v, s in zip(col, ss)] for col, w in zip(lo_cols, sides)]
    return scale, list(zip(zip(*lo_cols), zip(*hi_cols)))


def scale_classes(ss, unit):
    """(classes, cells): the class of each scale s, the least k >= 0 with
    s <= 2^(k+1) s_min, decided exactly, and per occupied class its cell,
    unit times its largest scale.  With the widest side of box_columns as
    unit, no box is wider than the cell of its class or of a coarser one."""
    smin = min(ss, default=1)
    of, cells = {}, {}
    for s in set(ss):
        a, b = s.numerator * smin.denominator, s.denominator * smin.numerator
        k = a.bit_length() - b.bit_length()
        of[s] = k = max(k - (a <= b << k), 0)
        cells[k] = max(cells.get(k, 0), unit * s)
    return [of[s] for s in ss], cells


def _grid_keys(cols, cell):
    """(keys, steps): each row's cell floor(v / cell) as one int in mixed
    radix, digits kept off their range ends so that no +-1 step carries."""
    keys = [0] * len(cols[0])
    steps = [0]
    stride = 1
    for col in cols:
        digits = [v * cell.denominator // cell.numerator for v in col]
        lo = min(digits) - 1
        keys = [k + (d - lo) * stride for k, d in zip(keys, digits)]
        steps = [s + d * stride for s in steps for d in (-1, 0, 1)]
        stride *= max(digits) - lo + 2
    return keys, steps


def neighbor_index(f: Family):
    """candidates(i): the members j != i whose bodies may meet member i,
    each once.  Only prunes; callers test each candidate exactly.

    A family of one scale (every translate family) is keyed by the cells of
    its scaled translations on one grid, any other by the cells of its
    members' low box corners (box_columns) at their scale class
    (scale_classes).  Each class has a grid of the members of it or finer
    and, when a finer class exists, one of its own members; member i looks
    up the 3^d cells around it in the first at its class and in the second
    at each coarser class: boxes that meet have low corners in adjacent
    cells of the coarser one's class.
    """
    _, cols, S = f.scaled_translations()
    n = len(f)
    if S.count(S[0]) == n:
        cls, cells = [0] * n, {0: max(iv.length() for iv in f.base.bbox()) * S[0]}
    else:
        _, S, cols, sides = box_columns(f, range(n))
        cls, cells = scale_classes(S, max(sides))
    reach = {k: [] for k in cells}  # per class, the (keys, steps, grid) its members look up
    for k in sorted(cells):
        keys, steps = _grid_keys(cols, cells[k])
        fine, own = {}, {}
        for i, (key, c) in enumerate(zip(keys, cls)):
            if c <= k:
                fine.setdefault(key, []).append(i)
                if c == k > 0:  # class 0 is the finest: no class looks up its own members
                    own.setdefault(key, []).append(i)
        for c in reach:
            if c <= k:
                reach[c].append((keys, steps, fine if c == k else own))

    def candidates(i):
        out = []
        for keys, steps, grid in reach[cls[i]]:
            key = keys[i]
            for step in steps:
                out.extend(grid.get(key + step, ()))
        out.remove(i)
        return out

    return candidates


def disk_columns(base, D, cols, S):
    """(L D, us, vs, rs): with scaled columns (D, cols, S), disk member i
    has centre (us[i], vs[i]) / (L D) and radius rs[i] / (L D)."""
    c, r = base.center, base.radius
    L = math.lcm(c.x.denominator, c.y.denominator, r.denominator)
    cx, cy, cr = [v.numerator * (L // v.denominator) for v in (c.x, c.y, r)]
    return (L * D, [cx * s + L * x for s, x in zip(S, cols[0])],
            [cy * s + L * y for s, y in zip(S, cols[1])], [cr * s for s in S])


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
    _, us, vs, rs = disk_columns(base, D, (xs, ys), S)

    def check(i, j):
        dx = us[i] - us[j]
        dy = vs[i] - vs[j]
        reach = rs[i] + rs[j]
        return dx * dx + dy * dy <= reach * reach

    return check


def int_point(p):
    """(q, m, A, B): coordinate k of p is (A[k] + B[k] sqrt(m)) / q, with
    ints (B is None for a rational point), or None when p has more than
    one radicand, which only hand-written files carry.  p is a Point, a
    RadPoint or a box tuple."""
    if isinstance(p, RadPoint):
        terms = (p.x.terms, p.y.terms)
        roots = terms[0].keys() | terms[1].keys()
        roots.discard(1)
        if len(roots) > 1:
            return None
        if roots:
            m = roots.pop()
            parts = [(t.get(1, 0), t.get(m, 0)) for t in terms]
            q = math.lcm(*[v.denominator for part in parts for v in part])
            A, B = zip(*[[v.numerator * (q // v.denominator) for v in part] for part in parts])
            return q, m, A, B
        p = tuple(t.get(1, 0) for t in terms)
    coords = p if isinstance(p, tuple) else (p.x, p.y)
    q = math.lcm(*[v.denominator for v in coords])
    return q, 1, [v.numerator * (q // v.denominator) for v in coords], None


def membership(f: Family, ipts):
    """member(i) -> test(k): whether member i contains the point whose
    int_point entry is ipts[k], decided on ints; None where that entry is
    None, or is irrational in a polygon or box family.  Callers decide a
    None on the realized member (f.realize(i).contains).

    Polygons and boxes decide on the family's slabs (Family.slabs): A/q
    lies in member i iff q lo <= form . A <= q hi on every slab.  A disk
    member has centre (U, V) and radius R over L D, as in pair_checker;
    with X = L D A_x - q U and Y = L D A_y - q V the point lies in it iff
    P + Q sqrt(m) <= 0 for P = X^2 + Y^2 + m (L D)^2 (B_x^2 + B_y^2) - (q R)^2
    and Q = 2 L D (X B_x + Y B_y): P^2 against m Q^2 where signs differ.
    """
    base = f.base
    if base.kind != "disk":
        forms, lo, hi = f.slabs()
        exact = [None if e is None or e[3] is not None
                 else (e[0], [sum(map(mul, w, e[2])) for w in forms]) for e in ipts]

        def member(i):
            li, hi_ = lo[i], hi[i]

            def test(k):
                e = exact[k]
                if e is None:
                    return None
                q, us = e
                return all(q * a <= u <= q * b for a, u, b in zip(li, us, hi_))

            return test

        return member
    c, r = base.center, base.radius
    L = math.lcm(c.x.denominator, c.y.denominator, r.denominator)
    cx, cy, cr = [v.numerator * (L // v.denominator) for v in (c.x, c.y, r)]
    D, (xs, ys), S = f.scaled_translations()
    LD = L * D
    pts = []
    for e in ipts:
        if e is not None:
            q, m, (ax, ay), B = e
            bx, by = (0, 0) if B is None else (B[0] * LD, B[1] * LD)
            e = q, m, ax * LD, ay * LD, bx, by, m * (bx * bx + by * by)
        pts.append(e)

    def member(i):
        s = S[i]
        u, v, R = cx * s + L * xs[i], cy * s + L * ys[i], cr * s

        def test(k):
            e = pts[k]
            if e is None:
                return None
            q, m, ax, ay, bx, by, mbb = e
            X = ax - q * u
            Y = ay - q * v
            qR = q * R
            P = X * X + Y * Y + mbb - qR * qR
            Q = 2 * (X * bx + Y * by)
            if Q >= 0:
                return P <= 0 and m * Q * Q <= P * P
            return P <= 0 or P * P <= m * Q * Q

        return test

    return member


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
