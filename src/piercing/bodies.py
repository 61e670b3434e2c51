"""Convex bodies, families of translates/homothets, intersection graphs.

A member body is s*C + t: the base scaled about the origin, then translated.
All coordinates are exact rationals; query points are radicals.RadPoints,
ints (A + B sqrt(m)) / q with one radicand m shared by the coordinates,
because some disk constructions need it.

The integer kernel: a family is held only as its translations and scales
times the lcm D of their denominators (Family.scaled_translations), so
member i is (S_i C + T_i) / D with int columns T and S.  Pair tests
(pair_checker), the pair grid (neighbor_index) and the homothet/topmost
orders run on these ints, and polygon and box members are slabs
lo <= w.p <= hi with int bounds (Family.slabs).  Point membership is
decided here too, and only here: membership tests a RadPoint's ints by
exact signs of P + Q sqrt(m) against a member's slabs or a disk member;
coverage, for the oracle's masks, bisects all members one slab at a time
on rational points.  The
members' scaled bounding boxes (box_columns) are int too, and one exact
grid per power-of-two scale class of the members (scale_classes) gives the
pair candidates (neighbor_index) and, in certificates, the points a member
tests.  Over MAX_SCALE_BITS the same code runs on Fractions with D = 1.
What these derive from the base body C alone (its centre, slabs, box, disk
and int vertices) is its Frame, built once per body object.
"""

from bisect import bisect_right
from contextlib import contextmanager
from fractions import Fraction
from functools import cached_property
import gc
from itertools import accumulate, chain
import math
from operator import le, mul, or_

from .errors import DegenerateInput
from .geom import ConvexPolygon, Interval, Point, _centre, _hom, _planes, _scaled, frac

# A family whose common translation and scale denominator D needs more bits
# than this keeps its translations and scales as Fractions (D = 1):
# adversarial denominators make the scaled integers, and their squares in
# the disk test, huge.  random_family needs 5 (translations over 32, scales
# over 8).
MAX_SCALE_BITS = 128


class Frame:
    """What the layers derive from a base body C, each field built on its
    first read and kept (cached_property): body.frame, one per body object.
    Keeping them is sound because a body is never changed after its
    constructor; scale_translate and the JSON reader make new bodies, each
    with a frame of its own.

    scaled: a polygon's vertices as ints over d, (d, ((X, Y), ...))
    (geom._scaled).  low: the index of a polygon's lowest-then-leftmost
    vertex.  centre: C's centre of symmetry (None for a polygon without
    one); anchor: the point pattern offsets are relative to, the centre,
    else the vertex at low.  vertices and
    planes: a polygon's homogeneous int vertices (geom._hom) and edge
    halfplanes (geom._planes), for member_polygons.  slabs: _base_slabs,
    for Family.slabs.  box: (L, lows, sides), C's bounding box times the lcm
    L of its denominators.  disk: (L, cx, cy, cr), centre and radius over L.
    key: the pattern cache's key (covers._cached), ints equal for two
    bodies of one kind iff they are, but for disks, whose patterns depend
    on the radius alone and whose key is the radius's (p, q)."""

    def __init__(self, base):
        self.base = base

    @cached_property
    def scaled(self):
        return _scaled(self.base.polygon.vertices)

    @cached_property
    def low(self):
        xy = self.scaled[1]
        return min(range(len(xy)), key=lambda k: xy[k][::-1])

    @cached_property
    def centre(self):
        b = self.base
        if b.kind == "box":
            return tuple(m + s / 2 for m, s in zip(b.mins, b.sides))
        return b.center if b.kind == "disk" else _centre(*self.scaled)

    @cached_property
    def anchor(self):
        c = self.centre
        return c if c is not None else self.base.polygon.vertices[self.low]

    @cached_property
    def vertices(self):
        return list(map(_hom, self.base.polygon.vertices))

    @cached_property
    def planes(self):
        return _planes(self.base.polygon)

    @cached_property
    def slabs(self):
        return _base_slabs(self.base)

    @cached_property
    def box(self):
        bbox = self.base.bbox()
        L = math.lcm(*[v.denominator for iv in bbox for v in (iv.lo, iv.hi)])
        return L, tuple(int(iv.lo * L) for iv in bbox), tuple(int(iv.length() * L) for iv in bbox)

    @cached_property
    def disk(self):
        c, r = self.base.center, self.base.radius
        L = math.lcm(c.x.denominator, c.y.denominator, r.denominator)
        return (L, *[v.numerator * (L // v.denominator) for v in (c.x, c.y, r)])

    @cached_property
    def key(self):
        kind = self.base.kind
        if kind == "disk":
            return self.base.radius.as_integer_ratio()
        return self.scaled if kind == "polygon" else self.box


class PolygonBody:
    kind = "polygon"
    frame = cached_property(Frame)

    def __init__(self, polygon: ConvexPolygon, reference_point: Point = None):
        self.polygon = polygon
        if reference_point is None:
            reference_point = self.frame.anchor
        elif not polygon.contains(reference_point):
            raise DegenerateInput("reference point outside body")
        self.reference_point = reference_point

    def scale_translate(self, s, t: Point):
        s = frac(s)
        poly = self.polygon.scale(s).translate(t) if s != 1 else self.polygon.translate(t)
        return PolygonBody(poly, self.reference_point * s + t)

    def bbox(self):
        return self.polygon.bounding_box()


class DiskBody:
    kind = "disk"
    frame = cached_property(Frame)

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

    def bbox(self):
        c, r = self.center, self.radius
        return Interval(c.x - r, c.x + r), Interval(c.y - r, c.y + r)


class BoxBody:
    kind = "box"
    frame = cached_property(Frame)

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

    def bbox(self):
        return tuple(Interval(m, m + s) for m, s in zip(self.mins, self.sides))


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
    """A base convex body plus translate/homothet members, held only as
    their scaled columns (scaled_translations), which the greedies, the
    grid, the oracle, the verifier and the JSON codec work on.  A member's
    translation and scale become Fractions only on demand (translation,
    realize)."""

    def __init__(self, base, members, kind="translates"):
        """members: Member objects, whose scales Member checked positive.  D
        is the lcm of their translation denominators, and of their scale
        denominators for homothets (scale_table)."""
        members = list(members)
        ss = [m.s for m in members]
        # each distinct scale object is checked once
        if kind == "translates" and any(s != 1 for s in {id(s): s for s in ss}.values()):
            raise DegenerateInput("translate families require scale 1")
        ts = [m.t if base.kind == "box" else (m.t.x, m.t.y) for m in members]
        cols = list(map(list, zip(*ts))) + [ss] * (kind == "homothets")
        # once per distinct value object: members that share their values
        # cost one dict lookup each
        values = {id(v): v for col in cols for v in col}
        D, scaled = scale_table({k: (v.numerator, v.denominator) for k, v in values.items()})
        cols = [[scaled[id(v)] for v in col] for col in cols]
        S = cols.pop() if kind == "homothets" else [D] * len(members)
        self._setup(base, kind, (D, cols, S))

    @classmethod
    def from_scaled(cls, base, scaled, kind="translates"):
        """The family whose scaled_translations() triple is scaled =
        (D, cols, S): member i has translation coordinates cols[k][i] / D
        and scale S[i] / D.  The scales are taken as checked: positive, and
        S[i] = D for translates."""
        f = cls.__new__(cls)
        f._setup(base, kind, scaled)
        return f

    def _setup(self, base, kind, scaled):
        if kind not in ("translates", "homothets"):
            raise DegenerateInput("unknown family kind %r" % kind)
        if not scaled[2]:
            raise DegenerateInput("family must be nonempty")
        self.base = base
        self.kind = kind
        self._n = len(scaled[2])
        self._scaled = scaled
        self._realized = {}
        self._slabs = None

    def __len__(self):
        return self._n

    def translation(self, i):
        """Member i's translation, cols[k][i] / D: a box tuple or a Point."""
        D, cols, _ = self._scaled
        t = tuple(Fraction(col[i], D) for col in cols)
        return t if self.base.kind == "box" else Point(*t)

    def subfamily(self, indices):
        """The family of the members in indices, in that order, built from
        this family's scaled columns (scaled_translations), as any common
        denominator D scales exactly; it takes the slab rows once computed."""
        indices = list(indices)

        def pick(col):
            return [col[i] for i in indices]

        D, cols, S = self.scaled_translations()
        # a translate family's S is D throughout
        S = pick(S) if self.kind == "homothets" else [D] * len(indices)
        sub = Family.from_scaled(self.base, (D, [pick(col) for col in cols], S), self.kind)
        if self._slabs:
            forms, lo, hi = self._slabs
            sub._slabs = forms, pick(lo), pick(hi)
        return sub

    def realize(self, i):
        body = self._realized.get(i)
        if body is None:
            D, _, S = self._scaled
            body = self._realized[i] = self.base.scale_translate(Fraction(S[i], D),
                                                                 self.translation(i))
        return body

    def scaled_translations(self):
        """(D, cols, S) with cols[k][i] = D * t_i[k], one list per axis (two
        for a polygon or disk base, dim for a box), and S[i] = D * s_i, so
        member i is (S_i C + T_i) / D.

        D is the lcm of the translation and scale denominators and the
        columns hold ints; when D would need more than MAX_SCALE_BITS bits,
        D is 1 and the columns hold the Fractions themselves.
        """
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


@contextmanager
def collector_paused():
    """Hold the cyclic garbage collector off for a pass over a whole family
    (usable as a decorator).  The greedy and the certificate check build
    lists, tuples and dicts of ints in proportion to the family, which
    reference counting frees; none forms a cycle, so a collector pass has
    nothing to free, and each full pass walks the whole heap of the process,
    not just the family.  A collector already off is left off."""
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def scale_table(pairs):
    """(D, scaled) for a dict of int pairs (p, q), q > 0: D is the lcm
    of the qs and scaled[k] = p D / q, an int; when D would need more than
    MAX_SCALE_BITS bits, D is 1 and scaled[k] is the Fraction p / q."""
    D = 1
    for q in {q for _, q in pairs.values()}:
        D = math.lcm(D, q)
        if D.bit_length() > MAX_SCALE_BITS:
            return 1, {k: Fraction(p, q) for k, (p, q) in pairs.items()}
    return D, {k: p * (D // q) for k, (p, q) in pairs.items()}


def _base_slabs(base):
    """(L w, L lo, L hi) per slab of the base, all ints: a primitive int
    vector w, the extent [lo, hi] of w . p over the base, and the lcm L of
    their denominators, found on the scaled vertices of Frame.scaled (whose
    slabs field this is).  Polygons take one w per edge direction (the
    slabs' intersection is the polygon, and the edges of s C - s' C have no
    other directions), boxes unit vectors."""
    out, seen = [], set()
    if base.kind == "box":
        for k, (lo, side) in enumerate(zip(base.mins, base.sides)):
            L = math.lcm(lo.denominator, (lo + side).denominator)
            out.append(([L * (a == k) for a in range(base.dim)], int(lo * L), int((lo + side) * L)))
        return out
    d, xy = base.frame.scaled
    for (xa, ya), (xb, yb) in zip(xy, xy[1:] + xy[:1]):
        g = math.gcd(yb - ya, xa - xb)
        w = max(((yb - ya) // g, (xa - xb) // g), ((ya - yb) // g, (xb - xa) // g))
        if w not in seen:
            seen.add(w)
            vals = [w[0] * x + w[1] * y for x, y in xy]
            lo, hi = min(vals), max(vals)
            g = math.gcd(d, lo, hi)  # lo / d and hi / d have the lcm of denominators d / g
            out.append(([c * (d // g) for c in w], lo // g, hi // g))
    return out


def _member_slabs(f: Family):
    # D (w . p) over member i spans [S_i lo + w . T_i, S_i hi + w . T_i]
    D, cols, S = f.scaled_translations()
    forms, los, his = [], [], []
    for lw, lo, hi in f.base.frame.slabs:
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
    with (L, lows, sides) the base's bounding box B cleared (Frame.box); ss
    holds the scales S_i of the members in indices, lo_cols per axis the low
    bounds S_i L B_lo + L T_i of their boxes, and sides the sides of L B, so
    a box has high bounds lo + S_i side: ints, or Fractions over
    MAX_SCALE_BITS."""
    D, cols, S = f.scaled_translations()
    L, lows, sides = f.base.frame.box
    ss = [S[i] for i in indices]
    lo_cols = [[a * s + L * col[i] for s, i in zip(ss, indices)] for a, col in zip(lows, cols)]
    return L * D, ss, lo_cols, sides


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


def _grid_keys(cols, cell, den=1):
    """(keys, steps): each row's cell floor(v den / cell) as one int in
    mixed radix, digits kept off their range ends so that no +-1 step
    carries."""
    keys = [0] * len(cols[0])
    steps = [0]
    stride = 1
    for col in cols:
        digits = [v * den // cell for v in col]
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
    den = 1  # the cells are over den
    if S.count(S[0]) == n:
        den, _, sides = f.base.frame.box
        cls, cells = [0] * n, {0: max(sides) * S[0]}
    else:
        _, S, cols, sides = box_columns(f, range(n))
        cls, cells = scale_classes(S, max(sides))
    reach = {k: [] for k in cells}  # per class, the (keys, steps, grid) its members look up
    for k in sorted(cells):
        keys, steps = _grid_keys(cols, cells[k], den)
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
    L, cx, cy, cr = base.frame.disk
    return (L * D, [cx * s + L * x for s, x in zip(S, cols[0])],
            [cy * s + L * y for s, y in zip(S, cols[1])], [cr * s for s in S])


def int_translations(f: Family):
    """scaled_translations() on ints: over MAX_SCALE_BITS, the Fraction
    columns cleared by the lcm E of their denominators, with D E for D."""
    D, cols, S = f.scaled_translations()
    if D > 1:  # the columns hold ints already
        return D, cols, S
    E = math.lcm(*[v.denominator for v in chain(S, *cols)])
    *cols, S = [[v.numerator * (E // v.denominator) for v in col] for col in (*cols, S)]
    return D * E, cols, S


def _triple(x, y, w):
    """The homogeneous int triple (x, y, w) divided by its gcd."""
    g = math.gcd(x, y, w)
    return x // g, y // g, w // g


def member_polygons(base, D, cols, S):
    """(points, planes) of polygon members on scaled columns (D, cols, S):
    points[i] holds member i's vertices (ccw) as reduced homogeneous int
    triples, and planes[i] its edges' halfplanes a x + b y <= c of
    geom._planes carried to (a D, b D, c S_i + a X_i + b Y_i), equal for
    two members iff the edges lie on one line facing the same way when the
    columns are ints.  Fraction columns (D = 1) are cleared per member, by
    the lcm of its own denominators, not the family's."""
    verts, edges = base.frame.vertices, base.frame.planes
    points, planes = [], []
    for s, x, y in zip(S, *cols):
        d = D
        if d == 1:
            d = math.lcm(s.denominator, x.denominator, y.denominator)
            s, x, y = int(s * d), int(x * d), int(y * d)
        points.append([_triple(s * vx + x * w, s * vy + y * w, d * w) for vx, vy, w in verts])
        planes.append([(a * d, b * d, c * s + a * x + b * y) for a, b, c in edges])
    return points, planes


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


def common_slab_bounds(f: Family):
    """[(max lo, min hi)] per slab of a polygon or box family (Family.slabs)
    when every two members meet, else None: two meet iff their slabs
    overlap (pair_checker), and by Helly on the line a slab's intervals
    overlap pairwise iff max lo <= min hi."""
    _, lo, hi = f.slabs()
    bounds = [(max(col), min(top)) for col, top in zip(zip(*lo), zip(*hi))]
    return None if any(a > b for a, b in bounds) else bounds


def root_sign(P, Q, m) -> int:
    """The sign of P + Q sqrt(m) for ints P, Q and m >= 1: where P and Q
    differ in sign, that of P times that of P^2 - m Q^2."""
    s, t = (P > 0) - (P < 0), (Q > 0) - (Q < 0)
    if s == t or not t:
        return s
    if not s:
        return t
    d = P * P - m * Q * Q
    return s * ((d > 0) - (d < 0))


def membership(f: Family, points):
    """member(i) -> test(k): whether member i contains the RadPoint
    points[k], decided on its ints.

    Polygons and boxes decide on the family's slabs (Family.slabs): with
    u = form . A and v = form . B, (A + B sqrt(m)) / q lies in member i iff
    q lo <= u + v sqrt(m) <= q hi on every slab, which for a rational point
    is q lo <= u <= q hi (coverage decides many points at once, one slab at
    a time) and otherwise the signs of u - q lo + v sqrt(m) and
    q hi - u - v sqrt(m) (root_sign).  A disk member has centre (U, V) and
    radius R over L D, as in pair_checker; with X = L D A_x - q U and
    Y = L D A_y - q V the point lies in it iff P + Q sqrt(m) <= 0 for
    P = X^2 + Y^2 + m (L D)^2 (B_x^2 + B_y^2) - (q R)^2 and
    Q = 2 L D (X B_x + Y B_y).
    """
    base = f.base
    if base.kind != "disk":
        forms, lo, hi = f.slabs()
        exact = [(p.q, p.m, [sum(map(mul, w, p.A)) for w in forms],
                  None if p.B is None else [sum(map(mul, w, p.B)) for w in forms])
                 for p in points]

        def member(i):
            li, hi_ = lo[i], hi[i]

            def test(k):
                q, m, us, vs = exact[k]
                if vs is None:
                    return all(q * a <= u <= q * b for a, u, b in zip(li, us, hi_))
                return all(root_sign(u - q * a, v, m) >= 0 and root_sign(q * b - u, -v, m) >= 0
                           for a, u, v, b in zip(li, us, vs, hi_))

            return test

        return member
    L, cx, cy, cr = base.frame.disk
    D, (xs, ys), S = f.scaled_translations()
    LD = L * D
    pts = []
    for p in points:
        (ax, ay), B, m = p.A, p.B, p.m
        bx, by = (0, 0) if B is None else (B[0] * LD, B[1] * LD)
        pts.append((p.q, m, ax * LD, ay * LD, bx, by, m * (bx * bx + by * by)))

    def member(i):
        s = S[i]
        u, v, R = cx * s + L * xs[i], cy * s + L * ys[i], cr * s

        def test(k):
            q, m, ax, ay, bx, by, mbb = pts[k]
            X = ax - q * u
            Y = ay - q * v
            qR = q * R
            return root_sign(X * X + Y * Y + mbb - qR * qR, 2 * (X * bx + Y * by), m) <= 0

        return test

    return member


def coverage(f: Family, points):
    """masks[k] has bit i set iff member i contains the RadPoint points[k].
    Rational points in polygon and box families go slab by slab:
    u = form . A lies in member i's slab iff lo <= u // q and
    -hi <= -u // q (Fraction(+-u, q) for Fraction bounds), so the members
    holding it are prefixes of the orders by lo and by -hi, whose ORs a
    bisection finds; every other point is tested member by member
    (membership)."""
    bits = [1 << i for i in range(len(f))]
    masks = {}
    if f.base.kind != "disk":
        forms, lo, hi = f.slabs()
        masks = {k: (1 << len(f)) - 1 for k, p in enumerate(points) if p.B is None}
        for w, los, his in zip(forms, zip(*lo), zip(*hi)):
            ints = all(type(v) is int for v in los + his)
            los, lo_bits = zip(*sorted(zip(los, bits)))
            his, hi_bits = zip(*sorted(zip([-v for v in his], bits)))
            low, high = [0, *accumulate(lo_bits, or_)], [0, *accumulate(hi_bits, or_)]
            for k in masks:
                q = points[k].q
                u = sum(map(mul, w, points[k].A))
                a, b = (u // q, -u // q) if ints else (Fraction(u, q), Fraction(-u, q))
                masks[k] &= low[bisect_right(los, a)] & high[bisect_right(his, b)]
    if len(masks) < len(points):
        tests = list(map(membership(f, points), range(len(f))))
        for k in range(len(points)):
            if k not in masks:
                masks[k] = sum(b for b, test in zip(bits, tests) if test(k))
    return [masks[k] for k in range(len(points))]


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

