"""Reference implementations the tests compare the package against.

Each decides on realized bodies (Family.realize) with Fraction and Radical
arithmetic, member by member, with none of the package's int layer: the
intersection graph by Family.intersects on every pair, the oracle's
coverage masks by the bodies' own contains, and the containment step of
the smallest-first argument with an explicit common point.  The clipping
functions are the Fraction versions of geom's integer kernel, and the
lattice offset search tests Fraction lattice points against every realized
member.  The oracle's candidate set is built on the realized members
(bodies, circle_circle_points) and deduplicated by value.  call_budget
bounds the work of a block by counting its calls, a deterministic
stand-in for a time or memory limit.
"""

from fractions import Fraction
import itertools
import sys

from piercing import geom
from piercing.bodies import BoxBody, DiskBody, PolygonBody
from piercing.certificates import dedupe_points
from piercing.errors import DegenerateInput
from piercing.geom import ConvexPolygon, Interval, Point, frac
from piercing.oracle import _points
from piercing.radicals import RadPoint, Radical
from piercing.translates import _offset_candidates


def clip_chain(points, n, c):
    """Clip a convex vertex chain against {p : n.p <= c}, in Fractions."""
    if not points:
        return []
    if len(points) == 1:
        return list(points) if points[0].dot(n) <= c else []
    out = []
    m = len(points)
    if m == 2:
        pairs = [(points[0], points[1]), (points[1], points[0])]
    else:
        pairs = [(points[i], points[(i + 1) % m]) for i in range(m)]
    for a, b in pairs:
        da = a.dot(n) - c
        db = b.dot(n) - c
        if da <= 0:
            out.append(a)
        if (da < 0 < db) or (db < 0 < da):
            t = da / (da - db)
            out.append(a + (b - a) * t)
    dedup = []
    for p in out:
        if p not in dedup:
            dedup.append(p)
    return dedup


def intersection_chain(a, b):
    """Vertices of the intersection of polygon a (or a chain) and polygon b."""
    pts = list(a.vertices) if isinstance(a, ConvexPolygon) else list(a)
    for n, c in b.halfplanes():
        pts = clip_chain(pts, n, c)
        if not pts:
            return []
    return pts


def intersection(a, b):
    """The intersection polygon of a and b, or its degenerate chain, or None."""
    pts = geom.intersection_chain(a, b)
    if not pts:
        return None
    return ConvexPolygon(pts) if len(pts) >= 3 else pts


def chain_area(points):
    if len(points) < 3:
        return Fraction(0)
    s = Fraction(0)
    for i in range(len(points)):
        s += points[i].cross(points[(i + 1) % len(points)])
    return abs(s) / 2


def subtract_chain(piece, poly):
    out = []
    rest = list(piece)
    for n, c in poly.halfplanes():
        outside = clip_chain(rest, -n, -c)
        if chain_area(outside) > 0:
            out.append(outside)
        rest = clip_chain(rest, n, c)
        if not rest:
            break
    return out


def region_minus_polygons(region, polys):
    """Full-dimensional residue pieces of a convex region minus polygons."""
    pieces = [list(region.vertices) if isinstance(region, ConvexPolygon) else list(region)]
    for poly in polys:
        nxt = []
        for piece in pieces:
            nxt.extend(subtract_chain(piece, poly))
        pieces = nxt
        if not pieces:
            break
    return pieces


def intersection_graph_bruteforce(f):
    """Adjacency sets over member indices, by Family.intersects on every pair."""
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


def bodies(f):
    """Every member of f, realized."""
    return [f.realize(i) for i in range(len(f))]


def circle_circle_points(c1, r1, c2, r2):
    """Intersection points of two ordinary circles with rational data.

    Returns [] when disjoint or concentric, one RadPoint at a tangency
    (rational), else two RadPoints in a single sqrt extension.
    """
    r1, r2 = frac(r1), frac(r2)
    u = c2 - c1
    d2 = u.norm2()
    if d2 == 0:
        return []
    a = (d2 + r1 * r1 - r2 * r2) / (2 * d2)
    t2 = r1 * r1 / d2 - a * a
    if t2 < 0:
        return []
    mid = c1 + u * a
    if t2 == 0:
        return [RadPoint(Radical.of(mid.x), Radical.of(mid.y))]
    t = Radical.sqrt(t2)
    px = Radical.of(mid.x)
    py = Radical.of(mid.y)
    ox = t * (-u.y)
    oy = t * u.x
    return [RadPoint(px + ox, py + oy), RadPoint(px - ox, py - oy)]


def candidate_points(f):
    """The oracle's candidate set on the realized members, as values:
    vertices and reference points then pairwise intersections (polygons),
    centres then pairwise circle crossings, rational ones first (disks),
    or the products of low corner coordinates some member contains (boxes);
    repeated values dropped, first occurrences in order."""
    bs = bodies(f)
    n = len(f)
    kind = f.base.kind
    if kind == "polygon":
        out = []
        for b in bs:
            out.extend(b.polygon.vertices)
            out.append(b.reference_point)
        for i in range(n):
            for j in range(i + 1, n):
                out.extend(intersection_chain(bs[i].polygon, bs[j].polygon))
        return dedupe_points(out)
    if kind == "disk":
        rat = [b.center for b in bs]
        rad = []
        for i in range(n):
            for j in range(i + 1, n):
                for p in circle_circle_points(bs[i].center, bs[i].radius,
                                              bs[j].center, bs[j].radius):
                    if p.is_rational():
                        rat.append(Point(p.x.as_fraction(), p.y.as_fraction()))
                    else:
                        rad.append(p)
        return dedupe_points(rat + rad)
    axes = [sorted({b.mins[k] for b in bs}) for k in range(f.base.dim)]
    combos = list(itertools.product(*axes))
    return [p for p, m in zip(combos, coverage_masks(f, combos)) if m]


def clique_partition_number(adj):
    """Exact minimum clique partition (chromatic number of the complement)."""
    n = len(adj)
    if n == 0:
        return 0
    comp = [set(range(n)) - adj[i] - {i} for i in range(n)]
    best = n

    def rec(i, classes):
        nonlocal best
        if len(classes) >= best:
            return
        if i == n:
            best = len(classes)
            return
        for cl in classes:
            if not cl & comp[i]:
                cl.add(i)
                rec(i + 1, classes)
                cl.remove(i)
        classes.append({i})
        rec(i + 1, classes)
        classes.pop()

    rec(0, [])
    return best


def _is_entry(p):
    """Whether p is an int entry (q, m, A, B) of oracle.candidate_points,
    not a point: a box point's last coordinate is a number."""
    return isinstance(p, tuple) and len(p) == 4 and isinstance(p[3], (tuple, type(None)))


def coverage_masks(f, candidates):
    """masks[k] has bit i set iff the realized member i contains
    candidates[k], a point or an int entry of oracle.candidate_points."""
    bs = bodies(f)
    masks = []
    for p in candidates:
        if _is_entry(p):
            (p,) = _points(f, [p])
        m = 0
        for i, b in enumerate(bs):
            if b.contains(p):
                m |= 1 << i
        masks.append(m)
    return masks


def common_point(a, b):
    """A point of both realized bodies a and b, of the same kind."""
    if isinstance(a, PolygonBody):
        pts = intersection_chain(a.polygon, b.polygon)
        if not pts:
            raise DegenerateInput("bodies are disjoint")
        return pts[0]
    if not a.intersects(b):
        raise DegenerateInput("bodies are disjoint")
    if isinstance(a, BoxBody):
        return tuple(max(m1, m2) for m1, m2 in zip(a.mins, b.mins))
    v = b.center - a.center
    if v == Point(0, 0) or v.norm2() <= a.radius * a.radius:
        return b.center
    # the point of the centre segment at r_a / (r_a + r_b) of the way lies
    # in both disks when they meet
    return a.center + v * (a.radius / (a.radius + b.radius))


def containment_witness(f, i, j):
    """The translate of member i's scale inside member j through a common point.

    For members with s_i <= s_j that intersect, p + (s_i/s_j) * (B_j - p) is a
    translate of the seed-sized homothet contained in B_j and meeting B_i at
    p; this is the containment step of the smallest-first argument.
    """
    si, sj = f.scales[i], f.scales[j]
    if si > sj:
        raise DegenerateInput("member i must not be larger")
    bi, bj = f.realize(i), f.realize(j)
    p = common_point(bi, bj)
    lam = si / sj
    if isinstance(bj, DiskBody):
        return DiskBody(p + (bj.center - p) * lam, bj.radius * lam)
    if isinstance(bj, BoxBody):
        mins = tuple(pv + (m - pv) * lam for pv, m in zip(p, bj.mins))
        return BoxBody(mins, tuple(s * lam for s in bj.sides))
    verts = [p + (v - p) * lam for v in bj.polygon.vertices]
    return PolygonBody(ConvexPolygon(verts, _trusted=True))


def body_contains_body(outer, inner) -> bool:
    """Exact containment check between realized bodies of the same kind."""
    if isinstance(outer, DiskBody):
        d2 = (inner.center - outer.center).norm2()
        dr = outer.radius - inner.radius
        return dr >= 0 and d2 <= dr * dr
    if isinstance(outer, BoxBody):
        return all(
            mo <= mi and mi + si <= mo + so
            for mo, so, mi, si in zip(outer.mins, outer.sides, inner.mins, inner.sides)
        )
    return all(outer.polygon.contains(p) for p in inner.polygon.vertices)


def _union_bbox(f):
    boxes = [f.realize(i).bbox() for i in range(len(f))]
    return (Interval(min(b[0].lo for b in boxes), max(b[0].hi for b in boxes)),
            Interval(min(b[1].lo for b in boxes), max(b[1].hi for b in boxes)))


def lattice_points(f, spec, offset):
    """Lattice points (+offset) in the union's bounding box, in index order,
    each with the realized members that contain it, ascending."""
    ix, iy = _union_bbox(f)
    bs = bodies(f)
    return [(p, [i for i, b in enumerate(bs) if b.contains(p)])
            for p in spec.points_in_bbox(ix, iy, offset)]


def lattice_offset_points(f, spec, center, target, seed=0, subdivisions=(4, 8, 16, 32)):
    """lattice_pierce's offset search: the fewest lattice points inside the
    union over the offsets, stopping once at most target."""
    best = None
    for off in _offset_candidates(spec, subdivisions, seed):
        pts = [p for p, held in lattice_points(f, spec, off + center) if held]
        if best is None or len(pts) < len(best):
            best = pts
        if len(best) <= target:
            break
    return best


def lattice_offset_members(f, spec, center, target, seed=0, subdivisions=(4, 8, 16, 32)):
    """lattice_witness's offset search and recheck: each lattice point takes
    its first containing member not taken yet; the most members over the
    offsets, stopping once at least target, then extended in index order by
    every member that meets none kept (Family.intersects)."""
    best = []
    for off in _offset_candidates(spec, subdivisions, seed):
        chosen = []
        for _, held in lattice_points(f, spec, off + center):
            free = [i for i in held if i not in chosen]
            if free:
                chosen.append(free[0])
        if len(chosen) > len(best):
            best = chosen
        if target is not None and len(best) >= target:
            break
    kept = []
    for i in best + list(range(len(f))):
        if i not in kept and not any(f.intersects(i, j) for j in kept):
            kept.append(i)
    return kept


class CallBudgetExceeded(Exception):
    pass


class call_budget:
    """A deterministic bound on work, unlike wall time: inside the block,
    every call of a Python function or a builtin counts (sys.setprofile),
    and the call past limit raises CallBudgetExceeded."""

    def __init__(self, limit):
        self.limit = limit
        self.calls = 0

    def _count(self, frame, event, arg):
        if event in ("call", "c_call"):
            self.calls += 1
            if self.calls > self.limit:
                raise CallBudgetExceeded("more than %d calls" % self.limit)

    def __enter__(self):
        self._outer = sys.getprofile()
        sys.setprofile(self._count)
        return self

    def __exit__(self, *exc):
        sys.setprofile(self._outer)
