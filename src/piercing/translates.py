"""Piercing algorithms for families of translates, each returning a certificate.

greedy_pierce: topmost-seed decomposition with a halfplane cover pattern per
cluster (squares 2, triangles 5, disks 4, centrally symmetric 4, boxes
2^(d-1)); the final cluster can be replaced by the exact oracle optimum.
For a triangle the seed order runs along the cut edge of its trapezoid
pattern.  The greedy core (_greedy) is shared with the homothet greedy.

grid_pierce: the sandwich-pair decomposition into lines and residue classes
with factor gamma = ceil(l_line) * ceil(l_class + 1).  Polygons and boxes
take the one grid path; a box is the case P = C, with factor 2^(d-1).  It
runs on the family's scaled columns (bodies.Family.scaled_translations).

There is one cluster loop (_clusters), on neighbor_index candidates: the
greedy runs it over the whole family and the grid over each line, and the
grid and lattice witnesses are its seeds over a best set of disjoint
members followed by the others.  Its seeds are the members that meet no
earlier seed, so they are pairwise disjoint.

hexagon_pierce: two points for pairwise-intersecting hexagon translates via
the three-strip construction, factor-3 grid decomposition otherwise.  The
strips are the family's three slabs (bodies.Family.slabs), which also tell
whether the family is pairwise intersecting, so the points are found, and
tested against the members (bodies.membership), on ints.

lattice_pierce / lattice_witness: pigeonhole transversals and packings from
covering/packing lattices, with exact union areas for the counting bounds.
The hexagon sandwiches and the verified lattices are built once per base
polygon, on the pattern cache of covers (_cached).  Lattice points are int
pairs over one denominator, and which members hold them is decided on the
family's slabs (bodies.membership), never on realized bodies.
"""

from fractions import Fraction
import math
from operator import mul
import random

from .bodies import (
    BoxBody,
    Family,
    PolygonBody,
    collector_paused,
    common_slab_bounds,
    intersection_graph,
    member_boxes,
    member_polygons,
    membership,
    neighbor_index,
    pair_checker,
)
from .certificates import PierceCertificate, greedy_pattern, offset_masks, seed_columns
# translate_cluster_cover is unused here but stays bound: perfbench/spans.py
# traces it by this binding
from .covers import _cached, _sandwich_pair, translate_cluster_cover  # noqa: F401
from .errors import (
    CoverageNotVerified,
    NotHexagonBase,
    PackingNotVerified,
    TooLarge,
    UnsupportedBase,
    VerificationFailed,
)
from .geom import (
    ConvexPolygon,
    Interval,
    Point,
    _scaled,
    _subtract,
    _twice_area,
    region_minus_polygons,
)
from .radicals import RadPoint
from .sandwich import SandwichPair, hexagon_sandwich, hexagon_sandwich_special

ORACLE_BUDGET = 12
# the packing lattice's margin: 2 H_out (1 + PACKING_EPS) tiles, so 2 C packs strictly
PACKING_EPS = Fraction(1, 64)


def _topmost_order(cols):
    """Member indices by (-cols[-1][i], cols[0][i], ..., i), by stable
    sorts: on the scaled translations, the order of translates (and of
    homothets of one scale) by decreasing top, then translation, then index."""
    order = list(range(len(cols[0])))
    for col in reversed(cols[:-1]):
        order.sort(key=col.__getitem__)
    order.sort(key=cols[-1].__getitem__, reverse=True)
    return order


def _seed_order(f: Family):
    """greedy_pierce's seed order: topmost on certificates.seed_columns,
    which for a triangle runs along the trapezoid pattern's cut edge."""
    return _topmost_order(seed_columns(f))


@collector_paused()
def greedy_pierce(f: Family, refine: bool = True, verify: bool = True) -> PierceCertificate:
    """Greedy decomposition for translates of a supported base body.

    Repeatedly takes the topmost remaining member as a cluster seed, absorbs
    everything it intersects, and pierces the cluster through the halfplane
    cover pattern anchored at the seed.  For a triangle, "topmost" runs
    along the trapezoid pattern's cut edge (_seed_order).  The seeds are a
    pairwise-disjoint witness.  With refine, the last cluster, when it has
    at most ORACLE_BUDGET members, is re-pierced optimally, which realizes
    the improved additive constants.
    """
    cert = _greedy(f, greedy_pattern(f, "greedy"), _seed_order(f), "greedy", refine)
    if verify:
        cert.verify(f)
    return cert


def _greedy(f: Family, pattern, order, method, refine) -> PierceCertificate:
    """The greedy of both family kinds: _clusters over the whole family.
    The certificate is symbolic: the pattern placed at each seed pierces its
    cluster (certificates.greedy_rule), the seeds are the witness, and only
    the oracle's points for a refined last cluster are listed.  A polygon
    or box cluster keeps only the offsets it needs (certificates.offset_masks)."""
    # the loop runs on the members renumbered in seed order, position p
    # being member order[p]: a seed's candidates then sit at nearby
    # positions, so at 100k members its reads stay local.  The slab rows
    # are computed on f first, for verify and refine to reuse.
    if f.base.kind != "disk":
        f.slabs()
    g = f.subfamily(order)
    clusters = [(order[p], (order[p], *sorted(map(order.__getitem__, hits)))) for p, hits in
                _clusters(len(f), range(len(f)), neighbor_index(g), pair_checker(g))]
    extra = []
    if refine and clusters and len(clusters[-1][1]) <= ORACLE_BUDGET:
        from .oracle import exact_tau

        last = clusters[-1][1]
        tau, pts = exact_tau(f.subfamily(last))
        if tau < pattern.size:
            extra = pts
    cert = PierceCertificate(method, pattern.size, None, clusters, [c[0] for c in clusters],
                             family=f, extra=extra)
    cert.masks = offset_masks(f, pattern, cert.pattern_clusters)
    return cert


def _clusters(n, order, candidates, check):
    """The one cluster loop: each member of order still alive seeds a
    cluster of the alive members of candidates(seed) it meets.  Returns
    (seed, hits) pairs in seed order, the hits in candidates' order: each
    caller sorts the members it keeps."""
    alive = bytearray(b"\1") * n
    clusters = []
    for i in order:
        if not alive[i]:
            continue
        alive[i] = 0
        hits = [j for j in candidates(i) if alive[j] and check(i, j)]
        for j in hits:
            alive[j] = 0
        clusters.append((i, hits))
    return clusters


def grid_pierce(f: Family, pair: SandwichPair = None, verify: bool = True) -> PierceCertificate:
    """Line-and-class decomposition from a sandwich pair (factor gamma).

    Each member's P-translate has centre coordinates in the basis of the
    parallelogram P of the pair (P = C for a box, factor 2^(d-1)).  Lines of
    unit width on every axis but the last cut the family; within a line,
    the lowest alive member seeds a cluster of the members it meets, pierced
    at most k_line levels above it.  The seeds of one residue class of lines
    mod m_class are pairwise disjoint.  All of it runs on ints over one
    denominator (_grid_lines), or on Fractions over MAX_SCALE_BITS, and the
    placed points are RadPoints on those ints.
    """
    if f.kind != "translates":
        raise UnsupportedBase("grid_pierce needs a translate family")
    forms, basis, k_line, m_class, factor, info = _grid_frame(f.base, pair)
    E, centres, offs, line, order = _grid_lines(f, forms)
    level = centres[-1]
    near = neighbor_index(f)
    check = pair_checker(f)
    clusters = _clusters(len(f), order, lambda i: [j for j in near(i) if line[j] == line[i]],
                         check)
    # the point with coordinates x / (4 E) in the basis is rows . x / (4 E M)
    M = math.lcm(*[v.denominator for b in basis for v in b])
    rows = list(zip(*[[int(v * M) for v in b] for b in basis]))
    placed = {}  # the points' int numerators, first occurrences in order
    class_seeds = {}
    for i, hits in clusters:
        key = line[i]
        seed = level[i]
        # each member's P-translate, levels [c - E/2, c + E/2] over E,
        # contains the point at its own level k: c_seed - E/2 + k E
        used = set()
        for m in (i, *hits):
            k = max(1, -((seed - level[m]) // E))
            if k > k_line or not level[m] <= seed + k * E <= level[m] + E:
                raise VerificationFailed("member escapes its cluster levels")
            used.add(k)
        pos = [4 * E * j + off for j, off in zip(key, offs)]
        for k in sorted(used):
            x = (*pos, 2 * (2 * seed + (2 * k - 1) * E))
            placed.setdefault(tuple(sum(map(mul, row, x)) for row in rows), None)
        class_seeds.setdefault(tuple(j % m_class for j in key), []).append(i)
    q = 4 * E * M
    if type(level[0]) is int:
        points = [RadPoint(q, 1, p) for p in placed]
    else:  # Fraction columns: each point is cleared on its own
        points = [RadPoint.of_fractions(1, [v / q for v in p]) for p in placed]
    cert = PierceCertificate("grid", factor, points,
                             [(i, sorted((i, *hits))) for i, hits in clusters],
                             _extend_witness(len(f), class_seeds, near, check), info=info)
    if verify:
        cert.verify(f)
    return cert


def _grid_frame(base, pair):
    """(forms, basis, k_line, m_class, factor, info): coordinates x in the
    basis of P are the point sum x_k basis[k], and coordinate k of the centre
    of a member's P-translate is w . t + h, (w, h) = forms[k], t its translation."""
    if isinstance(base, BoxBody):
        sides = base.sides
        # centre coordinate k is (lo_k + side_k / 2 + t_k) / side_k
        forms = [([1 / side if a == k else 0 for a in range(base.dim)], lo / side + Fraction(1, 2))
                 for k, (lo, side) in enumerate(zip(base.mins, sides))]
        basis = [[side if a == k else 0 for a in range(base.dim)] for k, side in enumerate(sides)]
        return forms, basis, 1, 2, 2 ** (base.dim - 1), None
    if isinstance(base, PolygonBody):
        if pair is None:
            pair = _sandwich_pair(base)
        la = pair.line_axis
        # a0 is cut into lines, a1 carries the levels; the centre p = c + t
        # of a P-translate is (p x a1, a0 x p) / det in this basis
        a0, a1 = (pair.p.u, pair.p.v) if la == 1 else (pair.p.v, pair.p.u)
        det = a0.cross(a1)
        c = pair.p.center
        forms = [((a1.y / det, -a1.x / det), c.cross(a1) / det),
                 ((-a0.y / det, a0.x / det), a0.cross(c) / det)]
        return (forms, [(a0.x, a0.y), (a1.x, a1.y)], math.ceil(pair.lambdas[la]),
                math.ceil(pair.lambdas[1 - la] + 1), pair.gamma, {"gamma": pair.gamma})
    raise UnsupportedBase("grid_pierce needs a polygon or box base")


def _grid_lines(f: Family, forms):
    """(E, centres, offs, line, order): centres[k][i] / E is coordinate k of
    member i's centre (_grid_frame), on the scaled columns as they are (ints,
    or Fractions with D = 1 over MAX_SCALE_BITS); axis k < last is cut into
    lines j + offs[k] / (4 E), line[i] holds member i's j per axis, and
    order sorts by line, last coordinate, the others, index."""
    D, cols, _ = f.scaled_translations()
    n = len(f)
    L = math.lcm(*[v.denominator for w, h in forms for v in (*w, h)])
    E = L * D
    centres = []
    for w, h in forms:
        col = [int(h * E)] * n
        for a, t in zip(w, cols):
            if a:
                a = int(a * L)
                col = [v + a * x for v, x in zip(col, t)]
        centres.append(col)
    offs = [_line_offset(col, E) for col in centres[:-1]]
    # member i's line on axis k is floor(x + 1/2 - off) for x = centres[k][i] / E
    keys = [[(4 * x + 2 * E - off) // (4 * E) for x in col] for col, off in zip(centres, offs)]
    line = list(zip(*keys))
    order = sorted(range(n), key=lambda i: (line[i], centres[-1][i],
                                            tuple(col[i] for col in centres[:-1]), i))
    return E, centres, offs, line, order


def _extend_witness(n, class_seeds, candidates, check):
    """Largest per-class seed set, greedily extended by other disjoint
    seeds: the seeds of _clusters over that set, then every seed, each
    tested against its candidates that are seeds."""
    best = max(class_seeds.values(), key=lambda s: (len(s), -min(s)))
    seeds = sorted(i for class_ in class_seeds.values() for i in class_)
    is_seed = bytearray(n)
    for i in seeds:
        is_seed[i] = 1
    return [i for i, _ in _clusters(n, best + seeds,
                                    lambda i: [j for j in candidates(i) if is_seed[j]], check)]


def _line_offset(col, E):
    """off / (4 E): the middle of the first widest gap between the ends mod 1
    of the unit intervals centred at v / E for v in col, where no line
    x = j + off / (4 E) is tangent to one."""
    ends = sorted({(2 * v + E) % (2 * E) for v in col})  # over 2 E
    lo, hi = max(zip(ends, ends[1:] + [ends[0] + 2 * E]), key=lambda g: g[1] - g[0])
    return (lo + hi) % (4 * E)


def hexagon_pierce(f: Family, verify: bool = True) -> PierceCertificate:
    """Theorem-6 piercing for translates of a centrally symmetric hexagon.

    Pairwise-intersecting families take two points: the centers of the two
    hexagon translates inscribed in pairs of shifted strips.  Otherwise the
    factor-3 sandwich pair drives the grid decomposition.  The family is
    pairwise intersecting iff the members' intervals on each of the three
    slabs share a point, which no pair test is needed to decide.
    """
    if f.kind != "translates" or not isinstance(f.base, PolygonBody):
        raise NotHexagonBase("hexagon_pierce needs hexagon translates")
    poly = f.base.polygon
    if len(poly.vertices) != 6 or f.base.frame.centre is None:
        raise NotHexagonBase("base is not a centrally symmetric hexagon")
    # the strips are the family's three slabs; when all pairs meet, slab
    # k's intervals share [max lo, min hi], whose midline is forms[k] . p = mid[k]
    bounds = common_slab_bounds(f)
    if bounds is None:
        pair = _cached(("hexagon_sandwich_special", f.base.frame.key),
                       lambda: hexagon_sandwich_special(poly))
        cert = grid_pierce(f, pair, verify=verify)
        cert.method = "hexagon-grid"
        return cert
    n = len(f)
    forms = f.slabs()[0]
    mids = [Fraction(a + b, 2) for a, b in bounds]

    def solve(k1, k2):
        (a1, b1), (a2, b2) = forms[k1], forms[k2]
        det = a1 * b2 - a2 * b1
        return RadPoint.of_fractions(1, [(mids[k1] * b2 - mids[k2] * b1) / det,
                                         (a1 * mids[k2] - a2 * mids[k1]) / det])

    # the center of H_ab sits where the midlines a and b cross.  Very flat
    # hexagons can defeat one pairing, so all three are tried and checked
    # exactly on the slabs (bodies.membership); the oracle is a last resort.
    ts = [solve(0, 1), solve(0, 2), solve(1, 2)]
    tests = list(map(membership(f, ts), range(n)))
    points = None
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if all(test(a) or test(b) for test in tests):
            points = [ts[a], ts[b]]
            break
    if points is None:
        from .oracle import exact_tau

        tau, pts = exact_tau(f, limit=max(64, n))
        if tau > 2:
            raise VerificationFailed("no two-point transversal found")
        points = pts
    top = _topmost_order(f.scaled_translations()[1])[0]
    cert = PierceCertificate(
        "hexagon", 2, points, [(top, list(range(n)))], [top]
    )
    if verify:
        cert.verify(f)
    return cert


# ---------------------------------------------------------------------------
# lattice constructions (Lemmas 5 and 6)


class LatticeSpec:
    """A planar lattice, which covering_lattice or packing_lattice verifies."""

    def __init__(self, b1: Point, b2: Point):
        if b1.cross(b2) == 0:
            raise VerificationFailed("lattice basis is singular")
        self.b1 = b1
        self.b2 = b2
        self.cell_area = abs(b1.cross(b2))

    def coords(self, p: Point):
        det = self.b1.cross(self.b2)
        return (p.cross(self.b2) / det, self.b1.cross(p) / det)

    def point(self, i, j, offset=None):
        p = self.b1 * i + self.b2 * j
        return p if offset is None else p + offset

    def points_in_bbox(self, ix, iy, offset):
        """Lattice points (+offset) inside the given x/y intervals."""
        corners = [
            Point(ix.lo, iy.lo) - offset,
            Point(ix.hi, iy.lo) - offset,
            Point(ix.hi, iy.hi) - offset,
            Point(ix.lo, iy.hi) - offset,
        ]
        cs = [self.coords(c) for c in corners]
        i_lo = math.floor(min(c[0] for c in cs)) - 1
        i_hi = math.ceil(max(c[0] for c in cs)) + 1
        j_lo = math.floor(min(c[1] for c in cs)) - 1
        j_hi = math.ceil(max(c[1] for c in cs)) + 1
        out = []
        for i in range(i_lo, i_hi + 1):
            for j in range(j_lo, j_hi + 1):
                p = self.point(i, j, offset)
                if ix.lo <= p.x <= ix.hi and iy.lo <= p.y <= iy.hi:
                    out.append(p)
        return out


def _centered_tiling_basis(poly: ConvexPolygon):
    """Tiling lattice basis of a centrally symmetric hexagon or parallelogram."""
    v = poly.vertices
    if len(v) == 6:
        return v[0] + v[1], v[1] + v[2]
    if len(v) == 4:
        return v[1] - v[0], v[3] - v[0]
    raise VerificationFailed("tiling basis needs a hexagon or parallelogram")


def covering_lattice(s0: ConvexPolygon, cell_poly: ConvexPolygon) -> LatticeSpec:
    """Tiling lattice of cell_poly, verified to cover the plane with s0."""
    b1, b2 = _centered_tiling_basis(cell_poly)
    spec = LatticeSpec(b1, b2)
    cell = [Point(0, 0), b1, b1 + b2, b2]
    if b1.cross(b2) < 0:
        cell.reverse()
    bx, by = s0.bounding_box()
    cx = Interval(min(p.x for p in cell), max(p.x for p in cell))
    cy = Interval(min(p.y for p in cell), max(p.y for p in cell))
    window_x = Interval(cx.lo - bx.hi, cx.hi - bx.lo)
    window_y = Interval(cy.lo - by.hi, cy.hi - by.lo)
    if region_minus_polygons(cell, [s0], spec.points_in_bbox(window_x, window_y, Point(0, 0))):
        raise CoverageNotVerified("lattice translates do not cover the cell")
    return spec


def packing_lattice(s0: ConvexPolygon, cell_poly: ConvexPolygon) -> LatticeSpec:
    """Tiling lattice of 2*cell_poly scaled by (1+PACKING_EPS): 2*s0 packs strictly."""
    b1, b2 = _centered_tiling_basis(cell_poly)
    scale = 2 * (1 + PACKING_EPS)
    spec = LatticeSpec(b1 * scale, b2 * scale)
    big = s0.scale(4)  # 2S - 2S = 4S for centered symmetric S
    bx, by = big.bounding_box()
    for lam in spec.points_in_bbox(Interval(bx.lo, bx.hi), Interval(by.lo, by.hi), Point(0, 0)):
        if lam == Point(0, 0):
            continue
        if big.contains(lam):
            raise PackingNotVerified("2S translates touch at lattice distance")
    return spec


def union_area_exact(f: Family) -> Fraction:
    """Exact area of the union of a polygon family: the sum over members i
    of what is left of member i (bodies.member_polygons) once every earlier
    member meeting it (intersection_graph) is cut away by geom._subtract,
    the nearest first, by the squared distance of their scaled
    translations: a near member takes most of i in few pieces."""
    if f.base.kind != "polygon":
        raise TooLarge("exact union area needs polygon members")
    D, (xs, ys), S = f.scaled_translations()
    points, planes = member_polygons(f.base, D, (xs, ys), S)
    adj = intersection_graph(f)
    twice = Fraction(0)
    for i, pts in enumerate(points):
        pieces = [pts]
        for j in sorted((j for j in adj[i] if j < i),
                        key=lambda j: (xs[j] - xs[i]) ** 2 + (ys[j] - ys[i]) ** 2):
            pieces = [rest for piece in pieces for rest in _subtract(piece, planes[j])]
            if not pieces:
                break
        for piece in pieces:
            twice += Fraction(*_twice_area(piece))
    return twice / 2


def _default_sandwich(f: Family):
    """The hexagon sandwich of a translate family's centrally symmetric
    polygon base, built once per base polygon."""
    if f.kind != "translates":
        raise UnsupportedBase("lattice methods need a translate family")
    if not isinstance(f.base, PolygonBody):
        raise UnsupportedBase("lattice methods need a centrally symmetric polygon base")
    if f.base.frame.centre is None:
        raise UnsupportedBase("lattice methods need a centrally symmetric base")
    poly = f.base.polygon
    return _cached(("hexagon_sandwich", f.base.frame.key), lambda: hexagon_sandwich(poly))


# the offset search's grids: m x m cell midpoints, then m seeded draws
_SUBDIVISIONS = (4, 8, 16, 32)


def _offset_candidates(spec: LatticeSpec, seed):
    rng = random.Random(seed)
    for m in _SUBDIVISIONS:
        for uu in range(m):
            for vv in range(m):
                yield spec.b1 * Fraction(2 * uu + 1, 2 * m) + spec.b2 * Fraction(2 * vv + 1, 2 * m)
        for _ in range(m):
            yield spec.b1 * Fraction(rng.randrange(4 * m), 4 * m) + spec.b2 * Fraction(
                rng.randrange(4 * m), 4 * m
            )


def _lattice_hits(f: Family, spec: LatticeSpec):
    """hits(offset) -> (point, held): held maps each index pair (i, j) whose
    lattice point i b1 + j b2 + offset lies in a member to the members that
    hold it, ascending, and point(i, j) is that lattice point, a RadPoint.

    The basis and the offset are put over their common denominator q, so a
    lattice point is an int pair over q.  A member's candidates are the
    index pairs within the lattice coordinates of its bounding box's
    corners (member_boxes, ints over scale), and bodies.membership decides
    each on the family's slabs.
    """
    scale, boxes = member_boxes(f, range(len(f)))
    corners = [[(x, y) for x in (lo[0], hi[0]) for y in (lo[1], hi[1])] for lo, hi in boxes]

    def hits(offset):
        q = math.lcm(*[v.denominator for p in (spec.b1, spec.b2, offset) for v in p])
        (ux, uy), (vx, vy), (ox, oy) = [[v.numerator * (q // v.denominator) for v in p]
                                        for p in (spec.b1, spec.b2, offset)]
        det = scale * (ux * vy - uy * vx)
        sign = 1 if det > 0 else -1
        det *= sign
        index, points, candidates = {}, [], []
        for box in corners:
            # lattice coordinates of the box corners, times det
            rel = [(q * x - scale * ox, q * y - scale * oy) for x, y in box]
            a = [sign * (rx * vy - ry * vx) for rx, ry in rel]
            b = [sign * (ux * ry - uy * rx) for rx, ry in rel]
            keys = []
            for i in range(-(-min(a) // det), max(a) // det + 1):
                for j in range(-(-min(b) // det), max(b) // det + 1):
                    k = index.get((i, j))
                    if k is None:
                        k = index[(i, j)] = len(points)
                        points.append(RadPoint(q, 1, (i * ux + j * vx + ox, i * uy + j * vy + oy)))
                    keys.append(((i, j), k))
            candidates.append(keys)
        member = membership(f, points)
        held = {}
        for m, keys in enumerate(candidates):
            test = member(m)
            for key, k in keys:
                if test(k):
                    held.setdefault(key, []).append(m)

        return lambda i, j: points[index[i, j]], held

    return hits


def lattice_pierce(f: Family, seed: int = 0, verify: bool = True) -> PierceCertificate:
    """Pigeonhole transversal: lattice points inside the union pierce everything.

    Any offset yields a valid piercing set once the covering lattice is
    verified; the offset search only minimizes the count toward the
    floor(area/cell) bound.  The witness comes from the packing construction
    so the certificate is self-contained.  The covering lattice is built
    once per base and sandwich.
    """
    sw = _default_sandwich(f)
    center = sw.center
    poly = f.base.polygon

    def build():
        return covering_lattice(poly.translate(-center), sw.h_in.translate(-center))

    lattice = _cached(("covering_lattice", f.base.frame.key, _scaled(sw.h_in.vertices)), build)
    area = union_area_exact(f)
    target = math.floor(area / lattice.cell_area)
    hits = _lattice_hits(f, lattice)
    best = None
    for off in _offset_candidates(lattice, seed):
        point, held = hits(off + center)
        if best is None or len(held) < len(best[1]):
            best = point, held
        if len(best[1]) <= target:
            break
    point, held = best
    best_pts = [point(i, j) for i, j in sorted(held)]
    wit, wspec = lattice_witness(f, seed=seed, sandwich=sw, area=area)
    factor = math.ceil(wspec.cell_area / lattice.cell_area)
    cert = PierceCertificate(
        "lattice",
        factor,
        best_pts,
        [],
        wit,
        info={
            "count": len(best_pts),
            "cover_cell_area": lattice.cell_area,
            "packing_cell_area": wspec.cell_area,
            "union_area": area,
        },
    )
    if verify:
        cert.verify(f)
    return cert


def lattice_witness(f: Family, seed: int = 0, sandwich=None, area=None):
    """Pairwise-disjoint members holding distinct lattice points (Lemma-6 dual).

    Returns (member indices, lattice spec).  On the packing lattice of
    2*H_out*(1+PACKING_EPS), built once per base and sandwich, members
    containing distinct lattice points are disjoint; an exact recheck drops
    any touching pair (none in practice).  Each lattice point, in index
    order, takes the lowest-index member holding it that no earlier point
    took.  The recheck and extension are the seeds of _clusters over those
    members, then every member.  area is the family's exact union area when
    the caller has it.
    """
    sw = sandwich or _default_sandwich(f)
    center = sw.center
    poly = f.base.polygon

    def build():
        return packing_lattice(poly.translate(-center), sw.h_out.translate(-center))

    lattice = _cached(("packing_lattice", f.base.frame.key, _scaled(sw.h_out.vertices)), build)
    if area is None:
        area = union_area_exact(f)
    target = math.ceil(area / lattice.cell_area)
    hits = _lattice_hits(f, lattice)
    best = []
    for off in _offset_candidates(lattice, seed):
        _, held = hits(off + center)
        chosen, taken = [], set()
        for key in sorted(held):
            m = next((m for m in held[key] if m not in taken), None)
            if m is not None:
                chosen.append(m)
                taken.add(m)
        if len(chosen) > len(best):
            best = chosen
        if len(best) >= target:
            break
    # exact disjointness recheck, then any further disjoint members, which
    # only strengthen the witness
    n = len(f)
    return [i for i, _ in _clusters(n, best + list(range(n)), neighbor_index(f),
                                    pair_checker(f))], lattice
