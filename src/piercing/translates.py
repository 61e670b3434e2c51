"""Piercing algorithms for families of translates, each returning a certificate.

greedy_pierce: topmost-seed decomposition with a halfplane cover pattern per
cluster (squares 2, triangles 5, disks 4, centrally symmetric 4, boxes
2^(d-1)); the final cluster can be replaced by the exact oracle optimum.
For a triangle the seed order runs along the cut edge of its trapezoid
pattern.  The cluster loop (_greedy) is shared with the homothet greedy.

grid_pierce: the sandwich-pair decomposition into lines and residue classes
with factor gamma = ceil(l_line) * ceil(l_class + 1).

hexagon_pierce: two points for pairwise-intersecting hexagon translates via
the three-strip construction, factor-3 grid decomposition otherwise.

lattice_pierce / lattice_witness: pigeonhole transversals and packings from
covering/packing lattices, with exact union areas for the counting bounds.
"""

from fractions import Fraction
import math
import random

from .bodies import (
    BoxBody,
    Family,
    PolygonBody,
    intersection_graph,
    neighbor_index,
    pair_checker,
)
from .certificates import PierceCertificate, dedupe_points, greedy_rule, seed_columns
# translate_cluster_cover is unused here but stays bound: perfbench/spans.py
# traces it by this binding
from .covers import translate_cluster_cover  # noqa: F401
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
    Point,
    clip_chain,
    frac,
    region_minus_polygons,
)
from .sandwich import (
    SandwichPair,
    hexagon_sandwich,
    hexagon_sandwich_special,
    sandwich_parallelograms,
)

ORACLE_BUDGET = 12


def _top_key(f: Family):
    """Exact sort key: decreasing top coordinate, then translation lex, index.

    Tops come straight from the member fields: top(s*C + t) is s*top(C)
    shifted by the last translation coordinate.
    """
    base_top = f.base.top()
    if f.base.kind == "box":
        def key(i):
            m = f.members[i]
            return (-(base_top * m.s + m.t[-1]), m.t, i)
    else:
        def key(i):
            m = f.members[i]
            return (-(base_top * m.s + m.t.y), m.t.x, m.t.y, i)
    return key


def _topmost_order(cols):
    """Member indices by (-cols[-1][i], cols[0][i], ..., i), by stable
    sorts: on the scaled translations, the _top_key order of translates (and
    of homothets of one scale)."""
    order = list(range(len(cols[0])))
    for col in reversed(cols[:-1]):
        order.sort(key=col.__getitem__)
    order.sort(key=cols[-1].__getitem__, reverse=True)
    return order


def _seed_order(f: Family):
    """greedy_pierce's seed order: topmost on certificates.seed_columns,
    which for a triangle runs along the trapezoid pattern's cut edge."""
    return _topmost_order(seed_columns(f))


def greedy_pierce(f: Family, refine: bool = True, oracle_budget: int = ORACLE_BUDGET,
                  verify: bool = True, sample: int = None) -> PierceCertificate:
    """Greedy decomposition for translates of a supported base body.

    Repeatedly takes the topmost remaining member as a cluster seed, absorbs
    everything it intersects, and pierces the cluster through the halfplane
    cover pattern anchored at the seed.  For a triangle, "topmost" runs
    along the trapezoid pattern's cut edge (_seed_order).  The seeds are a
    pairwise-disjoint witness.  With refine, the last cluster (within the
    oracle budget) is re-pierced optimally, which realizes the improved
    additive constants.
    """
    pattern, _ = greedy_rule(f, "greedy")
    cert = _greedy(f, pattern, _seed_order(f), "greedy", refine, oracle_budget)
    if verify:
        cert.verify(f, sample=sample)
    return cert


def _greedy(f: Family, pattern, order, method, refine, oracle_budget) -> PierceCertificate:
    """The greedy of both family kinds: each member of order still alive
    seeds a cluster of the alive members it meets.  The certificate is
    symbolic: the pattern placed at each seed pierces its cluster
    (certificates.greedy_rule), the seeds are the witness, and only the
    oracle's points for a refined last cluster are listed."""
    candidates = neighbor_index(f)
    check = pair_checker(f)
    alive = [True] * len(f)
    clusters = []
    for i in order:
        if not alive[i]:
            continue
        alive[i] = False
        hits = [j for j in candidates(i) if alive[j] and check(i, j)]
        hits.sort()
        for j in hits:
            alive[j] = False
        clusters.append((i, (i, *hits)))
    extra = []
    if refine and clusters and len(clusters[-1][1]) <= oracle_budget:
        from .oracle import exact_tau

        last = clusters[-1][1]
        sub = Family(f.base, [f.members[j] for j in last], f.kind)
        tau, pts = exact_tau(sub)
        if tau < pattern.size:
            extra = pts
    witness = [c[0] for c in clusters]
    return PierceCertificate(method, pattern.size, None, clusters, witness, family=f, extra=extra)


def grid_pierce(f: Family, pair: SandwichPair = None, verify: bool = True) -> PierceCertificate:
    """Line-and-class decomposition from a sandwich pair (factor gamma)."""
    if f.kind != "translates":
        raise UnsupportedBase("grid_pierce needs a translate family")
    if isinstance(f.base, BoxBody):
        return _grid_pierce_box(f, verify)
    if not isinstance(f.base, PolygonBody):
        raise UnsupportedBase("grid_pierce needs a polygon or box base")
    if pair is None:
        pair = sandwich_parallelograms(f.base.polygon)
    u, v = pair.p.u, pair.p.v
    det = u.cross(v)
    la = pair.line_axis
    e_line = pair.lambdas[la]
    e_class = pair.lambdas[1 - la]
    pc = pair.p.center

    def coords(p):
        a = p.cross(v) / det
        b = u.cross(p) / det
        return (a, b) if la == 1 else (b, a)

    n = len(f)
    alpha = [None] * n
    beta = [None] * n
    for i in range(n):
        ca, cb = coords(pc + f.members[i].t)
        alpha[i] = ca
        beta[i] = cb

    b_off = _line_offset(alpha)
    lines = {}
    for i in range(n):
        j = math.floor(alpha[i] + Fraction(1, 2) - b_off)
        if not (alpha[i] - Fraction(1, 2) < j + b_off < alpha[i] + Fraction(1, 2)):
            raise VerificationFailed("line tangent to a P-translate")
        lines.setdefault(j, []).append(i)

    m_class = math.ceil(e_class + 1)
    k_line = math.ceil(e_line)
    check = pair_checker(f)
    points = []
    clusters = []
    class_seeds = {}
    for j, idxs in sorted(lines.items()):
        idxs.sort(key=lambda i: (beta[i], alpha[i], i))
        alive = set(idxs)
        for i in idxs:
            if i not in alive:
                continue
            alive.discard(i)
            members = [i]
            for k in list(alive):
                if check(i, k):
                    alive.discard(k)
                    members.append(k)
            c_seed = beta[i] - Fraction(1, 2)
            # each member's P-translate contains the point at its own level
            used = set()
            for m in members:
                c_m = beta[m] - Fraction(1, 2)
                k = max(1, math.ceil(c_m - c_seed))
                if k > k_line or not c_m <= c_seed + k <= c_m + 1:
                    raise VerificationFailed("member escapes its cluster levels")
                used.add(k)
            for k in sorted(used):
                a_coord = j + b_off
                b_coord = c_seed + k
                if la == 1:
                    p = u * a_coord + v * b_coord
                else:
                    p = u * b_coord + v * a_coord
                points.append(p)
            clusters.append((i, sorted(members)))
            class_seeds.setdefault(j % m_class, []).append(i)
    witness = _extend_witness(f, check, class_seeds)
    points = dedupe_points(points)
    cert = PierceCertificate("grid", pair.gamma, points, clusters, witness,
                             info={"gamma": pair.gamma})
    if verify:
        cert.verify(f)
    return cert


def _extend_witness(f: Family, check, class_seeds):
    """Largest per-class seed set, greedily extended by other disjoint seeds;
    each seed is tested only against its grid neighbours in the witness."""
    witness = list(max(class_seeds.values(), key=lambda s: (len(s), -min(s))))
    chosen = set(witness)
    candidates = neighbor_index(f)
    others = sorted(i for seeds in class_seeds.values() for i in seeds if i not in chosen)
    for i in others:
        if not any(j in chosen and check(i, j) for j in candidates(i)):
            witness.append(i)
            chosen.add(i)
    return witness


def _line_offset(alphas):
    """A rational offset no line x = j + b is tangent to any unit interval."""
    fracs = sorted({(a + Fraction(1, 2)) % 1 for a in alphas})
    if not fracs:
        return Fraction(0)
    best_gap, best_mid = None, None
    for i, lo in enumerate(fracs):
        hi = fracs[i + 1] if i + 1 < len(fracs) else fracs[0] + 1
        gap = hi - lo
        if best_gap is None or gap > best_gap:
            best_gap = gap
            best_mid = (lo + hi) / 2 % 1
    return best_mid


def _grid_pierce_box(f: Family, verify: bool) -> PierceCertificate:
    base = f.base
    d = base.dim
    n = len(f)
    norm = [tuple(m / s for m, s in zip(f.realize(i).mins, base.sides)) for i in range(n)]
    offs = []
    for k in range(d - 1):
        offs.append(_line_offset([norm[i][k] + Fraction(1, 2) for i in range(n)]))
    lines = {}
    for i in range(n):
        key = tuple(
            math.floor(norm[i][k] + 1 - offs[k]) for k in range(d - 1)
        )
        lines.setdefault(key, []).append(i)
    check = pair_checker(f)
    points = []
    clusters = []
    class_seeds = {}
    for key, idxs in sorted(lines.items()):
        idxs.sort(key=lambda i: (norm[i][-1], norm[i][:-1], i))
        alive = set(idxs)
        for i in idxs:
            if i not in alive:
                continue
            alive.discard(i)
            members = [i]
            for k in list(alive):
                if check(i, k):
                    alive.discard(k)
                    members.append(k)
            coord = tuple(key[k] + offs[k] for k in range(d - 1)) + (norm[i][-1] + 1,)
            points.append(tuple(c * s for c, s in zip(coord, base.sides)))
            clusters.append((i, sorted(members)))
            class_seeds.setdefault(tuple(k % 2 for k in key), []).append(i)
    witness = _extend_witness(f, check, class_seeds)
    factor = 2 ** (d - 1)
    cert = PierceCertificate("grid", factor, points, clusters, witness)
    if verify:
        cert.verify(f)
    return cert


def _hexagon_strips(poly: ConvexPolygon):
    center = poly.is_centrally_symmetric()
    v = [p - center for p in poly.vertices]
    normals = []
    for k in range(3):
        e = v[(k + 1) % 6] - v[k]
        n = e.perp()
        normals.append(n)
    widths = [max(p.dot(n) for p in v) for n in normals]
    return center, v, normals, widths


def hexagon_pierce(f: Family, verify: bool = True) -> PierceCertificate:
    """Theorem-6 piercing for translates of a centrally symmetric hexagon.

    Pairwise-intersecting families take two points: the centers of the two
    hexagon translates inscribed in pairs of shifted strips.  Otherwise the
    factor-3 sandwich pair drives the grid decomposition.
    """
    if f.kind != "translates" or not isinstance(f.base, PolygonBody):
        raise NotHexagonBase("hexagon_pierce needs hexagon translates")
    poly = f.base.polygon
    if len(poly.vertices) != 6 or poly.is_centrally_symmetric() is None:
        raise NotHexagonBase("base is not a centrally symmetric hexagon")
    n = len(f)
    adj = intersection_graph(f)
    complete = all(len(adj[i]) == n - 1 for i in range(n))
    if not complete:
        pair = hexagon_sandwich_special(poly)
        cert = grid_pierce(f, pair, verify=verify)
        cert.method = "hexagon-grid"
        return cert

    center, v, normals, widths = _hexagon_strips(poly)
    centers = [center + f.members[i].t for i in range(n)]
    mids = []
    for k in range(3):
        vals = [c.dot(normals[k]) for c in centers]
        lo, hi = min(vals), max(vals)
        if hi - lo > 2 * widths[k]:
            raise VerificationFailed("strip bound violated for intersecting family")
        mids.append((lo + hi) / 2)

    def solve(k1, k2):
        n1, n2 = normals[k1], normals[k2]
        det = n1.cross(n2)
        x = (mids[k1] * n2.y - mids[k2] * n1.y) / det
        y = (mids[k2] * n1.x - mids[k1] * n2.x) / det
        return Point(x, y)

    # the center of H_ab sits where the slab midlines a and b cross; a member
    # contains that point iff the member's center lies in the hexagon
    # translate there.  Very flat hexagons can defeat one pairing, so all
    # three are tried and checked exactly; the oracle is a last resort.
    poly0 = poly.translate(-center)
    t12, t13, t23 = solve(0, 1), solve(0, 2), solve(1, 2)
    points = None
    for ta, tb in ((t12, t13), (t12, t23), (t13, t23)):
        ha = poly0.translate(ta)
        hb = poly0.translate(tb)
        if all(ha.contains(c) or hb.contains(c) for c in centers):
            points = [ta, tb]
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
    """A planar lattice with a verified covering or packing role."""

    def __init__(self, b1: Point, b2: Point, role: str):
        if b1.cross(b2) == 0:
            raise VerificationFailed("lattice basis is singular")
        if role not in ("covering", "packing"):
            raise VerificationFailed("unknown lattice role")
        self.b1 = b1
        self.b2 = b2
        self.role = role
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
    spec = LatticeSpec(b1, b2, "covering")
    cell = [Point(0, 0), b1, b1 + b2, b2]
    if b1.cross(b2) < 0:
        cell.reverse()
    bx, by = s0.bounding_box()
    from .geom import Interval

    cx = Interval(min(p.x for p in cell), max(p.x for p in cell))
    cy = Interval(min(p.y for p in cell), max(p.y for p in cell))
    window_x = Interval(cx.lo - bx.hi, cx.hi - bx.lo)
    window_y = Interval(cy.lo - by.hi, cy.hi - by.lo)
    translates = []
    for lam in spec.points_in_bbox(window_x, window_y, Point(0, 0)):
        translates.append(s0.translate(lam))
    if region_minus_polygons(cell, translates):
        raise CoverageNotVerified("lattice translates do not cover the cell")
    return spec


def packing_lattice(s0: ConvexPolygon, cell_poly: ConvexPolygon, eps=Fraction(1, 64)) -> LatticeSpec:
    """Tiling lattice of 2*cell_poly scaled by (1+eps): 2*s0 packs strictly."""
    eps = frac(eps)
    b1, b2 = _centered_tiling_basis(cell_poly)
    scale = 2 * (1 + eps)
    spec = LatticeSpec(b1 * scale, b2 * scale, "packing")
    big = s0.scale(4)  # 2S - 2S = 4S for centered symmetric S
    bx, by = big.bounding_box()
    from .geom import Interval

    for lam in spec.points_in_bbox(Interval(bx.lo, bx.hi), Interval(by.lo, by.hi), Point(0, 0)):
        if lam == Point(0, 0):
            continue
        if big.contains(lam):
            raise PackingNotVerified("2S translates touch at lattice distance")
    return spec


def union_area_exact(f: Family, limit: int = 15) -> Fraction:
    """Exact area of the union by inclusion-exclusion over convex intersections."""
    n = len(f)
    if n > limit:
        raise TooLarge("union area limited to %d members" % limit)
    if f.base.kind != "polygon":
        raise TooLarge("exact union area needs polygon members")
    chains = [list(f.realize(i).polygon.vertices) for i in range(n)]
    polys = [f.realize(i).polygon for i in range(n)]
    total = Fraction(0)

    def rec(start, chain, sign, area):
        nonlocal total
        total += sign * area
        for i in range(start, n):
            nxt = list(chain)
            for nrm, c in polys[i].halfplanes():
                nxt = clip_chain(nxt, nrm, c)
                if not nxt:
                    break
            if not nxt:
                continue
            from .geom import chain_area

            a = chain_area(nxt)
            if a == 0:
                continue
            rec(i + 1, nxt, -sign, a)

    for i in range(n):
        from .geom import chain_area

        rec(i + 1, chains[i], 1, chain_area(chains[i]))
    return total


def _default_sandwich(f: Family):
    if not isinstance(f.base, PolygonBody):
        raise UnsupportedBase("lattice methods need a centrally symmetric polygon base")
    poly = f.base.polygon
    if poly.is_centrally_symmetric() is None:
        raise UnsupportedBase("lattice methods need a centrally symmetric base")
    return hexagon_sandwich(poly)


def _offset_candidates(spec: LatticeSpec, subdivisions, seed):
    rng = random.Random(seed)
    for m in subdivisions:
        for uu in range(m):
            for vv in range(m):
                yield spec.b1 * Fraction(2 * uu + 1, 2 * m) + spec.b2 * Fraction(2 * vv + 1, 2 * m)
        for _ in range(m):
            yield spec.b1 * Fraction(rng.randrange(4 * m), 4 * m) + spec.b2 * Fraction(
                rng.randrange(4 * m), 4 * m
            )


def _union_bbox(f: Family):
    from .geom import Interval

    boxes = [f.realize(i).bbox() for i in range(len(f))]
    return (
        Interval(min(b[0].lo for b in boxes), max(b[0].hi for b in boxes)),
        Interval(min(b[1].lo for b in boxes), max(b[1].hi for b in boxes)),
    )


def lattice_pierce(f: Family, lattice: LatticeSpec = None, seed: int = 0,
                   subdivisions=(4, 8, 16, 32), verify: bool = True) -> PierceCertificate:
    """Pigeonhole transversal: lattice points inside the union pierce everything.

    Any offset yields a valid piercing set once the covering lattice is
    verified; the offset search only minimizes the count toward the
    floor(area/cell) bound.  The witness comes from the packing construction
    so the certificate is self-contained.
    """
    sw = _default_sandwich(f)
    center = sw.center
    s0 = f.base.polygon.translate(-center)
    h_in0 = sw.h_in.translate(-center)
    if lattice is None:
        lattice = covering_lattice(s0, h_in0)
    elif lattice.role != "covering":
        raise CoverageNotVerified("lattice_pierce needs a covering lattice")
    area_upper = None
    try:
        area = union_area_exact(f)
        target = math.floor(area / lattice.cell_area)
    except TooLarge:
        # the weaker honest bound: the union is at most the sum of areas
        area = None
        area_upper = sum(f.realize(i).measure() for i in range(len(f)))
        target = math.floor(area_upper / lattice.cell_area)
    ix, iy = _union_bbox(f)
    bodies = f.bodies()
    best_pts = None
    for off in _offset_candidates(lattice, subdivisions, seed):
        pts = [
            p
            for p in lattice.points_in_bbox(ix, iy, off + center)
            if any(b.contains(p) for b in bodies)
        ]
        if best_pts is None or len(pts) < len(best_pts):
            best_pts = pts
        if target is not None and best_pts is not None and len(best_pts) <= target:
            break
    wit, wspec = lattice_witness(f, seed=seed, subdivisions=subdivisions, sandwich=sw)
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
            "union_area_upper": area_upper,
        },
    )
    if verify:
        cert.verify(f)
    return cert


def lattice_witness(f: Family, lattice: LatticeSpec = None, eps=Fraction(1, 64),
                    seed: int = 0, subdivisions=(4, 8, 16, 32), sandwich=None):
    """Pairwise-disjoint members holding distinct lattice points (Lemma-6 dual).

    Returns (member indices, lattice spec).  With the default packing lattice
    of 2*H_out*(1+eps), members containing distinct lattice points are
    disjoint; an exact recheck drops any touching pair (none in practice).
    """
    sw = sandwich or _default_sandwich(f)
    center = sw.center
    s0 = f.base.polygon.translate(-center)
    h_out0 = sw.h_out.translate(-center)
    if lattice is None:
        lattice = packing_lattice(s0, h_out0, eps)
    elif lattice.role != "packing":
        raise PackingNotVerified("lattice_witness needs a packing lattice")
    try:
        area = union_area_exact(f)
        target = math.ceil(area / lattice.cell_area)
    except TooLarge:
        target = None
    ix, iy = _union_bbox(f)
    bodies = f.bodies()
    best = []
    for off in _offset_candidates(lattice, subdivisions, seed):
        chosen = {}
        for p in lattice.points_in_bbox(ix, iy, off + center):
            for i, b in enumerate(bodies):
                if i not in chosen.values() and b.contains(p):
                    chosen[(p.x, p.y)] = i
                    break
        if len(chosen) > len(best):
            best = list(chosen.values())
        if target is not None and len(best) >= target:
            break
    # exact disjointness recheck with greedy removal
    check = pair_checker(f)
    kept = []
    for i in best:
        if all(not check(i, j) for j in kept):
            kept.append(i)
    # extending with any further disjoint members only strengthens the witness
    for i in range(len(f)):
        if i not in kept and all(not check(i, j) for j in kept):
            kept.append(i)
    return kept, lattice
