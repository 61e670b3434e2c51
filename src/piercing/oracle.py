"""Exact transversal and packing numbers for small families.

tau is a minimum set cover over a finite complete candidate set, and nu a
maximum independent set of the intersection graph.  Both solvers are
branch-and-bound and deterministic.

The candidates are the lowest point (least y, then least x) of each member
and of the intersection of each meeting pair.  They are complete by Helly's
theorem.  Let p be the lowest point of a nonempty intersection of members
I.  The set of points below p is convex and shares no point with that
intersection, so some three of these convex sets (the set below p and the
members of I) share none.  The three are not all members, as p lies in
every member, so the set below p and members a and b (possibly a = b)
share no point: p is the lowest point of a and b's intersection, a
candidate.  (Lowest points of intersections are an LP-type problem of
combinatorial dimension 2, Sharir and Welzl 1992.)  So every nonempty
intersection holds a candidate, and the candidates' masks hold every
inclusion-maximal set of members with a common point: tau is exact.
Each candidate is also the lowest point of the intersection of the members
that hold it.  Box families keep the products of the members' low corner
coordinates that some member holds.

Candidates are int entries (q, m, A, B) (bodies.int_point) built from the
family's scaled columns as they are (polygons, whose members
bodies.member_polygons clears one by one) or from the int columns of
bodies.int_translations (disks), rational ones first, and deduplicated,
first occurrences in order; only the tau_points become Points and
RadPoints.  A meeting pair where one member holds the other's
lowest point has that point as its own and is left out; the meeting pairs
are the bitsets of _adjacency, which nu searches too.  Polygon members
are the int vertices and halfplanes of bodies.member_polygons, and a
pair's lowest point is a vertex of one member clipped by the other.  Edge e has one normal in every
member, so member i lies in member j's halfplane e iff its offset is at
most j's; that clip would keep the chain and is skipped.  A disk pair's
lowest point is the lower crossing of its circles, (A + B sqrt(m)) / q.
The masks come from bodies.coverage, one bisection pair per slab and point
over the members sorted by their slab bounds (disks, and any irrational
entry: bodies.membership member by member, as in verify); no member is
realized, and the lowest points' masks, which pick the pairs, are reused.
min_set_cover keeps the first of repeated masks, then drops dominated
ones.  A radicand over 2^48 may keep a square factor
(radicals._reduce_radicand), so two equal radical candidates can both
survive; their masks are equal, min_set_cover drops the second, and tau
does not change.

nu decides every pair with pair_checker (at most NU_LIMIT members) into
int bitsets of neighbours, on which the independent set search and its
clique cover bound run.  _adjacency keeps the last family's bitsets, so
solve tests each pair once for its candidates and nu.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd

from .bodies import (Family, _triple, box_columns, coverage, disk_columns, int_translations,
                     member_polygons, pair_checker)
from .errors import TooLarge
from .geom import Point, _clip
from .radicals import RadPoint, _reduce_radicand

TAU_LIMIT = 16
NU_LIMIT = 24


class OracleResult:
    def __init__(self, tau, tau_points, nu, nu_members, candidates_used):
        self.tau = tau
        self.tau_points = tau_points
        self.nu = nu
        self.nu_members = nu_members
        self.candidates_used = candidates_used

    def __repr__(self):
        return "OracleResult(tau=%d, nu=%d)" % (self.tau, self.nu)


def _lowest(chain):
    """The lowest point (least y, then least x) of a chain of int triples
    (x, y, w), w > 0."""
    best = chain[0]
    for p in chain[1:]:
        d = p[1] * best[2] - best[1] * p[2]
        if d < 0 or not d and p[0] * best[2] < best[0] * p[2]:
            best = p
    return best


def _entry(x, y, w):
    """The candidate entry (q, m, A, B) of a reduced int triple."""
    return w, 1, (x, y), None


def _polygon_lows(f, D, cols, S):
    """(bottoms, low): the lowest point of each polygon member, and low(i, j)
    that of the intersection of members i and j, which must meet."""
    points, planes = member_polygons(f.base, D, cols, S)
    vs = f.base.polygon.vertices
    k = min(range(len(vs)), key=lambda k: (vs[k].y, vs[k].x))  # the same vertex in every member
    # Fraction columns clear each member by its own denominators, so two
    # members' normals of one edge differ by a factor and their offsets
    # do not compare: every halfplane is clipped
    every = type(cols[0][0]) is not int

    def low(i, j):
        clipped = points[i]
        for (_, _, c), plane in zip(planes[i], planes[j]):
            # edge e of every member has one normal, so member i lies in
            # member j's halfplane e, and the clip keeps the chain, iff
            # its offset is at most j's
            if every or c > plane[2]:
                clipped = _clip(clipped, plane)
        return _entry(*_lowest(clipped))

    return [_entry(*pts[k]) for pts in points], low


def _disk_lows(f, D, cols, S):
    """_polygon_lows for disk members: a disk's bottom point, and the lower
    crossing of two circles where neither disk holds the other's bottom."""
    LD, us, vs, rs = disk_columns(f.base, D, cols, S)

    def low(i, j):
        # crossings c_i + K / h (du, dv) +- t (-dv, du), h = 2 |du, dv|^2,
        # t^2 = delta / h^2; neither disk holds the other, so h > 0 and
        # delta >= 0, and t = k sqrt(m) / d with m squarefree (k = 0 at a
        # tangency)
        u, v, R = us[i], vs[i], rs[i]
        du, dv = us[j] - u, vs[j] - v
        h = 2 * (du * du + dv * dv)
        K = h // 2 + R * R - rs[j] * rs[j]
        delta = 2 * h * R * R - K * K
        g = gcd(delta, h * h)
        d = h * h // g
        k, m = _reduce_radicand(delta // g * d)
        ax, ay, q = (h * u + K * du) * d, (h * v + K * dv) * d, h * LD * d
        bx, by = -h * k * dv, h * k * du
        if by > 0 or not by and bx > 0:  # the lower crossing takes -t
            bx, by = -bx, -by
        if m == 1:
            return _entry(*_triple(ax + bx, ay + by, q))
        g = gcd(q, ax, ay, bx, by)
        return q // g, m, (ax // g, ay // g), (bx // g, by // g)

    return [_entry(*_triple(u, v - R, LD)) for u, v, R in zip(us, vs, rs)], low


def candidate_points(f: Family, limit: int = TAU_LIMIT):
    """(candidates, masks): a finite piercing-complete candidate set for the
    family and the coverage mask of each.  The candidates are the lowest
    point of each member and of each meeting pair (_adjacency), or for
    boxes the products of low corner coordinates that some member holds.
    A pair where one member holds the other's lowest point has that point as
    its own and is left out; the members' lowest points' masks decide that
    and are kept."""
    if len(f) > limit:
        raise TooLarge("oracle limit is %d members" % limit)
    if f.base.kind == "box":
        scale, _, lo_cols, _ = box_columns(f, range(len(f)))
        combos = [(scale, 1, c, None) for c in product(*[sorted(set(col)) for col in lo_cols])]
        masks = coverage(f, combos)
        return [e for e, m in zip(combos, masks) if m], [m for m in masks if m]
    adj = _adjacency(f)
    if f.base.kind == "polygon":
        bottoms, low = _polygon_lows(f, *f.scaled_translations())
    else:
        bottoms, low = _disk_lows(f, *int_translations(f))
    held = coverage(f, bottoms)
    n = len(f)
    pairs = [low(i, j) for i in range(n) for j in range(i + 1, n)
             if adj[i] >> j & 1 and not (held[i] >> j | held[j] >> i) & 1]
    pairs.sort(key=lambda e: e[1] > 1)  # rational points first
    # first occurrences in order; a repeated entry has the same mask
    masks = dict(zip(bottoms, held))
    pairs = [e for e in dict.fromkeys(pairs) if e not in masks]
    masks.update(zip(pairs, coverage(f, pairs)))
    return list(masks), list(masks.values())


def _points(f: Family, entries):
    """The Point, RadPoint or box tuple of each entry."""
    out = []
    for q, m, A, B in entries:
        if B:
            out.append(RadPoint(q, m, A, B))
            continue
        xy = [Fraction(a, q) for a in A]
        out.append(tuple(xy) if f.base.kind == "box" else Point(*xy))
    return out


def min_set_cover(n: int, masks):
    """Minimum subfamily of masks covering {0..n-1}; exact branch and bound.

    Returns chosen indices into masks.  Repeated and then dominated masks
    are dropped first; the lower bound packs uncovered elements no single
    mask covers twice.
    """
    full = (1 << n) - 1
    first = {}
    for i, m in enumerate(masks):
        first.setdefault(m, i)  # a repeat of a mask is dominated by its first index
    order = sorted(first.values(), key=lambda i: (-masks[i].bit_count(), i))
    keep = []
    seen = 0
    for i in order:
        m = masks[i]
        if not m or any(masks[j] & m == m for j in keep):
            continue  # empty or dominated by an earlier (larger) mask
        keep.append(i)
        seen |= m
    if seen != full:
        raise ValueError("candidates do not cover all members")

    cover_of = [[i for i in keep if masks[i] >> e & 1] for e in range(n)]

    # greedy upper bound
    best_sol = []
    uncovered = full
    while uncovered:
        i = max(keep, key=lambda i: ((masks[i] & uncovered).bit_count(), -i))
        best_sol.append(i)
        uncovered &= ~masks[i]
    best_size = len(best_sol)

    def lower_bound(uncovered):
        # greedily pick elements no single mask covers together: a packing
        lb = 0
        blocked = 0
        rem = uncovered
        while rem:
            e = (rem & -rem).bit_length() - 1
            rem &= rem - 1
            if blocked >> e & 1:
                continue
            lb += 1
            for i in cover_of[e]:
                blocked |= masks[i]
        return lb

    def rec(uncovered, chosen):
        nonlocal best_size, best_sol
        if not uncovered:
            if len(chosen) < best_size:
                best_size = len(chosen)
                best_sol = list(chosen)
            return
        if len(chosen) + lower_bound(uncovered) >= best_size:
            return
        e = min(
            (x for x in range(n) if uncovered >> x & 1),
            key=lambda x: len([i for i in cover_of[x] if masks[i] & uncovered]),
        )
        cands = sorted(
            cover_of[e], key=lambda i: (-(masks[i] & uncovered).bit_count(), i)
        )
        for i in cands:
            chosen.append(i)
            rec(uncovered & ~masks[i], chosen)
            chosen.pop()

    rec(full, [])
    return best_sol


def max_independent_set(adj):
    """Maximum independent set, exact; greedy clique cover as the bound.

    adj[v] holds v's neighbours as a set of indices or as an int bitset
    (bit u set iff u and v are adjacent); the search runs on bitsets.  A
    branch takes the vertex with the most neighbours left, the lowest on
    ties; the bound covers what is left by greedy cliques, each grown from
    its lowest vertex in increasing order.
    """
    adj = [a if isinstance(a, int) else sum(1 << u for u in a) for a in adj]
    best = []

    def clique_cover_bound(verts):
        bound = 0
        while verts:
            v = verts & -verts
            clique = v
            common = adj[v.bit_length() - 1] & verts  # adjacent to all of the clique
            while common:
                u = common & -common
                clique |= u
                common &= adj[u.bit_length() - 1]
            verts &= ~clique
            bound += 1
        return bound

    def rec(verts, chosen):
        nonlocal best
        if not verts:
            if len(chosen) > len(best):
                best = list(chosen)
            return
        if len(chosen) + clique_cover_bound(verts) <= len(best):
            return
        v, most, rest = -1, -1, verts
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            d = (adj[x] & verts).bit_count()
            if d > most:
                v, most = x, d
        # branch: v in the set
        rec(verts & ~(1 << v) & ~adj[v], chosen + [v])
        # v out of the set
        rec(verts & ~(1 << v), chosen)

    rec((1 << len(adj)) - 1, [])
    return sorted(best)


def _tau(f: Family, limit: int):
    """(points, candidates): an optimal piercing set, chosen by
    min_set_cover from candidate_points, and the number of candidates."""
    cands, masks = candidate_points(f, limit)
    chosen = min_set_cover(len(f), masks)
    return _points(f, [cands[i] for i in chosen]), len(cands)


def exact_tau(f: Family, limit: int = TAU_LIMIT):
    """Exact transversal number with an optimal piercing set."""
    points, _ = _tau(f, limit)
    return len(points), points


@lru_cache(maxsize=1)
def _adjacency(f: Family):
    """The intersection graph as a tuple of int bitsets, every pair by
    pair_checker.  A family's members never change, so the last family's
    tuple is kept: solve's candidates and nu test each pair once."""
    n = len(f)
    meets = pair_checker(f)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if meets(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return tuple(adj)


def exact_nu(f: Family, limit: int = NU_LIMIT):
    """Exact packing number with an optimal pairwise-disjoint subfamily."""
    if len(f) > limit:
        raise TooLarge("oracle limit is %d members" % limit)
    members = max_independent_set(_adjacency(f))
    return len(members), members


def solve(f: Family) -> OracleResult:
    points, used = _tau(f, TAU_LIMIT)
    nu, members = exact_nu(f)
    return OracleResult(len(points), points, nu, members, used)
