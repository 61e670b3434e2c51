"""Exact transversal and packing numbers for small families.

tau is a minimum set cover over a finite complete candidate set: every
nonempty intersection region of a subfamily contains either a pairwise
boundary intersection point or a vertex/reference point of a member, so
restricting piercing points to those candidates loses nothing.  nu is a
maximum independent set of the intersection graph.  Both solvers are
branch-and-bound and deterministic.

Candidates are int entries (q, m, A, B) (bodies.int_point) built from
the int columns of bodies.int_translations and deduplicated, first
occurrences in order; only the tau_points become Points.  Polygon members
are the int vertices and halfplanes of bodies.member_polygons, and only
pairs that meet (pair_checker) are clipped.  Edge e has one normal in
every member, so member i lies in member j's halfplane e iff its offset is
at most j's; that clip would keep the chain and is skipped.  The masks
come from bodies.coverage, one bisection pair per slab and point over the
members sorted by their slab bounds (disks, and any irrational entry:
bodies.membership member by member, as in verify); no member is
realized.  min_set_cover keeps the first of repeated masks, then drops
dominated ones.  A radicand over 2^48 may keep a square factor, so two
equal radical candidates can both survive; their masks are equal,
min_set_cover drops the second, and tau does not change.

nu decides every pair with pair_checker (at most NU_LIMIT members, whose
pairs candidate generation walks anyway) into int bitsets of neighbours,
on which the independent set search and its clique cover bound run.
"""

from fractions import Fraction
from itertools import product
from math import gcd

from .bodies import (Family, _triple, box_columns, coverage, disk_columns, int_translations,
                     member_polygons, pair_checker)
from .errors import TooLarge
from .geom import Point, _clip
from .radicals import Radical, RadPoint, _reduce_radicand

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


def _polygon_candidates(f, D, cols, S):
    meets = pair_checker(f)
    points, planes = member_polygons(f.base, D, cols, S)
    out = [p for pts in points for p in pts]
    for i, pts in enumerate(points):
        own = [c for _, _, c in planes[i]]
        for j in range(i + 1, len(points)):
            if not meets(i, j):
                continue  # a pair that does not meet clips to nothing
            clipped = pts[:-1]
            for c, plane in zip(own, planes[j]):
                # edge e of every member has one normal, so member i lies in
                # member j's halfplane e, and the clip keeps the chain, iff
                # its offset is at most j's
                if c > plane[2]:
                    clipped = _clip(clipped, plane)
                    if not clipped:
                        break
            out.extend(clipped)
    return out, []


def _disk_candidates(f, D, cols, S):
    # crossings c_i + K / h (du, dv) +- t (-dv, du), h = 2 |du, dv|^2, t^2 = delta / h^2
    LD, us, vs, rs = disk_columns(f.base, D, cols, S)
    rat, rad = [_triple(u, v, LD) for u, v in zip(us, vs)], []
    for i, (u, v, R) in enumerate(zip(us, vs, rs)):
        for u2, v2, R2 in zip(us[i + 1:], vs[i + 1:], rs[i + 1:]):
            du, dv = u2 - u, v2 - v
            h = 2 * (du * du + dv * dv)
            K = h // 2 + R * R - R2 * R2
            delta = 2 * h * R * R - K * K
            if not h or delta < 0:
                continue
            # t = k sqrt(m) / d as in Radical.sqrt; a tangency repeats
            g = gcd(delta, h * h)
            d = h * h // g
            k, m = _reduce_radicand(delta // g * d)
            ax, ay, q = (h * u + K * du) * d, (h * v + K * dv) * d, h * LD * d
            bx, by = -h * k * dv, h * k * du
            if m == 1:
                rat += [_triple(ax + bx, ay + by, q), _triple(ax - bx, ay - by, q)]
            else:
                g = gcd(q, ax, ay, bx, by)
                rad += [(q // g, m, (ax // g, ay // g), (e * bx // g, e * by // g))
                        for e in (1, -1)]
    return rat, rad


def candidate_points(f: Family, limit: int = TAU_LIMIT):
    """A finite piercing-complete candidate set for the family: member
    vertices, reference points and box corners, and pairwise crossings."""
    if len(f) > limit:
        raise TooLarge("oracle limit is %d members" % limit)
    base = f.base
    if base.kind == "box":
        scale, _, lo_cols, _ = box_columns(f, range(len(f)))
        combos = [(scale, 1, c, None) for c in product(*[sorted(set(col)) for col in lo_cols])]
        return [e for e, m in zip(combos, coverage(f, combos)) if m]
    build = _polygon_candidates if base.kind == "polygon" else _disk_candidates
    rat, rad = build(f, *int_translations(f))  # rational points first
    return [(w, 1, (x, y), None) for x, y, w in dict.fromkeys(rat)] + list(dict.fromkeys(rad))


def _points(f: Family, entries):
    """The Point, RadPoint or box tuple of each entry."""
    out = []
    for q, m, A, B in entries:
        xy = [Fraction(a, q) for a in A]
        if B:
            xy = [Radical({k: c for k, c in ((1, a), (m, Fraction(b, q))) if c})
                  for a, b in zip(xy, B)]
        out.append(tuple(xy) if f.base.kind == "box" else (RadPoint if B else Point)(*xy))
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
    cands = candidate_points(f, limit)
    chosen = min_set_cover(len(f), coverage(f, cands))
    return _points(f, [cands[i] for i in chosen]), len(cands)


def exact_tau(f: Family, limit: int = TAU_LIMIT):
    """Exact transversal number with an optimal piercing set."""
    points, _ = _tau(f, limit)
    return len(points), points


def _adjacency(f: Family):
    """The intersection graph as int bitsets, every pair by pair_checker."""
    n = len(f)
    meets = pair_checker(f)
    adj = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if meets(i, j):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


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
