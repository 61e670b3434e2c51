"""Exact transversal and packing numbers for small families.

tau is a minimum set cover over a finite complete candidate set: every
nonempty intersection region of a subfamily contains either a pairwise
boundary intersection point or a vertex/reference point of a member, so
restricting piercing points to those candidates loses nothing.  nu is a
maximum independent set of the intersection graph.  Both solvers are
branch-and-bound and deterministic.

Candidates are int entries (q, m, A, B) (bodies.int_point) built from
the scaled columns (Fraction columns cleared by their own lcm) and
deduplicated, first occurrences in order; only the tau_points become
Points.  Polygon member i has the vertices (S_i v + T_i) / D and the
halfplanes a x + b y <= c of C carried to (a D, b D, c S_i + a X_i +
b Y_i).  The masks come from bodies.membership, as in verify; a member is
realized only for a point a caller adds that it leaves open.  A radicand
over 2^48 may keep a square factor, so two equal radical candidates can
both survive; their masks are equal, min_set_cover drops the second as
dominated, and tau does not change.
"""

from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm

from .bodies import Family, box_columns, disk_columns, int_point, intersection_graph, membership
from .errors import TooLarge
from .geom import Point, _clip, _hom, _planes
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


def _triple(x, y, w):
    g = gcd(x, y, w)
    return x // g, y // g, w // g


def _polygon_candidates(base, D, cols, S):
    verts = [_hom(p) for p in (*base.polygon.vertices, base.reference_point)]
    edges = _planes(base.polygon)
    out, chains, planes = [], [], []
    for s, x, y in zip(S, *cols):
        pts = [_triple(s * vx + x * w, s * vy + y * w, D * w) for vx, vy, w in verts]
        out.extend(pts)
        chains.append(pts[:-1])
        planes.append([(a * D, b * D, c * s + a * x + b * y) for a, b, c in edges])
    for i, pts in enumerate(chains):
        for hps in planes[i + 1:]:
            clipped = pts
            for plane in hps:
                clipped = clipped and _clip(clipped, plane)
            out.extend(clipped)
    return out, []


def _disk_candidates(base, D, cols, S):
    # crossings c_i + K / h (du, dv) +- t (-dv, du), h = 2 |du, dv|^2, t^2 = delta / h^2
    LD, us, vs, rs = disk_columns(base, D, cols, S)
    rat, rad = [_triple(u, v, LD) for u, v in zip(us, vs)], []
    for i, (u, v, R) in enumerate(zip(us, vs, rs)):
        for u2, v2, R2 in zip(us[i + 1:], vs[i + 1:], rs[i + 1:]):
            du, dv = u2 - u, v2 - v
            h = 2 * (du * du + dv * dv)
            K = h // 2 + R * R - R2 * R2
            delta = 2 * h * R * R - K * K
            if not h or delta < 0:
                continue
            # t = f sqrt(m) / d as in Radical.sqrt; a tangency repeats
            g = gcd(delta, h * h)
            d = h * h // g
            f, m = _reduce_radicand(delta // g * d)
            ax, ay, q = (h * u + K * du) * d, (h * v + K * dv) * d, h * LD * d
            bx, by = -h * f * dv, h * f * du
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
        return [e for e, m in zip(combos, _coverage_masks(f, combos)) if m]
    D, cols, S = f.scaled_translations()
    E = lcm(*[v.denominator for v in chain(S, *cols)])
    *cols, S = [[v.numerator * (E // v.denominator) for v in col] for col in (*cols, S)]
    build = _polygon_candidates if base.kind == "polygon" else _disk_candidates
    rat, rad = build(base, D * E, cols, S)  # rational points first
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


def _coverage_masks(f: Family, candidates, extra=()):
    """masks[k] has bit i set iff member i contains point k of candidates,
    then of the caller's points extra."""
    points = [None] * len(candidates) + list(extra)
    member = membership(f, [*candidates, *map(int_point, extra)])
    masks = [0] * len(points)
    for i in range(len(f)):
        test = member(i)
        for k, p in enumerate(points):
            inside = test(k)
            if inside or inside is None and f.realize(i).contains(p):
                masks[k] |= 1 << i
    return masks


def min_set_cover(n: int, masks):
    """Minimum subfamily of masks covering {0..n-1}; exact branch and bound.

    Returns chosen indices into masks.  Dominated masks are dropped first;
    the lower bound packs uncovered elements no single mask covers twice.
    """
    full = (1 << n) - 1
    order = sorted(range(len(masks)), key=lambda i: (-bin(masks[i]).count("1"), i))
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
        i = max(keep, key=lambda i: (bin(masks[i] & uncovered).count("1"), -i))
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
            cover_of[e], key=lambda i: (-bin(masks[i] & uncovered).count("1"), i)
        )
        for i in cands:
            chosen.append(i)
            rec(uncovered & ~masks[i], chosen)
            chosen.pop()

    rec(full, [])
    return best_sol


def max_independent_set(adj):
    """Maximum independent set, exact; greedy clique cover as the bound."""
    n = len(adj)
    best = []

    def clique_cover_bound(verts):
        bound = 0
        rest = set(verts)
        while rest:
            v = min(rest)
            clique = {v}
            for u in sorted(rest - {v}):
                if all(u in adj[w] or u == w for w in clique):
                    clique.add(u)
            rest -= clique
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
        v = max(verts, key=lambda x: (len(adj[x] & verts), -x))
        # branch: v in the set
        rec(verts - {v} - adj[v], chosen + [v])
        # v out of the set
        rec(verts - {v}, chosen)

    rec(set(range(n)), [])
    return sorted(best)


def _tau(f: Family, limit: int):
    """(points, candidates): an optimal piercing set, chosen by
    min_set_cover from candidate_points, and the number of candidates."""
    cands = candidate_points(f, limit)
    chosen = min_set_cover(len(f), _coverage_masks(f, cands))
    return _points(f, [cands[i] for i in chosen]), len(cands)


def exact_tau(f: Family, limit: int = TAU_LIMIT):
    """Exact transversal number with an optimal piercing set."""
    points, _ = _tau(f, limit)
    return len(points), points


def exact_nu(f: Family, limit: int = NU_LIMIT):
    """Exact packing number with an optimal pairwise-disjoint subfamily."""
    if len(f) > limit:
        raise TooLarge("oracle limit is %d members" % limit)
    adj = intersection_graph(f)
    members = max_independent_set(adj)
    return len(members), members


def solve(f: Family, tau_limit: int = TAU_LIMIT, nu_limit: int = NU_LIMIT) -> OracleResult:
    points, used = _tau(f, tau_limit)
    nu, members = exact_nu(f, nu_limit)
    return OracleResult(len(points), points, nu, members, used)
