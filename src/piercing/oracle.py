"""Exact transversal and packing numbers for small families.

tau is a minimum set cover over a finite complete candidate set: every
nonempty intersection region of a subfamily contains either a pairwise
boundary intersection point or a vertex/reference point of a member, so
restricting piercing points to those candidates loses nothing.  nu is a
maximum independent set of the intersection graph.  Both solvers are
branch-and-bound and deterministic.
"""

import itertools

from .bodies import Family, intersection_graph
from .circles import circle_circle_points
from .errors import TooLarge
from .geom import Point, intersection_chain

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


def candidate_points(f: Family, limit: int = TAU_LIMIT):
    """A finite piercing-complete candidate set for the family."""
    n = len(f)
    if n > limit:
        raise TooLarge("oracle limit is %d members" % limit)
    bodies = f.bodies()
    kind = f.base.kind
    out = []
    if kind == "polygon":
        for b in bodies:
            out.extend(b.polygon.vertices)
            out.append(b.reference_point)
        for i in range(n):
            for j in range(i + 1, n):
                out.extend(intersection_chain(bodies[i].polygon, bodies[j].polygon))
        return _dedup_rational(out)
    if kind == "disk":
        rat = [b.center for b in bodies]
        rad = []
        for i in range(n):
            for j in range(i + 1, n):
                for p in circle_circle_points(
                    bodies[i].center, bodies[i].radius, bodies[j].center, bodies[j].radius
                ):
                    if p.is_rational():
                        rat.append(Point(p.x.as_fraction(), p.y.as_fraction()))
                    else:
                        rad.append(p)
        return _dedup_rational(rat) + _dedup_radical(rad)
    if kind == "box":
        d = f.base.dim
        axes = [sorted({b.mins[k] for b in bodies}) for k in range(d)]
        out = []
        for combo in itertools.product(*axes):
            if any(b.contains(combo) for b in bodies):
                out.append(combo)
        return out
    raise TooLarge("unsupported family kind")


def _dedup_rational(points):
    seen = set()
    out = []
    for p in points:
        key = (p.x, p.y)
        if key not in seen:
            seen.add(key)
            out.append(p)
    return out


def _dedup_radical(points):
    out = []
    for p in points:
        if not any(p == q for q in out):
            out.append(p)
    return out


def _coverage_masks(f: Family, candidates):
    bodies = f.bodies()
    masks = []
    for p in candidates:
        m = 0
        for i, b in enumerate(bodies):
            if b.contains(p):
                m |= 1 << i
        masks.append(m)
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


def exact_tau(f: Family, limit: int = TAU_LIMIT):
    """Exact transversal number with an optimal piercing set."""
    cands = candidate_points(f, limit)
    masks = _coverage_masks(f, cands)
    chosen = min_set_cover(len(f), masks)
    return len(chosen), [cands[i] for i in chosen]


def exact_nu(f: Family, limit: int = NU_LIMIT):
    """Exact packing number with an optimal pairwise-disjoint subfamily."""
    if len(f) > limit:
        raise TooLarge("oracle limit is %d members" % limit)
    adj = intersection_graph(f)
    members = max_independent_set(adj)
    return len(members), members


def solve(f: Family, tau_limit: int = TAU_LIMIT, nu_limit: int = NU_LIMIT) -> OracleResult:
    cands = candidate_points(f, tau_limit)
    masks = _coverage_masks(f, cands)
    chosen = min_set_cover(len(f), masks)
    nu, members = exact_nu(f, nu_limit)
    return OracleResult(len(chosen), [cands[i] for i in chosen], nu, members, len(cands))
