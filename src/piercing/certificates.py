"""Piercing certificates: points, clusters, a disjoint witness, and a factor.

A certificate is checkable on its own: every member must contain one of the
points (exact), the witness members must be pairwise disjoint (exact), and
|points| <= factor * |witness|.  Membership checks go through a uniform grid
over the points, so verification stays near-linear; the grid only prunes.
Polygon and box membership of a rational point is decided exactly on the
family's int slabs (bodies.Family.slabs); the disk screen answers only where
its float error bound, taken from the operands of each comparison, settles
the sign.  Everything else is an exact test on the realized member.
"""

from fractions import Fraction
import math
from operator import mul
import random
import statistics

from .bodies import Family, intersection_graph
from .errors import VerificationFailed
from .radicals import RadPoint, Radical

_U = 2.0 ** -53  # unit roundoff of a double
_TINY = 1e-300  # covers the absolute error of conversions that underflow


def _ratio(n, d):
    """(x, e): the float n / d and its error bound u|x|, for ints n and d
    (a correctly rounded division) or a Fraction n (float() of a Fraction
    is correctly rounded too)."""
    x = float(n / d)
    return x, _U * abs(x) + _TINY


def _float_coord(v):
    """(x, e): a float x with |x - v| <= e, for a rational or a Radical v.

    int / int is correctly rounded, so a rational is off by at most u|x|.
    Each radical term c*sqrt(m) is off by at most 4u of itself (converting
    c and m, the root, the product), and summing k terms adds at most
    (k - 1)u of their magnitudes; the bound doubles (k + 3)u for the
    rounding of the bound itself.
    """
    if isinstance(v, Radical):
        x = mag = 0.0
        for m, c in v.terms.items():
            t = c.numerator / c.denominator * math.sqrt(m)
            x += t
            mag += abs(t)
        return x, 2 * (len(v.terms) + 3) * _U * mag + _TINY
    return _ratio(v.numerator, v.denominator)


def _float_points(points):
    """The one float pass: (xs, exs, ys, eys), each point's first two
    coordinates as floats and their error bounds."""
    xs, exs, ys, eys = [], [], [], []
    for p in points:
        x, ex = _float_coord(p[0] if isinstance(p, tuple) else p.x)
        y, ey = _float_coord(p[1] if isinstance(p, tuple) else p.y)
        xs.append(x)
        exs.append(ex)
        ys.append(y)
        eys.append(ey)
    return xs, exs, ys, eys


def _float_members(f: Family, indices):
    """The one float pass over the checked members: (x, ex, y, ey, size)
    per index, in the order of indices.

    (x, y) is the member's image s*a + t of the base anchor a (the centre
    of a disk, else the low corner of the base's bounding box) and ex, ey
    bound its error; size is the member's radius for disks, else its
    scale.  Each value is one correctly rounded division on the columns of
    Family.scaled_translations(): a*s + t = (a.num S + T a.den) / (a.den D).
    """
    base = f.base
    disk = base.kind == "disk"
    ax, ay = (base.center.x, base.center.y) if disk else [iv.lo for iv in base.bbox()[:2]]
    radius = base.radius if disk else Fraction(1)
    D, (xs, ys, *_), S = f.scaled_translations()
    (an, ad), (bn, bd) = [(v.numerator, v.denominator) for v in (ax, ay)]
    rn, rdD, adD, bdD = radius.numerator, radius.denominator * D, ad * D, bd * D
    return [_ratio(an * S[i] + xs[i] * ad, adD) + _ratio(bn * S[i] + ys[i] * bd, bdD)
            + (float(rn * S[i] / rdD),) for i in indices]


def _exact_point(p):
    """(q, P): the point as int numerators P over one denominator q, or
    None when a coordinate is irrational."""
    if isinstance(p, RadPoint):
        if not p.is_rational():
            return None
        p = (p.x.as_fraction(), p.y.as_fraction())
    elif not isinstance(p, tuple):
        p = (p.x, p.y)
    q = math.lcm(*[v.denominator for v in p])
    return q, [v.numerator * (q // v.denominator) for v in p]


def _membership(f: Family, points, fpts):
    """member(i, fm) -> test(k): True or False where member i is decided to
    contain point k or not, None where the answer is open; fm is member
    i's float pass entry.

    Polygons and boxes decide exactly on the family's slabs
    (Family.slabs): the point P/q lies in member i iff
    q lo <= form . P <= q hi on every slab, so only points with irrational
    coordinates stay open.  Each point is converted once.  Disks use the
    float screen.
    """
    if f.base.kind == "disk":
        return lambda i, fm: _float_disk_screen(fm, fpts)
    forms, lo, hi = f.slabs()
    exact = []
    for p in points:
        e = _exact_point(p)
        if e is not None:
            q, P = e
            e = q, [sum(map(mul, form, P)) for form in forms]
        exact.append(e)

    def member(i, fm):
        li, hi_ = lo[i], hi[i]

        def test(k):
            e = exact[k]
            if e is None:
                return None
            q, us = e
            return all(q * a <= u <= q * b for a, u, b in zip(li, us, hi_))

        return test

    return member


def _disk_screen(body, fpts):
    """k -> True/False where floats decide the realized disk body contains
    point k, else None."""
    (cx, ecx), (cy, ecy) = _float_coord(body.center.x), _float_coord(body.center.y)
    return _float_disk_screen((cx, ecx, cy, ecy, _float_coord(body.radius)[0]), fpts)


def _float_disk_screen(fdisk, fpts):
    """k -> True/False where floats decide that the disk contains point k,
    else None; fdisk is (cx, ecx, cy, ecy, r) as _float_members gives it.

    The float gap |p - c|^2 - r^2 is within tol of the exact one: each
    difference carries the point's own error, the centre's conversion
    error and one rounding; squaring, summing and subtracting r^2 add a
    few ulps of ax^2 + ay^2 + r^2, with ax = |px| + |cx|.
    """
    cx, ecx, cy, ecy, r = fdisk
    rr = r * r

    xs, exs, ys, eys = fpts

    def screen(k):
        px, py = xs[k], ys[k]
        dx = px - cx
        dy = py - cy
        gap = dx * dx + dy * dy - rr
        ax = abs(px) + abs(cx)
        ay = abs(py) + abs(cy)
        erx = exs[k] + ecx + _U * ax
        ery = eys[k] + ecy + _U * ay
        tol = (1.001 * (erx * (2 * ax + erx) + ery * (2 * ay + ery))
               + 8 * _U * (ax * ax + ay * ay + rr) + _TINY)
        if gap > tol:
            return False
        if gap < -tol:
            return True
        return None

    return screen


def _point_grid(f: Family, fmembers, fpts):
    """candidates(fm): the points in the grid cells that the bounding box
    of the member with float pass entry fm, padded, overlaps.  Only
    prunes."""
    base = f.base
    if base.kind == "disk":
        offsets = [(-1.0, 1.0)] * 2
    else:
        offsets = [(0.0, float(iv.hi - iv.lo)) for iv in base.bbox()[:2]]
    (xlo, xhi), (ylo, yhi) = offsets

    def box(fm):
        x, _, y, _, size = fm
        b = (x + size * xlo, x + size * xhi, y + size * ylo, y + size * yhi)
        pad = 1e-9 * max(1.0, max(map(abs, b)))
        return b[0] - pad, b[1] + pad, b[2] - pad, b[3] + pad

    widths = [max(b[1] - b[0], b[3] - b[2]) for b in map(box, fmembers)]
    cell = (statistics.median(widths) if widths else 0.0) or 1.0
    grid = {}
    for k, (x, y) in enumerate(zip(fpts[0], fpts[2])):
        grid.setdefault((math.floor(x / cell), math.floor(y / cell)), []).append(k)

    def candidates(fm):
        bxlo, bxhi, bylo, byhi = box(fm)
        out = []
        for cx in range(math.floor(bxlo / cell), math.floor(bxhi / cell) + 1):
            for cy in range(math.floor(bylo / cell), math.floor(byhi / cell) + 1):
                out.extend(grid.get((cx, cy), ()))
        return out

    return candidates


class PierceCertificate:
    def __init__(self, method, factor, points, clusters, witness, info=None):
        self.method = method
        self.factor = int(factor)
        self.points = list(points)
        self.clusters = list(clusters)  # (seed index, [member indices]) pairs
        self.witness = list(witness)
        self.info = info or {}

    def __repr__(self):
        return "PierceCertificate(%s, %d points, witness %d, factor %d)" % (
            self.method,
            len(self.points),
            len(self.witness),
            self.factor,
        )

    @property
    def ratio(self):
        return Fraction(len(self.points), max(1, len(self.witness)))

    def verify(self, f: Family, sample=None, seed=0):
        """Exact certificate check; raises VerificationFailed.

        sample limits the membership checks to a random subset of members
        (for benchmark-scale runs); witness disjointness and the point
        budget are always checked completely.
        """
        n = len(f)
        indices = range(n)
        if sample is not None and sample < n:
            indices = random.Random(seed).sample(range(n), sample)
        fpts = _float_points(self.points)
        fmembers = _float_members(f, indices)
        candidates = _point_grid(f, fmembers, fpts)
        member = _membership(f, self.points, fpts)
        for i, fm in zip(indices, fmembers):
            # a member is realized only where its test leaves the answer open
            test = member(i, fm)
            for k in candidates(fm):
                inside = test(k)
                if inside is None:
                    inside = f.realize(i).contains(self.points[k])
                if inside:
                    break
            else:
                # the grid can only prune; fall back to the full scan before
                # declaring failure
                body = f.realize(i)
                if not any(body.contains(p) for p in self.points):
                    raise VerificationFailed("member %d contains no piercing point" % i)
        if not self.witness:
            raise VerificationFailed("empty witness")
        wset = set(self.witness)
        if len(wset) != len(self.witness):
            raise VerificationFailed("witness repeats a member")
        sub = Family(f.base, [f.members[i] for i in self.witness], f.kind)
        adj = intersection_graph(sub)
        if any(adj[i] for i in range(len(sub))):
            raise VerificationFailed("witness members are not pairwise disjoint")
        if len(self.points) > self.factor * len(self.witness):
            raise VerificationFailed("|points| exceeds factor * |witness|")
        if self.clusters:
            seen = set()
            for seed_i, members in self.clusters:
                if seed_i not in members:
                    raise VerificationFailed("cluster seed outside its cluster")
                if seen & set(members):
                    raise VerificationFailed("clusters overlap")
                seen |= set(members)
            if sample is None and seen != set(range(n)):
                raise VerificationFailed("clusters do not partition the family")
        return True
