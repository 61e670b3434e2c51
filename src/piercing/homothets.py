"""Greedy smallest-first piercing for homothet families.

The seed of each cluster is the smallest remaining homothet; every member
intersecting it contains a translate of the seed, so the difference-body
cover pattern scaled by the seed's scale and anchored at the seed pierces
the whole cluster.  Factors: square 4, triangle <= 12, disk 7, centrally
symmetric <= 7, box 2^d, general polygon <= 16.

The cluster loop is the translates' (translates._greedy); only the seed
order and the pattern differ.  The order and every pair test run on the
family's scaled int columns (bodies.Family.scaled_translations,
bodies.pair_checker); no float decides anything, and no member is realized
to decide a pair.
"""

# pair_checker is unused here but stays bound: perfbench/spans.py traces it by this binding
from .bodies import BoxBody, DiskBody, Family, PolygonBody, pair_checker  # noqa: F401
from .certificates import PierceCertificate
from .covers import homothet_cover
from .errors import DegenerateInput, UnsupportedBase
from .translates import ORACLE_BUDGET, _greedy, _topmost_order


def _smallest_order(f: Family):
    """Member indices by (s, -top, t, index), smallest first, with
    top = s * top(C) + t[-1].

    Members of equal scale share s * top(C), so they tie-break in topmost
    order; a stable sort on the scale column finishes the order.
    """
    _, cols, S = f.scaled_translations()
    order = _topmost_order(cols)
    order.sort(key=S.__getitem__)
    return order


def greedy_pierce_homothets(f: Family, refine: bool = True,
                            oracle_budget: int = ORACLE_BUDGET,
                            verify: bool = True, sample: int = None) -> PierceCertificate:
    """The translates' greedy (translates._greedy) on the smallest-first
    order with the difference-body pattern scaled to each seed."""
    if not isinstance(f.base, (PolygonBody, DiskBody, BoxBody)):
        raise UnsupportedBase("unsupported base body")
    cert = _greedy(f, homothet_cover(f.base), _smallest_order(f), "greedy-homothets",
                   refine, oracle_budget)
    if verify:
        cert.verify(f, sample=sample)
    return cert


def containment_witness(f: Family, i: int, j: int):
    """The translate of member i's scale inside member j through a common point.

    For members with s_i <= s_j that intersect, p + (s_i/s_j) * (B_j - p) is a
    translate of the seed-sized homothet contained in B_j and meeting B_i at
    p; this is the containment step of the smallest-first argument.
    """
    si, sj = f.members[i].s, f.members[j].s
    if si > sj:
        raise DegenerateInput("member i must not be larger")
    bi, bj = f.realize(i), f.realize(j)
    p = bi.common_point(bj)
    lam = si / sj
    if isinstance(bj, DiskBody):
        center = p + (bj.center - p) * lam
        return DiskBody(center, bj.radius * lam)
    if isinstance(bj, BoxBody):
        mins = tuple(pv + (m - pv) * lam for pv, m in zip(p, bj.mins))
        return BoxBody(mins, tuple(s * lam for s in bj.sides))
    from .geom import ConvexPolygon

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
    return outer.polygon.contains_polygon(inner.polygon)
