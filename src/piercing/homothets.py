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
from .bodies import (  # noqa: F401
    BoxBody,
    DiskBody,
    Family,
    PolygonBody,
    collector_paused,
    pair_checker,
)
from .certificates import PierceCertificate, greedy_pattern
from .errors import UnsupportedBase
from .translates import _greedy, _topmost_order


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


@collector_paused()
def greedy_pierce_homothets(f: Family, refine: bool = True,
                            verify: bool = True) -> PierceCertificate:
    """The translates' greedy (translates._greedy) on the smallest-first
    order with the difference-body pattern scaled to each seed."""
    if not isinstance(f.base, (PolygonBody, DiskBody, BoxBody)):
        raise UnsupportedBase("unsupported base body")
    cert = _greedy(f, greedy_pattern(f, "greedy-homothets"), _smallest_order(f),
                   "greedy-homothets", refine)
    if verify:
        cert.verify(f)
    return cert

