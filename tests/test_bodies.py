from fractions import Fraction as F
import random

import pytest

from piercing.bodies import (
    AffineMap,
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    _member_slabs,
    intersection_graph,
    neighbor_index,
    normalize_affine,
)
from piercing.errors import DisksNotClosedUnderAffine, MixedKinds, SingularMap
from piercing.generators import (
    five_square_cycle,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.geom import ConvexPolygon, Point
from reference import graphs_equal, intersection_graph_bruteforce


def test_realize_identity():
    f = Family(unit_square(), [Member(Point(0, 0))])
    assert f.realize(0).polygon == unit_square().polygon


def test_realize_disk_scaling_convention():
    # scale about the origin, then translate
    f = Family(DiskBody(Point(0, 0), 1), [Member(Point(1, 0), 2)], "homothets")
    b = f.realize(0)
    assert b.center == Point(1, 0)
    assert b.radius == 2
    g = Family(DiskBody(Point(3, 0), 1), [Member(Point(1, 0), 2)], "homothets")
    assert g.realize(0).center == Point(7, 0)


def test_member_polygon_area_scales_quadratically():
    f = Family(unit_square(), [Member(Point(5, 5), F(3, 2))], "homothets")
    assert f.realize(0).measure() == F(9, 4)


def test_five_cycle_graph():
    f = five_square_cycle()
    adj = intersection_graph(f)
    assert sorted(map(len, adj)) == [2, 2, 2, 2, 2]
    assert adj[0] == {1, 4}
    assert adj[2] == {1, 3}


def test_far_translates_empty_graph():
    f = Family(unit_square(), [Member(Point(10 * i, 0)) for i in range(6)])
    adj = intersection_graph(f)
    assert all(not a for a in adj)


GRAPH_BASES = {
    "square": unit_square,
    "disk": unit_disk,
    "triangle": unit_triangle,
    "box2": lambda: BoxBody((F(-1, 2), 0), (1, F(3, 2))),
    "box3": lambda: BoxBody((0, F(1, 3), -1), (1, 2, F(1, 2))),
    # far from the origin, where a member's box corner moves with its scale
    "far": lambda: PolygonBody(ConvexPolygon([Point(20, 30), Point(21, 30), Point(20, 31)])),
}
PRIMES = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]


def _with_outliers(f, scales, rational):
    """f plus one member of each scale s, at a translation rational(-s, 12)
    on every axis, so that it meets some members and misses others."""
    cols = [list(col) for col in f.columns]
    for s in scales:
        for col in cols:
            col.append(rational(-s, 12))
    return Family.from_columns(f.base, cols, list(f.scales) + list(map(F, scales)), "homothets")


def _graph_families(base, kind, rng):
    make = GRAPH_BASES[base]
    if kind in ("translates", "homothets"):
        for trial in range(4 if base in ("square", "disk") else 2):
            n = rng.randrange(20, 200)
            yield random_family(make(), n, box_size=12, kind=kind, seed=100 + trial)
    elif kind == "outliers":
        # scales 1-2 and four members 400 and 10^4 times larger
        for trial in range(2):
            f = random_family(make(), rng.randrange(60, 150), box_size=12, kind="homothets",
                              scale_range=(1, 2), seed=200 + trial)
            yield _with_outliers(f, [400, 400, 10 ** 4, 10 ** 4],
                                 lambda a, b: F(rng.randrange(4 * a, 4 * b), 4))
    elif kind == "fractions":
        # prime denominators: D is over MAX_SCALE_BITS, so the columns are Fractions
        def rational(a, b):
            q = rng.choice(PRIMES)
            return F(rng.randrange(a * q, b * q), q)

        dim = len(make().bbox())
        f = Family.from_columns(make(), [[rational(0, 12) for _ in range(60)] for _ in range(dim)],
                                [1 + rational(0, 2) for _ in range(60)], "homothets")
        f = _with_outliers(f, [400, 10 ** 4], rational)
        assert f.scaled_translations()[0] == 1
        yield f
    else:
        # one and two members, meeting or not, of equal or very different scales
        for trial in range(30):
            scales = [rng.choice([1, F(3, 2), 2, 400, 10 ** 4]) for _ in range(1 + trial % 2)]
            dim = len(make().bbox())
            cols = [[F(rng.randrange(-8, 8), 2) for _ in scales] for _ in range(dim)]
            yield Family.from_columns(make(), cols, list(map(F, scales)), "homothets")


@pytest.mark.parametrize("base,kind", [
    ("square", "translates"), ("disk", "translates"), ("disk", "homothets"),
    ("triangle", "homothets"), ("box2", "homothets"), ("box3", "homothets"), ("far", "homothets"),
    ("triangle", "outliers"), ("disk", "outliers"), ("box2", "outliers"), ("box3", "outliers"),
    ("far", "outliers"),
    ("triangle", "fractions"), ("disk", "fractions"), ("box2", "fractions"),
    ("triangle", "small"), ("disk", "small"), ("box3", "small"), ("far", "small"),
])
def test_grid_graph_matches_bruteforce(base, kind):
    rng = random.Random(17)
    for f in _graph_families(base, kind, rng):
        assert graphs_equal(intersection_graph(f), intersection_graph_bruteforce(f))
        # the index lists each other member at most once, and never i itself
        candidates = neighbor_index(f)
        for i in range(len(f)):
            near = candidates(i)
            assert i not in near and len(set(near)) == len(near)


def test_mixed_kinds_rejected():
    a = unit_square()
    b = unit_disk()
    with pytest.raises(MixedKinds):
        a.intersects(b)


def test_normalize_affine_identity():
    f = random_family(unit_square(), 10, seed=1)
    g = normalize_affine(f, AffineMap(1, 0, 0, 1))
    assert graphs_equal(intersection_graph(f), intersection_graph(g))


def test_shear_preserves_graph():
    f = random_family(unit_square(), 40, box_size=8, seed=2)
    g = normalize_affine(f, AffineMap(1, F(1, 2), 0, 1, 3, -4))
    assert g.base.polygon.is_parallelogram()
    assert graphs_equal(intersection_graph_bruteforce(f), intersection_graph_bruteforce(g))


def test_disks_reject_general_affine():
    f = random_family(unit_disk(), 5, seed=3)
    with pytest.raises(DisksNotClosedUnderAffine):
        normalize_affine(f, AffineMap(1, F(1, 2), 0, 1))


def test_disks_accept_rational_similarity():
    f = random_family(unit_disk(), 12, box_size=6, seed=4)
    # rotation by the 3-4-5 angle times scale 5: rational similarity
    g = normalize_affine(f, AffineMap(3, -4, 4, 3))
    assert g.base.radius == 5
    assert graphs_equal(intersection_graph_bruteforce(f), intersection_graph_bruteforce(g))


def test_singular_map_rejected():
    with pytest.raises(SingularMap):
        AffineMap(1, 2, 2, 4)


def test_box_family_basics():
    base = BoxBody((0, 0, 0), (1, 2, 1))
    f = Family(base, [Member((0, 0, 0)), Member((F(1, 2), 0, 0)), Member((5, 5, 5))])
    assert f.intersects(0, 1)
    assert not f.intersects(0, 2)
    assert f.realize(1).mins == (F(1, 2), 0, 0)
    assert base.measure() == 2


def _fraction_columns(f):
    """f shifted by one vector whose denominators need more than
    MAX_SCALE_BITS bits, so its scaled columns hold Fractions (D = 1)."""
    shift = [F(1, 3 ** 82), F(-2, 3 ** 81), F(5, 7 ** 50)]
    g = Family.from_columns(f.base, [[v + d for v in col] for col, d in zip(f.columns, shift)],
                            f.scales, f.kind)
    assert g.scaled_translations()[0] == 1
    return g


@pytest.mark.parametrize("base", [unit_triangle, lambda: BoxBody((0, 0, 0), (1, F(3, 2), 1))],
                         ids=["triangle", "box"])
@pytest.mark.parametrize("kind", ["translates", "homothets"])
@pytest.mark.parametrize("fractions", [False, True], ids=["ints", "fractions"])
def test_subfamily_carries_the_slab_rows(base, kind, fractions):
    """A sub-family takes its slab rows from a family that has computed
    them, equal to the slabs it would compute itself."""
    f = random_family(base(), 60, box_size=8, kind=kind, scale_range=(1, 3), seed=11)
    if fractions:
        f = _fraction_columns(f)
    indices = random.Random(12).sample(range(len(f)), 20)
    assert f.subfamily(indices)._slabs is None
    f.slabs()
    sub = f.subfamily(indices)
    assert sub._slabs is not None
    assert sub.slabs() == _member_slabs(sub)
    assert sub.slabs() == _member_slabs(Family(f.base, [f.members[i] for i in indices], f.kind))
