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
    intersection_graph,
    normalize_affine,
)
from piercing.errors import DisksNotClosedUnderAffine, MixedKinds, SingularMap
from piercing.generators import five_square_cycle, random_family, unit_disk, unit_square
from piercing.geom import Point
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


@pytest.mark.parametrize("base,kind", [("square", "translates"), ("disk", "translates"),
                                       ("disk", "homothets")])
def test_grid_graph_matches_bruteforce(base, kind):
    bases = {"square": unit_square, "disk": unit_disk}
    rng = random.Random(17)
    for trial in range(4):
        n = rng.randrange(20, 200)
        f = random_family(bases[base](), n, box_size=12, kind=kind, seed=100 + trial)
        assert graphs_equal(intersection_graph(f), intersection_graph_bruteforce(f))


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
