from fractions import Fraction as F

from piercing.circles import Conic, CoverageCheck
from piercing.geom import Point
from piercing.radicals import Radical
from reference import circle_circle_points


def test_circle_circle_secant():
    pts = circle_circle_points(Point(0, 0), 1, Point(1, 0), 1)
    assert len(pts) == 2
    for p in pts:
        assert p.x == Radical.of(F(1, 2))
        assert (p.y * p.y).as_fraction() == F(3, 4)


def test_circle_circle_tangent_is_rational():
    pts = circle_circle_points(Point(0, 0), 1, Point(2, 0), 1)
    assert len(pts) == 1
    assert pts[0].is_rational()
    assert pts[0].x.as_fraction() == 1


def test_circle_circle_disjoint_and_concentric():
    assert circle_circle_points(Point(0, 0), 1, Point(3, 0), 1) == []
    assert circle_circle_points(Point(0, 0), 1, Point(0, 0), 2) == []


def test_conic_sides():
    c = Conic(3, 1, Point(0, 0), 4)
    from piercing.radicals import RadPoint

    assert c.side(RadPoint(0, 0)) < 0
    assert c.side(RadPoint(0, 2)) == 0
    assert c.side(RadPoint(2, 2)) > 0


def test_conic_line_intersection():
    c = Conic(1, 1, Point(0, 0), 25)
    pts = c.intersect_line(Point(0, 1), 3)  # y = 3
    xs = sorted(p.x.as_fraction() for p in pts)
    assert xs == [-4, 4]


def test_coverage_check_accepts_and_rejects():
    region = Conic(1, 1, Point(0, 0), 4)
    good = [
        Conic(1, 1, Point(1, 0), F(9, 4)),
        Conic(1, 1, Point(-1, 0), F(9, 4)),
        Conic(1, 1, Point(0, 1), F(9, 4)),
        Conic(1, 1, Point(0, -1), F(9, 4)),
    ]
    assert CoverageCheck(region, good).verify()
    assert not CoverageCheck(region, good[:2]).verify()


def test_halfplane_region():
    region = Conic(1, 1, Point(0, 0), 4)
    covers = [Conic(1, 1, Point(1, -1), 4), Conic(1, 1, Point(-1, -1), 4)]
    # the two lower disks cover the lower half-disk but not the full disk
    assert CoverageCheck(region, covers, halfplane=(Point(0, 1), 0)).verify()
    assert not CoverageCheck(region, covers).verify()
