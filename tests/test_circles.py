from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations

import pytest

from piercing import covers
from piercing.circles import Conic, CoverageCheck, arc_samples
from piercing.geom import Point
from piercing.radicals import RadPoint, Radical
from reference import angle_cmp, circle_circle_points, dedupe_points, strictly_between


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


_ARRANGEMENTS = {
    "four covers": (Conic(1, 1, Point(0, 0), 4),
                    [Conic(1, 1, Point(x, y), F(9, 4)) for x, y in
                     ((1, 0), (-1, 0), (0, 1), (0, -1))], None),
    "two covers": (Conic(1, 1, Point(0, 0), 4),
                   [Conic(1, 1, Point(1, 0), F(9, 4)), Conic(1, 1, Point(-1, 0), F(9, 4))], None),
    # the line y = 0 meets the region circle at its base point (2, 0)
    "lower half": (Conic(1, 1, Point(0, 0), 4),
                   [Conic(1, 1, Point(1, -1), 4), Conic(1, 1, Point(-1, -1), 4)],
                   (Point(0, 1), 0)),
    "lower half, normal (0, 2)": (Conic(1, 1, Point(0, 0), 4),
                                  [Conic(1, 1, Point(1, -1), 4), Conic(1, 1, Point(-1, -1), 4)],
                                  (Point(0, 2), 0)),
    "lower half, whole disk": (Conic(1, 1, Point(0, 0), 4),
                               [Conic(1, 1, Point(1, -1), 4), Conic(1, 1, Point(-1, -1), 4)],
                               None),
    "base arc gap": (Conic(1, 1, Point(0, 0), 4), [Conic(1, 1, Point(-1, 0), F(841, 100))],
                     None),
    # one cover tangent to the region at (0, 2), one inside touching nothing
    "apart": (Conic(1, 1, Point(0, 0), 4),
              [Conic(1, 1, Point(0, 1), 1), Conic(1, 1, Point(F(1, 2), -1), F(1, 4))], None),
}


def _pattern_checks():
    """The CoverageChecks that covers builds for the seven-disk and the
    half-disk patterns at r = 1, 3/2 and 7/3."""
    built = []

    class Recorded(CoverageCheck):
        def verify(self):
            built.append(self)
            return super().verify()

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(covers, "CoverageCheck", Recorded)
        for r in (F(1), F(3, 2), F(7, 3)):
            covers._verify_disk_seven(r)
            covers._verify_disk_half(r)
    assert len(built) == 6
    return built


def _circles_with_vertices(check):
    """(circle, the arrangement vertices on it) for each circle of check."""
    curves = [check.region, *check.covers]
    vertices = [p for a, b in combinations(curves, 2) for p in a.intersect_conic(b)]
    if check.halfplane is not None:
        vertices += [p for c in curves for p in c.intersect_line(*check.halfplane)]
    vertices = dedupe_points(vertices)
    return [(c, [v for v in vertices if c.side(v) == 0]) for c in curves]


def test_arc_samples_lie_strictly_inside_their_arcs():
    # by the quadrant comparator: one sample in each arc between ccw
    # neighbours, each a rational point of the circle and no vertex
    checks = _pattern_checks() + [CoverageCheck(*a) for a in _ARRANGEMENTS.values()]
    seen = {"no vertex": 0, "one vertex": 0, "base point a vertex": 0}
    for check in checks:
        for circle, on in _circles_with_vertices(check):
            samples = arc_samples(circle, on)
            assert all(s.is_rational() and circle.side(s) == 0 for s in samples)
            if not on:
                seen["no vertex"] += 1
                assert len(samples) == 1
                continue
            seen["one vertex"] += len(on) == 1
            seen["base point a vertex"] += any(circle.param(v) is None for v in on)
            on.sort(key=cmp_to_key(lambda p, q: angle_cmp(circle, p, q)))
            arcs = list(zip(on, on[1:] + on[:1]))
            held = [[k for k, (u, v) in enumerate(arcs) if strictly_between(circle, s, u, v)]
                    for s in samples]
            assert sorted(held) == [[k] for k in range(len(arcs))]
    assert all(seen.values()), seen


def test_param_inverts_param_point():
    # base points (5/2, -1) on axis x and (1/2, 1) on axis y
    for c, axis in ((Conic(3, 1, Point(F(1, 2), -1), 12), "x"),
                    (Conic(3, 1, Point(F(1, 2), -1), 4), "y")):
        base, a, _ = c.base_point()
        assert a == axis and c.param(RadPoint.of(base)) is None
        for t in (F(-7, 2), F(0), F(1, 3), F(5)):
            assert c.param(c.param_point(t)) == Radical.of(t)


def test_uncovered_arc_through_the_base_point_is_rejected():
    # the cover leaves a lens at the region's base point (2, 0), bounded by
    # the region's arc and the cover's arc through their base points; a
    # sampler that skipped the arc through the base point would accept
    region, cover = _ARRANGEMENTS["base arc gap"][:2]
    assert region.base_point()[0] == Point(2, 0)
    assert cover[0].base_point()[0] == Point(F(19, 10), 0)
    assert not CoverageCheck(region, cover).verify()


def test_arrangement_verdicts():
    verdicts = {name: CoverageCheck(*a).verify() for name, a in _ARRANGEMENTS.items()}
    assert verdicts == {"four covers": True, "two covers": False, "lower half": True,
                        "lower half, normal (0, 2)": True, "lower half, whole disk": False,
                        "base arc gap": False, "apart": False}
