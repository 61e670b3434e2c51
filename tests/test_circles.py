from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations
import random

import pytest

from piercing import circles, covers
from piercing.bodies import int_point
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
    assert c.side(int_point(RadPoint(0, 0))) < 0
    assert c.side(int_point(RadPoint(0, 2))) == 0
    assert c.side(int_point(RadPoint(2, 2))) > 0


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
    return [(c, [v for v in vertices if c.side(int_point(v)) == 0]) for c in curves]


def test_arc_samples_lie_strictly_inside_their_arcs():
    # by the quadrant comparator: one sample in each arc between ccw
    # neighbours, each a rational point of the circle and no vertex
    checks = _pattern_checks() + [CoverageCheck(*a) for a in _ARRANGEMENTS.values()]
    seen = {"no vertex": 0, "one vertex": 0, "base point a vertex": 0}
    for check in checks:
        for circle, on in _circles_with_vertices(check):
            samples = arc_samples(circle, on)
            assert all(s.is_rational() and circle.side(int_point(s)) == 0 for s in samples)
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


def _arrangement(seed):
    """Seeded arrangement seed of the 400 in BENCH_arc_params.json: weights
    (1, 1), (3, 1) or (1, 3), a region of radius 2 about the origin, 3-7
    covers with centres on a 1/4 grid in [-3/2, 3/2]^2 and radii 5/4..10/4,
    no halfplane in 2 of 5 draws, else y <= 0, -y <= 1/2 or x <= -1/4."""
    rng = random.Random(seed)
    w = rng.choice([(1, 1), (3, 1), (1, 3)])
    k = rng.randrange(2)
    region = Conic(w[0], w[1], Point(0, 0), w[k] * 4)
    covers = []
    for _ in range(rng.randint(3, 7)):
        c = Point(F(rng.randrange(-6, 7), 4), F(rng.randrange(-6, 7), 4))
        s = F(rng.randrange(5, 11), 4)
        covers.append(Conic(w[0], w[1], c, w[rng.randrange(2)] * s * s))
    hp = rng.choice([None, None, (Point(0, 1), 0), (Point(0, -1), F(1, 2)),
                     (Point(1, 0), F(-1, 4))])
    return region, covers, hp


# bit k: arrangement k is covered, as CoverageCheck decided it with every
# side test a Radical sign (206 of 400 covered)
_VERDICTS = int("ca72783688323c09523afb518fc80c6ca2eedba546779832f5ddbfa235f3545c"
                "31f96d65c071d8972563fd7e2a22311dbf43", 16)


@pytest.mark.parametrize("block", range(4))
def test_verdicts_on_400_arrangements_are_pinned(block):
    for seed in range(100 * block, 100 * block + 100):
        assert CoverageCheck(*_arrangement(seed)).verify() == bool(_VERDICTS >> seed & 1), seed


def test_side_tests_make_no_radical(monkeypatch):
    # every side test, against a circle or the halfplane, decides on the
    # ints of bodies.int_point: no Radical is multiplied, added or signed
    # inside one, while the arcs are still sampled with Radicals
    depth = []
    used = []

    def guarded(name):
        fn = getattr(Radical, name)

        def run(*args):
            assert not depth, "a side test used Radical.%s" % name
            used.append(name)
            return fn(*args)

        return run

    def tracked(fn):
        def run(*args):
            depth.append(fn)
            try:
                return fn(*args)
            finally:
                depth.pop()

        return run

    for name in ("sign", "__mul__", "__add__", "__sub__", "__neg__"):
        monkeypatch.setattr(Radical, name, guarded(name))
    monkeypatch.setattr(Conic, "side", tracked(Conic.side))
    monkeypatch.setattr(circles, "_line_side", tracked(circles._line_side))
    verdicts = [CoverageCheck(*a).verify() for a in _ARRANGEMENTS.values()]
    assert verdicts == [True, False, True, True, False, False, False]
    assert "sign" in used
