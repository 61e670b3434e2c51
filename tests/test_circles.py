import ast
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations
from pathlib import Path
import random

import pytest

from piercing import circles, covers
from piercing.circles import Conic, CoverageCheck, arc_samples
from piercing.errors import VerificationFailed
from piercing.geom import Point
from piercing.radicals import RadPoint
from reference import Radical, angle_cmp, circle_circle_points, dedupe_points, strictly_between


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
    assert c.side(Point(0, 0)) < 0
    assert c.side(Point(0, 2)) == 0
    assert c.side(Point(2, 2)) > 0


def test_conic_line_intersection():
    c = Conic(1, 1, Point(0, 0), 25)
    pts = c.intersect_line(Point(0, 1), 3)  # y = 3
    assert sorted(pts) == [Point(-4, 3), Point(4, 3)]
    assert c.intersect_line(Point(0, 1), 5) == [Point(0, 5)]  # tangent
    assert c.intersect_line(Point(0, 1), 6) == []
    # y = 1 meets it at x = +-sqrt(24): no verdict rests on such a vertex
    with pytest.raises(VerificationFailed, match="irrational"):
        c.intersect_line(Point(0, 1), 1)


# every pair of curves meets at rational points: the four covers pass
# through the origin and through (+-4, +-3) on the region circle, the two
# lower-half covers through the origin, (+-5, 0) and (7/5, -24/5)
_FOUR = [Conic(1, 1, Point(x, y), r * r) for x, y, r in
         ((F(25, 8), 0, F(25, 8)), (F(-25, 8), 0, F(25, 8)),
          (0, F(25, 6), F(25, 6)), (0, F(-25, 6), F(25, 6)))]
_LOWER = [Conic(1, 1, Point(F(5, 2), F(-15, 8)), F(25, 8) ** 2),
          Conic(1, 1, Point(F(-5, 2), F(-10, 3)), F(25, 6) ** 2)]
_RADIUS_5 = Conic(1, 1, Point(0, 0), 25)

_ARRANGEMENTS = {
    "four covers": (_RADIUS_5, _FOUR, None),
    "two covers": (_RADIUS_5, _FOUR[:2], None),
    # the line y = 0 meets the region circle at its base point (5, 0)
    "lower half": (_RADIUS_5, _LOWER, (Point(0, 1), 0)),
    "lower half, normal (0, 2)": (_RADIUS_5, _LOWER, (Point(0, 2), 0)),
    "lower half, whole disk": (_RADIUS_5, _LOWER, None),
    # the circles meet at (4, +-3)
    "base arc gap": (_RADIUS_5, [Conic(1, 1, Point(F(-11, 20), 0), F(109, 20) ** 2)], None),
    # the cover's arcs lie on the region's boundary, not strictly inside it
    "cover equal to region": (_RADIUS_5, [Conic(1, 1, Point(0, 0), 25)], None),
    # one cover tangent to the region at (0, 2), one inside touching nothing
    "apart": (Conic(1, 1, Point(0, 0), 4),
              [Conic(1, 1, Point(0, 1), 1), Conic(1, 1, Point(F(1, 2), -1), F(1, 4))], None),
}


def test_coverage_check_accepts_and_rejects():
    region, good, _ = _ARRANGEMENTS["four covers"]
    assert CoverageCheck(region, good).verify()
    assert not CoverageCheck(region, good[:2]).verify()


def test_halfplane_region():
    region, covers, _ = _ARRANGEMENTS["lower half"]
    # the two lower disks cover the lower half-disk but not the full disk
    assert CoverageCheck(region, covers, halfplane=(Point(0, 1), 0)).verify()
    assert not CoverageCheck(region, covers).verify()


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


def _vertices(check):
    """The arrangement vertices of check: where two curves meet."""
    curves = [check.region, *check.covers]
    vertices = [p for a, b in combinations(curves, 2) for p in a.intersect_conic(b)]
    if check.halfplane is not None:
        vertices += [p for c in curves for p in c.intersect_line(*check.halfplane)]
    return dedupe_points(vertices)


def _circles_with_vertices(check):
    """(circle, the arrangement vertices on it) for each circle of check."""
    vertices = _vertices(check)
    return [(c, [v for v in vertices if c.side(v) == 0])
            for c in [check.region, *check.covers]]


def test_line_check_rejects_an_uncovered_segment():
    # the line check alone: with both lower covers every segment of y = 0
    # between two vertices is covered; the first cover alone meets the line
    # at (0, 0) and (5, 0), and leaves the segment from (-5, 0) to (0, 0)
    region, lower, line = _ARRANGEMENTS["lower half"]
    for kept, covered in ((lower, True), (lower[:1], False)):
        check = CoverageCheck(region, kept, line)
        assert check._check_line(_vertices(check)) is covered


def test_arc_samples_lie_strictly_inside_their_arcs():
    # by the quadrant comparator: one sample in each arc between ccw
    # neighbours, each a rational point of the circle and no vertex
    checks = _pattern_checks() + [CoverageCheck(*a) for a in _ARRANGEMENTS.values()]
    seen = {"no vertex": 0, "one vertex": 0, "base point a vertex": 0}
    for check in checks:
        for circle, on in _circles_with_vertices(check):
            samples = arc_samples(circle, on)
            assert all(isinstance(s, Point) and circle.side(s) == 0 for s in samples)
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
        assert a == axis and c.param(base) is None
        for t in (F(-7, 2), F(0), F(1, 3), F(5)):
            assert c.param(c.param_point(t)) == t


def test_uncovered_arc_through_the_base_point_is_rejected():
    # the cover leaves a lens at the region's base point (5, 0), bounded by
    # the region's arc and the cover's arc through their base points; a
    # sampler that skipped the arc through the base point would accept
    region, cover = _ARRANGEMENTS["base arc gap"][:2]
    assert region.base_point()[0] == Point(5, 0)
    assert cover[0].base_point()[0] == Point(F(49, 10), 0)
    assert sorted(region.intersect_conic(cover[0])) == [Point(4, -3), Point(4, 3)]
    assert not CoverageCheck(region, cover).verify()


def test_arrangement_verdicts():
    verdicts = {name: CoverageCheck(*a).verify() for name, a in _ARRANGEMENTS.items()}
    assert verdicts == {"four covers": True, "two covers": False, "lower half": True,
                        "lower half, normal (0, 2)": True, "lower half, whole disk": False,
                        "base arc gap": False, "cover equal to region": True,
                        "apart": False}


# the seven-disk pattern's centres at r = 1 in the coordinates of weights
# (3, 1), and the six lattice neighbours at distance 3 whose disks touch
# the region of radius 2 from outside
_INNER = [(0, 0), (1, 0), (F(1, 2), F(3, 2)), (F(-1, 2), F(3, 2)), (-1, 0),
          (F(-1, 2), F(-3, 2)), (F(1, 2), F(-3, 2))]
_OUTER = [(0, 3), (0, -3), (F(3, 2), F(3, 2)), (F(-3, 2), F(3, 2)), (F(3, 2), F(-3, 2)),
          (F(-3, 2), F(-3, 2))]


def _lattice_arrangement(seed):
    """Seeded rational arrangement seed of 400: the region of radius 2r
    about the origin and covers of radius r, r = 1/9..9, centred at each
    inner offset with probability 0.85 and each outer one with 1/2, under
    weights (3, 1) or (1, 3) (coordinates swapped); no halfplane in 2 of 6
    draws, else the line of the substituted axis through the centre or at
    +-r, either side kept.  Every vertex is rational."""
    rng = random.Random(seed)
    r = F(rng.randint(1, 9), rng.randint(1, 9))
    swap = rng.randrange(2)
    w = (1, 3) if swap else (3, 1)
    centres = [c for c in _INNER if rng.random() < 0.85]
    centres += [c for c in _OUTER if rng.random() < 0.5]
    rng.shuffle(centres)
    place = (lambda x, y: Point(y * r, x * r)) if swap else (lambda x, y: Point(x * r, y * r))
    region = Conic(*w, Point(0, 0), 4 * r * r)
    covers = [Conic(*w, place(*c), r * r) for c in centres]
    hp = rng.choice([None, None, 0, 0, 1, -1])
    if hp is not None:
        s = rng.choice([1, -1])
        hp = (Point(0, s) if swap else Point(s, 0), hp * r)
    return region, covers, hp


# bit k: lattice arrangement k is covered, as CoverageCheck decided it when
# it built and ordered the vertices with Radicals (199 of 400 covered)
_VERDICTS = int("6d76b116600fbed675d5590e4a0f7146809a3ff81228ea519ba3e2d3165aec63c6dd"
                "6222c2686ac3fad62c0195e1ada575db", 16)


@pytest.mark.parametrize("block", range(4))
def test_verdicts_on_400_arrangements_are_pinned(block):
    for seed in range(100 * block, 100 * block + 100):
        covered = CoverageCheck(*_lattice_arrangement(seed)).verify()
        assert covered == bool(_VERDICTS >> seed & 1), seed


def _irrational_arrangement(seed):
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


def test_irrational_arrangements_get_no_verdict():
    # each of these has a pair of curves meeting at an irrational point
    for seed in range(400):
        with pytest.raises(VerificationFailed, match="irrational"):
            CoverageCheck(*_irrational_arrangement(seed)).verify()


@pytest.mark.parametrize("r", [F(1000003, 999983), F(2 ** 61 - 1, 3)], ids=["p/q", "mersenne"])
def test_disk_patterns_verify_at_large_prime_radii(r):
    # the arrangements are the radius-1 ones scaled by r, so their vertices
    # stay rational at any radius
    covers._verify_disk_seven(r)
    covers._verify_disk_half(r)


def test_verify_makes_no_radical_operation(monkeypatch):
    # the vertices, their order, the samples and every side test are
    # Points and ints: no Radical or RadPoint method runs inside verify
    def refused(name):
        def run(*args, **kwargs):
            raise AssertionError("CoverageCheck.verify used %s" % name)
        return run

    checks = _pattern_checks() + [CoverageCheck(*a) for a in _ARRANGEMENTS.values()]
    for cls in (Radical, RadPoint):
        for name, attr in list(vars(cls).items()):
            if callable(attr) or isinstance(attr, classmethod):
                monkeypatch.setattr(cls, name, refused("%s.%s" % (cls.__name__, name)))
    verdicts = [check.verify() for check in checks]
    assert verdicts == [True] * 6 + [True, False, True, True, False, False, True, False]

    tree = ast.parse(Path(circles.__file__).read_text())
    imported = [(node.module, [a.name for a in node.names]) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "radicals"]
    assert imported == [("radicals", ["sqrt_exact"])]
