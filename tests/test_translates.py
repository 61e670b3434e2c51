from fractions import Fraction as F
import math
import random

import pytest

from piercing.bodies import (
    AffineMap,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    intersection_graph,
    normalize_affine,
)
from piercing.certificates import _disk_screen, _float_points
from piercing.covers import _triangle_normalizer, translate_cluster_cover
from piercing.errors import NotHexagonBase, UnsupportedBase, VerificationFailed
from piercing.generators import (
    five_square_cycle,
    hexagon_body,
    pairwise_intersecting_family,
    random_cs_hexagon,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.geom import ConvexPolygon, Point
from piercing.oracle import exact_nu, exact_tau
from piercing.radicals import RadPoint, Radical
from piercing.translates import (
    _greedy,
    _seed_order,
    _top_key,
    covering_lattice,
    greedy_pierce,
    grid_pierce,
    hexagon_pierce,
    lattice_pierce,
    lattice_witness,
    packing_lattice,
    union_area_exact,
)

PENTAGON = PolygonBody(
    ConvexPolygon([Point(0, 0), Point(4, 0), Point(5, 3), Point(2, 5), Point(-1, 2)])
)


class TestGreedy:
    def test_five_cycle(self):
        cert = greedy_pierce(five_square_cycle())
        assert len(cert.points) <= 3
        assert len(cert.witness) == 2
        assert cert.factor == 2

    def test_single_disk(self):
        f = Family(unit_disk(), [Member(Point(3, 4))])
        cert = greedy_pierce(f)
        assert len(cert.points) == 1

    def test_greedy_factors(self):
        for base, k in [
            (unit_square(), 2),
            (unit_triangle(), 5),
            (unit_disk(), 4),
            (hexagon_body(), 4),
        ]:
            f = random_family(base, 45, box_size=14, seed=7)
            cert = greedy_pierce(f)
            assert cert.factor == k
            assert len(cert.points) <= k * len(cert.witness)

    def test_seeds_form_clusters_and_are_disjoint(self):
        f = random_family(unit_disk(), 30, box_size=8, seed=8)
        cert = greedy_pierce(f)
        seeds = [s for s, _ in cert.clusters]
        assert cert.witness == seeds
        for a in range(len(seeds)):
            for b in range(a + 1, len(seeds)):
                assert not f.intersects(seeds[a], seeds[b])

    def test_refined_bound_against_oracle(self):
        for base, k, alpha1 in [(unit_square(), 2, 1), (unit_triangle(), 5, 3),
                                (unit_disk(), 4, 3)]:
            for seed in range(6):
                f = random_family(base, 10, box_size=4, seed=40 + seed)
                cert = greedy_pierce(f)
                nu, _ = exact_nu(f)
                assert len(cert.points) <= k * nu - (k - alpha1)

    def test_unsupported_base_raises(self):
        f = random_family(PENTAGON, 5, seed=1)
        with pytest.raises(UnsupportedBase):
            greedy_pierce(f)

    def test_duplicate_members_allowed(self):
        f = Family(unit_square(), [Member(Point(0, 0))] * 4)
        cert = greedy_pierce(f)
        assert len(cert.witness) == 1
        assert len(cert.points) <= 1  # refinement collapses to one point


class TestGrid:
    def test_square_family_factor_two(self):
        f = random_family(unit_square(), 30, box_size=7, seed=2)
        cert = grid_pierce(f)
        assert cert.factor == 2
        assert len(cert.points) <= 2 * len(cert.witness)

    def test_pentagon_factor_six(self):
        f = random_family(PENTAGON, 60, box_size=25, seed=3)
        cert = grid_pierce(f)
        assert cert.factor <= 6
        assert len(cert.points) <= cert.factor * len(cert.witness)

    def test_two_far_translates(self):
        f = Family(PENTAGON, [Member(Point(0, 0)), Member(Point(100, 100))])
        cert = grid_pierce(f)
        assert len(cert.points) == 2
        assert len(cert.witness) == 2

    def test_triangle_base_supported(self):
        f = random_family(unit_triangle(), 25, box_size=6, seed=4)
        cert = grid_pierce(f)
        assert cert.factor <= 6

    def test_box_family(self):
        from piercing.bodies import BoxBody

        base = BoxBody((0, 0, 0), (1, 1, 1))
        f = random_family(base, 40, box_size=6, seed=5)
        cert = grid_pierce(f)
        assert cert.factor == 4  # 2^(d-1)
        assert len(cert.points) <= 4 * len(cert.witness)


class TestHexagon:
    def test_pairwise_intersecting_two_points(self):
        f = pairwise_intersecting_family(hexagon_body(), 15, seed=6)
        cert = hexagon_pierce(f)
        assert cert.method == "hexagon"
        assert len(cert.points) <= 2

    def test_far_separated_realizes_factor_one(self):
        f = Family(hexagon_body(), [Member(Point(30 * i, 0)) for i in range(5)])
        cert = hexagon_pierce(f)
        assert len(cert.points) == 5
        assert len(cert.witness) == 5

    def test_general_family_factor_three(self):
        f = random_family(hexagon_body(), 50, box_size=22, seed=7)
        cert = hexagon_pierce(f)
        assert cert.factor <= 3
        assert len(cert.points) <= 3 * len(cert.witness)

    def test_random_cs_hexagon_bases(self):
        rng = random.Random(71)
        for trial in range(5):
            base = random_cs_hexagon(rng)
            f = random_family(base, 30, box_size=25, seed=80 + trial)
            cert = hexagon_pierce(f)
            assert len(cert.points) <= 3 * len(cert.witness)

    def test_non_hexagon_rejected(self):
        f = random_family(unit_square(), 4, seed=8)
        with pytest.raises(NotHexagonBase):
            hexagon_pierce(f)


class TestLattice:
    def test_single_member_one_point(self):
        f = Family(hexagon_body(), [Member(Point(0, 0))])
        cert = lattice_pierce(f)
        assert len(cert.points) == 1

    def test_far_members_k_points(self):
        f = Family(hexagon_body(), [Member(Point(40 * i, 0)) for i in range(4)])
        cert = lattice_pierce(f)
        assert len(cert.points) == 4
        assert len(cert.witness) == 4

    def test_count_bounded_by_area(self):
        f = random_family(hexagon_body(), 10, box_size=7, seed=9)
        cert = lattice_pierce(f)
        area = union_area_exact(f)
        assert cert.info["count"] <= math.floor(area / cert.info["cover_cell_area"])

    def test_witness_bound(self):
        f = random_family(hexagon_body(), 9, box_size=7, seed=10)
        wit, spec = lattice_witness(f)
        area = union_area_exact(f)
        assert len(wit) >= math.ceil(area / spec.cell_area)
        for a in range(len(wit)):
            for b in range(a + 1, len(wit)):
                assert not f.intersects(wit[a], wit[b])

    def test_lattice_roles_verified(self):
        base = hexagon_body().polygon
        cov = covering_lattice(base, base)
        assert cov.cell_area == base.area()
        pack = packing_lattice(base, base)
        assert pack.cell_area == 4 * base.area() * F(65, 64) ** 2

    def test_duplicated_member_witness_is_one(self):
        f = Family(hexagon_body(), [Member(Point(0, 0))] * 5)
        wit, _ = lattice_witness(f)
        assert len(wit) == 1


class TestUnionArea:
    def test_disjoint_sum(self):
        f = Family(unit_square(), [Member(Point(0, 0)), Member(Point(5, 5))])
        assert union_area_exact(f) == 2

    def test_full_overlap(self):
        f = Family(unit_square(), [Member(Point(0, 0))] * 3)
        assert union_area_exact(f) == 1

    def test_half_overlap(self):
        f = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), 0))])
        assert union_area_exact(f) == F(3, 2)


class TestOracleChain:
    def test_witness_nu_tau_points_chain(self):
        bases = [unit_square(), unit_triangle(), unit_disk(), hexagon_body()]
        for i, base in enumerate(bases):
            f = random_family(base, 11, box_size=5, seed=60 + i)
            cert = greedy_pierce(f)
            nu, _ = exact_nu(f)
            tau, _ = exact_tau(f)
            assert len(cert.witness) <= nu <= tau <= len(cert.points) or tau == len(cert.points)
            assert len(cert.witness) <= nu
            assert nu <= tau
            assert tau <= len(cert.points)


def _reference_clusters(f):
    """Topmost greedy on the exact key, absorbing by Family.intersects alone."""
    order = sorted(range(len(f)), key=_top_key(f))
    alive = [True] * len(f)
    clusters = []
    for i in order:
        if not alive[i]:
            continue
        alive[i] = False
        members = [i]
        for j in range(len(f)):
            if alive[j] and f.intersects(i, j):
                alive[j] = False
                members.append(j)
        clusters.append((i, tuple(members)))
    return clusters


_UNIT_DIRS = [(1, 0), (0, 1), (F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)), (F(5, 13), F(-12, 13))]


def _tangent_disk_family(seed, pairs, r, coordinate):
    """Disk translates in pairs whose centres lie exactly 2r apart."""
    rng = random.Random(seed)
    ts = []
    for _ in range(pairs):
        p = Point(coordinate(rng), coordinate(rng))
        ux, uy = rng.choice(_UNIT_DIRS)
        ts += [p, p + Point(ux, uy) * (2 * r * rng.choice((1, -1)))]
    return Family(DiskBody(Point(F(1, 3), 0), r), [Member(t) for t in ts])


class TestTranslateKernel:
    def test_integer_kernel_matches_reference_on_tangent_pairs(self):
        for seed, r in ((1, F(1)), (2, F(5, 4)), (3, F(7, 3))):
            f = _tangent_disk_family(seed, 100, r, lambda rng: F(rng.randrange(20 * 32), 32))
            D, cols, _ = f.scaled_translations()
            assert D > 1 and all(type(v) is int for col in cols for v in col)
            cert = greedy_pierce(f, refine=False)
            assert cert.clusters == _reference_clusters(f)

    def test_fraction_fallback_matches_reference(self):
        primes = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]

        def coordinate(rng):
            q = rng.choice(primes)
            return F(rng.randrange(12 * q), q)

        f = _tangent_disk_family(4, 40, F(1), coordinate)
        # D needs more than MAX_SCALE_BITS, so the translations stay Fractions
        D, cols, _ = f.scaled_translations()
        assert D == 1 and all(type(v) is F for col in cols for v in col)
        cert = greedy_pierce(f, refine=False)
        assert cert.clusters == _reference_clusters(f)


def test_witness_disjointness_checked_in_full():
    f = random_family(unit_disk(), 3000, box_size=55, seed=5)
    cert = greedy_pierce(f, refine=False, verify=False)
    adj = intersection_graph(f)
    wit = set(cert.witness)
    # a member meeting exactly one witness member, such that neither is
    # among the 50 witness members that a sampled witness check would draw
    # (verify's default seed 0 drew them with Random(seed + 1))
    for b in range(len(f)):
        hits = adj[b] & wit
        if b in wit or len(hits) != 1:
            continue
        bad = cert.witness + [b]
        if not set(random.Random(1).sample(bad, 50)) & (hits | {b}):
            break
    else:
        pytest.fail("no witness pair outside the sample")
    cert.witness = bad
    with pytest.raises(VerificationFailed, match="pairwise disjoint"):
        cert.verify(f, sample=50)


def test_disk_screen_agrees_with_exact_containment():
    rng = random.Random(11)
    undecided = 0
    for trial in range(2000):
        r = F(rng.randrange(1, 10 ** rng.randrange(1, 10)), rng.randrange(1, 50))
        ux, uy = rng.choice(_UNIT_DIRS)
        if trial % 2:
            center = Point(F(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 99)),
                           F(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 99)))
        else:
            center = Point(-ux * r, -uy * r)  # the boundary passes through the origin
        body = DiskBody(center, r)
        # a point of the form a + b*sqrt(3) within a few ulps of the boundary
        wobble = F(rng.randrange(-1000, 1001), 10 ** rng.randrange(3, 20))
        point = RadPoint(body.center.x + ux * r + Radical.sqrt(3) * wobble,
                         body.center.y + uy * r + wobble)
        got = _disk_screen(body, _float_points([point]))(0)
        if got is None:
            undecided += 1
        else:
            assert got == body.contains(point)
    assert undecided < 1600  # pairs off the boundary by more than the error are decided


def _normalized_top_order(f):
    """The reference seed order of a triangle family: _top_key on the family
    mapped into the frame where the triangle is (0,0), (1,0), (0,1)."""
    _, e1, e2 = _triangle_normalizer(f.base.polygon)
    det = e1.cross(e2)
    fwd = AffineMap(e2.y / det, -e2.x / det, -e1.y / det, e1.x / det)
    return sorted(range(len(f)), key=_top_key(normalize_affine(f, fwd)))


_SKEWED = [
    PolygonBody(ConvexPolygon([Point(0, 0), Point(3, 1), Point(1, 2)])),
    PolygonBody(ConvexPolygon([Point(1, -1), Point(2, 1), Point(0, 2)])),
]


class TestTriangleSeedOrder:
    def test_skewed_triangles_with_ties(self):
        # half-integer translations in a small box: many members share up
        for base in _SKEWED + [unit_triangle()]:
            for seed in range(4):
                rng = random.Random(seed)
                f = Family(base, [Member(Point(F(rng.randrange(-8, 9), 2),
                                               F(rng.randrange(-8, 9), 2)))
                                  for _ in range(300)])
                assert f.scaled_translations()[0] == 2
                order = _seed_order(f)
                assert order == _normalized_top_order(f)
                _, e1, _ = _triangle_normalizer(base.polygon)
                ups = [e1.cross(f.members[i].t) for i in order]
                assert len(set(ups)) < len(ups)

    def test_fraction_columns(self):
        primes = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]
        rng = random.Random(9)
        for base in _SKEWED:
            f = Family(base, [Member(Point(F(rng.randrange(-10 ** 4, 10 ** 4), rng.choice(primes)),
                                           F(rng.randrange(-10 ** 4, 10 ** 4), rng.choice(primes))))
                              for _ in range(200)])
            D, cols, _ = f.scaled_translations()
            assert D == 1 and all(type(v) is F for col in cols for v in col)
            assert _seed_order(f) == _normalized_top_order(f)

    def test_plain_top_order_would_fail(self):
        # seeds taken by their y coordinate leave a member of the skewed
        # triangle unpierced: the order has to follow the cut edge
        f = random_family(_SKEWED[0], 60, box_size=8, seed=0)
        plain = _greedy(f, translate_cluster_cover(f.base), sorted(range(len(f)), key=_top_key(f)),
                        "greedy", False, 0)
        with pytest.raises(VerificationFailed, match="contains no piercing point"):
            plain.explicit().verify(f)
        # the symbolic check finds the member that breaks the order
        with pytest.raises(VerificationFailed, match="lies above its seed"):
            plain.verify(f)
        assert greedy_pierce(f).verify(f)
