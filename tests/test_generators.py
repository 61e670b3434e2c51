from fractions import Fraction as F
import gc
import random

import pytest

from piercing.bodies import BoxBody, Family, Member
from piercing import generators
from piercing.errors import ConstructionFailed, EpsilonTooLarge, TooLarge
from piercing.generators import (
    _rand_frac,
    five_square_cycle,
    grid_family,
    hexagon_body,
    nine_triangles,
    pairwise_intersecting_family,
    random_centrally_symmetric_polygon,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.geom import Point
from piercing.oracle import exact_tau, solve
from piercing.translates import hexagon_pierce
import reference
from reference import intersection_graph_bruteforce, intersects, members


class TestFiveCycle:
    def test_graph_is_c5(self):
        f = five_square_cycle()
        adj = intersection_graph_bruteforce(f)
        assert all(len(a) == 2 for a in adj)
        # connected 2-regular on 5 vertices equals the 5-cycle
        seen = {0}
        cur, prev = next(iter(adj[0])), 0
        while cur != 0:
            seen.add(cur)
            cur, prev = next(iter(adj[cur] - {prev})), cur
        assert len(seen) == 5

    def test_paper_values(self):
        res = solve(five_square_cycle())
        assert (res.tau, res.nu) == (3, 2)

    def test_members_are_unit_squares(self):
        f = five_square_cycle()
        assert all(m.s == 1 for m in members(f))
        assert f.realize(0).polygon.area() == 1


class TestNineTriangles:
    def test_paper_values(self):
        res = solve(nine_triangles(F(1, 100)))
        assert (res.tau, res.nu) == (3, 1)

    def test_pairwise_intersecting(self):
        f = nine_triangles(F(1, 100))
        for i in range(9):
            for j in range(i + 1, 9):
                assert intersects(f, i, j)

    def test_epsilon_bounds(self):
        with pytest.raises(EpsilonTooLarge):
            nine_triangles(F(1, 5))
        with pytest.raises(EpsilonTooLarge):
            nine_triangles(0)

    def test_large_epsilon_drops_tau_to_two(self):
        # replicate the construction beyond the guard: at eps = 1/2 the three
        # shifted triples gain common points and two points suffice
        eps = F(1, 2)
        a, b, c = Point(0, 0), Point(1, 0), Point(0, 1)
        ts = [a, b, c]
        for src, dst in ((a, b), (a, c), (b, a), (b, c), (c, a), (c, b)):
            ts.append(src + (dst - src) * eps)
        f = Family(unit_triangle(), [Member(t) for t in ts])
        tau, _ = exact_tau(f)
        assert tau == 2


class TestGridFamily:
    def test_counts(self):
        assert len(grid_family(2, unit_disk())) == 16
        assert len(grid_family(1, unit_disk())) == 1

    def test_cap(self):
        with pytest.raises(TooLarge):
            grid_family(9, unit_disk())

    def test_ratio_at_least_one(self):
        res = solve(grid_family(2, unit_disk()))
        assert res.nu <= res.tau


class TestRandomFamily:
    def test_deterministic(self):
        f = random_family(unit_square(), 20, seed=5)
        g = random_family(unit_square(), 20, seed=5)
        assert all(
            a.t == b.t and a.s == b.s for a, b in zip(members(f), members(g))
        )

    def test_huge_box_gives_empty_graph(self):
        f = random_family(unit_square(), 10, box_size=10_000, seed=6)
        adj = intersection_graph_bruteforce(f)
        assert sum(len(a) for a in adj) == 0

    def test_translates_have_unit_scale(self):
        f = random_family(unit_disk(), 15, seed=7)
        assert all(m.s == 1 for m in members(f))


def _reference_random_family(base, n, box_size=10, kind="translates", scale_range=(1, 3),
                             seed=0):
    """random_family as one _rand_frac call per coordinate and scale, each
    converting and subtracting the bounds again."""
    rng = random.Random(seed)
    members = []
    for _ in range(n):
        if base.kind == "box":
            t = tuple(_rand_frac(rng, 0, box_size) for _ in range(base.dim))
        else:
            t = Point(_rand_frac(rng, 0, box_size), _rand_frac(rng, 0, box_size))
        s = 1 if kind == "translates" else _rand_frac(rng, scale_range[0], scale_range[1], 8)
        members.append(Member(t, s))
    return Family(base, members, kind)


@pytest.mark.parametrize("base, kind, box, scales", [
    (unit_disk(), "translates", 100, (1, 3)),
    (unit_triangle(), "homothets", 100, (1, 2)),
    (unit_square(), "homothets", F(7, 3), (F(1, 2), F(9, 4))),
    (hexagon_body(), "translates", 5, (1, 3)),
    (BoxBody((0, 0, 0), (1, 2, 3)), "homothets", 9, (1, 3)),
])
def test_random_family_matches_the_per_coordinate_draws(base, kind, box, scales):
    for seed in range(3):
        f = random_family(base, 300, box_size=box, kind=kind, scale_range=scales, seed=seed)
        g = _reference_random_family(base, 300, box_size=box, kind=kind, scale_range=scales,
                                     seed=seed)
        assert [(m.t, m.s) for m in members(f)] == [(m.t, m.s) for m in members(g)]
        assert f.scaled_translations() == g.scaled_translations()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_small_random_families_match_the_per_coordinate_draws(n):
    # a few draws leave few denominators: each draw is reduced, so D is the
    # lcm of the reduced denominators, not of the draws' common one
    for seed in range(20):
        for base, kind in ((unit_square(), "translates"), (unit_triangle(), "homothets")):
            f = random_family(base, n, kind=kind, scale_range=(1, 2), seed=seed)
            g = _reference_random_family(base, n, kind=kind, scale_range=(1, 2), seed=seed)
            assert f.scaled_translations() == g.scaled_translations()


# a scale range whose lower end has a 143-bit denominator: D would need more
# than bodies.MAX_SCALE_BITS bits, so the entries are the Fractions themselves
_WIDE = (1 + F(1, 3 ** 90), 2)


@pytest.mark.parametrize("base", [unit_disk, unit_triangle, lambda: BoxBody((0, 0, 0), (1, 2, 3))],
                         ids=["disk", "triangle", "box"])
@pytest.mark.parametrize("kind", ["translates", "homothets"])
@pytest.mark.parametrize("n", [1, 4, 300, 9000])  # 9000 spans three draw blocks
@pytest.mark.parametrize("scales", [(1, 3), (F(1, 2), F(9, 4)), _WIDE], ids=["1-3", "half", "wide"])
def test_random_family_equals_the_draw_list_version(base, kind, n, scales):
    # the columns, D and the entries' types, against the generator that drew
    # every value into one list and scaled a (form, draw) dict
    for seed in range(3):
        f = random_family(base(), n, box_size=17, kind=kind, scale_range=scales, seed=seed)
        g = reference.random_family(base(), n, box_size=17, kind=kind, scale_range=scales,
                                    seed=seed)
        (D, cols, S), want = f.scaled_translations(), g.scaled_translations()
        assert (D, cols, S) == want
        assert [list(map(type, col)) for col in (*cols, S)] == \
            [list(map(type, col)) for col in (*want[1], want[2])]
        wide = kind == "homothets" and scales == _WIDE
        assert (D == 1 and type(S[0]) is F) == wide


def test_random_family_runs_no_collector_pass():
    # 20k disks allocate enough lists and tuples for 24 collector passes
    # with the collector on; random_family holds it off and leaves it on, so
    # at most the one pass that its allocations are due is left, right after
    passes = []

    def count(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.callbacks.append(count)
    try:
        random_family(unit_disk(), 20_000, box_size=140, seed=0)
    finally:
        gc.callbacks.remove(count)
    assert len(passes) <= 1 and gc.isenabled()


class TestPairwiseIntersecting:
    def test_hexagon_two_point_pierce(self):
        f = pairwise_intersecting_family(hexagon_body(), 20, seed=8)
        cert = hexagon_pierce(f)
        assert len(cert.points) <= 2

    def test_square_helly_point(self):
        f = pairwise_intersecting_family(unit_square(), 12, seed=9)
        tau, _ = exact_tau(f)
        assert tau == 1

    def test_disk_tau_at_most_three(self):
        for seed in range(6):
            f = pairwise_intersecting_family(unit_disk(), 10, seed=30 + seed)
            tau, _ = exact_tau(f)
            assert tau <= 3

    @pytest.mark.parametrize("base", [hexagon_body, lambda: BoxBody((0, 0, 0), (1, 2, 1))],
                             ids=["hexagon", "box"])
    def test_polygons_and_boxes_take_no_pair_test(self, base):
        # the slab bounds decide it (bodies.common_slab_bounds); every pair
        # test of 300 members would be 44,850 calls
        with reference.call_budget(0, name="check"):
            assert len(pairwise_intersecting_family(base(), 300, seed=10)) == 300

    @pytest.mark.parametrize("base", [hexagon_body, lambda: BoxBody((0, 0, 0), (1, 2, 1)),
                                      unit_disk], ids=["hexagon", "box", "disk"])
    def test_a_family_with_a_missing_pair_is_refused(self, monkeypatch, base):
        # every translation drawn is stretched four times
        make = generators.Member
        monkeypatch.setattr(generators, "Member", lambda t: make(
            tuple(4 * v for v in t) if isinstance(t, tuple) else t * 4))
        with pytest.raises(ConstructionFailed, match="not pairwise-intersecting"):
            pairwise_intersecting_family(base(), 40, seed=11)


def test_random_centrally_symmetric_polygons_are_pinned():
    # two draws from one generator, as the benchmark's set-up makes them:
    # the first half of the vertices, the second half their negations
    rng = random.Random(3)
    pinned = [
        (4, 2, [("-2030/1033", "-384/1033"), ("-494/265", "-192/265"),
                ("3774/6305", "-12032/6305"), ("6014/5185", "-8448/5185")]),
        (3, 10, [("-9750/1073", "-4480/1073"), ("-2950/1753", "-17280/1753"),
                 ("150/17", "-80/17")]),
    ]
    for half_vertices, spread, half in pinned:
        body = random_centrally_symmetric_polygon(rng, half_vertices, spread=spread)
        want = [Point(F(x), F(y)) for x, y in half]
        assert body.polygon.vertices == want + [-p for p in want]
        assert body.reference_point == Point(0, 0)
    assert rng.random() == 0.47405353654712656
