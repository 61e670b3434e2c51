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
    normalize_affine,
)
from piercing.errors import TooLarge
from piercing.generators import (
    five_square_cycle,
    hexagon_body,
    nine_triangles,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.geom import ConvexPolygon, Point, clip_chain
from piercing.oracle import (
    candidate_points,
    clique_partition_number,
    exact_nu,
    exact_tau,
    max_independent_set,
    min_set_cover,
    solve,
)
from piercing.bodies import intersection_graph_bruteforce


class TestCandidates:
    def test_crossing_points_present(self):
        f = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), F(1, 2)))])
        cands = candidate_points(f)
        assert Point(F(1, 2), 1) in cands
        assert Point(1, F(1, 2)) in cands

    def test_nested_inner_vertices_present(self):
        f = Family(unit_square(), [Member(Point(0, 0), 1), Member(Point(F(1, 4), F(1, 4)), F(1, 2))],
                   "homothets")
        cands = candidate_points(f)
        assert Point(F(1, 4), F(1, 4)) in cands

    def test_too_large(self):
        f = random_family(unit_square(), 17, seed=0)
        with pytest.raises(TooLarge):
            candidate_points(f)

    def test_every_intersecting_clique_has_a_candidate(self):
        rng = random.Random(19)
        from piercing.generators import random_convex_polygon

        base = random_convex_polygon(rng, max_vertices=8, spread=2)
        f = random_family(base, 8, box_size=4, seed=20)
        cands = candidate_points(f)
        polys = [f.realize(i).polygon for i in range(len(f))]
        import itertools

        for r in range(1, 5):
            for subset in itertools.combinations(range(len(f)), r):
                chain = list(polys[subset[0]].vertices)
                for i in subset[1:]:
                    for n, c in polys[i].halfplanes():
                        chain = clip_chain(chain, n, c)
                        if not chain:
                            break
                    if not chain:
                        break
                if chain:
                    assert any(
                        all(f.realize(i).contains(p) for i in subset) for p in cands
                    )


class TestExactValues:
    def test_five_cycle(self):
        res = solve(five_square_cycle())
        assert (res.tau, res.nu) == (3, 2)

    def test_nine_triangles(self):
        res = solve(nine_triangles(F(1, 100)))
        assert (res.tau, res.nu) == (3, 1)

    def test_single_body(self):
        f = Family(unit_disk(), [Member(Point(0, 0))])
        assert exact_tau(f)[0] == 1
        assert exact_nu(f)[0] == 1

    def test_disjoint_bodies(self):
        f = Family(unit_square(), [Member(Point(5 * i, 0)) for i in range(6)])
        assert exact_nu(f)[0] == 6
        assert exact_tau(f)[0] == 6

    def test_tau_points_pierce(self):
        f = random_family(unit_disk(), 10, box_size=5, seed=21)
        tau, pts = exact_tau(f)
        for i in range(len(f)):
            assert any(f.realize(i).contains(p) for p in pts)

    def test_nu_members_disjoint(self):
        f = random_family(unit_triangle(), 12, box_size=5, seed=22)
        nu, members = exact_nu(f)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                assert not f.intersects(members[a], members[b])


class TestSolvers:
    def test_min_set_cover_small(self):
        masks = [0b0111, 0b1100, 0b1010, 0b0001]
        got = min_set_cover(4, masks)
        assert len(got) == 2

    def test_min_set_cover_uncoverable(self):
        with pytest.raises(ValueError):
            min_set_cover(2, [0b01])

    def test_mis_on_cycle(self):
        adj = [{1, 4}, {0, 2}, {1, 3}, {2, 4}, {3, 0}]
        assert len(max_independent_set(adj)) == 2

    def test_clique_partition_on_cycle(self):
        adj = [{1, 4}, {0, 2}, {1, 3}, {2, 4}, {3, 0}]
        assert clique_partition_number(adj) == 3

    def test_sampling_never_beats_oracle(self):
        # dense random sampling cannot find a smaller piercing set
        rng = random.Random(23)
        for trial in range(12):
            f = random_family(unit_square(), 8, box_size=3, seed=200 + trial)
            tau, _ = exact_tau(f)
            masks = []
            for _ in range(400):
                p = Point(F(rng.randrange(-10, 41), 10), F(rng.randrange(-10, 41), 10))
                m = 0
                for i in range(len(f)):
                    if f.realize(i).contains(p):
                        m |= 1 << i
                masks.append(m)
            if _union_all(masks) == (1 << len(f)) - 1:
                sampled = min_set_cover(len(f), masks)
                assert len(sampled) >= tau


def _union_all(masks):
    u = 0
    for m in masks:
        u |= m
    return u


class TestBoxes:
    def test_tau_equals_clique_partition_for_boxes(self):
        for trial in range(6):
            base = BoxBody((0, 0), (1, 1))
            f = random_family(base, 9, box_size=3, seed=300 + trial)
            tau, _ = exact_tau(f)
            theta = clique_partition_number(intersection_graph_bruteforce(f))
            assert tau == theta


class TestAffineInvariance:
    def test_oracle_invariant_under_affine_maps(self):
        m = AffineMap(2, 1, F(1, 3), 1, 5, -7)
        for trial in range(4):
            f = random_family(unit_triangle(), 9, box_size=4, seed=400 + trial)
            g = normalize_affine(f, m)
            assert exact_tau(f)[0] == exact_tau(g)[0]
            assert exact_nu(f)[0] == exact_nu(g)[0]


def _touching_families():
    """Small families of every base, translates and homothets, rich in
    pairs that only touch: polygon and box members on a half-integer grid
    with scales in {1, 3/2, 2} meet along edges and at corners, and every
    disk family holds pairs at centre distance exactly r (s_i + s_j)."""
    polygons = [unit_triangle(), unit_square(), hexagon_body(),
                PolygonBody(ConvexPolygon([Point(0, 0), Point(3, 1), Point(1, 2)])),
                PolygonBody(ConvexPolygon([Point(0, 0), Point(4, 0), Point(5, 3), Point(2, 5),
                                           Point(-1, 2)]))]
    boxes = [BoxBody((0, 0), (1, 1)), BoxBody((0, F(1, 2), 0), (1, F(3, 2), F(2, 3)))]
    disks = [unit_disk(), DiskBody(Point(F(1, 3), F(-2, 5)), F(3, 7))]
    rng = random.Random(17)
    for kind in ("translates", "homothets"):
        def scale():
            return rng.choice((1, F(3, 2), 2)) if kind == "homothets" else 1

        for base in polygons + boxes:
            dim = base.dim if base.kind == "box" else 2
            for _ in range(3):
                members = []
                for _ in range(rng.randrange(5, 11)):
                    t = [F(rng.randrange(0, 7), 2) for _ in range(dim)]
                    members.append(Member(tuple(t) if base.kind == "box" else Point(*t), scale()))
                yield Family(base, members, kind)
        for base in disks:
            for _ in range(3):
                members = []
                for _ in range(rng.randrange(3, 6)):
                    c = Point(rng.randrange(-6, 7), rng.randrange(-6, 7))
                    si, sj = scale(), scale()
                    ux, uy = rng.choice(((1, 0), (F(3, 5), F(4, 5)), (F(-5, 13), F(12, 13))))
                    reach = base.radius * (si + sj)
                    # members are s C + t, so the centre is s c + t
                    members.append(Member(c - base.center * si, si))
                    members.append(Member(c + Point(ux, uy) * reach - base.center * sj, sj))
                yield Family(base, members, kind)


def test_exact_nu_matches_bruteforce_graph():
    touching = set()
    for f in _touching_families():
        adj = intersection_graph_bruteforce(f)
        nu, members = exact_nu(f)
        assert (nu, members) == (len(members), max_independent_set(adj))
        if any(not _overlap_inside(f, i, j) for i in range(len(f)) for j in adj[i]):
            touching.add((f.base.kind, f.kind))
    assert len(touching) == 6  # every base kind, as translates and as homothets


def _overlap_inside(f, i, j):
    """Whether members i and j still meet when each shrinks by 1/1000 about
    its own reference point s ref + t."""
    box = f.base.kind == "box"
    ref = f.base.reference_point
    ref = ref if box else (ref.x, ref.y)
    shrunk = []
    for m in (f.members[i], f.members[j]):
        s = m.s * F(999, 1000)
        t = [r * (m.s - s) + v for r, v in zip(ref, m.t if box else (m.t.x, m.t.y))]
        shrunk.append(Member(tuple(t) if box else Point(*t), s))
    return Family(f.base, shrunk, "homothets").intersects(0, 1)
