from fractions import Fraction as F
import random

from hypothesis import example, given, settings, strategies as st
import pytest

from piercing.bodies import (
    AffineMap,
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    int_point,
    membership,
    normalize_affine,
)
from piercing.certificates import value_key
from piercing.errors import TooLarge
from piercing.generators import (
    five_square_cycle,
    hexagon_body,
    nine_triangles,
    random_centrally_symmetric_polygon,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.geom import ConvexPolygon, Point, clip_chain
from piercing.oracle import (
    _coverage_masks,
    _points,
    candidate_points,
    exact_nu,
    exact_tau,
    max_independent_set,
    min_set_cover,
    solve,
)
from piercing.radicals import Radical, RadPoint
import reference
from reference import (
    clique_partition_number,
    coverage_masks as realized_masks,
    intersection_graph_bruteforce,
)


class TestCandidates:
    def test_crossing_points_present(self):
        f = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), F(1, 2)))])
        cands = _points(f, candidate_points(f))
        assert Point(F(1, 2), 1) in cands
        assert Point(1, F(1, 2)) in cands

    def test_nested_inner_vertices_present(self):
        f = Family(unit_square(), [Member(Point(0, 0), 1), Member(Point(F(1, 4), F(1, 4)), F(1, 2))],
                   "homothets")
        cands = _points(f, candidate_points(f))
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
        cands = _points(f, candidate_points(f))
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


def _small_family(name, kind, n, seed, shifted=False):
    """A random family as the small-exact benchmark draws them.  shifted
    moves every member by one vector whose denominators need more than
    MAX_SCALE_BITS bits, so the int layer runs on Fraction columns (D = 1);
    a common shift keeps every touching pair."""
    rng = random.Random(seed)
    base, box = {
        "square": (unit_square(), 4),
        "triangle": (unit_triangle(), 4),
        "disk": (unit_disk(), 5),
        "cs8": (random_centrally_symmetric_polygon(rng, 4, spread=2), 8),
        "hexagon": (hexagon_body(), 8),
        "box": (BoxBody((0, 0), (1, 1)), 4),
    }[name]
    f = random_family(base, n, box_size=box, kind=kind, scale_range=(1, 2),
                      seed=rng.randrange(1 << 30))
    if shifted:
        shift = (F(1, 3 ** 82), F(-2, 3 ** 81))
        cols = [[v + d for v in col] for col, d in zip(f.columns, shift)]
        f = Family.from_columns(f.base, cols, f.scales, kind)
        assert f.scaled_translations()[0] == 1
    return f


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("square", "triangle", "disk", "cs8", "hexagon", "box")),
       st.sampled_from(("translates", "homothets")), st.integers(2, 12),
       st.integers(0, 1 << 30), st.booleans())
@example("disk", "homothets", 12, 5, True)
@example("cs8", "translates", 9, 6, True)
def test_coverage_masks_equal_the_realized_reference(name, kind, n, seed, shifted):
    """The int-layer masks equal the realized bodies' contains on every
    candidate, boundary points included."""
    f = _small_family(name, kind, n, seed, shifted)
    cands = candidate_points(f)
    assert _coverage_masks(f, cands) == realized_masks(f, cands)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("square", "triangle", "disk", "cs8", "hexagon", "box")),
       st.sampled_from(("translates", "homothets")), st.integers(2, 12),
       st.integers(0, 1 << 30), st.booleans())
@example("disk", "homothets", 12, 5, True)
@example("triangle", "translates", 12, 3, True)
@example("box", "homothets", 9, 7, True)
def test_int_candidates_equal_the_fraction_reference(name, kind, n, seed, shifted):
    """candidate_points on the scaled columns gives the candidates of the
    realized members, Fraction and Radical arithmetic, by value, type and
    order."""
    f = _small_family(name, kind, n, seed, shifted)
    got = _points(f, candidate_points(f))
    want = reference.candidate_points(f)
    assert [type(p) for p in got] == [type(p) for p in want]
    assert [value_key(p) for p in got] == [value_key(p) for p in want]


def test_int_candidates_equal_the_reference_on_touching_families():
    """The same on families rich in pairs that only touch: tangent disks,
    and polygons and boxes meeting along edges and at corners."""
    for f in _touching_families():
        got, want = _points(f, candidate_points(f)), reference.candidate_points(f)
        assert [value_key(p) for p in got] == [value_key(p) for p in want]


@pytest.mark.parametrize("kind", ["translates", "homothets"])
@pytest.mark.parametrize("shifted", [False, True])
def test_disk_tau_points_are_the_reference_radpoints(kind, shifted):
    """A disk family's tau_points are the points the reference candidates
    and masks choose, the irrational ones as RadPoints."""
    f = _small_family("disk", kind, 10, 0, shifted)
    cands = reference.candidate_points(f)
    want = [cands[i] for i in min_set_cover(len(f), realized_masks(f, cands))]
    tau, got = exact_tau(f)
    assert tau == len(want)
    assert [type(p) for p in got] == [type(p) for p in want]
    assert got == want
    assert sum(isinstance(p, RadPoint) for p in got) >= 2


@pytest.mark.parametrize("make", [
    lambda: random_family(unit_disk(), 12, box_size=5, seed=31),
    lambda: random_family(unit_triangle(), 12, box_size=5, kind="homothets",
                          scale_range=(1, 2), seed=32),
], ids=["disk-translates", "triangle-homothets"])
def test_solve_decides_membership_on_ints(make, monkeypatch):
    """solve never asks a realized body whether it contains a point."""
    f = make()
    expected = solve(f)

    def refuse(self, p):
        raise AssertionError("realized contains called")

    monkeypatch.setattr(DiskBody, "contains", refuse)
    monkeypatch.setattr(PolygonBody, "contains", refuse)
    got = solve(f)
    assert (got.tau, got.tau_points, got.nu, got.nu_members, got.candidates_used) == (
        expected.tau, expected.tau_points, expected.nu, expected.nu_members,
        expected.candidates_used)


def test_masks_fall_back_to_the_realized_member():
    """A point the int layer leaves open (irrational in a polygon family,
    two radicands in a disk family) is decided on the realized member."""
    half_root2 = Radical.sqrt(2) * F(1, 2)
    squares = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), 0)),
                                     Member(Point(3, 3))])
    extra = [RadPoint(half_root2, F(1, 2)), RadPoint(half_root2 + 3, half_root2 + 3),
             RadPoint(half_root2 * 3, 0)]
    assert [membership(squares, [int_point(p)])(0)(0) for p in extra] == [None] * 3
    cands = candidate_points(squares)
    masks = _coverage_masks(squares, cands, extra)
    assert masks == realized_masks(squares, cands + extra)
    assert masks[-3:] == [0b011, 0b100, 0]
    disks = Family(unit_disk(), [Member(Point(0, 0)), Member(Point(2, 0))])
    quarter_root3 = Radical.sqrt(3) * F(1, 4)
    extra = [RadPoint(half_root2 * F(1, 2), quarter_root3),
             RadPoint(half_root2 * 3, quarter_root3)]
    assert [int_point(p) for p in extra] == [None] * 2
    cands = candidate_points(disks)
    masks = _coverage_masks(disks, cands, extra)
    assert masks == realized_masks(disks, cands + extra)
    assert masks[-2:] == [0b01, 0b10]
