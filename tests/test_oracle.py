from fractions import Fraction as F
import hashlib
import random

from hypothesis import example, given, settings, strategies as st
import pytest

from piercing import oracle
from piercing.bodies import (
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    coverage,
    int_translations,
    member_polygons,
    pair_checker,
)
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
from piercing.geom import ConvexPolygon, Point, _clip, clip_chain
from piercing.oracle import (
    _adjacency,
    _entry,
    _lowest,
    _polygon_lows,
    candidate_points,
    exact_nu,
    exact_tau,
    max_independent_set,
    min_set_cover,
    solve,
)
from piercing.radicals import RadPoint
import reference
from reference import (
    AffineMap,
    Radical,
    as_rad_point,
    body_contains,
    call_budget,
    clique_partition_number,
    coverage_masks as realized_masks,
    family_of_columns,
    fraction_columns,
    intersection_graph_bruteforce,
    intersects,
    lowest_point,
    maximal_masks,
    normalize_affine,
    padded_candidates,
    rad_point,
)


class TestCandidates:
    def test_crossing_points_present(self):
        """Each member's lowest point, then each meeting pair's where neither
        member holds the other's, here where two edges cross; the second
        member holds the first's lowest point."""
        f = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), F(1, 2))),
                                   Member(Point(F(3, 4), F(-1, 2)))])
        assert candidate_points(f)[0] == [
            rad_point(0, 0), rad_point(F(1, 2), F(1, 2)), rad_point(F(3, 4), F(-1, 2)),
            rad_point(F(3, 4), 0), rad_point(F(3, 4), F(1, 2))]

    def test_nested_inner_vertices_present(self):
        f = Family(unit_square(), [Member(Point(0, 0), 1), Member(Point(F(1, 4), F(1, 4)), F(1, 2))],
                   "homothets")
        cands = candidate_points(f)[0]
        assert rad_point(F(1, 4), F(1, 4)) in cands

    def test_too_large(self):
        f = random_family(unit_square(), 17, seed=0)
        with pytest.raises(TooLarge):
            candidate_points(f)

    def test_every_intersecting_clique_has_a_candidate(self):
        rng = random.Random(19)
        from piercing.generators import random_convex_polygon

        base = random_convex_polygon(rng, max_vertices=8, spread=2)
        f = random_family(base, 8, box_size=4, seed=20)
        cands = candidate_points(f)[0]
        polys = [f.realize(i).polygon for i in range(len(f))]
        import itertools

        for r in range(1, 5):
            for subset in itertools.combinations(range(len(f)), r):
                chain = list(polys[subset[0]].vertices)
                for i in subset[1:]:
                    for n, c in reference.halfplanes(polys[i]):
                        chain = clip_chain(chain, n, c)
                        if not chain:
                            break
                    if not chain:
                        break
                if chain:
                    assert any(
                        all(body_contains(f.realize(i), p) for i in subset) for p in cands
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
            assert any(body_contains(f.realize(i), p) for p in pts)

    def test_nu_members_disjoint(self):
        f = random_family(unit_triangle(), 12, box_size=5, seed=22)
        nu, members = exact_nu(f)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                assert not intersects(f, members[a], members[b])


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
                    if body_contains(f.realize(i), p):
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
    ms = reference.members(f)
    for m in (ms[i], ms[j]):
        s = m.s * F(999, 1000)
        t = [r * (m.s - s) + v for r, v in zip(ref, m.t if box else (m.t.x, m.t.y))]
        shrunk.append(Member(tuple(t) if box else Point(*t), s))
    return intersects(Family(f.base, shrunk, "homothets"), 0, 1)


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
        f = _moved(f, (F(1, 3 ** 82), F(-2, 3 ** 81)))
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
    cands, masks = candidate_points(f)
    assert masks == coverage(f, cands) == realized_masks(f, cands)


def _moved(f, shift):
    """f with every member moved by the vector shift."""
    cols, ss = fraction_columns(f)
    return family_of_columns(f.base, [[v + d for v in col] for col, d in zip(cols, shift)], ss,
                             f.kind)


def _extra_points(f, rng, count):
    """Random rational points over the family's members, inside and out."""
    make = tuple if f.base.kind == "box" else (lambda xy: Point(*xy))
    out = []
    for _ in range(count):
        box = f.realize(rng.randrange(len(f))).bbox()
        out.append(make([iv.lo + (iv.hi - iv.lo) * F(rng.randrange(-8, 41), 32) for iv in box]))
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("square", "triangle", "cs8", "hexagon", "box")),
       st.sampled_from(("translates", "homothets")), st.integers(2, 12),
       st.integers(0, 1 << 30), st.booleans())
@example("cs8", "homothets", 12, 3, True)
@example("box", "translates", 9, 4, False)
def test_slab_masks_equal_the_realized_reference_below_the_origin(name, kind, n, seed, shifted):
    """The slab masks (bodies.coverage) on a family moved below and left of
    the origin, so that form . A is negative and u // q floors away from
    zero: candidates and random points over the members, int columns and
    Fraction columns alike."""
    f = _moved(_small_family(name, kind, n, seed, shifted), (F(-61, 3), F(-47, 2)))
    assert (f.scaled_translations()[0] == 1) == shifted
    extra = _extra_points(f, random.Random(seed), 30)
    cands, _ = candidate_points(f)
    assert coverage(f, [*cands, *map(as_rad_point, extra)]) == realized_masks(f, cands + extra)


def test_slab_masks_equal_the_realized_reference_on_touching_families():
    """The same where candidates lie exactly on slab bounds: the touching
    families, as they are and moved below the origin."""
    rng = random.Random(23)
    for f in _touching_families():
        if f.base.kind == "disk":
            continue
        dim = f.base.dim if f.base.kind == "box" else 2
        for g in (f, _moved(f, [F(-23 - k, 2 + k) for k in range(dim)])):
            cands, _ = candidate_points(g)
            extra = _extra_points(g, rng, 10)
            masks = coverage(g, [*cands, *map(as_rad_point, extra)])
            assert masks == realized_masks(g, cands + extra)


def test_coverage_masks_take_work_per_slab_not_per_member_and_point():
    """A 16-member cs8 family has about 280 padded candidates and 4 slabs:
    one test per member and candidate makes over 25,000 calls, one
    bisection pair per slab and candidate under 4,000."""
    f = _small_family("cs8", "homothets", 16, 0)
    cands = padded_candidates(f)
    assert len(cands) > 250
    with call_budget(8_000):
        coverage(f, cands)


def _assert_lowest_points(f):
    """The candidates keep the inclusion-maximal masks of the padded set,
    tau and nu equal the padded set's and the brute-force graph's, and each
    polygon or disk candidate is the lowest point of the intersection of
    the realized members holding it (box candidates are the padded set's
    own corners)."""
    cands, masks = candidate_points(f)
    assert masks == coverage(f, cands)
    padded = coverage(f, padded_candidates(f))
    assert maximal_masks(masks) == maximal_masks(padded)
    res = solve(f)
    assert res.tau == len(res.tau_points) == len(min_set_cover(len(f), padded))
    assert res.nu_members == reference.max_independent_set(intersection_graph_bruteforce(f))
    assert res.nu == len(res.nu_members)
    if f.base.kind != "box":
        for p, m in zip(cands, masks):
            assert lowest_point(f, [i for i in range(len(f)) if m >> i & 1]) == p


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("square", "triangle", "disk", "cs8", "hexagon", "box")),
       st.sampled_from(("translates", "homothets")), st.integers(2, 12),
       st.integers(0, 1 << 30), st.booleans())
@example("disk", "homothets", 12, 5, True)
@example("triangle", "translates", 12, 3, True)
@example("box", "homothets", 9, 7, True)
def test_int_candidates_equal_the_fraction_reference(name, kind, n, seed, shifted):
    """Each candidate of candidate_points, on the scaled columns, is the
    lowest point of its members as the realized bodies give it in Fraction
    and Radical arithmetic, and the candidates keep the padded set's
    maximal masks, tau and nu (_assert_lowest_points); int and Fraction
    columns alike."""
    _assert_lowest_points(_small_family(name, kind, n, seed, shifted))


def test_int_candidates_equal_the_reference_on_touching_families():
    """The same on families rich in pairs that only touch: tangent disks,
    and polygons and boxes meeting along edges and at corners."""
    for f in _touching_families():
        _assert_lowest_points(f)


@pytest.mark.parametrize("kind", ["translates", "homothets"])
@pytest.mark.parametrize("shifted", [False, True])
def test_disk_tau_points_are_the_reference_radpoints(kind, shifted):
    """A disk family's tau_points are the lowest points of the realized
    members each holds (lowest_point), the irrational ones as RadPoints,
    and as many as the padded candidates need."""
    f = _small_family("disk", kind, 10, 0, shifted)
    tau, got = exact_tau(f)
    assert tau == len(min_set_cover(len(f), coverage(f, padded_candidates(f))))
    for p in got:
        held = [i for i in range(len(f)) if body_contains(f.realize(i), p)]
        assert lowest_point(f, held) == p
    assert any(isinstance(p, RadPoint) for p in got)


@pytest.mark.parametrize("make", [
    lambda: random_family(unit_disk(), 12, box_size=5, seed=31),
    lambda: random_family(unit_triangle(), 12, box_size=5, kind="homothets",
                          scale_range=(1, 2), seed=32),
], ids=["disk-translates", "triangle-homothets"])
def test_solve_decides_membership_on_ints(make, monkeypatch):
    """solve never asks a realized polygon whether it contains a point."""
    f = make()
    expected = solve(f)

    def refuse(self, p):
        raise AssertionError("realized contains called")

    monkeypatch.setattr(ConvexPolygon, "contains", refuse)
    got = solve(f)
    assert (got.tau, got.tau_points, got.nu, got.nu_members, got.candidates_used) == (
        expected.tau, expected.tau_points, expected.nu, expected.nu_members,
        expected.candidates_used)


def test_masks_of_radical_points_equal_realized_masks():
    """coverage decides points with one radicand on ints too: in a polygon
    family member by member on the slabs' root signs, in a disk family with
    the crossings' code.  Their masks equal the realized reference, and so
    do those of the candidates listed with them."""
    half_root2 = Radical.sqrt(2) * F(1, 2)
    squares = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), 0)),
                                     Member(Point(3, 3))])
    extra = [rad_point(half_root2, F(1, 2)), rad_point(half_root2 + 3, half_root2 + 3),
             rad_point(half_root2 * 3, 0)]
    cands, _ = candidate_points(squares)
    masks = coverage(squares, [*cands, *map(as_rad_point, extra)])
    assert squares._realized == {}
    assert masks == realized_masks(squares, cands + extra) and masks[-3:] == [0b011, 0b100, 0]
    disks = Family(unit_disk(), [Member(Point(0, 0)), Member(Point(2, 0))])
    quarter_root3 = Radical.sqrt(3) * F(1, 4)
    extra = [rad_point(quarter_root3, quarter_root3), rad_point(quarter_root3 + 1, quarter_root3),
             rad_point(1, quarter_root3 * 4)]
    cands, _ = candidate_points(disks)
    masks = coverage(disks, [*cands, *map(as_rad_point, extra)])
    assert disks._realized == {}
    assert masks == realized_masks(disks, cands + extra) and masks[-3:] == [0b01, 0b10, 0]


@pytest.mark.parametrize("n", range(21))
def test_bitset_independent_set_equals_the_set_reference(n):
    """The independent set search on int bitsets returns what the search on
    adjacency sets returns, members and order, whether it is given sets or
    bitsets, on random graphs of every density, the empty and the complete
    graph included."""
    rng = random.Random(n)
    for p in (0, 0.15, 0.35, 0.6, 0.85, 1):
        for _ in range(4):
            adj = [set() for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        adj[i].add(j)
                        adj[j].add(i)
            want = reference.max_independent_set(adj)
            assert max_independent_set(adj) == want
            assert max_independent_set([sum(1 << u for u in a) for a in adj]) == want


def _polygon_families():
    for name in ("square", "triangle", "cs8", "hexagon"):
        for kind in ("translates", "homothets"):
            for seed in range(4):
                yield _small_family(name, kind, 4 + 3 * seed, seed, shifted=seed == 3)
    yield from (f for f in _touching_families() if f.base.kind == "polygon")


def test_polygon_candidates_skipping_held_halfplanes_equal_clipping_every_plane():
    """Skipping the halfplanes of member j that hold all of member i leaves
    the lowest point of each meeting pair, either way round, as clipping
    against every halfplane gives it, and that is the lowest point of the
    realized pair, also where two members' edges lie on one line (equal
    offsets)."""
    equal_offsets = 0
    for f in _polygon_families():
        D, cols, S = int_translations(f)
        meets = pair_checker(f)
        points, planes = member_polygons(f.base, D, cols, S)
        _, low = _polygon_lows(f, D, cols, S)
        for i in range(len(f)):
            for j in range(len(f)):
                if i == j or not meets(i, j):
                    continue
                clipped = points[i]
                for plane in planes[j]:
                    clipped = _clip(clipped, plane)
                assert low(i, j) == _entry(*_lowest(clipped))
                p = low(i, j)
                assert lowest_point(f, [i, j]) == p
                equal_offsets += i < j and sum(a[2] == b[2] for a, b in zip(planes[i], planes[j]))
    assert equal_offsets > 50


def test_min_set_cover_ignores_repeated_masks():
    """Repeats of a mask change no choice: with copies of the masks inserted
    after their first occurrence, the cover is the same masks at their first
    indices."""
    rng = random.Random(3)
    for n in range(1, 13):
        for _ in range(10):
            masks = [rng.getrandbits(n) for _ in range(2 * n)] + [1 << e for e in range(n)]
            masks = list(dict.fromkeys(rng.sample(masks, len(masks))))
            repeated = list(masks)
            for _ in range(2 * n):
                m = rng.choice(masks)
                repeated.insert(rng.randrange(repeated.index(m) + 1, len(repeated) + 1), m)
            first = [repeated.index(m) for m in masks]
            assert min_set_cover(n, repeated) == [first[i] for i in min_set_cover(n, masks)]
    f = _small_family("cs8", "homothets", 12, 0)
    masks = coverage(f, padded_candidates(f))
    distinct = list(dict.fromkeys(masks))
    assert len(distinct) < len(masks) / 2
    first = [masks.index(m) for m in distinct]
    assert min_set_cover(len(f), masks) == [first[i] for i in min_set_cover(len(f), distinct)]


def test_nu_adjacency_equals_the_bruteforce_graph():
    """exact_nu's bitsets, every pair by pair_checker, hold the graph of
    intersects on every pair, touching pairs included."""
    families = [*_touching_families(),
                *(_small_family(name, kind, 12, seed, shifted=seed == 1)
                  for name in ("square", "triangle", "disk", "cs8", "hexagon", "box")
                  for kind in ("translates", "homothets") for seed in range(2))]
    for f in families:
        adj = [{j for j in range(len(f)) if bits >> j & 1} for bits in _adjacency(f)]
        assert adj == intersection_graph_bruteforce(f)


def _small_exact_families(seed, blocks=2):
    """The families of the small-exact benchmark workload at seed, two
    blocks as a run of it draws them: per block one family for each size
    from 4 to 12, kind (translates, homothets) and base (square, triangle,
    disk, a fresh centrally symmetric 8-gon, the hexagon), 90 families."""
    rng = random.Random(seed)
    out = []
    for _ in range(blocks):
        for n in range(4, 13):
            for kind in ("translates", "homothets"):
                for name in ("square", "triangle", "disk", "cs8", "hexagon"):
                    base, box = {
                        "square": lambda: (unit_square(), 4),
                        "triangle": lambda: (unit_triangle(), 4),
                        "disk": lambda: (unit_disk(), 5),
                        "cs8": lambda: (random_centrally_symmetric_polygon(rng, 4, spread=2), 8),
                        "hexagon": lambda: (hexagon_body(), 8),
                    }[name]()
                    out.append(random_family(base, n, box_size=box, kind=kind,
                                             scale_range=(1, 2), seed=rng.randrange(1 << 30)))
    return out


# sha256 of tau, |tau_points|, nu and nu_members of solve over the 720
# small-exact families of seeds 1-4 and the touching families, taken while
# the candidates were every vertex, reference point, centre and crossing
# (reference.padded_candidates)
SOLVE_DIGEST = "59665135516222f9df12951478a1ea843d653e6412202bf138e5083580a521c2"


def test_solve_is_pinned_on_a_small_exact_block():
    """tau, |tau_points|, nu and nu_members of solve on eight small-exact
    blocks and the touching families equal the padded candidates'."""
    families = [f for seed in (1, 2, 3, 4) for f in _small_exact_families(seed)]
    assert len(families) == 720
    text = "".join("%d %d %d %r\n" % (r.tau, len(r.tau_points), r.nu, r.nu_members)
                   for r in map(solve, families + list(_touching_families())))
    assert hashlib.sha256(text.encode()).hexdigest() == SOLVE_DIGEST


def test_solve_checks_each_pair_once():
    """solve decides each pair with pair_checker once, for nu and for the
    candidates alike: n (n - 1) / 2 checks.  Polygon families took twice
    as many while the candidates tested every pair again."""
    for name in ("triangle", "disk", "cs8"):
        f = _small_family(name, "homothets", 12, 0)
        with call_budget(66, name="check") as budget:
            solve(f)
        assert budget.calls == 66


def test_polygon_candidates_skip_the_halfplanes_that_hold_a_member():
    """A 12-member cs8 homothet family: clipping every meeting pair and
    skipping the halfplanes that hold all of the clipped member made about
    4,400 calls; clipping only the pairs where neither member holds the
    other's lowest point, with the same skip, about 2,600 (2,900 with the
    masks, which candidate_points now returns too)."""
    f = _small_family("cs8", "homothets", 12, 0)
    with call_budget(3_600):
        candidate_points(f)


def test_candidates_and_masks_take_half_the_padded_work():
    """A 16-member cs8 homothet family: its 284 padded candidates and their
    masks made about 11,900 calls, its 51 lowest points and theirs about
    5,300, and 5,100 with the lowest points' masks computed once
    (candidate_points returns the masks)."""
    f = _small_family("cs8", "homothets", 16, 0)
    with call_budget(8_000):
        candidate_points(f)


def test_polygon_candidates_take_fraction_columns_as_they_are(monkeypatch):
    # hexagon translates with distinct prime denominators keep Fraction
    # columns (D = 1); their candidates and tau are those of the same family
    # over the common denominator, with no family-wide lcm built
    primes = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]
    rng = random.Random(5)
    f = Family(hexagon_body(), [
        Member(Point(F(rng.randrange(5 * q), q), F(rng.randrange(5 * q), q)))
        for q in rng.sample(primes, 14)])
    assert f.scaled_translations()[0] == 1
    wide = Family.from_scaled(f.base, int_translations(f))
    want, want_tau = candidate_points(wide), exact_tau(wide)[0]
    assert len(want[0]) > len(f)

    def refused(_):
        raise AssertionError("a family-wide lcm")

    monkeypatch.setattr(oracle, "int_translations", refused)
    assert candidate_points(f) == want
    assert exact_tau(f)[0] == want_tau
