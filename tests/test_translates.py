from fractions import Fraction as F
import hashlib
import math
import random
import tracemalloc

import pytest

from piercing import covers, oracle, sandwich, translates
from piercing.bodies import (
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    int_point,
    int_translations,
    intersection_graph,
    membership,
    neighbor_index,
    pair_checker,
    scale_classes,
)
from piercing.covers import _poly_key, _triangle_normalizer, translate_cluster_cover
from piercing.errors import (
    CoverageNotVerified,
    NotHexagonBase,
    SearchFailed,
    UnsupportedBase,
    VerificationFailed,
)
from piercing.generators import (
    five_square_cycle,
    hexagon_body,
    pairwise_intersecting_family,
    random_centrally_symmetric_polygon,
    random_cs_hexagon,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.geom import ConvexPolygon, Point
from piercing.homothets import _smallest_order, greedy_pierce_homothets
from piercing.oracle import exact_nu, exact_tau
from piercing.sandwich import hexagon_sandwich, hexagon_sandwich_special, sandwich_parallelograms
from piercing.translates import (
    _clusters,
    _default_sandwich,
    _greedy,
    _seed_order,
    covering_lattice,
    greedy_pierce,
    grid_pierce,
    hexagon_pierce,
    lattice_pierce,
    lattice_witness,
    packing_lattice,
    union_area_exact,
)
import reference
from reference import (AffineMap, Radical, body_contains, call_budget, family_of_columns,
                       fraction_columns, intersects, lattice_offset_members, lattice_offset_points,
                       normalize_affine, rad_point, top_key, union_area)

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
                assert not intersects(f, seeds[a], seeds[b])

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

    @pytest.mark.parametrize("base", [unit_disk, unit_triangle, hexagon_body,
                                      lambda: BoxBody((0, 0, 0), (1, F(3, 2), 1))],
                             ids=["disk", "triangle", "hexagon", "box"])
    @pytest.mark.parametrize("kind", ["translates", "homothets"])
    def test_clusters_equal_the_loop_on_the_family_numbering(self, base, kind):
        """The greedy runs its loop on the members renumbered in seed order;
        mapped back, its clusters are the loop's on the family itself."""
        f = random_family(base(), 400, box_size=25, kind=kind, seed=13)
        pierce, seed_order = ((greedy_pierce, _seed_order) if kind == "translates"
                              else (greedy_pierce_homothets, _smallest_order))
        cert, order = pierce(f, refine=False, verify=False), seed_order(f)
        assert f.base.kind == "disk" or f._slabs is not None  # computed on f, for verify
        assert cert.clusters == [(i, (i, *sorted(hits))) for i, hits in
                                 _clusters(len(f), order, neighbor_index(f), pair_checker(f))]

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

    @pytest.mark.parametrize("n", [1000, 4000])
    def test_pair_tests_per_member_stay_bounded(self, monkeypatch, n):
        # a seed meets only the grid neighbours on its own line, so the
        # pair tests per member do not grow with the line length
        calls = [0]
        real = translates.pair_checker

        def counting(f):
            check = real(f)

            def counted(i, j):
                calls[0] += 1
                return check(i, j)

            return counted

        monkeypatch.setattr(translates, "pair_checker", counting)
        f = random_family(unit_square(), n, box_size=math.isqrt(n), seed=12)
        grid_pierce(f, verify=False)
        assert calls[0] <= 3 * n


def _shifted_to_fractions(f):
    """f shifted by one vector whose denominators need more than
    MAX_SCALE_BITS bits, so its scaled columns hold Fractions (D = 1)."""
    cols, ss = fraction_columns(f)
    shift = [F(1, 3 ** 82), F(-2, 7 ** 50)]
    g = family_of_columns(f.base, [[v + d for v in col] for col, d in zip(cols, shift)], ss)
    assert g.scaled_translations()[0] == 1
    return g


_GRID_REFERENCE_CASES = {
    "square": lambda: random_family(unit_square(), 300, box_size=20, seed=61),
    "triangle": lambda: random_family(unit_triangle(), 300, box_size=20, seed=62),
    "pentagon": lambda: random_family(PENTAGON, 200, box_size=40, seed=63),
    "cs polygon": lambda: random_family(random_centrally_symmetric_polygon(64), 150,
                                        box_size=80, seed=64),
    "box-2d": lambda: random_family(BoxBody((F(-1, 2), 0), (1, F(3, 2))), 300, box_size=12,
                                    seed=65),
    "box-3d": lambda: random_family(BoxBody((0, F(1, 3), -1), (1, 2, F(1, 2))), 200,
                                    box_size=8, seed=66),
    "pentagon, D = 1": lambda: _shifted_to_fractions(random_family(PENTAGON, 200, box_size=40,
                                                                   seed=67)),
}


@pytest.mark.parametrize("case", list(_GRID_REFERENCE_CASES))
def test_grid_lines_equal_the_fraction_reference(case):
    # the int centres give the Fraction version's line keys, order and points
    f = _GRID_REFERENCE_CASES[case]()
    pair = None if f.base.kind == "box" else sandwich_parallelograms(f.base.polygon)
    line, order, points = reference.grid_lines(f, pair)
    forms = translates._grid_frame(f.base, pair)[0]
    assert translates._grid_lines(f, forms)[3:] == (line, order)
    assert grid_pierce(f, pair).points == points


@pytest.mark.parametrize("case", list(_GRID_REFERENCE_CASES) + ["square, 40 seeds"])
def test_no_grid_line_is_tangent_to_a_member(case):
    # _line_offset puts each line axis's offset in the middle of the widest
    # gap between the ends of the members' unit intervals: no line lands on
    # an end, at x + 1/2 - off = j over 4 E
    if case == "square, 40 seeds":
        families = [random_family(unit_square(), 1 + seed, box_size=1 + seed % 4, seed=seed)
                    for seed in range(40)]
    else:
        families = [_GRID_REFERENCE_CASES[case]()]
    for f in families:
        pair = None if f.base.kind == "box" else sandwich_parallelograms(f.base.polygon)
        E, centres, offs, _, _ = translates._grid_lines(f, translates._grid_frame(f.base, pair)[0])
        assert offs and all((4 * x + 2 * E - off) % (4 * E) for col, off in zip(centres, offs)
                            for x in col)


_WITNESS_CASES = {
    "disk": lambda: random_family(unit_disk(), 300, box_size=20, seed=21),
    "square": lambda: random_family(unit_square(), 300, box_size=12, seed=22),
    "hexagon": lambda: random_family(hexagon_body(), 300, box_size=30, seed=23),
    "pentagon": lambda: random_family(PENTAGON, 300, box_size=60, seed=24),
    "triangle homothets": lambda: random_family(unit_triangle(), 300, box_size=30,
                                                kind="homothets", scale_range=(1, 8), seed=25),
}


@pytest.mark.parametrize("case", list(_WITNESS_CASES))
def test_witness_seeds_equal_the_disjoint_extension(case):
    """The grid and lattice witnesses are the seeds of _clusters over best +
    seeds and best + range(n): the members of the order that meet no member
    kept before them (reference.disjoint_extension), repeats included."""
    f = _WITNESS_CASES[case]()
    n = len(f)
    near, check = neighbor_index(f), pair_checker(f)
    if f.kind == "homothets":
        classes, cells = scale_classes(f.scaled_translations()[2], 1)
        assert len(cells) >= 3
        assert any(classes[i] != classes[j] and check(i, j) for i in range(n) for j in near(i))
    rng = random.Random(case)
    for _ in range(4):
        best = rng.sample(range(n), 40)
        seeds = sorted(rng.sample(range(n), 150) + best[:10])
        for order in (best + seeds, best + list(range(n))):
            kept = reference.disjoint_extension(order, near, check)
            assert len(kept) < len(set(order))
            assert [i for i, _ in _clusters(n, order, near, check)] == kept


@pytest.mark.parametrize("base, box", [(unit_square, 40), (unit_triangle, 40),
                                       (hexagon_body, 90)])
def test_grid_witness_is_the_disjoint_extension_of_its_seeds(monkeypatch, base, box):
    """The grid witness keeps only seeds, so each seed is tested against its
    grid neighbours that are seeds: 1,051 pair checks on these squares,
    where testing every neighbour took 2,864."""
    f = random_family(base(), 2000, box_size=box, seed=61)
    calls, extend = [], translates._extend_witness
    monkeypatch.setattr(translates, "_extend_witness",
                        lambda *args: calls.append(args) or extend(*args))
    grid_pierce(f, verify=False)
    (n, class_seeds, near, check), = calls
    best = max(class_seeds.values(), key=lambda s: (len(s), -min(s)))
    seeds = sorted(i for class_ in class_seeds.values() for i in class_)
    kept = reference.disjoint_extension(best + seeds, near, check)
    assert len(best) < len(kept) < len(seeds)
    with call_budget(1_500 if base is unit_square else 2_500, name="check"):
        assert extend(n, class_seeds, near, check) == kept


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

    def test_two_points_are_pinned_and_decided_on_the_slabs(self, monkeypatch):
        # sha256 of the points of 20 seeded pairwise-intersecting families,
        # taken when the strips came from Fraction centres and the points
        # were tested on realized polygon translates; the slabs decide now
        families = [pairwise_intersecting_family(random_cs_hexagon(seed), 6 + seed % 10,
                                                 seed=seed) for seed in range(100, 120)]

        def refuse(self, p):
            raise AssertionError("realized contains called")

        monkeypatch.setattr(ConvexPolygon, "contains", refuse)
        certs = [hexagon_pierce(f) for f in families]
        assert {cert.method for cert in certs} == {"hexagon"}
        text = "\n".join(repr(cert.points) for cert in certs)
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "18f47c11ca8a1e70ea1950d3cc72c937b0522c2a2a12fbcab762f2774636c8c6")

    def test_pairwise_intersecting_family_needs_no_pair_test(self):
        # the slab bounds tell that the family is pairwise intersecting; an
        # intersection graph would check all 44,850 pairs
        f = pairwise_intersecting_family(hexagon_body(), 300, seed=6)
        with call_budget(1_000, name="check"):
            cert = hexagon_pierce(f)
        assert cert.method == "hexagon" and len(cert.points) <= 2

    def test_non_hexagon_rejected(self):
        f = random_family(unit_square(), 4, seed=8)
        with pytest.raises(NotHexagonBase):
            hexagon_pierce(f)

    @staticmethod
    def _no_pair_pierces(monkeypatch):
        """Let no member hold a midline crossing, so that no pair of them
        pierces the family and hexagon_pierce falls back to the oracle."""
        monkeypatch.setattr(translates, "membership", lambda f, ipts: lambda i: lambda k: False)

    def test_oracle_fallback_gives_exact_tau_points(self, monkeypatch):
        # three translates touching pairwise at three distinct points: tau = 2
        f = Family(hexagon_body(), [Member(Point(0, 0)), Member(Point(4, 0)), Member(Point(2, 4))])
        self._no_pair_pierces(monkeypatch)
        found = []

        def spy(g, limit):
            found.append(exact_tau(g, limit=limit))
            return found[-1]

        monkeypatch.setattr(oracle, "exact_tau", spy)
        cert = hexagon_pierce(f, verify=False)
        assert cert.method == "hexagon" and len(found) == 1
        tau, pts = found[0]
        assert tau == 2 and cert.points == pts
        assert cert.verify(f)

    def test_oracle_fallback_over_two_points_fails(self, monkeypatch):
        f = pairwise_intersecting_family(hexagon_body(), 12, seed=6)
        self._no_pair_pierces(monkeypatch)
        monkeypatch.setattr(oracle, "exact_tau", lambda g, limit: (3, []))
        with pytest.raises(VerificationFailed, match="no two-point transversal found"):
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

    def test_union_area_computed_once(self, monkeypatch):
        f = random_family(hexagon_body(), 9, box_size=7, seed=10)
        expected = lattice_pierce(f, verify=False)
        calls = []

        def counting(g):
            calls.append(g)
            return union_area_exact(g)

        monkeypatch.setattr(translates, "union_area_exact", counting)
        got = lattice_pierce(f, verify=False)
        assert len(calls) == 1
        assert (got.points, got.witness, got.info) == (expected.points, expected.witness,
                                                      expected.info)

    def test_witness_bound(self):
        f = random_family(hexagon_body(), 9, box_size=7, seed=10)
        wit, spec = lattice_witness(f)
        area = union_area_exact(f)
        assert len(wit) >= math.ceil(area / spec.cell_area)
        for a in range(len(wit)):
            for b in range(a + 1, len(wit)):
                assert not intersects(f, wit[a], wit[b])

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


def _lattice_families():
    """The 50 families of the lattice acceptance test, squares, and
    hexagons whose translations keep Fraction columns (D = 1)."""
    rng = random.Random(1111)
    out = []
    for trial in range(50):
        base = hexagon_body() if trial % 2 else random_cs_hexagon(rng)
        bx, _ = base.polygon.bounding_box()
        box = max(4, int(float(bx.length()) * 1.5))
        out.append(random_family(base, 4 + trial % 9, box_size=box, seed=7000 + trial))
    out.append(random_family(unit_square(), 10, box_size=5, seed=3))
    primes = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]
    rng = random.Random(3)
    out.append(Family(hexagon_body(), [
        Member(Point(F(rng.randrange(10 * q), q), F(rng.randrange(10 * q), q)))
        for q in rng.sample(primes, 14)]))
    assert out[-1].scaled_translations()[0] == 1
    return out


def test_union_area_matches_inclusion_exclusion():
    families = _lattice_families() + _union_families()
    assert sum(len(f) > 15 for f in families) > 50
    for f in families:
        assert union_area_exact(f) == union_area(f)


def test_lattice_search_matches_the_fraction_reference():
    """The int-layer offset searches pick the same points, in the same
    order, and the same witness members as Fraction points tested against
    every realized member."""
    eps = F(1, 64)
    for f in _lattice_families():
        sw = _default_sandwich(f)
        c = sw.center
        area = union_area_exact(f)
        cover = covering_lattice(f.base.polygon.translate(-c), sw.h_in.translate(-c))
        pack = packing_lattice(f.base.polygon.translate(-c), sw.h_out.translate(-c), eps)
        target = math.ceil(area / pack.cell_area)
        cert = lattice_pierce(f)
        assert cert.points == lattice_offset_points(f, cover, c, area // cover.cell_area)
        members = lattice_offset_members(f, pack, c, target)
        assert cert.witness == members
        assert lattice_witness(f, eps=eps)[0] == members


def test_lattice_paths_never_ask_a_realized_body(monkeypatch):
    """Lattice points are decided on the family's slabs alone."""
    f = random_family(hexagon_body(), 11, box_size=7, seed=13)
    expected = lattice_pierce(f)
    wit = lattice_witness(f)[0]

    def refuse(self, p):
        raise AssertionError("realized contains called")

    # the first calls built the lattices, the one use of polygon containment
    monkeypatch.setattr(ConvexPolygon, "contains", refuse)
    got = lattice_pierce(f)
    assert (got.points, got.witness, got.info) == (expected.points, expected.witness,
                                                  expected.info)
    assert lattice_witness(f)[0] == wit


@pytest.mark.parametrize("verify", [True, False])
def test_lattice_paths_reject_homothets(verify):
    f = random_family(hexagon_body(), 7, box_size=6, kind="homothets", scale_range=(1, 2), seed=1)
    with pytest.raises(UnsupportedBase):
        lattice_pierce(f, verify=verify)
    with pytest.raises(UnsupportedBase):
        lattice_witness(f)


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty pattern cache for the test, the shared one restored after."""
    cache = {}
    monkeypatch.setattr(covers, "_pattern_cache", cache)
    return cache


def _sandwich_values(sw):
    return [sw.h_in.vertices, sw.h_out.vertices, sw.center, sw.area_ratio]


def _pair_values(pair):
    return [pair.p.center, pair.p.u, pair.p.v, pair.q.center, pair.q.u, pair.q.v,
            pair.lambdas, pair.line_axis, pair.gamma]


def _lattice_values(spec):
    return [spec.b1, spec.b2, spec.cell_area]


def test_grid_and_general_cover_build_the_sandwich_pair_once(monkeypatch, fresh_cache):
    # every sandwich_parallelograms call on a non-parallelogram sweeps the
    # candidate directions once, whichever module's binding it went through
    calls = []
    sweep = sandwich._candidate_directions
    monkeypatch.setattr(sandwich, "_candidate_directions", lambda c: calls.append(c) or sweep(c))
    a = grid_pierce(random_family(PENTAGON, 20, box_size=10, seed=1))
    b = grid_pierce(random_family(PENTAGON, 30, box_size=12, seed=2))
    covers.homothet_cover(PENTAGON)
    assert len(calls) == 1
    pair = fresh_cache[("sandwich", _poly_key(PENTAGON.polygon))]
    assert _pair_values(pair) == _pair_values(sandwich_parallelograms(PENTAGON.polygon))
    assert a.info == b.info == {"gamma": pair.gamma}


def _check_cached_entries(cache, base):
    """The cache's entries for base equal fresh uncached builds."""
    poly = base.polygon
    fresh = hexagon_sandwich(poly)
    c = fresh.center
    s0 = poly.translate(-c)
    key = _poly_key(poly)
    sw = cache[("hexagon_sandwich", key)]
    assert _sandwich_values(sw) == _sandwich_values(fresh)
    cover = cache[("covering_lattice", key, _poly_key(fresh.h_in))]
    assert _lattice_values(cover) == _lattice_values(
        covering_lattice(s0, fresh.h_in.translate(-c)))
    pack = cache[("packing_lattice", key, _poly_key(fresh.h_out), F(1, 64))]
    assert _lattice_values(pack) == _lattice_values(
        packing_lattice(s0, fresh.h_out.translate(-c)))
    if len(poly.vertices) == 6:
        special = cache[("hexagon_sandwich_special", key)]
        assert _pair_values(special) == _pair_values(hexagon_sandwich_special(poly))


def _fill_cache(base):
    """Run the lattice path and hexagon_pierce's grid branch on base."""
    f = random_family(base, 9, box_size=10, seed=14)
    lattice_pierce(f)
    if len(base.polygon.vertices) == 6:
        far = Family(base, [Member(Point(0, 0)), Member(Point(100, 0)), Member(Point(0, 100))])
        assert hexagon_pierce(far).method == "hexagon-grid"


class TestLatticeCache:
    def test_cached_entries_equal_fresh_builds(self, fresh_cache):
        rng = random.Random(15)
        bases = [hexagon_body(), unit_square()] + [random_cs_hexagon(rng) for _ in range(3)]
        for base in bases:
            _fill_cache(base)
            _fill_cache(base)  # served from the cache the second time
            _check_cached_entries(fresh_cache, base)

    def test_built_once_per_base(self, fresh_cache, monkeypatch):
        calls = []
        real = translates.hexagon_sandwich

        def counting(poly):
            calls.append(poly)
            return real(poly)

        monkeypatch.setattr(translates, "hexagon_sandwich", counting)
        for seed in range(3):
            lattice_pierce(random_family(hexagon_body(), 5, box_size=6, seed=seed))
        assert len(calls) == 1

    def test_translated_and_scaled_bases_get_their_own_entries(self, fresh_cache):
        poly = hexagon_body().polygon
        for copy in (poly.translate(Point(F(1, 3), F(5, 7))), poly.scale(2),
                     poly.scale(F(3, 2)).translate(Point(-4, 1))):
            base = PolygonBody(copy)
            _fill_cache(base)
            _check_cached_entries(fresh_cache, base)
            sw = fresh_cache[("hexagon_sandwich", _poly_key(copy))]
            assert sw.center == copy.is_centrally_symmetric()
        assert sum(key[0] == "hexagon_sandwich" for key in fresh_cache) == 3

    def test_failed_cover_check_stores_nothing(self, fresh_cache, monkeypatch):
        f = random_family(hexagon_body(), 9, box_size=7, seed=10)
        with monkeypatch.context() as m:
            m.setattr(translates, "region_minus_polygons",
                      lambda region, polys, offsets=None: [[Point(0, 0), Point(1, 0), Point(0, 1)]])
            with pytest.raises(CoverageNotVerified):
                lattice_pierce(f)
            assert not any(key[0] == "covering_lattice" for key in fresh_cache)
        cert = lattice_pierce(f)
        assert cert.verify(f)
        assert any(key[0] == "covering_lattice" for key in fresh_cache)

    def test_failed_pair_check_stores_nothing(self, fresh_cache, monkeypatch):
        f = Family(hexagon_body(), [Member(Point(0, 0)), Member(Point(100, 0))])
        with monkeypatch.context() as m:
            m.setattr(sandwich.SandwichPair, "verify", lambda self, c: False)
            with pytest.raises(SearchFailed):
                hexagon_pierce(f)
        assert not fresh_cache
        assert hexagon_pierce(f).method == "hexagon-grid"
        assert list(fresh_cache) == [("hexagon_sandwich_special", _poly_key(f.base.polygon))]


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

    @pytest.mark.parametrize("members, area", [
        # a 3x3 grid: every inner edge is two edges facing opposite ways
        ([(i, j, 1) for i in range(3) for j in range(3)], 9),
        # two rows of half-offset squares: in a row the top and bottom edges
        # overlap facing the same way, the rows' edges facing opposite ways
        ([(F(k, 2), 0, 1) for k in range(5)] + [(F(k, 2) + F(1, 4), 1, 1) for k in range(5)],
         6),
        # corners touching only
        ([(0, 0, 1), (1, 1, 1), (2, 0, 1), (1, -1, 1)], 4),
        # duplicates, one of them under a square on its top edge
        ([(0, 0, 1)] * 3 + [(F(1, 2), 0, 1)] * 2 + [(F(1, 2), 1, 1)], F(5, 2)),
        # homothets: one inside the big square, one sharing its edge line
        ([(0, 0, 2), (1, 0, 1), (2, 0, 1), (2, 0, 1)], 5),
    ])
    def test_degenerate_contacts(self, members, area):
        kind = "homothets" if any(s != 1 for *_, s in members) else "translates"
        f = Family(unit_square(), [Member(Point(x, y), s) for x, y, s in members], kind)
        assert union_area_exact(f) == union_area(f) == area

    def test_never_realizes_a_member(self, monkeypatch):
        f = random_family(hexagon_body(), 12, box_size=7, seed=21)
        area = union_area(f)
        monkeypatch.setattr(Family, "realize", lambda g, i: pytest.fail("member %d realized" % i))
        assert union_area_exact(f) == area

    def test_forty_overlapping_squares_in_polynomial_work(self):
        # every pair meets: inclusion-exclusion would take 2^40 steps
        f = Family(unit_square(), [Member(Point(F(i, 40), F(i, 80))) for i in range(40)])
        with call_budget(1_000_000):
            area = union_area_exact(f)
        assert area == 1 + 39 * (1 - F(39, 40) * F(79, 80))


def test_fraction_columns_build_no_common_denominator():
    # 500 unit squares whose x-coordinates have distinct 17-bit prime
    # denominators: their lcm has about 8,500 bits, and columns scaled by it
    # made the grid and the union area hold megabytes of ints; the same
    # family over that common denominator gives the same certificate and area
    sieve = bytearray([1]) * (1 << 17)
    for p in range(2, 1 << 9):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, 1 << 17, p)))
    primes = [p for p in range(1 << 16, 1 << 17) if sieve[p]][:500]
    rng = random.Random(41)
    f = Family(unit_square(), [Member(Point(F(rng.randrange(66 * q), q), F(rng.randrange(528), 8)))
                               for q in primes])
    assert f.scaled_translations()[0] == 1
    peaks = []
    for run in (lambda: grid_pierce(f, verify=False), lambda: union_area_exact(f)):
        tracemalloc.start()
        try:
            got = run()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        peaks.append(got)
    grid_peak, cert, area_peak, area = peaks
    assert grid_peak < 2_000_000 and area_peak < 2_000_000
    wide = Family.from_scaled(f.base, int_translations(f))
    assert union_area_exact(wide) == area
    other = grid_pierce(wide, verify=False)
    assert (other.points, other.clusters, other.witness) == (cert.points, cert.clusters,
                                                             cert.witness)
    assert cert.verify(f)


def _union_families():
    """240 seeded polygon families of 1 to 24 members: triangles, squares,
    hexagons and random centrally symmetric 8-gons, as translates and as
    homothets, in a box that grows with n; every seventh family repeats
    three of its members."""
    rng = random.Random(20)
    out = []
    for trial in range(240):
        kind = ("translates", "homothets")[trial % 2]
        base = trial // 2 % 4
        base = (random_centrally_symmetric_polygon(rng, 4, spread=2) if base == 3
                else (unit_triangle, unit_square, hexagon_body)[base]())
        n = rng.randrange(1, 25)
        bx, _ = base.polygon.bounding_box()
        f = random_family(base, n, box_size=max(3, int(bx.length() * (1 + F(n, 3)))),
                          kind=kind, scale_range=(1, 2), seed=rng.randrange(1 << 30))
        if trial % 7 == 0:
            f = Family(f.base, reference.members(f) + reference.members(f)[:3], kind)
        out.append(f)
    return out


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
    """Topmost greedy on the exact key, absorbing by intersects alone."""
    order = sorted(range(len(f)), key=top_key(f))
    alive = [True] * len(f)
    clusters = []
    for i in order:
        if not alive[i]:
            continue
        alive[i] = False
        members = [i]
        for j in range(len(f)):
            if alive[j] and intersects(f, i, j):
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
    # a member meeting exactly one witness member: one meeting pair among
    # the whole witness
    b = next(b for b in range(len(f)) if b not in wit and len(adj[b] & wit) == 1)
    cert.witness = cert.witness + [b]
    with pytest.raises(VerificationFailed, match="pairwise disjoint"):
        cert.verify(f)


def test_int_disk_test_agrees_with_exact_containment():
    rng = random.Random(11)
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
        point = rad_point(body.center.x + ux * r + Radical.sqrt(3) * wobble,
                          body.center.y + uy * r + wobble)
        f = Family(body, [Member(Point(0, 0))])
        assert membership(f, [int_point(point)])(0)(0) == body_contains(body, point)


def _normalized_top_order(f):
    """The reference seed order of a triangle family: top_key on the family
    mapped into the frame where the triangle is (0,0), (1,0), (0,1)."""
    _, e1, e2 = _triangle_normalizer(f.base.polygon)
    det = e1.cross(e2)
    fwd = AffineMap(e2.y / det, -e2.x / det, -e1.y / det, e1.x / det)
    return sorted(range(len(f)), key=top_key(normalize_affine(f, fwd)))


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
                ms = reference.members(f)
                ups = [e1.cross(ms[i].t) for i in order]
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

    def test_plain_top_order_would_fail(self, monkeypatch):
        # seeds taken by their y coordinate leave a member of the skewed
        # triangle unpierced: the order has to follow the cut edge.  The
        # greedy's masks find that member first
        f = random_family(_SKEWED[0], 60, box_size=8, seed=0)
        order = sorted(range(len(f)), key=top_key(f))
        with pytest.raises(VerificationFailed, match="holds no point of its seed's pattern"):
            _greedy(f, translate_cluster_cover(f.base), order, "greedy", False)
        # and with every mask full, so do both checks
        monkeypatch.setattr(translates, "offset_masks", lambda *args: None)
        plain = _greedy(f, translate_cluster_cover(f.base), order, "greedy", False)
        with pytest.raises(VerificationFailed, match="contains no piercing point"):
            plain.explicit().verify(f)
        # the symbolic check finds the member that breaks the order
        with pytest.raises(VerificationFailed, match="lies above its seed"):
            plain.verify(f)
        assert greedy_pierce(f).verify(f)
