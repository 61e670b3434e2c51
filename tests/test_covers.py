import contextlib
from fractions import Fraction as F
import hashlib
import random

import pytest

from piercing import covers, jsonio
from piercing.bodies import BoxBody, DiskBody, PolygonBody
from piercing.covers import (
    box_cover,
    disk_half_cover,
    disk_seven_cover,
    halfplane_four_cover,
    homothet_cover,
    seven_cover,
    translate_cluster_cover,
    triangle_trapezoid_cover,
)
from piercing.errors import NotCentrallySymmetric, VerificationFailed
from piercing.generators import random_centrally_symmetric_polygon, random_convex_polygon
from piercing.geom import ConvexPolygon, Point, covers_region, reflect, region_minus_polygons
import reference

SQUARE = ConvexPolygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
TRIANGLE = ConvexPolygon([Point(0, 0), Point(1, 0), Point(0, 1)])
HEXAGON = ConvexPolygon(
    [Point(2, 0), Point(1, 2), Point(-1, 2), Point(-2, 0), Point(-1, -2), Point(1, -2)]
)
DOWN = Point(0, -1)


class TestSevenCover:
    def test_square_fast_path(self):
        assert seven_cover(SQUARE).size == 4

    def test_hexagon(self):
        pat = seven_cover(HEXAGON)
        assert pat.size <= 7
        assert Point(0, 0) in pat.offsets  # one translate concentric with 2C

    def test_random_octagons_verified(self):
        rng = random.Random(41)
        for _ in range(5):
            s = random_centrally_symmetric_polygon(rng, half_vertices=4).polygon
            assert seven_cover(s).size <= 7

    def test_rejects_asymmetric(self):
        with pytest.raises(NotCentrallySymmetric):
            seven_cover(TRIANGLE)


class TestHalfplaneCover:
    def test_square_down_two(self):
        pat = halfplane_four_cover(SQUARE, DOWN)
        assert pat.size == 2
        assert set(pat.offsets) == {Point(F(-1, 2), F(-1, 2)), Point(F(1, 2), F(-1, 2))}

    def test_hexagon_four(self):
        assert halfplane_four_cover(HEXAGON, DOWN).size <= 4

    def test_square_diagonal_direction(self):
        # not edge-aligned: falls back to the hexagon construction
        pat = halfplane_four_cover(SQUARE, Point(-1, -1))
        assert pat.size <= 4

    def test_random_bodies(self):
        rng = random.Random(43)
        for _ in range(5):
            s = random_centrally_symmetric_polygon(rng, half_vertices=3).polygon
            assert halfplane_four_cover(s, DOWN).size <= 4


class TestTriangleCovers:
    def test_trapezoid_five(self):
        pat = triangle_trapezoid_cover(TRIANGLE)
        assert pat.size <= 5

    def test_sheared_triangle_equivariant(self):
        sheared = reference.linear_map(TRIANGLE, 1, F(1, 3), F(1, 5), 1)
        pat = triangle_trapezoid_cover(sheared)
        assert pat.size <= 5

    def test_single_translate_cannot_cover_subtriangle(self):
        # region hull((0,0),(1,-1),(0,-1)) inside the trapezoid defeats any
        # single translate of -T: containing (1,-1) forces q = (1,0), which
        # loses (0,-1); checked exhaustively over a grid and algebraically
        region = ConvexPolygon([Point(0, 0), Point(1, -1), Point(0, -1)])
        cover = reflect(TRIANGLE)
        for ix in range(-8, 9):
            for iy in range(-8, 9):
                q = Point(F(ix, 4), F(iy, 4))
                assert not covers_region(region, [cover.translate(q)])
        # algebraic: q must satisfy qx >= 1, qy >= 0 and qx + qy <= 0
        assert not (1 + 0 <= 0)


class TestHomothetCovers:
    def test_square_four(self):
        assert homothet_cover(PolygonBody(SQUARE)).size == 4

    def test_triangle_at_most_twelve(self):
        assert homothet_cover(PolygonBody(TRIANGLE)).size <= 12

    def test_hexagon_seven(self):
        assert homothet_cover(PolygonBody(HEXAGON)).size <= 7

    def test_disk_seven(self):
        pat = homothet_cover(DiskBody(Point(0, 0), 1))
        assert pat.size == 7

    def test_general_polygon_sixteen(self):
        pent = ConvexPolygon([Point(0, 0), Point(4, 0), Point(5, 3), Point(2, 5), Point(-1, 2)])
        assert homothet_cover(PolygonBody(pent)).size <= 16

    def test_box_two_to_the_d(self):
        assert homothet_cover(BoxBody((0, 0, 0), (1, 1, 1))).size == 8


class TestDiskPatterns:
    def test_seven_cover_offsets(self):
        pat = disk_seven_cover(1)
        assert pat.size == 7
        assert pat.offsets[0] == Point(0, 0)
        # the others are sqrt(3) times the sixth roots of unity
        for p in map(reference.RadicalPoint.of, pat.offsets[1:]):
            assert (p.x * p.x + p.y * p.y).as_fraction() == 3

    def test_half_cover_four(self):
        pat = disk_half_cover(F(3, 2))
        assert pat.size == 4

    def test_bad_cover_detected(self):
        from piercing.circles import Conic, CoverageCheck

        region = Conic(3, 1, Point(0, 0), 4)
        covers = [Conic(3, 1, Point(0, 0), 1)]
        assert not CoverageCheck(region, covers).verify()


class TestBoxPatterns:
    def test_half_cover_d2(self):
        assert box_cover([1, 1], half=True).size == 2

    def test_half_cover_d3(self):
        assert box_cover([1, 2, 1], half=True).size == 4

    def test_bad_offsets_rejected(self):
        from piercing.covers import _verify_box_pattern

        with pytest.raises(VerificationFailed):
            _verify_box_pattern((F(1), F(1)), [(F(0), F(0))], half=False)


class TestClusterDispatch:
    def test_translate_sizes(self):
        assert translate_cluster_cover(PolygonBody(SQUARE)).size == 2
        assert translate_cluster_cover(PolygonBody(TRIANGLE)).size <= 5
        assert translate_cluster_cover(PolygonBody(HEXAGON)).size <= 4
        assert translate_cluster_cover(DiskBody(Point(0, 0), 1)).size == 4
        assert translate_cluster_cover(BoxBody((0, 0), (1, 1))).size == 2



def _pattern_bases():
    """Seeded bases of every polygon pattern: centrally symmetric octagons
    and hexagons (seven, half), triangles (trap, diff12) and general
    polygons (gen16)."""
    rng = random.Random(58)
    bases = [random_centrally_symmetric_polygon(rng, k, spread=2).polygon for k in (3, 4, 4, 4)]
    bases += [random_convex_polygon(rng, 3).polygon for _ in range(3)]
    while len(bases) < 9:
        poly = random_convex_polygon(rng, 6).polygon
        if len(poly) > 3 and poly.is_centrally_symmetric() is None:
            bases.append(poly)
    return bases


def test_polygon_pattern_verdicts_match_translates_built_in_fractions():
    # each pattern's check, with its translates' halfplanes shifted on ints,
    # against the translates built and subtracted in Fractions: the full
    # offsets cover, and with an offset dropped or moved the residues agree
    # piece for piece
    covers._pattern_cache.clear()
    residues = []
    for poly in _pattern_bases():
        pats = [homothet_cover(PolygonBody(poly))]
        if poly.is_centrally_symmetric() is not None:
            pats.append(translate_cluster_cover(PolygonBody(poly)))
        elif len(poly) == 3:
            pats.append(triangle_trapezoid_cover(poly))
        for pat in pats:
            region, body, offsets = pat.data["region"], pat.data["body"], pat.offsets
            assert reference.translates_residue(region, body, offsets) == []
            last = len(offsets) - 1
            for variant in (offsets[1:], offsets[:last] + [offsets[last] + Point(F(1, 7), F(-1, 5))]):
                got = region_minus_polygons(region, [body], variant)
                assert got == reference.translates_residue(region, body, variant)
                with pytest.raises(VerificationFailed) if got else contextlib.nullcontext():
                    covers._polygon_pattern(pat.region_kind, region, body, variant)
                residues.append(len(got))
    assert {key[0] for key in covers._pattern_cache} >= {"seven", "half", "trap", "diff12", "gen16"}
    assert min(residues) == 0 < max(residues)


def test_fresh_base_patterns_fit_a_call_budget():
    # the seven and half covers of one octagon and both disk patterns, built
    # on an empty cache: about 81,000 calls with the int kernel, 212,000
    # with translates built in Fractions and Radical side tests
    poly = random_centrally_symmetric_polygon(2027, 4, spread=2).polygon
    covers._pattern_cache.clear()
    with reference.call_budget(100_000):
        seven_cover(poly)
        halfplane_four_cover(poly)
        disk_seven_cover(1)
        disk_half_cover(1)
    assert {key[0] for key in covers._pattern_cache} == {"seven", "half", "disk7", "diskhalf"}


# Bases whose greedy patterns certificates index: a mask's bit k is offset
# k of translate_cluster_cover or homothet_cover, so their order is part of
# every masked file
_ORDER_BASES = {
    "triangle": lambda: PolygonBody(TRIANGLE),
    "skewed triangle": lambda: PolygonBody(ConvexPolygon([Point(0, 0), Point(3, 1),
                                                          Point(1, 2)])),
    "square": lambda: PolygonBody(SQUARE),
    "hexagon": lambda: PolygonBody(HEXAGON),
    "centrally symmetric 8-gon": lambda: random_centrally_symmetric_polygon(5, 4, spread=2),
    "pentagon": lambda: PolygonBody(ConvexPolygon([Point(0, 0), Point(4, 0), Point(5, 3),
                                                   Point(2, 5), Point(-1, 2)])),
    "disk": lambda: DiskBody(Point(F(1, 3), F(-2, 5)), F(3, 7)),
    "2-d box": lambda: BoxBody((F(1, 3), -1), (F(3, 2), F(2, 5))),
    "3-d box": lambda: BoxBody((0, F(1, 2), 0), (1, F(3, 2), F(2, 3))),
}

# sha256 of the offsets as jsonio writes them, in order, per base: the
# translate pattern's (None where there is none) and the homothet pattern's
_ORDER_DIGESTS = {
    "triangle": (
        "1ef5e86f60ef5994b6fed30800f7b0e2536e21b9f58b5366478762858b0edde9",
        "4dc9bb396f13befa399b68b55974477aa3017391f602137db12abe02aeecfe21"),
    "skewed triangle": (
        "2741bd9c1a6bf65ae4707f2f1e0e8960e90a853dfa77841746a31ccda9c064f2",
        "72a930be6fa95ffb50a1ba6bce759aa4d1e699a03c501c9c74284d3be905a779"),
    "square": (
        "8f25f9fc266d4adfe24a634a9ffdd27260680d8d74b7aa3202fa4add8cc10058",
        "043be780a64773d062849c34663dfa6261a8440fea77eb708fa631fd349672f4"),
    "hexagon": (
        "08313e927b947f1582f11535aefb025982794c5868e1b265ff91aac9798237fa",
        "eb90e322516077c5181d4bd7de1332db13dadabdd08318f22e50f7208f992ad8"),
    "centrally symmetric 8-gon": (
        "e32fe4ca366c4e2d41044eb8b994b9f5cd7c47d8e76a7b5177e49b33c49cf1ae",
        "dad6e79219092c4fab8c90037c966d836dc6db7d43ff0968929398b596308acb"),
    "pentagon": (
        None,
        "2f2ba1d6fd323f1a76198649268a02a8e6e9c659e265c9505c2cb383bb6a5d02"),
    "disk": (
        "371e2f50c68322a07811ce95f708b233fd00e9e27d44a8ffb04758232db63c99",
        "9e71c6da0b23d2a0ac8af30a30ee2e4fcaecf65c07217ea88c7441a282810c03"),
    "2-d box": (
        "8260dab606974a31ea7434ec019ec7f8188f51583fb4991f97986cdfb209911b",
        "74ed549cc86980e22fbc51b3fec4424bc96139a914c29dcce637e754badc598b"),
    "3-d box": (
        "3d45f67f188496199ea900512e756874192907cceea897981be0ad464d43ed78",
        "81967ea52e27a551521f2b2604c4cef0732e3271b4d74bfbcf3b8820c8a56eb1"),
}


def _offsets_digest(pattern):
    text = jsonio.dump([jsonio.point_to_json(o) for o in pattern.offsets])
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(_ORDER_BASES))
def test_greedy_pattern_offsets_keep_their_order(name):
    base = _ORDER_BASES[name]()
    half, whole = _ORDER_DIGESTS[name]
    if half is None:
        with pytest.raises(VerificationFailed, match="no halfplane pattern"):
            translate_cluster_cover(base)
    else:
        assert _offsets_digest(translate_cluster_cover(base)) == half
    assert _offsets_digest(homothet_cover(base)) == whole
