from fractions import Fraction as F
from hashlib import sha256
import random

import pytest

from piercing.errors import DegenerateInput, NotCentrallySymmetric, NotHexagon
from piercing.generators import (
    hexagon_body,
    random_centrally_symmetric_polygon,
    random_convex_polygon,
    random_cs_hexagon,
)
from piercing.geom import ConvexPolygon, Point, convex_hull
from piercing.sandwich import (
    _int_coords,
    _sections,
    hexagon_sandwich,
    hexagon_sandwich_special,
    inscribed_hexagon,
    sandwich_parallelograms,
    support_hexagon,
)
import reference

SQUARE = ConvexPolygon([Point(0, 0), Point(1, 0), Point(1, 1), Point(0, 1)])
TRIANGLE = ConvexPolygon([Point(0, 0), Point(1, 0), Point(0, 1)])
HEXAGON = ConvexPolygon(
    [Point(2, 0), Point(1, 2), Point(-1, 2), Point(-2, 0), Point(-1, -2), Point(1, -2)]
)


def test_square_gamma_two():
    pair = sandwich_parallelograms(SQUARE)
    assert pair.gamma == 2
    assert pair.lambdas == (1, 1)
    assert pair.verify(SQUARE)


def test_triangle_gamma_six():
    pair = sandwich_parallelograms(TRIANGLE)
    assert pair.gamma == 6
    assert sorted(pair.lambdas) == [2, 2]
    assert pair.verify(TRIANGLE)


def test_sheared_parallelogram_gamma_two():
    p = reference.linear_map(SQUARE, 1, F(2, 3), 0, 1).translate(Point(5, -1))
    pair = sandwich_parallelograms(p)
    assert pair.gamma == 2


def test_random_polygons_gamma_at_most_six():
    rng = random.Random(123)
    for _ in range(12):
        poly = random_convex_polygon(rng).polygon
        pair = sandwich_parallelograms(poly)
        assert pair.verify(poly)
        assert pair.gamma <= 6
        assert all(l >= 1 for l in pair.lambdas)


def test_pair_edges_relation():
    pair = sandwich_parallelograms(TRIANGLE)
    assert pair.q.u == pair.p.u * pair.lambdas[0]
    assert pair.q.v == pair.p.v * pair.lambdas[1]


def _pair_values(pair):
    return (pair.p.center, pair.p.u, pair.p.v, pair.q.center, pair.q.u, pair.q.v,
            pair.lambdas, pair.line_axis, pair.gamma)


def _digest(values):
    return sha256(repr(values).encode()).hexdigest()


# recorded with the float-ranked search that the int walk replaced
PAIR_DIGEST = "2ddb1a2be6b5b2b38edeb3dfe0b507f61f7862168a559899f45704503ce3f838"
HEXAGON_DIGEST = "0bae1561988795aa8b6d143f5075828a4310303057cce90028513fa7466c09b8"


def test_sandwich_values_are_pinned():
    rng = random.Random(123)
    polys = [TRIANGLE] + [random_convex_polygon(rng).polygon for _ in range(12)]
    assert _digest([_pair_values(sandwich_parallelograms(p)) for p in polys]) == PAIR_DIGEST
    rng = random.Random(15)
    bases = [hexagon_body()] + [random_cs_hexagon(rng) for _ in range(3)]
    sws = [hexagon_sandwich(base.polygon) for base in bases]
    assert _digest([(sw.h_in.vertices, sw.h_out.vertices) for sw in sws]) == HEXAGON_DIGEST


def _section_polygons():
    """Seeded random polygons, and int polygons of which most have an edge
    parallel to an axis."""
    rng = random.Random(41)
    polys = [random_convex_polygon(rng).polygon for _ in range(15)]
    polys += [SQUARE, TRIANGLE, HEXAGON]
    while len(polys) < 40:
        try:
            polys.append(ConvexPolygon([Point(rng.randint(-3, 3), rng.randint(-3, 3))
                                        for _ in range(rng.randint(3, 8))]))
        except DegenerateInput:
            pass
    return polys


def test_int_sections_match_the_fraction_reference():
    polys = _section_polygons()
    parallel = 0
    for poly in polys:
        for u, v in ((Point(1, 0), Point(0, 1)), (Point(2, -1), Point(F(1, 3), F(5, 2)))):
            for bu, bv in ((u, v), (v, u), (v.perp(), v)):
                pts, xscale, yscale = _int_coords(poly.vertices, bu, bv)
                assert {bu * (a * xscale) + bv * (b * yscale) for a, b in pts} == set(poly)
                assert sum(p[0] * q[1] - p[1] * q[0] for p, q in zip(pts, pts[1:] + pts[:1])) > 0
                pts = [(2 * a, b) for a, b in pts]  # the midpoints are ints
                parallel += any(p[0] == q[0] for p, q in zip(pts, pts[1:] + pts[:1]))
                xs = sorted({a for a, _ in pts})
                ts = sorted({*xs, *((a + b) // 2 for a, b in zip(xs, xs[1:])),
                             xs[0] - 1, xs[-1] + 1})
                want = [reference.section([Point(a, b) for a, b in pts], t) for t in ts]
                got = [s and (F(*s[0]), F(*s[1])) for s in _sections(pts, ts)]
                assert got == want
                assert got[0] is None and got[-1] is None
    assert parallel > 30  # the reference's p.x == q.x branch runs


def _cs_polygons(n):
    """n seeded centrally symmetric polygons: the hulls of a few small int
    points and their reflexions, moved off the origin by a rational vector."""
    rng = random.Random(77)
    polys = []
    while len(polys) < n:
        pts = [Point(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.choice((2, 3, 4)))]
        try:
            c = convex_hull(pts + [-p for p in pts])
        except DegenerateInput:
            continue
        polys.append(c.translate(Point(F(rng.randint(-9, 9), 4), F(rng.randint(-9, 9), 3))))
    return polys


def test_hexagon_sandwich_matches_the_fraction_reference():
    # directions scored on ints, the winner built in Fractions: the same
    # direction, hexagons and ratio as the search in Fractions
    sizes = set()
    for c in _cs_polygons(50):
        u, h_in, ratio = reference.hexagon_sandwich(c)
        sw = hexagon_sandwich(c)
        assert sw.area_ratio == ratio
        assert sw.h_in == ConvexPolygon(h_in)
        assert sw.h_out == support_hexagon(c.translate(-sw.center), sw.h_in.translate(-sw.center)
                                           ).translate(sw.center)
        cen = c.translate(-sw.center)
        for d in (u, Point(1, 0), Point(0, 1), cen.vertices[0]):
            assert inscribed_hexagon(cen, d) == ConvexPolygon(reference.inscribed_hexagon(cen, d))
        sizes.add(len(c))
    assert sizes == {4, 6, 8}


class TestHexagonSandwich:
    def test_hexagon_is_its_own_sandwich(self):
        hs = hexagon_sandwich(HEXAGON)
        assert hs.area_ratio == 1
        assert hs.h_in == HEXAGON
        assert hs.h_out == HEXAGON

    def test_square_achieves_three_quarters(self):
        s = ConvexPolygon([Point(-1, -1), Point(1, -1), Point(1, 1), Point(-1, 1)])
        hs = hexagon_sandwich(s)
        assert hs.area_ratio >= F(3, 4)

    def test_not_centrally_symmetric(self):
        with pytest.raises(NotCentrallySymmetric):
            hexagon_sandwich(TRIANGLE)

    def test_inscribed_hexagon_affinely_regular_and_inside(self):
        rng = random.Random(31)
        for _ in range(8):
            s = random_centrally_symmetric_polygon(rng).polygon
            c = s.is_centrally_symmetric()
            s0 = s.translate(-c)
            h = inscribed_hexagon(s0, s0.vertices[0])
            v = h.vertices
            assert len(v) == 6
            # central symmetry + p2p1 + p2p3 = p3p4 characterizes affine regularity
            assert h.is_centrally_symmetric() == Point(0, 0)
            p1, p2, p3, p4 = v[0], v[1], v[2], v[3]
            assert (p1 - p2) + (p3 - p2) == p4 - p3
            assert all(s0.contains(p) for p in v)

    def test_containments_exact_and_folklore_ratio(self):
        rng = random.Random(77)
        for _ in range(8):
            s = random_centrally_symmetric_polygon(rng, half_vertices=5).polygon
            hs = hexagon_sandwich(s)
            assert all(s.contains(p) for p in hs.h_in.vertices)
            assert all(hs.h_out.contains(p) for p in s.vertices)
            assert hs.area_ratio > F(70, 100)

    def test_fixed_direction_ratio_is_affine_invariant(self):
        s = ConvexPolygon([Point(-1, -1), Point(1, -1), Point(1, 1), Point(-1, 1)])
        d = Point(1, 0)
        h_in = inscribed_hexagon(s, d)
        ratio = h_in.area() / support_hexagon(s, h_in).area()
        m = reference.AffineMap(2, 1, 0, 1)
        s2 = reference.linear_map(s, 2, 1, 0, 1)
        d2 = m.apply_vector(d)
        h_in2 = inscribed_hexagon(s2, d2)
        ratio2 = h_in2.area() / support_hexagon(s2, h_in2).area()
        assert ratio == ratio2


class TestHexagonSpecial:
    def test_regular_hexagon(self):
        pair = hexagon_sandwich_special(HEXAGON)
        assert pair.gamma <= 3
        assert pair.verify(HEXAGON)

    def test_flat_hexagon(self):
        flat = ConvexPolygon(
            [Point(10, 0), Point(9, 1), Point(-9, 1), Point(-10, 0), Point(-9, -1), Point(9, -1)]
        )
        pair = hexagon_sandwich_special(flat)
        assert pair.gamma <= 3
        assert pair.verify(flat)

    def test_square_rejected(self):
        with pytest.raises(NotHexagon):
            hexagon_sandwich_special(SQUARE)

    def test_random_hexagons(self):
        rng = random.Random(5)
        for _ in range(20):
            h = random_cs_hexagon(rng).polygon
            pair = hexagon_sandwich_special(h)
            assert pair.gamma <= 3
            assert pair.verify(h)
