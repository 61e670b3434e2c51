import ast
from fractions import Fraction as F
import inspect
import math
import random

from hypothesis import given, reject, settings, strategies as st
import pytest

from piercing import geom, translates
from piercing.bodies import Family, Member
from piercing.errors import DegenerateInput
from piercing.generators import unit_square
from piercing.geom import (
    ConvexPolygon,
    Point,
    chain_area,
    clip_chain,
    convex_hull,
    covers_region,
    intersection_chain,
    minkowski_sum,
    polygons_intersect,
    reflect,
    region_minus_polygons,
)
import reference


def square(side=1, at=(0, 0)):
    x, y = at
    return ConvexPolygon(
        [Point(x, y), Point(x + side, y), Point(x + side, y + side), Point(x, y + side)]
    )


def triangle():
    return ConvexPolygon([Point(0, 0), Point(1, 0), Point(0, 1)])


def rand_points(rng, n, spread=10):
    return [
        Point(F(rng.randrange(-10 * spread, 10 * spread + 1), 10),
              F(rng.randrange(-10 * spread, 10 * spread + 1), 10))
        for _ in range(n)
    ]


class TestConvexHull:
    def test_triangle_is_its_own_hull(self):
        h = convex_hull([Point(0, 0), Point(1, 0), Point(0, 1)])
        assert set(h.vertices) == {Point(0, 0), Point(1, 0), Point(0, 1)}

    def test_interior_point_dropped(self):
        h = convex_hull([Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(1, 1)])
        assert len(h) == 4
        assert Point(1, 1) not in h.vertices

    def test_idempotent_on_random_points(self):
        rng = random.Random(7)
        pts = rand_points(rng, 100)
        h1 = convex_hull(pts)
        h2 = convex_hull(h1.vertices)
        assert h1 == h2

    def test_collinear_raises(self):
        with pytest.raises(DegenerateInput):
            convex_hull([Point(0, 0), Point(1, 1), Point(2, 2)])


class TestMinkowski:
    def test_square_plus_square(self):
        s = minkowski_sum(square(), square())
        assert s == square(2)

    def test_triangle_plus_reflection_is_hexagon(self):
        t = triangle()
        got = minkowski_sum(t, reflect(t))
        # independent oracle: hull of all pairwise vertex differences
        diffs = [a - b for a in t.vertices for b in t.vertices]
        assert got == convex_hull(diffs)
        assert len(got) == 6

    def test_sum_with_point_translates(self):
        t = triangle()
        onept = [Point(3, 4)]
        # a single point is not a polygon; emulate with translation identity
        assert minkowski_sum(t, square(F(1, 10**6))).contains(Point(3, 4) - Point(3, 4) + t.vertices[0])
        assert t.translate(Point(3, 4)) == ConvexPolygon([v + Point(3, 4) for v in t.vertices])

    def test_edge_count_and_containment_samples(self):
        rng = random.Random(3)
        for _ in range(10):
            a = convex_hull(rand_points(rng, 8))
            b = convex_hull(rand_points(rng, 8))
            s = minkowski_sum(a, b)
            assert len(s) <= len(a) + len(b)
            for _ in range(100):
                pa = rng.choice(a.vertices)
                pb = rng.choice(b.vertices)
                t = F(rng.randrange(0, 11), 10)
                q = pa * t + a.vertices[0] * (1 - t)
                assert s.contains(q + pb)


class TestReflect:
    def test_centrally_symmetric_fixed(self):
        s = square().translate(Point(F(-1, 2), F(-1, 2)))
        assert reflect(s) == s

    def test_triangle(self):
        t = reflect(triangle())
        assert set(t.vertices) == {Point(0, 0), Point(-1, 0), Point(0, -1)}

    def test_involution(self):
        rng = random.Random(11)
        p = convex_hull(rand_points(rng, 9))
        assert reflect(reflect(p)) == p


class TestContains:
    def test_interior(self):
        assert square().contains(Point(F(1, 2), F(1, 2)))

    def test_boundary_closed(self):
        assert square().contains(Point(1, 1))

    def test_exactness_near_boundary(self):
        assert not square().contains(Point(1, 1 + F(1, 10**9)))


class TestIntersects:
    def test_touching_squares(self):
        assert polygons_intersect(square(), square(at=(1, 1)))

    def test_far_squares(self):
        assert not polygons_intersect(square(), square(at=(3, 0)))

    def test_agrees_with_sampling_oracle(self):
        # one-sided: a sampled common point forces intersection
        rng = random.Random(5)
        for _ in range(40):
            a = convex_hull(rand_points(rng, 6, 3))
            b = convex_hull(rand_points(rng, 6, 3))
            hit = polygons_intersect(a, b)
            for _ in range(200):
                p = Point(F(rng.randrange(-40, 41), 10), F(rng.randrange(-40, 41), 10))
                if a.contains(p) and b.contains(p):
                    assert hit
                    break

    def test_symmetric_reflexive_translation_equivariant(self):
        rng = random.Random(9)
        for _ in range(20):
            a = convex_hull(rand_points(rng, 6, 3))
            b = convex_hull(rand_points(rng, 6, 3))
            t = Point(F(rng.randrange(-20, 21), 10), F(rng.randrange(-20, 21), 10))
            assert polygons_intersect(a, a)
            assert polygons_intersect(a, b) == polygons_intersect(b, a)
            assert polygons_intersect(a, b) == polygons_intersect(a.translate(t), b.translate(t))


class TestIntersection:
    def test_self_intersection(self):
        s = square()
        assert reference.intersection(s, s) == s

    def test_offset_squares(self):
        got = reference.intersection(square(), square(at=(F(1, 2), 0)))
        assert got == ConvexPolygon(
            [Point(F(1, 2), 0), Point(1, 0), Point(1, 1), Point(F(1, 2), 1)]
        )

    def test_touching_gives_degenerate(self):
        got = intersection_chain(square(), square(at=(1, 0)))
        assert len(got) == 2  # a shared edge

    def test_disjoint(self):
        assert reference.intersection(square(), square(at=(5, 5))) is None

    def test_union_area_against_monte_carlo(self):
        rng = random.Random(2024)
        a = convex_hull(rand_points(rng, 7, 2))
        b = convex_hull(rand_points(rng, 7, 2))
        chain = intersection_chain(a, b)
        inter = chain_area(chain)
        union_exact = a.area() + b.area() - inter
        # Monte Carlo oracle over the joint bounding box: the sample
        # (xlo + (xhi - xlo) i / 10^4, ylo + (yhi - ylo) j / 10^4) is the
        # int triple (x0 + xw i, y0 + yw j, w), tested on the int halfplanes
        ax, ay = a.bounding_box()
        bx, by = b.bounding_box()
        xlo, xhi = min(ax.lo, bx.lo), max(ax.hi, bx.hi)
        ylo, yhi = min(ay.lo, by.lo), max(ay.hi, by.hi)
        d = math.lcm(*(v.denominator for v in (xlo, xhi, ylo, yhi)))
        x0, xw, y0, yw = (int(v * d) for v in (xlo * 10_000, xhi - xlo, ylo * 10_000, yhi - ylo))
        w = 10_000 * d
        planes = [geom._planes(a), geom._planes(b)]
        n = 120_000
        hits = 0
        for _ in range(n):
            x = x0 + xw * rng.randrange(0, 10_001)
            y = y0 + yw * rng.randrange(0, 10_001)
            if any(all(p * x + q * y <= r * w for p, q, r in pl) for pl in planes):
                hits += 1
        approx = float((xhi - xlo) * (yhi - ylo)) * hits / n
        assert abs(approx - float(union_exact)) / float(union_exact) < 1e-1
        # and the exact union area is stable (frozen from this seed)
        assert union_exact > 0


class TestArea:
    def test_unit_square(self):
        assert square().area() == 1

    def test_triangle(self):
        assert triangle().area() == F(1, 2)

    def test_determinant_scaling(self):
        p = triangle()
        q = p.linear_map(2, 0, 0, 1)  # determinant 2
        assert q.area() == 2 * p.area()

    def test_translation_invariance_and_quadratic_scaling(self):
        rng = random.Random(13)
        p = convex_hull(rand_points(rng, 8))
        assert p.translate(Point(5, -7)).area() == p.area()
        assert p.scale(3).area() == 9 * p.area()


class TestCoverMachinery:
    def test_covers_square_by_quadrants(self):
        big = square(2)
        parts = [square(at=(0, 0)), square(at=(1, 0)), square(at=(0, 1)), square(at=(1, 1))]
        assert covers_region(big, parts)
        assert not covers_region(big, parts[:3])

    def test_zero_area_residue_counts_covered(self):
        # two halves meeting on a segment cover the square exactly
        left = ConvexPolygon([Point(0, 0), Point(F(1, 2), 0), Point(F(1, 2), 1), Point(0, 1)])
        right = ConvexPolygon([Point(F(1, 2), 0), Point(1, 0), Point(1, 1), Point(F(1, 2), 1)])
        assert covers_region(square(), [left, right])


# ---------------------------------------------------------------------------
# the integer clipping kernel against the Fraction reference

_COORD = st.builds(F, st.integers(-24, 24), st.integers(1, 6))
_POINT = st.builds(Point, _COORD, _COORD)


@st.composite
def _convex(draw):
    try:
        return convex_hull(draw(st.lists(_POINT, min_size=3, max_size=8)))
    except DegenerateInput:
        reject()


def _touching(a, i, kind):
    """A triangle meeting a only at its vertex i ("point") or only along its
    edge from vertex i ("edge")."""
    v = a.vertices
    p, q, r = v[i - 1], v[i], v[(i + 1) % len(v)]
    out_in = -(q - p).perp()  # outward normal of edge pq
    out_next = -(r - q).perp()  # outward normal of edge qr
    if kind == "edge":
        return ConvexPolygon([q, r, (q + r) / 2 + out_next])
    d = out_in + out_next  # strictly inside the normal cone at q
    return ConvexPolygon([q, q + d + d.perp(), q + d - d.perp()])


@settings(max_examples=150, deadline=None)
@given(_convex(), _convex(), _POINT, st.integers(0, 7), st.sampled_from(["none", "point", "edge"]))
def test_intersection_chain_matches_the_fraction_reference(a, b, t, i, kind):
    if kind != "none":
        b = _touching(a, i % len(a), kind)
        t = Point(0, 0)
    b = b.translate(t)
    got = intersection_chain(a, b)
    assert got == reference.intersection_chain(a, b)
    assert intersection_chain(got, b) == reference.intersection_chain(got, b)
    assert chain_area(got) == reference.chain_area(got)
    if kind == "point":
        assert got == [a.vertices[i % len(a)]]
    elif kind == "edge":
        assert len(got) == 2


@settings(max_examples=150, deadline=None)
@given(_convex(), _POINT, _COORD)
def test_clip_chain_matches_the_fraction_reference(a, n, c):
    for chain in (a.vertices, a.vertices[:2], a.vertices[:1]):
        assert clip_chain(chain, n, c) == reference.clip_chain(chain, n, c)


@settings(max_examples=100, deadline=None)
@given(_convex(), _convex(), st.lists(st.one_of(st.just(Point(0, 0)), _POINT), max_size=5))
def test_residues_match_the_fraction_reference(region, body, offsets):
    polys = [body.translate(o) for o in offsets] + [region.scale(2)] * (len(offsets) == 5)
    # the region as given and as a clockwise chain; equal pieces, so the
    # kernels agree on emptiness too
    for chain in (region, region.vertices[::-1]):
        got = region_minus_polygons(chain, polys)
        want = reference.region_minus_polygons(chain, polys)
        assert got == want
        assert sum(map(chain_area, got), F(0)) == sum(map(reference.chain_area, want), F(0))


def test_every_clip_reaches_the_integer_kernel(monkeypatch):
    calls = []
    kernel = geom._clip

    def counting(chain, plane):
        calls.append(plane)
        return kernel(chain, plane)

    monkeypatch.setattr(geom, "_clip", counting)
    a, b = square(), square(at=(F(1, 2), F(1, 3)))
    f = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), F(1, 3)))])
    for run in (lambda: intersection_chain(a, b), lambda: region_minus_polygons(a, [b]),
                lambda: clip_chain(a.vertices, Point(1, 0), F(1, 2)),
                lambda: translates.union_area_exact(f)):
        calls.clear()
        run()
        assert calls


def test_geom_has_no_fraction_clipping_loop():
    # the clipping functions use no Point products, no Fraction halfplanes
    # and no true division
    for name in ("clip_chain", "intersection_chain", "region_minus_polygons", "chain_area",
                 "_clip", "_subtract", "_has_area"):
        tree = ast.parse(inspect.getsource(getattr(geom, name)))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("dot", "cross", "halfplanes")), name
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)), name
    assert "da / (da - db)" not in inspect.getsource(geom)
