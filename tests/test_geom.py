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
    clip_chain,
    convex_hull,
    covers_region,
    minkowski_sum,
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
        assert reference.polygons_intersect(square(), square(at=(1, 1)))

    def test_far_squares(self):
        assert not reference.polygons_intersect(square(), square(at=(3, 0)))

    def test_agrees_with_sampling_oracle(self):
        # one-sided: a sampled common point forces intersection
        rng = random.Random(5)
        for _ in range(40):
            a = convex_hull(rand_points(rng, 6, 3))
            b = convex_hull(rand_points(rng, 6, 3))
            hit = reference.polygons_intersect(a, b)
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
            meet = reference.polygons_intersect
            assert meet(a, a)
            assert meet(a, b) == meet(b, a)
            assert meet(a, b) == meet(a.translate(t), b.translate(t))


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
        got = reference.kernel_intersection_chain(square(), square(at=(1, 0)))
        assert len(got) == 2  # a shared edge

    def test_disjoint(self):
        assert reference.intersection(square(), square(at=(5, 5))) is None

    def test_union_area_against_monte_carlo(self):
        rng = random.Random(2024)
        a = convex_hull(rand_points(rng, 7, 2))
        b = convex_hull(rand_points(rng, 7, 2))
        chain = reference.kernel_intersection_chain(a, b)
        inter = reference.kernel_chain_area(chain)
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
        q = reference.linear_map(p, 2, 0, 0, 1)  # determinant 2
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
    got = reference.kernel_intersection_chain(a, b)
    assert got == reference.intersection_chain(a, b)
    assert reference.kernel_intersection_chain(got, b) == reference.intersection_chain(got, b)
    assert reference.kernel_chain_area(got) == reference.chain_area(got)
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
        assert (sum(map(reference.kernel_chain_area, got), F(0))
                == sum(map(reference.chain_area, want), F(0)))


def test_a_piece_that_meets_a_polygon_in_measure_zero_stays_whole():
    # a square touching the region along an edge or at a corner, or missing
    # it, leaves the region as one piece; a segment region is covered
    region = square(2)
    for other in (square(1, at=(2, 0)), square(1, at=(2, 2)), square(1, at=(5, 5))):
        assert region_minus_polygons(region, [other]) == [region.vertices]
    segment = [Point(0, 0), Point(1, 0)]
    for other in (square(1, at=(0, -1)), square(1, at=(5, 5))):
        assert region_minus_polygons(segment, [other]) == []


def test_every_clip_reaches_the_integer_kernel(monkeypatch):
    # _split is the one clipping loop and _clip its inside half: every clip
    # runs the loop, and the clips that keep only the inside go through _clip;
    # the union area cuts members on _subtract, so it takes both halves
    calls = {"_split": [], "_clip": []}

    def counting(name):
        kernel = getattr(geom, name)

        def count(chain, plane, *rest):
            calls[name].append(plane)
            return kernel(chain, plane, *rest)

        return count

    for name in calls:
        monkeypatch.setattr(geom, name, counting(name))
    a, b = square(), square(at=(F(1, 2), F(1, 3)))
    f = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), F(1, 3)))])
    for run, inside_only in ((lambda: region_minus_polygons(a, [b]), False),
                             (lambda: region_minus_polygons(a, [square()], [Point(F(1, 2), 0)]),
                              False),
                             (lambda: clip_chain(a.vertices, Point(1, 0), F(1, 2)), True),
                             (lambda: translates.union_area_exact(f), False)):
        for got in calls.values():
            got.clear()
        run()
        assert calls["_split"]
        assert bool(calls["_clip"]) == inside_only
        assert len(calls["_clip"]) <= len(calls["_split"])


def test_geom_has_no_fraction_clipping_loop():
    # the clipping functions use no Point products, no Fraction halfplanes
    # and no true division
    for name in ("clip_chain", "region_minus_polygons", "covers_region", "_clip", "_split",
                 "_crossing", "_shifted", "_subtract", "_has_area"):
        tree = ast.parse(inspect.getsource(getattr(geom, name)))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Attribute)
                        and node.attr in ("dot", "cross", "halfplanes", "translate")), name
            assert not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)), name
    assert "da / (da - db)" not in inspect.getsource(geom)


# ---------------------------------------------------------------------------
# hull, containment and symmetry centre on scaled ints against the Fraction
# reference

_WIDE = st.builds(F, st.integers(-2**140, 2**140), st.sampled_from([1, 7, 2**129 + 1, 3**83]))
_WIDE_POINT = st.builds(Point, _WIDE, _WIDE)


def _same_hull(points):
    """Both hulls raise the same DegenerateInput or return the same Points,
    object for object."""
    try:
        want = reference.convex_hull(points)
    except DegenerateInput as e:
        with pytest.raises(DegenerateInput, match=str(e)):
            convex_hull(points)
        return None
    got = convex_hull(points)
    assert len(got.vertices) == len(want.vertices)
    assert all(a is b for a, b in zip(got.vertices, want.vertices))
    return got


def _copies(points):
    """The points followed by equal but distinct Points of every other one."""
    return points + [Point(p.x, p.y) for p in points[::2]]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_POINT, _WIDE_POINT), max_size=9), st.booleans())
def test_hull_matches_the_fraction_reference(points, dup):
    _same_hull(_copies(points) if dup else points)


def test_hull_matches_the_fraction_reference_on_random_sets():
    rng = random.Random(5)
    for n in (3, 4, 5, 8, 20, 60):
        for _ in range(20):
            pts = rand_points(rng, n, spread=rng.choice((1, 3, 10)))
            _same_hull(_copies(pts))
            _same_hull([p * F(1, 2**129 + 1) for p in pts])


def test_hull_drops_boundary_points_and_keeps_the_first_duplicate():
    corners = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    mids = [Point(1, 0), Point(2, 1), Point(1, 2), Point(0, 1), Point(1, 1)]
    again = [Point(0, 0), Point(2, 2)]
    h = _same_hull(again + mids + corners)
    assert h.vertices == [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    assert h.vertices[0] is again[0] and h.vertices[2] is again[1]


@pytest.mark.parametrize("points", [
    [],
    [Point(1, 1)],
    [Point(1, 1), Point(1, 1), Point(1, 1)],
    [Point(0, 0), Point(1, 2), Point(0, 0), Point(1, 2)],
    [Point(0, 0), Point(1, 1), Point(2, 2), Point(F(1, 2), F(1, 2))],
    [Point(F(k, 2**130 + 1), F(3 * k, 2**130 + 1)) for k in range(6)],
])
def test_hull_of_degenerate_input_raises_as_the_reference(points):
    with pytest.raises(DegenerateInput):
        convex_hull(points)
    assert _same_hull(points) is None


@settings(max_examples=200, deadline=None)
@given(_convex(), st.one_of(_POINT, _WIDE_POINT), st.integers(0, 7))
def test_contains_matches_the_fraction_reference(a, p, i):
    v = a.vertices
    q, r = v[i % len(v)], v[(i + 1) % len(v)]
    tiny = F(1, 2**140 + 1)
    # a vertex, an edge midpoint and points a hair off them, on both sides
    for x in (p, q, (q + r) / 2, q + Point(tiny, 0), q - Point(tiny, tiny),
              (q + r) / 2 + (r - q).perp() * tiny, (q + r) / 2 - (r - q).perp() * tiny):
        assert a.contains(x) == reference.contains(a, x)
    assert a.contains(q) and a.contains((q + r) / 2)
    assert not a.contains((q + r) / 2 - (r - q).perp() * tiny)


@settings(max_examples=150, deadline=None)
@given(_convex(), st.one_of(_POINT, _WIDE_POINT), st.booleans())
def test_centre_matches_the_fraction_reference(a, c, symmetric):
    if symmetric:
        a = convex_hull(a.vertices + [c * 2 - p for p in a.vertices])
    got = a.is_centrally_symmetric()
    assert got == reference.centre(a)
    assert (got is not None) >= symmetric
    if symmetric:
        assert got == c


def test_hull_contains_and_centre_do_no_fraction_arithmetic(monkeypatch):
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__lt__",
                 "__le__", "__eq__", "__hash__", "__radd__", "__rsub__", "__rmul__"):
        def counting(*args, _fn=getattr(F, name), _name=name):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(F, name, counting)
    big = F(1, 2**129 + 1)
    pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2), Point(1, 0), Point(0, 0),
           Point(F(3, 2), F(1, 3)), Point(big, 2 - big)]
    for grid in (pts, [Point(3 - p.x, p.y + big) for p in pts]):
        calls.clear()
        hull = convex_hull(grid)
        hull.is_centrally_symmetric()
        hull.contains(Point(1, F(1, 7)))
        hull.contains(Point(big, 3))
        assert calls == []


# ---------------------------------------------------------------------------
# one pass of values for both sides of a halfplane


@st.composite
def _chain_and_plane(draw):
    """A convex chain of int triples (a polygon's, reversed, or its first
    two, one or no vertices; coordinates small or over 2^128) and an int
    halfplane, free or with its line through a vertex."""
    try:
        poly = convex_hull(draw(st.lists(st.one_of(_POINT, _WIDE_POINT), min_size=3,
                                         max_size=7)))
    except DegenerateInput:
        reject()
    chain = geom._chain(poly)
    chain = draw(st.sampled_from([chain, chain[::-1], chain[:2], chain[1::-1], chain[:1], []]))
    n = draw(st.one_of(_POINT, _WIDE_POINT))
    if chain and draw(st.booleans()):
        c = n.dot(geom._point(draw(st.sampled_from(chain))))  # touching the line
    else:
        c = draw(st.one_of(_COORD, _WIDE))
    if n == Point(0, 0):
        reject()
    return chain, n, c


def _points(chain):
    return [geom._point(h) for h in chain]


@settings(max_examples=300, deadline=None)
@given(_chain_and_plane())
def test_split_is_both_clips(chain_plane):
    chain, n, c = chain_plane
    plane = geom._plane(n, c)
    inside, outside = geom._split(chain, plane)
    assert (inside, outside) == (geom._clip(chain, plane),
                                 geom._clip(chain, tuple(-v for v in plane)))
    assert geom._split(chain, plane, False) == (inside, [])
    assert _points(inside) == reference.clip_chain(_points(chain), n, c)
    assert _points(outside) == reference.clip_chain(_points(chain), -n, -c)


def test_split_of_a_segment_walks_it_both_ways():
    a, b = (0, 0, 1), (4, 2, 1)
    # the line x = 1 crosses at (1, 1/2), kept once on each side
    assert geom._split([a, b], (1, 0, 1)) == ([a, (2, 1, 2)], [(2, 1, 2), b])
    assert geom._split([b, a], (1, 0, 1)) == ([(2, 1, 2), a], [b, (2, 1, 2)])
    # an end on the line goes to both sides
    assert geom._split([a, b], (1, 0, 0)) == ([a], [a, b])
    assert geom._split([a, b], (-1, 0, 0)) == ([a, b], [a])
    assert geom._split([a, b], (0, 0, 1)) == ([a, b], [])
    assert geom._split([a, b], (0, 0, -1)) == ([], [a, b])
    assert geom._split([], (1, 0, 1)) == ([], [])


@settings(max_examples=100, deadline=None)
@given(_convex(), _convex(), st.lists(st.one_of(_POINT, _WIDE_POINT), min_size=1, max_size=5))
def test_translate_planes_are_the_planes_of_the_translate(region, body, offsets):
    # shifted on ints, the triples of each translate and so its residues are
    # those of the translate built in Fractions
    for o in offsets:
        assert geom._shifted(geom._planes(body), o) == geom._planes(body.translate(o))
    polys = [body.translate(o) for o in offsets]
    got = region_minus_polygons(region, [body], offsets)
    assert got == region_minus_polygons(region, polys)
    assert got == reference.region_minus_polygons(region, polys)
    assert covers_region(region, [body], offsets) == (not got)
