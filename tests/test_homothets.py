from fractions import Fraction as F
import itertools
import random

from hypothesis import given, settings, strategies as st
import pytest

from piercing.bodies import (
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    int_point,
    membership,
    neighbor_index,
    pair_checker,
)
from piercing.generators import (
    hexagon_body,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.geom import ConvexPolygon, Point
from piercing.homothets import greedy_pierce_homothets
from piercing.oracle import exact_nu
from reference import (
    bodies_intersect,
    body_contains,
    body_contains_body,
    call_budget,
    containment_witness,
    family_of_columns,
    fraction_columns,
    intersects,
    members,
)

PENTAGON = PolygonBody(
    ConvexPolygon([Point(0, 0), Point(4, 0), Point(5, 3), Point(2, 5), Point(-1, 2)])
)


def test_nested_squares_one_point():
    members = [Member(Point(0, 0), F(10 - i, 10)) for i in range(10)]
    f = Family(unit_square(), members, "homothets")
    cert = greedy_pierce_homothets(f)
    assert len(cert.points) == 1
    assert len(cert.witness) == 1


def test_single_triangle():
    f = Family(unit_triangle(), [Member(Point(2, 3), F(5, 2))], "homothets")
    assert len(greedy_pierce_homothets(f).points) == 1


def test_factors_by_base():
    expected = [
        (unit_square(), 4),
        (unit_triangle(), 12),
        (unit_disk(), 7),
        (hexagon_body(), 7),
        (PENTAGON, 16),
    ]
    for base, k in expected:
        f = random_family(base, 30, box_size=15, kind="homothets", scale_range=(1, 3), seed=5)
        cert = greedy_pierce_homothets(f)
        assert cert.factor <= k
        assert len(cert.points) <= cert.factor * len(cert.witness)


def test_refined_constants_against_oracle():
    for base, k, beta1 in [(unit_square(), 4, 1), (unit_triangle(), 12, 3),
                           (unit_disk(), 7, 4)]:
        for seed in range(5):
            f = random_family(base, 10, box_size=4, kind="homothets",
                              scale_range=(1, 2), seed=90 + seed)
            cert = greedy_pierce_homothets(f)
            nu, _ = exact_nu(f)
            assert len(cert.points) <= k * nu - (k - beta1)


def test_seed_minimality():
    f = random_family(unit_disk(), 40, box_size=10, kind="homothets", scale_range=(1, 3), seed=6)
    cert = greedy_pierce_homothets(f)
    ms = members(f)
    for seed_i, cluster in cert.clusters:
        for j in cluster:
            assert ms[j].s >= ms[seed_i].s


def test_cluster_count_at_most_nu():
    for seed in range(4):
        f = random_family(unit_square(), 12, box_size=5, kind="homothets",
                          scale_range=(1, 2), seed=70 + seed)
        cert = greedy_pierce_homothets(f)
        nu, _ = exact_nu(f)
        assert len(cert.clusters) <= nu


def test_containment_witness_exact():
    f = random_family(unit_triangle(), 16, box_size=6, kind="homothets",
                      scale_range=(1, 3), seed=7)
    checked = 0
    ms = members(f)
    for i, j in itertools.combinations(range(len(f)), 2):
        a, b = (i, j) if ms[i].s <= ms[j].s else (j, i)
        if intersects(f, a, b):
            w = containment_witness(f, a, b)
            assert body_contains_body(f.realize(b), w)
            assert bodies_intersect(w, f.realize(a))
            checked += 1
    assert checked > 10


def test_box_homothets():
    base = BoxBody((0, 0), (1, 1))
    f = random_family(base, 25, box_size=8, kind="homothets", scale_range=(1, 2), seed=8)
    cert = greedy_pierce_homothets(f)
    assert cert.factor == 4
    assert len(cert.points) <= 4 * len(cert.witness)


def test_translates_as_degenerate_homothets():
    f = random_family(unit_square(), 20, box_size=6, seed=9)
    cert = greedy_pierce_homothets(f)
    assert len(cert.points) <= 4 * len(cert.witness)


# ---------------------------------------------------------------------------
# the integer homothet kernel: pair tests, membership and order on the
# scaled columns agree with the realized bodies

SKEW_TRIANGLE = PolygonBody(ConvexPolygon([Point(0, 0), Point(F(3, 2), F(1, 3)),
                                           Point(F(-1, 2), F(5, 4))]))
KERNEL_BASES = {
    "triangle": unit_triangle(),
    "skew triangle": SKEW_TRIANGLE,
    "pentagon": PENTAGON,
    "disk": DiskBody(Point(F(1, 3), F(-1, 2)), F(3, 2)),
    "box": BoxBody((F(-1, 2), 0), (1, F(3, 2))),
}
_UNITS = [(1, 0), (0, 1), (F(3, 5), F(4, 5)), (F(-4, 5), F(3, 5)), (F(5, 13), F(-12, 13))]


def _outward_edges(poly):
    """(a, b, outward normal) per edge of a ccw polygon."""
    return [(a, b, -(b - a).perp()) for a, b in poly.edges()]


def _touching(base, si, ti, sj, lam, k):
    """A translation t_j for which sj C + t_j touches si C + ti from outside,
    and a direction along which moving t_j separates them.

    Polygons: the vertex of member i extreme against the outward normal of
    edge k lies on that edge of member j, at parameter lam.  Disks: the
    centres lie (si + sj) r apart along unit vector k.  Boxes: member j's
    low face on axis k is member i's high face (face on face)."""
    if base.kind == "disk":
        u = Point(*_UNITS[k % len(_UNITS)])
        ci = base.center * si + ti
        return ci + u * ((si + sj) * base.radius) - base.center * sj, u
    if base.kind == "box":
        k %= base.dim
        tj = list(ti)
        tj[k] = si * (base.mins[k] + base.sides[k]) + ti[k] - sj * base.mins[k]
        return tuple(tj), tuple(F(int(a == k)) for a in range(base.dim))
    a, b, out = _outward_edges(base.polygon)[k % len(base.polygon.vertices)]
    v = min(base.polygon.vertices, key=out.dot)
    return v * si + ti - (a + (b - a) * lam) * sj, -out


def _moved(t, d, step):
    if isinstance(t, tuple):
        return tuple(v + step * dv for v, dv in zip(t, d))
    return t + d * step


_HALVES = st.integers(-6, 6).map(lambda k: F(k, 2))
_SCALES = st.sampled_from([F(1, 2), F(1), F(4, 3), F(3, 2), F(2), F(5, 2)])
_STEPS = st.sampled_from([F(1, 10 ** 6), F(1, 7), F(1, 2)])


def _translation(base, draw):
    if base.kind == "box":
        return tuple(draw(_HALVES) for _ in range(base.dim))
    return Point(draw(_HALVES), draw(_HALVES))


@st.composite
def kernel_families(draw):
    """Homothets with small half-integer translations, so that many pairs
    touch, plus pairs built to touch exactly and pairs one step apart."""
    base = KERNEL_BASES[draw(st.sampled_from(sorted(KERNEL_BASES)))]
    members = [Member(_translation(base, draw), draw(_SCALES))
               for _ in range(draw(st.integers(1, 5)))]
    for _ in range(draw(st.integers(1, 4))):
        i = members[draw(st.integers(0, len(members) - 1))]
        sj = draw(_SCALES)
        tj, d = _touching(base, i.s, i.t, sj, draw(st.sampled_from([0, F(1, 3), F(1, 2), 1])),
                          draw(st.integers(0, 7)))
        members.append(Member(tj, sj))
        members.append(Member(_moved(tj, d, draw(_STEPS)), sj))
    return Family(base, members, "homothets")


@settings(max_examples=300, deadline=None)
@given(kernel_families())
def test_integer_pair_test_equals_realized_bodies(f):
    assert type(f.scaled_translations()[2][0]) is int
    check = pair_checker(f)
    for i, j in itertools.permutations(range(len(f)), 2):
        assert check(i, j) == intersects(f, i, j)


def test_touching_pairs_meet_and_stepped_pairs_do_not():
    for name, base in KERNEL_BASES.items():
        for k in range(5):
            ti = _translation(base, lambda s: F(k, 2))
            tj, d = _touching(base, F(3, 2), ti, F(1, 2), F(1, 3), k)
            f = Family(base, [Member(ti, F(3, 2)), Member(tj, F(1, 2)),
                              Member(_moved(tj, d, F(1, 10 ** 9)), F(1, 2))], "homothets")
            check = pair_checker(f)
            assert check(0, 1) and check(1, 0), (name, k)
            assert not check(0, 2) and not check(2, 0), (name, k)


@st.composite
def boundary_points(draw):
    """A polygon or box homothet and points on its boundary, each with a
    point one small rational step outside."""
    base = KERNEL_BASES[draw(st.sampled_from(["triangle", "skew triangle", "pentagon", "box"]))]
    s, t = draw(_SCALES), _translation(base, draw)
    points = []
    for _ in range(draw(st.integers(1, 4))):
        lam = draw(st.sampled_from([0, F(1, 5), F(1, 2), F(2, 3), 1]))
        step = draw(_STEPS)
        if base.kind == "box":
            k = draw(st.integers(0, 1))
            p = [m * s + tv + side * s * lam for m, side, tv in zip(base.mins, base.sides, t)]
            p[k] = (base.mins[k] + base.sides[k]) * s + t[k]
            out = tuple(F(int(a == k)) for a in range(2))
            points += [tuple(p), _moved(tuple(p), out, step)]
        else:
            a, b, out = draw(st.sampled_from(_outward_edges(base.polygon)))
            p = (a + (b - a) * lam) * s + t
            points += [p, p + out * step]
    return Family(base, [Member(t, s)], "homothets"), points


@settings(max_examples=300, deadline=None)
@given(boundary_points())
def test_integer_membership_equals_realized_contains(case):
    f, points = case
    test = membership(f, [int_point(p) for p in points])(0)
    body = f.realize(0)
    for k, p in enumerate(points):
        assert test(k) == body_contains(body, p)
        assert test(k) is (k % 2 == 0)


def _reference_smallest_first(f):
    """Smallest-first greedy on the exact key, absorbing by
    intersects alone."""
    ms = members(f)

    def key(i):
        m = ms[i]
        t = m.t if isinstance(m.t, tuple) else (m.t.x, m.t.y)
        return (m.s, -(f.base.bbox()[-1].hi * m.s + t[-1]), t, i)

    alive = [True] * len(f)
    clusters = []
    for i in sorted(range(len(f)), key=key):
        if not alive[i]:
            continue
        alive[i] = False
        cluster = [i]
        for j in range(len(f)):
            if alive[j] and intersects(f, i, j):
                alive[j] = False
                cluster.append(j)
        clusters.append((i, tuple(cluster)))
    return clusters


@pytest.mark.parametrize("name", ["triangle", "pentagon", "disk", "box"])
def test_prime_denominator_homothets_take_fraction_columns(name):
    base = KERNEL_BASES[name]
    primes = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]
    rng = random.Random(len(name))

    def rational(span):
        q = rng.choice(primes)
        return F(rng.randrange(span * q), q)

    members = []
    for _ in range(25):
        s = 1 + rational(2)
        t = (Point(rational(12), rational(12)) if base.kind != "box"
             else (rational(12), rational(12)))
        tj, _ = _touching(base, s, t, s / 2, F(1, 3), rng.randrange(8))
        members += [Member(t, s), Member(tj, s / 2)]
    f = Family(base, members, "homothets")
    D, cols, S = f.scaled_translations()
    # D needs more than MAX_SCALE_BITS, so the columns stay Fractions
    assert D == 1 and all(type(v) is F for col in cols + [S] for v in col)
    cert = greedy_pierce_homothets(f, refine=False)
    assert cert.clusters == _reference_smallest_first(f)


def test_an_outlier_scale_costs_the_index_one_more_class():
    # 2,000 unit triangles and one member 10^4 times larger: a grid with
    # cells as wide as a unit member would file it under about 4e7 cells;
    # on scale classes it is filed twice and looked up in 9 cells per class
    f = random_family(unit_triangle(), 2000, box_size=60, kind="homothets",
                      scale_range=(1, 2), seed=1)
    cols, ss = fraction_columns(f)
    f = family_of_columns(f.base, [col + [F(7)] for col in cols], ss + [F(10 ** 4)], "homothets")
    with call_budget(600_000):
        candidates = neighbor_index(f)
        assert len(candidates(len(f) - 1)) > 1000
        assert all(len(candidates(i)) < 60 for i in range(len(f) - 1))
        cert = greedy_pierce_homothets(f, refine=False)
    # the outlier is the last seed candidate and meets an earlier seed
    assert len(f) - 1 not in cert.witness
