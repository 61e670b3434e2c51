from fractions import Fraction as F
import gc
import hashlib
import json
import math
import random

import pytest

from piercing.bodies import (
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    _member_slabs,
    collector_paused,
    common_slab_bounds,
    intersection_graph,
    neighbor_index,
    pair_checker,
    root_sign,
)
from piercing.cli import auto_pierce
from piercing.generators import (
    five_square_cycle,
    hexagon_body,
    nine_triangles,
    pairwise_intersecting_family,
    random_centrally_symmetric_polygon,
    random_convex_polygon,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.geom import ConvexPolygon, Point, _planes
from piercing.jsonio import certificate_to_json, dump, family_from_json, family_to_json
from piercing.oracle import solve
from reference import Radical, call_budget, centre
from reference import (
    AffineMap,
    DisksNotClosedUnderAffine,
    MixedKinds,
    SingularMap,
    bodies_intersect,
    family_of_columns,
    fraction_columns,
    graphs_equal,
    intersection_graph_bruteforce,
    intersects,
    members,
    normalize_affine,
)


def test_realize_identity():
    f = Family(unit_square(), [Member(Point(0, 0))])
    assert f.realize(0).polygon == unit_square().polygon


def test_realize_disk_scaling_convention():
    # scale about the origin, then translate
    f = Family(DiskBody(Point(0, 0), 1), [Member(Point(1, 0), 2)], "homothets")
    b = f.realize(0)
    assert b.center == Point(1, 0)
    assert b.radius == 2
    g = Family(DiskBody(Point(3, 0), 1), [Member(Point(1, 0), 2)], "homothets")
    assert g.realize(0).center == Point(7, 0)


def test_member_polygon_area_scales_quadratically():
    f = Family(unit_square(), [Member(Point(5, 5), F(3, 2))], "homothets")
    assert f.realize(0).polygon.area() == F(9, 4)


def test_five_cycle_graph():
    f = five_square_cycle()
    adj = intersection_graph(f)
    assert sorted(map(len, adj)) == [2, 2, 2, 2, 2]
    assert adj[0] == {1, 4}
    assert adj[2] == {1, 3}


def test_far_translates_empty_graph():
    f = Family(unit_square(), [Member(Point(10 * i, 0)) for i in range(6)])
    adj = intersection_graph(f)
    assert all(not a for a in adj)


GRAPH_BASES = {
    "square": unit_square,
    "disk": unit_disk,
    "triangle": unit_triangle,
    "box2": lambda: BoxBody((F(-1, 2), 0), (1, F(3, 2))),
    "box3": lambda: BoxBody((0, F(1, 3), -1), (1, 2, F(1, 2))),
    # far from the origin, where a member's box corner moves with its scale
    "far": lambda: PolygonBody(ConvexPolygon([Point(20, 30), Point(21, 30), Point(20, 31)])),
}
PRIMES = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]


def _with_outliers(f, scales, rational):
    """f plus one member of each scale s, at a translation rational(-s, 12)
    on every axis, so that it meets some members and misses others."""
    cols, ss = fraction_columns(f)
    for s in scales:
        for col in cols:
            col.append(rational(-s, 12))
    return family_of_columns(f.base, cols, ss + list(map(F, scales)), "homothets")


def _graph_families(base, kind, rng):
    make = GRAPH_BASES[base]
    if kind in ("translates", "homothets"):
        for trial in range(4 if base in ("square", "disk") else 2):
            n = rng.randrange(20, 200)
            yield random_family(make(), n, box_size=12, kind=kind, seed=100 + trial)
    elif kind == "outliers":
        # scales 1-2 and four members 400 and 10^4 times larger
        for trial in range(2):
            f = random_family(make(), rng.randrange(60, 150), box_size=12, kind="homothets",
                              scale_range=(1, 2), seed=200 + trial)
            yield _with_outliers(f, [400, 400, 10 ** 4, 10 ** 4],
                                 lambda a, b: F(rng.randrange(4 * a, 4 * b), 4))
    elif kind == "fractions":
        # prime denominators: D is over MAX_SCALE_BITS, so the columns are Fractions
        def rational(a, b):
            q = rng.choice(PRIMES)
            return F(rng.randrange(a * q, b * q), q)

        dim = len(make().bbox())
        f = family_of_columns(make(), [[rational(0, 12) for _ in range(60)] for _ in range(dim)],
                              [1 + rational(0, 2) for _ in range(60)], "homothets")
        f = _with_outliers(f, [400, 10 ** 4], rational)
        assert f.scaled_translations()[0] == 1
        yield f
    else:
        # one and two members, meeting or not, of equal or very different scales
        for trial in range(30):
            scales = [rng.choice([1, F(3, 2), 2, 400, 10 ** 4]) for _ in range(1 + trial % 2)]
            dim = len(make().bbox())
            cols = [[F(rng.randrange(-8, 8), 2) for _ in scales] for _ in range(dim)]
            yield family_of_columns(make(), cols, list(map(F, scales)), "homothets")


@pytest.mark.parametrize("base,kind", [
    ("square", "translates"), ("disk", "translates"), ("disk", "homothets"),
    ("triangle", "homothets"), ("box2", "homothets"), ("box3", "homothets"), ("far", "homothets"),
    ("triangle", "outliers"), ("disk", "outliers"), ("box2", "outliers"), ("box3", "outliers"),
    ("far", "outliers"),
    ("triangle", "fractions"), ("disk", "fractions"), ("box2", "fractions"),
    ("triangle", "small"), ("disk", "small"), ("box3", "small"), ("far", "small"),
])
def test_grid_graph_matches_bruteforce(base, kind):
    rng = random.Random(17)
    for f in _graph_families(base, kind, rng):
        assert graphs_equal(intersection_graph(f), intersection_graph_bruteforce(f))
        # the index lists each other member at most once, and never i itself
        candidates = neighbor_index(f)
        for i in range(len(f)):
            near = candidates(i)
            assert i not in near and len(set(near)) == len(near)


def test_mixed_kinds_rejected():
    a = unit_square()
    b = unit_disk()
    with pytest.raises(MixedKinds):
        bodies_intersect(a, b)


def test_normalize_affine_identity():
    f = random_family(unit_square(), 10, seed=1)
    g = normalize_affine(f, AffineMap(1, 0, 0, 1))
    assert graphs_equal(intersection_graph(f), intersection_graph(g))


def test_shear_preserves_graph():
    f = random_family(unit_square(), 40, box_size=8, seed=2)
    g = normalize_affine(f, AffineMap(1, F(1, 2), 0, 1, 3, -4))
    assert g.base.polygon.is_parallelogram()
    assert graphs_equal(intersection_graph_bruteforce(f), intersection_graph_bruteforce(g))


def test_disks_reject_general_affine():
    f = random_family(unit_disk(), 5, seed=3)
    with pytest.raises(DisksNotClosedUnderAffine):
        normalize_affine(f, AffineMap(1, F(1, 2), 0, 1))


def test_disks_accept_rational_similarity():
    f = random_family(unit_disk(), 12, box_size=6, seed=4)
    # rotation by the 3-4-5 angle times scale 5: rational similarity
    g = normalize_affine(f, AffineMap(3, -4, 4, 3))
    assert g.base.radius == 5
    assert graphs_equal(intersection_graph_bruteforce(f), intersection_graph_bruteforce(g))


def test_singular_map_rejected():
    with pytest.raises(SingularMap):
        AffineMap(1, 2, 2, 4)


def test_box_family_basics():
    base = BoxBody((0, 0, 0), (1, 2, 1))
    f = Family(base, [Member((0, 0, 0)), Member((F(1, 2), 0, 0)), Member((5, 5, 5))])
    assert intersects(f, 0, 1)
    assert not intersects(f, 0, 2)
    assert f.realize(1).mins == (F(1, 2), 0, 0)


def _fraction_columns(f):
    """f shifted by one vector whose denominators need more than
    MAX_SCALE_BITS bits, so its scaled columns hold Fractions (D = 1)."""
    shift = [F(1, 3 ** 82), F(-2, 3 ** 81), F(5, 7 ** 50)]
    cols, ss = fraction_columns(f)
    g = family_of_columns(f.base, [[v + d for v in col] for col, d in zip(cols, shift)], ss,
                          f.kind)
    assert g.scaled_translations()[0] == 1
    return g


@pytest.mark.parametrize("base", [unit_triangle, lambda: BoxBody((0, 0, 0), (1, F(3, 2), 1))],
                         ids=["triangle", "box"])
@pytest.mark.parametrize("kind", ["translates", "homothets"])
@pytest.mark.parametrize("fractions", [False, True], ids=["ints", "fractions"])
def test_subfamily_carries_the_slab_rows(base, kind, fractions):
    """A sub-family takes its slab rows from a family that has computed
    them, equal to the slabs it would compute itself."""
    f = random_family(base(), 60, box_size=8, kind=kind, scale_range=(1, 3), seed=11)
    if fractions:
        f = _fraction_columns(f)
    indices = random.Random(12).sample(range(len(f)), 20)
    assert f.subfamily(indices)._slabs is None
    f.slabs()
    sub = f.subfamily(indices)
    assert sub._slabs is not None
    assert sub.slabs() == _member_slabs(sub)
    ms = members(f)
    assert sub.slabs() == _member_slabs(Family(f.base, [ms[i] for i in indices], f.kind))


def test_collector_paused_leaves_the_collector_as_found():
    assert gc.isenabled()
    with collector_paused():
        assert not gc.isenabled()
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(ZeroDivisionError):
        with collector_paused():
            1 / 0
    assert gc.isenabled()
    gc.disable()
    try:
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_greedy_and_verify_run_with_the_collector_paused(monkeypatch):
    from piercing import certificates, translates

    seen = []
    checker = translates.pair_checker

    def recording(f):
        seen.append(gc.isenabled())
        return checker(f)

    monkeypatch.setattr(translates, "pair_checker", recording)
    monkeypatch.setattr(certificates, "pair_checker", recording)
    f = random_family(unit_disk(), 40, box_size=8, seed=2)
    cert = translates.greedy_pierce(f, refine=False, verify=False)
    cert.verify(f)
    assert seen == [False, False]
    assert gc.isenabled()


def test_root_sign_is_the_sign_of_the_radical():
    # zeros with a square m, opposite signs either way, and random ints
    rng = random.Random(9)
    cases = [(0, 0, 2), (3, 0, 5), (0, -2, 7), (-2, 1, 4), (2, -1, 4), (4, -2, 4), (-3, 1, 9),
             (1, -1, 1), (7, -5, 2), (-7, 5, 2), (-1, 1, 2), (1, -1, 2)]
    cases += [(rng.randint(-60, 60), rng.randint(-60, 60), rng.choice([1, 2, 3, 4, 5, 9, 12]))
              for _ in range(400)]
    for P, Q, m in cases:
        assert root_sign(P, Q, m) == (Radical.of(P) + Radical.sqrt(m) * Q).sign(), (P, Q, m)


def test_a_polygon_base_computes_its_bounding_box_once(monkeypatch):
    # box_columns and neighbor_index read the base's box on every call
    calls = []
    box = ConvexPolygon.bounding_box
    monkeypatch.setattr(ConvexPolygon, "bounding_box", lambda self: calls.append(self) or box(self))
    f = random_family(unit_triangle(), 50, box_size=6, kind="homothets", scale_range=(1, 2),
                      seed=3)
    for _ in range(2):
        intersection_graph(f)
        neighbor_index(f)
    assert calls == [f.base.polygon]


@pytest.mark.parametrize("kind", ["translates", "homothets"])
def test_common_slab_bounds_agree_with_every_pair_test(kind):
    rng = random.Random(kind)
    outcomes = []
    for trial in range(120):
        base = [random_convex_polygon(rng, 7, spread=2),
                random_centrally_symmetric_polygon(rng, 3, spread=2),
                BoxBody((0, 0), (1, F(3, 2))),
                BoxBody((0, F(1, 2), 0), (1, 2, F(2, 3)))][trial % 4]
        n = rng.randrange(2, 10)
        if trial % 3 == 0 and kind == "translates":
            f = pairwise_intersecting_family(base, n, seed=trial)
        else:
            f = random_family(base, n, box_size=F(rng.randrange(1, 9), 2), kind=kind,
                              scale_range=(1, 2), seed=trial)
        check = pair_checker(f)
        every = all(check(i, j) for i in range(n) for j in range(i + 1, n))
        bounds = common_slab_bounds(f)
        assert (bounds is not None) == every
        if every:
            _, lo, hi = f.slabs()
            assert bounds == [(max(r[k] for r in lo), min(r[k] for r in hi))
                              for k in range(len(lo[0]))]
        outcomes.append((base.kind, every))
    assert set(outcomes) == {(k, e) for k in ("polygon", "box") for e in (True, False)}


def _frame_bases():
    """(name, base): the generators' bases, 20 random centrally symmetric
    polygons, some moved off the origin, random convex polygons, 2-d and
    3-d boxes, and disks of rational radius."""
    out = [("square", unit_square()), ("triangle", unit_triangle()), ("disk", unit_disk()),
           ("hexagon", hexagon_body()), ("five-cycle", five_square_cycle().base),
           ("nine-triangles", nine_triangles().base)]
    for seed in range(20):
        cs = random_centrally_symmetric_polygon(seed, 2 + seed % 4, spread=2)
        out.append(("cs%d" % seed, cs if seed % 2 else cs.scale_translate(F(3, 2),
                                                                          Point(F(1, 3), -2))))
    out += [("convex%d" % seed, random_convex_polygon(seed, 7, spread=3)) for seed in range(5)]
    out += [("box2", BoxBody((0, F(1, 2)), (1, F(3, 2)))),
            ("box3", BoxBody((F(-1, 3), 0, 2), (F(2, 5), 2, F(2, 3)))),
            ("disk-2/3", DiskBody(Point(F(1, 2), F(-3, 4)), F(2, 3))),
            ("disk-7/5", DiskBody(Point(3, F(1, 6)), F(7, 5)))]
    return out


def _uncached_frame(base):
    """Every field of bodies.Frame, derived again from the base's
    Fractions, none of them through the frame."""
    out = {}
    if base.kind == "polygon":
        vs = base.polygon.vertices
        d = math.lcm(*[v.denominator for p in vs for v in p])
        out["scaled"] = out["key"] = (d, tuple((int(p.x * d), int(p.y * d)) for p in vs))
        out["centre"] = centre(base.polygon)
        low = min(vs, key=lambda p: (p.y, p.x))
        out["low"] = vs.index(low)
        out["vertices"] = [(int(p.x * w), int(p.y * w), w)
                           for p in vs for w in [math.lcm(p.x.denominator, p.y.denominator)]]
        out["planes"] = _planes(base.polygon)
        extents = []
        for a, b in base.polygon.edges():
            n = (b - a).perp()
            g = math.lcm(n.x.denominator, n.y.denominator)
            w = (-int(n.x * g), -int(n.y * g))
            w = max(tuple(c // math.gcd(*w) for c in w), tuple(-c // math.gcd(*w) for c in w))
            if w not in [e[0] for e in extents]:
                vals = [w[0] * p.x + w[1] * p.y for p in vs]
                extents.append((w, min(vals), max(vals)))
    elif base.kind == "box":
        out["centre"] = tuple(m + s / 2 for m, s in zip(base.mins, base.sides))
        extents = [(tuple(int(a == k) for a in range(base.dim)), m, m + s)
                   for k, (m, s) in enumerate(zip(base.mins, base.sides))]
    else:
        c, r = base.center, base.radius
        L = math.lcm(c.x.denominator, c.y.denominator, r.denominator)
        out["centre"] = c
        out["disk"] = (L, int(c.x * L), int(c.y * L), int(r * L))
        out["key"] = (r.numerator, r.denominator)
        extents = None
    out["anchor"] = out["centre"] if out["centre"] is not None else low
    if extents is not None:
        out["slabs"] = [([c * L for c in w], int(lo * L), int(hi * L)) for w, lo, hi in extents
                        for L in [math.lcm(lo.denominator, hi.denominator)]]
    bbox = base.bbox()
    L = math.lcm(*[v.denominator for iv in bbox for v in (iv.lo, iv.hi)])
    out["box"] = (L, tuple(int(iv.lo * L) for iv in bbox), tuple(int(iv.length() * L) for iv in bbox))
    out.setdefault("key", out["box"])
    return out


def _value(base):
    if base.kind == "polygon":
        return tuple(base.polygon.vertices)
    return base.radius if base.kind == "disk" else (base.mins, base.sides)


def test_each_frame_field_equals_its_uncached_derivation():
    values = {}
    for name, base in _frame_bases():
        want = _uncached_frame(base)
        assert {k: getattr(base.frame, k) for k in want} == want, name
        assert base.frame is base.frame and base.frame.base is base
        # two bodies of one kind have one key iff they are equal, two disks
        # iff their radii are
        assert values.setdefault((base.kind, base.frame.key), _value(base)) == _value(base)
    assert len(set(values.values())) == len(values)


def _frame_families():
    return {"triangle": random_family(unit_triangle(), 9, box_size=4, seed=3),
            "cs8": random_family(random_centrally_symmetric_polygon(8, 4, spread=2), 9,
                                 box_size=8, kind="homothets", scale_range=(1, 2), seed=3),
            "disk": random_family(unit_disk(), 9, box_size=5, seed=3),
            "box": random_family(BoxBody((0, F(1, 2), 0), (1, 2, F(2, 3))), 9, box_size=3,
                                 kind="homothets", scale_range=(1, 2), seed=3)}


# what is derived from a base body's Fractions: once a frame holds it, a
# second pierce and solve of the same family call none of these
_DERIVATIONS = ("_centre", "_scaled", "_hom", "_planes", "_base_slabs", "bbox", "disk",
                "is_centrally_symmetric", "bounding_box")


@pytest.mark.parametrize("name", sorted(_frame_families()))
def test_a_second_pierce_and_solve_derive_nothing_from_the_base(name):
    f = _frame_families()[name]
    first = auto_pierce(f, refine=True), solve(f)
    for derivation in _DERIVATIONS:
        with call_budget(0, name=derivation):
            again = auto_pierce(f, refine=True), solve(f)
        assert again[0].points == first[0].points and again[1].tau == first[1].tau


# sha256 of each family's certificate file, taken before bases kept a frame
_FRAME_CERTIFICATES = {
    "box": "80111656ffe83df2d88a849ce02d82d9bdd323cfc45488620b09f5ff3e42920c",
    "cs8": "103ac8d0508959983cde75f0573f6a2d05b6f5f310665421282705d3a8df560e",
    "disk": "c8dd9d7fb69295ee4cb66ffb1b6538717a32e797c83d235747120c2770e00add",
    "triangle": "7a135b63969e522404f52dfc2880b8d880e61fd7ce2bdb398bf6757683949582",
}


@pytest.mark.parametrize("name", sorted(_frame_families()))
def test_a_read_or_moved_base_gets_its_own_frame(name):
    f = _frame_families()[name]
    doc = certificate_to_json(auto_pierce(f, refine=True), f)
    assert hashlib.sha256(dump(doc).encode()).hexdigest() == _FRAME_CERTIFICATES[name]
    reads = [family_from_json(json.loads(dump(family_to_json(f)))) for _ in range(2)]
    for g in reads:
        assert dump(certificate_to_json(auto_pierce(g, refine=True), g)) == dump(doc)
    assert len({id(g.base.frame) for g in reads + [f]}) == 3
    assert reads[0].base.frame.key == reads[1].base.frame.key == f.base.frame.key
    moved = f.base.scale_translate(2, f.realize(0).reference_point)
    assert moved.frame is not f.base.frame and moved.frame.key != f.base.frame.key
