import ast
from fractions import Fraction as F
import hashlib
import json
import math
from pathlib import Path
import random
import re
import tracemalloc

from hypothesis import given, settings, strategies as st
import pytest

from piercing import certificates, covers, jsonio
from piercing.bodies import (
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    int_point,
    intersection_graph,
    member_boxes,
    membership,
)
from piercing.certificates import (
    PierceCertificate,
    _cell_key,
    _check_members,
    _floor_root,
)
from piercing.cli import auto_pierce, main
from piercing.errors import VerificationFailed
from piercing.generators import (
    hexagon_body,
    pairwise_intersecting_family,
    random_family,
    unit_disk,
    unit_square,
    unit_triangle,
)
from piercing.geom import ConvexPolygon, Point
from piercing.homothets import greedy_pierce_homothets
from piercing.radicals import RadPoint
from piercing.translates import greedy_pierce, grid_pierce, hexagon_pierce, lattice_pierce
from reference import (
    Radical,
    _placed,
    body_contains,
    call_budget,
    dedupe_points,
    document_members,
    family_of_columns,
    fraction_columns,
    graphs_equal,
    intersection_graph_bruteforce,
    members,
    members_document,
    rad_point,
    recheck,
    spelled_out,
    tuple_key_count,
    value_key,
)


def _prime_family(n, seed, kind="translates", reach=10 ** 6, base=None):
    """Translates (or homothets, scales 1 to 3) of base, a disk by default,
    with prime denominators near 1000 and numerators below reach: D is far
    over the int limit, so the scaled columns are Fractions."""
    primes = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]
    rng = random.Random(seed)

    def member():
        t = Point(F(rng.randrange(-reach, reach), rng.choice(primes)),
                  F(rng.randrange(-reach, reach), rng.choice(primes)))
        if kind == "translates":
            return Member(t)
        q = rng.choice(primes)
        return Member(t, F(rng.randrange(q, 3 * q), q))

    f = Family(base or DiskBody(Point(F(1, 3), F(-2, 7)), F(5, 4)), [member() for _ in range(n)],
               kind)
    assert not isinstance(f.scaled_translations()[1][0][0], int)
    return f


def _assert_boxes_scale_the_realized_bbox(f):
    indices = random.Random(0).sample(range(len(f)), min(50, len(f)))
    scale, boxes = member_boxes(f, indices)
    for i, (lo, hi) in zip(indices, boxes):
        bbox = f.realize(i).bbox()
        assert lo == tuple(iv.lo * scale for iv in bbox)
        assert hi == tuple(iv.hi * scale for iv in bbox)
        # ints, or Fractions where the columns are Fractions
        assert {type(v) for v in lo + hi} == {type(f.scaled_translations()[1][0][0])}


@pytest.mark.parametrize("make", [
    lambda: random_family(DiskBody(Point(F(1, 3), F(-2, 7)), F(5, 4)), 200, box_size=30, seed=1),
    lambda: random_family(unit_disk(), 200, box_size=30, kind="homothets", seed=2),
    lambda: _prime_family(60, 3),
])
def test_member_boxes_scale_the_realized_disk(make):
    _assert_boxes_scale_the_realized_bbox(make())


@pytest.mark.parametrize("make", [
    lambda: random_family(unit_triangle(), 200, box_size=30, seed=4),
    lambda: random_family(unit_triangle(), 200, box_size=30, kind="homothets", seed=5),
    lambda: Family(BoxBody((F(-1, 2), 0, 3), (2, F(1, 3), 1)),
                   [Member((F(i, 7), F(-i, 5), F(i, 3))) for i in range(40)]),
])
def test_member_boxes_scale_the_realized_bbox(make):
    _assert_boxes_scale_the_realized_bbox(make())


def test_verify_realizes_only_undecided_members():
    # every point of a greedy disk certificate lies in Q(sqrt 3)^2, which the
    # int disk test decides: no member is realized
    f = random_family(unit_disk(), 400, box_size=40, seed=6)
    cert = greedy_pierce(f, verify=False).explicit()
    g = Family(f.base, members(f))
    assert cert.verify(g)
    assert not any(body is not None for body in g._realized)


def test_verify_rejects_an_unpierced_member_on_every_path():
    for f in (random_family(unit_disk(), 100, box_size=20, seed=7),
              _prime_family(30, 8),
              random_family(unit_disk(), 100, box_size=20, kind="homothets", seed=9)):
        pierce = greedy_pierce if f.kind == "translates" else greedy_pierce_homothets
        cert = pierce(f, verify=False)
        body = f.realize(len(f) // 2)
        cert = PierceCertificate(cert.method, cert.factor,
                                 [p for p in cert.points if not body_contains(body, p)],
                                 cert.clusters, cert.witness)
        with pytest.raises(VerificationFailed, match="contains no piercing point"):
            cert.verify(f)


@pytest.mark.parametrize("clusters, message", [
    ([(0, (0, 1)), (2, (1, 2, 3))], "clusters overlap"),
    ([(0, (0,)), (2, (2, 3))], "clusters do not partition the family"),
    ([(0, (0, 1)), (2, (2, 3, 4))], "clusters do not partition the family"),
    # -1 must not stand for member 3
    ([(0, (0, 1)), (2, (2, -1))], "clusters do not partition the family"),
], ids=["overlap", "missing", "past-the-end", "negative"])
def test_verify_rejects_clusters_that_do_not_partition(clusters, message):
    f = Family(unit_square(), [Member(Point(3 * i, 0)) for i in range(4)])
    points = [Point(3 * i, 0) for i in range(4)]
    assert PierceCertificate("grid", 2, points, [(0, (0, 1)), (2, (2, 3))], [0, 2]).verify(f)
    with pytest.raises(VerificationFailed, match=message):
        PierceCertificate("grid", 2, points, clusters, [0, 2]).verify(f)


def test_symbolic_certificate_over_its_budget_fails(tmp_path, capsys):
    # without its masks, the homothet cover's 12 offsets at every seed: with
    # the factor edited to 11 the placed points exceed the budget, and so do
    # the distinct ones.  With its masks the same holds at the factor its
    # distinct points exceed
    f = random_family(unit_triangle(), 300, box_size=20, kind="homothets", seed=4)
    doc = jsonio.certificate_to_json(greedy_pierce_homothets(f, verify=False), f)
    assert doc["factor"] == 12
    masks = doc.pop("masks")
    path = tmp_path / "cert.json"
    for factor, extra in ((11, {}), (12, {"masks": masks}), (2, {"masks": masks})):
        jsonio.dump({**doc, "factor": factor, **extra}, str(path))
        capsys.readouterr()
        assert main(["verify", str(path)]) == (factor != 12)
        assert ("|points| exceeds factor * |witness|" in capsys.readouterr().err) == (factor != 12)


@pytest.mark.parametrize("over", [0, 1])
def test_explicit_certificate_over_its_budget_fails(tmp_path, capsys, over):
    f = random_family(unit_square(), 200, box_size=20, seed=5)
    cert = greedy_pierce(f, verify=False).explicit()
    budget = cert.factor * len(cert.witness)
    pad = [Point(1000 + k, 0) for k in range(budget + over - len(cert.points))]
    cert = PierceCertificate(cert.method, cert.factor, cert.points + pad, cert.clusters,
                             cert.witness)
    path = tmp_path / "cert.json"
    jsonio.dump(jsonio.certificate_to_json(cert, f), str(path))
    capsys.readouterr()
    assert main(["verify", str(path)]) == over
    assert ("|points| exceeds factor * |witness|" in capsys.readouterr().err) == bool(over)


def _common_point_family():
    """Two disjoint hexagon translates whose seeds' patterns share a point:
    the second is placed at o_a - o_b for two pattern offsets."""
    base = hexagon_body()
    offsets = certificates.translate_cluster_cover(base).offsets
    t = max((a - b for a in offsets for b in offsets), key=lambda v: (abs(v.x), abs(v.y)))
    f = Family(base, [Member(Point(0, 0)), Member(t)])
    assert not intersection_graph(f)[0]
    return f


_COUNT_CASES = {
    "disk translates": lambda: random_family(unit_disk(), 300, box_size=20, seed=4),
    "disk homothets": lambda: random_family(unit_disk(), 300, box_size=20, kind="homothets",
                                            seed=4),
    "triangle homothets": lambda: random_family(unit_triangle(), 300, box_size=20,
                                                kind="homothets", seed=4),
    "square homothets": lambda: random_family(unit_square(), 300, box_size=20,
                                              kind="homothets", seed=4),
    "3-d boxes": lambda: random_family(BoxBody((0, F(1, 2), 0), (1, F(3, 2), F(2, 3))), 300,
                                       box_size=6, seed=4),
    "prime disk homothets": lambda: _prime_family(200, 51, "homothets", 10 ** 4),
    "prime disk translates": lambda: _prime_family(200, 52, reach=10 ** 4),
    "two seeds share a point": _common_point_family,
    "refine repeats a pattern point": lambda: random_family(
        unit_triangle(), 12, box_size=4, kind="homothets", seed=142),
}


def _full(cert):
    """A symbolic certificate with every mask full: the one the greedy
    wrote before it kept masks."""
    return PierceCertificate(cert.method, cert.factor, None, cert.clusters, cert.witness,
                             family=cert.family, extra=cert.extra)


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("case", sorted(_COUNT_CASES))
def test_packed_count_equals_the_tuple_key_count(case, refine):
    # one packed int per placed point counts as per-seed value_key tuples
    # do, and as deduplicating the expanded points does, with the masks the
    # greedy keeps and with every mask full
    f = _COUNT_CASES[case]()
    masked = auto_pierce(f, method="greedy", refine=refine, verify=False)
    assert (masked.masks is None) == (f.base.kind == "disk")
    for cert in (masked, _full(masked)):
        count = cert.point_count()
        assert count == tuple_key_count(cert, f) == len(dedupe_points(cert.points))
        assert len(cert.points) == count
        placed, key, point = certificates._packed_keys(
            f, certificates.greedy_pattern(f, cert.method).offsets, cert._pattern_seeds(),
            cert.masks)
        assert count == len(set(placed) | set(map(key, cert.extra)))
        # decoding a key gives the point whose key it is, whatever its type
        assert all(key(point(k)) == k for k in placed[:50])
        if f.base.kind != "box":
            assert all(key(RadPoint(*int_point(point(k)))) == k for k in placed[:50])
        if f.base.kind == "disk":  # each radical point written over 12 = 2^2 3 instead of 3
            assert all(key(RadPoint(2 * p.q, 12, [2 * a for a in p.A], p.B)) == k
                       for k, p in zip(placed[:50], map(point, placed)) if p.B)
    # the last pass places every offset
    if case == "two seeds share a point" and not refine:
        assert len(cert.clusters) == 2 and len(set(placed)) == len(placed) - 1
    if case.startswith("refine") and refine:
        assert [key(p) in set(placed) for p in cert.extra] == [True]
        assert count == len(set(placed))


def test_fraction_columns_count_points_without_a_common_denominator():
    # 2,000 disk translates whose x-coordinates have distinct 17-bit prime
    # denominators: their lcm has about 34,000 bits, and keys scaled by it
    # made point_count() hold tens of MB of ints; per-seed Fraction keys
    # need no common denominator
    sieve = bytearray([1]) * (1 << 17)
    for p in range(2, 1 << 9):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, 1 << 17, p)))
    primes = [p for p in range(1 << 16, 1 << 17) if sieve[p]][:2000]
    rng = random.Random(17)
    f = Family(unit_disk(), [Member(Point(F(rng.randrange(150 * q), q), rng.randrange(150)))
                             for q in primes])
    assert isinstance(f.scaled_translations()[1][0][0], F)
    cert = greedy_pierce(f, verify=False)
    tracemalloc.start()
    try:
        count = cert.point_count()
        points = cert.points
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8_000_000
    assert count == len(points) == tuple_key_count(cert, f) == len(dedupe_points(points))
    assert cert.verify(f)


@pytest.mark.parametrize("base, kind", [(unit_disk, "translates"), (unit_triangle, "homothets")])
def test_verify_counts_no_point_within_the_bound(monkeypatch, base, kind):
    # a greedy certificate places at most as many points per seed as its
    # factor, so the budget holds before any point is counted
    f = random_family(base(), 300, box_size=20, kind=kind, seed=4)
    cert = auto_pierce(f, verify=False)
    calls = []
    packed_keys = certificates._packed_keys

    def counted(*args):
        calls.append(args)
        return packed_keys(*args)

    monkeypatch.setattr(certificates, "_packed_keys", counted)
    assert cert.verify(f) and calls == []
    assert cert.point_count() == len(cert.points) and calls
    # the bound verify checks is the number of points placed before dedupe
    offsets = certificates.greedy_pattern(f, cert.method).offsets
    keys, _, _ = packed_keys(f, offsets, cert._pattern_seeds(), cert.masks)
    assert cert._verify_clusters(f) == len(keys) + len(cert.extra) >= len(cert.points)


def test_triangle_translate_verify_builds_the_seed_columns_once(tmp_path, monkeypatch, capsys):
    # only the cluster lemma reads the rank column; the method check and the
    # point count take the pattern alone (greedy_pattern)
    f = random_family(unit_triangle(), 300, box_size=20, seed=4)
    path = tmp_path / "cert.json"
    jsonio.dump(jsonio.certificate_to_json(greedy_pierce(f, verify=False), f), str(path))
    calls, seed_columns = [], certificates.seed_columns
    monkeypatch.setattr(certificates, "seed_columns", lambda g: calls.append(g) or seed_columns(g))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out.startswith("certificate ok: ") and len(calls) == 1


_ROOT_BOUNDARY = st.tuples(st.integers(0, 10 ** 6), st.sampled_from([-1, 0, 1])).map(
    lambda kd: max(0, kd[0] * kd[0] + kd[1]))


@settings(max_examples=500, deadline=None)
@given(st.integers(-10 ** 6, 10 ** 6), st.one_of(st.integers(0, 10 ** 12), _ROOT_BOUNDARY))
def test_floor_root_matches_radical_bounds(b, m):
    # perfect squares, their neighbours and negative b included
    got = _floor_root(b, m)
    lo, hi = Radical({m: F(b)})._bounds(128)
    assert math.floor(lo) <= got <= math.floor(hi)
    if math.floor(lo) != math.floor(hi):
        # b sqrt(m) is within 2^-100 of an integer, so it is that integer
        r = math.isqrt(b * b * m)
        assert r * r == b * b * m and got == (r if b >= 0 else -r)


_RATIONALS = st.one_of(st.just(F(0)), st.fractions(max_denominator=10 ** 6))


@settings(max_examples=300, deadline=None)
@given(_RATIONALS, _RATIONALS, st.one_of(st.just(1), st.integers(1, 10 ** 9)))
def test_point_value_key_matches_the_general_path(x, y, scale):
    # a Point, a RadPoint and a box tuple of the same value have one key,
    # a zero coordinate's Fraction(0) equal to the int 0 of a missing term
    got = value_key(Point(x, y), scale)
    for other in (rad_point(x, y), rad_point(Radical({1: x} if x else {}), y), (x, y)):
        want = value_key(other, scale)
        assert got == want and hash(got) == hash(want)
    assert dedupe_points([Point(x, y), rad_point(x, y), (x, y)]) == [Point(x, y)]


def _explicit_file(tmp_path, f, points):
    path = tmp_path / "cert.json"
    cert = PierceCertificate("greedy", 4, points, [(0, tuple(range(len(f))))], [0])
    jsonio.dump(jsonio.certificate_to_json(cert, f), str(path))
    return str(path)


def test_point_with_two_radicands_is_rejected(tmp_path, capsys):
    # a hand-written point with x in Q(sqrt 2) and y in Q(sqrt 3), or with x
    # in Q(sqrt 2, sqrt 3), has no int form (A + B sqrt(m)) / q: the file
    # is rejected whether or not the point lies in the disk
    f = Family(unit_disk(), [Member(Point(0, 0))])
    doc = jsonio.certificate_to_json(
        PierceCertificate("greedy", 4, [Point(0, 0)], [(0, (0,))], [0]), f)
    inside = {"x": [[2, "1/2"]], "y": [[3, "2/5"]]}  # |p|^2 = 0.98
    outside = {"x": [[2, "1/2"]], "y": [[3, "41/100"]]}  # 1.0043
    mixed = {"x": [[2, "1/2"], [3, "-1/2"]], "y": []}  # |p| = 0.159
    path = tmp_path / "cert.json"
    for p in (inside, outside, mixed):
        doc["points"] = [{"kind": "radical", **p}]
        jsonio.dump(doc, str(path))
        assert main(["verify", str(path)]) == 1
        assert "a point has more than one radicand" in capsys.readouterr().err
        with pytest.raises(VerificationFailed, match="more than one radicand"):
            jsonio.certificate_from_json(doc)
    # a malformed file is a parse error first, whatever its points
    doc["points"].append({"kind": "radical", "x": [[2.5, 1]], "y": []})
    jsonio.dump(doc, str(path))
    assert main(["verify", str(path)]) == 2


def test_explicit_points_count_once_per_value(tmp_path, capsys):
    # an explicit file counts its distinct points, as its symbolic form
    # does: a repeated point, or one written over another radicand, counts
    # once, and repeats alone never exceed the budget of 4
    f = Family(unit_disk(), [Member(Point(0, 0))])
    p = RadPoint(4, 2, (0, 1), (1, 0))  # (sqrt(2) / 4, 1 / 4)
    same = RadPoint(8, 8, (0, 2), (1, 0))  # sqrt(8) / 8 = sqrt(2) / 4
    for points, count in (([p, Point(0, 0), same, p], 2), ([p] * 5, 1)):
        assert main(["verify", _explicit_file(tmp_path, f, points)]) == 0
        assert capsys.readouterr().out == "certificate ok: %d points, witness 1, factor 4\n" % count
    f = random_family(unit_disk(), 60, box_size=6, seed=3)
    cert = auto_pierce(f, method="greedy", refine=True, verify=False)
    out = []
    for c in (cert, cert.explicit()):
        path = tmp_path / "cert.json"
        jsonio.dump(jsonio.certificate_to_json(c, f), str(path))
        assert main(["verify", str(path)]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


def test_irrational_point_is_decided_on_the_square_slabs():
    # a point in Q(sqrt 2)^2 is decided on the family's slabs by the signs
    # of u - q lo + v sqrt 2 and q hi - u - v sqrt 2: the verdicts of the
    # realized squares, with no member realized
    half_root2 = Radical.sqrt(2) * F(1, 2)
    f = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), 0)),
                               Member(Point(3, 3))])
    low = rad_point(half_root2, F(1, 2))  # in members 0 and 1
    high = rad_point(half_root2 + 3, half_root2 + 3)  # in member 2
    far = rad_point(half_root2 * 3, 0)  # in none
    assert PierceCertificate("explicit", 1, [low, high], [], [0, 2]).verify(f)
    with pytest.raises(VerificationFailed, match="member 2 contains no piercing point"):
        PierceCertificate("explicit", 1, [low, far], [], [0, 2]).verify(f)
    assert f._realized == {}
    test = membership(f, [int_point(p) for p in (low, high, far)])
    got = [[test(i)(k) for k in range(3)] for i in range(3)]
    assert got == [[body_contains(f.realize(i), p) for p in (low, high, far)] for i in range(3)]
    assert got == [[True, False, False], [True, False, False], [False, True, False]]


def test_verify_work_does_not_grow_with_a_member_scale(tmp_path):
    # five unit triangles and one member 10^6 times larger that holds them
    # all: its box meets 10^12 cells as wide as a unit member, but at most
    # 2^2 cells of its own scale class
    f = Family(unit_triangle(), [Member(Point(3 * k, 0)) for k in range(5)]
               + [Member(Point(-1, -1), 10 ** 6)], "homothets")
    points = [Point(3 * k + F(1, 3), F(1, 3)) for k in range(5)]
    path = tmp_path / "cert.json"
    cert = PierceCertificate("explicit", 1, points, [], range(5))
    jsonio.dump(jsonio.certificate_to_json(cert, f), str(path))
    assert path.stat().st_size < 600
    with call_budget(100_000):
        assert main(["verify", str(path)]) == 0


@pytest.mark.parametrize("base", [unit_triangle, unit_disk,
                                  lambda: BoxBody((0, F(1, 2)), (F(3, 2), 1))])
def test_check_members_matches_realized_membership_across_scale_classes(base):
    # the points are member vertices or corners (on a boundary) and random
    # points
    rng = random.Random(11)
    f = _scale_class_family(base(), rng)
    make = tuple if f.base.kind == "box" else (lambda xy: Point(*xy))
    points = []
    for _ in range(12):
        body = f.realize(rng.randrange(len(f)))
        if body.kind == "polygon":
            points.append(rng.choice(body.polygon.vertices))
        elif body.kind == "box":
            points.append(body.mins)
        else:
            points.append(Point(body.center.x, body.center.y + body.radius))
        points.append(make([F(rng.randrange(-40, 200), 8) for _ in range(2)]))
    held = [any(body_contains(f.realize(i), p) for p in points) for i in range(len(f))]
    assert 3 < sum(held) < len(f) - 3
    covered = [i for i in range(len(f)) if held[i]]
    _check_members(f, covered, points)
    for i in range(len(f)):
        if not held[i]:
            with pytest.raises(VerificationFailed, match="member %d contains" % i):
                _check_members(f, covered + [i], points)


def _scale_class_family(base, rng):
    """Homothets of base, 40 of scales 1-2 and members 5, 400 and 10^4
    times larger, in four scale classes."""
    f = random_family(base, 40, box_size=12, kind="homothets", scale_range=(1, 2), seed=12)
    cols, ss = fraction_columns(f)
    cols = [col + [F(rng.randrange(-4 * s, 48), 4) for s in (5, 400, 10 ** 4)] for col in cols]
    return family_of_columns(f.base, cols, ss + [F(5), F(400), F(10 ** 4)], "homothets")


@pytest.mark.parametrize("family", ["disk", "triangle", "prime disk", "prime triangle"])
def test_radical_points_match_realized_membership(family):
    # points within 10^-4 of a member's boundary, in Q(sqrt m)^2 for m = 2,
    # 3 or 5, filed by their exact cells in every scale class and decided
    # on ints: disk signs, or root signs against the slabs (Fraction bounds
    # for the prime families)
    rng = random.Random(13)
    base = unit_disk() if family.endswith("disk") else unit_triangle()
    if family.startswith("prime"):
        f = _prime_homothets(base, 60, 7)
    else:
        f = _scale_class_family(base, rng)
    # sqrt(m) less a close rational: each within 10^-4 of 0
    eps = [Radical.sqrt(2) - F(99, 70), Radical.sqrt(3) - F(97, 56), Radical.sqrt(5) - F(161, 72)]
    points = []
    for _ in range(24):
        body = f.realize(rng.randrange(len(f)))
        if body.kind == "polygon":
            q = rng.choice(body.polygon.vertices)
        else:
            q = Point(body.center.x, body.center.y + body.radius)
        e = rng.choice(eps)
        points.append(rad_point(e * rng.choice((-1, 1)) + q.x, e * rng.choice((-1, 1)) + q.y))
    assert all(int_point(p)[3] is not None for p in points)
    held = [any(body_contains(f.realize(i), p) for p in points) for i in range(len(f))]
    assert 3 < sum(held) < len(f) - 3
    covered = [i for i in range(len(f)) if held[i]]
    _check_members(f, covered, points)
    for i in range(len(f)):
        if not held[i]:
            with pytest.raises(VerificationFailed, match="member %d contains" % i):
                _check_members(f, covered + [i], points)


def test_point_near_a_cell_edge_is_filed_by_its_exact_floor():
    # the unit disk at (3, 0) has box [2, 4], the first of its cells of
    # width 2; with tiny = 99/70 - sqrt 2, about 7.2e-5, x = 2 - tiny lies
    # in the cell before the box and outside the disk, x = 2 + tiny in the
    # box's first cell and in the disk
    tiny = F(99, 70) - Radical.sqrt(2)
    f = Family(unit_disk(), [Member(Point(3, 0))])
    left, right = rad_point(2 - tiny, 0), rad_point(tiny + 2, 0)
    assert [_cell_key(int_point(p), 1, F(2)) for p in (left, right)] == [(0, 0), (1, 0)]
    _check_members(f, [0], [left, right])
    _check_members(f, [0], [rad_point(4 - tiny, 0)])
    for p in (left, rad_point(tiny + 4, 0)):
        with pytest.raises(VerificationFailed, match="member 0 contains no piercing point"):
            _check_members(f, [0], [p])


def _far_radical_file(tmp_path, n, moved=None):
    """An explicit certificate of n disjoint unit disks 4 apart with, listed
    in reverse, one point per member at x = 4 i + sqrt(2)/4 - 1/8, y = 0,
    or 1 further right for member moved, which then holds none."""
    f = Family(unit_disk(), [Member(Point(4 * i, 0)) for i in range(n)])
    off = Radical.sqrt(2) * F(1, 4) - F(1, 8)
    points = [rad_point(off + 4 * i + (i == moved), 0) for i in reversed(range(n))]
    path = tmp_path / "cert.json"
    cert = PierceCertificate("explicit", 1, points, [], range(n))
    jsonio.dump(jsonio.certificate_to_json(cert, f), str(path))
    return str(path)


def test_radical_points_verify_in_linear_work(tmp_path):
    # each point is filed in the one cell its exact floor gives, so a
    # member scans only the points near it: about 47,000 calls, where a
    # scan of every point by every member makes 160,000 tests
    path = _far_radical_file(tmp_path, 400)
    with call_budget(200_000):
        assert main(["verify", path]) == 0


def test_member_missing_its_radical_point_is_rejected(tmp_path, capsys):
    assert main(["verify", _far_radical_file(tmp_path, 40, moved=17)]) == 1
    assert "member 17 contains no piercing point" in capsys.readouterr().err


def test_verify_realizes_no_member_and_takes_no_radical_sign(monkeypatch):
    # every certificate kind, symbolic and explicit, is decided on the int
    # layer: inside verify no member is realized and no Radical sign or
    # enclosure is computed, radical points included
    made = []
    for base in (unit_disk(), unit_triangle(), unit_square(), BoxBody((0, 0), (1, 2))):
        f = random_family(base, 40, box_size=8, seed=21)
        made.append((f, greedy_pierce(f, verify=False)))
    f = random_family(unit_disk(), 40, box_size=12, kind="homothets", seed=22)
    made.append((f, greedy_pierce_homothets(f, verify=False)))
    f = random_family(unit_triangle(), 30, box_size=8, seed=23)
    made.append((f, grid_pierce(f, verify=False)))
    f = pairwise_intersecting_family(hexagon_body(), 12, seed=24)
    made.append((f, hexagon_pierce(f, verify=False)))
    f = random_family(hexagon_body(), 30, box_size=12, seed=25)
    made.append((f, hexagon_pierce(f, verify=False)))
    f = random_family(hexagon_body(), 6, box_size=4, seed=26)
    made.append((f, lattice_pierce(f, verify=False)))
    half_root2 = Radical.sqrt(2) * F(1, 2)
    f = Family(unit_square(), [Member(Point(0, 0)), Member(Point(F(1, 2), 0)),
                               Member(Point(3, 3))])
    points = [rad_point(half_root2, F(1, 2)), rad_point(half_root2 + 3, half_root2 + 3)]
    made.append((f, PierceCertificate("explicit", 1, points, [], [0, 2])))
    f = Family(unit_disk(), [Member(Point(0, 0)), Member(Point(3, 0))])
    points = [rad_point(half_root2, half_root2 - 1), rad_point(3 - half_root2, half_root2)]
    made.append((f, PierceCertificate("explicit", 1, points, [], [0, 1])))
    made += [(f, cert.explicit()) for f, cert in made if cert.symbolic]
    assert {cert.method for _, cert in made} == {
        "greedy", "greedy-homothets", "grid", "hexagon", "hexagon-grid", "lattice", "explicit"}
    assert any(cert.symbolic and cert.extra for _, cert in made)

    def refused(name):
        def run(*args, **kwargs):
            raise AssertionError("verify used %s" % name)
        return run

    for cls, name in ((Family, "realize"), (Radical, "sign"), (Radical, "_bounds")):
        monkeypatch.setattr(cls, name, refused("%s.%s" % (cls.__name__, name)))
    for f, cert in made:
        assert cert.verify(f)


def _prime_homothets(base, n, seed):
    """Homothets with prime denominators: D is far over MAX_SCALE_BITS, so
    the member boxes hold Fractions."""
    primes = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]
    rng = random.Random(seed)

    def rational(span):
        q = rng.choice(primes)
        return F(rng.randrange(span * q), q)

    f = Family(base, [Member(Point(rational(12), rational(12)), 1 + rational(1))
                      for _ in range(n)], "homothets")
    assert f.scaled_translations()[0] == 1
    return f


@pytest.mark.parametrize("base", [unit_triangle, unit_disk])
def test_fraction_homothets_run_through_the_box_grid(base):
    f = _prime_homothets(base(), 80, 7)
    assert graphs_equal(intersection_graph(f), intersection_graph_bruteforce(f))
    cert = greedy_pierce_homothets(f)
    assert cert.explicit().verify(f)
    body = f.realize(len(f) // 2)
    cut = PierceCertificate(cert.method, cert.factor,
                            [p for p in cert.points if not body_contains(body, p)],
                            cert.clusters, cert.witness)
    with pytest.raises(VerificationFailed, match="contains no piercing point"):
        cut.verify(f)


def test_certificates_module_has_no_float():
    # the verifier decides and prunes on ints, and the disk patterns' cover
    # check on rational points and ints: no float literal, no float(), no math.sqrt,
    # atan2, sin or cos and no limit_denominator may come back into
    # certificates.py or circles.py
    for name in ("certificates.py", "circles.py"):
        path = Path(__file__).parents[1] / "src" / "piercing" / name
        for node in ast.walk(ast.parse(path.read_text())):
            found = None
            if isinstance(node, ast.Constant) and isinstance(node.value, float):
                found = "float literal"
            elif isinstance(node, ast.Name) and node.id == "float":
                found = "float"
            elif isinstance(node, ast.Attribute) and node.attr == "limit_denominator":
                found = "limit_denominator"
            elif isinstance(node, ast.Attribute) and node.attr in _FLOAT_MATH \
                    and isinstance(node.value, ast.Name) and node.value.id == "math":
                found = "math." + node.attr
            elif isinstance(node, ast.ImportFrom) and node.module == "math" \
                    and any(a.name in _FLOAT_MATH for a in node.names):
                found = "from math import"
            if found:
                pytest.fail("%s at %s line %d" % (found, name, node.lineno))


_FLOAT_MATH = {"sqrt", "atan2", "sin", "cos"}


_PENTAGON = PolygonBody(ConvexPolygon([Point(0, 0), Point(4, 0), Point(5, 3), Point(2, 5),
                                       Point(-1, 2)]))

def _indented(text):
    """A written certificate re-rendered with indent=2, every field the
    writer leaves out spelled out (reference.spelled_out) and its instance
    in the members form (reference.members_document), the layout the corpus
    digests were first taken on: equal digests mean equal documents, key
    order and values included, whatever whitespace, instance columns and
    left-out defaults dump writes."""
    doc = spelled_out(json.loads(text))
    doc["instance"] = members_document(doc["instance"])
    return json.dumps(doc, indent=2)


def _expanded_text(cert, f):
    """The explicit certificate file of a greedy certificate, by way of its
    symbolic file: written, read back, verified and expanded."""
    doc = json.loads(jsonio.dump(jsonio.certificate_to_json(cert, f)))
    assert "points" not in doc
    back, g = jsonio.certificate_from_json(doc)
    assert back.verify(g)
    return _indented(jsonio.dump(jsonio.certificate_to_json(back.explicit(), g)))


# sha256 of the explicit certificate document (_expanded_text) of
# greedy_pierce_homothets with its defaults; a change to the kernel, the
# order or the patterns that moves one byte of a certificate shows up here
_CORPUS = [
    (unit_triangle, 200, 40, (1, 3), 11,
     "eb2a116ca22c8e392f81ef7f3ccc81bba8e37bcf660c1fbad002fca324254d4b"),
    (unit_square, 200, 40, (1, 3), 12,
     "1c01932fb6298df0620c92bfbccf7a332da95b374416b12a6abbef67559e5eaf"),
    (hexagon_body, 200, 40, (1, 3), 13,
     "1923e3ddccec7b223cf8da1173dab3b5274bbe98b68309874ee71a74135470fc"),
    (lambda: _PENTAGON, 200, 40, (1, 3), 14,
     "016d4d7a5fc7c91104ec1aa9a3f5f199d7803f9e87f6d78c137f49a4f89daaba"),
    (unit_disk, 200, 40, (1, 3), 15,
     "8f7cf2c9a229a0027ca124d651794e91715ea563f299df3ed256863566a287ac"),
    (lambda: BoxBody((0, 0), (1, 1)), 200, 20, (1, 3), 16,
     "b798e341dfe8bd4435b21f9a758c44f126406d9bdd3cedaea6d63b45beb91e86"),
    (lambda: BoxBody((0, F(1, 2), 0), (1, F(3, 2), F(2, 3))), 200, 20, (1, 3), 17,
     "476f72ab92c69f35b814753c9f69908becd5e86517e9eaa41f6531e9b24ea4ae"),
    # the triangle-homothets-2.5k benchmark instance at seed 1
    (unit_triangle, 2500, 100, (1, 2), 1,
     "a89ce9bec6f8c3f0d8cfdd02f8442b5722f42add7ee6e45e137a9d6622abab4a"),
]


# sha256 of the expanded text of the certificate with its masks, keyed by
# the digest above, which is that of the same certificate with every mask
# full (_full): the file written before the greedy kept masks, with the same
# clusters, witness and refine points.  A disk certificate has no masks,
# and its one digest holds
_MASKED = {
    # homothets
    "eb2a116ca22c8e392f81ef7f3ccc81bba8e37bcf660c1fbad002fca324254d4b":
        "c03d7d3c543b6cbd7d5202f08cf183c0faea19c24e7f4e29cc2f1f7462e3471c",
    "1c01932fb6298df0620c92bfbccf7a332da95b374416b12a6abbef67559e5eaf":
        "882b59ed6d97ac645be6f4a67a942ae64a8f7b9094c76f673e7ebda9acfb5220",
    "1923e3ddccec7b223cf8da1173dab3b5274bbe98b68309874ee71a74135470fc":
        "c8b5c5b8ed0c700a9169afa523143905c2823032f6a01703c17449c4b37fdfc2",
    "016d4d7a5fc7c91104ec1aa9a3f5f199d7803f9e87f6d78c137f49a4f89daaba":
        "b4c9a866348e648e981e9f69a773baac5b93e92b6a74c5e1921a5bc3deefe6f2",
    "b798e341dfe8bd4435b21f9a758c44f126406d9bdd3cedaea6d63b45beb91e86":
        "37ce48ac433d900adcd8066f523544c57ceb7d8cd66d3ca6fc86f185f2822df5",
    "476f72ab92c69f35b814753c9f69908becd5e86517e9eaa41f6531e9b24ea4ae":
        "2982ab7e72376d3e91f370c3ff6c52020d87ec071e97e7567cbef189f19ceb1c",
    "a89ce9bec6f8c3f0d8cfdd02f8442b5722f42add7ee6e45e137a9d6622abab4a":
        "6e909d638dd685a08c942da58075a006512a0565e831a243c69780ccb422f22b",
    # translates
    "62a757d4e12f430347e61bffba4a98ecccb13eae843b14d96a3e791fb9816540":
        "7df24a99965fa5e55c05ad8b6f7bd5d1339bc0a1c082819abfb74adacbe31b15",
    "7901227c962f287c2210ccd158f532976c80e0bf47f206790c25435d9bd05ed6":
        "4f4447ffd4c8534b7863435fc5df45ee09c82e3ce5192043c7e03085324ee929",
    "bbd25fd7a1cad9c01f64a93b7ed4e6245280f82a1be61e7167347b9ed436a881":
        "2ec7050fe4e574cc093b21224a51fd03bc31d9dccdc838af9af1c004b6deda9b",
    "b1145619e2db5232343cc411f749f76a6681b082d8fc1d25c47b201299fa1526":
        "c9f979406db79a5d0cbd34ecd935461f4f61f48a6bfa91e6ca36e3709cf38737",
    "8567b34e621009940fe2449e186355e51b5d4c226f87eb8f919cb009bd3118d3":
        "e5541486c1fa481725414ecf974973c048e2405f925def63bb0255b18459f20b",
    "2f79805b0e1f599cf2dc06c327262785d887ba0df7227a8247ee1701759857f4":
        "bb026f6408245cf70eaf6c551ccc88bb8236521627e1093cb86ac58623a12372",
    "e50459fcb0478f63425e8b1b2516e881d52c1ada5fb02124ef88f9b80794bc61":
        "e89afdf1fbafccb2bdf821e13819ba12ab2f203203095cf16336520309c7dc3b",
    "10761a98f15e10ac0b60f2767a836a7d92c90e99be6740052e5cb1153c69e791":
        "473935ef835c3024ebb3c1b0fe6963b35193d1683cec1888d405d8c745fe0e83",
    "806ce7384fb4b5455f7d68020748de4e49bed519462f00479b537261f3f7e52c":
        "cfeaff9f0881d9b74e91b29f9e6f145a423487ff864cc5402451cd6a9593efb5",
    "67ce70b3848f26d1b9fb90f8b02aa4dc58ece4b015459ba6405e928356d66147":
        "24b3b61b63fd23557f7988fa4389516082da4876ae59380c4b54f8e12bb3681a",
    "47c5bbe1d89fca7141a9e1d416bc06e94049163fce3ee8b726b2fbb64aba7582":
        "cf5dce26881a579f54a4a190680dabfd638cc11cddebed85c15f13305db3dad6",
    "c37590911dabaf57515ab678455b9ac9c3c2677e9cbcfb9d1d0543898d4df79e":
        "63b9aad53c301f22cc36f841209207cf6012539c893f18f445874c69984d84a9",
    "08f1ab9904fa36b4a8e6c4da54effe565b471c5530da7a7ae456d98b21b7f8bd":
        "e88a0dde7e4a19928434e4cae2bc838eb7d2704028144bf3aecd1748889fbdaf",
    # edge: refine repeats a pattern point
    "b09893d7f4bcb7f767026c4cc883ea20feb90d11ae4a81e7e2b5f44737421866":
        "743e8d75f71b79d81a414476bd1e476a3f906920210370dae86c0e6c5a9c24de",
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _assert_expanded_digests(cert, f, digest):
    """With every mask full the expanded text has the digest taken before
    masks; with its masks, the one _MASKED pins (the same when it has none)."""
    assert _sha256(_expanded_text(_full(cert), f)) == digest
    assert _sha256(_expanded_text(cert, f)) == _MASKED.get(digest, digest)


@pytest.mark.parametrize("base, n, box, scales, seed, digest", _CORPUS)
def test_homothet_certificates_are_byte_identical(base, n, box, scales, seed, digest):
    f = random_family(base(), n, box_size=box, kind="homothets", scale_range=scales, seed=seed)
    _assert_expanded_digests(greedy_pierce_homothets(f), f, digest)


_SKEWED_TRIANGLES = [
    PolygonBody(ConvexPolygon([Point(0, 0), Point(3, 1), Point(1, 2)])),
    PolygonBody(ConvexPolygon([Point(1, -1), Point(2, 1), Point(0, 2)])),
]
_TRANSLATE_BASES = {
    "triangle": unit_triangle,
    "skewed-a": lambda: _SKEWED_TRIANGLES[0],
    "skewed-b": lambda: _SKEWED_TRIANGLES[1],
    "square": unit_square,
    "hexagon": hexagon_body,
    "disk": unit_disk,
    "off-centre disk": lambda: DiskBody(Point(F(1, 3), F(-2, 5)), F(3, 7)),
    "box": lambda: BoxBody((0, 0), (1, 1)),
    "box-3d": lambda: BoxBody((0, F(1, 2), 0), (1, F(3, 2), F(2, 3))),
    "box-2d": lambda: BoxBody((F(1, 3), -1), (F(3, 2), F(2, 5))),
}

# sha256 of the explicit greedy_pierce certificate (defaults) of random_family(base,
# n, box_size, seed): at n = 12 in a box of 4 the oracle re-pierces the last
# cluster, at n = 1000 the pattern points dominate
_TRANSLATE_CORPUS = [
    ("triangle", 12, 4, 21,
     "62a757d4e12f430347e61bffba4a98ecccb13eae843b14d96a3e791fb9816540"),
    ("triangle", 1000, 30, 22,
     "7901227c962f287c2210ccd158f532976c80e0bf47f206790c25435d9bd05ed6"),
    ("skewed-a", 12, 4, 23,
     "bbd25fd7a1cad9c01f64a93b7ed4e6245280f82a1be61e7167347b9ed436a881"),
    ("skewed-a", 1000, 30, 24,
     "b1145619e2db5232343cc411f749f76a6681b082d8fc1d25c47b201299fa1526"),
    ("skewed-b", 12, 4, 25,
     "8567b34e621009940fe2449e186355e51b5d4c226f87eb8f919cb009bd3118d3"),
    ("skewed-b", 1000, 30, 26,
     "2f79805b0e1f599cf2dc06c327262785d887ba0df7227a8247ee1701759857f4"),
    ("square", 12, 4, 27,
     "e50459fcb0478f63425e8b1b2516e881d52c1ada5fb02124ef88f9b80794bc61"),
    ("square", 1000, 30, 28,
     "10761a98f15e10ac0b60f2767a836a7d92c90e99be6740052e5cb1153c69e791"),
    ("hexagon", 12, 4, 29,
     "d2c7dbe58a8daa82e6a22b997687a3168126f9463e9cce37c6f2152e61bef05e"),
    ("hexagon", 1000, 60, 30,
     "806ce7384fb4b5455f7d68020748de4e49bed519462f00479b537261f3f7e52c"),
    ("disk", 12, 4, 31,
     "2ddb85a66b259398cb7b7586562d104f5ff6475a96111fe36de5b08d98e7941f"),
    ("disk", 1000, 40, 32,
     "087d75bd3eb60ec66b1c66c7da48c5ba54656110d01d950bfdb4583c88d34471"),
    ("off-centre disk", 12, 4, 33,
     "c9055970547b52368073cc0d30b45c3c91abbe05b16fe2cbeddfde99abab3b5a"),
    ("off-centre disk", 1000, 20, 34,
     "cb3810365e9999350558cd83a9f0c3318800125680b7816e9953dbffaa9c2b9c"),
    ("box", 12, 4, 35,
     "67ce70b3848f26d1b9fb90f8b02aa4dc58ece4b015459ba6405e928356d66147"),
    ("box", 1000, 30, 36,
     "47c5bbe1d89fca7141a9e1d416bc06e94049163fce3ee8b726b2fbb64aba7582"),
    ("box-3d", 12, 4, 37,
     "c37590911dabaf57515ab678455b9ac9c3c2677e9cbcfb9d1d0543898d4df79e"),
    ("box-3d", 1000, 10, 38,
     "08f1ab9904fa36b4a8e6c4da54effe565b471c5530da7a7ae456d98b21b7f8bd"),
]


@pytest.mark.parametrize("base, n, box, seed, digest", _TRANSLATE_CORPUS)
def test_translate_certificates_are_byte_identical(base, n, box, seed, digest):
    f = random_family(_TRANSLATE_BASES[base](), n, box_size=box, seed=seed)
    _assert_expanded_digests(greedy_pierce(f), f, digest)


# the same for families the corpora above lack: disk members whose common
# denominator D is over MAX_SCALE_BITS (D = 1, Fraction columns), and one
# whose refine point repeats a point of the pattern
_EDGE_CORPUS = {
    "prime disk homothets": (lambda: _prime_family(200, 51, "homothets", 10 ** 4),
                             "19e3486f1985e88273fc1dcd993f4fb8a26e7d05765481ca2432ffc67cb59862"),
    "prime disk translates": (lambda: _prime_family(200, 52, reach=10 ** 4),
                              "5e169b724152d5555b49bb1bf2dfd1a18158e5bf813fd9a763e605d30f7039e8"),
    "refine repeats a pattern point": (
        lambda: random_family(unit_triangle(), 12, box_size=4, kind="homothets", seed=142),
        "b09893d7f4bcb7f767026c4cc883ea20feb90d11ae4a81e7e2b5f44737421866"),
}


@pytest.mark.parametrize("case", sorted(_EDGE_CORPUS))
def test_edge_certificates_are_byte_identical(case):
    make, digest = _EDGE_CORPUS[case]
    f = make()
    cert = auto_pierce(f, verify=False)
    if case.startswith("refine"):
        placed, key, _ = certificates._packed_keys(
            f, certificates.greedy_pattern(f, cert.method).offsets, cert._pattern_seeds())
        assert [key(p) in set(placed) for p in cert.extra] == [True]
    _assert_expanded_digests(cert, f, digest)


def _corpus_family(corpus, case):
    if corpus == "edge":
        return _EDGE_CORPUS[case][0]()
    if corpus == "homothets":
        base, n, box, scales, seed, _ = _CORPUS[case]
        return random_family(base(), n, box_size=box, kind="homothets", scale_range=scales,
                             seed=seed)
    base, n, box, seed, _ = _TRANSLATE_CORPUS[case]
    return random_family(_TRANSLATE_BASES[base](), n, box_size=box, seed=seed)


@pytest.mark.parametrize("corpus, case", [("homothets", k) for k in range(len(_CORPUS))]
                         + [("translates", k) for k in range(len(_TRANSLATE_CORPUS))])
def test_verify_prints_the_expanded_point_count(tmp_path, capsys, corpus, case):
    f = _corpus_family(corpus, case)
    cert = (greedy_pierce_homothets if corpus == "homothets" else greedy_pierce)(f, verify=False)
    path = tmp_path / "cert.json"
    jsonio.dump(jsonio.certificate_to_json(cert, f), str(path))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 0
    printed = int(re.search(r"ok: (\d+) points", capsys.readouterr().out).group(1))
    assert printed == len(cert.points) == len(jsonio.certificate_from_json(
        jsonio.load(str(path)))[0].points)


@pytest.mark.parametrize("corpus, case", [("homothets", k) for k in range(len(_CORPUS))]
                         + [("translates", k) for k in range(len(_TRANSLATE_CORPUS))]
                         + [("edge", k) for k in sorted(_EDGE_CORPUS)])
def test_members_form_reads_to_the_written_columns(corpus, case):
    # the digests above hash the instance in the members form; it reads to
    # the same scaled columns as the columnar form the writer puts out
    f = _corpus_family(corpus, case)
    doc = json.loads(jsonio.dump(jsonio.family_to_json(f)))
    scaled = jsonio.family_from_json(doc).scaled_translations()
    assert jsonio.family_from_json(members_document(doc)).scaled_translations() == scaled
    assert scaled == f.scaled_translations()


# sha256 of the bytes `piercing pierce` writes (the symbolic certificate
# with its instance as columns, jsonio.dump) for one entry of each corpus,
# taken when the writer first left out what the reader assumes (bare
# rational points, no translates "kind", no anchor "reference_point", no
# empty "info"): the flat-cluster file before it, with those fields
# dropped, byte for byte
_WRITTEN_CORPUS = [
    ("homothets", 0, "657bf09b90e2a8b34dbe548b6387b809f04c3b0261559b75ad06f0acea1d21b7"),
    ("translates", 11, "94ad199d93a03542c1104103afb18d90446aac0b86dd97b0ef5fa929640063f0"),
]


# the same bytes with the masks the greedy keeps, keyed as _MASKED is: the
# file above with "masks" after "clusters"
_WRITTEN_MASKED = {
    "657bf09b90e2a8b34dbe548b6387b809f04c3b0261559b75ad06f0acea1d21b7":
        "b4f7659584c2cb2e72bf08098062280f5d6f51f57bc131bfdcc8beb3b21b8fe0",
}


@pytest.mark.parametrize("corpus, case, digest", _WRITTEN_CORPUS)
def test_written_certificates_are_byte_identical(corpus, case, digest):
    f = _corpus_family(corpus, case)
    cert = (greedy_pierce_homothets if corpus == "homothets" else greedy_pierce)(f, verify=False)
    full = jsonio.dump(jsonio.certificate_to_json(_full(cert), f))
    assert _sha256(full) == digest
    doc = jsonio.certificate_to_json(cert, f)
    text = jsonio.dump(doc)
    assert _sha256(text) == _WRITTEN_MASKED.get(digest, digest)
    keys = list(doc)
    assert keys[keys.index("clusters") + 1] == "masks" if cert.masks else "masks" not in doc
    doc.pop("masks", None)
    assert jsonio.dump(doc) == full


# the same for cli.auto_pierce with an explicit method; "pairwise" families
# make hexagon_pierce take its two-point branch, and "prime-pentagon" is
# _prime_family's pentagon translates (D = 1, Fraction columns) with
# coordinates within about box / 2 of the origin
_METHOD_CORPUS = [
    ("grid", "square", 200, 20, 41,
     "9a6c167b941fee74c7436b057eff8f3fa264404d8befcafe1063c42dfdd4e7c1"),
    ("grid", "pentagon", 200, 40, 42,
     "596cadd8aead15ccc01e0309fcc40efa432b127b80550164f4afe60b157792c1"),
    ("grid", "box-3d", 200, 8, 43,
     "92922af8ad76b476ebd83624dd8a3a5b97f5255a735e6efe9b3d5ed2bdceea2b"),
    ("grid", "box-2d", 300, 12, 47,
     "11954bf95b25b016e2cc42fccc713cc5812f8e65f38671b97b10f7519e4798ad"),
    # 40 lines of about 50 squares each: the grid's line filter matters
    ("grid", "square", 2000, 40, 48,
     "bf7bf6c62ac3a88211f7e7b4713f9d2d914a13668577cc05a978eaa91639be6f"),
    ("hexagon", "hexagon", 200, 60, 44,
     "9d7f43d3a8c704d9cc41abe01368091d508e9b863ea0828f5a8b8d305dbbec0c"),
    ("hexagon", "pairwise", 12, None, 45,
     "c409e83a4df23ec2c42f38ccbc088080fca644a043926a1f1830942eb9759891"),
    ("lattice", "hexagon", 9, 6, 46,
     "c06eb047be55437f6f1e48864c5a15bfd7ae7bfa2e1a502cdbfdee83d6214e30"),
    ("lattice", "hexagon", 12, 8, 49,
     "f91d3277e5b52e0bf9e7b16960c0358540f5bb4cddab63190e6d77b702745c84"),
    ("grid", "prime-pentagon", 200, 40, 50,
     "aca4bc09ea15a9ef8296788e83a983cead17ff75565299e19af86d07f1d0590e"),
]


@pytest.mark.parametrize("method, base, n, box, seed, digest", _METHOD_CORPUS)
def test_method_certificates_are_byte_identical(method, base, n, box, seed, digest):
    if base == "pairwise":
        f = pairwise_intersecting_family(hexagon_body(), n, seed=seed)
    elif base == "prime-pentagon":
        f = _prime_family(n, seed, reach=500 * box, base=_PENTAGON)
    else:
        body = _PENTAGON if base == "pentagon" else _TRANSLATE_BASES[base]()
        f = random_family(body, n, box_size=box, seed=seed)
    cert = auto_pierce(f, method=method)
    text = _indented(jsonio.dump(jsonio.certificate_to_json(cert, f)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_symbolic_certificate_built_through_the_api_is_checked_too():
    # the reader refuses such files before verify runs; a certificate built
    # in code meets the same checks as VerificationFailed
    f = random_family(unit_disk(), 6, box_size=4, seed=2)
    cert = PierceCertificate("greedy", 4, None, [], [], family=f, extra=[Point(0, 0)])
    with pytest.raises(VerificationFailed, match="refine points without a cluster"):
        cert.verify(f)
    g = random_family(_PENTAGON, 6, box_size=10, seed=2)
    cert = PierceCertificate("greedy", 4, None, [(0, range(6))], [0], family=g)
    with pytest.raises(VerificationFailed, match="neither centrally symmetric nor a triangle"):
        cert.verify(g)


# --- per-cluster offset masks -----------------------------------------------

_MASK_CASES = {
    "triangle homothets": lambda: random_family(unit_triangle(), 300, box_size=20,
                                                kind="homothets", seed=61),
    "square homothets": lambda: random_family(unit_square(), 300, box_size=20, kind="homothets",
                                              seed=62),
    "hexagon homothets": lambda: random_family(hexagon_body(), 200, box_size=20,
                                               kind="homothets", seed=63),
    "pentagon homothets": lambda: random_family(_PENTAGON, 150, box_size=40, kind="homothets",
                                                seed=64),
    "3-d box homothets": lambda: random_family(BoxBody((0, F(1, 2), 0), (1, F(3, 2), F(2, 3))),
                                               200, box_size=6, kind="homothets", seed=65),
    "triangle translates": lambda: random_family(unit_triangle(), 300, box_size=15, seed=66),
    "skewed translates": lambda: random_family(_SKEWED_TRIANGLES[1], 300, box_size=15, seed=67),
    "square translates": lambda: random_family(unit_square(), 300, box_size=15, seed=68),
    "2-d box translates": lambda: random_family(BoxBody((F(1, 3), -1), (F(3, 2), F(2, 5))), 300,
                                                box_size=10, seed=69),
    "3-d box translates": lambda: random_family(BoxBody((0, F(1, 2), 0), (1, F(3, 2), F(2, 3))),
                                                300, box_size=6, seed=70),
    "prime pentagon homothets": lambda: _prime_homothets(_PENTAGON, 60, 71),
    "prime triangle translates": lambda: _prime_family(80, 72, reach=3000, base=unit_triangle()),
}


@pytest.mark.parametrize("case", sorted(_MASK_CASES))
def test_masked_certificates_verify_and_only_drop_points(tmp_path, capsys, case):
    # every masked certificate verifies, through the API and its file, and
    # holds under the Fraction re-check; its points are points of the same
    # certificate with every mask full, and its factor is the pattern's size
    f = _MASK_CASES[case]()
    cert = auto_pierce(f, method="greedy", verify=False)
    full = _full(cert)
    pattern = certificates.greedy_pattern(f, cert.method)
    assert cert.masks and cert.factor == full.factor == pattern.size
    assert cert.verify(f)
    doc = json.loads(jsonio.dump(jsonio.certificate_to_json(cert, f)))
    assert len(doc["masks"]) == len(doc["clusters"]) - bool(doc["refine_points"])
    assert recheck(doc)
    path = tmp_path / "cert.json"
    jsonio.dump(doc, str(path))
    assert main(["verify", str(path)]) == 0
    assert capsys.readouterr().out == "certificate ok: %d points, witness %d, factor %d\n" % (
        len(cert.points), len(cert.witness), cert.factor)
    assert {value_key(p) for p in cert.points} <= {value_key(p) for p in full.points}
    placed = sum(m.bit_count() for m in cert.masks) + len(cert.extra)
    assert cert.point_count() <= placed == cert._verify_clusters(f)
    assert placed < full._verify_clusters(f) == pattern.size * len(cert.masks) + len(cert.extra)


def _masked_file(tmp_path):
    f = _MASK_CASES["triangle homothets"]()
    doc = json.loads(jsonio.dump(jsonio.certificate_to_json(
        greedy_pierce_homothets(f, verify=False), f)))
    return doc, tmp_path / "cert.json"


def test_cleared_mask_bit_that_leaves_a_member_unpierced_fails(tmp_path, capsys):
    # clear each bit of each multi-bit mask: the file verifies exactly when
    # every member of that cluster still holds one of its points left,
    # decided on the realized members in Fractions
    doc, path = _masked_file(tmp_path)
    base, _, ts, ss, bodies = document_members(doc["instance"])
    offsets = covers.homothet_cover(base).offsets
    verdicts = []
    for k, mask in enumerate(doc["masks"]):
        members = doc["clusters"][k]
        for b in range(mask.bit_length()):
            if mask >> b & 1 and mask != 1 << b:
                left = mask & ~(1 << b)
                points = _placed(base, [o for i, o in enumerate(offsets) if left >> i & 1],
                                 ss[members[0]], ts[members[0]])
                holds = all(any(body_contains(bodies[j], p) for p in points) for j in members)
                jsonio.dump({**doc, "masks": doc["masks"][:k] + [left] + doc["masks"][k + 1:]},
                            str(path))
                assert main(["verify", str(path)]) == (0 if holds else 1)
                assert ("holds no masked point of its seed" in capsys.readouterr().err) != holds
                verdicts.append(holds)
    assert verdicts.count(False) > 10 and True in verdicts


@pytest.mark.parametrize("edit", [
    lambda m: 3,
    lambda m: None,
    lambda m: m[:-1],
    lambda m: m + [1],
    lambda m: [0] + m[1:],
    lambda m: [-1] + m[1:],
    lambda m: [1 << 12] + m[1:],
    lambda m: [True] + m[1:],
    lambda m: ["1"] + m[1:],
    lambda m: [1.0] + m[1:],
], ids=["int", "null", "short", "long", "zero", "negative", "past-the-pattern", "bool", "string",
        "float"])
def test_malformed_masks_are_a_parse_error(tmp_path, capsys, edit):
    doc, path = _masked_file(tmp_path)
    jsonio.dump({**doc, "masks": edit(doc["masks"])}, str(path))
    assert main(["verify", str(path)]) == 2
    assert "parse error" in capsys.readouterr().err


def test_masks_of_a_disk_certificate(tmp_path, capsys):
    # a disk cluster keeps its whole pattern: full masks read as no masks,
    # and any other mask fails, as no slab decides a disk member
    f = random_family(unit_disk(), 40, box_size=6, seed=73)
    doc = json.loads(jsonio.dump(jsonio.certificate_to_json(greedy_pierce(f, verify=False), f)))
    assert "masks" not in doc
    path = tmp_path / "cert.json"
    count = len(doc["clusters"]) - bool(doc["refine_points"])
    lines = []
    for masks in (None, [15] * count, [1] + [15] * (count - 1)):
        jsonio.dump({**doc, "masks": masks} if masks else doc, str(path))
        lines.append((main(["verify", str(path)]), capsys.readouterr()))
    assert lines[0][0] == lines[1][0] == 0 and lines[0][1].out == lines[1][1].out
    assert lines[2][0] == 1 and "offset masks need a polygon or box base" in lines[2][1].err
