import ast
from fractions import Fraction as F
import hashlib
import json
import math
from pathlib import Path
import random
import re

from hypothesis import given, settings, strategies as st
import pytest

from piercing import jsonio
from piercing.bodies import (
    BoxBody,
    DiskBody,
    Family,
    Member,
    PolygonBody,
    intersection_graph,
    member_boxes,
)
from piercing.certificates import (
    PierceCertificate,
    _check_members,
    _floor_root,
    dedupe_points,
    value_key,
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
from piercing.radicals import RadPoint, Radical
from piercing.translates import greedy_pierce
from reference import call_budget, graphs_equal, intersection_graph_bruteforce


def _prime_family(n, seed):
    """Disk translates with prime denominators: D is far over the int limit,
    so the scaled columns are Fractions."""
    primes = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]
    rng = random.Random(seed)
    members = [Member(Point(F(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(primes)),
                            F(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(primes))))
               for _ in range(n)]
    f = Family(DiskBody(Point(F(1, 3), F(-2, 7)), F(5, 4)), members)
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
    g = Family(f.base, f.members)
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
                                 [p for p in cert.points if not body.contains(p)],
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
    # a Point takes the fast path; a RadPoint and a box tuple of the same
    # value take the general one
    got = value_key(Point(x, y), scale)
    for other in (RadPoint(x, y), RadPoint(Radical({1: x} if x else {}), y), (x, y)):
        want = value_key(other, scale)
        assert got == want and hash(got) == hash(want)
    assert dedupe_points([Point(x, y), RadPoint(x, y), (x, y)]) == [Point(x, y)]


def _explicit_file(tmp_path, f, points):
    path = tmp_path / "cert.json"
    cert = PierceCertificate("greedy", 4, points, [(0, tuple(range(len(f))))], [0])
    jsonio.dump(jsonio.certificate_to_json(cert, f), str(path))
    return str(path)


def test_point_with_two_radicands_is_tested_on_the_realized_disk(tmp_path):
    # a hand-written point with x in Q(sqrt 2) and y in Q(sqrt 3) has no int
    # form: verify falls back to the realized disk's Radical test
    f = Family(unit_disk(), [Member(Point(0, 0))])
    inside = RadPoint(Radical.sqrt(2) * F(1, 2), Radical.sqrt(3) * F(2, 5))  # |p|^2 = 0.98
    outside = RadPoint(Radical.sqrt(2) * F(1, 2), Radical.sqrt(3) * F(41, 100))  # 1.0043
    assert main(["verify", _explicit_file(tmp_path, f, [inside])]) == 0
    assert main(["verify", _explicit_file(tmp_path, f, [outside])]) == 1
    g = Family(f.base, f.members)
    assert PierceCertificate("greedy", 4, [inside], [(0, (0,))], [0]).verify(g)
    assert g._realized[0] is not None


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
    # scales 1-2 with members 5, 400 and 10^4 times larger; the points are
    # member vertices or corners (on a boundary) and random points
    rng = random.Random(11)
    f = random_family(base(), 40, box_size=12, kind="homothets", scale_range=(1, 2), seed=12)
    cols = [col + [F(rng.randrange(-4 * s, 48), 4) for s in (5, 400, 10 ** 4)]
            for col in f.columns]
    f = Family.from_columns(f.base, cols, f.scales + [F(5), F(400), F(10 ** 4)], "homothets")
    make = tuple if f.base.kind == "box" else (lambda xy: Point(*xy))
    points = []
    for _ in range(12):
        body = f.realize(rng.randrange(len(f)))
        if body.kind == "polygon":
            points.append(rng.choice(body.polygon.vertices))
        elif body.kind == "box":
            points.append(body.mins)
        else:
            points.append(Point(body.center.x, body.top()))
        points.append(make([F(rng.randrange(-40, 200), 8) for _ in range(2)]))
    held = [any(f.realize(i).contains(p) for p in points) for i in range(len(f))]
    assert 3 < sum(held) < len(f) - 3
    covered = [i for i in range(len(f)) if held[i]]
    _check_members(f, covered, points)
    for i in range(len(f)):
        if not held[i]:
            with pytest.raises(VerificationFailed, match="member %d contains" % i):
                _check_members(f, covered + [i], points)


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
                            [p for p in cert.points if not body.contains(p)],
                            cert.clusters, cert.witness)
    with pytest.raises(VerificationFailed, match="contains no piercing point"):
        cut.verify(f)


def test_certificates_module_has_no_float():
    # the verifier decides and prunes on ints: no float literal, no float()
    # and no math.sqrt may come back into certificates.py
    path = Path(__file__).parents[1] / "src" / "piercing" / "certificates.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append("float literal")
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append("float")
        elif isinstance(node, ast.Attribute) and node.attr == "sqrt" \
                and isinstance(node.value, ast.Name) and node.value.id == "math":
            found.append("math.sqrt")
        elif isinstance(node, ast.ImportFrom) and node.module == "math" \
                and any(a.name == "sqrt" for a in node.names):
            found.append("from math import sqrt")
        if found:
            pytest.fail("%s at line %d" % (found[0], node.lineno))


_PENTAGON = PolygonBody(ConvexPolygon([Point(0, 0), Point(4, 0), Point(5, 3), Point(2, 5),
                                       Point(-1, 2)]))

def _indented(text):
    """A written document re-rendered with indent=2, the layout the corpus
    digests were first taken on: equal digests mean equal documents, key
    order and values included, whatever whitespace dump writes."""
    return json.dumps(json.loads(text), indent=2)


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
     "60e5aead3dfffe870219958ec4da2fc381eab4a2023b768f20e557289469d9c0"),
    (lambda: _PENTAGON, 200, 40, (1, 3), 14,
     "8eb5217c229def68b588707337f77f0959c009ac0809b986f2fd7b32b28cd078"),
    (unit_disk, 200, 40, (1, 3), 15,
     "0f098fa5c26c3f9a79cdece83dfde829c8fbc87e5ff15f2a977604d34aaa41f2"),
    (lambda: BoxBody((0, 0), (1, 1)), 200, 20, (1, 3), 16,
     "b798e341dfe8bd4435b21f9a758c44f126406d9bdd3cedaea6d63b45beb91e86"),
    (lambda: BoxBody((0, F(1, 2), 0), (1, F(3, 2), F(2, 3))), 200, 20, (1, 3), 17,
     "476f72ab92c69f35b814753c9f69908becd5e86517e9eaa41f6531e9b24ea4ae"),
    # the triangle-homothets-2.5k benchmark instance at seed 1
    (unit_triangle, 2500, 100, (1, 2), 1,
     "a89ce9bec6f8c3f0d8cfdd02f8442b5722f42add7ee6e45e137a9d6622abab4a"),
]


@pytest.mark.parametrize("base, n, box, scales, seed, digest", _CORPUS)
def test_homothet_certificates_are_byte_identical(base, n, box, scales, seed, digest):
    f = random_family(base(), n, box_size=box, kind="homothets", scale_range=scales, seed=seed)
    text = _expanded_text(greedy_pierce_homothets(f), f)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
     "4567ca2793c26b9c44e056c9cfc606e3602745623d7d941abc73725e577b5fb6"),
    ("triangle", 1000, 30, 22,
     "7901227c962f287c2210ccd158f532976c80e0bf47f206790c25435d9bd05ed6"),
    ("skewed-a", 12, 4, 23,
     "bbd25fd7a1cad9c01f64a93b7ed4e6245280f82a1be61e7167347b9ed436a881"),
    ("skewed-a", 1000, 30, 24,
     "b1145619e2db5232343cc411f749f76a6681b082d8fc1d25c47b201299fa1526"),
    ("skewed-b", 12, 4, 25,
     "8567b34e621009940fe2449e186355e51b5d4c226f87eb8f919cb009bd3118d3"),
    ("skewed-b", 1000, 30, 26,
     "892aefcb3a2aa196ea3f0222128ccb2e9c3d53802cde697ab46eb86417ccde8b"),
    ("square", 12, 4, 27,
     "e50459fcb0478f63425e8b1b2516e881d52c1ada5fb02124ef88f9b80794bc61"),
    ("square", 1000, 30, 28,
     "10761a98f15e10ac0b60f2767a836a7d92c90e99be6740052e5cb1153c69e791"),
    ("hexagon", 12, 4, 29,
     "1c05a6c6875b7d19103b53eb77fcadd9ec529aa5b8ab7a7c4f4569ef846d714a"),
    ("hexagon", 1000, 60, 30,
     "4b147768d754edf5b7e2875a04ee873ebe8b0c1cc8e22fce46c18a9820a0c560"),
    ("disk", 12, 4, 31,
     "91bfa4a537781d8c86d96cf349b6c1eef1c2638618195466ef93f9777c7b4668"),
    ("disk", 1000, 40, 32,
     "f308a3fd7042d1b0ba8533d210a085278658dc34aa7e43a6d9051da2797a0488"),
    ("off-centre disk", 12, 4, 33,
     "f474ed35b49e9a3649440d945bba23f94c1a317613b1dfd2f1e371a8647a1ece"),
    ("off-centre disk", 1000, 20, 34,
     "f1b69bf7ab162d4bf6add96ebf74630eee501ffb732657a89065020f2e2c61e3"),
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
    text = _expanded_text(greedy_pierce(f), f)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _corpus_family(corpus, case):
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


# the same for cli.auto_pierce with an explicit method; "pairwise" families
# make hexagon_pierce take its two-point branch
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
     "e1e47ce412f9005cce8accdd92110e460e2877f30dd3aaa4b75a1f31ed026e95"),
    ("lattice", "hexagon", 12, 8, 49,
     "d41c76f6764c126a42c512244fd0d1bef2a9df46dd2c4312dc290a39c258073a"),
]


@pytest.mark.parametrize("method, base, n, box, seed, digest", _METHOD_CORPUS)
def test_method_certificates_are_byte_identical(method, base, n, box, seed, digest):
    if base == "pairwise":
        f = pairwise_intersecting_family(hexagon_body(), n, seed=seed)
    else:
        body = _PENTAGON if base == "pentagon" else _TRANSLATE_BASES[base]()
        f = random_family(body, n, box_size=box, seed=seed)
    cert = auto_pierce(f, method=method)
    text = _indented(jsonio.dump(jsonio.certificate_to_json(cert, f)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
