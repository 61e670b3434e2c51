from fractions import Fraction as F
import hashlib
import json
import random
import re

import pytest

from piercing import jsonio
from piercing.bodies import BoxBody, DiskBody, Family, Member, PolygonBody
from piercing.certificates import PierceCertificate, _float_coord, _float_members
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
from piercing.translates import greedy_pierce


def _prime_family(n, seed):
    """Disk translates with prime denominators: D is far over the int limit,
    so the float pass reads Fractions."""
    primes = [p for p in range(1000, 1300) if all(p % d for d in range(2, 37))]
    rng = random.Random(seed)
    members = [Member(Point(F(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(primes)),
                            F(rng.randrange(-10 ** 6, 10 ** 6), rng.choice(primes))))
               for _ in range(n)]
    f = Family(DiskBody(Point(F(1, 3), F(-2, 7)), F(5, 4)), members)
    assert not isinstance(f.scaled_translations()[1][0][0], int)
    return f


@pytest.mark.parametrize("make", [
    lambda: random_family(DiskBody(Point(F(1, 3), F(-2, 7)), F(5, 4)), 200, box_size=30, seed=1),
    lambda: random_family(unit_disk(), 200, box_size=30, kind="homothets", seed=2),
    lambda: _prime_family(60, 3),
])
def test_float_pass_is_the_rounded_realized_disk(make):
    f = make()
    indices = random.Random(0).sample(range(len(f)), 50)
    for i, (x, ex, y, ey, r) in zip(indices, _float_members(f, indices)):
        body = f.realize(i)
        assert (x, ex) == _float_coord(body.center.x)
        assert (y, ey) == _float_coord(body.center.y)
        assert r == _float_coord(body.radius)[0]


@pytest.mark.parametrize("make", [
    lambda: random_family(unit_triangle(), 200, box_size=30, seed=4),
    lambda: random_family(unit_triangle(), 200, box_size=30, kind="homothets", seed=5),
    lambda: Family(BoxBody((F(-1, 2), 0, 3), (2, F(1, 3), 1)),
                   [Member((F(i, 7), F(-i, 5), F(i, 3))) for i in range(40)]),
])
def test_float_pass_is_the_rounded_low_corner(make):
    f = make()
    indices = list(range(len(f)))
    for i, (x, _, y, _, s) in zip(indices, _float_members(f, indices)):
        lo = [iv.lo for iv in f.realize(i).bbox()[:2]]
        assert (x, y) == (_float_coord(lo[0])[0], _float_coord(lo[1])[0])
        assert s == float(f.members[i].s)


def test_verify_realizes_only_undecided_members():
    f = random_family(unit_disk(), 400, box_size=40, seed=6)
    cert = greedy_pierce(f, verify=False).explicit()
    g = Family(f.base, f.members)
    assert cert.verify(g)
    realized = sum(body is not None for body in g._realized)
    assert realized < len(g) // 4


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


_PENTAGON = PolygonBody(ConvexPolygon([Point(0, 0), Point(4, 0), Point(5, 3), Point(2, 5),
                                       Point(-1, 2)]))

def _expanded_text(cert, f):
    """The explicit certificate file of a greedy certificate, by way of its
    symbolic file: written, read back, verified and expanded."""
    doc = json.loads(jsonio.dump(jsonio.certificate_to_json(cert, f)))
    assert "points" not in doc
    back, g = jsonio.certificate_from_json(doc)
    assert back.verify(g)
    return jsonio.dump(jsonio.certificate_to_json(back.explicit(), g))


# sha256 of the explicit certificate file (_expanded_text) of
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
    ("hexagon", "hexagon", 200, 60, 44,
     "9d7f43d3a8c704d9cc41abe01368091d508e9b863ea0828f5a8b8d305dbbec0c"),
    ("hexagon", "pairwise", 12, None, 45,
     "c409e83a4df23ec2c42f38ccbc088080fca644a043926a1f1830942eb9759891"),
    ("lattice", "hexagon", 9, 6, 46,
     "e1e47ce412f9005cce8accdd92110e460e2877f30dd3aaa4b75a1f31ed026e95"),
]


@pytest.mark.parametrize("method, base, n, box, seed, digest", _METHOD_CORPUS)
def test_method_certificates_are_byte_identical(method, base, n, box, seed, digest):
    if base == "pairwise":
        f = pairwise_intersecting_family(hexagon_body(), n, seed=seed)
    else:
        body = _PENTAGON if base == "pentagon" else _TRANSLATE_BASES[base]()
        f = random_family(body, n, box_size=box, seed=seed)
    cert = auto_pierce(f, method=method)
    text = jsonio.dump(jsonio.certificate_to_json(cert, f))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
