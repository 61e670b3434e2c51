from fractions import Fraction as F
import hashlib
import random

import pytest

from piercing import jsonio
from piercing.bodies import BoxBody, DiskBody, Family, Member, PolygonBody
from piercing.certificates import _float_coord, _float_members
from piercing.errors import VerificationFailed
from piercing.generators import hexagon_body, random_family, unit_disk, unit_square, unit_triangle
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
    cert = greedy_pierce(f, verify=False)
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
        cert.points = [p for p in cert.points if not body.contains(p)]
        with pytest.raises(VerificationFailed, match="contains no piercing point"):
            cert.verify(f)


_PENTAGON = PolygonBody(ConvexPolygon([Point(0, 0), Point(4, 0), Point(5, 3), Point(2, 5),
                                       Point(-1, 2)]))

# sha256 of jsonio.dump(certificate_to_json(...)) for greedy_pierce_homothets
# with its defaults; a change to the kernel, the order or the patterns that
# moves one byte of a certificate shows up here
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
    cert = greedy_pierce_homothets(f)
    text = jsonio.dump(jsonio.certificate_to_json(cert, f))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
