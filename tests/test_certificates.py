from fractions import Fraction as F
import random

import pytest

from piercing.bodies import BoxBody, DiskBody, Family, Member
from piercing.certificates import _float_coord, _float_members
from piercing.errors import VerificationFailed
from piercing.generators import random_family, unit_disk, unit_triangle
from piercing.geom import Point
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
