from fractions import Fraction as F
from math import isqrt

from hypothesis import given, settings, strategies as st
import pytest

from piercing.certificates import value_key
from piercing.errors import PrecisionExhausted
from piercing.radicals import RadPoint, Radical, _reduce_radicand, refine_sign, sqrt_exact


def test_simple_signs():
    assert refine_sign(Radical.sqrt(2) - 1) == 1
    assert refine_sign(Radical.sqrt(4) - 2) == 0
    assert refine_sign(1 - Radical.sqrt(2)) == -1


def test_symbolic_zero():
    # sqrt(12) = 2 sqrt(3) and sqrt(27) = 3 sqrt(3), so the sum cancels
    assert refine_sign(Radical.sqrt(3) + Radical.sqrt(12) - Radical.sqrt(27)) == 0


def test_products_stay_canonical():
    r = (Radical.sqrt(3) + 1) * (Radical.sqrt(3) - 1)
    assert r.as_fraction() == 2
    assert (Radical.sqrt(2) * Radical.sqrt(8)).as_fraction() == 4
    assert Radical.sqrt(8) == 2 * Radical.sqrt(2)
    assert (Radical.sqrt(2) * Radical.sqrt(3) - Radical.sqrt(6)).sign() == 0


def test_rational_radicands():
    assert Radical.sqrt(F(9, 4)).as_fraction() == F(3, 2)
    assert Radical.sqrt(F(1, 2)) == Radical.sqrt(2) * F(1, 2)


def test_comparisons():
    assert Radical.sqrt(2) < Radical.sqrt(3)
    assert Radical.sqrt(2) + Radical.sqrt(3) > 3
    assert Radical.sqrt(2) + Radical.sqrt(3) < F(32, 10)


def test_mixed_sign_close_values():
    # sqrt(2) + sqrt(3) - sqrt(5) = 0.910196...
    v = Radical.sqrt(2) + Radical.sqrt(3) - Radical.sqrt(5) - F(9102, 10000)
    assert v.sign() == -1
    v = Radical.sqrt(2) + Radical.sqrt(3) - Radical.sqrt(5) - F(9101, 10000)
    assert v.sign() == 1


def test_precision_exhausted_with_tiny_budget():
    v = Radical.sqrt(2) - F(141421356237309515, 10**17) + F(1, 10**30)
    with pytest.raises(PrecisionExhausted):
        v.sign(max_bits=16)
    assert v.sign() in (-1, 1)  # the default budget decides it


def test_sqrt_exact():
    assert sqrt_exact(F(49, 16)) == F(7, 4)
    assert sqrt_exact(F(2)) is None
    assert sqrt_exact(F(-1)) is None


def test_radpoint_arithmetic_and_key():
    p = RadPoint(Radical.sqrt(3), 1)
    q = RadPoint(Radical.sqrt(12) * F(1, 2), 1)
    assert p == q
    assert p.key() == q.key()
    assert (p * 2).x == Radical.sqrt(12)
    assert not p.is_rational()
    assert RadPoint(F(1, 2), 3).is_rational()


def test_reduced_radicands_are_squarefree():
    for m in list(range(1, 3000)) + [2738, 37 ** 2 * 41 ** 2, 10007 ** 2 * 10009, 10007 ** 2]:
        f, core = _reduce_radicand(m)
        assert f * f * core == m
        assert not any(core % (d * d) == 0 for d in range(2, isqrt(core) + 1))


def test_radicand_past_the_trial_bound_may_keep_a_square():
    # the known limit of _reduce_radicand: 65537 is the first prime past
    # _TRIAL_BOUND, and 65537^2 * 65539 (over 2^48) is neither divided by
    # it nor a perfect square, so it stays whole; equality is still exact,
    # but the two ways of writing the value hash apart
    m = 65537 ** 2 * 65539
    assert _reduce_radicand(m) == (1, m)
    a, b = Radical.sqrt(m), 65537 * Radical.sqrt(65539)
    assert a == b and a - b == 0
    assert hash(a) != hash(b)
    assert value_key(RadPoint(a, 1)) != value_key(RadPoint(b, 1))


# k^2 * m with k past the small primes and m squarefree: one value written
# with radicands of many sizes
_SCALES = st.sampled_from([1, 2, 3, 31, 37, 41, 1009, 10007])
_CORES = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 74, 3 * 41 * 43, 10009])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_SCALES, _CORES, st.fractions(max_denominator=20)), max_size=5),
       st.randoms())
def test_equal_radicals_have_equal_hashes_and_keys(terms, rnd):
    # a sums c * sqrt(k^2 m); b sums the same values as (c k) * sqrt(m), reordered
    a = b = Radical()
    for k, m, c in terms:
        a = a + Radical.sqrt(k * k * m) * c
    rnd.shuffle(terms)
    for k, m, c in terms:
        b = b + Radical.sqrt(m) * (c * k)
    assert a == b
    assert hash(a) == hash(b)
    assert value_key(RadPoint(a, b)) == value_key(RadPoint(b, a))
    assert value_key(RadPoint(a, 1)) == value_key(RadPoint(b, Radical.sqrt(1)))
