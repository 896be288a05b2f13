import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algseries import InputError, PrecisionError, TruncatedSeries, series_div, series_pow


def test_monomial_power():
    y = TruncatedSeries([1, 0, 0, 0, 0])
    cube = series_pow(y, 3, 5)
    assert [cube.coefficient(n) for n in range(6)] == [0, 0, 0, 1, 0, 0]
    assert cube.valuation == 3


def test_leading_coefficient_is_c1_power():
    rng = random.Random(1)
    for _ in range(20):
        c1 = F(rng.randint(1, 9), rng.randint(1, 5))
        coeffs = [c1] + [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(7)]
        y = TruncatedSeries(coeffs)
        for j in range(0, 7):
            p = series_pow(y, j, 8)
            assert all(p.coefficient(n) == 0 for n in range(j))
            assert p.coefficient(j) == c1 ** j


def test_square_by_hand():
    # (x + x^2)^2 = x^2 + 2x^3 + x^4
    y = TruncatedSeries([1, 1, 0, 0])
    sq = series_pow(y, 2, 4)
    assert [sq.coefficient(n) for n in range(5)] == [0, 0, 1, 2, 1]


def test_power_is_ring_homomorphism():
    rng = random.Random(2)
    for _ in range(10):
        coeffs = [F(rng.randint(1, 5))] + [F(rng.randint(-5, 5), rng.randint(1, 4))
                                           for _ in range(9)]
        y = TruncatedSeries(coeffs)
        for j1 in range(0, 4):
            for j2 in range(0, 4):
                lhs = series_pow(y, j1 + j2, 10)
                rhs = series_pow(y, j1, 10) * series_pow(y, j2, 10)
                assert lhs == rhs


def test_power_zero_exponent_returns_one():
    y = TruncatedSeries([2, 3])
    one = series_pow(y, 0, 2)
    assert one.coefficient(0) == 1 and one.coefficient(1) == 0


def test_power_requires_precision():
    y = TruncatedSeries([1, 1])
    with pytest.raises(PrecisionError):
        series_pow(y, 2, 3)


def test_power_rejects_constant_term():
    y = TruncatedSeries([1, 1], start=0)
    with pytest.raises(InputError):
        series_pow(y, 2, 1)


def test_valuation_and_zero_truncation():
    assert TruncatedSeries([0, 0, 5, 1]).valuation == 3
    z = TruncatedSeries.zero(6)
    assert z.valuation is None and z.is_zero_truncation and z.precision == 6


def test_coefficient_beyond_precision_raises():
    y = TruncatedSeries([1, 2, 3])
    assert y.coefficient(3) == 3
    with pytest.raises(PrecisionError):
        y.coefficient(4)


def test_arithmetic_precision_is_weakest():
    a = TruncatedSeries([1, 2, 3, 4])
    b = TruncatedSeries([1, 1])
    assert (a + b).precision == 2
    assert (a * b).precision == 2
    assert (a * b).coefficient(2) == 1  # only x*x lands below the cutoff


_COEFFS = st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                   min_size=1, max_size=9)


@settings(max_examples=100, deadline=None)
@given(a=_COEFFS, b=_COEFFS)
def test_product_matches_double_sum(a, b):
    prod = TruncatedSeries(a, start=0) * TruncatedSeries(b, start=0)
    t = min(len(a), len(b)) - 1
    assert prod.precision == t
    for n in range(t + 1):
        assert prod.coefficient(n) == sum((a[i] * b[n - i] for i in range(n + 1)), F(0))


def test_results_are_canonical_fractions():
    y = TruncatedSeries([F(2, 4), F(6, 9)])
    prod = y * y
    for n in range(prod.precision + 1):
        c = prod.coefficient(n)
        assert c == F(c.numerator, c.denominator)


def test_division_recovers_factor():
    rng = random.Random(3)
    for _ in range(10):
        a = TruncatedSeries([F(rng.randint(1, 5))] +
                            [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(9)])
        b = TruncatedSeries([F(rng.randint(1, 5))] +
                            [F(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(9)])
        prod = a * b
        q = series_div(prod, b, 8)
        assert q == a.truncate(8)


def test_division_by_zero_truncation_rejected():
    with pytest.raises(InputError):
        series_div(TruncatedSeries([1, 1]), TruncatedSeries.zero(2), 1)
