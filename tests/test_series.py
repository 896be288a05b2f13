import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algseries import InputError, PrecisionError, TruncatedSeries, series_div, series_pow
from algseries.series import _clear, _inverse, _mul
from conftest import SMALL_RATIONALS, coefficient_lists


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


def _double_sum(a, b, n):
    """Coefficient of x^n in the product of the dense lists a and b."""
    return sum((a[i] * b[n - i] for i in range(max(0, n - len(b) + 1), min(n, len(a) - 1) + 1)),
               F(0))


@settings(max_examples=100, deadline=None)
@given(a=coefficient_lists(60), b=coefficient_lists(60), cut=st.integers(0, 130))
def test_product_matches_double_sum(a, b, cut):
    prod = TruncatedSeries(a, start=0) * TruncatedSeries(b, start=0)
    t = min(len(a), len(b)) - 1
    assert prod.precision == t
    for n in range(t + 1):
        assert prod.coefficient(n) == _double_sum(a, b, n)
    size = min(len(a) + len(b) - 1, cut + 1) if a and b else 0
    assert _mul(a, b, cut) == [_double_sum(a, b, n) for n in range(size)]


def test_product_at_packing_boundaries():
    # +-(2^(8k-1) - 1) and +-2^(8k-1) sit at the edge of a k-byte digit, so
    # their products fill the packing width exactly or spill one bit over
    for k in (1, 2, 3, 5):
        for top in (2 ** (8 * k - 1) - 1, 2 ** (8 * k - 1)):
            for length in (1, 2, 3, 16):
                alternating = [F((-1) ** i * top) for i in range(length)]
                single = [F(0)] * (length - 1) + [F(top)]
                operands = [[F(top)] * length, [F(-top)] * length, alternating, single,
                            [F(-top, 3)] * length]
                for a in operands:
                    for b in operands:
                        want = [_double_sum(a, b, n) for n in range(2 * length - 1)]
                        assert _mul(a, b, 2 * length) == want
                        assert _mul(a, b, length - 1) == want[:length]


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


def _div_recurrence(u, v, precision):
    """u/v by the O(n^2) recurrence q_n = (u_{n+e} - sum_{m<n} q_m v_{n-m+e}) / v_e,
    with series_div's checks in series_div's order."""
    e = v.valuation
    if e is None:
        raise InputError("division by a zero truncation")
    if min(u.precision, v.precision) - e < precision:
        raise PrecisionError("insufficient precision")
    if u.is_zero_truncation:
        return TruncatedSeries.zero(precision)
    if u.valuation < e:
        raise InputError("numerator order too small")
    un = [u.coefficient(n + e) for n in range(precision + 1)]
    vn = [v.coefficient(n + e) for n in range(precision + 1)]
    out = []
    for n in range(precision + 1):
        acc = un[n]
        for m, w in enumerate(out):
            acc -= w * vn[n - m]
        out.append(acc / vn[0])
    return TruncatedSeries(out, precision=precision, start=0)


def _outcome(divide, *args):
    try:
        return divide(*args)
    except (InputError, PrecisionError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(u=coefficient_lists(40), v=coefficient_lists(40), slack=st.integers(-2, 12))
def test_division_matches_recurrence(u, v, slack):
    # the precision is drawn around the largest the operands allow, so
    # PrecisionError, full-length and short quotients all occur
    us, vs = TruncatedSeries(u, start=0), TruncatedSeries(v, start=0)
    precision = max(0, min(us.precision, vs.precision) - (vs.valuation or 0) - slack)
    assert _outcome(series_div, us, vs, precision) == _outcome(_div_recurrence, us, vs, precision)


def test_division_with_higher_numerator_order():
    rng = random.Random(4)

    def series(order, length):
        tail = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(length)]
        return TruncatedSeries([F(0)] * order + [F(rng.randint(1, 5), rng.randint(1, 4))] + tail,
                               start=0)

    for _ in range(30):
        e, k, n = rng.randint(0, 4), rng.randint(0, 6), rng.randint(3, 15)
        v, u = series(e, n), series(e + k, n)
        precision = min(u.precision, v.precision) - e
        for p in (0, precision // 2, precision):
            assert series_div(u, v, p) == _div_recurrence(u, v, p)
    # an order past the requested precision leaves only zeros
    u = TruncatedSeries([0, 0, 0, 0, 0, 1], start=0)
    assert series_div(u, TruncatedSeries([2, 1, 0, 0], start=0), 3) == TruncatedSeries.zero(3)
    z = series_div(TruncatedSeries.zero(6), TruncatedSeries([0, 3, 1, 0, 0, 0], start=0), 4)
    assert z == TruncatedSeries.zero(4)


def test_division_by_a_rational_leading_coefficient():
    # v_e = -3/7 starts the inverse at -7/3, a Fraction with both parts > 1
    v = TruncatedSeries([0, F(-3, 7), F(5, 2), 0, F(1, 9), F(-4, 3), 2, 1], start=0)
    u = TruncatedSeries([0, 0, F(2, 5), F(-1, 3), 7, 0, F(6, 11), F(1, 2)], start=0)
    q = series_div(u, v, 6)
    assert q == _div_recurrence(u, v, 6)
    assert q.coefficients()[:3] == (0, F(-14, 15), F(-14, 3))


def _as_fractions(D, G, n):
    return [F(c, D) for c in G] + [F(0)] * (n - len(G))


@settings(max_examples=100, deadline=None)
@given(w=st.lists(SMALL_RATIONALS, min_size=1, max_size=24).filter(lambda w: w[0]),
       p=st.integers(0, 24), junk=st.lists(SMALL_RATIONALS, max_size=24), off=SMALL_RATIONALS)
def test_inverse_reads_the_precision_of_its_guess(w, p, junk, off):
    # a guess right through x^(p-1) and arbitrary past it, or wrong at x^0
    # when p = 0, is refined to the inverse computed from 1 / w_0; a guess
    # short of half the terms needs more than one pass
    n = len(w)
    want = _as_fractions(*_inverse(*_clear(w)), n)
    assert _mul(w, want, n - 1) == [1] + [0] * (n - 1)
    guess = want[:p] + junk
    if p == 0:
        guess = [want[0] + (off or 1)] + junk
    assert _as_fractions(*_inverse(*_clear(w), _clear(guess)), n) == want
