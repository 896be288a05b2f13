import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algseries import (BivarPoly, InputError, TruncatedSeries, bivar, eval_at_poly,
                       eval_at_series, shift_substitute, substitute_shift,
                       substitute_tail, uni_order)
from conftest import E4_POLY, HIGH_RATIONALS, coefficient_lists, rational


def test_terms_drop_zeros_and_degrees():
    P = BivarPoly({(0, 2): 1, (3, 1): 0, (2, 0): -1})
    assert P.terms == {(0, 2): F(1), (2, 0): F(-1)}
    assert P.x_degree == 2 and P.y_degree == 2 and P.x_order == 0
    assert BivarPoly({}).is_zero and BivarPoly({}).x_degree == 0


def test_shift_substitute_e4_fixture():
    # P(x, xy) at the instance a = (a02, a20, a21, a22) = (1, -1, -2, 1)
    p0 = shift_substitute(E4_POLY, (), 0)
    assert p0 == BivarPoly({(2, 0): -1, (2, 2): 1, (3, 1): -2, (4, 2): 1})
    assert p0.x_order == 2
    p1 = shift_substitute(E4_POLY, (1,), 1)
    assert p1.x_order == 3
    # the y-degree never changes under the shift
    assert p1.y_degree == E4_POLY.y_degree


def test_shift_substitute_monomial_structure():
    rng = random.Random(5)
    for _ in range(10):
        P = BivarPoly({(rng.randint(0, 3), rng.randint(0, 3)): rational(rng)
                       for _ in range(5)})
        if P.is_zero or P.x_order is None:
            continue
        p0 = shift_substitute(P, (), 0)
        assert p0.y_degree == P.y_degree
        assert p0.x_order <= P.x_order + P.y_degree


def test_shift_substitute_length_check():
    with pytest.raises(InputError):
        shift_substitute(E4_POLY, (1, 2), 1)


def test_shift_composes_with_constant_shift():
    rng = random.Random(6)
    for _ in range(10):
        P = BivarPoly({(rng.randint(0, 3), rng.randint(0, 3)): rational(rng)
                       for _ in range(6)})
        if P.is_zero:
            continue
        cs = [rational(rng) for _ in range(3)]
        pk = shift_substitute(P, cs[:2], 2)
        direct = shift_substitute(P, cs[:3], 3)
        assert direct == substitute_shift(pk, cs[2])


def test_eval_at_poly_exactness():
    # P(x, z) for the exact root prefix of the e4 fixture
    z = [F(1), F(1), F(0), F(-1), F(-1, 2)]
    residual = eval_at_poly(E4_POLY, z)
    assert uni_order(residual) == 7
    assert eval_at_poly(BivarPoly({(0, 1): 1, (1, 0): -1}), [F(1)]) == []


def test_eval_at_series_exact_root():
    y = TruncatedSeries([1] + [0] * 9)
    out = eval_at_series(BivarPoly({(0, 1): 1, (1, 0): -1}), y, 10)
    assert out.is_zero_truncation  # order >= 11, never reported as zero


def test_eval_at_series_short_prefix():
    # z_2 = x + x^2 agrees with the root to order 3 (c_3 = 0), and the
    # derivative order is 1, so the residual has order exactly 5
    y = TruncatedSeries([1, 1, 0, 0])
    out = eval_at_series(E4_POLY, y, 4)
    assert out.is_zero_truncation
    y10 = TruncatedSeries([1, 1] + [0] * 8)
    assert eval_at_series(E4_POLY, y10, 10).valuation == 5


def test_eval_at_series_five_term_prefix():
    y = TruncatedSeries([1, 1, 0, -1, F(-1, 2)] + [0] * 5)
    out = eval_at_series(E4_POLY, y, 10)
    assert out.valuation == 7


def test_eval_at_series_matches_poly_eval():
    rng = random.Random(7)
    for _ in range(10):
        P = BivarPoly({(rng.randint(0, 3), rng.randint(0, 3)): rational(rng)
                       for _ in range(5)})
        z = [rational(rng) for _ in range(6)]
        dense = eval_at_poly(P, z)
        series = eval_at_series(P, TruncatedSeries(z), 6)
        for n in range(7):
            want = dense[n] if n < len(dense) else F(0)
            assert series.coefficient(n) == want


def _naive_eval(P, y):
    """Exact P(x, y(x)) for y = y_0 + y_1 x + ... given densely: each
    monomial x^i y^j is expanded by j repeated double sums."""
    out = {}
    for (i, j), a in P.terms.items():
        term = {i: a}
        for _ in range(j):
            step = {}
            for e, c in term.items():
                for m, d in enumerate(y):
                    step[e + m] = step.get(e + m, 0) + c * d
            term = step
        for e, c in term.items():
            out[e] = out.get(e, 0) + c
    top = max((e for e, c in out.items() if c), default=-1)
    return [F(out.get(e, 0)) for e in range(top + 1)]


def _cut(dense, n):
    """First n + 1 coefficients, zero-padded."""
    return (list(dense) + [F(0)] * (n + 1))[: n + 1]


def _trim(dense):
    while dense and not dense[-1]:
        dense.pop()
    return dense


_RATS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
_POLYS = st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 4)), _RATS,
                         max_size=6).map(BivarPoly)
_WIDE_POLYS = st.dictionaries(st.tuples(st.integers(0, 7), st.integers(0, 4)),
                              st.one_of(_RATS, HIGH_RATIONALS),
                              max_size=6).map(BivarPoly)


@settings(max_examples=80, deadline=None)
@given(P=_WIDE_POLYS, z=coefficient_lists(60), cuts=st.lists(st.integers(0, 250), max_size=4))
def test_eval_at_poly_cut_matches_exact_prefix(P, z, cuts):
    exact = _naive_eval(P, [F(0)] + z)
    assert eval_at_poly(P, z) == exact
    top = P.x_degree + P.y_degree * len(z) + 3
    # every cut on short prefixes; the ends, the middle and drawn cuts on long ones
    every = range(top + 1) if top <= 40 else [0, 1, len(z), top // 2, top] + cuts
    for n in every:
        assert eval_at_poly(P, z, n) == _trim(_cut(exact, n))
        y = TruncatedSeries(z, precision=max(n, len(z)), start=1)
        assert eval_at_series(P, y, n).coefficients() == tuple(_cut(exact, n))


@settings(max_examples=80, deadline=None)
@given(P=_POLYS, y=st.lists(_RATS, min_size=1, max_size=6))
def test_eval_at_series_with_constant_term(P, y):
    series = TruncatedSeries(y, start=0)
    for n in range(len(y)):
        # coefficients of y past x^n cannot reach x^n
        want = _cut(_naive_eval(P, y[: n + 1]), n)
        assert eval_at_series(P, series, n).coefficients() == tuple(want)


def test_terms_past_the_cut_contribute_nothing():
    P = BivarPoly({(5, 1): 7, (9, 0): 3, (0, 1): 1})
    assert eval_at_poly(P, [F(1), F(2)], 2) == [F(0), F(1), F(2)]
    assert eval_at_poly(P, [F(1), F(2)], 0) == []
    y = TruncatedSeries([1, 1, 1], start=0)
    out = eval_at_series(BivarPoly({(4, 1): 1, (0, 1): 1}), y, 2)
    assert out.coefficients() == (1, 1, 1)
    with pytest.raises(InputError):
        eval_at_poly(P, [F(1)], -1)


def test_powers_stop_at_the_cut_without_a_constant_term(monkeypatch):
    # y - x + y^d at d > n: with y(0) = 0, y^d vanishes mod x^(n+1), so the
    # powers stop at n and the value is the uncapped one
    tops = []
    real = bivar._powers
    monkeypatch.setattr(bivar, "_powers", lambda y, top, n: tops.append((top, n)) or
                        real(y, top, n))
    z = [F(1), F(-2, 3), F(5)]
    for d in (7, 12, 40, 1000):
        P = BivarPoly({(0, 1): 1, (1, 0): -1, (0, d): 1})
        for n in (0, 3, 6):
            got = eval_at_poly(P, z, n)
            assert got == eval_at_poly(BivarPoly({(0, 1): 1, (1, 0): -1}), z, n)
            if d <= 40:
                assert got == _trim(_cut(_naive_eval(P, [F(0)] + z), n))
    assert tops and all(top <= n for top, n in tops)
    # a constant term keeps every power: y^d reaches x^0
    tops.clear()
    P = BivarPoly({(0, 1): 1, (1, 0): -1, (0, 12): 1})
    y = [F(2), F(1), F(-1)]
    out = eval_at_series(P, TruncatedSeries(y, start=0), 2)
    assert out.coefficients() == tuple(_cut(_naive_eval(P, y), 2))
    assert tops == [(12, 2)]


def test_substitute_tail_general_exponent():
    P = BivarPoly({(0, 1): 1})
    W = substitute_tail(P, [F(3), F(5)], 4)
    assert W == BivarPoly({(1, 0): 3, (2, 0): 5, (4, 1): 1})


def test_primitive_normalization():
    P = BivarPoly({(2, 0): F(2, 3), (0, 2): F(-4, 3), (2, 2): F(-2, 3)})
    norm = P.primitive_normalized()
    assert norm == BivarPoly({(2, 0): -1, (0, 2): 2, (2, 2): 1})
    # anti-lex greatest term (2,2) ends positive, content 1
    assert norm.coefficient(2, 2) > 0


def test_partial_y():
    assert E4_POLY.partial_y() == BivarPoly({(0, 1): 2, (2, 0): -2, (2, 1): 2})
