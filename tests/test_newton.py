import random
from fractions import Fraction as F

import pytest

from algseries import (BivarPoly, InputError, LiftError, ReducedHenselEq, TruncatedSeries,
                       bareiss_det, eval_at_poly,
                       fixed_point_expand, newton_lift, uni_order)
from algseries import henselization, newton
from algseries.wilczynski import _eliminate
from conftest import E4_POLY, extended_seed, liftable_instances, rational

CATALAN_POLY = BivarPoly({(0, 1): 1, (1, 0): -1, (0, 2): -1})  # y - x - y^2


def test_lift_e4_fixture():
    report = newton_lift(E4_POLY, [1, 1], 10)
    assert report.series.one_based()[:5] == (1, 1, 0, -1, F(-1, 2))
    # continuation frozen from this oracle, guarded by the residual check
    assert report.series.one_based()[5:] == (1, 1, -1, F(-13, 8), 1)
    # e = 1 here, so the residual must vanish past the cut T + e = 11
    assert not eval_at_poly(E4_POLY, list(report.series.one_based()), 11)


def test_lift_catalan_root():
    report = newton_lift(CATALAN_POLY, [1, 1], 8)
    assert list(report.series.one_based()) == [1, 1, 2, 5, 14, 42, 132, 429]


def test_lift_polynomial_root():
    linear = BivarPoly({(0, 1): 1, (1, 0): -1})
    report = newton_lift(linear, [1, 0], 5)
    assert report.series.one_based() == (1, 0, 0, 0, 0)
    assert not eval_at_poly(linear, list(report.series.one_based()))


def test_lift_extends_one_coefficient_seeds():
    # a bare c_1 stops at the branch index; the closed next-coefficient
    # formula grows it to the liftable length
    linear = BivarPoly({(0, 1): 1, (1, 0): -1})
    _bd, coeffs = extended_seed(linear, [F(1)])
    assert coeffs == [1, 0]
    assert newton_lift(linear, coeffs, 5).series.one_based() == (1, 0, 0, 0, 0)


def test_lift_rejects_short_seed():
    with pytest.raises(LiftError):
        newton_lift(E4_POLY, [1], 5)


def test_lift_rejects_inconsistent_seed():
    with pytest.raises(LiftError):
        newton_lift(E4_POLY, [1, 5], 8)


def test_lift_rejects_double_root():
    double = BivarPoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
    with pytest.raises(LiftError):
        newton_lift(double, [1] + [0] * 11, 14)


def test_lift_residuals():
    rng = random.Random(41)
    for P, seed, _bd in liftable_instances(rng, 10):
        report = newton_lift(P, seed, 12)
        residual = eval_at_poly(P, list(report.series.one_based()))
        assert uni_order(residual) is None or uni_order(residual) > 12


def test_lift_rejects_wrong_last_coefficient(monkeypatch):
    # with e = 1 a wrong c_10 leaves P(x, z) of order 11 > 10, so the
    # certificate has to reach T + e to see it
    exact = newton.series_div

    def off_at_top(u, v, n):
        q = exact(u, v, n)
        return TruncatedSeries(list(q.one_based()[:-1]) + [q.coefficient(n) + 1], precision=n)

    monkeypatch.setattr(newton, "series_div", off_at_top)
    with pytest.raises(LiftError, match="c_10"):
        newton_lift(E4_POLY, [1, 1], 10)


def test_lift_does_not_rescan_a_long_seed(monkeypatch):
    # only branch_data's scan substitutes, and it stops at 2*dx*dy + 2 shifts
    # however long the seed is
    rng = random.Random(44)
    instances = [(E4_POLY, [1, 1])] + [(P, seed) for P, seed, _ in liftable_instances(rng, 3)]
    calls = []
    shift = henselization.substitute_shift

    def counted(*args):
        calls.append(args)
        return shift(*args)

    monkeypatch.setattr(henselization, "substitute_shift", counted)
    for P, seed in instances:
        prefix = list(newton_lift(P, seed, 64).series.one_based())
        calls.clear()
        report = newton_lift(P, prefix, 70)
        assert report.series.one_based()[:64] == tuple(prefix)
        assert len(calls) <= 2 * P.x_degree * P.y_degree + 3


def test_lift_idempotence():
    rng = random.Random(42)
    for P, seed, _bd in liftable_instances(rng, 8):
        short = newton_lift(P, seed, 7).series
        long = newton_lift(P, seed, 13).series
        again = newton_lift(P, list(short.one_based()), 13).series
        assert long.truncate(7) == short
        assert again == long


def test_lift_respects_target_precision():
    report = newton_lift(E4_POLY, [1, 1], 2)
    assert report.series.precision == 2 and report.iterations == 0
    with pytest.raises(InputError):
        newton_lift(E4_POLY, [1, 1], 1)


def test_bareiss_identity():
    m = [[F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    assert bareiss_det(m) == 1


def test_bareiss_known_minor():
    # [[c1, 0], [c2, c1^2]] has determinant c1^3
    assert bareiss_det([[F(2), F(0)], [F(7), F(4)]]) == 8


def test_bareiss_agrees_with_elimination():
    rng = random.Random(43)
    for n in (1, 2, 3, 4, 5):
        for _ in range(10):
            m = [[rational(rng) for _ in range(n)] for _ in range(n)]
            assert bareiss_det(m) == _eliminate(m).det
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert bareiss_det(singular) == 0


def test_fixed_point_expansion():
    sol = fixed_point_expand(ReducedHenselEq({(1, 0): 1, (0, 2): 1}), 6)
    assert list(sol.one_based()) == [1, 1, 2, 5, 14, 42]
