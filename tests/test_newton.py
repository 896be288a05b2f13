import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algseries import (AlgSeriesError, BivarPoly, InputError, LiftError, LiftReport,
                       NotSimpleRootError, PrecisionError, ReducedHenselEq, TruncatedSeries,
                       bareiss_det, branch_data, eval_at_poly, newton_lift, series_div,
                       uni_order)
from algseries import henselization, newton
from algseries.henselization import leaves_branch
from conftest import (E4_POLY, TANGENT, extended_seed, fixed_point_expand, late_branch_instances,
                      liftable_instances, rational)
from test_wilczynski import reference_eliminate

CATALAN_POLY = BivarPoly({(0, 1): 1, (1, 0): -1, (0, 2): -1})  # y - x - y^2


def reference_newton_lift(P, seed, precision):
    """The Fraction loop that the integer kernel replaced: every step
    evaluates P and dP/dy through x^(target+e) and divides from scratch by
    ``series_div``.  The reference the lift is tested against."""
    cs = [F(v) for v in seed]
    s = len(cs)
    bd = branch_data(P, TruncatedSeries(cs, precision=s, start=1))
    wrong = leaves_branch(P, cs, bd)
    if wrong is not None:
        raise NotSimpleRootError(f"seed leaves the branch at c_{wrong}")
    if precision < s:
        raise InputError("target precision below the seed length")
    e = bd.i_k0 - bd.k0 - 1
    deriv = P.partial_y()
    t = s
    iterations = 0
    while t < precision:
        target = min(2 * t - bd.k0, precision)
        work = target + e
        u = TruncatedSeries(eval_at_poly(P, cs, work), precision=work, start=0)
        v = TruncatedSeries(eval_at_poly(deriv, cs, work), precision=work, start=0)
        if v.valuation != e:
            raise LiftError(f"order of dP/dy at the prefix is {v.valuation}, expected {e}")
        q = series_div(u, v, target)
        cs.extend([F(0)] * (target - t))
        for n in range(1, target + 1):
            cs[n - 1] -= q.coefficient(n)
        t = target
        iterations += 1
    if cs[:s] != [F(v) for v in seed]:
        raise LiftError("lift lost seed coefficients")
    wrong = leaves_branch(P, cs, bd)
    if wrong is not None:
        raise LiftError(f"lifted coefficient c_{wrong} leaves the branch")
    return LiftReport(TruncatedSeries(cs, precision=precision, start=1), iterations)


def _lift_outcome(lift, P, seed, precision):
    try:
        return lift(P, seed, precision)
    except AlgSeriesError as exc:
        return type(exc), str(exc)


def _scaled(P, seed, shift, a, b):
    """x^shift P(a x, b y) and its root's prefix c_n a^n / b."""
    terms = {(i + shift, j): c * a ** i * b ** j for (i, j), c in P.terms.items()}
    return BivarPoly(terms), [c * a ** n / b for n, c in enumerate(seed, 1)]


@st.composite
def lift_cases(draw):
    """Liftable and late-branch roots, shifted by x^m and rescaled to
    rational seeds; the seed exact, cut to the branch prefix or below it,
    or with one coefficient off; targets up to 200."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        P, seed, bd = liftable_instances(rng, 1)[0]
    else:
        P, seed, bd = late_branch_instances(rng, 3)[draw(st.integers(0, 2))]
    ratio = st.fractions(min_value=-3, max_value=3, max_denominator=5).filter(bool)
    a, b = draw(st.one_of(st.just((F(1), F(1))), st.tuples(ratio, ratio)))
    P, seed = _scaled(P, seed, draw(st.integers(0, 4)), a, b)
    mode = draw(st.sampled_from(["exact", "prefix", "short", "off"]))
    if mode == "prefix":
        seed = seed[: bd.k0 + 1]
    elif mode == "short":
        seed = seed[: draw(st.integers(1, bd.k0 + 1))]
    elif mode == "off":
        n = draw(st.integers(0, len(seed) - 1))
        seed[n] += draw(ratio)
    precision = draw(st.one_of(st.integers(0, 24), st.integers(25, 200)))
    return P, seed, precision


@settings(max_examples=120, deadline=None)
@given(case=lift_cases())
def test_lift_matches_reference(case):
    assert _lift_outcome(newton_lift, *case) == _lift_outcome(reference_newton_lift, *case)


def test_lift_matches_reference_on_e4_at_400():
    assert newton_lift(E4_POLY, [1], 400) == reference_newton_lift(E4_POLY, [1], 400)


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
    # formula grows it as ``expand`` does, and both seeds lift alike
    linear = BivarPoly({(0, 1): 1, (1, 0): -1})
    _bd, coeffs = extended_seed(linear, [F(1)])
    assert coeffs == [1, 0]
    assert newton_lift(linear, coeffs, 5).series.one_based() == (1, 0, 0, 0, 0)
    assert newton_lift(linear, [1], 5).series.one_based() == (1, 0, 0, 0, 0)


def test_lift_from_the_branch_prefix():
    # Newton's lemma needs only c_1..c_{k0+1}: lifting from there gives the
    # lift from the seed grown by the closed next-coefficient formula
    for T in (5, 50):
        assert newton_lift(E4_POLY, [1], T).series == newton_lift(E4_POLY, [1, 1], T).series
    rng = random.Random(46)
    tangent = [1, 0, 0, 0, 1]   # k0 = 4
    cases = [(TANGENT, tangent, branch_data(TANGENT, TruncatedSeries(tangent)))]
    for P, seed, bd in liftable_instances(rng, 24) + late_branch_instances(rng, 9) + cases:
        prefix = seed[: bd.k0 + 1]
        _bd, grown = extended_seed(P, prefix)
        assert newton_lift(P, prefix, 16).series == newton_lift(P, grown, 16).series


def test_lift_schedule_doubles_past_k0():
    # past k0 the lowest coefficient of P(x, z_t + x^(t+1) y) is linear in
    # y, so a step from c_1..c_t is exact through 2t - k0 (here k0 = 2 and
    # e = 5: 4, 6, 10, 18, 34, 60)
    # (y - x)(y - x - x^2)(y - x - x^3) + x^9 + 2 x^9 y
    P = BivarPoly({(0, 3): 1, (1, 2): -3, (2, 1): 3, (2, 2): -1, (3, 0): -1, (3, 1): 2,
                   (3, 2): -1, (4, 0): -1, (4, 1): 2, (5, 0): -1, (5, 1): 1, (6, 0): -1,
                   (9, 0): 1, (9, 1): 2})
    bd = branch_data(P, TruncatedSeries([1, 0, 0, -1]))
    assert (bd.k0, bd.i_k0 - bd.k0 - 1) == (2, 5)
    assert newton_lift(P, [1, 0, 0, -1], 20).iterations == 4
    assert newton_lift(P, [1, 0, 0, -1], 60).iterations == 5
    assert newton_lift(E4_POLY, [1, 1], 400).iterations == 8


def test_late_branch_instances_separate_late():
    # every k0 in 1..3 occurs, dP/dy vanishes to order e > k0 along the
    # root, and the seed is exact: the lift leaves P(x, y) no lower term
    # than x^(T + e + 1)
    rng = random.Random(47)
    seen = set()
    for P, seed, bd in late_branch_instances(rng, 12):
        e = bd.i_k0 - bd.k0 - 1
        assert e > bd.k0
        root = newton_lift(P, seed, 20).series
        assert root.one_based()[: len(seed)] == tuple(seed)
        residual = uni_order(eval_at_poly(P, list(root.one_based())))
        assert residual is None or residual > 20 + e
        seen.add(bd.k0)
    assert seen == {1, 2, 3}


def test_lift_rejects_short_seed():
    # TANGENT's branches share c_1..c_4, so k0 = 4 and [1, 0] cannot
    # isolate one of them
    with pytest.raises(PrecisionError):
        newton_lift(TANGENT, [1, 0], 8)


def test_lift_rejects_inconsistent_seed():
    with pytest.raises(NotSimpleRootError, match="c_2"):
        newton_lift(E4_POLY, [1, 5], 8)


def test_lift_rejects_double_root():
    double = BivarPoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
    with pytest.raises(NotSimpleRootError):
        newton_lift(double, [1] + [0] * 11, 14)


def test_lift_residuals():
    rng = random.Random(41)
    for P, seed, _bd in liftable_instances(rng, 10) + late_branch_instances(rng, 9):
        report = newton_lift(P, seed, 12)
        residual = eval_at_poly(P, list(report.series.one_based()))
        assert uni_order(residual) is None or uni_order(residual) > 12


def test_lift_through_a_high_order_derivative():
    # x^m P has P's root, and its dP/dy has order m more along it, so most
    # of these lifts start at t <= e.  A later step would mend a wrong
    # coefficient, so every target precision is lifted to on its own.
    rng = random.Random(45)
    cases = high = 0
    for P, seed, _bd in liftable_instances(rng, 20):
        root = newton_lift(P, seed, 12).series
        for m in range(1, 5):
            shifted = BivarPoly({(i + m, j): a for (i, j), a in P.terms.items()})
            bd = branch_data(shifted, TruncatedSeries(seed))
            e = bd.i_k0 - bd.k0 - 1
            for T in range(len(seed) + 1, 13):
                lifted = newton_lift(shifted, seed, T).series
                assert lifted == root.truncate(T)
                assert not eval_at_poly(shifted, list(lifted.one_based()), T + e)
            cases += 1
            high += e >= len(seed)
    assert 2 * high >= cases


def test_lift_rejects_wrong_last_coefficient(monkeypatch):
    # with e = 1 a wrong c_10 leaves P(x, z) of order 11 > 10, so the
    # certificate has to reach T + e to see it.  The last step's tail
    # product, whose top entry is the numerator of c_10, is put off by one.
    steps = newton_lift(E4_POLY, [1, 1], 10).iterations
    exact = newton._int_mul
    calls = []

    def off_at_top(a, b, n):
        out = exact(a, b, n)
        calls.append(n)
        if len(calls) == steps:
            out[-1] += 1
        return out

    monkeypatch.setattr(newton, "_int_mul", off_at_top)
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
    for P, seed, _bd in liftable_instances(rng, 8) + late_branch_instances(rng, 6):
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
            assert bareiss_det(m) == reference_eliminate(m).det
    singular = [[F(1), F(2)], [F(2), F(4)]]
    assert bareiss_det(singular) == 0


def test_fixed_point_expansion():
    sol = fixed_point_expand(ReducedHenselEq({(1, 0): 1, (0, 2): 1}), 6)
    assert list(sol.one_based()) == [1, 1, 2, 5, 14, 42]
