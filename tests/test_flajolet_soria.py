import itertools
import random
import warnings
from fractions import Fraction as F
from math import factorial

import pytest

from algseries import (BivarPoly, BudgetError, EnumerationBudget, InputError,
                       ReducedHenselEq, TruncatedSeries, branch_data,
                       closed_form_coefficient, compositions, e_coefficient,
                       eval_at_series, fixed_point_expand, fs_coefficient,
                       fs_expand, henselize, newton_lift, weighted_compositions)
from algseries.flajolet_soria import _slots
from conftest import E4_POLY, liftable_instances, nonzero_rational, rational

CATALAN_EQ = ReducedHenselEq({(1, 0): 1, (0, 2): 1})


def test_eq_validation():
    with pytest.raises(InputError):
        ReducedHenselEq({(0, 0): 1, (1, 0): 1})
    with pytest.raises(InputError):
        ReducedHenselEq({(0, 1): 1, (1, 0): 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ReducedHenselEq({(1, 1): 1})
    assert caught and "y = 0" in str(caught[0].message)
    assert ReducedHenselEq({(1, 0): 1}).no_pure_x_powers
    assert not CATALAN_EQ.no_pure_x_powers


def test_fs_trivial_equation():
    q = ReducedHenselEq({(1, 0): 1})
    assert [fs_coefficient(q, n) for n in (1, 2, 3)] == [1, 0, 0]
    assert fs_expand(q, 3).one_based() == (1, 0, 0)


def test_fs_catalan():
    assert list(fs_expand(CATALAN_EQ, 6).one_based()) == [1, 1, 2, 5, 14, 42]


def test_fs_support_cap_gates_on_flag():
    # the m <= n truncation only applies when no term is free of x; here a
    # pure y^2 term is present, so the capped call must not actually truncate
    for n in range(1, 7):
        assert fs_coefficient(CATALAN_EQ, n, apply_support_cap=True) == \
            fs_coefficient(CATALAN_EQ, n)


def test_fs_support_cap_consistent_on_hensel_equations():
    form = henselize(E4_POLY, TruncatedSeries([1, 1]), 1)
    assert form.eq.no_pure_x_powers
    for n in range(1, 7):
        assert fs_coefficient(form.eq, n, apply_support_cap=True) == \
            fs_coefficient(form.eq, n)


def test_fs_matches_solution_shape_in_b():
    # first three solution coefficients as polynomials in the equation's
    # coefficients: b10; b20 + b10 b11; b30 + b10 b21 + b10^2 b12 + b10 b11^2
    # + b20 b11
    rng = random.Random(31)
    for _ in range(10):
        b = {key: rational(rng) for key in
             [(1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (3, 0)]}
        q = ReducedHenselEq(b)
        t = q.terms
        b10 = t.get((1, 0), F(0))
        b11 = t.get((1, 1), F(0))
        b12 = t.get((1, 2), F(0))
        b20 = t.get((2, 0), F(0))
        b21 = t.get((2, 1), F(0))
        b30 = t.get((3, 0), F(0))
        assert fs_coefficient(q, 1) == b10
        assert fs_coefficient(q, 2) == b20 + b10 * b11
        assert fs_coefficient(q, 3) == (b30 + b10 * b21 + b10 ** 2 * b12
                                        + b10 * b11 ** 2 + b20 * b11)


def test_fs_e4_fixture_composition():
    form = henselize(E4_POLY, TruncatedSeries([1, 1]), 1)
    t = form.eq.terms
    assert fs_coefficient(form.eq, 1) == t.get((1, 0), F(0)) == 0
    assert fs_coefficient(form.eq, 2) == t[(2, 0)] == -1
    assert fs_coefficient(form.eq, 3) == F(-1, 2)


def random_reduced_eq(rng):
    terms = {}
    terms[(rng.randint(1, 3), 0)] = nonzero_rational(rng, top=3, den=2)
    for _ in range(rng.randint(1, 3)):
        l = rng.randint(0, 3)
        m = rng.randint(2 if l == 0 else 1, 3)
        v = rational(rng, top=3, den=2)
        if v:
            terms[(l, m)] = v
    return ReducedHenselEq(terms)


def test_fs_defining_equation_property():
    # substituting the expansion into y - Q(x, y) leaves order > precision,
    # and plain fixed-point iteration gives the same coefficients
    rng = random.Random(32)
    for _ in range(100):
        q = random_reduced_eq(rng)
        sol = fs_expand(q, 6)
        assert sol == fixed_point_expand(q, 6)
        residual_terms = {(0, 1): F(1)}
        for (l, m), v in q.terms.items():
            residual_terms[(l, m)] = residual_terms.get((l, m), F(0)) - v
        residual = eval_at_series(BivarPoly(residual_terms), sol, 6)
        assert residual.is_zero_truncation


def test_fs_long_support_does_not_recurse():
    # one stack frame per support term would pass the interpreter's limit
    q = ReducedHenselEq({(l, 0): 1 for l in range(1, 1501)})
    assert fs_coefficient(q, 3) == 1


def test_composition_vectors_cache_their_norms():
    budget = EnumerationBudget()
    for vec in compositions(CATALAN_EQ, 4, 7, budget):
        assert vec.size == sum(e for _, e in vec.exponents)
        assert vec.x_weight == sum(l * e for (l, _), e in vec.exponents) == 4
        assert vec.y_weight == sum(m * e for (_, m), e in vec.exponents)
        assert vec.y_weight == vec.size - 1


# -- the enumeration layer


def test_weighted_compositions_match_brute_force():
    for length in range(1, 6):
        for total in range(0, 5):
            for weight in range(-1, total * length + 2):
                got = list(weighted_compositions(length, total, weight))
                expect = [t for t in itertools.product(range(total + 1), repeat=length)
                          if sum(t) == total
                          and sum((v + 1) * e for v, e in enumerate(t)) == weight]
                assert len(set(got)) == len(got)
                assert sorted(got) == expect
    assert list(weighted_compositions(3, -1, 0)) == []


def test_weighted_compositions_long_vectors():
    for w in (1, 550, 1100):
        unit = [0] * 1100
        unit[w - 1] = 1
        assert list(weighted_compositions(1100, 1, w)) == [tuple(unit)]
    assert list(weighted_compositions(1100, 1, 1101)) == []
    assert len(list(weighted_compositions(1100, 2, 1100))) == 550


def _slots_by_filter(i, j, k, i_k):
    # every spread of j - m over k + 1 places, in lexicographic order, kept
    # when its x-level clears i_k
    out = []
    for m in range(j + 1):
        for L in itertools.product(range(j - m + 1), repeat=k + 1):
            if sum(L) != j - m:
                continue
            if sum((v + 1) * t for v, t in enumerate(L)) + m * (k + 1) + i - i_k < 1:
                continue
            base = factorial(j) // factorial(m)
            for t in L:
                base //= factorial(t)
            out.append((m, L, base))
    return out


def test_slots_match_filter_over_all_spreads():
    for i, j, k, i_k in itertools.product(range(4), range(5), range(1, 4), range(9)):
        assert _slots(i, j, k, i_k) == _slots_by_filter(i, j, k, i_k)


# -- the closed form


def test_closed_form_e4_fixture():
    for p, expect in [(1, F(0)), (2, F(-1)), (3, F(-1, 2))]:
        got = closed_form_coefficient(E4_POLY, [1, 1], 1, 3, 2, p)
        assert got == expect


def test_closed_form_node_counts_on_e4():
    # the slot order fixes the pruning, and so the number of nodes visited
    for p, nodes in [(6, 4077), (8, 14512), (10, 43895)]:
        budget = EnumerationBudget()
        closed_form_coefficient(E4_POLY, [1, 1], 1, 3, 2, p, budget=budget)
        assert budget.used == nodes


def test_closed_form_long_polynomial_does_not_recurse():
    # y - (x + x^2 + ... + x^1200): one stack frame per term of P would pass
    # the interpreter's limit; the root's coefficients are 1 up to x^1200
    P = BivarPoly({(0, 1): 1, **{(i, 0): -1 for i in range(1, 1201)}})
    bd = branch_data(P, TruncatedSeries([1, 1]))
    assert (bd.k0, bd.i_k0, bd.omega0) == (0, 1, 1)
    assert [closed_form_coefficient(P, [1, 1], 1, 2, 1, p) for p in (1, 2, 3)] == [1, 1, 1]


def test_closed_form_symbolic_spot_check():
    # c_4 = -2 a22 c1 c2 / (2 a02 c1) on the e3 fixture support, k = 1
    rng = random.Random(33)
    for _ in range(10):
        a02 = nonzero_rational(rng)
        a21 = nonzero_rational(rng)
        a22 = nonzero_rational(rng)
        c1 = nonzero_rational(rng)
        P = BivarPoly({(0, 2): a02, (2, 0): -a02 * c1 ** 2, (2, 1): a21, (2, 2): a22})
        c2 = -a21 / (2 * a02)
        w0 = 2 * a02 * c1
        got = closed_form_coefficient(P, [c1, c2], 1, 3, w0, 2)
        assert got == -2 * a22 * c1 * c2 / w0


def test_closed_form_triple_agreement():
    rng = random.Random(34)
    for P, seed, bd in liftable_instances(rng, 8):
        for k in (bd.k0 + 1, bd.k0 + 2):
            lift = newton_lift(P, seed, k + 7)
            coeffs = list(lift.series.one_based())[: k + 1]
            i_k = bd.i_k0 + (k - bd.k0)
            form = henselize(P, lift.series, k)
            for p in range(1, 7):
                newton_c = lift.series.coefficient(k + 1 + p)
                closed_c = closed_form_coefficient(P, coeffs, k, i_k, bd.omega0, p)
                if form.polynomial_root is not None:
                    fs_c = F(0)
                else:
                    fs_c = fs_coefficient(form.eq, p)
                assert newton_c == fs_c == closed_c


def test_e_coefficient_single_factor_is_multinomial():
    # q = 1: the weight collapses to j!/(m! L!) for the unique slot hitting T
    k, i_k = 1, 3
    assert e_coefficient({(0, 2): 1}, (0, 2), k, i_k, 2, 2) == 1   # 2!/(0! 0!2!)
    assert e_coefficient({(2, 1): 1}, (0, 1), k, i_k, 2, 2) == 1
    assert e_coefficient({(2, 2): 1}, (1, 1), k, i_k, 2, 2) == 2   # 2!/(1!1!)
    assert e_coefficient({(2, 2): 1}, (2, 0), k, i_k, 2, 2) == 1
    # no admissible slot: x-level would not clear i_k
    assert e_coefficient({(2, 0): 1}, (0, 0), k, i_k, 2, 2) == 0
    # T must name one exponent per seed coefficient c_1..c_{k+1}
    with pytest.raises(InputError):
        e_coefficient({(0, 2): 1}, (0, 2, 1), k, i_k, 2, 2)


def test_e_coefficient_hand_checked_pairs():
    # frozen values from hand-expanding the q = 2 layer of the e4 fixture
    k, i_k = 1, 3
    assert e_coefficient({(0, 2): 2}, (0, 3), k, i_k, 2, 2) == 4
    assert e_coefficient({(0, 2): 1, (2, 1): 1}, (0, 2), k, i_k, 2, 2) == 6
    assert e_coefficient({(2, 1): 2}, (0, 1), k, i_k, 2, 2) == 2
    assert e_coefficient({(2, 2): 1, (0, 2): 1}, (2, 1), k, i_k, 2, 2) == 4
    assert e_coefficient({(2, 2): 1, (2, 1): 1}, (2, 0), k, i_k, 2, 2) == 2


def test_e_coefficient_values_are_natural():
    rng = random.Random(35)
    k, i_k = 1, 2
    for _ in range(40):
        s = {(rng.randint(0, 3), rng.randint(0, 3)): rng.randint(0, 2)
             for _ in range(2)}
        t = (rng.randint(0, 3), rng.randint(0, 3))
        value = e_coefficient(s, t, k, i_k, 3, 3)
        assert isinstance(value, int) and value >= 0


def test_budget_failure_is_fast():
    budget = EnumerationBudget(limit=10)
    with pytest.raises(BudgetError):
        closed_form_coefficient(E4_POLY, [1, 1], 1, 3, 2, 6, budget=budget)
    # stopped within one spend granule of the cap, not after the full run
    assert budget.used < 50


def test_fs_budget_enforced():
    budget = EnumerationBudget(limit=5)
    with pytest.raises(BudgetError):
        fs_coefficient(CATALAN_EQ, 6, budget=budget)


def test_denominator_structure_on_integer_data():
    # with integer coefficients and integer seed, omega0^p * c_{k+1+p} is an
    # integer, and each coefficient's denominator divides omega0^p
    rng = random.Random(36)
    for P, seed, bd in liftable_instances(rng, 10):
        if any(c.denominator != 1 for c in seed):
            continue
        k = bd.k0 + 1
        lift = newton_lift(P, seed, k + 7)
        for p in range(1, 7):
            c = lift.series.coefficient(k + 1 + p)
            scaled = bd.omega0 ** p * c
            assert scaled.denominator == 1
