import functools
import itertools
import random
from fractions import Fraction as F
from math import comb, factorial
from operator import add, sub

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from algseries import (BivarPoly, BudgetError, EnumerationBudget, InputError,
                       ReducedHenselEq, TruncatedSeries, bivar, branch_data,
                       closed_form_coefficient, closed_form_coefficients,
                       coefficient_after_branch, e_coefficient,
                       eval_at_poly, fs_coefficient, fs_expand, henselize, newton_lift,
                       series)
from algseries.flajolet_soria import _e_expand, _slot_walk, _slots, multinomial
from conftest import (E4_POLY, SMALL_RATIONALS, fixed_point_expand, henselian_instance,
                      late_branch_instances, liftable_instances, nonzero_rational, rational,
                      spreads)

CATALAN_EQ = ReducedHenselEq({(1, 0): 1, (0, 2): 1})


def test_eq_validation():
    with pytest.raises(InputError):
        ReducedHenselEq({(0, 0): 1, (1, 0): 1})
    with pytest.raises(InputError):
        ReducedHenselEq({(0, 1): 1, (1, 0): 1})
    # Q(x, 0) = 0 is accepted, and its solution is y = 0
    assert fs_expand(ReducedHenselEq({(1, 1): 1}), 3).one_based() == (0, 0, 0)
    # the equation is the polynomial Q: BivarPoly's checks and cleaning,
    # equality with the same BivarPoly, and evaluation as it stands
    with pytest.raises(InputError):
        ReducedHenselEq({(-1, 2): 1, (1, 0): 1})
    t = {(1, 0): 1, (2, 1): 0, (0, 2): F(1, 2)}
    assert ReducedHenselEq(t).terms == {(1, 0): 1, (0, 2): F(1, 2)}
    assert ReducedHenselEq(t) == BivarPoly(t)
    Q = henselize(E4_POLY, TruncatedSeries([1, 1]), 1).eq
    y = fs_expand(Q, 8)
    assert TruncatedSeries(eval_at_poly(Q, y.one_based(), 8), precision=8, start=0) == y


def test_fs_trivial_equation():
    q = ReducedHenselEq({(1, 0): 1})
    assert [fs_coefficient(q, n) for n in (1, 2, 3)] == [1, 0, 0]
    assert fs_expand(q, 3).one_based() == (1, 0, 0)


def test_fs_catalan():
    assert list(fs_expand(CATALAN_EQ, 6).one_based()) == [1, 1, 2, 5, 14, 42]


def test_fs_matches_reference_with_pure_y_terms():
    # a pure y^2 term is present, so sizes run past n
    expected = fixed_point_expand(CATALAN_EQ, 6)
    for n in range(1, 7):
        assert fs_coefficient(CATALAN_EQ, n) == expected.coefficient(n) \
            == reference_fs_coefficient(CATALAN_EQ, n, EnumerationBudget())


def test_fs_matches_reference_on_hensel_equations():
    # every term of a Hensel form carries x
    form = henselize(E4_POLY, TruncatedSeries([1, 1]), 1)
    expected = fixed_point_expand(form.eq, 6)
    for n in range(1, 7):
        assert fs_coefficient(form.eq, n) == expected.coefficient(n) \
            == reference_fs_coefficient(form.eq, n, EnumerationBudget())


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
        assert eval_at_poly(BivarPoly(residual_terms), sol.one_based(), 6) == []


def test_fs_long_support_does_not_recurse():
    # one stack frame per support term would pass the interpreter's limit
    q = ReducedHenselEq({(l, 0): 1 for l in range(1, 1501)})
    assert fs_coefficient(q, 3) == 1


# -- the enumeration layer


def spread_slots(i, j, k, i_k, last=None):
    """``_slots`` with each slot's seed positions ps as the exponent vector
    L over the k + 1 seed coefficients."""
    return [(m, tuple(map(ps.count, range(1, k + 2))), base)
            for m, ps, base in _slots(i, j, k, i_k, last)]


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
        assert spread_slots(i, j, k, i_k) == _slots_by_filter(i, j, k, i_k)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4), st.integers(0, 6), st.integers(1, 4), st.integers(0, 12),
       st.integers(-2, 16))
def test_capped_slots_are_the_low_levels_of_the_full_table(i, j, k, i_k, last):
    # capped at ``last``, the table keeps exactly the slots of x-level at
    # most ``last``, in the uncapped table's order
    def level(slot):
        m, ps, _base = slot
        return sum(ps) + m * (k + 1) + i - i_k

    full = _slots(i, j, k, i_k)
    assert _slots(i, j, k, i_k, last) == [s for s in full if level(s) <= last]


def test_slots_on_a_long_seed():
    # k = 1099: a spread of one position is the position its level asks
    # for, 1 to 1100 and none past it, and a pair of weight 1100 is one of
    # the 550 pairs (v, 1100 - v) with v <= 550
    assert _slots(0, 1, 1099, 0, 1) == [(0, (1,), 1)]
    assert _slots(0, 1, 1099, 549, 1) == [(0, (550,), 1)]
    assert _slots(0, 1, 1099, 549, 0) == []
    # at level 1 the empty spread of m = 1 joins the position 1100
    assert _slots(0, 1, 1099, 1099, 1) == [(0, (1100,), 1), (1, (), 1)]
    assert _slots(0, 1, 1099, 1100, 1) == []
    assert len(_slots(0, 2, 1099, 1099, 1)) == 550


def test_slots_match_filtered_spreads_at_k50():
    # the position walk against the literal multisets, level-filtered and
    # sorted lexicographically, on a 51-term seed
    k = 50
    for i, j, i_k, last in itertools.product(range(3), range(4), (0, 25, 51, 52), range(5)):
        expect = []
        for m in range(j + 1):
            levels = range(1 - m * (k + 1) - i + i_k, last - m * (k + 1) - i + i_k + 1)
            expect += [(m, L, comb(j, m) * multinomial(L))
                       for L in sorted(L for w in levels for L in spreads(k + 1, j - m, w))]
        assert spread_slots(i, j, k, i_k, last) == expect


# -- the closed form


def test_closed_form_e4_fixture():
    for p, expect in [(1, F(0)), (2, F(-1)), (3, F(-1, 2))]:
        got = closed_form_coefficient(E4_POLY, [1, 1], 1, 3, 2, p)
        assert got == expect


def test_closed_form_node_counts_on_e4():
    # the slot order fixes the pruning, and so the number of nodes visited
    for p, nodes in [(6, 1102), (8, 3419), (10, 9333)]:
        budget = EnumerationBudget()
        closed_form_coefficient(E4_POLY, [1, 1], 1, 3, 2, p, budget=budget)
        assert budget.used == nodes
    # one walk for c_3..c_8 costs less than the six walks of one index each
    budget = EnumerationBudget()
    closed_form_coefficients(E4_POLY, [1, 1], 1, 3, 2, 6, budget=budget)
    assert budget.used == 1457


@pytest.mark.parametrize("P, seed, count, nodes", [
    # y^2 - x^2 + x^2 y^2, root x - x^3/2 + ...: 1164 units with its zero slots
    (BivarPoly({(0, 2): 1, (2, 0): -1, (2, 2): 1}), [1, 0], 8, 340),
    # y = x^2 + y^2, root x^2 + x^4 + 2 x^6 + ...: every spread through c_1
    # is zero-valued, 1034 units with them
    (BivarPoly({(0, 1): 1, (2, 0): -1, (0, 2): -1}), [0, 1], 12, 288),
])
def test_closed_form_skips_slots_through_zero_seed_coefficients(P, seed, count, nodes):
    bd = branch_data(P, TruncatedSeries(seed))
    assert bd.k0 == 0
    budget = EnumerationBudget()
    got = closed_form_coefficients(P, seed, 1, bd.i_k0 + 1, bd.omega0, count, budget=budget)
    assert budget.used == nodes
    assert got == list(newton_lift(P, seed, count + 2).series.one_based()[2:])


def test_reference_closed_form_node_counts_on_e4():
    # the literal walk, one T at a time, visits these nodes for one index
    for p, nodes in [(6, 4077), (8, 14512), (10, 43895)]:
        budget = EnumerationBudget()
        reference_closed_form(E4_POLY, [1, 1], 1, 3, 2, p, budget)
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


def _assert_triple_agreement(cases):
    for (P, seed, bd), terms in cases:
        for k in (bd.k0 + 1, bd.k0 + 2):
            lift = newton_lift(P, seed, k + 7)
            coeffs = list(lift.series.one_based())[: k + 1]
            i_k = bd.i_k0 + (k - bd.k0)
            form = henselize(P, lift.series, k)
            assert closed_form_coefficients(P, coeffs, k, i_k, bd.omega0, terms) == \
                [lift.series.coefficient(k + 1 + p) for p in range(1, terms + 1)]
            for p in range(1, terms + 1):
                newton_c = lift.series.coefficient(k + 1 + p)
                closed_c = closed_form_coefficient(P, coeffs, k, i_k, bd.omega0, p)
                fs_c = fs_coefficient(form.eq, p)
                assert newton_c == fs_c == closed_c


def test_closed_form_triple_agreement():
    rng = random.Random(34)
    cases = [(instance, 6) for instance in liftable_instances(rng, 8)]
    # roots that separate late (k0 = 1..3) have larger Hensel forms, so
    # two tail coefficients keep their enumerations small
    cases += [(instance, 2) for instance in late_branch_instances(rng, 6)]
    _assert_triple_agreement(cases)


def _rescaled(P, seed, r, d):
    """P(r x, d y), whose root is y(r x) / d: rational coefficients and a
    rational seed c_n r^n / d, with the same branch indices as P's root."""
    Q = BivarPoly({(i, j): a * r ** i * d ** j for (i, j), a in P.terms.items()})
    scaled = [c * r ** n / d for n, c in enumerate(seed, 1)]
    return Q, scaled, branch_data(Q, TruncatedSeries(scaled))


def test_closed_form_triple_agreement_rational_data():
    rng = random.Random(38)
    scales = [(F(2, 3), F(5, 7)), (F(-1, 4), F(3)), (F(7, 5), F(-1, 2 ** 20))]
    cases = [(_rescaled(P, seed, *scales[n % 3]), 4)
             for n, (P, seed, _bd) in enumerate(liftable_instances(rng, 6))]
    cases += [(_rescaled(P, seed, *scales[n % 3]), 2)
              for n, (P, seed, _bd) in enumerate(late_branch_instances(rng, 3))]
    for (P, seed, bd), _ in cases:
        assert any(a.denominator > 1 for a in P.terms.values())
        assert any(c.denominator > 1 for c in seed[: bd.k0 + 2])
    _assert_triple_agreement(cases)


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


def test_e_coefficient_charges_term_products():
    # (0, 2) has three slots at k = 1, i_k = 3, so its square is two
    # products of 1 * 3 and 3 * 3 term products
    budget = EnumerationBudget(limit=12)
    assert e_coefficient({(0, 2): 2}, (0, 3), 1, 3, 2, 2, budget=budget) == 4
    assert budget.used == 12
    with pytest.raises(BudgetError, match="enumeration exceeded 11 units"):
        e_coefficient({(0, 2): 2}, (0, 3), 1, 3, 2, 2, budget=EnumerationBudget(limit=11))


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
    # c_6 of the Catalan equation: each product by Q is charged len(Q^m)
    # times its two terms, 84 in all
    budget = EnumerationBudget(limit=84)
    assert fs_coefficient(CATALAN_EQ, 6, budget=budget) == 42
    assert budget.used == 84
    budget = EnumerationBudget(limit=83)
    with pytest.raises(BudgetError, match="exceeded 83 units"):
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


def test_closed_form_budget_is_exact_on_e4():
    # p = 6 visits 1102 nodes: that many are enough, one fewer is not
    budget = EnumerationBudget(limit=1102)
    assert closed_form_coefficient(E4_POLY, [1, 1], 1, 3, 2, 6, budget=budget) == -1
    assert budget.used == 1102
    budget = EnumerationBudget(limit=1101)
    with pytest.raises(BudgetError) as caught:
        closed_form_coefficient(E4_POLY, [1, 1], 1, 3, 2, 6, budget=budget)
    assert str(caught.value) == "enumeration exceeded 1101 units"
    assert budget.used == 1102


def test_closed_form_raises_at_the_first_unit_past_the_limit():
    # past the 14 units of e4's slot tables, charged at once, the walks
    # count one node at a time, the S walk's uncounted leaves too, so a
    # BudgetError always leaves used at limit + 1
    for limit in range(14, 1102):
        budget = EnumerationBudget(limit=limit)
        with pytest.raises(BudgetError):
            closed_form_coefficient(E4_POLY, [1, 1], 1, 3, 2, 6, budget=budget)
        assert budget.used == limit + 1


# -- the closed-form kernel against the literal walks it replaces


def reference_e_from_slots(items, slot_table, T_S, budget):
    """The literal walk: spreads as tuples, one budget charge per node."""
    if not items:
        return int(not any(T_S))
    item_slots = [slot_table[key] for key, _ in items]
    for (_, s), slots in zip(items, item_slots):
        if s and not slots:
            return 0
    fq = factorial(sum(s for _, s in items))
    acc = 0
    stack = [(0, 0, items[0][1], tuple(T_S), 1, 1)]
    while stack:
        item_idx, slot_idx, left, remaining, denom, bases = stack.pop()
        budget.spend()
        slots = item_slots[item_idx]
        _m, L, base = slots[slot_idx]
        if slot_idx < len(slots) - 1:
            for n in range(left + 1):
                if n:
                    remaining = tuple(map(sub, remaining, L))
                    if min(remaining) < 0:
                        break
                stack.append((item_idx, slot_idx + 1, left - n, remaining,
                              denom * factorial(n), bases * base ** n))
            continue
        if left:
            remaining = tuple(map(sub, remaining, [left * t for t in L]))
            if min(remaining) < 0:
                continue
        denom *= factorial(left)
        bases *= base ** left
        if item_idx + 1 < len(items):
            stack.append((item_idx + 1, 0, items[item_idx + 1][1], remaining, denom, bases))
        elif not any(remaining):
            acc += fq // denom * bases
    return acc


def reference_closed_form(P, c, k, i_k, omega0, p, budget, weight=reference_e_from_slots):
    """The literal closed form: a Fraction monomial per seed multi-exponent,
    each weighted by weight(items, slot table, T, budget)."""
    seed = [F(v) for v in c[: k + 1]]
    usable, slot_table = [], {}
    for key, a in sorted(P.terms.items()):
        slot_table[key] = spread_slots(key[0], key[1], k, i_k)
        budget.spend(len(slot_table[key]) + 1)
        usable.append((key, a, bool(slot_table[key])))
    total = F(0)
    for q in range(1, p + 1):
        p_star = p + q * i_k - (q - 1) * (k + 1)
        if p_star < 0:
            continue
        acc_q = F(0)
        stack = [(0, q, 0, 0, ())]
        while stack:
            idx, left, s1, s2, chosen = stack.pop()
            budget.spend()
            if idx < len(usable):
                (i, j), _a, has_slots = usable[idx]
                top = left if has_slots else 0
                if i:
                    top = min(top, (p_star - s1) // i)
                for e in range(top, 0, -1):
                    stack.append((idx + 1, left - e, s1 + i * e, s2 + j * e,
                                  chosen + ((idx, e),)))
                stack.append((idx + 1, left, s1, s2, chosen))
                continue
            tot, wgt = s2 - q + 1, p_star - s1
            if left or s2 < q - 1 or not (tot <= wgt <= (k + 1) * tot or tot == wgt == 0):
                continue
            items = [(usable[t][0], e) for t, e in chosen]
            a_power = F(1)
            for t, e in chosen:
                a_power *= usable[t][1] ** e
            inner = F(0)
            for T in spreads(k + 1, tot, wgt):
                budget.spend()
                mono = F(weight(items, slot_table, T, budget))
                for v, t in enumerate(T):
                    mono *= seed[v] ** t
                inner += mono
            acc_q += a_power * inner
        total += F(-1) ** q / (q * F(omega0) ** q) * acc_q
    return total


def expanded_e_from_slots(items, slot_table, T, budget):
    """``_e_expand``, the expansion ``e_coefficient`` runs, on the
    reference's arguments."""
    return _e_expand([(slot_table[key], s) for key, s in items], T, budget)


def _outcome(walk, *args, limit, used=0):
    """(value or BudgetError text, budget.used) of one walk, from ``used``
    units spent."""
    budget = EnumerationBudget(limit=limit, used=used)
    try:
        value = walk(*args, budget)
    except BudgetError as exc:
        value = str(exc)
    return value, budget.used


@st.composite
def slot_walks(draw):
    """Items with positive exponents, a slot table over them (an item may
    have no slot) and a target spread.  Most draws take T as the sum of one
    drawn slot spread per copy, a reachable target; the others draw T at
    random, some of its entries negative, as ``e_coefficient`` accepts."""
    fields = draw(st.integers(1, 3))
    spread = st.tuples(*[st.integers(0, 5)] * fields)
    slots = st.lists(st.tuples(st.just(0), spread, st.integers(1, 9)), min_size=1, max_size=4)
    items, table = [], {}
    for key in range(draw(st.integers(0, 3))):
        # now and then an item has no slot
        table[(key, 1)] = draw(slots) if draw(st.integers(0, 9)) else []
        items.append(((key, 1), draw(st.integers(1, 3))))
    if draw(st.integers(0, 4)):
        # T as one drawn slot spread per copy
        T = (0,) * fields
        for key, s in items:
            for _ in range(s if table[key] else 0):
                T = tuple(map(add, T, draw(st.sampled_from(table[key]))[1]))
    else:
        T = draw(st.tuples(*[st.integers(-3, 16)] * fields))
    return items, table, T


# edge cases of the slot assignments, each (items, slot table, T); they
# were the boundary cases of packed-integer spreads, whose test names the
# two tests below keep.  The expansion charges term products where the
# reference walk charges nodes, so under a budget cut each must give the
# reference value or fail for that limit
BOUNDARY_WALKS = [
    # an entry of T equal to |T|, with |T| just below and at a power of two
    *[([((0, 1), 1)], {(0, 1): [(0, (0, 0), 5), (0, (t, 0), 3)]}, (t, 0))
      for t in (7, 8, 15, 16)],
    *[([((0, 1), 1), ((1, 1), 1)],
       {(0, 1): [(0, (0, 0, 0), 1), (0, (0, t - 1, 0), 2)],
        (1, 1): [(0, (0, 0, 0), 1), (0, (0, 1, 0), 3)]}, (0, t, 0))
      for t in (7, 8, 31, 32)],
    # a last slot whose left * L is the largest entry, from a smaller entry
    ([((0, 1), 4)], {(0, 1): [(0, (1, 0), 1), (0, (0, 3), 2)]}, (1, 9)),
    ([((0, 1), 4)], {(0, 1): [(0, (1, 0), 1), (0, (0, 4), 2)]}, (2, 8)),
    ([((0, 1), 3), ((1, 1), 2)],
     {(0, 1): [(0, (1, 0), 1), (0, (0, 5), 2)], (1, 1): [(0, (0, 1), 3), (0, (2, 0), 1)]},
     (4, 1)),
    ([((0, 1), 3), ((1, 1), 1)],
     {(0, 1): [(0, (0, 1), 1), (0, (4, 0), 1)], (1, 1): [(0, (0, 4), 3)]}, (8, 5)),
    # no items, and an item with no slot
    ([], {}, (0, 0)),
    ([], {}, (0, 3)),
    ([((0, 1), 2)], {(0, 1): []}, (0, 0)),
    ([((0, 1), 1), ((1, 1), 2)], {(0, 1): [(0, (1, 1), 2)], (1, 1): []}, (1, 1)),
]


@pytest.mark.parametrize("items, table, T", BOUNDARY_WALKS)
def test_packed_walk_boundary_cases(items, table, T):
    expect, _nodes = _outcome(reference_e_from_slots, items, table, T, limit=10 ** 6)
    value, used = _outcome(expanded_e_from_slots, items, table, T, limit=10 ** 6)
    assert value == expect
    # and with every budget that cuts the expansion short
    for limit in range(1, used + 1):
        _assert_reference_or_budget(
            lambda budget: expanded_e_from_slots(items, table, T, budget), expect, limit)


@settings(max_examples=400, deadline=None)
@given(walk=slot_walks(), limit=st.integers(1, 3000), used=st.integers(0, 50))
@example(walk=BOUNDARY_WALKS[0], limit=10, used=10)
def test_packed_walk_matches_tuple_walk(walk, limit, used):
    items, table, T = walk
    expect, _nodes = _outcome(reference_e_from_slots, items, table, T, limit=10 ** 6)
    assert _outcome(expanded_e_from_slots, items, table, T, limit=10 ** 6)[0] == expect
    _assert_reference_or_budget(lambda budget: expanded_e_from_slots(items, table, T, budget),
                                expect, limit + used, used)


def test_e_coefficient_matches_tuple_walk():
    # e_coefficient builds its own slots, negative entries of T included
    rng = random.Random(39)
    for _ in range(200):
        k, i_k, dx, dy = rng.randint(1, 2), rng.randint(0, 4), 3, 3
        S = {(rng.randint(0, dx), rng.randint(0, dy)): rng.randint(0, 3) for _ in range(2)}
        T = tuple(rng.randint(-2, 7) for _ in range(k + 1))
        items = [(key, s) for key, s in sorted(S.items()) if s]
        table = {key: spread_slots(key[0], key[1], k, i_k) for key, _ in items}
        expect, nodes = _outcome(reference_e_from_slots, items, table, T, limit=10 ** 6)

        def weight(budget):
            return e_coefficient(S, T, k, i_k, dx, dy, budget=budget)

        assert _outcome(weight, limit=10 ** 6)[0] == expect
        for limit in (1, nodes // 2 + 1, nodes):
            _assert_reference_or_budget(weight, expect, limit)


def test_closed_form_from_the_exported_weights():
    # the literal closed form weighted by e_coefficient, which reads each
    # weight off a product of slot sums, against the slot walks
    rng = random.Random(42)
    for P, seed, bd in liftable_instances(rng, 4) + late_branch_instances(rng, 3):
        k, i_k = bd.k0 + 1, bd.i_k0 + 1
        coeffs = list(newton_lift(P, seed, k + 1).series.one_based())
        dx, dy = max(i for i, _ in P.terms), max(j for _, j in P.terms)

        def weight(items, _table, T, budget):
            return e_coefficient(dict(items), T, k, i_k, dx, dy, budget=budget)

        for p in (1, 2, 3):
            got = reference_closed_form(P, coeffs, k, i_k, bd.omega0, p,
                                        EnumerationBudget(limit=10 ** 9), weight)
            assert got == closed_form_coefficient(P, coeffs, k, i_k, bd.omega0, p)


SEED_RATIONALS = st.one_of(
    SMALL_RATIONALS,
    st.builds(F, st.integers(-2 ** 64, 2 ** 64),
              st.one_of(st.integers(1, 2 ** 64), st.sampled_from([2 ** 63, 2 ** 64 - 1, 2 ** 64]))))


def _assert_reference_or_budget(walk, expect, limit, used=0):
    """Under any limit, from ``used`` units spent, the walk answers the
    reference value or raises BudgetError for that limit, and nothing
    else."""
    budget = EnumerationBudget(limit=limit, used=used)
    try:
        value = walk(budget)
    except BudgetError as exc:
        assert str(exc) == f"enumeration exceeded {limit} units"
        assert budget.used > limit
    else:
        assert value == expect
        assert budget.used <= limit


def _assert_matches_reference(P, seed, k, i_k, omega0, expect, limit):
    # every index of one walk, and each index on its own
    count = len(expect)
    _assert_reference_or_budget(
        lambda budget: closed_form_coefficients(P, seed, k, i_k, omega0, count, budget=budget),
        expect, limit)
    for p in range(1, count + 1):
        _assert_reference_or_budget(
            lambda budget: closed_form_coefficient(P, seed, k, i_k, omega0, p, budget=budget),
            expect[p - 1], limit)


@settings(max_examples=60, deadline=None)
@given(terms=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             SMALL_RATIONALS.filter(bool), min_size=1, max_size=4),
       seed=st.lists(SEED_RATIONALS, min_size=5, max_size=5),
       k=st.integers(1, 4), i_k=st.integers(0, 5), count=st.integers(1, 4),
       omega0=SMALL_RATIONALS.filter(bool), limit=st.integers(1, 20000))
def test_closed_form_matches_literal_closed_form(terms, seed, k, i_k, count, omega0, limit):
    # the closed form is a polynomial in P's coefficients and the seed, so
    # it is compared on any data, not only on roots; rational seeds with
    # denominators up to 2^64 run the one-denominator-per-|T| path
    P = BivarPoly(terms)
    expect = [reference_closed_form(P, seed, k, i_k, omega0, p,
                                    EnumerationBudget(limit=10 ** 9))
              for p in range(1, count + 1)]
    assert closed_form_coefficients(P, seed, k, i_k, omega0, count) == expect
    _assert_matches_reference(P, seed, k, i_k, omega0, expect, limit)


@functools.cache
def _late_and_rational_roots():
    """(P, seed, k, i_k, omega0, reference c_{k+2}..c_{k+4}) on roots that
    separate late (k0 = 1..3) and on rescaled roots with rational data."""
    rng = random.Random(41)
    scales = [(F(2, 3), F(5, 7)), (F(-1, 4), F(3)), (F(7, 5), F(-1, 2 ** 20))]
    roots = late_branch_instances(rng, 6)
    roots += [_rescaled(P, seed, *scales[n % 3])
              for n, (P, seed, _bd) in enumerate(late_branch_instances(rng, 3))]
    roots += [_rescaled(P, seed, *scales[n % 3])
              for n, (P, seed, _bd) in enumerate(liftable_instances(rng, 3))]
    out = []
    for P, seed, bd in roots:
        k = bd.k0 + 1
        coeffs = list(newton_lift(P, seed, k + 1).series.one_based())
        i_k = bd.i_k0 + 1
        expect = [reference_closed_form(P, coeffs, k, i_k, bd.omega0, p,
                                        EnumerationBudget(limit=10 ** 9))
                  for p in (1, 2, 3)]
        out.append((P, coeffs, k, i_k, bd.omega0, expect))
    return out


@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, 11), limit=st.integers(1, 70000))
def test_closed_form_matches_literal_closed_form_on_roots(case, limit):
    P, seed, k, i_k, omega0, expect = _late_and_rational_roots()[case]
    assert closed_form_coefficients(P, seed, k, i_k, omega0, 3) == expect
    _assert_matches_reference(P, seed, k, i_k, omega0, expect, limit)


def reference_exponent_vectors(support, n, size_cap, budget):
    """The walk one index at a time, pruned only on the size and y-weight
    caps, after a node is visited: (nonzero (index, exponent) pairs, size)."""
    room = budget.limit - budget.used
    nodes = 0
    end = len(support)
    stack = [(0, n, 0, 0, ())]
    while stack:
        idx, rem_n, size, y_weight, chosen = stack.pop()
        nodes += 1
        if nodes > room:
            budget.spend(nodes)
        if size > size_cap or y_weight > size_cap - 1:
            continue
        if idx == end:
            if rem_n == 0 and size >= 1 and y_weight == size - 1:
                budget.spend(nodes)
                nodes = 0
                yield chosen, size
                room = budget.limit - budget.used
            continue
        l, m = support[idx]
        top = rem_n // l if l > 0 else size_cap - size
        for e in range(top, 0, -1):
            stack.append((idx + 1, rem_n - l * e, size + e, y_weight + m * e,
                          chosen + ((idx, e),)))
        stack.append((idx + 1, rem_n, size, y_weight, chosen))
    budget.spend(nodes)


def reference_fs_coefficient(Q, n, budget):
    """The Flajolet-Soria sum for one index over the reference walk, every
    size up to 2n - 1."""
    support, coeffs = sorted(Q.terms), Q.terms
    total = F(0)
    for chosen, size in reference_exponent_vectors(support, n, 2 * n - 1, budget):
        term = F(multinomial([e for _, e in chosen]), size)
        for t, e in chosen:
            term *= coeffs[support[t]] ** e
        total += term
    return total


@st.composite
def hensel_equations(draw):
    """Reduced Henselian equations with an x-only term, and possibly l = 0
    terms with m >= 2 and m = 1 terms."""
    coeff = SMALL_RATIONALS.filter(bool)
    terms = {(draw(st.integers(1, 3)), 0): draw(coeff)}
    for _ in range(draw(st.integers(0, 3))):
        m = draw(st.integers(1, 3))
        l = draw(st.integers(0 if m >= 2 else 1, 3))
        terms[(l, m)] = draw(coeff)
    return ReducedHenselEq(terms)


@settings(max_examples=150, deadline=None)
@given(Q=hensel_equations(), n=st.integers(1, 12), limit=st.integers(1, 3000))
def test_fs_window_walk_matches_reference_walk(Q, n, limit):
    expect = [reference_fs_coefficient(Q, t, EnumerationBudget(limit=10 ** 9))
              for t in range(1, n + 1)]
    assert list(fs_expand(Q, n).one_based()) == expect
    assert fs_coefficient(Q, n) == expect[-1]
    _assert_reference_or_budget(lambda budget: list(fs_expand(Q, n, budget=budget).one_based()),
                                expect, limit)
    _assert_reference_or_budget(lambda budget: fs_coefficient(Q, n, budget=budget),
                                expect[-1], limit)


@settings(max_examples=60, deadline=None)
@given(rng_seed=st.integers(0, 2 ** 32), dx=st.integers(1, 4), dy=st.integers(1, 4),
       count=st.integers(1, 30))
def test_fs_expand_of_cut_hensel_form_matches_newton(rng_seed, dx, dy, count):
    inst = henselian_instance(random.Random(rng_seed), dx, dy)
    assume(inst is not None)
    P, seed = inst
    bd = branch_data(P, TruncatedSeries(seed))
    assume(len(seed) >= bd.k0 + 2)
    k = len(seed) - 1
    form = henselize(P, TruncatedSeries(seed), k, branch=bd, last=count)
    root = newton_lift(P, seed, k + 1 + count, branch=bd).series
    assert list(fs_expand(form.eq, count).one_based()) == \
        [root.coefficient(k + 1 + p) for p in range(1, count + 1)]


def reference_slot_walk(exponents, item_slots, size, rise, fall, budget):
    """The slot walk that puts every count n of one slot in one node, with
    q!/prod(n!) applied at each complete assignment."""
    fq = factorial(sum(exponents))
    last = len(exponents) - 1
    ends = [len(slots) - 1 for slots in item_slots]
    rest = [0] * (last + 1)
    for t in range(last, 0, -1):
        rest[t - 1] = rest[t] + exponents[t] * item_slots[t][0][0]
    room = budget.limit - budget.used
    nodes = 0
    acc = {}
    stack = [(0, 0, exponents[0], size, rise, fall, 1, 1)]
    while stack:
        item, slot, left, size, rise, fall, denom, prod = stack.pop()
        nodes += 1
        if nodes > room:
            budget.spend(nodes)
        s, r, f, value = item_slots[item][slot]
        if slot < ends[item]:
            slot += 1
            nxt = item_slots[item][slot][0]
            after = rest[item]
            if size <= left * nxt + after:
                stack.append((item, slot, left, size, rise, fall, denom, prod))
            for n in range(1, left + 1):
                size -= s
                rise -= r
                fall -= f
                if size | rise | fall < 0:
                    break
                if size <= (left - n) * nxt + after:
                    stack.append((item, slot, left - n, size, rise, fall, denom * factorial(n),
                                  prod * value ** n))
            continue
        if left:
            size -= left * s
            rise -= left * r
            fall -= left * f
            if size | rise | fall < 0:
                continue
            denom *= factorial(left)
            prod *= value ** left
        if item < last:
            if size <= rest[item]:
                stack.append((item + 1, 0, exponents[item + 1], size, rise, fall, denom, prod))
        elif not size:
            acc[rise] = acc.get(rise, 0) + fq // denom * prod
    budget.spend(nodes)
    return acc


@st.composite
def slot_tables(draw):
    """(exponents, slot lists, size, rise, fall) for the slot walk: slots
    from random seed spreads over k + 1 places, sizes never rising along a
    list, and a weight window around the spreads' weights."""
    k = draw(st.integers(1, 3))
    exponents, tables = [], []
    for _ in range(draw(st.integers(1, 3))):
        exponents.append(draw(st.integers(1, 3)))
        spreads = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, 3)] * (k + 1)),
                                          st.integers(-9, 9).filter(bool)),
                                min_size=1, max_size=5))
        table = []
        for L, value in sorted(spreads, key=lambda slot: -sum(slot[0])):
            size = sum(L)
            weight = sum((v + 1) * t for v, t in enumerate(L))
            table.append((size, weight - size, (k + 1) * size - weight, value))
        tables.append(table)
    size = draw(st.integers(0, sum(e * t[0][0] for e, t in zip(exponents, tables))))
    wlo = draw(st.integers(size, (k + 1) * size))
    whi = draw(st.integers(wlo, (k + 1) * size))
    return exponents, tables, size, whi - size, (k + 1) * size - wlo


@settings(max_examples=300, deadline=None)
@given(walk=slot_tables(), limit=st.integers(1, 2000))
def test_slot_walk_matches_reference_walk(walk, limit):
    expect = reference_slot_walk(*walk, EnumerationBudget(limit=10 ** 9))
    assert _slot_walk(*walk, EnumerationBudget()) == expect
    _assert_reference_or_budget(lambda budget: _slot_walk(*walk, budget), expect, limit)


def frame_per_copy_slot_walk(exponents, item_slots, size, rise, fall, budget):
    """The slot walk with a frame for every node, leaves included: a leaf
    is pushed by its parent and summed when it is popped.  It is the
    reference for the units ``_slot_walk`` charges."""
    last = len(exponents) - 1
    rest = [0] * (last + 1)
    for t in range(last, 0, -1):
        rest[t - 1] = rest[t] + exponents[t] * item_slots[t][0][0]
    room = budget.limit - budget.used
    nodes = 0
    acc = {}
    stack = [(0, 0, exponents[0], 0, size, rise, fall, 1, 1)]
    while stack:
        item, slot, left, run, size, rise, fall, mult, prod = stack.pop()
        nodes += 1
        if nodes > room:
            budget.spend(nodes)
        if not left:
            if item == last:
                acc[rise] = acc.get(rise, 0) + mult * prod
                continue
            item, slot, run = item + 1, 0, 0
            left = exponents[item]
        copy = exponents[item] - left + 1
        after = rest[item]
        slots = item_slots[item]
        for t in range(slot, len(slots)):
            s, r, f, value = slots[t]
            if size > left * s + after:
                break
            if size < s or rise < r or fall < f:
                continue
            same = run + 1 if t == slot else 1
            stack.append((item, t, left - 1, same, size - s, rise - r, fall - f,
                          mult * copy // same, prod * value))
    budget.spend(nodes)
    fq = multinomial(exponents)
    return {r: fq * v for r, v in acc.items()}


@settings(max_examples=300, deadline=None)
@given(walk=slot_tables(), limit=st.integers(1, 2000), used=st.integers(0, 50))
def test_slot_walk_charges_the_units_of_the_frame_per_copy_walk(walk, limit, used):
    # a leaf finished inside its parent's loop is still one unit: the same
    # sums and budget.used, and under a cut budget the same value or the
    # same BudgetError at the same budget.used
    for cut in (10 ** 9, limit + used):
        assert _outcome(_slot_walk, *walk, limit=cut, used=used) == \
            _outcome(frame_per_copy_slot_walk, *walk, limit=cut, used=used)


def test_closed_form_and_fs_stay_off_the_series_kernel(monkeypatch):
    # the closed form, Flajolet-Soria and the Hensel tables with their seed
    # powers must not borrow the series kernel that Newton lifting runs on
    rng = random.Random(40)
    cases = []
    for P, seed, bd in liftable_instances(rng, 4) + late_branch_instances(rng, 2):
        k = bd.k0 + 1
        coeffs = list(newton_lift(P, seed, k + 4).series.one_based())[: k + 1]
        i_k = bd.i_k0 + (k - bd.k0)
        cases.append((P, coeffs, k, i_k, bd))

    def values():
        out = []
        for P, coeffs, k, i_k, bd in cases:
            prefix = TruncatedSeries(coeffs)
            eq = henselize(P, prefix, k, branch=bd).eq
            out.append(eq.terms)
            out.append(coefficient_after_branch(P, prefix, bd.k0, bd.i_k0, bd.omega0))
            out.append(closed_form_coefficients(P, coeffs, k, i_k, bd.omega0, 3))
            for p in (1, 2, 3):
                out.append(closed_form_coefficient(P, coeffs, k, i_k, bd.omega0, p))
                out.append(fs_coefficient(eq, p))
        return out

    expect = values()

    def forbidden(*args, **kwargs):
        raise AssertionError("the series kernel was called")

    for module, name in [(series, "_int_mul"), (series, "series_div"),
                         (series, "series_pow"), (bivar, "_evaluate"), (bivar, "_powers")]:
        monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(AssertionError, match="series kernel"):
        newton_lift(*cases[0][:2], 6)
    assert values() == expect
