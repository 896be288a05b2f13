import random
import warnings
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algseries import (BivarPoly, InputError, NotSimpleRootError, PrecisionError,
                       TruncatedSeries, branch_data, coefficient_after_branch,
                       eval_at_poly, henselize, newton_lift, order_sequence, series_pow,
                       substitute_tail, uni_order)
from algseries import henselization
from algseries.henselization import _power_coefficient, _scan, leaves_branch
from conftest import (E4_POLY, TANGENT, henselian_instance, late_branch_instances,
                      liftable_instances, nonzero_rational)

LINEAR = BivarPoly({(0, 1): 1, (1, 0): -1})   # y - x


def omega0_closed(P, c, k0, i_k0):
    """The scalar at the branch point by the closed multinomial sum over
    the seed monomials of total degree j - 1 in c_1..c_{k0+1}: a reference
    for the omega0 that ``branch_data`` reads off the scan, the coefficient
    of x^(i_k0 + 1) y in the shifted polynomial at k0 + 1."""
    seed = [c.coefficient(n) for n in range(1, k0 + 2)]
    total = F(0)
    for (i, j), a in sorted(P.terms.items()):
        if j >= 1:
            total += a * j * _power_coefficient(seed, j - 1, i_k0 - k0 - 1 - i)
    return total


def test_order_sequence_e4_fixture():
    assert order_sequence(E4_POLY, TruncatedSeries([1, 1]), 1) == (2, 3)


def test_order_sequence_linear():
    # P_1 = x^2 y, and i_k = k + 1 from there on
    assert order_sequence(LINEAR, TruncatedSeries([1, 0, 0, 0]), 4) == (1, 2, 3, 4, 5)


def test_order_sequence_flags_inconsistent_seed():
    # c_2 = 5 is not the root's continuation (it is 1), so the order stalls
    orders = order_sequence(E4_POLY, TruncatedSeries([1, 5, 0]), 3)
    assert orders[2] <= orders[1]


def test_find_k0_e4_fixture():
    assert branch_data(E4_POLY, TruncatedSeries([1])).k0 == 0


def test_find_k0_tangent_branches():
    seed = TruncatedSeries([1, 0, 0, 0, 1, 0, 0])
    bd = branch_data(TANGENT, seed)
    assert bd.k0 == 4 and bd.i_k0 == 10 and bd.omega0 == 1


def test_find_k0_linear():
    assert branch_data(LINEAR, TruncatedSeries([1])).k0 == 0


def test_find_k0_double_root_rejected():
    # (y - x)^2 never separates; the bound eventually disproves simplicity
    double = BivarPoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
    seed = TruncatedSeries([1] + [0] * 11)  # precision 2*dx*dy + 3 = 11... 12
    with pytest.raises(NotSimpleRootError):
        branch_data(double, seed)


def test_find_k0_insufficient_precision():
    double = BivarPoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
    with pytest.raises(PrecisionError):
        branch_data(double, TruncatedSeries([1, 0, 0]))


def test_branch_rejects_pure_x_polynomial():
    with pytest.raises(InputError):
        branch_data(BivarPoly({(1, 0): 1}), TruncatedSeries([1]))


@settings(max_examples=60, deadline=None)
@given(seed=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=5),
                     min_size=1, max_size=4),
       n=st.integers(0, 4), w=st.integers(0, 14))
def test_power_coefficient_matches_series_power(seed, n, w):
    # the x^w coefficient of (c_1 x + ... + c_s x^s)^n by repeated products
    top = max(w, len(seed))
    poly = TruncatedSeries(list(seed) + [0] * (top - len(seed)))
    assert _power_coefficient(seed, n, w) == series_pow(poly, n, top).coefficient(w)


def test_omega0_closed_e4_fixture():
    # 2 * a02 * c1 at the instance
    assert omega0_closed(E4_POLY, TruncatedSeries([1]), 0, 2) == 2
    assert omega0_closed(LINEAR, TruncatedSeries([1]), 0, 1) == 1


def test_omega0_closed_matches_extraction():
    rng = random.Random(21)
    done = 0
    while done < 50:
        inst = henselian_instance(rng)
        if inst is None:
            continue
        P, seed = inst
        bd = branch_data(P, TruncatedSeries(seed))
        assert omega0_closed(P, TruncatedSeries(seed), bd.k0, bd.i_k0) == bd.omega0
        done += 1


def test_omega0_is_initial_coefficient_of_derivative():
    rng = random.Random(22)
    for P, seed, bd in liftable_instances(rng, 10):
        root = newton_lift(P, seed, 2 * P.x_degree * P.y_degree + 2).series
        deriv = eval_at_poly(P.partial_y(), list(root.one_based()))
        e = uni_order(deriv)
        assert e == bd.i_k0 - bd.k0 - 1
        assert deriv[e] == bd.omega0
        assert e <= 2 * P.x_degree * P.y_degree


def test_coefficient_after_branch_matches_oracle():
    rng = random.Random(23)
    for P, seed, bd in liftable_instances(rng, 20):
        prefix = TruncatedSeries(seed[: bd.k0 + 1])
        c_next = coefficient_after_branch(P, prefix, bd.k0, bd.i_k0, bd.omega0)
        assert c_next == seed[bd.k0 + 1]
    # and on the e4 fixture
    assert coefficient_after_branch(E4_POLY, TruncatedSeries([1]), 0, 2, 2) == 1


def test_henselize_e4_fixture_numeric():
    form = henselize(E4_POLY, TruncatedSeries([1, 1]), 1)
    assert form.k0 == 0 and form.i_k == 3 and form.omega0 == 2
    assert form.eq.terms == {
        (1, 2): F(-1, 2), (2, 0): F(-1), (2, 1): F(-1),
        (3, 0): F(-1, 2), (3, 1): F(-1), (3, 2): F(-1, 2),
    }


def test_henselize_symbolic_table():
    # hand-derived coefficient table at k = 1 for the support
    # {a02 y^2, a20 x^2, a21 x^2 y, a22 x^2 y^2} with a20 = -a02 c1^2
    rng = random.Random(24)
    for _ in range(10):
        a02 = nonzero_rational(rng)
        a21 = nonzero_rational(rng)
        a22 = nonzero_rational(rng)
        c1 = nonzero_rational(rng)
        P = BivarPoly({(0, 2): a02, (2, 0): -a02 * c1 ** 2, (2, 1): a21, (2, 2): a22})
        c2 = -a21 / (2 * a02)
        w0 = 2 * a02 * c1
        form = henselize(P, TruncatedSeries([c1, c2]), 1)
        assert form.omega0 == w0
        expected = {
            (1, 0): -(a22 * c1 ** 2 + a21 * c2 + a02 * c2 ** 2) / w0,
            (1, 1): F(0),  # a21 + 2 a02 c2 vanishes by the choice of c2
            (1, 2): -a02 / w0,
            (2, 0): -2 * a22 * c1 * c2 / w0,
            (2, 1): -2 * a22 * c1 / w0,
            (3, 0): -a22 * c2 ** 2 / w0,
            (3, 1): -2 * a22 * c2 / w0,
            (3, 2): -a22 / w0,
        }
        expected = {k: v for k, v in expected.items() if v}
        assert form.eq.terms == expected


def test_henselize_reconstructs_shifted_polynomial():
    # -omega0 x^{i_k} (-y + Q_k(x,y)) must equal P_k(x, y + c_{k+1}) exactly
    rng = random.Random(25)
    for P, seed, bd in liftable_instances(rng, 15):
        k = bd.k0 + 1
        root = newton_lift(P, seed, k + 1).series
        z = list(root.one_based())[: k + 1]
        form = henselize(P, root, k)
        if form.polynomial_root is not None:
            continue
        recon = {(form.i_k, 1): form.omega0}
        for (l, m), b in form.eq.terms.items():
            key = (l + form.i_k, m)
            recon[key] = recon.get(key, F(0)) - form.omega0 * b
        assert BivarPoly(recon) == substitute_tail(P, z, k + 1)


def test_capped_table_is_the_low_levels_of_the_full_table():
    # given ``last``, the table stops at x^last; nothing below changes, and
    # a cut that drops every m = 0 term gives no warning
    rng = random.Random(26)
    for P, seed, bd in liftable_instances(rng, 10):
        k = bd.k0 + 1
        root = newton_lift(P, seed, k + 1).series
        full = henselize(P, root, k)
        if full.polynomial_root is not None:
            continue
        for last in (1, 2, 5):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                capped = henselize(P, root, k, last=last)
            assert capped.eq.terms == {(l, m): b for (l, m), b in full.eq.terms.items()
                                       if l <= last}
            assert (capped.k0, capped.i_k, capped.omega0) == (full.k0, full.i_k, full.omega0)


def test_henselize_detects_polynomial_root():
    form = henselize(LINEAR, TruncatedSeries([1, 0]), 1)
    assert form.polynomial_root == (F(1), F(0))
    assert form.eq is None and form.omega0 is None


def test_henselize_preconditions():
    with pytest.raises(InputError):
        henselize(E4_POLY, TruncatedSeries([1, 1]), 0)
    with pytest.raises(PrecisionError):
        henselize(E4_POLY, TruncatedSeries([1]), 1)
    # k = 1 equals k0 for (y - x)^2 - x^4 (1 + y), and z_2 is not a root
    k01 = BivarPoly({(0, 2): 1, (1, 1): -2, (2, 0): 1, (4, 0): -1, (4, 1): -1})
    with pytest.raises(InputError):
        henselize(k01, TruncatedSeries([1, 1]), 1)
    # k = 1 is below k0 = 4 for (y - x - x^2 y)(y - x - x^3), whose roots
    # share c_1..c_4: the branch does not separate within c_1, c_2
    apart = BivarPoly({(0, 2): 1, (1, 1): -2, (2, 0): 1, (2, 2): -1, (4, 0): 1, (5, 1): 1})
    with pytest.raises(InputError, match="k <= 0"):
        henselize(apart, TruncatedSeries([1, 0, 1, 0, 1]), 1)
    # but an exact polynomial root short-circuits even below k0
    form = henselize(TANGENT, TruncatedSeries([1, 0]), 1)
    assert form.polynomial_root == (F(1), F(0))


def test_henselize_rejects_wrong_continuation():
    with pytest.raises(NotSimpleRootError):
        henselize(E4_POLY, TruncatedSeries([1, 1, 5]), 2)
    # (y - x)^2 never separates: the scan of z = c_1, c_2 sees i_2 = i_1 = 4,
    # so no root of P extends the seed
    double = BivarPoly({(0, 2): 1, (1, 1): -2, (2, 0): 1})
    with pytest.raises(NotSimpleRootError, match="k=2"):
        henselize(double, TruncatedSeries([1, 1]), 1)


def test_order_sequence_validation():
    with pytest.raises(PrecisionError):
        order_sequence(E4_POLY, TruncatedSeries([1, 1]), 3)
    with pytest.raises(InputError):
        order_sequence(E4_POLY, TruncatedSeries([0, 1]), 1)
    with pytest.raises(InputError):
        order_sequence(BivarPoly({(2, 0): 1}), TruncatedSeries([1]), 1)


def test_order_steps_are_unit_past_k0():
    rng = random.Random(26)
    for P, seed, bd in liftable_instances(rng, 10):
        root = newton_lift(P, seed, bd.k0 + 8).series
        orders = order_sequence(P, root, bd.k0 + 8)
        for k in range(bd.k0, bd.k0 + 8):
            assert orders[k + 1] == orders[k] + 1


def test_leaves_branch_agrees_with_order_sequence():
    # Newton's lemma against the literal definition: the first wrong c_m
    # is where the order sequence first fails to step by one
    rng = random.Random(27)
    tangent = [1, 0, 0, 0, 1, 0]   # k0 = 4, e = 5
    cases = [(TANGENT, tangent, branch_data(TANGENT, TruncatedSeries(tangent)))]
    for P, seed, bd in liftable_instances(rng, 40) + late_branch_instances(rng, 9) + cases:
        root = list(newton_lift(P, seed, bd.k0 + 12).series.one_based())
        assert leaves_branch(P, root, bd) is None
        for m in range(bd.k0 + 2, bd.k0 + 13):
            z = list(root)
            z[m - 1] += nonzero_rational(rng)
            orders = order_sequence(P, TruncatedSeries(z), len(z))
            step = next(k + 1 for k in range(bd.k0, len(z)) if orders[k + 1] != orders[k] + 1)
            assert leaves_branch(P, z, bd) == step == m


def test_scan_matches_the_literal_shifted_polynomials(monkeypatch):
    # the scan builds P_k = P(x, z_k + x^(k+1) y) from P(x, x y) one shift
    # at a time; the literal definition expands each P_k from scratch, and
    # the scan itself never does
    rng = random.Random(28)
    tangent = [1, 0, 0, 0, 1, 0]   # k0 = 4
    cases = [(P, seed) for P, seed, _ in liftable_instances(rng, 20) + late_branch_instances(rng, 9)]
    cases.append((TANGENT, tangent))
    calls = []
    tail = henselization.substitute_tail
    monkeypatch.setattr(henselization, "substitute_tail",
                        lambda *args: calls.append(args) or tail(*args))
    for P, seed in cases:
        root = list(newton_lift(P, seed, 12).series.one_based())
        off = list(root)
        off[len(seed)] += nonzero_rational(rng)   # leaves the branch past the seed
        for z in (root, off):
            c = TruncatedSeries(z)
            literal = [substitute_tail(P, z[:k], k + 1) for k in range(len(z) + 1)]
            assert list(_scan(P, c)) == literal
            orders = [Pk.x_order for Pk in literal]
            assert list(order_sequence(P, c, len(z))) == orders
            k0 = next(k for k in range(len(z)) if orders[k + 1] == orders[k] + 1
                      and literal[k + 1].coefficient(orders[k + 1], 1))
            bd = branch_data(P, c)
            assert (bd.k0, bd.i_k0) == (k0, orders[k0])
            assert bd.omega0 == literal[k0 + 1].coefficient(orders[k0] + 1, 1)
            assert bd.omega0 == omega0_closed(P, c, k0, orders[k0])
    assert calls == []
