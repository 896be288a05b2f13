import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from algseries import (BivarPoly, MinorIndex, NotAlgebraicError, PrecisionError,
                       SupportShape, TruncatedSeries, bareiss_det, branch_data,
                       build_slab, certify, eval_at_series, full_support,
                       is_algebraic_rel, newton_lift, reconstruct, series_pow,
                       wilczynski_minor)
from conftest import (E3_RECONSTRUCTED, E3_SHAPE, E4_POLY, e3_family_instance,
                      henselian_instance, nonzero_rational, rational)

ROOT16 = newton_lift(E4_POLY, [1, 1], 16).series
# y0 = x/(1 - x): every coefficient 1, killed by x + xy - y and its multiples
GEOMETRIC14 = TruncatedSeries([1] * 14)
# y^2 - x^2 - 2x^2y^2 and its root through seed 1, 0
Y2_POLY = BivarPoly({(0, 2): 1, (2, 0): -1, (2, 2): -2})
Y2_ROOT20 = newton_lift(Y2_POLY, [1, 0], 20).series


def random_series(rng, precision):
    return TruncatedSeries([nonzero_rational(rng)] +
                           [rational(rng) for _ in range(precision - 1)])


# -- slab construction


def test_slab_entry_pattern():
    rng = random.Random(11)
    c = random_series(rng, 9)
    slab = build_slab(E3_SHAPE, c, 8)
    # row 2 is removed; surviving labels start 1, 3, 4, 5, ...
    assert slab.row_labels == (1, 3, 4, 5, 6, 7, 8, 9)
    powers = [series_pow(c, j, 9) for j in range(3)]
    # row label 3: (c_1, 2 c_1 c_2, 0) in columns (2,1), (0,2), (2,2)
    assert slab.entries[1][0] == c.coefficient(1)
    assert slab.entries[1][1] == 2 * c.coefficient(1) * c.coefficient(2)
    assert slab.entries[1][2] == 0
    # every entry is the shifted power-series coefficient
    for r, label in enumerate(slab.row_labels):
        for col, (i, j) in enumerate(E3_SHAPE.F):
            assert slab.entries[r][col] == powers[j].coefficient(label - i)


def test_slab_numeric_instantiation():
    c = TruncatedSeries([1, 1, 0, -1, F(-1, 2), 0, 0, 0, 0])
    slab = build_slab(E3_SHAPE, c, 8)
    assert slab.entries[0] == (0, 0, 0)
    assert slab.entries[1] == (1, 2, 0)
    assert slab.entries[2] == (1, 1, 1)


def test_slab_with_empty_g_is_unreduced():
    shape = SupportShape(F=((0, 1), (1, 1)), G=())
    rng = random.Random(12)
    c = random_series(rng, 5)
    slab = build_slab(shape, c, 5)
    assert slab.row_labels == (1, 2, 3, 4, 5)
    for r in range(5):
        assert slab.entries[r][0] == c.coefficient(r + 1)


def test_slab_columns_are_f_only():
    slab = build_slab(E3_SHAPE, ROOT16, 8)
    assert len(slab.entries[0]) == len(E3_SHAPE.F)


def test_slab_requires_precision_and_unit_valuation():
    with pytest.raises(PrecisionError):
        build_slab(E3_SHAPE, TruncatedSeries([1, 1]), 8)
    from algseries import InputError

    with pytest.raises(InputError):
        build_slab(E3_SHAPE, TruncatedSeries([0, 1, 1]), 2)


# -- minors


def known_order3_minors():
    def q234(c1, c2, c3, c4, c5):
        return -2 * c1 ** 2 * (c2 ** 3 - 2 * c3 * c1 * c2 + c1 ** 2 * c4)

    def q235(c1, c2, c3, c4, c5):
        return -c1 * (c2 ** 4 - 3 * c1 ** 2 * c3 ** 2 + 2 * c1 ** 3 * c5)

    def q245(c1, c2, c3, c4, c5):
        return -2 * c1 ** 2 * (-c4 * c2 ** 2 - 2 * c1 * c4 * c3 + c2 * c3 ** 2
                               + 2 * c1 * c2 * c5)

    def q345(c1, c2, c3, c4, c5):
        return (8 * c2 * c1 ** 2 * c4 * c3 + c2 ** 4 * c3 - 2 * c2 ** 2 * c3 ** 2 * c1
                - 4 * c1 ** 2 * c2 ** 2 * c5 - 3 * c1 ** 2 * c3 ** 3
                + 2 * c3 * c1 ** 3 * c5 - 2 * c1 ** 3 * c4 ** 2)

    return {(2, 3, 4): q234, (2, 3, 5): q235, (2, 4, 5): q245, (3, 4, 5): q345}


def test_minor_known_values():
    slab = build_slab(E3_SHAPE, TruncatedSeries([2, 1, 1, 1, 1, 0, 0, 0, 0]), 8)
    assert wilczynski_minor(slab, MinorIndex((2, 3, 4), E3_SHAPE.F)) == -8
    slab = build_slab(E3_SHAPE, TruncatedSeries([1, 2, 3, 4, 5, 0, 0, 0, 0]), 8)
    assert wilczynski_minor(slab, MinorIndex((2, 3, 4), E3_SHAPE.F)) == 0


def test_minor_order_one_reads_entry():
    rng = random.Random(13)
    c = random_series(rng, 9)
    slab = build_slab(E3_SHAPE, c, 8)
    powers = [series_pow(c, j, 9) for j in range(3)]
    for pos, label in enumerate(slab.row_labels, start=1):
        for (i, j) in E3_SHAPE.F:
            got = wilczynski_minor(slab, MinorIndex((pos,), ((i, j),)))
            assert got == powers[j].coefficient(label - i)


def test_minor_order_zero_is_one():
    slab = build_slab(E3_SHAPE, ROOT16, 8)
    assert wilczynski_minor(slab, MinorIndex((), ())) == 1


def test_minor_index_validation():
    from algseries import InputError

    slab = build_slab(E3_SHAPE, ROOT16, 8)
    with pytest.raises(InputError):
        wilczynski_minor(slab, MinorIndex((3, 2), ((2, 1), (0, 2))))
    with pytest.raises(InputError):
        wilczynski_minor(slab, MinorIndex((2, 3), ((0, 2), (2, 1))))
    with pytest.raises(InputError):
        wilczynski_minor(slab, MinorIndex((2, 9), ((2, 1), (0, 2))))
    with pytest.raises(InputError):
        wilczynski_minor(slab, MinorIndex((2,), ((1, 1),)))


def test_known_minors_at_random_points():
    rng = random.Random(14)
    for _ in range(8):
        cs = [nonzero_rational(rng)] + [rational(rng) for _ in range(8)]
        slab = build_slab(E3_SHAPE, TruncatedSeries(cs), 8)
        for rows, formula in known_order3_minors().items():
            got = wilczynski_minor(slab, MinorIndex(rows, E3_SHAPE.F))
            assert got == formula(*cs[:5])


def test_minor_homogeneity():
    # scaling every c_n by t multiplies an order <= 3 minor by t^D, where D
    # sums the column y-exponents over columns that are not identically zero
    # within the selected rows
    rng = random.Random(15)
    cs = [nonzero_rational(rng)] + [rational(rng) for _ in range(8)]
    t = F(3, 2)
    scaled = [t * v for v in cs]
    slab = build_slab(E3_SHAPE, TruncatedSeries(cs), 8)
    slab_t = build_slab(E3_SHAPE, TruncatedSeries(scaled), 8)
    for order in (1, 2, 3):
        for rows in combinations(range(1, 6), order):
            for cols in combinations(E3_SHAPE.F, order):
                base = wilczynski_minor(slab, MinorIndex(rows, cols))
                scaled_minor = wilczynski_minor(slab_t, MinorIndex(rows, cols))
                degree = sum(j for (i, j) in cols
                             if any(slab.row_labels[r - 1] - i >= j for r in rows))
                assert scaled_minor == t ** degree * base


def test_maximal_minors_vanish_on_algebraic_series():
    rng = random.Random(16)
    for _ in range(5):
        P, seed = e3_family_instance(rng)
        root = newton_lift(P, seed, 9).series
        slab = build_slab(E3_SHAPE, root, 8)
        for rows in combinations(range(1, 9), 3):
            assert wilczynski_minor(slab, MinorIndex(rows, E3_SHAPE.F)) == 0


def test_minors_dual_route_agreement():
    # division-based elimination vs fraction-free oracle, orders up to 6
    rng = random.Random(17)
    shape6 = SupportShape(
        F=((0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)), G=((1, 0), (2, 0)))
    c = random_series(rng, 10)
    slab = build_slab(shape6, c, 8)
    for order in (2, 4, 6):
        for _ in range(5):
            rows = tuple(sorted(rng.sample(range(1, 9), order)))
            cols = tuple(sorted(rng.sample(range(6), order)))
            cols = tuple(shape6.F[c_] for c_ in cols)
            sub = [[slab.entries[r - 1][shape6.F.index(cc)] for cc in cols]
                   for r in rows]
            assert wilczynski_minor(slab, MinorIndex(rows, cols)) == bareiss_det(sub)


# -- decision, reconstruction, certification


def test_root_series_is_algebraic():
    decision = is_algebraic_rel(E3_SHAPE, ROOT16, 2, 2)
    assert decision.algebraic and decision.conditional
    assert decision.rank == 2


def test_linear_series_is_algebraic():
    shape = SupportShape(F=((0, 1),), G=((1, 0),))
    c = TruncatedSeries([1, 0, 0])
    decision = is_algebraic_rel(shape, c, 1, 1)
    assert decision.algebraic
    result = reconstruct(shape, c, 1, 1)
    assert result.poly == BivarPoly({(0, 1): 1, (1, 0): -1})


def test_random_series_not_algebraic():
    rng = random.Random(18)
    hits = 0
    for _ in range(10):
        c = random_series(rng, 9)
        decision = is_algebraic_rel(E3_SHAPE, c, 2, 2)
        if not decision.algebraic:
            hits += 1
            with pytest.raises(NotAlgebraicError):
                reconstruct(E3_SHAPE, c, 2, 2)
            assert not decision.conditional
    assert hits >= 9  # rank deficiency has measure zero


def test_reconstruct_e3_fixture():
    result = reconstruct(E3_SHAPE, ROOT16, 2, 2)
    assert result.poly == E3_RECONSTRUCTED
    assert result.conditional
    assert certify(result.poly, ROOT16, 2, 2)


def test_reconstruct_rank_zero_case():
    # the polynomial series c_1 x + ... + c_4 x^4 with every slab entry
    # removed by G: the single F-coefficient is set to 1 and the pure-x
    # terms absorb the series
    shape = SupportShape(F=((1, 1),), G=((2, 0), (3, 0), (4, 0), (5, 0)))
    cs = [F(3), F(-1), F(2), F(5)]
    c = TruncatedSeries(cs + [0] * 10)
    result = reconstruct(shape, c, 5, 1)
    expected = BivarPoly({(1, 1): 1, (2, 0): -3, (3, 0): 1, (4, 0): -2, (5, 0): -5})
    assert result.poly == expected
    assert certify(result.poly, c, 5, 1)


def test_reconstruct_rational_series():
    # y0 = -(x - x^2)/(1 + x) = -x + 2x^2 - 2x^3 + ... satisfies
    # (1 + x) y + (x - x^2) = 0
    coeffs = [F(-1)]
    for n in range(2, 13):
        coeffs.append(F((-1) ** n * 2))
    c = TruncatedSeries(coeffs)
    shape = SupportShape(F=((0, 1), (1, 1)), G=((1, 0), (2, 0)))
    result = reconstruct(shape, c, 2, 1)
    assert result.poly == BivarPoly({(0, 1): 1, (1, 1): 1, (1, 0): 1, (2, 0): -1})
    # x/(1 - x) on the full (2, 2) grid: the slab kernel also holds
    # x (x + xy - y), but the relation returned is the one with the
    # anti-lex smallest leading F-term
    result = reconstruct(full_support(2, 2), GEOMETRIC14, 2, 2)
    assert result.poly == BivarPoly({(1, 0): 1, (1, 1): 1, (0, 1): -1})


def test_reconstruct_degenerate_rational_series():
    # -(x + x^2)/(1 + x) collapses to -x; the minimal certified annihilator
    # within the shape is y + x, a factor of the expected (1+x)y + (x+x^2)
    c = TruncatedSeries([F(-1)] + [F(0)] * 11)
    shape = SupportShape(F=((0, 1), (1, 1)), G=((1, 0), (2, 0)))
    result = reconstruct(shape, c, 2, 1)
    assert result.poly == BivarPoly({(0, 1): 1, (1, 0): 1})
    assert certify(result.poly, c, 2, 1)


def test_reconstruct_with_empty_g():
    # y0 = 2x kills y^2 - 2xy, whose support has no pure x-power
    shape = SupportShape(F=((1, 1), (0, 2)), G=())
    c = TruncatedSeries([2] + [0] * 7)
    result = reconstruct(shape, c, 1, 2)
    assert result.poly == BivarPoly({(0, 2): 1, (1, 1): -2})


def test_reconstruct_under_ramification_constraints():
    # reduced series of a square root: only even x-powers are admissible,
    # and the reconstruction lands on y^2 - x^2
    from algseries import PuiseuxMeta, puiseux_support_constraints

    shape = puiseux_support_constraints(PuiseuxMeta(2, 1, 2), 2)
    c = TruncatedSeries([1] + [0] * 9)
    result = reconstruct(shape, c, 2, 2)
    assert result.poly == BivarPoly({(0, 2): 1, (2, 0): -1})


def test_reconstruct_returns_the_polynomial_not_a_multiple():
    # the (2, 3) grid also holds y (y^2 - x^2 - 2x^2y^2)
    result = reconstruct(full_support(2, 3), Y2_ROOT20, 2, 3)
    assert result.poly == Y2_POLY.primitive_normalized()
    assert certify(result.poly, Y2_ROOT20, 2, 3)


def liftable_henselian(rng, dx, dy):
    """A henselian_instance whose two-term seed isolates its branch."""
    while True:
        inst = henselian_instance(rng, dx, dy)
        if inst is None:
            continue
        P, seed = inst
        try:
            bd = branch_data(P, TruncatedSeries(seed))
        except Exception:
            continue
        if len(seed) >= bd.k0 + 2:
            return P, seed


@pytest.mark.parametrize("dx, dy, count", [(4, 4, 2), (5, 5, 1)])
def test_reconstruct_at_large_bounds(dx, dy, count):
    rng = random.Random(100 * dx + dy)
    precision = 2 * dx * dy + dx + 4
    for _ in range(count):
        P, seed = liftable_henselian(rng, dx, dy)
        lift = newton_lift(P, seed, precision + 8).series
        prefix = lift.truncate(precision)
        result = reconstruct(full_support(dx, dy), prefix, dx, dy)
        Q = result.poly
        assert Q.x_degree <= dx and Q.y_degree <= dy
        assert certify(Q, prefix, dx, dy)
        # the relation keeps vanishing past tau: lifted from the prefix it
        # follows the root of P, with a residual beyond the new precision
        report = newton_lift(Q, list(prefix.one_based()), precision + 8)
        assert report.residual_ord is None or report.residual_ord > precision + 8
        assert report.series.one_based() == lift.one_based()


def test_elimination_matches_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(19)
    P, seed = liftable_henselian(rng, 3, 3)
    cases = [
        (full_support(2, 2), GEOMETRIC14, 2, 2),
        (full_support(2, 3), Y2_ROOT20, 2, 3),
        (E3_SHAPE, ROOT16, 2, 2),
        (SupportShape(F=((0, 1), (1, 1)), G=((1, 0), (2, 0))),
         TruncatedSeries([F(-1)] + [F(0)] * 11), 2, 1),
        (full_support(3, 3), newton_lift(P, seed, 21).series, 3, 3),
        (E3_SHAPE, random_series(rng, 9), 2, 2),
    ]
    coranks = []
    for shape, c, dx, dy in cases:
        slab = build_slab(shape, c, 2 * dx * dy)
        matrix = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator) for v in row]
                               for row in slab.entries])
        basis = matrix.nullspace()
        coranks.append(len(basis))
        assert is_algebraic_rel(shape, c, dx, dy).rank == len(shape.F) - len(basis)
        if not basis:
            with pytest.raises(NotAlgebraicError):
                reconstruct(shape, c, dx, dy)
            continue
        poly = reconstruct(shape, c, dx, dy).poly
        vec = sympy.Matrix([sympy.Rational(poly.coefficient(i, j).numerator,
                                           poly.coefficient(i, j).denominator)
                            for i, j in shape.F])
        assert sympy.Matrix.hstack(*basis, vec).rank() == len(basis)
    assert max(coranks) > 1 and min(coranks) == 0


def test_reconstruct_round_trip_residual():
    result = reconstruct(E3_SHAPE, ROOT16, 2, 2)
    residual = eval_at_series(result.poly, ROOT16, 16)
    assert residual.is_zero_truncation


def test_reconstruct_minimal_precision_suffices():
    # depth N = 8 plus |G| = 1 rows is all the data reconstruction may read
    c = ROOT16.truncate(9)
    result = reconstruct(E3_SHAPE, c, 2, 2)
    assert result.poly == E3_RECONSTRUCTED


def test_certify_examples():
    root = newton_lift(E4_POLY, [1, 1], 8).series
    assert certify(E3_RECONSTRUCTED, root, 2, 2)
    assert certify(BivarPoly({(0, 1): 1, (1, 0): -1}),
                   TruncatedSeries([1, 0, 0, 0]), 1, 1)
    wrong = TruncatedSeries([1, 1, 0, 0])
    assert not certify(BivarPoly({(0, 1): 1, (1, 0): -1}), wrong, 1, 1)


def test_certify_checks_bounds_and_precision():
    from algseries import InputError

    with pytest.raises(InputError):
        certify(E3_RECONSTRUCTED, ROOT16, 1, 2)
    with pytest.raises(PrecisionError):
        certify(E3_RECONSTRUCTED, TruncatedSeries([1, 1]), 2, 2)
    with pytest.raises(InputError):
        certify(BivarPoly({}), ROOT16, 2, 2)
