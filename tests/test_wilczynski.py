import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algseries import (BivarPoly, MinorIndex, NotAlgebraicError, PrecisionError,
                       SupportShape, TruncatedSeries, antilex_key, branch_data, build_slab,
                       certify, eval_at_poly, full_support, newton_lift, reconstruct,
                       series_pow, wilczynski, wilczynski_minor)
from algseries.cli import main
from algseries.serialize import dumps, poly_to_obj, series_to_obj
from algseries.series import _clear
from conftest import (E3_RECONSTRUCTED, E3_SHAPE, E4_POLY, HIGH_RATIONALS, SMALL_RATIONALS,
                      e3_family_instance, henselian_instance, nonzero_rational, prefix,
                      rational)

ROOT16 = newton_lift(E4_POLY, [1, 1], 16).series
# y0 = x/(1 - x): every coefficient 1, killed by x + xy - y and its multiples
GEOMETRIC14 = TruncatedSeries([1] * 14)
# y^2 - x^2 - 2x^2y^2 and its root through seed 1, 0
Y2_POLY = BivarPoly({(0, 2): 1, (2, 0): -1, (2, 2): -2})
Y2_ROOT20 = newton_lift(Y2_POLY, [1, 0], 20).series


@dataclass(frozen=True)
class Echelon:
    """Reduced row echelon form: ``rows[k]`` has 1 in column ``pivots[k]``
    and 0 in the other pivot columns; ``det`` is the determinant of a
    square matrix."""

    pivots: tuple[int, ...]
    rows: tuple[tuple[F, ...], ...]
    det: F


def reference_eliminate(rows):
    """Fraction Gauss-Jordan elimination, columns taken left to right: the
    reference that the modular kernel and the fraction-free determinant
    are tested against."""
    m = [[F(v) for v in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots = []
    det = F(1)
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if m[r][col]), None)
        if pivot is None:
            det = F(0)
            continue
        if pivot != top:
            m[top], m[pivot] = m[pivot], m[top]
            det = -det
        lead = m[top][col]
        det *= lead
        m[top] = [v / lead for v in m[top]]
        for r in range(len(m)):
            f = m[r][col]
            if f and r != top:
                m[r] = [a - f * b for a, b in zip(m[r], m[top])]
        pivots.append(col)
    return Echelon(tuple(pivots), tuple(tuple(r) for r in m[:len(pivots)]), det)


def reference_kernel(rows):
    """``wilczynski._slab_kernel`` from the reference elimination: pivot
    columns and the kernel vector of the first non-pivot column."""
    echelon = reference_eliminate(rows)
    ncols = len(rows[0]) if rows else 0
    if len(echelon.pivots) == ncols:
        return echelon.pivots, None
    dep = next(j for j in range(ncols) if j not in echelon.pivots)
    vec = [F(0)] * ncols
    vec[dep] = F(1)
    for k in range(dep):
        vec[k] = -echelon.rows[k][dep]
    return echelon.pivots, tuple(vec)


def entries(slab):
    """The rational slab: each integer row entry over the slab's denominator."""
    return tuple(tuple(F(v, slab.den) for v in row) for row in slab.rows)


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
    rational = entries(slab)
    # row label 3: (c_1, 2 c_1 c_2, 0) in columns (2,1), (0,2), (2,2)
    assert rational[1][0] == c.coefficient(1)
    assert rational[1][1] == 2 * c.coefficient(1) * c.coefficient(2)
    assert rational[1][2] == 0
    # every entry is the shifted power-series coefficient
    for r, label in enumerate(slab.row_labels):
        for col, (i, j) in enumerate(E3_SHAPE.F):
            assert rational[r][col] == powers[j].coefficient(label - i)


def test_slab_numeric_instantiation():
    c = TruncatedSeries([1, 1, 0, -1, F(-1, 2), 0, 0, 0, 0])
    slab = build_slab(E3_SHAPE, c, 8)
    assert entries(slab)[0] == (0, 0, 0)
    assert entries(slab)[1] == (1, 2, 0)
    assert entries(slab)[2] == (1, 1, 1)
    # cleared to N / 2, the integer rows are 2^2 times the rational ones
    assert slab.den == 4 and slab.rows[1] == (4, 8, 0)


def test_slab_with_empty_g_is_unreduced():
    shape = SupportShape(F=((0, 1), (1, 1)), G=())
    rng = random.Random(12)
    c = random_series(rng, 5)
    slab = build_slab(shape, c, 5)
    assert slab.row_labels == (1, 2, 3, 4, 5)
    for r in range(5):
        assert entries(slab)[r][0] == c.coefficient(r + 1)


def test_slab_columns_are_f_only():
    slab = build_slab(E3_SHAPE, ROOT16, 8)
    assert len(entries(slab)[0]) == len(E3_SHAPE.F)


def test_slab_reads_only_its_depth():
    # no row reads past label depth + |G|: a long series gives the entries
    # of its cut
    c = newton_lift(E4_POLY, [1], 200).series
    needed = 8 + len(E3_SHAPE.G)
    slab = build_slab(E3_SHAPE, c, 8)
    assert entries(slab) == entries(build_slab(E3_SHAPE, prefix(c, needed), 8))


def test_slab_requires_precision_and_a_nonzero_coefficient():
    with pytest.raises(PrecisionError):
        build_slab(E3_SHAPE, TruncatedSeries([1, 1]), 8)
    from algseries import InputError

    with pytest.raises(InputError):
        build_slab(E3_SHAPE, TruncatedSeries.zero(3), 2)
    # any valuation: y0 = x^2 + x^3, y0^2 = x^4 + 2 x^5 + x^6, F-columns
    # (2, 1), (0, 2), (2, 2) read y0[n - 2], y0^2[n] and y0^2[n - 2] in row n
    slab = build_slab(E3_SHAPE, TruncatedSeries([0, 1, 1, 0, 0]), 4)
    assert slab.row_labels == (1, 3, 4, 5)
    assert entries(slab) == ((0, 0, 0), (0, 0, 0), (1, 1, 0), (1, 2, 0))


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
    # fraction-free determinant vs the Fraction reference, orders up to 6
    rng = random.Random(17)
    shape6 = SupportShape(
        F=((0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)), G=((1, 0), (2, 0)))
    c = random_series(rng, 10)
    slab = build_slab(shape6, c, 8)
    rational = entries(slab)
    for order in (2, 4, 6):
        for _ in range(5):
            rows = tuple(sorted(rng.sample(range(1, 9), order)))
            cols = tuple(sorted(rng.sample(range(6), order)))
            cols = tuple(shape6.F[c_] for c_ in cols)
            sub = [[rational[r - 1][shape6.F.index(cc)] for cc in cols]
                   for r in rows]
            assert wilczynski_minor(slab, MinorIndex(rows, cols)) == reference_eliminate(sub).det


# -- decision, reconstruction, certification


def test_root_series_is_algebraic():
    result = reconstruct(E3_SHAPE, ROOT16, 2, 2)
    assert result.conditional
    assert result.rank == 2


def test_linear_series_is_algebraic():
    shape = SupportShape(F=((0, 1),), G=((1, 0),))
    c = TruncatedSeries([1, 0, 0])
    result = reconstruct(shape, c, 1, 1)
    assert result.rank == 0
    assert result.poly == BivarPoly({(0, 1): 1, (1, 0): -1})


def test_random_series_not_algebraic():
    rng = random.Random(18)
    hits = 0
    for _ in range(10):
        c = random_series(rng, 9)
        pivots, relation = wilczynski._slab_kernel(build_slab(E3_SHAPE, c, 8).rows)
        if relation is None:
            hits += 1
            assert len(pivots) == len(E3_SHAPE.F)
            with pytest.raises(NotAlgebraicError, match="full column rank 3"):
                reconstruct(E3_SHAPE, c, 2, 2)
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
    shape = SupportShape(F=((0, 1), (2, 1), (0, 2), (2, 2)), G=((2, 0),))
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


@pytest.mark.parametrize("dx, dy, count", [(4, 4, 2), (5, 5, 1), (8, 8, 1)])
def test_reconstruct_at_large_bounds(dx, dy, count):
    rng = random.Random(100 * dx + dy)
    precision = 2 * dx * dy + dx + 4
    for _ in range(count):
        P, seed = liftable_henselian(rng, dx, dy)
        lift = newton_lift(P, seed, precision + 8).series
        cut = prefix(lift, precision)
        result = reconstruct(full_support(dx, dy), cut, dx, dy)
        Q = result.poly
        assert Q.x_degree <= dx and Q.y_degree <= dy
        assert certify(Q, cut, dx, dy)
        # the relation keeps vanishing past tau: lifted from the prefix it
        # follows the root of P, with a residual beyond the new precision
        report = newton_lift(Q, list(cut.one_based()), precision + 8)
        assert not eval_at_poly(Q, list(report.series.one_based()), precision + 8)
        assert report.series.one_based() == lift.one_based()


def reference_forced_terms(poly, shape, c):
    """a_{k,0} = -sum over the y-terms a_ij of poly of a_ij [x^(k-i)] y0^j,
    for each (k, 0) of G, with the powers y0^j by schoolbook Fraction
    products through x^(largest k)."""
    top = max((k for k, _ in shape.G), default=0)
    y0 = [F(0)] + [c.coefficient(n) for n in range(1, top + 1)]
    powers = [[F(1)] + [F(0)] * top]
    for _ in range(shape.max_y):
        prev = powers[-1]
        powers.append([sum((prev[a] * y0[n - a] for a in range(n + 1)), F(0))
                       for n in range(top + 1)])
    a_F = [(i, j, a) for (i, j), a in poly.terms.items() if j]
    return {(k, 0): -sum((a * powers[j][k - i] for i, j, a in a_F if i <= k), F(0))
            for k, _ in shape.G}


def random_shape(rng, P, dx, dy):
    """The support of P split into F and G, each with random extra entries
    below the bounds."""
    grid = full_support(dx, dy)
    F_ = {key for key in P.terms if key[1]} | {key for key in grid.F if rng.random() < 0.4}
    G = {key for key in P.terms if not key[1]} | {key for key in grid.G if rng.random() < 0.4}
    return SupportShape(F=tuple(sorted(F_, key=antilex_key)), G=tuple(sorted(G, key=antilex_key)))


def test_forced_pure_x_terms_match_the_literal_sum():
    # every stored (k, 0) coefficient of a reconstruction is -sum_F a_ij
    # [x^(k-i)] y0^j, and a G entry whose sum vanishes stores no term
    cases = [
        (E3_SHAPE, ROOT16, 2, 2),
        # y^2 - x^2 - 2x^2y^2 forces a_{1,0} = 0
        (full_support(2, 3), Y2_ROOT20, 2, 3),
        (SupportShape(F=((1, 1), (0, 2)), G=()), TruncatedSeries([2] + [0] * 7), 1, 2),
        (SupportShape(F=((1, 1),), G=((2, 0), (3, 0), (4, 0), (5, 0))),
         TruncatedSeries([3, -1, 2, 5] + [0] * 10), 5, 1),
    ]
    rng = random.Random(61)
    for dx, dy in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2)]:
        P, seed = liftable_henselian(rng, dx, dy)
        c = newton_lift(P, seed, 2 * dx * dy + dx + 4).series
        cases += [(full_support(dx, dy), c, dx, dy), (random_shape(rng, P, dx, dy), c, dx, dy)]
    zero_forced = 0
    for shape, c, dx, dy in cases:
        poly = reconstruct(shape, c, dx, dy).poly
        expected = reference_forced_terms(poly, shape, c)
        assert {key: a for key, a in poly.terms.items() if not key[1]} == \
            {key: a for key, a in expected.items() if a}
        zero_forced += sum(1 for a in expected.values() if not a)
    assert zero_forced >= 1


def test_rank_at_non_minimal_bounds():
    # a (2, 2) root at (4, 4): the slab kernel holds x^a y^b P for every
    # shift that fits, and the reported rank is |F| minus its dimension
    rng = random.Random(31)
    P, seed = liftable_henselian(rng, 2, 2)
    c = newton_lift(P, seed, 2 * 4 * 4 + 4).series
    shape = full_support(4, 4)
    slab = build_slab(shape, c, 2 * 4 * 4)
    nullity = len(shape.F) - len(reference_eliminate(entries(slab)).pivots)
    assert nullity > 1
    result = reconstruct(shape, c, 4, 4)
    rank = len(wilczynski._slab_kernel(slab.rows)[0])
    assert result.rank == rank == len(shape.F) - nullity
    assert certify(result.poly, c, 4, 4)


# -- the modular slab kernel against the Fraction reference

ENTRIES = st.one_of(st.just(F(0)), SMALL_RATIONALS, HIGH_RATIONALS)


@st.composite
def low_rank_matrices(draw, corank):
    """Products A B of rank at most n - corank, entries of height up to
    2^200 (2^400 after the product) of either sign, with up to two columns
    and two rows zeroed."""
    n = draw(st.integers(max(corank, 1), 7))
    r = n - corank
    m = draw(st.integers(max(r, 1), 9))
    a = [[draw(ENTRIES) for _ in range(r)] for _ in range(m)]
    b = [[draw(ENTRIES) for _ in range(n)] for _ in range(r)]
    rows = [[sum((a[i][k] * b[k][j] for k in range(r)), F(0)) for j in range(n)]
            for i in range(m)]
    for j in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        for row in rows:
            row[j] = F(0)
    for i in draw(st.sets(st.integers(0, m - 1), max_size=2)):
        rows[i] = [F(0)] * n
    return rows


@st.composite
def real_slabs(draw):
    """Slab entries of a random root, at its own bounds or up to two
    higher in each, or of a random rational prefix."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    dx, dy = draw(st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]))
    bx, by = dx + draw(st.integers(0, 1)), dy + draw(st.integers(0, 1))
    precision = 2 * bx * by + bx
    if draw(st.booleans()):
        P, seed = liftable_henselian(rng, dx, dy)
        c = newton_lift(P, seed, precision).series
    else:
        first = draw(st.one_of(SMALL_RATIONALS, HIGH_RATIONALS).filter(bool))
        rest = draw(st.lists(ENTRIES, min_size=precision - 1, max_size=precision - 1))
        c = TruncatedSeries([first] + rest)
    return build_slab(full_support(bx, by), c, 2 * bx * by).rows


@pytest.mark.parametrize("corank", [0, 1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernel_matches_reference_on_rational_matrices(corank, data):
    rows = data.draw(low_rank_matrices(corank))
    expected = reference_kernel(rows)
    rows = [_clear(row)[1] for row in rows]
    assert wilczynski._slab_kernel(rows) == expected
    # a tiny prime in front: its wrong answers must fail the exact check
    tiny = data.draw(st.sampled_from([3, 7]))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wilczynski, "_MERSENNE_EXPONENTS",
                   (tiny.bit_length(),) + wilczynski._MERSENNE_EXPONENTS)
        assert wilczynski._slab_kernel(rows) == expected


@settings(max_examples=40, deadline=None)
@given(rows=real_slabs())
def test_kernel_matches_reference_on_slabs(rows):
    assert wilczynski._slab_kernel(rows) == reference_kernel(rows)


def fallback_cases():
    """Roots at their own and at larger bounds, random series, and the
    rank-zero and empty-G fixtures."""
    rng = random.Random(47)
    cases = [(E3_SHAPE, ROOT16, 2, 2), (full_support(2, 3), Y2_ROOT20, 2, 3),
             (full_support(2, 2), GEOMETRIC14, 2, 2),
             (SupportShape(F=((1, 1),), G=((2, 0), (3, 0), (4, 0), (5, 0))),
              TruncatedSeries([3, -1, 2, 5] + [0] * 10), 5, 1),
             (SupportShape(F=((1, 1), (0, 2)), G=()), TruncatedSeries([2] + [0] * 7), 1, 2)]
    for dims, bounds in [((2, 2), (2, 2)), ((2, 2), (3, 3)), ((3, 3), (3, 3)), ((2, 3), (3, 4))]:
        P, seed = liftable_henselian(rng, *dims)
        bx, by = bounds
        cases.append((full_support(bx, by), newton_lift(P, seed, 2 * bx * by + bx).series,
                      bx, by))
    for bx, by in [(2, 2), (3, 3)]:
        cases.append((full_support(bx, by), random_series(rng, 2 * bx * by + bx), bx, by))
    return cases


def outcome(shape, c, dx, dy):
    rank = len(wilczynski._slab_kernel(build_slab(shape, c, 2 * dx * dy).rows)[0])
    try:
        result = reconstruct(shape, c, dx, dy)
    except NotAlgebraicError as exc:
        return rank, str(exc)
    return rank, result.rank, result.poly


def counting_reduce_mod(monkeypatch):
    """Patch ``_reduce_mod`` to record the prime and the row count of
    every elimination."""
    reduce_mod = wilczynski._reduce_mod
    calls = []
    monkeypatch.setattr(wilczynski, "_reduce_mod",
                        lambda rows, p: calls.append((p, len(rows))) or reduce_mod(rows, p))
    return calls


@pytest.mark.parametrize("prime", [3, 7])
def test_tiny_prime_falls_back_to_the_same_answers(prime, monkeypatch):
    # mod 3 or 7 the rank often drops and reconstructed vectors are wrong:
    # only the exact check over Q and the next, larger prime keep the
    # answers
    cases = fallback_cases()
    expected = [outcome(*case) for case in cases]
    assert len({len(e) for e in expected}) == 2  # positives and negatives
    monkeypatch.setattr(wilczynski, "_MERSENNE_EXPONENTS",
                        (prime.bit_length(),) + wilczynski._MERSENNE_EXPONENTS)
    calls = counting_reduce_mod(monkeypatch)
    assert [outcome(*case) for case in cases] == expected
    # the tiny prime failed the check at least once
    assert 2 ** 61 - 1 in {p for p, _ in calls}
    for shape, c, dx, dy in cases:
        rows = build_slab(shape, c, 2 * dx * dy).rows
        assert wilczynski._slab_kernel(rows) == reference_kernel(rows)


def leading_rows_short():
    """Matrices whose first len(rows[0]) rows have lower rank than the
    whole: two of integers, and the E3 slab of a random series, whose row
    label 1 is zero."""
    full = [[0, 0, 0], [1, 2, 3], [2, 4, 6], [0, 0, 1], [1, 1, 1]]
    # column 2 is column 0 plus column 1; the first four rows have rank 1
    deficient = [[1, 1, 2, 0], [0, 0, 0, 0], [2, 2, 4, 0], [0, 0, 0, 0],
                 [0, 1, 1, 0], [0, 0, 0, 5], [1, 0, 1, 7]]
    slab = build_slab(E3_SHAPE, random_series(random.Random(20), 9), 8).rows
    return [full, deficient, slab]


@pytest.mark.parametrize("rows", leading_rows_short())
def test_leading_rows_of_lower_rank_need_all_rows(rows, monkeypatch):
    ncols = len(rows[0])
    head_rank = len(reference_eliminate(rows[:ncols]).pivots)
    assert head_rank < len(reference_eliminate(rows).pivots)
    calls = counting_reduce_mod(monkeypatch)
    assert wilczynski._slab_kernel(rows) == reference_kernel(rows)
    # the answer of the first |F| rows fails the exact check on a later row
    assert calls == [(2 ** 61 - 1, ncols), (2 ** 61 - 1, len(rows))]


def test_relation_beyond_one_prime(tmp_path, capsys, monkeypatch):
    # y - x + K x y^2 - 3 x^2 y with K near 2^40: scaled to 1 on its leading
    # term x y^2, the relation has denominators K, past what one 61-bit
    # prime reconstructs on the first |F| = 6 rows or on all 8, so
    # 2^127 - 1 answers on the first 6
    K = 2 ** 40 + 15
    P = BivarPoly({(0, 1): 1, (1, 0): -1, (1, 2): K, (2, 1): -3})
    series = tmp_path / "root.json"
    series.write_text(dumps(series_to_obj(newton_lift(P, [1], 2 * 2 * 2 + 2).series)))
    argv = ["implicitize", "--series", str(series), "--dx", "2", "--dy", "2"]
    calls = counting_reduce_mod(monkeypatch)
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert calls == [(2 ** 61 - 1, 6), (2 ** 61 - 1, 8), (2 ** 127 - 1, 6)]
    assert json.loads(out)["polynomial"] == poly_to_obj(P)
    monkeypatch.setattr(wilczynski, "_slab_kernel", reference_kernel)
    assert main(argv) == 0
    assert capsys.readouterr().out == out


def test_large_relation_needs_only_the_next_prime(monkeypatch):
    # a (6, 6) root whose x y coefficient is near 2^40: one 61-bit prime
    # cannot reconstruct the relation, 2^127 - 1 can, and no elimination of
    # the whole slab over the integers is left to slow it down
    rng = random.Random(1)
    inst = None
    while inst is None:
        inst = henselian_instance(rng, 6, 6)
    P, seed = inst
    terms = P.terms
    terms[(1, 1)] = terms.get((1, 1), 0) + 2 ** 40 + 15
    P = BivarPoly(terms)
    c = newton_lift(P, seed[:1], 2 * 36 + 6 + 4).series
    calls = counting_reduce_mod(monkeypatch)
    start = time.perf_counter()
    result = reconstruct(full_support(6, 6), c, 6, 6)
    elapsed = time.perf_counter() - start
    assert result.poly == P.primitive_normalized() and result.rank == 41
    # |F| = 42 rows of 72, then all 72 at 2^61 - 1, then 42 at 2^127 - 1
    assert calls == [(2 ** 61 - 1, 42), (2 ** 61 - 1, 72), (2 ** 127 - 1, 42)]
    assert elapsed < 5.0


def test_mersenne_exponents_give_primes():
    exponents = wilczynski._MERSENNE_EXPONENTS
    assert all(a < b for a, b in zip(exponents, exponents[1:]))
    for e in exponents:
        if e > 4253:
            break
        # Lucas-Lehmer: 2^e - 1 is prime iff s_(e-2) = 0, s_0 = 4, s_(k+1) = s_k^2 - 2
        m, s = 2 ** e - 1, 4
        for _ in range(e - 2):
            s = (s * s - 2) % m
        assert s == 0, e


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
                               for row in entries(slab)])
        basis = matrix.nullspace()
        coranks.append(len(basis))
        assert len(wilczynski._slab_kernel(slab.rows)[0]) == len(shape.F) - len(basis)
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
    assert eval_at_poly(result.poly, ROOT16.one_based(), 16) == []


def test_reconstruct_minimal_precision_suffices():
    # depth N = 8 plus |G| = 1 rows is all the data reconstruction may read
    c = prefix(ROOT16, 9)
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
