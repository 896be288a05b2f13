"""Acceptance suite: one test per criterion, each printing a pass line.

Everything is exact rational arithmetic, so every tolerance is zero;
the only numeric limits are the stated runtimes.  Criteria 4, 5 and 7
share one batch of randomly generated liftable instances (module-scoped
fixture, fixed RNG seed).
"""

import json
import random
import time
from fractions import Fraction as F

import pytest

from algseries import (MinorIndex, NotAlgebraicError, ReducedHenselEq,
                       TruncatedSeries, branch_data, build_slab, certify,
                       closed_form_coefficient, eval_at_poly,
                       fs_coefficient, fs_expand, henselize, newton_lift, order_sequence,
                       reconstruct, uni_order, wilczynski_minor)
from algseries.cli import main
from algseries.serialize import dumps, poly_to_obj, series_to_obj
from conftest import (E3_RECONSTRUCTED, E3_SHAPE, E4_POLY, e3_family_instance,
                      extended_seed, fixed_point_expand, liftable_instances,
                      nonzero_rational, rational)

from test_wilczynski import known_order3_minors


def _ok(criterion, detail):
    print(f"[acceptance] criterion {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def batch():
    """Criterion-4 instances: >= 25 random polynomials, degree bounds <= 3,
    integer coefficients in [-5, 5], Newton-liftable simple roots with
    integer two-term seeds, each lifted once to k0 + 8."""
    rng = random.Random(20260810)
    out = []
    for P, seed, bd in liftable_instances(rng, 25):
        k = bd.k0 + 1
        lift = newton_lift(P, seed, k + 7)
        out.append((P, seed, bd, k, lift))
    return out


def test_criterion_1_fixture_expansion():
    start = time.time()
    seed = TruncatedSeries([1])
    bd = branch_data(E4_POLY, seed)
    assert (bd.k0, bd.i_k0, bd.omega0) == (0, 2, F(2))
    assert order_sequence(E4_POLY, seed, 1) == (2, 3)
    _bd, coeffs = extended_seed(E4_POLY, [F(1)])
    expansion = newton_lift(E4_POLY, coeffs, 10).series
    assert expansion.one_based()[:5] == (1, 1, 0, -1, F(-1, 2))
    elapsed = time.time() - start
    assert elapsed < 1.0
    _ok(1, f"k0=0, i_0=2, i_1=3, omega0=2, expansion head exact, {elapsed:.3f}s")


def test_criterion_2_implicitize_and_certify(tmp_path, capsys):
    start = time.time()
    lifted = newton_lift(E4_POLY, [1, 1], 16).series
    series_file = tmp_path / "series.json"
    series_file.write_text(dumps(series_to_obj(lifted)))
    shape_file = tmp_path / "shape.json"
    shape_file.write_text(dumps({"F": [[2, 1], [0, 2], [2, 2]], "G": [[2, 0]]}))
    code = main(["implicitize", "--series", str(series_file), "--dx", "2",
                 "--dy", "2", "--shape", str(shape_file)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["polynomial"] == poly_to_obj(E3_RECONSTRUCTED)
    assert certify(E3_RECONSTRUCTED, lifted, 2, 2)
    elapsed = time.time() - start
    assert elapsed < 1.0
    _ok(2, f"exact normalized polynomial, certified at tau=8, {elapsed:.3f}s")


def test_criterion_3_symbolic_minors_and_consequences():
    rng = random.Random(3)
    formulas = known_order3_minors()
    for _ in range(20):
        cs = [nonzero_rational(rng)] + [rational(rng) for _ in range(8)]
        slab = build_slab(E3_SHAPE, TruncatedSeries(cs), 8)
        for rows, formula in formulas.items():
            got = wilczynski_minor(slab, MinorIndex(rows, E3_SHAPE.F))
            assert got == formula(*cs[:5]), (rows, cs)
    checked = 0
    while checked < 10:
        P, seed = e3_family_instance(rng)
        root = newton_lift(P, seed, 6).series
        c1, c2, c3, c4, c5 = (root.coefficient(n) for n in range(1, 6))
        assert c4 == -c2 * (c2 ** 2 - 2 * c1 * c3) / c1 ** 2
        assert c5 == -(c2 ** 4 - 3 * c1 ** 2 * c3 ** 2) / (2 * c1 ** 3)
        checked += 1
    _ok(3, "4 symbolic minors at 20 random points; c4/c5 identities on "
           f"{checked} algebraic instances")


def test_criterion_4_triple_agreement(batch):
    start = time.time()
    assert len(batch) >= 25
    for P, seed, bd, k, lift in batch:
        i_k = bd.i_k0 + (k - bd.k0)
        coeffs = list(lift.series.one_based())[: k + 1]
        form = henselize(P, lift.series, k)
        for p in range(1, 7):
            newton_c = lift.series.coefficient(k + 1 + p)
            fs_c = fs_coefficient(form.eq, p)
            closed_c = closed_form_coefficient(P, coeffs, k, i_k, bd.omega0, p)
            assert newton_c == fs_c == closed_c, (P, p)
    elapsed = time.time() - start
    assert elapsed < 60.0
    _ok(4, f"{len(batch)} instances, p=1..6, three methods exact, {elapsed:.1f}s")


def test_criterion_5_bound_suite(batch):
    violations = 0
    for P, seed, bd, k, lift in batch:
        dxdy = 2 * P.x_degree * P.y_degree
        deriv = eval_at_poly(P.partial_y(), list(lift.series.one_based()))
        if uni_order(deriv) is not None and uni_order(deriv) > dxdy:
            violations += 1
        if bd.k0 > dxdy + 1:
            violations += 1
        orders = order_sequence(P, lift.series, lift.series.precision)
        for kk in range(bd.k0, lift.series.precision):
            if orders[kk + 1] != orders[kk] + 1:
                violations += 1
    assert violations == 0
    _ok(5, f"derivative order <= 2 dx dy, k0 <= 2 dx dy + 1, unit steps past "
           f"k0 on {len(batch)} instances, 0 violations")


def test_criterion_6_catalan():
    q = ReducedHenselEq({(1, 0): 1, (0, 2): 1})
    plain = list(fs_expand(q, 6).one_based())
    assert plain == [1, 1, 2, 5, 14, 42]
    iterated = list(fixed_point_expand(q, 6).one_based())
    assert iterated == plain
    _ok(6, "Catalan 1,1,2,5,14,42 exact; fixed-point iteration identical")


def test_criterion_7_denominator_property(batch):
    violations = 0
    checked = 0
    for P, seed, bd, k, lift in batch:
        if any(c.denominator != 1 for c in seed):
            continue
        checked += 1
        for p in range(1, 7):
            value = bd.omega0 ** p * lift.series.coefficient(k + 1 + p)
            if value.denominator != 1:
                violations += 1
    assert checked >= 25 and violations == 0
    _ok(7, f"omega0^p * c_(k+1+p) integral for p=1..6 on {checked} integer-data "
           "instances, 0 violations")


def test_criterion_8_negative_controls():
    rng = random.Random(8)
    negatives = 0
    certified = 0
    for _ in range(100):
        c = TruncatedSeries([nonzero_rational(rng)] +
                            [rational(rng) for _ in range(9)])
        from algseries import full_support

        shape = full_support(2, 2)
        try:
            result = reconstruct(shape, c, 2, 2)
        except NotAlgebraicError:
            negatives += 1
            continue
        # a positive answer must extend: lift the certified polynomial from
        # the given prefix and check the residual well past tau
        certified += 1
        lift = newton_lift(result.poly, list(c.one_based()), 16)
        residual = eval_at_poly(result.poly, list(lift.series.one_based()))
        order = uni_order(residual)
        assert order is None or order > 16
    assert negatives + certified == 100
    _ok(8, f"{negatives} not-algebraic-at-bounds, {certified} certified-and-"
           "extended, no uncertified positives")


def test_long_seed_expansion_exits_cleanly(tmp_path, capsys):
    # y - x - xy has the root x/(1 - x); with 1100 seed coefficients every
    # enumeration spans a vector longer than the interpreter's recursion limit
    poly = tmp_path / "poly.json"
    poly.write_text(dumps({"terms": [{"i": 0, "j": 1, "c": "1"}, {"i": 1, "j": 0, "c": "-1"},
                                     {"i": 1, "j": 1, "c": "-1"}]}))
    seed = tmp_path / "seed.json"
    seed.write_text(dumps({"coefficients": ["1"] * 1100}))
    start = time.perf_counter()
    code = main(["expand", "--poly", str(poly), "--seed", str(seed), "--count", "3",
                 "--method", "all"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0 and obj["agree"] is True
    assert obj["coefficients"] == {m: ["1", "1", "1"] for m in ("newton", "fs", "closed")}
    _ok("long-seed", f"expand --method all from 1100 coefficients in "
                     f"{time.perf_counter() - start:.2f} s, all three methods agree")


def test_e4_from_a_51_term_seed_under_the_default_budget(tmp_path, capsys):
    # the north star's k ~ 50: the closed form's one walk per request fits
    # the default budget, and all three routes give Newton's values
    lift = newton_lift(E4_POLY, [1], 54).series
    poly = tmp_path / "poly.json"
    poly.write_text(dumps(poly_to_obj(E4_POLY)))
    seed = tmp_path / "seed.json"
    seed.write_text(dumps({"coefficients": [str(c) for c in lift.one_based()[:51]]}))
    start = time.perf_counter()
    code = main(["expand", "--poly", str(poly), "--seed", str(seed), "--count", "3",
                 "--method", "all"])
    obj = json.loads(capsys.readouterr().out)
    assert code == 0 and obj["agree"] is True and obj["k"] == 50
    want = [str(lift.coefficient(n)) for n in (52, 53, 54)]
    assert obj["coefficients"] == {m: want for m in ("newton", "fs", "closed")}
    _ok("long-seed", f"expand --method all on e4 from 51 coefficients in "
                     f"{time.perf_counter() - start:.2f} s, all three methods agree")
