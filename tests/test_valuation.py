"""Roots and series of any valuation: a zero c_1 is an ordinary seed.

The branch scan, Newton's lemma and the depth-2 dx dy certificate hold for
any simple root with y0(0) = 0, so the three expansion routes and the
implicitize/certify round trip run on roots that start c x^v for v >= 2,
and on the zero root.  Only a series with no nonzero stored coefficient is
refused by the slab.
"""

import json
import random
from fractions import Fraction as F

import pytest

from algseries import (BivarPoly, TruncatedSeries, branch_data, closed_form_coefficients,
                       fs_expand, henselize, newton_lift)
from algseries.cli import main
from algseries.serialize import dumps, poly_to_obj
from conftest import valuation_instances

CATALAN_X2 = BivarPoly({(0, 1): 1, (2, 0): -1, (0, 2): -1})  # y = x^2 + y^2
# y^2 = x^4 (1 + x): the root x^2 sqrt(1 + x) separates from -x^2 sqrt(1 + x)
# only at c_2, so k0 = 1
SQRT = BivarPoly({(0, 2): 1, (4, 0): -1, (5, 0): -1})
ZERO_ROOT = BivarPoly({(0, 2): 1, (1, 1): -1})  # y (y - x), root y = 0


def _triple(P, seed, count):
    """(newton, fs, closed) tail coefficients past k = k0 + 1."""
    bd = branch_data(P, TruncatedSeries(seed))
    k = bd.k0 + 1
    lift = newton_lift(P, seed, max(k + 1 + count, len(seed))).series
    form = henselize(P, lift, k)
    newton_c = [lift.coefficient(k + 1 + p) for p in range(1, count + 1)]
    fs_c = list(fs_expand(form.eq, count).one_based())
    closed_c = closed_form_coefficients(P, list(lift.one_based())[: k + 1], k, form.i_k,
                                        bd.omega0, count)
    return newton_c, fs_c, closed_c


@pytest.mark.parametrize("v", [2, 3, 4])
def test_three_routes_agree_at_valuation(v):
    for P, seed, _bd in valuation_instances(random.Random(v), 8, v):
        newton_c, fs_c, closed_c = _triple(P, seed, 6)
        assert newton_c == fs_c == closed_c, P
        assert newton_lift(P, seed, 8).series.valuation == v


def test_three_routes_agree_on_late_branches_of_higher_valuation():
    assert branch_data(SQRT, TruncatedSeries([0, 1])).k0 == 1
    newton_c, fs_c, closed_c = _triple(SQRT, [0, 1], 6)
    assert newton_c == fs_c == closed_c
    # x^2 sqrt(1 + x): the binomial series (1/2 choose n) from c_4 on
    assert newton_c[:3] == [F(-1, 8), F(1, 16), F(-5, 128)]
    assert _triple(CATALAN_X2, [0, 1], 6) == ([0, 1, 0, 2, 0, 5],) * 3


def test_all_zero_seed_on_the_zero_root():
    assert _triple(ZERO_ROOT, [0], 5) == ([0] * 5,) * 3


def run(capsys, argv):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def _write(path, obj):
    path.write_text(dumps(obj))
    return str(path)


def _round_trip(capsys, tmp_path, P, seed, dx, dy):
    """oracle -> implicitize -> certify at (dx, dy) through the command
    line; returns the implicitized polynomial's file object."""
    poly = _write(tmp_path / "poly.json", poly_to_obj(P))
    seed_file = _write(tmp_path / "seed.json",
                       {"coefficients": [str(c) for c in seed], "precision": len(seed)})
    lifted = str(tmp_path / "lifted.json")
    count = 2 * dx * dy + dx
    assert main(["oracle", "--poly", poly, "--seed", seed_file, "--count", str(count),
                 "-o", lifted]) == 0
    code, obj = run(capsys, ["implicitize", "--series", lifted, "--dx", str(dx),
                             "--dy", str(dy)])
    assert code == 0 and obj["result"] == "algebraic"
    found = _write(tmp_path / "found.json", obj["polynomial"])
    code, out = run(capsys, ["certify", "--poly", found, "--series", lifted,
                             "--dx", str(dx), "--dy", str(dy)])
    assert code == 0 and out["certified"] is True
    return obj["polynomial"]


@pytest.mark.parametrize("v", [2, 3, 4])
def test_oracle_implicitize_certify_at_valuation(capsys, tmp_path, v):
    for P, seed, _bd in valuation_instances(random.Random(10 + v), 4, v):
        _round_trip(capsys, tmp_path, P, seed, P.x_degree, P.y_degree)


def test_round_trip_returns_the_polynomial_of_a_valuation_2_root(capsys, tmp_path):
    found = _round_trip(capsys, tmp_path, CATALAN_X2, [0, 1], 2, 2)
    assert found == poly_to_obj(BivarPoly({(0, 2): 1, (0, 1): -1, (2, 0): 1}))


def test_all_zero_seed_through_the_command_line(capsys, tmp_path):
    poly = _write(tmp_path / "poly.json", poly_to_obj(ZERO_ROOT))
    seed = _write(tmp_path / "seed.json", {"coefficients": ["0"], "precision": 1})
    code, obj = run(capsys, ["expand", "--poly", poly, "--seed", seed, "--count", "4",
                             "--method", "all"])
    assert code == 0 and obj["agree"] is True
    assert obj["coefficients"] == {m: ["0"] * 4 for m in ("closed", "fs", "newton")}
    code, obj = run(capsys, ["oracle", "--poly", poly, "--seed", seed, "--count", "5"])
    assert code == 0 and obj["coefficients"] == ["0"] * 5


@pytest.mark.parametrize("argv", [
    ["implicitize", "--series", "zero.json", "--dx", "1", "--dy", "1"],
    ["implicitize", "--series", "zero.json", "--dx", "2", "--dy", "2"],
    ["implicitize", "--series", "zero.json", "--dx", "1", "--dy", "1", "--shape", "shape.json"],
])
def test_zero_series_exits_two(capsys, tmp_path, argv):
    files = {"zero.json": _write(tmp_path / "zero.json",
                                 {"coefficients": ["0"] * 12, "precision": 12}),
             "shape.json": _write(tmp_path / "shape.json", {"F": [[0, 1]], "G": [[1, 0]]})}
    code, obj = run(capsys, [files.get(a, a) for a in argv])
    assert code == 2 and obj["error"] == "InputError"
    assert obj["detail"] == "series must have a nonzero stored coefficient"


@pytest.mark.parametrize("command", [["expand", "--count", "2"], ["oracle", "--count", "2"],
                                     ["henselize", "--k", "1"]])
def test_empty_seed_exits_two(capsys, tmp_path, command):
    poly = _write(tmp_path / "poly.json", poly_to_obj(CATALAN_X2))
    seed = _write(tmp_path / "seed.json", {"coefficients": [], "precision": 0})
    code, obj = run(capsys, command[:1] + ["--poly", poly, "--seed", seed] + command[1:])
    assert code == 2 and obj["error"] == "PrecisionError"
