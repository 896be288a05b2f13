import importlib
import json
import sys
import time
import warnings

import pytest

from algseries import BivarPoly, cli, henselization, newton, newton_lift
from algseries.cli import main
from algseries.serialize import dumps, poly_to_obj, series_to_obj
from conftest import E4_POLY

E4_OBJ = poly_to_obj(E4_POLY)


@pytest.fixture
def files(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(dumps(E4_OBJ))
    seed = tmp_path / "seed.json"
    seed.write_text(dumps({"coefficients": ["1"], "precision": 1}))
    root = tmp_path / "root.json"
    root.write_text(dumps(series_to_obj(newton_lift(E4_POLY, [1, 1], 16).series)))
    return {"poly": str(poly), "seed": str(seed), "root": str(root), "dir": tmp_path}


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_expand_all_methods(files, capsys):
    code, obj = run(capsys, ["expand", "--poly", files["poly"], "--seed", files["seed"],
                             "--count", "3", "--method", "all"])
    assert code == 0
    assert obj["agree"] is True
    assert obj["k0"] == 0 and obj["k"] == 1 and obj["omega0"] == "2"
    for method in ("newton", "fs", "closed"):
        assert obj["coefficients"][method] == ["0", "-1", "-1/2"]


def test_expand_single_method(files, capsys):
    code, obj = run(capsys, ["expand", "--poly", files["poly"], "--seed", files["seed"],
                             "--count", "5", "--method", "newton"])
    assert code == 0
    assert obj["coefficients"] == ["0", "-1", "-1/2", "1", "1"]


def test_expand_deterministic_output(files, capsys):
    argv = ["expand", "--poly", files["poly"], "--seed", files["seed"],
            "--count", "3", "--method", "all"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_oracle_emits_series_file(files, capsys):
    code, obj = run(capsys, ["oracle", "--poly", files["poly"], "--seed", files["seed"],
                             "--count", "10"])
    assert code == 0
    assert obj["precision"] == 10
    assert obj["coefficients"][:5] == ["1", "1", "0", "-1", "-1/2"]


@pytest.mark.parametrize("count", ["0", "-5"])
def test_oracle_rejects_count_below_one(files, capsys, count):
    code, obj = run(capsys, ["oracle", "--poly", files["poly"], "--seed", files["seed"],
                             "--count", count])
    assert code == 2 and obj["error"] == "InputError"
    assert obj["detail"] == "count must be at least 1"


def test_oracle_scans_the_branch_once(files, capsys, monkeypatch):
    # newton_lift reads the bare c_1 itself: one scan, and no closed-form
    # extension of the seed
    calls = []

    def counted(name, fn):
        def wrapper(*args):
            calls.append(name)
            return fn(*args)
        return wrapper

    for module in (cli, newton):
        monkeypatch.setattr(module, "branch_data", counted("scan", module.branch_data))
    monkeypatch.setattr(cli, "coefficient_after_branch",
                        counted("extend", cli.coefficient_after_branch))
    code, obj = run(capsys, ["oracle", "--poly", files["poly"], "--seed", files["seed"],
                             "--count", "10"])
    assert code == 0 and calls == ["scan"]
    # a count equal to the seed length returns the seed
    code, obj = run(capsys, ["oracle", "--poly", files["poly"], "--seed", files["seed"],
                             "--count", "1"])
    assert code == 0 and obj == {"coefficients": ["1"], "precision": 1}


def test_boolean_and_newline_inputs_exit_two(files, capsys):
    # JSON true loads as a bool, which isinstance treats as the int 1
    seed = files["dir"] / "boolseed.json"
    seed.write_text('{"coefficients": ["1"], "precision": true}')
    poly = files["dir"] / "boolpoly.json"
    poly.write_text('{"terms": [{"i": 0, "j": 1, "c": "1"}, {"i": true, "j": 0, "c": "-1"}]}')
    newline = files["dir"] / "newline.json"
    newline.write_text(dumps({"coefficients": ["1\n"], "precision": 1}))
    for P, z in ((files["poly"], seed), (poly, files["seed"]), (files["poly"], newline)):
        code, obj = run(capsys, ["oracle", "--poly", str(P), "--seed", str(z),
                                 "--count", "4"])
        assert code == 2 and obj["error"] == "InputError"


def test_implicitize_round_trip(files, capsys):
    code, obj = run(capsys, ["implicitize", "--series", files["root"],
                             "--dx", "2", "--dy", "2"])
    assert code == 0
    assert obj["result"] == "algebraic" and obj["conditional"] is True
    assert obj["polynomial"] == {"terms": [
        {"c": "1", "i": 0, "j": 2}, {"c": "-1", "i": 2, "j": 0},
        {"c": "-2", "i": 2, "j": 1}, {"c": "1", "i": 2, "j": 2}]}


def test_implicitize_with_shape_file(files, capsys):
    shape = files["dir"] / "shape.json"
    shape.write_text(dumps({"F": [[2, 1], [0, 2], [2, 2]], "G": [[2, 0]]}))
    code, obj = run(capsys, ["implicitize", "--series", files["root"],
                             "--dx", "2", "--dy", "2", "--shape", str(shape)])
    assert code == 0
    assert obj["result"] == "algebraic"


def test_implicitize_negative(files, capsys):
    series = files["dir"] / "random.json"
    series.write_text(dumps({"coefficients":
                             ["1", "1/2", "-3", "7", "2/5", "-1", "4", "1", "-2", "5"],
                             "precision": 10}))
    code, obj = run(capsys, ["implicitize", "--series", str(series),
                             "--dx", "2", "--dy", "2"])
    assert code == 1
    assert obj["result"] == "not-algebraic-at-bounds"


def test_implicitize_checks_precision_before_the_grid(files, capsys, monkeypatch):
    def no_grid(dx, dy):
        raise AssertionError(f"full_support({dx}, {dy}) was built")

    monkeypatch.setattr(cli, "full_support", no_grid)
    short = files["dir"] / "short.json"
    short.write_text(dumps({"coefficients": ["1", "1"], "precision": 2}))
    code, obj = run(capsys, ["implicitize", "--series", str(short), "--dx", "50", "--dy", "50"])
    assert code == 2
    assert obj == {"error": "PrecisionError",
                   "detail": "need 5050 coefficients for a depth-5000 slab, have 2"}
    code, obj = run(capsys, ["implicitize", "--series", str(short), "--dx", "0", "--dy", "50"])
    assert code == 2 and obj["error"] == "InputError"


def test_henselize_command(files, capsys):
    seed2 = files["dir"] / "seed2.json"
    seed2.write_text(dumps({"coefficients": ["1", "1"], "precision": 2}))
    code, obj = run(capsys, ["henselize", "--poly", files["poly"],
                             "--seed", str(seed2), "--k", "1"])
    assert code == 0
    assert obj["k0"] == 0 and obj["i_k"] == 3 and obj["omega0"] == "2"
    assert {"l": 1, "m": 2, "c": "-1/2"} in obj["b"]


def test_henselize_polynomial_root(files, capsys):
    poly = files["dir"] / "linear.json"
    poly.write_text(dumps({"terms": [{"i": 0, "j": 1, "c": "1"},
                                     {"i": 1, "j": 0, "c": "-1"}]}))
    seed = files["dir"] / "seed10.json"
    seed.write_text(dumps({"coefficients": ["1", "0"], "precision": 2}))
    code, obj = run(capsys, ["henselize", "--poly", str(poly),
                             "--seed", str(seed), "--k", "1"])
    assert code == 0
    assert obj == {"polynomial_root": True, "z": ["1", "0"]}


def test_expand_all_on_polynomial_root(files, capsys):
    poly = files["dir"] / "lin.json"
    poly.write_text(dumps({"terms": [{"i": 0, "j": 1, "c": "1"},
                                     {"i": 1, "j": 0, "c": "-1"}]}))
    seed = files["dir"] / "linseed.json"
    seed.write_text(dumps({"coefficients": ["1", "0"], "precision": 2}))
    code, obj = run(capsys, ["expand", "--poly", str(poly), "--seed", str(seed),
                             "--count", "3", "--method", "all"])
    assert code == 0 and obj["agree"] is True
    assert obj["coefficients"]["fs"] == ["0", "0", "0"]


def test_certify_exit_codes(files, capsys):
    code, obj = run(capsys, ["certify", "--poly", files["poly"],
                             "--series", files["root"], "--dx", "2", "--dy", "2"])
    assert code == 0 and obj == {"certified": True, "tau": 8}
    wrong = files["dir"] / "wrong.json"
    wrong.write_text(dumps({"coefficients": ["1", "1", "1", "1", "1", "1", "1", "1"],
                            "precision": 8}))
    code, obj = run(capsys, ["certify", "--poly", files["poly"],
                             "--series", str(wrong), "--dx", "2", "--dy", "2"])
    assert code == 1 and obj["certified"] is False


def test_input_errors_exit_two(files, capsys):
    bad = files["dir"] / "bad.json"
    bad.write_text(dumps({"coefficients": ["2/4"], "precision": 1}))
    code, obj = run(capsys, ["expand", "--poly", files["poly"], "--seed", str(bad),
                             "--count", "1"])
    assert code == 2 and obj["error"] == "InputError"
    garbled = files["dir"] / "garbled.json"
    garbled.write_text("{not json")
    code, obj = run(capsys, ["certify", "--poly", str(garbled),
                             "--series", files["root"], "--dx", "2", "--dy", "2"])
    assert code == 2
    # usage errors: the minor-search budget is gone, so its flag is now an
    # unknown argument, and a missing required argument
    code, obj = run(capsys, ["implicitize", "--series", files["root"],
                             "--dx", "2", "--dy", "2", "--minor-budget", "8"])
    assert code == 2 and obj["error"] == "InputError"
    assert "--minor-budget" in obj["detail"]
    code, obj = run(capsys, ["implicitize", "--series", files["root"], "--dx", "2"])
    assert code == 2 and obj["error"] == "InputError"
    assert "--dy" in obj["detail"]


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["implicitize", "--help"])
    assert exc.value.code == 0
    assert "--minor-budget" not in capsys.readouterr().out


def test_inconsistent_seed_exits_one(files, capsys):
    bad = files["dir"] / "badseed.json"
    bad.write_text(dumps({"coefficients": ["1", "1", "5"], "precision": 3}))
    code, obj = run(capsys, ["expand", "--poly", files["poly"], "--seed", str(bad),
                             "--count", "2", "--method", "closed"])
    assert code == 1 and obj["error"] == "NotSimpleRootError"
    # (y - x)^2 has no simple root: the order stalls at c_2 of the seed
    poly = files["dir"] / "double.json"
    poly.write_text(dumps(poly_to_obj(BivarPoly({(0, 2): 1, (1, 1): -2, (2, 0): 1}))))
    ones = files["dir"] / "ones.json"
    ones.write_text(dumps({"coefficients": ["1", "1"], "precision": 2}))
    code, obj = run(capsys, ["henselize", "--poly", str(poly), "--seed", str(ones), "--k", "1"])
    assert code == 1 and obj["error"] == "NotSimpleRootError"


def test_expand_scans_the_branch_once(files, capsys, monkeypatch):
    # one branch scan and one seed check serve all three routes; the other
    # leaves_branch call is Newton's final certificate
    calls = {"branch_data": 0, "leaves_branch": 0}

    def counting(name):
        original = getattr(henselization, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        wrapper = counting(name)
        for module in (cli, newton, henselization):
            monkeypatch.setattr(module, name, wrapper)
    for seed in (files["seed"], files["root"]):
        calls.update(branch_data=0, leaves_branch=0)
        code, obj = run(capsys, ["expand", "--poly", files["poly"], "--seed", seed,
                                 "--count", "3", "--method", "all"])
        assert code == 0 and obj["agree"] is True
        assert calls == {"branch_data": 1, "leaves_branch": 2}


def test_budget_exit_three(files, capsys):
    code, obj = run(capsys, ["expand", "--poly", files["poly"], "--seed", files["seed"],
                             "--count", "6", "--method", "closed", "--budget", "10"])
    assert code == 3 and obj["error"] == "BudgetError"


@pytest.mark.parametrize("argv", [
    ["oracle", "--poly", "{poly}", "--seed", "{seed}", "--count", "5"],
    ["implicitize", "--series", "{root}", "--dx", "2", "--dy", "2"],
    ["henselize", "--poly", "{poly}", "--seed", "{root}", "--k", "1"],
    ["certify", "--poly", "{poly}", "--series", "{root}", "--dx", "2", "--dy", "2"],
    ["selftest"],
], ids=lambda argv: argv[0])
def test_budget_is_an_expand_option(files, capsys, argv):
    # only expand enumerates; elsewhere --budget is an unknown argument
    argv = [a.format(**files) for a in argv]
    assert main(argv) == 0
    capsys.readouterr()
    code, obj = run(capsys, argv + ["--budget", "5"])
    assert code == 2
    assert obj == {"error": "InputError",
                   "detail": "algseries: unrecognized arguments: --budget 5"}


def test_budget_at_and_one_below_the_node_count(files, capsys):
    # the closed form visits 1457 nodes for c_3..c_8 of e4: that budget
    # answers, one node fewer exits 3
    argv = ["expand", "--poly", files["poly"], "--seed", files["seed"],
            "--count", "6", "--method", "closed", "--budget"]
    assert main(argv + ["1457"]) == 0
    assert capsys.readouterr().out == (
        '{"coefficients": ["0", "-1", "-1/2", "1", "1", "-1"], "i_k": 3, "k": 1, "k0": 0, '
        '"method": "closed", "omega0": "2", "seed": ["1", "1"]}\n')
    assert main(argv + ["1456"]) == 3
    assert capsys.readouterr().out == \
        '{"detail": "enumeration exceeded 1456 nodes", "error": "BudgetError"}\n'


def test_budget_exit_three_with_long_seed(files, capsys):
    # y^2 - x y^2 + y - 2xy - x has the root x/(1 - x): a 100-term seed
    # makes the closed form's slot lists long; capped at the last requested
    # index, the slot tables and the walk charge 2259 nodes
    poly = files["dir"] / "quad.json"
    poly.write_text(dumps(poly_to_obj(BivarPoly(
        {(0, 2): 1, (1, 2): -1, (0, 1): 1, (1, 1): -2, (1, 0): -1}))))
    seed = files["dir"] / "ones.json"
    seed.write_text(dumps({"coefficients": ["1"] * 100}))
    argv = ["expand", "--poly", str(poly), "--seed", str(seed), "--count", "3",
            "--method", "closed", "--budget"]
    code, obj = run(capsys, argv + ["2259"])
    assert code == 0 and obj["coefficients"] == ["1", "1", "1"]
    code, obj = run(capsys, argv + ["2258"])
    assert code == 3
    assert obj == {"error": "BudgetError", "detail": "enumeration exceeded 2258 nodes"}


@pytest.mark.parametrize("d", [200, 1000])
def test_closed_form_tables_stop_at_the_request(files, capsys, d):
    # y - x + y^d has the root x; the y^d term has slots up to level ~3d,
    # but a request for three tail coefficients reads only levels 1..3
    poly = files["dir"] / "yd.json"
    poly.write_text(dumps(poly_to_obj(BivarPoly({(0, 1): 1, (1, 0): -1, (0, d): 1}))))
    seed = files["dir"] / "seed3.json"
    seed.write_text(dumps({"coefficients": ["1", "0", "0"]}))
    start = time.perf_counter()
    code, obj = run(capsys, ["expand", "--poly", str(poly), "--seed", str(seed),
                             "--count", "3", "--method", "closed"])
    assert time.perf_counter() - start < 10
    assert code == 0 and obj["coefficients"] == ["0", "0", "0"]


@pytest.mark.parametrize("method", ["fs", "all"])
def test_hensel_table_stops_at_the_request(files, capsys, method):
    # the Hensel table of y - x + y^200 runs to x^600, but a request for
    # three tail coefficients reads only x^1..x^3; the cut table holds no
    # term free of y, which is no reason to warn
    poly = files["dir"] / "y200.json"
    poly.write_text(dumps(poly_to_obj(BivarPoly({(0, 1): 1, (1, 0): -1, (0, 200): 1}))))
    seed = files["dir"] / "seed3.json"
    seed.write_text(dumps({"coefficients": ["1", "0", "0"]}))
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, obj = run(capsys, ["expand", "--poly", str(poly), "--seed", str(seed),
                                 "--count", "3", "--method", method])
    assert time.perf_counter() - start < 10
    assert code == 0
    coefficients = obj["coefficients"]
    assert (coefficients if method == "fs" else coefficients["fs"]) == ["0", "0", "0"]
    if method == "all":
        assert obj["agree"] is True


def test_budget_exit_three_after_a_reimport(files, capsys):
    # the bench imports a fresh copy of the package for each set-up in one
    # process; a budget overrun in the first copy must still exit 3
    first = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "algseries"}
    try:
        for name in first:
            del sys.modules[name]
        importlib.import_module("algseries.cli")
        code, obj = run(capsys, ["expand", "--poly", files["poly"], "--seed", files["seed"],
                                 "--count", "6", "--method", "closed", "--budget", "10"])
    finally:
        for name in [n for n in sys.modules if n.split(".")[0] == "algseries"]:
            del sys.modules[name]
        sys.modules.update(first)
    assert code == 3 and obj["error"] == "BudgetError"


def test_internal_error_exit_four(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_selftest", broken)
    code = main(["selftest"])
    captured = capsys.readouterr()
    assert code == 4
    assert json.loads(captured.out) == {"error": "InternalError", "detail": "RuntimeError: boom"}
    assert "Traceback" in captured.err


def test_budget_env_override(files, capsys, monkeypatch):
    monkeypatch.setenv("ALGSERIES_BUDGET", "10")
    code, obj = run(capsys, ["expand", "--poly", files["poly"], "--seed", files["seed"],
                             "--count", "6", "--method", "closed"])
    assert code == 3


@pytest.mark.parametrize("value", ["abc", "1e5", "0x10"])
def test_malformed_budget_env_exits_two(files, capsys, monkeypatch, value):
    monkeypatch.setenv("ALGSERIES_BUDGET", value)
    code, obj = run(capsys, ["expand", "--poly", files["poly"], "--seed", files["seed"],
                             "--count", "3", "--method", "closed"])
    assert code == 2
    assert obj == {"error": "InputError",
                   "detail": f"ALGSERIES_BUDGET must be an integer, got {value!r}"}


@pytest.mark.parametrize("argv, payload_code", [
    (["selftest"], 0),
    (["expand", "--poly", "missing.json", "--seed", "missing.json", "--count", "3"], 2),
    (["certify", "--poly", "{poly}", "--series", "{root}", "--dx", "1", "--dy", "1"], 2),
])
def test_unwritable_output_exits_two(files, capsys, argv, payload_code):
    # a handler that succeeds (selftest) or fails (missing input, degrees
    # above the bounds) still yields one JSON InputError when --output
    # cannot be written
    argv = [a.format(**files) for a in argv]
    target = files["dir"] / "no such dir" / "x.json"
    code, obj = run(capsys, argv + ["-o", str(target)])
    assert code == 2
    assert obj["error"] == "InputError"
    assert obj["detail"].startswith("cannot write --output:")
    assert not target.parent.exists()
    # the same call with a writable path gives the handler's own exit code
    good = files["dir"] / "x.json"
    assert main(argv + ["-o", str(good)]) == payload_code
    assert json.loads(good.read_text())
    assert capsys.readouterr().out == ""


def test_output_file_option(files, capsys):
    out = files["dir"] / "result.json"
    code = main(["certify", "--poly", files["poly"], "--series", files["root"],
                 "--dx", "2", "--dy", "2", "-o", str(out)])
    assert code == 0
    assert json.loads(out.read_text()) == {"certified": True, "tau": 8}
    assert capsys.readouterr().out == ""


def test_selftest(capsys):
    code, obj = run(capsys, ["selftest"])
    assert code == 0
    assert obj["selftest"] == "ok"
    assert set(obj["checks"]) == {"branch-data", "triple-agreement",
                                  "implicitize", "catalan"}


def test_round_trip_oracle_implicitize_certify(files, capsys, tmp_path):
    lifted = tmp_path / "lifted.json"
    code = main(["oracle", "--poly", files["poly"], "--seed", files["seed"],
                 "--count", "16", "-o", str(lifted)])
    assert code == 0
    code, obj = run(capsys, ["implicitize", "--series", str(lifted),
                             "--dx", "2", "--dy", "2"])
    assert code == 0
    poly_out = tmp_path / "rec.json"
    poly_out.write_text(dumps(obj["polynomial"]))
    code, obj = run(capsys, ["certify", "--poly", str(poly_out),
                             "--series", str(lifted), "--dx", "2", "--dy", "2"])
    assert code == 0 and obj["certified"] is True
