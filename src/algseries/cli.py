"""Command-line entry point.

Subcommands: ``expand`` (tail coefficients by one or all of the three
methods), ``implicitize`` (vanishing-polynomial reconstruction),
``henselize`` (reduced Henselian equation of the tail), ``certify``
(finite-depth vanishing certificate), ``oracle`` (Newton lifting), and
``selftest`` (built-in fixtures).  Every invocation writes one
deterministic JSON object.

Exit codes: 0 success, 1 negative mathematical result (not algebraic at
bounds, certification false, method disagreement, inconsistent seed),
2 input, usage or precision error, 3 enumeration budget exceeded, 4 internal
error (any other exception: a bug, reported as ``InternalError`` with the
exception's type and message, the traceback going to stderr).
"""

from __future__ import annotations

import argparse
import os
import sys
import traceback
from fractions import Fraction

from .bivar import BivarPoly
from .errors import (BudgetError, InputError, LiftError, NotAlgebraicError,
                     NotSimpleRootError, PrecisionError)
from .flajolet_soria import (DEFAULT_NODE_BUDGET, EnumerationBudget,
                             closed_form_coefficients, fs_expand)
from .flajolet_soria import closed_form_coefficient  # unused; bound because bench/tracing.py wraps it
from .flajolet_soria import fs_coefficient  # unused; bound because bench/tracing.py wraps it
from .henselization import (branch_data, coefficient_after_branch, henselize, leaves_branch,
                            order_sequence)
from .newton import newton_lift
from .serialize import (dumps, load_json, poly_from_obj, poly_to_obj, rat_to_str,
                        series_from_obj, series_to_obj, shape_from_obj)
from .series import TruncatedSeries
from .support import full_support
from .wilczynski import certify, reconstruct

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4

BUDGET_ENV = "ALGSERIES_BUDGET"


def _budget_from(args) -> EnumerationBudget:
    limit = args.budget
    if limit is None:
        env = os.environ.get(BUDGET_ENV)
        try:
            limit = int(env) if env else DEFAULT_NODE_BUDGET
        except ValueError:
            raise InputError(f"{BUDGET_ENV} must be an integer, got {env!r}") from None
    if limit <= 0:
        raise InputError("budget must be positive")
    return EnumerationBudget(limit=limit)


def _emit(args, payload: dict) -> None:
    text = dumps(payload)
    if getattr(args, "output", None):
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_expand(args) -> tuple[dict, int]:
    P = poly_from_obj(load_json(args.poly))
    seed = series_from_obj(load_json(args.seed))
    if args.count < 1:
        raise InputError("count must be at least 1")
    budget = _budget_from(args)
    # a seed that stops exactly at the branch index gets its uniquely
    # determined next coefficient from the closed formula; the one scan and
    # seed check here serve all three routes
    bd = branch_data(P, seed)
    coeffs = list(seed.one_based())
    if len(coeffs) == bd.k0 + 1:
        coeffs.append(coefficient_after_branch(P, seed, bd.k0, bd.i_k0, bd.omega0))
    wrong = leaves_branch(P, coeffs, bd)
    if wrong is not None:
        raise NotSimpleRootError(f"seed leaves the branch at c_{wrong}")
    k = len(coeffs) - 1
    i_k = bd.i_k0 + (k - bd.k0)
    base = TruncatedSeries(coeffs, precision=len(coeffs), start=1)

    results: dict[str, list[Fraction]] = {}
    methods = ["newton", "fs", "closed"] if args.method == "all" else [args.method]
    for method in methods:
        if method == "newton":
            report = newton_lift(P, coeffs, k + 1 + args.count, branch=bd)
            results[method] = [report.series.coefficient(k + 1 + p)
                               for p in range(1, args.count + 1)]
        elif method == "fs":
            # fs reads no term of the Hensel table past x^count
            form = henselize(P, base, k, branch=bd, last=args.count)
            if form.polynomial_root is not None:
                results[method] = [Fraction(0)] * args.count
            else:
                results[method] = list(fs_expand(form.eq, args.count, budget=budget).one_based())
        else:
            results[method] = closed_form_coefficients(P, coeffs, k, i_k, bd.omega0,
                                                       args.count, budget=budget)

    payload = {
        "k": k,
        "k0": bd.k0,
        "i_k": i_k,
        "omega0": rat_to_str(bd.omega0),
        "seed": [rat_to_str(c) for c in coeffs],
    }
    if args.method == "all":
        agree = results["newton"] == results["fs"] == results["closed"]
        payload["coefficients"] = {m: [rat_to_str(c) for c in results[m]] for m in results}
        payload["agree"] = agree
        return payload, EXIT_OK if agree else EXIT_NEGATIVE
    payload["method"] = args.method
    payload["coefficients"] = [rat_to_str(c) for c in results[args.method]]
    return payload, EXIT_OK


def _cmd_implicitize(args) -> tuple[dict, int]:
    series = series_from_obj(load_json(args.series))
    if args.shape:
        shape = shape_from_obj(load_json(args.shape))
    else:  # check bounds and precision before building the dx*dy grid
        if args.dx < 1 or args.dy < 1:
            raise InputError("degree bounds must be at least 1")
        depth = 2 * args.dx * args.dy
        if series.precision < depth + args.dx:
            raise PrecisionError(f"need {depth + args.dx} coefficients for a depth-{depth} "
                                 f"slab, have {series.precision}")
        shape = full_support(args.dx, args.dy)
    try:
        result = reconstruct(shape, series, args.dx, args.dy)
    except NotAlgebraicError as exc:
        return {"result": "not-algebraic-at-bounds", "detail": str(exc)}, EXIT_NEGATIVE
    payload = {
        "result": "algebraic",
        "conditional": result.conditional,
        "rank": result.rank,
        "polynomial": poly_to_obj(result.poly),
    }
    return payload, EXIT_OK


def _cmd_henselize(args) -> tuple[dict, int]:
    P = poly_from_obj(load_json(args.poly))
    seed = series_from_obj(load_json(args.seed))
    form = henselize(P, seed, args.k)
    if form.polynomial_root is not None:
        return {"polynomial_root": True,
                "z": [rat_to_str(c) for c in form.polynomial_root]}, EXIT_OK
    payload = {
        "k0": form.k0,
        "i_k": form.i_k,
        "omega0": rat_to_str(form.omega0),
        "b": [{"l": l, "m": m, "c": rat_to_str(c)}
              for (l, m), c in sorted(form.eq.terms.items())],
    }
    return payload, EXIT_OK


def _cmd_certify(args) -> tuple[dict, int]:
    P = poly_from_obj(load_json(args.poly))
    series = series_from_obj(load_json(args.series))
    ok = certify(P, series, args.dx, args.dy)
    tau = 2 * args.dx * args.dy
    return {"certified": ok, "tau": tau}, EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_oracle(args) -> tuple[dict, int]:
    P = poly_from_obj(load_json(args.poly))
    seed = series_from_obj(load_json(args.seed))
    if args.count < 1:
        raise InputError("count must be at least 1")
    report = newton_lift(P, seed.one_based(), args.count)
    return series_to_obj(report.series), EXIT_OK


def _selftest_checks():
    from .flajolet_soria import ReducedHenselEq

    e4 = BivarPoly({(0, 2): 1, (2, 0): -1, (2, 1): -2, (2, 2): 1})

    def check_branch():
        seed = TruncatedSeries([1])
        bd = branch_data(e4, seed)
        assert (bd.k0, bd.i_k0, bd.omega0) == (0, 2, Fraction(2)), bd
        orders = order_sequence(e4, seed, 1)
        assert orders == (2, 3), orders

    def check_triple():
        seed = TruncatedSeries([1, 1])
        report = newton_lift(e4, [1, 1], 5)
        expect = [Fraction(0), Fraction(-1), Fraction(-1, 2)]
        assert [report.series.coefficient(n) for n in (3, 4, 5)] == expect
        form = henselize(e4, seed, 1)
        assert list(fs_expand(form.eq, 3).one_based()) == expect
        got = closed_form_coefficients(e4, [1, 1], 1, 3, 2, 3)
        assert got == expect, got

    def check_implicitize():
        from .support import SupportShape

        shape = SupportShape(F=((2, 1), (0, 2), (2, 2)), G=((2, 0),))
        lifted = newton_lift(e4, [1, 1], 16).series
        result = reconstruct(shape, lifted, 2, 2)
        expect = BivarPoly({(2, 0): -1, (2, 1): -2, (0, 2): 1, (2, 2): 1})
        assert result.poly == expect, result.poly
        assert certify(result.poly, lifted, 2, 2)

    def check_catalan():
        q = ReducedHenselEq({(1, 0): 1, (0, 2): 1})
        got = fs_expand(q, 6).one_based()
        assert list(got) == [1, 1, 2, 5, 14, 42], got

    return [
        ("branch-data", check_branch),
        ("triple-agreement", check_triple),
        ("implicitize", check_implicitize),
        ("catalan", check_catalan),
    ]


def _cmd_selftest(args) -> tuple[dict, int]:
    passed = []
    for name, check in _selftest_checks():
        try:
            check()
        except AssertionError as exc:
            return {"selftest": "failed", "check": name, "detail": str(exc)}, EXIT_NEGATIVE
        passed.append(name)
    return {"selftest": "ok", "checks": passed}, EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as InputError instead of exiting, so that they
    too produce one JSON object; ``--help`` still prints and exits."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="algseries", description="exact toolkit for algebraic power series")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, handler, **options):
        p = sub.add_parser(name, help=help)
        for option, kind in options.items():
            p.add_argument(f"--{option}", **kind)
        p.add_argument("--output", "-o", help="write the JSON result to this path")
        p.set_defaults(handler=handler)

    path, number = {"required": True}, {"type": int, "required": True}
    # only expand enumerates, so only expand takes a node budget
    command("expand", "tail coefficients of a simple root", _cmd_expand, poly=path, seed=path,
            count=number, method={"choices": ["fs", "closed", "newton", "all"], "default": "all"},
            budget={"type": int, "default": None,
                    "help": f"enumeration node budget (default {DEFAULT_NODE_BUDGET}, "
                            f"env {BUDGET_ENV})"})
    command("implicitize", "reconstruct a vanishing polynomial", _cmd_implicitize,
            series=path, dx=number, dy=number, shape={"default": None})
    command("henselize", "reduced Henselian equation of the tail", _cmd_henselize,
            poly=path, seed=path, k=number)
    command("certify", "finite-depth vanishing certificate", _cmd_certify,
            poly=path, series=path, dx=number, dy=number)
    command("oracle", "Newton lifting of a seeded root", _cmd_oracle,
            poly=path, seed=path, count=number)
    command("selftest", "run the built-in fixtures", _cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        payload, code = args.handler(args)
    except (InputError, PrecisionError) as exc:
        payload, code = {"error": type(exc).__name__, "detail": str(exc)}, EXIT_INPUT
    except BudgetError as exc:
        payload, code = {"error": "BudgetError", "detail": str(exc)}, EXIT_BUDGET
    except (NotSimpleRootError, LiftError, NotAlgebraicError) as exc:
        payload, code = {"error": type(exc).__name__, "detail": str(exc)}, EXIT_NEGATIVE
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        payload = {"error": "InternalError", "detail": f"{type(exc).__name__}: {exc}"}
        code = EXIT_INTERNAL
    try:
        _emit(args, payload)
    except OSError as exc:
        sys.stdout.write(dumps({"error": "InputError",
                                "detail": f"cannot write --output: {exc}"}))
        return EXIT_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
