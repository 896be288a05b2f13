"""Smoke test of the benchmark itself: ``python3 bench/run.py --selftest``.

Runs the two smallest requests of each kind in every workload for one
round, untraced and (on one workload) traced, and checks that every
metric name is emitted with its unit.  Then it feeds the checker one answer with
a flipped coefficient per checked kind and shows that it is counted as
failed.
"""

from __future__ import annotations

import json
import math
import tempfile
from fractions import Fraction

import checker
import run
import workloads


def tiny(reqs):
    """The first two requests of each kind and expected exit code, which
    the generators emit smallest first."""
    seen, out = {}, []
    for req in reqs:
        key = (req.kind, req.spec["expect"])
        seen[key] = seen.get(key, 0) + 1
        if seen[key] <= 2:
            out.append(req)
    return out


def flip(text: str, where) -> str:
    payload = json.loads(text)
    where(payload)
    return json.dumps(payload)


def corrupted_answers(cli, reqs):
    """(label, spec, code, honest answer, corrupted answer) per kind."""
    def bump(values, n):
        values[n] = str(Fraction(values[n]) + 1)

    def bump_term(term):
        term["c"] = str(Fraction(term["c"]) + 1)

    def expand(p):
        # the same wrong value in all three lists, so that only the
        # evaluation of P can tell
        for values in p["coefficients"].values():
            bump(values, len(values) - 1)

    corrupt = {
        "expand": expand,
        "oracle": lambda p: bump(p["coefficients"], len(p["coefficients"]) // 2),
        "henselize": lambda p: bump_term(p["b"][0]),
        "implicitize": lambda p: bump_term(p["polynomial"]["terms"][0]),
    }
    out = []
    for req in reqs:
        if req.kind in corrupt and req.spec["expect"] == 0:
            code, text, _ = run.call(cli.main, req.argv)
            out.append((f"{req.kind} {req.size}", req.spec, code, text,
                        flip(text, corrupt.pop(req.kind))))
    return out


def main(root: str) -> int:
    problems = []
    with run.WorkDir(root) as work:
        for name, build in sorted(workloads.WORKLOADS.items()):
            cli = run.import_cli(root)
            reqs = tiny(build(workloads.InputWriter(tempfile.mkdtemp(dir=work))))
            traced = name == "expand-mix"
            for trace in (False, True) if traced else (False,):
                result = run.measure(name, 1, 0.0, trace, cli, reqs, 0.0)
                want = run.layer_names() if trace else list(run.E2E_UNITS.items())
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                if got != dict(want):
                    problems.append(f"{name}: metric names or units differ")
                if not all(math.isfinite(v["value"]) for v in result["metrics"].values()):
                    problems.append(f"{name}: a metric is not a finite number")
                if not result["correct"]:
                    problems.append(f"{name}: a request failed")
            for label, spec, code, honest, bad in corrupted_answers(cli, reqs):
                ok = checker.check(spec, code, honest) is None
                caught = checker.check(spec, code, bad)
                print(f"checker on {label}: honest answer "
                      f"{'accepted' if ok else 'REJECTED'}, flipped coefficient "
                      f"{'rejected: ' + caught if caught else 'ACCEPTED'}")
                if not ok or not caught:
                    problems.append(f"checker wrong on {label}")
    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest", "failed" if problems else "ok")
    return 1 if problems else 0
