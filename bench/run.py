"""Benchmark of the algseries command line, run in-process.

    python3 bench/run.py --workload expand-mix --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --selftest

Run from the root of a source checkout: the package is imported from
``src/``.  One process, one thread and one client in a closed loop: each
request is a ``algseries.cli.main(argv)`` call, sent once the previous one
has returned.  The inputs are generated from a fixed seed and written to
files before timing; ``--seed`` shuffles the request list, which is then
replayed in whole rounds, as many as bring the request time nearest to
``--seconds``.  The latency percentiles are taken over the requests of
a round, each at its mean time over the run; throughput counts every
call.  Set-up is timed once before the first request and ten more times
spread over the run.  Every answer is checked outside the timed region
(``checker.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` sends each
request twice, untraced and traced, for ``--seconds / 2`` of untraced
request time, and reports per-layer metrics from spans recorded around the
calls between modules (``tracing.py``), the tracing overhead, and the
layer scaling curves.  The last line of standard output
is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction

import checker
import tracing
import workloads

SETUP_REPEATS = 11
WORK_DIR = ".bench_work"

E2E_UNITS = {
    "setup_s": "s",
    "req_p50_ms": "ms",
    "req_p90_ms": "ms",
    "throughput_rps": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def import_cli(root: str):
    """Import ``algseries.cli`` afresh from the checkout's ``src``."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "algseries", "__init__.py")):
        raise BenchError(f"no algseries package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [n for n in sys.modules if n == "algseries" or n.startswith("algseries.")]:
        del sys.modules[name]
    cli = importlib.import_module("algseries.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        raise BenchError(f"algseries was imported from {cli.__file__}, not {src}")
    return cli


def call(main, argv) -> tuple[int | None, str, float]:
    """One request: exit code (None when it raised), stdout, seconds."""
    out = io.StringIO()
    saved = sys.stdout
    sys.stdout = out
    start = time.perf_counter()
    try:
        code = main(argv)
    except (Exception, SystemExit):
        code = None
    finally:
        elapsed = time.perf_counter() - start
        sys.stdout = saved
    return code, out.getvalue(), elapsed


def setup(root: str, workload: str, seed: int, inputs: str):
    """Import the package, write the inputs into the new directory
    ``inputs`` and pass the selftest gate."""
    cli = import_cli(root)
    os.mkdir(inputs)
    reqs = workloads.WORKLOADS[workload](workloads.InputWriter(inputs))
    random.Random(seed).shuffle(reqs)
    code, text, _ = call(cli.main, ["selftest"])
    if code != 0:
        raise BenchError(f"selftest failed: {text.strip()}")
    return cli, reqs


class Loop:
    """Replays the request list and checks the answers."""

    def __init__(self, reqs):
        self.reqs = reqs
        # seconds of every untraced call, one list per request
        self.times: list[list[float]] = [[] for _ in reqs]
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self._verified: dict[int, tuple[int, str]] = {}

    def _request(self, n: int, main) -> float:
        req = self.reqs[n]
        code, text, elapsed = call(main, req.argv)
        self.attempted += 1
        if self._verified.get(n) != (code, text):
            why = "raised" if code is None else checker.check(req.spec, code, text)
            if why is None:
                self._verified[n] = (code, text)
            else:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{req.kind} {req.size}: {why}")
        return elapsed

    def round(self, main, between=None) -> float:
        """One untraced round; ``between`` is called after every request."""
        spent = 0.0
        for n in range(len(self.reqs)):
            elapsed = self._request(n, main)
            self.times[n].append(elapsed)
            spent += elapsed
            if between:
                between(spent)
        return spent

    def paired_round(self, main, rec: tracing.SpanRecorder, offset: int) -> tuple[float, float]:
        """Each request untraced and traced back to back.  The order of the
        two alternates from request to request and, through ``offset``,
        from round to round, so that drift in machine speed and whatever
        the first of the two leaves behind fall on both alike."""
        plain = traced = 0.0
        for n in range(len(self.reqs)):
            for with_trace in (False, True) if (n + offset) % 2 == 0 else (True, False):
                if with_trace:
                    with rec.active():
                        traced += self._request(n, rec.main)
                else:
                    elapsed = self._request(n, main)
                    self.times[n].append(elapsed)
                    plain += elapsed
        return plain, traced


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def e2e_metrics(setup_s: float, loop: Loop, spent: float) -> dict[str, float]:
    # The percentiles are taken over the requests of a round, each at its
    # mean time over the run.  The host's speed swings by a third and more
    # in phases of seconds to minutes; pooling every call would let the
    # share of calls made in slow phases reorder the size classes around
    # the percentiles.
    mean = [statistics.fmean(calls) * 1000.0 for calls in loop.times]
    return {
        "setup_s": setup_s,
        "req_p50_ms": percentile(mean, 50),
        "req_p90_ms": percentile(mean, 90),
        "throughput_rps": sum(map(len, loop.times)) / spent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# -- layer scaling curves: single calls that reproduce the baseline figures

CURVE_NEWTON = (50, 100, 200, 400)
CURVE_CLOSED = (6, 8, 10, 12)
CURVE_RECONSTRUCT = ((2, 2), (3, 2), (2, 3), (4, 2), (2, 4), (3, 3), (5, 2), (4, 3))


def curve_names() -> list[tuple[str, str]]:
    out = [(f"newton.newton_lift.T{t}_ms", "ms") for t in CURVE_NEWTON]
    for p in CURVE_CLOSED:
        out += [(f"flajolet_soria.closed_form_coefficient.p{p}_nodes", "count"),
                (f"flajolet_soria.closed_form_coefficient.p{p}_ms", "ms")]
    out += [(f"wilczynski.reconstruct.b{dx}x{dy}_ms", "ms") for dx, dy in CURVE_RECONSTRUCT]
    return out


def curves() -> dict[str, float]:
    import algseries as a

    e4 = a.BivarPoly(workloads.E4_TERMS)
    e4_seed = [1, 1]  # newton_lift needs two coefficients past the branch index
    out = {}

    def timed(fn, *args, **kwargs) -> float:
        start = time.perf_counter()
        fn(*args, **kwargs)
        return (time.perf_counter() - start) * 1000.0

    for t in CURVE_NEWTON:
        out[f"newton.newton_lift.T{t}_ms"] = timed(a.newton_lift, e4, e4_seed, t)
    for p in CURVE_CLOSED:
        budget = a.EnumerationBudget()
        out[f"flajolet_soria.closed_form_coefficient.p{p}_ms"] = timed(
            a.closed_form_coefficient, e4, e4_seed, 1, 3, 2, p, budget=budget)
        out[f"flajolet_soria.closed_form_coefficient.p{p}_nodes"] = budget.used
    rng = random.Random(workloads.INPUT_SEED)
    for dx, dy in CURVE_RECONSTRUCT:
        _, z = workloads.random_roots(rng, dx, dy, 1)[0]
        series = a.TruncatedSeries([Fraction(c) for c in z])
        out[f"wilczynski.reconstruct.b{dx}x{dy}_ms"] = timed(
            a.reconstruct, a.full_support(dx, dy), series, dx, dy)
    return out


def layer_names() -> list[tuple[str, str]]:
    out = []
    for layer in tracing.LAYERS:
        out += [(f"{layer}.calls", "1/round"), (f"{layer}.self_ms", "ms/round")]
        for counter in tracing.COUNTERS.get(layer, ()):
            if counter != "certified":
                out.append((f"{layer}.{counter}", "1/round"))
    out += [("wilczynski.certified_ratio", "ratio"),
            ("trace.untraced_rps", "1/s"), ("trace.traced_rps", "1/s"),
            ("trace.overhead_pct", "%")]
    return out + curve_names()


def layer_metrics(rec: tracing.SpanRecorder, rounds: int, untraced_rps: float,
                  traced_rps: float, curve: dict[str, float]) -> dict[str, float]:
    out = {}
    totals = rec.layer_totals()
    for layer, row in totals.items():
        for name, value in row.items():
            if name != "certified":
                out[f"{layer}.{name}"] = value / rounds
    certify = totals["wilczynski.certify"]
    out["wilczynski.certified_ratio"] = (
        certify["certified"] / certify["calls"] if certify["calls"] else 0.0)
    out["trace.untraced_rps"] = untraced_rps
    out["trace.traced_rps"] = traced_rps
    out["trace.overhead_pct"] = (untraced_rps / traced_rps - 1.0) * 100.0
    out.update(curve)
    return out


def print_table(title: str, rows: list[tuple[str, float, str, object]]) -> None:
    print(title)
    print(f"  {'metric':<58} {'value':>14}  {'unit':<9} samples")
    for name, value, unit, samples in rows:
        print(f"  {name:<58} {value:>14.6g}  {unit:<9} {samples}")


class WorkDir:
    """A private directory under the checkout's ``.bench_work`` for the
    generated inputs, removed with everything in it on exit."""

    def __init__(self, root: str):
        self.parent = os.path.join(root, WORK_DIR)

    def __enter__(self) -> str:
        os.makedirs(self.parent, exist_ok=True)
        self.path = tempfile.mkdtemp(dir=self.parent)
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            os.rmdir(self.parent)
        except OSError:
            pass  # another run still uses it


def run(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    with WorkDir(root) as work:
        def timed_setup(inputs: str):
            start = time.perf_counter()
            cli, reqs = setup(root, workload, seed, inputs)
            return cli, reqs, time.perf_counter() - start

        def again() -> float:
            # a whole set-up into an empty directory, timed and then
            # discarded: the loop keeps the first set-up's package and inputs
            inputs = os.path.join(work, "again")
            elapsed = timed_setup(inputs)[2]
            shutil.rmtree(inputs)
            return elapsed

        cli, reqs, first = timed_setup(os.path.join(work, "inputs"))
        return measure(workload, seed, seconds, trace, cli, reqs, first,
                       None if trace else again)


def measure(workload, seed, seconds, trace, cli, reqs, setup_s, again=None) -> dict:
    """Run whole rounds until their request time is as near ``seconds`` as
    whole rounds allow (half of it when traced, as every request is also
    sent traced).  Untraced, ``again`` times another set-up each time a
    further 1/SETUP_REPEATS of the target has passed, so that ``setup_s``
    samples the host over the same stretch of time as the requests."""
    loop = Loop(reqs)
    rec = tracing.SpanRecorder() if trace else None
    rounds, spent, traced_spent = 0, 0.0, 0.0
    target = seconds / 2 if trace else seconds
    setups = [setup_s]

    def between(round_spent: float) -> None:
        if again and len(setups) < SETUP_REPEATS and \
                spent + round_spent >= target * len(setups) / SETUP_REPEATS:
            setups.append(again())

    # one more round is run while it brings the total nearer the target
    while rounds == 0 or spent + spent / rounds / 2 < target:
        if trace:
            plain, traced = loop.paired_round(cli.main, rec, rounds)
            spent += plain
            traced_spent += traced
        else:
            spent += loop.round(cli.main, between)
        rounds += 1
    while again and len(setups) < SETUP_REPEATS:
        setups.append(again())
    e2e = e2e_metrics(statistics.median(setups), loop, spent)
    print(f"workload {workload}  seed {seed}  requests/round {len(reqs)}  rounds {rounds}  "
          f"requests {loop.attempted}  failed {loop.failed}")
    for line in loop.failures:
        print(f"  FAILED {line}")
    calls = sum(map(len, loop.times))
    per_request = f"{len(reqs)} requests, mean of {rounds} calls each"
    samples = {"setup_s": f"{len(setups)} set-ups (median)",
               "req_p50_ms": per_request, "req_p90_ms": per_request,
               "throughput_rps": f"{calls} calls", "peak_rss_mb": "1 process"}
    rows = [(name, e2e[name], unit, samples[name]) for name, unit in E2E_UNITS.items()]
    rows.append(("fail_ratio", loop.failed / loop.attempted, "ratio",
                 f"{loop.attempted} requests"))
    print_table("end to end (untraced requests)", rows)
    metrics = {name: e2e[name] for name in E2E_UNITS}
    units = dict(E2E_UNITS)
    if trace:
        requests = rounds * len(reqs)
        metrics = layer_metrics(rec, rounds, requests / spent, requests / traced_spent,
                                curves())
        units = dict(layer_names())
        top = max(tracing.LAYERS, key=lambda layer: metrics[f"{layer}.self_ms"])
        print(f"traced: {rounds} rounds, {len(rec.spans)} spans; largest self time: {top}")
        print_table("per layer (traced; per round unless the unit says otherwise)",
                    [(name, metrics[name], unit, "") for name, unit in layer_names()])
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="tiny run of every workload plus a corrupted-answer check")
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        if args.selftest:
            import selftest

            return selftest.main(root)
        if not args.workload:
            parser.error("--workload is required")
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
