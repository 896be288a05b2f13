"""Inputs for the benchmark workloads.

Instances follow the generator rules of the test suite (integer
coefficients in [-5, 5], a01 != 0 and a00 = 0 for a Henselian root, the e3
family, integer two-term seeds), copied here so the benchmark does not
import the tests.

The cost of a request follows its coefficient values, not only its
support: the values set the heights of the lifted roots, and those heights
set the cost of the expansion, the slab, the rank and the determinants.
So every input is drawn from one fixed seed, and every run does the same
work.  The run's ``--seed`` only shuffles the order of the requests in a
round.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

from checker import eval_trunc, lift_root, order_of

E4_TERMS = {(0, 2): 1, (2, 0): -1, (2, 1): -2, (2, 2): 1}
# e4 requests send the bare first coefficient, which stops at the branch
# index, so the command line extends it with coefficient_after_branch
E4_SEED = [1]

INPUT_SEED = 20150316


def _nonzero(rng: random.Random) -> int:
    while True:
        v = rng.randint(-5, 5)
        if v:
            return v


def henselian_instance(rng: random.Random, dx: int, dy: int):
    """Random integer polynomial with a01 != 0 and a00 = 0, so Hensel's
    lemma gives a unique simple root through the origin.  Returns
    (terms, [c1, c2]) with an integer seed, or None when c2 is not an
    integer."""
    a01 = _nonzero(rng)
    c1 = rng.choice([1, -1])
    terms = {(0, 1): a01, (1, 0): -a01 * c1}
    for i in range(dx + 1):
        for j in range(dy + 1):
            if (i, j) in ((0, 0), (0, 1), (1, 0)):
                continue
            if rng.random() < 0.5:
                v = rng.randint(-5, 5)
                if v:
                    terms[(i, j)] = v
    level2 = sum(terms.get((i, j), 0) * c1 ** j for i in range(3) for j in range(3) if i + j == 2)
    c2 = Fraction(-level2, a01)
    if c2.denominator != 1:
        return None
    return terms, [c1, int(c2)]


def e3_family_instance(rng: random.Random):
    """a02 y^2 + a20 x^2 + a21 x^2 y + a22 x^2 y^2 with a20 = -a02 c1^2, so
    c1 = +-1 starts a simple root and c2 = -a21/(2 a02) is an integer."""
    a02 = rng.choice([-2, -1, 1, 2])
    c1 = rng.choice([1, -1])
    t = rng.choice([-1, 0, 1])
    a21 = 2 * a02 * t
    a22 = rng.randint(-5, 5)
    terms = {(0, 2): a02, (2, 0): -a02 * c1 * c1}
    if a21:
        terms[(2, 1)] = a21
    if a22:
        terms[(2, 2)] = a22
    return terms, [c1, -t]


def liftable_instances(rng: random.Random, count: int) -> list:
    """The test suite's liftable mix: 30% e3 family, the rest Henselian at
    bounds (3,3), (3,2), (2,3), (2,2) or (3,1)."""
    out = []
    while len(out) < count:
        if rng.random() < 0.3:
            out.append(e3_family_instance(rng))
            continue
        inst = henselian_instance(rng, *rng.choice([(3, 3), (3, 2), (2, 3), (2, 2), (3, 1)]))
        if inst is not None:
            out.append(inst)
    return out


def exact_instances(rng: random.Random, dx: int, dy: int, count: int) -> list:
    """Henselian instances whose polynomial has exactly the bounds (dx, dy)."""
    out = []
    while len(out) < count:
        inst = henselian_instance(rng, dx, dy)
        if inst is not None and (max(i for i, _ in inst[0]), max(j for _, j in inst[0])) == (dx, dy):
            out.append(inst)
    return out


# -- requests


@dataclass
class Request:
    """One CLI call: its arguments, expected exit code, size class, and
    what the checker needs to verify the answer."""

    kind: str
    size: str
    argv: list[str]
    spec: dict = field(default_factory=dict)


class InputWriter:
    """Writes polynomial and series files into one directory, one file per
    distinct content."""

    def __init__(self, root: str):
        self.root = root
        self.paths: dict[str, str] = {}

    def _write(self, stem: str, obj: dict) -> str:
        text = json.dumps(obj)
        if text not in self.paths:
            path = os.path.join(self.root, f"{stem}{len(self.paths) + 1}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.paths[text] = path
        return self.paths[text]

    def poly(self, terms: dict) -> str:
        return self._write("poly", {"terms": [
            {"i": i, "j": j, "c": str(Fraction(c))} for (i, j), c in sorted(terms.items()) if c]})

    def series(self, coeffs: list) -> str:
        return self._write("series", {"coefficients": [str(Fraction(c)) for c in coeffs],
                                      "precision": len(coeffs)})


def _request(kind, size, argv, expect, **spec) -> Request:
    spec.update(kind=kind, expect=expect)
    return Request(kind, size, [kind] + argv, spec)


def expand_mix(out: InputWriter) -> list[Request]:
    """About 80% ``expand --method all`` and 20% ``henselize`` on liftable
    instances and e4, with counts 3..8."""
    reqs = []
    for n, (terms, seed) in enumerate(liftable_instances(random.Random(INPUT_SEED), EXPAND_INSTANCES)):
        pf, sf = out.poly(terms), out.series(seed)
        count = EXPAND_COUNTS[n % len(EXPAND_COUNTS)]
        # every third expand sends only c1, like the e4 requests
        short = seed[:1] if n % 3 == 2 else seed
        reqs.append(_request("expand", f"count{count}",
                             ["--poly", pf, "--seed", out.series(short), "--count", str(count)], 0,
                             terms=terms, seed=short, count=count))
        if n % HENSELIZE_EVERY == 0:
            reqs.append(_request("henselize", "k1", ["--poly", pf, "--seed", sf, "--k", "1"], 0,
                                 terms=terms, seed=seed, k=1))
    pf, sf = out.poly(E4_TERMS), out.series(E4_SEED)
    for count in E4_EXPAND_COUNTS:
        reqs.append(_request("expand", f"e4-count{count}",
                             ["--poly", pf, "--seed", sf, "--count", str(count)], 0,
                             terms=E4_TERMS, seed=E4_SEED, count=count))
    return reqs


def oracle_long(out: InputWriter) -> list[Request]:
    """``oracle`` on e4 at counts 50..400 and on Henselian roots at bounds
    (2,2)..(3,3) at counts 50..200."""
    rng = random.Random(INPUT_SEED)
    reqs = []
    pf, sf = out.poly(E4_TERMS), out.series(E4_SEED)
    for count, times in E4_ORACLE_COUNTS:
        for _ in range(times):
            reqs.append(_request("oracle", f"e4-count{count}",
                                 ["--poly", pf, "--seed", sf, "--count", str(count)], 0,
                                 terms=E4_TERMS, seed=E4_SEED, count=count))
    for (dx, dy), counts in ORACLE_MIX:
        for (terms, seed), count in zip(exact_instances(rng, dx, dy, len(counts)), counts):
            pf, sf = out.poly(terms), out.series(seed)
            reqs.append(_request("oracle", f"{dx}x{dy}-count{count}",
                                 ["--poly", pf, "--seed", sf, "--count", str(count)], 0,
                                 terms=terms, seed=seed, count=count))
    return reqs


def random_roots(rng: random.Random, dx: int, dy: int, count: int) -> list[tuple[dict, list]]:
    """Henselian polynomials with exactly the bounds (dx, dy), each with
    its root to the precision an implicitize request at those bounds
    stores."""
    return [(terms, lift_root(terms, seed, stored_precision(dx, dy)))
            for terms, seed in exact_instances(rng, dx, dy, count)]


def stored_precision(dx: int, dy: int) -> int:
    # depth 2*dx*dy plus the dx skipped G rows, and a few more so that the
    # checker sees vanishing beyond tau
    return 2 * dx * dy + dx + 4


def implicitize_mix(out: InputWriter) -> list[Request]:
    """Positive ``implicitize`` on lifted random roots, negative
    ``implicitize`` on random rational prefixes, and ``certify`` on the
    positive pairs and on perturbed series."""
    rng = random.Random(INPUT_SEED)
    reqs = []
    for (dx, dy), positives, negatives, certifies in IMPLICITIZE_MIX:
        bounds = ["--dx", str(dx), "--dy", str(dy)]
        size = f"{dx}x{dy}"
        for terms, z in random_roots(rng, dx, dy, max(positives, certifies)):
            sf = out.series(z)
            if positives:
                positives -= 1
                reqs.append(_request("implicitize", size, ["--series", sf] + bounds, 0,
                                     dx=dx, dy=dy, series=z))
            if certifies:
                certifies -= 1
                pf = out.poly(terms)
                reqs.append(_request("certify", size, ["--poly", pf, "--series", sf] + bounds, 0,
                                     certified=True))
                reqs.append(_request("certify", size + "-perturbed",
                                     ["--poly", pf, "--series", out.series(perturbed(rng, terms, z, dx, dy))]
                                     + bounds, 1, certified=False))
        for _ in range(negatives):
            z = [Fraction(rng.choice((-1, 1)) * rng.randint(1 if n == 0 else 0, 9), rng.randint(1, 7))
                 for n in range(stored_precision(dx, dy))]
            reqs.append(_request("implicitize", size + "-negative", ["--series", out.series(z)] + bounds, 1))
    return reqs


def perturbed(rng: random.Random, terms: dict, z: list, dx: int, dy: int) -> list:
    """z with one coefficient changed so that P(x, z) no longer vanishes
    to depth 2*dx*dy."""
    tau = 2 * dx * dy
    while True:
        w = list(z)
        m = rng.randint(2, tau // 2)
        w[m - 1] += _nonzero(rng)
        if order_of(eval_trunc(terms, w[:tau], tau)) is not None:
            return w


# -- size mixes.  The counts place the median and the 90th percentile of
#    request time inside one size class each, away from the class edges.

EXPAND_INSTANCES = 120
EXPAND_COUNTS = (3, 4, 5, 6, 7, 8)
HENSELIZE_EVERY = 4
# count 8 on e4 costs about as much as count 8 on the large supports, whose
# times are spread out; 13 of them make a dense class for the 90th percentile
E4_EXPAND_COUNTS = (4, 6) + (8,) * 13

# (count, requests) on e4, then (bounds, counts of its requests).  Newton
# doubles its precision, so the time of a request jumps at the counts where
# one more doubling is needed, and the counts cannot form a smooth curve.
# They form three classes instead: cheap requests (count 50 on e4, (2,2)
# and (3,2)), a middle class of 60..130 ms that holds both the median and
# the 90th percentile, and a tail of three (count 200 and e4 at 400) that
# stays under 5% of the requests.
E4_ORACLE_COUNTS = ((50, 6), (70, 2), (80, 2), (90, 2), (100, 2), (110, 2), (120, 2),
                    (200, 1), (400, 1))
ORACLE_MIX = (
    ((2, 2), (50,) * 5 + (71, 71, 100, 100, 200)),
    ((3, 2), (50,) * 5 + (71, 71, 100, 100)),
    ((2, 3), (50,) * 16),
    ((3, 3), (50,) * 18),
    # 28 more instances bring the round to 101 requests, so that ten lie
    # beyond the 90th percentile: cheap ones under the median and a few
    # in the middle class.  They come last, so the instances above keep
    # their draws.
    ((2, 2), (50,) * 11),
    ((3, 2), (50,) * 10),
    ((2, 3), (50,) * 4),
    ((3, 3), (50,) * 3),
)

# (bounds, positive implicitize, negative implicitize, certify pairs):
# positives at (3,3) hold the 90th percentile
IMPLICITIZE_MIX = (
    ((2, 2), 4, 2, 2),
    ((3, 2), 4, 2, 2),
    ((2, 3), 4, 2, 2),
    ((4, 2), 4, 2, 2),
    ((2, 4), 4, 2, 2),
    ((3, 3), 8, 2, 2),
    ((5, 2), 2, 2, 1),
    ((4, 3), 1, 2, 1),
    ((3, 4), 1, 2, 1),
    # 21 more requests bring the round to 101, so that ten lie beyond the
    # 90th percentile: ten under the median, seven between the median and
    # (3,3), and four more positives at (3,3).  They come last, so the
    # requests above keep their draws.
    ((2, 2), 0, 2, 1),
    ((3, 2), 0, 2, 1),
    ((2, 3), 3, 0, 1),
    ((4, 2), 2, 0, 0),
    ((4, 3), 0, 2, 0),
    ((3, 3), 4, 0, 0),
)

WORKLOADS = {
    "expand-mix": expand_mix,
    "oracle-long": oracle_long,
    "implicitize-mix": implicitize_mix,
}
