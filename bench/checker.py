"""Answer checks for the benchmark, independent of ``algseries``.

Polynomials are plain ``{(i, j): coefficient}`` dicts and series are
lists ``[c_1, c_2, ...]``.  Truncated evaluation lifts the series to
integers over one common denominator, so the checks cost little next to
the requests they verify.  Nothing here imports the package under test.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb, lcm


def terms_from_obj(obj: dict) -> dict[tuple[int, int], Fraction]:
    out: dict[tuple[int, int], Fraction] = {}
    for t in obj["terms"]:
        key = (t["i"], t["j"])
        if key in out:
            raise ValueError(f"duplicate term {key}")
        out[key] = Fraction(t["c"])
    return out


def partial_y(terms: dict) -> dict:
    return {(i, j - 1): j * a for (i, j), a in terms.items() if j}


def _eval_scaled(terms: dict, z: list, limit: int) -> tuple[list[int], int]:
    """Integer coefficients of x^0..x^limit in s * P(x, z(x)), and the
    positive integer s, for z = z[0] x + z[1] x^2 + ..."""
    zs = [Fraction(c) for c in z[:limit]]
    den = lcm(*(c.denominator for c in zs)) if zs else 1
    Z = [0] + [int(c * den) for c in zs]
    top = max(j for _, j in terms)
    powers = [[1] + [0] * limit]
    for _ in range(top):
        prev = powers[-1]
        nxt = [0] * (limit + 1)
        for a, pa in enumerate(prev):
            if pa:
                for b in range(1, min(len(Z), limit + 1 - a)):
                    if Z[b]:
                        nxt[a + b] += pa * Z[b]
        powers.append(nxt)
    coef_den = lcm(*(Fraction(a).denominator for a in terms.values()))
    out = [0] * (limit + 1)
    for (i, j), a in terms.items():
        w = int(Fraction(a) * coef_den) * den ** (top - j)
        pj = powers[j]
        for n in range(limit + 1 - i):
            if pj[n]:
                out[i + n] += w * pj[n]
    return out, coef_den * den ** top


def eval_trunc(terms: dict, z: list, limit: int) -> list[int]:
    """P(x, z(x)) up to x^limit, scaled to integers: only the positions of
    the zeros matter to the callers, and scaling keeps them."""
    return _eval_scaled(terms, z, limit)[0]


def order_of(values: list[int]) -> int | None:
    return next((n for n, v in enumerate(values) if v), None)


def _bounds(terms: dict) -> tuple[int, int]:
    return max(i for i, _ in terms), max(j for _, j in terms)


def is_root_prefix(terms: dict, z: list) -> bool:
    """True iff z = c_1..c_n is the truncation of a simple power-series
    root of P: with e the order of dP/dy along z, P(x, z) must vanish
    beyond x^(n+e).  Newton's lemma makes that root unique."""
    n = len(z)
    dx, dy = _bounds(terms)
    e = order_of(eval_trunc(partial_y(terms), z, n + 2 * dx * dy + 2))
    if e is None:
        return False
    return order_of(eval_trunc(terms, z, n + e)) is None


def eval_trunc_exact(terms: dict, z: list, limit: int) -> list[Fraction]:
    """Rational coefficients of x^0..x^limit in P(x, z(x))."""
    values, scale = _eval_scaled(terms, z, limit)
    return [Fraction(v, scale) for v in values]


def next_coefficient(terms: dict, z: list) -> Fraction:
    """c_{n+1} of the simple root whose truncation is z = c_1..c_n."""
    n = len(z)
    dx, dy = _bounds(terms)
    dz = eval_trunc_exact(partial_y(terms), z, n + 2 * dx * dy + 2)
    e = next(k for k, v in enumerate(dz) if v)
    return -eval_trunc_exact(terms, z, n + 1 + e)[n + 1 + e] / dz[e]


def lift_root(terms: dict, seed: list, precision: int) -> list[Fraction]:
    """Extend a root prefix coefficient by coefficient to ``precision``."""
    z = [Fraction(c) for c in seed]
    while len(z) < precision:
        z.append(next_coefficient(terms, z))
    return z


def shifted_poly(terms: dict, z: list, e: int) -> dict:
    """Exact P(x, z(x) + x^e y) as a dict, z = z[0] x + z[1] x^2 + ..."""
    zpoly = [Fraction(0)] + [Fraction(c) for c in z]
    top = max(j for _, j in terms)
    powers = [[Fraction(1)]]
    for _ in range(top):
        prev = powers[-1]
        nxt = [Fraction(0)] * (len(prev) + len(zpoly) - 1)
        for a, pa in enumerate(prev):
            for b, zb in enumerate(zpoly):
                nxt[a + b] += pa * zb
        powers.append(nxt)
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), a in terms.items():
        for m in range(j + 1):
            w = a * comb(j, m)
            for t, c in enumerate(powers[j - m]):
                if c:
                    key = (i + e * m + t, m)
                    out[key] = out.get(key, Fraction(0)) + w * c
    return {k: v for k, v in out.items() if v}


# -- per-request checks: each returns None when the answer is right, or a
#    one-line reason when it is not


def check_expand(spec: dict, payload: dict) -> str | None:
    if payload.get("agree") is not True:
        return "methods disagree"
    lists = payload["coefficients"]
    newton = lists["newton"]
    if not (newton == lists["fs"] == lists["closed"]) or len(newton) != spec["count"]:
        return "coefficient lists differ or have the wrong length"
    seed = [Fraction(c) for c in payload["seed"]]
    given = [Fraction(c) for c in spec["seed"]]
    if seed[: len(given)] != given:
        return "seed changed"
    z = seed + [Fraction(c) for c in newton]
    if len(z) != payload["k"] + 1 + spec["count"]:
        return "wrong number of coefficients"
    if not is_root_prefix(spec["terms"], z):
        return "P(x, seed + coefficients) does not vanish past the last coefficient"
    return None


def check_oracle(spec: dict, payload: dict) -> str | None:
    z = [Fraction(c) for c in payload["coefficients"]]
    if payload["precision"] != spec["count"] or len(z) != spec["count"]:
        return "wrong precision"
    given = [Fraction(c) for c in spec["seed"]]
    if z[: len(given)] != given:
        return "seed changed"
    if not is_root_prefix(spec["terms"], z):
        return "residual does not vanish past the count"
    return None


def check_henselize(spec: dict, payload: dict) -> str | None:
    """P(x, z_{k+1} + x^(k+1) y) must equal omega0 x^i_k (y - Q(x, y))."""
    k = spec["k"]
    z = [Fraction(c) for c in spec["seed"]][: k + 1]
    if payload.get("polynomial_root"):
        dx, dy = _bounds(spec["terms"])
        exact = order_of(eval_trunc(spec["terms"], z, dx + dy * (k + 1))) is None
        return None if exact and [Fraction(c) for c in payload["z"]] == z else "not a polynomial root"
    i_k = payload["i_k"]
    w0 = Fraction(payload["omega0"])
    if not w0:
        return "omega0 is zero"
    want = {(i_k, 1): w0}
    for b in payload["b"]:
        if b["l"] < 1:
            return "Q has a term of x-order 0"
        key = (b["l"] + i_k, b["m"])
        want[key] = want.get(key, Fraction(0)) - w0 * Fraction(b["c"])
    want = {key: v for key, v in want.items() if v}
    if shifted_poly(spec["terms"], z, k + 1) != want:
        return "Hensel form does not match the substitution"
    return None


def check_implicitize(spec: dict, payload: dict) -> str | None:
    if payload.get("result") != "algebraic":
        return "no polynomial"
    terms = terms_from_obj(payload["polynomial"])
    if not terms or not any(v for v in terms.values()):
        return "zero polynomial"
    dx, dy = spec["dx"], spec["dy"]
    if any(i > dx or j > dy or (i, j) == (0, 0) for i, j in terms):
        return "polynomial outside the degree bounds"
    if all(j == 0 for _, j in terms):
        return "polynomial free of y"
    z = spec["series"]
    if order_of(eval_trunc(terms, z, len(z))) is not None:
        return "polynomial does not vanish on the stored series"
    return None


def check_certify(spec: dict, payload: dict) -> str | None:
    if payload.get("certified") is not spec["certified"]:
        return "wrong certificate"
    return None


CHECKS = {
    "expand": check_expand,
    "oracle": check_oracle,
    "henselize": check_henselize,
    "implicitize": check_implicitize,
    "certify": check_certify,
}


def check(spec: dict, code: int, text: str) -> str | None:
    """Reason the answer to a request is wrong, or None when it is right.

    Expected negatives (exit 1) are right when the exit code matches."""
    if code != spec["expect"]:
        return f"exit code {code}, expected {spec['expect']}"
    try:
        payload = json.loads(text)
    except ValueError:
        return "output is not one JSON object"
    if code != 0:
        return None
    try:
        return CHECKS[spec["kind"]](spec, payload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed answer: {exc!r}"
