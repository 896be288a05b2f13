"""Sparse bivariate polynomials over the rationals, the substitutions
y -> z(x) + x^e * y (``substitute_tail``, the literal definition of the
shifted polynomials) and y -> a + x * y (``substitute_shift``, the one step
of the branch scan), and the one evaluation of P(x, y(x)) modulo x^(n+1),
for y(0) = 0, that certification, the branch test and Newton lifting run.

A polynomial is a finite map (i, j) -> coefficient of x^i y^j with no zero
entries stored.  The x-degree, y-degree and x-order are always derived
from the stored support.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm
from typing import Mapping, Sequence

from .errors import InputError
from .series import _clear, _frac, _powers, uni_order  # uni_order: re-exported


# -- dense univariate helpers (index = exponent, trailing zeros trimmed)

def _utrim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


class BivarPoly:
    """Finite sum of a_{i,j} x^i y^j with exact rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping):
        cleaned = {}
        for key, value in terms.items():
            i, j = key
            if i < 0 or j < 0:
                raise InputError("exponents must be natural numbers")
            c = _frac(value)
            if c:
                cleaned[(int(i), int(j))] = c
        self._terms = cleaned

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def x_degree(self) -> int:
        return max((i for i, _ in self._terms), default=0)

    @property
    def y_degree(self) -> int:
        return max((j for _, j in self._terms), default=0)

    @property
    def x_order(self) -> int | None:
        """Least x-exponent over all terms, i.e. min_j ord of the x-coefficient
        polynomials; None for the zero polynomial."""
        return min((i for i, _ in self._terms), default=None)

    def coefficient(self, i: int, j: int) -> Fraction:
        return self._terms.get((i, j), Fraction(0))

    def sorted_terms(self) -> list[tuple[tuple[int, int], Fraction]]:
        return sorted(self._terms.items())

    def partial_y(self) -> "BivarPoly":
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self._terms.items():
            if j >= 1:
                out[(i, j - 1)] = c * j
        return BivarPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self):
        name = type(self).__name__
        if not self._terms:
            return f"{name}(0)"
        bits = []
        for (i, j), c in self.sorted_terms():
            mono = "".join(
                (f"x^{i}" if i > 1 else "x" if i == 1 else "",
                 f"y^{j}" if j > 1 else "y" if j == 1 else ""))
            bits.append(f"({c}){mono}" if mono else f"({c})")
        return f"{name}(" + " + ".join(bits) + ")"

    def primitive_normalized(self) -> "BivarPoly":
        """Canonical representative of the ray through this polynomial:
        integer coefficients, content 1, positive coefficient on the
        anti-lexicographically greatest support element."""
        if not self._terms:
            return self
        _, nums = _clear(list(self._terms.values()))
        ints = dict(zip(self._terms, nums))
        content = gcd(*nums)
        top = max(self._terms, key=lambda ij: (ij[1], ij[0]))
        sign = 1 if ints[top] > 0 else -1
        return BivarPoly({k: Fraction(sign * v, content) for k, v in ints.items()})


def _evaluate(d: int, Y: list[int], cuts: Sequence[tuple[BivarPoly, int]]
              ) -> list[tuple[int, list[int]]]:
    """(den, N) with P(x, Y(x) / d) = N / den modulo x^(n+1), N of n + 1
    integers, for each (P, n) in ``cuts``, all on one set of powers of Y.

    With L the common denominator of P, each term a x^i y^j adds
    (a L) d^(top - j) Y^j to the numerators over L d^top.  Y has no
    constant term, so Y^j vanishes mod x^(n+1) for j > n: the powers stop
    at top = min(y-degree, largest n) and those terms are skipped.
    """
    n_max = max(n for _, n in cuts)
    top = min(max(P.y_degree for P, _ in cuts), n_max)
    powers = _powers(Y, top, n_max)
    out = []
    for P, n in cuts:
        top_p = min(P.y_degree, top)
        den = lcm(*(a.denominator for a in P._terms.values()))
        acc = [0] * (n + 1)
        for (i, j), a in P._terms.items():
            if i > n or j > top_p:
                continue  # the whole term lies past the cut
            scale = a.numerator * (den // a.denominator) * d ** (top_p - j)
            for m, c in enumerate(powers[j][: n + 1 - i], i):
                if c:
                    acc[m] += scale * c
        out.append((den * d ** top_p, acc))
    return out


def eval_at_poly(P: BivarPoly, z: Sequence, precision: int | None = None) -> list[Fraction]:
    """Dense coefficients of P(x, z(x)) modulo x^(precision+1) for
    z = c_1 x + ... + c_k x^k, trailing zeros trimmed.

    The default precision dx + dy*k is the degree bound, so the result is
    then P(x, z(x)) exactly.
    """
    if precision is None:
        precision = P.x_degree + P.y_degree * len(z)
    if precision < 0:
        raise InputError("precision must be a natural number")
    [(den, out)] = _evaluate(*_clear([Fraction(0)] + [_frac(c) for c in z]), [(P, precision)])
    return [Fraction(c, den) for c in _utrim(out)]


def substitute_tail(P: BivarPoly, z: Sequence, e: int) -> BivarPoly:
    """Exact expansion of P(x, z(x) + x^e * y) as a bivariate polynomial."""
    if e < 1:
        raise InputError("substitution exponent must be at least 1")
    d, ints = _clear([Fraction(0)] + [_frac(c) for c in z])
    powers = _powers(ints, P.y_degree, len(z) * P.y_degree)
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), a in P._terms.items():
        for m in range(j + 1):
            w = a * comb(j, m) / d ** (j - m)
            zp = powers[j - m]
            base = i + e * m
            for t, c in enumerate(zp):
                if c:
                    key = (base + t, m)
                    out[key] = out.get(key, Fraction(0)) + w * c
    return BivarPoly(out)


def substitute_shift(P: BivarPoly, a) -> BivarPoly:
    """Exact expansion of P(x, a + x * y) for a constant a."""
    shift = _frac(a)
    out: dict[tuple[int, int], Fraction] = {}
    for (i, j), coeff in P._terms.items():
        for m in range(j + 1):
            value = coeff * comb(j, m) * shift ** (j - m)
            if value:
                key = (i + m, m)
                out[key] = out.get(key, Fraction(0)) + value
    return BivarPoly(out)
