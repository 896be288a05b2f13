"""Truncated power series over the rationals.

A series is known modulo x^(T+1): exactly the coefficients of x^0..x^T are
stored, and nothing is claimed beyond that.  ``fractions.Fraction`` is the
boundary type: every stored coefficient, argument and result is a Fraction
in canonical reduced form, so every operation here is exact.  Inside the
kernel (``_mul``, ``_inverse``) a coefficient list is integer numerators
over one common denominator, and a product is one multiplication of two
Kronecker-packed integers.  ``_inverse`` is the one Newton inverse:
``series_div`` starts it from 1 / v_e, and the Newton lift refines the one
it carries from step to step.  The valuation is always computed from the
stored data; a truncation whose stored coefficients all vanish is a
distinguished state that only promises "order > precision".
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

from .errors import InputError, PrecisionError


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise InputError(f"not an exact rational: {value!r}")


class TruncatedSeries:
    """Coefficients of a power series modulo x^(precision+1)."""

    __slots__ = ("_c", "_precision")

    def __init__(self, coefficients: Sequence, precision: int | None = None, start: int = 1):
        """Build from the coefficients of x^start, x^(start+1), ...

        ``precision`` defaults to the index of the last supplied
        coefficient; passing it explicitly extends the series with zeros
        only if it matches, otherwise the claim would be unsound and an
        error is raised.
        """
        if start < 0:
            raise InputError("start exponent must be a natural number")
        coeffs = [_frac(c) for c in coefficients]
        top = start + len(coeffs) - 1 if coeffs else start - 1
        if precision is None:
            precision = top
        if precision < top:
            raise InputError("precision below the last supplied coefficient")
        dense = [Fraction(0)] * (precision + 1)
        for offset, c in enumerate(coeffs):
            dense[start + offset] = c
        self._c = tuple(dense)
        self._precision = precision

    @classmethod
    def zero(cls, precision: int) -> "TruncatedSeries":
        return cls((), precision=precision, start=1)

    @classmethod
    def _from_dense(cls, dense: Sequence[Fraction]) -> "TruncatedSeries":
        s = cls.__new__(cls)
        s._c = tuple(dense)
        s._precision = len(dense) - 1
        return s

    @property
    def precision(self) -> int:
        return self._precision

    @property
    def valuation(self) -> int | None:
        """Least exponent with a nonzero coefficient, or None when every
        stored coefficient vanishes (order > precision)."""
        for n, c in enumerate(self._c):
            if c:
                return n
        return None

    @property
    def is_zero_truncation(self) -> bool:
        return self.valuation is None

    def coefficient(self, n: int) -> Fraction:
        if n < 0:
            return Fraction(0)
        if n > self._precision:
            raise PrecisionError(f"coefficient of x^{n} beyond precision {self._precision}")
        return self._c[n]

    def coefficients(self) -> tuple[Fraction, ...]:
        """Dense coefficients of x^0 .. x^precision."""
        return self._c

    def one_based(self) -> tuple[Fraction, ...]:
        """Coefficients c_1..c_T, for series with no constant term."""
        if self._c and self._c[0]:
            raise InputError("series has a constant term; no 1-based form")
        return self._c[1:]

    def truncate(self, precision: int) -> "TruncatedSeries":
        if precision > self._precision:
            raise PrecisionError("cannot extend a truncation")
        return TruncatedSeries._from_dense(self._c[: precision + 1])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self._c == other._c

    def __hash__(self):
        return hash(self._c)

    def __repr__(self):
        head = ", ".join(str(c) for c in self._c[: min(len(self._c), 8)])
        return f"TruncatedSeries([{head}{'...' if len(self._c) > 8 else ''}]; T={self._precision})"

    # -- exact arithmetic; the result precision is the weaker of the operands

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        t = min(self._precision, other._precision)
        return TruncatedSeries._from_dense(
            [self._c[n] + other._c[n] for n in range(t + 1)]
        )

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        t = min(self._precision, other._precision)
        return TruncatedSeries._from_dense(_mul(self._c, other._c, t))


def _clear(a: Sequence[Fraction]) -> tuple[int, list[int]]:
    """(d, [d * c for c in a]): integer numerators over one denominator."""
    d = lcm(*(c.denominator for c in a))
    return d, [c.numerator * (d // c.denominator) for c in a]


def _halves(width: int, count: int) -> int:
    """2^(8 * width - 1) in each of ``count`` digits of ``width`` bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * count, "little")


def _pack(a: list[int], width: int) -> int:
    """sum a[i] * 2^(8 * width * i) for |a[i]| < 2^(8 * width - 1).

    Each digit goes in as ``width`` plain bytes after adding 2^(8 * width - 1)
    to it, and the added halves are taken back at once.
    """
    half = 1 << (8 * width - 1)
    data = b"".join((v + half).to_bytes(width, "little") for v in a)
    return int.from_bytes(data, "little") - _halves(width, len(a))


def _int_mul(a: list[int], b: list[int], n: int) -> list[int]:
    """Integer product of two coefficient lists, cut after x^n, by Kronecker
    substitution: a and b are packed into one integer each at a byte width
    above every |product coefficient| and a sign bit, multiplied once, and
    the first min(len(a) + len(b) - 1, n + 1) digits are read back.  When b
    is a, one packed integer is squared, which CPython does faster."""
    size = min(len(a) + len(b) - 1, n + 1)
    if not a or not b or size <= 0:
        return []
    square = b is a
    a = a[:size]
    b = a if square else b[:size]
    top_a, top_b = max(map(abs, a)), max(map(abs, b))
    if not top_a or not top_b:
        return [0] * size
    bits = top_a.bit_length() + top_b.bit_length() + min(len(a), len(b)).bit_length() + 1
    width = (bits + 7) // 8
    packed = _pack(a, width)
    product = packed * packed if square else packed * _pack(b, width)
    # with 2^(w-1) added to every digit each one lies in [0, 2^w), so the
    # low ``size`` digits are plain bytes, whatever the digits above them
    low = (product + _halves(width, size)) & ((1 << (8 * width * size)) - 1)
    data = low.to_bytes(width * size, "little")
    half = 1 << (8 * width - 1)
    return [int.from_bytes(data[k: k + width], "little") - half
            for k in range(0, width * size, width)]


def _mul(a: Sequence[Fraction], b: Sequence[Fraction], n: int) -> list[Fraction]:
    """Dense product of two coefficient lists, cut after x^n.

    The result has min(len(a) + len(b) - 1, n + 1) entries.  Every series
    product and every power inside an evaluation of P(x, y(x)) comes here.
    Fractions are the boundary: each operand is cleared to integer
    numerators over one denominator, the integers are multiplied by
    ``_int_mul``, and each result coefficient is one Fraction over the
    product of the two denominators.
    """
    size = min(len(a) + len(b) - 1, n + 1)
    if not a or not b or size <= 0:
        return []
    da, ia = _clear(a[:size])
    db, ib = (da, ia) if b is a else _clear(b[:size])
    den = da * db
    return [Fraction(c, den) for c in _int_mul(ia, ib, n)]


def series_pow(y: TruncatedSeries, j: int, precision: int) -> TruncatedSeries:
    """j-th power of a series with zero constant term, modulo x^(precision+1).

    The result's coefficient of x^n vanishes for n < j, and at n = j it is
    c_1^j.  For j = 0 the constant series 1 is returned.
    """
    if j < 0:
        raise InputError("exponent must be a natural number")
    if y.precision < precision:
        raise PrecisionError(
            f"series precision {y.precision} below requested {precision}"
        )
    if y.coefficient(0):
        raise InputError("series_pow expects a series with zero constant term")
    one = TruncatedSeries((1,), precision=precision, start=0)
    if j == 0:
        return one
    base = y.truncate(precision)
    acc = one
    remaining = j
    power = base
    while remaining:
        if remaining & 1:
            acc = acc * power
        remaining >>= 1
        if remaining:
            power = power * power
    return acc


def _inverse(dw: int, w: list[int], guess=None) -> tuple[int, list[int]]:
    """(D, G), G / D = 1 / W mod x^len(w) in lowest terms, for W = w / dw
    with w[0] != 0, by g <- g - g (W g - 1) from ``guess`` = (D, G), or from
    1 / w_0 when there is none or it is wrong at x^0.  The precision p of g
    is read from the order of the residue w G - dw D on every pass, never
    assumed; a pass keeping every term leaves the residue -(W g - 1)^2, of
    order 2p, so once 2p >= len(w) it is the last."""
    n = len(w)
    D, G = (guess[0], guess[1][:n]) if guess else (1, [0])
    if w[0] * G[0] != dw * D:
        c = gcd(dw, w[0]) if w[0] > 0 else -gcd(dw, w[0])
        D, G = w[0] // c, [dw // c]
    while True:
        residue = _int_mul(w, G, n - 1)
        residue[0] -= dw * D
        p = next((k for k, c in enumerate(residue) if c), n)
        if p == n:
            return D, G
        size = min(2 * p, n)
        fix = _int_mul(G, residue[p:size], size - p - 1)
        G = [c * dw * D for c in G[:size]] + [0] * (size - len(G))
        for k, c in enumerate(fix, p):
            G[k] -= c
        D *= dw * D
        c = gcd(D, *G)
        D, G = D // c, [v // c for v in G]
        if size == n:
            return D, G


def series_div(u: TruncatedSeries, v: TruncatedSeries, precision: int) -> TruncatedSeries:
    """Quotient u/v modulo x^(precision+1), when it is a power series.

    Requires ord(v) finite and ord(u) >= ord(v) (or u the zero truncation).
    Both operands must carry precision + ord(v) coefficients.  With
    e = ord(v) and k = ord(u) - e, the quotient is x^k (u / x^(e+k)) times
    ``_inverse`` of v / x^e through x^(precision - k).
    """
    e = v.valuation
    if e is None:
        raise InputError("division by a series with no visible nonzero coefficient")
    if min(u.precision, v.precision) - e < precision:
        raise PrecisionError("insufficient precision for the requested quotient")
    if u.is_zero_truncation:
        return TruncatedSeries.zero(precision)
    k = u.valuation - e
    if k < 0:
        raise InputError("quotient is not a power series (numerator order too small)")
    m = precision - k  # the inverse is needed through x^m
    if m < 0:
        return TruncatedSeries._from_dense([Fraction(0)] * (precision + 1))
    D, G = _inverse(*_clear(v.coefficients()[e: e + m + 1]))
    du, shifted = _clear(u.coefficients()[e + k: e + precision + 1])
    quotient = [Fraction(c, du * D) for c in _int_mul(shifted, G, m)]
    return TruncatedSeries._from_dense([Fraction(0)] * k + quotient)
