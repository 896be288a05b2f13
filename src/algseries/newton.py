"""Ground truth by Newton lifting of simple roots on truncated series.

The lift cross-checks the other modules by an independent route, so it
reuses none of their coefficient formulas.  It is the coupled Newton
iteration (Brent and Kung, J. ACM 1978), on integers throughout: the root
prefix z and the inverse g of dP/dy along it are lifted together, so no
step divides from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Sequence

from .bivar import BivarPoly, _evaluate, uni_order
from .bivar import eval_at_poly  # unused; bound because bench/tracing.py wraps it
from .errors import InputError, LiftError, NotSimpleRootError
from .henselization import BranchData, branch_data, leaves_branch
from .henselization import order_sequence  # unused; bound because bench/tracing.py wraps it
from .series import TruncatedSeries, _clear, _frac, _int_mul, _inverse
from .series import series_div  # unused; bound because bench/tracing.py wraps it


@dataclass(frozen=True)
class LiftReport:
    """A lifted root prefix, every coefficient certified by ``leaves_branch``."""

    series: TruncatedSeries
    iterations: int


def newton_lift(P: BivarPoly, seed: Sequence, precision: int, *,
                branch: BranchData | None = None) -> LiftReport:
    """Extend a root prefix c_1..c_s to the stated precision.

    The seed needs only c_1..c_{k0+1}, the prefix the branch scan reads;
    every coefficient of it must stay on the branch, and so must every
    coefficient returned (``leaves_branch``, Newton's lemma).  A step
    replaces the prefix z_t = c_1..c_t by z_t - P(x, z_t) / (dP/dy)(x, z_t)
    cut at x^min(2t - k0, T): past k0 the lowest coefficient of
    P(x, z_t + x^(t+1) y) is linear in y, so the step is exact through
    2t - k0, which is at least t + 1.

    With e = ord dP/dy along the root and m = target - t - 1, a step
    evaluates P(x, z_t) through x^(target+e) and dP/dy only through
    x^(e+m), on one set of powers of z_t.  The inverse g of
    w = (dP/dy) / x^e carried from the step before is refined by
    g <- g - g (w g - 1) until w g = 1 mod x^(m+1), its precision read from
    the order of the residue every time, since w moves with z_t.  z_t is
    integer numerators over one denominator, the content removed once per
    step; Fractions are made once, at the end.

    ``branch`` is the caller's ``branch_data`` of this P and seed, for a
    seed the caller has already checked with ``leaves_branch``; given it,
    the lift neither scans nor checks the seed again.  The final
    certificate runs either way.

    The seed may start with zeros, for a root of any valuation.  Raises
    ``InputError`` for an invalid P or seed (a coefficient that is not an
    exact rational) and for a target below the seed length,
    ``PrecisionError`` when the seed ends before the branch separates,
    ``NotSimpleRootError`` when the seed leaves the branch or P has no
    simple root there, and ``LiftError`` when the lift itself fails its
    order checks or its final certificate.
    """
    cs = [_frac(v) for v in seed]
    s = len(cs)
    bd = branch
    if bd is None:
        bd = branch_data(P, TruncatedSeries(cs, precision=s, start=1))
        wrong = leaves_branch(P, cs, bd)
        if wrong is not None:
            raise NotSimpleRootError(f"seed leaves the branch at c_{wrong}")
    if precision < s:
        raise InputError("target precision below the seed length")
    e = bd.i_k0 - bd.k0 - 1
    deriv = P.partial_y()

    d, Z = _clear([Fraction(0)] + cs)  # z_t = Z / d, Z[n] the numerator of c_n
    inverse = None
    t = s
    iterations = 0
    while t < precision:
        target = min(2 * t - bd.k0, precision)
        m = target - t - 1
        (du, U), (dv, V) = _evaluate(d, Z, [(P, target + e), (deriv, e + m)])
        if uni_order(V) != e:
            raise LiftError(f"order of dP/dy at the prefix is {uni_order(V)}, expected {e}")
        if any(U[: t + 1 + e]):
            raise LiftError(f"P(x, z_{t}) has a term below x^{t + 1 + e}")
        dg, G = inverse = _inverse(dv, V[e:], inverse)
        # c_(t+1)..c_target = -(U / x^(t+1+e)) G / (du dg), cut after x^m
        D = d * du * dg
        Z = [v * du * dg for v in Z] + [-d * v for v in _int_mul(U[t + 1 + e:], G, m)]
        c = gcd(D, *Z)
        d, Z = D // c, [v // c for v in Z]
        t = target
        iterations += 1

    cs = [Fraction(v, d) for v in Z[1:]]
    if cs[:s] != [_frac(v) for v in seed]:
        raise LiftError("lift lost seed coefficients")
    wrong = leaves_branch(P, cs, bd)
    if wrong is not None:
        raise LiftError(f"lifted coefficient c_{wrong} leaves the branch")
    return LiftReport(TruncatedSeries(cs, precision=precision, start=1), iterations)
