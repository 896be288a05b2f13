"""Ground-truth generators: Newton lifting of simple roots on truncated
series and fixed-point expansion of reduced Henselian equations.

Everything here exists to produce fixtures and to cross-check the other
modules by an independent computational route, so none of it reuses their
coefficient formulas: lifting runs the classical iteration
y <- y - P(x,y) / (dP/dy)(x,y), and the fixed-point expansion just
iterates y <- Q(x,y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bivar import BivarPoly, eval_at_poly, eval_at_series
from .errors import InputError, LiftError, NotSimpleRootError
from .flajolet_soria import ReducedHenselEq
from .henselization import branch_data, leaves_branch
from .henselization import order_sequence  # unused; bound because bench/tracing.py wraps it
from .series import TruncatedSeries, _frac, series_div


@dataclass(frozen=True)
class LiftReport:
    """A lifted root prefix, every coefficient certified by ``leaves_branch``."""

    series: TruncatedSeries
    iterations: int


def newton_lift(P: BivarPoly, seed: Sequence, precision: int) -> LiftReport:
    """Extend a root prefix c_1..c_s to the stated precision.

    The seed needs only c_1..c_{k0+1}, the prefix the branch scan reads;
    every coefficient of it must stay on the branch, and so must every
    coefficient returned (``leaves_branch``, Newton's lemma).  A step
    replaces the prefix z_t = c_1..c_t by z_t - P(x, z_t) / (dP/dy)(x, z_t)
    cut at x^min(2t - k0, T): past k0 the lowest coefficient of
    P(x, z_t + x^(t+1) y) is linear in y, so the step is exact through
    2t - k0, which is at least t + 1.

    Raises ``InputError`` for an invalid P or seed (c_1 = 0) and for a
    target below the seed length, ``PrecisionError`` when the seed ends
    before the branch separates, ``NotSimpleRootError`` when the seed
    leaves the branch or P has no simple root there, and ``LiftError``
    when the lift itself fails its order check or its final certificate.
    """
    cs = [_frac(v) for v in seed]
    s = len(cs)
    bd = branch_data(P, TruncatedSeries(cs, precision=s, start=1))
    wrong = leaves_branch(P, cs, bd)
    if wrong is not None:
        raise NotSimpleRootError(f"seed leaves the branch at c_{wrong}")
    if precision < s:
        raise InputError("target precision below the seed length")
    e = bd.i_k0 - bd.k0 - 1
    deriv = P.partial_y()

    t = s
    iterations = 0
    while t < precision:
        target = min(2 * t - bd.k0, precision)
        work = target + e
        u = TruncatedSeries(eval_at_poly(P, cs, work), precision=work, start=0)
        v = TruncatedSeries(eval_at_poly(deriv, cs, work), precision=work, start=0)
        if v.valuation != e:
            raise LiftError(f"order of dP/dy at the prefix is {v.valuation}, expected {e}")
        q = series_div(u, v, target)
        cs.extend([Fraction(0)] * (target - t))
        for n in range(1, target + 1):
            cs[n - 1] -= q.coefficient(n)
        t = target
        iterations += 1

    if cs[: len(seed)] != [_frac(v) for v in seed]:
        raise LiftError("lift lost seed coefficients")
    wrong = leaves_branch(P, cs, bd)
    if wrong is not None:
        raise LiftError(f"lifted coefficient c_{wrong} leaves the branch")
    return LiftReport(TruncatedSeries(cs, precision=precision, start=1), iterations)


def fixed_point_expand(Q: ReducedHenselEq, precision: int) -> TruncatedSeries:
    """Solution of y = Q(x, y) by plain fixed-point iteration.

    Each pass gains at least one order of agreement, so ``precision``
    passes starting from 0 are enough.  Used as an oracle against the
    coefficient formulas.
    """
    if precision < 1:
        raise InputError("precision must be at least 1")
    poly = Q.as_poly()
    y = TruncatedSeries.zero(precision)
    for _ in range(precision):
        y = eval_at_series(poly, y, precision)
    return y
