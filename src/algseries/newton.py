"""Ground-truth generators: Newton lifting of simple roots on truncated
series, a fraction-free determinant, and fixed-point expansion of reduced
Henselian equations.

Everything here exists to produce fixtures and to cross-check the other
modules by an independent computational route, so none of it reuses their
coefficient formulas: lifting runs the classical iteration
y <- y - P(x,y) / (dP/dy)(x,y), the determinant eliminates over an integer
lift of the matrix, and the fixed-point expansion just iterates y <- Q(x,y).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .bivar import BivarPoly, eval_at_poly, eval_at_series
from .errors import InputError, LiftError, NotSimpleRootError, PrecisionError
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

    The seed must isolate the branch: it has to reach at least two places
    past the branch-separation index, and no coefficient of it may leave
    the branch (``leaves_branch``, which also certifies every coefficient
    returned).  Coefficients are grown one at a time until the quadratic
    regime is reached, then by Newton steps whose precision doubles,
    discounted by the order of dP/dy along the root.
    """
    cs = [_frac(v) for v in seed]
    if not cs or not cs[0]:
        raise LiftError("seed must start with c_1 != 0")
    if precision < len(cs):
        raise InputError("target precision below the seed length")
    s = len(cs)
    try:
        bd = branch_data(P, TruncatedSeries(cs, precision=s, start=1))
    except (NotSimpleRootError, PrecisionError) as exc:
        raise LiftError(f"seed does not isolate a simple root: {exc}") from exc
    if s < bd.k0 + 2:
        raise LiftError(f"seed length {s} below k0 + 2 = {bd.k0 + 2}")
    wrong = leaves_branch(P, cs, bd)
    if wrong is not None:
        raise LiftError(f"seed is not the prefix of a root: c_{wrong} leaves the branch")
    e = bd.i_k0 - bd.k0 - 1
    deriv = P.partial_y()

    t = s
    iterations = 0
    while t < precision:
        if t > e:
            target = min(2 * t - e, precision)
            work = target + e
            u = TruncatedSeries(eval_at_poly(P, cs, work), precision=work, start=0)
            v = TruncatedSeries(eval_at_poly(deriv, cs, work), precision=work, start=0)
            if v.valuation != e:
                raise LiftError(
                    f"order of dP/dy at the prefix is {v.valuation}, expected {e}"
                )
            q = series_div(u, v, target)
            cs.extend([Fraction(0)] * (target - t))
            for n in range(1, target + 1):
                cs[n - 1] -= q.coefficient(n)
            t = target
        else:
            i_t = bd.i_k0 + (t - bd.k0)
            u = eval_at_poly(P, cs, i_t)
            coeff = u[i_t] if i_t < len(u) else Fraction(0)
            cs.append(-coeff / bd.omega0)
            t += 1
        iterations += 1

    if cs[: len(seed)] != [_frac(v) for v in seed]:
        raise LiftError("lift lost seed coefficients")
    wrong = leaves_branch(P, cs, bd)
    if wrong is not None:
        raise LiftError(f"lifted coefficient c_{wrong} leaves the branch")
    return LiftReport(TruncatedSeries(cs, precision=precision, start=1), iterations)


def bareiss_det(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free elimination on an integer lift.

    Each row is scaled by the least common multiple of its denominators;
    the integer matrix is then reduced Bareiss-style, dividing each 2x2
    cross-product by the previous pivot (an exact division), and the
    result is rescaled.
    """
    n = len(matrix)
    if n == 0:
        return Fraction(1)
    rows = [[_frac(v) for v in row] for row in matrix]
    if any(len(row) != n for row in rows):
        raise InputError("matrix must be square")
    scale = 1
    lifted: list[list[int]] = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row)) if row else 1
        scale *= mult
        lifted.append([int(v * mult) for v in row])
    sign = 1
    prev = 1
    for col in range(n - 1):
        pivot = next((r for r in range(col, n) if lifted[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            lifted[col], lifted[pivot] = lifted[pivot], lifted[col]
            sign = -sign
        for r in range(col + 1, n):
            for cc in range(col + 1, n):
                lifted[r][cc] = (
                    lifted[r][cc] * lifted[col][col] - lifted[r][col] * lifted[col][cc]
                ) // prev
            lifted[r][col] = 0
        prev = lifted[col][col]
    return Fraction(sign * lifted[n - 1][n - 1], scale)


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
