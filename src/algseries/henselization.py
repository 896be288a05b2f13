"""Order sequences, branch separation, and Hensel-form reduction.

For a polynomial P and a candidate root prefix c_1, c_2, ..., the order
i_k of P(x, z_k + x^(k+1) y) is strictly increasing exactly while the
prefix is consistent with a root, and for a simple root there is a least
index k0 past which it increases by exactly one.  From any k > k0 the
substitution y -> z_{k+1} + x^(k+1) (y + c_{k+1}) turns P into
-omega0 x^{i_k} (y - Q_k(x, y)) for a polynomial Q_k defining a reduced
Henselian equation satisfied by the root's tail; its coefficient table is
computed here by an explicit multinomial formula, never by expanding the
substitution, so the two can be checked against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterator

from .bivar import BivarPoly, eval_at_poly, substitute_shift, uni_order
from .bivar import substitute_tail  # unused; bound because bench/tracing.py wraps it
from .errors import InputError, NotSimpleRootError, PrecisionError
from .flajolet_soria import ReducedHenselEq, multinomial, weighted_compositions
from .series import TruncatedSeries, _frac


@dataclass(frozen=True)
class BranchData:
    """Branch-separation index with the order and the nonzero scalar at it."""

    k0: int
    i_k0: int
    omega0: Fraction


@dataclass(frozen=True)
class HenselForm:
    """Either a reduced Henselian equation for the tail past z_{k+1}, or
    the discovery that z_{k+1} is itself an exact polynomial root."""

    k: int
    k0: int | None = None
    i_k: int | None = None
    omega0: Fraction | None = None
    eq: ReducedHenselEq | None = None
    polynomial_root: tuple[Fraction, ...] | None = None


def _validate_inputs(P: BivarPoly, c: TruncatedSeries) -> None:
    if P.is_zero:
        raise InputError("polynomial must be nonzero")
    if P.y_degree < 1:
        raise InputError("polynomial must involve y")
    if c.coefficient(0):
        raise InputError("seed series must have zero constant term")
    if c.precision < 1 or not c.coefficient(1):
        raise InputError("seed series must have c_1 != 0")


def _scan(P: BivarPoly, c: TruncatedSeries) -> Iterator[BivarPoly]:
    """The shifted polynomials P_k = P(x, z_k + x^(k+1) y) for
    k = 0..c.precision, one at a time.

    P_0 = P(x, x y) is the exponent map (i, j) -> (i + j, j), and
    P_{k+1}(x, y) = P_k(x, c_{k+1} + x y), one ``substitute_shift`` per
    coefficient read.
    """
    current = BivarPoly({(i + j, j): a for (i, j), a in P.terms.items()})
    yield current
    for k in range(1, c.precision + 1):
        current = substitute_shift(current, c.coefficient(k))
        yield current


def order_sequence(P: BivarPoly, c: TruncatedSeries, k_max: int) -> tuple[int, ...]:
    """Orders (i_0, ..., i_kmax) of the shifted polynomials."""
    _validate_inputs(P, c)
    if k_max < 0:
        raise InputError("k_max must be a natural number")
    if c.precision < k_max:
        raise PrecisionError(f"need {k_max} coefficients, have {c.precision}")
    return tuple(current.x_order for _, current in zip(range(k_max + 1), _scan(P, c)))


def branch_data(P: BivarPoly, c: TruncatedSeries) -> BranchData:
    """Scan for the least k with i_{k+1} = i_k + 1 and a nonzero linear
    coefficient at the new order.

    The scan is capped by 2*dx*dy + 1; running past that cap without a hit
    disproves the simple-root hypothesis, but only once the seed carries at
    least 2*dx*dy + 3 coefficients is that verdict issued rather than a
    precision error.
    """
    _validate_inputs(P, c)
    bound = 2 * P.x_degree * P.y_degree + 1
    scan = _scan(P, c)
    i_prev = next(scan).x_order
    for k in range(0, bound + 1):
        current = next(scan, None)
        if current is None:
            raise PrecisionError(
                f"branch scan needs coefficient c_{k + 1} beyond precision {c.precision}"
            )
        i_next = current.x_order
        if i_next <= i_prev:
            raise NotSimpleRootError(
                f"order sequence stabilized at k={k + 1}: the seed does not "
                "extend to a root"
            )
        if i_next == i_prev + 1:
            omega0 = current.coefficient(i_next, 1)
            if omega0:
                return BranchData(k0=k, i_k0=i_prev, omega0=omega0)
        i_prev = i_next
    if c.precision >= bound + 2:
        raise NotSimpleRootError(
            f"no index k <= {bound} with a unit order step: not a simple root"
        )
    raise PrecisionError(
        f"need {bound + 2} coefficients to rule out branch separation within the bound"
    )


def leaves_branch(P: BivarPoly, z, bd: BranchData) -> int | None:
    """Index m of the first coefficient of z = c_1..c_s off the branch of
    ``bd``, or None when z is the root's truncation.

    Newton's lemma: past k0, P(x, z_k + x^(k+1) y) has order i_k0 + k - k0
    and lowest coefficient omega0 (y - c_{k+1}), so with e = i_k0 - k0 - 1
    ord P(x, z) = m + e at the first wrong c_m, and exceeds s + e if none.
    Requires s >= k0 + 1, c_1..c_{k0+1} being the prefix ``bd`` came from.
    """
    e = bd.i_k0 - bd.k0 - 1
    order = uni_order(eval_at_poly(P, z, len(z) + e))
    return None if order is None else order - e


def _power_coefficient(seed, n: int, w: int):
    """Coefficient of x^w in (c_1 x + ... + c_s x^s)^n for seed = c_1..c_s,
    as the multinomial sum over the spreads of n with weight w (the integer
    0 when there is none).

    This expands no substitution, so the tables built from it stay an
    independent check of ``substitute_tail``.
    """
    total = 0
    for L in weighted_compositions(len(seed), n, w):
        term = multinomial(L)
        for c, t in zip(seed, L):
            if t:
                term *= c ** t
        total += term
    return total


def coefficient_after_branch(P: BivarPoly, c: TruncatedSeries, k0: int, i_k0: int,
                             omega0) -> Fraction:
    """The uniquely determined coefficient c_{k0+2}, by the closed
    multinomial sum over seed monomials of total degree j in c_1..c_{k0+1},
    scaled by -1/omega0."""
    if c.precision < k0 + 1:
        raise PrecisionError(f"need {k0 + 1} seed coefficients")
    w0 = _frac(omega0)
    if not w0:
        raise InputError("omega0 must be nonzero")
    seed = [c.coefficient(n) for n in range(1, k0 + 2)]
    total = Fraction(0)
    for (i, j), a in sorted(P.terms.items()):
        total += a * _power_coefficient(seed, j, i_k0 + 1 - i)
    return -total / w0


def henselize(P: BivarPoly, c: TruncatedSeries, k: int, *,
              branch: BranchData | None = None, last: int | None = None) -> HenselForm:
    """Reduce P at the prefix z_{k+1} to the tail's Henselian equation.

    Requires k + 1 seed coefficients, and k strictly past the
    branch-separation index of z_{k+1} = c_1..c_{k+1}, which is all of the
    seed that is read.  When z_{k+1} is an exact root of P that polynomial is
    returned instead of an equation.  Otherwise the table b_{l,m} of
    Q_k(x, y) = sum b_{l,m} x^l y^m is produced from the multinomial
    formula, with l running to (k+1)*dy + dx - i_k and m capped by
    min((l + i_k) / (k+1), dy).  Given ``last``, l stops there too: every
    term carries x^l with l >= 1 and the tail has no constant term, so the
    tail's first ``last`` coefficients read no term beyond x^last.

    ``branch`` is the caller's ``branch_data`` of the same root, for a
    z_{k+1} the caller has already checked with ``leaves_branch``; given
    it, neither the scan nor that check runs again.  The exact-root test
    and the requirement k0 < k hold either way.
    """
    _validate_inputs(P, c)
    if k < 1:
        raise InputError("k must be at least 1 (and beyond the branch index)")
    if c.precision < k + 1:
        raise PrecisionError(f"need {k + 1} seed coefficients, have {c.precision}")
    z = [c.coefficient(n) for n in range(1, k + 2)]
    if not eval_at_poly(P, z):
        return HenselForm(k=k, polynomial_root=tuple(z))
    bd = branch
    if bd is None:
        try:
            bd = branch_data(P, TruncatedSeries(z))
        except PrecisionError:  # the branch does not separate within z
            pass
    if bd is None or bd.k0 >= k:
        raise InputError(f"no branch separation at k <= {k - 1}")
    if branch is None:
        wrong = leaves_branch(P, z, bd)
        if wrong is not None:
            raise NotSimpleRootError(f"c_{wrong} does not continue the root")
    i_k = bd.i_k0 + (k - bd.k0)

    dx, dy = P.x_degree, P.y_degree
    support = sorted(P.terms.items())
    terms: dict[tuple[int, int], Fraction] = {}
    lmax = (k + 1) * dy + dx - i_k
    if last is not None:
        lmax = min(lmax, last)
    for l in range(1, lmax + 1):
        m_top = min((l + i_k) // (k + 1), dy)
        for m in range(0, m_top + 1):
            acc = 0
            for (i, j), a in support:
                if j >= m:
                    power = _power_coefficient(z, j - m, l + i_k - m * (k + 1) - i)
                    if power:
                        acc += a * comb(j, m) * power
            if acc:
                terms[(l, m)] = -acc / bd.omega0
    # the m = 0 terms are those of -P(x, z) / (omega0 x^i_k), nonzero past the
    # exact-root test, although a table cut at ``last`` may hold none of them
    eq = ReducedHenselEq(terms, pure_x_nonzero=True)
    return HenselForm(k=k, k0=bd.k0, i_k=i_k, omega0=bd.omega0, eq=eq)
