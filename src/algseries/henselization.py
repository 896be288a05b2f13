"""Order sequences, branch separation, and Hensel-form reduction.

For a polynomial P and a candidate root prefix c_1, c_2, ..., the order
i_k of P(x, z_k + x^(k+1) y) is strictly increasing exactly while the
prefix is consistent with a root, and for a simple root there is a least
index k0 past which it increases by exactly one.  From any k > k0 the
substitution y -> z_k + x^(k+1) (y + c_{k+1}) turns P into
-omega0 x^{i_k} (y - Q_k(x, y)) for a polynomial Q_k defining a reduced
Henselian equation satisfied by the root's tail; its coefficient table is
read here off powers of the seed polynomial, built by a plain convolution,
never by expanding the substitution, so the two can be checked against
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm
from typing import Iterator

from .bivar import BivarPoly, eval_at_poly, substitute_shift, uni_order
from .bivar import substitute_tail  # unused; bound because bench/tracing.py wraps it
from .errors import InputError, NotSimpleRootError, PrecisionError
from .flajolet_soria import ReducedHenselEq
from .series import TruncatedSeries, _frac


@dataclass(frozen=True)
class BranchData:
    """Branch-separation index with the order and the nonzero scalar at it."""

    k0: int
    i_k0: int
    omega0: Fraction


@dataclass(frozen=True)
class HenselForm:
    """The reduced Henselian equation y = Q_k(x, y) for the tail past
    z_{k+1}, with the branch index, the order i_k and omega0 it came from.
    When z_{k+1} is an exact root of P, Q_k(x, 0) = 0 and the tail is 0."""

    k: int
    k0: int
    i_k: int
    omega0: Fraction
    eq: ReducedHenselEq


def _validate_inputs(P: BivarPoly, c: TruncatedSeries) -> None:
    if P.is_zero:
        raise InputError("polynomial must be nonzero")
    if P.y_degree < 1:
        raise InputError("polynomial must involve y")
    if c.coefficient(0):
        raise InputError("seed series must have zero constant term")


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


def _seed_powers(seed, top: int, cut: int) -> tuple[int, list[list[int]]]:
    """(D, [N^0, .., N^top]) with z = c_1 x + ... + c_s x^s = N / D, each
    power dense through x^cut: [x^w] z^n = N^n[w] / D^n for 0 <= w <= cut.
    A plain convolution on integers, sharing no kernel with evaluation and
    Newton lifting."""
    D = lcm(*(c.denominator for c in seed))
    N = [c.numerator * (D // c.denominator) for c in seed]
    powers = [[1] + [0] * cut]
    for _ in range(top):
        out = [0] * (cut + 1)
        for u, p in enumerate(powers[-1][:cut]):
            if p:
                for v, c in enumerate(N[: cut - u], u + 1):
                    out[v] += p * c
        powers.append(out)
    return D, powers


def coefficient_after_branch(P: BivarPoly, c: TruncatedSeries, k0: int, i_k0: int,
                             omega0) -> Fraction:
    """The uniquely determined coefficient c_{k0+2}: -1/omega0 times the
    sum of a_ij [x^(i_k0+1-i)] z^j, z = c_1 x + ... + c_{k0+1} x^(k0+1)."""
    if c.precision < k0 + 1:
        raise PrecisionError(f"need {k0 + 1} seed coefficients")
    w0 = _frac(omega0)
    if not w0:
        raise InputError("omega0 must be nonzero")
    seed = [c.coefficient(n) for n in range(1, k0 + 2)]
    D, powers = _seed_powers(seed, P.y_degree, i_k0 + 1)
    return -sum(a * Fraction(powers[j][i_k0 + 1 - i], D ** j)
                for (i, j), a in P.terms.items() if i <= i_k0 + 1) / w0


def henselize(P: BivarPoly, c: TruncatedSeries, k: int, *,
              branch: BranchData | None = None, last: int | None = None) -> HenselForm:
    """Reduce P at the prefix z_{k+1} to the tail's Henselian equation.

    Requires k + 1 seed coefficients, and k strictly past the
    branch-separation index of z_{k+1} = c_1..c_{k+1}, which is all of the
    seed that is read.  The table b_{l,m} of Q_k(x, y) = sum b_{l,m} x^l y^m
    is -1/omega0 times sum a_ij C(j, m) [x^(l + i_k - m(k+1) - i)] z^(j-m),
    read off z^0..z^dy for z = z_{k+1}, with l running to
    (k+1)*dy + dx - i_k and m capped by min((l + i_k) / (k+1), dy).  Its
    m = 0 terms are those of -P(x, z_{k+1}) / (omega0 x^i_k), so an exact
    root z_{k+1} gets a table with none and the tail 0, like any other
    equation with Q(x, 0) = 0.  Given ``last``, l stops there too: every
    term carries x^l with l >= 1 and the tail has no constant term, so the
    tail's first ``last`` coefficients read no term beyond x^last.

    ``branch`` is the caller's ``branch_data`` of the same root, for a
    z_{k+1} the caller has already checked with ``leaves_branch``; given
    it, neither the scan nor that check runs again.  The requirement
    k0 < k holds either way.
    """
    _validate_inputs(P, c)
    if k < 1:
        raise InputError("k must be at least 1 (and beyond the branch index)")
    if c.precision < k + 1:
        raise PrecisionError(f"need {k + 1} seed coefficients, have {c.precision}")
    z = [c.coefficient(n) for n in range(1, k + 2)]
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
    lmax = (k + 1) * dy + dx - i_k
    if last is not None:
        lmax = min(lmax, last)
    # each b_{l,m} is summed on integers over A D^(dy-m), A clearing P
    D, powers = _seed_powers(z, dy, lmax + i_k)
    A = lcm(*(a.denominator for a in P.terms.values()))
    reads = [[(i + m * (k + 1) - i_k, powers[j - m],
               a.numerator * (A // a.denominator) * comb(j, m) * D ** (dy - j))
              for (i, j), a in P.terms.items() if j >= m] for m in range(dy + 1)]
    terms: dict[tuple[int, int], Fraction] = {}
    for l in range(1, lmax + 1):
        for m, row in enumerate(reads):
            acc = sum(scale * power[l - shift] for shift, power, scale in row if shift <= l)
            if acc:
                terms[(l, m)] = Fraction(-acc, A * D ** (dy - m)) / bd.omega0
    return HenselForm(k=k, k0=bd.k0, i_k=i_k, omega0=bd.omega0, eq=ReducedHenselEq(terms))
