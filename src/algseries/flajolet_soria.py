"""The Flajolet-Soria coefficient formula and the fully closed-form
coefficient expression for a simple algebraic root.

Given a reduced Henselian equation y = Q(x, y), the coefficients of its
unique power-series solution are constrained sums of multinomials in the
coefficients of Q.  Composing that formula with the Hensel-form reduction
of a vanishing polynomial P yields, for every tail index p, a closed-form
expression in the coefficients of P and an initial part c_1..c_{k+1} of
the root:

    c_{k+1+p} = sum_q (-1)^q / (q omega0^q)
                sum_S A^S sum_T e(S, T) c^T,

with q = |S|, |T| = yw(S) - q + 1, ||T|| = p + q i_k - (q-1)(k+1) - xw(S),
and e(S, T) the sum, over the assignments of each exponent s_{i,j} of S to
the slots of (i, j) (a y-exponent m and a seed spread L, ``_slots``) whose
spreads add up to T, of q!/prod(n!) times the slot multinomials.

The closed form is summed in this order:

- Outer, q = 1..count.  For each q one walk over the coefficient
  multi-exponents S, capped by the largest index of the request, serves
  every tail index p at once.
- At each S, one walk over the slot assignments.  An assignment's seed
  monomial is the product of its slots' monomials c^L, so the sum over T
  of e(S, T) c^T is the sum over assignments of that product: the T loop
  of the literal formula is fused away.  A slot carries (|L|, ||L||,
  base * c^L), and an assignment's total weight ||T|| names the p it
  serves, so one walk covers all of them.

Every term is a term of the literal closed form, and every term of it is
visited once; only the order of summation differs from the formula
(``e_coefficient`` still gives each e(S, T) on its own).  That is why this
is still the closed form and not the Hensel form: no slot family is summed
as a power of a generating polynomial.  Doing so would be the seed
substitution that ``henselize`` performs, and would fold this route into
the Flajolet-Soria one.  The walks take no coefficient from the Hensel
form or the series kernel, so the two routes stay independent evidence of
each other.

The slot walk places one copy of an item per node, an item's copies
taking its slots in non-decreasing order, so every assignment is visited
once and an item's multinomial e!/prod(n!) is built copy by copy;
q!/prod(e!) is applied once per S.  A branch stops as soon as it cannot end
inside the window [wlo, whi] of weights the request asks for.  Three
quantities only fall as slots are taken: the size left, whi - weight -
size left, and weight + (k+1) * size left - wlo (a unit of size weighs
1..k+1).  The walk stops at the first negative one.  Slot sizes never rise
along a slot list, so it also stops once the size left exceeds what the
remaining copies can still take, and the loop over candidate slots ends
there.

``fs_coefficient`` and ``fs_expand`` make one walk over the exponent
vectors of Q for a window of indices [first, last].  A vector needs the
balance y-weight - size = sum (m - 1) e to end at -1.  A term (l, m) with
l >= 1 moves it by (m - 1) / l per unit of x-weight, and a term with l = 0
(so m >= 2) can only raise it, so suffix minima and maxima of that rate
bound the balance the rest of the support can reach with the x-weight
left.  A child is pushed only when -1 is within those bounds, so every
leaf is a vector.

All enumerations run under a node budget and fail fast once it is
exhausted; the formulas are exponential and must stay interactive.  They
run from explicit stacks rather than by recursion, so a long seed or a
polynomial with many terms costs time and budget but never stack depth.
The walks count their nodes locally against the room the budget has left
and charge it when the count passes that room (which raises) and when a
walk ends.  ``weighted_compositions`` (the seed spreads of a given size
and weight) and ``multinomial`` are the one enumerator and the one
multinomial that the Hensel-form tables in ``henselization`` use as well.

The closed form has an exact integer kernel of its own, apart from the
series kernel, so neither expansion route borrows the other's arithmetic.
The seed c_1..c_{k+1} is cleared to integer numerators n_v over one
denominator D and the coefficients of P to numerators over one A.  A slot's
monomial is base * prod n_v^L_v over D^|L|, every assignment of one S has
the same |T|, and every S of one q shares A^q, so a Fraction is made only
per (p, q, |T|).  The Flajolet-Soria sums clear the coefficients of Q the
same way and make one Fraction per index n and size m.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from typing import Iterator, Mapping, Sequence

from .bivar import BivarPoly
from .errors import BudgetError, InputError
from .series import TruncatedSeries, _frac

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass
class EnumerationBudget:
    """Mutable node counter shared by the enumerations of one request."""

    limit: int = DEFAULT_NODE_BUDGET
    used: int = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetError(f"enumeration exceeded {self.limit} nodes")


def weighted_compositions(length: int, total: int, weight: int) -> Iterator[tuple[int, ...]]:
    """Vectors t of the given length with sum(t) = total and
    sum((v+1) * t[v]) = weight (positions weighted 1..length).

    Such a vector is a partition of ``weight`` into exactly ``total`` parts
    of size at most ``length`` (t[v] parts of size v+1).  The partitions are
    walked from the largest part list down, one successor at a time, so the
    work per vector is O(total + length) and nothing recurses.
    """
    if total < 0 or not total <= weight <= total * length:
        return
    parts = [0] * total

    def fill(start: int, rem: int, cap: int) -> None:
        # the lexicographically greatest non-increasing completion
        for pos in range(start, total):
            parts[pos] = min(cap, rem - (total - 1 - pos))
            rem -= parts[pos]

    fill(0, weight, length)
    while True:
        t = [0] * length
        for size in parts:
            t[size - 1] += 1
        yield tuple(t)
        # lower the rightmost part whose suffix can absorb one more unit
        rem = parts[-1] if parts else 0
        for pos in range(total - 2, -1, -1):
            if rem + 1 <= (total - 1 - pos) * (parts[pos] - 1):
                parts[pos] -= 1
                fill(pos + 1, rem + 1, parts[pos])
                break
            rem += parts[pos]
        else:
            return


def multinomial(L: Sequence[int]) -> int:
    """sum(L)! / prod(t!) over the entries t of L."""
    out = factorial(sum(L))
    for t in L:
        if t > 1:
            out //= factorial(t)
    return out


class ReducedHenselEq:
    """Equation y = Q(x, y) with Q(0,0) = dQ/dy(0,0) = 0.

    ``terms`` maps (l, m) to the coefficient of x^l y^m in Q.  When
    Q(x, 0) vanishes identically the unique solution is y = 0; that input
    is accepted with a warning rather than rejected.  ``pure_x_nonzero``
    states that Q(x, 0) does not vanish, for terms cut at some x^l that
    may hold none of its terms, and no warning is given.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping, *, pure_x_nonzero: bool = False):
        cleaned: dict[tuple[int, int], Fraction] = {}
        for key, value in terms.items():
            l, m = int(key[0]), int(key[1])
            if l < 0 or m < 0:
                raise InputError("exponents must be natural numbers")
            c = _frac(value)
            if c:
                cleaned[(l, m)] = c
        if (0, 0) in cleaned:
            raise InputError("reduced Henselian equation cannot have a constant term")
        if (0, 1) in cleaned:
            raise InputError("reduced Henselian equation cannot have a bare y term")
        if not pure_x_nonzero and not any(m == 0 for _, m in cleaned):
            warnings.warn("Q(x, 0) vanishes identically; the solution is y = 0")
        self._terms = cleaned

    @property
    def terms(self) -> dict[tuple[int, int], Fraction]:
        return dict(self._terms)

    @property
    def support(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._terms))

    @property
    def no_pure_x_powers(self) -> bool:
        """True when no term is free of x, enabling the m <= n outer bound."""
        return all(l >= 1 for l, _ in self._terms)

    def as_poly(self) -> BivarPoly:
        return BivarPoly(self._terms)

    def __eq__(self, other):
        if not isinstance(other, ReducedHenselEq):
            return NotImplemented
        return self._terms == other._terms

    def __repr__(self):
        return f"ReducedHenselEq({dict(sorted(self._terms.items()))!r})"


def _exponent_vectors(support: Sequence[tuple[int, int]], first: int, last: int,
                      size_cap: int, budget: EnumerationBudget
                      ) -> Iterator[tuple[tuple[tuple[int, int], ...], int, int]]:
    """(nonzero (support index, exponent) pairs, size, x-weight) of the
    exponent vectors over ``support`` with x-weight in [first, last],
    y-weight one less than the size, and size at most size_cap.

    A child is pushed only when the terms after it can still bring the
    balance y-weight - size to -1 (see the module docstring), so every leaf
    is a vector.  Nodes are counted locally against the room the budget has
    left; the count is charged when it passes that room (which raises),
    before each vector is yielded and when the walk ends, so
    ``budget.used`` is exact whenever the caller holds a vector.
    """
    end = len(support)
    # bounds[t]: the least and greatest balance rate (m - 1) / l over the
    # terms from t on with l >= 1, as (numerator, denominator) pairs, or
    # None when none is left; rises[t]: a term with l = 0 is left
    bounds: list = [None] * (end + 1)
    rises = [False] * (end + 1)
    rates = None
    for t in range(end - 1, -1, -1):
        l, m = support[t]
        rises[t] = rises[t + 1] or not l
        if l:
            r = Fraction(m - 1, l)
            rates = (min(r, rates[0]), max(r, rates[1])) if rates else (r, r)
            bounds[t] = tuple((f.numerator, f.denominator) for f in rates)
        else:
            bounds[t] = bounds[t + 1]

    def reach(t: int, xw: int, bal: int) -> bool:
        # can the terms from t on, with x-weight last - xw at most and
        # first - xw at least, move the balance by exactly -1 - bal?
        need, r_lo, r_hi = -1 - bal, max(0, first - xw), last - xw
        if bounds[t] is None:
            return not r_lo and (need == 0 or need > 0 and rises[t])
        (ln, ld), (hn, hd) = bounds[t]
        if ln * (r_hi if ln < 0 else r_lo) > need * ld:
            return False
        return rises[t] or hn * (r_hi if hn > 0 else r_lo) >= need * hd

    room = budget.limit - budget.used
    nodes = 0
    # depth-first from an explicit stack, children pushed in reverse so they
    # are visited in increasing exponent order; a frame is (support index,
    # x-weight, size, balance, the nonzero (index, exponent) pairs)
    stack = [(0, 0, 0, 0, ())] if reach(0, 0, 0) else []
    pop, push = stack.pop, stack.append
    while stack:
        idx, xw, size, bal, chosen = pop()
        nodes += 1
        if nodes > room:
            budget.spend(nodes)
        if idx == end:
            budget.spend(nodes)
            nodes = 0
            yield chosen, size, xw
            room = budget.limit - budget.used
            continue
        l, m = support[idx]
        nxt = idx + 1
        for e in range((last - xw) // l if l else size_cap - size, 0, -1):
            grown, moved = size + e, bal + (m - 1) * e
            # the y-weight grown + moved never falls, so it is capped too
            if grown <= size_cap and grown + moved < size_cap and reach(nxt, xw + l * e, moved):
                push((nxt, xw + l * e, grown, moved, chosen + ((idx, e),)))
        if reach(nxt, xw, bal):
            push((nxt, xw, size, bal, chosen))
    budget.spend(nodes)


def _fs_window(Q: ReducedHenselEq, first: int, last: int,
               budget: EnumerationBudget | None) -> list[Fraction]:
    """Coefficients of x^first..x^last in the solution of y = Q(x, y), from
    one walk over the exponent vectors of the whole window."""
    if budget is None:
        budget = EnumerationBudget()
    # every vector of x-weight at most ``last`` meets this size cap (see
    # fs_coefficient), so it bounds the walk without dropping any
    cap = last if Q.no_pure_x_powers else 2 * last - 1
    # the coefficients as integer numerators over one denominator D, so a
    # vector of size m contributes an integer over m * D^m
    support = Q.support
    coeffs = Q.terms
    D = lcm(*(v.denominator for v in coeffs.values()))
    nums = [coeffs[key].numerator * (D // coeffs[key].denominator) for key in support]
    sums: dict[tuple[int, int], int] = {}
    for chosen, size, n in _exponent_vectors(support, first, last, cap, budget):
        term = multinomial([e for _, e in chosen])
        for t, e in chosen:
            term *= nums[t] ** e
        sums[n, size] = sums.get((n, size), 0) + term
    out = [Fraction(0)] * (last - first + 1)
    for (n, m), acc in sums.items():
        out[n - first] += Fraction(acc, m * D ** m)
    return out


def fs_coefficient(Q: ReducedHenselEq, n: int, *,
                   budget: EnumerationBudget | None = None) -> Fraction:
    """Coefficient of x^n in the unique solution of y = Q(x, y).

    Sums (1/m) * m!/prod(k!) * prod(coeff^k) over all exponent vectors k
    with x-weight n and y-weight |k| - 1, the size m = |k| running up to
    2n - 1.  When no term of Q is free of x the size is at most the
    x-weight, so the bound tightens to m <= n; every Hensel form is such.
    """
    if n < 1:
        raise InputError("coefficient index must be at least 1")
    return _fs_window(Q, n, n, budget)[0]


def fs_expand(Q: ReducedHenselEq, precision: int, *,
              budget: EnumerationBudget | None = None) -> TruncatedSeries:
    """Solution of y = Q(x, y) modulo x^(precision+1), from one walk over
    the exponent vectors of every index 1..precision."""
    if precision < 1:
        raise InputError("precision must be at least 1")
    return TruncatedSeries(_fs_window(Q, 1, precision, budget), precision=precision, start=1)


# -- the closed form for the tail coefficients of a simple root


def _slots(i: int, j: int, k: int, i_k: int,
           last: int | None = None) -> list[tuple[int, tuple[int, ...], int]]:
    """Ways a factor a_{i,j} can enter a Hensel-form coefficient.

    Each slot is (m, L, base): a y-exponent m <= j, a spread L of j - m
    over the seed coefficients c_1..c_{k+1}, and the integer multinomial
    j!/(m! * L!).  The slot's x-level l = ||L|| + m(k+1) + i - i_k must be
    at least 1; the upper bound (k+1)*dy + dx - i_k and the per-level cap
    on m hold automatically.  Given ``last``, only slots with l <= last are
    kept: the levels of an assignment are at least 1 each and sum to its
    index p, so no slot above the largest requested index is ever used.
    """
    out = []
    for m in range(0, j + 1):
        top = (k + 1) * (j - m)
        if last is not None:
            top = min(top, last - m * (k + 1) - i + i_k)
        # the walks' pruning, and so their node counts, depend on this
        # order: m rising (so |L| falling), spreads lexicographic
        spreads = sorted(L for w in range(max(0, 1 - m * (k + 1) - i + i_k), top + 1)
                         for L in weighted_compositions(k + 1, j - m, w))
        out.extend((m, L, comb(j, m) * multinomial(L)) for L in spreads)
    return out


def e_coefficient(S: Mapping, T_S: Sequence[int], k: int, i_k: int,
                  dx: int, dy: int, *, budget: EnumerationBudget | None = None) -> int:
    """Integer weight of the seed monomial C^T_S inside the A^S term of the
    closed form, for a fixed coefficient multi-exponent S.

    Enumerates the assignments of each exponent s_{i,j} to the admissible
    Hensel-form slots of (i, j) whose spreads sum to T_S; every summand is
    the multinomial q!/prod(n!) times the product of slot multinomials, so
    the result is a natural number (0 for an empty enumeration).
    """
    if len(T_S) != k + 1:
        raise InputError(f"seed multi-exponent needs {k + 1} entries, got {len(T_S)}")
    if budget is None:
        budget = EnumerationBudget()
    items = []
    for key, s in sorted(S.items()):
        i, j = key
        if s < 0 or i < 0 or j < 0 or i > dx or j > dy:
            raise InputError(f"exponent assignment {key}: {s} outside bounds")
        if s:
            items.append((_slots(int(i), int(j), k, i_k), int(s)))
    return _e_walk(items, tuple(int(t) for t in T_S), budget)


def _e_walk(items: Sequence[tuple[Sequence[tuple[int, tuple[int, ...], int]], int]],
            T: tuple[int, ...], budget: EnumerationBudget) -> int:
    """``e_coefficient``'s walk over (slots, exponent) items, one budget
    node per frame, spreads as plain tuples."""
    if not items:
        return int(not any(T))
    if not all(slots for slots, _ in items):
        return 0
    fq = factorial(sum(s for _, s in items))
    last = len(items) - 1
    room = budget.limit - budget.used
    nodes = acc = 0
    # a node puts n copies of one slot's spread into the spread left to
    # cover; a frame is (item index, slot index, exponent left for the item,
    # spread left, prod n!, prod base^n), and an item's last slot takes all
    # that is left of its exponent
    stack = [(0, 0, items[0][1], T, 1, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        item, slot, left, remaining, denom, bases = pop()
        nodes += 1
        if nodes > room:
            budget.spend(nodes)
        slots = items[item][0]
        _m, L, base = slots[slot]
        if slot < len(slots) - 1:
            slot += 1
            push((item, slot, left, remaining, denom, bases))
            for n in range(1, left + 1):
                remaining = tuple(r - t for r, t in zip(remaining, L))
                if min(remaining) < 0:
                    break
                push((item, slot, left - n, remaining, denom * factorial(n), bases * base ** n))
            continue
        if left:
            remaining = tuple(r - left * t for r, t in zip(remaining, L))
            if min(remaining) < 0:
                continue
            denom *= factorial(left)
            bases *= base ** left
        if item < last:
            push((item + 1, 0, items[item + 1][1], remaining, denom, bases))
        elif not any(remaining):
            acc += fq // denom * bases
    budget.spend(nodes)
    return acc


def _slot_walk(exponents: Sequence[int], item_slots: Sequence[Sequence[tuple[int, int, int, int]]],
               size: int, rise: int, fall: int, budget: EnumerationBudget) -> dict[int, int]:
    """Sums of q!/prod(n!) * prod(value^n) over the assignments of the item
    exponents to their slots whose spreads have total size ``size`` and
    total weight in a window [wlo, whi], keyed by the rise left over.

    Item t has exponent exponents[t] >= 1 and a nonempty slot list
    item_slots[t] of (|L|, ||L|| - |L|, (k+1)|L| - ||L||, value), along
    which |L| never rises.  ``rise`` is whi - size and ``fall`` is
    (k+1) * size - wlo; a complete assignment has weight whi - (rise left).
    """
    last = len(exponents) - 1
    # rest[t]: the most size the items after t can take, from their first
    # (largest) slots
    rest = [0] * (last + 1)
    for t in range(last, 0, -1):
        rest[t - 1] = rest[t] + exponents[t] * item_slots[t][0][0]
    room = budget.limit - budget.used
    nodes = 0
    acc: dict[int, int] = {}
    # a node places one copy; a frame is (item index, slot of the item's
    # last copy, copies of the item left, copies in that slot, size, rise
    # and fall left, the items' e!/prod(n!) so far, prod value).  A copy is
    # pushed only while the size left fits in what the item's later copies
    # (slots no larger than its own) and the later items can still take,
    # so a complete assignment has no size left.
    stack = [(0, 0, exponents[0], 0, size, rise, fall, 1, 1)]
    pop, push = stack.pop, stack.append
    while stack:
        item, slot, left, run, size, rise, fall, mult, prod = pop()
        nodes += 1
        if nodes > room:
            budget.spend(nodes)
        if not left:
            if item == last:
                acc[rise] = acc.get(rise, 0) + mult * prod
                continue
            item, slot, run = item + 1, 0, 0
            left = exponents[item]
        copy = exponents[item] - left + 1
        after = rest[item]
        slots = item_slots[item]
        for t in range(slot, len(slots)):
            s, r, f, value = slots[t]
            if size > left * s + after:
                break
            if size < s or rise < r or fall < f:
                continue
            same = run + 1 if t == slot else 1
            push((item, t, left - 1, same, size - s, rise - r, fall - f,
                  mult * copy // same, prod * value))
    budget.spend(nodes)
    fq = multinomial(exponents)  # q!/prod(e!), once per S
    return {r: fq * v for r, v in acc.items()}


def _closed_form(P: BivarPoly, c: Sequence, k: int, i_k: int, omega0,
                 first: int, last: int, budget: EnumerationBudget | None) -> list[Fraction]:
    """c_{k+1+p} for p = first..last in one walk (see the module docstring)."""
    if k < 1:
        raise InputError("k must be at least 1")
    if len(c) < k + 1:
        raise InputError(f"need {k + 1} seed coefficients, got {len(c)}")
    w0 = _frac(omega0)
    if not w0:
        raise InputError("omega0 must be nonzero")
    if budget is None:
        budget = EnumerationBudget()
    seed = [_frac(v) for v in c[: k + 1]]
    support = sorted(P.terms.items())
    # the seed and the coefficients of P as integer numerators over one
    # denominator each, D and A
    D = lcm(*(v.denominator for v in seed))
    nums = [v.numerator * (D // v.denominator) for v in seed]
    A = lcm(*(a.denominator for _, a in support))
    # per term of P: i, j, its numerator over A, and its slots as
    # (|L|, ||L|| - |L|, (k+1)|L| - ||L||, base * prod n_v^L_v)
    usable: list[tuple[int, int, int, list[tuple[int, int, int, int]]]] = []
    for (i, j), a in support:
        slots = _slots(i, j, k, i_k, last)
        budget.spend(len(slots) + 1)
        table = []
        for _m, L, value in slots:
            size = weight = 0
            for v, t in enumerate(L):
                if t:
                    size += t
                    weight += (v + 1) * t
                    value *= nums[v] ** t
            table.append((size, weight - size, (k + 1) * size - weight, value))
        usable.append((i, j, a.numerator * (A // a.denominator), table))
    terms = len(usable)

    # (p, q, |T|) -> integer numerator over q * A^q * D^|T|
    sums: dict[tuple[int, int, int], int] = {}
    for q in range(1, last + 1):
        # p_star = p + shift is the weighted size ||T|| + xw(S) for index p
        shift = q * i_k - (q - 1) * (k + 1)
        hi_star = last + shift
        if hi_star < 0:
            continue
        lo_star = max(first, q) + shift
        # |T| = yw(S) - q + 1 <= ||T|| <= hi_star - xw(S) bounds xw + yw
        cap = hi_star + q - 1
        room = budget.limit - budget.used
        nodes = 0
        # frames (term index, |S| left, x-weight, y-weight, nonzero (index, s) pairs)
        stack = [(0, q, 0, 0, ())]
        pop, push = stack.pop, stack.append
        while stack:
            idx, left, s1, s2, chosen = pop()
            nodes += 1
            if nodes > room:
                budget.spend(nodes)
            if idx < terms:
                i, j, _num, slots = usable[idx]
                top = left if slots else 0
                if i and (hi_star - s1) // i < top:
                    top = (hi_star - s1) // i
                if i + j and (cap - s1 - s2) // (i + j) < top:
                    top = (cap - s1 - s2) // (i + j)
                for e in range(top, 0, -1):
                    push((idx + 1, left - e, s1 + i * e, s2 + j * e, chosen + ((idx, e),)))
                push((idx + 1, left, s1, s2, chosen))
                continue
            if left or s2 < q - 1:
                continue
            # |T| is fixed by S, and ||T|| = p_star - xw(S) names the index p
            tot = s2 - q + 1
            whi = min(hi_star - s1, (k + 1) * tot)
            wlo = max(lo_star - s1, tot)
            if wlo > whi:
                continue
            # the slot walk charges the budget itself
            budget.spend(nodes)
            nodes = 0
            by_rise = _slot_walk([e for _, e in chosen], [usable[t][3] for t, _ in chosen],
                                 tot, whi - tot, (k + 1) * tot - wlo, budget)
            room = budget.limit - budget.used
            if by_rise:
                coeff = 1
                for t, e in chosen:
                    coeff *= usable[t][2] ** e
                for rise, value in by_rise.items():
                    key = (whi - rise + s1 - shift, q, tot)
                    sums[key] = sums.get(key, 0) + coeff * value
        budget.spend(nodes)
    # every seed monomial of one |T| shares the denominator D^|T|, and every
    # coefficient monomial of one q the denominator A^q
    out = [Fraction(0)] * (last - first + 1)
    for (p, q, tot), value in sums.items():
        out[p - first] += Fraction(-value if q % 2 else value, q * A ** q * D ** tot) / w0 ** q
    return out


def closed_form_coefficients(P: BivarPoly, c: Sequence, k: int, i_k: int, omega0,
                             count: int, *,
                             budget: EnumerationBudget | None = None) -> list[Fraction]:
    """Tail coefficients c_{k+2}..c_{k+1+count} of the simple root of P with
    initial part c_1..c_{k+1}, computed literally from the closed form in
    one walk over the coefficient multi-exponents S and slot assignments.

    Requires k at least one past the branch-separation index; ``i_k`` and
    ``omega0`` are the Hensel-form data of the same root.  Each value equals
    ``closed_form_coefficient`` at its index.
    """
    if count < 1:
        raise InputError("count must be at least 1")
    return _closed_form(P, c, k, i_k, omega0, 1, count, budget)


def closed_form_coefficient(P: BivarPoly, c: Sequence, k: int, i_k: int,
                            omega0, p: int, *,
                            budget: EnumerationBudget | None = None) -> Fraction:
    """Tail coefficient c_{k+1+p} of the simple root of P with initial part
    c_1..c_{k+1}, computed literally from the closed form.

    Outer sum over q = 1..p weighted by (1/q)(-1/omega0)^q; middle sum over
    coefficient multi-exponents S of P with |S| = q and y-weight at least
    q - 1; inner sum over seed multi-exponents T with |T| = yw(S) - q + 1
    and weighted size p + q*i_k - (q-1)(k+1) - xw(S), each weighted by the
    integer ``e_coefficient``.  The inner two sums run as one walk over
    slot assignments.  Requires k at least one past the branch-separation
    index; ``i_k`` and ``omega0`` are the Hensel-form data of the same
    root.  An empty enumeration contributes 0.
    """
    if p < 1:
        raise InputError("tail index must be at least 1")
    return _closed_form(P, c, k, i_k, omega0, p, p, budget)[0]
