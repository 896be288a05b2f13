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
the slots of (i, j) (a y-exponent m and a seed spread L, held as its seed
positions, ``_slots``) whose spreads add up to T, of q!/prod(n!) times the
slot multinomials.

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

Every term is a term of the literal closed form, and every nonzero term
of it is visited once: a slot whose spread reaches a zero seed coefficient
has the value 0 and is left out of the walk.  Only the order of summation
differs from the formula.  That is why this is still the closed form and
not the Hensel form: no slot family is summed as a power of a generating
polynomial.  Doing so would be the seed substitution that ``henselize``
performs, and would fold this route into the Flajolet-Soria one.  The
walks take no coefficient from the Hensel form or the series kernel, so
the two routes stay independent evidence of each other.

``e_coefficient`` gives each e(S, T) on its own, as q!/prod(s!) times the
coefficient of c^T in the product over the items of S of their slot sums
(sum over slots of base * c^L)^s, each product cut to the monomials at
most T entry by entry.  It is a weight for one T, with no seed values in
it, and no route calls it.

The slot walk places one copy of an item per node, an item's copies
taking its slots in non-decreasing order, so every assignment is visited
once and an item's multinomial e!/prod(n!) is built copy by copy;
q!/prod(e!) is applied once per S.  The nodes that place the last copy
of the last item are the leaves: their parent finishes them in its own
loop over slots, without a frame each, and counts each one as a node.
The walk over S does the same with the last term's children, which are
all leaves: it pushes only the one that can use up |S| and counts the
others without pushing them.  A branch stops as soon as it cannot end
inside the window [wlo, whi] of weights the request asks for.  Three
quantities only fall as slots are taken: the size left, whi - weight -
size left, and weight + (k+1) * size left - wlo (a unit of size weighs
1..k+1).  The walk stops at the first negative one.  Slot sizes never rise
along a slot list, so it also stops once the size left exceeds what the
remaining copies can still take, and the loop over candidate slots ends
there.

``fs_coefficient`` and ``fs_expand`` apply Flajolet-Soria's formula
c_n = sum_m (1/m) [x^n y^(m-1)] Q^m to a window of indices [first, last]
in one loop over the powers of Q, each the last one times Q.  An entry
x^u y^v of Q^m is kept only if u <= last and u + v < last + m, and the
cut is exact: an entry of Q^M at x^n y^(M-1) has balance v - (number of
factors) = -1, only the x-only terms (l, 0) lower the balance, by one
each and with l >= 1, so from x^u y^v in Q^m it can fall by at most
last - u.  Every term but (1, 0) raises u + v - m by at least one and
(1, 0) raises u, both capped by last, so the powers run empty and the
loop ends.

All routes run under one budget and fail fast once it is exhausted; the
closed form is exponential and must stay interactive.  Its walks run from
explicit stacks rather than by recursion, so a long seed or a polynomial
with many terms costs time and budget but never stack depth.  The closed
form's walks count their nodes locally, a leaf finished or skipped in its
parent's loop too, against the room the budget has left, and charge it
when the count passes that room (which raises, at the room plus one) and
when a walk ends.  The Flajolet-Soria loop charges len(Q^m) times the number
of terms it multiplies by (those with l + m <= last) before each product,
and ``e_coefficient`` charges the number of monomials kept times the
number of slots before each product by a slot sum: term products, not
walk nodes, the most that step can make, so its time and memory stay
under the budget too.  ``_slots`` (a slot table, each spread walked as
the multiset of its seed positions) and ``multinomial`` serve the closed
form alone.

The closed form has an exact integer kernel of its own, apart from the
series kernel, so neither expansion route borrows the other's arithmetic.
The seed c_1..c_{k+1} is cleared to integer numerators n_v over one
denominator D and the coefficients of P to numerators over one A.  A slot's
monomial is base * prod n_v over its positions v, over D^|L|, every
assignment of one S has the same |T|, and every S of one q shares A^q, so
the walks sum integers per (p, q, |T|).  With omega0 = wn/wd, each such
sum is lifted to the one denominator lcm(1..Q) (A wn)^Q D^T of the
largest q and |T|, and one Fraction is made per index.  The Flajolet-Soria
sums clear the coefficients of Q the same way and make one Fraction per
index n and size m.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, lcm
from operator import add, le
from typing import Mapping, Sequence

from .bivar import BivarPoly
from .errors import BudgetError, InputError
from .series import TruncatedSeries, _frac

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass
class EnumerationBudget:
    """Mutable work counter shared by the routes of one request: one unit
    per node of a closed-form walk, and one per term product the
    Flajolet-Soria loop or ``e_coefficient`` may make."""

    limit: int = DEFAULT_NODE_BUDGET
    used: int = 0

    def spend(self, n: int = 1) -> None:
        self.used += n
        if self.used > self.limit:
            raise BudgetError(f"enumeration exceeded {self.limit} units")


def multinomial(L: Sequence[int]) -> int:
    """sum(L)! / prod(t!) over the entries t of L."""
    out = factorial(sum(L))
    for t in L:
        if t > 1:
            out //= factorial(t)
    return out


class ReducedHenselEq(BivarPoly):
    """Equation y = Q(x, y) with Q(0,0) = dQ/dy(0,0) = 0, held as the
    polynomial Q itself.

    ``terms`` maps (l, m) to the coefficient of x^l y^m in Q.  When
    Q(x, 0) vanishes identically the unique solution is y = 0.
    """

    __slots__ = ()

    def __init__(self, terms: Mapping):
        super().__init__(terms)
        if (0, 0) in self._terms:
            raise InputError("reduced Henselian equation cannot have a constant term")
        if (0, 1) in self._terms:
            raise InputError("reduced Henselian equation cannot have a bare y term")


def _fs_window(Q: ReducedHenselEq, first: int, last: int,
               budget: EnumerationBudget | None) -> list[Fraction]:
    """Coefficients of x^first..x^last in the solution of y = Q(x, y), the
    sums over m of [x^n y^(m-1)] Q^m / m, from one loop over the powers of
    Q cut to the window (see the module docstring)."""
    if budget is None:
        budget = EnumerationBudget()
    # a term with l + m > last puts x + y - (number of factors) at last or
    # past it in every product it enters, so it never reaches the window
    coeffs = {key: v for key, v in Q.terms.items() if sum(key) <= last}
    # the coefficients as integer numerators over one denominator D, so
    # [x^n y^(m-1)] Q^m is an integer over D^m
    D = lcm(*(v.denominator for v in coeffs.values()))
    terms = [(l, m, v.numerator * (D // v.denominator)) for (l, m), v in sorted(coeffs.items())]
    out = [Fraction(0)] * (last - first + 1)
    power = {(0, 0): 1}
    m = 0
    while power:
        budget.spend(len(power) * len(terms))
        m += 1
        cap = last + m
        grown: dict[tuple[int, int], int] = {}
        for (x, y), a in power.items():
            for l, j, b in terms:
                u = x + l
                if u > last:
                    break  # the terms are sorted by l
                v = y + j
                if u + v < cap:
                    grown[u, v] = grown.get((u, v), 0) + a * b
        power = grown
        scale = m * D ** m
        for (x, y), a in power.items():
            if y == m - 1 and x >= first:
                out[x - first] += Fraction(a, scale)
    return out


def fs_coefficient(Q: ReducedHenselEq, n: int, *,
                   budget: EnumerationBudget | None = None) -> Fraction:
    """Coefficient of x^n in the unique solution of y = Q(x, y).

    Sums (1/m) [x^n y^(m-1)] Q^m over m, the powers of Q cut to what can
    still reach x^n y^(m-1).  Charges ``budget`` len(Q^m) times the
    number of terms of Q with l + m <= n before each product by Q.
    """
    if n < 1:
        raise InputError("coefficient index must be at least 1")
    return _fs_window(Q, n, n, budget)[0]


def fs_expand(Q: ReducedHenselEq, precision: int, *,
              budget: EnumerationBudget | None = None) -> TruncatedSeries:
    """Solution of y = Q(x, y) modulo x^(precision+1), from one loop over
    the powers of Q that serves every index 1..precision; charges
    ``budget`` as ``fs_coefficient`` does."""
    if precision < 1:
        raise InputError("precision must be at least 1")
    return TruncatedSeries(_fs_window(Q, 1, precision, budget), precision=precision, start=1)


# -- the closed form for the tail coefficients of a simple root


def _slots(i: int, j: int, k: int, i_k: int,
           last: int | None = None) -> list[tuple[int, tuple[int, ...], int]]:
    """Ways a factor a_{i,j} can enter a Hensel-form coefficient.

    Each slot is (m, ps, base): a y-exponent m <= j, a spread L of j - m
    over the seed coefficients c_1..c_{k+1} held as its seed positions
    ps = (p_1 <= .. <= p_(j-m)), L_v of them equal to v, and the integer
    multinomial j!/(m! * L!).  The slot's x-level l = sum(ps) + m(k+1) +
    i - i_k must be at least 1; the upper bound (k+1)*dy + dx - i_k and the
    per-level cap on m hold automatically.  Given ``last``, only slots with
    l <= last are kept: the levels of an assignment are at least 1 each and
    sum to its index p, so no slot above the largest requested index is
    ever used.

    For each m one walk builds ps, cut to the window [lo, hi] of weights
    with levels 1..last, and base along it: C(j, m) (j-m)!, divided by the
    run count of each copy pushed (every step divides exactly).  The lowest
    next position is pushed first, so the highest pops first; a higher
    position at the first difference means fewer copies of a lower one, so
    the spreads come out in lexicographic order of L.  The closed form's
    walks prune along the slot lists, so their node counts depend on this
    order: m rising (so |L| falling), then L lexicographic.
    """
    out = []
    for m in range(j + 1):
        n = j - m
        lo = 1 - m * (k + 1) - i + i_k
        hi = (k + 1) * n
        if last is not None:
            hi = min(hi, last - m * (k + 1) - i + i_k)
        # frames (positions so far, their weight, copies of the last
        # position, base so far)
        stack = [((), 0, 0, comb(j, m) * factorial(n))]
        while stack:
            ps, w, run, base = stack.pop()
            left = n - len(ps)
            if not left:
                if lo <= w <= hi:
                    out.append((m, ps, base))
                continue
            top = ps[-1] if ps else 1
            # the next position v keeps the lightest completion (v repeated)
            # at most hi and the heaviest (k + 1 after v) at least lo
            for v in range(max(top, lo - w - (left - 1) * (k + 1)),
                           min(k + 1, (hi - w) // left) + 1):
                same = run + 1 if v == top else 1
                stack.append((ps + (v,), w + v, same, base // same))
    return out


def e_coefficient(S: Mapping, T_S: Sequence[int], k: int, i_k: int,
                  dx: int, dy: int, *, budget: EnumerationBudget | None = None) -> int:
    """Integer weight of the seed monomial C^T_S inside the A^S term of the
    closed form, for a fixed coefficient multi-exponent S.

    The sum, over the assignments of each exponent s_{i,j} to the
    admissible Hensel-form slots of (i, j) whose spreads add up to T_S, of
    q!/prod(n!) times the product of slot multinomials: a natural number
    (0 for an empty sum), read off as a coefficient by ``_e_expand``.
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
            items.append(([(m, tuple(map(ps.count, range(1, k + 2))), base)
                           for m, ps, base in _slots(int(i), int(j), k, i_k)], int(s)))
    return _e_expand(items, tuple(int(t) for t in T_S), budget)


def _e_expand(items: Sequence[tuple[Sequence[tuple[int, tuple[int, ...], int]], int]],
              T: tuple[int, ...], budget: EnumerationBudget) -> int:
    """q!/prod(s!) times the coefficient of C^T in the product over the
    (slots, s) items of (sum over the slots (m, L, base) of base * C^L)^s.

    That power counts each assignment of an item's s copies to its slots
    s!/prod(n!) times, so this is the sum over assignments of q!/prod(n!)
    times the bases.  Each product keeps only the monomials at most T entry
    by entry, and first charges ``budget`` len(acc) times the number of
    slots, the most term products it can make.
    """
    acc = {(0,) * len(T): 1}
    q, denom = 0, 1
    for slots, s in items:
        q += s
        denom *= factorial(s)
        for _ in range(s):
            budget.spend(len(acc) * len(slots))
            grown: dict[tuple[int, ...], int] = {}
            for mono, a in acc.items():
                for _m, L, base in slots:
                    key = tuple(map(add, mono, L))
                    if all(map(le, key, T)):
                        grown[key] = grown.get(key, 0) + a * base
            acc = grown
    return factorial(q) // denom * acc.get(T, 0)


def _slot_walk(exponents: Sequence[int], item_slots: Sequence[Sequence[tuple[int, int, int, int]]],
               size: int, rise: int, fall: int, budget: EnumerationBudget) -> dict[int, int]:
    """Sums of q!/prod(n!) * prod(value^n) over the assignments of the item
    exponents to their slots whose spreads have total size ``size`` and
    total weight in a window [wlo, whi], keyed by the rise left over.

    Item t has exponent exponents[t] >= 1 and a nonempty slot list
    item_slots[t] of (|L|, ||L|| - |L|, (k+1)|L| - ||L||, value), along
    which |L| never rises.  ``rise`` is whi - size and ``fall`` is
    (k+1) * size - wlo; a complete assignment has weight whi - (rise left).

    A node places one copy.  The node that places the last copy of the
    last item completes an assignment, so the node before it adds each
    fitting slot's term to the sums in its own loop, with no frame, and
    charges it one unit, as if it had been pushed and popped.
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
    # placed only while the size left fits in what the item's later copies
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
            item, slot, run = item + 1, 0, 0
            left = exponents[item]
        copy = exponents[item] - left + 1
        slots = item_slots[item]
        if item == last and left == 1:
            # the last copy: each slot of exactly the size left completes
            # an assignment, a leaf node finished here and charged one unit
            for t in range(slot, len(slots)):
                s, r, f, value = slots[t]
                if size > s:
                    break
                if size < s or rise < r or fall < f:
                    continue
                nodes += 1
                if nodes > room:
                    budget.spend(nodes)
                key = rise - r
                acc[key] = acc.get(key, 0) + mult * copy // (run + 1 if t == slot else 1) * prod * value
            continue
        after = rest[item]
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
    """c_{k+1+p} for p = first..last in one walk (see the module docstring).

    The walk over S pushes, of the last term's children, only the one with
    e = |S| left, the only one that can complete S; it counts the others,
    a unit each, against the room the budget has left.  Integer sums per
    (p, q, |T|) go over one common denominator, and each index gets one
    Fraction.
    """
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
    # per term of P: i, j, its numerator over A, and its slots of nonzero
    # value as (|L|, ||L|| - |L|, (k+1)|L| - ||L||, base * prod n_v^L_v),
    # read off the seed positions ps: |L| = len(ps), ||L|| = sum(ps)
    usable: list[tuple[int, int, int, list[tuple[int, int, int, int]]]] = []
    for (i, j), a in support:
        slots = _slots(i, j, k, i_k, last)
        budget.spend(len(slots) + 1)
        table = []
        for _m, ps, value in slots:
            for v in ps:
                value *= nums[v - 1]
            if value:
                size, weight = len(ps), sum(ps)
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
                if idx + 1 == terms:
                    # the children e = top..0 are leaves, and only e = left
                    # can end with nothing left: the others are counted, a
                    # unit each, but not pushed
                    if left <= top:
                        push((terms, 0, s1 + i * left, s2 + j * left,
                              chosen + ((idx, left),) if left else chosen))
                        nodes += top
                    else:
                        nodes += top + 1
                    if nodes > room:
                        budget.spend(room + 1)
                    continue
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
    # coefficient monomial of one q the denominator A^q.  With w0 = wn/wd
    # the term (-1)^q value / (q A^q D^|T| w0^q) goes over the common
    # denominator lcm(1..Q) (A wn)^Q D^T of the largest q and |T|
    wn, wd = w0.numerator, w0.denominator
    Q = max((q for _, q, _ in sums), default=0)
    T = max((tot for _, _, tot in sums), default=0)
    lcm_q = lcm(*range(1, Q + 1))
    scale = [0] + [(-wd) ** q * (lcm_q // q) * (A * wn) ** (Q - q) for q in range(1, Q + 1)]
    lift = [D ** (T - tot) for tot in range(T + 1)]
    out = [0] * (last - first + 1)
    for (p, q, tot), value in sums.items():
        out[p - first] += value * scale[q] * lift[tot]
    den = lcm_q * (A * wn) ** Q * D ** T
    return [Fraction(n, den) for n in out]


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
