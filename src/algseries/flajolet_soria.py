"""The Flajolet-Soria coefficient formula and the fully closed-form
coefficient expression for a simple algebraic root.

Given a reduced Henselian equation y = Q(x, y), the coefficients of its
unique power-series solution are constrained sums of multinomials in the
coefficients of Q.  Composing that formula with the Hensel-form reduction
of a vanishing polynomial P yields, for every tail index, a closed-form
expression in the coefficients of P and an initial part of the root.  The
closed form is implemented literally (outer sum over coefficient
multi-exponents S, inner sum over seed multi-exponents T, innermost
integer weights) and never reuses the Hensel-form coefficients, so the two
routes stay independent evidence of each other.

All enumerations run under a node budget and fail fast once it is
exhausted; the formulas are exponential and must stay interactive.  They
run from explicit stacks rather than by recursion, so a long seed or a
polynomial with many terms costs time and budget but never stack depth.
``weighted_compositions`` (the seed spreads of a given size and weight)
and ``multinomial`` are the one enumerator and the one multinomial that
the Hensel-form tables in ``henselization`` use as well.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from operator import sub
from typing import Iterator, Mapping, Sequence

from .bivar import BivarPoly
from .errors import InputError
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
            from .errors import BudgetError

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
    is accepted with a warning rather than rejected.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping):
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
        if not any(m == 0 for _, m in cleaned):
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


@dataclass(frozen=True)
class CompositionVector:
    """Exponent assignment over the support of an equation, with its size
    and the two weighted norms cached."""

    exponents: tuple[tuple[tuple[int, int], int], ...]
    size: int
    x_weight: int
    y_weight: int


def compositions(Q: ReducedHenselEq, n: int, size_cap: int,
                 budget: EnumerationBudget) -> Iterator[CompositionVector]:
    """Exponent vectors over the support of Q with x-weight exactly n,
    y-weight one less than the size, and size at most size_cap."""
    support = Q.support
    # depth-first from an explicit stack, children pushed in reverse so they
    # are visited in increasing exponent order; a frame is (support index,
    # x-weight left, size, y-weight, the nonzero (index, exponent) pairs)
    stack = [(0, n, 0, 0, ())]
    while stack:
        idx, rem_n, size, y_weight, chosen = stack.pop()
        budget.spend()
        if size > size_cap or y_weight > size_cap - 1:
            continue
        if idx == len(support):
            if rem_n == 0 and size >= 1 and y_weight == size - 1:
                yield CompositionVector(tuple((support[t], e) for t, e in chosen),
                                        size, n, y_weight)
            continue
        l, m = support[idx]
        top = rem_n // l if l > 0 else size_cap - size
        for e in range(top, 0, -1):
            stack.append((idx + 1, rem_n - l * e, size + e, y_weight + m * e,
                          chosen + ((idx, e),)))
        stack.append((idx + 1, rem_n, size, y_weight, chosen))


def fs_coefficient(Q: ReducedHenselEq, n: int, *, apply_support_cap: bool = False,
                   budget: EnumerationBudget | None = None) -> Fraction:
    """Coefficient of x^n in the unique solution of y = Q(x, y).

    Sums (1/m) * m!/prod(k!) * prod(coeff^k) over all exponent vectors k
    with x-weight n and y-weight |k| - 1, the size m = |k| running up to
    2n - 1.  With ``apply_support_cap`` the outer bound tightens to m <= n,
    which is valid exactly when no term of Q is free of x; the flag is
    ignored otherwise.
    """
    if n < 1:
        raise InputError("coefficient index must be at least 1")
    if budget is None:
        budget = EnumerationBudget()
    cap = n if (apply_support_cap and Q.no_pure_x_powers) else 2 * n - 1
    coeffs = Q.terms
    total = Fraction(0)
    for vec in compositions(Q, n, cap, budget):
        prod = Fraction(multinomial([e for _, e in vec.exponents]), vec.size)
        for key, e in vec.exponents:
            prod *= coeffs[key] ** e
        total += prod
    return total


def fs_expand(Q: ReducedHenselEq, precision: int, *,
              budget: EnumerationBudget | None = None) -> TruncatedSeries:
    """Solution of y = Q(x, y) modulo x^(precision+1)."""
    if precision < 1:
        raise InputError("precision must be at least 1")
    if budget is None:
        budget = EnumerationBudget()
    coeffs = [fs_coefficient(Q, n, budget=budget) for n in range(1, precision + 1)]
    return TruncatedSeries(coeffs, precision=precision, start=1)


# -- the closed form for the tail coefficients of a simple root


def _slots(i: int, j: int, k: int, i_k: int) -> list[tuple[int, tuple[int, ...], int]]:
    """Ways a factor a_{i,j} can enter a Hensel-form coefficient.

    Each slot is (m, L, base): a y-exponent m <= j, a spread L of j - m
    over the seed coefficients c_1..c_{k+1}, and the integer multinomial
    j!/(m! * L!).  The slot's x-level l = ||L|| + m(k+1) + i - i_k must be
    at least 1; the upper bound (k+1)*dy + dx - i_k and the per-level cap
    on m hold automatically.
    """
    out = []
    for m in range(0, j + 1):
        # lexicographic spread order keeps the slot order, on which the
        # pruning of _e_from_slots (and so its node count) depends
        spreads = sorted(L for w in range(max(0, 1 - m * (k + 1) - i + i_k),
                                          (k + 1) * (j - m) + 1)
                         for L in weighted_compositions(k + 1, j - m, w))
        out.extend((m, L, comb(j, m) * multinomial(L)) for L in spreads)
    return out


def _e_from_slots(items, slot_table, T_S: tuple[int, ...], budget: EnumerationBudget) -> int:
    """Sum of q!/prod(n!) * prod(base^n) over all assignments of the item
    exponents to their slots whose seed spreads add up to exactly T_S."""
    if not items:
        return int(not any(T_S))
    item_slots = [slot_table[key] for key, _ in items]
    for (_, s), slots in zip(items, item_slots):
        if s and not slots:
            return 0
    fq = factorial(sum(s for _, s in items))
    acc = 0
    # a node puts n copies of one slot's spread into the spread left to
    # cover; a frame is (item index, slot index, exponent left for the item,
    # spread left, prod n!, prod base^n), and an item's last slot takes all
    # that is left of its exponent
    stack = [(0, 0, items[0][1], tuple(T_S), 1, 1)]
    while stack:
        item_idx, slot_idx, left, remaining, denom, bases = stack.pop()
        budget.spend()
        slots = item_slots[item_idx]
        _m, L, base = slots[slot_idx]
        if slot_idx < len(slots) - 1:
            for n in range(left + 1):
                if n:
                    remaining = tuple(map(sub, remaining, L))
                    if min(remaining) < 0:
                        break
                stack.append((item_idx, slot_idx + 1, left - n, remaining,
                              denom * factorial(n), bases * base ** n))
            continue
        if left:
            remaining = tuple(map(sub, remaining, [left * t for t in L]))
            if min(remaining) < 0:
                continue
        denom *= factorial(left)
        bases *= base ** left
        if item_idx + 1 < len(items):
            stack.append((item_idx + 1, 0, items[item_idx + 1][1], remaining, denom, bases))
        elif not any(remaining):
            acc += fq // denom * bases
    return acc


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
            items.append(((int(i), int(j)), int(s)))
    slot_table = {key: _slots(key[0], key[1], k, i_k) for key, _ in items}
    return _e_from_slots(items, slot_table, tuple(int(t) for t in T_S), budget)


def closed_form_coefficient(P: BivarPoly, c: Sequence, k: int, i_k: int,
                            omega0, p: int, *,
                            budget: EnumerationBudget | None = None) -> Fraction:
    """Tail coefficient c_{k+1+p} of the simple root of P with initial part
    c_1..c_{k+1}, computed literally from the closed form.

    Outer sum over q = 1..p weighted by (1/q)(-1/omega0)^q; middle sum over
    coefficient multi-exponents S of P with |S| = q and y-weight at least
    q - 1; inner sum over seed multi-exponents T with |T| = yw(S) - q + 1
    and weighted size p + q*i_k - (q-1)(k+1) - xw(S); innermost the integer
    weights of ``e_coefficient``.  Requires k at least one past the
    branch-separation index; ``i_k`` and ``omega0`` are the Hensel-form
    data of the same root.  An empty enumeration contributes 0.
    """
    if p < 1:
        raise InputError("tail index must be at least 1")
    if k < 1:
        raise InputError("k must be at least 1")
    if len(c) < k + 1:
        raise InputError(f"need {k + 1} seed coefficients, got {len(c)}")
    w0 = _frac(omega0)
    if not w0:
        raise InputError("omega0 must be nonzero")
    if budget is None:
        budget = EnumerationBudget()
    seed = tuple(_frac(v) for v in c[: k + 1])
    support = sorted(P.terms.items())
    slot_table: dict[tuple[int, int], list] = {}
    usable: list[tuple[tuple[int, int], Fraction, bool]] = []
    for key, a in support:
        slots = _slots(key[0], key[1], k, i_k)
        budget.spend(len(slots) + 1)
        slot_table[key] = slots
        usable.append((key, a, bool(slots)))

    total = Fraction(0)
    for q in range(1, p + 1):
        p_star = p + q * i_k - (q - 1) * (k + 1)
        if p_star < 0:
            continue
        acc_q = Fraction(0)
        # frames (term index, |S| left, x-weight, y-weight, nonzero (index, s) pairs)
        stack = [(0, q, 0, 0, ())]
        while stack:
            idx, left, s1, s2, chosen = stack.pop()
            budget.spend()
            if idx < len(usable):
                (i, j), _a, has_slots = usable[idx]
                top = left if has_slots else 0
                if i:
                    top = min(top, (p_star - s1) // i)
                for e in range(top, 0, -1):
                    stack.append((idx + 1, left - e, s1 + i * e, s2 + j * e,
                                  chosen + ((idx, e),)))
                stack.append((idx + 1, left, s1, s2, chosen))
                continue
            if left or s2 < q - 1:
                continue
            tot = s2 - q + 1
            wgt = p_star - s1
            if tot == 0:
                if wgt != 0:
                    continue
            elif not tot <= wgt <= (k + 1) * tot:
                continue
            items = [(usable[t][0], e) for t, e in chosen]
            a_power = Fraction(1)
            for t, e in chosen:
                a_power *= usable[t][1] ** e
            inner = Fraction(0)
            for T in weighted_compositions(k + 1, tot, wgt):
                budget.spend()
                e = _e_from_slots(items, slot_table, T, budget)
                if e:
                    mono = Fraction(1)
                    for v, t in enumerate(T):
                        if t:
                            mono *= seed[v] ** t
                    inner += e * mono
            acc_q += a_power * inner
        total += Fraction(1, q) * Fraction(-1) ** q / w0 ** q * acc_q
    return total
