"""Shared fixtures: the two reference instances and random generators
for algebraic-root instances used across the suite."""

from fractions import Fraction as F
from itertools import combinations_with_replacement

import pytest
from hypothesis import strategies as st

from algseries import (BivarPoly, InputError, SupportShape, TruncatedSeries, branch_data,
                       coefficient_after_branch, eval_at_poly)
from algseries.flajolet_soria import multinomial

# P = y^2 + x^2 y^2 - 2 x^2 y - x^2, simple root starting 1, 1, 0, -1, -1/2, ...
E4_POLY = BivarPoly({(0, 2): 1, (2, 0): -1, (2, 1): -2, (2, 2): 1})

# (y - x)(y - x - x^5): simple roots sharing four coefficients, so k0 = 4
TANGENT = BivarPoly({(0, 2): 1, (1, 1): -2, (2, 0): 1, (5, 1): -1, (6, 0): 1})

E3_SHAPE = SupportShape(F=((2, 1), (0, 2), (2, 2)), G=((2, 0),))

E3_RECONSTRUCTED = BivarPoly({(2, 0): -1, (2, 1): -2, (0, 2): 1, (2, 2): 1})


@pytest.fixture
def e4():
    return E4_POLY


@pytest.fixture
def e3_shape():
    return E3_SHAPE


def rational(rng, top=9, den=7):
    return F(rng.randint(-top, top), rng.randint(1, den))


def nonzero_rational(rng, top=9, den=7):
    while True:
        v = rational(rng, top, den)
        if v:
            return v


def henselian_instance(rng, dx=3, dy=3):
    """Random integer polynomial with a01 != 0 and a00 = 0: Hensel's lemma
    gives a unique simple root through the origin.  Returns (P, [c1, c2])
    with an integer seed, or None when c2 fails to be an integer."""
    while True:
        a01 = rng.randint(-5, 5)
        if a01:
            break
    c1 = rng.choice([1, -1])
    terms = {(0, 1): a01, (1, 0): -a01 * c1}
    for i in range(dx + 1):
        for j in range(dy + 1):
            if (i, j) in ((0, 0), (0, 1), (1, 0)):
                continue
            if rng.random() < 0.5:
                v = rng.randint(-5, 5)
                if v:
                    terms[(i, j)] = v
    P = BivarPoly(terms)
    level2 = sum(P.coefficient(i, j) * c1 ** j for i in range(3) for j in range(3)
                 if i + j == 2)
    c2 = F(-level2, a01)
    if c2.denominator != 1:
        return None
    return P, [F(c1), c2]


def e3_family_instance(rng):
    """Random instance with the e3 fixture support: a02 y^2 + a20 x^2 +
    a21 x^2 y + a22 x^2 y^2 with a20 = -a02 c1^2, so c1 = +-1 starts a
    simple root; c2 is then -a21/(2 a02), kept integer by construction."""
    a02 = rng.choice([-2, -1, 1, 2])
    c1 = rng.choice([1, -1])
    t = rng.choice([-1, 0, 1])
    a21 = 2 * a02 * t
    a22 = rng.randint(-5, 5)
    terms = {(0, 2): a02, (2, 0): -a02 * c1 * c1}
    if a21:
        terms[(2, 1)] = a21
    if a22:
        terms[(2, 2)] = a22
    P = BivarPoly(terms)
    c2 = F(-a21, 2 * a02)
    return P, [F(c1), c2]


def liftable_instances(rng, count):
    """Mix of random instances (degree bounds <= 3, integer coefficients in
    [-5, 5]) with Newton-liftable simple roots and integer 2-term seeds."""
    out = []
    while len(out) < count:
        if rng.random() < 0.3:
            inst = e3_family_instance(rng)
        else:
            dims = rng.choice([(3, 3), (3, 2), (2, 3), (2, 2), (3, 1)])
            inst = henselian_instance(rng, *dims)
        if inst is None:
            continue
        P, seed = inst
        try:
            bd = branch_data(P, TruncatedSeries(seed))
        except Exception:
            continue
        if len(seed) < bd.k0 + 2:
            continue
        out.append((P, seed, bd))
    return out


def valuation_instances(rng, count, v):
    """Random roots of valuation v: P = a (y - c x^v) plus terms x^i y^j of
    weight i + v j > v (integer coefficients in [-5, 5], bounds (3,3),
    (3,2) or (2,2) as far as dx >= v allows, (v, 2) otherwise), so the
    simple root starts c x^v.  Returns (P, seed, bd) like
    ``liftable_instances``, seed = [0] * (v - 1) + [c]."""
    dims = [d for d in [(3, 3), (3, 2), (2, 2)] if d[0] >= v] or [(v, 2)]
    out = []
    while len(out) < count:
        dx, dy = rng.choice(dims)
        a, c = rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([-2, -1, 1, 2])
        terms = {(0, 1): a, (v, 0): -a * c}
        for i in range(dx + 1):
            for j in range(dy + 1):
                if i + v * j > v and rng.random() < 0.5:
                    terms[(i, j)] = rng.randint(-5, 5)
        P = BivarPoly({key: b for key, b in terms.items() if b})
        seed = [F(0)] * (v - 1) + [F(c)]
        out.append((P, seed, branch_data(P, TruncatedSeries(seed))))
    return out


def _times_root(terms, root):
    """terms * (y - root(x)) for root = r_1 x + r_2 x^2 + ..., on dicts
    (i, j) -> integer coefficient."""
    out = {}
    for (i, j), a in terms.items():
        out[(i, j + 1)] = out.get((i, j + 1), 0) + a
        for m, r in enumerate(root, 1):
            out[(i + m, j)] = out.get((i + m, j), 0) - a * r
    return out


def late_branch_instances(rng, count):
    """Random roots whose branch separates late: k0 = 1, 2, 3 in turn.

    P = (y - a)(y - b) [(y - d)] + x^N (r0 + r1 y) with integer polynomials
    a and b that agree through x^k0 and differ at x^(k0+1), and d (in half
    of them) with d_1 != a_1.  Along the root through a, dP/dy has order
    e = k0 + 1 (k0 + 2 with d), and the root moves off a only from x^(N - e)
    on, so N = 2 k0 + 5 or 6 keeps the seed a_1..a_{k0+2} exact.  Returns
    (P, seed, bd) like ``liftable_instances``.
    """
    out = []
    while len(out) < count:
        k0 = len(out) % 3 + 1
        a = [rng.choice([-2, -1, 1, 2])] + [rng.randint(-3, 3) for _ in range(k0 + 1)]
        b = a[:k0] + [a[k0] + rng.choice([-2, -1, 1, 2])]
        terms = _times_root(_times_root({(0, 0): 1}, a), b)
        if rng.random() < 0.5:
            terms = _times_root(terms, [a[0] + rng.choice([-1, 1])])
        n = 2 * k0 + 5 + rng.randint(0, 1)
        terms[(n, 0)] = terms.get((n, 0), 0) + rng.choice([-3, -2, -1, 1, 2, 3])
        terms[(n, 1)] = terms.get((n, 1), 0) + rng.randint(-3, 3)
        P = BivarPoly(terms)
        seed = [F(c) for c in a]
        bd = branch_data(P, TruncatedSeries(seed))
        assert bd.k0 == k0
        out.append((P, seed, bd))
    return out


SMALL_RATIONALS = st.fractions(min_value=-5, max_value=5, max_denominator=4)
HIGH_RATIONALS = st.builds(F, st.integers(-2 ** 200, 2 ** 200), st.integers(1, 2 ** 200))


def coefficient_lists(max_size):
    """Lists of at most ``max_size`` rationals: small ones, heights and
    denominators up to 2^200 of either sign, and runs of zeros; empty and
    all-zero lists included."""
    piece = st.one_of(st.lists(st.just(F(0)), min_size=1, max_size=12),
                      st.lists(st.one_of(SMALL_RATIONALS, HIGH_RATIONALS), min_size=1,
                               max_size=6))
    return st.lists(piece, max_size=max_size).map(
        lambda pieces: [c for p in pieces for c in p][:max_size])


def prefix(series, precision):
    """The series cut after x^precision."""
    return TruncatedSeries(series.coefficients()[: precision + 1], start=0)


def extended_seed(P, coeffs):
    """Grow a prefix to one coefficient past the branch index when it stops
    exactly at it, mirroring the command-line pipeline."""
    series = TruncatedSeries(coeffs)
    bd = branch_data(P, series)
    coeffs = list(coeffs)
    if len(coeffs) == bd.k0 + 1:
        coeffs.append(coefficient_after_branch(P, series, bd.k0, bd.i_k0, bd.omega0))
    return bd, coeffs


def spreads(length, total, weight):
    """Vectors t of the given length with sum(t) = total and
    sum((v+1) * t[v]) = weight, as the multisets of ``total`` positions
    1..length with that sum, in the order itertools reads them."""
    out = []
    for positions in combinations_with_replacement(range(1, length + 1), total):
        if sum(positions) == weight:
            out.append(tuple(positions.count(v) for v in range(1, length + 1)))
    return out


def power_coefficient(seed, n, w):
    """Coefficient of x^w in (c_1 x + ... + c_s x^s)^n for seed = c_1..c_s,
    as the multinomial sum over the spreads of n with weight w (the integer
    0 when there is none): the literal reference for the seed powers that
    the Hensel-form tables read."""
    total = 0
    for L in spreads(len(seed), n, w):
        term = multinomial(L)
        for c, t in zip(seed, L):
            if t:
                term *= c ** t
        total += term
    return total


def fixed_point_expand(Q, precision):
    """Solution of y = Q(x, y) by plain fixed-point iteration.

    Each pass gains at least one order of agreement, so ``precision``
    passes starting from 0 are enough.  Used as an oracle against the
    coefficient formulas.
    """
    if precision < 1:
        raise InputError("precision must be at least 1")
    y = []
    for _ in range(precision):
        y = eval_at_poly(Q, y, precision)[1:]
    return TruncatedSeries(y, precision=precision, start=1)
