"""Shared fixtures: the two reference instances and random generators
for algebraic-root instances used across the suite."""

from fractions import Fraction as F

import pytest

from algseries import (BivarPoly, SupportShape, TruncatedSeries, branch_data,
                       coefficient_after_branch)

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


def extended_seed(P, coeffs):
    """Grow a prefix to one coefficient past the branch index when it stops
    exactly at it, mirroring the command-line pipeline."""
    series = TruncatedSeries(coeffs)
    bd = branch_data(P, series)
    coeffs = list(coeffs)
    if len(coeffs) == bd.k0 + 1:
        coeffs.append(coefficient_after_branch(P, series, bd.k0, bd.i_k0, bd.omega0))
    return bd, coeffs
