"""Algebraicity tests and vanishing-polynomial reconstruction for truncated
power series, through minors of the reduced Wilczynski matrix of a support
shape.

The infinite Wilczynski matrix attached to (F, G) stacks, column by column,
the coefficients of x^i * y0^j for (i, j) in F and the indicator vectors of
the pure powers in G.  Removing the G columns together with the rows they
point at yields the reduced matrix; the series is algebraic relatively to
(F, G) exactly when that matrix drops below full column rank.  A finite slab
of depth 2*dx*dy already decides this under the degree-bound hypothesis.

One exact elimination over the slab's F-columns, taken in anti-lex order,
serves the rank and the relation that ``reconstruct`` returns, the
slab-kernel vector whose leading F-term is anti-lex minimal.  If d columns
precede that term, Cramer's rule makes the vector, up to scale, the signed
order-d minors of those d + 1 columns on any d rows where the first d
columns are independent: the minor formula of the paper, with the rows
found by elimination instead of by search.

The slab is built on integers: with the series cleared to N/D, its rows
are D^dy times the rational slab, entry N^j[label - i] * D^(dy - j) for
column (i, j), dy the largest y-exponent of F.  The scale is one number
for every entry, so rank, pivot columns and kernel vectors are those of
the rational slab.  The elimination runs mod a prime p on these rows, and
the answer stays exact.  A minor nonzero mod p is nonzero, so rank mod p
is at most rank over Q, and full column rank mod p of any rows proves
full column rank over Q.  Below it, each non-pivot column's kernel vector
is rationally reconstructed and checked to annihilate every row exactly;
those vectors are independent, so rank over Q is at most rank mod p, and
the two ranks, pivot columns and relations agree.  So each prime first
eliminates only the first |F| rows, and eliminates all of them only when
that answer fails the check on the whole slab.  Should that fail too (an
unlucky prime, or entries too large for p), the same runs again mod the
next, larger Mersenne prime, and each answer stands or falls on its own
check.  Fraction-free elimination is the one exact determinant, behind
``wilczynski_minor``.
"""

from __future__ import annotations

from bisect import bisect
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .bivar import BivarPoly, eval_at_poly
from .errors import InputError, NotAlgebraicError, PrecisionError
from .series import TruncatedSeries, _clear, _frac, _powers
from .series import series_pow  # unused; bound because bench/tracing.py wraps it
from .support import SupportShape, antilex_key


# -- exact linear algebra over the rationals: Gaussian elimination mod
#    primes of growing size until one is verified exactly over Q, and
#    fraction-free elimination as the one exact determinant

# Mersenne exponents (OEIS A000043): each prime 2^e - 1 has about twice the
# bits of the last, and is formed only when needed (the last three take 0.6 MB)
_MERSENNE_EXPONENTS = (61, 127, 521, 1279, 2203, 4253, 9689, 19937, 44497, 86243, 216091,
                       756839, 1257787, 2976221)


def _int_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free forward
    elimination, in place.  Every entry stays a minor of the input
    (Sylvester's identity), which makes each division by the previous pivot
    exact (Bareiss 1968); the last pivot is the determinant up to the sign
    of the row swaps."""
    prev = sign = 1
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        lead_row = rows[col]
        lead = lead_row[col]
        for r in range(col + 1, len(rows)):
            f = rows[r][col]
            rows[r] = [(lead * a - f * b) // prev for a, b in zip(rows[r], lead_row)]
        prev = lead
    return sign * prev


def bareiss_det(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant: each row cleared to integers over its own
    denominator, then fraction-free elimination."""
    n = len(matrix)
    rows = [[_frac(v) for v in row] for row in matrix]
    if any(len(row) != n for row in rows):
        raise InputError("matrix must be square")
    scale, lifted = 1, []
    for row in rows:
        d, ints = _clear(row)
        scale *= d
        lifted.append(ints)
    return Fraction(_int_det(lifted), scale)


def _reduce_mod(rows: list[list[int]], p: int) -> list[int]:
    """Gaussian elimination mod p to row echelon form, in place; returns
    the pivot columns.  Row k ends with 1 in column ``pivots[k]`` and 0
    before it, and the rows below the last pivot row are 0."""
    pivots: list[int] = []
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        inv = pow(rows[top][col], -1, p)
        # the pivot row is 0 before col, so only columns from col on change
        lead = rows[top][col:] = [v * inv % p for v in rows[top][col:]]
        for row in rows[top + 1:]:
            f = row[col]
            if f:
                # slab rows are sparse: a zero in the pivot row skips the product
                row[col:] = [(a - f * b) % p if b else a for a, b in zip(row[col:], lead)]
        pivots.append(col)
    return pivots


def _rational(u: int, p: int) -> Fraction | None:
    """The fraction a/b = u mod p with |a|, b <= sqrt(p/2), if any (Wang 1981)."""
    bound = isqrt(p // 2)
    r0, r1, t0, t1 = p, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1) if abs(t1) <= bound else None


def _kernel_vector(pivots: Sequence[int], reduced: Sequence[Sequence[int]], j: int,
                   p: int) -> list[Fraction] | None:
    """The kernel vector of non-pivot column j, rationally reconstructed:
    1 at j, 0 at the other non-pivot columns, and on the pivot columns
    before j what back-substitution through the echelon rows gives (column
    j of the reduced row echelon form, negated)."""
    vec = [Fraction(0)] * len(reduced[0])
    vec[j] = Fraction(1)
    solved: list[tuple[int, int]] = []  # (pivot column, value mod p), last pivot first
    for k in reversed(range(bisect(pivots, j))):
        row = reduced[k]
        value = -(row[j] + sum(row[c] * v for c, v in solved)) % p
        q = _rational(value, p)
        if q is None:
            return None
        vec[pivots[k]] = q
        solved.append((pivots[k], value))
    return vec


def _annihilates(rows: Sequence[Sequence[int]], vec: Sequence[Fraction]) -> bool:
    """rows . vec == 0, exactly, on the integer-scaled vector."""
    _, nums = _clear(vec)
    support = [(c, w) for c, w in enumerate(nums) if w]
    return all(not sum(row[c] * w for c, w in support) for row in rows)


def _slab_kernel(rows: Sequence[Sequence[int]]
                 ) -> tuple[tuple[int, ...], tuple[Fraction, ...] | None]:
    """Pivot columns of the integer ``rows`` over Q, columns taken left to
    right, and the kernel vector of the first non-pivot column: 1 there,
    minus that column's entries of the reduced row echelon form on the
    pivot columns before it, 0 elsewhere.  None when the columns are
    independent.

    For each e of ``_MERSENNE_EXPONENTS`` in turn, the first len(rows[0])
    rows are eliminated mod 2^e - 1, then, if that answer fails, all the
    rows; the first answer whose kernel vectors annihilate every row
    exactly is returned, as the module docstring explains.
    """
    ncols = len(rows[0]) if rows else 0
    heads = (rows[:ncols], rows) if len(rows) > ncols else (rows,)
    for e in _MERSENNE_EXPONENTS:
        p = 2 ** e - 1
        for head in heads:
            reduced = [[v % p for v in row] for row in head]
            pivots = _reduce_mod(reduced, p)
            vectors = [_kernel_vector(pivots, reduced, j, p)
                       for j in range(ncols) if j not in pivots]
            if all(vec is not None and _annihilates(rows, vec) for vec in vectors):
                return tuple(pivots), tuple(vectors[0]) if vectors else None
    raise AssertionError("no prime passed the exact check, yet one above 2 H^2, H the largest "
                         "minor, divides no nonzero minor and reconstructs every reduced entry")


@dataclass(frozen=True)
class WilczynskiSlab:
    """Finite depth-N truncation of the reduced Wilczynski matrix, on
    integers over one denominator.

    ``row_labels`` are the surviving row indices of the unreduced matrix
    (1-based; the rows pointed at by G are skipped).  ``rows[r][c]`` /
    ``den`` is the coefficient of x^(label_r - i) in y0^j for the c-th
    shape column (i, j).
    """

    shape: SupportShape
    row_labels: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    den: int
    depth: int


@dataclass(frozen=True)
class MinorIndex:
    """Rows (1-based positions among the surviving rows, strictly
    increasing) and columns (a sublist of F) selecting a square submatrix."""

    rows: tuple[int, ...]
    columns: tuple[tuple[int, int], ...]


def build_slab(shape: SupportShape, c: TruncatedSeries, depth: int) -> WilczynskiSlab:
    """First ``depth`` surviving rows of the reduced matrix of ``shape``.

    Requires a nonzero stored coefficient, at any index, and precision at
    least depth + |G| so that the skipped rows cannot eat into the
    requested depth.  The series, cut to depth + |G|, is cleared once to
    N / D; the powers N^j are integer products (``_powers``, as in
    evaluation), and N^j * D^(dy - j) / D^dy is y0^j, dy the largest
    y-exponent of F.
    """
    if depth < 0:
        raise InputError("depth must be a natural number")
    if c.coefficient(0):
        raise InputError("series must have zero constant term")
    if c.valuation is None:
        raise InputError("series must have a nonzero stored coefficient")
    needed = depth + len(shape.G)
    if c.precision < needed:
        raise PrecisionError(
            f"need {needed} coefficients for a depth-{depth} slab, have {c.precision}"
        )
    removed = {i for i, _ in shape.G}
    labels: list[int] = []
    n = 1
    while len(labels) < depth:
        if n not in removed:
            labels.append(n)
        n += 1
    # no row reads past label depth + |G|, so neither do the powers
    D, N = _clear(c.coefficients()[: needed + 1])
    top = shape.max_y
    powers = []
    for j, power in enumerate(_powers(N, top, needed)):
        scale = D ** (top - j)
        # N^0 = [1] is padded to the length of the others
        powers.append(tuple(v * scale for v in power) + (0,) * (needed + 1 - len(power)))
    rows = tuple(tuple(powers[j][label - i] if label >= i else 0 for (i, j) in shape.F)
                 for label in labels)
    return WilczynskiSlab(shape, tuple(labels), rows, D ** top, depth)


def wilczynski_minor(slab: WilczynskiSlab, idx: MinorIndex) -> Fraction:
    """Exact determinant of the selected submatrix; order 0 gives 1."""
    order = len(idx.rows)
    if order != len(idx.columns):
        raise InputError("minor needs as many rows as columns")
    if order == 0:
        return Fraction(1)
    if any(a >= b for a, b in zip(idx.rows, idx.rows[1:])):
        raise InputError("row picks must be strictly increasing")
    keys = [antilex_key(pair) for pair in idx.columns]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise InputError("column picks must be strictly increasing anti-lexicographically")
    col_pos = {pair: p for p, pair in enumerate(slab.shape.F)}
    try:
        cols = [col_pos[pair] for pair in idx.columns]
    except KeyError as missing:
        raise InputError(f"column {missing} not in the shape") from None
    if idx.rows[0] < 1 or idx.rows[-1] > len(slab.row_labels):
        raise InputError("row pick outside the slab")
    sub = [[slab.rows[r - 1][cc] for cc in cols] for r in idx.rows]
    return Fraction(_int_det(sub), slab.den ** order)


def certify(P: BivarPoly, c: TruncatedSeries, dx: int, dy: int) -> bool:
    """True iff P(x, z_T) vanishes modulo x^(T+1), T >= tau = 2*dx*dy the
    precision of c.  A nonzero coefficient there disproves P(x, y0) = 0
    outright.  Vanishing through tau certifies P(x, y0) = 0 exactly under
    the hypothesis that the series is algebraic with the same degree bounds.
    """
    if dx < 1 or dy < 1:
        raise InputError("degree bounds must be at least 1")
    if P.is_zero:
        raise InputError("the zero polynomial certifies nothing")
    if P.x_degree > dx or P.y_degree > dy:
        raise InputError("polynomial exceeds the stated degree bounds")
    tau = 2 * dx * dy
    if c.precision < tau:
        raise PrecisionError(f"certification depth {tau} exceeds precision {c.precision}")
    return not eval_at_poly(P, c.coefficients()[1:], c.precision)


@dataclass(frozen=True)
class ReconstructionResult:
    poly: BivarPoly
    rank: int
    # positive reconstructions vanish on the whole stored series; that proves
    # P(x, y0) = 0 only under the degree-bound algebraicity hypothesis
    conditional: bool = True


def reconstruct(shape: SupportShape, c: TruncatedSeries, dx: int, dy: int) -> ReconstructionResult:
    """Reconstruct a certified vanishing polynomial with support in F + G.

    Elimination of the depth-2*dx*dy slab, of its first |F| rows when they
    suffice, gives its rank r.  Below full column rank, the first F-column
    (in anti-lex order) that depends on the earlier ones yields the relation
    returned: coefficient 1 on that column and minus its reduced entries on
    the pivot columns before it.  This is the slab-kernel vector whose
    leading F-term is anti-lex minimal, unique up to scale.  Rank and
    relation are exact although the elimination runs mod a prime: full
    column rank mod p implies full rank over Q, and below it a kernel vector
    per non-pivot column, verified over Q, bounds the rank over Q by the
    rank mod p (``_slab_kernel``).  The pure-x terms are then forced: with
    a_F the F-part, ``eval_at_poly`` gives a_F(x, y0) through the largest k
    of G, and a_{k,0} = -[x^k] a_F(x, y0) for each (k, 0) in G (no term
    when that coefficient is 0).  The polynomial is then certified by
    ``certify``, independently of the slab.
    A slab-kernel vector zeroes every slab row and the forced terms zero
    the rows G removed, so it vanishes through depth 2*dx*dy; a nonzero
    coefficient past that disproves the degree-bound hypothesis, and
    NotAlgebraicError is raised.
    """
    if dx < 1 or dy < 1:
        raise InputError("degree bounds must be at least 1")
    if not shape.within_bounds(dx, dy):
        raise InputError("shape exceeds the degree bounds")
    slab = build_slab(shape, c, 2 * dx * dy)
    pivots, relation = _slab_kernel(slab.rows)
    rank = len(pivots)
    if relation is None:
        raise NotAlgebraicError(
            f"not algebraic at bounds ({dx}, {dy}): the depth-{slab.depth} "
            f"slab has full column rank {rank}"
        )
    a_F = BivarPoly({pair: a for pair, a in zip(shape.F, relation) if a})
    top = max((k for k, _ in shape.G), default=0)
    low = eval_at_poly(a_F, c.coefficients()[1: top + 1], top)
    terms = a_F.terms
    terms.update({(k, 0): -low[k] for k, _ in shape.G if k < len(low)})
    poly = BivarPoly(terms)
    if not certify(poly, c, dx, dy):
        raise NotAlgebraicError(
            f"the slab relation fails certification through x^{c.precision}: "
            f"the series violates the degree-bound hypothesis at ({dx}, {dy})"
        )
    return ReconstructionResult(poly.primitive_normalized(), rank)
