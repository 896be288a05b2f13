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

The elimination runs mod a prime p on the rows lifted to integers, and the
answer stays exact.  A minor nonzero mod p is nonzero, so rank mod p is at
most rank over Q, and full column rank mod p proves full rank over Q.
Below it, each non-pivot column's kernel vector is rationally
reconstructed and checked to annihilate the integer rows exactly; those
vectors are independent, so rank over Q is at most rank mod p, and the two
ranks, pivot columns and relations agree.  Should a reconstruction or a
check fail (an unlucky prime, or entries too large for p), the
elimination runs again mod the next, larger Mersenne prime, and each
prime's answer stands or falls on its own check.  Fraction-free
elimination is the one exact determinant, behind ``wilczynski_minor``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm
from typing import Sequence

from .bivar import BivarPoly, eval_at_poly
from .errors import InputError, NotAlgebraicError, PrecisionError
from .series import TruncatedSeries, _frac, series_pow
from .support import SupportShape, antilex_key


# -- exact linear algebra over the rationals: Gauss-Jordan elimination mod
#    primes of growing size until one is verified exactly over Q, and
#    fraction-free elimination as the one exact determinant

# Mersenne exponents (OEIS A000043): each prime 2^e - 1 has about twice the
# bits of the last, and is formed only when needed (the last three take 0.6 MB)
_MERSENNE_EXPONENTS = (61, 127, 521, 1279, 2203, 4253, 9689, 19937, 44497, 86243, 216091,
                       756839, 1257787, 2976221)


def _integer_rows(rows: Sequence[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Each row times the least common multiple of its denominators, and
    the product of those multipliers.  Scaling rows changes neither the
    rank nor the kernel."""
    scale = 1
    lifted: list[list[int]] = []
    for row in rows:
        mult = lcm(*(v.denominator for v in row))
        scale *= mult
        lifted.append([v.numerator * (mult // v.denominator) for v in row])
    return lifted, scale


def _bareiss(rows: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place,
    columns taken left to right.

    Returns the pivot columns, the last pivot d and the sign of the row
    permutation.  Every entry stays a minor of the input (Sylvester's
    identity), which makes each division by the previous pivot exact
    (Bareiss 1968); for a square matrix of full rank, sign * d is its
    determinant.
    """
    pivots: list[int] = []
    prev = sign = 1
    for col in range(len(rows[0]) if rows else 0):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        if pivot != top:
            rows[top], rows[pivot] = rows[pivot], rows[top]
            sign = -sign
        lead_row = rows[top]
        lead = lead_row[col]
        for r, row in enumerate(rows):
            if r != top:
                f = row[col]
                rows[r] = [(lead * a - f * b) // prev for a, b in zip(row, lead_row)]
        prev = lead
        pivots.append(col)
    return pivots, prev, sign


def bareiss_det(matrix: Sequence[Sequence]) -> Fraction:
    """Exact determinant by fraction-free elimination on an integer lift."""
    n = len(matrix)
    rows = [[_frac(v) for v in row] for row in matrix]
    if any(len(row) != n for row in rows):
        raise InputError("matrix must be square")
    lifted, scale = _integer_rows(rows)
    pivots, d, sign = _bareiss(lifted)
    return Fraction(sign * d, scale) if len(pivots) == n else Fraction(0)


def _reduce_mod(rows: list[list[int]], p: int) -> list[int]:
    """Gauss-Jordan elimination mod p, in place; returns the pivot columns.
    Row k ends with 1 in column ``pivots[k]`` and 0 in the other pivot
    columns."""
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
        for r, row in enumerate(rows):
            f = row[col]
            if f and r != top:
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
    """The RREF kernel vector of non-pivot column j, rationally
    reconstructed: 1 at j, minus row k's entry at ``pivots[k]``."""
    vec = [Fraction(0)] * len(reduced[0])
    vec[j] = Fraction(1)
    for k, col in enumerate(pivots):
        if col > j:
            break
        q = _rational(-reduced[k][j] % p, p)
        if q is None:
            return None
        vec[col] = q
    return vec


def _annihilates(rows: Sequence[Sequence[int]], vec: Sequence[Fraction]) -> bool:
    """rows . vec == 0, exactly, on the integer-scaled vector."""
    den = lcm(*(v.denominator for v in vec))
    support = [(c, v.numerator * (den // v.denominator)) for c, v in enumerate(vec) if v]
    return all(not sum(row[c] * w for c, w in support) for row in rows)


def _slab_kernel(rows: Sequence[Sequence[Fraction]]
                 ) -> tuple[tuple[int, ...], tuple[Fraction, ...] | None]:
    """Pivot columns of ``rows`` over Q, columns taken left to right, and
    the kernel vector of the first non-pivot column: 1 there, minus that
    column's entries of the reduced row echelon form on the pivot columns
    before it, 0 elsewhere.  None when the columns are independent.

    The elimination runs mod 2^e - 1 for each e of ``_MERSENNE_EXPONENTS``
    in turn and returns the first answer whose kernel vectors pass the
    exact check, as the module docstring explains.
    """
    lifted, _scale = _integer_rows(rows)
    ncols = len(rows[0]) if rows else 0
    for e in _MERSENNE_EXPONENTS:
        p = 2 ** e - 1
        reduced = [[v % p for v in row] for row in lifted]
        pivots = _reduce_mod(reduced, p)
        vectors = [_kernel_vector(pivots, reduced, j, p) for j in range(ncols) if j not in pivots]
        if all(vec is not None and _annihilates(lifted, vec) for vec in vectors):
            return tuple(pivots), tuple(vectors[0]) if vectors else None
    raise AssertionError("no prime passed the exact check, yet one above 2 H^2, H the largest "
                         "minor, divides no nonzero minor and reconstructs every reduced entry")


@dataclass(frozen=True)
class WilczynskiSlab:
    """Finite depth-N truncation of the reduced Wilczynski matrix.

    ``row_labels`` are the surviving row indices of the unreduced matrix
    (1-based; the rows pointed at by G are skipped).  ``entries[r][c]``
    holds the coefficient of x^(label_r - i) in y0^j for the c-th shape
    column (i, j).  ``powers[j]`` caches the expansion of y0^j through
    x^(depth + |G|), the last power a row can read.
    """

    shape: SupportShape
    row_labels: tuple[int, ...]
    entries: tuple[tuple[Fraction, ...], ...]
    depth: int
    powers: tuple[TruncatedSeries, ...]


@dataclass(frozen=True)
class MinorIndex:
    """Rows (1-based positions among the surviving rows, strictly
    increasing) and columns (a sublist of F) selecting a square submatrix."""

    rows: tuple[int, ...]
    columns: tuple[tuple[int, int], ...]


def build_slab(shape: SupportShape, c: TruncatedSeries, depth: int) -> WilczynskiSlab:
    """First ``depth`` surviving rows of the reduced matrix of ``shape``.

    Requires c_1 != 0 and precision at least depth + |G| so that the
    skipped rows cannot eat into the requested depth.
    """
    if depth < 0:
        raise InputError("depth must be a natural number")
    if c.coefficient(0):
        raise InputError("series must have zero constant term")
    if c.valuation != 1:
        raise InputError("series must have c_1 != 0")
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
    # no row reads past label depth + |G|, so neither do the powers;
    # y0^j = y0^(j-1) * y0: one product per power
    c = c.truncate(needed)
    powers = [series_pow(c, 0, needed)]
    for _ in range(shape.max_y):
        powers.append(powers[-1] * c)
    entries = tuple(
        tuple(powers[j].coefficient(label - i) for (i, j) in shape.F)
        for label in labels
    )
    return WilczynskiSlab(shape, tuple(labels), entries, depth, tuple(powers))


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
    sub = [[slab.entries[r - 1][cc] for cc in cols] for r in idx.rows]
    return bareiss_det(sub)


def certify(P: BivarPoly, c: TruncatedSeries, dx: int, dy: int) -> bool:
    """True iff P(x, z_tau) vanishes modulo x^(tau+1) for tau = 2*dx*dy.

    Under the hypothesis that the series is algebraic with the same degree
    bounds, this certifies P(x, y0) = 0 exactly.
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
    z = [c.coefficient(n) for n in range(1, tau + 1)]
    return not eval_at_poly(P, z, tau)


@dataclass(frozen=True)
class ReconstructionResult:
    poly: BivarPoly
    rank: int
    # positive reconstructions are certified at depth 2*dx*dy, which proves
    # vanishing only under the degree-bound algebraicity hypothesis
    conditional: bool = True


def _constant_terms(shape: SupportShape, a_F: dict[tuple[int, int], Fraction],
                    powers: tuple[TruncatedSeries, ...]) -> dict[tuple[int, int], Fraction]:
    """Pure-x coefficients forced by the F-part: a_{k,0} cancels the
    coefficient of x^k in the partial combination."""
    out = dict(a_F)
    for (k, _zero) in shape.G:
        acc = Fraction(0)
        for (i, j), a in a_F.items():
            if i < k:
                acc += a * powers[j].coefficient(k - i)
        if acc:
            out[(k, 0)] = -acc
    return out


def reconstruct(shape: SupportShape, c: TruncatedSeries, dx: int, dy: int) -> ReconstructionResult:
    """Reconstruct a certified vanishing polynomial with support in F + G.

    One elimination of the depth-2*dx*dy slab gives its rank r.  Below full
    column rank, the first F-column (in anti-lex order) that depends on the
    earlier ones yields the relation returned: coefficient 1 on that column
    and minus its reduced entries on the pivot columns before it.  This is
    the slab-kernel vector whose leading F-term is anti-lex minimal, unique
    up to scale.  Rank and relation are exact although the elimination runs
    mod a prime: full column rank mod p implies full rank over Q, and below
    it a kernel vector per non-pivot column, verified over Q, bounds the
    rank over Q by the rank mod p (``_slab_kernel``).  The pure-x terms are
    then forced, and the polynomial is certified at depth 2*dx*dy through
    direct evaluation, independently of the slab.  A slab-kernel vector
    zeroes every slab row and the forced terms zero the rows G removed, so
    the certificate cannot fail; should it, NotAlgebraicError is raised.
    """
    if dx < 1 or dy < 1:
        raise InputError("degree bounds must be at least 1")
    if not shape.within_bounds(dx, dy):
        raise InputError("shape exceeds the degree bounds")
    slab = build_slab(shape, c, 2 * dx * dy)
    pivots, relation = _slab_kernel(slab.entries)
    rank = len(pivots)
    if relation is None:
        raise NotAlgebraicError(
            f"not algebraic at bounds ({dx}, {dy}): the depth-{slab.depth} "
            f"slab has full column rank {rank}"
        )
    a_F = {pair: a for pair, a in zip(shape.F, relation) if a}
    poly = BivarPoly(_constant_terms(shape, a_F, slab.powers))
    if not certify(poly, c, dx, dy):
        raise NotAlgebraicError(
            f"the slab relation fails certification at depth {2 * dx * dy}: "
            f"the series violates the degree-bound hypothesis at ({dx}, {dy})"
        )
    return ReconstructionResult(poly.primitive_normalized(), rank)
