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
serves every question asked here: its pivots give the rank, its pivot
product gives a minor, and its reduced rows give the relation that
``reconstruct`` returns, the slab-kernel vector whose leading F-term is
anti-lex minimal.  If d columns precede that term, Cramer's rule makes the
vector, up to scale, the signed order-d minors of those d + 1 columns on
any d rows where the first d columns are independent: the minor formula of
the paper, with the rows found by elimination instead of by search.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .bivar import BivarPoly, eval_at_poly
from .errors import InputError, NotAlgebraicError, PrecisionError
from .series import TruncatedSeries, series_pow
from .support import SupportShape, antilex_key


# -- exact linear algebra over the rationals (division-based; the
#    fraction-free cross-check lives in the oracle module)

@dataclass(frozen=True)
class _Echelon:
    """Reduced row echelon form of a matrix.

    ``pivots[k]`` is the pivot column of ``rows[k]``, whose pivot entry is 1
    and whose other pivot columns are 0; the rank is ``len(pivots)``.
    ``det`` is the determinant when the matrix is square.
    """

    pivots: tuple[int, ...]
    rows: tuple[tuple[Fraction, ...], ...]
    det: Fraction


def _eliminate(rows: Sequence[Sequence[Fraction]]) -> _Echelon:
    """Gauss-Jordan elimination, columns taken left to right."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    det = Fraction(1)
    for col in range(ncols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(m)) if m[r][col]), None)
        if pivot is None:
            det = Fraction(0)
            continue
        if pivot != top:
            m[top], m[pivot] = m[pivot], m[top]
            det = -det
        lead = m[top][col]
        det *= lead
        m[top] = [v / lead for v in m[top]]
        for r in range(len(m)):
            f = m[r][col]
            if f and r != top:
                # slab rows are sparse: skipping zeros saves a third of the time
                m[r] = [a - f * b if b else a for a, b in zip(m[r], m[top])]
        pivots.append(col)
    return _Echelon(tuple(pivots), tuple(tuple(r) for r in m[:len(pivots)]), det)


@dataclass(frozen=True)
class WilczynskiSlab:
    """Finite depth-N truncation of the reduced Wilczynski matrix.

    ``row_labels`` are the surviving row indices of the unreduced matrix
    (1-based; the rows pointed at by G are skipped).  ``entries[r][c]``
    holds the coefficient of x^(label_r - i) in y0^j for the c-th shape
    column (i, j).  ``powers[j]`` caches the expansion of y0^j.
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
    top_j = shape.max_y
    powers = [series_pow(c, j, c.precision) for j in range(top_j + 1)]
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
    return _eliminate(sub).det


@dataclass(frozen=True)
class AlgebraicityDecision:
    algebraic: bool
    rank: int
    family_size: int
    depth: int
    # the positive answer is exact only under the hypothesis that the series
    # is algebraic within the stated degree bounds; the negative one is not
    # conditional on anything beyond the supplied coefficients
    conditional: bool


def _validated_slab(shape: SupportShape, c: TruncatedSeries, dx: int, dy: int) -> WilczynskiSlab:
    if dx < 1 or dy < 1:
        raise InputError("degree bounds must be at least 1")
    if not shape.within_bounds(dx, dy):
        raise InputError("shape exceeds the degree bounds")
    return build_slab(shape, c, 2 * dx * dy)


def is_algebraic_rel(shape: SupportShape, c: TruncatedSeries, dx: int, dy: int) -> AlgebraicityDecision:
    """Decide algebraicity relative to (F, G) from a depth-2*dx*dy slab."""
    slab = _validated_slab(shape, c, dx, dy)
    r = len(_eliminate(slab.entries).pivots)
    algebraic = r < len(shape.F)
    return AlgebraicityDecision(algebraic, r, len(shape.F), slab.depth, conditional=algebraic)


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
    up to scale.  The pure-x terms are then forced, and the polynomial is
    certified at depth 2*dx*dy through direct evaluation, independently of
    the slab.  A slab-kernel vector zeroes every slab row and the forced
    terms zero the rows G removed, so the certificate cannot fail; should
    it, NotAlgebraicError is raised.
    """
    slab = _validated_slab(shape, c, dx, dy)
    echelon = _eliminate(slab.entries)
    rank = len(echelon.pivots)
    if rank == len(shape.F):
        raise NotAlgebraicError(
            f"not algebraic at bounds ({dx}, {dy}): the depth-{slab.depth} "
            f"slab has full column rank {rank}"
        )
    # every column before the first dependent one is a pivot column
    dep = next((k for k, col in enumerate(echelon.pivots) if col != k), rank)
    a_F = {shape.F[dep]: Fraction(1)}
    for k in range(dep):
        a_F[shape.F[k]] = -echelon.rows[k][dep]
    poly = BivarPoly(_constant_terms(shape, a_F, slab.powers))
    if not certify(poly, c, dx, dy):
        raise NotAlgebraicError(
            f"the slab relation fails certification at depth {2 * dx * dy}: "
            f"the series violates the degree-bound hypothesis at ({dx}, {dy})"
        )
    return ReconstructionResult(poly.primitive_normalized(), rank)
