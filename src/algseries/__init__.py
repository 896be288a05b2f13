"""Exact-arithmetic toolkit for algebraic power series.

Two directions, each checking the other: reconstruct and certify a
vanishing bivariate polynomial for a truncated series (``reconstruct``,
whose slab rank decides algebraicity at the bounds, and ``certify``), and
expand the root of a given polynomial three independent ways
(``fs_expand`` on the Hensel form from ``henselize``, the literal closed
form ``closed_form_coefficients``, and the Newton-lifting oracle
``newton_lift``).

The exported names are what that pipeline runs, the paper's formulas as
functions (the minor criterion ``wilczynski_minor`` with ``MinorIndex``
and ``bareiss_det``; the closed-form weights ``e_coefficient``), and the
functions that bench/run.py calls or bench/tracing.py wraps.  Reference
implementations that only check these live with the tests.
"""

from .bivar import BivarPoly, eval_at_poly, substitute_shift, substitute_tail, uni_order
from .errors import (AlgSeriesError, BudgetError, InputError, LiftError,
                     NotAlgebraicError, NotSimpleRootError, PrecisionError)
from .flajolet_soria import (EnumerationBudget, ReducedHenselEq, closed_form_coefficient,
                             closed_form_coefficients, e_coefficient, fs_coefficient,
                             fs_expand)
from .henselization import (BranchData, HenselForm, branch_data, coefficient_after_branch,
                            henselize, order_sequence)
from .newton import LiftReport, newton_lift
from .series import TruncatedSeries, series_div, series_pow
from .support import SupportShape, antilex_key, full_support
from .wilczynski import (MinorIndex, ReconstructionResult, WilczynskiSlab, bareiss_det,
                         build_slab, certify, reconstruct, wilczynski_minor)

__version__ = "0.1.0"

__all__ = [
    "AlgSeriesError", "BivarPoly", "BranchData", "BudgetError", "EnumerationBudget",
    "HenselForm", "InputError", "LiftError", "LiftReport", "MinorIndex", "NotAlgebraicError",
    "NotSimpleRootError", "PrecisionError", "ReconstructionResult", "ReducedHenselEq",
    "SupportShape", "TruncatedSeries", "WilczynskiSlab", "antilex_key", "bareiss_det",
    "branch_data", "build_slab", "certify", "closed_form_coefficient",
    "closed_form_coefficients", "coefficient_after_branch", "e_coefficient", "eval_at_poly",
    "fs_coefficient", "fs_expand", "full_support", "henselize", "newton_lift",
    "order_sequence", "reconstruct", "series_div", "series_pow", "substitute_shift",
    "substitute_tail", "uni_order", "wilczynski_minor",
]
