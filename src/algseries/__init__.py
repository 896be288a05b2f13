"""Exact-arithmetic toolkit for algebraic power series.

Two directions, each checking the other: reconstruct and certify a
vanishing bivariate polynomial for a truncated series (Wilczynski-matrix
minors), and expand the root of a given polynomial (Hensel-form reduction,
the Flajolet-Soria formula, a literal closed form, and an independent
Newton-lifting oracle).
"""

from .bivar import (BivarPoly, eval_at_poly, eval_at_series, shift_substitute,
                    substitute_shift, substitute_tail, uni_order)
from .errors import (AlgSeriesError, BudgetError, InputError, LiftError,
                     NotAlgebraicError, NotSimpleRootError, PrecisionError)
from .flajolet_soria import (CompositionVector, EnumerationBudget, ReducedHenselEq,
                             closed_form_coefficient, compositions, e_coefficient,
                             fs_coefficient, fs_expand, weighted_compositions)
from .henselization import (BranchData, HenselForm, OrderTrace, branch_data,
                            coefficient_after_branch, henselize, omega0_closed,
                            order_sequence)
from .newton import LiftReport, fixed_point_expand, newton_lift
from .series import TruncatedSeries, series_div, series_pow
from .support import (PuiseuxMeta, SupportShape, antilex_key, full_support,
                      puiseux_support_constraints)
from .wilczynski import (AlgebraicityDecision, MinorIndex, ReconstructionResult,
                         WilczynskiSlab, bareiss_det, build_slab, certify,
                         is_algebraic_rel, reconstruct, wilczynski_minor)

__version__ = "0.1.0"

__all__ = [
    "AlgSeriesError", "AlgebraicityDecision", "BivarPoly", "BranchData",
    "BudgetError", "CompositionVector", "EnumerationBudget", "HenselForm",
    "InputError", "LiftError", "LiftReport", "MinorIndex", "NotAlgebraicError",
    "NotSimpleRootError", "OrderTrace", "PrecisionError", "PuiseuxMeta",
    "ReconstructionResult", "ReducedHenselEq", "SupportShape", "TruncatedSeries",
    "WilczynskiSlab", "antilex_key", "bareiss_det", "branch_data", "build_slab",
    "certify", "closed_form_coefficient", "coefficient_after_branch",
    "compositions", "e_coefficient", "eval_at_poly", "eval_at_series",
    "fixed_point_expand", "fs_coefficient", "fs_expand",
    "full_support", "henselize", "is_algebraic_rel", "newton_lift",
    "omega0_closed", "order_sequence", "puiseux_support_constraints",
    "reconstruct", "series_div", "series_pow", "shift_substitute",
    "substitute_shift", "substitute_tail", "uni_order", "wilczynski_minor",
]
