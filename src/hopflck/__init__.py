"""Symbolic-numeric toolkit for locally conformally Kähler structures on
Hopf manifolds: exact Wirtinger calculus on C^n \\ {0}, exterior forms,
polynomial deck transformations with scaling deformations, a catalog of the
classical constructions, and a residual-certification suite with a JSON CLI.
"""

from . import expr, forms, hopf, maps, sampling, verify
from .expr import (Expression, evaluate, evaluate_many, formal_conjugate,
                   implicit_t, substitute, wirtinger_d)
from .forms import (DefinitenessReport, ExteriorForm, bidegree_part,
                    definiteness, del_and_delbar, evaluate_form,
                    evaluate_form_many, exterior_d, max_form_residual,
                    pullback, wedge)
from .hopf import (HopfSurfaceCatalogEntry, build_entry, example1_entry,
                   example2_entry, example2_potential, family_to_diagonal,
                   family_to_linear, kodaira_entry, kodaira_family,
                   vaisman_entry, weighted_sasaki, weighted_sasaki_invariant)
from .maps import (ContractionResult, GroupSpec, JordanDecomposition,
                   PolyAutomorphism, Polynomial, ScalingFamily,
                   contraction_test, equivariance_check,
                   fixed_point_free_check, jordan_form)
from .verify import (LeeSolveResult, SuiteConfig, VerificationReport,
                     run_suite, solve_lee_many, solve_lee_pointwise,
                     suite_passed, verify_invariance, verify_lck,
                     verify_potential)

__version__ = "0.1.0"

__all__ = [
    "expr", "forms", "maps", "hopf", "verify", "sampling",
    "Expression", "evaluate", "evaluate_many", "wirtinger_d",
    "formal_conjugate", "substitute", "implicit_t",
    "ExteriorForm", "exterior_d", "del_and_delbar", "wedge", "pullback",
    "bidegree_part", "definiteness", "DefinitenessReport",
    "evaluate_form", "evaluate_form_many", "max_form_residual",
    "Polynomial", "PolyAutomorphism", "ScalingFamily",
    "GroupSpec", "ContractionResult", "JordanDecomposition",
    "contraction_test", "jordan_form",
    "fixed_point_free_check", "equivariance_check",
    "HopfSurfaceCatalogEntry", "build_entry", "example1_entry",
    "example2_entry", "example2_potential", "kodaira_entry",
    "kodaira_family", "vaisman_entry", "family_to_linear",
    "family_to_diagonal", "weighted_sasaki", "weighted_sasaki_invariant",
    "VerificationReport", "LeeSolveResult", "SuiteConfig",
    "solve_lee_pointwise", "solve_lee_many", "verify_lck",
    "verify_potential", "verify_invariance", "run_suite", "suite_passed",
    "__version__",
]
