"""Stability analysis of linear structured population models.

The generator of the model, conjugated with cumulative integration so that
its domain carries trivial boundary conditions, is discretized by bivariate
collocation on Chebyshev extremal points; its spectrum determines the
stability of the zero equilibrium.
"""

from .assembly import GeneratorMatrix, assemble
from .model import BUILTIN_NAMES, builtin, load_model
from .spectra import (
    Verdict,
    compute_spectrum,
    convergence_sweep,
    eigen_errors,
    fit_order,
    reconstruct_eigenfunction,
    stability_verdict,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "GeneratorMatrix",
    "Verdict",
    "assemble",
    "builtin",
    "compute_spectrum",
    "convergence_sweep",
    "eigen_errors",
    "fit_order",
    "load_model",
    "reconstruct_eigenfunction",
    "stability_verdict",
]
