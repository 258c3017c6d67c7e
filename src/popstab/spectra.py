"""Eigen-analysis of assembled generators.

Covers the full measurement pipeline of the convergence experiments:
spectrum and spectral abscissa, matching of the eigenvalue nearest a
reference, reconstruction of the eigenfunction as the mixed derivative of
the interpolated integrated state, absolute errors on the eigenpair, and
sweeps over the degree with log-log order fitting.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .assembly import Axis, GeneratorMatrix, GeneratorOverflow, _samples, assemble
from .grid import interp_matrix
from .linalg import NoConvergence, SingularMatrix, eigenvalues, eigenvector, norm_inf
from .model import Model, NonpositiveVelocity, ReferenceEigenpair


# The failures of one discretization: a sweep records them and goes on, the
# command line exits 3 on them.
NUMERICAL_ERRORS = (GeneratorOverflow, SingularMatrix, NoConvergence, NonpositiveVelocity)


class MissingReference(ValueError):
    pass


class InsufficientData(ValueError):
    pass


class Verdict(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class EigenReport:
    """All eigenvalues of a generator, sorted by descending real part (ties
    by descending imaginary part).

    No eigenvector is stored: each call of :meth:`vector` computes one.
    """

    eigenvalues: np.ndarray
    generator: GeneratorMatrix

    @property
    def abscissa(self) -> float:
        """The spectral abscissa, the real part of the rightmost eigenvalue."""
        return float(self.eigenvalues[0].real)

    @cached_property
    def matrix_norm(self) -> float:
        """||generator.matrix||inf."""
        return norm_inf(self.generator.matrix)

    def vector(self, index: int) -> np.ndarray:
        """Right eigenvector of ``eigenvalues[index]``, unit norm, canonical
        phase, computed by inverse iteration on every call."""
        return eigenvector(self.generator.matrix, self.eigenvalues[index], self.matrix_norm)


@dataclass(frozen=True)
class ConvergenceRecord:
    """One degree of a sweep; ``error`` is set when that degree failed."""

    n: int
    m: int | None
    eps_lambda: float
    eps_phi: float
    lam: complex | None
    abscissa: float
    matrix_norm: float
    seconds: float
    error: str | None = None


def compute_spectrum(generator: GeneratorMatrix, k: int = 10) -> EigenReport:
    """All eigenvalues of the generator, sorted rightmost first.

    Only eigenvalues are computed here; :meth:`EigenReport.vector` computes
    an eigenvector.  ``k`` is only checked against the dimension.
    """
    if k < 1 or k > generator.dim:
        raise ValueError(f"k must be in 1..{generator.dim}")
    values = eigenvalues(generator.matrix)
    values = values[np.lexsort((-values.imag, -values.real))]
    return EigenReport(values, generator)


def _along(a: np.ndarray, values: np.ndarray, k: int) -> np.ndarray:
    """``a`` applied along axis k of a 1- or 2-axis array: from the left on
    axis 0, from the right on axis 1."""
    return a @ values if k == 0 else values @ a.T


def reconstruct_eigenfunction(psi, axes: tuple[Axis, ...], *targets):
    """Eigenfunction values from an eigenvector of the discretized generator.

    The eigenvector holds integrated-state values at the inner tensor grid
    of the axes; the eigenfunction is the mixed derivative of its
    interpolant (the plain derivative in 1-D), evaluated barycentrically
    at the tensor grid of the targets, one target array per axis.  Returns
    an array of shape (len(targets[0]), ...).
    """
    if len(targets) != len(axes):
        raise ValueError(f"expected {len(axes)} target arrays, got {len(targets)}")
    shape = tuple(ax.n for ax in axes)
    dim = math.prod(shape)
    psi = np.asarray(psi)
    if psi.shape != (dim,):
        raise ValueError(f"expected eigenvector of length {dim}")
    values = psi.reshape(shape)
    for k, ax in enumerate(axes):
        values = _along(ax.d, values, k)
    for k, (ax, t) in enumerate(zip(axes, targets)):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        values = _along(interp_matrix(ax.theta, t), values, k)
    return values


def eigen_errors(report: EigenReport, ref: ReferenceEigenpair) -> tuple[complex, float, float]:
    """The eigenvalue of the report nearest the reference and the absolute
    errors of that eigenpair: ``(lam, eps_lambda, eps_phi)``.

    The matched eigenvalue is the one nearest the reference, the first in
    the report's order on a tie.  Its eigenfunction is aligned with the
    reference by the complex scalar minimizing the weighted L2 distance on
    the tensor grid of the degree-2n Clenshaw-Curtis rule of each axis,
    and eps_phi is the weighted L1 norm of the aligned difference (nan
    when the reference has no eigenfunction).
    """
    if ref is None:
        raise MissingReference("a reference eigenpair is required")
    values = report.eigenvalues
    idx = np.lexsort((-values.imag, -values.real, np.abs(values - ref.lam)))[0]
    lam = complex(values[idx])
    psi = report.vector(idx)
    eps_lambda = float(abs(lam - ref.lam))
    if ref.phi is None:
        return lam, eps_lambda, float("nan")
    axes = report.generator.axes
    rules = [ax.cubature(2)[0] for ax in axes]
    nodes = [rule.nodes for rule in rules]
    # values beyond the float range make eps_phi inf or nan, not a warning
    with np.errstate(all="ignore"):
        phi_hat = reconstruct_eigenfunction(psi, axes, *nodes)
        phi_ref = _samples(ref.phi, "ref_phi", *np.ix_(*nodes))
        weights = reduce(np.multiply.outer, [rule.weights for rule in rules])
        denom = np.sum(weights * np.abs(phi_hat) ** 2)
        scale = np.sum(weights * np.conj(phi_hat) * phi_ref) / denom
        eps_phi = float(np.sum(weights * np.abs(scale * phi_hat - phi_ref)))
    return lam, eps_lambda, eps_phi


def stability_verdict(abscissa: float, tol: float) -> Verdict:
    """Classify the sign of the spectral abscissa at the given tolerance."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if abscissa < -tol:
        return Verdict.STABLE
    if abscissa > tol:
        return Verdict.UNSTABLE
    return Verdict.INCONCLUSIVE


def convergence_sweep(model: Model, n_list, oversample: int = 2) -> list[ConvergenceRecord]:
    """Errors against ``model.reference`` for each degree in n_list (with
    m = n for 2-D models).

    A degree that fails numerically is recorded with nan errors and the
    failure message; the sweep continues.
    """
    ref = model.reference
    if ref is None:
        raise MissingReference(
            "the model has no reference eigenpair (builtin or ref_lambda/ref_phi)"
        )
    records = []
    for n in n_list:
        m = dict(zip("nm", [n] * model.dimension)).get("m")  # None in 1-D
        start = time.perf_counter()
        lam, error = None, None
        eps_lambda = eps_phi = abscissa = matrix_norm = math.nan
        try:
            report = compute_spectrum(assemble(model, n, oversample=oversample), k=1)
            lam, eps_lambda, eps_phi = eigen_errors(report, ref)
            abscissa, matrix_norm = report.abscissa, report.matrix_norm
        except NUMERICAL_ERRORS as exc:
            error = str(exc)
        records.append(
            ConvergenceRecord(
                n, m, eps_lambda, eps_phi, lam, abscissa, matrix_norm,
                time.perf_counter() - start, error,
            )
        )
    return records


def plateau_threshold(record: ConvergenceRecord) -> float:
    """Error floor below which a record is excluded from order fits."""
    if not np.isfinite(record.matrix_norm):
        return 0.0
    return 10.0 * np.finfo(float).eps * record.matrix_norm


def fit_order(records, error_field: str = "eps_lambda") -> float:
    """Least-squares slope of log(error) against log(n).

    Records at the rounding plateau (error below 10 * eps * |B|) and failed
    records are excluded; at least three points must remain.
    """
    xs, ys = [], []
    for record in records:
        err = getattr(record, error_field)
        if record.error is not None or not np.isfinite(err) or err <= 0:
            continue
        if err <= plateau_threshold(record):
            continue
        xs.append(np.log(record.n))
        ys.append(np.log(err))
    if len(xs) < 3:
        raise InsufficientData(
            f"need at least 3 usable records to fit an order, have {len(xs)}"
        )
    slope = np.polyfit(xs, ys, 1)[0]
    return float(slope)
