"""Eigen-analysis of assembled generators.

Covers the full measurement pipeline of the convergence experiments:
spectrum and spectral abscissa, matching of the eigenvalue nearest a
reference, reconstruction of the eigenfunction as the mixed derivative of
the interpolated integrated state, absolute errors on the eigenpair, and
sweeps over the degree with log-log order fitting.

Two paths compute eigenvalues.  The dense path computes all of them.  For
k = 1 on a generator that :func:`structured.applies` to, the structured
path computes only the rightmost eigenpairs, certified by a count, and takes
the one nearest a reference from those when the count decides it, by
shift-invert otherwise, without a dense matrix; when it cannot solve or
certify, the dense path runs instead.
"""

from __future__ import annotations

import enum
import math
import time
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .assembly import Axis, GeneratorMatrix, _samples, assemble
from .errors import ConfigError, NumericalFailure, describe
from .grid import interp_matrix
from .linalg import eigenvalues, eigenvector, norm_inf
from .model import Model, ReferenceEigenpair
from .structured import StructuredSolver, Uncertified, _closest, applies


class MissingReference(ConfigError):
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
    """The computed eigenvalues of a generator, sorted by descending real
    part (ties by descending imaginary part).

    On the dense path (``solver``, ``vectors`` and ``line`` None) these are
    all eigenvalues, and no eigenvector is stored: each call of
    :meth:`vector` computes one.  On the structured path they are those
    right of the line Re z = ``line`` whose count certified them, ``vectors``
    holds the eigenvectors that refined them, one row each, and ``solver``
    the generator's :class:`StructuredSolver`.
    """

    eigenvalues: np.ndarray
    generator: GeneratorMatrix
    solver: StructuredSolver | None = None
    vectors: np.ndarray | None = None
    line: float | None = None

    @property
    def path(self) -> str:
        """Which path computed the eigenvalues: "dense" or "structured"."""
        return "dense" if self.solver is None else "structured"

    @property
    def abscissa(self) -> float:
        """The spectral abscissa, the real part of the rightmost eigenvalue."""
        return float(self.eigenvalues[0].real)

    @cached_property
    def matrix_norm(self) -> float:
        """||generator.matrix||inf (on the structured path, from the factors)."""
        if self.solver is not None:
            return self.solver.norm
        return norm_inf(self.generator.matrix)

    def vector(self, index: int) -> np.ndarray:
        """Right eigenvector of ``eigenvalues[index]``, unit norm, canonical
        phase: on the dense path computed by inverse iteration on every
        call, on the structured path the one whose refinement certified the
        eigenvalue (``vectors[index]``)."""
        if self.vectors is not None:
            return self.vectors[index].copy()
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
    """The eigenvalues of the generator, sorted rightmost first.

    For k = 1 on a generator the structured path applies to, the rightmost
    eigenvalues certified by a count; otherwise, and whenever that path
    cannot certify, all eigenvalues, from the dense matrix.  Only
    eigenvalues are computed here; :meth:`EigenReport.vector` computes an
    eigenvector.  ``k`` must lie in 1..dim.
    """
    if k < 1 or k > generator.dim:
        raise ValueError(f"k must be in 1..{generator.dim}")
    if k == 1 and applies(generator):
        try:
            solver = StructuredSolver(generator)
            values, vectors, line = solver.rightmost()
            return EigenReport(values, generator, solver, vectors, line)
        except Uncertified:
            pass
    return _dense_report(generator)


def _dense_report(generator: GeneratorMatrix) -> EigenReport:
    values = eigenvalues(generator.matrix)
    return EigenReport(values[np.lexsort((-values.imag, -values.real))], generator)


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
    the report's order on a tie.  On the structured path the count that
    certified the report proves every other eigenvalue to lie left of
    ``report.line``, so the nearest certified eigenvalue is the match, with
    its vector from ``report.vectors``, when it is closer to the reference
    than Re ref.lam - line; otherwise the match comes from shift-invert at
    the reference, with the same tie rule, and brings its refined
    eigenvector; the dense path runs instead when that fails.
    The eigenfunction is aligned with the reference by the complex scalar
    minimizing the weighted L2 distance on the tensor grid of the
    degree-2n Clenshaw-Curtis rule of each axis, and eps_phi is the
    weighted L1 norm of the aligned difference (nan when the reference has
    no eigenfunction, and then no eigenvector is computed).
    """
    if ref is None:
        raise MissingReference("a reference eigenpair is required")
    idx = _closest(report.eigenvalues, ref.lam)
    lam, psi = complex(report.eigenvalues[idx]), None
    # on the structured path every eigenvalue outside the report lies at
    # Re z <= report.line, at least Re ref.lam - line from the reference
    if report.line is not None and not abs(lam - ref.lam) < ref.lam.real - report.line:
        try:
            lam, psi = report.solver.nearest(ref.lam)
        except Uncertified:
            return eigen_errors(_dense_report(report.generator), ref)
    elif ref.phi is not None:
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


def _sweep_degree(
    model: Model, n: int, oversample: int, ref: ReferenceEigenpair
) -> tuple[complex, float, float, float, float]:
    """``(lam, eps_lambda, eps_phi, abscissa, matrix_norm)`` at degree n.

    The report, and with it the generator, dies on return, so a sweep never
    holds one degree's generator while it assembles the next.
    """
    report = compute_spectrum(assemble(model, n, oversample=oversample), k=1)
    return (*eigen_errors(report, ref), report.abscissa, report.matrix_norm)


def convergence_sweep(model: Model, n_list, oversample: int = 2) -> list[ConvergenceRecord]:
    """Errors against ``model.reference`` for each degree in n_list (with
    m = n for 2-D models).

    A degree that fails numerically, or runs out of memory, is recorded with
    nan errors and the failure message; the sweep continues.
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
            lam, eps_lambda, eps_phi, abscissa, matrix_norm = _sweep_degree(
                model, n, oversample, ref
            )
        except (NumericalFailure, MemoryError) as exc:
            error = describe(exc)
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
