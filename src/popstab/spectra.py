"""Eigen-analysis of assembled generators.

Covers the full measurement pipeline of the convergence experiments:
spectrum and spectral abscissa, matching of the eigenvalue nearest a
reference, reconstruction of the eigenfunction as the mixed derivative of
the interpolated integrated state, absolute errors on the eigenpair, and
sweeps over the degree with log-log order fitting.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .assembly import CollocationGrids, GeneratorMatrix, assemble_1d, assemble_2d
from .grid import cheb_grid, interp_matrix
from .linalg import Eigenvectors, NoConvergence, SingularMatrix, eigenvalues, norm_inf
from .model import Model1D, Model2D, NonpositiveVelocity, ReferenceEigenpair
from .quad import CCRule, TensorCubature, cc_weights, tensor_rule


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


@dataclass
class EigenReport:
    """Spectrum of a generator, optionally matched against a reference.

    Eigenvalues are sorted by descending real part (ties by descending
    imaginary part).  Eigenvectors are not stored: :meth:`vector` computes
    the one of a given eigenvalue on first read, and ``vectors`` holds
    those of the first k.  The matching fields are filled by
    :func:`eigen_errors`.
    """

    eigenvalues: np.ndarray
    abscissa: float
    generator: GeneratorMatrix
    k: int
    matched: complex | None = None
    matched_vector: np.ndarray | None = None
    eps_lambda: float | None = None
    eps_phi: float | None = None
    phi_samples: np.ndarray | None = None

    @cached_property
    def matrix_norm(self) -> float:
        """||generator.matrix||inf."""
        return norm_inf(self.generator.matrix)

    @cached_property
    def _eigenvectors(self) -> Eigenvectors:
        return Eigenvectors(self.generator.matrix, self.eigenvalues, self.matrix_norm)

    def vector(self, index: int) -> np.ndarray:
        """Right eigenvector of ``eigenvalues[index]``, unit norm, canonical phase."""
        return self._eigenvectors[index]

    @property
    def vectors(self) -> np.ndarray:
        """Eigenvectors of the k rightmost eigenvalues, as columns."""
        return np.column_stack([self.vector(j) for j in range(self.k)])


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

    Only eigenvalues are computed here; an eigenvector is computed when it
    is read from the report (``k`` sets which ones ``vectors`` holds).
    """
    if k < 1 or k > generator.dim:
        raise ValueError(f"k must be in 1..{generator.dim}")
    values = eigenvalues(generator.matrix)
    values = values[np.lexsort((-values.imag, -values.real))]
    return EigenReport(
        eigenvalues=values,
        abscissa=float(values[0].real),
        generator=generator,
        k=k,
    )


def reconstruct_eigenfunction(psi, grids: CollocationGrids, x_targets, y_targets=None):
    """Eigenfunction values from an eigenvector of the discretized generator.

    The eigenvector holds integrated-state values at the inner tensor grid;
    the eigenfunction is the mixed derivative of its interpolant, evaluated
    barycentrically at the targets.  In 1-D the reconstruction is the plain
    derivative.  Returns a (len(x_targets), len(y_targets)) array in 2-D and
    a vector in 1-D.
    """
    psi = np.asarray(psi)
    x_targets = np.atleast_1d(np.asarray(x_targets, dtype=float))
    if grids.y is None:
        if psi.shape != (grids.n,):
            raise ValueError(f"expected eigenvector of length {grids.n}")
        inner = grids.dx.trimmed @ psi
        return interp_matrix(grids.theta_x, x_targets) @ inner
    n, m = grids.n, grids.m
    if psi.shape != (n * m,):
        raise ValueError(f"expected eigenvector of length {n * m}")
    y_targets = np.atleast_1d(np.asarray(y_targets, dtype=float))
    inner = grids.dx.trimmed @ psi.reshape(n, m) @ grids.dy.trimmed.T
    ex = interp_matrix(grids.theta_x, x_targets)
    ey = interp_matrix(grids.theta_y, y_targets)
    return ex @ inner @ ey.T


def default_error_rule(generator: GeneratorMatrix):
    """Evaluation rule for eigenfunction errors: degree 2n per axis."""
    grids = generator.grids
    if grids.y is None:
        return cc_weights(cheb_grid(grids.x.a, grids.x.b, 2 * grids.n))
    return tensor_rule(
        grids.x.a, grids.x.b, grids.y.a, grids.y.b, 2 * grids.n, 2 * grids.m
    )


def _match_reference(report: EigenReport, lam_ref: float) -> int:
    values = report.eigenvalues
    dist = np.abs(values - lam_ref)
    order = np.lexsort((-values.imag, -values.real, dist))
    return int(order[0])


def eigen_errors(
    report: EigenReport,
    ref: ReferenceEigenpair,
    rule: TensorCubature | CCRule | None = None,
) -> tuple[float, float]:
    """Absolute errors of the matched eigenpair against the reference.

    The matched eigenvalue minimizes the modulus of the difference from the
    reference.  The reconstructed eigenfunction is aligned with the
    reference by the complex scalar minimizing the rule-weighted L2
    distance, and the eigenfunction error is the weighted L1 norm of the
    aligned difference.  Both errors are stored on the report.
    """
    if ref is None:
        raise MissingReference("a reference eigenpair is required")
    generator = report.generator
    if rule is None:
        rule = default_error_rule(generator)
    idx = _match_reference(report, ref.lam)
    lam_hat = complex(report.eigenvalues[idx])
    psi = report.vector(idx)
    eps_lambda = float(abs(lam_hat - ref.lam))
    report.matched = lam_hat
    report.matched_vector = psi
    report.eps_lambda = eps_lambda
    if ref.phi is None:
        report.eps_phi = float("nan")
        return eps_lambda, report.eps_phi
    grids = generator.grids
    if grids.y is None:
        nodes = rule.nodes
        phi_hat = reconstruct_eigenfunction(psi, grids, nodes)
        phi_ref = np.broadcast_to(
            np.asarray(ref.phi(nodes), dtype=float), phi_hat.shape
        )
        weights = rule.weights
    else:
        xs = rule.x_rule.nodes
        ys = rule.y_rule.nodes
        phi_hat = reconstruct_eigenfunction(psi, grids, xs, ys)
        phi_ref = np.broadcast_to(
            np.asarray(ref.phi(xs[:, None], ys[None, :]), dtype=float),
            phi_hat.shape,
        )
        weights = rule.weights
    denom = np.sum(weights * np.abs(phi_hat) ** 2)
    scale = np.sum(weights * np.conj(phi_hat) * phi_ref) / denom
    report.phi_samples = scale * phi_hat
    report.eps_phi = float(np.sum(weights * np.abs(scale * phi_hat - phi_ref)))
    return eps_lambda, report.eps_phi


def stability_verdict(abscissa: float, tol: float) -> Verdict:
    """Classify the sign of the spectral abscissa at the given tolerance."""
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    if abscissa < -tol:
        return Verdict.STABLE
    if abscissa > tol:
        return Verdict.UNSTABLE
    return Verdict.INCONCLUSIVE


def _assemble(model, n: int, oversample: int) -> GeneratorMatrix:
    if isinstance(model, Model1D):
        return assemble_1d(model, n, oversample)
    return assemble_2d(model, n, n, oversample)


def analyze(model, n: int, oversample: int = 2, reference=None) -> EigenReport:
    """Assemble at degree n (m = n in 2-D), solve, and measure errors."""
    ref = reference if reference is not None else model.reference
    generator = _assemble(model, n, oversample)
    report = compute_spectrum(generator, k=min(10, generator.dim))
    if ref is not None:
        eigen_errors(report, ref)
    return report


def convergence_sweep(
    model: Model2D | Model1D,
    reference: ReferenceEigenpair | None,
    n_list,
    oversample: int = 2,
) -> list[ConvergenceRecord]:
    """Errors for each degree in n_list (with m = n for 2-D models).

    A degree that fails numerically is recorded with nan errors and the
    failure message; the sweep continues.
    """
    ref = reference if reference is not None else model.reference
    if ref is None:
        raise MissingReference("convergence sweeps need a reference eigenpair")
    records = []
    for n in n_list:
        start = time.perf_counter()
        try:
            generator = _assemble(model, n, oversample)
            report = compute_spectrum(generator, k=1)
            eps_lambda, eps_phi = eigen_errors(report, ref)
            records.append(
                ConvergenceRecord(
                    n=n,
                    m=generator.m,
                    eps_lambda=eps_lambda,
                    eps_phi=eps_phi,
                    lam=report.matched,
                    abscissa=report.abscissa,
                    matrix_norm=report.matrix_norm,
                    seconds=time.perf_counter() - start,
                )
            )
        except (SingularMatrix, NoConvergence, NonpositiveVelocity) as exc:
            records.append(
                ConvergenceRecord(
                    n=n,
                    m=None if isinstance(model, Model1D) else n,
                    eps_lambda=float("nan"),
                    eps_phi=float("nan"),
                    lam=None,
                    abscissa=float("nan"),
                    matrix_norm=float("nan"),
                    seconds=time.perf_counter() - start,
                    error=str(exc),
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
