"""Dense linear-algebra kernel used by the discretization.

Thin contracts over LAPACK (via scipy): factorization-based solves with a
relative pivot guard, Kronecker products, and the nonsymmetric dense
eigensolver (balancing + Hessenberg reduction + QR, which is what *geev
performs).  Eigenvalues can be computed alone, with each right eigenvector
computed afterwards by inverse iteration when it is needed.  Matrices are
plain float64 2-D numpy arrays.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

# Relative pivot threshold: the trimmed differentiation matrices are
# nonsingular but increasingly ill-conditioned with the degree.
PIVOT_RTOL = 1e-13


class SingularMatrix(ArithmeticError):
    """A pivot underflowed the relative threshold during factorization."""


class NoConvergence(ArithmeticError):
    """The QR eigenvalue iteration failed to deflate."""


def as_matrix(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def norm_inf(a) -> float:
    """Maximum absolute row sum (for vectors, the max absolute entry)."""
    a = np.asarray(a)
    if a.ndim <= 1:
        return float(np.max(np.abs(a))) if a.size else 0.0
    return float(np.max(np.sum(np.abs(a), axis=1)))


def lu_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """LU with partial pivoting; raises SingularMatrix on a tiny pivot."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ValueError("matrix must be square")
    with warnings.catch_warnings():
        # exact singularity is reported through the pivot threshold below
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(a, check_finite=False)
    pivots = np.abs(np.diag(lu))
    if np.min(pivots) <= PIVOT_RTOL * norm_inf(a):
        raise SingularMatrix(
            f"pivot {np.min(pivots):.3e} below threshold for matrix of "
            f"inf-norm {norm_inf(a):.3e}"
        )
    return lu, piv


def lu_solve(a, b) -> np.ndarray:
    """Solve A X = B by pivoted LU; B may be a vector or a matrix."""
    factors = lu_factor(a)
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factors[0].shape[0]:
        raise ValueError("right-hand side rows must match the matrix")
    return scipy.linalg.lu_solve(factors, b, check_finite=False)


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is A[i, j] * B."""
    return np.kron(as_matrix(a), as_matrix(b))


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues with index-paired right eigenvectors (as columns).

    Vectors have unit Euclidean norm with the first significant component
    rotated to be real and positive, so repeated runs give identical output.
    """

    values: np.ndarray
    vectors: np.ndarray


def _square(m) -> np.ndarray:
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    return m


def _canonicalize(vectors: np.ndarray) -> np.ndarray:
    vectors = vectors / np.linalg.norm(vectors, axis=0, keepdims=True)
    out = np.array(vectors, dtype=complex)
    for j in range(out.shape[1]):
        col = out[:, j]
        mags = np.abs(col)
        significant = np.nonzero(mags > 1e-12 * mags.max())[0]
        lead = col[significant[0]]
        out[:, j] = col * (np.conj(lead) / np.abs(lead))
    return out


def eigen_dense(m) -> EigenDecomposition:
    """All eigenvalues and right eigenvectors of a real square matrix."""
    m = _square(m)
    try:
        values, vectors = scipy.linalg.eig(m, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return EigenDecomposition(values, _canonicalize(vectors))


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a real square matrix, without eigenvectors.

    The same *geev driver as :func:`eigen_dense`, asked for no vectors.
    """
    m = _square(m)
    try:
        return scipy.linalg.eig(m, right=False, check_finite=False)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


# Computed eigenvalues closer than this, relative to ||m||inf, are taken
# as one repeated eigenvalue and get mutually orthogonal vectors.
REPEAT_RTOL = 1e-12
# Inverse-iteration steps before the last iterate is accepted as it is.
INVERSE_ITERATIONS = 3


class Eigenvectors:
    """Right eigenvectors of ``m`` for its computed ``values``, on demand.

    ``m`` is the matrix given to :func:`eigenvalues`, ``values`` what that
    returned (in any order) and ``norm`` is ``norm_inf(m)``.

    Indexing with j computes the vector of ``values[j]`` on first read, by
    inverse iteration with the shifted matrix ``m - values[j] I`` (real
    arithmetic for a real eigenvalue), and caches it.  The partner of a
    conjugate pair gets the conjugate of the vector of the member with
    positive imaginary part.  A repeated eigenvalue (see ``REPEAT_RTOL``)
    gets a vector orthogonal to those of its earlier copies, so the copies
    span the eigenspace of a semisimple eigenvalue.  Vectors are
    canonicalized as in :func:`eigen_dense`.
    """

    def __init__(self, m: np.ndarray, values: np.ndarray, norm: float):
        self._m = m
        self._values = values
        # the pivot floor of LAPACK's xHSEIN inverse iteration
        self._eps3 = np.finfo(float).eps * (norm or 1.0)
        self._repeat_tol = REPEAT_RTOL * norm
        self._cache: dict[int, np.ndarray] = {}

    def __getitem__(self, j: int) -> np.ndarray:
        if not 0 <= j < self._values.size:
            raise IndexError(f"eigenvalue index {j} outside 0..{self._values.size - 1}")
        if j not in self._cache:
            lam = self._values[j]
            if lam.imag < 0:
                partner = int(np.flatnonzero(self._values == np.conj(lam))[0])
                self._cache[j] = np.conj(self[partner])
            else:
                earlier = [
                    i for i in range(j)
                    if self._values[i].imag >= 0
                    and abs(self._values[i] - lam) <= self._repeat_tol
                ]
                self._cache[j] = self._inverse_iteration(lam, [self[i] for i in earlier])
        return self._cache[j]

    def _inverse_iteration(self, lam: complex, earlier: list) -> np.ndarray:
        dim = self._m.shape[0]
        if lam.imag == 0:
            shifted = self._m.copy()
            shifted[np.diag_indices(dim)] -= lam.real
        else:
            shifted = self._m.astype(complex)
            shifted[np.diag_indices(dim)] -= lam
        with warnings.catch_warnings():
            # the shifted matrix is singular on purpose; tiny pivots are
            # raised to eps3 below instead of failing the guard of lu_factor
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(shifted, overwrite_a=True, check_finite=False)
        diag = np.diagonal(lu)
        tiny = np.flatnonzero(np.abs(diag) < self._eps3)
        lu[tiny, tiny] = self._eps3
        basis = np.column_stack(earlier) if earlier else None
        # fixed start: deterministic, and generic in every eigendirection
        x = np.random.default_rng(0).standard_normal(dim).astype(lu.dtype)
        for _ in range(INVERSE_ITERATIONS):
            y = scipy.linalg.lu_solve((lu, piv), x / np.linalg.norm(x), check_finite=False)
            if basis is not None:
                y = y - basis @ (basis.conj().T @ y)
            x = y
            # LAPACK's acceptance test: the residual 1 / ||y|| is within
            # 10 sqrt(dim) eps3
            if np.linalg.norm(y) * np.sqrt(dim) * self._eps3 >= 0.1:
                break
        return _canonicalize(x[:, None])[:, 0]
