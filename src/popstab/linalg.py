"""Dense linear-algebra kernel used by the discretization.

Thin contracts over LAPACK (via scipy): factorization-based solves with a
relative pivot guard and, for the dense eigenvalue path, the nonsymmetric
dense eigensolver (balancing + Hessenberg reduction + QR, which is what
*geev performs).  Eigenvalues are computed alone; :func:`eigenvector`
computes the right eigenvector of one of them by inverse iteration.  From
dimension BALANCE_MIN_DIM on, :func:`balance` does geev's balancing first
(xGEBAL's strided row norms took 4.3 s at dimension 2304).  Matrices are
plain float64 2-D numpy arrays.  The structured path, which forms no dense
generator, lives in :mod:`popstab.structured` and shares only
:func:`_canonicalize` with this module.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import NumericalFailure

# Relative pivot threshold: the trimmed differentiation matrices are
# nonsingular but increasingly ill-conditioned with the degree.
PIVOT_RTOL = 1e-13


class SingularMatrix(NumericalFailure):
    """A pivot underflowed the relative threshold during factorization."""


class NoConvergence(NumericalFailure):
    """The QR eigenvalue iteration failed to deflate."""


def as_matrix(a) -> np.ndarray:
    """``a`` as a float64 matrix; it must be square, nonempty and finite."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def norm_inf(a) -> float:
    """Maximum absolute row sum (for vectors, the max absolute entry)."""
    a = np.asarray(a)
    if a.ndim <= 1:
        return float(np.max(np.abs(a))) if a.size else 0.0
    # LAPACK xLANGE: no |a| temporary
    return float(scipy.linalg.norm(a, np.inf, check_finite=False))


def lu_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """LU with partial pivoting; raises SingularMatrix on a tiny pivot."""
    a = as_matrix(a)
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


def lu_solve(factors, b) -> np.ndarray:
    """Solve A X = B from the :func:`lu_factor` factors of A."""
    b = np.asarray(b, dtype=float)
    if b.shape[0] != factors[0].shape[0]:
        raise ValueError("right-hand side rows must match the matrix")
    return scipy.linalg.lu_solve(factors, b, check_finite=False)


# From this dimension on, balance() runs before geev (it is slower below ~170).
BALANCE_MIN_DIM = 256
BALANCE_SWEEPS = 64  # then geev gets the scaling found so far


def balance(a) -> tuple[np.ndarray, np.ndarray]:
    """xGEBAL's diagonal scaling of ``a``, without permutation: (D^-1 a D, d),
    exact with d of powers of two, the matrix in Fortran order.  Each sweep
    rescales every index at once, from norms taken as products with a**2;
    zero rows or columns, and scales beyond 2^±500, are left alone."""
    with np.errstate(all="ignore"):
        b, e = np.square(a, order="F"), np.zeros(len(a), dtype=int)
        for _ in range(BALANCE_SWEEPS):
            d2 = np.ldexp(1.0, 2 * e)
            c, r = np.sqrt(d2 * (b.T @ (1 / d2))), np.sqrt(b @ d2 / d2)
            lg = np.log2(r / c)
            # f = 2^k with r / 2 <= c 4^k < 2 r, kept if c f + r / f < 0.95 (c + r)
            k = np.ceil((np.where(np.isfinite(lg), lg, 1.0) - 1) / 2).astype(int)
            k = k + (np.ldexp(c, 2 * k + 1) < r) - (np.ldexp(c, 2 * k - 1) >= r)
            step = np.isfinite(lg) & (np.abs(e + k) <= 500)
            step &= np.ldexp(c, k) + np.ldexp(r, -k) < 0.95 * (c + r)
            if not step.any():
                break
            e[step] += k[step]
        d = np.ldexp(1.0, e)
        np.multiply(a, d, out=b)
        b /= d[:, None]
    return b, d


def eigenvalues(m) -> np.ndarray:
    """All eigenvalues of a real square matrix, without eigenvectors.

    LAPACK's *geev asked for no vectors (see :func:`eigenvector`).  From
    BALANCE_MIN_DIM on it gets the copy that :func:`balance` scales.
    """
    m = as_matrix(m)
    own = len(m) >= BALANCE_MIN_DIM
    try:
        m = balance(m)[0] if own else m
        return scipy.linalg.eig(m, right=False, check_finite=False, overwrite_a=own)
    except scipy.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


# Inverse-iteration steps before the last iterate is accepted as it is.
INVERSE_ITERATIONS = 3


def _canonicalize(x: np.ndarray) -> np.ndarray:
    """``x`` at unit Euclidean norm with its first significant component
    rotated to be real and positive, so repeated runs give identical output."""
    # the column-norm reduction; np.linalg.norm(x) rounds differently
    x = np.array(x / np.linalg.norm(x[:, None], axis=0), dtype=complex)
    mags = np.abs(x)
    lead = x[np.flatnonzero(mags > 1e-12 * mags.max())[0]]
    return x * (np.conj(lead) / np.abs(lead))


def eigenvector(m, lam: complex, norm: float) -> np.ndarray:
    """Right eigenvector of ``m`` for ``lam``, one of its computed eigenvalues.

    ``norm`` is ``norm_inf(m)``.  Inverse iteration with the shifted matrix
    ``m - lam I`` (real arithmetic for a real ``lam``) from a fixed start,
    so the conjugate of ``lam`` gets the conjugate vector.  The result has
    unit norm and a real, positive first significant component.  Beside
    ``m`` it allocates one dim x dim array: the shifted matrix, factored in
    place (complex, so twice the bytes of ``m``, for a complex ``lam``).
    """
    dim = m.shape[0]
    # Fortran order, so that getrf factors this one copy in place
    if lam.imag == 0:
        shifted = np.array(m, order="F")
        shifted[np.diag_indices(dim)] -= lam.real
    else:
        shifted = m.astype(complex, order="F")
        shifted[np.diag_indices(dim)] -= lam
    with warnings.catch_warnings():
        # the shifted matrix is singular on purpose; tiny pivots are
        # raised to eps3 below instead of failing the guard of lu_factor
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(shifted, overwrite_a=True, check_finite=False)
    # the pivot floor of LAPACK's xHSEIN inverse iteration
    eps3 = np.finfo(float).eps * (norm or 1.0)
    tiny = np.flatnonzero(np.abs(np.diagonal(lu)) < eps3)
    lu[tiny, tiny] = eps3
    # fixed start: deterministic, and generic in every eigendirection
    x = np.random.default_rng(0).standard_normal(dim).astype(lu.dtype)
    for _ in range(INVERSE_ITERATIONS):
        y = scipy.linalg.lu_solve((lu, piv), x / np.linalg.norm(x), check_finite=False)
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.linalg.norm(y)
        if not 0 < size < np.inf:
            raise NoConvergence(f"inverse iteration for eigenvalue {lam} lost its iterate")
        x = y
        # LAPACK's acceptance test: the residual 1 / ||y|| is within
        # 10 sqrt(dim) eps3
        if size * np.sqrt(dim) * eps3 >= 0.1:
            break
    return _canonicalize(x)
