"""Structured shift-invert for 2-D generators with a separable mu.

Such a generator is G = L + U W^T.  L X = -P_x X - X P_y^T is the Kronecker
sum of the per-axis blocks, acting on the n x m array X[i, j] of a vector
(row-major, as ``matrix.reshape(n, m, dim)`` reads it), and U W^T is the
boundary term: the stacked row factors [V_alpha; V_beta] = C W^T are
compressed to rank r by a randomized range finder (Halko, Martinsson &
Tropp, SIAM Review 53(2), 2011), and column k of U is
``np.add.outer(C[:n, k], C[n:, k])``.

All work happens in Schur coordinates, taken once per generator:
P_x = Q_x T_x Q_x^T and P_y^T = Q_y T_y Q_y^T (real Schur forms), so that
(L - zI) X = R is the quasi-triangular Sylvester equation
(T_x + zI) Y + Y T_y = -Q_x^T R Q_y, solved by LAPACK ``trsyl``
(Bartels & Stewart, CACM 15(9), 1972), and (G - zI)^{-1} follows by the
Woodbury formula with the r x r capacitance K(z) = I + W^T (L - zI)^{-1} U,
factored once per shift.  A real shift stays in real arithmetic, so ARPACK's
real nonsymmetric routines (dnaupd, dneupd) return real eigenvalues with an
imaginary part of exactly 0.0 and exact conjugate pairs.  A complex shift
uses the complex Schur forms.

- :meth:`StructuredSolver.rightmost` runs ARPACK on (G - sigma I)^{-1} at
  sigma = 0 and certifies its rightmost Ritz values by the argument
  principle: det(G - zI) = det(L - zI) det K(z), so the number of
  eigenvalues right of Re z = c is N_L(c), the eigenvalues of L there, plus
  the winding number of det K along the line.  det K is sampled on the
  upper half of the line only (G is real, so the lower half is its mirror
  image), and only up to |z| = ``tail``, beyond which K provably stays
  within 1/2 of I: the far part of the line and the closing arc are proven,
  the near part is sampled and refined heuristically.
- :meth:`StructuredSolver.nearest` is shift-invert at a given real shift,
  for a reference that the certified eigenvalues do not decide.
- :meth:`StructuredSolver.eigenvector` returns (L - lam I)^{-1} U k, with k
  the null vector of K(lam).

Every failure (ARPACK without convergence, ``trsyl`` near a singular
Sylvester operator, a singular K, a count that does not certify) raises
:class:`Uncertified`; the caller then takes the dense path.  No nm x nm
array is formed, and ARPACK is imported on first use only.
"""

from __future__ import annotations

import cmath
import functools
import math
import warnings

import numpy as np
import scipy.linalg

from .assembly import GeneratorMatrix, _overflow
from .linalg import _canonicalize

# From this dimension on, a 2-D generator with separable mu takes the
# structured path for the abscissa and the eigenpair nearest a reference.
# The measured crossover on ex2_1, ex1_4 and velocity: at dim 196
# (n = m = 14) dense was faster on velocity in each of three measurements,
# from dim 225 on the structured path was faster on all three
# (BENCH_half_line_count.json).
STRUCTURED_MIN_DIM = 225

# Singular values of the stacked boundary factor below this fraction of the
# largest are dropped.
RANK_RTOL = 64 * np.finfo(float).eps
SKETCH_SAMPLES = 10

# ARPACK: Ritz values per run, their tolerance, and a cap on restarts.
RITZ_VALUES = 4
ARPACK_TOL = 1e-12
ARPACK_RESTARTS = 300

# The count: det K sampled at sinh-spaced points c + i omega,
# 0 <= omega <= W, up to the first one where K is provably within 1/2 of I,
# each phase step refined to at most PHASE_STEP rad, at most MAX_EVALUATIONS
# evaluations of det K on the whole line (each one off the real axis counts
# twice, for its mirror image).
COUNT_SAMPLES = 201
COUNT_HALF_WIDTH = 1e6
PHASE_STEP = 0.5
MAX_EVALUATIONS = 4000
# Ritz values whose real parts lie within this fraction of max(1, |re|) of
# the rightmost one count as its group.
GROUP_RTOL = 1e-8


class Uncertified(ArithmeticError):
    """The structured path could not solve or certify; use the dense path."""


def applies(generator: GeneratorMatrix) -> bool:
    """Whether the structured path is tried: two axes, separable mu, and
    dimension at least STRUCTURED_MIN_DIM."""
    return (
        len(generator.axes) == 2
        and generator.mu is None
        and generator.dim >= STRUCTURED_MIN_DIM
    )


def _compress(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C (rows x r) and W^T (r x cols) with stacked = C W^T up to the
    singular values cut at RANK_RTOL, from a fixed-seed sketch that grows
    until it holds a dropped direction."""
    rows, cols = stacked.shape
    rng = np.random.default_rng(0)
    samples = SKETCH_SAMPLES
    while True:
        if samples >= rows:
            q = np.eye(rows)
        else:
            q = np.linalg.qr(stacked @ rng.standard_normal((cols, samples)))[0]
        u, s, wt = scipy.linalg.svd(q.T @ stacked, full_matrices=False)
        r = int(np.count_nonzero(s > RANK_RTOL * s[0])) if s[0] > 0 else 0
        if r < samples or samples >= rows:
            return (q @ u[:, :r]) * s[:r], wt[:r]
        samples *= 2


class _Shift:
    """(G - zI)^{-1} at one shift z, in Schur coordinates: the Sylvester
    solve with T_x + zI, (L - zI)^{-1} U and the capacitance K(z)."""

    def __init__(self, tx: np.ndarray, ty: np.ndarray, u: np.ndarray, w: np.ndarray, z):
        self.a = tx.astype(np.result_type(tx, z))
        self.a[np.diag_indices(len(tx))] += z
        self.ty = ty
        self.trsyl = scipy.linalg.get_lapack_funcs("trsyl", (self.a, ty))
        self.zu = np.array([self.solve(uk) for uk in u])
        self.k = np.eye(len(u)) + np.tensordot(w, self.zu, axes=([1, 2], [1, 2]))
        if not np.isfinite(self.k).all():
            raise Uncertified(f"the capacitance at {z} is not finite")

    def solve(self, r: np.ndarray) -> np.ndarray:
        """(L - zI)^{-1} of the Schur-coordinate array r."""
        y, scale, info = self.trsyl(self.a, self.ty, -r)
        if info != 0:
            raise Uncertified(f"trsyl returned info {info}")
        return y / scale

    def factor(self) -> tuple:
        with warnings.catch_warnings():
            # exact singularity is reported below
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(self.k, check_finite=False)
        # a nearly singular K is what shift-invert near an eigenvalue gives
        if not np.diag(lu).all():
            raise Uncertified("the capacitance is singular at the shift")
        return lu, piv


def _quiet(method):
    """``method`` with floating-point warnings off: values beyond the float
    range show as non-finite results, which raise :class:`Uncertified`."""

    @functools.wraps(method)
    def wrapper(*args):
        with np.errstate(all="ignore"):
            return method(*args)

    return wrapper


class StructuredSolver:
    """The Schur forms and the compressed boundary term of one generator;
    raises :class:`GeneratorOverflow` when ||G||inf, taken from the factors,
    is not finite, and :class:`Uncertified` when the boundary term is 0."""

    @_quiet
    def __init__(self, generator: GeneratorMatrix):
        ax, ay = generator.axes
        self.shape = n, m = ax.n, ay.n
        px, py = generator.blocks
        beta, alpha = generator.rows
        self.norm = _norm_inf(px, py, alpha.reshape(n, n, m), beta.reshape(m, n, m))
        if not math.isfinite(self.norm):
            raise _overflow(generator.axes)
        try:
            self.tx, self.qx = scipy.linalg.schur(px)
            self.ty, self.qy = scipy.linalg.schur(py.T)
            c, wt = _compress(np.concatenate([alpha.reshape(n, -1), beta.reshape(m, -1)]))
        except scipy.linalg.LinAlgError as exc:
            raise Uncertified(str(exc)) from exc
        if not len(wt):
            raise Uncertified("the boundary term is 0")
        # U and W as r arrays of shape (n, m), in Schur coordinates
        u = np.array([np.add.outer(c[:n, k], c[n:, k]) for k in range(len(wt))])
        self.u = self._to_schur(u)
        self.w = self._to_schur(wt.reshape(-1, n, m))
        # ||L|| <= ||P_x|| + ||P_y||, so ||(L - zI)^{-1}|| <= 1 / (|z| - ||L||)
        # and ||K(z) - I|| <= 1/2 wherever |z| >= tail
        self.tail = float(
            np.linalg.norm(px, 2) + np.linalg.norm(py, 2)
            + 2 * np.linalg.norm(self.u) * np.linalg.norm(self.w)
        )
        # the line Re z = c of the count that certified rightmost()
        self.line = None

    def _to_schur(self, arrays: np.ndarray) -> np.ndarray:
        return np.array([self.qx.T @ a @ self.qy for a in arrays])

    def _shift(self, z) -> _Shift:
        if z.imag == 0:
            return _Shift(self.tx, self.ty, self.u, self.w, z.real)
        return _Shift(*self._complex_schur[:4], z)

    @functools.cached_property
    @_quiet
    def _complex_schur(self) -> tuple[np.ndarray, ...]:
        """T_x, T_y, U and W in complex Schur coordinates, and the unitary
        S_x and S_y: the real Schur forms are T = S T_c S^H."""
        tx, sx = scipy.linalg.rsf2csf(self.tx, np.eye(len(self.tx)))
        ty, sy = scipy.linalg.rsf2csf(self.ty, np.eye(len(self.ty)))
        u = np.array([sx.conj().T @ a @ sy for a in self.u])
        w = np.array([sx.T @ a @ sy.conj() for a in self.w])
        return tx, ty, u, w, sx, sy

    @_quiet
    def _ritz(self, sigma: float) -> np.ndarray:
        """RITZ_VALUES eigenvalues of G nearest the real shift sigma, by
        ARPACK on (G - sigma I)^{-1}; real ones have imaginary part 0.0."""
        from scipy.sparse.linalg import ArpackError, ArpackNoConvergence, LinearOperator, eigs

        shift = self._shift(complex(sigma))
        lu = shift.factor()
        shape = self.shape

        def apply(b):
            y = shift.solve(b.reshape(shape))
            coef = scipy.linalg.lu_solve(lu, np.tensordot(self.w, y, 2), check_finite=False)
            return (y - np.tensordot(coef, shift.zu, 1)).ravel()

        dim = math.prod(shape)
        op = LinearOperator((dim, dim), matvec=apply, dtype=float)
        v0 = np.random.default_rng(0).standard_normal(dim)
        try:
            nu = eigs(
                op, RITZ_VALUES, which="LM", v0=v0, tol=ARPACK_TOL,
                maxiter=ARPACK_RESTARTS, return_eigenvectors=False,
            )
        except (ArpackNoConvergence, ArpackError) as exc:
            raise Uncertified(str(exc)) from exc
        if not (np.isfinite(nu).all() and np.all(nu != 0)):
            raise Uncertified("ARPACK returned a Ritz value of 0 or not finite")
        lam = sigma + 1.0 / nu
        # 1 / (a + 0j) may carry an imaginary part of -0.0
        lam = np.where(nu.imag == 0, lam.real + 0j, lam)
        return lam[np.lexsort((-lam.imag, -lam.real))]

    @_quiet
    def rightmost(self) -> np.ndarray:
        """The eigenvalues of G right of a line Re z = c, rightmost first:
        the rightmost group of Ritz values at sigma = 0, certified by a count
        right of c, in the gap to the next Ritz value, that equals its
        size.  Sets ``line`` to c."""
        lam = self._ritz(0.0)
        top = lam[0].real
        in_group = lam.real >= top - GROUP_RTOL * max(1.0, abs(top))
        if in_group.all():
            raise Uncertified("no gap after the rightmost Ritz values")
        group = lam[in_group]
        c = 0.5 * (group[-1].real + lam[~in_group][0].real)
        count = self.count_right(c)
        if count != len(group):
            raise Uncertified(f"{count} eigenvalues right of {c}, but {len(group)} Ritz values")
        self.line = c
        return group

    @_quiet
    def count_right(self, c: float) -> int:
        """N_L(c) + wind(c): the number of eigenvalues of G right of
        Re z = c, by the argument principle on det K along the line."""
        tx, ty = self._complex_schur[:2]
        n_l = np.count_nonzero(np.add.outer(-tx.diagonal().real, -ty.diagonal().real) > c)
        return int(n_l) + self._winding(c)

    def _det_k(self, z: complex) -> complex:
        return complex(np.linalg.det(self._shift(z).k))

    def _winding(self, c: float) -> int:
        """The winding number of det K(c + i omega) as omega runs down the
        line, closed through the half-plane right of it.

        G is real, so det K(c - i omega) = conj det K(c + i omega): det K is
        sampled on omega >= 0 only, and the phase walked from the top sample
        down to omega = 0 counts twice.  The sinh grid keeps its points
        below ``tail`` and the first one at or above it.  For |z| >= tail,
        ||K(z) - I|| <= 1/2, so every eigenvalue of K stays within 1/2 of 1
        and K winds neither on the rest of the line nor on the arc that
        closes the contour from c - i top back to c + i top; that arc adds
        twice the sum of the principal arguments of the eigenvalues of
        K(c + i top), each below pi/6.  When ``tail`` exceeds
        COUNT_HALF_WIDTH, the grid runs to that width and ||K - I|| < 1/2
        is checked there instead.  Only the near part of the line, below
        the top sample, is sampled heuristically: each phase step is
        refined to at most PHASE_STEP rad.
        """
        omegas = np.sinh(np.linspace(math.asinh(COUNT_HALF_WIDTH), 0.0, COUNT_SAMPLES))
        omegas = list(omegas[max(np.count_nonzero(omegas >= self.tail) - 1, 0):])
        k = self._shift(complex(c, omegas[0])).k
        if not np.linalg.norm(k - np.eye(len(k)), 2) < 0.5:
            raise Uncertified(f"||K - I|| >= 1/2 at omega = {omegas[0]:g}")
        closing = float(np.angle(np.linalg.eigvals(k)).sum())
        values = [complex(np.linalg.det(k))] + [self._det_k(complex(c, w)) for w in omegas[1:]]
        if not all(d != 0 and cmath.isfinite(d) for d in values):
            raise Uncertified(f"det K is 0 or not finite on Re z = {c}")
        # each sample off the real axis stands for its mirror image too
        evaluations = 2 * len(values) - 1
        # the phase steps between the samples, each at most PHASE_STEP;
        # the stack holds the intervals still to walk, the next one last
        half = 0.0
        stack = list(zip(omegas[-2::-1], values[-2::-1], omegas[:0:-1], values[:0:-1]))
        while stack:
            w0, d0, w1, d1 = stack.pop()
            step = cmath.phase(d1 / d0)
            if abs(step) <= PHASE_STEP:
                half += step
                continue
            wm = 0.5 * (w0 + w1)
            dm = self._det_k(complex(c, wm))
            evaluations += 2
            if evaluations > MAX_EVALUATIONS or not (dm != 0 and cmath.isfinite(dm)):
                raise Uncertified(f"the phase of det K on Re z = {c} is not resolved")
            stack += [(wm, dm, w1, d1), (w0, d0, wm, dm)]
        return round((half + closing) / math.pi)

    @_quiet
    def nearest(self, sigma: float) -> complex:
        """The eigenvalue of G nearest the real shift sigma; on a tie, the
        one with the larger real, then imaginary, part."""
        lam = self._ritz(sigma)
        return complex(lam[np.lexsort((-lam.imag, -lam.real, np.abs(lam - sigma)))[0]])

    @_quiet
    def eigenvector(self, lam: complex) -> np.ndarray:
        """The right eigenvector of the eigenvalue lam of G, as
        :func:`linalg.eigenvector` gives it: unit norm, canonical phase."""
        shift = self._shift(complex(lam))
        # the right null vector of K(lam)
        k = np.conj(scipy.linalg.svd(shift.k)[2][-1])
        y = np.tensordot(k, shift.zu, 1)
        if lam.imag != 0:
            sx, sy = self._complex_schur[4:]
            y = sx @ y @ sy.conj().T
        x = (self.qx @ y @ self.qy.T).ravel()
        if not (np.isfinite(x).all() and x.any()):
            raise Uncertified(f"no eigenvector of {lam} from K")
        return _canonicalize(x)


def _norm_inf(px, py, alpha, beta) -> float:
    """||G||inf from the blocks and the row factors (alpha as (n, n, m) and
    beta as (m, n, m)), one block of m rows at a time."""
    n, m = len(px), len(py)
    rows = np.empty_like(beta)
    diagonal = np.arange(m)
    best = 0.0
    for i in range(n):
        np.add(alpha[i], beta, out=rows)
        rows[:, i, :] -= py
        rows[diagonal, :, diagonal] -= px[i]
        np.abs(rows, out=rows)
        best = max(best, float(rows.reshape(m, -1).sum(axis=1).max()))
    return best
