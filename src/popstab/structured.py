"""Structured shift-invert for 2-D generators with a separable mu.

Such a generator is G = L + U W^T.  L X = -P_x X - X P_y^T is the Kronecker
sum of the per-axis blocks, acting on the n x m array X[i, j] of a vector
(row-major, as ``matrix.reshape(n, m, dim)`` reads it), and U W^T is the
boundary term.  Assembly cuts that term to its rank r once, after a
randomized range finder (Halko, Martinsson & Tropp, SIAM Review 53(2), 2011)
has compressed each edge's kernel, and gives the edges' row factors with one
shared W^T: V_alpha = C_a W^T and V_beta = C_b W^T.  The solver neither
joins nor cuts: W is that W^T's transpose, and column k of U is the outer
sum of C_a[:, k] and C_b[:, k].

All work happens in Schur coordinates of the per-axis blocks (Bartels &
Stewart, CACM 15(9), 1972), one frame per arithmetic: (quasi-)triangular
T_x, T_y and unitary Z_x, Z_y with P_x Z_x = Z_x T_x and P_y Z_y = Z_y T_y^T.
X = Z_x Y Z_y^T turns (L - zI) X = R into the Sylvester equation
(T_x + zI) Y + Y T_y = -Z_x^H R conj(Z_y), solved by LAPACK ``trsyl``, and
(G - zI)^{-1} follows by the Woodbury formula with the r x r capacitance
K(z) = I + W^T (L - zI)^{-1} U, factored once per shift.  A shift looks up
its LAPACK routines once, and U, W and (L - zI)^{-1} U enter the formula as
flat r x nm matrices.  The count needs K alone, at many shifts:
:func:`_sylvester` solves for a whole batch of them at once in the complex
frame, recursively blocked (Jonsson & Kagstrom, ACM TOMS 28(4), 2002), so
that most of its work is matrix products over the batch where ``trsyl``
works one element of Y at a time.  A real shift uses
the real frame, from the real Schur forms, so the Ritz values (eigenvalues
of a real Hessenberg matrix) are real with an imaginary part of exactly 0.0
or come in exact conjugate pairs; a complex shift uses the complex frame,
built beside the real one from the complex Schur forms T = S T_c S^H of the
real T, S a rotation of each 2 x 2 diagonal block (:func:`_complex_schur`).

The eigenvalues near a shift come from an unrestarted Arnoldi run on
(G - sigma I)^{-1} (Saad, *Numerical Methods for Large Eigenvalue
Problems*, 2nd ed., 2011, ch. 6): one Sylvester solve and one Woodbury
update per step, classical Gram-Schmidt applied twice, a fixed-seed start.
It stops as soon as the Ritz values its caller wants pass ARPACK's residual
test, and raises :class:`Uncertified` at a cap on the steps.  The residual
test bounds the distance of a Ritz value from an eigenvalue of G only
through its condition number, so each wanted Ritz value is then refined on
G itself by two-sided Rayleigh quotient iteration (Parlett, Math. Comp.
28(127), 1974), whose quotient y^T G x / y^T x is accurate to about
eps kappa ||G||, as the dense path is, and is kept only if its backward
error ||G x - z x|| / ||G||inf (x of unit norm) is at most 64 eps; that x
is the eigenvector reported with the value.

- :meth:`StructuredSolver.rightmost` runs it at sigma = 0 until the
  rightmost group of Ritz values converges, certifies that group by the
  argument principle, det(G - zI) = det(L - zI) det K(z): the number of
  eigenvalues right of Re z = c is N_L(c), the eigenvalues of L there, plus
  the winding number of det K along the line, proven beyond |z| = ``tail``
  and sampled below it in batches (:meth:`StructuredSolver._winding`).
  The line lies a quarter of the way to the next Ritz value, and one count
  there certifies only when it equals the group's size.
  Then it refines the group, whose values must stay right of the line,
  and keeps their eigenvectors in ``vectors``.
- :meth:`StructuredSolver.nearest` runs it at a given real shift until the
  Ritz value nearest the shift converges, and refines that value, for a
  reference that the certified eigenvalues do not decide; it returns the
  refined eigenpair.

A pivot of exactly 0 in K(z), z an eigenvalue of G, is raised to
eps max(1, ||K||inf) (:attr:`_Shift.lu`).  Every failure (no
convergence within the step caps, a Sylvester operator that ``trsyl``'s test
finds near singular other than at the end of a refinement, a count that does
not certify, a refinement that takes no step or ends with a larger backward
error or nearer another Ritz value than its own) raises
:class:`Uncertified`; the caller then takes the dense path.  No nm x nm
array is formed.  LAPACK is called through scipy alone, as on the dense
path, and the complex frame and the count's closing arc take no complex
Schur or eigenvalue routine: numpy.linalg would load the pages of numpy's
own copy of OpenBLAS, and such a routine pages of its own, 0.2-1 MB of
resident memory each in a process that also runs the dense path.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from .assembly import GeneratorMatrix, _overflow
from .linalg import _canonicalize

EPS = np.finfo(float).eps

# From this dimension on, a 2-D generator with separable mu takes the
# structured path for the abscissa and the eigenpair nearest a reference.
# compute_spectrum(k=1), structured time over dense time at n = m (one BLAS
# thread, medians of 11 alternating runs in one process; scan is perfbench's
# 2-D family, ex1_4 with mu = 2x + 1 + h):
#
#   n =            10    11    12    13    14    15
#   ex1_1        0.99  0.71  0.62  0.41  0.34  0.28
#   ex1_2        0.93  0.69  0.47  0.42  0.32  0.29
#   ex1_3        1.08  0.80  0.67  0.48  0.36  0.39
#   ex1_4        1.12  0.93  0.64  0.45  0.35  0.34
#   ex2_1        0.97  0.62  0.57  0.42  0.32  0.29
#   ex2_2        0.97  0.73  0.57  0.42  0.34  0.26
#   ex2_3        1.03  0.77  0.65  0.51  0.32  0.26
#   ex2_4        0.96  0.81  0.56  0.42  0.31  0.29
#   velocity     1.84  1.25  0.99  0.67  0.55  0.48
#   scan h = -1  1.04  0.82  0.59  0.42  0.32  0.30
#   scan h = -3  1.01  0.89  0.59  0.45  0.35  0.30
#
# ex1_2's row is the median of 3 such runs.  From n = 11 on every model but
# velocity is faster structured; at n = 10 dense is about as fast or faster
# on most.  velocity crosses over at n = 12: in two runs of 41 alternating
# pairs there it took 1.06 and 0.97 of the dense time (faster in 19 and 34
# of 41), because its Arnoldi run takes 27 steps, against 9-17 on the
# others, and the Hessenberg eigensolve at every step is about half of it.
STRUCTURED_MIN_DIM = 144

# The Arnoldi run on (G - sigma I)^{-1}: at most ARNOLDI_STEPS operator
# applications.  A wanted Ritz value nu of H has converged when ARPACK's test
# |h_{p+1,p} s_p| <= RITZ_TOL |nu| holds for its unit Ritz vector s; its
# accuracy on G is the refinement's job.
ARNOLDI_STEPS = 100
RITZ_TOL = 1e-12
# Rayleigh quotient iteration: at most POLISH_STEPS steps; it stops once a
# step is within SETTLE_ULPS ulps or no shorter than the one before.
POLISH_STEPS = 8
SETTLE_ULPS = 4

# ||G||inf sums the rows of largest bound exactly, this many at a time.
NORM_CHUNK = 64

# The count: det K sampled at the points c + i sinh(k COUNT_SPACING),
# k = 0, 1, ..., up to the first one at or above ``tail``, where K is provably
# within 1/2 of I (201 points up to 1e6), each phase step refined to at most
# PHASE_STEP rad, at most MAX_EVALUATIONS evaluations of det K on the whole
# line (each one off the real axis counts twice, for its mirror image).
COUNT_SPACING = math.asinh(1e6) / 200
PHASE_STEP = 0.5
MAX_EVALUATIONS = 4000
# The count evaluates K in batches: one recursively blocked Sylvester solve
# takes at most COUNT_BATCH right-hand sides (shifts times r), so it holds
# that many complex n x m arrays, and splits T_x and T_y until a block has at
# most SYLVESTER_LEAF rows and columns.  One count on ex2_1 (96, 125 and 152
# samples at n = 16, 48 and 128), median of 7 (3 at n = 128) in one process,
# one BLAS thread, with its traced peak at n = 48:
#
#   COUNT_BATCH      32       64       96      128
#   n = 16       2.8 ms   2.3 ms   1.5 ms   1.6 ms
#   n = 48        29 ms    23 ms    23 ms    21 ms
#     peak        2.3 MB   4.6 MB   4.6 MB   6.9 MB
#   n = 128      356 ms   284 ms   235 ms   241 ms
#
# At 128 the batch at n = 48 would hold more than assembling G takes (6.4 MB).
COUNT_BATCH = 96
SYLVESTER_LEAF = 12
# Ritz values whose real parts lie within this fraction of max(1, |re|) of
# the rightmost one count as its group.
GROUP_RTOL = 1e-8


class Uncertified(ArithmeticError):
    """The structured path could not solve or certify; use the dense path."""


class _Singular(Uncertified):
    """The Sylvester operator at the shift z is singular: z is an eigenvalue
    of L to working precision."""


def applies(generator: GeneratorMatrix) -> bool:
    """Whether the structured path is tried: two axes, separable mu, and
    dimension at least STRUCTURED_MIN_DIM."""
    return (
        len(generator.axes) == 2
        and generator.mu is None
        and generator.dim >= STRUCTURED_MIN_DIM
    )


def _closest(lam: np.ndarray, target: complex) -> int:
    """The index of the value of lam nearest target; on a tie, the one with
    the larger real, then imaginary, part."""
    return int(np.lexsort((-lam.imag, -lam.real, np.abs(lam - target)))[0])


def _group(lam: np.ndarray) -> slice:
    """The rightmost group of lam, sorted rightmost first: the values
    within GROUP_RTOL of the first one's real part."""
    top = lam[0].real
    return slice(0, int(np.count_nonzero(lam.real >= top - GROUP_RTOL * max(1.0, abs(top)))))


def _argument_sum(k: np.ndarray) -> float:
    """The sum of the principal arguments of the eigenvalues of the r x r
    matrix k, all within 1/2 of 1, from determinants alone.

    For t in [0, 1] each eigenvalue 1 + t w of I + t (k - I) stays within
    t/2 of 1, and its argument moves from 0 by at most 1 rad per unit of t
    (|d arg(1 + t w) / dt| <= |w| / |1 + t w| <= 1).  In r // 3 + 1 equal
    steps of t the phase of the determinant then moves by less than pi per
    step, and unwraps to the sum."""
    r = len(k)
    steps = r // 3 + 1
    t = np.arange(1, steps + 1)[:, None, None] / steps
    path = scipy.linalg.det(np.eye(r) + t * (k - np.eye(r)), check_finite=False)
    return float(np.unwrap(np.angle(np.r_[1.0, path]))[-1])


def _complex_schur(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The complex Schur form T_c of the real Schur form t, and the unitary
    S with t = S T_c S^H.

    LAPACK standardizes each 2 x 2 diagonal block of t as [[a, b], [c, a]]
    with b c < 0, whose eigenvalues are a +- i w, w = sqrt(-b c), with the
    unit eigenvectors (b, +-i w) / r, r = sqrt(b^2 + w^2).  S is the
    identity but on these blocks, where its columns are (b, i w) / r and
    (i w, b) / r; S^H t S is then upper triangular but for rounding in the
    blocks' lower corners, which is dropped."""
    k = np.flatnonzero(np.diagonal(t, -1))
    b, w = t[k, k + 1], np.sqrt(-t[k, k + 1] * t[k + 1, k])
    r = np.hypot(b, w)
    s = np.eye(len(t), dtype=complex)
    s[k, k] = s[k + 1, k + 1] = b / r
    s[k + 1, k] = s[k, k + 1] = 1j * w / r
    return np.triu(s.conj().T @ t @ s), s


def _shifted(t: np.ndarray, z) -> np.ndarray:
    """A copy of t + zI."""
    a = t.astype(np.result_type(t, z))
    a[np.diag_indices(len(t))] += z
    return a


def _eig_last(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvalues of the real matrix h and the last entries of its unit
    right eigenvectors, as complex arrays, by LAPACK geev given the
    workspace its query returns (the blocked back-transform that allows
    rounds unlike the unblocked one).  The vectors of a complex pair
    w_j, w_{j+1} = conj(w_j) are vr[:, j] +- i vr[:, j+1]."""
    geev, geev_lwork = scipy.linalg.get_lapack_funcs(("geev", "geev_lwork"), (h,))
    lwork = int(geev_lwork(len(h), compute_vl=False)[0])
    wr, wi, _, vr, info = geev(h, compute_vl=False, lwork=lwork)
    if info != 0:
        raise Uncertified(f"geev returned info {info}")
    last = vr[-1] + 0j
    pairs = np.flatnonzero(wi > 0)
    last.imag[pairs] = vr[-1, pairs + 1]
    last[pairs + 1] = last[pairs].conj()
    return wr + 1j * wi, last


@functools.lru_cache(maxsize=32)
def _wavefronts(p: int, q: int) -> tuple:
    """The entries of a p x q block in wavefront order, with the bounds of
    each wavefront and the couplings of each entry to earlier ones.

    With T_x and T_y upper triangular, entry (i, j) of Y depends on the
    entries below it in its column and left of it in its row, which lie on
    earlier anti-diagonals d = p - 1 - i + j; the entries of one
    anti-diagonal are independent.  The couplings, for T_x and then for T_y,
    are the index arrays (entry, earlier entry) and (row, column) of T."""
    i, j = np.divmod(np.arange(p * q), q)
    level = p - 1 - i + j
    order = np.argsort(level, kind="stable")
    i, j = i[order], j[order]
    bounds = np.searchsorted(level[order], np.arange(p + q)).tolist()
    e, f = np.nonzero((j[:, None] == j) & (i > i[:, None]))
    g, h = np.nonzero((i[:, None] == i) & (j < j[:, None]))
    return i, j, list(zip(bounds, bounds[1:])), ((e, f), (i[e], i[f])), ((g, h), (j[h], j[g]))


def _sylvester(
    tx: np.ndarray, ty: np.ndarray, z: np.ndarray, c: np.ndarray, floor: np.ndarray
) -> None:
    """Overwrite c, (n, m, B), with the Y_b that solve
    (T_x + z_b I) Y_b + Y_b T_y = c_b for upper triangular T_x and T_y.

    Bartels-Stewart for a whole batch at once, recursively blocked (Jonsson
    & Kagstrom, ACM TOMS 28(4), 2002): the larger of T_x and T_y is split in
    two, the half of Y that the other half depends on is solved first, and
    the coupling, which does not depend on the shift, is one product over
    the whole batch.  Blocks of at most SYLVESTER_LEAF rows and columns are
    solved by wavefronts (:func:`_wavefronts`).  Raises :class:`_Singular`
    where LAPACK trsyl reports a near singular operator: some
    |Re d| + |Im d|, d = t_x,ii + t_y,jj + z_b, is at most floor[b]."""
    n, m = c.shape[:2]
    if n > SYLVESTER_LEAF and n >= m:
        h = n // 2
        _sylvester(tx[h:, h:], ty, z, c[h:], floor)
        c[:h] -= np.tensordot(tx[:h, h:], c[h:], 1)
        _sylvester(tx[:h, :h], ty, z, c[:h], floor)
    elif m > SYLVESTER_LEAF:
        h = m // 2
        _sylvester(tx, ty[:h, :h], z, c[:, :h], floor)
        c[:, h:] -= np.matmul(ty[:h, h:].T, c[:, :h])
        _sylvester(tx, ty[h:, h:], z, c[:, h:], floor)
    else:
        i, j, fronts, by_x, by_y = _wavefronts(n, m)
        d = (tx.diagonal()[i] + ty.diagonal()[j])[:, None] + z
        if (np.abs(d.real) + np.abs(d.imag) <= floor).any():
            raise _Singular("the shifted Sylvester operator is near singular")
        # built after the test, so that its arrays and the test's are never
        # held at once
        couple = np.zeros((n * m, n * m), tx.dtype)
        for t, (entries, at) in ((tx, by_x), (ty, by_y)):
            couple[entries] = t[at]
        y = c[i, j]
        for start, stop in fronts:
            y[start:stop] -= couple[start:stop, :start] @ y[:start]
            y[start:stop] /= d[start:stop]
        c[i, j] = y


class _Frame:
    """One frame of Schur coordinates: T_x, T_y, Z_x, Z_y, and U and W,
    given on the grid, as the r arrays Z_x^H U conj(Z_y) and Z_x^T W Z_y."""

    def __init__(self, tx, ty, zx, zy, u, w):
        self.tx, self.ty, self.zx, self.zy = tx, ty, zx, zy
        self.u = np.array([zx.conj().T @ a @ zy.conj() for a in u])
        self.w = np.array([zx.T @ a @ zy for a in w])


class _Shift:
    """(G - zI)^{-1} at one shift z, in the frame of z's arithmetic: the
    Sylvester solve with T_x + zI, (L - zI)^{-1} U and the capacitance K(z).

    Vectors acted on by G are arrays in the coordinates of U, those acted on
    by G^T in the coordinates of W; the bilinear sum(a * b) of one of each
    is the plain dot product of the vectors they stand for.  The r x r
    algebra of the Woodbury formula works on U, W and (L - zI)^{-1} U as
    flat (r, nm) matrices, with LAPACK's getrf and getrs called directly."""

    def __init__(self, frame: _Frame, z):
        self.frame = frame
        self.a = _shifted(frame.tx, z)
        self.trsyl, self.getrf, self.getrs = scipy.linalg.get_lapack_funcs(
            ("trsyl", "getrf", "getrs"), (self.a, frame.ty)
        )
        r = len(frame.u)
        self.u, self.w = frame.u.reshape(r, -1), frame.w.reshape(r, -1)
        self.zu = np.array([self.solve(uk).ravel() for uk in frame.u])
        self.k = np.eye(r) + np.dot(self.w, self.zu.T)
        if not np.isfinite(self.k).all():
            raise Uncertified(f"the capacitance at {z} is not finite")

    def solve(self, r: np.ndarray, transpose: bool = False) -> np.ndarray:
        """(L - zI)^{-1} r, or with transpose (L^T - zI)^{-1} r, by LAPACK
        trsyl on (T_x + zI) Y + Y T_y = -s r (transposed,
        (T_x + zI)^T Y + Y T_y^T = -s r) and its scale s."""
        if transpose:
            # the complex trsyl transposes with conjugation only ("C" is "T" for a real a)
            y, scale, info = self.trsyl(self.a, self.frame.ty, -np.conj(r), trana="C", tranb="C")
            y = np.conj(y)
        else:
            y, scale, info = self.trsyl(self.a, self.frame.ty, -r)
        if info == 1:
            raise _Singular("trsyl perturbed the shifted Sylvester operator: it is near singular")
        if info != 0:
            raise Uncertified(f"trsyl returned info {info}")
        return y / scale

    @functools.cached_property
    def lu(self) -> tuple:
        """The LU factors of K(z), a pivot of exactly 0 (getrf's info > 0)
        raised to eps max(1, ||K||inf); every other pivot is kept.  (The
        dense :func:`linalg.eigenvector` instead raises every pivot below
        eps ||G||inf to that value, the floor of LAPACK's xHSEIN.)"""
        lu, piv, info = self.getrf(self.k)
        if info > 0:
            zero = np.flatnonzero(lu.diagonal() == 0)
            lu[zero, zero] = EPS * max(1.0, np.abs(self.k).sum(axis=1).max())
        return lu, piv

    def apply(self, r: np.ndarray) -> np.ndarray:
        """(G - zI)^{-1} r, by the Woodbury formula."""
        y = self.solve(r)
        coef = self.getrs(*self.lu, np.dot(self.w, y.reshape(-1, 1)))[0]
        return y - np.dot(coef.T, self.zu).reshape(y.shape)

    def apply_transpose(self, r: np.ndarray) -> np.ndarray:
        """(G^T - zI)^{-1} r = (L^T - zI + W U^T)^{-1} r, by the Woodbury
        formula with K(z)^T."""
        zw = np.array([self.solve(wk, transpose=True).ravel() for wk in self.frame.w])
        y = self.solve(r, transpose=True)
        coef = self.getrs(*self.lu, np.dot(self.u, y.reshape(-1, 1)), trans=1)[0]
        return y - np.dot(coef.T, zw).reshape(y.shape)


def _quiet(method):
    """``method`` with floating-point warnings off: values beyond the float
    range show as non-finite results, which raise :class:`Uncertified`."""

    @functools.wraps(method)
    def wrapper(*args):
        with np.errstate(all="ignore"):
            return method(*args)

    return wrapper


class StructuredSolver:
    """The Schur forms and the boundary term of one generator, in a real
    and a complex frame; raises :class:`GeneratorOverflow` when ||G||inf,
    taken from the factors, is not finite, and :class:`Uncertified` when the
    boundary term is 0."""

    @_quiet
    def __init__(self, generator: GeneratorMatrix):
        ax, ay = generator.axes
        self.shape = n, m = ax.n, ay.n
        px, py = generator.blocks
        (cb, _), (ca, wt) = generator.boundary
        self.norm = _norm_inf(px, py, ca, cb, wt)
        if not math.isfinite(self.norm):
            raise _overflow(generator.axes)
        if not len(wt):
            raise Uncertified("the boundary term is 0")
        try:
            tx, qx = scipy.linalg.schur(px)
            ty, qy = scipy.linalg.schur(py.T)
        except scipy.linalg.LinAlgError as exc:
            raise Uncertified(str(exc)) from exc
        # U and W on the grid, which each frame takes in
        u, w = ca.T[:, :, None] + cb.T[:, None, :], wt.reshape(-1, n, m)
        self.real = _Frame(tx, ty, qx, qy, u, w)
        # Z_x = Q_x S_x and Z_y = Q_y conj(S_y) for T = S T_c S^H
        (tcx, sx), (tcy, sy) = _complex_schur(tx), _complex_schur(ty)
        self.complex = _Frame(tcx, tcy, qx @ sx, qy @ sy.conj(), u, w)
        # ||L|| <= ||P_x|| + ||P_y||, so ||(L - zI)^{-1}|| <= 1 / (|z| - ||L||)
        # and ||K(z) - I|| <= 1/2 wherever |z| >= tail
        self.tail = float(
            scipy.linalg.svdvals(px, check_finite=False)[0]
            + scipy.linalg.svdvals(py, check_finite=False)[0]
            + 2 * np.linalg.norm(self.real.u) * np.linalg.norm(self.real.w)
        )
        # rightmost()'s certifying line Re z = c and its values' eigenvectors
        self.line = self.vectors = None

    def _frame(self, z: complex) -> tuple:
        """The frame of z's arithmetic, and z in it: a float on the real axis."""
        if z.imag == 0:
            return self.real, z.real
        return self.complex, z

    def _shift(self, z: complex) -> _Shift:
        return _Shift(*self._frame(z))

    @_quiet
    def _ritz(self, sigma: float, wanted=_group) -> np.ndarray:
        """The Ritz values of an Arnoldi run on (G - sigma I)^{-1}, as
        eigenvalues of G sorted rightmost first; real ones have imaginary
        part 0.0.  The run stops once the values that ``wanted`` picks from
        them, in that order, have converged."""
        shift = self._shift(complex(sigma))
        dim = math.prod(self.shape)
        steps = min(ARNOLDI_STEPS, dim - 1)
        basis = np.empty((steps + 1, dim))
        h = np.zeros((steps + 1, steps))
        v = np.random.default_rng(0).standard_normal(dim)
        basis[0] = v / np.linalg.norm(v)
        for p in range(steps):
            v = shift.apply(basis[p].reshape(self.shape)).ravel()
            # classical Gram-Schmidt, applied twice
            for _ in range(2):
                proj = basis[: p + 1] @ v
                v -= proj @ basis[: p + 1]
                h[: p + 1, p] += proj
            h[p + 1, p] = np.linalg.norm(v)
            if not np.isfinite(h[: p + 2, p]).all():
                raise Uncertified("the Arnoldi run is not finite")
            basis[p + 1] = v / h[p + 1, p]
            nu, last = _eig_last(h[: p + 1, : p + 1])
            if not nu.all():
                raise Uncertified("a Ritz value is 0")
            lam = sigma + 1.0 / nu
            # 1 / (a + 0j) may carry an imaginary part of -0.0
            lam = np.where(nu.imag == 0, lam.real + 0j, lam)
            order = np.lexsort((-lam.imag, -lam.real))
            pick = order[wanted(lam[order])]
            # ARPACK's test: the residual of the Ritz pair against |nu|
            residual = h[p + 1, p] * np.abs(last[pick])
            if (residual <= RITZ_TOL * np.abs(nu[pick])).all():
                return lam[order]
        raise Uncertified(f"no convergence in {steps} Arnoldi steps")

    def _polish(self, lam: np.ndarray, i: int) -> tuple[complex, np.ndarray]:
        """The Ritz value lam[i], lam[i].imag >= 0, refined by two-sided
        Rayleigh quotient iteration on G, and its right eigenvector: x and y
        run inverse iteration with G - zI and G^T - zI from fixed-seed
        starts, and the next shift is y^T G x / y^T x, with
        G x = L x + U W^T x formed directly.  A real value stays real.  The
        eigenvector is the last step's x on the grid, Z_x x Z_y^T, at unit
        norm and canonical phase, as :func:`linalg.eigenvector` gives it.
        Raises :class:`Uncertified` when the iteration does not settle
        within POLISH_STEPS steps, when it takes no step or the last step's
        backward error ||G x - z x|| / ||G||inf exceeds 64 eps, or when the
        result lies nearer another Ritz value than lam[i]."""
        frame, z = self._frame(complex(lam[i]))
        x, y = np.random.default_rng(0).standard_normal((2, *self.shape))
        step, backward = math.inf, math.inf
        for _ in range(POLISH_STEPS):
            try:
                shift = self._shift(complex(z))
                x, y = shift.apply(x), shift.apply_transpose(y)
            except _Singular:
                # the Sylvester solves cannot tell z from an eigenvalue of L:
                # this iteration gets no closer
                break
            x /= np.linalg.norm(x)
            y /= np.linalg.norm(y)
            boundary = np.dot(np.dot(shift.w, x.reshape(-1, 1)).T, shift.u).reshape(x.shape)
            gx = boundary - frame.tx @ x - x @ frame.ty
            rho = np.sum(y * gx) / np.sum(y * x)
            if not np.isfinite(rho):
                raise Uncertified(f"the Rayleigh quotient near {lam[i]} is not finite")
            previous, step = step, abs(rho - z)
            z = rho if np.iscomplexobj(z) else rho.real
            backward = np.linalg.norm(gx - z * x) / self.norm
            if step <= SETTLE_ULPS * EPS * abs(z) or step >= previous:
                break
        else:
            raise Uncertified(f"no convergence near {lam[i]} in {POLISH_STEPS} steps")
        if backward > 64 * EPS:
            raise Uncertified(f"{lam[i]} refines to {z}, at a backward error of {backward:.1e}")
        distance = np.abs(lam - z)
        if np.count_nonzero(distance <= distance[i]) > 1:
            raise Uncertified(f"{lam[i]} refines to {z}, nearer another Ritz value")
        return complex(z), _canonicalize((frame.zx @ x @ frame.zy.T).ravel())

    def _refine(self, lam: np.ndarray, wanted: slice) -> tuple[np.ndarray, np.ndarray]:
        """lam[wanted], each refined by :meth:`_polish`, and their
        eigenvectors, one per row; a value in the lower half-plane and its
        vector are the conjugates of its refined mirror image's, which
        lam[wanted] holds too."""
        indices = range(len(lam))[wanted]
        upper = {lam[i]: self._polish(lam, i) for i in indices if lam[i].imag >= 0}
        pairs = [upper[v] if v.imag >= 0 else map(np.conj, upper[v.conj()]) for v in lam[wanted]]
        return tuple(map(np.array, zip(*pairs)))

    @_quiet
    def rightmost(self) -> np.ndarray:
        """The eigenvalues of G right of a line Re z = c, rightmost first:
        the rightmost group of Ritz values at sigma = 0, certified by a count
        right of c that equals its size, and then refined; each stays right
        of c.  c lies a quarter of the way from the group to the next Ritz
        value (converged or not), and the count is taken once.  Sets ``line``
        to c and ``vectors`` to their eigenvectors, one row each."""
        lam = self._ritz(0.0)
        wanted = _group(lam)
        size = wanted.stop
        if size == len(lam):
            raise Uncertified("no gap after the rightmost Ritz values")
        # near the group: the count only falls as c moves toward it, so the
        # eigenvalues that the run stopped before finding seldom lie right of c
        c = 0.75 * lam[size - 1].real + 0.25 * lam[size].real
        count = self.count_right(c)
        if count != size:
            raise Uncertified(f"{count} eigenvalues right of {c}, but {size} Ritz values")
        group, vectors = self._refine(lam, wanted)
        if not (group.real > c).all():
            raise Uncertified(f"a refined eigenvalue lies left of {c}")
        order = np.lexsort((-group.imag, -group.real))
        self.line, self.vectors = c, vectors[order]
        return group[order]

    @_quiet
    def count_right(self, c: float) -> int:
        """N_L(c) + wind(c): the number of eigenvalues of G right of
        Re z = c, by the argument principle on det K along the line."""
        tx, ty = self.complex.tx.diagonal().real, self.complex.ty.diagonal().real
        n_l = np.count_nonzero(np.add.outer(-tx, -ty) > c)
        return int(n_l) + self._winding(c)

    def _capacitances(self, shifts: np.ndarray) -> np.ndarray:
        """K(z) at each of the complex shifts, as an (S, r, r) array, from
        batched Sylvester solves in the complex frame: as few batches of
        equal size as COUNT_BATCH right-hand sides per batch allow."""
        frame = self.complex
        tx, ty, u = frame.tx, frame.ty, frame.u
        (n, m), r = self.shape, len(u)
        # LAPACK trsyl's threshold for a near singular operator, from the
        # safe minimum and the largest entries of T_x + zI and T_y
        small = np.finfo(float).tiny * n * m / EPS
        top = max(np.abs(np.triu(tx, 1)).max(), np.abs(ty).max())
        k = []
        per = max(1, COUNT_BATCH // r)
        for z in np.array_split(shifts, math.ceil(len(shifts) / per)):
            diagonal = np.abs(tx.diagonal()[:, None] + z).max(axis=0)
            floor = np.maximum(EPS * np.maximum(top, diagonal), small)
            y = np.empty((n, m, len(z), r), complex)
            y[...] = -np.moveaxis(u, 0, -1)[:, :, None, :]
            _sylvester(tx, ty, np.repeat(z, r), y.reshape(n, m, -1), np.repeat(floor, r))
            k.append(np.tensordot(frame.w, y, ([1, 2], [0, 1])).transpose(1, 0, 2))
        return np.concatenate(k) + np.eye(r)

    def _winding(self, c: float) -> int:
        """The winding number of det K(c + i omega) as omega runs down the
        line, closed through the half-plane right of it.

        G is real, so det K(c - i omega) = conj det K(c + i omega): det K is
        sampled on omega >= 0 only, and the phase walked from the top sample
        down to omega = 0 counts twice.  The sinh grid runs from 0 to its
        first point at or above ``tail``.  For |z| >= tail,
        ||K(z) - I|| <= 1/2, so every eigenvalue of K stays within 1/2 of 1
        and K winds neither on the rest of the line nor on the arc that
        closes the contour from c - i top back to c + i top; that arc adds
        twice the sum of the principal arguments of the eigenvalues of
        K(c + i top), each below pi/6.  Only the near part of the line,
        below the top sample, is sampled heuristically: each phase step is
        refined to at most PHASE_STEP rad.  A ``tail`` that is not finite,
        or whose grid alone needs more than MAX_EVALUATIONS evaluations,
        raises :class:`Uncertified` before any sampling.

        K comes from batched solves (:meth:`_capacitances`): the whole grid
        in one batch, then one batch per level of refinement, which halves
        every interval whose phase step exceeds PHASE_STEP at once.
        """
        if not math.isfinite(self.tail):
            raise Uncertified(f"the count's tail {self.tail} is not finite")
        # the grid a step past the tail, cut after its first point at or above it
        omegas = np.sinh(COUNT_SPACING * np.arange(math.asinh(self.tail) / COUNT_SPACING + 2))
        omegas = omegas[np.count_nonzero(omegas < self.tail) :: -1]
        # each sample off the real axis stands for its mirror image too
        evaluations = 2 * len(omegas) - 1
        if evaluations > MAX_EVALUATIONS:
            raise Uncertified(f"the count's grid up to {self.tail:g} is too long")
        k = self._capacitances(c + 1j * omegas)
        values = scipy.linalg.det(k, check_finite=False)
        if not (values.all() and np.isfinite(values).all()):
            raise Uncertified(f"det K is 0 or not finite on Re z = {c}")
        # K at the top sample, for the closing arc
        closing = _argument_sum(k[0])
        # the phase steps between neighbouring samples, each at most
        # PHASE_STEP: the intervals with a longer step are halved, all of a
        # level in one batch
        half = 0.0
        w0, d0, w1, d1 = omegas[:-1], values[:-1], omegas[1:], values[1:]
        while True:
            step = np.angle(d1 / d0)
            fine = np.abs(step) <= PHASE_STEP
            half += float(step[fine].sum())
            w0, d0, w1, d1 = (a[~fine] for a in (w0, d0, w1, d1))
            if not len(w0):
                break
            evaluations += 2 * len(w0)
            if evaluations > MAX_EVALUATIONS:
                raise Uncertified(f"the phase of det K on Re z = {c} is not resolved")
            wm = 0.5 * (w0 + w1)
            dm = scipy.linalg.det(self._capacitances(c + 1j * wm), check_finite=False)
            if not (dm.all() and np.isfinite(dm).all()):
                raise Uncertified(f"the phase of det K on Re z = {c} is not resolved")
            w0, d0, w1, d1 = np.r_[w0, wm], np.r_[d0, dm], np.r_[wm, w1], np.r_[dm, d1]
        return round((half + closing) / math.pi)

    @_quiet
    def nearest(self, sigma: float) -> tuple[complex, np.ndarray]:
        """The eigenpair of G whose eigenvalue is nearest the real shift
        sigma (tie rule of :func:`_closest`), as :meth:`_polish` gives it."""

        def pick(lam):
            i = _closest(lam, sigma)
            return slice(i, i + 1)

        lam = self._ritz(sigma, pick)
        values, vectors = self._refine(lam, pick(lam))
        return complex(values[0]), vectors[0]


def _norm_inf(px, py, ca, cb, wt) -> float:
    """||G||inf from the blocks and the boundary term's factors: the rows
    C_a (n x r) of alpha and C_b (m x r) of beta, and their shared W^T.

    Row (i, j) of G is alpha_i + beta_j - e_i (x) P_y[j] - P_x[i] (x) e_j,
    alpha_i + beta_j = (C_a[i] + C_b[j]) W^T, so its absolute sum is at most
    ||alpha_i||_1 + ||beta_j||_1 + ||P_x[i]||_1 + ||P_y[j]||_1, with
    ||alpha_i||_1 <= sum_k |C_a[i, k]| ||W_k||_1 (an equality at rank 1),
    and likewise for beta.  Rows are summed exactly in descending order of
    that bound, NORM_CHUNK at a time, until the next bound, widened by the
    rounding of the sums, falls below the largest sum: the result is exact
    up to rounding.  A bound that is not finite gives inf.
    """
    n, m = len(px), len(py)
    spread = np.abs(wt).sum(axis=1)
    bound = np.add.outer(
        np.abs(ca) @ spread + np.abs(px).sum(axis=1),
        np.abs(cb) @ spread + np.abs(py).sum(axis=1),
    ).ravel()
    if not np.isfinite(bound).all():
        return math.inf
    order = np.argsort(-bound, kind="stable")
    slack = 1 + 8 * n * m * EPS
    best = 0.0
    for start in range(0, n * m, NORM_CHUNK):
        if bound[order[start]] * slack < best:
            break
        i, j = np.divmod(order[start : start + NORM_CHUNK], m)
        k = np.arange(len(i))
        rows = ((ca[i] + cb[j]) @ wt).reshape(-1, n, m)
        rows[k, i, :] -= py[j]
        rows[k, :, j] -= px[i]
        np.abs(rows, out=rows)
        best = max(best, float(rows.sum(axis=(1, 2)).max()))
    return best
