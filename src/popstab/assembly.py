"""Assembly of the discretized generator matrices.

A model is collocated on one :class:`Axis` per structuring variable: the
Chebyshev grid of the axis and its trimmed differentiation matrix D_k (the
left-endpoint row and column carry zero boundary values and are dropped).
The matrix acts on values of the integrated state at the inner tensor
grid.  It is a Kronecker sum of per-axis blocks plus boundary rows:

    generator = -(P_x (x) I) - (I (x) P_y) + R_x V_alpha + R_y V_beta
    P_k = diag(g_k) D_k + M_k,   M_k = D_k^{-1} diag(f_k) D_k
    V_alpha = D_x^{-1} K_alpha (E_x (x) E_y) (D_x (x) D_y)   (n rows)
    V_beta  = D_y^{-1} K_beta (E_x (x) E_y) (D_x (x) D_y)    (m rows)

g_k samples the velocity along axis k at the inner nodes.  K_alpha and
K_beta hold the kernel-weighted tensor Clenshaw-Curtis cubature at the
inner nodes of the other axis (alpha is the inflow across the left edge
of y, beta the one across the left edge of x), E_x and E_y interpolate from
the inner nodes to the cubature nodes, and R_x = I_n (x) 1_m and
R_y = 1_n (x) I_m replicate the rows: the boundary term has rank <= n + m.

mu = f_x(x) + f_y(y) is split on the inner grid: f_k is the slice of mu
along axis k at the first node of the other axes, less (K - 1) / K times
the corner value (K axes), and the split holds when mu - sum f_k is within
SEPARABLE_RTOL max|mu|.  A part constant on the grid gives f_k I exactly.
A mu that is not separable instead keeps the whole block
(D_x (x) D_y)^{-1} diag(mu) (D_x (x) D_y), one solve along each axis of the
(n, m, n, m) tensor, subtracted after the boundary rows.  A 1-D model is
the one-axis case: generator = -D - D^{-1} diag(mu) D + 1 (w beta)^T E D.

Each row factor is built compressed, V = C W^T.  The kernel samples come at
the shape the expression evaluator returns (ex2_1's alpha = x^2 |x| 5/8 as
(n, 1, 1)), and their unfolding (other-axis nodes x cubature grid) is
factored before anything is broadcast onto the cubature grid: exactly
through a side of at most SKETCH_SAMPLES entries (ex2_1's alpha has one
column), else on the range that the boundary row sees, found by a
fixed-seed randomized range finder (Halko, Martinsson & Tropp, SIAM Review
53(2), 2011).  Only the r rows of the factor are weighted and pass through
E D (:meth:`Axis.cubature`) to give W^T; C is the cumulative integral of
the basis along the other axis.  The rank of the
boundary term is decided once, here: the edges' factors are stacked,
alpha's rows first, as [C_a 0; 0 C_b] [W_a^T; W_b^T], and cut at singular
values below RANK_RTOL (:func:`_truncate`), so that every edge's pair
shares one W^T, which the dense matrix and the structured solver both read.
At degrees up to 128 the boundary term of every builtin has rank 1, but
ex1_3's has rank 2 at n = 103 and 107..128.

A :class:`GeneratorMatrix` keeps these factors: the blocks P_k, the pair
(C, W^T) of each axis, and the samples of a mu that is not separable.
Assembly forms no nm x nm array and no row factor of n_other x nm.  The
dense matrix is built from the factors on first use, and is then the only
nm x nm array (with the whole mortality block while it is subtracted): each
P_k is added through an einsum view of the diagonal blocks and each expanded
row factor is added through a broadcast view of the matrix.  Non-finite
factors, a cubature whose terms sum in absolute value beyond the float range
(the rounding error of its row is then unbounded), or a non-finite entry of
the dense matrix raise :class:`GeneratorOverflow`.  Cumulative integrals are
solves with the LU factors of the trimmed matrices, made once per axis.  An
axis depends only on its interval and degree, so it is built once per
(interval, degree) and shared by every generator that uses it, with its lazy
LU factors and cubature records; its arrays are read-only.  Coefficient samples
that are undefined (log or sqrt outside their domain) or not finite raise
:class:`InvalidSample`, naming the coefficient and the first such point of
the grid; they are checked at the shape the evaluator returns, so the check
forms no array of the broadcast grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from itertools import accumulate

import numpy as np
import scipy.linalg

from .errors import NumericalFailure
from .expr import DomainError
from .grid import ChebGrid, cheb_grid, diff_ops, interp_matrix
from .linalg import lu_factor, lu_solve
from .model import InvalidSample, Model, NonpositiveVelocity
from .quad import CCRule, cc_weights


class GeneratorOverflow(NumericalFailure):
    """The generator has entries beyond the float range."""


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class Axis:
    """One collocation axis: its Chebyshev grid, trimmed D and, made on
    first use, the pivoted LU factors of D (``lu``) and one cubature record
    per oversampling factor (:meth:`cubature`).  Axes are shared (see
    :func:`collocation_axis`), so every array they hand out is read-only."""

    grid: ChebGrid
    d: np.ndarray
    _cubatures: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def theta(self) -> np.ndarray:
        """Inner nodes x_1 < ... < x_n = b (x_0 excluded)."""
        return self.grid.nodes[1:]

    def cubature(self, oversample: int) -> tuple[CCRule, np.ndarray, np.ndarray]:
        """The Clenshaw-Curtis rule of degree oversample * n on the axis, E D
        (E interpolates from the inner nodes to the rule's nodes: E D is the
        derivative there of the interpolant of inner-node values) and the
        absolute row sums of E D, built on first use."""
        if oversample not in self._cubatures:
            rule = cc_weights(cheb_grid(self.grid.a, self.grid.b, oversample * self.n))
            ed = interp_matrix(self.theta, rule.nodes) @ self.d
            spread = np.abs(ed).sum(axis=1)
            _read_only(rule.nodes, rule.grid.bary_weights, rule.weights, ed, spread)
            self._cubatures[oversample] = rule, ed, spread
        return self._cubatures[oversample]

    @cached_property
    def lu(self) -> tuple[np.ndarray, np.ndarray]:
        factors = lu_factor(self.d)
        _read_only(*factors)
        return factors


# 32 axes: a threshold scan repeats one (interval, degree) per axis, a
# convergence sweep needs at most two per degree.
@lru_cache(maxsize=32)
def collocation_axis(a: float, b: float, n: int) -> Axis:
    """The degree-n axis on [a, b], built once per (a, b, n) and shared."""
    grid = cheb_grid(a, b, n)
    d = diff_ops(grid).trimmed
    _read_only(grid.nodes, grid.bary_weights, d)
    return Axis(grid, d)


def collocation_grids(model: Model, *degrees: int) -> tuple[Axis, ...]:
    """One axis per interval of the model, of the given degrees (n along x,
    then m along y)."""
    return tuple(
        collocation_axis(a, b, n) for (a, b), n in zip(model.bounds, degrees, strict=True)
    )


@dataclass(frozen=True)
class GeneratorMatrix:
    """Discretized generator with its axes (x in 1-D; x and y in 2-D), kept
    as the factors it is made of.

    ``blocks`` holds one block P_k = diag(g_k) D_k + M_k per axis, and
    ``boundary`` the boundary row factor of each axis as the pair (C, W^T),
    cut once to the rank of the whole boundary term: every axis holds the
    same W^T (r x dim), and C has a row per inner node of the other axis;
    ``mu`` holds the samples of a mu that is not separable (then every M_k
    is 0), else None.  ``rows`` expands the row factors and ``matrix`` is
    built from the factors on first use.  Entries are indexed by tuples of
    inner-node indices, one per axis, in lexicographic order.
    """

    axes: tuple[Axis, ...]
    blocks: tuple[np.ndarray, ...]
    boundary: tuple[tuple[np.ndarray, np.ndarray], ...]
    mu: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return math.prod(ax.n for ax in self.axes)

    @property
    def rows(self) -> tuple[np.ndarray, ...]:
        """The row factor C W^T of each axis, shaped (n, ..., dim) with
        length 1 along that axis, the axis along which the boundary block
        replicates it; built anew on each access."""
        rows = []
        for k, (c, wt) in enumerate(self.boundary):
            shape = [ax.n for ax in self.axes]
            shape[k] = 1
            rows.append((c @ wt).reshape(*shape, self.dim))
        return tuple(rows)

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense dim x dim generator: the lifts of -P_k, then the row
        factors (the last axis first), then, for a mu that is not separable,
        less the whole mortality block.  Raises GeneratorOverflow when an
        entry is beyond the float range."""
        dim = self.dim
        # an overflow anywhere shows as a non-finite entry, reported below
        with np.errstate(over="ignore", invalid="ignore"):
            matrix = np.zeros((dim, dim))
            _add_lifts(matrix, [-p for p in self.blocks])
            rows = matrix.reshape(*(ax.n for ax in self.axes), dim)
            for factor in reversed(self.rows):
                rows += factor
            if self.mu is not None:
                matrix -= _mortality_block(self.mu, self.axes)
        if not np.isfinite(matrix).all():
            raise _overflow(self.axes)
        return matrix


def _overflow(axes: tuple[Axis, ...]) -> GeneratorOverflow:
    size = " x ".join(str(ax.n) for ax in axes)
    return GeneratorOverflow(f"the generator of degree {size} overflows the float range")


def _samples(coef, name: str, *points) -> np.ndarray:
    """coef on the grid of the point arrays, at the shape the evaluator
    returns (length 1 along an axis it does not vary on, no axis dropped);
    raises InvalidSample where it is undefined or not finite, naming the
    first such point of the broadcast grid."""
    ndim = max(np.ndim(p) for p in points)
    try:
        values = np.asarray(coef(*points), dtype=float)
        values = values.reshape((1,) * (ndim - values.ndim) + values.shape)
        bad = ~np.isfinite(values)
        reason = "is not finite"
    except DomainError as exc:
        bad = np.asarray(exc.where)
        reason = f"is undefined ({exc})"
    if np.any(bad):
        # the first bad point of the broadcast grid has index 0 along every
        # axis where bad has length 1
        bad = bad.reshape((1,) * (ndim - bad.ndim) + bad.shape)
        first = np.unravel_index(np.argmax(bad), bad.shape)
        shape = np.broadcast_shapes(bad.shape, *(np.shape(p) for p in points))
        at = ", ".join(
            f"{var} = {np.broadcast_to(p, shape)[first]:.17g}"
            for var, p in zip(coef.variables, points)
        )
        raise InvalidSample(f"{name} {reason} at {at}")
    return values


# mu is split per axis when mu - sum f_k is within this fraction of max|mu|.
SEPARABLE_RTOL = 1e-14


def _mortality(model: Model, axes: tuple[Axis, ...]):
    """The per-axis blocks M_k of the split of mu and None, or, when mu is
    not separable, zeros and the samples of mu on the inner grid."""
    mu = np.broadcast_to(
        _samples(model.mu, "mu", *np.ix_(*(ax.theta for ax in axes))), [ax.n for ax in axes]
    )
    k = len(axes)
    parts = [
        mu[tuple(slice(None) if i == j else 0 for i in range(k))] - (k - 1) / k * mu.flat[0]
        for j in range(k)
    ]
    residual = mu - reduce(np.add.outer, parts)
    if k == 1 or np.abs(residual).max() <= SEPARABLE_RTOL * np.abs(mu).max():
        return [
            f[0] * np.eye(ax.n) if (f == f[0]).all() else lu_solve(ax.lu, f[:, None] * ax.d)
            for f, ax in zip(parts, axes)
        ], None
    return [0.0] * k, mu


def _mortality_block(mu: np.ndarray, axes: tuple[Axis, ...]) -> np.ndarray:
    """The whole mortality block (D_x (x) D_y)^{-1} diag(mu) (D_x (x) D_y)
    of the samples mu on the inner grid."""
    k = len(axes)
    # diag(mu) D as t[i, ..., i', ...]
    t = mu.reshape(mu.shape + (1,) * k)
    for j, ax in enumerate(axes):
        shape = [1] * (2 * k)
        shape[j] = shape[k + j] = ax.n
        t = t * ax.d.reshape(shape)
    # each solve acts on the leading index and moves it last, so after the
    # last one t is [i', ..., i, ...]
    for ax in axes:
        t = lu_solve(ax.lu, t.reshape(ax.n, -1)).T
    return t.reshape(mu.size, mu.size).T


# The inflow kernel across the left edge of each axis.
_KERNELS = ("beta", "alpha")

# Singular values of the boundary term below RANK_RTOL of the largest are
# dropped (:func:`_truncate`).  A kernel unfolding with at most
# SKETCH_SAMPLES rows or columns is factored exactly (:func:`_compress`);
# a larger one is sketched first, from SKETCH_SAMPLES columns on, keeping
# the directions above SKETCH_RTOL, a quarter of the cut, for the spread of
# a random sketch's singular values.
# The sketch's rounding stays below it: on ex1_3 (rank 1) at n = 16..128 the
# second singular value of the sketch lies at 2.3-11 eps of the first.
RANK_RTOL = 64 * np.finfo(float).eps
SKETCH_RTOL = RANK_RTOL / 4
SKETCH_SAMPLES = 10


def _along(t: np.ndarray, mats) -> np.ndarray:
    """t, (k, ...) with one trailing axis per matrix (at most two), with
    each trailing axis contracted with the rows of its matrix."""
    *first, last = mats
    for a in first:
        t = a.T @ t
    return t @ last


def _compress(a: np.ndarray, sketch, pipeline, integrate) -> tuple[np.ndarray, np.ndarray]:
    """The row factor (C, W^T) of the kernel with unfolding ``a`` (rows x
    cols): C W^T = integrate(a) pipeline = V, C = integrate(Q') and
    W^T = pipeline(B) for Q' B = a on the range that V sees.  It is not cut
    here: :func:`_generator` cuts the factors of all edges at once.

    ``pipeline(b)`` maps rows of ``a`` to rows of the generator,
    ``integrate(q)`` takes the cumulative integral along the other axis, and
    ``sketch(k, rng)`` applies the transposed pipeline to k fixed-seed
    random vectors omega, with entries uniform on [-1, 1] (a quarter of the
    cost of Gaussian ones to draw).  A side of at most SKETCH_SAMPLES
    entries factors ``a`` exactly: with few rows, Q' holds the columns of I
    and B the rows of ``a`` that are not 0; with few columns, Q' holds the
    columns of ``a`` that are not 0 and B the rows of I.  Otherwise the
    sketch Y = a pipeline^T omega (Halko, Martinsson & Tropp, SIAM Review
    53(2), 2011) of SKETCH_SAMPLES columns doubles until integrate(Y), a
    sketch of V, has a singular value below SKETCH_RTOL of its largest, or
    spans the smaller side.  Q is an orthonormal basis of the combinations
    of Y's columns that carry the singular values above it, Q' = Q s and
    B = s^{-1} Q^T a, s the largest entry of each row of Q^T a.
    """
    rows, cols = a.shape
    if rows <= min(cols, SKETCH_SAMPLES):
        keep = a.any(axis=1)
        return integrate(np.eye(rows)[:, keep]), pipeline(a[keep])
    if cols <= SKETCH_SAMPLES:
        keep = a.any(axis=0)
        return integrate(a[:, keep]), pipeline(np.eye(cols)[keep])
    # the sketch of a / max|a|, which stays finite
    scale = np.abs(a).max() or 1.0
    rng = np.random.default_rng(0)
    y = np.zeros((rows, 0))
    samples, limit = SKETCH_SAMPLES, min(rows, cols)
    while True:
        y = np.concatenate([y, a @ (sketch(samples - y.shape[1], rng) / scale)], axis=1)
        _, s, vt = scipy.linalg.svd(integrate(y), full_matrices=False, check_finite=False)
        if np.count_nonzero(s > SKETCH_RTOL * s[0]) < samples or samples == limit:
            break
        samples = min(2 * samples, limit)
    # integrate(Y) vt^T spans V's range, Y vt^T the range of a it comes from
    vt = vt[s > SKETCH_RTOL * s[0]]
    q = scipy.linalg.qr(y @ vt.T, mode="economic", check_finite=False)[0]
    b = q.T @ a
    # each row of B of largest entry 1
    size = np.abs(b).max(axis=1)
    return integrate(q * size), pipeline(b / size[:, None])


def _truncate(c: np.ndarray, wt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """C' and W'^T with C' W'^T = C W^T up to its singular values cut at
    RANK_RTOL, with orthonormal rows in W'^T: W = Q R by QR, then the SVD
    of the small C R^T.  A factor of rank at most 1 is returned as is."""
    if len(wt) <= 1:
        return c, wt
    q, r = scipy.linalg.qr(wt.T, mode="economic", check_finite=False)
    u, s, vt = scipy.linalg.svd(c @ r.T, full_matrices=False, check_finite=False)
    rank = int(np.count_nonzero(s > RANK_RTOL * s[0])) if s[0] > 0 else 0
    return u[:, :rank] * s[:rank], vt[:rank] @ q.T


def _boundary_rows(
    model: Model, axes: tuple[Axis, ...], axis: int, oversample: int
) -> tuple[np.ndarray, np.ndarray]:
    """The row factor of the inflow across the left edge of ``axes[axis]``
    (beta for x, alpha for y) as C (n_other x r) and W^T (r x dim): row i of
    C W^T is the row of the i-th inner node of the other axis, which the
    boundary block replicates along ``axis``.  In 1-D there is no other axis,
    C is 1 x 1 and C W^T is (w beta)^T E D.

    The kernel is sampled at the inner nodes of the other axis and the
    cubature grid, at the shape the evaluator returns: a kernel that does
    not vary along a grid axis has length 1 there.  Its unfolding A (other
    axis x cubature grid) is factored first (:func:`_compress`), so that
    only the r rows of B are weighted by the cubature on the whole grid and
    integrated against the derivative of the interpolant at the cubature
    nodes (E D of :meth:`Axis.cubature`), W^T = (B w) (E_x D_x (x) E_y D_y),
    one axis at a time.  C then takes the cumulative integral along the other
    axis; :func:`_generator` cuts the edges' factors together.
    """
    if oversample < 1:
        raise ValueError("oversample factor must be at least 1")
    name = _KERNELS[axis]
    others = axes[:axis] + axes[axis + 1:]
    rules, eds, spreads = zip(*(ax.cubature(oversample) for ax in axes))
    kern = _samples(
        getattr(model, name),
        name,
        *np.ix_(*(ax.theta for ax in others), *(rule.nodes for rule in rules)),
    )
    grid = kern.shape[len(others):]
    weights = reduce(np.multiply.outer, [rule.weights for rule in rules])
    spread = reduce(np.multiply.outer, spreads).ravel()
    dim = math.prod(ax.n for ax in axes)

    def pipeline(b):
        terms = b.reshape(-1, *grid) * weights
        # the absolute sum of the cubature's terms bounds the rounding error
        # of each row: beyond the float range, the row is not known
        if not np.isfinite(np.abs(terms).reshape(len(terms), spread.size) @ spread).all():
            raise _overflow(axes)
        return _along(terms, eds).reshape(len(terms), dim)

    def sketch(k, rng):
        # the rows of w E D at the kernel's shape: summed along an axis
        # where the kernel is constant
        maps = [
            rule.weights[:, None] * ed if size > 1 else (rule.weights @ ed)[None]
            for rule, ed, size in zip(rules, eds, grid)
        ]
        omega = rng.uniform(-1.0, 1.0, (k, *(ax.n for ax in axes)))
        return _along(omega, [m.T for m in maps]).reshape(k, -1).T

    def integrate(c):
        for ax in others:
            c = lu_solve(ax.lu, np.broadcast_to(c, (ax.n, c.shape[1])))
        return c

    return _compress(kern.reshape(-1, math.prod(grid)), sketch, pipeline, integrate)


def _velocity_samples(coef, nodes, name: str) -> np.ndarray:
    values = _samples(coef, name, nodes)
    if np.any(values <= 0):
        raise NonpositiveVelocity(f"{name} must be strictly positive at the nodes")
    return np.broadcast_to(values, nodes.shape)


def _add_lifts(matrix: np.ndarray, blocks) -> None:
    """Add the Kronecker lift of each per-axis block (one per axis, in axis
    order) to the square matrix, in place: block k goes into the writeable
    einsum view of the [i, ..., i', ...] array where every index but the
    k-th equals its primed copy, as [other indices..., i_k, i_k']."""
    lifted = matrix.reshape([b.shape[0] for b in blocks] * 2)
    index = "abcdefghijklmnopqrstuvwxy"[: len(blocks)]
    for k, b in enumerate(blocks):
        others = index[:k] + index[k + 1 :]
        view = np.einsum(f"{index}{index[:k]}z{index[k + 1:]}->{others}{index[k]}z", lifted)
        view += b


def _generator(model: Model, degrees: tuple[int, ...], oversample: int) -> GeneratorMatrix:
    """The generator of the model at the given degree along each axis."""
    axes = collocation_grids(model, *degrees)
    velocities = [
        1.0 if coef is None else _velocity_samples(coef, ax.grid.nodes, name)[1:, None]
        for ax, coef, name in zip(axes, (model.gx, model.gy), ("gx", "gy"))
    ]
    # an overflow anywhere shows as a non-finite factor, reported below
    with np.errstate(over="ignore", invalid="ignore"):
        parts, mu = _mortality(model, axes)
        blocks = tuple(g * ax.d + m for ax, g, m in zip(axes, velocities, parts))
        # the last axis (alpha) is sampled first: when both kernels have an
        # invalid sample, the error names alpha
        edges = [_boundary_rows(model, axes, a, oversample) for a in reversed(range(len(axes)))]
    if not all(np.isfinite(f).all() for f in blocks + sum(edges, ())):
        raise _overflow(axes)
    # the one cut of the whole boundary term: the edges' C block-diagonal,
    # alpha's rows first
    cs, wts = zip(*edges)
    rows = list(accumulate((len(a) for a in cs), initial=0))
    cols = list(accumulate((len(w) for w in wts), initial=0))
    c = np.zeros((rows[-1], cols[-1]))
    for a, i, j in zip(cs, rows, cols):
        c[i : i + a.shape[0], j : j + a.shape[1]] = a
    c, wt = _truncate(c, np.concatenate(wts))
    boundary = tuple((c[i:k], wt) for i, k in zip(rows, rows[1:]))
    return GeneratorMatrix(axes, blocks, boundary[::-1], mu)


def assemble_1d(model: Model, n: int, oversample: int = 2) -> GeneratorMatrix:
    """Discretized generator of a 1-D model at degree n."""
    return _generator(model, (n,), oversample)


def assemble_2d(
    model: Model, n: int, m: int | None = None, oversample: int = 2
) -> GeneratorMatrix:
    """Discretized generator of a 2-D model at degrees (n, m); m defaults to n."""
    return _generator(model, (n, n if m is None else m), oversample)


def assemble(
    model: Model, n: int, m: int | None = None, oversample: int = 2
) -> GeneratorMatrix:
    """Discretized generator of a model at degree n, and m (default n) in
    2-D; a 1-D model takes no m."""
    if model.dimension == 1:
        if m is not None:
            raise ValueError(f"m = {m} given for a model with one axis")
        return assemble_1d(model, n, oversample)
    return assemble_2d(model, n, m, oversample)
