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

A :class:`GeneratorMatrix` keeps these factors: the blocks P_k, the row
factors V_alpha and V_beta, and the samples of a mu that is not separable.
Assembly forms no nm x nm array.  The dense matrix is built from the
factors on first use, and is then the only nm x nm array (with the whole
mortality block while it is subtracted): each P_k is written into a
strided view of the diagonal blocks and each row factor is added through a
broadcast view of the matrix.  Products with E_x (x) E_y and D_x (x) D_y
act per axis on the (n, m) tensor of a row.  Non-finite factors, or a
non-finite entry of the dense matrix, raise :class:`GeneratorOverflow`.
Cumulative integrals are solves with the LU factors of the trimmed
matrices, made once per axis.  An axis depends only on its interval and
degree, so it is built once per (interval, degree) and shared by every
generator that uses it, with its lazy LU factors and cubature; its arrays
are read-only.  Coefficient samples that are undefined (log or sqrt
outside their domain) or not finite raise :class:`InvalidSample`, naming
the coefficient and the first such sample point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .expr import DomainError
from .grid import ChebGrid, cheb_grid, diff_ops, interp_matrix
from .linalg import lu_factor, lu_solve
from .model import InvalidSample, Model, NonpositiveVelocity
from .quad import CCRule, cc_weights


class GeneratorOverflow(ArithmeticError):
    """The generator has entries beyond the float range."""


def _read_only(*arrays: np.ndarray) -> None:
    for a in arrays:
        a.flags.writeable = False


@dataclass(frozen=True)
class Axis:
    """One collocation axis: its Chebyshev grid, trimmed D and (as ``lu``,
    made on first use) the pivoted LU factors of D.  Axes are shared (see
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

    def cubature(self, oversample: int) -> tuple[CCRule, np.ndarray]:
        """The Clenshaw-Curtis rule of degree oversample * n on the axis and
        the interpolation matrix from the inner nodes to its nodes, built on
        first use."""
        if oversample not in self._cubatures:
            rule = cc_weights(cheb_grid(self.grid.a, self.grid.b, oversample * self.n))
            interp = interp_matrix(self.theta, rule.nodes)
            _read_only(rule.nodes, rule.grid.bary_weights, rule.weights, interp)
            self._cubatures[oversample] = rule, interp
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
    ``rows`` the boundary row factor of each axis (see
    :func:`_boundary_rows`); ``mu`` holds the samples of a mu that is not
    separable (then every M_k is 0), else None.  ``matrix`` is built from
    them on first use.  Entries are indexed by tuples of inner-node
    indices, one per axis, in lexicographic order.
    """

    axes: tuple[Axis, ...]
    blocks: tuple[np.ndarray, ...]
    rows: tuple[np.ndarray, ...]
    mu: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return math.prod(ax.n for ax in self.axes)

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
    """coef on the broadcast grid of the point arrays; raises InvalidSample
    where it is undefined or not finite."""
    shape = np.broadcast_shapes(*(np.shape(p) for p in points))
    try:
        values = np.broadcast_to(np.asarray(coef(*points), dtype=float), shape)
        bad = ~np.isfinite(values)
        reason = "is not finite"
    except DomainError as exc:
        bad = np.broadcast_to(exc.where, shape)
        reason = f"is undefined ({exc})"
    if np.any(bad):
        first = np.unravel_index(np.argmax(bad), shape)
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
    mu = _samples(model.mu, "mu", *np.ix_(*(ax.theta for ax in axes)))
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


def _boundary_rows(
    model: Model, axes: tuple[Axis, ...], axis: int, oversample: int
) -> np.ndarray:
    """The row factor of the inflow across the left edge of ``axes[axis]``
    (beta for x, alpha for y), shaped (n, ..., dim) with length 1 along
    ``axis``, the axis along which the boundary block replicates it.

    Pipeline: sample the kernel at the inner nodes of the other axis and
    the cubature grid, and weight it by the cubature; interpolate the
    mixed derivative of the interpolant from the inner tensor grid to the
    cubature grid and integrate it against each kernel row; then take the
    cumulative integral along the other axis.  Each step acts one axis at
    a time.  In 1-D there is no other axis and the row is (w beta)^T E D.
    """
    if oversample < 1:
        raise ValueError("oversample factor must be at least 1")
    name = _KERNELS[axis]
    others = axes[:axis] + axes[axis + 1:]
    rules, interps = zip(*(ax.cubature(oversample) for ax in axes))
    kern = _samples(
        getattr(model, name),
        name,
        *np.ix_(*(ax.theta for ax in others), *(rule.nodes for rule in rules)),
    )
    t = kern * reduce(np.multiply.outer, [rule.weights for rule in rules])
    # rows @ kron(E) @ kron(D), one axis at a time: the last axis from the
    # right, the one before it (x in 2-D) from the left
    for mats in (interps, [ax.d for ax in axes]):
        *first, last = mats
        for a in first:
            t = a.T @ t
        t = t @ last
    dim = math.prod(ax.n for ax in axes)
    for ax in others:
        t = lu_solve(ax.lu, t.reshape(ax.n, dim))
    shape = [ax.n for ax in axes]
    shape[axis] = 1
    return t.reshape(*shape, dim)


def _velocity_samples(coef, nodes, name: str) -> np.ndarray:
    values = _samples(coef, name, nodes)
    if np.any(values <= 0):
        raise NonpositiveVelocity(f"{name} must be strictly positive at the nodes")
    return values


def _blocks(lifted: np.ndarray, k: int) -> np.ndarray:
    """The view of the [i, ..., i', ...] array ``lifted`` where every index
    but the k-th equals its primed copy, as [other indices..., i_k, i_k']."""
    half = lifted.ndim // 2
    shape, strides = lifted.shape, lifted.strides
    others = [j for j in range(half) if j != k]
    return as_strided(
        lifted,
        [shape[j] for j in others] + [shape[k], shape[k]],
        [strides[j] + strides[half + j] for j in others] + [strides[k], strides[half + k]],
    )


def _add_lifts(matrix: np.ndarray, blocks) -> None:
    """Add the Kronecker lift of each per-axis block (one per axis, in axis
    order) to the square matrix, in place."""
    lifted = matrix.reshape([b.shape[0] for b in blocks] * 2)
    for k, b in enumerate(blocks):
        _blocks(lifted, k)[...] += b


def _generator(model: Model, degrees: tuple[int, ...], oversample: int) -> GeneratorMatrix:
    """The generator of the model at the given degree along each axis."""
    if min(degrees) < 1:
        raise ValueError("degrees must be at least 1")
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
        last_first = reversed(range(len(axes)))
        rows = tuple(reversed([_boundary_rows(model, axes, a, oversample) for a in last_first]))
    if not all(np.isfinite(f).all() for f in blocks + rows):
        raise _overflow(axes)
    return GeneratorMatrix(axes, blocks, rows, mu)


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
