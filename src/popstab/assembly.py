"""Assembly of the discretized generator matrices.

A model is collocated on one :class:`Axis` per structuring variable: the
Chebyshev grid of the axis and its trimmed differentiation matrix D (the
left-endpoint row and column carry zero boundary values and are dropped).
For a 2-D model the matrix acts on values of the integrated state at the
inner tensor grid:

    generator = -Gx.Dx - Gy.Dy + A + B - M

where Dx = D_x (x) I, Dy = I (x) D_y are Kronecker lifts of the trimmed
differentiation matrices, Gx, Gy sample the velocities at the inner
nodes, the boundary blocks A and B integrate the kernels against the
mixed derivative of the interpolant, and M applies mortality inside the
double cumulative integral:

    A = R_x D_x^{-1} K_alpha (E_x (x) E_y) (D_x (x) D_y)
    B = R_y D_y^{-1} K_beta (E_x (x) E_y) (D_x (x) D_y)
    M = (D_x (x) D_y)^{-1} diag(mu) (D_x (x) D_y)

K_alpha (n rows) and K_beta (m rows) hold the kernel-weighted tensor
Clenshaw-Curtis cubature at the inner nodes of their axis, E_x and E_y
interpolate from the inner nodes to the cubature nodes, and
R_x = I_n (x) 1_m and R_y = 1_n (x) I_m replicate the rows.  No nm x nm
Kronecker factor is formed: products with E_x (x) E_y and D_x (x) D_y act
per axis on the (n, m) tensor of a row, and
(D_x (x) D_y)^{-1} = D_x^{-1} (x) D_y^{-1} turns the mortality solve into
one solve per axis.  Cumulative integrals are factorization solves with
the trimmed matrices (inverses are never formed).  Each block is added to
the matrix as soon as it is made, so the generator is the only nm x nm
array that outlives assembly.

The 1-D matrix is -D + 1*(w^T E D) - D^{-1} diag(mu) D, with the
rank-one term realizing the scalar renewal integral of the derivative;
its mortality block is the one-axis case of the 2-D one.

Coefficient samples that are undefined (log or sqrt outside their domain)
or not finite raise :class:`InvalidSample`, naming the coefficient and the
first such sample point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import DomainError
from .grid import ChebGrid, cheb_grid, diff_ops, interp_matrix
from .linalg import lu_solve
from .model import InvalidSample, Model1D, Model2D, NonpositiveVelocity
from .quad import cc_weights


@dataclass(frozen=True)
class Axis:
    """One collocation axis: its Chebyshev grid and trimmed D."""

    grid: ChebGrid
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.grid.n

    @property
    def theta(self) -> np.ndarray:
        """Inner nodes x_1 < ... < x_n = b (x_0 excluded)."""
        return self.grid.nodes[1:]


def collocation_axis(a: float, b: float, n: int) -> Axis:
    """The degree-n axis on [a, b]."""
    grid = cheb_grid(a, b, n)
    return Axis(grid, diff_ops(grid).trimmed)


def collocation_grids(model: Model2D, n: int, m: int) -> tuple[Axis, Axis]:
    """The x axis of degree n and the y axis of degree m of a 2-D model."""
    dom = model.domain
    return collocation_axis(dom.x0, dom.x_bar, n), collocation_axis(dom.y0, dom.y_bar, m)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Discretized generator with its axes (x in 1-D; x and y in 2-D).

    Entries are indexed by tuples of inner-node indices, one per axis, in
    lexicographic order.
    """

    matrix: np.ndarray
    axes: tuple[Axis, ...]

    @property
    def n(self) -> int:
        return self.axes[0].n

    @property
    def m(self) -> int | None:
        return self.axes[1].n if len(self.axes) > 1 else None

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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


def assemble_mortality(model: Model1D | Model2D, axes: tuple[Axis, ...]) -> np.ndarray:
    """The mortality block: cumulative integral, along every axis, of mu
    times the derivative along every axis.

    Realized as D^{-1} diag(mu) D on the inner grid, with D = D_x (x) D_y
    in 2-D and D = D_x in 1-D, by one solve along each axis of the
    [i, ..., i', ...] tensor.  A constant mu short-circuits to mu * I,
    which is the exact value of the block in that case.
    """
    mu = _samples(model.mu, "mu", *np.ix_(*(ax.theta for ax in axes)))
    if model.mu.is_constant:
        return float(mu.flat[0]) * np.eye(mu.size)
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
        t = lu_solve(ax.d, t.reshape(ax.n, -1)).T
    return t.reshape(mu.size, mu.size).T


def _kernel_cubature(coef, name, points, x_rule, y_rule) -> np.ndarray:
    """Kernel-weighted cubature: slice k maps samples of f on the cubature
    tensor grid to the integral of coef(points[k], ., .) * f."""
    kern = _samples(
        coef,
        name,
        points[:, None, None],
        x_rule.nodes[None, :, None],
        y_rule.nodes[None, None, :],
    )
    return kern * np.outer(x_rule.weights, y_rule.weights)


def assemble_boundary(
    model: Model2D,
    axes: tuple[Axis, Axis],
    axis: str,
    oversample: int = 2,
) -> np.ndarray:
    """Boundary-kernel block for the given axis ("x" uses alpha, "y" beta).

    Pipeline: interpolate the mixed derivative of the interpolant from the
    inner tensor grid to the cubature grid, apply the kernel-weighted
    cubature at each inner node of the axis, then take the cumulative
    integral along the axis.  Each step acts on the (n, m) tensor of a
    row, one axis at a time.  The result is constant across the other
    index, so rows replicate.
    """
    if axis not in ("x", "y"):
        raise ValueError(f"axis must be 'x' or 'y', got {axis!r}")
    if oversample < 1:
        raise ValueError("oversample factor must be at least 1")
    ax, ay = axes
    n, m = ax.n, ay.n
    x_rule, y_rule = (
        cc_weights(cheb_grid(g.a, g.b, oversample * g.n)) for g in (ax.grid, ay.grid)
    )
    ex = interp_matrix(ax.theta, x_rule.nodes)
    ey = interp_matrix(ay.theta, y_rule.nodes)
    if axis == "x":
        rows = _kernel_cubature(model.alpha, "alpha", ax.theta, x_rule, y_rule)
        trimmed = ax.d
    else:
        rows = _kernel_cubature(model.beta, "beta", ay.theta, x_rule, y_rule)
        trimmed = ay.d
    # rows @ kron(ex, ey) @ kron(Dx, Dy), one axis at a time
    collocated = ex.T @ rows @ ey
    mixed = ax.d.T @ collocated @ ay.d
    cumulative = lu_solve(trimmed, mixed.reshape(rows.shape[0], n * m))
    if axis == "x":
        return np.repeat(cumulative, m, axis=0)
    return np.tile(cumulative, (n, 1))


def _velocity_samples(coef, nodes, name: str) -> np.ndarray:
    values = _samples(coef, name, nodes)
    if np.any(values <= 0):
        raise NonpositiveVelocity(f"{name} must be strictly positive at the nodes")
    return values


def assemble_2d(
    model: Model2D, n: int, m: int | None = None, oversample: int = 2
) -> GeneratorMatrix:
    """Discretized generator of a 2-D model at degrees (n, m)."""
    if m is None:
        m = n
    if n < 1 or m < 1:
        raise ValueError("degrees must be at least 1")
    axes = collocation_grids(model, n, m)
    ax, ay = axes
    gx = _velocity_samples(model.gx, ax.grid.nodes, "gx")[1:]
    gy = _velocity_samples(model.gy, ay.grid.nodes, "gy")[1:]
    matrix = np.zeros((n * m, n * m))
    # the lifts -Gx (Dx (x) I) and -Gy (I (x) Dy), written into the
    # [i, j, i', j'] view: blocks on j = j' and on i = i'
    lifted = matrix.reshape(n, m, n, m)
    j = np.arange(m)
    lifted[:, j, :, j] = -(gx[:, None] * ax.d)
    i = np.arange(n)
    lifted[i, :, i, :] -= gy[:, None] * ay.d
    matrix += assemble_boundary(model, axes, "x", oversample)
    matrix += assemble_boundary(model, axes, "y", oversample)
    matrix -= assemble_mortality(model, axes)
    return GeneratorMatrix(matrix, axes)


def assemble_1d(model: Model1D, n: int, oversample: int = 2) -> GeneratorMatrix:
    """Discretized generator of a 1-D model at degree n."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    axes = (collocation_axis(model.x0, model.x_bar, n),)
    (ax,) = axes
    rule = cc_weights(cheb_grid(model.x0, model.x_bar, oversample * n))
    e = interp_matrix(ax.theta, rule.nodes)
    beta_w = rule.weights * _samples(model.beta, "beta", rule.nodes)
    renewal_row = beta_w @ e @ ax.d
    matrix = -ax.d + np.tile(renewal_row, (n, 1))
    matrix -= assemble_mortality(model, axes)
    return GeneratorMatrix(matrix, axes)


def assemble(
    model: Model1D | Model2D, n: int, m: int | None = None, oversample: int = 2
) -> GeneratorMatrix:
    """Discretized generator of a model at degree n, and m (default n) in
    2-D; m is ignored for a 1-D model."""
    if model.dimension == 1:
        return assemble_1d(model, n, oversample)
    return assemble_2d(model, n, m, oversample)
