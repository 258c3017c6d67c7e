"""Assembly of the discretized generator matrices.

For a 2-D model the matrix acts on values of the integrated state at the
inner tensor grid (the left-endpoint row and column of each axis carry
zero boundary values and are dropped):

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
the trimmed matrices (inverses are never formed).

The 1-D matrix is -D + 1*(w^T E D) - D^{-1} diag(mu) D, with the
rank-one term realizing the scalar renewal integral of the derivative.

Coefficient samples that are undefined (log or sqrt outside their domain)
or not finite raise :class:`InvalidSample`, naming the coefficient and the
first such sample point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expr import DomainError
from .grid import ChebGrid, DiffOps, cheb_grid, diff_ops, interp_matrix
from .linalg import lu_solve
from .model import InvalidSample, Model1D, Model2D, NonpositiveVelocity
from .quad import cc_weights


@dataclass(frozen=True)
class CollocationGrids:
    """Per-axis grids with differentiation operators; y is None in 1-D."""

    x: ChebGrid
    dx: DiffOps
    y: ChebGrid | None = None
    dy: DiffOps | None = None

    @property
    def n(self) -> int:
        return self.x.n

    @property
    def m(self) -> int | None:
        return None if self.y is None else self.y.n

    @property
    def theta_x(self) -> np.ndarray:
        """Inner x nodes x_1 < ... < x_n = x_bar (x_0 excluded)."""
        return self.x.nodes[1:]

    @property
    def theta_y(self) -> np.ndarray:
        return self.y.nodes[1:]


def collocation_grids(model: Model2D, n: int, m: int) -> CollocationGrids:
    dom = model.domain
    gx = cheb_grid(dom.x0, dom.x_bar, n)
    gy = cheb_grid(dom.y0, dom.y_bar, m)
    return CollocationGrids(gx, diff_ops(gx), gy, diff_ops(gy))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Discretized generator with its grids and constituent blocks.

    Entries are indexed by inner-node pairs (i, j) in lexicographic order;
    ``flat_index`` maps 1-based (i, j) to the 0-based row position.
    """

    matrix: np.ndarray
    grids: CollocationGrids
    a_block: np.ndarray | None
    b_block: np.ndarray | None
    m_block: np.ndarray | None

    @property
    def n(self) -> int:
        return self.grids.n

    @property
    def m(self) -> int | None:
        return self.grids.m

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def flat_index(self, i: int, j: int) -> int:
        m = self.grids.m
        if not (1 <= i <= self.n and 1 <= j <= m):
            raise IndexError(f"(i, j) = ({i}, {j}) outside 1..{self.n} x 1..{m}")
        return (i - 1) * m + (j - 1)

    def pair_index(self, flat: int) -> tuple[int, int]:
        m = self.grids.m
        if not 0 <= flat < self.dim:
            raise IndexError(f"flat index {flat} outside 0..{self.dim - 1}")
        return flat // m + 1, flat % m + 1


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


def assemble_mortality(model: Model2D, grids: CollocationGrids) -> np.ndarray:
    """The mortality block: double cumulative integral of mu times the
    mixed derivative.

    Realized as Dx^{-1} Dy^{-1} diag(mu) Dx Dy on the inner tensor grid,
    with one solve along each axis of the (n, m, n, m) tensor.  A constant
    mu short-circuits to mu * I, which is the exact value of the block in
    that case.
    """
    n, m = grids.n, grids.m
    mu = _samples(model.mu, "mu", grids.theta_x[:, None], grids.theta_y[None, :])
    if model.mu.is_constant:
        return float(mu[0, 0]) * np.eye(n * m)
    dx, dy = grids.dx.trimmed, grids.dy.trimmed
    # diag(mu) (Dx (x) Dy) as t[i, j, i', j'], then Dx^{-1} along i, Dy^{-1} along j
    t = (mu[:, :, None, None] * dx[:, None, :, None]) * dy[None, :, None, :]
    t = lu_solve(dx, t.reshape(n, -1))  # [i, (j, i', j')]
    t = lu_solve(dy, t.T.reshape(m, -1))  # [j, (i', j', i)]
    return t.T.reshape(n, m, n, m).transpose(2, 3, 0, 1).reshape(n * m, n * m)


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
    grids: CollocationGrids,
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
    n, m = grids.n, grids.m
    dom = model.domain
    x_rule = cc_weights(cheb_grid(dom.x0, dom.x_bar, oversample * n))
    y_rule = cc_weights(cheb_grid(dom.y0, dom.y_bar, oversample * m))
    ex = interp_matrix(grids.theta_x, x_rule.nodes)
    ey = interp_matrix(grids.theta_y, y_rule.nodes)
    if axis == "x":
        rows = _kernel_cubature(model.alpha, "alpha", grids.theta_x, x_rule, y_rule)
        trimmed = grids.dx.trimmed
    else:
        rows = _kernel_cubature(model.beta, "beta", grids.theta_y, x_rule, y_rule)
        trimmed = grids.dy.trimmed
    # rows @ kron(ex, ey) @ kron(Dx, Dy), one axis at a time
    collocated = ex.T @ rows @ ey
    mixed = grids.dx.trimmed.T @ collocated @ grids.dy.trimmed
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
    grids = collocation_grids(model, n, m)
    gx = _velocity_samples(model.gx, grids.x.nodes, "gx")[1:]
    gy = _velocity_samples(model.gy, grids.y.nodes, "gy")[1:]
    a_block = assemble_boundary(model, grids, "x", oversample)
    b_block = assemble_boundary(model, grids, "y", oversample)
    m_block = assemble_mortality(model, grids)
    matrix = np.zeros((n * m, n * m))
    # the lifts -Gx (Dx (x) I) and -Gy (I (x) Dy), written into the
    # [i, j, i', j'] view: blocks on j = j' and on i = i'
    lifted = matrix.reshape(n, m, n, m)
    j = np.arange(m)
    lifted[:, j, :, j] = -(gx[:, None] * grids.dx.trimmed)
    i = np.arange(n)
    lifted[i, :, i, :] -= gy[:, None] * grids.dy.trimmed
    matrix += a_block
    matrix += b_block
    matrix -= m_block
    return GeneratorMatrix(matrix, grids, a_block, b_block, m_block)


def assemble_1d(model: Model1D, n: int, oversample: int = 2) -> GeneratorMatrix:
    """Discretized generator of a 1-D model at degree n."""
    if n < 1:
        raise ValueError("degree must be at least 1")
    g = cheb_grid(model.x0, model.x_bar, n)
    ops = diff_ops(g)
    grids = CollocationGrids(g, ops)
    trimmed = ops.trimmed
    rule = cc_weights(cheb_grid(model.x0, model.x_bar, oversample * n))
    e = interp_matrix(g.nodes[1:], rule.nodes)
    beta_w = rule.weights * _samples(model.beta, "beta", rule.nodes)
    renewal_row = beta_w @ e @ trimmed
    b_block = np.tile(renewal_row, (n, 1))
    mu = _samples(model.mu, "mu", g.nodes[1:])
    if model.mu.is_constant:
        m_block = float(mu[0]) * np.eye(n)
    else:
        m_block = lu_solve(trimmed, mu[:, None] * trimmed)
    matrix = -trimmed + b_block - m_block
    return GeneratorMatrix(matrix, grids, None, b_block, m_block)
