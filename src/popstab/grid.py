"""Chebyshev extremal grids, differentiation and interpolation matrices.

Nodes on [a, b] are the affine images of cos(k*pi/n), stored ascending so
the left endpoint comes first.  Differentiation matrices are built from
barycentric weights with the negative-sum trick for the diagonal, which
makes rows of the full matrix sum to zero exactly up to roundoff.  The
trimmed matrix drops the first row and column (the left endpoint); it is
nonsingular and its inverse realizes cumulative integrals from a.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError


class InvalidInterval(ConfigError):
    pass


class DuplicateNodes(ConfigError):
    pass


@dataclass(frozen=True)
class ChebGrid:
    """Chebyshev extremal nodes of degree n on [a, b], ascending."""

    a: float
    b: float
    n: int
    nodes: np.ndarray
    bary_weights: np.ndarray


@dataclass(frozen=True)
class DiffOps:
    """Spectral differentiation on a grid: full (n+1)x(n+1) and trimmed nxn."""

    full: np.ndarray
    trimmed: np.ndarray


def cheb_grid(a: float, b: float, n: int) -> ChebGrid:
    """Grid of the n+1 Chebyshev extremal points of [a, b]."""
    if not 0 < b - a < np.inf:
        raise InvalidInterval(f"need a < b with b - a finite, got [{a}, {b}]")
    if n < 1:
        raise ValueError("degree must be at least 1")
    k = np.arange(n + 1)
    # sine form of the extremal points: exactly antisymmetric, exact center
    scaled = np.sin(np.pi * (2 * k - n) / (2 * n))
    # 0.5 a + 0.5 b is 0.5 (a + b), but cannot overflow
    nodes = (0.5 * a + 0.5 * b) + 0.5 * (b - a) * scaled
    nodes[0] = a
    nodes[-1] = b
    # differentiation-matrix entries reach 2 n / (smallest gap): keep that
    # in the float range, with a factor 2 to spare for rounding
    if not (nodes[1:] - nodes[:-1]).min() > 4 * n / sys.float_info.max:
        raise InvalidInterval(f"the {n + 1} grid nodes on [{a}, {b}] do not fit in floating point")
    # Closed-form weights for extremal points: alternating signs, halved at
    # the endpoints (any common scaling cancels in the barycentric formulas).
    weights = np.where(k % 2 == 0, 1.0, -1.0)
    weights[0] *= 0.5
    weights[-1] *= 0.5
    return ChebGrid(float(a), float(b), int(n), nodes, weights)


def bary_weights(nodes) -> np.ndarray:
    """Barycentric weights 1/prod(x_j - x_k) for arbitrary distinct nodes.

    Factors are rescaled by 4/(b - a) to keep the products well inside the
    floating-point range, and the result is normalized to unit max.
    """
    nodes = np.asarray(nodes, dtype=float)
    span = nodes.max() - nodes.min()
    scale = 4.0 / span if span > 0 else 1.0
    diff = (nodes[:, None] - nodes[None, :]) * scale
    np.fill_diagonal(diff, 1.0)
    if np.any(diff == 0.0):
        raise DuplicateNodes("interpolation nodes must be distinct")
    weights = 1.0 / np.prod(diff, axis=1)
    return weights / np.max(np.abs(weights))


def diff_ops(grid: ChebGrid) -> DiffOps:
    """Full and trimmed differentiation matrices for a Chebyshev grid:
    D[i, j] = l_j'(x_i) over its nodes."""
    nodes, weights = grid.nodes, grid.bary_weights
    diff = nodes[:, None] - nodes[None, :]
    np.fill_diagonal(diff, 1.0)
    full = (weights[None, :] / weights[:, None]) / diff
    np.fill_diagonal(full, 0.0)
    np.fill_diagonal(full, -np.sum(full, axis=1))
    return DiffOps(full, full[1:, 1:].copy())


def interp_matrix(nodes, targets) -> np.ndarray:
    """Barycentric evaluation matrix from values at nodes to targets.

    E[t, j] is the j-th Lagrange basis polynomial over ``nodes`` evaluated
    at ``targets[t]``; a target equal to a node yields that unit row
    exactly.  Rows sum to one (interpolation reproduces constants).
    """
    nodes = np.asarray(nodes, dtype=float)
    targets = np.asarray(targets, dtype=float)
    weights = bary_weights(nodes)
    diff = targets[:, None] - nodes[None, :]
    hit_rows, hit_cols = np.nonzero(diff == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = weights[None, :] / diff
        e = terms / np.sum(terms, axis=1, keepdims=True)
    if hit_rows.size:
        e[hit_rows, :] = 0.0
        e[hit_rows, hit_cols] = 1.0
    return e
