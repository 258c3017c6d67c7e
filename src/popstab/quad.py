"""Clenshaw-Curtis quadrature and tensor cubature.

Weights come from the explicit cosine-sum formula (no FFT needed at the
degrees used here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ChebGrid, cheb_grid


class ShapeMismatch(ValueError):
    pass


@dataclass(frozen=True)
class CCRule:
    """Clenshaw-Curtis rule on the extremal nodes of a Chebyshev grid."""

    grid: ChebGrid
    weights: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes


@dataclass(frozen=True)
class TensorCubature:
    """Tensor-product rule over a rectangle; weights are the outer product."""

    x_rule: CCRule
    y_rule: CCRule

    @property
    def weights(self) -> np.ndarray:
        return np.outer(self.x_rule.weights, self.y_rule.weights)


def cc_weights(grid: ChebGrid) -> CCRule:
    """Clenshaw-Curtis weights for the n+1 extremal points of [a, b].

    The rule integrates polynomials up to the grid degree exactly and all
    weights are strictly positive.
    """
    n = grid.n
    if n == 1:
        w = np.array([1.0, 1.0]) * (grid.b - grid.a) / 2.0
        return CCRule(grid, w)
    theta = np.pi * np.arange(1, n) / n
    k = np.arange(1, (n + 1) // 2)
    v = 1.0 - np.cos(np.outer(theta, 2.0 * k)) @ (2.0 / (4.0 * k * k - 1.0))
    if n % 2 == 0:
        end = 1.0 / (n * n - 1)
        v -= np.cos(n * theta) / (n * n - 1.0)
    else:
        end = 1.0 / (n * n)
    w = np.empty(n + 1)
    w[0] = w[n] = end
    w[1:n] = 2.0 * v / n
    # interior weights correspond to ascending nodes; the rule is symmetric
    w[1:n] = w[1:n][::-1]
    return CCRule(grid, w * (grid.b - grid.a) / 2.0)


def tensor_rule(x0, x1, y0, y1, degree_x, degree_y) -> TensorCubature:
    return TensorCubature(
        cc_weights(cheb_grid(x0, x1, degree_x)),
        cc_weights(cheb_grid(y0, y1, degree_y)),
    )


def quadrature(rule: CCRule, values) -> float:
    """Weighted sum approximating the integral over [a, b]."""
    values = np.asarray(values, dtype=float)
    if values.shape != rule.weights.shape:
        raise ShapeMismatch(
            f"expected {rule.weights.shape}, got {values.shape}"
        )
    return float(rule.weights @ values)


def cubature_rect(rule: TensorCubature, values) -> float:
    """Tensor cubature of f over the rectangle from samples at the nodes.

    ``values[p, q]`` must be f at (x_rule.nodes[p], y_rule.nodes[q]).
    """
    values = np.asarray(values, dtype=float)
    expected = (rule.x_rule.weights.size, rule.y_rule.weights.size)
    if values.shape != expected:
        raise ShapeMismatch(f"expected {expected}, got {values.shape}")
    return float(rule.x_rule.weights @ values @ rule.y_rule.weights)
