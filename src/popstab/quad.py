"""Clenshaw-Curtis quadrature.

Weights come from the explicit cosine-sum formula (no FFT needed at the
degrees used here).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import ChebGrid


@dataclass(frozen=True)
class CCRule:
    """Clenshaw-Curtis rule on the extremal nodes of a Chebyshev grid."""

    grid: ChebGrid
    weights: np.ndarray

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes


def cc_weights(grid: ChebGrid) -> CCRule:
    """Clenshaw-Curtis weights for the n+1 extremal points of [a, b].

    The rule integrates polynomials up to the grid degree exactly and all
    weights are strictly positive.
    """
    n = grid.n
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

