import numpy as np
import pytest

from popstab.grid import cheb_grid, diff_ops
from popstab.linalg import lu_solve
from popstab.model import _norm_constant
from popstab.quad import cc_weights


def test_degree_two_weights():
    # solve the exactness conditions on 1, x, x^2 by hand: (1/3, 4/3, 1/3)
    rule = cc_weights(cheb_grid(-1.0, 1.0, 2))
    assert np.max(np.abs(rule.weights - np.array([1.0, 4.0, 1.0]) / 3.0)) <= 1e-15


def test_weights_sum_to_interval_length():
    for a, b, n in [(0.0, 1.0, 1), (0.0, 1.0, 9), (-3.0, 5.0, 24), (0.1, 0.2, 33)]:
        rule = cc_weights(cheb_grid(a, b, n))
        assert abs(np.sum(rule.weights) - (b - a)) <= 1e-13 * (b - a)


def test_weights_strictly_positive():
    for n in range(1, 40):
        rule = cc_weights(cheb_grid(-1.0, 1.0, n))
        assert np.all(rule.weights > 0)


def _loop_weights(n):
    """Clenshaw-Curtis weights on [-1, 1] by the cosine sum, one term at a
    time (the reference for the vectorized sum)."""
    theta = np.pi * np.arange(1, n) / n
    v = np.ones(n - 1)
    for k in range(1, (n + 1) // 2):
        v -= 2.0 * np.cos(2.0 * k * theta) / (4.0 * k * k - 1.0)
    end = 1.0 / (n * n)
    if n % 2 == 0:
        v -= np.cos(n * theta) / (n * n - 1.0)
        end = 1.0 / (n * n - 1)
    return np.concatenate([[end], 2.0 * v[::-1] / n, [end]])


def test_weights_match_term_by_term_sum():
    # the vectorized sum adds the same terms in another order: n terms of
    # rounding, so n * eps relative to the largest weight
    for n in range(2, 200):
        got = cc_weights(cheb_grid(-1.0, 1.0, n)).weights
        want = _loop_weights(n)
        assert np.max(np.abs(got - want)) <= n * np.finfo(float).eps * np.max(want), n


@pytest.mark.parametrize("a,b,n", [(0.0, 1.0, 4), (-2.0, 1.0, 7), (0.0, 3.0, 10)])
def test_polynomial_exactness_up_to_degree(a, b, n):
    rule = cc_weights(cheb_grid(a, b, n))
    for k in range(n + 1):
        got = rule.weights @ rule.nodes**k
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        scale = max(1.0, abs(exact), (b - a) * max(abs(a), abs(b)) ** k)
        assert abs(got - exact) <= 1e-12 * scale


def test_exponential_integral():
    rule = cc_weights(cheb_grid(0.0, 1.0, 8))
    assert abs(rule.weights @ np.exp(rule.nodes) - (np.e - 1.0)) <= 1e-9


# Integrals over a rectangle (the builtin normalization constants) use the
# tensor rule: an outer product of Clenshaw-Curtis weights.


def _ones(a, b):
    return np.ones(np.broadcast_shapes(np.shape(a), np.shape(b)))


def test_cubature_constant_and_bilinear():
    assert _norm_constant(_ones, 0.0, 1.0, 0.0, 1.0, 3) == pytest.approx(1.0, abs=1e-12)
    got = _norm_constant(lambda a, b: a * b, 0.0, 2.0, 0.0, 1.0, 1)
    assert got == pytest.approx(1.0, abs=1e-13)


def test_cubature_total_weight_is_area():
    area = 1.0 * 1.5
    got = _norm_constant(_ones, 0.5, 1.5, 0.5, 2.0, 13)
    assert abs(got - area) <= 1e-12 * area


def test_cubature_converges_to_oversampled_oracle():
    def f(a, b):
        return np.exp(a * a - b * b)

    def value(degree):
        return _norm_constant(f, 0.5, 1.5, 0.5, 2.0, degree)

    oracle = value(64)
    errs = [abs(value(d) - oracle) for d in (4, 8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[3] <= 1e-12 * abs(oracle)


def test_cubature_of_x_only_function_matches_1d():
    got = _norm_constant(lambda a, b: a**2 + 1.0 + 0.0 * b, 0.0, 1.0, 2.0, 5.0, 8)
    x_rule = cc_weights(cheb_grid(0.0, 1.0, 8))
    oned = x_rule.weights @ (x_rule.nodes**2 + 1.0)
    assert abs(got - 3.0 * oned) <= 1e-12 * abs(got)


def test_cubature_shape_mismatch():
    with pytest.raises(ValueError):
        _norm_constant(lambda a, b: np.ones((3, 4)), 0.0, 1.0, 0.0, 1.0, 3)


# Cumulative integrals are solves with the trimmed differentiation matrix:
# given the integrand at the inner nodes, entry k of the solve is the integral
# of its interpolant from the left endpoint to node k.  Assembly relies on it.


def test_cumulative_of_ones():
    g = cheb_grid(0.0, 1.0, 2)
    ops = diff_ops(g)
    got = lu_solve(ops.trimmed, np.ones(2))
    assert np.max(np.abs(got - np.array([0.5, 1.0]))) <= 1e-13


def test_cumulative_polynomial_exactness():
    g = cheb_grid(0.0, 1.0, 6)
    ops = diff_ops(g)
    inner = g.nodes[1:]
    got = lu_solve(ops.trimmed, 2.0 * inner)
    assert np.max(np.abs(got - inner**2)) <= 1e-12


def test_cumulative_analytic_antiderivative():
    g = cheb_grid(0.0, np.pi / 2, 12)
    ops = diff_ops(g)
    inner = g.nodes[1:]
    got = lu_solve(ops.trimmed, np.cos(inner))
    assert np.max(np.abs(got - np.sin(inner))) <= 1e-9


def test_double_cumulative_of_one():
    gx = cheb_grid(0.3, 2.1, 7)
    gy = cheb_grid(-1.0, 0.5, 5)
    dx, dy = diff_ops(gx), diff_ops(gy)
    along_x = lu_solve(dx.trimmed, np.ones((7, 5)))
    both = lu_solve(dy.trimmed, along_x.T).T
    expected = np.outer(gx.nodes[1:] - 0.3, gy.nodes[1:] + 1.0)
    assert np.max(np.abs(both - expected)) <= 1e-11


def test_cumulative_shape_mismatch():
    ops = diff_ops(cheb_grid(0.0, 1.0, 4))
    with pytest.raises(ValueError):
        lu_solve(ops.trimmed, np.ones(5))
