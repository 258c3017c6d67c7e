import numpy as np
import pytest

from popstab.grid import (
    DuplicateNodes,
    InvalidInterval,
    bary_weights,
    cheb_grid,
    diff_ops,
    interp_matrix,
)
from popstab.linalg import lu_factor, lu_solve


def test_node_examples():
    assert np.array_equal(cheb_grid(0.0, 1.0, 2).nodes, [0.0, 0.5, 1.0])
    assert np.array_equal(cheb_grid(-1.0, 1.0, 1).nodes, [-1.0, 1.0])
    g = cheb_grid(np.pi / 6, np.pi / 2, 2)
    assert g.nodes[0] == np.pi / 6
    assert g.nodes[2] == np.pi / 2
    assert g.nodes[1] == pytest.approx(np.pi / 3, abs=1e-15)


def test_nodes_ascending_with_exact_endpoints():
    for a, b, n in [(0.0, 1.0, 7), (-2.5, 3.0, 16), (1e-3, 2e-3, 33)]:
        g = cheb_grid(a, b, n)
        assert g.nodes[0] == a and g.nodes[-1] == b
        assert np.all(np.diff(g.nodes) > 0)


def test_node_symmetry_under_affine_map():
    g = cheb_grid(0.3, 2.7, 11)
    ref = cheb_grid(-1.0, 1.0, 11)
    mapped = 2.0 * (g.nodes - 0.3) / 2.4 - 1.0
    assert np.max(np.abs(mapped - ref.nodes)) <= 1e-15


def test_bary_weights_alternate_with_halved_endpoints():
    g = cheb_grid(0.0, 2.0, 6)
    w = g.bary_weights
    signs = np.sign(w)
    assert np.all(signs[1:] == -signs[:-1])
    assert abs(w[0]) == pytest.approx(abs(w[1]) / 2)
    assert abs(w[-1]) == pytest.approx(abs(w[-2]) / 2)


def test_generic_bary_weights_match_chebyshev_closed_form():
    g = cheb_grid(-1.0, 1.0, 8)
    generic = bary_weights(g.nodes)
    closed = g.bary_weights / np.max(np.abs(g.bary_weights))
    ratio = generic / closed
    assert np.allclose(ratio, ratio[0], rtol=1e-12)


def test_invalid_interval():
    with pytest.raises(InvalidInterval):
        cheb_grid(1.0, 1.0, 3)
    with pytest.raises(InvalidInterval):
        cheb_grid(2.0, 1.0, 3)
    # positive extents whose nodes do not fit between the ends
    with pytest.raises(InvalidInterval):
        cheb_grid(0.0, 1e-320, 200)
    with pytest.raises(InvalidInterval):
        cheb_grid(1.0, 1.0 + 4e-16, 8)
    # nodes 1.5e-321 apart are distinct, but 1 / gap overflows
    with pytest.raises(InvalidInterval):
        diff_ops(cheb_grid(0.0, 1e-320, 4))


def test_duplicate_nodes():
    with pytest.raises(DuplicateNodes):
        bary_weights([0.0, 0.5, 0.5, 1.0])


def test_full_matrix_degree_two_reference():
    # hand differentiation of the three Lagrange quadratics on {-1, 0, 1}
    ops = diff_ops(cheb_grid(-1.0, 1.0, 2))
    expected = np.array([[-1.5, 2.0, -0.5], [-0.5, 0.0, 0.5], [0.5, -2.0, 1.5]])
    assert np.max(np.abs(ops.full - expected)) <= 1e-14


def test_rows_sum_to_zero():
    for a, b, n in [(0.0, 1.0, 5), (-1.0, 1.0, 20), (2.0, 9.0, 40)]:
        ops = diff_ops(cheb_grid(a, b, n))
        sums = ops.full @ np.ones(n + 1)
        assert np.max(np.abs(sums)) <= 1e-13 * np.max(np.abs(ops.full))


def test_trimmed_degree_two_reference():
    ops = diff_ops(cheb_grid(0.0, 1.0, 2))
    assert np.max(np.abs(ops.trimmed - np.array([[0.0, 1.0], [-4.0, 3.0]]))) <= 1e-13
    # derivative of psi(x) = x (vanishing at 0) sampled at the inner nodes
    got = ops.trimmed @ np.array([0.5, 1.0])
    assert np.max(np.abs(got - 1.0)) <= 1e-13


@pytest.mark.parametrize("a,b,n", [(0.0, 1.0, 6), (-2.0, 3.0, 9), (np.pi / 6, np.pi / 2, 12)])
def test_differentiation_exact_on_monomials(a, b, n):
    g = cheb_grid(a, b, n)
    ops = diff_ops(g)
    scale = max(1.0, max(abs(a), abs(b)))
    for k in range(n + 1):
        deriv = ops.full @ g.nodes**k
        exact = k * g.nodes ** (k - 1) if k > 0 else np.zeros(n + 1)
        bound = 1e-11 * max(1.0, float(n) ** k) * scale ** max(k - 1, 0)
        assert np.max(np.abs(deriv - exact)) <= bound


def test_trimmed_acts_on_polynomials_vanishing_at_left_end():
    rng = np.random.default_rng(3)
    a, b, n = -0.5, 2.0, 9
    g = cheb_grid(a, b, n)
    ops = diff_ops(g)
    coeffs = rng.standard_normal(n)  # q of degree n-1, p = (x-a) q
    inner = g.nodes[1:]
    p = (inner - a) * np.polyval(coeffs, inner)
    dp = np.polyval(coeffs, inner) + (inner - a) * np.polyval(np.polyder(coeffs), inner)
    got = ops.trimmed @ p
    assert np.max(np.abs(got - dp)) <= 1e-11 * max(1.0, np.max(np.abs(dp)))


def test_trimmed_inverse_is_antiderivative():
    for a, b, n in [(0.0, 1.0, 8), (-1.0, 3.0, 15)]:
        g = cheb_grid(a, b, n)
        ops = diff_ops(g)
        got = lu_solve(lu_factor(ops.trimmed), np.ones(n))
        assert np.max(np.abs(got - (g.nodes[1:] - a))) <= 1e-11


def test_interp_identity_on_nodes():
    g = cheb_grid(0.0, 2.0, 7)
    e = interp_matrix(g.nodes, g.nodes)
    assert np.array_equal(e, np.eye(8))


def test_interp_rows_sum_to_one():
    g = cheb_grid(-1.0, 4.0, 9)
    targets = np.linspace(-1.0, 4.0, 37)
    e = interp_matrix(g.nodes, targets)
    assert np.max(np.abs(e @ np.ones(10) - 1.0)) <= 1e-13


def test_interp_reproduces_polynomials():
    rng = np.random.default_rng(17)
    a, b, n = 0.0, 1.5, 8
    g = cheb_grid(a, b, n)
    coeffs = rng.standard_normal(n + 1)
    targets = np.linspace(a, b, 23)
    e = interp_matrix(g.nodes, targets)
    got = e @ np.polyval(coeffs, g.nodes)
    exact = np.polyval(coeffs, targets)
    assert np.max(np.abs(got - exact)) <= 1e-12 * max(1.0, np.max(np.abs(exact)))


def test_interp_from_inner_grid():
    # distinct code path: degree n-1 interpolation from the n inner nodes
    g = cheb_grid(0.0, 1.0, 6)
    inner = g.nodes[1:]
    targets = np.linspace(0.0, 1.0, 11)
    e = interp_matrix(inner, targets)
    coeffs = np.array([2.0, -1.0, 0.5, 3.0, -2.0, 1.0])  # degree 5
    got = e @ np.polyval(coeffs, inner)
    assert np.max(np.abs(got - np.polyval(coeffs, targets))) <= 1e-12 * 10
