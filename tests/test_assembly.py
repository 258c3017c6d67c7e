import tracemalloc

import numpy as np
import pytest

from popstab.assembly import (
    assemble_1d,
    assemble_2d,
    assemble_boundary,
    assemble_mortality,
    collocation_grids,
)
from popstab.grid import cheb_grid, diff_ops, interp_matrix
from popstab.model import BUILTIN_NAMES, NonpositiveVelocity, builtin, load_model
from popstab.quad import cc_weights
from popstab.spectra import compute_spectrum

ZERO_2D = """
x_min = 0
x_max = 1
y_min = 0
y_max = 2
mu = "0"
alpha = "0"
beta = "0"
"""


def load(text):
    return load_model(text)


def test_constant_mortality_is_identity():
    model, _ = builtin("ex1_1")
    grids = collocation_grids(model, 6, 5)
    m_block = assemble_mortality(model, grids)
    assert np.max(np.abs(m_block - np.eye(30))) <= 1e-11


def test_constant_mortality_through_composition_route():
    # same constant, but written with a free variable so the cumulative
    # composition (not the diagonal shortcut) is exercised
    for c in (1.0, 3.7):
        model = load(ZERO_2D.replace('mu = "0"', f'mu = "{c!r} + 0*x"'))
        grids = collocation_grids(model, 8, 8)
        m_block = assemble_mortality(model, grids)
        err = np.max(np.sum(np.abs(m_block - c * np.eye(64)), axis=1))
        assert err <= 1e-10 * (1.0 + abs(c))


def test_zero_mortality_is_exactly_zero():
    model = load(ZERO_2D)
    grids = collocation_grids(model, 4, 4)
    assert np.array_equal(assemble_mortality(model, grids), np.zeros((16, 16)))


def test_mortality_action_exact_on_compatible_degrees():
    # mu = 2x + 1 with d2 psi/dxdy of degree (1, 0): mu * mixed derivative
    # stays within the degrees the cumulative solves integrate exactly, so
    # the block action equals the analytic double integral.
    model, _ = builtin("ex1_4")
    grids = collocation_grids(model, 4, 4)
    tx, ty = grids.theta_x, grids.theta_y
    psi = (tx[:, None] ** 2 * ty[None, :]).ravel()  # psi = x^2 y, AC0 on [0,2]x[0,1]
    m_block = assemble_mortality(model, grids)
    got = m_block @ psi
    expected = (((4.0 / 3.0) * tx**3 + tx**2)[:, None] * ty[None, :]).ravel()
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_boundary_block_zero_kernel_exact():
    model = load(ZERO_2D)
    grids = collocation_grids(model, 3, 4)
    a_block = assemble_boundary(model, grids, "x")
    assert np.array_equal(a_block, np.zeros((12, 12)))


def test_boundary_block_ex11_symbolic_oracle():
    # alpha == 1 at n = m = 2 on [0,1]^2: the basis derivatives integrate to
    # [l_i(1) - l_i(0)][l_j(1) - l_j(0)], nonzero only for i = j = 2, and the
    # outer cumulative integral of that constant is x_k * delta.
    model, _ = builtin("ex1_1")
    gen = assemble_2d(model, 2, 2)
    xs = gen.grids.theta_x
    expected = np.zeros((4, 4))
    for k in range(2):
        for l in range(2):
            expected[k * 2 + l, 1 * 2 + 1] = xs[k]
    assert np.max(np.abs(gen.a_block - expected)) <= 1e-10


def test_boundary_rows_replicate_bitwise():
    model, _ = builtin("ex1_3")
    gen = assemble_2d(model, 5, 4)
    n, m = 5, 4
    for k in range(n):
        for l in range(1, m):
            assert np.array_equal(gen.a_block[k * m + l], gen.a_block[k * m])
    for l in range(m):
        for k in range(1, n):
            assert np.array_equal(gen.b_block[k * m + l], gen.b_block[l])


def test_zero_model_is_pure_advection():
    model = load(ZERO_2D)
    gen = assemble_2d(model, 4, 3)
    dx = np.kron(gen.grids.dx.trimmed, np.eye(3))
    dy = np.kron(np.eye(4), gen.grids.dy.trimmed)
    expected = -(1.0 * dx) - (1.0 * dy)
    assert np.array_equal(gen.matrix, expected)


def test_kronecker_commutation():
    model, _ = builtin("ex1_3")
    grids = collocation_grids(model, 7, 5)
    dx = np.kron(grids.dx.trimmed, np.eye(5))
    dy = np.kron(np.eye(7), grids.dy.trimmed)
    scale = np.max(np.abs(dx @ dy))
    assert np.max(np.abs(dx @ dy - dy @ dx)) <= 1e-13 * scale


def test_index_map_bijection():
    model, _ = builtin("ex1_1")
    gen = assemble_2d(model, 5, 3)
    seen = set()
    for i in range(1, 6):
        for j in range(1, 4):
            flat = gen.flat_index(i, j)
            assert gen.pair_index(flat) == (i, j)
            seen.add(flat)
    assert seen == set(range(15))
    with pytest.raises(IndexError):
        gen.flat_index(0, 1)
    with pytest.raises(IndexError):
        gen.pair_index(15)


def test_oversample_insensitive_for_smooth_kernels():
    for name in ("ex1_3", "ex1_4", "velocity"):
        model, _ = builtin(name)
        low = assemble_2d(model, 10, 10, oversample=2)
        high = assemble_2d(model, 10, 10, oversample=4)
        assert np.max(np.abs(low.a_block - high.a_block)) <= 1e-8
        assert np.max(np.abs(low.b_block - high.b_block)) <= 1e-8


def test_oversample_validation():
    model, _ = builtin("ex1_1")
    grids = collocation_grids(model, 2, 2)
    with pytest.raises(ValueError):
        assemble_boundary(model, grids, "x", oversample=0)
    with pytest.raises(ValueError):
        assemble_boundary(model, grids, "z")


def test_ex11_eigenvalue_machine_precision_at_degree_two():
    model, ref = builtin("ex1_1")
    gen = assemble_2d(model, 2, 2)
    report = compute_spectrum(gen, k=4)
    nearest = min(report.eigenvalues, key=lambda z: abs(z - ref.lam))
    assert abs(nearest - (-1.0)) <= 1e-10


def test_velocity_eigenvalue_at_degree_25():
    model, ref = builtin("velocity")
    gen = assemble_2d(model, 25, 25)
    report = compute_spectrum(gen, k=1)
    nearest = min(report.eigenvalues, key=lambda z: abs(z - ref.lam))
    assert abs(nearest - (-5.0)) <= 1e-6


def test_nonpositive_velocity_rejected():
    model = load(ZERO_2D + 'gx = "x"\n')  # vanishes at x = 0
    with pytest.raises(NonpositiveVelocity):
        assemble_2d(model, 4, 4)


def test_1d_zero_kernel_constant_mortality():
    model = load('x_min = 0\nx_max = 2\nmu = "1"\nbeta = "0"\n')
    gen = assemble_1d(model, 6)
    trimmed = diff_ops(cheb_grid(0.0, 2.0, 6)).trimmed
    assert np.array_equal(gen.matrix, -trimmed - np.eye(6))


def test_1d_pure_advection_of_linear_function():
    model = load('x_min = 0.5\nx_max = 2\nmu = "0"\nbeta = "0"\n')
    gen = assemble_1d(model, 8)
    psi = gen.grids.theta_x - 0.5
    got = gen.matrix @ psi
    assert np.max(np.abs(got + 1.0)) <= 1e-12


def test_1d_appendix_eigenvalue():
    model, ref = builtin("appendix1d")
    gen = assemble_1d(model, 30)
    report = compute_spectrum(gen, k=1)
    nearest = min(report.eigenvalues, key=lambda z: abs(z - ref.lam))
    assert abs(nearest - ref.lam) <= 1e-10


def test_generator_matrix_is_finite():
    for name in ("ex2_4", "velocity"):
        model, _ = builtin(name)
        gen = assemble_2d(model, 6, 6)
        assert np.all(np.isfinite(gen.matrix))


def _kron_reference(model, n, m, oversample=2):
    """The generator and its mortality block, built with explicit nm x nm
    Kronecker factors from the formula in the assembly module docstring."""
    grids = collocation_grids(model, n, m)
    dx, dy = grids.dx.trimmed, grids.dy.trimmed
    tx, ty = grids.theta_x, grids.theta_y
    dom = model.domain
    x_rule = cc_weights(cheb_grid(dom.x0, dom.x_bar, oversample * n))
    y_rule = cc_weights(cheb_grid(dom.y0, dom.y_bar, oversample * m))
    xi, sigma = x_rule.nodes, y_rule.nodes
    interp = np.kron(interp_matrix(tx, xi), interp_matrix(ty, sigma))
    mixed = np.kron(dx, dy)
    w = np.outer(x_rule.weights, y_rule.weights).ravel()

    def rows(coef, points):
        kern = coef(points[:, None, None], xi[None, :, None], sigma[None, None, :])
        kern = np.broadcast_to(kern, (points.size, xi.size, sigma.size))
        return kern.reshape(points.size, -1) * w

    a_rows = np.linalg.solve(dx, rows(model.alpha, tx) @ interp @ mixed)
    b_rows = np.linalg.solve(dy, rows(model.beta, ty) @ interp @ mixed)
    a_block = np.kron(a_rows, np.ones((m, 1)))
    b_block = np.kron(np.ones((n, 1)), b_rows)
    mu = np.broadcast_to(model.mu(tx[:, None], ty[None, :]), (n, m)).ravel()
    m_block = np.linalg.solve(mixed, mu[:, None] * mixed)
    gx = np.broadcast_to(model.gx(tx), (n,))
    gy = np.broadcast_to(model.gy(ty), (m,))
    lift_x = np.kron(gx[:, None] * dx, np.eye(m))
    lift_y = np.kron(np.eye(n), gy[:, None] * dy)
    return -lift_x - lift_y + a_block + b_block - m_block, m_block


@pytest.mark.parametrize("n, m", [(7, 5), (10, 10)])
def test_per_axis_assembly_matches_kronecker_reference(n, m):
    for name in BUILTIN_NAMES:
        model, _ = builtin(name)
        if model.dimension != 2:
            continue
        gen = assemble_2d(model, n, m)
        matrix, m_block = _kron_reference(model, n, m)
        tol = 1e-14 * np.max(np.sum(np.abs(matrix), axis=1))
        assert np.max(np.abs(gen.matrix - matrix)) <= tol, name
        assert np.max(np.abs(gen.m_block - m_block)) <= tol, name


@pytest.mark.parametrize("name", ["ex2_1", "ex1_4"])
def test_assembly_peak_memory(name):
    # the generator keeps four dense nm x nm arrays (matrix and the A, B, M
    # blocks); assembly may hold at most two more at its peak
    model, _ = builtin(name)
    n = m = 24
    assemble_2d(model, 4, 4)  # warm up lazy imports and caches
    tracemalloc.start()
    try:
        assemble_2d(model, n, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * (n * m) ** 2 * 8
