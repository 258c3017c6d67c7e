import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from popstab import assembly
from popstab.assembly import (
    assemble,
    assemble_1d,
    assemble_2d,
    collocation_axis,
    collocation_grids,
)
from popstab.expr import DomainError
from popstab.grid import cheb_grid, diff_ops, interp_matrix
from popstab.model import BUILTIN_NAMES, InvalidSample, NonpositiveVelocity, builtin, load_model
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


def _dense_mortality(model, axes):
    """The mortality block D^{-1} diag(mu) D, D = D_x (x) D_y, read from the
    factors the generator keeps: the per-axis blocks M_k of a separable mu,
    lifted with np.kron, or the whole block of a mu that is not separable."""
    parts, mu = assembly._mortality(model, axes)
    if mu is not None:
        return assembly._mortality_block(mu, axes)
    if len(parts) == 1:
        return parts[0]
    mx, my = parts
    return np.kron(mx, np.eye(len(my))) + np.kron(np.eye(len(mx)), my)


def _dense_boundary(gen, axis):
    """The dense boundary block of ``gen.axes[axis]``: its row factor, of
    length 1 along that axis, broadcast along it."""
    shape = (*(ax.n for ax in gen.axes), gen.dim)
    return np.broadcast_to(gen.rows[axis], shape).reshape(gen.dim, gen.dim)


def test_constant_mortality_is_identity():
    model, _ = builtin("ex1_1")
    axes = collocation_grids(model, 6, 5)
    m_block = _dense_mortality(model, axes)
    assert np.max(np.abs(m_block - np.eye(30))) <= 1e-11


def test_constant_mortality_through_composition_route():
    # same constant, but written with a free variable: it is recognised as
    # constant from its samples, not from its expression
    for c in (1.0, 3.7):
        model = load(ZERO_2D.replace('mu = "0"', f'mu = "{c!r} + 0*x"'))
        axes = collocation_grids(model, 8, 8)
        m_block = _dense_mortality(model, axes)
        err = np.max(np.sum(np.abs(m_block - c * np.eye(64)), axis=1))
        assert err <= 1e-10 * (1.0 + abs(c))


def test_zero_mortality_is_exactly_zero():
    model = load(ZERO_2D)
    axes = collocation_grids(model, 4, 4)
    assert np.array_equal(_dense_mortality(model, axes), np.zeros((16, 16)))


def test_mortality_action_exact_on_compatible_degrees():
    # mu = 2x + 1 with d2 psi/dxdy of degree (1, 0): mu * mixed derivative
    # stays within the degrees the cumulative solves integrate exactly, so
    # the block action equals the analytic double integral.
    model, _ = builtin("ex1_4")
    axes = collocation_grids(model, 4, 4)
    tx, ty = (ax.theta for ax in axes)
    psi = (tx[:, None] ** 2 * ty[None, :]).ravel()  # psi = x^2 y, AC0 on [0,2]x[0,1]
    m_block = _dense_mortality(model, axes)
    got = m_block @ psi
    expected = (((4.0 / 3.0) * tx**3 + tx**2)[:, None] * ty[None, :]).ravel()
    assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_boundary_block_zero_kernel_exact():
    model = load(ZERO_2D)
    gen = assemble(model, 3, 4)
    assert np.array_equal(_dense_boundary(gen, 1), np.zeros((12, 12)))


def test_boundary_block_ex11_symbolic_oracle():
    # alpha == 1 at n = m = 2 on [0,1]^2: the basis derivatives integrate to
    # [l_i(1) - l_i(0)][l_j(1) - l_j(0)], nonzero only for i = j = 2, and the
    # outer cumulative integral of that constant is x_k * delta.
    model, _ = builtin("ex1_1")
    gen = assemble(model, 2, 2)
    xs = gen.axes[0].theta
    expected = np.zeros((4, 4))
    for k in range(2):
        for l in range(2):
            expected[k * 2 + l, 1 * 2 + 1] = xs[k]
    assert np.max(np.abs(_dense_boundary(gen, 1) - expected)) <= 1e-10


def test_boundary_rows_replicate_bitwise():
    model, _ = builtin("ex1_3")
    n, m = 5, 4
    gen = assemble(model, n, m)
    # alpha's rows are replicated along y, beta's along x
    assert gen.rows[1].shape == (n, 1, n * m) and gen.rows[0].shape == (1, m, n * m)
    a_block = _dense_boundary(gen, 1)
    b_block = _dense_boundary(gen, 0)
    for k in range(n):
        for l in range(1, m):
            assert np.array_equal(a_block[k * m + l], a_block[k * m])
    for l in range(m):
        for k in range(1, n):
            assert np.array_equal(b_block[k * m + l], b_block[l])


def test_zero_model_is_pure_advection():
    model = load(ZERO_2D)
    gen = assemble_2d(model, 4, 3)
    dx = np.kron(gen.axes[0].d, np.eye(3))
    dy = np.kron(np.eye(4), gen.axes[1].d)
    expected = -(1.0 * dx) - (1.0 * dy)
    assert np.array_equal(gen.matrix, expected)


def test_kronecker_commutation():
    model, _ = builtin("ex1_3")
    ax, ay = collocation_grids(model, 7, 5)
    dx = np.kron(ax.d, np.eye(5))
    dy = np.kron(np.eye(7), ay.d)
    scale = np.max(np.abs(dx @ dy))
    assert np.max(np.abs(dx @ dy - dy @ dx)) <= 1e-13 * scale


def test_oversample_insensitive_for_smooth_kernels():
    for name in ("ex1_3", "ex1_4", "velocity"):
        model, _ = builtin(name)
        low = assemble(model, 10, 10, oversample=2)
        high = assemble(model, 10, 10, oversample=4)
        for axis in (1, 0):
            assert np.max(np.abs(low.rows[axis] - high.rows[axis])) <= 1e-8


def test_oversample_validation():
    model, _ = builtin("ex1_1")
    with pytest.raises(ValueError):
        assemble(model, 2, 2, oversample=0)


def test_degree_validation():
    # the grid of the axis rejects a degree below 1
    with pytest.raises(ValueError, match="degree must be at least 1"):
        assemble(builtin("appendix1d")[0], 0)
    with pytest.raises(ValueError, match="degree must be at least 1"):
        assemble(builtin("ex2_1")[0], 4, 0)


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
    psi = gen.axes[0].theta - 0.5
    got = gen.matrix @ psi
    assert np.max(np.abs(got + 1.0)) <= 1e-12


def test_1d_appendix_eigenvalue():
    model, ref = builtin("appendix1d")
    gen = assemble_1d(model, 30)
    report = compute_spectrum(gen, k=1)
    nearest = min(report.eigenvalues, key=lambda z: abs(z - ref.lam))
    assert abs(nearest - ref.lam) <= 1e-10


def test_1d_model_takes_no_m():
    model, _ = builtin("appendix1d")
    with pytest.raises(ValueError):
        assemble(model, 4, 9)


def test_generator_matrix_is_finite():
    for name in ("ex2_4", "velocity"):
        model, _ = builtin(name)
        gen = assemble_2d(model, 6, 6)
        assert np.all(np.isfinite(gen.matrix))


# a 1-D model file with a nonconstant mu and beta
FILE_1D = 'x_min = 0.5\nx_max = 2\nmu = "x^2 + 1"\nbeta = "sin(3*x) + 2"\n'
# a 2-D model file whose mu is not a sum of functions of x and of y
FILE_NONSEPARABLE = ZERO_2D.replace('mu = "0"', 'mu = "x*y + 1"').replace(
    'alpha = "0"', 'alpha = "exp(-xi) * sigma"'
).replace('beta = "0"', 'beta = "y + xi"') + 'gx = "1 + x"\n'


def _kron_reference(model, n, m, oversample=2):
    """The generator and its mortality block, built with explicit nm x nm
    Kronecker factors from the formula in the assembly module docstring
    (in 1-D, at degree n: -D + 1 (w beta)^T E D - D^{-1} diag(mu) D)."""
    if model.dimension == 1:
        (ax,) = collocation_grids(model, n)
        rule = cc_weights(cheb_grid(*model.bounds[0], oversample * n))
        beta_w = rule.weights * np.broadcast_to(model.beta(rule.nodes), rule.nodes.shape)
        renewal = beta_w @ interp_matrix(ax.theta, rule.nodes) @ ax.d
        mu = np.broadcast_to(model.mu(ax.theta), (n,))
        m_block = np.linalg.solve(ax.d, mu[:, None] * ax.d)
        return -ax.d + np.outer(np.ones(n), renewal) - m_block, m_block
    ax, ay = collocation_grids(model, n, m)
    dx, dy = ax.d, ay.d
    tx, ty = ax.theta, ay.theta
    (x0, x_bar), (y0, y_bar) = model.bounds
    x_rule = cc_weights(cheb_grid(x0, x_bar, oversample * n))
    y_rule = cc_weights(cheb_grid(y0, y_bar, oversample * m))
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
    models = [(name, builtin(name)[0]) for name in BUILTIN_NAMES]
    files = [("1-D model file", load(FILE_1D)), ("x*y + 1", load(FILE_NONSEPARABLE))]
    for name, model in models + files:
        gen = assemble(model, n, m if model.dimension == 2 else None)
        matrix, m_block = _kron_reference(model, n, m)
        tol = 1e-14 * np.max(np.sum(np.abs(matrix), axis=1))
        assert np.max(np.abs(gen.matrix - matrix)) <= tol, name
        assert np.max(np.abs(_dense_mortality(model, gen.axes) - m_block)) <= tol, name


def test_each_trimmed_d_is_factored_once(monkeypatch):
    # ex1_4 has a non-constant mu: both boundary blocks and the mortality
    # block solve with the trimmed D of each axis
    factor = assembly.lu_factor
    factored = []
    monkeypatch.setattr(assembly, "lu_factor", lambda a: factored.append(a) or factor(a))
    collocation_axis.cache_clear()
    gen = assemble(builtin("ex1_4")[0], 6, 5)
    assert len(factored) == 2
    for a, ax in zip(factored, gen.axes):
        assert np.array_equal(a, ax.d)
    # the axes, with their factors, are shared by the next generator
    assemble(builtin("ex1_4")[0], 6, 5)
    assert len(factored) == 2


def test_generators_of_one_interval_and_degree_share_their_axes():
    model, _ = builtin("ex1_4")
    first, second = assemble(model, 6, 5), assemble(model, 6, 5)
    assert all(a is b for a, b in zip(first.axes, second.axes, strict=True))
    one_d = load(FILE_1D)
    assert assemble(one_d, 7).axes[0] is assemble(one_d, 7).axes[0]
    # an axis depends on its interval and degree, not on the model
    (x_axis,) = collocation_grids(load(FILE_1D.replace("x^2 + 1", "3")), 7)
    assert x_axis is assemble(one_d, 7).axes[0]


def _axis_arrays(ax):
    """Every array an axis hands out, with its LU factors and its cubature
    record: the rule, E D and the absolute row sums of E D."""
    rule, *derivative = ax.cubature(2)
    return [*_held_arrays(ax), ax.theta, *ax.lu, *_held_arrays(rule), *derivative]


def test_axis_arrays_are_read_only():
    (ax,) = collocation_grids(load(FILE_1D), 5)
    arrays = _axis_arrays(ax)
    assert len(arrays) == 11
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 0


def test_cached_axis_equals_a_fresh_build():
    for a, b, n in [(0.5, 2.0, 5), (0.0, 1.0, 12), (-3.0, 1e3, 30)]:
        cached = collocation_axis(a, b, n)
        fresh = collocation_axis.__wrapped__(a, b, n)
        assert fresh is not cached
        for x, y in zip(_axis_arrays(cached), _axis_arrays(fresh), strict=True):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert x.tobytes() == y.tobytes()


def _renewal_bisection(clear_cache: bool) -> list[np.ndarray]:
    """The generators of eight bisection steps for the stability threshold
    c* = 2 / (1 - e^-4) of mu = 1, beta = c exp(-x) on [0, 2]."""
    lo, hi = 1.0, 3.0
    matrices = []
    for _ in range(8):
        c = 0.5 * (lo + hi)
        model = load(f'x_min = 0\nx_max = 2\nmu = "1"\nbeta = "{c!r} * exp(-x)"\n')
        if clear_cache:
            collocation_axis.cache_clear()
        gen = assemble(model, 30)
        matrices.append(gen.matrix)
        if compute_spectrum(gen, k=1).abscissa < 0:
            lo = c
        else:
            hi = c
    assert lo < 2.0 / (1.0 - np.exp(-4.0)) < hi
    return matrices


def test_bisection_generators_do_not_depend_on_the_axis_cache():
    shared, rebuilt = _renewal_bisection(False), _renewal_bisection(True)
    for a, b in zip(shared, rebuilt, strict=True):
        assert a.tobytes() == b.tobytes()


def test_nonseparable_mortality_is_subtracted_after_the_boundary_rows():
    model = load(FILE_NONSEPARABLE)
    without = load(FILE_NONSEPARABLE.replace('mu = "x*y + 1"', 'mu = "0"'))
    gen = assemble(model, 6, 5)
    m_block = assembly._mortality_block(gen.mu, gen.axes)
    assert np.array_equal(gen.matrix, assemble(without, 6, 5).matrix - m_block)


OVERFLOW_2D = 'x_min = 0\nx_max = 2\ny_min = 0\ny_max = 1\nalpha = "1"\nbeta = "1"\n'
OVERFLOW = "the generator of degree 6 x 6 overflows the float range"


def test_overflowing_generator_is_reported():
    # cubature weights near 1e300 times a kernel of 1e300
    model = load('x_min = 0\nx_max = 1e300\nmu = "1"\nbeta = "1e300"\n')
    with pytest.raises(assembly.GeneratorOverflow):
        assemble(model, 4)
    # a block beyond the float range: assembly itself refuses
    with pytest.raises(assembly.GeneratorOverflow, match=OVERFLOW):
        assemble(load(OVERFLOW_2D + 'mu = "1"\ngx = "1e308"\n'), 6)
    # finite factors, but the whole mortality block of a mu that is not
    # separable overflows the dense matrix
    gen = assemble(load(OVERFLOW_2D + 'mu = "1e307*x*y + 1"\n'), 6)
    assert gen.mu is not None
    with pytest.raises(assembly.GeneratorOverflow, match=OVERFLOW):
        gen.matrix


@pytest.mark.parametrize("name", ["ex2_1", "ex1_4", "velocity"])
def test_assembly_peak_memory(name):
    # the generator keeps its factors, and builds one dense nm x nm array,
    # its matrix, on first use: mortality is folded into the per-axis blocks
    # (every builtin mu is separable) and the boundary rows are added
    # through a broadcast view
    model, _ = builtin(name)
    n = m = 24
    assemble_2d(model, 4, 4).matrix  # warm up lazy imports and caches
    dense = (n * m) ** 2 * 8
    tracemalloc.start()
    try:
        gen = assemble_2d(model, n, m)
        assembly_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        matrix = gen.matrix
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assembly_peak <= 0.5 * dense
    assert peak <= 1.5 * dense
    assert not [a for a in _held_arrays(gen) if a.size >= gen.dim**2]
    assert matrix.shape == (gen.dim, gen.dim) and matrix.dtype == np.float64
    assert gen.matrix is matrix


def test_assembly_memory_at_degree_128():
    # ex2_1's kernels come back as (128, 1, 1) samples, and one row of each
    # goes through the cubature: the whole (128, 257, 257) tensor and its
    # weighted copy took 119.6 MB
    model, _ = builtin("ex2_1")
    assemble(model, 128)  # warm up the axis cache
    tracemalloc.start()
    try:
        assemble(model, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


@pytest.mark.parametrize(
    "alpha",
    ["x / (xi - 0.5)", "log(0.7 - sigma)", "sqrt(0.6 - x) + xi", "log(1.2 - x - xi*sigma)"],
)
def test_invalid_kernel_sample_names_the_first_point_of_the_grid(alpha):
    # the samples are checked at the shape the evaluator returns, here
    # (n, 2n+1, 1), (1, 1, 2m+1), (n, 1, 1) and (n, 2n+1, 2m+1); the point
    # named is the first one of the whole grid in C order
    model = load(ZERO_2D.replace('alpha = "0"', f'alpha = "{alpha}"'))
    ax, ay = collocation_grids(model, 7, 5)
    grid = np.broadcast_arrays(*np.ix_(ax.theta, ax.cubature(2)[0].nodes, ay.cubature(2)[0].nodes))
    try:
        with np.errstate(divide="ignore", invalid="ignore"):
            bad = ~np.isfinite(model.alpha(*grid))
    except DomainError as exc:
        bad = np.broadcast_to(exc.where, grid[0].shape)
    first = np.unravel_index(np.argmax(bad), bad.shape)
    at = ", ".join(f"{v} = {p[first]:.17g}" for v, p in zip(("x", "xi", "sigma"), grid))
    with pytest.raises(InvalidSample, match=re.escape(f"at {at}")):
        assemble(model, 7, 5)


def _held_arrays(obj):
    """The arrays reachable from obj through dataclass fields and tuples."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, tuple):
        for item in obj:
            yield from _held_arrays(item)
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _held_arrays(getattr(obj, f.name))
