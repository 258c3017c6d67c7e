import numpy as np
import pytest

from popstab.assembly import (
    CollocationGrids,
    GeneratorMatrix,
    assemble_1d,
    assemble_2d,
    collocation_grids,
)
from popstab.grid import cheb_grid, diff_ops
from popstab.linalg import eigen_dense, norm_inf
from popstab.model import BUILTIN_NAMES, ReferenceEigenpair, builtin, coefficient, load_model
from popstab.quad import tensor_rule
from popstab.spectra import (
    ConvergenceRecord,
    InsufficientData,
    MissingReference,
    Verdict,
    analyze,
    compute_spectrum,
    convergence_sweep,
    default_error_rule,
    eigen_errors,
    fit_order,
    plateau_threshold,
    reconstruct_eigenfunction,
    stability_verdict,
)


def _wrap_matrix(matrix):
    """GeneratorMatrix around an explicit matrix (1-D grid of matching size)."""
    n = matrix.shape[0]
    g = cheb_grid(0.0, 1.0, n)
    return GeneratorMatrix(np.asarray(matrix, float), CollocationGrids(g, diff_ops(g)), None, None, None)


def test_spectrum_of_diagonal():
    report = compute_spectrum(_wrap_matrix(np.diag([-1.0, -3.0])), k=2)
    assert report.abscissa == -1.0
    assert list(report.eigenvalues.real) == [-1.0, -3.0]


def test_spectrum_sorted_descending_with_ties():
    m = np.array([[0.0, 2.0, 0, 0], [-2.0, 0.0, 0, 0], [0, 0, -1.0, 0], [0, 0, 0, 3.0]])
    report = compute_spectrum(_wrap_matrix(m), k=4)
    assert report.eigenvalues[0] == pytest.approx(3.0)
    # the conjugate pair at real part 0 sorts +imag first
    assert report.eigenvalues[1].imag > 0 > report.eigenvalues[2].imag
    assert report.eigenvalues[3] == pytest.approx(-1.0)
    assert report.abscissa == pytest.approx(3.0)


def test_verdicts():
    assert stability_verdict(-1.0, 1e-6) is Verdict.STABLE
    assert stability_verdict(0.5, 1e-6) is Verdict.UNSTABLE
    assert stability_verdict(1e-9, 1e-6) is Verdict.INCONCLUSIVE
    with pytest.raises(ValueError):
        stability_verdict(0.0, -1.0)


def test_reconstruct_bilinear_bubble():
    model, _ = builtin("ex1_1")
    grids = collocation_grids(model, 4, 5)
    tx, ty = grids.theta_x, grids.theta_y
    psi = (tx[:, None] * ty[None, :]).ravel()  # (x - 0)(y - 0)
    xt = np.linspace(0.0, 1.0, 7)
    yt = np.linspace(0.0, 1.0, 6)
    phi = reconstruct_eigenfunction(psi, grids, xt, yt)
    assert np.max(np.abs(phi - 1.0)) <= 1e-12


def test_reconstruct_mixed_derivative():
    model, _ = builtin("ex1_1")
    grids = collocation_grids(model, 5, 4)
    tx, ty = grids.theta_x, grids.theta_y
    psi = (tx[:, None] ** 2 * ty[None, :]).ravel()  # d2/dxdy = 2x
    xt = np.linspace(0.0, 1.0, 9)
    yt = np.linspace(0.0, 1.0, 5)
    phi = reconstruct_eigenfunction(psi, grids, xt, yt)
    assert np.max(np.abs(phi - 2.0 * xt[:, None])) <= 1e-11


def test_reconstruct_1d_derivative():
    g = cheb_grid(0.0, 2.0, 8)
    grids = CollocationGrids(g, diff_ops(g))
    psi = grids.theta_x ** 3
    targets = np.linspace(0.0, 2.0, 11)
    phi = reconstruct_eigenfunction(psi, grids, targets)
    assert np.max(np.abs(phi - 3.0 * targets**2)) <= 1e-10


def test_ex12_eigenfunction_error_small():
    model, ref = builtin("ex1_2")
    report = analyze(model, 15)
    assert report.eps_phi <= 1e-8
    assert report.phi_samples is not None


def test_matched_eigenvalue_error_offsets():
    model, _ = builtin("ex1_1")
    gen = assemble_2d(model, 3, 3)
    report = compute_spectrum(gen, k=3)
    lam_hat = min(report.eigenvalues, key=lambda z: abs(z + 1.0))
    ref = ReferenceEigenpair(lam_hat.real + 1e-6, None, "shifted")
    eps_lambda, eps_phi = eigen_errors(report, ref)
    assert eps_lambda == pytest.approx(1e-6, rel=1e-6)
    assert np.isnan(eps_phi)  # no reference eigenfunction given


def test_alignment_is_scale_invariant():
    model, ref = builtin("ex1_1")
    gen = assemble_2d(model, 2, 2)
    report = compute_spectrum(gen, k=1)
    scaled = ReferenceEigenpair(
        ref.lam, coefficient("3", ("x", "y"), "ref_phi"), "scaled"
    )
    _, eps_phi = eigen_errors(report, scaled)
    assert eps_phi <= 1e-12


def test_alignment_is_least_squares_optimal():
    model, ref = builtin("ex1_3")
    gen = assemble_2d(model, 8, 8)
    report = compute_spectrum(gen, k=1)
    eigen_errors(report, ref)
    rule = default_error_rule(gen)
    xs, ys = rule.x_rule.nodes, rule.y_rule.nodes
    phi_hat = reconstruct_eigenfunction(report.matched_vector, gen.grids, xs, ys)
    phi_ref = ref.phi(xs[:, None], ys[None, :])
    w = rule.weights
    c_best = np.sum(w * np.conj(phi_hat) * phi_ref) / np.sum(w * np.abs(phi_hat) ** 2)

    def l2(c):
        return np.sum(w * np.abs(c * phi_hat - phi_ref) ** 2)

    best = l2(c_best)
    assert l2(c_best * 1.01) >= best
    assert l2(c_best * 0.99) >= best


def test_conjugate_pair_tie_break_is_deterministic():
    # eigenvalues -1 and -0.5 +/- 0.2i; a real reference is equidistant from
    # the pair, and the +imag member is selected
    m = np.array([[-0.5, 0.2, 0.0], [-0.2, -0.5, 0.0], [0.0, 0.0, -1.0]])
    report = compute_spectrum(_wrap_matrix(m), k=3)
    ref = ReferenceEigenpair(-0.5, None, "pair")
    eigen_errors(report, ref)
    assert report.matched.imag > 0
    assert abs(report.matched - (-0.5 + 0.2j)) <= 1e-12


def test_matched_residual_invariant():
    for name, n in (("ex1_2", 8), ("ex1_4", 10), ("velocity", 10), ("appendix1d", 12)):
        model, ref = builtin(name)
        report = analyze(model, n)
        gen = report.generator
        psi = report.matched_vector
        residual = norm_inf(gen.matrix @ psi - report.matched * psi)
        assert residual <= 1e-8 * norm_inf(gen.matrix) * norm_inf(psi), name


def test_rightmost_consistency():
    model, ref = builtin("ex1_1")
    report = analyze(model, 5)
    assert abs(report.matched - report.abscissa) <= 1e-6
    assert report.abscissa == pytest.approx(-1.0, abs=1e-9)


def test_sweep_ex11_exact_zero_at_degree_one():
    model, ref = builtin("ex1_1")
    records = convergence_sweep(model, ref, [1, 2, 3])
    assert [r.n for r in records] == [1, 2, 3]
    assert records[0].eps_phi == 0.0
    assert records[1].eps_lambda <= 1e-10


def test_sweep_ex13_decreases_to_plateau():
    model, ref = builtin("ex1_3")
    records = convergence_sweep(model, ref, [5, 10, 15])
    errs = [r.eps_lambda for r in records]
    assert errs[0] > errs[1] > errs[2] or errs[2] <= 1e-10
    assert errs[2] <= 1e-10


def test_sweep_records_failures_and_continues():
    model = load_model(
        'x_min = 0\nx_max = 1\ny_min = 0\ny_max = 2\n'
        'mu = "1"\nalpha = "0"\nbeta = "0"\ngx = "x"\nref_lambda = -1\n'
    )
    records = convergence_sweep(model, model.reference, [2, 3])
    assert len(records) == 2
    assert all(r.error is not None for r in records)
    assert all(np.isnan(r.eps_lambda) for r in records)


def test_sweep_requires_reference():
    model = load_model('x_min = 0\nx_max = 2\nmu = "1"\nbeta = "exp(-x)"\n')
    with pytest.raises(MissingReference):
        convergence_sweep(model, None, [4, 8])


def _synthetic_records(ns, order):
    return [
        ConvergenceRecord(
            n=n, m=n, eps_lambda=float(n) ** order, eps_phi=float(n) ** order,
            lam=-1.0 + 0j, abscissa=-1.0, matrix_norm=0.0, seconds=0.0,
        )
        for n in ns
    ]


def test_fit_order_exact_power_law():
    records = _synthetic_records([4, 8, 16, 32, 64], -3.0)
    assert fit_order(records, "eps_lambda") == pytest.approx(-3.0, abs=1e-6)


def test_fit_order_excludes_plateau():
    records = _synthetic_records([4, 8, 16], -2.0)
    floored = [
        ConvergenceRecord(n=n, m=n, eps_lambda=1e-15, eps_phi=1e-15, lam=-1.0 + 0j,
                          abscissa=-1.0, matrix_norm=1e3, seconds=0.0)
        for n in (32, 64, 128)
    ]
    slope = fit_order(records + floored, "eps_lambda")
    assert slope == pytest.approx(-2.0, abs=1e-6)
    assert plateau_threshold(floored[0]) > 1e-15


def test_fit_order_insufficient_data():
    with pytest.raises(InsufficientData):
        fit_order(_synthetic_records([4, 8], -1.0), "eps_lambda")


def test_compute_spectrum_k_validation():
    gen = _wrap_matrix(np.diag([-1.0, -2.0]))
    with pytest.raises(ValueError):
        compute_spectrum(gen, k=0)
    with pytest.raises(ValueError):
        compute_spectrum(gen, k=3)


def test_error_rule_uses_doubled_degree():
    model, _ = builtin("ex1_1")
    gen = assemble_2d(model, 6, 4)
    rule = default_error_rule(gen)
    assert rule.x_rule.grid.n == 12
    assert rule.y_rule.grid.n == 8


def _assert_residual_bound(matrix, lam, psi):
    # the bound of test_matched_residual_invariant
    residual = norm_inf(matrix @ psi - lam * psi)
    assert residual <= 1e-8 * norm_inf(matrix) * norm_inf(psi)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_on_demand_eigenpairs_match_full_decomposition(name, n):
    model, _ = builtin(name)
    gen = assemble_2d(model, n, n) if model.dimension == 2 else assemble_1d(model, n)
    k = min(10, gen.dim)
    report = compute_spectrum(gen, k=k)
    dec = eigen_dense(gen.matrix)
    oracle = dec.values[np.lexsort((-dec.values.imag, -dec.values.real))][:k]
    got = report.eigenvalues[:k]
    assert np.all(np.abs(got - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))
    for lam, psi in zip(got, report.vectors.T):
        _assert_residual_bound(gen.matrix, lam, psi)


def test_repeated_eigenvalue_gets_independent_vectors():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
    for m in (np.diag([3.0, 3.0, -1.0]), q @ np.diag([3.0, 3.0, -1.0]) @ q.T):
        report = compute_spectrum(_wrap_matrix(m), k=3)
        assert np.allclose(report.eigenvalues[:2], 3.0, atol=1e-13)
        pair = report.vectors[:, :2]
        assert np.linalg.svd(pair, compute_uv=False)[-1] >= 0.5
        for lam, psi in zip(report.eigenvalues, report.vectors.T):
            _assert_residual_bound(m, lam, psi)


def test_conjugate_pair_gets_conjugate_vectors():
    m = np.array([[-0.5, 0.2, 0.3], [-0.2, -0.5, 0.0], [0.0, 0.0, -1.0]])
    report = compute_spectrum(_wrap_matrix(m), k=3)
    assert report.eigenvalues[0] == np.conj(report.eigenvalues[1])
    assert np.array_equal(report.vector(1), np.conj(report.vector(0)))
    for lam, psi in zip(report.eigenvalues, report.vectors.T):
        _assert_residual_bound(m, lam, psi)
