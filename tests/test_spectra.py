import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from popstab import spectra
from popstab.assembly import (
    GeneratorMatrix,
    assemble,
    assemble_1d,
    assemble_2d,
    collocation_axis,
    collocation_grids,
)
from popstab.grid import cheb_grid
from popstab.linalg import eigenvector, norm_inf
from popstab.model import (
    BUILTIN_NAMES,
    InvalidSample,
    ReferenceEigenpair,
    builtin,
    coefficient,
    load_model,
)
from popstab.quad import cc_weights
from popstab.spectra import (
    ConvergenceRecord,
    EigenReport,
    InsufficientData,
    MissingReference,
    Verdict,
    compute_spectrum,
    convergence_sweep,
    eigen_errors,
    fit_order,
    plateau_threshold,
    reconstruct_eigenfunction,
    stability_verdict,
)


def _wrap_matrix(matrix):
    """GeneratorMatrix whose matrix is the given one: a 1-D axis of matching
    size, the block -matrix and no boundary rows."""
    n = matrix.shape[0]
    return GeneratorMatrix((collocation_axis(0.0, 1.0, n),), (-np.asarray(matrix, float),), ())


def _analyze(model, n):
    """Assemble at degree n (m = n in 2-D), solve, and measure errors:
    the report and eigen_errors' (lam, eps_lambda, eps_phi)."""
    generator = assemble(model, n)
    report = compute_spectrum(generator, k=min(10, generator.dim))
    return report, *eigen_errors(report, model.reference)


def _vector_of(report, lam):
    """The report's eigenvector of its eigenvalue lam."""
    return report.vector(list(report.eigenvalues).index(lam))


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
    axes = collocation_grids(model, 4, 5)
    tx, ty = (ax.theta for ax in axes)
    psi = (tx[:, None] * ty[None, :]).ravel()  # (x - 0)(y - 0)
    xt = np.linspace(0.0, 1.0, 7)
    yt = np.linspace(0.0, 1.0, 6)
    phi = reconstruct_eigenfunction(psi, axes, xt, yt)
    assert np.max(np.abs(phi - 1.0)) <= 1e-12


def test_reconstruct_mixed_derivative():
    model, _ = builtin("ex1_1")
    axes = collocation_grids(model, 5, 4)
    tx, ty = (ax.theta for ax in axes)
    psi = (tx[:, None] ** 2 * ty[None, :]).ravel()  # d2/dxdy = 2x
    xt = np.linspace(0.0, 1.0, 9)
    yt = np.linspace(0.0, 1.0, 5)
    phi = reconstruct_eigenfunction(psi, axes, xt, yt)
    assert np.max(np.abs(phi - 2.0 * xt[:, None])) <= 1e-11


def test_reconstruct_1d_derivative():
    axes = (collocation_axis(0.0, 2.0, 8),)
    psi = axes[0].theta ** 3
    targets = np.linspace(0.0, 2.0, 11)
    phi = reconstruct_eigenfunction(psi, axes, targets)
    assert np.max(np.abs(phi - 3.0 * targets**2)) <= 1e-10


@pytest.mark.parametrize("n_targets", [0, 1, 3])
def test_reconstruct_needs_one_target_array_per_axis(n_targets):
    model, _ = builtin("ex1_1")
    axes = collocation_grids(model, 3, 3)
    targets = [np.linspace(0.0, 1.0, 4)] * n_targets
    with pytest.raises(ValueError, match="target arrays"):
        reconstruct_eigenfunction(np.ones(9), axes, *targets)
    with pytest.raises(ValueError, match="expected eigenvector of length 9"):
        reconstruct_eigenfunction(np.ones(8), axes, *[np.linspace(0.0, 1.0, 4)] * 2)


def test_ex12_eigenfunction_error_small():
    model, ref = builtin("ex1_2")
    _, _, _, eps_phi = _analyze(model, 15)
    assert eps_phi <= 1e-8


def test_matched_eigenvalue_error_offsets():
    model, _ = builtin("ex1_1")
    gen = assemble_2d(model, 3, 3)
    report = compute_spectrum(gen, k=3)
    lam_hat = min(report.eigenvalues, key=lambda z: abs(z + 1.0))
    ref = ReferenceEigenpair(lam_hat.real + 1e-6, None, "shifted")
    _, eps_lambda, eps_phi = eigen_errors(report, ref)
    assert eps_lambda == pytest.approx(1e-6, rel=1e-6)
    assert np.isnan(eps_phi)  # no reference eigenfunction given


def test_alignment_is_scale_invariant():
    model, ref = builtin("ex1_1")
    gen = assemble_2d(model, 2, 2)
    report = compute_spectrum(gen, k=1)
    scaled = ReferenceEigenpair(
        ref.lam, coefficient("3", ("x", "y"), "ref_phi"), "scaled"
    )
    _, _, eps_phi = eigen_errors(report, scaled)
    assert eps_phi <= 1e-12


def test_alignment_is_least_squares_optimal():
    model, ref = builtin("ex1_3")
    gen = assemble_2d(model, 8, 8)
    report = compute_spectrum(gen, k=1)
    lam, _, _ = eigen_errors(report, ref)
    x_rule, y_rule = (ax.cubature(2)[0] for ax in gen.axes)
    xs, ys = x_rule.nodes, y_rule.nodes
    phi_hat = reconstruct_eigenfunction(_vector_of(report, lam), gen.axes, xs, ys)
    phi_ref = ref.phi(xs[:, None], ys[None, :])
    w = np.outer(x_rule.weights, y_rule.weights)
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
    lam, _, _ = eigen_errors(report, ref)
    assert lam.imag > 0
    assert abs(lam - (-0.5 + 0.2j)) <= 1e-12


def test_matched_residual_invariant():
    for name, n in (("ex1_2", 8), ("ex1_4", 10), ("velocity", 10), ("appendix1d", 12)):
        model, ref = builtin(name)
        report, lam, _, _ = _analyze(model, n)
        gen = report.generator
        psi = _vector_of(report, lam)
        residual = norm_inf(gen.matrix @ psi - lam * psi)
        assert residual <= 1e-8 * norm_inf(gen.matrix) * norm_inf(psi), name


def test_rightmost_consistency():
    model, ref = builtin("ex1_1")
    report, lam, _, _ = _analyze(model, 5)
    assert abs(lam - report.abscissa) <= 1e-6
    assert report.abscissa == pytest.approx(-1.0, abs=1e-9)


def test_sweep_ex11_exact_zero_at_degree_one():
    model, ref = builtin("ex1_1")
    records = convergence_sweep(model, [1, 2, 3])
    assert [r.n for r in records] == [1, 2, 3]
    assert records[0].eps_phi == 0.0
    assert records[1].eps_lambda <= 1e-10


def test_sweep_ex13_decreases_to_plateau():
    model, ref = builtin("ex1_3")
    records = convergence_sweep(model, [5, 10, 15])
    errs = [r.eps_lambda for r in records]
    assert errs[0] > errs[1] > errs[2] or errs[2] <= 1e-10
    assert errs[2] <= 1e-10


def test_sweep_records_failures_and_continues():
    velocity_vanishes = load_model(
        'x_min = 0\nx_max = 1\ny_min = 0\ny_max = 2\n'
        'mu = "1"\nalpha = "0"\nbeta = "0"\ngx = "x"\nref_lambda = -1\n'
    )
    # on [0, 1e-300] the generator is finite, but inverse iteration for the
    # matched eigenvalue loses its iterate
    tiny_domain = load_model(
        'x_min = 0\nx_max = 1e-300\nmu = "1"\nbeta = "1"\nref_lambda = -1\nref_phi = "1"\n'
    )
    for model, error in [(velocity_vanishes, "gx"), (tiny_domain, "inverse iteration")]:
        records = convergence_sweep(model, [2, 3])
        assert len(records) == 2
        assert all(error in r.error for r in records)
        assert all(np.isnan(r.eps_lambda) for r in records)


def test_sweep_reads_one_eigenvector_per_degree(monkeypatch):
    shifts = []

    def counted(m, lam, norm):
        shifts.append(complex(lam))
        return eigenvector(m, lam, norm)

    monkeypatch.setattr(spectra, "eigenvector", counted)
    model, _ = builtin("appendix1d")
    records = convergence_sweep(model, range(5, 16, 5))
    assert all(r.error is None for r in records)
    assert shifts == [r.lam for r in records]
    # without a reference eigenfunction nothing reads an eigenvector
    shifts.clear()
    no_phi = load_model('x_min = 0\nx_max = 2\nmu = "1"\nbeta = "exp(-x)"\nref_lambda = -1\n')
    records = convergence_sweep(no_phi, range(5, 16, 5))
    assert all(r.error is None and np.isnan(r.eps_phi) for r in records)
    assert shifts == []


def test_sweep_holds_one_generator_at_a_time():
    # each degree's report, and its generator, dies before the next degree
    # is assembled: the peak is the n = 24 generator plus the balanced copy
    model, _ = builtin("ex2_1")
    convergence_sweep(model, [4])  # warm up lazy imports
    tracemalloc.start()
    try:
        records = convergence_sweep(model, [16, 20, 24])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.error is None for r in records)
    assert peak <= 2.25 * (24 * 24) ** 2 * 8


def test_undefined_reference_eigenfunction_is_an_invalid_sample():
    model = load_model(
        'x_min = 0\nx_max = 1\nmu = "1"\nbeta = "1"\nref_lambda = -1\nref_phi = "log(x)"\n'
    )
    report = compute_spectrum(assemble(model, 4), k=1)
    with pytest.raises(InvalidSample, match="ref_phi is undefined"):
        eigen_errors(report, model.reference)


def test_sweep_requires_reference():
    model = load_model('x_min = 0\nx_max = 2\nmu = "1"\nbeta = "exp(-x)"\n')
    with pytest.raises(MissingReference):
        convergence_sweep(model, [4, 8])
    with pytest.raises(MissingReference):
        eigen_errors(compute_spectrum(assemble(model, 4), k=1), None)


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
    # eps_phi, computed by hand on the degree-2n Clenshaw-Curtis rule of
    # each axis (n = 6 along x, m = 4 along y), bit for bit
    model, ref = builtin("ex1_3")
    gen = assemble(model, 6, 4)
    report = compute_spectrum(gen, k=1)
    lam, _, eps_phi = eigen_errors(report, ref)
    x_rule, y_rule = (
        cc_weights(cheb_grid(a, b, 2 * ax.n)) for (a, b), ax in zip(model.bounds, gen.axes)
    )
    xs, ys = x_rule.nodes, y_rule.nodes
    phi_hat = reconstruct_eigenfunction(_vector_of(report, lam), gen.axes, xs, ys)
    phi_ref = ref.phi(xs[:, None], ys[None, :])
    w = np.multiply.outer(x_rule.weights, y_rule.weights)
    scale = np.sum(w * np.conj(phi_hat) * phi_ref) / np.sum(w * np.abs(phi_hat) ** 2)
    assert eps_phi == float(np.sum(w * np.abs(scale * phi_hat - phi_ref)))
    assert eps_phi > 0


def test_eigen_errors_leaves_the_frozen_report_unchanged():
    assert [f.name for f in dataclasses.fields(EigenReport)] == [
        "eigenvalues", "generator", "solver", "vectors", "line"
    ]
    model, ref = builtin("ex1_2")
    report = compute_spectrum(assemble(model, 6), k=1)
    before = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    values = report.eigenvalues.copy()
    eigen_errors(report, ref)
    assert {f.name: getattr(report, f.name) for f in dataclasses.fields(report)} == before
    assert np.array_equal(report.eigenvalues, values)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.eigenvalues = values


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
    # geev on the unbalanced matrix: compute_spectrum balances from dim 256
    values = scipy.linalg.eigvals(gen.matrix)
    oracle = values[np.lexsort((-values.imag, -values.real))][:k]
    got = report.eigenvalues[:k]
    assert np.all(np.abs(got - oracle) <= 1e-12 * np.maximum(1.0, np.abs(oracle)))
    for j, lam in enumerate(got):
        _assert_residual_bound(gen.matrix, lam, report.vector(j))


def test_conjugate_pair_gets_conjugate_vectors():
    m = np.array([[-0.5, 0.2, 0.3], [-0.2, -0.5, 0.0], [0.0, 0.0, -1.0]])
    report = compute_spectrum(_wrap_matrix(m), k=3)
    assert report.eigenvalues[0] == np.conj(report.eigenvalues[1])
    assert np.array_equal(report.vector(1), np.conj(report.vector(0)))
    for j, lam in enumerate(report.eigenvalues):
        _assert_residual_bound(m, lam, report.vector(j))
