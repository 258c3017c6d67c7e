"""The structured path (popstab.structured) against the dense one."""

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from popstab import assembly, structured
from popstab.assembly import GeneratorMatrix, GeneratorOverflow, assemble, collocation_grids
from popstab.grid import cheb_grid, interp_matrix
from popstab.linalg import eigenvalues, eigenvector, norm_inf
from popstab.model import builtin, load_model
from popstab.quad import cc_weights
from popstab.spectra import _dense_report, compute_spectrum, convergence_sweep, eigen_errors

SEPARABLE_2D = [
    "ex1_1", "ex1_2", "ex1_3", "ex1_4", "ex2_1", "ex2_2", "ex2_3", "ex2_4", "velocity"
]
# the smallest n = m on the structured path
N_MIN = math.isqrt(structured.STRUCTURED_MIN_DIM - 1) + 1


def _sorted(values):
    return values[np.lexsort((-values.imag, -values.real))]


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize(
    "name, n", [(name, n) for name in SEPARABLE_2D for n in (24, 32)] + [("ex2_1", 48)]
)
def test_structured_path_agrees_with_dense(name, n):
    model, ref = builtin(name)
    gen = assemble(model, n)
    report = compute_spectrum(gen, k=1)
    assert report.path == "structured"
    solver = report.solver
    dense = _dense_report(gen)
    values = dense.eigenvalues
    # the abscissa and every certified eigenvalue; real ones exactly real
    assert _close(report.abscissa, dense.abscissa)
    for got, want in zip(report.eigenvalues, values, strict=False):
        assert _close(got, want)
        if want.imag == 0:
            assert got.imag == 0.0 and not np.signbit(got.imag)
    # the certifying count, and the counts on Re z = 0 and on lines through
    # the gaps between the first 8 distinct real parts (all 7 at n = 24, the
    # one between the 2nd and 3rd above), equal the dense ones
    real_parts = np.unique(values.real.round(9))[::-1][:8]
    gaps = 0.5 * (real_parts[:-1] + real_parts[1:])
    for c in (report.line, 0.0, *(gaps if n == 24 else gaps[1:2])):
        assert solver.count_right(c) == np.count_nonzero(values.real > c), c
    assert np.count_nonzero(values.real > report.line) == len(report.eigenvalues)
    # the eigenvalue nearest the reference and its eigenvector
    lam, eps_lambda, _ = eigen_errors(report, ref)
    want = values[np.lexsort((-values.imag, -values.real, np.abs(values - ref.lam)))[0]]
    assert _close(lam, want)
    assert abs(eps_lambda - abs(want - ref.lam)) <= 1e-12 * max(1.0, abs(want))
    if want.imag == 0:
        assert lam.imag == 0.0 and not np.signbit(lam.imag)
    # the refinement's eigenvector of the matched (certified) eigenvalue
    psi = report.vector(list(report.eigenvalues).index(lam))
    oracle = eigenvector(gen.matrix, want, dense.matrix_norm)
    phase = np.vdot(oracle, psi)
    assert np.max(np.abs(psi - phase / abs(phase) * oracle)) <= 1e-12
    assert abs(report.matrix_norm - dense.matrix_norm) <= 1e-14 * dense.matrix_norm


@pytest.mark.parametrize("name", ["ex2_1", "velocity", "ex1_4"])
def test_structured_eigenvector_of_a_complex_eigenvalue(name):
    # a complex eigenvalue goes through the complex Schur coordinates and
    # their back-transform to the real ones: the refinement from the dense
    # eigenvalue returns its eigenvector
    gen = assemble(builtin(name)[0], 16)
    solver = compute_spectrum(gen, k=1).solver
    dense = _dense_report(gen)
    upper = dense.eigenvalues[dense.eigenvalues.imag > 0][:2]
    assert len(upper) == 2
    for lam in upper:
        _, psi = solver._polish(np.array([lam]), 0)
        oracle = eigenvector(gen.matrix, lam, dense.matrix_norm)
        phase = np.vdot(oracle, psi)
        assert np.max(np.abs(psi - phase / abs(phase) * oracle)) <= 1e-12


# a kernel that is not a product: the boundary term has rank 22 at n = 24
NONPRODUCT = (
    "x_min = 0\nx_max = 1\ny_min = 0\ny_max = 1\n"
    'mu = "1 + x + y"\nalpha = "2*exp(-3*x*xi*sigma)"\nbeta = "cos(2*y*xi + sigma)"\n'
)


def test_closing_rule_at_rank_above_one():
    gen = assemble(load_model(NONPRODUCT), 24)
    report = compute_spectrum(gen, k=1)
    assert report.path == "structured"
    solver = report.solver
    assert len(solver.real.u) > 1
    values = _dense_report(gen).eigenvalues
    assert _close(report.abscissa, values[0].real)
    for got, want in zip(report.eigenvalues, values, strict=False):
        assert _close(got, want)
    # Re z = 0 and the 7 lines through the gaps between the first 8
    # distinct real parts
    real_parts = np.unique(values.real.round(9))[::-1][:8]
    lines = [0.0, *(0.5 * (real_parts[:-1] + real_parts[1:]))]
    counts = [solver.count_right(c) for c in lines]
    assert counts == [np.count_nonzero(values.real > c) for c in lines]
    # Re z = 0 and the lines between the 1st/2nd, 2nd/3rd and 4th/5th
    assert [counts[i] for i in (0, 1, 2, 4)] == [0, 1, 3, 7]


def _uncompressed_rows(model, axes, axis, oversample=2):
    """The boundary row factor of ``axes[axis]`` with every kernel row
    through the pipeline, as (n_other, nm): the kernel at the inner nodes of
    the other axis and the whole cubature grid, weighted, interpolated (E_x^T
    and E_y), differentiated (D_x^T and D_y), and solved with the other
    axis's D."""
    other = axes[1 - axis]
    rules = [cc_weights(cheb_grid(ax.grid.a, ax.grid.b, oversample * ax.n)) for ax in axes]
    (xi, sigma), (wx, wy) = zip(*((rule.nodes, rule.weights) for rule in rules))
    coef = model.alpha if axis == 1 else model.beta
    kern = coef(other.theta[:, None, None], xi[None, :, None], sigma[None, None, :])
    rows = np.broadcast_to(kern, (other.n, xi.size, sigma.size)) * np.multiply.outer(wx, wy)
    interps = [interp_matrix(ax.theta, rule.nodes) for ax, rule in zip(axes, rules)]
    for mats in (interps, [ax.d for ax in axes]):
        for k, a in enumerate(mats):
            rows = np.moveaxis(np.tensordot(rows, a, (1 + k, 0)), -1, 1 + k)
    return np.linalg.solve(other.d, rows.reshape(other.n, -1))


@pytest.mark.parametrize("n, m", [(7, 5), (16, 16), (48, 48)])
def test_boundary_factors_expand_to_the_uncompressed_rows(n, m):
    for name in SEPARABLE_2D + ["nonproduct"]:
        model = load_model(NONPRODUCT) if name == "nonproduct" else builtin(name)[0]
        gen = assemble(model, n, m)
        # one W^T for both edges, as long as the solver's rank
        shared = gen.boundary[1][1]
        assert all(wt is shared for _, wt in gen.boundary), name
        assert len(shared) == len(structured.StructuredSolver(gen).real.u), name
        for axis, (c, wt) in enumerate(gen.boundary):
            want = _uncompressed_rows(model, gen.axes, axis)
            assert np.max(np.abs(c @ wt - want)) <= 1e-13 * np.max(np.abs(want)), (name, axis)
            if name != "nonproduct":
                # every builtin boundary term has rank 1; ex2_4's beta is 0
                # on its domain, and so is its C
                assert len(wt) == 1, (name, axis)
                assert c.any() == want.any(), (name, axis)


def test_joined_boundary_rank():
    # assembly cuts the two edges' factors together: rank 1 on every
    # builtin, and on the nonproduct file the rank the expanded rows had at
    # n = 24
    for name in SEPARABLE_2D:
        for n in (N_MIN, 48):
            solver = structured.StructuredSolver(assemble(builtin(name)[0], n))
            assert len(solver.real.u) == 1, (name, n)
    solver = structured.StructuredSolver(assemble(load_model(NONPRODUCT), 24))
    assert len(solver.real.u) == 22


def test_the_boundary_term_is_cut_once(monkeypatch):
    # assembly cuts both edges' rows together, once, and the solver cuts
    # nothing
    calls = []
    cut = assembly._truncate

    def spy(c, wt):
        calls.append(len(c))
        return cut(c, wt)

    monkeypatch.setattr(assembly, "_truncate", spy)
    for name in SEPARABLE_2D + ["nonproduct"]:
        model = load_model(NONPRODUCT) if name == "nonproduct" else builtin(name)[0]
        gen = assemble(model, N_MIN)
        structured.StructuredSolver(gen)
        assert calls == [2 * N_MIN], name
        calls.clear()


@pytest.mark.parametrize(
    "name, n, calls",
    [("ex2_1", 24, (1, 1)), ("ex1_4", 12, (1, 1)), ("ex1_3", 24, (3, 3)),
     ("nonproduct", 24, (5, 3)), ("appendix1d", 30, (0, 0))],
)
def test_lapack_calls_per_assembly(monkeypatch, name, n, calls):
    # a kernel with at most SKETCH_SAMPLES rows or cubature columns is
    # factored exactly, with no SVD and no QR: the one cut of the boundary
    # term makes the only ones; ex1_3 and the nonproduct file are sketched
    counts = {"svd": 0, "qr": 0}
    for routine in counts:
        def spy(*args, routine=routine, call=getattr(scipy.linalg, routine), **kwargs):
            counts[routine] += 1
            return call(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, routine, spy)
    assemble(load_model(NONPRODUCT) if name == "nonproduct" else builtin(name)[0], n)
    assert (counts["svd"], counts["qr"]) == calls


def test_a_kernel_of_rank_0_keeps_the_structured_path():
    gen = assemble(builtin("ex2_4")[0], 24)
    (c_beta, wt_beta), (c_alpha, wt_alpha) = gen.boundary
    # beta is 0: its rows are 0, and the shared W^T is alpha's, of rank 1
    assert wt_beta is wt_alpha and len(wt_alpha) == 1
    assert not c_beta.any() and c_alpha.any()
    assert len(structured.StructuredSolver(gen).real.u) == 1
    report = compute_spectrum(gen, k=1)
    assert report.path == "structured"
    assert _close(report.abscissa, _dense_report(gen).eigenvalues[0].real)


def test_a_zero_boundary_term_takes_the_dense_path():
    # both kernels 0: the boundary term has rank 0
    model = load_model(
        'x_min = 0\nx_max = 1\ny_min = 0\ny_max = 1\nmu = "1"\nalpha = "0"\nbeta = "0"\n'
    )
    gen = assemble(model, N_MIN)
    assert gen.dim == structured.STRUCTURED_MIN_DIM and structured.applies(gen)
    with pytest.raises(structured.Uncertified, match="the boundary term is 0"):
        structured.StructuredSolver(gen)
    report = compute_spectrum(gen, k=1)
    assert report.path == "dense"
    assert np.array_equal(report.eigenvalues, _dense_report(gen).eigenvalues)


def _spy(monkeypatch, name):
    """Record the arguments of each call of a StructuredSolver method."""
    calls = []
    method = getattr(structured.StructuredSolver, name)

    def spy(self, *args):
        calls.append(args)
        return method(self, *args)

    monkeypatch.setattr(structured.StructuredSolver, name, spy)
    return calls


@pytest.mark.parametrize("text", [None, NONPRODUCT], ids=["ex2_1", "nonproduct"])
def test_count_evaluates_the_upper_half_line_only(monkeypatch, text):
    model = builtin("ex2_1")[0] if text is None else load_model(text)
    solver = structured.StructuredSolver(assemble(model, N_MIN))
    # every evaluation of K: the grid in one batch, then one batch per level
    # of refinement
    batches = _spy(monkeypatch, "_capacitances")
    for c in (0.0, -1.5, -6.0):
        batches.clear()
        solver.count_right(c)
        shifts = np.concatenate([z for (z,) in batches])
        omegas = shifts.imag.tolist()
        assert all(z.real == c for z in shifts)
        assert min(omegas) == 0.0
        # the grid, walked down to omega = 0, then midpoints of earlier samples
        grid = omegas.index(0.0) + 1
        assert grid == len(batches[0][0])
        assert grid <= 201
        assert omegas[:grid] == sorted(omegas[:grid], reverse=True)
        seen = omegas[:grid]
        midpoints = {0.5 * (a + b) for i, a in enumerate(seen) for b in seen[:i]}
        for w in omegas[grid:]:
            assert w in midpoints
            midpoints.update(0.5 * (w + b) for b in seen)
            seen.append(w)


@pytest.mark.parametrize("tail", [math.inf, 1e300], ids=["inf", "1e300"])
def test_count_refuses_a_tail_it_cannot_sample(monkeypatch, tail):
    # a tail that is not finite, or whose grid alone exceeds MAX_EVALUATIONS
    gen = assemble(builtin("ex2_1")[0], N_MIN)
    solver = structured.StructuredSolver(gen)
    solver.tail = tail
    with monkeypatch.context() as patch:
        batches, shifts = _spy(patch, "_capacitances"), _spy(patch, "_shift")
        with pytest.raises(structured.Uncertified):
            solver.count_right(-1.5)
        # raised before any sampling
        assert batches == shifts == []
    init = structured.StructuredSolver.__init__

    def init_with_tail(self, generator):
        init(self, generator)
        self.tail = tail

    monkeypatch.setattr(structured.StructuredSolver, "__init__", init_with_tail)
    report = compute_spectrum(gen, k=1)
    assert report.path == "dense"
    assert np.array_equal(report.eigenvalues, _sorted(eigenvalues(gen.matrix)))


# ex2_1 with every coefficient scaled by 1e5: at n = 16 the tail is about 4.6e7
SCALED_EX2_1 = (
    "x_min = 0\nx_max = 1\ny_min = 0\ny_max = 2\nmu = \"1e5\"\n"
    'alpha = "x^2 * abs(x) * (5/8) * 1e5"\nbeta = "y^2 * abs(y) * (5/8) * 1e5"\n'
    'gx = "1e5"\ngy = "1e5"\n'
)


def test_count_with_a_tail_beyond_1e6():
    gen = assemble(load_model(SCALED_EX2_1), 16)
    report = compute_spectrum(gen, k=1)
    assert report.path == "structured"
    solver = report.solver
    assert solver.tail > 1e7
    dense = _dense_report(gen)
    assert abs(report.abscissa - dense.abscissa) <= 1e-12 * abs(dense.abscissa)
    values = dense.eigenvalues
    real_parts = np.unique(values.real.round(9))[::-1]
    for c in (0.0, 0.5 * (real_parts[1] + real_parts[2])):
        assert solver.count_right(c) == np.count_nonzero(values.real > c), c


@pytest.mark.parametrize(
    "text, n", [(None, 16), (None, 48), (NONPRODUCT, 24)], ids=["ex2_1-16", "ex2_1-48", "nonproduct"]
)
def test_batched_capacitances_match_trsyl(text, n):
    # det K from the batched Sylvester solve against one trsyl solve per
    # shift and column of U, in the same complex frame
    model = builtin("ex2_1")[0] if text is None else load_model(text)
    solver = structured.StructuredSolver(assemble(model, n))
    per = max(1, structured.COUNT_BATCH // len(solver.real.u))
    # from the real axis up: more shifts than one batch holds, not a
    # multiple of it, and one shift
    shifts = -1.5 + 1j * np.r_[0.0, np.sinh(np.linspace(-4.0, 8.0, per + per // 2))]
    assert len(shifts) % per
    for batch in (shifts, shifts[3:4]):
        got = np.linalg.det(solver._capacitances(batch))
        want = [np.linalg.det(structured._Shift(solver.complex, z).k) for z in batch]
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _lapack_trsyl(a, ty, c):
    # Y, the scale s and info of a Y + Y T_y = s c, by LAPACK trsyl
    return scipy.linalg.get_lapack_funcs("trsyl", (a, ty))(a, ty, c)


@pytest.mark.parametrize("name", ["ex2_1", "velocity"])
def test_complex_frame_is_a_complex_schur_form(name):
    solver = structured.StructuredSolver(assemble(builtin(name)[0], 16))
    for t in (solver.real.tx, solver.real.ty):
        assert np.count_nonzero(np.diagonal(t, -1)) >= 2
        tc, s = structured._complex_schur(t)
        assert np.array_equal(tc, np.triu(tc))
        assert np.max(np.abs(s.conj().T @ s - np.eye(len(t)))) <= 1e-14
        assert np.max(np.abs(s @ tc @ s.conj().T - t)) <= 1e-14 * np.max(np.abs(t))


@pytest.mark.parametrize("r", [1, 2, 6, 22, 40])
def test_closing_arc_from_determinants(r):
    # the summed principal arguments of the eigenvalues of K = I + Q diag(w) Q^H,
    # |w| < 1/2, against the eigenvalues themselves: past pi for r >= 8
    rng = np.random.default_rng(r)
    q = np.linalg.qr(rng.standard_normal((r, r)) + 1j * rng.standard_normal((r, r)))[0]
    w = 0.49 * np.exp(1j * rng.uniform(0.3, 1.2, r))
    for k in (q @ np.diag(1 + w) @ q.conj().T, np.eye(r) + 0.49 * np.triu(np.ones((r, r))) / r):
        want = np.angle(np.linalg.eigvals(k)).sum()
        assert abs(structured._argument_sum(k) - want) <= 1e-12 * max(1.0, abs(want))


def test_batched_sylvester_solve_on_rectangular_blocks():
    # n != m: both splits, and leaves of several shapes
    rng = np.random.default_rng(7)
    n, m, z = 29, 13, np.array([0.5 + 1j, 2.0, 3j])
    tx, ty = (
        np.triu(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))) + 4 * np.eye(k)
        for k in (n, m)
    )
    c = rng.standard_normal((n, m, len(z))) + 1j * rng.standard_normal((n, m, len(z)))
    y = c.copy()
    structured._sylvester(tx, ty, z, y, np.zeros(len(z)))
    for b in range(len(z)):
        want, scale, info = _lapack_trsyl(structured._shifted(tx, z[b]), ty, c[:, :, b])
        assert info == 0 and scale == 1.0
        assert np.max(np.abs(y[:, :, b] - want)) <= 1e-12 * np.max(np.abs(want))


def test_batched_solve_is_singular_where_trsyl_is():
    solver = structured.StructuredSolver(assemble(builtin("ex2_1")[0], 16))
    frame = solver.complex
    # t_x,00 + t_y,00 + z = 0: the shifted Sylvester operator is singular
    pole = -(frame.tx[0, 0] + frame.ty[0, 0])
    a = structured._shifted(frame.tx, pole)
    assert _lapack_trsyl(a, frame.ty, frame.u[0])[2] == 1
    with pytest.raises(structured._Singular):
        structured._Shift(frame, pole)
    for batch in ([pole], [-1.5 + 2j, pole, -1.5 + 3j]):
        with pytest.raises(structured._Singular):
            solver._capacitances(np.array(batch))


@pytest.mark.parametrize("n", [48, 64])
def test_count_memory_stays_below_assembly(n):
    # the count's batches of Sylvester solves hold at most COUNT_BATCH
    # complex n x m arrays, and little beside them: 4.9 MB at n = 48 and
    # 9.1 MB at n = 64, where 1.75 of those arrays are 6.2 MB and 11.0 MB
    model, _ = builtin("ex2_1")
    solver = structured.StructuredSolver(assemble(model, n))
    tracemalloc.start()
    try:
        count = solver.count_right(-3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 1
    assert peak < 1.75 * structured.COUNT_BATCH * n * n * np.dtype(complex).itemsize


def test_sweep_runs_arnoldi_once_per_degree(monkeypatch):
    model, _ = builtin("ex2_1")
    ritz = _spy(monkeypatch, "_ritz")
    counts = _spy(monkeypatch, "count_right")
    shifts = _spy(monkeypatch, "_shift")
    batches = _spy(monkeypatch, "_capacitances")
    degrees = [24, 32, 40, 48]
    records = convergence_sweep(model, degrees)
    assert all(record.error is None for record in records)
    assert ritz == [(0.0,)] * len(degrees)
    # one count certifies each degree
    assert len(counts) == len(degrees)
    samples = [z for (z,) in shifts] + [z for (zs,) in batches for z in zs]
    assert all(z.imag >= 0 for z in samples)
    # the certified eigenvalue is the match: lambda_re is the abscissa
    assert all(record.lam.real == record.abscissa for record in records)


def _reference_model(ref_lambda):
    # ex2_1's coefficients; its certifying line lies near -2
    return load_model(
        "x_min = 0\nx_max = 1\ny_min = 0\ny_max = 2\nmu = \"1\"\n"
        'alpha = "x^2 * abs(x) * (5/8)"\nbeta = "y^2 * abs(y) * (5/8)"\n'
        f"ref_lambda = {ref_lambda}\n"
    )


@pytest.mark.parametrize("ref_lambda", [-7.0, -20.0])
def test_reference_left_of_the_line_takes_shift_invert(monkeypatch, ref_lambda):
    model = _reference_model(ref_lambda)
    gen = assemble(model, N_MIN)
    report = compute_spectrum(gen, k=1)
    assert report.path == "structured" and ref_lambda < report.line
    nearest = _spy(monkeypatch, "nearest")
    with monkeypatch.context() as patch:
        # no fallback: the structured path answers without the dense matrix
        _forbid_dense(patch)
        lam, _, eps_phi = eigen_errors(report, model.reference)
    assert nearest == [(ref_lambda,)]
    assert math.isnan(eps_phi)
    values = _dense_report(gen).eigenvalues
    want = values[np.lexsort((-values.imag, -values.real, np.abs(values - ref_lambda)))[0]]
    tol = 1e-12 * max(1.0, abs(want))
    if ref_lambda == -20.0:
        # this eigenvalue's condition number is about 1e7: two eigensolvers
        # agree only to about eps kappa ||G|| (1e-8 to 1e-6 at n = 15..24)
        w, left, right = scipy.linalg.eig(gen.matrix, left=True)
        i = np.argmin(np.abs(w - want))
        kappa = 1 / abs(np.vdot(left[:, i], right[:, i]))
        tol = np.finfo(float).eps * kappa * norm_inf(gen.matrix)
    assert abs(lam - want) <= tol


@pytest.mark.parametrize("n", [20, 32])
def test_ill_conditioned_reference_is_refined_on_the_structured_path(monkeypatch, n):
    # kappa of the eigenvalue nearest -20 is about 2e8 at n = 20 and 1e5 at
    # n = 32; the unrefined Ritz value lies 30 to 340 times further off
    gen = assemble(_reference_model(-20.0), n)
    solver = structured.StructuredSolver(gen)
    with monkeypatch.context() as patch:
        _forbid_dense(patch)
        lam, _ = solver.nearest(-20.0)
    values, left, right = scipy.linalg.eig(gen.matrix, left=True)
    i = np.argmin(np.abs(values - lam))
    kappa = 1 / abs(np.vdot(left[:, i], right[:, i]))
    assert abs(lam - values[i]) <= np.finfo(float).eps * kappa * norm_inf(gen.matrix)
    assert i == np.lexsort((-values.imag, -values.real, np.abs(values + 20.0)))[0]


def test_reference_at_an_eigenvalue_of_the_kronecker_sum(monkeypatch):
    # at n = 64 the eigenvalue of G nearest -20 is one of L as well, to
    # working precision: the refinement stops at the singular Sylvester
    # solve instead of giving up
    solver = structured.StructuredSolver(assemble(_reference_model(-20.0), 64))
    with monkeypatch.context() as patch:
        _forbid_dense(patch)
        lam, _ = solver.nearest(-20.0)
    tx, ty = solver.complex.tx, solver.complex.ty
    kronecker_sum = np.add.outer(-tx.diagonal(), -ty.diagonal())
    assert np.min(np.abs(kronecker_sum - lam)) <= 1e-12 * abs(lam)


def test_rayleigh_quotient_step_cap_raises(monkeypatch):
    solver = structured.StructuredSolver(assemble(_reference_model(-20.0), N_MIN))
    monkeypatch.setattr(structured, "POLISH_STEPS", 1)
    with pytest.raises(structured.Uncertified):
        solver.nearest(-20.0)


def test_refinement_that_lands_nearer_another_ritz_value_raises():
    model, _ = builtin("ex2_1")
    solver = structured.StructuredSolver(assemble(model, N_MIN))
    top = solver._ritz(0.0)[0]
    # a value 1e-3 right of the rightmost eigenvalue refines onto it
    with pytest.raises(structured.Uncertified):
        solver._polish(np.array([top, top + 1e-3]), 1)


@pytest.mark.parametrize("c", [-5.944, -6.444])
def test_refinement_returns_an_eigenvalue_or_raises(c):
    # starts c + i omega near the steepest phase of det K on Re z = -6.444
    # (ex2_1, n = 32); Rayleigh quotient iteration from some of them stops
    # on a step no shorter than the one before, far from any eigenvalue,
    # where the backward error ||G x - z x|| / ||G||inf is about 1e-3
    gen = assemble(builtin("ex2_1")[0], 32)
    solver = structured.StructuredSolver(gen)
    values = _dense_report(gen).eigenvalues
    raised = []
    for omega in (7.5, 13.9, 20.2, 26.55, 32.85, 39.15):
        try:
            z, _ = solver._polish(np.array([complex(c, omega)]), 0)
        except structured.Uncertified as exc:
            assert "backward error" in str(exc)
            raised.append(omega)
            continue
        assert _close(z, values[np.argmin(np.abs(values - z))]), (omega, z)
    assert 7.5 in raised


def test_count_refuses_ritz_values_that_miss_an_eigenvalue():
    # ex1_2 at n = 12: the Arnoldi run at 0 stops at -1 and -21.90 +- 39.08i,
    # but -9.962 +- 28.570i lie right of the line halfway between them; they
    # lie left of the line a quarter of the way, where the count certifies
    gen = assemble(builtin("ex1_2")[0], 12)
    solver = structured.StructuredSolver(gen)
    ritz = solver._ritz(0.0)
    c = 0.5 * (ritz[0].real + ritz[1].real)
    assert abs(c + 11.4477) <= 1e-4
    group, _, line = solver.rightmost()
    values = _dense_report(gen).eigenvalues
    assert len(group) == 1 and _close(group[0], -1.0) and _close(group[0], values[0])
    assert solver.count_right(line) == np.count_nonzero(values.real > line) == 1
    assert solver.count_right(c) == np.count_nonzero(values.real > c) == 3


def test_ritz_eigensolve_is_numpy_eig(monkeypatch):
    # the Hessenberg matrices of Arnoldi runs, real and complex Ritz values:
    # eigenvalues and the last entries of the unit eigenvectors bit for bit
    # as numpy.linalg.eig gives them
    calls = []
    eig_last = structured._eig_last
    monkeypatch.setattr(structured, "_eig_last", lambda h: calls.append(h) or eig_last(h))
    for name in ("ex1_2", "ex2_1", "velocity"):
        structured.StructuredSolver(assemble(builtin(name)[0], 16))._ritz(0.0)
    assert len(calls) > 40
    for h in calls:
        nu, last = eig_last(h)
        want, vectors = np.linalg.eig(h)
        assert np.array_equal(nu, want) and np.array_equal(last, vectors[-1])
    assert any((nu.imag != 0).any() for nu, _ in map(eig_last, calls))


def test_refined_conjugate_pair_is_exact():
    model, _ = builtin("ex2_1")
    gen = assemble(model, N_MIN)
    solver = structured.StructuredSolver(gen)
    # the run stops once the pair has converged too
    ritz = solver._ritz(0.0, lambda lam: slice(0, 3))
    pair, vectors = solver._refine(ritz, slice(1, 3))
    assert pair[0].imag > 0 and pair[1] == np.conj(pair[0])
    assert np.array_equal(vectors[1], np.conj(vectors[0]))
    values = _dense_report(gen).eigenvalues
    want = values[np.argmin(np.abs(values - pair[0]))]
    assert _close(pair[0], want)


def test_refinement_through_an_exactly_singular_capacitance():
    # ex1_3 at n = 12: K is exactly 0 at the rightmost Ritz value, so the
    # refinement's first solve floors a pivot of 0 and still takes its step
    gen = assemble(builtin("ex1_3")[0], 12)
    report = compute_spectrum(gen, k=1)
    assert report.path == "structured"
    solver = report.solver
    assert not solver._shift(solver._ritz(0.0)[0]).k.any()
    dense = _dense_report(gen)
    assert _close(report.abscissa, dense.abscissa)
    psi = report.vector(0)
    oracle = eigenvector(gen.matrix, dense.eigenvalues[0], dense.matrix_norm)
    phase = np.vdot(oracle, psi)
    assert np.max(np.abs(psi - phase / abs(phase) * oracle)) <= 1e-12


def test_refined_value_left_of_the_line_falls_back_to_dense(monkeypatch):
    gen = assemble(builtin("ex2_1")[0], N_MIN)
    refine = structured.StructuredSolver._refine

    def leftward(self, lam, wanted):
        values, vectors = refine(self, lam, wanted)
        return values - 100.0, vectors

    monkeypatch.setattr(structured.StructuredSolver, "_refine", leftward)
    with pytest.raises(structured.Uncertified, match="left of"):
        structured.StructuredSolver(gen).rightmost()
    report = compute_spectrum(gen, k=1)
    assert report.path == "dense"
    assert np.array_equal(report.eigenvalues, _sorted(eigenvalues(gen.matrix)))


def test_the_solver_is_not_written_after_construction():
    # a solve returns its results: rightmost(), nearest() and count_right()
    # leave every attribute as the constructor set it
    solver = structured.StructuredSolver(assemble(builtin("ex2_1")[0], 16))
    before = dict(vars(solver))
    _, _, line = solver.rightmost()
    solver.nearest(-20.0)
    solver.count_right(line)
    after = vars(solver)
    assert after.keys() == before.keys()
    assert all(after[name] is value for name, value in before.items())


def test_uncertified_shift_invert_gives_the_dense_errors(monkeypatch):
    # ex2_1's eigenfunction with a reference value left of the certifying
    # line, so shift-invert decides the match; when it cannot certify, every
    # error is the dense path's
    model, ref = builtin("ex2_1")
    ref = dataclasses.replace(ref, lam=-7.0)
    gen = assemble(model, N_MIN)
    report = compute_spectrum(gen, k=1)
    assert report.path == "structured" and ref.lam < report.line

    def refuse(self, sigma):
        raise structured.Uncertified("refused")

    monkeypatch.setattr(structured.StructuredSolver, "nearest", refuse)
    got = eigen_errors(report, ref)
    assert got == eigen_errors(_dense_report(gen), ref)
    assert np.isfinite(got).all()


@pytest.mark.parametrize("z", [-3.0, complex(-3.0, 2.0)], ids=["real", "complex"])
@pytest.mark.parametrize("text", [None, NONPRODUCT], ids=["ex2_1", "nonproduct"])
def test_transposed_solve_is_the_adjoint_of_the_solve(text, z):
    # b^T (G - zI)^{-1} a = ((G^T - zI)^{-1} b)^T a, in the coordinates of
    # U for a and of W for b
    model = builtin("ex2_1")[0] if text is None else load_model(text)
    solver = structured.StructuredSolver(assemble(model, 16))
    shift = solver._shift(complex(z))
    a, b = np.random.default_rng(3).standard_normal((2, 16, 16))
    left = np.sum(b * shift.apply(a))
    right = np.sum(shift.apply_transpose(b) * a)
    assert abs(left - right) <= 1e-10 * abs(left)


def _forbid_dense(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(GeneratorMatrix, "matrix", property(refuse))


# every 2-D builtin at each degree of the acceptance sweeps on the structured path
DOCUMENTED_DEGREES = {
    "ex1_2": [16, 20],
    "ex1_3": [16, 20],
    "ex1_4": [40],
    "ex2_1": [16, 24, 32, 40, 48],
    "ex2_2": [16, 24, 32, 40, 48],
    "ex2_3": [16, 24, 32, 40, 48],
    "ex2_4": [16, 24, 32, 40, 48],
    "velocity": [15, 20, 25, 30],
}


@pytest.mark.parametrize("name", sorted(DOCUMENTED_DEGREES))
def test_sweeps_build_no_dense_matrix_above_the_threshold(monkeypatch, name):
    model, _ = builtin(name)
    degrees = DOCUMENTED_DEGREES[name]
    assert all(n * n >= structured.STRUCTURED_MIN_DIM for n in degrees)
    _forbid_dense(monkeypatch)
    for record in convergence_sweep(model, degrees):
        assert record.error is None
        assert record.lam.imag == 0.0 and not np.signbit(record.lam.imag)
        assert np.isfinite([record.eps_lambda, record.eps_phi, record.matrix_norm]).all()


def _scan_family(h):
    # the 2-D family of perfbench's scan-small: ex1_4 with mortality 2x + 1 + h
    ex14, _ = builtin("ex1_4")
    return load_model(
        "x_min = 0\nx_max = 2\ny_min = 0\ny_max = 1\n"
        f'mu = "2*x + 1 + ({h!r})"\n'
        f'alpha = "{ex14.alpha.source}"\nbeta = "{ex14.beta.source}"\n'
    )


@pytest.mark.parametrize(
    "name, h",
    [(name, None) for name in SEPARABLE_2D] + [("scan", -1.0), ("scan", -3.0)],
    ids=[*SEPARABLE_2D, "scan-h=-1", "scan-h=-3"],
)
def test_smallest_structured_dimension_takes_the_structured_path(monkeypatch, name, h):
    model = builtin(name)[0] if h is None else _scan_family(h)
    gen = assemble(model, N_MIN)
    with monkeypatch.context() as patch:
        _forbid_dense(patch)
        report = compute_spectrum(gen, k=1)
    assert report.path == "structured"
    assert _close(report.abscissa, _dense_report(gen).abscissa)


@pytest.mark.parametrize("n", [12, 14, 44, 57])
def test_count_certifies_on_a_line_nearer_the_group(monkeypatch, n):
    # ex1_2's count exceeds 1 on the line halfway to the next Ritz value (3,
    # and 5 at n = 57; test_count_refuses_ritz_values_that_miss_an_eigenvalue);
    # one count on the line a quarter of the way certifies it
    model, ref = builtin("ex1_2")
    _forbid_dense(monkeypatch)
    counts = _spy(monkeypatch, "count_right")
    report = compute_spectrum(assemble(model, n), k=1)
    assert report.path == "structured" and len(counts) == 1
    assert len(report.eigenvalues) == 1 and _close(report.abscissa, ref.lam)


@pytest.mark.parametrize(
    "name, n, m",
    [("ex2_1", 1, 200), ("ex2_1", 200, 1), ("ex2_1", 2, 100), ("velocity", 13, 40),
     ("ex1_4", 40, 13)],
)
def test_structured_path_on_unequal_and_degenerate_degrees(monkeypatch, name, n, m):
    # an axis of degree 1 or 2 has 1 or 2 inner nodes: its Schur factor,
    # Sylvester leaves and boundary row factor are 1 x 1 or 2 x 2
    gen = assemble(builtin(name)[0], n, m)
    with monkeypatch.context() as patch:
        _forbid_dense(patch)
        report = compute_spectrum(gen, k=1)
    assert report.path == "structured"
    values = _dense_report(gen).eigenvalues
    assert _close(report.eigenvalues[0], values[0]) and _close(report.abscissa, values[0].real)
    line = report.line
    assert report.solver.count_right(line) == np.count_nonzero(values.real > line) == 1


NONSEPARABLE = (
    "x_min = 0\nx_max = 1\ny_min = 0\ny_max = 1\n"
    'mu = "x*y + 1"\nalpha = "exp(-xi)"\nbeta = "exp(-sigma)"\n'
)


def test_nonseparable_mortality_stays_dense():
    gen = assemble(load_model(NONSEPARABLE), N_MIN)
    assert gen.mu is not None and gen.dim >= structured.STRUCTURED_MIN_DIM
    report = compute_spectrum(gen, k=1)
    assert report.path == "dense"
    assert report.eigenvalues[0] == _sorted(eigenvalues(gen.matrix))[0]


@pytest.mark.parametrize(
    "name, n, k",
    [
        ("ex2_1", N_MIN - 1, 1),
        ("ex2_1", N_MIN, 2),
        ("appendix1d", structured.STRUCTURED_MIN_DIM, 1),
    ],
    ids=["below-threshold", "k-above-one", "one-axis"],
)
def test_dense_path_is_unchanged(name, n, k):
    gen = assemble(builtin(name)[0], n)
    report = compute_spectrum(gen, k=k)
    assert report.path == "dense"
    assert np.array_equal(report.eigenvalues, _sorted(eigenvalues(gen.matrix)))


def test_structured_sweep_memory():
    # no nm x nm array: the whole degree, assembly included, stays below
    # 1/8 of one dense generator
    model, ref = builtin("ex2_1")
    n = 64
    eigen_errors(compute_spectrum(assemble(model, 24), k=1), ref)  # warm up
    tracemalloc.start()
    try:
        report = compute_spectrum(assemble(model, n), k=1)
        eigen_errors(report, ref)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.path == "structured"
    assert peak < (n * n) ** 2 * 8 / 8


def test_no_path_imports_scipy_sparse_linalg():
    # the structured path runs its own Arnoldi iteration: no path imports
    # scipy.sparse.linalg, ARPACK's wrapper
    code = (
        "import sys, popstab\n"
        "from popstab import assemble, builtin, compute_spectrum\n"
        "popstab.builtin('ex1_1')\n"
        "compute_spectrum(assemble(builtin('appendix1d')[0], 20), k=1)\n"
        "compute_spectrum(assemble(builtin('ex2_1')[0], 12), k=1)\n"
        "print(compute_spectrum(assemble(builtin('ex2_1')[0], 16), k=1).path)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.split() == ["structured", "False"]


@pytest.mark.parametrize("n", [24, 32, 40, 48])
def test_arnoldi_run_stops_once_the_rightmost_group_settles(monkeypatch, n):
    # ARPACK took 70-114 operator applications per degree here
    model, _ = builtin("ex2_1")
    solver = structured.StructuredSolver(assemble(model, n))
    solves = []
    solve = structured._Shift.solve

    def spy(self, r):
        solves.append(r)
        return solve(self, r)

    monkeypatch.setattr(structured._Shift, "solve", spy)
    solver._ritz(0.0)
    # r solves build (L - sigma I)^{-1} U, each later one is an application
    assert len(solves) - len(solver.real.u) <= 30


def test_arnoldi_step_cap_falls_back_to_dense(monkeypatch):
    model, _ = builtin("ex2_1")
    gen = assemble(model, N_MIN)
    monkeypatch.setattr(structured, "ARNOLDI_STEPS", 3)
    with pytest.raises(structured.Uncertified):
        structured.StructuredSolver(gen).rightmost()
    report = compute_spectrum(gen, k=1)
    assert report.path == "dense"
    assert np.array_equal(report.eigenvalues, _sorted(eigenvalues(gen.matrix)))


@pytest.mark.parametrize(
    "name, n, m",
    [(name, n, n) for name in SEPARABLE_2D + ["nonproduct"] for n in (8, 16, 32)]
    + [(name, 12, 20) for name in SEPARABLE_2D + ["nonproduct"]],
)
def test_pruned_norm_equals_the_dense_norm(name, n, m):
    model = load_model(NONPRODUCT) if name == "nonproduct" else builtin(name)[0]
    gen = assemble(model, n, m)
    want = norm_inf(gen.matrix)
    assert abs(structured.StructuredSolver(gen).norm - want) <= 1e-15 * want


def test_pruned_norm_when_the_largest_bounds_cancel():
    # alpha_i + beta_j cancels on the 80 rows of largest bound, so the
    # largest row sum lies past the first NORM_CHUNK rows by bound
    rng = np.random.default_rng(5)
    n, m = 9, 11
    px, py = 0.1 * rng.standard_normal((n, n)), 0.1 * rng.standard_normal((m, m))
    shape = rng.standard_normal(n * m)
    a, b = np.r_[0, np.full(n - 1, 10.0)], np.r_[0, np.full(m - 1, 10.0)]
    alpha = np.outer(a, shape) + 0.1 * rng.standard_normal((n, n * m))
    beta = -np.outer(b, shape)
    lifted = -np.kron(px, np.eye(m)) - np.kron(np.eye(n), py)
    dense = lifted + np.repeat(alpha, m, axis=0) + np.tile(beta, (n, 1))
    want = norm_inf(dense)
    bound = np.add.outer(
        np.abs(alpha).sum(1) + np.abs(px).sum(1), np.abs(beta).sum(1) + np.abs(py).sum(1)
    ).ravel()
    sums = np.abs(dense).sum(axis=1)
    assert np.argsort(-bound, kind="stable").tolist().index(np.argmax(sums)) >= structured.NORM_CHUNK
    # the shared W^T [alpha; beta] and a block C
    wt = np.concatenate([alpha, beta])
    ca, cb = np.eye(n, n + m), np.eye(m, n + m, n)
    got = structured._norm_inf(px, py, ca, cb, wt)
    assert abs(got - want) <= 1e-15 * want


def test_non_finite_structured_norm_is_an_overflow():
    # finite factors whose row sums overflow
    model, _ = builtin("ex2_1")
    gen = assemble(model, N_MIN)
    boundary = tuple((np.ones_like(c), np.full_like(wt, 1e306)) for c, wt in gen.boundary)
    huge = GeneratorMatrix(gen.axes, gen.blocks, boundary)
    with pytest.raises(GeneratorOverflow):
        compute_spectrum(huge, k=1)


def test_overflowing_factors_are_reported_at_assembly():
    model = load_model(
        "x_min = 0\nx_max = 1\ny_min = 0\ny_max = 1\n"
        'mu = "1"\nalpha = "1e307"\nbeta = "1e307"\n'
    )
    with pytest.raises(GeneratorOverflow):
        assemble(model, N_MIN)


def test_fallback_when_the_count_does_not_certify(monkeypatch):
    model, ref = builtin("ex2_1")
    gen = assemble(model, N_MIN)
    monkeypatch.setattr(structured.StructuredSolver, "count_right", lambda self, c: -1)
    report = compute_spectrum(gen, k=1)
    assert report.path == "dense"
    assert np.array_equal(report.eigenvalues, _sorted(eigenvalues(gen.matrix)))


def test_conjugate_pairs_are_exact():
    # the Ritz values at sigma = 0 of ex2_1: -1, then the pair near
    # -4.93 +- 7.53i
    model, _ = builtin("ex2_1")
    solver = structured.StructuredSolver(assemble(model, N_MIN))
    ritz = solver._ritz(0.0)
    assert ritz[0].imag == 0.0 and ritz[1].imag > 0
    assert ritz[2] == np.conj(ritz[1])


def test_axes_and_factors_rebuild_the_dense_generator():
    # the factors of a structured generator are those of the dense build
    model, _ = builtin("velocity")
    gen = assemble(model, 6, 5)
    assert gen.axes == collocation_grids(model, 6, 5)
    px, py = gen.blocks
    beta, alpha = gen.rows
    lifted = -np.kron(px, np.eye(5)) - np.kron(np.eye(6), py)
    boundary = np.repeat(alpha.reshape(6, -1), 5, axis=0) + np.tile(beta.reshape(5, -1), (6, 1))
    assert np.max(np.abs(gen.matrix - (lifted + boundary))) <= 1e-13 * norm_inf(gen.matrix)
