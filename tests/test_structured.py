"""The structured path (popstab.structured) against the dense one."""

import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from popstab import structured
from popstab.assembly import GeneratorMatrix, GeneratorOverflow, assemble, collocation_grids
from popstab.linalg import eigenvalues, eigenvector, norm_inf
from popstab.model import builtin, load_model
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
    # the certifying count, and counts on two more lines, equal the dense ones
    real_parts = np.unique(values.real.round(9))[::-1]
    for c in (solver.line, 0.0, 0.5 * (real_parts[1] + real_parts[2])):
        assert solver.count_right(c) == np.count_nonzero(values.real > c), c
    assert np.count_nonzero(values.real > solver.line) == len(report.eigenvalues)
    # the eigenvalue nearest the reference and its eigenvector
    lam, eps_lambda, _ = eigen_errors(report, ref)
    want = values[np.lexsort((-values.imag, -values.real, np.abs(values - ref.lam)))[0]]
    assert _close(lam, want)
    assert abs(eps_lambda - abs(want - ref.lam)) <= 1e-12 * max(1.0, abs(want))
    if want.imag == 0:
        assert lam.imag == 0.0 and not np.signbit(lam.imag)
    psi = solver.eigenvector(lam)
    oracle = eigenvector(gen.matrix, want, dense.matrix_norm)
    phase = np.vdot(oracle, psi)
    assert np.max(np.abs(psi - phase / abs(phase) * oracle)) <= 1e-12
    assert abs(report.matrix_norm - dense.matrix_norm) <= 1e-14 * dense.matrix_norm


def _forbid_dense(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense matrix was built")

    monkeypatch.setattr(GeneratorMatrix, "matrix", property(refuse))


# every 2-D builtin at each degree of the acceptance sweeps on the structured path
DOCUMENTED_DEGREES = {
    "ex1_4": [40],
    "ex2_1": [24, 32, 40, 48],
    "ex2_2": [24, 32, 40, 48],
    "ex2_3": [24, 32, 40, 48],
    "ex2_4": [24, 32, 40, 48],
    "velocity": [25, 30],
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


def test_arpack_is_imported_by_the_structured_path_only():
    code = (
        "import sys, popstab\n"
        "from popstab import assemble, builtin, compute_spectrum\n"
        "popstab.builtin('ex1_1')\n"
        "compute_spectrum(assemble(builtin('appendix1d')[0], 20), k=1)\n"
        "compute_spectrum(assemble(builtin('ex2_1')[0], 12), k=1)\n"
        "print('scipy.sparse.linalg' in sys.modules)\n"
    )
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_non_finite_structured_norm_is_an_overflow():
    # finite factors whose row sums overflow
    model, _ = builtin("ex2_1")
    gen = assemble(model, N_MIN)
    rows = tuple(np.full_like(r, 1e306) for r in gen.rows)
    huge = GeneratorMatrix(gen.axes, gen.blocks, rows)
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
