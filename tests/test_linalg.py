import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import lapack

from popstab.assembly import assemble
from popstab.linalg import (
    BALANCE_MIN_DIM,
    NoConvergence,
    SingularMatrix,
    balance,
    eigenvalues,
    eigenvector,
    lu_solve,
    norm_inf,
)
from popstab.model import BUILTIN_NAMES, builtin


def test_identity_solve():
    b = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    x = lu_solve(np.eye(3), b)
    assert np.allclose(x, b, rtol=0, atol=0)


def test_diagonal_solve():
    x = lu_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([[2.0], [8.0]]))
    assert np.array_equal(x, np.array([[1.0], [2.0]]))


def test_random_solve_recovers_solution():
    rng = np.random.default_rng(2024)
    a = rng.standard_normal((8, 8)) + 4.0 * np.eye(8)
    x0 = rng.standard_normal((8, 3))
    x = lu_solve(a, a @ x0)
    assert np.max(np.abs(x - x0)) <= 1e-10 * np.max(np.abs(x0))


def test_solve_residual_bound():
    rng = np.random.default_rng(7)
    for trial in range(20):
        n = int(rng.integers(2, 12))
        a = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal((n, 2))
        x = lu_solve(a, b)
        assert norm_inf(a @ x - b) <= 1e-10 * norm_inf(a) * max(norm_inf(x), 1e-30)


def test_singular_matrix_raises():
    with pytest.raises(SingularMatrix):
        lu_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))
    with pytest.raises(SingularMatrix):
        lu_solve(np.zeros((3, 3)) + 1e-20, np.ones(3))


def _eigenpairs(m):
    """Eigenvalues of ``m`` and, index-paired, their eigenvectors."""
    values = eigenvalues(m)
    return values, [eigenvector(m, lam, norm_inf(m)) for lam in values]


def test_eigen_diagonal():
    values, vectors = _eigenpairs(np.diag([2.0, 3.0]))
    assert sorted(values.real) == [2.0, 3.0]
    assert np.allclose(values.imag, 0.0)
    for lam, v in zip(values, vectors):
        assert np.allclose(np.abs(v), [1.0, 0.0] if lam == 2.0 else [0.0, 1.0])


def test_eigen_rotation_generator():
    values = eigenvalues(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    got = sorted(values, key=lambda z: z.imag)
    assert got[0] == pytest.approx(-1j, abs=1e-14)
    assert got[1] == pytest.approx(1j, abs=1e-14)


def _char_poly_coeffs(a):
    """Characteristic polynomial by the Faddeev-LeVerrier trace recursion."""
    n = a.shape[0]
    coeffs = [1.0]
    mk = np.array(a)
    for k in range(1, n + 1):
        ck = -np.trace(mk) / k
        coeffs.append(ck)
        if k < n:
            mk = a @ (mk + ck * np.eye(n))
    return np.array(coeffs)


def _durand_kerner(coeffs, iterations=500):
    """Roots of a monic polynomial by simultaneous iteration."""
    n = len(coeffs) - 1
    roots = (0.4 + 0.9j) ** np.arange(1, n + 1)
    for _ in range(iterations):
        values = np.polyval(coeffs, roots)
        step = np.empty_like(roots)
        for i in range(n):
            denom = np.prod(roots[i] - np.delete(roots, i))
            step[i] = values[i] / denom
        roots = roots - step
        if np.max(np.abs(step)) < 1e-14:
            break
    return roots


def test_eigen_matches_characteristic_polynomial_roots():
    rng = np.random.default_rng(42)
    m = rng.standard_normal((6, 6))
    values = eigenvalues(m)
    roots = _durand_kerner(_char_poly_coeffs(m))
    remaining = list(roots)
    scale = max(1.0, norm_inf(m))
    for lam in values:
        nearest = min(range(len(remaining)), key=lambda i: abs(remaining[i] - lam))
        assert abs(remaining[nearest] - lam) <= 1e-8 * scale
        remaining.pop(nearest)


def test_eigen_residuals_and_conjugate_closure():
    rng = np.random.default_rng(123)
    m = rng.standard_normal((12, 12)) * 3.0
    values, vectors = _eigenpairs(m)
    bound = 1e-8 * norm_inf(m)
    for lam, v in zip(values, vectors):
        assert norm_inf(m @ v - lam * v) <= bound * norm_inf(v)
    conj_sorted = np.sort_complex(np.conj(values))
    assert np.allclose(np.sort_complex(values), conj_sorted, atol=1e-10)


def test_eigen_trace_check():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((30, 30))
    values = eigenvalues(m)
    assert abs(np.sum(values) - np.trace(m)) <= 1e-8 * norm_inf(m) * 30


def test_eigen_deterministic():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((15, 15))
    first = _eigenpairs(m)
    second = _eigenpairs(m)
    assert np.array_equal(first[0], second[0])
    assert np.array_equal(first[1], second[1])


def test_eigen_vectors_canonical():
    rng = np.random.default_rng(31)
    m = rng.standard_normal((9, 9))
    for v in _eigenpairs(m)[1]:
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-13)
        lead = v[np.nonzero(np.abs(v) > 1e-12 * np.max(np.abs(v)))[0][0]]
        assert lead.real > 0
        assert abs(lead.imag) <= 1e-14 * abs(lead)


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        eigenvalues(np.ones((2, 3)))
    with pytest.raises(ValueError):
        lu_solve(np.array([[np.nan, 0.0], [0.0, 1.0]]), np.ones(2))
    assert isinstance(NoConvergence("x"), ArithmeticError)


def _builtin_generators(degree, dimension=None):
    for name in BUILTIN_NAMES:
        model = builtin(name)[0]
        if dimension in (None, model.dimension):
            yield name, assemble(model, degree).matrix


@pytest.mark.parametrize("degree", [7, 16])
def test_balance_scale_is_xgebal_scale_on_builtins(degree):
    # 2-D generators of degree 7 lie below BALANCE_MIN_DIM, of degree 16 not
    assert 7 ** 2 < BALANCE_MIN_DIM <= 16 ** 2
    for name, g in _builtin_generators(degree):
        _, ilo, ihi, scale, info = lapack.dgebal(g, permute=1, scale=1)
        assert (info, ilo, ihi) == (0, 0, g.shape[0] - 1), name
        b, d = balance(g)
        assert np.array_equal(d, scale), name
        assert b.flags.f_contiguous
        assert np.array_equal(b, g / d[:, None] * d), name


def test_prebalanced_eigenvalues_bitwise_equal_on_2d_builtins():
    for name, g in _builtin_generators(16, dimension=2):
        assert g.shape[0] >= BALANCE_MIN_DIM
        before = g.copy()
        assert np.array_equal(eigenvalues(g), scipy.linalg.eigvals(g)), name
        assert np.array_equal(g, before), name


def test_balance_undoes_a_power_of_two_conjugation():
    rng = np.random.default_rng(11)
    p = np.ldexp(1.0, rng.integers(-20, 21, 300))
    a = rng.standard_normal((300, 300)) * p / p[:, None]
    b, _ = balance(a)
    _, ilo, ihi, scale, info = lapack.dgebal(b, permute=1, scale=1)
    assert (info, ilo, ihi) == (0, 0, 299)
    assert np.all(scale == 1.0)


def test_zero_row_and_column_are_skipped_without_warning():
    rng = np.random.default_rng(12)
    a = rng.standard_normal((BALANCE_MIN_DIM + 8,) * 2)
    a[5] = 0.0
    a[:, 9] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, d = balance(a)
        got = eigenvalues(a)
    assert d[5] == d[9] == 1.0
    want = scipy.linalg.eigvals(a)
    assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(want))) <= 1e-10 * norm_inf(a)


def test_prebalanced_eigenvalues_allocate_one_matrix():
    dim = 2 * BALANCE_MIN_DIM
    a = np.random.default_rng(13).standard_normal((dim, dim))
    tracemalloc.start()
    try:
        eigenvalues(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one dim^2 float64 copy, plus geev's workspace and the vectors
    assert peak <= 1.25 * a.nbytes


def test_eigenvector_allocates_one_shifted_copy():
    # beside the generator: one dim^2 copy of the shifted matrix, factored
    # in place; complex for a complex shift, so twice the real bytes
    g = assemble(builtin("ex2_1")[0], 24).matrix
    values = eigenvalues(g)
    norm = norm_inf(g)
    before = g.copy()
    for lam, bound in [
        (values[values.imag == 0][0], 1.25),
        (values[values.imag != 0][0], 2.25),
    ]:
        first = eigenvector(g, lam, norm)  # warm up lazy imports
        tracemalloc.start()
        try:
            again = eigenvector(g, lam, norm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * g.nbytes, lam
        assert np.array_equal(again, first)
        assert np.array_equal(eigenvector(np.asfortranarray(g), lam, norm), first)
    assert np.array_equal(g, before)
