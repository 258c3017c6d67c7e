"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Sweep results are cached per builtin so later criteria reuse them.
"""

import math

import numpy as np
import pytest

from popstab.assembly import _mortality, assemble, collocation_grids
from popstab.grid import cheb_grid, diff_ops
from popstab.linalg import eigenvalues, eigenvector, norm_inf
from popstab.model import APPENDIX_1D_LAMBDA, BUILTIN_NAMES, builtin, load_model
from popstab.quad import cc_weights
from popstab.expr import parse_expr, to_source
from popstab.spectra import (
    Verdict,
    convergence_sweep,
    fit_order,
    plateau_threshold,
    stability_verdict,
)

SWEEP_DEGREES = {
    "ex1_1": [1, 2, 3],
    "ex1_2": [4, 8, 12, 16, 20],
    "ex1_3": [4, 8, 12, 16, 20],
    "ex1_4": [40],
    "ex2_1": [8, 16, 24, 32, 40, 48],
    "ex2_2": [8, 16, 24, 32, 40, 48],
    "ex2_3": [8, 16, 24, 32, 40, 48],
    "ex2_4": [8, 16, 24, 32, 40, 48],
    "velocity": [5, 10, 15, 20, 25, 30],
    "appendix1d": [5, 10, 15, 20, 25, 30],
}

_CACHE: dict[str, list] = {}


def sweep(name):
    if name not in _CACHE:
        model, ref = builtin(name)
        _CACHE[name] = convergence_sweep(model, SWEEP_DEGREES[name])
    return _CACHE[name]


def record_at(name, n):
    return next(r for r in sweep(name) if r.n == n)


def wall_time(name):
    return sum(r.seconds for r in sweep(name))


def pre_plateau_errors(records, field="eps_lambda"):
    out = []
    for r in records:
        err = getattr(r, field)
        if r.error is None and np.isfinite(err) and err > plateau_threshold(r):
            out.append((r.n, err))
    return out


def report(k, ok, detail):
    print(f"ACCEPTANCE {k}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_ex11_machine_precision():
    r2 = record_at("ex1_1", 2)
    r1 = record_at("ex1_1", 1)
    ok = (
        r2.eps_lambda <= 1e-10
        and r2.eps_phi <= 1e-10
        and r1.eps_phi == 0.0
        and wall_time("ex1_1") < 1.0
    )
    report(
        1, ok,
        f"ex1_1: eps_lambda(2)={r2.eps_lambda:.2e}, eps_phi(2)={r2.eps_phi:.2e}, "
        f"eps_phi(1)={r1.eps_phi} (exact zero), runtime={wall_time('ex1_1'):.2f}s",
    )


def test_criterion_2_ex12_ex13_spectral_decay():
    details = []
    ok = True
    for name in ("ex1_2", "ex1_3"):
        records = sweep(name)
        final = record_at(name, 20).eps_lambda
        pre = pre_plateau_errors(records)
        monotone = all(b[1] < a[1] for a, b in zip(pre, pre[1:]))
        ok = ok and final <= 1e-9 and monotone and wall_time(name) < 30.0
        details.append(
            f"{name}: eps_lambda(20)={final:.2e}, pre-plateau monotone={monotone}, "
            f"runtime={wall_time(name):.1f}s"
        )
    report(2, ok, "; ".join(details))


def test_criterion_3_ex14_error_barrier():
    r = record_at("ex1_4", 40)
    ok = r.eps_lambda <= 1e-7 and wall_time("ex1_4") < 300.0
    report(3, ok, f"ex1_4: eps_lambda(40)={r.eps_lambda:.2e}, runtime={wall_time('ex1_4'):.1f}s")


def test_criterion_4_nonsmooth_convergence_orders():
    targets = {
        "ex2_1": (-5.5, -3.7),
        "ex2_2": (-4.5, -2.7),
        "ex2_3": (-3.5, -1.7),
        "ex2_4": (-2.0, -0.7),
    }
    details = []
    ok = True
    slopes_lambda = {}
    total = 0.0
    for name, (want_lam, want_phi) in targets.items():
        records = sweep(name)
        total += wall_time(name)
        got_lam = fit_order(records, "eps_lambda")
        got_phi = fit_order(records, "eps_phi")
        slopes_lambda[name] = got_lam
        ok = ok and abs(got_lam - want_lam) <= 0.75 and abs(got_phi - want_phi) <= 0.75
        details.append(
            f"{name}: lam {got_lam:+.2f} (ref {want_lam:+.1f}), "
            f"phi {got_phi:+.2f} (ref {want_phi:+.1f})"
        )
    ordered = (
        slopes_lambda["ex2_1"] < slopes_lambda["ex2_2"]
        < slopes_lambda["ex2_3"] < slopes_lambda["ex2_4"]
    )
    ok = ok and ordered and total < 900.0
    details.append(f"regularity ordering={ordered}, runtime={total:.0f}s")
    report(4, ok, "; ".join(details))


def test_criterion_5_velocity_example():
    r = record_at("velocity", 30)
    pre = pre_plateau_errors(sweep("velocity"))
    monotone = all(b[1] < a[1] for a, b in zip(pre, pre[1:]))
    # superalgebraic: consecutive pre-plateau log-log slopes steepen well
    # beyond any fixed algebraic order seen in the nonsmooth family
    slopes = [
        (math.log(b[1]) - math.log(a[1])) / (math.log(b[0]) - math.log(a[0]))
        for a, b in zip(pre, pre[1:])
    ]
    spectral = monotone and slopes and min(slopes) <= -8.0
    ok = (
        r.eps_lambda <= 1e-6
        and r.eps_phi <= 1e-5
        and spectral
        and wall_time("velocity") < 120.0
    )
    report(
        5, ok,
        f"velocity: eps_lambda(30)={r.eps_lambda:.2e}, eps_phi(30)={r.eps_phi:.2e}, "
        f"pre-plateau slopes={['%.1f' % s for s in slopes]}, "
        f"runtime={wall_time('velocity'):.1f}s",
    )


def _characteristic_root():
    def g(lam):
        return 1.0 - math.exp(-2.0 * lam - 4.0) - (lam + 2.0)

    lo, hi = -1.3, -1.1
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    for _ in range(8):
        root -= g(root) / (-1.0 + 2.0 * math.exp(-2.0 * root - 4.0))
    return root


def test_criterion_6_appendix_1d():
    r = record_at("appendix1d", 30)
    root = _characteristic_root()
    ok = (
        abs(r.lam - APPENDIX_1D_LAMBDA) <= 1e-10
        and abs(r.lam.imag) <= 1e-12
        and abs(root - APPENDIX_1D_LAMBDA) <= 1e-14
        and r.seconds < 1.0
    )
    report(
        6, ok,
        f"appendix1d: lam(30)={r.lam.real:.15f}, |lam-ref|={abs(r.lam - APPENDIX_1D_LAMBDA):.2e}, "
        f"|rootfind-ref|={abs(root - APPENDIX_1D_LAMBDA):.2e}, runtime={r.seconds:.2f}s",
    )


def _separable_mortality(model, n):
    """The mortality block of a separable mu at n = m: the generator's
    per-axis blocks M_x and M_y, lifted with np.kron."""
    (mx, my), _ = _mortality(model, collocation_grids(model, n, n))
    return np.kron(mx, np.eye(n)) + np.kron(np.eye(n), my)


def test_criterion_7_structural_identities():
    problems = []
    # constant-mu diagonality, both the diagonal shortcut and the
    # composed cumulative route
    model11, _ = builtin("ex1_1")
    for n in (4, 8, 16):
        m_block = _separable_mortality(model11, n)
        err = norm_inf(m_block - np.eye(n * n))
        if err > 1e-10 * 2.0:
            problems.append(f"shortcut mu=1 n={n}: {err:.2e}")
    base = (
        "x_min = 0\nx_max = 2\ny_min = -1\ny_max = 1\n"
        'alpha = "0"\nbeta = "0"\nmu = "{mu}"\n'
    )
    for c in (1.0, 3.7):
        for n in (8, 12):
            model = load_model(base.format(mu=f"{c!r} + 0*x"))
            m_block = _separable_mortality(model, n)
            err = norm_inf(m_block - c * np.eye(n * n))
            if err > 1e-10 * (1.0 + abs(c)):
                problems.append(f"composed mu={c} n={n}: {err:.2e}")
    # Kronecker commutation
    model13, _ = builtin("ex1_3")
    for n, m in ((7, 5), (10, 10)):
        ax, ay = collocation_grids(model13, n, m)
        dx = np.kron(ax.d, np.eye(m))
        dy = np.kron(np.eye(n), ay.d)
        scale = np.max(np.abs(dx @ dy))
        err = np.max(np.abs(dx @ dy - dy @ dx))
        if err > 1e-13 * scale:
            problems.append(f"kron commute ({n},{m}): {err:.2e}")
    # bitwise row replication: the boundary row factors (alpha's replicated
    # along y, beta's along x) broadcast to the dense blocks
    for name, (n, m) in (("ex1_3", (6, 5)), ("ex2_4", (5, 5))):
        gen = assemble(builtin(name)[0], n, m)
        beta_rows, alpha_rows = gen.rows
        if alpha_rows.shape != (n, 1, n * m) or beta_rows.shape != (1, m, n * m):
            problems.append(f"{name} row factors shaped {alpha_rows.shape}, {beta_rows.shape}")
            continue
        a_block = np.broadcast_to(alpha_rows, (n, m, n * m)).reshape(n * m, n * m)
        b_block = np.broadcast_to(beta_rows, (n, m, n * m)).reshape(n * m, n * m)
        for k in range(n):
            for l in range(1, m):
                if not np.array_equal(a_block[k * m + l], a_block[k * m]):
                    problems.append(f"{name} A row ({k},{l}) differs")
        for l in range(m):
            for k in range(1, n):
                if not np.array_equal(b_block[k * m + l], b_block[l]):
                    problems.append(f"{name} B row ({k},{l}) differs")
    report(7, not problems, problems or "constant-mu diagonality, commutation, row replication")


def test_criterion_8_property_suites():
    problems = []
    # differentiation / quadrature exactness on polynomials up to the degree
    for a, b, n in ((0.0, 1.0, 6), (-2.0, 3.0, 9), (math.pi / 6, math.pi / 2, 12)):
        g = cheb_grid(a, b, n)
        ops = diff_ops(g)
        rule = cc_weights(g)
        scale_ab = max(1.0, abs(a), abs(b))
        for k in range(n + 1):
            deriv = ops.full @ g.nodes**k
            exact = k * g.nodes ** (k - 1) if k else np.zeros(n + 1)
            dbound = 1e-11 * max(1.0, float(n) ** k) * scale_ab ** max(k - 1, 0)
            if np.max(np.abs(deriv - exact)) > dbound:
                problems.append(f"diff ({a},{b},{n}) k={k}")
            integral = rule.weights @ g.nodes**k
            iexact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
            qbound = 1e-11 * (b - a) * scale_ab**k
            if abs(integral - iexact) > qbound:
                problems.append(f"quad ({a},{b},{n}) k={k}")
    # eigensolver invariants on 200 random matrices up to 50 x 50
    rng = np.random.default_rng(20240501)
    for trial in range(200):
        dim = int(rng.integers(2, 51))
        m = rng.standard_normal((dim, dim))
        if trial % 3 == 0:
            m *= 40.0
        values = eigenvalues(m)
        bound = 1e-8 * norm_inf(m)
        for lam in values:
            v = eigenvector(m, lam, norm_inf(m))
            if norm_inf(m @ v - lam * v) > bound * norm_inf(v):
                problems.append(f"residual trial={trial} dim={dim}")
                break
        pair_gap = np.max(
            np.abs(np.sort_complex(values) - np.sort_complex(np.conj(values)))
        )
        if pair_gap > 1e-10 * max(1.0, norm_inf(m)):
            problems.append(f"conjugate pairing trial={trial} dim={dim}")
        if abs(np.sum(values) - np.trace(m)) > 1e-8 * norm_inf(m) * dim:
            problems.append(f"trace trial={trial} dim={dim}")
    # expression round trip over the builtin coefficient corpus
    for name in BUILTIN_NAMES:
        model, ref = builtin(name)
        coefs = [model.mu, model.beta, ref.phi]
        if model.dimension == 2:
            coefs += [model.alpha, model.gx, model.gy]
        for coef in coefs:
            if parse_expr(to_source(coef.ast)) != coef.ast:
                problems.append(f"round trip {name}: {coef.source!r}")
    report(
        8, not problems,
        problems or "diff/quad exactness, 200 eigensolver property checks, parser round trip",
    )


def test_criterion_9_stability_pipeline():
    problems = []
    details = []
    for name in BUILTIN_NAMES:
        records = sweep(name)
        top = records[-1]
        verdict = stability_verdict(top.abscissa, 1e-6)
        if verdict is not Verdict.STABLE:
            problems.append(f"{name}: verdict {verdict}")
        gap = abs(top.lam - top.abscissa)
        if gap > 1e-6:
            problems.append(f"{name}: |matched - abscissa| = {gap:.2e}")
        details.append(f"{name}@{top.n}: abscissa={top.abscissa:.6f}")
    report(9, not problems, problems or "all builtins Stable, matched = rightmost; " + ", ".join(details))
