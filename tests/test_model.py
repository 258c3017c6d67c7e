import math
import zlib

import numpy as np
import pytest
from scipy.special import erf, erfi

from popstab.model import (
    APPENDIX_1D_LAMBDA,
    BUILTIN_NAMES,
    ConfigSyntax,
    MissingKey,
    Model,
    UnknownExample,
    VariableMismatch,
    builtin,
    load_model,
)

SQRT_PI = math.sqrt(math.pi)

# hand-coded closures for every builtin coefficient, straight from the tables
_G12 = 1.0 / ((math.sqrt(2) - math.sqrt(6) + 2.0) / 4.0)
_G14 = 1.0 / ((SQRT_PI / 2.0) * erf(2.0) * (math.e - 1.0))
_CVEL = ((SQRT_PI / 2.0) * (erfi(1.5) - erfi(0.5))) * (
    (SQRT_PI / 2.0) * (erf(2.0) - erf(0.5))
)


def _step(t):
    return 1.0 if t >= 0 else 0.0


HAND = {
    "ex1_1": dict(
        mu=lambda x, y: 1.0,
        alpha=lambda x, xi, s: 1.0,
        beta=lambda y, xi, s: 1.0,
        phi=lambda x, y: 1.0,
    ),
    "ex1_2": dict(
        mu=lambda x, y: 1.0,
        alpha=lambda x, xi, s: math.cos(x - math.pi / 6) * _G12,
        beta=lambda y, xi, s: math.cos(math.pi / 6 - y) * _G12,
        phi=lambda x, y: math.cos(x - y),
    ),
    "ex1_3": dict(
        mu=lambda x, y: 1.0,
        alpha=lambda x, xi, s: math.exp(x + 1) * 0.25 * math.exp(-xi + s),
        beta=lambda y, xi, s: math.exp(-y) * 0.25 * math.exp(-xi + s),
        phi=lambda x, y: math.exp(x - y),
    ),
    "ex1_4": dict(
        mu=lambda x, y: 2 * x + 1,
        alpha=lambda x, xi, s: math.exp(-x * x) * _G14,
        beta=lambda y, xi, s: math.exp(y) * _G14,
        phi=lambda x, y: math.exp(-x * x + y),
    ),
    "ex2_1": dict(
        mu=lambda x, y: 1.0,
        alpha=lambda x, xi, s: x * x * abs(x) * (5.0 / 8.0),
        beta=lambda y, xi, s: y * y * abs(y) * (5.0 / 8.0),
        phi=lambda x, y: (x - y) ** 2 * abs(x - y),
    ),
    "ex2_2": dict(
        mu=lambda x, y: 1.0,
        alpha=lambda x, xi, s: -x * abs(x) * (6.0 / 7.0),
        beta=lambda y, xi, s: y * abs(y) * (6.0 / 7.0),
        phi=lambda x, y: (x - y) * abs(x - y),
    ),
    "ex2_3": dict(
        mu=lambda x, y: 1.0,
        alpha=lambda x, xi, s: abs(x) * 0.75,
        beta=lambda y, xi, s: abs(y) * 0.75,
        phi=lambda x, y: abs(x - y),
    ),
    "ex2_4": dict(
        mu=lambda x, y: 1.0,
        alpha=lambda x, xi, s: _step(x) * 2.0,
        beta=lambda y, xi, s: _step(-y) * 2.0,
        phi=lambda x, y: _step(x - y),
    ),
    "velocity": dict(
        mu=lambda x, y: y**3 - 2 * x * x - y + 4,
        alpha=lambda x, xi, s: math.exp(x * x - 0.25) / (8.0 * _CVEL),
        beta=lambda y, xi, s: math.exp(-y * y + 0.25) / (2.0 * _CVEL),
        gx=lambda x: x,
        gy=lambda y: y * y / 2.0,
        phi=lambda x, y: math.exp(x * x - y * y),
    ),
    "appendix1d": dict(
        mu=lambda x: 1.0,
        beta=lambda x: math.exp(-x),
        phi=lambda x: math.exp(-(1.0 + APPENDIX_1D_LAMBDA) * x),
    ),
}

REF_LAMBDA = {
    "ex1_1": -1.0, "ex1_2": -1.0, "ex1_3": -1.0, "ex1_4": -2.0,
    "ex2_1": -1.0, "ex2_2": -1.0, "ex2_3": -1.0, "ex2_4": -1.0,
    "velocity": -5.0, "appendix1d": APPENDIX_1D_LAMBDA,
}


def _domain_points(model, rng, count=100):
    return np.column_stack([rng.uniform(a, b, size=count) for a, b in model.bounds])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_registry_fidelity(name):
    model, ref = builtin(name)
    hand = HAND[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    pts = _domain_points(model, rng)
    assert ref.lam == REF_LAMBDA[name]
    for x in pts[:, 0]:
        if model.dimension == 1:
            for role in ("mu", "beta", "phi"):
                coef = {"mu": model.mu, "beta": model.beta, "phi": ref.phi}[role]
                want = hand[role](x)
                scale = max(1.0, abs(want))
                assert abs(coef(x) - want) <= 1e-14 * scale, (name, role)
    if model.dimension == 2:
        (x0, x_bar), (y0, y_bar) = model.bounds
        for x, y in pts:
            xi = rng.uniform(x0, x_bar)
            sg = rng.uniform(y0, y_bar)
            checks = [
                (model.mu(x, y), hand["mu"](x, y)),
                (model.alpha(x, xi, sg), hand["alpha"](x, xi, sg)),
                (model.beta(y, xi, sg), hand["beta"](y, xi, sg)),
                (ref.phi(x, y), hand["phi"](x, y)),
            ]
            if "gx" in hand:
                checks.append((model.gx(x), hand["gx"](x)))
                checks.append((model.gy(y), hand["gy"](y)))
            for got, want in checks:
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), name


def test_builtin_table_rows():
    model, ref = builtin("ex1_3")
    assert model.bounds == ((0.0, 2.0), (-1.0, 1.0))
    assert model.mu(0.0, 0.0) == 1.0
    assert ref.lam == -1.0
    assert ref.phi(1.3, 0.4) == pytest.approx(math.exp(0.9), rel=1e-15)

    model, ref = builtin("ex2_2")
    assert model.alpha(0.5, 0.0, 0.0) == pytest.approx(-0.5 * 0.5 * 6 / 7, rel=1e-15)
    assert ref.phi(0.25, 1.0) == pytest.approx(-0.75 * 0.75, rel=1e-15)
    assert ref.lam == -1.0

    model, ref = builtin("appendix1d")
    assert model.bounds == ((0.0, 2.0),)
    assert model.mu(1.0) == 1.0
    assert model.beta(1.0) == pytest.approx(math.exp(-1.0), rel=1e-15)
    assert ref.lam == APPENDIX_1D_LAMBDA


def test_unknown_example():
    with pytest.raises(UnknownExample):
        builtin("ex9_9")


def test_appendix_eigenvalue_rederived_by_rootfinding():
    # unique real root of (1 - exp(-2*lam - 4)) / (lam + 2) = 1
    def g(lam):
        return 1.0 - math.exp(-2.0 * lam - 4.0) - (lam + 2.0)

    lo, hi = -1.3, -1.1
    assert g(lo) * g(hi) < 0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    for _ in range(10):  # Newton polish
        root -= g(root) / (-1.0 + 2.0 * math.exp(-2.0 * root - 4.0))
    assert abs(root - APPENDIX_1D_LAMBDA) <= 1e-14


EX11_CONFIG = """
# constant-coefficient example on the unit square
x_min = 0
x_max = 1
y_min = 0
y_max = 1
mu = "1"
alpha = "1"
beta = "1"
ref_lambda = -1
ref_phi = "1"
"""


def test_load_model_2d():
    model = load_model(EX11_CONFIG)
    assert isinstance(model, Model) and model.dimension == 2
    assert model.mu(0.3, 0.7) == 1.0
    assert model.gx(0.5) == 1.0  # documented default
    assert model.gy(0.5) == 1.0
    assert model.reference.lam == -1.0


def test_load_model_1d_inferred():
    model = load_model('x_min = 0\nx_max = 2\nmu = "1"\nbeta = "exp(-x)"\n')
    assert isinstance(model, Model) and model.dimension == 1
    assert model.beta(1.0) == pytest.approx(math.exp(-1.0))
    assert model.reference is None


def test_load_model_role_check():
    bad = EX11_CONFIG.replace('alpha = "1"', 'alpha = "y"')
    with pytest.raises(VariableMismatch):
        load_model(bad)


def test_load_model_missing_key():
    with pytest.raises(MissingKey):
        load_model('x_min = 0\nx_max = 1\ny_min = 0\ny_max = 1\nmu = "1"\nbeta = "1"\n')


def test_load_model_syntax_errors():
    with pytest.raises(ConfigSyntax):
        load_model("just some words\n")
    with pytest.raises(ConfigSyntax):
        load_model('x_min = 0\nx_min = 1\nx_max = 2\nmu = "1"\nbeta = "1"\n')
    with pytest.raises(ConfigSyntax):
        load_model('unknown_key = 3\n')
    with pytest.raises(ConfigSyntax):
        load_model(EX11_CONFIG + "dimension = 1\n")
    for dimension in ("1.5", "nan", "inf", "3"):
        with pytest.raises(ConfigSyntax, match="dimension must be 1 or 2"):
            load_model(f'dimension = {dimension}\nx_min = 0\nx_max = 1\nmu = "1"\nbeta = "1"\n')
    for x_min, x_max in [("0", "inf"), ("-1e308", "1e308"), ("nan", "1"), ("1", "1")]:
        with pytest.raises(ConfigSyntax, match="finite positive extent"):
            load_model(f'x_min = {x_min}\nx_max = {x_max}\nmu = "1"\nbeta = "1"\n')

