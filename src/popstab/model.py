"""Model definitions, the text configuration loader, and builtin examples.

A 2-D model is a rectangle with mortality mu(x, y), boundary kernels
alpha(x, xi, sigma) and beta(y, xi, sigma), and optional velocities
gx(x), gy(y) (default 1).  A 1-D model is an interval with mu(x) and
beta(x).  Each coefficient role has a fixed variable vocabulary so that
configuration typos surface at load time.

The builtin registry provides a family of test cases with analytically
known eigenpairs; their reference
eigenpairs are attached for error measurement.  Normalization constants
that are only defined through integrals are evaluated once, at registry
time, by high-degree Clenshaw-Curtis cubature.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr
from .grid import cheb_grid
from .quad import cubature_rect, tensor_rule


class ConfigSyntax(ValueError):
    pass


class MissingKey(ValueError):
    pass


class VariableMismatch(ValueError):
    pass


class UnknownExample(KeyError):
    pass


class NonpositiveVelocity(ValueError):
    pass


class InvalidSample(ValueError):
    """A coefficient is undefined or not finite at a point it is sampled at."""


@dataclass(frozen=True)
class Rectangle:
    x0: float
    x_bar: float
    y0: float
    y_bar: float

    def __post_init__(self):
        if not (self.x0 < self.x_bar and self.y0 < self.y_bar):
            raise ConfigSyntax("domain rectangle must have positive extent")


@dataclass(frozen=True)
class Coefficient:
    """A parsed coefficient expression with its fixed calling convention."""

    source: str
    ast: expr.Expr
    variables: tuple[str, ...]

    def __call__(self, *values):
        return expr.eval_expr(self.ast, dict(zip(self.variables, values)))

    @property
    def is_constant(self) -> bool:
        return not expr.free_vars(self.ast)


def coefficient(source: str, variables: tuple[str, ...], role: str) -> Coefficient:
    ast = expr.parse_expr(source)
    extra = expr.free_vars(ast) - set(variables)
    if extra:
        raise VariableMismatch(
            f"{role} may only use {', '.join(variables)}; "
            f"found {', '.join(sorted(extra))}"
        )
    return Coefficient(source, ast, variables)


@dataclass(frozen=True)
class ReferenceEigenpair:
    lam: float
    phi: Coefficient | None
    note: str


@dataclass(frozen=True)
class Model2D:
    domain: Rectangle
    mu: Coefficient
    alpha: Coefficient
    beta: Coefficient
    gx: Coefficient
    gy: Coefficient
    reference: ReferenceEigenpair | None = None

    @property
    def dimension(self) -> int:
        return 2


@dataclass(frozen=True)
class Model1D:
    x0: float
    x_bar: float
    mu: Coefficient
    beta: Coefficient
    reference: ReferenceEigenpair | None = None

    def __post_init__(self):
        if not self.x0 < self.x_bar:
            raise ConfigSyntax("interval must have positive extent")

    @property
    def dimension(self) -> int:
        return 1


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str


_ROLES_2D = {
    "mu": ("x", "y"),
    "alpha": ("x", "xi", "sigma"),
    "beta": ("y", "xi", "sigma"),
    "gx": ("x",),
    "gy": ("y",),
    "ref_phi": ("x", "y"),
}
_ROLES_1D = {
    "mu": ("x",),
    "beta": ("x",),
    "ref_phi": ("x",),
}

_NUMERIC_KEYS = ("dimension", "x_min", "x_max", "y_min", "y_max", "ref_lambda")
_EXPR_KEYS = ("mu", "alpha", "beta", "gx", "gy", "ref_phi")


def _parse_lines(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigSyntax(f"line {lineno}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _NUMERIC_KEYS and key not in _EXPR_KEYS:
            raise ConfigSyntax(f"line {lineno}: unknown key {key!r}")
        if key in entries:
            raise ConfigSyntax(f"line {lineno}: duplicate key {key!r}")
        if value.startswith('"') and value.endswith('"') and len(value) >= 2:
            value = value[1:-1]
        if not value:
            raise ConfigSyntax(f"line {lineno}: empty value for {key!r}")
        entries[key] = value
    return entries


def _require(entries: dict[str, str], key: str) -> str:
    if key not in entries:
        raise MissingKey(f"missing required key {key!r}")
    return entries[key]


def _number(entries: dict[str, str], key: str) -> float:
    text = _require(entries, key)
    try:
        return float(text)
    except ValueError:
        raise ConfigSyntax(f"{key} must be a number, got {text!r}") from None


def _reference(entries, roles) -> ReferenceEigenpair | None:
    if "ref_lambda" not in entries:
        if "ref_phi" in entries:
            raise MissingKey("ref_phi given without ref_lambda")
        return None
    lam = _number(entries, "ref_lambda")
    phi = None
    if "ref_phi" in entries:
        phi = coefficient(entries["ref_phi"], roles["ref_phi"], "ref_phi")
    return ReferenceEigenpair(lam, phi, "model file")


def load_model(config_text: str) -> Model2D | Model1D:
    """Parse the key = value model format (see the package docs).

    The dimension is taken from the ``dimension`` key when present and
    otherwise inferred from the presence of the y-domain keys.  Missing
    gx/gy default to 1.
    """
    entries = _parse_lines(config_text)
    has_y = "y_min" in entries or "y_max" in entries
    dimension = int(_number(entries, "dimension")) if "dimension" in entries else (2 if has_y else 1)
    if dimension not in (1, 2):
        raise ConfigSyntax(f"dimension must be 1 or 2, got {dimension}")
    if dimension == 1:
        if has_y:
            raise ConfigSyntax("y keys are not allowed when dimension = 1")
        if "alpha" in entries or "gx" in entries or "gy" in entries:
            raise ConfigSyntax("alpha/gx/gy are not allowed when dimension = 1")
        return Model1D(
            _number(entries, "x_min"),
            _number(entries, "x_max"),
            mu=coefficient(_require(entries, "mu"), _ROLES_1D["mu"], "mu"),
            beta=coefficient(_require(entries, "beta"), _ROLES_1D["beta"], "beta"),
            reference=_reference(entries, _ROLES_1D),
        )
    domain = Rectangle(
        _number(entries, "x_min"),
        _number(entries, "x_max"),
        _number(entries, "y_min"),
        _number(entries, "y_max"),
    )
    return Model2D(
        domain,
        mu=coefficient(_require(entries, "mu"), _ROLES_2D["mu"], "mu"),
        alpha=coefficient(_require(entries, "alpha"), _ROLES_2D["alpha"], "alpha"),
        beta=coefficient(_require(entries, "beta"), _ROLES_2D["beta"], "beta"),
        gx=coefficient(entries.get("gx", "1"), _ROLES_2D["gx"], "gx"),
        gy=coefficient(entries.get("gy", "1"), _ROLES_2D["gy"], "gy"),
        reference=_reference(entries, _ROLES_2D),
    )


def to_config(model: Model2D | Model1D) -> str:
    """Serialize a model back to the text format; reloading is lossless."""
    lines = [f"dimension = {model.dimension}"]
    if model.dimension == 2:
        lines.append(f"x_min = {model.domain.x0!r}")
        lines.append(f"x_max = {model.domain.x_bar!r}")
        lines.append(f"y_min = {model.domain.y0!r}")
        lines.append(f"y_max = {model.domain.y_bar!r}")
        lines.append(f'mu = "{expr.to_source(model.mu.ast)}"')
        lines.append(f'alpha = "{expr.to_source(model.alpha.ast)}"')
        lines.append(f'beta = "{expr.to_source(model.beta.ast)}"')
        lines.append(f'gx = "{expr.to_source(model.gx.ast)}"')
        lines.append(f'gy = "{expr.to_source(model.gy.ast)}"')
    else:
        lines.append(f"x_min = {model.x0!r}")
        lines.append(f"x_max = {model.x_bar!r}")
        lines.append(f'mu = "{expr.to_source(model.mu.ast)}"')
        lines.append(f'beta = "{expr.to_source(model.beta.ast)}"')
    if model.reference is not None:
        lines.append(f"ref_lambda = {model.reference.lam!r}")
        if model.reference.phi is not None:
            lines.append(f'ref_phi = "{expr.to_source(model.reference.phi.ast)}"')
    return "\n".join(lines) + "\n"


def _norm_constant(f, x0, x1, y0, y1, degree=256) -> float:
    """Integral of f over the rectangle by a degree-256 tensor rule."""
    rule = tensor_rule(x0, x1, y0, y1, degree, degree)
    xg = rule.x_rule.nodes[:, None]
    yg = rule.y_rule.nodes[None, :]
    return cubature_rect(rule, f(xg, yg))


def _model_2d(domain, mu, alpha, beta, gx="1", gy="1", ref=None) -> Model2D:
    return Model2D(
        Rectangle(*domain),
        mu=coefficient(mu, _ROLES_2D["mu"], "mu"),
        alpha=coefficient(alpha, _ROLES_2D["alpha"], "alpha"),
        beta=coefficient(beta, _ROLES_2D["beta"], "beta"),
        gx=coefficient(gx, _ROLES_2D["gx"], "gx"),
        gy=coefficient(gy, _ROLES_2D["gy"], "gy"),
        reference=ref,
    )


def _ref(lam: float, phi: str, note: str, variables=("x", "y")) -> ReferenceEigenpair:
    return ReferenceEigenpair(lam, Coefficient(phi, expr.parse_expr(phi), variables), note)


# Closed form for the example-1.2 kernel constant, kept symbolic.
_GAMMA_12 = "4 / (sqrt(2) - sqrt(6) + 2)"

APPENDIX_1D_LAMBDA = -1.203187869979980


@lru_cache(maxsize=None)
def _registry() -> dict:
    gamma_14 = 1.0 / _norm_constant(
        lambda a, b: np.exp(-a * a + b), 0.0, 2.0, 0.0, 1.0
    )
    c_vel = _norm_constant(
        lambda a, b: np.exp(a * a - b * b), 0.5, 1.5, 0.5, 2.0
    )
    pi = float(np.pi)
    models = {
        "ex1_1": _model_2d(
            (0.0, 1.0, 0.0, 1.0),
            mu="1", alpha="1", beta="1",
            ref=_ref(-1.0, "1", "analytic"),
        ),
        "ex1_2": _model_2d(
            (pi / 6, pi / 2, pi / 6, pi / 4),
            mu="1",
            alpha=f"cos(x - pi/6) * {_GAMMA_12}",
            beta=f"cos(pi/6 - y) * {_GAMMA_12}",
            ref=_ref(-1.0, "cos(x - y)", "analytic"),
        ),
        "ex1_3": _model_2d(
            (0.0, 2.0, -1.0, 1.0),
            mu="1",
            alpha="exp(x + 1) * 0.25 * exp(-xi + sigma)",
            beta="exp(-y) * 0.25 * exp(-xi + sigma)",
            ref=_ref(-1.0, "exp(x - y)", "analytic"),
        ),
        "ex1_4": _model_2d(
            (0.0, 2.0, 0.0, 1.0),
            mu="2*x + 1",
            alpha=f"exp(-x^2) * {gamma_14!r}",
            beta=f"exp(y) * {gamma_14!r}",
            ref=_ref(-2.0, "exp(-x^2 + y)", "analytic"),
        ),
        "ex2_1": _model_2d(
            (0.0, 1.0, 0.0, 2.0),
            mu="1",
            alpha="x^2 * abs(x) * (5/8)",
            beta="y^2 * abs(y) * (5/8)",
            ref=_ref(-1.0, "(x - y)^2 * abs(x - y)", "C2"),
        ),
        "ex2_2": _model_2d(
            (0.0, 1.0, 0.0, 2.0),
            mu="1",
            alpha="-x * abs(x) * (6/7)",
            beta="y * abs(y) * (6/7)",
            ref=_ref(-1.0, "(x - y) * abs(x - y)", "C1"),
        ),
        "ex2_3": _model_2d(
            (0.0, 1.0, 0.0, 2.0),
            mu="1",
            alpha="abs(x) * (3/4)",
            beta="abs(y) * (3/4)",
            ref=_ref(-1.0, "abs(x - y)", "C0"),
        ),
        "ex2_4": _model_2d(
            (0.0, 1.0, 0.0, 2.0),
            mu="1",
            alpha="step(x) * 2",
            beta="step(-y) * 2",
            ref=_ref(-1.0, "step(x - y)", "discontinuous"),
        ),
        "velocity": _model_2d(
            (0.5, 1.5, 0.5, 2.0),
            mu="y^3 - 2*x^2 - y + 4",
            alpha=f"exp(x^2 - 0.25) * {1.0 / (8.0 * c_vel)!r}",
            beta=f"exp(-y^2 + 0.25) * {1.0 / (2.0 * c_vel)!r}",
            gx="x",
            gy="y^2 / 2",
            ref=_ref(-5.0, "exp(x^2 - y^2)", "analytic, nontrivial velocities"),
        ),
        "appendix1d": Model1D(
            0.0,
            2.0,
            mu=coefficient("1", _ROLES_1D["mu"], "mu"),
            beta=coefficient("exp(-x)", _ROLES_1D["beta"], "beta"),
            reference=_ref(
                APPENDIX_1D_LAMBDA,
                f"exp({-(1.0 + APPENDIX_1D_LAMBDA)!r} * x)",
                "analytic",
                variables=("x",),
            ),
        ),
    }
    return models


BUILTIN_NAMES = (
    "ex1_1", "ex1_2", "ex1_3", "ex1_4",
    "ex2_1", "ex2_2", "ex2_3", "ex2_4",
    "velocity", "appendix1d",
)


def builtin(name: str):
    """Builtin model by name; returns (model, reference eigenpair)."""
    registry = _registry()
    if name not in registry:
        raise UnknownExample(
            f"unknown example {name!r}; choose from {', '.join(BUILTIN_NAMES)}"
        )
    model = registry[name]
    return model, model.reference


def validate_model(model: Model2D | Model1D, n: int, m: int | None = None) -> list[Diagnostic]:
    """Sample the coefficients on degree-(n, m) grids and collect warnings.

    Negative mortality or kernel samples produce warning diagnostics;
    a velocity that is not strictly positive at the nodes is a hard error.
    """
    diags: list[Diagnostic] = []
    if model.dimension == 1:
        xs = cheb_grid(model.x0, model.x_bar, n).nodes
        if np.any(model.mu(xs) < 0):
            diags.append(Diagnostic("NegativeMortality", "mu < 0 at some nodes"))
        if np.any(model.beta(xs) < 0):
            diags.append(Diagnostic("NegativeKernel", "beta < 0 at some nodes"))
        return diags
    if m is None:
        m = n
    dom = model.domain
    xs = cheb_grid(dom.x0, dom.x_bar, n).nodes
    ys = cheb_grid(dom.y0, dom.y_bar, m).nodes
    if np.any(model.mu(xs[:, None], ys[None, :]) < 0):
        diags.append(Diagnostic("NegativeMortality", "mu < 0 at some nodes"))
    xi = xs[None, :, None]
    sigma = ys[None, None, :]
    if np.any(model.alpha(xs[:, None, None], xi, sigma) < 0):
        diags.append(Diagnostic("NegativeKernel", "alpha < 0 at some nodes"))
    if np.any(model.beta(ys[:, None, None], xi, sigma) < 0):
        diags.append(Diagnostic("NegativeKernel", "beta < 0 at some nodes"))
    for name, coef, nodes in (("gx", model.gx, xs), ("gy", model.gy, ys)):
        values = np.broadcast_to(np.asarray(coef(nodes)), nodes.shape)
        if np.any(values <= 0):
            raise NonpositiveVelocity(f"{name} must be strictly positive on the domain")
    return diags


