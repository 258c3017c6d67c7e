"""Model definitions, the text configuration loader, and builtin examples.

A :class:`Model` has one interval per axis (x, then y).  A 2-D model has
mortality mu(x, y), boundary kernels alpha(x, xi, sigma) and
beta(y, xi, sigma), and optional velocities gx(x), gy(y) (default 1).  A
1-D model has mu(x) and beta(x).  Each coefficient role has a fixed
variable vocabulary per dimension (``_ROLES``) so that configuration
typos surface at load time.

The builtin registry provides a family of test cases with analytically
known eigenpairs; their reference
eigenpairs are attached for error measurement.  Normalization constants
that are only defined through integrals are evaluated once, at registry
time, by high-degree Clenshaw-Curtis cubature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import expr
from .grid import cheb_grid
from .quad import cc_weights


class ConfigSyntax(ValueError):
    pass


class MissingKey(ValueError):
    pass


class VariableMismatch(ValueError):
    pass


class UnknownExample(LookupError):
    pass


class NonpositiveVelocity(ValueError):
    pass


class InvalidSample(ValueError):
    """A coefficient is undefined or not finite at a point it is sampled at."""


@dataclass(frozen=True)
class Coefficient:
    """A parsed coefficient expression with its fixed calling convention."""

    source: str
    ast: expr.Expr
    variables: tuple[str, ...]

    def __call__(self, *values):
        return expr.eval_expr(self.ast, dict(zip(self.variables, values)))


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
class Model:
    """A model on a box with one ``(min, max)`` per axis: x, then y.

    ``mu`` is the mortality, ``beta`` the inflow kernel across the left
    edge of x and ``alpha`` (2-D only) the one across the left edge of y;
    ``gx`` and ``gy`` (2-D only) are the velocities.  A velocity that is
    None is 1.
    """

    bounds: tuple[tuple[float, float], ...]
    mu: Coefficient
    beta: Coefficient
    alpha: Coefficient | None = None
    gx: Coefficient | None = None
    gy: Coefficient | None = None
    reference: ReferenceEigenpair | None = None

    def __post_init__(self):
        if not all(0 < hi - lo < math.inf for lo, hi in self.bounds):
            raise ConfigSyntax("every axis of the domain must have finite positive extent")

    @property
    def dimension(self) -> int:
        return len(self.bounds)


# Variables of each coefficient role, per dimension, in file order.
_ROLES = {
    1: {"mu": ("x",), "beta": ("x",), "ref_phi": ("x",)},
    2: {
        "mu": ("x", "y"),
        "alpha": ("x", "xi", "sigma"),
        "beta": ("y", "xi", "sigma"),
        "gx": ("x",),
        "gy": ("y",),
        "ref_phi": ("x", "y"),
    },
}
_DEFAULTS = {"gx": "1", "gy": "1"}
_AXES = "xy"

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
    if not math.isfinite(lam):
        raise ConfigSyntax(f"ref_lambda must be finite, got {entries['ref_lambda']}")
    phi = None
    if "ref_phi" in entries:
        phi = coefficient(entries["ref_phi"], roles["ref_phi"], "ref_phi")
    return ReferenceEigenpair(lam, phi, "model file")


def _model(bounds, ref=None, **sources: str) -> Model:
    """The model on ``bounds`` from the sources of its dimension's
    coefficient roles (other keys are ignored); gx and gy default to 1."""
    sources = {**_DEFAULTS, **sources}
    coefficients = {
        role: coefficient(_require(sources, role), variables, role)
        for role, variables in _ROLES[len(bounds)].items()
        if role != "ref_phi"
    }
    return Model(tuple(bounds), reference=ref, **coefficients)


def load_model(config_text: str) -> Model:
    """Parse the key = value model format (see the package docs).

    The dimension is taken from the ``dimension`` key when present and
    otherwise inferred from the presence of the y-domain keys.  Missing
    gx/gy default to 1.
    """
    entries = _parse_lines(config_text)
    has_y = "y_min" in entries or "y_max" in entries
    dimension = _number(entries, "dimension") if "dimension" in entries else (2 if has_y else 1)
    if dimension not in _ROLES:
        raise ConfigSyntax(f"dimension must be 1 or 2, got {entries['dimension']}")
    dimension = int(dimension)
    axes = _AXES[:dimension]
    roles = _ROLES[dimension]
    bound_keys = [f"{v}_{end}" for v in axes for end in ("min", "max")]
    allowed = {"dimension", "ref_lambda", *bound_keys, *roles}
    stray = [key for key in entries if key not in allowed]
    if stray:
        raise ConfigSyntax(f"{', '.join(stray)} not allowed when dimension = {dimension}")
    bounds = [(_number(entries, f"{v}_min"), _number(entries, f"{v}_max")) for v in axes]
    return _model(bounds, _reference(entries, roles), **entries)


def _norm_constant(f, x0, x1, y0, y1, degree=256) -> float:
    """Integral of f over the rectangle by a tensor Clenshaw-Curtis rule."""
    x, y = (cc_weights(cheb_grid(a, b, degree)) for a, b in ((x0, x1), (y0, y1)))
    values = np.asarray(f(x.nodes[:, None], y.nodes[None, :]), dtype=float)
    return float(x.weights @ values @ y.weights)


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
        "ex1_1": _model(
            ((0.0, 1.0), (0.0, 1.0)),
            mu="1", alpha="1", beta="1",
            ref=_ref(-1.0, "1", "analytic"),
        ),
        "ex1_2": _model(
            ((pi / 6, pi / 2), (pi / 6, pi / 4)),
            mu="1",
            alpha=f"cos(x - pi/6) * {_GAMMA_12}",
            beta=f"cos(pi/6 - y) * {_GAMMA_12}",
            ref=_ref(-1.0, "cos(x - y)", "analytic"),
        ),
        "ex1_3": _model(
            ((0.0, 2.0), (-1.0, 1.0)),
            mu="1",
            alpha="exp(x + 1) * 0.25 * exp(-xi + sigma)",
            beta="exp(-y) * 0.25 * exp(-xi + sigma)",
            ref=_ref(-1.0, "exp(x - y)", "analytic"),
        ),
        "ex1_4": _model(
            ((0.0, 2.0), (0.0, 1.0)),
            mu="2*x + 1",
            alpha=f"exp(-x^2) * {gamma_14!r}",
            beta=f"exp(y) * {gamma_14!r}",
            ref=_ref(-2.0, "exp(-x^2 + y)", "analytic"),
        ),
        "ex2_1": _model(
            ((0.0, 1.0), (0.0, 2.0)),
            mu="1",
            alpha="x^2 * abs(x) * (5/8)",
            beta="y^2 * abs(y) * (5/8)",
            ref=_ref(-1.0, "(x - y)^2 * abs(x - y)", "C2"),
        ),
        "ex2_2": _model(
            ((0.0, 1.0), (0.0, 2.0)),
            mu="1",
            alpha="-x * abs(x) * (6/7)",
            beta="y * abs(y) * (6/7)",
            ref=_ref(-1.0, "(x - y) * abs(x - y)", "C1"),
        ),
        "ex2_3": _model(
            ((0.0, 1.0), (0.0, 2.0)),
            mu="1",
            alpha="abs(x) * (3/4)",
            beta="abs(y) * (3/4)",
            ref=_ref(-1.0, "abs(x - y)", "C0"),
        ),
        "ex2_4": _model(
            ((0.0, 1.0), (0.0, 2.0)),
            mu="1",
            alpha="step(x) * 2",
            beta="step(-y) * 2",
            ref=_ref(-1.0, "step(x - y)", "discontinuous"),
        ),
        "velocity": _model(
            ((0.5, 1.5), (0.5, 2.0)),
            mu="y^3 - 2*x^2 - y + 4",
            alpha=f"exp(x^2 - 0.25) * {1.0 / (8.0 * c_vel)!r}",
            beta=f"exp(-y^2 + 0.25) * {1.0 / (2.0 * c_vel)!r}",
            gx="x",
            gy="y^2 / 2",
            ref=_ref(-5.0, "exp(x^2 - y^2)", "analytic, nontrivial velocities"),
        ),
        "appendix1d": _model(
            ((0.0, 2.0),),
            mu="1",
            beta="exp(-x)",
            ref=_ref(
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
