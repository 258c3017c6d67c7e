import numpy as np
import pytest

from popstab import expr
from popstab.expr import (
    MAX_DEPTH,
    BinOp,
    DomainError,
    ExprSyntaxError,
    Neg,
    Num,
    UnboundVariable,
    UnknownFunction,
    Var,
    eval_expr,
    free_vars,
    parse_expr,
    to_source,
)
from popstab.model import BUILTIN_NAMES, builtin


def ev(source, **ctx):
    return eval_expr(parse_expr(source), ctx)


def test_precedence():
    assert ev("2+3*4") == 14.0
    assert ev("2*3+4") == 10.0
    assert ev("2+3/4") == 2.75
    assert ev("2^3^2") == 512.0  # right-associative
    assert ev("(2+3)*4") == 20.0


def test_unary_minus_binds_looser_than_power():
    assert ev("-x^2", x=2.0) == -4.0
    tree = parse_expr("-x^2")
    assert isinstance(tree, Neg)
    assert isinstance(tree.arg, BinOp) and tree.arg.op == "^"
    assert ev("(-x)^2", x=2.0) == 4.0
    assert ev("2^-3") == 0.125


def test_step_is_closed_at_zero():
    tree = parse_expr("step(x - y)")
    assert eval_expr(tree, {"x": 1.0, "y": 0.0}) == 1.0
    assert eval_expr(tree, {"x": 0.0, "y": 1.0}) == 0.0
    assert ev("step(0)") == 1.0
    assert ev("step(-1e-300)") == 0.0


def test_sign_of_zero():
    assert ev("sign(0)") == 0.0
    assert ev("sign(-2.5)") == -1.0
    assert ev("sign(0.1)") == 1.0


def test_evaluation_examples():
    assert ev("exp(-x^2+y)", x=0.0, y=0.0) == 1.0
    assert ev("cos(x - y)", x=np.pi / 6, y=np.pi / 6) == 1.0
    assert ev("abs(x - y)", x=0.3, y=0.8) == pytest.approx(0.5, abs=1e-15)
    assert ev("pi") == pytest.approx(np.pi, rel=0)
    assert ev("e") == pytest.approx(np.e, rel=0)


def test_array_evaluation_broadcasts():
    tree = parse_expr("x*y + 1")
    out = eval_expr(tree, {"x": np.array([1.0, 2.0])[:, None], "y": np.array([3.0, 4.0])[None, :]})
    assert out.shape == (2, 2)
    assert np.array_equal(out, np.array([[4.0, 5.0], [7.0, 9.0]]))


def test_free_vars():
    assert free_vars(parse_expr("3.5")) == frozenset()
    assert free_vars(parse_expr("x*sigma")) == {"x", "sigma"}
    assert free_vars(parse_expr("0.25*exp(-xi+sigma)")) == {"xi", "sigma"}


def test_referential_transparency():
    tree = parse_expr("exp(sin(x)^2 - cos(x)/3) * x")
    ctx = {"x": 0.7378123}
    first = eval_expr(tree, ctx)
    assert all(eval_expr(tree, ctx) == first for _ in range(5))


@pytest.mark.parametrize(
    "source",
    [
        "2+3*4",
        "-x^2",
        "(-x)^2",
        "x^-2",
        "a - (b - c)",
        "a - b - c",
        "a / (b * c)",
        "step(x - y) * 2",
        "exp(x + 1) * 0.25 * exp(-xi + sigma)",
        "-(a*b)",
        "--x",
        "1e-3 + 2.5e+10",
    ],
)
def test_round_trip(source):
    tree = parse_expr(source)
    assert parse_expr(to_source(tree)) == tree


def test_round_trip_builtin_corpus():
    for name in BUILTIN_NAMES:
        model, ref = builtin(name)
        coefs = [model.mu, model.beta, ref.phi]
        if model.dimension == 2:
            coefs += [model.alpha, model.gx, model.gy]
        for coef in coefs:
            assert parse_expr(to_source(coef.ast)) == coef.ast


def test_syntax_error_reports_position():
    with pytest.raises(ExprSyntaxError) as info:
        parse_expr("1 + * 2")
    assert info.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("(1 + 2")
    with pytest.raises(ExprSyntaxError):
        parse_expr("")
    with pytest.raises(ExprSyntaxError):
        parse_expr("   ")


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse_expr("2x")


def test_unknown_function():
    with pytest.raises(UnknownFunction):
        parse_expr("tan(x)")


def test_unbound_variable():
    with pytest.raises(UnboundVariable):
        eval_expr(parse_expr("x + y"), {"x": 1.0})


def test_domain_errors():
    with pytest.raises(DomainError):
        ev("sqrt(x)", x=-1.0)
    with pytest.raises(DomainError):
        ev("log(0)")
    with pytest.raises(DomainError):
        ev("log(-2)")
    assert ev("sqrt(4)") == 2.0


def test_division_follows_ieee():
    assert ev("1/0") == np.inf
    assert ev("-1/0") == -np.inf


def test_number_literals():
    assert ev("0.25") == 0.25
    assert ev(".5") == 0.5
    assert ev("1e3") == 1000.0
    assert ev("2.5E-2") == 0.025
    assert isinstance(parse_expr("7"), Num)
    assert isinstance(parse_expr("x"), Var)


# a chain of 3000 terms (tree height 3000) and 400 nested parentheses
LONG_SUM = "+".join(["x"] * 3000)
DEEP_PARENS = "(" * 400 + "x" + ")" * 400


@pytest.mark.parametrize(
    "source",
    [LONG_SUM, DEEP_PARENS, "-" * 3000 + "x", "2^" * 3000 + "x"],
    ids=["sum", "parentheses", "minus", "power"],
)
def test_expressions_deeper_than_the_bound_are_syntax_errors(source):
    with pytest.raises(ExprSyntaxError, match=f"nested deeper than {MAX_DEPTH} levels"):
        parse_expr(source)


@pytest.mark.parametrize(
    "source",
    [
        "+".join(["x"] * MAX_DEPTH),
        "(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        "sin(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1),
        "-" * (MAX_DEPTH - 1) + "x",
    ],
    ids=["sum", "parentheses", "calls", "minus"],
)
def test_expressions_at_the_bound_parse_evaluate_and_round_trip(source):
    tree = parse_expr(source)
    assert free_vars(tree) == {"x"}
    assert np.isfinite(eval_expr(tree, {"x": 0.5}))
    assert parse_expr(to_source(tree)) == tree
