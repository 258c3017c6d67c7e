"""Arithmetic expression language for model coefficients.

Coefficients (mortality, boundary kernels, velocities, reference
eigenfunctions) are written as plain text and parsed once at load time.
Grammar, whitespace insignificant:

    expr   := term (("+" | "-") term)*
    term   := factor (("*" | "/") factor)*
    factor := "-" factor | power
    power  := atom ("^" factor)?          right-associative
    atom   := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

"^" binds tightest, then unary minus, then "*" "/", then "+" "-";
so "-x^2" means -(x^2).  Functions: exp, log, sqrt, sin, cos, abs,
sign, step.  Constants: pi, e.  step(t) is 1 for t >= 0 and 0
otherwise (the indicator of a closed-at-zero half line); sign(0) is 0.
There is no implicit multiplication: "2x" is a syntax error.

Evaluation follows IEEE double precision.  Bindings may be floats or
numpy arrays (arrays broadcast and produce array results).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np


class ExprSyntaxError(ValueError):
    """Malformed expression text; ``position`` is the 0-based offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownFunction(ExprSyntaxError):
    pass


class DomainError(ValueError):
    """log/sqrt evaluated outside their real domain; ``where`` marks the
    offending entries of the argument."""

    def __init__(self, message: str, where=True):
        super().__init__(message)
        self.where = where


class UnboundVariable(ValueError):
    """Evaluation context is missing a binding for a free variable."""


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Const, Neg, BinOp, Call]

CONSTANTS = {"pi": np.pi, "e": np.e}
FUNCTIONS = ("exp", "log", "sqrt", "sin", "cos", "abs", "sign", "step")

_NUM_START = set("0123456789.")
_OPS = set("+-*/^()")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """Return (kind, text, position) triples; kinds: num, name, op, end."""
    tokens = []
    i, n = 0, len(source)
    while i < n:
        c = source[i]
        if c.isspace():
            i += 1
        elif c in _OPS:
            tokens.append(("op", c, i))
            i += 1
        elif c in _NUM_START:
            j = i
            while j < n and (source[j].isdigit() or source[j] == "."):
                j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k].isdigit():
                    j = k
                    while j < n and source[j].isdigit():
                        j += 1
            text = source[i:j]
            try:
                float(text)
            except ValueError:
                raise ExprSyntaxError(f"bad number {text!r}", i) from None
            tokens.append(("num", text, i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(("name", source[i:j], i))
            i = j
        else:
            raise ExprSyntaxError(f"unexpected character {c!r}", i)
    tokens.append(("end", "", n))
    return tokens


# The deepest expression parse_expr accepts, both as the height of its tree
# and as the nesting of parentheses, calls, unary minus and "^" exponents
# (at most five parser frames per level).  It keeps parsing and the
# recursive walks of a tree (free_vars, eval_expr, to_source, ==) well
# inside Python's default recursion limit of 1000 frames.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each parse_* method returns the parsed tree and
    its height (1 for a leaf)."""

    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text):
        kind, tok, at = self.peek()
        if kind != "op" or tok != text:
            raise ExprSyntaxError(f"expected {text!r}", at)
        self.advance()

    def bounded(self, depth, at):
        if depth > MAX_DEPTH:
            raise ExprSyntaxError(f"expression nested deeper than {MAX_DEPTH} levels", at)
        return depth

    def parse_expr(self):
        node, height = self.parse_term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            _, op, at = self.advance()
            right, right_height = self.parse_term()
            node, height = BinOp(op, node, right), self.bounded(1 + max(height, right_height), at)
        return node, height

    def parse_term(self):
        node, height = self.parse_factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            _, op, at = self.advance()
            right, right_height = self.parse_factor()
            node, height = BinOp(op, node, right), self.bounded(1 + max(height, right_height), at)
        return node, height

    def parse_factor(self):
        # every nesting level passes through here exactly once
        kind, text, at = self.peek()
        self.nesting = self.bounded(self.nesting + 1, at)
        if (kind, text) == ("op", "-"):
            self.advance()
            arg, height = self.parse_factor()
            result = Neg(arg), self.bounded(1 + height, at)
        else:
            result = self.parse_power()
        self.nesting -= 1
        return result

    def parse_power(self):
        node, height = self.parse_atom()
        kind, text, at = self.peek()
        if (kind, text) == ("op", "^"):
            self.advance()
            exponent, exponent_height = self.parse_factor()
            node = BinOp("^", node, exponent)
            height = self.bounded(1 + max(height, exponent_height), at)
        return node, height

    def parse_atom(self):
        kind, text, at = self.advance()
        if kind == "num":
            return Num(float(text)), 1
        if kind == "op" and text == "(":
            result = self.parse_expr()
            self.expect(")")
            return result
        if kind == "name":
            if self.peek()[:2] == ("op", "("):
                if text not in FUNCTIONS:
                    raise UnknownFunction(f"unknown function {text!r}", at)
                self.advance()
                arg, height = self.parse_expr()
                self.expect(")")
                return Call(text, arg), self.bounded(1 + height, at)
            if text in CONSTANTS:
                return Const(text), 1
            return Var(text), 1
        raise ExprSyntaxError("expected a value", at)


def parse_expr(source: str) -> Expr:
    """Parse expression text into an immutable tree; a bare name that is
    not a known constant parses as a variable.  A tree higher than
    MAX_DEPTH, or nested deeper, is a syntax error."""
    if not source or not source.strip():
        raise ExprSyntaxError("empty expression", 0)
    parser = _Parser(_tokenize(source))
    node, _ = parser.parse_expr()
    kind, _, at = parser.peek()
    if kind != "end":
        raise ExprSyntaxError("trailing input", at)
    return node


def free_vars(ast: Expr) -> frozenset[str]:
    """Names of the variables appearing in the tree."""
    if isinstance(ast, Var):
        return frozenset((ast.name,))
    if isinstance(ast, Neg):
        return free_vars(ast.arg)
    if isinstance(ast, BinOp):
        return free_vars(ast.left) | free_vars(ast.right)
    if isinstance(ast, Call):
        return free_vars(ast.arg)
    return frozenset()


def _check_domain(func, value):
    arr = np.asarray(value)
    if func == "sqrt" and np.any(arr < 0):
        raise DomainError("sqrt of negative argument", arr < 0)
    if func == "log" and np.any(arr <= 0):
        raise DomainError("log of nonpositive argument", arr <= 0)


def _eval(ast: Expr, ctx) -> object:
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Const):
        return CONSTANTS[ast.name]
    if isinstance(ast, Var):
        try:
            return ctx[ast.name]
        except KeyError:
            raise UnboundVariable(f"no binding for variable {ast.name!r}") from None
    if isinstance(ast, Neg):
        return np.negative(_eval(ast.arg, ctx))
    if isinstance(ast, BinOp):
        left = _eval(ast.left, ctx)
        right = _eval(ast.right, ctx)
        if ast.op == "+":
            return np.add(left, right)
        if ast.op == "-":
            return np.subtract(left, right)
        if ast.op == "*":
            return np.multiply(left, right)
        if ast.op == "/":
            return np.divide(left, right)
        return np.power(left, right)
    arg = _eval(ast.arg, ctx)
    func = ast.func
    if func == "step":
        return np.where(np.asarray(arg) >= 0, 1.0, 0.0)
    _check_domain(func, arg)
    return getattr(np, func)(arg)


def eval_expr(ast: Expr, ctx: dict) -> float:
    """Evaluate the tree with the given variable bindings.

    Scalar bindings produce a float; numpy-array bindings broadcast and
    produce an array.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        result = _eval(ast, ctx)
    if np.ndim(result) == 0:
        return float(result)
    return np.asarray(result, dtype=float)


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(ast: Expr) -> int:
    if isinstance(ast, BinOp):
        return _PREC[ast.op]
    if isinstance(ast, Neg):
        return _PREC["neg"]
    return 9


def _wrap(text: str) -> str:
    return "(" + text + ")"


def to_source(ast: Expr) -> str:
    """Render the tree back to text; reparsing gives an identical tree."""
    if isinstance(ast, Num):
        return repr(ast.value)
    if isinstance(ast, (Var, Const)):
        return ast.name
    if isinstance(ast, Call):
        return f"{ast.func}({to_source(ast.arg)})"
    if isinstance(ast, Neg):
        inner = to_source(ast.arg)
        if _prec(ast.arg) < _PREC["neg"]:
            inner = _wrap(inner)
        return "-" + inner
    left = to_source(ast.left)
    right = to_source(ast.right)
    prec = _PREC[ast.op]
    if ast.op == "^":
        # base must be an atom; exponent is a factor (may carry unary minus)
        if _prec(ast.left) <= prec:
            left = _wrap(left)
        if _prec(ast.right) < _PREC["neg"]:
            right = _wrap(right)
    else:
        if _prec(ast.left) < prec:
            left = _wrap(left)
        if _prec(ast.right) <= prec:
            right = _wrap(right)
    return f"{left} {ast.op} {right}"
