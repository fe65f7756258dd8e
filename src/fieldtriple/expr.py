"""Boundary-condition expressions in the variables x and y.

A tiny language for entering Dirichlet data on the command line:

    numbers     decimal literals, optionally with a fraction and exponent
    variables   x, y
    operators   + - * / ^   (with unary minus)
    functions   sin, cos, exp, sinh, cosh, sqrt
    grouping    parentheses

Precedence, loosest to tightest: ``+ -`` then ``* /`` then unary minus then
``^``; ``^`` associates to the right, everything else to the left.  So
``-x^2`` means ``-(x^2)`` and ``a^b^c`` means ``a^(b^c)``.

The language is ASCII: blanks are ASCII whitespace, and any other character,
a non-ASCII letter, digit or blank included, is unexpected.  The parser is a
hand-rolled precedence climber over a one-pattern scanner; syntax problems
raise :class:`ExprSyntaxError` carrying the offset of the offending token
(the length of the source for an unexpected end of input), which counts
bytes, since all before it is ASCII; so does nesting more than 100 levels
deep, or a tree more than 600 levels deep.  Printing with :func:`expr_to_text`
inserts only the parentheses needed to preserve the tree, and reparsing the
printed form reproduces the original tree exactly.

Evaluation is array evaluation: elementwise over arrays of one shape, with
host-math values (IEEE ``+ - * /``, the ``math`` module's functions and pow),
so array and scalar calls agree bit for bit.  Every non-finite result raises
:class:`DomainError` rather than returning an infinite or nan value.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ExprSyntaxError, InvalidInputError

__all__ = [
    "Expr",
    "Num",
    "Var",
    "Neg",
    "Binary",
    "Call",
    "FUNCTION_NAMES",
    "parse_expr",
    "expr_to_text",
    "evaluate",
]


# ---------------------------------------------------------------------------
# Syntax tree


@dataclass(frozen=True)
class Num:
    """A numeric literal (literals are non-negative; signs are Neg nodes)."""

    value: float


@dataclass(frozen=True)
class Var:
    """One of the two coordinates, "x" or "y"."""

    name: str


@dataclass(frozen=True)
class Neg:
    """Unary minus."""

    arg: "Expr"


@dataclass(frozen=True)
class Binary:
    """A binary operation; op is one of "+", "-", "*", "/", "^"."""

    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Call:
    """A one-argument function application."""

    fn: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, Binary, Call]

_VARIABLES = ("x", "y")


def _host(fn):
    """A host ``math`` function applied value by value, giving float64
    (numpy's exp, sinh, cosh and power can differ from libm in the last bit)."""

    def apply(*args):
        values = map(fn, *(a.flat for a in args))
        return np.fromiter(values, float, args[0].size).reshape(args[0].shape)

    return apply


_FUNCTIONS = {name: _host(getattr(math, name))
              for name in ("sin", "cos", "exp", "sinh", "cosh", "sqrt")}

_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": operator.truediv, "^": _host(math.pow)}

FUNCTION_NAMES = tuple(sorted(_FUNCTIONS))

# Binary precedence; unary minus sits between "* /" and "^" at level 3.
_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_UNARY_PRECEDENCE = 3
_RIGHT_ASSOCIATIVE = frozenset("^")

# The parser recurses up to four times per level of nesting, the printer and
# the evaluator once per level of the tree: the bounds keep both well inside
# Python's default recursion limit.
_MAX_NESTING, _MAX_DEPTH = 100, 600


# ---------------------------------------------------------------------------
# Scanner

# One token after ASCII blanks; where no token starts, the blanks alone.
_TOKEN = re.compile(r"""\s*(?:
      (?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<name>[A-Za-z_]\w*)
    | (?P<op>[-+*/^])
    | (?P<paren>[()])
)?""", re.ASCII | re.VERBOSE)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "op", "paren", "end"
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    match = _TOKEN.match(src)
    while match.lastgroup:
        kind = match.lastgroup
        tokens.append(_Token(kind, match[kind], match.start(kind)))
        match = _TOKEN.match(src, match.end())
    pos = match.end()
    if pos < len(src):
        c = src[pos]
        raise ExprSyntaxError(
            "malformed number" if c == "." else f"unexpected character {c!r}", pos)
    tokens.append(_Token("end", "", pos))
    return tokens


# ---------------------------------------------------------------------------
# Parser (precedence climbing)


class _Parser:
    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.index = 0
        self.nesting = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def parse(self) -> Expr:
        tree, _ = self.parse_at(0)
        tail = self.peek()
        if tail.kind != "end":
            raise ExprSyntaxError(f"unexpected {tail.text!r}", tail.pos)
        return tree

    def parse_at(self, min_prec: int) -> tuple[Expr, int]:
        self.nesting += 1
        if self.nesting > _MAX_NESTING:
            raise ExprSyntaxError("expression nested too deeply", self.peek().pos)
        lhs, depth = self.parse_prefix()
        while True:
            tok = self.peek()
            if tok.kind != "op" or tok.text not in _PRECEDENCE:
                break
            prec = _PRECEDENCE[tok.text]
            if prec < min_prec:
                break
            self.advance()
            next_min = prec if tok.text in _RIGHT_ASSOCIATIVE else prec + 1
            rhs, rhs_depth = self.parse_at(next_min)
            lhs = Binary(tok.text, lhs, rhs)
            depth = _over(max(depth, rhs_depth), tok)
        self.nesting -= 1
        return lhs, depth

    def parse_closed(self) -> tuple[Expr, int]:
        """An expression and the ')' after it."""
        inner = self.parse_at(0)
        closer = self.advance()
        if closer.text != ")":
            raise ExprSyntaxError("expected ')'", closer.pos)
        return inner

    def parse_prefix(self) -> tuple[Expr, int]:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            arg, depth = self.parse_at(_UNARY_PRECEDENCE)
            return Neg(arg), _over(depth, tok)
        return self.parse_atom()

    def parse_atom(self) -> tuple[Expr, int]:
        tok = self.advance()
        if tok.kind == "num":
            return Num(float(tok.text)), 1
        if tok.kind == "name":
            if tok.text in _VARIABLES:
                return Var(tok.text), 1
            if tok.text in _FUNCTIONS:
                opener = self.advance()
                if opener.text != "(":
                    raise ExprSyntaxError(
                        f"function {tok.text!r} needs parentheses", opener.pos)
                arg, depth = self.parse_closed()
                return Call(tok.text, arg), _over(depth, tok)
            raise ExprSyntaxError(f"unknown name {tok.text!r}", tok.pos)
        if tok.text == "(":
            return self.parse_closed()
        if tok.kind == "end":
            raise ExprSyntaxError("unexpected end of input", tok.pos)
        raise ExprSyntaxError(f"unexpected {tok.text!r}", tok.pos)


def _over(depth: int, tok: _Token) -> int:
    """The depth of a node, made by ``tok``, over a subtree ``depth`` deep;
    the parse methods return each subtree with its depth, a leaf's being 1."""
    if depth >= _MAX_DEPTH:
        raise ExprSyntaxError("expression too deep", tok.pos)
    return depth + 1


def parse_expr(src: str) -> Expr:
    """Parse source text into an expression tree.

    Raises ExprSyntaxError (with the byte offset of the problem) on any
    malformed input, including trailing junk after a complete expression
    and nesting or depth past the bounds.
    """
    if not isinstance(src, str):
        raise InvalidInputError(f"expression source must be str, got {type(src).__name__}")
    return _Parser(src).parse()


# ---------------------------------------------------------------------------
# Printer


def _print_at(e: Expr, parent_prec: int) -> str:
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        body = "-" + _print_at(e.arg, _UNARY_PRECEDENCE)
        return f"({body})" if parent_prec > _UNARY_PRECEDENCE else body
    if isinstance(e, Call):
        return f"{e.fn}({_print_at(e.arg, 0)})"
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        if e.op in _RIGHT_ASSOCIATIVE:
            lhs, rhs = _print_at(e.lhs, prec + 1), _print_at(e.rhs, prec)
        else:
            lhs, rhs = _print_at(e.lhs, prec), _print_at(e.rhs, prec + 1)
        body = f"{lhs}{e.op}{rhs}"
        return f"({body})" if prec < parent_prec else body
    raise InvalidInputError(f"not an expression node: {type(e).__name__}")


def expr_to_text(e: Expr) -> str:
    """Print a tree compactly; parse(expr_to_text(t)) reproduces t exactly."""
    return _print_at(e, 0)


# ---------------------------------------------------------------------------
# Evaluation


def _eval(e: Expr, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if isinstance(e, Num):
        return np.full(x.shape, e.value)
    if isinstance(e, Var):
        return x if e.name == "x" else y
    if isinstance(e, Neg):
        return -_eval(e.arg, x, y)
    if isinstance(e, Call):
        fn, args = _FUNCTIONS[e.fn], (_eval(e.arg, x, y),)
    elif isinstance(e, Binary):
        fn, args = _OPERATORS[e.op], (_eval(e.lhs, x, y), _eval(e.rhs, x, y))
    else:
        raise InvalidInputError(f"not an expression node: {type(e).__name__}")
    try:
        return fn(*args)
    except (ArithmeticError, ValueError):
        raise DomainError(f"{expr_to_text(e)} leaves its domain") from None


def evaluate(e: Expr, x, y):
    """Evaluate elementwise over x and y, arrays of one shape.

    A scalar point gives a float, an array point an array of its shape.
    Values are IEEE arithmetic and host ``math`` functions, identical bit
    for bit between array and scalar calls.  Any non-finite result (sqrt of
    a negative value, division by zero, pow outside its real domain,
    overflow, non-finite input) raises DomainError.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise InvalidInputError(f"x and y shapes differ: {x.shape} vs {y.shape}")
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        value = _eval(e, x, y)
    if not np.all(np.isfinite(value)):
        raise DomainError(f"{expr_to_text(e)} is not finite")
    return float(value) if x.ndim == 0 else np.array(value)
