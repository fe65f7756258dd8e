"""Boundary-expression language: parsing, printing, and evaluation."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fieldtriple.errors import DomainError, ExprSyntaxError, InvalidInputError
from fieldtriple.expr import (
    FUNCTION_NAMES,
    Binary,
    Call,
    Neg,
    Num,
    Var,
    evaluate,
    expr_to_text,
    parse_expr,
)


def ev(src: str, x: float = 0.0, y: float = 0.0) -> float:
    return evaluate(parse_expr(src), x, y)


# ---------------------------------------------------------------------------
# evaluation table


HAND_CASES = [
    ("x^2 - y^2", 2.0, 1.0, 3.0),
    ("x + y*2", 1.0, 3.0, 7.0),
    ("-x^2", 3.0, 0.0, -9.0),
    ("2^3^2", 0.0, 0.0, 512.0),
    ("2*-3", 0.0, 0.0, -6.0),
    ("6 - 3 - 2", 0.0, 0.0, 1.0),
    ("12/3/2", 0.0, 0.0, 2.0),
    ("2^-2", 0.0, 0.0, 0.25),
    ("(x + y)^2", 1.5, 0.5, 4.0),
    ("sqrt(x*x + y*y)", 3.0, 4.0, 5.0),
]


@pytest.mark.parametrize("src,x,y,want", HAND_CASES)
def test_hand_evaluation_table(src, x, y, want):
    assert ev(src, x, y) == want


def test_function_calls_match_host_math():
    cases = [
        ("sin(x)*sinh(y)", 0.3, 1.2, math.sin(0.3) * math.sinh(1.2)),
        ("cos(x) + cosh(y)", -0.7, 0.4, math.cos(-0.7) + math.cosh(0.4)),
        ("exp(x)*cos(2*y)", 0.5, 0.25, math.exp(0.5) * math.cos(0.5)),
        ("sqrt(2.0)", 0.0, 0.0, math.sqrt(2.0)),
    ]
    for src, x, y, want in cases:
        assert ev(src, x, y) == want


def test_scientific_notation_literals():
    assert ev("1e-3 * x * y", 2.0, 3.0) == 6e-3
    assert ev("2.5E2") == 250.0
    assert ev(".5 + 1.") == 1.5


# ---------------------------------------------------------------------------
# parse structure


def test_precedence_shape():
    e = parse_expr("x + y*2")
    assert e == Binary("+", Var("x"), Binary("*", Var("y"), Num(2.0)))


def test_unary_minus_binds_looser_than_power():
    assert parse_expr("-x^2") == Neg(Binary("^", Var("x"), Num(2.0)))


def test_power_is_right_associative():
    e = parse_expr("2^3^2")
    assert e == Binary("^", Num(2.0), Binary("^", Num(3.0), Num(2.0)))


def test_subtraction_is_left_associative():
    e = parse_expr("6-3-2")
    assert e == Binary("-", Binary("-", Num(6.0), Num(3.0)), Num(2.0))


def test_parens_override_precedence():
    assert parse_expr("(x+y)*2") == Binary(
        "*", Binary("+", Var("x"), Var("y")), Num(2.0))


def test_known_function_names():
    assert set(FUNCTION_NAMES) == {"sin", "cos", "exp", "sinh", "cosh", "sqrt"}
    for fn in FUNCTION_NAMES:
        assert parse_expr(f"{fn}(x)") == Call(fn, Var("x"))


# ---------------------------------------------------------------------------
# syntax errors carry byte offsets


@pytest.mark.parametrize("src,offset", [
    ("x +", 3),            # operand missing at end of input
    ("", 0),
    ("x @ y", 2),          # unknown character
    ("(x + y", 6),         # unclosed parenthesis
    ("x y", 2),            # trailing token after a full expression
    ("tan(x)", 0),         # unknown function name
    ("* x", 0),            # operator cannot start an expression
    ("sin x", 4),          # call needs parentheses
    (".", 0),              # a point alone is no number
    ("sin(x", 5),          # unclosed call
    ("é", 0),              # the language is ASCII: no other letter,
    ("xé", 1),
    ("٣", 0),              # digit
    ("x\u00a0+y", 1),      # or blank (a no-break space)
])
def test_syntax_error_offsets(src, offset):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(src)
    assert exc.value.offset == offset


@pytest.mark.parametrize("src,message", [
    (".", "malformed number (at offset 0)"),
    ("sin(x", "expected ')' (at offset 5)"),
    ("(x + y", "expected ')' (at offset 6)"),
])
def test_syntax_error_messages(src, message):
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(src)
    assert str(exc.value) == message


@pytest.mark.parametrize("src,offset,message", [
    ("(" * 400 + "x" + ")" * 400, 100,
     "expression nested too deeply (at offset 100)"),
    ("-" * 100 + "x", 100,
     "expression nested too deeply (at offset 100)"),
    ("+".join(["x"] * 1201), 499,
     "expression too deep (at offset 499)"),
    ("+".join(["x"] * 251), 499,
     "expression too deep (at offset 499)"),
    ("sqrt(" + "+".join(["x"] * 600) + ")", 504,
     "expression too deep (at offset 504)"),
    ("sqrt(" + "+".join(["x"] * 250) + ")", 0,
     "expression too deep (at offset 0)"),
], ids=["400-parentheses", "100-minus-signs", "1201-term-sum", "251-term-sum",
        "call-over-600", "call-over-250"])
def test_nesting_and_depth_past_the_bounds_are_syntax_errors(src, offset, message):
    """The parser refuses what the recursive parser, printer or evaluator
    could not take, at the token that crosses the bound."""
    with pytest.raises(ExprSyntaxError) as exc:
        parse_expr(src)
    assert exc.value.offset == offset
    assert str(exc.value) == message


@pytest.mark.parametrize("src,want", [
    ("(" * 99 + "x" + ")" * 99, 0.5),
    ("-" * 99 + "x", -0.5),
    ("+".join(["x"] * 200), 100.0),
    ("+".join(["x"] * 250), 125.0),
], ids=["99-parentheses", "99-minus-signs", "200-term-sum", "250-term-sum"])
def test_nesting_and_depth_at_the_bounds_evaluate_and_print(src, want):
    e = parse_expr(src)
    assert evaluate(e, 0.5, 0.25) == want
    assert expr_to_text(parse_expr(expr_to_text(e))) == expr_to_text(e)


def _at_stack_depth(frames, fn):
    """``fn()``, called with at least ``frames`` frames on the stack."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return fn() if depth >= frames else _at_stack_depth(frames, fn)


@pytest.mark.parametrize("src", [
    "+".join(["x"] * 250),
    "sqrt(" + "*".join(["y"] * 249) + ")",
    "(" * 99 + "x" + ")" * 99,
], ids=["250-term-sum", "call-over-249", "99-parentheses"])
def test_trees_at_the_bounds_compare_hash_and_print_from_a_deep_stack(src):
    """The ==, hash and repr that the node dataclasses generate recurse
    about three frames per tree level; every tree the parser accepts takes
    them from a caller 200 frames deep."""
    a, b = parse_expr(src), parse_expr(src)
    assert a is not b
    assert _at_stack_depth(200, lambda: a == b)
    assert _at_stack_depth(200, lambda: hash(a) == hash(b))
    assert _at_stack_depth(200, lambda: repr(a) == repr(b))


def test_non_expression_inputs_are_invalid_input():
    with pytest.raises(InvalidInputError,
                       match="^expression source must be str, got bytes$"):
        parse_expr(b"x")
    with pytest.raises(InvalidInputError, match="^not an expression node: str$"):
        expr_to_text("x")
    with pytest.raises(InvalidInputError, match="^not an expression node: str$"):
        evaluate("x", 0.0, 0.0)


# ---------------------------------------------------------------------------
# printing


def test_print_minimal_parentheses():
    assert expr_to_text(parse_expr("x + y*2")) == "x+y*2.0"
    assert expr_to_text(parse_expr("(x + y)*2")) == "(x+y)*2.0"
    assert expr_to_text(parse_expr("-x^2")) == "-x^2.0"
    assert expr_to_text(parse_expr("(-x)^2")) == "(-x)^2.0"
    assert expr_to_text(parse_expr("2^3^2")) == "2.0^3.0^2.0"
    assert expr_to_text(parse_expr("(2^3)^2")) == "(2.0^3.0)^2.0"


def test_parse_print_parse_is_stable_on_samples():
    for src, _, _, _ in HAND_CASES:
        e = parse_expr(src)
        assert parse_expr(expr_to_text(e)) == e


# hypothesis: random ASTs survive a print/parse round trip

_leaves = st.one_of(
    st.just(Var("x")), st.just(Var("y")),
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Num),
)


def _composites(children):
    return st.one_of(
        children.map(Neg),
        st.tuples(st.sampled_from("+-*/^"), children, children).map(
            lambda t: Binary(t[0], t[1], t[2])),
        st.tuples(st.sampled_from(FUNCTION_NAMES), children).map(
            lambda t: Call(t[0], t[1])),
    )


asts = st.recursive(_leaves, _composites, max_leaves=25)


@given(asts)
@settings(max_examples=300)
def test_print_then_parse_recovers_ast(e):
    assert parse_expr(expr_to_text(e)) == e


# ---------------------------------------------------------------------------
# evaluation domain errors


@pytest.mark.parametrize("src,x,y", [
    ("sqrt(-1.0)", 0.0, 0.0),
    ("sqrt(x)", -4.0, 0.0),
    ("x / y", 1.0, 0.0),
    ("(-1.0)^0.5", 0.0, 0.0),
    ("exp(x)", 1000.0, 0.0),
    ("x^x", 1e300, 0.0),
    ("sin(1e400)", 0, 0),          # the literal is inf: math.sin raises ValueError
    ("x*1e200*1e200", 1, 0),       # IEEE overflow to inf
    ("-1e400", 0, 0),              # no operation fails; the result is -inf
])
def test_evaluation_domain_errors(src, x, y):
    with pytest.raises(DomainError):
        ev(src, x, y)


def test_zero_to_negative_power_is_domain_error():
    with pytest.raises(DomainError):
        ev("x^-1", 0.0, 0.0)


# ---------------------------------------------------------------------------
# array evaluation

_GRID_X, _GRID_Y = np.meshgrid(np.linspace(-1.5, 2.0, 4), np.linspace(-0.5, 3.0, 3))


@given(asts)
@settings(max_examples=300, deadline=None)
def test_array_evaluation_matches_scalar_bitwise(e):
    try:
        values = evaluate(e, _GRID_X, _GRID_Y)
    except DomainError:
        failures = 0
        for x, y in zip(_GRID_X.flat, _GRID_Y.flat):
            try:
                evaluate(e, float(x), float(y))
            except DomainError:
                failures += 1
        assert failures > 0
        return
    assert values.shape == _GRID_X.shape and values.dtype == np.float64
    for got, x, y in zip(values.flat, _GRID_X.flat, _GRID_Y.flat):
        want = evaluate(e, float(x), float(y))
        assert type(want) is float
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


def test_constant_expression_fills_the_array_shape():
    x = np.zeros((2, 3))
    assert np.array_equal(evaluate(parse_expr("-0.5"), x, x), np.full((2, 3), -0.5))


@pytest.mark.parametrize("src,culprit", [
    ("2 + sqrt(x - 1)", "sqrt(x-1.0)"),
    ("1 + x*1e200*1e200", "x*1e+200*1e+200"),
    ("1 + 1/(x - 2)", "1.0/(x-2.0)"),
    ("exp(3*x)/2", "exp(3.0*x)"),
])
def test_domain_error_names_the_failing_subexpression(src, culprit):
    with pytest.raises(DomainError) as exc:
        evaluate(parse_expr(src), np.array([0.5, 2.0, 300.0]), np.zeros(3))
    assert str(exc.value) == f"{culprit} leaves its domain"


def test_mismatched_shapes_are_invalid_input():
    with pytest.raises(InvalidInputError):
        evaluate(parse_expr("x + y"), np.zeros(2), np.zeros(3))


def test_array_result_does_not_alias_the_input():
    x = np.array([1.0, 2.0])
    out = evaluate(parse_expr("x"), x, np.zeros(2))
    out[0] = 5.0
    assert x[0] == 1.0
