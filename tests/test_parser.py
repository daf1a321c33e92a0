"""Expression grammar, canonical printing, error reporting."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diffeolin import FunctionExpr, ParseError, format_expr, parse_expr
from diffeolin.atoms import abs_mono, mono


def test_grammar_examples():
    assert parse_expr("abs(x)") == FunctionExpr.abs_monomial(0)
    assert parse_expr("3*x^2 - 1/2*abs(x)*x") == FunctionExpr(
        [(mono(2), 3), (abs_mono(1), Fraction(-1, 2))]
    )
    assert parse_expr("abs(x)*abs(x)") == FunctionExpr.monomial(2)


def test_whitespace_insignificant():
    assert parse_expr(" 3 * x ^ 2 ") == parse_expr("3*x^2")


def test_constants_and_signs():
    assert parse_expr("5") == FunctionExpr.constant(5)
    assert parse_expr("-x") == FunctionExpr.monomial(1, -1)
    assert parse_expr("+x - x") == FunctionExpr.zero()
    assert parse_expr("2/3") == FunctionExpr.constant(Fraction(2, 3))


def test_products_of_rationals_and_atoms():
    assert parse_expr("2*3*x") == FunctionExpr.monomial(1, 6)
    assert parse_expr("x*abs(x)") == FunctionExpr.abs_monomial(1)
    assert parse_expr("1/2*abs(x)*x^3") == FunctionExpr.abs_monomial(3, Fraction(1, 2))


def test_float_literals_rejected():
    for bad in ("1.5", "0.5*x", ".5", "x^2 + 1.0"):
        with pytest.raises(ParseError):
            parse_expr(bad)


def test_error_positions():
    with pytest.raises(ParseError) as err:
        parse_expr("3*x^")
    assert err.value.position == 4
    assert "int" in err.value.expected

    with pytest.raises(ParseError) as err:
        parse_expr("abs(y)")
    assert err.value.position == 4

    with pytest.raises(ParseError) as err:
        parse_expr("3 & x")
    assert err.value.position == 2

    # A factor that no operator joins to the last, and an operator with no
    # factor before it.
    with pytest.raises(ParseError, match="unexpected token 'x'") as err:
        parse_expr("x x")
    assert err.value.position == 2 and "end of input" in err.value.expected
    with pytest.raises(ParseError, match="unexpected token '\\*'") as err:
        parse_expr("*x")
    assert err.value.position == 0 and "abs(x)" in err.value.expected


def test_degree_cap():
    assert parse_expr("x^64") == FunctionExpr.monomial(64)
    with pytest.raises(ParseError):
        parse_expr("x^65")


def test_product_degree_cap():
    # The cap holds for the product, not only for each exponent: the oracle's
    # order bound covers |x|*x^64 and nothing above it.
    assert parse_expr("abs(x)*x^32*x^32") == FunctionExpr.abs_monomial(64)
    assert parse_expr("abs(x)*abs(x)*x^62") == FunctionExpr.monomial(64)
    for text in ("abs(x)*x^64*x^64", "x^64*x", "abs(x)*abs(x)*x^63", "x^64*" * 1000 + "x"):
        with pytest.raises(ParseError, match="exceeds"):
            parse_expr(text)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_expr("1/0")


def test_format_examples():
    assert format_expr(FunctionExpr.zero()) == "0"
    assert format_expr(FunctionExpr.monomial(2, 3)) == "3*x^2"
    assert format_expr(FunctionExpr.abs_monomial(1, Fraction(-1, 2))) == "-1/2*abs(x)*x"
    expr = FunctionExpr([(mono(0), 1), (abs_mono(3), 2)])
    assert format_expr(expr) == "1 + 2*abs(x)*x^3"
    # Terms given out of order print in the stored order, and reparse.
    expr = parse_expr("abs(x) + x^3 + 1")
    assert format_expr(expr) == "1 + x^3 + abs(x)" and parse_expr(format_expr(expr)) == expr


coefficients = st.fractions(min_value=-9, max_value=9, max_denominator=7).filter(bool)
atoms = st.tuples(st.booleans(), st.integers(min_value=0, max_value=8)).map(
    lambda t: abs_mono(t[1]) if t[0] else mono(t[1])
)
expressions = st.lists(st.tuples(atoms, coefficients), max_size=6).map(FunctionExpr)


@given(expressions)
def test_print_parse_round_trip(expr):
    assert parse_expr(format_expr(expr)) == expr
