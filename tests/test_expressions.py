import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralbranch import ExpressionError, parse_expression
from spectralbranch.expressions import FUNCTIONS
from spectralbranch.gallery import SchrodingerFamily


def ev(src, **env):
    return parse_expression(src, variables=tuple(env)).evaluate(**env)


def test_polynomial():
    assert ev("t^2+1", t=2.0) == 5.0


def test_function_call():
    assert ev("sin(t)/2", t=0.0) == 0.0


def test_power_grammar_oracle():
    # 2^(-(3*3)) = 2^-9 = 1/512, the scale arithmetic the gallery leans on
    assert ev("2^(-(3*3))", t=0.0) == 1.0 / 512.0
    assert ev("2^(-9)", t=0.0) == 0.001953125


def test_precedence_and_associativity():
    assert ev("2+3*4", t=0.0) == 14.0
    assert ev("2*3^2", t=0.0) == 18.0
    assert ev("-t^2", t=3.0) == -9.0  # unary minus binds looser than ^
    assert ev("(1+2)*(3+4)", t=0.0) == 21.0
    assert ev("8/4/2", t=0.0) == 1.0


def test_functions():
    assert ev("cos(0)", t=0.0) == 1.0
    assert abs(ev("exp(1)", t=0.0) - math.e) < 1e-15
    assert ev("sqrt(49)", t=0.0) == 7.0
    assert ev("abs(-3)", t=0.0) == 3.0
    assert abs(ev("sin(cos(t))", t=0.25) - math.sin(math.cos(0.25))) < 1e-15


def test_multiple_variables():
    assert ev("t*x", t=3.0, x=5.0) == 15.0


def test_unknown_identifier_position():
    with pytest.raises(ExpressionError, match="unknown identifier 'i'"):
        parse_expression("2*i")


def test_unknown_function():
    with pytest.raises(ExpressionError, match="tan"):
        parse_expression("tan(t)")


def test_syntax_error_has_position():
    with pytest.raises(ExpressionError, match="position"):
        parse_expression("1 + * 2")


def test_unbalanced_parens():
    with pytest.raises(ExpressionError):
        parse_expression("(1 + 2")
    with pytest.raises(ExpressionError):
        parse_expression("1 + 2)")


def test_empty_source():
    with pytest.raises(ExpressionError):
        parse_expression("")


def test_trailing_garbage():
    with pytest.raises(ExpressionError):
        parse_expression("1 2")


def test_non_integer_exponent_rejected():
    with pytest.raises(ExpressionError, match="integer"):
        ev("2^0.5", t=0.0)
    with pytest.raises(ExpressionError, match="integer"):
        ev("2^t", t=0.5)


def test_integer_valued_exponent_variable_ok():
    assert ev("2^t", t=3.0) == 8.0
    assert ev("t^(-1)", t=4.0) == 0.25


def test_division_by_zero():
    with pytest.raises(ExpressionError, match="division by zero"):
        ev("1/t", t=0.0)


def test_domain_error_sqrt():
    with pytest.raises(ExpressionError):
        ev("sqrt(-1)", t=0.0)


def test_zero_to_negative_power():
    with pytest.raises(ExpressionError):
        ev("t^(-1)", t=0.0)


def test_missing_variable():
    e = parse_expression("t + x", variables=("t", "x"))
    with pytest.raises(ExpressionError, match="x"):
        e.evaluate(t=1.0)


def test_callable_interface():
    e = parse_expression("t^2")
    assert e(3.0) == 9.0


@settings(max_examples=50, deadline=None)
@given(a=st.floats(-10, 10, allow_nan=False), b=st.floats(-10, 10, allow_nan=False))
def test_arithmetic_matches_python(a, b):
    e = parse_expression("t + x*x - t*x", variables=("t", "x"))
    assert e.evaluate(t=a, x=b) == pytest.approx(a + b * b - a * b, rel=1e-12, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(-5, 5, allow_nan=False))
def test_trig_identity(t):
    e = parse_expression("sin(t)^2 + cos(t)^2")
    assert e(t) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------- evaluation over an x array

# Every node kind, x-free potentials, and negative bases under odd powers.
CORPUS = [
    "t*x", "-x", "x - t", "x/(1 + t^2)", "t^2", "3", "-(t)", "t/4 - 1",
    "sin(x)*cos(t)", "exp(-x^2) + exp(t)", "sqrt(x*x + t*t + 1)", "abs(x - 0.5)",
    "x^3", "(x - 1)^3", "(x - 2)^(-3)", "(t*x - 0.7)^5", "2^(-(3*3))*x",
    "12.5*t*x + 3.25*sin(4.5*x + 2*t) - 7.75*t^2*x^2", "x^(3 + 0*t)", "cos(t)^2",
]
XS = {"interior": np.arange(1, 100) / 100.0, "signed": np.linspace(-1.7, 1.3, 37)}


def per_element(expr, t, xs):
    """The scalar reference: one evaluation per grid point, in grid order."""
    return np.array([expr.evaluate(t=t, x=x) for x in xs], dtype=np.float64)


def over_grid(expr, t, xs):
    return np.broadcast_to(np.asarray(expr.evaluate(t=t, x=xs), dtype=np.float64), xs.shape)


@pytest.mark.parametrize("grid", sorted(XS))
@pytest.mark.parametrize("src", CORPUS)
def test_array_evaluation_bit_equal_to_per_element(src, grid):
    expr = parse_expression(src, variables=("t", "x"))
    xs = XS[grid]
    for t in (0.0, -1.0, 0.3, 2.0, 3.0, -0.45):
        want = per_element(expr, t, xs)
        assert over_grid(expr, t, xs).tobytes() == want.tobytes(), (src, t)


def _expressions():
    leaves = st.sampled_from(["t", "x", "0.5", "3", "0.001", "2.25", "70"])
    return st.recursive(leaves, lambda sub: st.one_of(
        st.builds(lambda a: f"-({a})", sub),
        st.builds(lambda f, a: f"{f}({a})", st.sampled_from(sorted(FUNCTIONS)), sub),
        st.builds(lambda a, op, b: f"({a}) {op} ({b})", sub, st.sampled_from("+-*/"), sub),
        st.builds(lambda a, k: f"({a})^({k})", sub, st.integers(-3, 5)),
    ), max_leaves=10)


@settings(max_examples=200, deadline=None)
@given(src=_expressions(), t=st.floats(-3, 3, allow_nan=False))
def test_random_expression_array_matches_per_element(src, t):
    expr = parse_expression(src, variables=("t", "x"))
    xs = XS["signed"]
    with np.errstate(all="ignore"):
        try:
            want = per_element(expr, t, xs)
        except ExpressionError:
            with pytest.raises(ExpressionError):
                over_grid(expr, t, xs)
            return
        got = over_grid(expr, t, xs)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("src, t", [
    ("1 + 1/(x - 0.5)", 0.0),        # division by zero at one grid point
    ("t + sqrt(x - t)", 0.42),       # math domain error
    ("exp(800*x)", 0.0),             # math range error
    ("2*(x - 0.25)^(-1)", 0.0),      # zero to a negative power
    ("(x + 1)^t", 0.5),              # non-integer exponent
])
def test_array_errors_keep_message_and_position(src, t):
    expr = parse_expression(src, variables=("t", "x"))
    xs = XS["interior"]
    with pytest.raises(ExpressionError) as scalar:
        per_element(expr, t, xs)
    with pytest.raises(ExpressionError) as array:
        expr.evaluate(t=t, x=xs)
    assert str(array.value) == str(scalar.value)
    assert array.value.position == scalar.value.position


def test_error_names_plain_float():
    fam = SchrodingerFamily(m=7, potential="sqrt(x + t)").family()
    with pytest.raises(ExpressionError) as err:
        fam.unit(-2.5)
    # the potential names itself, then the value the element failed at
    assert str(err.value).startswith("'potential' 'sqrt(x + t)': sqrt(-2.375) failed: ")
    assert err.value.position == 0
