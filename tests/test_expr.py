
import sys

import numpy as np
import pytest
from helpers import random_potential_expr, reference_eval

from frobenius_verify.expr import (
    Const,
    ConjVar,
    LogDomainError,
    ParseError,
    PotentialExpr,
    Power,
    Product,
    Sum,
    Var,
    parse,
    to_source,
)
from frobenius_verify.wirtinger import jet_eval


def value(expr: PotentialExpr, point) -> complex:
    """The potential at ``point``: the constant term of its jet."""
    return complex(jet_eval(expr, point).coeffs[0])


def test_parse_smallest_potential():
    expr = parse("z1*zbar1", 1)
    assert expr.root == Product((Var(0), ConjVar(0)))


def test_parse_nested_log():
    expr = parse("log(1 + z1*zbar1 + z2*zbar2)", 2)
    # hand-parse: log of a 3-term sum, first term the constant 1
    from frobenius_verify.expr import Log

    assert isinstance(expr.root, Log)
    inner = expr.root.arg
    assert isinstance(inner, Sum)
    assert inner.terms[0] == Const(1.0)
    assert inner.terms[1] == Product((Var(0), ConjVar(0)))
    assert inner.terms[2] == Product((Var(1), ConjVar(1)))
    assert inner.signs == (1, 1, 1)


def test_unmatched_paren_span():
    text = "z1*(zbar1"
    with pytest.raises(ParseError) as err:
        parse(text, 1)
    assert err.value.span.start == text.index("(")


def test_out_of_range_index():
    with pytest.raises(ParseError) as err:
        parse("z3", 2)
    assert "out of range" in err.value.message


def test_non_integer_exponent():
    with pytest.raises(ParseError):
        parse("z1^2.5", 1)


def test_negative_exponent_rejected():
    with pytest.raises(ParseError) as err:
        parse("z1^-2", 1)
    assert "negative" in err.value.message


# one digit more than int() converts from text, where the limit exists
_TOO_MANY_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1


@pytest.mark.skipif(_TOO_MANY_DIGITS == 1, reason="no int-string conversion limit")
@pytest.mark.parametrize("text, what", [
    ("z1*zbar1 + re(z1^{})", "exponent"),
    ("z1*zbar1 + z{}", "variable index"),
])
def test_integer_past_the_conversion_limit_is_a_parse_error(text, what):
    digits = "9" * _TOO_MANY_DIGITS
    with pytest.raises(ParseError) as err:
        parse(text.format(digits), 1)
    assert err.value.message == f"{what} out of range"
    assert err.value.span.end == text.index("{") + len(digits)


def test_empty_input():
    with pytest.raises(ParseError):
        parse("   ", 1)


def test_print_product():
    assert to_source(PotentialExpr(Product((Var(0), ConjVar(0))), 1)) == "z1*zbar1"


def test_print_sum_with_power():
    expr = PotentialExpr(Sum((Const(1.0), Power(Var(0), 2)), (1, 1)), 1)
    assert to_source(expr) == "1 + z1^2"


def test_roundtrip_random_asts():
    rng = np.random.default_rng(20240601)
    for _ in range(200):
        dim = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 7))
        expr = random_potential_expr(rng, dim, depth)
        text = to_source(expr)
        assert parse(text, dim) == expr, text


def test_eval_modulus_squared():
    expr = parse("z1*zbar1", 1)
    assert value(expr, [2 + 1j]) == pytest.approx(5.0)


def test_eval_log_at_zero():
    expr = parse("log(1 + z1*zbar1)", 1)
    assert value(expr, [0.0]) == pytest.approx(0.0)


def test_eval_re():
    expr = parse("re(z1)", 1)
    assert value(expr, [3 - 4j]) == pytest.approx(3.0)


def test_eval_log_floor():
    expr = parse("log(z1*zbar1)", 1)
    with pytest.raises(LogDomainError):
        value(expr, [0.0])


def test_eval_matches_reference_interpreter():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 150:
        dim = int(rng.integers(1, 4))
        expr = random_potential_expr(rng, dim, int(rng.integers(0, 5)))
        point = rng.uniform(0.2, 1.2, dim) + 1j * rng.uniform(0.1, 0.9, dim)
        try:
            expected = reference_eval(expr, point)
        except (ValueError, OverflowError, ZeroDivisionError):
            continue
        if not np.isfinite(expected) or abs(expected) > 1e12:
            continue
        got = value(expr, point)
        # exact on branch cuts too: im() of a negative imaginary part gives
        # a +0.0 imaginary part, as the interpreter's complex(x.imag) does
        assert got == pytest.approx(expected, rel=1e-14, abs=1e-14)
        checked += 1


CATALOG_POTENTIALS = [
    ("z1*zbar1", 1),
    ("z1*zbar1 + z2*zbar2", 2),
    ("z1*zbar1 + z2*zbar2 + z3*zbar3", 3),
    ("log(1 + z1*zbar1)", 1),
    ("log(1 + z1*zbar1 + z2*zbar2)", 2),
    ("z1*zbar1 + 0.25*(z1*zbar1)^2", 1),
]


@pytest.mark.parametrize("text,dim", CATALOG_POTENTIALS)
def test_realness_at_seeded_points(text, dim):
    expr = parse(text, dim)
    rng = np.random.default_rng(42)
    for _ in range(100):
        point = rng.uniform(-0.6, 0.6, dim) + 1j * rng.uniform(-0.6, 0.6, dim)
        assert abs(value(expr, point).imag) < 1e-12


def test_eval_point_length_mismatch():
    expr = parse("z1*zbar1", 1)
    with pytest.raises(ValueError):
        value(expr, [1.0, 2.0])


def test_signed_literal_roundtrip():
    expr = parse("1 + -0.5*z1", 1)
    assert parse(to_source(expr), 1) == expr
