import time
from fractions import Fraction

import pytest

from heightlab.errors import EvalError, InputError, ParseError
from heightlab.expressions import MAX_POWER_BITS, parse_element


def ev(text, field):
    return parse_element(text, field)


def test_integers_and_rationals(field_sqrt2):
    f = field_sqrt2
    assert ev("7", f) == f.from_rational(7)
    assert ev("3/5", f) == f.from_rational(Fraction(3, 5))
    assert ev("-2", f) == f.from_rational(-2)


def test_generator(field_sqrt2):
    assert ev("t", field_sqrt2) == field_sqrt2.theta()
    assert ev("t*t", field_sqrt2) == field_sqrt2.from_rational(2)


def test_precedence(field_sqrt2):
    f = field_sqrt2
    assert ev("1+2*3", f) == f.from_rational(7)
    assert ev("(1+2)*3", f) == f.from_rational(9)
    assert ev("2^3", f) == f.from_rational(8)
    # ^ binds tighter than unary minus
    assert ev("-2^2", f) == f.from_rational(-4)
    assert ev("2*3^2", f) == f.from_rational(18)
    # left-associative - and /
    assert ev("1-2-3", f) == f.from_rational(-4)
    assert ev("12/2/3", f) == f.from_rational(2)


def test_negative_exponents(field_sqrt2):
    f = field_sqrt2
    assert ev("2^-2", f) == f.from_rational(Fraction(1, 4))
    assert ev("t^-1", f) == f.theta().inverse()
    assert ev("t^-2", f) == f.from_rational(Fraction(1, 2))


def test_unary_minus(field_sqrt2):
    f = field_sqrt2
    assert ev("-t", f) == -f.theta()
    assert ev("--3", f) == f.from_rational(3)
    assert ev("-(1+t)", f) == -(f.element([1, 1]))
    assert ev("1--2", f) == f.from_rational(3)


def test_radical_expressions(field_biquad):
    f = field_biquad
    sqrt3 = ev("t^2-2", f)
    assert sqrt3 * sqrt3 == f.from_rational(3)
    sqrt2 = ev("t^3-3*t", f)
    assert sqrt2 * sqrt2 == f.from_rational(2)
    assert ev("(t^3-3*t)*(t^2-2)", f) ** 2 == f.from_rational(6)


def test_whitespace(field_sqrt2):
    assert ev(" 1 + 2 * t ", field_sqrt2) == field_sqrt2.element([1, 2])


def test_parse_errors(field_sqrt2):
    f = field_sqrt2
    for bad in ["", "1+", "(1+2", "x", "1..2", "t^", "t^t", "2^(3)", "*3", "1 2"]:
        with pytest.raises(ParseError):
            ev(bad, f)


def test_division_by_zero(field_sqrt2):
    f = field_sqrt2
    with pytest.raises(EvalError):
        ev("1/(t*t-2)", f)
    with pytest.raises(EvalError):
        ev("(t-t)^-1", f)


def test_zero_is_legal_value(field_sqrt2):
    assert ev("t-t", field_sqrt2).is_zero()


def test_huge_power_refused_fast(field_sqrt2):
    # (1+t)^100000000 would need about 10^8 coefficient bits
    for text in ["(1+t)^100000000", "t^-100000000", "(2*(1+t)^1000)^1000"]:
        start = time.perf_counter()
        with pytest.raises(EvalError) as exc:
            ev(text, field_sqrt2)
        assert time.perf_counter() - start < 0.5
        assert isinstance(exc.value, InputError)


def test_power_within_budget(field_sqrt2):
    f = field_sqrt2
    # t^n costs n * (1 + 2 + 1) bits against x^2 - 2
    n = MAX_POWER_BITS // 4
    assert ev(f"t^{n}", f) == f.from_rational(2 ** (n // 2))
    with pytest.raises(EvalError):
        ev(f"t^{n + 1}", f)
    assert ev("(1+t)^200*(1+t)^-200", f) == f.one()
