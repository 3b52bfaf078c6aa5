import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_numberfield import CORPUS_NAMES

from heightlab.corpus import bundled_scenario
from heightlab.errors import EvalError, InputError, ParseError
from heightlab.expressions import (
    MAX_NESTING,
    MAX_POWER_BITS,
    check_power_budget,
    decimal_digits,
    int_digit_limit,
    parse_element,
)


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


def _fraction_budget_bits(base):
    """The budget's bits per unit of exponent, from the lowest-terms
    Fraction coordinates of base."""
    modulus_bits = max(abs(c).bit_length() for c in base.field.m_ints)
    base_bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in base.coords)
    return base_bits + modulus_bits + 1


@pytest.mark.parametrize("name", CORPUS_NAMES)
@settings(max_examples=40, deadline=None)
@given(nums=st.lists(st.integers(-2 ** 300, 2 ** 300), min_size=6, max_size=6),
       dens=st.lists(st.one_of(st.just(1), st.integers(1, 2 ** 200)), min_size=6, max_size=6),
       shift=st.integers(-2, 2), sign=st.sampled_from([1, -1]))
def test_power_budget_matches_fraction_coordinates(name, nums, dens, shift, sign):
    # the oracle measures the Fraction coordinates, whose denominators
    # differ from the common one; exponents are drawn next to where it
    # starts to refuse
    field = bundled_scenario(name).field
    base = field.element([Fraction(n, d) for n, d in zip(nums, dens)][:field.degree])
    bits = _fraction_budget_bits(base)
    exponent = sign * max(0, MAX_POWER_BITS // bits + shift)
    refused = abs(exponent) * bits > MAX_POWER_BITS
    try:
        check_power_budget(base, exponent, "the test")
    except EvalError:
        assert refused
    else:
        assert not refused


def test_power_budget_names_a_long_exponent_by_its_digits(field_sqrt2):
    limit = int_digit_limit()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    for digits in (limit + 1, 5001):
        with pytest.raises(EvalError) as exc:
            check_power_budget(field_sqrt2.theta(), -10 ** (digits - 1), "the test")
        assert str(exc.value) == (f"power with {digits} digits in the test exceeds "
                                  f"the {MAX_POWER_BITS}-bit coefficient budget")
    with pytest.raises(EvalError, match=f"power {'9' * limit} in"):
        check_power_budget(field_sqrt2.theta(), int("9" * limit), "the test")
    assert [decimal_digits(n) for n in (0, 9, -10, 10 ** 4999, 10 ** 5000 - 1)] == \
        [1, 1, 2, 5000, 5000]


def test_only_ascii_digits_form_integers(field_sqrt2):
    # '\u00b2'.isdigit() and '\u0661'.isdigit() are true, but neither is an INT
    for text in ["t\u00b2", "\u0661+t", "\uff11", "2\u0663"]:
        with pytest.raises(ParseError, match="unexpected character"):
            ev(text, field_sqrt2)


def test_integer_beyond_the_digit_limit_refused(field_sqrt2):
    limit = int_digit_limit()
    if not limit:
        pytest.skip("this Python converts integers of any length")
    assert ev("1" * limit, field_sqrt2) == field_sqrt2.from_rational(int("1" * limit))
    for text in ["1" * (limit + 1), "t+" + "0" * (limit + 1)]:
        with pytest.raises(ParseError, match="digits"):
            ev(text, field_sqrt2)


def test_nesting_beyond_the_cap_refused_fast(field_sqrt2):
    f = field_sqrt2
    n = MAX_NESTING
    assert ev("(" * n + "1+t" + ")" * n, f) == f.element([1, 1])
    assert ev("-" * n + "t", f) == f.theta()
    assert ev("-(" * (n // 2) + "t" + ")" * (n // 2), f) == f.theta()
    for text in ["(" * (n + 1) + "t" + ")" * (n + 1), "-" * (n + 1) + "t",
                 "(" * 3000 + "t" + ")" * 3000, "-" * 3000 + "t",
                 "-(" * 1500 + "t" + ")" * 1500]:
        start = time.perf_counter()
        with pytest.raises(ParseError, match="nest"):
            ev(text, f)
        assert time.perf_counter() - start < 1
