"""Element expressions over the working field generator.

Grammar (standard precedence, ^ binds tightest, then unary minus, then
* and /, then + and -):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INT)?
    atom   := INT | 't' | '(' expr ')'

INT is at most int_digit_limit() ASCII digits 0-9, and parentheses and
unary minus signs nest at most MAX_NESTING deep.  Integer exponents only;
rationals are written a/b and fall out of the division operator.  Division
by a subexpression that evaluates to zero is an evaluation error, not a
parse error, and so is a power whose estimated coefficient size exceeds
MAX_POWER_BITS.  Reports print exact rationals through format_rational,
under the same digit limit.
"""

from __future__ import annotations

import re
import sys
from math import gcd as int_gcd

from .errors import EvalError, InputError, ParseError
from .numberfield import FieldElement, WorkingField

_OPS = set("t+-*/^()")
# a run of ASCII digits, or any other character but whitespace
_TOKEN = re.compile(r"[0-9]+|\S")

MAX_POWER_BITS = 2 ** 16

# the parser recurses through six frames per parenthesis and two per unary
# minus, so 100 levels stay well below Python's default recursion limit
MAX_NESTING = 100


def int_digit_limit() -> int:
    """Python's limit on the decimal digits of an integer converted from or
    to a string, 0 for none (the getter is new in Python 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def decimal_digits(n: int) -> int:
    """The number of decimal digits of |n|, without converting n to a
    string: from a lower estimate by the bit length, by steps of one."""
    n = abs(n)
    k = max(1, int((n.bit_length() - 1) * 0.30102999))
    while 10 ** k <= n:
        k += 1
    return k


def format_rational(num, den: int = 1) -> str:
    """num/den, for num an int or a Fraction and den > 0, in lowest terms as
    str of the Fraction prints it; InputError when a part has more than
    int_digit_limit() digits."""
    num, den = num.numerator, num.denominator * den
    g = int_gcd(num, den)
    if g != 1:
        num, den = num // g, den // g
    limit = int_digit_limit()
    for n in (num, den):
        # fewer than 3 * limit bits means fewer than limit digits
        if limit and n.bit_length() > 3 * limit and abs(n) >= 10 ** limit:
            raise InputError(
                f"a rational in the report has more than {limit} decimal "
                "digits, Python's limit for converting an integer to a string")
    # equal numbers in reports kept side by side (a caller holding many of
    # them) share one string; sys.intern keeps none alive by itself
    return sys.intern(f"{num}/{den}" if den != 1 else str(num))


def check_power_budget(base: FieldElement, exponent: int, where: str) -> None:
    """Raise EvalError when base^exponent would exceed MAX_POWER_BITS.

    The estimate is |exponent| * (largest numerator or denominator bit
    length among the lowest-terms coordinates n/g over den/g of base, for
    g = gcd(n, den), + bit length of m_F's largest coefficient + 1) bits;
    `where` names the input in the message, and an exponent past
    int_digit_limit() digits is named by its digit count.
    """
    modulus_bits = max(abs(c).bit_length() for c in base.field.m_ints)
    den = base.den
    base_bits = max(max((n // g).bit_length(), (den // g).bit_length())
                    for n in base.num for g in [int_gcd(n, den)])
    if abs(exponent) * (base_bits + modulus_bits + 1) > MAX_POWER_BITS:
        digits = decimal_digits(exponent)
        power = (exponent if digits <= (int_digit_limit() or digits)
                 else f"with {digits} digits")
        raise EvalError(f"power {power} in {where} exceeds the "
                        f"{MAX_POWER_BITS}-bit coefficient budget")


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        tok, i = match.group(), match.start()
        if tok[0] in "0123456789":
            if len(tok) > (int_digit_limit() or len(tok)):
                raise ParseError(f"integer of over {int_digit_limit()} digits at position {i}")
            tokens.append(("int", int(tok), i))
        elif tok in _OPS:
            tokens.append((tok, None, i))
        else:
            raise ParseError(f"unexpected character {tok!r} at position {i}")
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, field: WorkingField):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field
        self.depth = 0  # open parentheses and unary minus signs

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(
                f"expected {kind!r} at position {tok[2]} in {self.text!r}, "
                f"found {tok[0]!r}")
        self.pos += 1
        return tok

    def parse(self) -> FieldElement:
        value = self.expr()
        if self.peek() != "end":
            tok = self.tokens[self.pos]
            raise ParseError(f"trailing input at position {tok[2]} in {self.text!r}")
        return value

    def expr(self) -> FieldElement:
        value = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> FieldElement:
        value = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.unary()
            if op == "*":
                value = value * rhs
            else:
                if rhs.is_zero():
                    raise EvalError(f"division by zero in {self.text!r}")
                value = value / rhs
        return value

    def unary(self) -> FieldElement:
        if self.peek() == "-":
            self.take()
            return -self.nested(self.unary)
        return self.power()

    def power(self) -> FieldElement:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.take()
        negative = False
        if self.peek() == "-":
            self.take()
            negative = True
        exponent = self.take("int")[1]
        if negative:
            exponent = -exponent
        if exponent < 0 and base.is_zero():
            raise EvalError(f"negative power of zero in {self.text!r}")
        check_power_budget(base, exponent, repr(self.text))
        return base ** exponent

    def atom(self) -> FieldElement:
        kind = self.peek()
        if kind == "int":
            return self.field.from_rational(self.take()[1])
        if kind == "t":
            self.take()
            return self.field.theta()
        if kind == "(":
            self.take()
            value = self.nested(self.expr)
            self.take(")")
            return value
        tok = self.tokens[self.pos]
        raise ParseError(f"unexpected {kind!r} at position {tok[2]} in {self.text!r}")

    def nested(self, parse) -> FieldElement:
        """parse() one level deeper in parentheses and unary minus signs."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"parentheses and unary minus signs nest more than "
                             f"{MAX_NESTING} deep at position {self.tokens[self.pos][2]}")
        value = parse()
        self.depth -= 1
        return value


def parse_element(text: str, field: WorkingField) -> FieldElement:
    """Parse and evaluate an element expression in the given field."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty element expression")
    return _Parser(text, field).parse()
