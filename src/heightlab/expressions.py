"""Element expressions over the working field generator.

Grammar (standard precedence, ^ binds tightest, then unary minus, then
* and /, then + and -):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' ['-'] INT)?
    atom   := INT | 't' | '(' expr ')'

Integer exponents only; rationals are written a/b and fall out of the
division operator.  Division by a subexpression that evaluates to zero is
an evaluation error, not a parse error, and so is a power whose estimated
coefficient size exceeds MAX_POWER_BITS.
"""

from __future__ import annotations

from .errors import EvalError, ParseError
from .numberfield import FieldElement, WorkingField

_OPS = set("+-*/^()")

MAX_POWER_BITS = 2 ** 16


def check_power_budget(base: FieldElement, exponent: int, where: str) -> None:
    """Raise EvalError when base^exponent would exceed MAX_POWER_BITS.

    The estimate is |exponent| * (largest numerator or denominator bit
    length among the lowest-terms coordinates of base + bit length of m_F's
    largest coefficient + 1) bits; `where` names the input in the message.
    """
    modulus_bits = max(abs(int(c)).bit_length()
                       for c in base.field.defining_poly.coeffs)
    base_bits = max(max(c.numerator.bit_length(), c.denominator.bit_length())
                    for c in base.coords)
    if abs(exponent) * (base_bits + modulus_bits + 1) > MAX_POWER_BITS:
        raise EvalError(f"power {exponent} in {where} exceeds the "
                        f"{MAX_POWER_BITS}-bit coefficient budget")


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif c.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("int", int(text[i:j]), i))
            i = j
        elif c == "t":
            tokens.append(("t", None, i))
            i += 1
        elif c in _OPS:
            tokens.append((c, None, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {c!r} at position {i}")
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, field: WorkingField):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.field = field

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
            return -self.unary()
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
            value = self.expr()
            self.take(")")
            return value
        tok = self.tokens[self.pos]
        raise ParseError(f"unexpected {kind!r} at position {tok[2]} in {self.text!r}")


def parse_element(text: str, field: WorkingField) -> FieldElement:
    """Parse and evaluate an element expression in the given field."""
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty element expression")
    return _Parser(text, field).parse()
