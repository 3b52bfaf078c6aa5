"""The absolute logarithmic Weil height and the vector space of algebraic
numbers modulo torsion.

Heights are read off the field's certified embeddings:
h(a) = (1/d) sum over the d embeddings tau of log+|tau(a)| + (1/e) log lead,
where e and lead are the degree and the leading coefficient of the
primitive integer minimal polynomial of a.  This is the archimedean part
of the place vector, so ||f(a)||_1 = 2 h(a).  Both come from integers
(numberfield._minimal_polynomial_ints): for a = A/D, with A^2, ..., A^e
from e - 1 products, the traces Tr(A^k) / (d/e) are the power sums of the
e distinct conjugates of the algebraic integer A, Newton's identities turn
them into the coefficients c_k of its monic minimal polynomial, an exact
witness certifies them, and lead = lcm_k D^k / gcd(c_k, D^k).  Torsion
decisions stay exact: is_torsion, a power test against the field's
torsion order, is the one route, and never a numeric bound.  weil_height
skips it for elements that fail Kronecker's necessary condition on those
integers (an algebraic integer whose conjugates' symmetric functions are
bounded as on the unit circle), which no root of unity fails.

Elements of the Q-vector space are scalar--base pairs (q, b) denoting b^q
up to roots of unity, kept in the canonical form (1/s, b^r) for q = r/s;
a GElement stores the integer s as den, and its scale 1/s is a Fraction view.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm

import mpmath

from .errors import ZeroElement
from .numberfield import (
    FieldElement,
    WorkingField,
    _minimal_polynomial_ints,
    eval_at_embeddings,
)
from .roots import locked_workprec

# cushion for binary64 output of values computed at much higher precision
_FLOAT_SLACK = 1e-15


@dataclasses.dataclass(frozen=True)
class HeightValue:
    """Nonnegative real with a rigorous absolute error bound.

    abs_error == 0 marks an exact (torsion-certified) zero.
    """

    value: float
    abs_error: float

    @staticmethod
    def exact_zero() -> "HeightValue":
        return HeightValue(0.0, 0.0)

    def divided(self, n: int) -> "HeightValue":
        """This value over the positive integer n (times the float 1/n)."""
        f = 1 / n
        return HeightValue(self.value * f, self.abs_error * f)


def _log_big(n: int) -> float:
    if n <= 0:
        raise ValueError("log of non-positive integer")
    if n.bit_length() <= 900:
        return math.log(n)
    shift = n.bit_length() - 64
    return math.log(n >> shift) + shift * math.log(2)


def weil_height(a: FieldElement) -> HeightValue:
    """Absolute logarithmic Weil height of a nonzero field element.

    The exact zero (abs_error 0) is returned exactly on roots of unity, as
    decided by is_torsion.  That test runs only on elements that pass
    Kronecker's necessary condition, read off the integer minimal
    polynomial sum_k c_k x^(e-k) of A, for a = A/D: a root of unity is an
    algebraic integer (lead == 1) whose e conjugates lie on the unit
    circle, so the coefficients c_k / D^k of its minimal polynomial, the
    elementary symmetric functions of those conjugates, are bounded by
    binom(e, k).  Every other element gets the value from its embeddings
    (a rational p/q: log max(|p|, q)) with a rigorous error bound.
    """
    field = a.field
    if a.is_zero():
        raise ZeroElement("height of zero is undefined")
    c = _minimal_polynomial_ints(a)
    e = len(c) - 1
    # the leading coefficient of the primitive integer minimal polynomial:
    # the lcm of the denominators of its coefficients c_k / den^k
    den = a.den
    lead = int_lcm(*(den ** k // int_gcd(ck, den ** k) for k, ck in enumerate(c)))
    if (lead == 1 and all(abs(ck) <= math.comb(e, k) * den ** k
                          for k, ck in enumerate(c))
            and is_torsion(a)):
        return HeightValue.exact_zero()
    if a.is_rational():
        # the height of the rational p/q is log max(|p|, q)
        val = _log_big(max(abs(a.num[0]), a.den))
        return HeightValue(val, _FLOAT_SLACK * (1.0 + val))
    d = field.degree
    with locked_workprec(field.precision_bits):
        total = mpmath.mpf(0)
        err = 0.0
        # one evaluation per real embedding or conjugate pair, whose two
        # members have equal absolute values
        classes = field.archimedean_classes
        images = eval_at_embeddings(a, [field.embeddings[cls[0]] for cls in classes])
        for cls, (w, delta) in zip(classes, images):
            m = abs(w)
            if m > 1:
                total += len(cls) * mpmath.log(m)
            # log+ is 1-Lipschitz in |z|
            err += len(cls) * delta
        value = float(total / d + mpmath.log(lead) / e)
    return HeightValue(value, err / d + _FLOAT_SLACK * (1.0 + abs(value)))


def is_torsion(a: FieldElement) -> bool:
    """Exact root-of-unity test: a^w == 1 for the field torsion order w."""
    if a.is_zero():
        raise ZeroElement("torsion test of zero is undefined")
    return a ** a.field.torsion_order == 1


class GElement:
    """Scalar--base pair q * f_b, i.e. b^q in the group modulo torsion.

    Canonical form (1/den, base): den a positive integer and the scale's
    numerator absorbed into the base; the zero element is (1, 1).  Any int
    or Fraction scale is a legal input; the group operations build their
    results on den through _canonical.
    """

    __slots__ = ("field", "den", "base")

    def __init__(self, field: WorkingField, scale, base: FieldElement):
        if not isinstance(scale, (int, Fraction)):
            raise TypeError(f"GElement scale {scale!r} is not an int or a Fraction")
        if base.field is not field:
            raise ValueError("base element from a different field")
        if base.is_zero():
            raise ZeroElement("GElement base must be nonzero")
        self.field = field
        r = scale.numerator
        if r == 0 or is_torsion(base):
            self.den, self.base = 1, field.one()
        else:
            self.den, self.base = scale.denominator, base ** r

    @staticmethod
    def _canonical(field: WorkingField, den: int, base: FieldElement) -> "GElement":
        """(1/den, base), or the zero element when the nonzero base is torsion."""
        u = object.__new__(GElement)
        u.field = field
        u.den, u.base = (1, field.one()) if is_torsion(base) else (den, base)
        return u

    @staticmethod
    def of(base: FieldElement, scale=1) -> "GElement":
        return GElement(base.field, scale, base)

    @staticmethod
    def zero(field: WorkingField) -> "GElement":
        return GElement(field, 1, field.one())

    @property
    def scale(self) -> Fraction:
        return Fraction(1, self.den)

    def is_zero(self) -> bool:
        # torsion is stored as 1, and b^r (r != 0) is torsion only if b is
        return self.base == 1

    def negate(self) -> "GElement":
        return GElement._canonical(self.field, self.den, self.base.inverse())

    def apply(self, sigma) -> "GElement":
        """Image under a field automorphism (linear on the vector space)."""
        return GElement._canonical(self.field, self.den, sigma(self.base))

    def __eq__(self, other):
        if not isinstance(other, GElement):
            return NotImplemented
        return g_equal(self, other)

    __hash__ = None

    def __repr__(self):
        return f"GElement({self.scale} * f_{list(self.base.coords)})"


def g_equal(u: GElement, v: GElement) -> bool:
    """Exact equality in the group modulo torsion."""
    if u.field is not v.field:
        raise ValueError("elements of different working fields")
    return is_torsion(u.base ** v.den * v.base ** (-u.den))


def g_height(u: GElement) -> HeightValue:
    """Height of the vector-space element: h(base) / den."""
    if u.is_zero():
        return HeightValue.exact_zero()
    return weil_height(u.base).divided(u.den)


def g_combine(terms) -> GElement:
    """Canonical sum of scalar--base pairs: with s = lcm of the dens, the
    result is (1/s, prod base_i^(s / den_i))."""
    terms = list(terms)
    if not terms:
        raise ValueError("g_combine needs at least one term")
    field = terms[0].field
    if any(t.field is not field for t in terms):
        raise ValueError("elements of different working fields")
    s = int_lcm(*(t.den for t in terms))
    prod = field.one()
    for t in terms:
        prod = prod * t.base ** (s // t.den)
    return GElement._canonical(field, s, prod)


def g_sub(u: GElement, v: GElement) -> GElement:
    return g_combine([u, v.negate()])
