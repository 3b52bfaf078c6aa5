"""Dense univariate polynomials over the rationals.

Coefficients are `fractions.Fraction`, stored lowest degree first.  All
arithmetic is exact.  Ring arithmetic and division are implemented here;
every Euclidean algorithm (inverse, gcd, resultant, Sturm sequence) and
factorization come from sympy's dense univariate layer over QQ and ZZ.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd as int_gcd

import sympy
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dup_discriminant, dup_invert, dup_resultant
from sympy.polys.factortools import dup_factor_list, dup_zz_cyclotomic_poly
from sympy.polys.polyerrors import NotInvertible
from sympy.polys.rootisolation import dup_count_real_roots
from sympy.polys.sqfreetools import dup_sqf_p, dup_sqf_part


class Poly:
    """Polynomial over Q, coefficients lowest degree first, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return bool(self.coeffs)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        q = [Fraction(0)] * max(0, len(rem) - len(other.coeffs) + 1)
        dlc = other.lc
        dd = other.degree
        for i in range(len(rem) - 1, dd - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = c / dlc
            q[i - dd] = f
            for j, oc in enumerate(other.coeffs):
                rem[i - dd + j] -= f * oc
        return Poly(q), Poly(rem)

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __call__(self, x) -> Fraction:
        """Horner evaluation at a rational point.  (Evaluation at field
        elements lives in numberfield.eval_poly.)"""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


def _to_dense(p: Poly) -> list:
    """Coefficients of p over sympy's QQ, highest degree first."""
    return [QQ(c.numerator, c.denominator) for c in reversed(p.coeffs)]


def _fraction(c) -> Fraction:
    """A QQ or ZZ element as a Fraction; int() also unwraps gmpy2 and
    flint ground types."""
    return Fraction(int(c.numerator), int(c.denominator))


def _from_dense(f) -> Poly:
    """The Poly of a dense sympy list, highest degree first."""
    return Poly([_fraction(c) for c in reversed(f)])


def inverse_mod(a: Poly, m: Poly) -> Poly:
    """The inverse of a modulo m, of degree below deg m.

    ZeroDivisionError when gcd(a, m) is not constant."""
    try:
        return _from_dense(dup_invert(_to_dense(a), _to_dense(m), QQ))
    except NotInvertible:
        raise ZeroDivisionError(
            "non-invertible modulo the polynomial (reducible modulus?)") from None


def lagrange_interpolate(points) -> Poly:
    """Unique polynomial of degree < len(points) through (x_i, y_i)."""
    result = Poly.zero()
    xs = [Fraction(x) for x, _ in points]
    for i, (_, y) in enumerate(points):
        if y == 0:
            continue
        num = Poly.one()
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * Poly([-xj, 1])
            den *= xs[i] - xj
        result = result + num * (Fraction(y) / den)
    return result


def is_squarefree(p: Poly) -> bool:
    """True when p has no repeated factor over Q."""
    return dup_sqf_p(_to_dense(p), QQ)


def squarefree_part(p: Poly) -> Poly:
    """Monic squarefree part of p."""
    return _from_dense(dup_sqf_part(_to_dense(p), QQ))


def resultant(a: Poly, b: Poly) -> Fraction:
    """Res(a, b), exact over Q; 0 when either is zero."""
    if a.degree < b.degree:
        # sympy's subresultant PRS swaps such arguments without the sign
        # (-1)^(deg a deg b) and so returns Res(b, a)
        r = resultant(b, a)
        return -r if a.degree * b.degree % 2 else r
    return _fraction(dup_resultant(_to_dense(a), _to_dense(b), QQ))


def discriminant(p: Poly) -> Fraction:
    """disc(p) = (-1)^{d(d-1)/2} Res(p, p') / lc(p)."""
    if p.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    return _fraction(dup_discriminant(_to_dense(p), QQ))


def content_and_primitive(p: Poly):
    """Write p = c * P with c rational > 0 and P a primitive integer
    polynomial with positive leading coefficient."""
    if p.is_zero():
        raise ValueError("zero polynomial has no primitive part")
    den = 1
    for c in p.coeffs:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [int(c * den) for c in p.coeffs]
    g = 0
    for c in ints:
        g = int_gcd(g, abs(c))
    ints = [c // g for c in ints]
    sign = 1
    if ints[-1] < 0:
        sign = -1
        ints = [-c for c in ints]
    return Fraction(sign * g, den), Poly(ints)


def real_root_count(p: Poly) -> int:
    """Number of distinct real roots, by Sturm's theorem (exact)."""
    return dup_count_real_roots(_to_dense(p), QQ)


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    return _from_dense(dup_zz_cyclotomic_poly(n, ZZ))


def euler_phi(n: int) -> int:
    return int(sympy.totient(n))


def factor_rational(p: Poly):
    """Factor a nonzero polynomial into rational irreducibles.

    Returns a deterministic list of (factor, multiplicity) with each factor
    a primitive integer polynomial with positive leading coefficient.  The
    product of the factors agrees with the input up to a rational constant.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    # over QQ, sympy factors the primitive integer part over ZZ
    _, factors = dup_factor_list(_to_dense(p), QQ)
    out = [(content_and_primitive(_from_dense(f))[1], int(mult))
           for f, mult in factors]
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def is_irreducible(p: Poly) -> bool:
    if p.degree < 1:
        return False
    factors = factor_rational(p)
    return len(factors) == 1 and factors[0][1] == 1
