"""Dense univariate polynomials over the rationals.

Coefficients are `fractions.Fraction`, stored lowest degree first.  All
arithmetic is exact.  Factorization over Q is delegated to sympy;
everything else is implemented here.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd as int_gcd

import sympy


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

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        inv = 1 / self.lc
        return Poly([c * inv for c in self.coeffs])

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


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over Q."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


def poly_xgcd(a: Poly, b: Poly):
    """Extended gcd: returns (g, u, v) with u*a + v*b = g, g monic."""
    r0, r1 = a, b
    u0, u1 = Poly.one(), Poly.zero()
    v0, v1 = Poly.zero(), Poly.one()
    while not r1.is_zero():
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, u0 - q * u1
        v0, v1 = v1, v0 - q * v1
    if r0.is_zero():
        return r0, u0, v0
    inv = 1 / r0.lc
    return r0 * inv, u0 * inv, v0 * inv


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
    return poly_gcd(p, p.derivative()).degree <= 0


def squarefree_part(p: Poly) -> Poly:
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.monic()
    return (p // g).monic()


def resultant(a: Poly, b: Poly) -> Fraction:
    """Res(a, b) by the Euclidean recursion, exact over Q."""
    if a.is_zero() or b.is_zero():
        return Fraction(0)
    if a.degree == 0:
        return a.coeffs[0] ** b.degree
    if b.degree == 0:
        return b.coeffs[0] ** a.degree
    r = a % b
    if r.is_zero():
        return Fraction(0)
    sign = -1 if (a.degree % 2 == 1 and b.degree % 2 == 1) else 1
    return sign * b.lc ** (a.degree - r.degree) * resultant(b, r)


def discriminant(p: Poly) -> Fraction:
    """disc(p) = (-1)^{d(d-1)/2} Res(p, p') / lc(p)."""
    d = p.degree
    if d < 1:
        raise ValueError("discriminant needs degree >= 1")
    if d == 1:
        return Fraction(1)
    sign = -1 if (d * (d - 1) // 2) % 2 else 1
    return sign * resultant(p, p.derivative()) / p.lc


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
    p = squarefree_part(p)
    if p.degree == 0:
        return 0
    chain = [p, p.derivative()]
    while not chain[-1].is_zero():
        chain.append(-(chain[-2] % chain[-1]))
    chain.pop()

    def signs_at_inf(positive: bool):
        out = []
        for q in chain:
            s = q.lc
            if not positive and q.degree % 2 == 1:
                s = -s
            out.append(1 if s > 0 else -1)
        return out

    def variations(seq):
        return sum(1 for x, y in zip(seq, seq[1:]) if x != y)

    return variations(signs_at_inf(False)) - variations(signs_at_inf(True))


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial, by repeated exact division."""
    if n < 1:
        raise ValueError("n must be positive")
    num = Poly([-1] + [0] * (n - 1) + [1])  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            num = num // cyclotomic(d)
    return num


def euler_phi(n: int) -> int:
    return int(sympy.totient(n))


_X = sympy.Symbol("x")


def _to_sympy(p: Poly):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)], _X, domain="QQ")


def _from_sympy(sp) -> Poly:
    return Poly([Fraction(c.numerator, c.denominator)
                 for c in reversed(sp.all_coeffs())])


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
    _, factors = _to_sympy(p).factor_list()
    out = []
    for f, mult in factors:
        q = _from_sympy(f)
        _, q = content_and_primitive(q)
        out.append((q, int(mult)))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return out


def is_irreducible(p: Poly) -> bool:
    if p.degree < 1:
        return False
    factors = factor_rational(p)
    return len(factors) == 1 and factors[0][1] == 1
