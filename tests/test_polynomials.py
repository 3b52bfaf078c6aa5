import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from heightlab.polynomials import (
    Poly,
    content_and_primitive,
    cyclotomic,
    discriminant,
    factor_rational,
    inverse_mod,
    is_irreducible,
    is_squarefree,
    lagrange_interpolate,
    real_root_count,
    resultant,
)

X = Poly.x()


def poly_of(*coeffs):
    return Poly(coeffs)


small_polys = st.lists(st.integers(-6, 6), min_size=0, max_size=6).map(Poly)


def test_degree_and_trim():
    assert Poly([1, 2, 0, 0]).degree == 1
    assert Poly().degree == -1
    assert Poly([0]).is_zero()


def test_arithmetic_basics():
    p = poly_of(1, 1)  # 1 + x
    q = poly_of(-1, 1)  # -1 + x
    assert p * q == poly_of(-1, 0, 1)
    assert p + q == poly_of(0, 2)
    assert (p - p).is_zero()
    assert p ** 3 == poly_of(1, 3, 3, 1)


def test_divmod_roundtrip():
    rng = random.Random(1)
    for _ in range(50):
        a = Poly([rng.randint(-9, 9) for _ in range(rng.randint(0, 7))])
        b = Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 5))])
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree or r.is_zero()


def test_resultant_shares_root_iff_zero():
    # x - 2 and x^2 - 4 share the root 2
    assert resultant(poly_of(-2, 1), poly_of(-4, 0, 1)) == 0
    assert resultant(poly_of(-2, 1), poly_of(-3, 0, 1)) != 0


def test_resultant_multiplicative():
    a = poly_of(1, 1)
    b = poly_of(-2, 0, 1)
    c = poly_of(3, 1, 1)
    assert resultant(a, b * c) == resultant(a, b) * resultant(a, c)


def _determinant(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        pivot = next((r for r in range(i, len(m)) if m[r][i]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != i:
            m[i], m[pivot] = m[pivot], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return det


def _sylvester(a: Poly, b: Poly):
    """Sylvester matrix of a and b: deg b shifted rows of a's coefficients
    (highest degree first) above deg a shifted rows of b's."""
    m, n = a.degree, b.degree
    rows = []
    for p, count in ((a, n), (b, m)):
        high_first = list(reversed(p.coeffs))
        for i in range(count):
            rows.append([0] * i + high_first + [0] * (count - 1 - i))
    return rows


nonzero_polys = st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4),
                         min_size=1, max_size=6).map(Poly).filter(bool)


@settings(max_examples=100, deadline=None)
@given(nonzero_polys, nonzero_polys)
@example(Poly([1, 1]), Poly([0, 0, 0, 1]))  # deg a < deg b, both odd: Res = -1
def test_resultant_is_sylvester_determinant(a, b):
    assert resultant(a, b) == _determinant(_sylvester(a, b))
    if a.degree >= 1:
        d = a.degree
        sign = -1 if d * (d - 1) // 2 % 2 else 1
        expected = sign * _determinant(_sylvester(a, a.derivative())) / a.lc
        assert discriminant(a) == expected


def test_discriminant_values():
    # disc(x^2 + bx + c) = b^2 - 4c
    assert discriminant(poly_of(-2, 0, 1)) == 8
    assert discriminant(poly_of(1, 1, 1)) == -3
    assert discriminant(poly_of(1, 0, -4, 0, 1)) == 2304


def test_content_and_primitive():
    c, p = content_and_primitive(Poly([Fraction(2, 3), Fraction(4, 3)]))
    assert c == Fraction(2, 3)
    assert p == poly_of(1, 2)
    c2, p2 = content_and_primitive(poly_of(-2, -4))
    assert c2 == 2 and p2 == poly_of(-1, -2) or (c2 == -2 and p2 == poly_of(1, 2))
    # sign convention: positive leading coefficient
    assert p2.lc > 0


def test_real_root_count():
    assert real_root_count(poly_of(-2, 0, 1)) == 2      # x^2 - 2
    assert real_root_count(poly_of(1, 0, 1)) == 0       # x^2 + 1
    assert real_root_count(poly_of(0, -1, 0, 1)) == 3   # x^3 - x
    assert real_root_count(poly_of(1, 0, -4, 0, 1)) == 4
    assert real_root_count(poly_of(1, 0, 0, 0, 1)) == 0  # x^4 + 1


def test_cyclotomic_polynomials():
    assert cyclotomic(1) == poly_of(-1, 1)
    assert cyclotomic(2) == poly_of(1, 1)
    assert cyclotomic(3) == poly_of(1, 1, 1)
    assert cyclotomic(4) == poly_of(1, 0, 1)
    assert cyclotomic(6) == poly_of(1, -1, 1)
    assert cyclotomic(8) == poly_of(1, 0, 0, 0, 1)
    assert cyclotomic(12) == poly_of(1, 0, -1, 0, 1)
    # product over divisors reconstructs x^n - 1
    n = 30
    prod = Poly.one()
    for d in range(1, n + 1):
        if n % d == 0:
            prod = prod * cyclotomic(d)
    assert prod == Poly([-1] + [0] * (n - 1) + [1])


def test_factor_irreducible_quadratic():
    factors = factor_rational(poly_of(-2, 0, 1))
    assert factors == [(poly_of(-2, 0, 1), 1)]
    assert is_irreducible(poly_of(-2, 0, 1))


def test_factor_x4_minus_1():
    factors = factor_rational(poly_of(-1, 0, 0, 0, 1))
    polys = [f for f, _ in factors]
    assert poly_of(-1, 1) in polys
    assert poly_of(1, 1) in polys
    assert poly_of(1, 0, 1) in polys
    assert all(m == 1 for _, m in factors)


def test_factor_x6_minus_4():
    factors = factor_rational(poly_of(-4, 0, 0, 0, 0, 0, 1))
    polys = sorted(f.coeffs for f, _ in factors)
    assert polys == [(-2, 0, 0, 1), (2, 0, 0, 1)]
    prod = Poly.one()
    for f, m in factors:
        prod = prod * f ** m
    assert prod == poly_of(-4, 0, 0, 0, 0, 0, 1)


@settings(max_examples=60, deadline=None)
@given(small_polys, small_polys)
def test_factor_product_roundtrip(a, b):
    p = a * b
    if p.is_zero() or p.degree < 1:
        return
    factors = factor_rational(p)
    prod = Poly.one()
    for f, m in factors:
        prod = prod * f ** m
    # the product matches up to the rational content
    c, prim_in = content_and_primitive(p)
    cp, prim_out = content_and_primitive(prod)
    assert prim_in == prim_out


def test_inverse_mod_refuses_zero_divisor():
    # modulo the reducible x^2 - 1, x + 1 is a zero divisor and x + 2 is not
    with pytest.raises(ZeroDivisionError):
        inverse_mod(poly_of(1, 1), poly_of(-1, 0, 1))
    assert inverse_mod(poly_of(2, 1), poly_of(-1, 0, 1)) == \
        poly_of(Fraction(2, 3), Fraction(-1, 3))


def test_squarefree_detection():
    assert is_squarefree(poly_of(-2, 0, 1))
    assert not is_squarefree(poly_of(1, 2, 1))


def test_lagrange_interpolation():
    pts = [(0, 1), (1, 3), (2, 9), (3, 19)]
    p = lagrange_interpolate(pts)
    for x, y in pts:
        assert p(Fraction(x)) == y
    assert p.degree <= 3


def test_eval_horner():
    p = poly_of(1, -3, 2)
    assert p(Fraction(2)) == 1 - 6 + 8
