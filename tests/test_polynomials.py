import math
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ, ZZ
from sympy.polys.euclidtools import dup_discriminant, dup_invert, dup_resultant
from sympy.polys.factortools import dup_cyclotomic_p, dup_factor_list, dup_zz_cyclotomic_poly
from sympy.polys.polyerrors import NotInvertible
from sympy.polys.rootisolation import dup_count_real_roots
from sympy.polys.specialpolys import swinnerton_dyer_poly
from sympy.polys.sqfreetools import dup_sqf_p, dup_sqf_part
from test_golden import LADDER

from heightlab import polynomials
from heightlab.corpus import scenario_documents
from heightlab.polynomials import (
    Poly,
    content_and_primitive,
    cyclotomic,
    discriminant,
    euler_phi,
    factor_rational,
    inverse_mod,
    is_irreducible,
    is_squarefree,
    lagrange_interpolate,
    real_root_count,
    resultant,
    squarefree_part,
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


def _trimmed(cs) -> tuple:
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _fraction_divmod(a, b):
    """Long division of Fraction coefficient lists, lowest degree first, by
    a nonzero b, each quotient coefficient a division by lc(b)."""
    rem, b = list(a), _trimmed(b)
    q = [Fraction(0)] * max(0, len(rem) - len(b) + 1)
    for i in range(len(rem) - 1, len(b) - 2, -1):
        f = rem[i] / b[-1]
        q[i - len(b) + 1] = f
        for j, c in enumerate(b):
            rem[i - len(b) + 1 + j] -= f * c
    return _trimmed(q), _trimmed(rem)


rational_lists = st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=12),
                          max_size=7)


@settings(max_examples=300, deadline=None)
@given(a=rational_lists, b=rational_lists, x=st.fractions(max_denominator=9),
       c=st.fractions(max_denominator=9))
@example(a=[Fraction(-1, 2), Fraction(1)], b=[Fraction(2), Fraction(0)], x=Fraction(1, 2),
         c=Fraction(-3, 2))
def test_poly_agrees_with_fraction_coefficient_arithmetic(a, b, x, c):
    # the oracle is plain Fraction arithmetic on coefficient lists; each
    # result must also be in lowest terms, as Poly of its Fractions is
    p, q = Poly(a), Poly(b)
    assert p.coeffs == _trimmed(a) and p.den > 0 and math.gcd(p.den, *p.num) == 1
    assert p.is_monic() == (p.coeffs[-1:] == (1,))
    n = max(len(a), len(b))
    padded = [list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))]
    conv = [Fraction(0)] * (len(a) + len(b))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            conv[i + j] += u * v
    cases = [(p, a), (p + q, [u + v for u, v in zip(*padded)]),
             (p - q, [u - v for u, v in zip(*padded)]), (p * q, conv),
             (p * c, [u * c for u in a]), (c * p, [u * c for u in a]), (-p, [-u for u in a]),
             (p.derivative(), [i * u for i, u in enumerate(a)][1:])]
    if q:
        quotient, remainder = divmod(p, q)
        expected = _fraction_divmod(a, b)
        cases += [(quotient, expected[0]), (remainder, expected[1]), (p % q, expected[1])]
    for result, coeffs in cases:
        assert result.coeffs == _trimmed(coeffs)
        assert Poly(result.coeffs) == result and hash(Poly(result.coeffs)) == hash(result)
    assert p(x) == sum(u * x ** i for i, u in enumerate(a))


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


# -- against sympy's dense layer, the oracle --------------------------------


def _dense(p: Poly) -> list:
    return [QQ(c.numerator, c.denominator) for c in reversed(p.coeffs)]


def _fraction(c) -> Fraction:
    return Fraction(int(c.numerator), int(c.denominator))


def _from_dense(f) -> Poly:
    return Poly([_fraction(c) for c in reversed(f)])


def _sympy_factors(p: Poly) -> list:
    _, factors = dup_factor_list(_dense(p), QQ)
    out = [(content_and_primitive(_from_dense(f))[1], int(m)) for f, m in factors]
    return sorted(out, key=lambda fm: (fm[0].degree, fm[0].coeffs))


def _assert_factors_match(p: Poly):
    expected = _sympy_factors(p)
    assert factor_rational(p) == expected
    assert is_irreducible(p) == (p.degree >= 1 and len(expected) == 1 and expected[0][1] == 1)


fraction_polys = st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=3),
                          min_size=0, max_size=7).map(Poly)


@settings(max_examples=150, deadline=None)
@given(fraction_polys, fraction_polys)
@example(Poly([1, 1]), Poly([0, 0, 0, 1]))
@example(Poly([2]), Poly([3]))
def test_euclidean_algorithms_match_sympy(a, b):
    if a and b:
        if a.degree < b.degree:
            # sympy's subresultant PRS returns Res(b, a) for such arguments
            sign = -1 if a.degree * b.degree % 2 else 1
            assert resultant(a, b) == sign * _fraction(dup_resultant(_dense(b), _dense(a), QQ))
        else:
            assert resultant(a, b) == _fraction(dup_resultant(_dense(a), _dense(b), QQ))
    if a.degree >= 1:
        assert discriminant(a) == _fraction(dup_discriminant(_dense(a), QQ))
    for p in (a, a * a * b, a * b * b * X):
        assert is_squarefree(p) == dup_sqf_p(_dense(p), QQ)
        assert squarefree_part(p) == _from_dense(dup_sqf_part(_dense(p), QQ))
        assert real_root_count(p) == dup_count_real_roots(_dense(p), QQ)
    if b.degree >= 1:
        try:
            expected = _from_dense(dup_invert(_dense(a), _dense(b), QQ))
        except NotInvertible:
            with pytest.raises(ZeroDivisionError):
                inverse_mod(a, b)
        else:
            assert inverse_mod(a, b) == expected


def test_cyclotomic_matches_sympy():
    for n in range(1, 201):
        assert cyclotomic(n) == _from_dense(dup_zz_cyclotomic_poly(n, ZZ))


def test_cyclotomic_recognition_matches_sympy():
    # _zassenhaus takes Phi_n as irreducible on sight; palindromic monic
    # neighbours of each Phi_n of degree <= 24 are recognised only where
    # sympy agrees
    for m in range(1, 61):
        assert polynomials._cyclotomic_orders(m) == tuple(
            n for n in range(1, max(m * m, 6) + 1) if euler_phi(n) == m)
    for n in range(3, 91):
        f = [int(c) for c in cyclotomic(n).coeffs]
        assert polynomials._is_cyclotomic(f)
        d = len(f) - 1
        if d > 24:
            continue
        for i in {1, d // 2}:
            g = list(f)
            g[i] += 1
            g[d - i] += 1 if d - i != i else 0
            assert polynomials._is_cyclotomic(g) == dup_cyclotomic_p(g[::-1], ZZ)


@pytest.mark.parametrize("n", [16, 21, 32, 45, 60])
def test_cyclotomic_irreducible_without_the_shortcut(n, monkeypatch):
    # the lift and recombination still prove Phi_n irreducible
    monkeypatch.setattr(polynomials, "_is_cyclotomic", lambda f: False)
    assert is_irreducible(cyclotomic(n))
    assert factor_rational(cyclotomic(n) * X) == [(X, 1), (cyclotomic(n), 1)]


int_polys = st.lists(st.integers(-9, 9), min_size=1, max_size=5).map(Poly).filter(bool)


@settings(max_examples=200, deadline=None)
@given(int_polys, int_polys, int_polys, st.integers(0, 2))
@example(Poly([-2, 0, 1]), Poly([-3, 0, 1]), Poly([1]), 0)
def test_factorization_matches_sympy(a, b, c, k):
    # products with repeated factors and powers of x
    _assert_factors_match(a)
    _assert_factors_match(a * b)
    _assert_factors_match(a * b * b * c * X ** k)


@pytest.mark.parametrize("n", [3, 4])
def test_swinnerton_dyer_factorization(n):
    # irreducible, yet mod every prime a product of factors of degree at
    # most 2, so the degrees mod p never prove it and every subset of up to
    # half of the lifted factors is tried
    x = sympy.Symbol("x")
    sd = Poly([int(c) for c in reversed(sympy.Poly(swinnerton_dyer_poly(n, x), x).all_coeffs())])
    assert sd.degree == 2 ** n and is_irreducible(sd)
    _assert_factors_match(sd)
    _assert_factors_match(sd * Poly([-5, 0, 1]) * cyclotomic(8))


def _split_oracle_polynomials():
    """The corpus fields, the larger rungs of the field-build ladder, and
    Phi_n for every other n >= 3 with phi(n) <= 24."""
    polys = [tuple(doc["field"]) for doc in scenario_documents()] + list(LADDER)
    for n in range(3, 2 * 24 ** 2 + 1):
        coeffs = tuple(int(c) for c in cyclotomic(n).coeffs)
        if euler_phi(n) <= 24 and coeffs not in polys:
            polys.append(coeffs)
    return [Poly(c) for c in polys]


def test_field_polynomials_factor_as_sympy():
    polys = _split_oracle_polynomials()
    assert len(polys) > 50
    for i, p in enumerate(polys):
        assert is_irreducible(p)
        assert factor_rational(p) == [(p, 1)]
        # each times the next, so that the lifted factors must recombine
        _assert_factors_match(p * polys[(i + 1) % len(polys)])
