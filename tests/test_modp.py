import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_irreducible_p

from heightlab import _modp
from heightlab.polynomials import cyclotomic


def _mul(a, b, p):
    """a b mod p, with no modulus."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for k, y in enumerate(b, i):
            out[k] += x * y
    return _modp.reduce(out, p)


def _gf_factors(g, p):
    """sympy's irreducible factors of g mod p, lowest degree first."""
    _, factors = gf_factor(ZZ.map(g[::-1]), p, ZZ)
    return sorted(tuple(int(c) for c in reversed(h)) for h, _ in factors)


def _all_factors(g, p):
    """The irreducible factors of g, a monic squarefree product of factors
    of one degree, each in turn by equal-degree splitting."""
    out = []
    while len(g) > 1:
        r, powers = _modp.frobenius_powers(g, p)
        h = _modp.equal_degree_factor(r, p, powers)
        out.append(tuple(h))
        g = _modp.quo_rem(g, h, p)[0]
    return sorted(out)


@pytest.mark.parametrize("n", [7, 17, 31, 73])
def test_equal_degree_factor_at_two_matches_gf_factor(n):
    # Phi_n mod 2 is a product of (n - 1)/k factors of degree k, the order
    # of 2 mod n: 2 cubics, 2 octics, 6 quintics and 8 nonics, split on the
    # trace to F_2
    g = _modp.reduce([int(c) for c in cyclotomic(n).coeffs], 2)
    factors = _all_factors(g, 2)
    assert factors == _gf_factors(g, 2)
    assert len(factors) > 1


@functools.cache
def _irreducibles(p, f):
    """The monic irreducible polynomials of degree f mod p, lowest degree
    first."""
    out = []
    for low in itertools.product(range(p), repeat=f):
        g = list(low) + [1]
        if gf_irreducible_p(ZZ.map(g[::-1]), p, ZZ):
            out.append(g)
    return out


@st.composite
def _powers_of_radicals(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    f = draw(st.integers(1, 3))
    pool = _irreducibles(p, f)
    count = draw(st.integers(1, min(3, len(pool))))
    chosen = draw(st.lists(st.sampled_from(pool), min_size=count, max_size=count,
                           unique_by=tuple))
    e = draw(st.integers(1, 3))
    return p, f, functools.reduce(lambda a, b: _mul(a, b, p), chosen), e


@settings(max_examples=150, deadline=None)
@given(_powers_of_radicals())
def test_frobenius_powers_find_the_radical(case):
    # for m = r^e, r a product of distinct irreducible factors of degree f,
    # the Frobenius gives back r and the powers x^(p^i) mod m for i < f
    p, f, r, e = case
    m = functools.reduce(lambda a, b: _mul(a, b, p), [r] * e)
    radical, powers = _modp.frobenius_powers(m, p)
    assert radical == r
    assert len(powers) == f
    assert powers == [_modp.powmod([0, 1], p ** i, m, p) if i else _modp.rem([0, 1], m, p)
                      for i in range(f)]


@st.composite
def _squarefree_products(draw):
    """(p, g): a monic product of distinct irreducibles of degrees 1 to 4
    mod a prime p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    chosen = []
    for f in range(1, 5 if p < 5 else 3):
        pool = _irreducibles(p, f)
        chosen += draw(st.lists(st.sampled_from(pool), max_size=min(2, len(pool)),
                                unique_by=tuple))
    return p, functools.reduce(lambda a, b: _mul(a, b, p), chosen, [1])


@settings(max_examples=150, deadline=None)
@given(_squarefree_products())
def test_distinct_and_equal_degree_factors_match_gf_factor(case):
    # distinct-degree parts, each split completely by equal-degree
    # splitting, give sympy's factors
    p, g = case
    if len(g) < 2:
        return
    parts, powers = _modp.distinct_degree_factors(g, p)
    factors = []
    for k, part in parts:
        if len(part) - 1 == k:
            factors.append(tuple(part))
        else:
            found = _modp.equal_degree_factors(part, p, powers[:k])
            assert all(len(h) - 1 == k for h in found)
            factors += [tuple(h) for h in found]
    assert sorted(factors) == _gf_factors(g, p)
    assert [k for k, _ in parts] == sorted({len(h) - 1 for h in factors})


@settings(max_examples=100, deadline=None)
@given(_squarefree_products(), _squarefree_products())
def test_gcdex_gives_bezout_coefficients(case_a, case_b):
    p, a = case_a
    b = _modp.reduce(case_b[1], p)
    if not b or len(_modp.gcd(a, b, p)) != 1:
        return
    s, t = _modp.gcdex(a, b, p)
    assert _modp.sub(_mul(s, a, p), _modp.sub([1], _mul(t, b, p), p), p) == []
    assert len(s) < max(len(b), 2) and len(t) < max(len(a), 2)
