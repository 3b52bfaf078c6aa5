import functools
import math
import operator
import pathlib
import random
import runpy
import time
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import mpf_neg
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor
from sympy.polys.specialpolys import swinnerton_dyer_poly

from test_golden import LADDER

from heightlab import numberfield, roots
from heightlab._padic import ReducedLattice, hensel_lift
from heightlab.corpus import bundled_scenario, scenario_documents
from heightlab.errors import (
    NotGalois,
    PrecisionExhausted,
    ReduciblePolynomial,
    WitnessFailure,
)
from heightlab.numberfield import (
    FieldElement,
    WorkingField,
    _lattice,
    _make_field_cached,
    _normalized,
    _precision_bound,
    _roots_mod,
    _split_prime,
    eval_at_embeddings,
    eval_poly,
    galois_condition,
    make_field,
    minimal_polynomial,
    rational_subfield,
    roots_in_field,
    subfield,
    whole_field,
)
from heightlab.polynomials import (
    Poly,
    cyclotomic,
    inverse_mod,
    is_irreducible,
    real_root_count,
    resultant,
)
from heightlab.roots import (
    DEFAULT_PRECISION_BITS,
    certified_roots,
    galois_roots,
    locked_workprec,
)

CORPUS_NAMES = [doc["name"] for doc in scenario_documents()]


def rand_elem(field, rng, span=4):
    while True:
        coords = [Fraction(rng.randint(-span, span)) for _ in range(field.degree)]
        if any(coords):
            return field.element(coords)


# -- make_field ------------------------------------------------------------


def test_make_field_sqrt2(field_sqrt2):
    f = field_sqrt2
    assert f.degree == 2
    assert f.torsion_order == 2
    images = sorted(a.theta_image.coords for a in f.automorphisms)
    assert images == [(0, -1), (0, 1)]


def test_make_field_biquadratic_classic(field_biquad_classic):
    f = field_biquad_classic
    assert f.degree == 4
    assert f.torsion_order == 2
    assert len(f.automorphisms) == 4
    # Klein four group: every element has order dividing 2
    for a in f.automorphisms:
        assert a.compose(a).is_identity


def test_make_field_zeta3(field_zeta3):
    assert field_zeta3.degree == 2
    assert field_zeta3.torsion_order == 6
    # +-1, +-zeta, +-zeta^2 are exactly the roots of unity
    gen = field_zeta3.torsion_generator
    powers = {tuple((gen ** k).coords) for k in range(6)}
    assert len(powers) == 6


# each chain of prime powers can end three ways: a miss after a hit
# (cbrt2_split has zeta_3 but not zeta_9), phi(p^k) no longer dividing the
# degree (Phi9 stops before 27), or a miss on the first try (zeta5 lacks i)
@pytest.mark.parametrize("coeffs, order, gen_coords", [
    pytest.param((1, 1, 1, 1, 1), 10, ["1", "1", "1", "1"], id="zeta5"),
    pytest.param((1, 0, 0, 0, 1), 8, ["0", "-1", "0", "0"], id="zeta8"),
    pytest.param((1, -3, 0, 5, 0, -3, 1), 6, ["4", "-4", "-8", "2", "5", "-2"],
                 id="cbrt2_split"),
    pytest.param((1,) * 7, 14, ["1"] * 6, id="Phi7"),
    pytest.param((1, 0, 0, 1, 0, 0, 1), 18, ["0", "1", "0", "0", "1", "0"], id="Phi9"),
])
def test_torsion_structure(coeffs, order, gen_coords):
    f = make_field(list(coeffs))
    gen = f.torsion_generator
    assert f.torsion_order == order
    assert [str(c) for c in gen.coords] == gen_coords
    assert gen ** order == f.one()
    for r in (2, 3, 5, 7):
        if order % r == 0:
            assert gen ** (order // r) != f.one()


@pytest.mark.parametrize("n", [5, 7, 8, 9, 12, 13, 15, 16, 20, 21, 45])
def test_cyclotomic_torsion(n):
    # Q(zeta_n) holds exactly the roots of unity of order lcm(2, n)
    f = make_field([int(c) for c in cyclotomic(n).coeffs])
    w = f.torsion_order
    assert w == (n if n % 2 == 0 else 2 * n)
    gen = f.torsion_generator
    assert gen ** w == f.one()
    for r in sympy.primefactors(w):
        assert gen ** (w // r) != f.one()


def test_torsion_tries_only_prime_powers_dividing_split_primes(monkeypatch):
    # Phi45 splits first at 181, 271 and 541, and gcd(180, 270, 540) = 90
    # leaves zeta_9 and zeta_5 to try; zeta_4, which would need a proof of
    # absence at the largest precision, is ruled out without a search.
    # Phi48 splits first at 97, 193 and 241: 32 divides 96 and 192 but not
    # 240, so zeta_32 is ruled out without a search too
    tried = []
    lift = numberfield._lift_root

    def recording(field, f_ints, *args):
        tried.append(Poly(f_ints))
        return lift(field, f_ints, *args)

    monkeypatch.setattr(numberfield, "_lift_root", recording)
    coeffs = tuple(int(c) for c in cyclotomic(45).coeffs)
    field = _make_field_cached.__wrapped__(coeffs, DEFAULT_PRECISION_BITS)
    assert field.torsion_order == 90
    assert list(dict.fromkeys(tried)) == [field.defining_poly, cyclotomic(9),
                                          cyclotomic(5)]
    assert cyclotomic(4) not in tried
    assert _split_prime(field, 1)[0] == 181
    assert _split_prime(field, 181)[0] == 271

    tried.clear()
    coeffs = tuple(int(c) for c in cyclotomic(48).coeffs)
    field = _make_field_cached.__wrapped__(coeffs, DEFAULT_PRECISION_BITS)
    assert field.torsion_order == 48
    assert list(dict.fromkeys(tried)) == [field.defining_poly, cyclotomic(16),
                                          cyclotomic(3)]
    assert cyclotomic(32) not in tried
    assert _split_prime(field, 1)[0] == 97
    assert _split_prime(field, 97)[0] == 193
    assert _split_prime(field, 97 * 193)[0] == 241


def test_make_field_rejects_reducible():
    with pytest.raises(ReduciblePolynomial):
        make_field([-4, 0, 1])  # x^2 - 4
    with pytest.raises(ReduciblePolynomial):
        make_field([Fraction(1, 2), 1])
    with pytest.raises(ReduciblePolynomial):
        make_field([-2, 0, 2])  # not monic


def test_make_field_rejects_non_galois():
    with pytest.raises(NotGalois):
        make_field([-2, 0, 0, 1])  # x^3 - 2


def test_field_caching():
    assert make_field([-2, 0, 1]) is make_field([-2, 0, 1])


def test_element_arithmetic(field_sqrt2):
    f = field_sqrt2
    t = f.theta()
    assert t * t == f.from_rational(2)
    a = f.element([1, 1])
    assert a * a.inverse() == f.one()
    assert (a ** -2) * (a ** 2) == f.one()
    assert a ** 0 == f.one()
    assert (1 + t) == a
    assert a.norm() == -1  # N(1+sqrt2)


def test_division_and_rationals(field_sqrt2):
    f = field_sqrt2
    t = f.theta()
    assert (2 / t) == t  # 2/sqrt2 = sqrt2
    assert (t / 2).coords == (0, Fraction(1, 2))
    with pytest.raises(ZeroDivisionError):
        t / 0


def test_reducible_working_field_refuses_inverse():
    # make_field would refuse x^2 - 1; built directly, the field has no
    # Galois group to invert through, and only rationals invert
    f = WorkingField(Poly([-1, 0, 1]), 64)
    with pytest.raises(ValueError, match="make_field"):
        f.element([2, 1]).inverse()
    assert f.from_rational(3).inverse() == f.from_rational(Fraction(1, 3))


def test_field_without_galois_group_refuses_by_name():
    # Q(sqrt2) built directly has no Galois group: inverses, norms and
    # subfields all refuse with the error that names make_field
    f = WorkingField(Poly([-2, 0, 1]), 64)
    a = f.element([1, 1])
    for use in (a.inverse, a.norm, lambda: subfield(f, [f.theta()]),
                lambda: rational_subfield(f)):
        with pytest.raises(ValueError, match="build it with make_field"):
            use()


# -- the integer representation ---------------------------------------------

small_fractions = st.fractions(min_value=-5, max_value=5, max_denominator=6)
coordinate_lists = st.lists(small_fractions, min_size=6, max_size=6)


def normal(x):
    """x, after checking the lowest-terms form with a positive denominator."""
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    return x


@pytest.mark.parametrize("name", CORPUS_NAMES)
@settings(max_examples=25, deadline=None)
@given(u=coordinate_lists, q=small_fractions, n=st.integers(-7, 12))
def test_rational_operands_and_powers_match_the_convolution(name, u, q, n):
    # a product with a rational operand scales the other one, and powers
    # start at the lowest set bit of n; both against the d^2 convolution
    f = bundled_scenario(name).field

    def convolution(a, b):
        return _normalized(f, f._mul_num(a.num, b.num), a.den * b.den)

    a, r = f.element(u[:f.degree]), f.from_rational(q)
    assert normal(a * r) == normal(r * a) == convolution(a, r)
    assert normal(r * r) == convolution(r, r)
    if a.is_zero() and n < 0:
        return
    base = a if n >= 0 else a.inverse()
    expected = f.one()
    for _ in range(abs(n)):
        expected = convolution(expected, base)
    assert normal(a ** n) == expected


@pytest.mark.parametrize("name", CORPUS_NAMES)
@settings(max_examples=25, deadline=None)
@given(u=coordinate_lists, v=coordinate_lists, q=small_fractions)
def test_representation_properties(name, u, v, q):
    f = bundled_scenario(name).field
    d = f.degree
    a, b = normal(f.element(u[:d])), normal(f.element(v[:d]))
    assert a.coords == tuple(u[:d])
    # Poly arithmetic modulo m_F is the independent oracle
    m = f.defining_poly
    assert Poly(normal(a * b).coords) == (Poly(a.coords) * Poly(b.coords)) % m
    for sigma in f.automorphisms:
        assert normal(sigma(a)) == eval_poly(Poly(a.coords), sigma.theta_image)
    pairs = list(zip(a.coords, b.coords))
    assert normal(a + b).coords == tuple(x + y for x, y in pairs)
    assert normal(a - b).coords == tuple(x - y for x, y in pairs)
    assert normal(-a).coords == tuple(-x for x in a.coords)
    assert normal(a * q).coords == tuple(x * q for x in a.coords)
    assert normal(a + q).coords == (a.coords[0] + q,) + a.coords[1:]
    if q:
        assert normal(a / q).coords == tuple(x / q for x in a.coords)
    # equal elements built by different routes are equal and hash equally
    routes = [a, (a + b) - b, FieldElement(f, a.coords), a * f.one(), a * 3 / 3,
              -(-a), (a * 2) + (-a)]
    if q:
        routes.append(a * q / q)
    assert all(r == a for r in routes)
    assert len({hash(r) for r in routes}) == 1
    assert hash(a * b) == hash(b * a)
    assert hash(f.from_rational(q)) == hash(f.element([q])) == hash(f.one() * q)


# -- automorphism group -----------------------------------------------------


def test_automorphism_group_structure(field_cbrt2):
    f = field_cbrt2
    autos = f.automorphisms
    assert len(autos) == 6
    m = f.defining_poly
    for a in autos:
        assert eval_poly(m, a.theta_image).is_zero()
    # closure and inverses through the composition table
    for a in autos:
        for b in autos:
            ab = a.compose(b)
            assert ab in autos
        assert a.compose(a.inverse()).is_identity
    # composition acts correctly on a sample element
    x = f.element([1, 2, 0, 1, 0, 0])
    for a in autos:
        for b in autos:
            assert a(b(x)) == a.compose(b)(x)


def test_automorphism_is_ring_hom(field_biquad):
    rng = random.Random(11)
    f = field_biquad
    for _ in range(20):
        a, b = rand_elem(f, rng), rand_elem(f, rng)
        for sigma in f.automorphisms:
            assert sigma(a * b) == sigma(a) * sigma(b)
            assert sigma(a + b) == sigma(a) + sigma(b)


def test_identity_automorphism(field_sqrt2):
    ident = field_sqrt2.identity_automorphism()
    a = field_sqrt2.element([3, 5])
    assert ident(a) == a


def test_apply_automorphism_linear_sub(field_sqrt2):
    sigma = field_sqrt2.automorphisms[1]  # t -> -t
    a = field_sqrt2.element([1, 1])
    assert sigma(a) == field_sqrt2.element([1, -1])


# -- minimal polynomials ----------------------------------------------------


def _expanded_product(images) -> Poly:
    """prod (x - c) over the field elements images, expanded exactly in
    F[x] with coefficients lowest degree first; each coefficient must come
    out rational."""
    f = images[0].field
    prod = [f.one()]
    for c in images:
        prod = ([-c * prod[0]]
                + [lo - c * hi for lo, hi in zip(prod[:-1], prod[1:])]
                + [prod[-1]])
    assert all(coeff.is_rational() for coeff in prod)
    return Poly([coeff.as_rational() for coeff in prod])


def test_minimal_polynomial_examples(field_sqrt2):
    f = field_sqrt2
    assert minimal_polynomial(f.theta()) == Poly([-2, 0, 1])
    assert minimal_polynomial(f.element([1, 1])) == Poly([-1, -2, 1])
    assert minimal_polynomial(f.from_rational(5)) == Poly([-5, 1])
    assert minimal_polynomial(f.zero()) == Poly([0, 1])


def test_minimal_polynomial_degree_divides(field_cbrt2):
    rng = random.Random(5)
    for _ in range(10):
        a = rand_elem(field_cbrt2, rng, span=2)
        mp = minimal_polynomial(a)
        assert field_cbrt2.degree % mp.degree == 0
        assert eval_poly(mp, a).is_zero()


def test_minimal_polynomial_sqrt2_plus_sqrt3(field_biquad_classic, field_biquad):
    # the classic generator is sqrt2 + sqrt3 itself; with t = (sqrt2 +
    # sqrt6)/2, sqrt2 = t^3 - 3t and sqrt3 = t^2 - 2
    x4_10x2_1 = Poly([1, 0, -10, 0, 1])
    assert minimal_polynomial(field_biquad_classic.theta()) == x4_10x2_1
    f = field_biquad
    sqrt2, sqrt3 = f.element([0, -3, 0, 1]), f.element([-2, 0, 1])
    assert sqrt2 * sqrt2 == 2 and sqrt3 * sqrt3 == 3
    assert minimal_polynomial(sqrt2 + sqrt3) == x4_10x2_1


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_minimal_polynomial_independent_checks(name):
    # monic, vanishing at a, irreducible over Q (sympy's factorization),
    # and of degree [Q(a):Q], the number of distinct conjugates
    sc = bundled_scenario(name)
    f = sc.field
    rng = random.Random(f"minpoly:{name}")
    elements = list(sc.elements.values())
    for _ in range(10):
        elements.append(f.element(
            [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
             for _ in range(f.degree)]))
    for a in elements:
        mp = minimal_polynomial(a)
        assert mp.is_monic()
        assert eval_poly(mp, a).is_zero()
        assert is_irreducible(mp)
        assert mp.degree == len({s(a) for s in f.automorphisms})


def test_minimal_polynomial_refuses_irrational_coefficients(field_sqrt2, monkeypatch):
    # with the automorphism t -> -t missing, prod (x - c) is x - t, whose
    # constant term is not rational
    f = field_sqrt2
    monkeypatch.setattr(f, "automorphisms", f.automorphisms[:1])
    with pytest.raises(WitnessFailure):
        minimal_polynomial(f.theta())


def test_minimal_polynomial_of_conjugates_match(field_biquad):
    rng = random.Random(6)
    a = rand_elem(field_biquad, rng)
    mps = {minimal_polynomial(s(a)).coeffs
           for s in field_biquad.automorphisms}
    assert len(mps) == 1


# -- roots in field ----------------------------------------------------------


def test_roots_of_defining_poly(field_biquad):
    roots = roots_in_field(field_biquad.defining_poly, field_biquad)
    assert len(roots) == 4
    assert field_biquad.theta() in roots


def test_sqrt3_in_classic_biquadratic(field_biquad_classic):
    # sqrt3 = (11 t - t^3)/2 for t = sqrt2 + sqrt3
    roots = roots_in_field(Poly([-3, 0, 1]), field_biquad_classic)
    assert len(roots) == 2
    expected = field_biquad_classic.element(
        [0, Fraction(11, 2), 0, Fraction(-1, 2)])
    assert expected in roots
    for r in roots:
        assert r * r == field_biquad_classic.from_rational(3)


def test_roots_of_repeated_mixed_degree_factors(field_biquad_classic):
    # (x^2-3)^2 (x^3-2) (x+5): a squared quadratic with roots in F, a cubic
    # with none and a rational linear factor; each root appears once
    f = field_biquad_classic
    p = Poly([-3, 0, 1]) ** 2 * Poly([-2, 0, 0, 1]) * Poly([5, 1])
    roots = roots_in_field(p, f)
    assert roots == [
        f.from_rational(-5),
        f.element([0, Fraction(-11, 2), 0, Fraction(1, 2)]),
        f.element([0, Fraction(11, 2), 0, Fraction(-1, 2)]),
    ]


def test_no_roots_in_real_field(field_sqrt2):
    assert roots_in_field(Poly([1, 0, 1]), field_sqrt2) == []


def test_rational_roots(field_q):
    roots = roots_in_field(Poly([-6, 1, 1]), field_q)  # (x+3)(x-2)
    values = sorted(r.coords[0] for r in roots)
    assert values == [-3, 2]


def _oracle_roots(p, field):
    """Roots of p in F from sympy's factorization over Q[t]/(m_F): an
    independent route, kept only here."""
    x = sympy.Symbol("x")
    m = sympy.Poly([int(c) for c in reversed(field.defining_poly.coeffs)], x)
    domain = (sympy.QQ if field.degree == 1
              else sympy.QQ.algebraic_field((m, sympy.CRootOf(m, 0))))
    sp = sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                     for c in reversed(p.coeffs)], x, domain=domain)
    roots = []
    for fac, _ in sp.factor_list()[1]:
        if fac.degree() == 1:
            lc, c0 = fac.rep.to_list()
            r = -c0 / lc
            if field.degree == 1:
                roots.append((Fraction(int(r.numerator), int(r.denominator)),))
            else:
                coords = [Fraction(int(q.numerator), int(q.denominator))
                          for q in reversed(r.to_list())]
                roots.append(tuple(coords + [0] * (field.degree - len(coords))))
    return sorted(roots)


@pytest.mark.parametrize("name", [doc["name"] for doc in scenario_documents()
                                  if len(doc["field"]) <= 5])
def test_roots_agree_with_algebraic_field_factorization(name):
    field = bundled_scenario(name).field
    polys = [field.defining_poly] + [cyclotomic(n) for n in (3, 4, 8, 12)]
    polys.append(Poly([-2, 0, 4]))  # non-monic: roots +-1/sqrt2
    polys += [Poly([-q, 0, 1]) for q in (2, 3, 5, 7, 11, 13)]
    for p in polys:
        roots = roots_in_field(p, field)
        assert [r.coords for r in roots] == _oracle_roots(p, field), p
        for r in roots:
            assert eval_poly(p, r).is_zero()


def test_miss_is_proven_at_the_precision_bound(field_sqrt2):
    # at the split prime 7, x^2 - 11 has the roots +-2, but sqrt(11) is not
    # in Q(sqrt2): both lifts miss up to k_max, where the miss is a proof
    f = Poly([-11, 0, 1])
    assert roots_in_field(f, field_sqrt2) == []
    k_max = _precision_bound(field_sqrt2, [-11, 0, 1], 7)
    assert field_sqrt2._lattice_cache[7][0] >= k_max
    assert roots_in_field(Poly([-18, 0, 1]), field_sqrt2) == [
        field_sqrt2.element([0, -3]), field_sqrt2.element([0, 3])]


def test_miss_is_proven_with_a_finer_cached_lattice():
    # with only a lattice beyond both precision bounds cached, a miss there
    # is still the proof and the hits are still found, without new lattices
    field = WorkingField(Poly([-2, 0, 1]), DEFAULT_PRECISION_BITS)
    q, r1 = _split_prime(field, 1)
    assert q == 7
    k_max = max(_precision_bound(field, [-11, 0, 1], q),
                _precision_bound(field, [-18, 0, 1], q))
    finest = _lattice(field, q, r1, 2 * k_max)
    assert finest[0] == 2 * k_max
    assert _lattice(field, q, r1, 1) is finest
    assert roots_in_field(Poly([-11, 0, 1]), field) == []
    assert roots_in_field(Poly([-18, 0, 1]), field) == [
        field.element([0, -3]), field.element([0, 3])]
    assert list(field._lattice_cache) == [q]
    assert field._lattice_cache[q] is finest


def _precision_bound_by_steps(field, f_ints, q):
    """_precision_bound's k_max by its former search: the bound, then
    k = 1, 2, ... until q^(2k) exceeds it."""
    a, d = field.m_ints, field.degree
    radius = 1 + max(abs(c) for c in a[:-1])
    gamma = f_ints[-1] + max(abs(c) for c in f_ints[:-1])
    coord = max(sum(d * gamma * radius ** i * abs(a[i + j + 1]) for i in range(d - j))
                for j in range(d))
    s = sum(radius ** (2 * i) for i in range(d))
    babai = 2 ** ((d + 1) // 2) + 1
    bound = (babai * babai * d * coord * coord * s) ** d
    k = 1
    while q ** (2 * k) <= bound:
        k += 1
    return k


def test_precision_bound_matches_the_stepwise_search(monkeypatch):
    # every (f, q) that make_field bounds on the field-build ladder, Phi35
    # and Phi45: m_F at its split prime and each cyclotomic tried there
    calls = []
    bound = numberfield._precision_bound

    def recording(field, f_ints, q):
        calls.append((field, tuple(f_ints), q))
        return bound(field, f_ints, q)

    monkeypatch.setattr(numberfield, "_precision_bound", recording)
    polys = [tuple(doc["field"]) for doc in scenario_documents()] + list(LADDER)
    polys += [cyclotomic(n).num for n in (7, 9, 16, 35, 45)]
    for coeffs in polys:
        _make_field_cached.__wrapped__(coeffs, DEFAULT_PRECISION_BITS)
    monkeypatch.undo()
    assert len({f for f, _, _ in calls}) == len(polys)
    for field, f_ints, q in calls:
        assert bound(field, f_ints, q) == _precision_bound_by_steps(field, f_ints, q)
        for p in (2, 3, q + 2, 479):
            assert bound(field, f_ints, p) == _precision_bound_by_steps(field, f_ints, p)


def test_precision_bound_of_degree_32_is_fast():
    # the stepwise search took 15.5 s here on a 2-core x86-64 host
    x = sympy.Symbol("x")
    sd = sympy.Poly(swinnerton_dyer_poly(5, x), x).all_coeffs()
    field = WorkingField(Poly([int(c) for c in reversed(sd)]), DEFAULT_PRECISION_BITS)
    q, _ = _split_prime(field, 1)
    start = time.perf_counter()
    assert (q, _precision_bound(field, field.m_ints, q)) == (479, 13178)
    assert time.perf_counter() - start < 1


def _roots_mod_by_gf_factor(ints, q):
    """The roots mod q of ints (lowest degree first), from the linear
    factors in sympy's factorization mod q."""
    _, factors = gf_factor(ZZ.map([c % q for c in reversed(ints)]), q, ZZ)
    return tuple(sorted(-int(h[1]) % q for h, _ in factors if len(h) == 2))


@pytest.mark.parametrize("q", [2, 3, 13, 131, 509, 521, 2053])
def test_roots_mod_both_routes_agree(q):
    # evaluation at every residue and sympy's factorization mod q find the
    # same sorted roots, on random polynomials and products of linear
    # factors, lowest degree first
    rng = random.Random(q)
    for _ in range(25):
        n = rng.randint(1, 12)
        ints = [rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)]
        ints += [rng.choice([1, -1]) * rng.randint(1, q - 1) if q > 2 else 1]
        if rng.random() < 0.5:  # a product of linear factors mod q
            ints = [1]
            for r in rng.sample(range(q), min(n, q)):
                ints = [a - r * b for a, b in zip([0] + ints, ints + [0])]
        assert _roots_mod(ints, q) == _roots_mod_by_gf_factor(ints, q)


_EVAL_FIELDS = [(-2, 0, 1), (1, 1, 1), (1, -3, 0, 5, 0, -3, 1), (-1, 1)]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_EVAL_FIELDS),
       # the fractions with |c| < 10^4 and denominator at most 50, and with
       # |c| < 100 and denominator at most 12, as bounds rather than filters
       st.lists(st.fractions(min_value=-10 ** 4 + Fraction(1, 50),
                             max_value=10 ** 4 - Fraction(1, 50), max_denominator=50),
                min_size=1, max_size=6),
       st.lists(st.fractions(min_value=-100 + Fraction(1, 12),
                             max_value=100 - Fraction(1, 12), max_denominator=12),
                min_size=0, max_size=9))
def test_eval_poly_matches_fraction_horner(coeffs, a_coords, p_coeffs):
    field = make_field(list(coeffs))
    a = field.element(a_coords[:field.degree])
    p = Poly(p_coeffs)
    # Horner over Q[x] with Fraction coefficients, reduced mod m_F each step
    acc = Poly()
    for c in reversed(p.coeffs):
        acc = divmod(acc * Poly(a.coords) + Poly([c]), field.defining_poly)[1]
    expected = list(acc.coeffs) + [0] * (field.degree - len(acc.coeffs))
    value = eval_poly(p, a)
    assert list(value.coords) == expected
    assert value == field.element(expected)


def _exact(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize("name", CORPUS_NAMES)
@pytest.mark.parametrize("bits", [53, DEFAULT_PRECISION_BITS])
def test_embedding_bound_covers_the_exact_majorant(name, bits):
    # with A the coordinate polynomial, z = x + iy the root's center and r
    # its radius, the bound must cover D r + |w - A(z)| for
    # D = sum k |c_k| (|z| + r)^(k-1), all in exact rationals; |z| is
    # rounded up at 2^-1100
    field = make_field(bundled_scenario(name).field.defining_poly, bits)
    rng = random.Random(name)
    elements = [field.theta(), field.from_rational(Fraction(1, 3))]
    elements += [field.element([Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                                for _ in range(field.degree)]) for _ in range(4)]
    scale = 2 ** 1100
    for a in elements:
        cs = a.coords
        with locked_workprec(bits):
            images = eval_at_embeddings(a, field.embeddings)
        for root, (w, delta) in zip(field.embeddings, images):
            x, y = _exact(mpmath.re(root.value)), _exact(mpmath.im(root.value))
            r = Fraction(root.radius)
            sq = (x * x + y * y) * scale * scale
            big_r = Fraction(math.isqrt(sq.numerator // sq.denominator) + 1, scale) + r
            deriv = sum(k * abs(c) * big_r ** (k - 1) for k, c in enumerate(cs) if k)
            majorant = sum(abs(c) * big_r ** k for k, c in enumerate(cs))
            ar, ai = Fraction(0), Fraction(0)
            for c in reversed(cs):
                ar, ai = ar * x - ai * y + c, ar * y + ai * x
            err = (_exact(mpmath.re(w)) - ar) ** 2 + (_exact(mpmath.im(w)) - ai) ** 2
            slack = Fraction(delta) - deriv * r
            assert slack >= 0 and slack * slack >= err
            assert Fraction(delta) <= (deriv * r * (1 + Fraction(1, 2 ** 40))
                                       + majorant / 2 ** (bits - 20))


def _gram_schmidt(rows):
    out = []
    for v in rows:
        w = [Fraction(x) for x in v]
        for u in out:
            mu = sum(a * b for a, b in zip(v, u)) / sum(b * b for b in u)
            w = [a - mu * b for a, b in zip(w, u)]
        out.append(w)
    return out


def test_lll_and_nearest_plane_on_random_lattices():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 6)
        rows = [[rng.randint(-10 ** 6, 10 ** 6) for _ in range(n)] for _ in range(n)]
        lattice = ReducedLattice(rows)
        basis = lattice.basis
        assert abs(sympy.Matrix(basis).det()) == abs(sympy.Matrix(rows).det())
        star = _gram_schmidt(basis)
        norms = [sum(x * x for x in v) for v in star]
        for i in range(n):
            mus = [sum(a * b for a, b in zip(basis[i], star[j])) / norms[j]
                   for j in range(i)]
            assert all(abs(mu) <= Fraction(1, 2) for mu in mus)
            if i:
                assert norms[i] >= (Fraction(3, 4) - mus[-1] ** 2) * norms[i - 1]
        target = [rng.randint(-10 ** 8, 10 ** 8) for _ in range(n)]
        residual = lattice.nearest_plane_residual(target)
        # target - residual is a lattice vector, and the residual lies in
        # the box spanned by half of each Gram-Schmidt vector
        coeffs = sympy.Matrix(basis).T.solve(
            sympy.Matrix([t - r for t, r in zip(target, residual)]))
        assert all(c.is_integer for c in coeffs)
        for v, norm in zip(star, norms):
            assert abs(sum(a * b for a, b in zip(residual, v))) <= norm / 2


def test_hensel_lift():
    # x^2 - 2 has the simple root 3 mod 7
    r = hensel_lift([-2, 0, 1], 3, 7, 40)
    assert r % 7 == 3 and (r * r - 2) % 7 ** 40 == 0


# x^3 - 2 is refused in test_make_field_rejects_non_galois
@pytest.mark.parametrize("coeffs", [
    pytest.param([-2, 0, 0, 0, 1], id="x^4-2"),
    pytest.param([1, -1, 0, 0, 0, 1], id="x^5-x+1"),
])
def test_non_galois_fields_refused(coeffs):
    with pytest.raises(NotGalois):
        make_field(coeffs)


@pytest.mark.parametrize("coeffs", [
    pytest.param((-2, 0, 0, 1), id="x^3-2"),
    pytest.param((-2, 0, 0, 0, 1), id="x^4-2"),
    pytest.param((-2, 0, 0, 0, 0, 0, 1), id="x^6-2"),
    pytest.param((3, -1, 0, 1), id="x^3-x+3"),
])
def test_not_galois_refused_before_the_embeddings(coeffs, monkeypatch):
    def fail(*args):
        raise AssertionError("embeddings certified before the Galois check")

    monkeypatch.setattr(numberfield, "galois_roots", fail)
    with pytest.raises(NotGalois):
        _make_field_cached.__wrapped__(coeffs, DEFAULT_PRECISION_BITS)


def test_real_embeddings_told_without_the_sturm_count(monkeypatch):
    # the real flags come from the certified disks alone; real_root_count
    # stays in polynomials as the tests' independent check of them
    import sys

    fields = [tuple(doc["field"]) for doc in scenario_documents()] + list(LADDER)
    n_real = [real_root_count(Poly(coeffs)) for coeffs in fields]

    def refuse(*_args):
        raise AssertionError("real roots counted by a Sturm sequence")

    for name, module in list(sys.modules.items()):
        if name.startswith("heightlab") and hasattr(module, "real_root_count"):
            monkeypatch.setattr(module, "real_root_count", refuse)
    built = [_make_field_cached.__wrapped__(coeffs, DEFAULT_PRECISION_BITS)
             for coeffs in fields]
    assert [sum(r.is_real for r in f.embeddings) for f in built] == n_real


def test_not_galois_refused_by_a_lift_that_misses():
    # x^3 - x + 3 has a root mod 3 at every residue, so _split_prime takes
    # q = 3, and only the lift above another root than theta's, which has
    # none in the field, tells that the field is not Galois
    assert _split_prime(WorkingField(Poly([3, -1, 0, 1]), 64), 1) == (3, 0)
    with pytest.raises(NotGalois, match="above its root 1 mod 3"):
        make_field([3, -1, 0, 1])


def _reference_structure(field):
    """The automorphism images, composition and inverse tables and torsion
    generator as built from every root of m_F in F, and from every root of
    each Phi_{p^k} dividing the torsion order."""
    theta = field.theta()
    images = sorted(roots_in_field(field.defining_poly, field),
                    key=lambda r: (r != theta, r.coords))
    autos = [numberfield.Automorphism(field, i, img) for i, img in enumerate(images)]
    by_image = {img: i for i, img in enumerate(images)}
    comp = tuple(tuple(by_image[s(img)] for img in images) for s in autos)
    inv = tuple(row.index(0) for row in comp)
    gen = field.one()
    for p, k in sympy.factorint(field.torsion_order).items():
        if p ** k == 2:
            gen = -gen
        else:
            gen = gen * roots_in_field(cyclotomic(p ** k), field)[0]
    return images, comp, inv, gen


_LADDER = [tuple(doc["field"]) for doc in scenario_documents()] + list(LADDER)
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
galois_fields = st.one_of(
    st.sampled_from(_LADDER),
    # Q(sqrt(d))
    st.integers(-60, 60).filter(
        lambda d: d not in (0, 1) and max(sympy.factorint(d).values()) == 1
    ).map(lambda d: (-d, 0, 1)),
    # Shanks' simplest cubics, cyclic
    st.integers(0, 60).map(lambda a: (-1, -(a + 3), -a, 1)),
    # Q(sqrt(p), sqrt(q)) and Q(sqrt(-p), sqrt(q))
    st.lists(st.sampled_from(_PRIMES), min_size=2, max_size=2, unique=True).map(
        lambda pq: ((pq[0] - pq[1]) ** 2, 0, -2 * (pq[0] + pq[1]), 0, 1)),
    st.lists(st.sampled_from(_PRIMES[2:]), min_size=2, max_size=2, unique=True).map(
        lambda pq: ((pq[0] + pq[1]) ** 2, 0, 2 * (pq[0] - pq[1]), 0, 1)),
)


@settings(max_examples=40, deadline=None)
@given(galois_fields)
def test_group_from_generators_matches_all_roots(coeffs):
    field = make_field(list(coeffs))
    images, comp, inv, gen = _reference_structure(field)
    assert [a.theta_image for a in field.automorphisms] == images
    assert [a.index for a in field.automorphisms] == list(range(field.degree))
    assert field._comp_table == comp
    assert field._inv_table == inv
    assert field.torsion_generator == gen


@pytest.mark.parametrize("n, order", [(13, 26), (21, 42)])
def test_degree_12_cyclotomic_fields(n, order):
    field = make_field([int(c) for c in cyclotomic(n).coeffs])
    assert field.torsion_order == order
    autos = field.automorphisms
    assert len(autos) == 12
    for sigma in autos:
        assert eval_poly(field.defining_poly, sigma.theta_image).is_zero()
    comp = field._comp_table
    indices = set(range(12))
    assert autos[0].theta_image == field.theta()
    for i in range(12):
        assert set(comp[i]) == indices
        assert comp[0][i] == comp[i][0] == i
        for j in range(12):
            assert (autos[comp[i][j]].theta_image
                    == autos[i](autos[j].theta_image))
            for k in range(12):
                assert comp[comp[i][j]][k] == comp[i][comp[j][k]]


# -- subfields and the Galois correspondence ---------------------------------


def test_subfield_trivial_cases(field_biquad):
    f = field_biquad
    q = subfield(f, [])
    assert q.degree_over_Q == 1
    assert len(q.fixing_indices) == 4
    full = subfield(f, [f.theta()])
    assert full.degree_over_Q == 4
    assert full.fixing_indices == (0,)


def test_subfield_sqrt2(field_biquad):
    f = field_biquad
    sqrt2 = f.element([0, -3, 0, 1])  # t^3 - 3t
    k = subfield(f, [sqrt2])
    assert len(k.fixing_indices) == 2
    assert k.degree_over_Q == 2
    assert k.contains(sqrt2)
    assert k.contains(f.from_rational(7))
    assert not k.contains(f.theta())


def test_fixed_field_degree_by_orbit(field_cbrt2):
    # orbit size of the generator under the fixing group equals [F:K]
    f = field_cbrt2
    cbrt2 = f.element([1, 1, -1, 0, 0, 0])
    k = subfield(f, [cbrt2])
    assert k.degree_over_Q == 3
    orbit = {f.automorphisms[i](f.theta()).coords for i in k.fixing_indices}
    assert len(orbit) == len(k.fixing_indices) == 2


def test_galois_condition_quadratics(field_biquad):
    f = field_biquad
    k1 = subfield(f, [f.element([0, -3, 0, 1])])
    k2 = subfield(f, [f.element([-2, 0, 1, 0])])
    assert galois_condition(k1, k2)
    assert galois_condition(k1, k1)


def test_galois_condition_cubic_pair_fails(field_cbrt2):
    f = field_cbrt2
    cbrt2 = f.element([1, 1, -1, 0, 0, 0])
    om_cbrt2 = f.element([-5, 5, 10, -3, -5, 2])
    k1 = subfield(f, [cbrt2])
    k2 = subfield(f, [om_cbrt2])
    assert k1.degree_over_Q == 3 and k2.degree_over_Q == 3
    assert not galois_condition(k1, k2)
    # symmetric evaluation
    assert not galois_condition(k2, k1)
    # the quadratic subfield pairs fine with either cubic
    omega = f.element([-4, 4, 8, -2, -5, 2])
    k3 = subfield(f, [omega])
    assert galois_condition(k1, k3) and galois_condition(k3, k1)


def test_whole_and_rational_subfields(field_sqrt2):
    assert whole_field(field_sqrt2).degree_over_Q == 2
    assert rational_subfield(field_sqrt2).degree_over_Q == 1


# -- certified embeddings ----------------------------------------------------


def test_embeddings_real_split(field_biquad, field_zeta3):
    assert all(r.is_real for r in field_biquad.embeddings)
    assert not any(r.is_real for r in field_zeta3.embeddings)


def _family_members(seeds=(1, 2, 3)):
    """The Galois family members (quadratic fields, simplest cubics, real
    and imaginary biquadratics) of the first field-build benchmark block of
    each seed, drawn by perfbench/workloads.py."""
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "workloads.py"
    stream = runpy.run_path(str(path))["FieldBuildStream"]
    ladder = set(_LADDER)
    members = [tuple(b.coeffs) for seed in seeds
               for b in stream(seed, scenario_documents()).block()]
    return [c for c in dict.fromkeys(members) if c not in ladder]


_FAMILY = _family_members()
_SMALL_CYCLOTOMIC = [tuple(int(c) for c in cyclotomic(n).coeffs)
                     for n in range(3, 91) if sympy.totient(n) <= 24]


@functools.lru_cache(maxsize=None)
def _group(coeffs):
    """(theta images, composition table, binary64 roots) of the field, as
    make_field finds them and passes them to galois_roots; they do not
    depend on the precision."""
    field = WorkingField(Poly(coeffs), 64)
    autos, comp, _ = numberfield._galois_group(field)
    images = [(a.theta_image.num, a.theta_image.den) for a in autos]
    return images, comp, field._float_conjugates


def _outcome(route, *args):
    try:
        return route(*args)
    except PrecisionExhausted as exc:
        return str(exc)


def _exact_mirror(a, b) -> bool:
    """b is the exact complex conjugate of a, with the same radius."""
    (x, y), (u, v) = a.value._mpc_, b.value._mpc_
    return (u, v) == (x, mpf_neg(y)) and a.radius == b.radius


@pytest.mark.parametrize("bits", [8, 16, 53, 256, 1100])
def test_galois_roots_match_certified_roots(bits):
    # every disk of the Galois route holds the root in the disk of the same
    # index from Durand-Kerner on all roots, except where two roots of a
    # conjugate pair tie in their real parts: there the Galois route, whose
    # partners are exact mirror images, puts -im first, and Durand-Kerner
    # orders them by the last bits of its approximations
    fields = _LADDER + _FAMILY + _SMALL_CYCLOTOMIC
    certified = 0
    for coeffs in dict.fromkeys(fields):
        p = Poly(coeffs)
        new = _outcome(galois_roots, p, *_group(coeffs), bits)
        old = _outcome(certified_roots, p, bits)
        if isinstance(new, str) or isinstance(old, str):
            assert new == old, (coeffs, bits)
            continue
        certified += 1
        new, classes, _ = new
        old_disks = [roots._disk(r.value, r.radius) for r in old]
        for i, r in enumerate(new):
            j = roots._meeting_disk(old_disks, roots._disk(r.value, r.radius), "no match")
            assert j == i or (abs(j - i) == 1 and _exact_mirror(r, new[j])), (coeffs, bits, i)
        assert [r.is_real for r in new] == [r.is_real for r in old]
        assert classes == roots.archimedean_classes(old, roots._conjugate_partners(old_disks))
    assert certified >= len(set(fields)) // 2


def test_conjugate_embeddings_tie_exactly():
    for coeffs in _LADDER + _FAMILY:
        field = make_field(list(coeffs))
        for cls in field.archimedean_classes:
            if len(cls) == 2:
                i, j = cls
                first, second = field.embeddings[i], field.embeddings[j]
                assert j == i + 1 and _exact_mirror(first, second)
                assert first.value.real == second.value.real and first.value.imag < 0


def test_galois_roots_refuse_a_wrong_conjugation():
    # complex conjugation on Q(zeta_8) is t -> t^-1 = -t^3; with it hidden
    # from the involutions of the table, another one pairs the roots, its
    # mirror images land on computed disks and the separation check refuses
    coeffs = (1, 0, 0, 0, 1)
    images, comp, starts = _group(coeffs)
    c = images.index(((0, 0, 0, -1), 1))
    wrong = [list(row) for row in comp]
    wrong[c][c] = c
    assert galois_roots(Poly(coeffs), images, comp, starts)
    with pytest.raises(PrecisionExhausted, match="could not separate"):
        galois_roots(Poly(coeffs), images, wrong, starts)


def test_galois_roots_certify_the_conjugation():
    # on Q(zeta_8), with one involution other than complex conjugation left
    # in the table, either its mirror images land on computed disks and the
    # separation check refuses, or the disks separate and the enclosure of
    # its image of theta_1 misses the mirror of theta_1's disk, and the label
    # check refuses; with conjugation itself left the roots certify
    coeffs = (1, 0, 0, 0, 1)
    images, comp, starts = _group(coeffs)
    involutions = [j for j in range(1, 4) if comp[j][j] == 0]
    outcomes = {}
    for kept in involutions:
        table = [list(row) for row in comp]
        for j in involutions:
            if j != kept:
                table[j][j] = j
        outcomes[kept] = _outcome(galois_roots, Poly(coeffs), images, table, starts, 256)
    assert not isinstance(outcomes.pop(images.index(((0, 0, 0, -1), 1))), str)
    assert sorted(outcomes.values()) == ["could not separate roots at 256 bits",
                                         "real/complex classification ambiguous"]


def test_galois_roots_outside_the_float_range():
    # binary64 cannot hold these coefficients, so theta_1 comes from
    # Durand-Kerner at the working precision; the outcome is certified_roots'
    # (at 256 bits the big root of the first has a radius beyond the float
    # range, and both routes refuse)
    for coeffs in [(1, -10 ** 400, 1), (10 ** 400 + 1, 0, 1)]:
        p = Poly(coeffs)
        assert roots._float_starts(p) is None
        for bits in (53, 256, 1100):
            new = _outcome(galois_roots, p, *_group(coeffs), bits)
            old = _outcome(certified_roots, p, bits)
            if isinstance(old, str):
                assert new == old
                continue
            assert [r.is_real for r in new[0]] == [r.is_real for r in old]
            for a, b in zip(new[0], old):
                assert roots._may_meet(roots._disk(a.value, a.radius),
                                       roots._disk(b.value, b.radius))
    assert isinstance(_outcome(certified_roots, Poly((1, -10 ** 400, 1)), 256), str)


def test_torsion_skips_roots_of_unity_the_group_excludes(monkeypatch):
    # Q(sqrt(-19), sqrt(5)) splits first at 11, 61 and 101, and 5 divides
    # 10, 60 and 100, but zeta_5 in the field needs an automorphism of
    # order 4, and its Galois group is the Klein group
    tried = []
    lift = numberfield._lift_root

    def recording(field, f_ints, *args):
        tried.append(Poly(f_ints))
        return lift(field, f_ints, *args)

    monkeypatch.setattr(numberfield, "_lift_root", recording)
    field = _make_field_cached.__wrapped__((576, 0, 28, 0, 1), DEFAULT_PRECISION_BITS)
    assert field.torsion_order == 2
    assert numberfield._automorphism_orders(field) == {1, 2}
    assert cyclotomic(5) not in tried


def test_torsion_unchanged_by_the_group_bound(monkeypatch):
    # every lambda(n) with phi(n) | d divides d!, so these orders let every
    # prime power through, as before the Galois group bounded the search
    fields = [make_field(list(coeffs)) for coeffs in _LADDER + _FAMILY]
    found = [numberfield._torsion_structure(f) for f in fields]
    monkeypatch.setattr(numberfield, "_automorphism_orders",
                        lambda field: {math.factorial(field.degree)})
    assert [numberfield._torsion_structure(f) for f in fields] == found
    assert [(f.torsion_order, f.torsion_generator) for f in fields] == found


# -- the first lift precision ------------------------------------------------


def _swinnerton_dyer(n):
    x = sympy.Symbol("x")
    return tuple(int(c) for c in reversed(
        sympy.Poly(swinnerton_dyer_poly(n, x), x).all_coeffs()))


# the corpus, the field-build ladder, three benchmark blocks of each Galois
# family, the cyclotomic fields of degree 12 to 24 and SD(4), of degree 16
_ONE_REDUCTION = list(dict.fromkeys(
    _LADDER + _FAMILY + [cyclotomic(n).num for n in (13, 21, 35, 45, 48)]
    + [_swinnerton_dyer(4)]))


def _surplus_reductions(fields):
    """(coeffs, reductions, split primes) for each field among fields whose
    cold build reduces more lattices than it uses split primes."""
    reductions = []

    class Counting(ReducedLattice):
        def __init__(self, rows):
            reductions.append(len(rows))
            super().__init__(rows)

    surplus = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numberfield, "ReducedLattice", Counting)
        for coeffs in fields:
            reductions.clear()
            field = _make_field_cached.__wrapped__(coeffs, DEFAULT_PRECISION_BITS)
            if len(reductions) != len(field._lattice_cache):
                surplus.append((coeffs, len(reductions), len(field._lattice_cache)))
    return surplus


def test_one_reduction_per_split_prime():
    # every lift of a cold build starts at _lift_start's estimate, which is
    # high enough that none misses, and the lifts after the first reuse its
    # lattice
    assert _surplus_reductions(_ONE_REDUCTION) == []


def test_a_start_of_one_fails_the_reduction_count(monkeypatch):
    # the count notices a start that is too low: from k = 1 most fields miss
    # and reduce again
    monkeypatch.setattr(numberfield, "_lift_start", lambda field, q, bits, k_max: 1)
    assert len(_surplus_reductions(_ONE_REDUCTION)) > len(_ONE_REDUCTION) // 2


def _structure_and_roots(coeffs, polys):
    """A cold build's automorphism images, composition table and torsion
    generator, and the roots in it of each of polys, as coordinates."""
    field = _make_field_cached.__wrapped__(coeffs, DEFAULT_PRECISION_BITS)
    return ([a.theta_image.coords for a in field.automorphisms], field._comp_table,
            field.torsion_generator.coords,
            [[r.coords for r in roots_in_field(p, field)] for p in polys])


@settings(max_examples=30, deadline=None)
@given(galois_fields,
       st.lists(st.lists(st.integers(-5, 5), min_size=2, max_size=4)
                .filter(lambda c: any(c[1:])), max_size=2),
       st.lists(st.lists(st.integers(-2, 2), min_size=8, max_size=8), max_size=2))
def test_the_start_changes_no_result(coeffs, small, coords):
    # an estimate that starts too high only costs time, and one that starts
    # too low a further reduction: every lift started at k_max finds the
    # same automorphisms, torsion generator and roots.  The polynomials are
    # small ones, mostly without roots in F; minimal polynomials of
    # elements, all of whose roots are in F, times a small one; and
    # x^e - 2 for the least prime e not dividing [F:Q], irreducible by
    # Eisenstein, whose root would generate a subfield of degree e
    d = len(coeffs) - 1
    field = make_field(list(coeffs))
    polys = [Poly(c) for c in small]
    for c in coords:
        if any(c[:d]):
            polys.append(minimal_polynomial(field.element(c[:d])) * polys[0]
                         if polys else minimal_polynomial(field.element(c[:d])))
    e = next(p for p in _PRIMES if d % p)
    polys.append(Poly([-2] + [0] * (e - 1) + [1]))
    estimated = _structure_and_roots(coeffs, polys)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(numberfield, "_lift_start", lambda field, q, bits, k_max: k_max)
        assert _structure_and_roots(coeffs, polys) == estimated
    assert estimated[3][-1] == []
    assert estimated[0] == [a.theta_image.coords for a in field.automorphisms]


def test_lifts_without_binary64_conjugates():
    # binary64 cannot represent m_F = x^2 + 10^400 + 1, so its lifts start
    # at q^k near 2^(d^2/2), here k = 1, and find the roots by the miss
    # ladder, which ends in the proof at k_max where there is none
    big = 10 ** 400 + 1
    field = _make_field_cached.__wrapped__((big, 0, 1), DEFAULT_PRECISION_BITS)
    assert field._float_conjugates is None
    q, _ = _split_prime(field, 1)
    assert numberfield._lift_start(field, q, 0.0, 100) == 1
    theta = field.theta()
    assert [a.theta_image for a in field.automorphisms] == [theta, -theta]
    assert roots_in_field(Poly([big, 0, 1]), field) == [-theta, theta]
    # 7 is a square mod 3, but not in F
    assert _split_prime(field, 28) == (q, 1) and q == 3
    assert roots_in_field(Poly([-7, 0, 1]), field) == []
    assert field._lattice_cache[q][0] >= _precision_bound(field, [-7, 0, 1], q)


def test_embeddings_match_defining_poly(field_cbrt2):
    import mpmath
    m = field_cbrt2.defining_poly
    with mpmath.workprec(300):
        for r in field_cbrt2.embeddings:
            val = abs(sum(mpmath.mpf(int(c)) * mpmath.mpc(r.value) ** k
                          for k, c in enumerate(m.coeffs)))
            assert val < mpmath.mpf(10) ** -40
            assert r.radius < 1e-40


def test_precision_exhausted_on_close_roots():
    # roots +-1e-10 cannot be separated with an 8-bit working precision
    with pytest.raises(PrecisionExhausted):
        certified_roots(Poly([Fraction(-1, 10 ** 20), 0, 1]), bits=8)


def test_norm_multiplicative(field_biquad):
    rng = random.Random(7)
    for _ in range(10):
        a, b = rand_elem(field_biquad, rng), rand_elem(field_biquad, rng)
        assert (a * b).norm() == a.norm() * b.norm()


def _norm_field(name):
    if name.startswith("phi"):
        return make_field([int(c) for c in cyclotomic(int(name[3:])).coeffs])
    return bundled_scenario(name).field


CHAIN_FIELDS = CORPUS_NAMES + ["phi13", "phi21"]


def _generated(field, indices) -> frozenset:
    """The subgroup generated by the automorphism indices, by composing
    until nothing new appears."""
    comp = field._comp_table
    group = {0} | set(indices)
    while True:
        more = {comp[i][j] for i in group for j in group} - group
        if not more:
            return frozenset(group)
        group |= more


@functools.lru_cache(maxsize=None)
def _subgroups(name) -> tuple:
    """Every subgroup of the Galois group, as a sorted index tuple: each one
    is reached from the trivial group by adding one element at a time."""
    f = _norm_field(name)
    found = {frozenset({0})}
    frontier = list(found)
    while frontier:
        h = frontier.pop()
        for g in range(f.degree):
            k = _generated(f, h | {g})
            if k not in found:
                found.add(k)
                frontier.append(k)
    return tuple(sorted(tuple(sorted(h)) for h in found))


@pytest.mark.parametrize("name", CORPUS_NAMES + ["phi13"])
def test_norm_matches_resultant(name):
    # the conjugate product against Res(m_F, A), A the coordinate polynomial
    f = _norm_field(name)
    rng = random.Random(f"norm:{name}")
    elements = [f.zero(), f.one(), f.from_rational(Fraction(-7, 3)),
                f.torsion_generator, -f.torsion_generator ** 2]
    for _ in range(8):
        elements.append(f.element([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                                   for _ in range(f.degree)]))
    for a in elements:
        assert a.norm() == resultant(f.defining_poly, Poly(a.coords))
    assert f.from_rational(Fraction(-7, 3)).norm() == Fraction(-7, 3) ** f.degree
    assert abs(f.torsion_generator.norm()) == 1


@pytest.mark.parametrize("name", CHAIN_FIELDS)
@settings(max_examples=25, deadline=None)
@given(u=st.lists(small_fractions, min_size=12, max_size=12))
def test_inverse_is_inverse(name, u):
    f = _norm_field(name)
    a = f.element(u[:f.degree])
    if a.is_zero():
        return
    inverse = normal(a.inverse())
    assert inverse * a == f.one()
    # the Euclidean inverse modulo m_F as an independent oracle
    assert inverse == f.element(inverse_mod(Poly(a.coords), f.defining_poly).coeffs)


@pytest.mark.parametrize("name", CHAIN_FIELDS)
def test_subgroup_chain_steps(name):
    # every step is a subgroup, the union of the disjoint cosets of the one
    # before, and the indices multiply to |H|
    f = _norm_field(name)
    comp = f._comp_table
    for group in _subgroups(name):
        chain = numberfield._subgroup_chain(f, group)
        assert numberfield._subgroup_chain(f, group) is chain
        current, order = frozenset({0}), 1
        for reps in chain:
            assert 0 not in reps
            cosets = [{comp[t][h] for h in current} for t in (0, *reps)]
            step = frozenset().union(*cosets)
            assert sum(map(len, cosets)) == len(step)
            assert _generated(f, step) == step > current
            current, order = step, order * len(cosets)
        assert current == frozenset(group)
        assert order == len(group)


@pytest.mark.parametrize("name", CHAIN_FIELDS)
@settings(max_examples=15, deadline=None)
@given(u=st.lists(small_fractions, min_size=12, max_size=12))
def test_chain_norm_matches_conjugate_product(name, u):
    # the relative norm of every subfield against the flat product of
    # sigma(a) over its fixing group
    f = _norm_field(name)
    a = f.element(u[:f.degree])
    for group in _subgroups(name):
        flat = functools.reduce(operator.mul, (f.automorphisms[i](a) for i in group))
        assert numberfield.Subfield(f, [], group).norm(a) == flat


@pytest.mark.parametrize("name", CHAIN_FIELDS)
@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("element", "subfield", "rational", "zero")),
       u=st.lists(st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 10**6)),
                  min_size=12, max_size=12),
       data=st.data())
def test_minimal_polynomial_matches_the_product_expansion(name, kind, u, data):
    # the trace route against prod (x - c) over the distinct conjugates c,
    # on elements whose coordinates have denominators up to 10^6, their
    # relative norms to subfields (the fixed field of a subgroup H, where
    # e = d / |H|), rationals (e = 1) and zero
    f = _norm_field(name)
    a = f.element(u[:f.degree])
    if kind == "subfield":
        group = data.draw(st.sampled_from(_subgroups(name)))
        a = numberfield.Subfield(f, [], group).norm(a)
    elif kind == "rational":
        a = f.from_rational(u[0])
    elif kind == "zero":
        a = f.zero()
    conjugates = list(dict.fromkeys(s(a) for s in f.automorphisms))
    assert minimal_polynomial(a) == _expanded_product(conjugates)


def test_inverse_refuses_irrational_norm(field_sqrt2, monkeypatch):
    # with the automorphism t -> -t missing, the conjugate product of t is t
    f = field_sqrt2
    monkeypatch.setattr(f, "automorphisms", f.automorphisms[:1])
    with pytest.raises(WitnessFailure):
        f.theta().inverse()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_relative_norm_lies_in_subfield(name):
    sc = bundled_scenario(name)
    rng = random.Random(f"relnorm:{name}")
    for k in sc.subfields.values():
        for _ in range(4):
            a = rand_elem(sc.field, rng)
            n = k.norm(a)
            assert k.contains(n)
            assert n.norm() == a.norm() ** len(k.fixing_indices)


def test_norm_refuses_irrational_product(field_sqrt2, monkeypatch):
    # with the automorphism t -> -t missing, the product is t itself
    f = field_sqrt2
    monkeypatch.setattr(f, "automorphisms", f.automorphisms[:1])
    with pytest.raises(WitnessFailure):
        f.theta().norm()


def test_minpoly_divides_characteristic_poly(field_biquad):
    # char poly of multiplication by a = product over all automorphism
    # images of (x - sigma(a)); the minimal polynomial divides it
    rng = random.Random(8)
    f = field_biquad
    for _ in range(6):
        a = rand_elem(f, rng)
        char = _expanded_product([s(a) for s in f.automorphisms])
        mp = minimal_polynomial(a)
        assert (char % mp).is_zero()
        assert eval_poly(mp, a).is_zero()
