import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heightlab.corpus import bundled_corpus
from heightlab.errors import ZeroElement
from heightlab.heights import (
    GElement,
    g_combine,
    g_equal,
    g_height,
    g_sub,
    is_torsion,
    weil_height,
)
from heightlab.numberfield import minimal_polynomial
from heightlab.polynomials import Poly

LOG2 = math.log(2)
SILVER = math.log(1 + math.sqrt(2))


def close(h, expected, tol=1e-12):
    return abs(h.value - expected) <= tol + h.abs_error


# -- weil_height -------------------------------------------------------------


def test_height_examples(field_sqrt2):
    f = field_sqrt2
    assert weil_height(f.one()).value == 0.0
    assert close(weil_height(f.from_rational(2)), LOG2)
    assert close(weil_height(f.theta()), LOG2 / 2)
    assert close(weil_height(f.element([1, 1])), SILVER / 2)


def test_height_of_rationals(field_q):
    # h(p/q) = log max(|p|, |q|)
    for num, den in [(2, 1), (3, 5), (-7, 1), (22, 7), (1, 100)]:
        h = weil_height(field_q.from_rational(Fraction(num, den)))
        assert close(h, math.log(max(abs(num), den)))


def test_height_rejects_zero(field_sqrt2):
    with pytest.raises(ZeroElement):
        weil_height(field_sqrt2.zero())


def test_height_galois_invariance(field_biquad):
    rng = random.Random(3)
    for _ in range(10):
        coords = [rng.randint(-4, 4) for _ in range(4)]
        if not any(coords):
            continue
        a = field_biquad.element(coords)
        h = weil_height(a)
        for s in field_biquad.automorphisms:
            hs = weil_height(s(a))
            assert abs(hs.value - h.value) <= 2 * (h.abs_error + hs.abs_error) + 1e-12


def test_height_triangle_inequality(field_zeta8):
    rng = random.Random(4)
    for _ in range(10):
        a = field_zeta8.element([rng.randint(-3, 3) for _ in range(4)])
        b = field_zeta8.element([rng.randint(-3, 3) for _ in range(4)])
        if a.is_zero() or b.is_zero():
            continue
        ha, hb, hab = weil_height(a), weil_height(b), weil_height(a * b)
        bound = ha.value + hb.value + ha.abs_error + hb.abs_error \
            + 2 * hab.abs_error + 1e-12
        assert hab.value <= bound


# -- torsion -----------------------------------------------------------------


def test_torsion_examples(field_sqrt2, field_zeta3):
    assert is_torsion(field_sqrt2.from_rational(-1))
    assert not is_torsion(field_sqrt2.theta())
    # a primitive 6th root of unity in the zeta3 field
    zeta6 = -(field_zeta3.theta() ** 2)
    assert is_torsion(zeta6)
    assert (zeta6 ** 6) == field_zeta3.one()
    assert (zeta6 ** 3) != field_zeta3.one()


def test_torsion_rejects_zero(field_sqrt2):
    with pytest.raises(ZeroElement):
        is_torsion(field_sqrt2.zero())


def test_kronecker_consistency(field_zeta3, field_sqrt2):
    # torsion <=> height is an exact zero AND the minimal polynomial
    # divides x^w - 1; the exact branch is authoritative
    for f in (field_zeta3, field_sqrt2):
        w = f.torsion_order
        xw1 = Poly([-1] + [0] * (w - 1) + [1])
        for coords in [(1,) + (0,) * (f.degree - 1), (0, 1), (1, 1), (2, 0)]:
            a = f.element(coords)
            if a.is_zero():
                continue
            tors = is_torsion(a)
            h = weil_height(a)
            divides = (xw1 % minimal_polynomial(a)).is_zero()
            assert tors == (h.value <= h.abs_error and divides)


# -- the vector space modulo torsion ------------------------------------------


def test_gelement_canonical_form(field_sqrt2):
    f = field_sqrt2
    u = GElement(f, Fraction(-3, 2), f.from_rational(2))
    assert u.scale == Fraction(1, 2)
    assert u.base == f.from_rational(Fraction(1, 8))  # 2^-3
    z = GElement(f, 1, f.from_rational(-1))
    assert z.is_zero() and z.scale == 1 and z.base == f.one()


@settings(max_examples=80, deadline=None)
@given(index=st.integers(0, 6), coords=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       unit=st.booleans(), k=st.integers(0, 11),
       scale=st.fractions(min_value=-4, max_value=4, max_denominator=6))
def test_gelement_is_zero_reads_canonical_form(index, coords, unit, k, scale):
    # a base times a power of the torsion generator, at scales 0, integral
    # and fractional, of either sign; with unit set, the base is that power
    f = bundled_corpus()[index].field
    a = f.one() if unit or not any(coords[:f.degree]) else f.element(coords[:f.degree])
    base = a * f.torsion_generator ** k
    u = GElement(f, scale, base)
    assert u.is_zero() == is_torsion(u.base) == (scale == 0 or is_torsion(base))


def test_gelement_zero_base_rejected(field_sqrt2):
    with pytest.raises(ZeroElement):
        GElement(field_sqrt2, 1, field_sqrt2.zero())


def test_g_equal_examples(field_sqrt2):
    f = field_sqrt2
    beta = f.element([1, 1])
    assert g_equal(GElement.of(beta), GElement.of(-beta))
    assert g_equal(GElement(f, Fraction(1, 2), f.from_rational(2)),
                   GElement.of(f.theta()))
    assert not g_equal(GElement.of(f.from_rational(2)),
                       GElement.of(f.from_rational(3)))


def test_g_height_examples(field_sqrt2):
    f = field_sqrt2
    assert close(g_height(GElement(f, Fraction(1, 2), f.from_rational(2))), LOG2 / 2)
    zeta = GElement.of(f.from_rational(-1))
    h = g_height(zeta)
    assert h.value == 0.0 and h.abs_error == 0.0
    assert close(g_height(GElement(f, -3, f.from_rational(2))), 3 * LOG2)


def test_g_combine_examples(field_sqrt2, field_biquad):
    f = field_sqrt2
    beta = GElement.of(f.element([1, 1]))
    assert g_combine([beta, beta.negate()]).is_zero()
    half2 = GElement(f, Fraction(1, 2), f.from_rational(2))
    assert g_equal(g_combine([half2, half2]), GElement.of(f.from_rational(2)))
    # sqrt2 + sqrt3 = sqrt6 in the group
    fb = field_biquad
    sqrt2 = GElement.of(fb.element([0, -3, 0, 1]))
    sqrt3 = GElement.of(fb.element([-2, 0, 1]))
    sqrt6 = GElement.of(fb.element([0, -3, 0, 1]) * fb.element([-2, 0, 1]))
    assert g_equal(g_combine([sqrt2, sqrt3]), sqrt6)


@settings(max_examples=40, deadline=None)
@given(num=st.integers(-8, 8).filter(bool), den=st.integers(1, 8),
       c0=st.integers(-3, 3), c1=st.integers(-3, 3))
def test_scaling_law(num, den, c0, c1):
    from heightlab.numberfield import make_field
    f = make_field([-2, 0, 1])
    if c0 == 0 and c1 == 0:
        return
    a = f.element([c0, c1])
    q = Fraction(num, den)
    hq = g_height(GElement(f, q, a))
    h1 = g_height(GElement.of(a))
    assert abs(hq.value - abs(q) * h1.value) <= hq.abs_error + abs(q) * h1.abs_error + 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3),
       st.integers(-3, 3), st.integers(1, 4), st.integers(1, 4))
def test_g_equal_is_equivalence(a0, a1, b0, b1, s1, s2):
    from heightlab.numberfield import make_field
    f = make_field([-2, 0, 1])
    if (a0 == 0 and a1 == 0) or (b0 == 0 and b1 == 0):
        return
    u = GElement(f, Fraction(1, s1), f.element([a0, a1]))
    v = GElement(f, Fraction(1, s2), f.element([b0, b1]))
    assert g_equal(u, u)
    assert g_equal(u, v) == g_equal(v, u)
    if g_equal(u, v):
        w = GElement(f, Fraction(1, 3), f.element([1, 1]))
        if g_equal(v, w):
            assert g_equal(u, w)


def test_g_combine_commutative_associative(field_zeta8):
    rng = random.Random(9)
    f = field_zeta8
    terms = []
    for _ in range(3):
        coords = [rng.randint(-2, 2) for _ in range(4)]
        if not any(coords):
            coords[0] = 1
        terms.append(GElement(f, Fraction(rng.randint(1, 3), rng.randint(1, 3)),
                              f.element(coords)))
    x, y, z = terms
    assert g_equal(g_combine([x, y]), g_combine([y, x]))
    assert g_equal(g_combine([g_combine([x, y]), z]),
                   g_combine([x, g_combine([y, z])]))


def test_g_sub(field_sqrt2):
    u = GElement.of(field_sqrt2.element([1, 1]))
    assert g_sub(u, u).is_zero()


def test_nontorsion_heights_certified_positive(corpus):
    # the certified lower bound value - abs_error stays positive away from
    # torsion (Kronecker), at desk scale with huge margin
    for sc in corpus[:4]:
        for el in sc.elements.values():
            if el.is_zero() or is_torsion(el):
                continue
            h = weil_height(el)
            assert h.value - h.abs_error > 0


def test_height_agrees_with_mahler_oracle(corpus):
    # the embedding route of weil_height against the Mahler-measure route
    # kept in verify as criterion 1's independent oracle
    from heightlab.verify import _mahler_height, random_element

    for sc in corpus:
        rng = random.Random(f"mahler:{sc.name}")
        elements = [el for el in sc.elements.values() if not el.is_zero()]
        elements += [random_element(sc.field, rng) for _ in range(20)]
        for el in elements:
            h, h_m = weil_height(el), _mahler_height(el)
            assert abs(h.value - h_m.value) <= h.abs_error + h_m.abs_error + 1e-12


def test_archimedean_classes_computed_once_per_field(corpus, monkeypatch):
    # the classes are stored on the field by make_field; heights and place
    # vectors must not group the embeddings again
    import sys

    from heightlab.placespace import f_vector

    def answers():
        out = []
        for sc in corpus:
            for name in sorted(sc.elements)[:3]:
                el = sc.elements[name]
                if not el.is_zero():
                    out.append((weil_height(el), f_vector(GElement.of(el)).as_dict()))
        return out

    expected = answers()

    def refuse(*_args):
        raise AssertionError("archimedean classes recomputed")

    for name, module in list(sys.modules.items()):
        if name.startswith("heightlab") and hasattr(module, "archimedean_classes"):
            monkeypatch.setattr(module, "archimedean_classes", refuse)
    assert answers() == expected
