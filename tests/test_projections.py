import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heightlab import verify
from heightlab.corpus import bundled_scenario, scenario_documents
from heightlab.errors import NotConjugate, ZeroElement
from heightlab.heights import GElement, g_combine, g_equal
from heightlab.numberfield import rational_subfield, subfield
from heightlab.orbits import delta_K, in_kdiv
from heightlab.projections import (
    ProjectionSpec,
    check_commutes,
    check_conjugation,
    composite_project,
    is_member,
    operator_norm_check,
    s_project,
    t_project,
)
from heightlab.scenario import parse_scenario


@pytest.fixture(scope="module")
def biquad_setup(field_biquad):
    f = field_biquad
    sqrt2 = f.element([0, -3, 0, 1])
    sqrt3 = f.element([-2, 0, 1])
    return {
        "f": f,
        "sqrt2": sqrt2,
        "sqrt3": sqrt3,
        "sqrt6": sqrt2 * sqrt3,
        "K1": subfield(f, [sqrt2]),
        "K2": subfield(f, [sqrt3]),
    }


def rand_gel(field, rng, span=3):
    while True:
        coords = [rng.randint(-span, span) for _ in range(field.degree)]
        if any(coords):
            return GElement(field, Fraction(1, rng.randint(1, 3)),
                            field.element(coords))


# -- S and T ------------------------------------------------------------------


def test_s_fixes_subfield_elements(biquad_setup):
    s = biquad_setup
    u = GElement.of(s["sqrt2"])
    assert g_equal(s_project(u, s["K1"]), u)


def test_s_project_norm_example(biquad_setup):
    s = biquad_setup
    f = s["f"]
    u = GElement.of(f.one() + s["sqrt3"])
    image = s_project(u, s["K1"])
    expected = GElement(f, Fraction(1, 2), f.from_rational(-2))
    assert g_equal(image, expected)


def test_s_kills_conjugate_sum(biquad_setup):
    # (sqrt2+sqrt3)(sqrt3-sqrt2) = 1: projecting sqrt2+sqrt3 onto Q(sqrt3)
    s = biquad_setup
    u = GElement.of(s["sqrt2"] + s["sqrt3"])
    assert s_project(u, s["K2"]).is_zero()


def test_t_project_examples(biquad_setup):
    s = biquad_setup
    f = s["f"]
    u = GElement.of(f.one() + s["sqrt3"])
    tp = t_project(u, s["K1"])
    expected = GElement(f, Fraction(1, 2), -(f.from_rational(2) + s["sqrt3"]))
    assert g_equal(tp, expected)
    assert s_project(tp, s["K1"]).is_zero()
    # T of a subfield element is zero
    assert t_project(GElement.of(s["sqrt2"]), s["K1"]).is_zero()


def test_projection_laws_random(biquad_setup):
    s = biquad_setup
    rng = random.Random(31)
    for _ in range(15):
        u = rand_gel(s["f"], rng)
        for k in (s["K1"], s["K2"]):
            su, tu = s_project(u, k), t_project(u, k)
            assert g_equal(s_project(su, k), su)
            assert g_equal(g_combine([su, tu]), u)
            assert s_project(tu, k).is_zero()


@pytest.mark.parametrize("name", [doc["name"] for doc in scenario_documents()])
@settings(max_examples=15, deadline=None)
@given(coords=st.lists(st.integers(-4, 4), min_size=6, max_size=6),
       scale=st.fractions(min_value=-3, max_value=3, max_denominator=3),
       data=st.data())
def test_projection_laws_on_corpus(name, coords, scale, data):
    sc = bundled_scenario(name)
    f = sc.field
    a = f.element(coords[:f.degree])
    assume(not a.is_zero() and scale)
    u = GElement(f, scale, a)
    k = sc.subfields[data.draw(st.sampled_from(sorted(sc.subfields)))]
    sigma = data.draw(st.sampled_from(f.automorphisms))
    zeta = f.torsion_generator ** data.draw(st.integers(0, f.torsion_order - 1))
    su, tu = s_project(u, k), t_project(u, k)
    assert g_equal(s_project(su, k), su)
    assert g_equal(g_combine([su, tu]), u)
    assert s_project(tu, k).is_zero()
    # sigma o S_K = S_{sigma K} o sigma
    sigma_k = subfield(f, [sigma(g) for g in k.generators])
    assert g_equal(su.apply(sigma), s_project(u.apply(sigma), sigma_k))
    assert delta_K(a * zeta, k) == delta_K(a, k)


def test_fixed_point_characterization(biquad_setup):
    from heightlab.heights import is_torsion
    s = biquad_setup
    rng = random.Random(32)
    for _ in range(12):
        u = rand_gel(s["f"], rng)
        k = s["K1"]
        fixed = g_equal(s_project(u, k), u)
        ratios_torsion = all(
            is_torsion(s["f"].automorphisms[i](u.base) * u.base.inverse())
            for i in k.fixing_indices)
        assert fixed == ratios_torsion


# -- composite ----------------------------------------------------------------


def test_composite_single_field_is_s(biquad_setup):
    s = biquad_setup
    rng = random.Random(33)
    spec = ProjectionSpec.build([s["K1"]])
    for _ in range(8):
        u = rand_gel(s["f"], rng)
        assert g_equal(composite_project(u, spec), s_project(u, s["K1"]))


def test_composite_membership_anchors(biquad_setup):
    s = biquad_setup
    spec = ProjectionSpec.build([s["K1"], s["K2"]])
    assert spec.condition_ok
    u6 = GElement.of(s["sqrt6"])
    assert g_equal(composite_project(u6, spec), u6)
    s2s3 = GElement.of(s["sqrt2"] + s["sqrt3"])
    assert composite_project(s2s3, spec).is_zero()


def test_composite_idempotent(biquad_setup):
    s = biquad_setup
    rng = random.Random(34)
    spec = ProjectionSpec.build([s["K1"], s["K2"]])
    for _ in range(10):
        u = rand_gel(s["f"], rng)
        w = composite_project(u, spec)
        assert g_equal(composite_project(w, spec), w)


def test_two_field_expansion(biquad_setup):
    # W_2 = S_1 + S_2 - S_1 S_2
    s = biquad_setup
    rng = random.Random(35)
    spec = ProjectionSpec.build([s["K1"], s["K2"]])
    for _ in range(10):
        u = rand_gel(s["f"], rng)
        s1, s2 = s_project(u, s["K1"]), s_project(u, s["K2"])
        termwise = g_combine([s1, s2, s_project(s2, s["K1"]).negate()])
        assert g_equal(composite_project(u, spec), termwise)


# -- membership ---------------------------------------------------------------


def test_member_with_witness(biquad_setup):
    s = biquad_setup
    spec = ProjectionSpec.build([s["K1"], s["K2"]])
    res = is_member(GElement.of(s["sqrt6"]), spec)
    assert res.is_member and res.condition_ok
    w = res.witness
    assert w is not None
    # alpha^q = product of per-field factors, exactly
    product = s["f"].one()
    for factor, k in zip(w.factors, spec.fields_D):
        assert k.contains(factor)
        product = product * factor
    assert s["sqrt6"] ** w.exponent == product


def test_non_member(biquad_setup):
    s = biquad_setup
    spec = ProjectionSpec.build([s["K1"], s["K2"]])
    res = is_member(GElement.of(s["sqrt2"] + s["sqrt3"]), spec)
    assert not res.is_member
    assert res.witness is None
    assert g_equal(g_combine([res.d_part, res.e_part]),
                   GElement.of(s["sqrt2"] + s["sqrt3"]))


def test_random_cross_products_are_members(biquad_setup):
    s = biquad_setup
    f = s["f"]
    rng = random.Random(36)
    spec = ProjectionSpec.build([s["K1"], s["K2"]])
    for _ in range(8):
        b1 = f.from_rational(rng.randint(1, 5)) + rng.randint(-3, 3) * s["sqrt2"]
        b2 = f.from_rational(rng.randint(1, 5)) + rng.randint(-3, 3) * s["sqrt3"]
        if b1.is_zero() or b2.is_zero():
            continue
        res = is_member(GElement.of(b1 * b2), spec)
        assert res.is_member


def test_member_consistent_with_kdiv(biquad_setup):
    # single-field membership agrees with the divisible-hull decision
    s = biquad_setup
    rng = random.Random(37)
    spec = ProjectionSpec.build([s["K1"]])
    for _ in range(10):
        coords = [rng.randint(-3, 3) for _ in range(4)]
        if not any(coords):
            continue
        a = s["f"].element(coords)
        assert is_member(GElement.of(a), spec).is_member == bool(in_kdiv(a, s["K1"]))


def test_mixed_decomposition(biquad_setup):
    s = biquad_setup
    rng = random.Random(38)
    spec = ProjectionSpec.build([s["K1"]], [s["K2"]])
    for _ in range(10):
        u = rand_gel(s["f"], rng)
        res = is_member(u, spec)
        assert g_equal(g_combine([res.d_part, res.e_part]), u)
        assert g_equal(composite_project(res.d_part, spec), res.d_part)
        assert composite_project(res.e_part, spec).is_zero()
        assert res.witness is None  # mixed specs carry no witness


def test_condition_violating_spec_flagged(field_cbrt2):
    f = field_cbrt2
    k1 = subfield(f, [f.element([1, 1, -1, 0, 0, 0])])
    k2 = subfield(f, [f.element([-5, 5, 10, -3, -5, 2])])
    spec = ProjectionSpec.build([k1, k2])
    assert not spec.condition_ok
    res = is_member(GElement.of(f.from_rational(2)), spec)
    assert not res.condition_ok  # results carry the warning flag


# -- commuting and conjugation ---------------------------------------------------


def test_check_commutes_same_field(biquad_setup):
    s = biquad_setup
    rng = random.Random(39)
    testset = [rand_gel(s["f"], rng) for _ in range(10)]
    assert check_commutes(s["K1"], s["K1"], testset)
    assert check_commutes(s["K1"], s["K2"], testset)


def test_conjugation_identity(field_cbrt2):
    f = field_cbrt2
    cbrt2 = f.element([1, 1, -1, 0, 0, 0])
    om_cbrt2 = f.element([-5, 5, 10, -3, -5, 2])
    k1 = subfield(f, [cbrt2])
    k2 = subfield(f, [om_cbrt2])
    sigma = next(s for s in f.automorphisms if s(cbrt2) == om_cbrt2)
    rng = random.Random(40)
    testset = [rand_gel(f, rng, span=2) for _ in range(6)]
    assert check_conjugation(k1, k2, sigma, testset)
    # identity automorphism maps K1 to K1
    assert check_conjugation(k1, k1, f.identity_automorphism(), testset)


def test_conjugation_suite_finds_sigma_by_fixing_groups():
    # on Q(zeta_8), Q(sqrt2) from t - t^3 and from 2t - 2t^3 is one subfield,
    # and Q(sqrt-2) from t + t^3 another; sigma must map K onto L, not K's
    # generator onto L's
    doc = {"v": 1, "name": "zeta8_generators", "field": [1, 0, 0, 0, 1],
           "subfields": {"K": ["t-t^3"], "L": ["2*t-2*t^3"], "M": ["t+t^3"]},
           "checks": [{"suite": "conjugation", "K": "K", "L": "L"},
                      {"suite": "conjugation", "K": "L", "L": "K"},
                      {"suite": "conjugation", "K": "K", "L": "M"}]}
    checks, failures, _ = verify.suite_conjugation([parse_scenario(doc)])
    assert checks == 40
    assert failures == ["zeta8_generators: no automorphism maps K onto M"]


def test_conjugation_precondition(field_cbrt2):
    f = field_cbrt2
    cbrt2 = f.element([1, 1, -1, 0, 0, 0])
    omega = f.element([-4, 4, 8, -2, -5, 2])
    k1 = subfield(f, [cbrt2])
    k3 = subfield(f, [omega])
    with pytest.raises(NotConjugate):
        check_conjugation(k1, k3, f.identity_automorphism(), [])


# -- operator norms ---------------------------------------------------------------


def test_operator_norm_contraction(biquad_setup):
    s = biquad_setup
    rng = random.Random(41)
    for _ in range(8):
        u = rand_gel(s["f"], rng)
        image, original = operator_norm_check(u, s["K1"])
        assert image <= original + 1e-9


def test_operator_norm_fixed_point(biquad_setup):
    s = biquad_setup
    u = GElement.of(s["sqrt2"])
    image, original = operator_norm_check(u, s["K1"])
    assert abs(image - original) < 1e-12


def test_operator_norm_kernel(biquad_setup):
    s = biquad_setup
    u = t_project(GElement.of(s["f"].one() + s["sqrt3"]), s["K1"])
    # u is in the kernel: S u = 0 so the image norm vanishes
    image, original = operator_norm_check(u, s["K1"])
    assert image == 0.0 and original > 0.1


def test_operator_norm_rejects_zero(biquad_setup):
    with pytest.raises(ZeroElement):
        operator_norm_check(GElement.zero(biquad_setup["f"]), biquad_setup["K1"])


def test_spec_requires_fields():
    with pytest.raises(ValueError):
        ProjectionSpec.build([])
