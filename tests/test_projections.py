import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heightlab import verify
from heightlab.corpus import bundled_scenario, scenario_documents
from heightlab.errors import NotConjugate, ZeroElement
from heightlab.cli import run_command
from heightlab.heights import GElement, g_combine, g_equal, g_sub
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


def test_verify_witness_rejects_mutations(biquad_setup):
    # at scale 1/2 the witness exponent q is a multiple of den = 2; the
    # intact witness passes, and each mutation must be refused by its check
    s = biquad_setup
    f = s["f"]
    spec = ProjectionSpec.build([s["K1"], s["K2"]])
    u = GElement(f, Fraction(1, 2), s["sqrt6"])
    w = is_member(u, spec).witness
    assert u.den == 2 and w.exponent % 2 == 0
    assert verify._verify_witness(u, spec, w)
    # q + 1 is no multiple of den, though u.base^((q + 1) // 2) would match
    odd = dataclasses.replace(w, exponent=w.exponent + 1)
    assert not verify._verify_witness(u, spec, odd)
    assert not verify._verify_witness(u, spec, dataclasses.replace(w, exponent=w.exponent + 2))
    # the same product, but the first factor times theta leaves K1
    t = f.theta()
    moved = dataclasses.replace(w, factors=(w.factors[0] * t, w.factors[1] / t))
    assert moved.factors[0] * moved.factors[1] == w.factors[0] * w.factors[1]
    assert not s["K1"].contains(moved.factors[0])
    assert not verify._verify_witness(u, spec, moved)


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


# -- repeated subfields --------------------------------------------------------


def _operator_chain(u, fields_D, fields_E=()):
    """W_N(u) as I - (I - P_1) o ... o (I - P_N), one operator per listed
    field, repeats included, applied right to left."""
    x = u
    for k in reversed(fields_E):
        x = s_project(x, k)  # I - T = S
    for k in reversed(fields_D):
        x = t_project(x, k)  # I - S = T
    return g_sub(u, x)


_REPEATED_D = [
    ("cbrt2_split", "K1,K3,Q,K1,K3,Q", "K1,K3,Q"),
    ("cbrt2_split", "K3,K3,K2", "K3,K2"),
    ("sqrt2_sqrt3", "K1,K2,K3,Q,K1,K2,K3,Q", "K1,K2,K3,Q"),
    ("zeta8", "Ki,Ksqrt2,Ki", "Ki,Ksqrt2"),
]


@pytest.mark.parametrize("name,repeated,distinct", _REPEATED_D,
                         ids=[f"{c[0]}:{c[1]}" for c in _REPEATED_D])
def test_repeated_subfields_give_the_distinct_answer(name, repeated, distinct):
    # S_K after S_K is S_K, and under the pairwise Galois condition the
    # projections commute, so a repeat changes no answer and adds no
    # witness factor; the report keeps the list as typed
    sc = bundled_scenario(name)
    rng = random.Random(name)
    named = [n for n in sorted(sc.elements) if not sc.elements[n].is_zero()]
    for text in ["3", "t", "1+t", "3+t-t^2", "2*t-1"] + rng.sample(named, 4):
        rep = run_command("member", sc, {"element": text, "D": repeated})
        ref = run_command("member", sc, {"element": text, "D": distinct})
        assert rep["condition_ok"] is True
        assert rep["D"] == repeated.split(",")
        for key in ("is_member", "d_part", "e_part", "condition_ok", "witness"):
            assert rep[key] == ref[key], (text, key)


@pytest.mark.parametrize("name", ["sqrt2_sqrt3", "cbrt2_split", "zeta8"])
@settings(max_examples=15, deadline=None)
@given(coords=st.lists(st.integers(-3, 3), min_size=6, max_size=6),
       scale=st.fractions(min_value=-2, max_value=2, max_denominator=3),
       data=st.data())
def test_deduplicated_spec_matches_the_operator_chain(name, coords, scale, data):
    # the spec drops repeats only under the pairwise Galois condition; the
    # answer equals the composite over the lists as drawn, repeats included
    sc = bundled_scenario(name)
    f = sc.field
    a = f.element(coords[:f.degree])
    assume(not a.is_zero() and scale)
    names = sorted(sc.subfields)
    d_names = data.draw(st.lists(st.sampled_from(names), min_size=1, max_size=5))
    e_names = data.draw(st.lists(st.sampled_from(names), max_size=2))
    fields_D = [sc.subfields[n] for n in d_names]
    fields_E = [sc.subfields[n] for n in e_names]
    spec = ProjectionSpec.build(fields_D, fields_E)
    if not spec.condition_ok:
        assert (spec.fields_D, spec.fields_E) == (tuple(fields_D), tuple(fields_E))
        return
    assert spec.fields_D == tuple(dict.fromkeys(fields_D))
    assert spec.fields_E == tuple(dict.fromkeys(fields_E))
    u = GElement(f, scale, a)
    res = is_member(u, spec)
    assert g_equal(res.d_part, _operator_chain(u, fields_D, fields_E))


def test_order_matters_without_the_condition():
    # on cbrt2_split, K1 and K2 (two cubic fields) violate the condition,
    # and D = Q, K1, K2, K1 differs from D = Q, K1, K2, so the spec keeps
    # the repeat
    sc = bundled_scenario("cbrt2_split")
    q, k1, k2 = (sc.subfields[n] for n in ("Q", "K1", "K2"))
    repeated = ProjectionSpec.build([q, k1, k2, k1])
    assert repeated.fields_D == (q, k1, k2, k1)
    rng = random.Random(20)
    moved = False
    for _ in range(20):
        u = rand_gel(sc.field, rng)
        d_part = composite_project(u, repeated)
        assert g_equal(d_part, _operator_chain(u, [q, k1, k2, k1]))
        moved |= not g_equal(d_part, composite_project(u, ProjectionSpec.build([q, k1, k2])))
    assert moved
