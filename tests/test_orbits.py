import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_numberfield import CORPUS_NAMES, _norm_field, _subgroups

from heightlab.errors import ZeroElement
from heightlab.expressions import parse_element
from heightlab.heights import is_torsion, weil_height
from heightlab.numberfield import FieldElement, Subfield, rational_subfield, subfield
from heightlab.orbits import (
    degree_of_power,
    delta_K,
    in_kdiv,
    orbit_mod_torsion,
    vk_bounds,
    width_K,
)

SILVER = math.log(1 + math.sqrt(2))


def test_orbit_sqrt2_over_Q(field_sqrt2):
    q = rational_subfield(field_sqrt2)
    rep = orbit_mod_torsion(field_sqrt2.theta(), q)
    assert rep.delta == 1
    assert rep.conjugate_count == 2
    assert rep.width.value == 0.0 and rep.width.abs_error == 0.0
    # norm element: sqrt2 * (-sqrt2) = -2
    assert rep.norm_element == field_sqrt2.from_rational(-2)


def test_orbit_unit_over_Q(field_sqrt2):
    q = rational_subfield(field_sqrt2)
    a = field_sqrt2.element([1, 1])
    rep = orbit_mod_torsion(a, q)
    assert rep.delta == 2
    assert rep.conjugate_count == 2
    assert abs(rep.width.value - SILVER) <= rep.width.abs_error + 1e-12
    assert len(rep.representatives) == 2


def test_orbit_of_rational(field_biquad):
    q = rational_subfield(field_biquad)
    rep = orbit_mod_torsion(field_biquad.from_rational(7), q)
    assert rep.delta == 1
    assert rep.conjugate_count == 1
    assert rep.width.abs_error == 0.0


def test_orbit_rejects_zero(field_sqrt2):
    with pytest.raises(ZeroElement):
        orbit_mod_torsion(field_sqrt2.zero(), rational_subfield(field_sqrt2))


def test_delta_examples(field_sqrt2):
    q = rational_subfield(field_sqrt2)
    assert delta_K(field_sqrt2.theta(), q) == 1
    assert delta_K(field_sqrt2.element([1, 1]), q) == 2


def test_degree_of_power_examples(field_sqrt2):
    q = rational_subfield(field_sqrt2)
    t = field_sqrt2.theta()
    assert degree_of_power(t, 2, q) == 1
    assert degree_of_power(t, 1, q) == 2
    assert degree_of_power(field_sqrt2.element([1, 1]), 5, q) == 2
    with pytest.raises(ValueError):
        degree_of_power(t, 0, q)


def test_width_examples(field_sqrt2):
    q = rational_subfield(field_sqrt2)
    w0 = width_K(field_sqrt2.theta(), q)
    assert w0.value == 0.0 and w0.abs_error == 0.0
    w1 = width_K(field_sqrt2.element([1, 1]), q)
    assert abs(w1.value - SILVER) <= w1.abs_error + 1e-12
    # fixed elements have exact zero width
    assert width_K(field_sqrt2.from_rational(5), q).abs_error == 0.0


def test_vk_bounds_pinch(field_sqrt2):
    q = rational_subfield(field_sqrt2)
    lo, hi = vk_bounds(field_sqrt2.element([1, 1]), q)
    assert abs(lo.value - SILVER / 2) <= 1e-9
    assert abs(hi.value - SILVER / 2) <= 1e-9
    assert lo.value <= hi.value + lo.abs_error + hi.abs_error


def test_vk_bounds_zero_for_kdiv(field_sqrt2):
    q = rational_subfield(field_sqrt2)
    lo, hi = vk_bounds(field_sqrt2.theta(), q)
    assert (lo.value, hi.value) == (0.0, 0.0)
    assert lo.abs_error == 0.0 and hi.abs_error == 0.0


def test_in_kdiv_examples(field_sqrt2, field_biquad):
    q = rational_subfield(field_sqrt2)
    res = in_kdiv(field_sqrt2.theta(), q)
    assert res and res.exponent == 2
    assert res.power == field_sqrt2.from_rational(2)
    assert not in_kdiv(field_sqrt2.element([1, 1]), q)

    # sqrt6 lies in Q(sqrt2)^div inside Q(sqrt2, sqrt3): (sqrt6)^2 = 6
    f = field_biquad
    sqrt2 = f.element([0, -3, 0, 1])
    sqrt6 = sqrt2 * f.element([-2, 0, 1])
    k = subfield(f, [sqrt2])
    res = in_kdiv(sqrt6, k)
    assert res
    assert k.contains(res.power)


def test_delta_invariance_lemma(field_zeta8):
    # delta(a^l) = delta(a) = delta(a * zeta) for random data
    f = field_zeta8
    q = rational_subfield(f)
    k = subfield(f, [f.element([0, 1, 0, -1])])
    rng = random.Random(12)
    gen = f.torsion_generator
    for _ in range(15):
        coords = [rng.randint(-3, 3) for _ in range(4)]
        if not any(coords):
            continue
        a = f.element(coords)
        ell = rng.choice([-6, -3, -2, -1, 1, 2, 3, 6])
        zeta = gen ** rng.randrange(f.torsion_order)
        for sub in (q, k):
            d = delta_K(a, sub)
            assert delta_K(a ** ell, sub) == d
            assert delta_K(a * zeta, sub) == d


@pytest.mark.parametrize("name", CORPUS_NAMES)
@settings(max_examples=15, deadline=None)
@given(u=st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                  min_size=6, max_size=6))
def test_orbit_is_blind_to_torsion(name, u):
    # over every subfield K, a and a * zeta^j, for every power of the
    # torsion generator, have the same delta and the same width: every
    # ratio of conjugates moves by a root of unity, which keeps its height,
    # so the widths are compared through their error bounds.  The number of
    # distinct conjugates is not blind to torsion: over Q, 2 has one and
    # 2 zeta_6 has two
    f = _norm_field(name)
    a = f.element(u[:f.degree])
    if a.is_zero():
        return
    powers = [f.torsion_generator ** j for j in range(f.torsion_order)]
    for group in _subgroups(name):
        k = Subfield(f, [], group)
        report = orbit_mod_torsion(a, k)
        for zeta in powers:
            moved = orbit_mod_torsion(a * zeta, k)
            assert moved.delta == report.delta
            if report.delta == 1:
                assert moved.width == report.width == report.width.exact_zero()
            else:
                gap = abs(moved.width.value - report.width.value)
                assert gap <= moved.width.abs_error + report.width.abs_error


def test_orbit_count_equals_degree_oracle(corpus):
    # |Orb_K(a)| equals [K(a^w):K] with w the torsion order
    for sc in corpus[:4]:
        w = sc.field.torsion_order
        for k in sc.subfields.values():
            for el in list(sc.elements.values())[:6]:
                if el.is_zero():
                    continue
                assert orbit_mod_torsion(el, k).delta == degree_of_power(el, w, k)


def test_delta_le_conjugate_count(field_cbrt2):
    rng = random.Random(13)
    q = rational_subfield(field_cbrt2)
    for _ in range(10):
        coords = [rng.randint(-2, 2) for _ in range(6)]
        if not any(coords):
            continue
        rep = orbit_mod_torsion(field_cbrt2.element(coords), q)
        assert rep.delta <= rep.conjugate_count


def test_fixed_point_characterization(field_biquad):
    # delta = 1 iff every conjugate ratio is torsion
    f = field_biquad
    k = subfield(f, [f.element([-2, 0, 1])])
    for coords in [(0, -3, 0, 1), (1, 1, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)]:
        a = f.element(coords)
        d = delta_K(a, k)
        all_torsion = all(is_torsion(f.automorphisms[i](a) * a.inverse())
                          for i in k.fixing_indices)
        assert (d == 1) == all_torsion


def test_norm_element_invariance(field_cbrt2):
    f = field_cbrt2
    cbrt2 = f.element([1, 1, -1, 0, 0, 0])
    k = subfield(f, [cbrt2])
    rng = random.Random(14)
    for _ in range(5):
        coords = [rng.randint(-2, 2) for _ in range(6)]
        if not any(coords):
            continue
        rep = orbit_mod_torsion(f.element(coords), k)
        for i in k.fixing_indices:
            assert f.automorphisms[i](rep.norm_element) == rep.norm_element


# delta_K per subfield for each element, as computed when every orbit
# count went through the full orbit with its width
_BIQUAD_ELEMENTS = ["t^3-3*t", "t^2-2", "(t^3-3*t)*(t^2-2)", "1+t", "2", "t",
                    "t^3+t^2-3*t-2", "-1"]
_CBRT2_ELEMENTS = ["1+t-t^2", "-4+4*t+8*t^2-2*t^3-5*t^4+2*t^5", "1+t", "t",
                   "2+t^3", "(1+t-t^2)^2/3"]
_DELTA_CASES = [
    ("field_sqrt2", ["t", "1+t", "3", "-1", "1+2*t", "t/(1+t)^3"], {
        None: [1, 2, 1, 1, 2, 2],
        "t": [1, 1, 1, 1, 1, 1],
    }),
    ("field_biquad", _BIQUAD_ELEMENTS, {
        None: [1, 1, 1, 4, 1, 2, 2, 1],
        "t^3-3*t": [1, 1, 1, 2, 1, 2, 2, 1],
        "t^2-2": [1, 1, 1, 2, 1, 1, 2, 1],
        "(t^3-3*t)*(t^2-2)": [1, 1, 1, 2, 1, 2, 1, 1],
        "t": [1] * 8,
    }),
    ("field_cbrt2", _CBRT2_ELEMENTS, {
        None: [1, 1, 6, 6, 6, 1],
        "1+t-t^2": [1, 1, 2, 2, 2, 1],
        "-4+4*t+8*t^2-2*t^3-5*t^4+2*t^5": [1, 1, 3, 3, 3, 1],
        "t": [1] * 6,
    }),
]


@pytest.mark.parametrize("fixture,elements,deltas", _DELTA_CASES,
                         ids=[c[0] for c in _DELTA_CASES])
def test_delta_and_kdiv_skip_the_width(fixture, elements, deltas, request,
                                       monkeypatch):
    def no_height(*_args, **_kwargs):
        raise AssertionError("delta_K and in_kdiv need no height")

    monkeypatch.setattr("heightlab.orbits.weil_height", no_height)
    f = request.getfixturevalue(fixture)
    w = f.torsion_order
    for gen, expected in deltas.items():
        k = (rational_subfield(f) if gen is None
             else subfield(f, [parse_element(gen, f)]))
        for text, delta in zip(elements, expected):
            a = parse_element(text, f)
            assert delta_K(a, k) == delta
            res = in_kdiv(a, k)
            assert res.member == (delta == 1)
            if res:
                assert res.exponent == w and res.power == a ** w


# -- torsion classes from the conjugates of a^w --------------------------------


def _pairwise_orbit(a, k):
    """The distinct conjugates of a in coordinate order and their
    representatives modulo torsion by pairwise tests: a conjugate starts a
    new class unless its ratio to a representative found so far is a root
    of unity."""
    conjugates = sorted({sigma(a) for sigma in k.fixing_group}, key=lambda c: c.coords)
    reps = []
    for img in conjugates:
        if not any(is_torsion(img * r.inverse()) for r in reps):
            reps.append(img)
    return conjugates, reps


@pytest.mark.parametrize("name", CORPUS_NAMES + ["phi13", "phi21"])
@settings(max_examples=12, deadline=None)
@given(coords=st.lists(st.integers(-3, 3), min_size=12, max_size=12),
       den=st.integers(1, 3),
       kind=st.sampled_from(["whole", "subfield", "rational", "torsion"]),
       sub=st.integers(0, 63), j=st.integers(0, 69))
def test_orbit_classes_match_the_pairwise_oracle(name, coords, den, kind, sub, j):
    # a times a root of unity, for a a whole element, the relative norm of
    # one to a subfield (fewer classes than conjugates once a root of unity
    # moves it), a rational or 1; over every subfield of a corpus field,
    # and over Q on Phi13 and Phi21
    f = _norm_field(name)
    a = f.element([Fraction(c, den) for c in coords[:f.degree]])
    if kind == "rational":
        a = f.from_rational(Fraction(coords[0] or 1, den))
    elif kind == "torsion":
        a = f.one()
    elif kind == "subfield":
        groups = _subgroups(name)
        a = Subfield(f, [], groups[sub % len(groups)]).norm(a)
    if a.is_zero():
        return
    a = a * f.torsion_generator ** (j % f.torsion_order)
    groups = _subgroups(name) if name in CORPUS_NAMES else [tuple(range(f.degree))]
    for group in groups:
        k = Subfield(f, [], group)
        conjugates, reps = _pairwise_orbit(a, k)
        report = orbit_mod_torsion(a, k)
        assert report.representatives == tuple(reps)
        assert report.delta == delta_K(a, k) == len(reps)
        assert report.conjugate_count == len(conjugates)
        assert bool(in_kdiv(a, k)) == (len(reps) == 1)


def test_delta_and_kdiv_take_no_inverse_and_no_torsion_test(field_cbrt2, monkeypatch):
    # one power of a decides every class: no field inverse, no pairwise
    # torsion test, and the witness power is that same a^w
    f = field_cbrt2
    rng = random.Random(25)
    elements = [f.element([rng.randint(-3, 3) for _ in range(6)]) for _ in range(8)]
    elements += [parse_element(text, f) for text in _CBRT2_ELEMENTS]
    elements = [a for a in elements if not a.is_zero()]
    expected = {(a, g): (len(_pairwise_orbit(a, Subfield(f, [], g))[1]))
                for a in elements for g in _subgroups("cbrt2_split")}

    def refuse(*_args):
        raise AssertionError("delta_K and in_kdiv need no inverse and no torsion test")

    monkeypatch.setattr(FieldElement, "inverse", refuse)
    monkeypatch.setattr("heightlab.heights.is_torsion", refuse)
    for (a, group), delta in expected.items():
        k = Subfield(f, [], group)
        assert delta_K(a, k) == delta
        res = in_kdiv(a, k)
        assert res.member == (delta == 1)
        if res:
            assert res.power == a ** f.torsion_order


def test_width_measures_only_the_other_classes(field_zeta8, monkeypatch):
    # in Q(zeta_8), a = zeta_8 (1 + sqrt2) has four conjugates over Q in
    # two classes of two: a^-1 is taken once, and only the two conjugates
    # outside a's class get a height
    from heightlab import orbits

    f = field_zeta8
    t = f.theta()
    a = t * (1 + t - t ** 3)
    calls = []
    inverses = []
    inverse = FieldElement.inverse

    def counting_inverse(x):
        inverses.append(x)
        return inverse(x)

    def recording(x):
        calls.append(x)
        return weil_height(x)

    monkeypatch.setattr(FieldElement, "inverse", counting_inverse)
    monkeypatch.setattr(orbits, "weil_height", recording)
    report = orbit_mod_torsion(a, rational_subfield(f))
    assert (report.delta, report.conjugate_count) == (2, 4)
    assert inverses == [a] and len(calls) == 2
    assert all(not is_torsion(x) for x in calls)
    assert report.width.value > report.width.abs_error


def test_delta_over_Q_on_phi35():
    # degree 24 with w = 70: 24 classes, also after a root of unity moves a
    f = _norm_field("phi35")
    q = rational_subfield(f)
    rng = random.Random(35)
    a = f.element([rng.randint(-3, 3) for _ in range(f.degree)])
    zeta = f.torsion_generator ** rng.randrange(1, f.torsion_order)
    assert delta_K(a, q) == delta_K(a * zeta, q) == 24
