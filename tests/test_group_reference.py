"""The group layer against a reference: a GElement that keeps its scale as
a Fraction and builds every result through its constructor, as heightlab
did before GElement stored the integer den.  Every operation must give the
reference's canonical pair (scale denominator, base), and heights and
place vectors must be the same floats, bit for bit."""

import math
from fractions import Fraction
from math import lcm

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_numberfield import CORPUS_NAMES, _norm_field, _subgroups

from heightlab.corpus import bundled_scenario
from heightlab.heights import (
    _FLOAT_SLACK,
    GElement,
    HeightValue,
    g_combine,
    g_height,
    g_sub,
    is_torsion,
    weil_height,
)
from heightlab.numberfield import Subfield, eval_at_embeddings
from heightlab.placespace import _local_factorization, f_vector, prime_support
from heightlab.projections import ProjectionSpec, is_member, s_project, t_project
from heightlab.roots import locked_workprec


class RefGElement:
    """(scale, base) with the Fraction scale 1/s and base b^r for r/s."""

    def __init__(self, field, scale, base):
        scale = Fraction(scale)
        self.field = field
        if scale == 0 or is_torsion(base):
            self.scale, self.base = Fraction(1), field.one()
        else:
            self.scale = Fraction(1, scale.denominator)
            self.base = base ** scale.numerator

    def negate(self):
        return RefGElement(self.field, -self.scale, self.base)

    def apply(self, sigma):
        return RefGElement(self.field, self.scale, sigma(self.base))


def ref_combine(terms):
    field = terms[0].field
    s = lcm(*(t.scale.denominator for t in terms))
    prod = field.one()
    for t in terms:
        prod = prod * t.base ** int(t.scale * s)
    return RefGElement(field, Fraction(1, s), prod)


def ref_sub(u, v):
    return ref_combine([u, v.negate()])


def ref_s_project(u, k):
    return RefGElement(u.field, u.scale / len(k.fixing_indices), k.norm(u.base))


def ref_t_project(u, k):
    return ref_sub(u, ref_s_project(u, k))


def ref_decompose(u, fields_D, fields_E):
    x = u
    for kind, k in reversed([("S", k) for k in fields_D] + [("T", k) for k in fields_E]):
        x = ref_t_project(x, k) if kind == "S" else ref_s_project(x, k)
    d_part = ref_sub(u, x)
    return d_part, ref_sub(u, d_part)


def ref_height(u):
    if u.base == 1:
        return HeightValue.exact_zero()
    h = weil_height(u.base)
    f = abs(float(u.scale))
    return HeightValue(h.value * f, h.abs_error * f)


def ref_f_vector(u):
    """{(kind, p, index): (value, abs_error)}, by the Fraction formulas."""
    if u.base == 1:
        return {}
    field, beta, scale = u.field, u.base, float(u.scale)
    out = {}
    with locked_workprec(field.precision_bits):
        classes = field.archimedean_classes
        images = eval_at_embeddings(beta, [field.embeddings[cls[0]] for cls in classes])
        for idx, (w, delta) in enumerate(images):
            mag = abs(w)
            value = float(mpmath.log(mag)) * scale
            err = abs(scale) * (delta / (float(mag) - delta)) + _FLOAT_SLACK * (1 + abs(value))
            out[("arch", 0, idx)] = (value, err)
    norm_b = abs(int((beta * beta.den).norm()))
    for p in prime_support(beta.den, norm_b):
        for j, fac in enumerate(_local_factorization(field, beta, p, norm_b).factors):
            if fac.valuation:
                value = -float(u.scale * Fraction(fac.valuation, fac.e)) * math.log(p)
                out[("finite", p, j)] = (value, _FLOAT_SLACK * (1 + abs(value)))
    return out


def assert_same(u, ref):
    assert (u.den, u.base) == (ref.scale.denominator, ref.base)
    assert u.scale == ref.scale


def _subfields(name, f):
    return [Subfield(f, [], group) for group in _subgroups(name)]


def _declared_specs(name):
    """The (D, E) subfield lists of the scenario's projection checks."""
    if name not in CORPUS_NAMES:
        return []
    sc = bundled_scenario(name)
    return [([sc.subfields[n] for n in check.get("D", ())],
             [sc.subfields[n] for n in check.get("E", ())])
            for check in sc.checks if "D" in check]


@st.composite
def elements(draw, f):
    """(scale, base): small coordinates over 1 or 2, times a root of unity
    (at times a root of unity alone), at scales of either sign and 0."""
    coords = draw(st.lists(st.integers(-3, 3), min_size=f.degree, max_size=f.degree))
    den = draw(st.sampled_from((1, 1, 2)))
    a = f.element([Fraction(c, den) for c in coords])
    if a.is_zero() or draw(st.integers(0, 7)) == 0:
        a = f.one()
    base = a * f.torsion_generator ** draw(st.integers(0, f.torsion_order - 1))
    scale = draw(st.fractions(min_value=-3, max_value=3, max_denominator=4))
    return scale, base


@pytest.mark.parametrize("name", CORPUS_NAMES + ["phi13"])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_group_layer_matches_the_fraction_reference(name, data):
    f = _norm_field(name)
    drawn = data.draw(st.lists(elements(f), min_size=1, max_size=4))
    us = [GElement(f, scale, base) for scale, base in drawn]
    refs = [RefGElement(f, scale, base) for scale, base in drawn]
    for u, ref in zip(us, refs):
        assert_same(u, ref)
        assert u.is_zero() == (ref.base == 1)
        assert_same(u.negate(), ref.negate())
        for sigma in f.automorphisms:
            assert_same(u.apply(sigma), ref.apply(sigma))
        assert g_height(u) == ref_height(ref)
    assert_same(g_combine(us), ref_combine(refs))
    assert_same(g_sub(us[0], us[-1]), ref_sub(refs[0], refs[-1]))

    u, ref = us[0], refs[0]
    vec = f_vector(u)
    assert {(pid.kind, pid.p, pid.index): (ent.value, ent.abs_error)
            for pid, ent in vec.entries.items()} == ref_f_vector(ref)
    assert vec.as_dict()["element"]["scale"] == str(ref.scale)

    subfields = _subfields(name, f)
    for k in subfields:
        assert_same(s_project(u, k), ref_s_project(ref, k))
        assert_same(t_project(u, k), ref_t_project(ref, k))

    drawn_spec = (data.draw(st.lists(st.sampled_from(subfields), min_size=1, max_size=2)),
                  data.draw(st.lists(st.sampled_from(subfields), max_size=1)))
    for fields_D, fields_E in _declared_specs(name) + [drawn_spec]:
        spec = ProjectionSpec.build(fields_D, fields_E)
        res = is_member(u, spec)
        d_ref, e_ref = ref_decompose(ref, spec.fields_D, spec.fields_E)
        assert_same(res.d_part, d_ref)
        assert_same(res.e_part, e_ref)
        assert res.is_member == (e_ref.base == 1)
