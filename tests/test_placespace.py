import math
import random
from fractions import Fraction

import pytest

from heightlab.corpus import scenario_documents
from heightlab.errors import IndexDivisor, PrecisionExhausted, ZeroElement
from heightlab.heights import GElement, g_combine, g_height
from heightlab.numberfield import FieldElement, make_field, subfield
from heightlab.placespace import (
    PlaceId,
    _arch_permutation,
    f_vector,
    integral,
    l1_norm,
    local_factorization,
    permute_by_automorphism,
    places,
    vector_error_bound,
)

LOG2 = math.log(2)


# -- places -------------------------------------------------------------------


def test_places_real_field(field_sqrt2):
    ps = places(field_sqrt2)
    assert len(ps) == 2
    assert all(w == Fraction(1, 2) for _, w in ps)


def test_places_complex_field(field_zeta3):
    ps = places(field_zeta3)
    assert len(ps) == 1
    assert ps[0][1] == Fraction(1, 1)


def test_arch_weights_sum_to_one(corpus):
    for sc in corpus:
        assert sum(w for _, w in places(sc.field)) == 1


# -- local factorization --------------------------------------------------------


def test_ramified_prime(field_sqrt2):
    lf = local_factorization(field_sqrt2, field_sqrt2.theta(), 2)
    assert len(lf.factors) == 1
    f0 = lf.factors[0]
    assert (f0.e, f0.f, f0.valuation) == (2, 1, 1)


def test_inert_prime_norm_consistency(field_sqrt2):
    lf = local_factorization(field_sqrt2, field_sqrt2.from_rational(3), 3)
    assert sum(f.f * f.valuation for f in lf.factors) == 2  # v_3(9)


def test_split_prime(field_sqrt2):
    # 7 = (3+sqrt2)(3-sqrt2) splits
    lf = local_factorization(field_sqrt2, field_sqrt2.element([3, 1]), 7)
    assert len(lf.factors) == 2
    assert sorted(f.valuation for f in lf.factors) == [0, 1]
    assert {(f.e, f.f) for f in lf.factors} == {(1, 1)}


def test_unit_prime_all_zero(field_sqrt2):
    lf = local_factorization(field_sqrt2, field_sqrt2.element([1, 1]), 5)
    assert all(f.valuation == 0 for f in lf.factors)


def test_negative_valuation(field_sqrt2):
    a = field_sqrt2.from_rational(Fraction(1, 2))
    lf = local_factorization(field_sqrt2, a, 2)
    assert lf.factors[0].valuation == -2  # v(1/2) at the ramified prime


def test_sum_ef_is_degree(corpus):
    for sc in corpus:
        el = next(iter(sc.elements.values()))
        for p in (2, 3, 5, 7):
            lf = local_factorization(sc.field, sc.field.from_rational(p), p)
            assert sum(f.e * f.f for f in lf.factors) == sc.field.degree


def test_index_divisor_refused(field_biquad_classic):
    # Z[sqrt2+sqrt3] has index 8: prime 2 must be refused, prime 3 is fine
    with pytest.raises(IndexDivisor):
        local_factorization(field_biquad_classic,
                            field_biquad_classic.from_rational(2), 2)
    lf = local_factorization(field_biquad_classic,
                             field_biquad_classic.from_rational(3), 3)
    assert sum(f.e * f.f for f in lf.factors) == 4


def test_zero_rejected(field_sqrt2):
    with pytest.raises(ZeroElement):
        local_factorization(field_sqrt2, field_sqrt2.zero(), 2)


# -- place vectors ---------------------------------------------------------------


def test_f_vector_rational_two(field_q):
    u = GElement.of(field_q.from_rational(2))
    vec = f_vector(u)
    assert len(vec.entries) == 2
    arch = vec.entries[PlaceId("arch", 0, 0)]
    fin = vec.entries[PlaceId("finite", 2, 0)]
    assert abs(arch.value - LOG2) < 1e-12 and arch.weight == 1
    assert abs(fin.value + LOG2) < 1e-12 and fin.weight == 1


def test_f_vector_sqrt2(field_sqrt2):
    vec = f_vector(GElement.of(field_sqrt2.theta()))
    arch = vec.arch_items()
    fin = vec.finite_items()
    assert len(arch) == 2 and len(fin) == 1
    for _, ent in arch:
        assert abs(ent.value - LOG2 / 2) < 1e-12
        assert ent.weight == Fraction(1, 2)
    pid, ent = fin[0]
    assert pid.p == 2
    assert abs(ent.value + LOG2 / 2) < 1e-12
    assert ent.weight == 1


def test_f_vector_of_large_smooth_norm(field_q):
    # the factoring budget still splits a 246-digit norm with small primes
    vec = f_vector(GElement.of(field_q.from_rational(2 ** 500 * 3 ** 200)))
    assert [pid.p for pid, _ in vec.finite_items()] == [2, 3]
    assert math.isclose(l1_norm(vec), 2 * (500 * LOG2 + 200 * math.log(3)))


def test_f_vector_takes_one_norm(field_biquad, monkeypatch):
    # the norm that gives the support primes also serves every prime's
    # valuation check, and the vector matches the public per-prime route;
    # the first call fills the field's cache of prime splittings, whose
    # construction takes norms of its own
    a = field_biquad.element([Fraction(3, 10), 7, Fraction(-1, 5), 2])
    f_vector(GElement.of(a))
    calls = []
    norm = FieldElement.norm

    def counting(self):
        calls.append(self)
        return norm(self)

    monkeypatch.setattr(FieldElement, "norm", counting)
    vec = f_vector(GElement.of(a))
    assert len(calls) == 1
    primes = {pid.p for pid, _ in vec.finite_items()}
    assert len(primes) >= 3
    for p in primes:
        lf = local_factorization(field_biquad, a, p)
        for j, fac in enumerate(lf.factors):
            assert (PlaceId("finite", p, j) in vec.entries) == bool(fac.valuation)


def test_f_vector_torsion_is_empty(field_zeta3):
    zeta6 = -(field_zeta3.theta() ** 2)
    assert f_vector(GElement.of(zeta6)).entries == {}


def test_l1_norm_examples(field_sqrt2):
    vec = f_vector(GElement.of(field_sqrt2.theta()))
    assert abs(l1_norm(vec) - LOG2) < 1e-12
    assert l1_norm(f_vector(GElement.of(field_sqrt2.from_rational(-1)))) == 0.0
    half = f_vector(GElement(field_sqrt2, Fraction(1, 2), field_sqrt2.from_rational(2)))
    assert abs(l1_norm(half) - LOG2) < 1e-12


def test_integral_vanishes(field_sqrt2):
    for coords in [(2, 0), (1, 1), (0, 1), (3, -2)]:
        vec = f_vector(GElement.of(field_sqrt2.element(coords)))
        assert abs(integral(vec)) <= 1e-12 + vector_error_bound(vec)


def test_backend_agreement_sample(corpus):
    for sc in corpus[:3]:
        for el in list(sc.elements.values())[:8]:
            if el.is_zero():
                continue
            u = GElement.of(el)
            vec = f_vector(u)
            h = g_height(u)
            assert abs(l1_norm(vec) - 2 * h.value) <= \
                1e-9 + 2 * h.abs_error + vector_error_bound(vec)


def test_weights_partition_per_prime(field_cbrt2):
    # weights over each touched rational prime sum to 1
    a = field_cbrt2.element([1, 1, -1, 0, 0, 0])  # cbrt2
    for p in (2, 3, 5):
        lf = local_factorization(field_cbrt2, a, p)
        total = sum(Fraction(f.e * f.f, field_cbrt2.degree) for f in lf.factors)
        assert total == 1


def test_linearity(field_biquad):
    f = field_biquad
    u = GElement.of(f.element([0, -3, 0, 1]))
    w = GElement.of(f.element([-2, 0, 1]))
    combined = f_vector(g_combine([u, w]))
    vu, vw = f_vector(u), f_vector(w)
    keys = set(combined.entries) | set(vu.entries) | set(vw.entries)
    for k in keys:
        lhs = combined.entries[k].value if k in combined.entries else 0.0
        rhs = (vu.entries[k].value if k in vu.entries else 0.0) \
            + (vw.entries[k].value if k in vw.entries else 0.0)
        assert abs(lhs - rhs) < 1e-10


# -- Galois action on vectors ------------------------------------------------------


def test_permute_identity(field_sqrt2):
    vec = f_vector(GElement.of(field_sqrt2.element([1, 1])))
    same = permute_by_automorphism(vec, field_sqrt2.identity_automorphism())
    assert {k: v.value for k, v in same.entries.items()} == \
        {k: v.value for k, v in vec.entries.items()}


def test_permute_matches_direct_image(corpus):
    rng = random.Random(21)
    for f in (sc.field for sc in corpus):
        for _ in range(6):
            coords = [rng.randint(-3, 3) for _ in range(f.degree)]
            if not any(coords):
                continue
            u = GElement.of(f.element(coords))
            vec = f_vector(u)
            for sigma in f.automorphisms:
                permuted = permute_by_automorphism(vec, sigma)
                direct = f_vector(u.apply(sigma))
                assert set(permuted.entries) == set(direct.entries)
                for k in direct.entries:
                    assert abs(permuted.entries[k].value - direct.entries[k].value) < 1e-10
                    assert permuted.entries[k].weight == direct.entries[k].weight


def test_arch_permutation_of_cbrt2_split_by_precision():
    # at 8 bits, under automorphisms 1 and 5, the disk about one image of
    # theta meets two embedding disks, so the permutation is refused rather
    # than guessed; from 12 bits up every table is the 256-bit one
    coeffs = next(doc["field"] for doc in scenario_documents() if doc["name"] == "cbrt2_split")
    fine = make_field(coeffs)
    table = [_arch_permutation(fine, sigma) for sigma in fine.automorphisms]
    coarse = make_field(coeffs, 8)
    vec = f_vector(GElement.of(coarse.element([1, 1, 0, 0, 0, 0])))
    for i, sigma in enumerate(coarse.automorphisms):
        if i in (1, 5):
            with pytest.raises(PrecisionExhausted, match="embedding permutation"):
                permute_by_automorphism(vec, sigma)
        else:
            assert _arch_permutation(coarse, sigma) == table[i]
    for bits in (12, 16, 24, 53, 128):
        field = make_field(coeffs, bits)
        assert [_arch_permutation(field, s) for s in field.automorphisms] == table


def test_permute_preserves_l1(field_zeta8):
    vec = f_vector(GElement.of(field_zeta8.element([1, 1, 0, 0])))
    base = l1_norm(vec)
    for sigma in field_zeta8.automorphisms:
        assert abs(l1_norm(permute_by_automorphism(vec, sigma)) - base) < 1e-12


def test_permute_swaps_arch_fixes_finite(field_sqrt2):
    # conjugating 1+sqrt2 swaps the two real places; the ramified finite
    # place is invariant
    f = field_sqrt2
    vec = f_vector(GElement.of(f.element([1, 1])))
    sigma = next(s for s in f.automorphisms if not s.is_identity)
    swapped = permute_by_automorphism(vec, sigma)
    a0 = PlaceId("arch", 0, 0)
    a1 = PlaceId("arch", 0, 1)
    assert abs(swapped.entries[a0].value - vec.entries[a1].value) < 1e-15
    assert abs(swapped.entries[a1].value - vec.entries[a0].value) < 1e-15
    assert vec.entries[a0].value != vec.entries[a1].value
    for pid, ent in vec.finite_items():
        assert swapped.entries[pid].value == ent.value


# -- serialization -------------------------------------------------------------


def test_vector_json_shape(field_sqrt2):
    d = f_vector(GElement.of(field_sqrt2.theta())).as_dict()
    assert set(d) == {"element", "arch", "finite"}
    assert d["element"]["scale"] == "1"
    assert all(set(e) == {"id", "value", "abs_error", "weight"} for e in d["arch"])
    assert all(set(e) == {"p", "ideal", "e", "f", "value", "abs_error", "weight"}
               for e in d["finite"])
    assert d["finite"][0]["weight"] == "1"
