"""Certified roots: the stress set, an independent oracle, and the
float-range and 2^14-bit paths."""

import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heightlab import roots
from heightlab.errors import PrecisionExhausted
from heightlab.polynomials import Poly, cyclotomic, is_squarefree, real_root_count
from heightlab.roots import certified_roots


def _wilkinson(n):
    p = Poly([1])
    for k in range(1, n + 1):
        p = p * Poly([-k, 1])
    return p


def _stress_polys():
    """Ill-conditioned, clustered, badly scaled and random polynomials."""
    out = [("wilkinson15", _wilkinson(15))]
    for a in (10, 100, 1000):
        for d in (5, 8):
            # Mignotte: two roots within about a^-(d/2+1) of each other
            out.append((f"mignotte_d{d}_a{a}",
                        Poly([0] * d + [1]) - Poly([2]) * Poly([-1, a]) ** 2))
    out.append(("huge_middle", Poly([1, -10 ** 400, 1])))
    out.append(("tiny_constant", Poly([Fraction(-1, 10 ** 400), 0, 1])))
    out.append(("x24_minus_3", Poly([-3] + [0] * 23 + [1])))
    out.append(("phi35", cyclotomic(35)))
    rng = random.Random(2017)
    while len(out) < 51:
        # each coefficient of its own size, so the roots spread over many
        # orders of magnitude
        deg = rng.randint(1, 12)
        mags = [10 ** rng.randint(0, 40) for _ in range(deg)]
        cs = [rng.randint(-m, m) for m in mags]
        cs.append(rng.choice((-1, 1)) * rng.randint(1, 10 ** rng.randint(0, 40)))
        p = Poly(cs)
        if is_squarefree(p):
            out.append((f"random{len(out) - 11}", p))
    return out


STRESS = dict(_stress_polys())
PRECISIONS = (8, 16, 53, 256, 1100)

# The number of real roots that mpmath.polyroots (at bits + 32 + bits/2,
# 200 steps) and a Henrici radius without an evaluation error bound
# certified at each precision, or None where that code refused.
POLYROOTS_CERTIFIED = {
    "wilkinson15": (None, None, None, 15, 15),
    "mignotte_d5_a10": (None, 3, 3, 3, 3),
    "mignotte_d8_a10": (None, None, 4, 4, 4),
    "mignotte_d5_a100": (None, None, 3, 3, 3),
    "mignotte_d8_a100": (None, None, 4, 4, 4),
    "mignotte_d5_a1000": (None, None, 3, 3, 3),
    "mignotte_d8_a1000": (None, None, 4, 4, 4),
    "huge_middle": (2, 2, 2, 2, 2),
    "tiny_constant": (None, None, None, None, None),
    "x24_minus_3": (2, 2, 2, 2, 2),
    "phi35": (0, 0, 0, 0, 0),
    "random0": (2, None, None, 2, 2),
    "random1": (None, None, 1, 1, 1),
    "random2": (None, None, 5, 5, 5),
    "random3": (2, 2, 2, 2, 2),
    "random4": (2, 2, 2, 2, 2),
    "random5": (None, None, None, 4, 4),
    "random6": (None, None, 4, 4, 4),
    "random7": (None, None, 0, 0, 0),
    "random8": (None, None, 5, 5, 5),
    "random9": (1, 1, 1, 1, 1),
    "random10": (None, None, None, 4, 4),
    "random11": (1, 1, 1, 1, 1),
    "random12": (2, 2, 2, 2, 2),
    "random13": (None, None, None, 1, 1),
    "random14": (None, 0, 0, 0, 0),
    "random15": (None, None, None, 4, 4),
    "random16": (None, None, None, 3, 3),
    "random17": (3, 3, 3, 3, 3),
    "random18": (2, 2, 2, 2, 2),
    "random19": (None, None, None, 2, 2),
    "random20": (None, None, 4, 4, 4),
    "random21": (None, 1, 1, 1, 1),
    "random22": (2, 2, 2, 2, 2),
    "random23": (None, None, None, 3, 3),
    "random24": (None, None, None, 3, 3),
    "random25": (None, None, None, 3, 3),
    "random26": (None, None, 0, 0, 0),
    "random27": (None, 3, 3, 3, 3),
    "random28": (3, 3, 3, 3, 3),
    "random29": (None, 1, 1, 1, 1),
    "random30": (2, 2, 2, 2, 2),
    "random31": (None, None, None, 3, 3),
    "random32": (None, None, 3, 3, 3),
    "random33": (None, None, 5, 5, 5),
    "random34": (None, None, None, 2, 2),
    "random35": (2, 2, None, 2, 2),
    "random36": (2, 2, None, 2, 2),
    "random37": (None, None, 4, 4, 4),
    "random38": (4, 4, None, 4, 4),
    "random39": (None, 2, 2, 2, 2),
}

# Cases that code certified and the running error bound refuses.  For
# huge_middle the big root 10^400 - 10^-400 has no binary approximation
# within 2^-bits at bits + 32 bits, yet that code reported radius 2^-bits
# (8.6e-78 at 256 bits, against a true distance of 8.5e312): the rigorous
# radius is larger than the largest float.  For mignotte_d8_a1000 at 53
# bits the two roots near 1/1000 lie 1.4e-15 apart, and the bound on the
# rounding error of p at 85 bits, 2^-74.7 against |p'| of 2^-28.4, gives
# radii of 9.5e-14.
REFUSED_BY_RIGOROUS_RADIUS = {
    "huge_middle@8", "huge_middle@16", "huge_middle@53", "huge_middle@256",
    "mignotte_d8_a1000@53",
}


@pytest.mark.parametrize("bits", PRECISIONS)
@pytest.mark.parametrize("name", list(STRESS))
def test_stress_set(name, bits):
    p = STRESS[name]
    before = POLYROOTS_CERTIFIED[name][PRECISIONS.index(bits)]
    case = f"{name}@{bits}"
    try:
        found = certified_roots(p, bits)
    except PrecisionExhausted:
        assert before is None or case in REFUSED_BY_RIGOROUS_RADIUS, case
        return
    assert case not in REFUSED_BY_RIGOROUS_RADIUS
    n_real = sum(r.is_real for r in found)
    assert n_real == real_root_count(p)
    if before is not None:
        assert n_real == before
    assert len(found) == p.degree


def _oracle_roots(p, bits):
    """Roots from mpmath.polyroots at a much higher precision, with a step
    budget well beyond what these degrees need."""
    with mpmath.workprec(2 * bits + 128):
        cs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(p.coeffs)]
        return mpmath.polyroots(cs, maxsteps=2000, extraprec=2 * bits + 128)


squarefree_polys = st.lists(
    st.integers(-10 ** 6, 10 ** 6), min_size=2, max_size=13
).map(Poly).filter(lambda p: p.degree >= 1 and is_squarefree(p))


@settings(max_examples=40, deadline=None)
@given(p=squarefree_polys, bits=st.sampled_from([32, 64, 256]))
def test_each_disk_holds_exactly_one_oracle_root(p, bits):
    try:
        found = certified_roots(p, bits)
    except PrecisionExhausted:
        assume(False)
    assert sum(r.is_real for r in found) == real_root_count(p)
    oracle = _oracle_roots(p, bits)
    with mpmath.workprec(2 * bits + 128):
        for r in found:
            inside = [w for w in oracle if abs(mpmath.mpc(r.value) - w) <= r.radius]
            assert len(inside) == 1


def test_polynomial_outside_the_float_range():
    p = STRESS["huge_middle"]
    assert roots._float_starts(p) is None
    small, big = certified_roots(p, 1100)
    assert small.is_real and big.is_real
    with mpmath.workprec(4000):
        disc = mpmath.sqrt(mpmath.mpf(10) ** 800 - 4)
        true = [(mpmath.mpf(10) ** 400 - disc) / 2, (mpmath.mpf(10) ** 400 + disc) / 2]
        for r, t in zip((small, big), true):
            assert abs(r.value - t) <= r.radius
    # at 256 bits the big root's radius exceeds the float range
    with pytest.raises(PrecisionExhausted):
        certified_roots(p, 256)


def test_roots_at_the_largest_precision():
    p = Poly([1, -3, 0, 5, 0, -3, 1])  # the bundled cbrt2_split field
    fine = certified_roots(p, 1 << 14)
    coarse = certified_roots(p, 256)
    assert [r.is_real for r in fine] == [r.is_real for r in coarse]
    with mpmath.workprec(1 << 14):
        for f, c in zip(fine, coarse):
            assert 0 < f.radius < 1e-300
            assert abs(f.value - c.value) <= f.radius + c.radius



def _fraction(x):
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


@settings(max_examples=200, deadline=None)
@given(a=st.tuples(st.integers(-2 ** 200, 2 ** 200), st.integers(-2 ** 200, 2 ** 200)),
       offset=st.tuples(st.integers(-2 ** 60, 2 ** 60), st.integers(-2 ** 60, 2 ** 60)),
       scale=st.integers(-260, -140),
       radii=st.tuples(st.floats(0, 1), st.floats(0, 1)))
def test_disks_that_cannot_meet_are_disjoint(a, offset, scale, radii):
    # centres of about 200 bits, up to 2^60 units of 2^scale apart; the
    # rule may say that disjoint disks may meet only within its rounding
    with mpmath.workprec(300):
        za = mpmath.mpc(mpmath.ldexp(a[0], scale), mpmath.ldexp(a[1], scale))
        zb = za + mpmath.mpc(mpmath.ldexp(offset[0], scale), mpmath.ldexp(offset[1], scale))
    gap2 = ((_fraction(za.real) - _fraction(zb.real)) ** 2
            + (_fraction(za.imag) - _fraction(zb.imag)) ** 2)
    reach2 = (Fraction(radii[0]) + Fraction(radii[1])) ** 2
    may_meet = roots._may_meet(roots._disk(za, radii[0]), roots._disk(zb, radii[1]))
    assert may_meet or gap2 > reach2
    assert not may_meet or gap2 <= reach2 * (1 + Fraction(1, 2 ** 48))


def test_touching_disks_may_meet():
    with mpmath.workprec(1100):
        centre = mpmath.mpc(mpmath.mpf(1) / 3, mpmath.mpf(-2) / 7)
        for r in (2.0 ** -1000, 1e-20, 0.25):
            for step in (1, 1j, -1, -1j):
                disk = roots._disk(centre, r)
                touching = roots._disk(centre + 2 * r * step, r)
                apart = roots._disk(centre + 2 * r * (1 + 2.0 ** -45) * step, r)
                assert roots._may_meet(disk, touching)
                assert not roots._may_meet(disk, apart)


def test_conjugate_pairing_refuses_two_candidate_partners():
    # four pairwise disjoint disks; the mirror image of disk 0, about -i,
    # meets both disk 1 and disk 2, so its partner is not determined
    disks = [(0, 1, .008), (.01, -.993, .0045), (.01, -1.007, .0045), (.02, 1, .008)]
    found = [roots.CertifiedRoot(mpmath.mpc(x, y), r, False) for x, y, r in disks]
    with pytest.raises(PrecisionExhausted, match="pair complex-conjugate"):
        roots.archimedean_classes(found)
