"""Galois orbits modulo torsion and divisible-hull membership.

For a subfield K of the working field, the orbit of a nonzero element
under Gal(F/K) is grouped into torsion-equivalence classes (exact tests).
The class count delta equals the minimal degree [K(a^m):K] over nonzero
integer powers m, with the minimum attained at m = w_F: a ratio of
conjugates that is a root of unity lies in F, so its order divides w_F,
and conjugates of a^{w_F} collide exactly when the orbit elements are
torsion-equivalent.
"""

from __future__ import annotations

import dataclasses

from .errors import WitnessFailure, ZeroElement
from .heights import HeightValue, is_torsion, weil_height
from .numberfield import FieldElement, Subfield


@dataclasses.dataclass(frozen=True)
class OrbitReport:
    representatives: tuple   # distinct mod torsion, sorted by coordinates
    delta: int               # |Orb_K(a)| in the group modulo torsion
    conjugate_count: int     # [K(a):K], the number of distinct conjugates
    width: HeightValue       # W_K(a), exactly zero when delta == 1
    norm_element: FieldElement  # product of the distinct conjugates, in K


def _distinct_conjugates(a: FieldElement, k: Subfield):
    """(sigma(a), sigma) per distinct conjugate, sorted by coordinates,
    with sigma the first automorphism in Gal(F/K) giving that image."""
    images = {}
    for sigma in k.fixing_group:
        img = sigma(a)
        images.setdefault(img, sigma)
    return sorted(images.items(), key=lambda pair: pair[0].coords)


def _orbit(a: FieldElement, k: Subfield):
    """The distinct conjugates of a, representatives modulo torsion, the
    conjugate product (checked to lie in K) and a^-1 (None when a is fixed).

    The inverse of a conjugate sigma(a) is sigma(a^-1), so one field
    inversion serves every torsion test.
    """
    conjugates = _distinct_conjugates(a, k)
    inverse = a.inverse() if len(conjugates) > 1 else None
    reps, rep_inverses = [], []
    for img, sigma in conjugates:
        if any(is_torsion(img * r_inv) for r_inv in rep_inverses):
            continue
        reps.append(img)
        if inverse is not None:
            rep_inverses.append(sigma(inverse))

    norm_el = a.field.one()
    for img, _sigma in conjugates:
        norm_el = norm_el * img
    if not k.contains(norm_el):
        raise WitnessFailure("conjugate product is not fixed by Gal(F/K)")
    return [img for img, _sigma in conjugates], reps, norm_el, inverse


def orbit_mod_torsion(a: FieldElement, k: Subfield) -> OrbitReport:
    """Orbit representatives, counts, width, and the conjugate product."""
    if a.is_zero():
        raise ZeroElement("orbit of zero is undefined")
    conjugates, reps, norm_el, inverse = _orbit(a, k)
    width = HeightValue.exact_zero()
    if len(reps) > 1:
        for img in conjugates:
            ratio = img * inverse
            if is_torsion(ratio):
                continue
            h = weil_height(ratio)
            if h.value > width.value:
                width = h
    return OrbitReport(representatives=tuple(reps), delta=len(reps),
                       conjugate_count=len(conjugates), width=width,
                       norm_element=norm_el)


def delta_K(a: FieldElement, k: Subfield) -> int:
    """Minimal [K(a^m):K] over nonzero m; the orbit count modulo torsion."""
    if a.is_zero():
        raise ZeroElement("delta of zero is undefined")
    return len(_orbit(a, k)[1])


def degree_of_power(a: FieldElement, m: int, k: Subfield) -> int:
    """[K(a^m):K], counted as distinct conjugates of a^m (exact equality)."""
    if a.is_zero():
        raise ZeroElement("degree of a power of zero is undefined")
    if m == 0:
        raise ValueError("exponent must be nonzero")
    return len(_distinct_conjugates(a ** m, k))


def width_K(a: FieldElement, k: Subfield) -> HeightValue:
    """W_K(a) = max over sigma fixing K of h(sigma(a)/a); exact zero on
    the divisible hull of K."""
    if a.is_zero():
        raise ZeroElement("width of zero is undefined")
    return orbit_mod_torsion(a, k).width


def vk_bounds(a: FieldElement, k: Subfield):
    """Two-sided bounds for the height-distance from a to K^div.

    lower = W_K(a)/2.  upper = min(W_K(a), h(a^n / eta)/n) with n the
    conjugate count and eta the product of the distinct conjugates; both
    candidates come from the width sandwich.
    """
    if a.is_zero():
        raise ZeroElement("bounds at zero are undefined")
    report = orbit_mod_torsion(a, k)
    width = report.width
    lower = width.scaled("1/2")
    if report.delta == 1:
        return lower, HeightValue.exact_zero()
    n = report.conjugate_count
    ratio = a ** n * report.norm_element.inverse()
    candidate = (HeightValue.exact_zero() if is_torsion(ratio)
                 else weil_height(ratio).scaled(f"1/{n}"))
    upper = candidate if candidate.value < width.value else width
    return lower, upper


@dataclasses.dataclass(frozen=True)
class KdivResult:
    """Membership decision for the divisible hull, with an exact witness
    (exponent, power) such that power = a**exponent lies in K."""

    member: bool
    exponent: int | None = None
    power: FieldElement | None = None

    def __bool__(self):
        return self.member


def in_kdiv(a: FieldElement, k: Subfield) -> KdivResult:
    """Exact membership of a in K^div, decided via delta_K(a) == 1.

    When true, the witness exponent is the field torsion order w_F: every
    conjugate ratio is then a root of unity in F, so a^{w_F} is fixed by
    Gal(F/K).  The witness is re-verified before being returned.
    """
    if a.is_zero():
        raise ZeroElement("membership of zero is undefined")
    if len(_orbit(a, k)[1]) != 1:
        return KdivResult(member=False)
    n = a.field.torsion_order
    power = a ** n
    if not k.contains(power):
        raise WitnessFailure("witness power is not fixed by Gal(F/K)")
    return KdivResult(member=True, exponent=n, power=power)
