"""Galois orbits modulo torsion and divisible-hull membership.

For a subfield K of the working field, the orbit of a nonzero element
under Gal(F/K) is grouped into torsion-equivalence classes, exactly.
The class count delta equals the minimal degree [K(a^m):K] over nonzero
integer powers m, with the minimum attained at m = w_F: a ratio of
conjugates that is a root of unity lies in F, so its order divides w_F,
and conjugates of a^{w_F} collide exactly when the orbit elements are
torsion-equivalent.  The classes are read off those conjugates, from one
power of a.
"""

from __future__ import annotations

import dataclasses

from .errors import WitnessFailure, ZeroElement
from .heights import HeightValue, weil_height
from .numberfield import FieldElement, Subfield, sorted_by_coordinates


@dataclasses.dataclass(frozen=True)
class OrbitReport:
    representatives: tuple   # distinct mod torsion, sorted by coordinates
    delta: int               # |Orb_K(a)| in the group modulo torsion
    conjugate_count: int     # [K(a):K], the number of distinct conjugates
    width: HeightValue       # W_K(a), exactly zero when delta == 1
    norm_element: FieldElement  # product of the distinct conjugates, in K
    power: FieldElement      # a^{w_F}, whose conjugates key the classes


def _distinct_conjugates(a: FieldElement, k: Subfield):
    """(sigma(a), sigma) per distinct conjugate, sorted by coordinates,
    with sigma the first automorphism in Gal(F/K) giving that image."""
    images = {}
    for sigma in k.fixing_group:
        img = sigma(a)
        images.setdefault(img, sigma)
    return sorted_by_coordinates(list(images.items()), lambda pair: pair[0])


def _orbit(a: FieldElement, k: Subfield):
    """The distinct conjugates of a with their torsion classes, and the
    conjugate product (checked to lie in K).

    Returns (conjugates, keys, reps, norm_el, power): conjugates are the
    distinct sigma(a) in coordinate order, keys[i] is the class key of
    conjugates[i], reps holds the first conjugate of each class, and power
    is b = a^{w_F}.  The key of sigma(a) is sigma(b): a ratio of conjugates
    that is a root of unity lies in F, so its order divides w_F, and
    sigma(a), tau(a) are torsion-equivalent exactly when
    sigma(b) == tau(b).  One power of a decides every class, with no field
    inverse and no pairwise test.
    """
    pairs = _distinct_conjugates(a, k)
    conjugates = [img for img, _sigma in pairs]
    power = a ** a.field.torsion_order
    keys = [sigma(power) for _img, sigma in pairs]
    first = {}
    for img, key in zip(conjugates, keys):
        first.setdefault(key, img)
    reps = list(first.values())

    norm_el = a.field.one()
    for img in conjugates:
        norm_el = norm_el * img
    if not k.contains(norm_el):
        raise WitnessFailure("conjugate product is not fixed by Gal(F/K)")
    return conjugates, keys, reps, norm_el, power


def orbit_mod_torsion(a: FieldElement, k: Subfield) -> OrbitReport:
    """Orbit representatives modulo torsion, counts, the width and the
    conjugate product.

    The width W_K(a) is the largest h(sigma(a)/a).  It is the exact zero
    when delta == 1; otherwise a is inverted once, and only the conjugates
    outside a's own class are measured, as a ratio within that class is a
    root of unity, of the exact height zero, which never raises the width.
    """
    if a.is_zero():
        raise ZeroElement("orbit of zero is undefined")
    conjugates, keys, reps, norm_el, power = _orbit(a, k)
    width = HeightValue.exact_zero()
    if len(reps) > 1:
        inverse = a.inverse()
        for img, key in zip(conjugates, keys):
            if key != power:
                h = weil_height(img * inverse)
                if h.value > width.value:
                    width = h
    return OrbitReport(representatives=tuple(reps), delta=len(reps),
                       conjugate_count=len(conjugates), width=width,
                       norm_element=norm_el, power=power)


def delta_K(a: FieldElement, k: Subfield) -> int:
    """Minimal [K(a^m):K] over nonzero m; the orbit count modulo torsion."""
    if a.is_zero():
        raise ZeroElement("delta of zero is undefined")
    return len(_orbit(a, k)[2])


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
    return _bounds(a, orbit_mod_torsion(a, k))


def _bounds(a: FieldElement, report: OrbitReport):
    """vk_bounds of a from its orbit report."""
    width = report.width
    lower = width.scaled("1/2")
    if report.delta == 1:
        return lower, HeightValue.exact_zero()
    n = report.conjugate_count
    # a torsion ratio has the exact height zero
    candidate = weil_height(a ** n * report.norm_element.inverse()).scaled(f"1/{n}")
    upper = candidate if candidate.value < width.value else width
    return lower, upper


def _bounds_and_membership(a: FieldElement, k: Subfield):
    """(lower, upper, KdivResult): vk_bounds and in_kdiv of a from one
    orbit report, for the vk-bounds command."""
    if a.is_zero():
        raise ZeroElement("bounds at zero are undefined")
    report = orbit_mod_torsion(a, k)
    return (*_bounds(a, report), _membership(a, k, report.delta, report.power))


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
    _conjugates, _keys, reps, _norm_el, power = _orbit(a, k)
    return _membership(a, k, len(reps), power)


def _membership(a: FieldElement, k: Subfield, delta: int,
                power: FieldElement) -> KdivResult:
    """in_kdiv of a, given delta_K(a) and power = a^{w_F} from its orbit: a
    is a member exactly when delta == 1, with that power as the witness."""
    if delta != 1:
        return KdivResult(member=False)
    if not k.contains(power):
        raise WitnessFailure("witness power is not fixed by Gal(F/K)")
    return KdivResult(member=True, exponent=a.field.torsion_order, power=power)
