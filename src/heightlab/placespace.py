"""Finite place-vector representation of log-absolute-value functions.

Archimedean places come from the certified embeddings (real embeddings and
complex-conjugate pairs).  The finite places above a rational prime p come
from the factors of m_F mod p (Dedekind-Kummer) and the Galois group, which
permutes them transitively, so every prime above p has one (e, f).  One
route serves every p: the Frobenius x^p mod (m_F, p) gives the residue
degree f and the product r of the distinct factors of m_F mod p, with
m_F = r^e mod p, after the Dedekind criterion refuses index divisors; a
single branch of equal-degree splitting of r gives the factor g_1 of a
prime P_1, and its images under the automorphisms the factor of
sigma(P_1) for each automorphism sigma.

One anti-uniformizer of P_1, carried by the automorphisms, serves every
prime above p, and the composition table permutes the primes and,
through their labels, the embeddings.

The finite support of an element a lies above the primes of its
denominator and of the norm of its integral multiple, which
_integers.prime_factors factors (or refuses), and the valuations of those
integers come from _integers.valuation.

Place weights follow the local-degree normalization: weight(v) = e*f/d at a
finite place, 1/d per real embedding and 2/d per conjugate pair, so that
the weights above each rational place sum to 1.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import mpmath

from . import _modp
from ._integers import isprime, prime_factors, valuation
from ._padic import eval_mod
from .errors import (
    IndexDivisor,
    PrecisionExhausted,
    WitnessFailure,
    ZeroElement,
)
from .expressions import format_rational
from .heights import _FLOAT_SLACK, GElement, HeightValue, _class_images, _weil_height
from .numberfield import FieldElement, WorkingField, eval_poly
from .polynomials import Poly
from .roots import locked_workprec

@dataclasses.dataclass(frozen=True, order=True)
class PlaceId:
    """Stable identifier: kind sorts archimedean before finite; p is 0 for
    archimedean places; index is the embedding-class or ideal index."""

    kind: str  # "arch" | "finite"
    p: int
    index: int


@dataclasses.dataclass(frozen=True)
class PlaceEntry:
    value: float
    abs_error: float
    weight: Fraction
    e: int = 0           # finite places only
    f: int = 0
    valuation: int = 0   # valuation of the base element (unscaled)


@dataclasses.dataclass(frozen=True)
class LocalFactor:
    e: int
    f: int
    valuation: int


@dataclasses.dataclass(frozen=True)
class LocalFactorization:
    p: int
    factors: tuple


class PlaceVector:
    """Finite support of y -> log||u||_y with measure weights."""

    __slots__ = ("field", "element", "entries")

    def __init__(self, field: WorkingField, element: GElement, entries):
        self.field = field
        self.element = element
        self.entries = dict(sorted(entries.items()))

    def arch_items(self):
        return [(pid, ent) for pid, ent in self.entries.items() if pid.kind == "arch"]

    def finite_items(self):
        return [(pid, ent) for pid, ent in self.entries.items() if pid.kind == "finite"]

    def as_dict(self):
        """JSON-ready form: exact fraction weights, decimal values with
        error bounds.  InputError when an exact rational has more digits
        than Python converts to a string (expressions.format_rational)."""
        base = self.element.base
        return {
            "element": {
                "scale": format_rational(1, self.element.den),
                "base": [format_rational(n, base.den) for n in base.num],
            },
            "arch": [
                {
                    "id": pid.index,
                    "value": f"{ent.value:.15e}",
                    "abs_error": f"{ent.abs_error:.3e}",
                    "weight": format_rational(ent.weight),
                }
                for pid, ent in self.arch_items()
            ],
            "finite": [
                {
                    "p": pid.p,
                    "ideal": pid.index,
                    "e": ent.e,
                    "f": ent.f,
                    "value": f"{ent.value:.15e}",
                    "abs_error": f"{ent.abs_error:.3e}",
                    "weight": format_rational(ent.weight),
                }
                for pid, ent in self.finite_items()
            ],
        }


# -- prime splitting -----------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _PrimeData:
    """The prime P_i = (p, g_i(theta)) above p, for g_i mod p a factor of m_F
    mod p of multiplicity e and degree f (Dedekind-Kummer, Cohen, GTM 138,
    section 4.8), and the automorphism indices s with sigma_s(P_1) = P_i."""

    factor: tuple        # g_i mod p, monic, lowest coefficient first, in [0, p)
    e: int
    f: int
    anti_uniformizer: FieldElement   # valuation -1 here, >= 0 at the others
    movers: tuple        # ascending; a coset of the decomposition group of P_1


def _dedekind_index_check(field: WorkingField, p: int, r: list, e: int) -> None:
    """Certify p does not divide [O_F : Z[theta]]; raise IndexDivisor.

    r is the product of the distinct factors of least degree of m_F mod p,
    and e = d // deg r.  With p prime to the index, every prime above p in
    the Galois F has one (e, f), so m_F = r^e mod p (Dedekind-Kummer), and
    p is refused where it is not.  Then, for R the lift of r and
    m_F = R^e + p T, the Dedekind criterion (Cohen, GTM 138, theorem 6.1.4)
    certifies p prime to the index exactly when gcd(r, r^(e-1), T mod p)
    = 1: always for e = 1, and when gcd(r, T mod p) = 1 for e > 1.  Where
    deg r = d, r is m_F mod p, squarefree, and p divides neither disc(m_F)
    nor the index.
    """
    if len(r) - 1 == field.degree:
        return
    diff = list(field.m_ints)  # m_F - R^e
    power = [1]
    for _ in range(e):
        power = _modp.product(power, r)
    for i, c in enumerate(power):
        diff[i] -= c
    if any(c % p for c in diff) or (
            e > 1 and len(_modp.gcd(r, _modp.reduce([c // p for c in diff], p), p)) != 1):
        raise IndexDivisor(
            f"prime {p} divides the index of Z[theta] in the maximal order; "
            "place data for this field at this prime is refused")


def _valuation_with(a: FieldElement, tau: FieldElement, p: int, cap: int) -> int:
    """Largest k with a * tau^k still p-integral (a assumed p-integral),
    that is with a denominator prime to p, as it is in lowest terms."""
    k = 0
    x = a * tau
    while x.den % p:
        k += 1
        if k > cap:
            raise WitnessFailure("valuation iteration exceeded its norm bound")
        x = x * tau
    return k


def _prime_splitting(field: WorkingField, p: int):
    """The primes above p, as _PrimeData in the order of their factors
    mod p (by degree, then coefficients), cached on the field write-once.
    Threads may split the same prime at once; they store equal values.

    The least k with gcd(m_F, x^(p^k) - x) not 1 mod p is the residue
    degree f, and that gcd is the product r of the factors g_j of the
    primes P_j above p (_modp.frobenius_powers), each of multiplicity
    e = d / deg r in m_F mod p once _dedekind_index_check has passed.
    One factor g_1 comes from a single branch of equal-degree splitting of
    r, and P_1 = (p, g_1(theta)).  For each automorphism sigma with
    A_sigma = sigma(theta), sigma(P_1) = (p, g_1(A_sigma(theta))), whose
    factor is gcd(r, g_1(A_sigma)) mod p (Cohen, GTM 138, section 4.8);
    for f = 1 that is x - s with A_sigma(s) = r_1 for the root r_1 of g_1,
    and s = A_sigma^-1(r_1).  moved[i] is the factor of sigma_i(P_1); the
    group is transitive on the primes, so the distinct moved[i] are all
    the factors.

    tau_1 = (1/p) prod g_j(theta)^(e - [j = 1]) has valuation -1 at P_1
    and >= 0 at the others, as g_j(theta) lies in P_j alone; so
    sigma_s(tau_1) is an anti-uniformizer of sigma_s(P_1).
    """
    cached = field._place_cache.get(p)
    if cached is not None:
        return cached
    m = _modp.reduce(field.m_ints, p)
    r, powers = _modp.frobenius_powers(m, p)
    e, f = field.degree // (len(r) - 1), len(powers)
    _dedekind_index_check(field, p, r, e)
    g1 = _modp.equal_degree_factor(r, p, powers)
    images = [_residue_poly(sigma.theta_image, p) for sigma in field.automorphisms]
    if f == 1:
        r1 = -g1[0] % p
        # moved[i] = x - A_(sigma_i^-1)(r1), for i in order
        moved = [(-eval_mod(images[j], r1, p) % p, 1) for j in field._inv_table]
    else:
        moved = [tuple(_modp.gcd(r, _modp.compose(g1, a, r, p), p)) for a in images]
    movers = {}  # factor -> the automorphism indices moving P_1 there
    for s, g in enumerate(moved):
        movers.setdefault(g, []).append(s)
    factors = sorted(movers, key=lambda g: (len(g), g))
    if len(factors) * e * f != field.degree:
        raise WitnessFailure(f"the Galois group does not act transitively above {p}")
    theta = field.theta()
    tau = field.one() / p
    for g in factors:
        tau = tau * eval_poly(Poly(g), theta) ** (e - (g == moved[0]))
    autos = field.automorphisms
    result = field._place_cache[p] = tuple(
        _PrimeData(g, e, f, autos[movers[g][0]](tau), tuple(movers[g])) for g in factors)
    return result


def _residue_poly(a: FieldElement, p: int) -> list:
    """The coordinate polynomial of a mod p, for a with its denominator
    prime to p."""
    if a.den % p == 0:
        raise WitnessFailure("automorphism image left the local order")
    inv = pow(a.den, -1, p)
    return _modp.reduce([n * inv for n in a.num], p)


def local_factorization(field: WorkingField, a: FieldElement, p: int) -> LocalFactorization:
    """Primes of F above p with (e, f) and exact valuations of a.

    Raises IndexDivisor when the Dedekind criterion finds that p divides
    the index of Z[theta] in the maximal order (_dedekind_index_check).  The result is checked against the norm identity
    sum(f * v) = v_p(N(a)) and the computation aborts on any mismatch.
    """
    if a.is_zero():
        raise ZeroElement("valuations of zero are undefined")
    if not isprime(p):
        raise ValueError(f"{p} is not prime")
    return _local_factorization(field, a, p, abs(int((a * a.den).norm())))


def _local_factorization(field: WorkingField, a: FieldElement, p: int,
                         norm_b: int) -> LocalFactorization:
    """local_factorization of a nonzero a at a prime p, given
    norm_b = |N(a den)| for the denominator den of a."""
    data = _prime_splitting(field, p)
    den = a.den
    b = a * den
    vden = valuation(den, p)
    vnorm_b = valuation(norm_b, p)

    factors = []
    for pd in data:
        vb = _valuation_with(b, pd.anti_uniformizer, p, vnorm_b + 1)
        factors.append(LocalFactor(e=pd.e, f=pd.f, valuation=vb - pd.e * vden))

    total = sum(f.f * f.valuation for f in factors)
    # N(a) = N(b) / den^d
    vnorm = vnorm_b - field.degree * vden
    if total != vnorm:
        raise WitnessFailure(
            f"valuation/norm mismatch at p={p}: sum f*v = {total}, "
            f"v_p(Norm) = {vnorm}")
    return LocalFactorization(p=p, factors=tuple(factors))


# -- places and vectors ----------------------------------------------------


def places(field: WorkingField):
    """Archimedean places with weights (finite places are per-prime,
    through local_factorization)."""
    d = field.degree
    out = []
    for idx, cls in enumerate(field.archimedean_classes):
        out.append((PlaceId("arch", 0, idx), Fraction(len(cls), d)))
    return out


def f_vector(u: GElement) -> PlaceVector:
    """The place vector of a group element: archimedean values at every
    embedding class, finite values wherever the valuation is nonzero."""
    if u.is_zero():
        return PlaceVector(u.field, u, {})
    return _place_vector(u, None)


def _vector_and_height(u: GElement):
    """(f_vector(u), g_height(u)), both read off one evaluation of the base
    at the embeddings.  The vector comes first, so that its
    PrecisionExhausted comes before any refusal of the height."""
    if u.is_zero():
        return f_vector(u), HeightValue.exact_zero()
    with locked_workprec(u.field.precision_bits):
        images = _class_images(u.base)
    return _place_vector(u, images), _weil_height(u.base, images).divided(u.den)


def _place_vector(u: GElement, images) -> PlaceVector:
    """f_vector of the nonzero u, whose archimedean entries read images,
    the _class_images of its base, or evaluate them when images is None."""
    field = u.field
    beta = u.base
    scale = 1 / u.den
    d = field.degree
    entries = {}

    with locked_workprec(field.precision_bits):
        if images is None:
            images = _class_images(beta)
        for idx, (cls, (w, delta)) in enumerate(zip(field.archimedean_classes, images)):
            mag = abs(w)
            if mag <= 2 * delta:
                raise PrecisionExhausted(
                    "embedding value indistinguishable from zero")
            value = float(mpmath.log(mag)) * scale
            err = scale * (delta / (float(mag) - delta)) \
                + _FLOAT_SLACK * (1 + abs(value))
            entries[PlaceId("arch", 0, idx)] = PlaceEntry(
                value=value, abs_error=err, weight=Fraction(len(cls), d))

    den = beta.den
    norm_b = abs(int((beta * den).norm()))
    for p in sorted(prime_support(den, norm_b)):
        lf = _local_factorization(field, beta, p, norm_b)
        for j, fac in enumerate(lf.factors):
            if fac.valuation == 0:
                continue
            logp = math.log(p)
            value = -(fac.valuation / (fac.e * u.den)) * logp
            entries[PlaceId("finite", p, j)] = PlaceEntry(
                value=value,
                abs_error=_FLOAT_SLACK * (1 + abs(value)),
                weight=Fraction(fac.e * fac.f, d),
                e=fac.e, f=fac.f, valuation=fac.valuation)
    return PlaceVector(field, u, entries)


def prime_support(*ints) -> set:
    """The primes dividing any of the given nonzero integers, or
    FactorizationExhausted (_integers.prime_factors)."""
    return set().union(*map(prime_factors, ints))


def l1_norm(v: PlaceVector) -> float:
    """Weighted L1 norm; equals twice the Weil height of the element."""
    return sum(float(ent.weight) * abs(ent.value) for ent in v.entries.values())


def integral(v: PlaceVector) -> float:
    """Weighted integral; the product formula makes this vanish."""
    return sum(float(ent.weight) * ent.value for ent in v.entries.values())


def vector_error_bound(v: PlaceVector) -> float:
    return sum(float(ent.weight) * ent.abs_error for ent in v.entries.values())


# -- the isometric Galois action ------------------------------------------


def _arch_permutation(field: WorkingField, sigma):
    """perm[c] = the class of embedding_c composed with sigma, read off the
    composition table: an embedding labelled j is theta_1 after sigma_j,
    so after sigma it is theta_1 after sigma_j sigma, the embedding
    labelled comp[j][sigma]."""
    labels = field.embedding_labels
    classes = field.archimedean_classes
    class_of_label = {labels[i]: idx for idx, cls in enumerate(classes) for i in cls}
    comp = field._comp_table
    return [class_of_label[comp[labels[cls[0]]][sigma.index]] for cls in classes]


def _finite_permutation(field: WorkingField, sigma, p: int):
    """perm[i] = j with sigma(P_i) = P_j, read off the composition table:
    P_i = sigma_s(P_1) for s in its movers, so sigma(P_i) is the prime whose
    movers hold the index of sigma sigma_s."""
    data = _prime_splitting(field, p)
    prime_of = {s: j for j, pd in enumerate(data) for s in pd.movers}
    row = field._comp_table[sigma.index]
    return [prime_of[row[pd.movers[0]]] for pd in data]


def permute_by_automorphism(v: PlaceVector, sigma) -> PlaceVector:
    """The vector of the sigma-image element, realized as a weight-preserving
    permutation of entries within each fiber.

    Both halves are lookups in the composition table, with no valuation
    and no embedding computed: the archimedean entries move by
    _arch_permutation, from the automorphism that labels each embedding;
    the finite ones by _finite_permutation at each prime of the support,
    from the automorphisms that carry its first prime to each prime.
    """
    field = v.field
    new_element = v.element.apply(sigma)
    if not v.entries:
        return PlaceVector(field, new_element, {})
    entries = {}

    arch = v.arch_items()
    if arch:
        perm = _arch_permutation(field, sigma)
        by_index = {pid.index: ent for pid, ent in arch}
        for pid, ent in arch:
            src = perm[pid.index]
            src_ent = by_index[src]
            if src_ent.weight != ent.weight:
                raise WitnessFailure("archimedean permutation is not weight-preserving")
            entries[pid] = dataclasses.replace(src_ent)

    sigma_inv = sigma.inverse()
    finite_ps = sorted({pid.p for pid, _ in v.finite_items()})
    for p in finite_ps:
        perm = _finite_permutation(field, sigma_inv, p)
        fiber = {pid.index: ent for pid, ent in v.finite_items() if pid.p == p}
        for j, src in enumerate(perm):
            if src in fiber:
                entries[PlaceId("finite", p, j)] = dataclasses.replace(fiber[src])
    return PlaceVector(field, new_element, entries)
