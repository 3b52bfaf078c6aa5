"""Finite place-vector representation of log-absolute-value functions.

Archimedean places come from the certified embeddings (real embeddings and
complex-conjugate pairs); finite places above a rational prime p come from
the factorization of the defining polynomial mod p, valid only when p does
not divide the index of the power-basis order.  Index divisors are detected
by the Dedekind criterion and refused rather than guessed.

Place weights follow the local-degree normalization: weight(v) = e*f/d at a
finite place, 1/d per real embedding and 2/d per conjugate pair, so that
the weights above each rational place sum to 1.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import mpmath
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_factor, gf_from_int_poly, gf_gcd, gf_rem

from .errors import (
    FactorizationExhausted,
    IndexDivisor,
    PrecisionExhausted,
    WitnessFailure,
    ZeroElement,
)
from .heights import GElement
from .numberfield import FieldElement, WorkingField, eval_at_embedding, eval_poly
from .polynomials import Poly
from .roots import _disk, _meeting_disk, locked_workprec

_FLOAT_SLACK = 1e-15

# trial division bound for sympy.factorint, which with a limit also bounds
# its Pollard rho and p - 1 rounds: a product of two 25-digit primes is
# refused in about 0.4 s instead of taking about 40 s to split
_FACTOR_LIMIT = 2 ** 16


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
        error bounds."""
        return {
            "element": {
                "scale": str(self.element.scale),
                "base": [str(c) for c in self.element.base.coords],
            },
            "arch": [
                {
                    "id": pid.index,
                    "value": f"{ent.value:.15e}",
                    "abs_error": f"{ent.abs_error:.3e}",
                    "weight": str(ent.weight),
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
                    "weight": str(ent.weight),
                }
                for pid, ent in self.finite_items()
            ],
        }


def _factor_mod_p(poly: Poly, p: int):
    """Irreducible factors of an integer polynomial mod p, monic, sorted by
    (degree, coefficient tuple); returns [(coeffs_low_first, multiplicity)]."""
    dense = [int(c) % p for c in reversed(poly.coeffs)]
    _, factors = gf_factor(ZZ.map(dense), p, ZZ)
    out = []
    for f, mult in factors:
        low_first = tuple(int(c) % p for c in reversed(f))
        out.append((low_first, int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return out


# -- prime splitting (Dedekind) -------------------------------------------


@dataclasses.dataclass(frozen=True)
class _PrimeData:
    gbar: tuple          # factor mod p, highest coefficient first, in [0, p)
    e: int
    f: int
    anti_uniformizer: FieldElement   # valuation -1 here, >= 0 at the others
    uniformizer: FieldElement        # valuation exactly 1 here, 0 at others


def _int_valuation(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def _dedekind_index_check(field: WorkingField, p: int, factors) -> None:
    """Certify p does not divide [O_F : Z[theta]]; raise IndexDivisor."""
    disc = field.disc
    if _int_valuation(disc.numerator, p) <= 1:
        return
    g_star = Poly([1])
    h_star = Poly([1])
    for coeffs, mult in factors:
        lift = Poly(coeffs)
        g_star = g_star * lift
        h_star = h_star * lift ** (mult - 1)
    diff = g_star * h_star - field.defining_poly
    t_coeffs = []
    for c in diff.coeffs:
        num = int(c)
        if num % p != 0:
            raise WitnessFailure("Dedekind lift mismatch")
        t_coeffs.append(num // p)
    g1 = gf_gcd(gf_from_int_poly([int(c) for c in reversed(g_star.coeffs)], p),
                gf_from_int_poly([int(c) for c in reversed(h_star.coeffs)], p),
                p, ZZ)
    g2 = gf_gcd(g1, gf_from_int_poly(t_coeffs[::-1], p), p, ZZ)
    if len(g2) != 1:
        raise IndexDivisor(
            f"prime {p} divides the index of Z[theta] in the maximal order; "
            "place data for this field at this prime is refused")


def _is_p_integral(a: FieldElement, p: int) -> bool:
    # the representation is in lowest terms, so this is every coordinate's
    # denominator being prime to p
    return a.den % p != 0


def _valuation_with(a: FieldElement, tau: FieldElement, p: int, cap: int) -> int:
    """Largest k with a * tau^k still p-integral (a assumed p-integral)."""
    k = 0
    x = a * tau
    while _is_p_integral(x, p):
        k += 1
        if k > cap:
            raise WitnessFailure("valuation iteration exceeded its norm bound")
        x = x * tau
    return k


def _prime_splitting(field: WorkingField, p: int):
    cached = field._place_cache.get(p)
    if cached is not None:
        return cached
    factors = _factor_mod_p(field.defining_poly, p)
    _dedekind_index_check(field, p, factors)
    theta = field.theta()

    g_elems = []
    for coeffs, mult in factors:
        lift = Poly(coeffs)
        acc = eval_poly(lift, theta)
        if acc.is_zero():
            # the canonical lift was m_F itself (single inert factor); use
            # the lift shifted by p, whose value at theta is p
            acc = field.from_rational(p)
        g_elems.append((acc, mult, lift.degree))

    data = []
    for i, (gi, ei, fi) in enumerate(g_elems):
        tau = field.one()
        for j, (gj, ej, _) in enumerate(g_elems):
            if j != i:
                tau = tau * gj ** ej
        tau = tau * gi ** (ei - 1) / p

        cap = _int_valuation(abs(int(gi.norm())), p) + 1
        v_gi = _valuation_with(gi, tau, p, cap)
        pi = gi if v_gi == 1 else gi + p
        data.append(_PrimeData(gbar=factors[i][0][::-1],
                               e=ei, f=fi, anti_uniformizer=tau, uniformizer=pi))

    result = tuple(data)
    field._place_cache[p] = result
    return result


def local_factorization(field: WorkingField, a: FieldElement, p: int) -> LocalFactorization:
    """Primes of F above p with (e, f) and exact valuations of a.

    Raises IndexDivisor when the Dedekind method cannot certify the
    splitting at p.  The result is checked against the norm identity
    sum(f * v) = v_p(N(a)) and the computation aborts on any mismatch.
    """
    if a.is_zero():
        raise ZeroElement("valuations of zero are undefined")
    if not sympy.isprime(p):
        raise ValueError(f"{p} is not prime")
    return _local_factorization(field, a, p, abs(int((a * a.den).norm())))


def _local_factorization(field: WorkingField, a: FieldElement, p: int,
                         norm_b: int) -> LocalFactorization:
    """local_factorization of a nonzero a at a prime p, given
    norm_b = |N(a den)| for the denominator den of a."""
    data = _prime_splitting(field, p)
    den = a.den
    b = a * den
    vden = _int_valuation(den, p) if den % p == 0 else 0
    vnorm_b = _int_valuation(norm_b, p) if norm_b % p == 0 else 0

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
    field = u.field
    if u.is_zero():
        return PlaceVector(field, u, {})
    beta = u.base
    scale = float(u.scale)
    d = field.degree
    entries = {}

    with locked_workprec(field.precision_bits):
        for idx, cls in enumerate(field.archimedean_classes):
            root = field.embeddings[cls[0]]
            w, delta = eval_at_embedding(beta, root)
            mag = abs(w)
            if mag <= 2 * delta:
                raise PrecisionExhausted(
                    "embedding value indistinguishable from zero")
            value = float(mpmath.log(mag)) * scale
            err = abs(scale) * (delta / (float(mag) - delta)) \
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
            value = -float(u.scale * Fraction(fac.valuation, fac.e)) * logp
            entries[PlaceId("finite", p, j)] = PlaceEntry(
                value=value,
                abs_error=_FLOAT_SLACK * (1 + abs(value)),
                weight=Fraction(fac.e * fac.f, d),
                e=fac.e, f=fac.f, valuation=fac.valuation)
    return PlaceVector(field, u, entries)


def prime_support(*ints) -> set:
    """The primes dividing any of the given nonzero integers.

    FactorizationExhausted when sympy.factorint, held to _FACTOR_LIMIT,
    leaves a composite factor."""
    support = set()
    for n in ints:
        support.update(sympy.factorint(abs(n), limit=_FACTOR_LIMIT))
    for p in support:
        if not sympy.isprime(p):
            raise FactorizationExhausted(
                f"{p} has no prime factor below {_FACTOR_LIMIT} and is not prime")
    return support


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
    """perm[c] = class index of (embedding_c composed with sigma), the
    embedding whose disk alone meets the disk about the image of theta."""
    classes = field.archimedean_classes
    class_of_embedding = {i: idx for idx, cls in enumerate(classes) for i in cls}
    disks = [_disk(r.value, r.radius) for r in field.embeddings]
    perm = []
    with locked_workprec(field.precision_bits):
        for cls in classes:
            w, delta = eval_at_embedding(sigma.theta_image, field.embeddings[cls[0]])
            j = _meeting_disk(disks, _disk(w, delta),
                              "could not certify the embedding permutation")
            perm.append(class_of_embedding[j])
    return perm


def _finite_permutation(field: WorkingField, sigma, p: int):
    """perm[i] = j with sigma(P_i) = Q_j, via uniformizer images."""
    data = _prime_splitting(field, p)
    perm = []
    for pd in data:
        img = sigma(pd.uniformizer)
        if not _is_p_integral(img, p):
            raise WitnessFailure("automorphism image left the local order")
        den_inv = pow(img.den, -1, p)
        img_p = gf_from_int_poly([n * den_inv for n in reversed(img.num)], p)
        hits = [j for j, qd in enumerate(data)
                if not gf_rem(img_p, list(qd.gbar), p, ZZ)]
        if len(hits) != 1:
            raise WitnessFailure("prime permutation was not uniquely determined")
        perm.append(hits[0])
    return perm


def permute_by_automorphism(v: PlaceVector, sigma) -> PlaceVector:
    """The vector of the sigma-image element, realized as a weight-preserving
    permutation of entries within each fiber.

    PrecisionExhausted when the image of an embedding may lie in two
    certified disks, as for two automorphisms of cbrt2_split at 8 bits.
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
        data = _prime_splitting(field, p)
        for j in range(len(data)):
            src = perm[j]
            if src in fiber:
                ent = fiber[src]
                entries[PlaceId("finite", p, j)] = dataclasses.replace(ent)
    return PlaceVector(field, new_element, entries)
