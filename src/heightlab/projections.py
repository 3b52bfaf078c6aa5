"""Field-indexed projections of the height vector space.

S_K averages the Galois action over Gal(F/K): on a scalar--base pair it
multiplies the base over the full fixing group (the relative norm) and
divides the scale by the group order.  The full-group product and the
average over distinct orbit representatives are the same element modulo
torsion, so no distinctness bookkeeping is needed.  T_K = I - S_K is the
complement, and the composite projection onto a sum of images is

    W_N = I - (I - P_1) o (I - P_2) o ... o (I - P_N),

applied right to left, where P_i is S for image-side fields and T for
kernel-side fields.
"""

from __future__ import annotations

import dataclasses
from math import lcm as int_lcm

from .errors import NotConjugate, WitnessFailure, ZeroElement
from .heights import GElement, g_combine, g_equal, g_sub
from .numberfield import Automorphism, FieldElement, Subfield, _conjugate, galois_condition
from .placespace import f_vector, l1_norm


def s_project(u: GElement, k: Subfield) -> GElement:
    """Projection onto the span of K's image: the 1/[F:K]-scaled relative
    norm of the base."""
    return GElement._canonical(u.field, u.den * len(k.fixing_indices), k.norm(u.base))


def t_project(u: GElement, k: Subfield) -> GElement:
    """Complementary projection I - S_K; lands in the kernel of S_K."""
    return g_sub(u, s_project(u, k))


@dataclasses.dataclass(frozen=True)
class ProjectionSpec:
    """Ordered projection collection: S for fields_D, T for fields_E.

    condition_ok records whether every pair drawn from the union satisfies
    the pairwise Galois condition; violating specs still run, but their
    results carry no commuting-projection guarantee.  When it holds, the
    projections commute and each is idempotent, so build keeps only the
    first occurrence of each subfield in fields_D and in fields_E: a repeat
    changes no answer but doubles the terms of the membership witness.
    Without the condition the order matters, and the lists stay as given
    (on cbrt2_split, D = Q, K1, K2, K1 and D = Q, K1, K2 give different
    d_parts).
    """

    fields_D: tuple
    fields_E: tuple
    condition_ok: bool

    @staticmethod
    def build(fields_D, fields_E=()) -> "ProjectionSpec":
        fields_D = tuple(fields_D)
        fields_E = tuple(fields_E)
        all_fields = fields_D + fields_E
        if not all_fields:
            raise ValueError("projection spec needs at least one subfield")
        field = all_fields[0].field
        for k in all_fields:
            if k.field is not field:
                raise ValueError("subfields of different working fields")
        ok = all(galois_condition(all_fields[i], all_fields[j])
                 for i in range(len(all_fields))
                 for j in range(i + 1, len(all_fields)))
        if ok:
            fields_D = tuple(dict.fromkeys(fields_D))
            fields_E = tuple(dict.fromkeys(fields_E))
        return ProjectionSpec(fields_D, fields_E, ok)

    @property
    def field(self):
        return (self.fields_D + self.fields_E)[0].field


def _operators(spec: ProjectionSpec):
    return ([("S", k) for k in spec.fields_D]
            + [("T", k) for k in spec.fields_E])


def composite_project(u: GElement, spec: ProjectionSpec) -> GElement:
    """W_N(u) for the spec's projection collection."""
    x = u
    for kind, k in reversed(_operators(spec)):
        # I - S = T and I - T = S
        x = t_project(x, k) if kind == "S" else s_project(x, k)
    return g_sub(u, x)


@dataclasses.dataclass(frozen=True)
class MembershipWitness:
    """alpha^exponent equals the product of the per-field factors exactly,
    with factors[n] lying in fields_D[n]."""

    exponent: int
    factors: tuple


@dataclasses.dataclass(frozen=True)
class DecompositionResult:
    d_part: GElement
    e_part: GElement
    is_member: bool
    condition_ok: bool
    witness: MembershipWitness | None = None


def _membership_witness(u: GElement, spec: ProjectionSpec) -> MembershipWitness:
    """Explicit factorization promised by divisible-hull membership.

    Expand W_N = sum over nonempty subsets T of (-1)^(|T|+1) prod S_i and
    group terms by their outermost projection: that term's base is a
    nested relative norm landing in that field exactly.  Clearing the
    torsion order and all scale denominators turns the mod-torsion
    identity W_N(u) = u into an exact product identity in F.
    """
    fields = spec.fields_D
    n_fields = len(fields)
    grouped = [[] for _ in range(n_fields)]
    for mask in range(1, 1 << n_fields):
        idxs = [i for i in range(n_fields) if mask >> i & 1]
        term = u  # S_(idxs[0])(S_(idxs[1])(... (u))), outermost first
        for i in reversed(idxs):
            term = s_project(term, fields[i])
        if len(idxs) % 2 == 0:
            term = term.negate()
        grouped[idxs[0]].append(term)

    parts = [g_combine(terms) for terms in grouped]
    combined = g_combine(parts)
    if not g_equal(combined, u):
        raise WitnessFailure("witness expansion does not reproduce the input")

    m = int_lcm(*(part.den for part in parts))
    s = u.den
    w = u.field.torsion_order
    q = s * m * w
    factors = []
    for part, k in zip(parts, fields):
        exp = (m // part.den) * s * w
        delta = part.base ** exp
        if not k.contains(delta):
            raise WitnessFailure("witness factor is not fixed by its field group")
        factors.append(delta)
    product = u.field.one()
    for delta in factors:
        product = product * delta
    if u.base ** (m * w) != product:
        raise WitnessFailure("witness factors do not multiply back to the power")
    return MembershipWitness(exponent=q, factors=tuple(factors))


def is_member(u: GElement, spec: ProjectionSpec) -> DecompositionResult:
    """Membership of u in the subspace the spec projects onto, with the
    complementary decomposition u = d_part + e_part.

    For a pure image-side spec this decides membership in the divisible
    hull of K_1^x ... K_N^x, and a verified witness is attached whenever
    the answer is yes.
    """
    d_part = composite_project(u, spec)
    e_part = g_sub(u, d_part)
    member = e_part.is_zero()
    witness = None
    if member and spec.fields_D and not spec.fields_E:
        witness = _membership_witness(u, spec)
    return DecompositionResult(d_part=d_part, e_part=e_part, is_member=member,
                               condition_ok=spec.condition_ok, witness=witness)


def check_commutes(k1: Subfield, k2: Subfield, testset) -> bool:
    """Whether S_K1 and S_K2 commute on every element of the testset."""
    for u in testset:
        a = s_project(s_project(u, k1), k2)
        b = s_project(s_project(u, k2), k1)
        if not g_equal(a, b):
            return False
    return True


def _maps_onto(sigma: Automorphism, k: Subfield, l: Subfield) -> bool:
    """sigma K = L: sigma conjugates the fixing group of K to that of L."""
    return _conjugate(k.field, sigma.index, k.fixing_indices) == frozenset(l.fixing_indices)


def check_conjugation(k: Subfield, l: Subfield, sigma: Automorphism, testset) -> bool:
    """Whether sigma intertwines the two projections: sigma o S_K = S_L o sigma.

    Requires sigma K = L (conjugate fixing groups); raises NotConjugate
    otherwise.
    """
    if not _maps_onto(sigma, k, l):
        raise NotConjugate("automorphism does not map the first subfield onto the second")
    for u in testset:
        a = s_project(u, k).apply(sigma)
        b = s_project(u.apply(sigma), l)
        if not g_equal(a, b):
            return False
    return True


def operator_norm_check(u: GElement, k: Subfield):
    """(L1 norm of the projected vector, L1 norm of the input vector);
    the projection never increases the norm."""
    if u.is_zero():
        raise ZeroElement("norm check at the zero element")
    return (l1_norm(f_vector(s_project(u, k))), l1_norm(f_vector(u)))
