"""Exact arithmetic in a fixed Galois number field F = Q[t]/(m_F).

The defining polynomial m_F is monic, irreducible over Q, with integer
coefficients, and must split completely in its own root field (Galois
requirement).  An element is a vector of integer numerators over one
positive common denominator on the power basis 1, t, ..., t^(d-1), kept in
lowest terms (the gcd of the denominator and all numerators is 1), so
that equal elements have equal representations (the form of
polynomials.Poly, whose lowest_terms and from_rationals it shares; Fraction
coordinates are only a view).  Because m_F is monic over Z, products
reduce with integer rows and are normalized once (Cohen, A Course in
Computational Algebraic Number Theory, ch. 4).  Everything here is
immutable after construction and safe for concurrent reads.

make_field builds a field in four steps.  It proves m_F irreducible over
Q.  It finds the Galois group at the least prime q where m_F splits: it
lifts one root of m_F to F above each root mod q that the automorphisms
found so far do not cover, and closes them under composition.  A field
that is not Galois is refused there, before any multiprecision work.  It
certifies the d complex embeddings from one root theta_1 of m_F and the
automorphisms (roots.galois_roots): embedding i is t -> A_j(theta_1) for
the automorphism t -> A_j(t) of its label j, enclosed by a disk that holds
that value by construction, so the composition table tells how the
automorphisms permute the embeddings.  Last it finds the roots of unity,
with one lift for each prime power that the Galois group and the split
primes allow.

Inverses are products of automorphism images, so only a field from
make_field inverts beyond Q; the root lifts that build the group take
m_F'(theta)^-1 from the extended Euclidean algorithm.  Each lift starts at
a precision estimated from binary64 approximations of the roots of m_F,
which the field computes once, so a cold build reduces one lattice at its
split prime.  make_field refuses degrees above MAX_DEGREE.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import ceil, isfinite, log2
from math import gcd as int_gcd
from math import lcm as int_lcm
from operator import mul

import mpmath

from ._integers import euler_phi, next_prime, prime_factors
from ._padic import ReducedLattice, eval_mod, hensel_lift
from .errors import FieldTooLarge, NotGalois, ReduciblePolynomial, WitnessFailure
from .polynomials import (
    Poly,
    content_and_primitive,
    cyclotomic,
    discriminant,
    from_rationals,
    inverse_mod,
    is_irreducible,
    lowest_terms,
    squarefree_part,
)
from .roots import DEFAULT_PRECISION_BITS, _bounded_eval, _float_starts, _to_mpf, galois_roots

# the largest degree make_field builds: degree 32 builds cold in seconds
# (README, Supported scale), while the exact LLL reductions of the lifts
# grow much faster than the degree
MAX_DEGREE = 32


def _normalized(field: "WorkingField", num, den: int) -> "FieldElement":
    """The element num/den (den nonzero), brought to lowest terms with a
    positive denominator."""
    el = object.__new__(FieldElement)
    el.field = field
    el.num, el.den = lowest_terms(num, den)
    return el


def sorted_by_coordinates(items, key=lambda a: a) -> list:
    """The list items in the order of the Fraction coordinates of the
    elements key(item): by their numerators over a common denominator."""
    den = int_lcm(*(key(x).den for x in items))
    ranks = [[n * (den // key(x).den) for n in key(x).num] for x in items]
    return [items[i] for i in sorted(range(len(items)), key=ranks.__getitem__)]


class FieldElement:
    """Element of the working field: integer numerators num over the
    positive denominator den, with gcd(den, *num) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "WorkingField", coords):
        num, den = from_rationals(coords)
        self.field, self.num, self.den = field, tuple(num), den

    @property
    def coords(self) -> tuple:
        """Power-basis coordinates as lowest-terms Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different working fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self) -> "FieldElement":
        return _normalized(self.field, [-n for n in self.num], self.den)

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ad, bd = self.den, other.den
        if ad == bd:
            return _normalized(self.field,
                               [x + y for x, y in zip(self.num, other.num)], ad)
        return _normalized(self.field,
                           [x * bd + y * ad for x, y in zip(self.num, other.num)],
                           ad * bd)

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ad, bd = self.den, other.den
        if ad == bd:
            return _normalized(self.field,
                               [x - y for x, y in zip(self.num, other.num)], ad)
        return _normalized(self.field,
                           [x * bd - y * ad for x, y in zip(self.num, other.num)],
                           ad * bd)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            return _normalized(self.field, [n * other.numerator for n in self.num],
                               self.den * other.denominator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.field._mul(self, other)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        return self.field._inverse(self)

    def __truediv__(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("field element divided by zero")
            return _normalized(self.field, [n * other.denominator for n in self.num],
                               self.den * other.numerator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.from_rational(other) / self

    def __pow__(self, n: int) -> "FieldElement":
        """Square and multiply from the lowest set bit of n, so that no
        product is by 1."""
        if n < 0:
            return self.inverse() ** (-n)
        if n == 0:
            return self.field.one()
        base = self
        while not n & 1:
            base = base * base
            n >>= 1
        result = base
        n >>= 1
        while n:
            base = base * base
            if n & 1:
                result = result * base
            n >>= 1
        return result

    def norm(self) -> Fraction:
        """Field norm N_{F/Q}, exact: the product of the conjugates, so the
        field must come from make_field.  WitnessFailure unless the product
        is rational."""
        n = rational_subfield(self.field).norm(self)
        if not n.is_rational():
            raise WitnessFailure("conjugate product is not rational")
        return n.as_rational()

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"


class Automorphism:
    """Field automorphism, determined by the image of the generator.

    It acts on coordinates through the matrix whose column j holds the
    coordinates of theta_image^j, stored row by row as integers over one
    common denominator.
    """

    __slots__ = ("field", "index", "theta_image", "_rows", "_den")

    def __init__(self, field, index, theta_image):
        self.field = field
        self.index = index
        self.theta_image = theta_image
        powers = [field.one()]
        for _ in range(field.degree - 1):
            powers.append(powers[-1] * theta_image)
        den = int_lcm(*(p.den for p in powers))
        cols = [[n * (den // p.den) for n in p.num] for p in powers]
        self._rows = tuple(zip(*cols))
        self._den = den

    def __call__(self, a: FieldElement) -> FieldElement:
        num = a.num
        return _normalized(self.field,
                           [sum(map(mul, row, num)) for row in self._rows],
                           a.den * self._den)

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other."""
        return self.field.automorphisms[
            self.field._comp_table[self.index][other.index]]

    def inverse(self) -> "Automorphism":
        return self.field.automorphisms[self.field._inv_table[self.index]]

    @property
    def is_identity(self) -> bool:
        return self.index == 0

    def __eq__(self, other):
        return (isinstance(other, Automorphism)
                and other.field is self.field and other.index == self.index)

    def __hash__(self):
        return hash((id(self.field), self.index))

    def __repr__(self):
        return f"Automorphism({self.index}: t -> {list(self.theta_image.coords)})"


class WorkingField:
    """A finite Galois extension of Q with cached structure.

    Construct through make_field, which performs irreducibility and Galois
    certification; direct instantiation skips those checks.
    """

    def __init__(self, defining_poly: Poly, precision_bits: int):
        self.defining_poly = defining_poly
        self.degree = defining_poly.degree
        self.precision_bits = precision_bits
        self.disc = discriminant(defining_poly)
        # the integer coefficients of m_F, lowest degree first
        self.m_ints = defining_poly.num
        d = self.degree
        # reduction rows: integer coords of theta^(d+k) for k = 0..d-2
        rows = []
        current = [-c for c in self.m_ints[:-1]]  # theta^d
        rows.append(tuple(current))
        for _ in range(d - 2):
            shifted = [0] + current[:-1]
            top = current[-1]
            if top:
                shifted = [s + top * m for s, m in zip(shifted, rows[0])]
            current = shifted
            rows.append(tuple(current))
        self._red_rows = rows
        # Tr(theta^i) for i < d, so that Tr is a dot product on coordinates
        self._traces = _power_sums(self.m_ints)
        self.embeddings = None
        # real embeddings and complex-conjugate pairs, as index lists
        self.archimedean_classes = None
        # embedding_labels[i] = j: embedding i is t -> A_j(theta_1), theta_1
        # after the automorphism j (roots.galois_roots)
        self.embedding_labels = None
        self.automorphisms = None
        self.torsion_order = None
        self.torsion_generator = None
        self._comp_table = None
        self._inv_table = None
        # write-once cache of finite-place splittings, keyed by prime
        self._place_cache = {}
        # write-once cache of subgroup chains (_subgroup_chain), keyed by
        # the fixing group
        self._chain_cache = {}
        # caches of the root finder: the roots of m_F mod each prime tried
        # (write-once), and the finest reduced lattice at each split prime
        self._split_roots = {}
        self._lattice_cache = {}
        self._dtheta_inverse = None
        # binary64 approximations of the d roots of m_F, or None when
        # binary64 cannot represent m_F (roots._float_starts): they set the
        # first precision of every lift (_lift_start), and the first of them
        # starts theta_1 of the embeddings (roots.galois_roots)
        self._float_conjugates = _float_starts(defining_poly)

    # -- element constructors -------------------------------------------

    def element(self, coords) -> FieldElement:
        cs = list(coords)
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [0] * (self.degree - len(cs))
        return FieldElement(self, cs)

    def from_rational(self, q) -> FieldElement:
        return self.element([q])

    def zero(self) -> FieldElement:
        return self.from_rational(0)

    def one(self) -> FieldElement:
        return self.from_rational(1)

    def theta(self) -> FieldElement:
        if self.degree == 1:
            return self.element([-self.m_ints[0]])
        return self.element([0, 1])

    # -- arithmetic backend ----------------------------------------------

    def _mul_num(self, an, bn) -> list:
        """The integer coordinates of the product of two integer
        coordinate vectors, reduced by the rows of theta^(d+k)."""
        d = self.degree
        conv = [0] * (2 * d - 1)
        for i, x in enumerate(an):
            if x:
                for k, y in enumerate(bn, i):
                    conv[k] += x * y
        out = conv[:d]
        for c, row in zip(conv[d:], self._red_rows):
            if c:
                out = [o + c * r for o, r in zip(out, row)]
        return out

    def _mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        """a b; a rational operand scales the other's coordinates, with d
        products instead of the d^2 of the convolution."""
        if not any(b.num[1:]):
            a, b = b, a
        if not any(a.num[1:]):
            c = a.num[0]
            return _normalized(self, [c * n for n in b.num], a.den * b.den)
        return _normalized(self, self._mul_num(a.num, b.num), a.den * b.den)

    def _inverse(self, a: FieldElement) -> FieldElement:
        """a^-1 = c / N(a), for c the product of sigma(a) over the
        automorphisms sigma other than the identity (_chain_norm).  Where
        Itoh and Tsujii (Inform. and Comput. 78, 1988) invert through a
        cyclic group, the chain serves any Galois group."""
        if a.is_rational():
            return _normalized(self, [a.den] + [0] * (self.degree - 1), a.num[0])
        n, factors = _chain_norm(self, tuple(range(len(_automorphisms(self)))), a)
        if not n.is_rational():
            raise WitnessFailure("conjugate product is not rational")
        c = functools.reduce(mul, factors)
        return _normalized(self, [x * n.den for x in c.num], c.den * n.num[0])

    def identity_automorphism(self) -> Automorphism:
        return self.automorphisms[0]

    def is_totally_real(self) -> bool:
        return all(r.is_real for r in self.embeddings)

    def __repr__(self):
        return f"WorkingField({self.defining_poly!r}, degree={self.degree})"


def eval_poly(p: Poly, a: FieldElement) -> FieldElement:
    """Evaluate a rational polynomial at a field element.

    With p = sum (n_i / D) x^i for its numerators n_i over its denominator
    D and a = A / e, Horner runs on integer coordinates,
    D e^n p(a) = sum n_i e^(n-i) A^i for n = deg p, and the result is
    brought to lowest terms once.
    """
    field = a.field
    if p.is_zero():
        return field.zero()
    acc = [p.num[-1]] + [0] * (field.degree - 1)
    e_power = 1
    for c in reversed(p.num[:-1]):
        e_power *= a.den
        acc = field._mul_num(acc, a.num)
        acc[0] += c * e_power
    return _normalized(field, acc, p.den * e_power)


def eval_at_embeddings(a: FieldElement, roots) -> list:
    """The images of a under the embeddings t -> root, one per root, each
    with a rigorous bound on its distance from the true image
    (roots._bounded_eval, the bound galois_roots encloses its roots with);
    the coordinates of a are converted to mpf once.  The arithmetic runs
    at the current precision, but at no fewer than 53 bits, so that every
    gamma is below 1.  Call under roots.locked_workprec.
    """
    prec = max(mpmath.mp.prec, 53)
    with mpmath.workprec(prec):
        cs = _to_mpf(a.num, a.den)
        return [_bounded_eval(cs, root.value, root.radius, prec) for root in roots]


# -- root finding inside the field ----------------------------------------


def _split_prime(field: WorkingField, avoid: int):
    """The least prime q not dividing disc(m_F) * avoid at which m_F has a
    root mod q, with the least such root.

    q is unramified and prime to the index of Z[theta], so the primes of F
    above q all have the residue degree of any irreducible factor of m_F
    mod q; a Galois field has one residue degree, so a root mod q means
    that m_F splits into d distinct linear factors.  Anything less raises
    NotGalois.
    """
    bad = field.disc.numerator * avoid
    q = 1
    while True:
        q = next_prime(q)
        if bad % q == 0:
            continue
        roots = field._split_roots.get(q)
        if roots is None:
            roots = _roots_mod(field.m_ints, q)
            if 0 < len(roots) < field.degree:
                raise NotGalois(
                    f"the defining polynomial has {len(roots)} of "
                    f"{field.degree} roots mod the unramified prime {q}; "
                    "supply the Galois closure")
            field._split_roots[q] = roots
        if roots:
            return q, roots[0]


def _roots_mod(ints, q: int) -> tuple:
    """The distinct roots mod q of an integer polynomial (lowest degree
    first) whose leading coefficient is prime to q, in increasing order:
    the residues where it vanishes, at most its degree of them."""
    n = len(ints) - 1
    cs = [c % q for c in ints]
    roots = []
    for r in range(q):
        if not eval_mod(cs, r, q):
            roots.append(r)
            if len(roots) == n:
                break
    return tuple(roots)


def _lattice(field: WorkingField, q: int, r1: int, k: int):
    """(k', r1 lifted mod q^k', LLL-reduced basis of L_k') for the finest
    lattice built so far at q when its k' >= k, else for k' = k, which then
    replaces it: L_k = {c in Z^d : sum c_i r1^i = 0 mod q^k} is the lattice
    of the coordinate vectors of the elements of Z[theta] in P^k, for P the
    prime above q at which theta = r1.  A finer lattice serves as well,
    since L_k' lies in L_k and its precision bound is only larger, so the
    lifts of one field at q share one reduction when the first of them
    starts at the largest k (_lift_start); a thread may replace it with a
    coarser one, which costs only a rebuild."""
    cached = field._lattice_cache.get(q)
    if cached is not None and cached[0] >= k:
        return cached
    modulus = q ** k
    lifted = hensel_lift(field.m_ints, r1, q, k)
    d = field.degree
    rows = [[modulus] + [0] * (d - 1)]
    power = 1
    for i in range(1, d):
        power = power * lifted % modulus
        rows.append([-power % modulus] + [int(j == i) for j in range(1, d)])
    result = field._lattice_cache[q] = (k, lifted, ReducedLattice(rows))
    return result


def _precision_bound(field: WorkingField, f_ints, q: int) -> int:
    """The least k_max with q^k_max > ((2^(d/2) + 1) sqrt(d) B sqrt(S))^d.

    Write m_F = sum a_i x^i and let gamma = l rho for a root rho in F of the
    integer polynomial f with leading coefficient l, so gamma is an
    algebraic integer.  Every conjugate of theta has modulus at most
    R = 1 + max|a_i| and every conjugate of gamma at most l + max|f_i|
    (Cauchy bounds).  With m_F(x) / (x - theta) = sum_j b_j x^j, that is
    b_j = sum_i a_(i+j+1) theta^i, the trace dual of the power basis is
    b_j / m_F'(theta) (Euler), so coordinate j of c = m_F'(theta) gamma is
    Tr(gamma b_j).  It is an integer of modulus at most
    B = max_j sum_i d (l + max|f_i|) R^i |a_(i+j+1)|, and |c| <= sqrt(d) B.

    c lies in the coset of L_k that Babai's nearest plane searches, so the
    residual x it returns has |x| <= 2^(d/2) |c|, and x - c is a vector of
    L_k of length at most (2^(d/2) + 1) sqrt(d) B.  A nonzero v in L_k is
    an element of P^k, so |N(v)| >= q^k, while each conjugate of v has
    modulus at most |v| sqrt(S) with S = sum_(i<d) R^(2i) (Cauchy-Schwarz),
    so |N(v)| <= (|v| sqrt(S))^d.  At k >= k_max this forces x = c: a
    candidate that fails the exact check there proves that rho is not the
    image of a root in F.  The bound is compared squared, in integers, with
    2^ceil(d/2) in place of 2^(d/2).  The search for k_max starts at
    ceil(bitlen(bound) / (2 log2 q)), a step or so from it, and moves
    by factors of q^2.
    """
    a = field.m_ints
    d = field.degree
    radius = 1 + max(abs(c) for c in a[:-1])
    gamma = f_ints[-1] + max(abs(c) for c in f_ints[:-1])
    coord = max(sum(d * gamma * radius ** i * abs(a[i + j + 1])
                    for i in range(d - j))
                for j in range(d))
    s = sum(radius ** (2 * i) for i in range(d))
    babai = 2 ** ((d + 1) // 2) + 1
    bound = (babai * babai * d * coord * coord * s) ** d
    k = max(1, ceil(bound.bit_length() / (2 * log2(q))))
    step = q * q
    power = step ** k
    while power <= bound:
        k, power = k + 1, power * step
    while k > 1 and power // step > bound:
        k, power = k - 1, power // step
    return k


def _lift_start(field: WorkingField, q: int, gamma_bits: float, k_max: int) -> int:
    """The first precision k of _lift_root at q, for a root rho in F of f
    whose algebraic integer gamma = l rho has conjugates of modulus at most
    2^gamma_bits: an estimate from the binary64 conjugates theta_1..theta_d
    of m_F, capped at k_max.

    Coordinate j of the target c = m_F'(theta) gamma is Tr(gamma b_j), for
    b_j = sum_i a_(i+j+1) theta^i (_precision_bound), so it has modulus at
    most |gamma| B with B = max_j sum_k |b_j(theta_k)|.  L_k has
    determinant q^k, and Babai's nearest plane returns c once the reduced
    basis, of vectors about q^(k/d) long, outgrows it; the start
    q^k >= 2^(d + 2) (|gamma| B)^d leaves a factor 2^(1 + 2/d) of room.
    The estimate only saves reductions: every candidate is still checked
    exactly, and only k_max proves a miss.  Where binary64 cannot represent
    m_F or the sums, the start is q^k near 2^(d^2/2), where the reduced
    basis outgrows Babai's factor 2^(d/2), or k_max.
    """
    d = field.degree
    conjugates = field._float_conjugates
    if conjugates is None:
        return min(k_max, max(1, d * d // (2 * q.bit_length())))
    a = field.m_ints
    sums = [0.0] * d
    try:
        for z in conjugates:
            b = 0j  # b_j(z) by synthetic division: b_(d-1) = 1, b_j = a_(j+1) + z b_(j+1)
            for j in range(d - 1, -1, -1):
                b = b * z + a[j + 1]
                sums[j] += abs(b)
    except OverflowError:
        return k_max
    bits = d * (gamma_bits + log2(max(sums))) + d + 2
    if not (isfinite(bits) and all(map(isfinite, sums))):
        return k_max
    return min(k_max, max(1, ceil(bits / log2(q))))


def _lift_root(field: WorkingField, f_ints, q: int, r1: int, rho: int, k: int, k_max: int):
    """The root in F of the primitive integer polynomial f with coefficients
    f_ints (lowest degree first) above its simple root rho mod q, verified
    by substitution, or None when F has none.

    The field embeds in Q_q by theta -> r1 (q prime to disc(m_F), to the
    leading coefficient l of f and to disc(f)).  l m_F'(theta) times the
    root of f in F above rho, if any, has integer coordinates c with
    sum c_i r1^i = l m_F'(r1) rho mod q^k.  Babai's nearest plane on the
    LLL-reduced lattice L_k of that congruence gives a candidate, accepted
    only when f vanishes at it exactly.  The first k is _lift_start's, or
    that of a finer lattice cached at q (_lattice).  On a miss k grows by a
    quarter, as a reduction costs about k^2.6 and the estimate is seldom
    far off, and the step doubles with each further miss, so that a root
    that is not there reaches the proven k_max of _precision_bound in
    about log2(k_max / k) + 2 reductions; a miss at k_max proves that no
    root of f in F lies above rho.
    """
    d = field.degree
    lead = f_ints[-1]
    dm_ints = [i * c for i, c in enumerate(field.m_ints)][1:]
    inv = field._dtheta_inverse
    if inv is None:
        p = inverse_mod(Poly(dm_ints), field.defining_poly)
        inv = field._dtheta_inverse = field.element(p.num) / p.den
    step = None
    while True:
        k, lifted, lattice = _lattice(field, q, r1, k)
        modulus = q ** k
        scale = lead * eval_mod(dm_ints, lifted, modulus)
        target = scale * hensel_lift(f_ints, rho, q, k) % modulus
        c = lattice.nearest_plane_residual([target] + [0] * (d - 1))
        candidate = _normalized(field, c, lead) * inv
        if eval_poly(Poly(f_ints), candidate).is_zero():
            return candidate
        if k >= k_max:
            return None
        step = 2 * step if step else -(-k // 4)
        # a step that would leave less than the next one goes to k_max
        k = k + step if k + 2 * step <= k_max else k_max


def roots_in_field(p: Poly, field: WorkingField) -> list[FieldElement]:
    """All exact roots of p in F, each verified by substitution, without
    repetition and sorted by coordinates.

    The roots are found at one prime q (Belabas, Topics in computational
    algebraic number theory, JTNB 2004).  Let f be the primitive integer
    squarefree part of p with leading coefficient l, and q the least prime
    prime to disc(m_F) l disc(f) at which m_F has a root r1 (so F embeds
    in Q_q by theta -> r1).  A root of f in F maps to a root of f mod q,
    so with none there is no root in F; each root mod q is lifted once by
    _lift_root, from the precision that _lift_start estimates with
    |l rho| <= |l| max(1, max |root of f|), the roots of f in binary64 or,
    where binary64 cannot represent f, bounded by Cauchy's 1 + max|f_i / l|.
    """
    if p.is_zero():
        raise ValueError("roots of the zero polynomial")
    _, f = content_and_primitive(squarefree_part(p))
    if f.degree < 1:
        return []
    f_ints = f.num
    lead = abs(f_ints[-1])
    q, r1 = _split_prime(field, lead * discriminant(f).numerator)
    residues = _roots_mod(f_ints, q)
    if not residues:
        return []
    roots = _float_starts(f)
    if roots is None:
        size = max(0, max(abs(c) for c in f_ints[:-1]).bit_length() - lead.bit_length() + 1) + 1
    else:
        size = log2(max(1.0, *map(abs, roots)))
    k_max = _precision_bound(field, f_ints, q)
    k = _lift_start(field, q, log2(lead) + size, k_max)
    lifts = (_lift_root(field, f_ints, q, r1, rho, k, k_max) for rho in residues)
    return sorted_by_coordinates([r for r in lifts if r is not None])


# -- minimal polynomials ---------------------------------------------------


def _power_sums(m_ints) -> tuple:
    """s_0, ..., s_(d-1), the power sums of the roots of the monic integer
    polynomial m = sum c_i x^i of degree d (lowest degree first), by
    Newton's identities: s_0 = d and s_k = -k c_(d-k) - sum over
    0 < i < k of c_(d-k+i) s_i."""
    d = len(m_ints) - 1
    s = [d]
    for k in range(1, d):
        s.append(-k * m_ints[d - k] - sum(m_ints[d - k + i] * s[i] for i in range(1, k)))
    return tuple(s)


def _minimal_polynomial_ints(a: FieldElement):
    """The integers c_0 = 1, c_1, ..., c_e of the minimal polynomial
    sum_k c_k x^(e-k) of the algebraic integer A, for a = A/D in lowest
    terms (A = a.num, D = a.den) and e the number of distinct conjugates of
    a; that of a is sum_k (c_k / D^k) x^(e-k).

    The characteristic polynomial of A is its minimal polynomial to the
    power d/e, so P_k = Tr(A^k) / (d/e) are the power sums of the e
    distinct conjugates of A, integers, with A^2, ..., A^e from e - 1
    products and Tr a dot product with the traces of the power basis.
    Newton's identities k c_k = -sum over 0 < i <= k of c_(k-i) P_i give
    the c_k with exact divisions (Cohen, GTM 138, ch. 4).  Whatever the
    divisions give, the result is certified by the witness
    sum_k c_k A^(e-k) = 0: a monic integer polynomial of degree e that
    vanishes at A, which has e distinct conjugates, is its minimal
    polynomial.  WitnessFailure otherwise.
    """
    if a.is_rational():
        return [1, -a.num[0]]
    field = a.field
    d = field.degree
    # automorphisms[0] is the identity
    e = len({a, *(sigma(a) for sigma in field.automorphisms[1:])})
    powers = [[1] + [0] * (d - 1), list(a.num)]  # A^0, ..., A^e
    for _ in range(e - 1):
        powers.append(field._mul_num(powers[-1], a.num))
    traces = field._traces
    sums = [sum(map(mul, traces, power)) // (d // e) for power in powers]
    c = [1]
    for k in range(1, e + 1):
        c.append(-sum(c[k - i] * sums[i] for i in range(1, k + 1)) // k)
    if any(sum(map(mul, c, column)) for column in zip(*reversed(powers))):
        raise WitnessFailure("the trace polynomial does not vanish at the element")
    return c


def minimal_polynomial(a: FieldElement) -> Poly:
    """Monic minimal polynomial of a over Q, from the traces of the powers
    of a: with a = A/D, its coefficient of x^(e-k) is c_k / D^k for the
    monic integer minimal polynomial sum_k c_k x^(e-k) of A, which Newton's
    identities give from the power sums Tr(A^k) / (d/e) of the e distinct
    conjugates of A (_minimal_polynomial_ints).

    Its degree e is the number of distinct conjugates, which divides [F:Q].
    WitnessFailure unless the integer polynomial vanishes at A exactly.
    """
    c = _minimal_polynomial_ints(a)
    e = len(c) - 1
    return Poly.from_ints([c[e - i] * a.den ** i for i in range(e + 1)], a.den ** e)


# -- field construction ----------------------------------------------------


def _galois_group(field: WorkingField):
    """The automorphisms of F and their composition and inverse tables,
    built from generators; NotGalois when F is not Galois.

    At the least split prime q of _split_prime, with theta = r1 at the prime
    P above q, an automorphism sigma is named by its residue, the root
    sigma(theta) mod P of m_F mod q; as q is prime to disc(m_F), the d
    automorphisms of a Galois F have the d roots as residues, once each.
    sigma_a after sigma_b sends theta to A_b(sigma_a(theta)), for A_b the
    coordinates of sigma_b(theta) (whose denominators are prime to q), so
    its residue is A_b at the residue of sigma_a: the table is read off
    residues, and an image is computed exactly only for a new residue.  From
    the identity, the set is closed under composition and the least root rho
    mod q that is no residue yet is lifted to the root of m_F in F above it
    (_lift_root), until there are d.  When F is Galois every rho has a lift,
    so a rho with none proves that F is not.  Every lift starts at the
    precision that _lift_start estimates from the largest conjugate of
    theta, so all of them share one reduced lattice.
    """
    d = field.degree
    q, r1 = _split_prime(field, 1)
    k_max = _precision_bound(field, field.m_ints, q)
    conjugates = field._float_conjugates
    size = 0.0 if conjugates is None else log2(max(1.0, *map(abs, conjugates)))
    k = _lift_start(field, q, size, k_max)
    autos, residues, index = [], [], {}  # index: residue -> position in autos
    products = {}  # (a, b) -> position of autos[a] after autos[b]

    def add(image, residue):
        index[residue] = len(autos)
        autos.append(Automorphism(field, None, image))
        residues.append(residue)

    add(field.theta(), r1)
    i = 0
    while i < len(autos):
        for j in range(i + 1):
            for a, b in ((i, j), (j, i)):
                image = autos[b].theta_image
                residue = eval_mod(image.num, residues[a], q) * pow(image.den, -1, q) % q
                if residue not in index:
                    add(autos[a](image), residue)
                products[a, b] = index[residue]
        i += 1
        if i == len(autos) < d:
            rho = min(r for r in field._split_roots[q] if r not in index)
            image = _lift_root(field, field.m_ints, q, r1, rho, k, k_max)
            if image is None:
                raise NotGalois(
                    f"no root of the defining polynomial in the field lies above "
                    f"its root {rho} mod {q}; supply the Galois closure")
            add(image, rho)
    order = [0] + sorted_by_coordinates(range(1, d), lambda i: autos[i].theta_image)
    for new, old in enumerate(order):
        autos[old].index = new
    comp = tuple(tuple(autos[products[a, b]].index for b in order) for a in order)
    inv = tuple(row.index(0) for row in comp)
    return tuple(autos[i] for i in order), comp, inv


def _root_of_unity(field: WorkingField, n: int, q: int, r1: int):
    """The primitive n-th root of unity of F with the least coordinates, or
    None when F has none, for n dividing q - 1 at the split prime q.

    Phi_n splits into distinct linear factors mod q, and Q(zeta_n) in F
    puts a root of F above each of them, so one lift above the least root
    decides; the others are the powers zeta^j with gcd(j, n) = 1.  Its
    conjugates have modulus 1, so the lift starts at _lift_start with
    |gamma| = 1, no later than the lifts of the Galois group, whose lattice
    it reuses."""
    f_ints = cyclotomic(n).num
    rho = _roots_mod(f_ints, q)[0]
    k_max = _precision_bound(field, f_ints, q)
    zeta = _lift_root(field, f_ints, q, r1, rho, _lift_start(field, q, 0.0, k_max), k_max)
    if zeta is None:
        return None
    primitive, power = [zeta], zeta
    for j in range(2, n):
        power = power * zeta
        if int_gcd(j, n) == 1:
            primitive.append(power)
    return sorted_by_coordinates(primitive)[0]


def _automorphism_orders(field: WorkingField) -> set:
    """The orders of the automorphisms of F, read off the composition
    table."""
    orders = set()
    for i, row in enumerate(field._comp_table):
        j, k = i, 1
        while j:  # sigma_i^k is sigma_j
            j, k = row[j], k + 1
        orders.add(k)
    return orders


def _torsion_structure(field: WorkingField):
    """Torsion order w_F and a generating root of unity, one prime at a time.

    The roots of unity of F form a cyclic group of order w_F, so w_F is the
    product over primes p of the largest p^k with zeta_{p^k} in F, and the
    product of those zeta_{p^k} generates the group.  Beyond +-1 they are
    non-real, so a totally real field stops at w_F = 2.

    Otherwise w_F is bounded at the split primes of _split_prime.  At such
    a prime q the residue fields are F_q, into which the roots of unity of
    order prime to q inject, and zeta_q in F would ramify q; so w_F divides
    q - 1.  At q = 2 this leaves +-1, since zeta_4 in F would ramify 2 too.
    With g = gcd(q1 - 1, q2 - 1, q3 - 1) over the three least split primes,
    the p-part of w_F is the largest p^k dividing g with zeta_{p^k} in F (at
    least 2 for p = 2, as -1 is in F), found by trying zeta_{p^k} from the
    top with _root_of_unity at q1: zeta_{p^k} in F gives
    zeta_{p^j} = zeta_{p^k}^(p^(k-j)) for j < k.  Only p^k that the Galois
    group allows are tried: zeta_n in F makes (Z/n)^x, of order phi(n) and
    with an element of order lambda(n) (Carmichael), a quotient of
    Gal(F/Q), so phi(n) divides d and some automorphism has an order
    divisible by lambda(n).
    """
    minus_one = field.from_rational(-1)
    if field.is_totally_real():
        return 2, minus_one
    q1, r1 = _split_prime(field, 1)
    if q1 == 2:
        return 2, minus_one
    q2, _ = _split_prime(field, q1)
    q3, _ = _split_prime(field, q1 * q2)
    g = int_gcd(q1 - 1, q2 - 1, q3 - 1)
    d = field.degree
    orders = _automorphism_orders(field)
    w, gen = 1, field.one()
    for p in prime_factors(g):
        order, zeta = (2, minus_one) if p == 2 else (1, field.one())
        powers = []
        power = order * p
        while g % power == 0 and d % euler_phi(power) == 0:
            # lambda(p^k) = phi(p^k), but phi(2^k) / 2 for k >= 3
            carmichael = euler_phi(power) // (2 if power % 8 == 0 else 1)
            if all(k % carmichael for k in orders):
                break
            powers.append(power)
            power *= p
        for power in reversed(powers):
            root = _root_of_unity(field, power, q1, r1)
            if root is not None:
                order, zeta = power, root
                break
        w, gen = w * order, gen * zeta
    if gen ** w != 1:
        raise WitnessFailure(f"the torsion generator is not a {w}-th root of unity")
    return w, gen


@functools.lru_cache(maxsize=None)
def _make_field_cached(int_coeffs: tuple, precision_bits: int) -> WorkingField:
    poly = Poly(int_coeffs)
    if poly.degree < 1:
        raise ReduciblePolynomial("defining polynomial must have degree >= 1")
    if poly.degree > MAX_DEGREE:
        raise FieldTooLarge(
            f"the defining polynomial has degree {poly.degree}, beyond the "
            f"budget of {MAX_DEGREE}")
    if not poly.is_monic():
        raise ReduciblePolynomial("defining polynomial must be monic")
    if not is_irreducible(poly):
        raise ReduciblePolynomial(f"{poly!r} is reducible over Q")
    field = WorkingField(poly, precision_bits)
    field.automorphisms, field._comp_table, field._inv_table = _galois_group(field)
    field.embeddings, field.archimedean_classes, field.embedding_labels = galois_roots(
        poly, [(s.theta_image.num, s.theta_image.den) for s in field.automorphisms],
        field._comp_table, field._float_conjugates, precision_bits)
    field.torsion_order, field.torsion_generator = _torsion_structure(field)
    return field


def make_field(defining_poly, precision_bits: int | None = None) -> WorkingField:
    """Build (and cache) the working field for a monic integer polynomial.

    The steps run in this order: the degree budget, MAX_DEGREE, which
    FieldTooLarge enforces before any other work; the irreducibility proof;
    the binary64 conjugates of m_F (roots._float_starts); the Galois group
    from generators (_galois_group), which raises NotGalois before any
    embedding is computed; the certified embeddings, each one root theta_1
    of m_F carried by an automorphism and labelled by it, and their
    archimedean classes, read off the complex conjugation among the
    automorphisms (roots.galois_roots); and the torsion order and generator
    (_torsion_structure).

    Raises FieldTooLarge beyond the budget, and ReduciblePolynomial,
    NotGalois, or PrecisionExhausted when the input cannot be certified.
    """
    if not isinstance(defining_poly, Poly):
        defining_poly = Poly(defining_poly)
    if defining_poly.den != 1:
        raise ReduciblePolynomial("defining polynomial must have integer coefficients")
    bits = precision_bits if precision_bits is not None else DEFAULT_PRECISION_BITS
    return _make_field_cached(defining_poly.num, bits)


# -- subfields and the Galois correspondence ------------------------------


class Subfield:
    """Subfield K of F, represented by its fixing subgroup Gal(F/K)."""

    __slots__ = ("field", "generators", "fixing_indices")

    def __init__(self, field: WorkingField, generators, fixing_indices):
        self.field = field
        self.generators = tuple(generators)
        self.fixing_indices = tuple(sorted(fixing_indices))

    @property
    def fixing_group(self):
        return [self.field.automorphisms[i] for i in self.fixing_indices]

    @property
    def degree_over_Q(self) -> int:
        return self.field.degree // len(self.fixing_indices)

    def contains(self, a: FieldElement) -> bool:
        return all(self.field.automorphisms[i](a) == a for i in self.fixing_indices)

    def norm(self, a: FieldElement) -> FieldElement:
        """Relative norm N_{F/K}(a), the product of sigma(a) over Gal(F/K)
        (Cohen, GTM 138, section 4.3), taken along its subgroup chain
        (_chain_norm); it lies in K."""
        return _chain_norm(self.field, self.fixing_indices, a)[0]

    def __eq__(self, other):
        return (isinstance(other, Subfield) and other.field is self.field
                and other.fixing_indices == self.fixing_indices)

    def __hash__(self):
        return hash((id(self.field), self.fixing_indices))

    def __repr__(self):
        return (f"Subfield(degree {self.degree_over_Q}, "
                f"|Gal(F/K)|={len(self.fixing_indices)})")


def _automorphisms(field: WorkingField) -> tuple:
    """The automorphisms of the field; ValueError for a field built without
    make_field, which has no Galois group."""
    if field.automorphisms is None:
        raise ValueError("the field has no Galois group; build it with make_field")
    return field.automorphisms


def subfield(field: WorkingField, gens) -> Subfield:
    """The subfield generated over Q by the given elements."""
    gens = list(gens)
    fixing = [i for i, s in enumerate(_automorphisms(field))
              if all(s(g) == g for g in gens)]
    return Subfield(field, gens, fixing)


def whole_field(field: WorkingField) -> Subfield:
    return Subfield(field, [field.theta()], [0])


def rational_subfield(field: WorkingField) -> Subfield:
    return Subfield(field, [], range(len(_automorphisms(field))))


def _closure(field: WorkingField, indices) -> frozenset:
    comp = field._comp_table
    group = set(indices) | {0}
    frontier = list(group)
    while frontier:
        i = frontier.pop()
        for j in list(group):
            for k in (comp[i][j], comp[j][i]):
                if k not in group:
                    group.add(k)
                    frontier.append(k)
    return frozenset(group)


def _subgroup_chain(field: WorkingField, fixing: tuple) -> tuple:
    """Transversals T_1, ..., T_r, without the identity, of a chain
    1 = H_0 < H_1 < ... < H_r = H of subgroups of the group H of the
    automorphism indices in fixing, cached on the field.

    The chain is greedy: H_i is the smallest closure of H_(i-1) and one
    more element of H, the least such element on a tie.  T_i holds the
    least index of each left coset t H_(i-1) in H_i other than H_(i-1)
    itself.  Threads may build the same chain at once; they store equal
    values.
    """
    cached = field._chain_cache.get(fixing)
    if cached is not None:
        return cached
    comp = field._comp_table
    group = frozenset(fixing)
    current = frozenset({0})
    steps = []
    while current != group:
        step = min((_closure(field, current | {g}) for g in sorted(group - current)),
                   key=len)
        reps, covered = [], set(current)
        for t in sorted(step - current):
            if t not in covered:
                reps.append(t)
                covered.update(comp[t][h] for h in current)
        steps.append(tuple(reps))
        current = step
    result = field._chain_cache[fixing] = tuple(steps)
    return result


def _chain_norm(field: WorkingField, fixing: tuple, a: FieldElement):
    """(N_H(a), [P_1, ..., P_r]) for the group H of the automorphism
    indices in fixing: the product of sigma(a) over H, and the factors
    along the chain of _subgroup_chain, whose product is that of sigma(a)
    over H without the identity.

    H_i is the disjoint union of the cosets t H_(i-1), so
    b_i = N_(H_i)(a) is b_(i-1) P_i with P_i = prod over t in T_i of
    t(b_(i-1)).  The norm takes sum |T_i| automorphism images and as many
    products, where the product over all of H takes |H| - 1 products.
    """
    autos = field.automorphisms
    b, factors = a, []
    for reps in _subgroup_chain(field, fixing):
        p = functools.reduce(mul, (autos[t](b) for t in reps))
        factors.append(p)
        b = b * p
    return b, factors


def _conjugate(field: WorkingField, g: int, indices) -> frozenset:
    """The automorphism indices of sigma_g h sigma_g^-1 for h in indices."""
    comp = field._comp_table
    inv_g = field._inv_table[g]
    return frozenset(comp[comp[g][h]][inv_g] for h in indices)


def galois_condition(k1: Subfield, k2: Subfield) -> bool:
    """True when K1 or K2 is Galois over their intersection K1 ∩ K2.

    The generated group of the two fixing groups fixes exactly the
    intersection, so the test is normality of either fixing group inside
    the generated group: sigma H sigma^-1 = H for every sigma in it.
    """
    if k1.field is not k2.field:
        raise ValueError("subfields of different working fields")
    field = k1.field
    h1 = frozenset(k1.fixing_indices)
    h2 = frozenset(k2.fixing_indices)
    joint = _closure(field, h1 | h2)
    return any(all(_conjugate(field, g, h) == h for g in joint) for h in (h1, h2))
