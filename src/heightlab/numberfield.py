"""Exact arithmetic in a fixed Galois number field F = Q[t]/(m_F).

The defining polynomial m_F is monic, irreducible over Q, with integer
coefficients, and must split completely in its own root field (Galois
requirement).  An element is a vector of integer numerators over one
positive common denominator on the power basis 1, t, ..., t^(d-1), kept in
lowest terms (the gcd of the denominator and all numerators is 1), so
that equal elements have equal representations.  Because m_F is monic over
Z, products reduce with integer rows and are normalized once (Cohen, A
Course in Computational Algebraic Number Theory, ch. 4).  Everything here
is immutable after construction and safe for concurrent reads.

make_field builds a field in four steps.  It proves m_F irreducible over
Q.  It finds the Galois group at the least prime q where m_F splits: it
lifts one root of m_F to F above each root mod q that the automorphisms
found so far do not cover, and closes them under composition.  A field
that is not Galois is refused there, before any multiprecision work.  It
certifies the d complex embeddings (roots.py), without a second
squarefree test.  Last it finds the roots of unity, with one lift for each
prime power that it tries.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd as int_gcd
from math import lcm as int_lcm
from operator import mul

import mpmath
import sympy
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_edf_zassenhaus,
    gf_from_int_poly,
    gf_gcd,
    gf_pow_mod,
    gf_sub,
)

from ._padic import ReducedLattice, eval_mod, hensel_lift
from .errors import NotGalois, ReduciblePolynomial, WitnessFailure
from .polynomials import (
    Poly,
    content_and_primitive,
    cyclotomic,
    discriminant,
    euler_phi,
    inverse_mod,
    is_irreducible,
    squarefree_part,
)
from .roots import (
    DEFAULT_PRECISION_BITS,
    _certified_roots,
    _float_upper,
    _gamma,
    _horner_with_bound,
    _to_mpf,
    archimedean_classes,
)


def _normalized(field: "WorkingField", num, den: int) -> "FieldElement":
    """The element num/den (den nonzero), brought to lowest terms with a
    positive denominator."""
    g = int_gcd(den, *num)
    if den < 0:
        g = -g
    if g != 1:
        num = [n // g for n in num]
        den //= g
    el = object.__new__(FieldElement)
    el.field = field
    el.num = tuple(num)
    el.den = den
    return el


class FieldElement:
    """Element of the working field: integer numerators num over the
    positive denominator den, with gcd(den, *num) = 1."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "WorkingField", coords):
        cs = [Fraction(c) for c in coords]
        den = int_lcm(*(c.denominator for c in cs))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in cs)
        self.den = den

    @property
    def coords(self) -> tuple:
        """Power-basis coordinates as lowest-terms Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    def coord_poly(self) -> Poly:
        return Poly(self.coords)

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
            q = Fraction(other)
            return _normalized(self.field, [n * q.numerator for n in self.num],
                               self.den * q.denominator)
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
            q = Fraction(other)
            if not q:
                raise ZeroDivisionError("field element divided by zero")
            return _normalized(self.field, [n * q.denominator for n in self.num],
                               self.den * q.numerator)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.field.from_rational(other) / self

    def __pow__(self, n: int) -> "FieldElement":
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
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
        d = self.degree
        # reduction rows: integer coords of theta^(d+k) for k = 0..d-2
        rows = []
        current = [-int(c) for c in defining_poly.coeffs[:-1]]  # theta^d
        rows.append(tuple(current))
        for _ in range(d - 2):
            shifted = [0] + current[:-1]
            top = current[-1]
            if top:
                shifted = [s + top * m for s, m in zip(shifted, rows[0])]
            current = shifted
            rows.append(tuple(current))
        self._red_rows = rows
        self.embeddings = None
        # real embeddings and complex-conjugate pairs, as index lists
        self.archimedean_classes = None
        self.automorphisms = None
        self.torsion_order = None
        self.torsion_generator = None
        self._comp_table = None
        self._inv_table = None
        # write-once cache of finite-place splittings, keyed by prime
        self._place_cache = {}
        # write-once caches of the root finder: the roots of m_F mod each
        # prime tried, and the reduced lattices keyed by (prime, precision)
        self._split_roots = {}
        self._lattice_cache = {}
        self._dtheta_inverse = None

    # -- element constructors -------------------------------------------

    def element(self, coords) -> FieldElement:
        cs = list(coords)
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [0] * (self.degree - len(cs))
        return FieldElement(self, cs)

    def from_rational(self, q) -> FieldElement:
        q = Fraction(q)
        return _normalized(self, [q.numerator] + [0] * (self.degree - 1),
                           q.denominator)

    def zero(self) -> FieldElement:
        return self.from_rational(0)

    def one(self) -> FieldElement:
        return self.from_rational(1)

    def theta(self) -> FieldElement:
        if self.degree == 1:
            return self.element([-self.defining_poly.coeffs[0]])
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
        return _normalized(self, self._mul_num(a.num, b.num), a.den * b.den)

    def _inverse(self, a: FieldElement) -> FieldElement:
        if a.is_rational():
            return self.from_rational(Fraction(a.den, a.num[0]))
        return self.element(inverse_mod(a.coord_poly(), self.defining_poly).coeffs)

    def identity_automorphism(self) -> Automorphism:
        return self.automorphisms[0]

    def is_totally_real(self) -> bool:
        return all(r.is_real for r in self.embeddings)

    def __repr__(self):
        return f"WorkingField({self.defining_poly!r}, degree={self.degree})"


def eval_poly(p: Poly, a: FieldElement) -> FieldElement:
    """Evaluate a rational polynomial at a field element.

    With p = sum (n_i / D) x^i over one denominator D and a = A / e,
    Horner runs on integer coordinates, D e^n p(a) = sum n_i e^(n-i) A^i
    for n = deg p, and the result is brought to lowest terms once.
    """
    field = a.field
    if p.is_zero():
        return field.zero()
    den = int_lcm(*(c.denominator for c in p.coeffs))
    nums = [c.numerator * (den // c.denominator) for c in p.coeffs]
    acc = [nums[-1]] + [0] * (field.degree - 1)
    e_power = 1
    for c in reversed(nums[:-1]):
        e_power *= a.den
        acc = field._mul_num(acc, a.num)
        acc[0] += c * e_power
    return _normalized(field, acc, den * e_power)


def eval_at_embedding(a: FieldElement, root):
    """The image of a under the embedding t -> root, with a rigorous bound
    on its distance from the true image.

    For the coordinate polynomial A of degree n < d, the true root lies
    within r = root.radius of z = root.value, where |A'| <= D, so
    |A(z) - A(true)| <= D r; roots._horner_with_bound computes A(z) to
    within gamma_{8n+16} M and D and M from rounded |c_k| and R = |z| + r,
    with at most 4n + 4 roundings along any term.  The bound
    (D r + gamma_{8n+16} M) takes 4 more, 1 + gamma_{4n+12} covers them,
    and the result is rounded up to a float.  The arithmetic runs at the
    current precision, but at no fewer than 53 bits, so that every gamma
    is below 1.  Call under roots.locked_workprec.
    """
    prec = max(mpmath.mp.prec, 53)
    with mpmath.workprec(prec):
        reach = abs(root.value) + root.radius
        value, error, slope = _horner_with_bound(
            _to_mpf(a.coords), root.value._mpc_, reach._mpf_, prec)
        widen = 1 + _gamma(4 * (len(a.coords) - 1) + 12, prec)
        return value, _float_upper((slope * root.radius + error) * widen)


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
    bad = int(field.disc) * avoid
    m_ints = [int(c) for c in reversed(field.defining_poly.coeffs)]
    q = 1
    while True:
        q = sympy.nextprime(q)
        if bad % q == 0:
            continue
        roots = field._split_roots.get(q)
        if roots is None:
            roots = _roots_mod(m_ints, q)
            if 0 < len(roots) < field.degree:
                raise NotGalois(
                    f"the defining polynomial has {len(roots)} of "
                    f"{field.degree} roots mod the unramified prime {q}; "
                    "supply the Galois closure")
            field._split_roots[q] = roots
        if roots:
            return q, roots[0]


# below this prime, roots mod q are found by evaluating the polynomial at
# every residue: on random polynomials of degree 2 to 24 that beat the gcd
# with x^q - x and sympy 1.14's equal-degree factorization by 1.1x to 40x
# up to q = 521, and lost to them by up to 2.7x at q = 2053 (pure Python
# 3.11 on a shared x86-64 host)
_EVAL_PRIME_BOUND = 512


def _roots_mod(ints_high_first, q: int) -> tuple:
    """The distinct roots mod q of an integer polynomial (highest degree
    first) whose leading coefficient is prime to q, in increasing order.

    Below _EVAL_PRIME_BOUND they are the residues where it vanishes (at most
    its degree of them); above, the linear factors of its gcd with x^q - x,
    from equal-degree factorization."""
    if q < _EVAL_PRIME_BOUND:
        n = len(ints_high_first) - 1
        cs = [c % q for c in ints_high_first]
        roots = []
        for r in range(q):
            acc = 0
            for c in cs:
                acc = (acc * r + c) % q
            if not acc:
                roots.append(r)
                if len(roots) == n:
                    break
        return tuple(roots)
    fbar = gf_from_int_poly(ints_high_first, q)
    frob = gf_pow_mod([1, 0], q, fbar, q, ZZ)
    g = gf_gcd(fbar, gf_sub(frob, [1, 0], q, ZZ), q, ZZ)
    if len(g) < 2:
        return ()
    return tuple(sorted(-lin[1] % q for lin in gf_edf_zassenhaus(g, 1, q, ZZ)))


def _lattice(field: WorkingField, q: int, r1: int, k: int):
    """(k', r1 lifted mod q^k', LLL-reduced basis of L_k') for the least
    k' >= k already cached, else for k' = k, cached write-once:
    L_k = {c in Z^d : sum c_i r1^i = 0 mod q^k} is the lattice of the
    coordinate vectors of the elements of Z[theta] in P^k, for P the prime
    above q at which theta = r1.  A finer lattice serves as well, since
    L_k' lies in L_k and its precision bound is only larger."""
    # a snapshot of the keys, as another thread may be adding one
    finer = [kk for qq, kk in list(field._lattice_cache) if qq == q and kk >= k]
    if finer:
        k = min(finer)
        return (k,) + field._lattice_cache[q, k]
    modulus = q ** k
    lifted = hensel_lift([int(c) for c in field.defining_poly.coeffs], r1, q, k)
    d = field.degree
    rows = [[modulus] + [0] * (d - 1)]
    power = 1
    for i in range(1, d):
        power = power * lifted % modulus
        rows.append([-power % modulus] + [int(j == i) for j in range(1, d)])
    result = (lifted, ReducedLattice(rows))
    field._lattice_cache[q, k] = result
    return (k,) + result


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
    2^ceil(d/2) in place of 2^(d/2).
    """
    a = [int(c) for c in field.defining_poly.coeffs]
    d = field.degree
    radius = 1 + max(abs(c) for c in a[:-1])
    gamma = f_ints[-1] + max(abs(c) for c in f_ints[:-1])
    coord = max(sum(d * gamma * radius ** i * abs(a[i + j + 1])
                    for i in range(d - j))
                for j in range(d))
    s = sum(radius ** (2 * i) for i in range(d))
    babai = 2 ** ((d + 1) // 2) + 1
    bound = (babai * babai * d * coord * coord * s) ** d
    k = 1
    while q ** (2 * k) <= bound:
        k += 1
    return k


def _lift_root(field: WorkingField, f: Poly, q: int, r1: int, rho: int, k_max: int):
    """The root of the primitive integer polynomial f in F above its simple
    root rho mod q, verified by substitution, or None when F has none.

    The field embeds in Q_q by theta -> r1 (q prime to disc(m_F), to the
    leading coefficient l of f and to disc(f)).  l m_F'(theta) times the
    root of f in F above rho, if any, has integer coordinates c with
    sum c_i r1^i = l m_F'(r1) rho mod q^k.  Babai's nearest plane on the
    LLL-reduced lattice L_k of that congruence gives a candidate, accepted
    only when f vanishes at it exactly.  On a miss k doubles, up to the
    proven k_max of _precision_bound, where a miss proves that no root of f
    in F lies above rho.
    """
    d = field.degree
    f_ints = [int(c) for c in f.coeffs]
    lead = f_ints[-1]
    inv = field._dtheta_inverse
    if inv is None:
        inv = eval_poly(field.defining_poly.derivative(), field.theta()).inverse()
        field._dtheta_inverse = inv
    dm_ints = [int(c) for c in field.defining_poly.derivative().coeffs]
    # first try q^k near 2^(d^2/2), where the reduced basis vectors (of
    # length about q^(k/d)) outgrow Babai's factor 2^(d/2)
    k = min(k_max, max(1, d * d // (2 * q.bit_length())))
    while True:
        k, lifted, lattice = _lattice(field, q, r1, k)
        modulus = q ** k
        scale = lead * eval_mod(dm_ints, lifted, modulus)
        target = scale * hensel_lift(f_ints, rho, q, k) % modulus
        c = lattice.nearest_plane_residual([target] + [0] * (d - 1))
        candidate = _normalized(field, c, lead) * inv
        if eval_poly(f, candidate).is_zero():
            return candidate
        if k >= k_max:
            return None
        k = min(2 * k, k_max)


def roots_in_field(p: Poly, field: WorkingField) -> list[FieldElement]:
    """All exact roots of p in F, each verified by substitution, without
    repetition and sorted by coordinates.

    The roots are found at one prime q (Belabas, Topics in computational
    algebraic number theory, JTNB 2004).  Let f be the primitive integer
    squarefree part of p with leading coefficient l, and q the least prime
    prime to disc(m_F) l disc(f) at which m_F has a root r1 (so F embeds
    in Q_q by theta -> r1).  A root of f in F maps to a root of f mod q,
    so with none there is no root in F; each root mod q is lifted once by
    _lift_root.
    """
    if p.is_zero():
        raise ValueError("roots of the zero polynomial")
    _, f = content_and_primitive(squarefree_part(p))
    if f.degree < 1:
        return []
    f_ints = [int(c) for c in f.coeffs]
    q, r1 = _split_prime(field, f_ints[-1] * int(discriminant(f)))
    k_max = _precision_bound(field, f_ints, q)
    lifts = (_lift_root(field, f, q, r1, rho, k_max)
             for rho in _roots_mod(f_ints[::-1], q))
    return sorted((r for r in lifts if r is not None), key=lambda r: r.coords)


# -- minimal polynomials ---------------------------------------------------


def minimal_polynomial(a: FieldElement) -> Poly:
    """Monic minimal polynomial of a over Q: the product of (x - c) over the
    distinct Galois conjugates c of a, expanded exactly in F[x].

    Its degree is the number of distinct conjugates, which divides [F:Q].
    Every coefficient must come out rational; WitnessFailure otherwise.
    """
    field = a.field
    conjugates = dict.fromkeys(sigma(a) for sigma in field.automorphisms)
    # coefficients of the partial product, lowest degree first
    prod = [field.one()]
    for c in conjugates:
        prod = ([-c * prod[0]]
                + [lo - c * hi for lo, hi in zip(prod[:-1], prod[1:])]
                + [prod[-1]])
    if not all(coeff.is_rational() for coeff in prod):
        raise WitnessFailure("conjugate product has a non-rational coefficient")
    return Poly([coeff.as_rational() for coeff in prod])


# -- field construction ----------------------------------------------------


def _residue(a: FieldElement, q: int, r1: int) -> int:
    """a mod the prime above q at which theta = r1; a's denominator is
    prime to q."""
    return eval_mod(a.num, r1, q) * pow(a.den, -1, q) % q


def _galois_group(field: WorkingField):
    """The automorphisms of F and their composition and inverse tables,
    built from generators; NotGalois when F is not Galois.

    At the least split prime q of _split_prime, with theta = r1 at the
    prime P above q, an automorphism sigma is determined by the root
    sigma(theta) mod P of m_F mod q, and as q is prime to disc(m_F) the d
    automorphisms of a Galois F cover the d roots once each.  So starting
    from the identity, the least root rho mod q that no automorphism found
    so far covers is lifted to the root of m_F in F above it (_lift_root),
    and the set is closed under composition, whose results are exact and
    need no check, until it has d elements.  Every product is computed on
    the way, which fills the composition table.  When F is Galois every rho
    has a lift, so a rho with none proves that F is not.
    """
    d = field.degree
    q, r1 = _split_prime(field, 1)
    m_ints = [int(c) for c in field.defining_poly.coeffs]
    k_max = _precision_bound(field, m_ints, q)
    theta = field.theta()
    autos = [Automorphism(field, None, theta)]
    found = {theta: 0}
    covered = {r1}
    products = {(0, 0): 0}  # (i, j) -> index of autos[i] after autos[j]

    def add(image):
        i = found[image] = len(autos)
        autos.append(Automorphism(field, None, image))
        covered.add(_residue(image, q, r1))
        products[0, i] = products[i, 0] = i
        return i

    while len(autos) < d:
        rho = min(r for r in field._split_roots[q] if r not in covered)
        image = _lift_root(field, field.defining_poly, q, r1, rho, k_max)
        if image is None:
            raise NotGalois(
                f"no root of the defining polynomial in the field lies above "
                f"its root {rho} mod {q}; supply the Galois closure")
        frontier = [add(image)]
        while frontier:
            i = frontier.pop()
            for j in range(1, len(autos)):
                for a, b in ((i, j), (j, i)):
                    if (a, b) not in products:
                        image = autos[a](autos[b].theta_image)
                        if image not in found:
                            frontier.append(add(image))
                        products[a, b] = found[image]
    order = sorted(range(d), key=lambda i: (i != 0, autos[i].theta_image.coords))
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
    decides; the others are the powers zeta^j with gcd(j, n) = 1."""
    cyc = cyclotomic(n)
    f_ints = [int(c) for c in cyc.coeffs]
    rho = _roots_mod(f_ints[::-1], q)[0]
    zeta = _lift_root(field, cyc, q, r1, rho, _precision_bound(field, f_ints, q))
    if zeta is None:
        return None
    best, power = zeta, zeta
    for j in range(2, n):
        power = power * zeta
        if int_gcd(j, n) == 1 and power.coords < best.coords:
            best = power
    return best


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
    the p-part of w_F is the largest p^k dividing g with phi(p^k) | d and
    zeta_{p^k} in F (at least 2 for p = 2, as -1 is in F), found by trying
    zeta_{p^k} from the top with _root_of_unity at q1: zeta_{p^k} in F
    gives zeta_{p^j} = zeta_{p^k}^(p^(k-j)) for j < k.
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
    w, gen = 1, field.one()
    for p in sympy.primefactors(g):
        order, zeta = (2, minus_one) if p == 2 else (1, field.one())
        powers = []
        power = order * p
        while g % power == 0 and d % euler_phi(power) == 0:
            powers.append(power)
            power *= p
        for power in reversed(powers):
            root = _root_of_unity(field, power, q1, r1)
            if root is not None:
                order, zeta = power, root
                break
        w, gen = w * order, gen * zeta
    assert (gen ** w).is_rational() and (gen ** w).as_rational() == 1
    return w, gen


@functools.lru_cache(maxsize=None)
def _make_field_cached(int_coeffs: tuple, precision_bits: int) -> WorkingField:
    poly = Poly(int_coeffs)
    if poly.degree < 1:
        raise ReduciblePolynomial("defining polynomial must have degree >= 1")
    if not poly.is_monic():
        raise ReduciblePolynomial("defining polynomial must be monic")
    if not is_irreducible(poly):
        raise ReduciblePolynomial(f"{poly!r} is reducible over Q")
    field = WorkingField(poly, precision_bits)
    field.automorphisms, field._comp_table, field._inv_table = _galois_group(field)
    # m_F is irreducible, hence squarefree
    field.embeddings = _certified_roots(poly, precision_bits)
    field.archimedean_classes = archimedean_classes(field.embeddings)
    field.torsion_order, field.torsion_generator = _torsion_structure(field)
    return field


def make_field(defining_poly, precision_bits: int | None = None) -> WorkingField:
    """Build (and cache) the working field for a monic integer polynomial.

    The steps run in this order: the irreducibility proof; the Galois group
    from generators (_galois_group), which raises NotGalois before any
    embedding is computed; the certified embeddings and their archimedean
    classes; and the torsion order and generator (_torsion_structure).

    Raises ReduciblePolynomial, NotGalois, or PrecisionExhausted when the
    input cannot be certified.
    """
    if isinstance(defining_poly, Poly):
        coeffs = defining_poly.coeffs
    else:
        coeffs = [Fraction(c) for c in defining_poly]
    ints = []
    for c in coeffs:
        c = Fraction(c)
        if c.denominator != 1:
            raise ReduciblePolynomial("defining polynomial must have integer coefficients")
        ints.append(int(c))
    bits = precision_bits if precision_bits is not None else DEFAULT_PRECISION_BITS
    return _make_field_cached(tuple(ints), bits)


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
        (Cohen, GTM 138, section 4.3); it lies in K."""
        autos = self.field.automorphisms
        return functools.reduce(mul, (autos[i](a) for i in self.fixing_indices))

    def __eq__(self, other):
        return (isinstance(other, Subfield) and other.field is self.field
                and other.fixing_indices == self.fixing_indices)

    def __hash__(self):
        return hash((id(self.field), self.fixing_indices))

    def __repr__(self):
        return (f"Subfield(degree {self.degree_over_Q}, "
                f"|Gal(F/K)|={len(self.fixing_indices)})")


def subfield(field: WorkingField, gens) -> Subfield:
    """The subfield generated over Q by the given elements."""
    gens = list(gens)
    fixing = [i for i, s in enumerate(field.automorphisms)
              if all(s(g) == g for g in gens)]
    return Subfield(field, gens, fixing)


def whole_field(field: WorkingField) -> Subfield:
    return Subfield(field, [field.theta()], [0])


def rational_subfield(field: WorkingField) -> Subfield:
    return Subfield(field, [], range(len(field.automorphisms)))


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


def _is_normal_in(field: WorkingField, sub: frozenset, group: frozenset) -> bool:
    comp = field._comp_table
    inv = field._inv_table
    for g in group:
        for h in sub:
            if comp[comp[g][h]][inv[g]] not in sub:
                return False
    return True


def galois_condition(k1: Subfield, k2: Subfield) -> bool:
    """True when K1 or K2 is Galois over their intersection K1 ∩ K2.

    The generated group of the two fixing groups fixes exactly the
    intersection, so the test is normality of either fixing group inside
    the generated group.
    """
    if k1.field is not k2.field:
        raise ValueError("subfields of different working fields")
    field = k1.field
    h1 = frozenset(k1.fixing_indices)
    h2 = frozenset(k2.fixing_indices)
    joint = _closure(field, h1 | h2)
    return _is_normal_in(field, h1, joint) or _is_normal_in(field, h2, joint)
