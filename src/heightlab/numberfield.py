"""Exact arithmetic in a fixed Galois number field F = Q[t]/(m_F).

The defining polynomial m_F is monic, irreducible over Q, with integer
coefficients, and must split completely in its own root field (Galois
requirement).  Elements are exact rational coordinate vectors on the power
basis 1, t, ..., t^(d-1).  Everything here is immutable after construction
and safe for concurrent reads.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from math import gcd as int_gcd

import mpmath

from .errors import NotGalois, ReduciblePolynomial, WitnessFailure
from .polynomials import (
    Poly,
    cyclotomic,
    discriminant,
    euler_phi,
    is_irreducible,
    poly_xgcd,
    resultant,
    roots_in_extension,
)
from .roots import DEFAULT_PRECISION_BITS, certified_roots


class FieldElement:
    """Element of the working field in power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "WorkingField", coords):
        self.field = field
        self.coords = tuple(coords)

    def coord_poly(self) -> Poly:
        return Poly(self.coords)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("element is not rational")
        return self.coords[0]

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
        return self.coords == other.coords

    def __hash__(self):
        return hash(self.coords)

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.field, [-c for c in self.coords])

    def __add__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field,
                            [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __sub__(self, other) -> "FieldElement":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElement(self.field,
                            [a - b for a, b in zip(self.coords, other.coords)])

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other) -> "FieldElement":
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.field, [c * other for c in self.coords])
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
            return FieldElement(self.field, [c / other for c in self.coords])
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
        """Field norm N_{F/Q}, exact."""
        if self.is_zero():
            return Fraction(0)
        return resultant(self.field.defining_poly, self.coord_poly())

    def denominator_cleared(self):
        """Return (B, c) with B an integer-coefficient Poly, c a positive
        integer, and self = B(theta)/c with gcd(content(B), c) = 1."""
        den = 1
        for c in self.coords:
            den = den * c.denominator // int_gcd(den, c.denominator)
        ints = [int(c * den) for c in self.coords]
        g = 0
        for c in ints:
            g = int_gcd(g, abs(c))
        g = int_gcd(g, den)
        if g > 1:
            ints = [c // g for c in ints]
            den //= g
        return Poly(ints), den

    def __repr__(self):
        return f"FieldElement({list(self.coords)})"


class Automorphism:
    """Field automorphism, determined by the image of the generator."""

    __slots__ = ("field", "index", "theta_image", "_cols")

    def __init__(self, field, index, theta_image):
        self.field = field
        self.index = index
        self.theta_image = theta_image
        cols = []
        power = field.one()
        for _ in range(field.degree):
            cols.append(power.coords)
            power = power * theta_image
        self._cols = tuple(cols)

    def __call__(self, a: FieldElement) -> FieldElement:
        out = [Fraction(0)] * self.field.degree
        for j, c in enumerate(a.coords):
            if c:
                col = self._cols[j]
                for i in range(self.field.degree):
                    out[i] += c * col[i]
        return FieldElement(self.field, out)

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
        # reduction rows: coords of theta^(d+k) for k = 0..d-2
        rows = []
        current = [-c for c in defining_poly.coeffs[:-1]]  # theta^d
        rows.append(tuple(current))
        for _ in range(d - 2):
            shifted = [Fraction(0)] + current[:-1]
            top = current[-1]
            if top:
                shifted = [s + top * m for s, m in zip(shifted, rows[0])]
            current = shifted
            rows.append(tuple(current))
        self._red_rows = rows
        self.embeddings = None
        self.automorphisms = None
        self.torsion_order = None
        self.torsion_generator = None
        self._comp_table = None
        self._inv_table = None
        # write-once cache of finite-place splittings, keyed by prime
        self._place_cache = {}

    # -- element constructors -------------------------------------------

    def element(self, coords) -> FieldElement:
        cs = [Fraction(c) for c in coords]
        if len(cs) > self.degree:
            raise ValueError("too many coordinates")
        cs += [Fraction(0)] * (self.degree - len(cs))
        return FieldElement(self, cs)

    def from_rational(self, q) -> FieldElement:
        return self.element([Fraction(q)])

    def zero(self) -> FieldElement:
        return self.from_rational(0)

    def one(self) -> FieldElement:
        return self.from_rational(1)

    def theta(self) -> FieldElement:
        if self.degree == 1:
            return self.element([-self.defining_poly.coeffs[0]])
        return self.element([0, 1])

    # -- arithmetic backend ----------------------------------------------

    def _mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        d = self.degree
        conv = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a.coords):
            if x:
                for j, y in enumerate(b.coords):
                    if y:
                        conv[i + j] += x * y
        out = conv[:d]
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = self._red_rows[k - d]
                for i in range(d):
                    out[i] += c * row[i]
        return FieldElement(self, out)

    def _inverse(self, a: FieldElement) -> FieldElement:
        g, _, v = poly_xgcd(self.defining_poly, a.coord_poly())
        if g.degree != 0:
            raise ZeroDivisionError("non-invertible element (bad field?)")
        inv_poly = v % self.defining_poly
        return self.element(inv_poly.coeffs)

    def identity_automorphism(self) -> Automorphism:
        return self.automorphisms[0]

    def is_totally_real(self) -> bool:
        return all(r.is_real for r in self.embeddings)

    def __repr__(self):
        return f"WorkingField({self.defining_poly!r}, degree={self.degree})"


def eval_poly(p: Poly, a: FieldElement) -> FieldElement:
    """Evaluate a rational polynomial at a field element (Horner)."""
    acc = a.field.zero()
    for c in reversed(p.coeffs):
        acc = acc * a + c
    return acc


def eval_at_embedding(a: FieldElement, root):
    """The image of a under the embedding t -> root, with a bound on its
    distance from the true image.

    The true root lies within root.radius of root.value, and on that disk
    |A'| <= sum k |c_k| (|root.value| + radius)^(k-1) for the coordinate
    polynomial A, so the bound is that sum times the radius.  Call under
    roots.locked_workprec.
    """
    z = root.value
    az = abs(z) + root.radius
    acc = mpmath.mpc(0)
    majorant = deriv_bound = mpmath.mpf(0)
    for c in reversed(a.coords):
        cf = mpmath.mpf(c.numerator) / c.denominator
        acc = acc * z + cf
        deriv_bound = deriv_bound * az + majorant
        majorant = majorant * az + abs(cf)
    return acc, float(deriv_bound * root.radius)


# -- root finding inside the field ----------------------------------------


def roots_in_field(p: Poly, field: WorkingField) -> list[FieldElement]:
    """All exact roots of p in F, each verified by substitution, without
    repetition and sorted by coordinates.

    The roots are read off the linear factors of p over F, found by
    sympy's factorization over the algebraic field Q[t]/(m_F).
    """
    if p.is_zero():
        raise ValueError("roots of the zero polynomial")
    roots = [field.element(coords)
             for coords in roots_in_extension(p, field.defining_poly)]
    for r in roots:
        if not eval_poly(p, r).is_zero():
            raise WitnessFailure("root candidate failed exact verification")
    unique = {r.coords: r for r in roots}
    return sorted(unique.values(), key=lambda r: r.coords)


# -- minimal polynomials ---------------------------------------------------


def _solve_exact(rows, target):
    """Solve sum_j c_j rows[j] = target over Q, or return None."""
    k = len(rows)
    if k == 0:
        return [] if all(t == 0 for t in target) else None
    n = len(target)
    aug = [[rows[j][i] for j in range(k)] + [target[i]] for i in range(n)]
    piv_cols = []
    r = 0
    for col in range(k):
        piv = next((i for i in range(r, n) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        inv = 1 / aug[r][col]
        aug[r] = [x * inv for x in aug[r]]
        for i in range(n):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        piv_cols.append(col)
        r += 1
    for i in range(r, n):
        if aug[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for i, col in enumerate(piv_cols):
        sol[col] = aug[i][k]
    return sol


def minimal_polynomial(a: FieldElement, field: WorkingField | None = None) -> Poly:
    """Monic minimal polynomial of a over Q; degree divides [F:Q]."""
    field = field or a.field
    d = field.degree
    powers = [field.one()]
    for k in range(1, d + 1):
        powers.append(powers[-1] * a)
        rows = [p.coords for p in powers[:k]]
        sol = _solve_exact(rows, powers[k].coords)
        if sol is not None:
            coeffs = [-c for c in sol] + [Fraction(1)]
            mp = Poly(coeffs)
            assert d % mp.degree == 0
            return mp
    raise AssertionError("no minimal polynomial found")  # pragma: no cover


# -- field construction ----------------------------------------------------


def _torsion_structure(field: WorkingField):
    """Torsion order w_F and a generating root of unity, one prime at a time.

    The roots of unity of F form a cyclic group of order w_F, so w_F is the
    product over primes p of the largest p^k with zeta_{p^k} in F, and the
    product of those zeta_{p^k} generates the group.  Beyond +-1 they are
    non-real, so a totally real field stops at w_F = 2.  Otherwise the chain
    for p climbs while phi(p^k) divides d (which needs (p - 1) | d) and stops
    at its first miss, since zeta_{p^(k+1)} in F gives zeta_{p^k} =
    zeta_{p^(k+1)}^p in F.
    """
    if field.is_totally_real():
        return 2, field.from_rational(-1)
    d = field.degree
    w, gen = 1, field.one()
    for p in range(2, d + 2):
        if euler_phi(p) != p - 1 or d % (p - 1):
            continue  # p is not prime, or zeta_p would need phi(p) | d
        q, zeta = (2, field.from_rational(-1)) if p == 2 else (1, field.one())
        while d % euler_phi(q * p) == 0:
            roots = roots_in_field(cyclotomic(q * p), field)
            if not roots:
                break
            q, zeta = q * p, roots[0]
        w, gen = w * q, gen * zeta
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
    field.embeddings = certified_roots(poly, precision_bits)

    images = roots_in_field(poly, field)
    if len(images) != field.degree:
        raise NotGalois(
            f"only {len(images)} of {field.degree} roots of the defining "
            "polynomial lie in the field; supply the Galois closure")
    theta = field.theta()
    images.sort(key=lambda r: (r != theta, r.coords))
    autos = [Automorphism(field, i, img) for i, img in enumerate(images)]
    field.automorphisms = tuple(autos)

    by_coords = {a.theta_image.coords: a.index for a in autos}
    comp = []
    for s in autos:
        row = []
        for t in autos:
            img = s(t.theta_image)
            row.append(by_coords[img.coords])
        comp.append(tuple(row))
    field._comp_table = tuple(comp)
    inv = [None] * len(autos)
    for i, row in enumerate(comp):
        inv[i] = row.index(0)
    field._inv_table = tuple(inv)

    field.torsion_order, field.torsion_generator = _torsion_structure(field)
    return field


def make_field(defining_poly, precision_bits: int | None = None) -> WorkingField:
    """Build (and cache) the working field for a monic integer polynomial.

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


def apply_automorphism(sigma: Automorphism, a: FieldElement) -> FieldElement:
    """Image of a under sigma (substitution into the coordinate polynomial)."""
    return sigma(a)
