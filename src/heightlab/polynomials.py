"""Dense univariate polynomials over the rationals.

A polynomial is integer numerators, lowest degree first, over one positive
denominator in lowest terms, the form of a numberfield.FieldElement; the
two share lowest_terms and from_rationals, and Fraction coefficients are
only a view.  The Euclidean algorithms (inverse, gcd, resultant, Sturm
sequence) and the factorization run on the primitive integer parts, as
lists of Python integers lowest degree first (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, sections 3.1 to 3.5):
pseudo-remainders with the content removed, the sub-resultant algorithm,
and Zassenhaus's factorization over Z on top of the mod-p factorization of
_modp.
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt
from math import lcm as int_lcm

from . import _modp
from ._integers import euler_phi  # noqa: F401  (part of this module's API)
from ._integers import isprime, next_prime, prime_factors


def lowest_terms(num, den: int):
    """num (as a tuple) and den != 0 over gcd(den, *num), signed so that den > 0."""
    g = int_gcd(den, *num)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(num), den
    return tuple([n // g for n in num]), den // g


def from_rationals(values):
    """(num, den): the rationals in values (anything Fraction accepts) as a
    list of integer numerators over their least common denominator."""
    cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in values]
    den = int_lcm(*(c.denominator for c in cs))
    return [c.numerator * (den // c.denominator) for c in cs], den


class Poly:
    """Polynomial over Q: integer numerators num, lowest degree first, no
    trailing zeros, over the denominator den > 0, gcd(den, *num) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        num, den = from_rationals(coeffs)
        self.num, self.den = tuple(_trim(num)), den

    @staticmethod
    def from_ints(num, den: int = 1) -> "Poly":
        """sum num_i x^i / den for integers num_i and den != 0."""
        p = object.__new__(Poly)
        p.num, p.den = lowest_terms(_trim(list(num)), den)
        return p

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def one() -> "Poly":
        return Poly([1])

    @staticmethod
    def x() -> "Poly":
        return Poly([0, 1])

    @property
    def coeffs(self) -> tuple:
        """The coefficients, lowest degree first, as lowest-terms Fractions."""
        return tuple(Fraction(n, self.den) for n in self.num)

    @property
    def degree(self) -> int:
        """Degree; the zero polynomial has degree -1."""
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    @property
    def lc(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def is_monic(self) -> bool:
        return bool(self.num) and self.num[-1] == self.den

    def __eq__(self, other) -> bool:
        return (isinstance(other, Poly) and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __neg__(self) -> "Poly":
        return Poly.from_ints([-n for n in self.num], self.den)

    def __add__(self, other: "Poly") -> "Poly":
        return Poly.from_ints(_add([n * other.den for n in self.num],
                                   [n * self.den for n in other.num]), self.den * other.den)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly.from_ints([n * other.numerator for n in self.num],
                                  self.den * other.denominator)
        return Poly.from_ints(_mul(self.num, other.num), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result, base = Poly.one(), self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "Poly"):
        """From l^k A = Q B + R for the numerators A, B and l = lc(B):
        q = Q other.den / (l^k self.den) and r = R / (l^k self.den)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _pseudo_divmod(self.num, other.num)
        scale = other.num[-1] ** max(0, self.degree - other.degree + 1) * self.den
        return (Poly.from_ints([c * other.den for c in q], scale),
                Poly.from_ints(r, scale))

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly.from_ints([i * n for i, n in enumerate(self.num)][1:], self.den)

    def __call__(self, x) -> Fraction:
        """Horner evaluation at a rational point.  (Evaluation at field
        elements lives in numberfield.eval_poly.)"""
        acc = 0
        for n in reversed(self.num):
            acc = acc * x + n
        return Fraction(acc) / self.den

    def __repr__(self):
        if not self.num:
            return "Poly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x" if c != 1 else "x")
            else:
                parts.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(parts) + ")"


# -- integer polynomials ---------------------------------------------------
#
# Lists of Python integers, lowest degree first, with no trailing zeros.


_trim = _modp._trim
_mul = _modp.product


def _primitive_ints(p: Poly):
    """(g, P) with p = (g / p.den) P, g an integer of the sign of lc(p) and
    P a primitive integer list with positive leading coefficient."""
    if p.is_zero():
        raise ValueError("zero polynomial has no primitive part")
    f = _primitive(list(p.num))
    return p.num[-1] // f[-1], f


def _primitive(a: list) -> list:
    """a over its content, with positive leading coefficient."""
    g = int_gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a] if g != 1 else a


def _add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _trim(out)


def _sub(a: list, b: list) -> list:
    return _add(a, [-c for c in b])


def _pseudo_divmod(a: list, b: list):
    """(q, r) with lc(b)^(deg a - deg b + 1) a = q b + r and deg r < deg b
    (Cohen, algorithm 3.1.2), for deg b >= 0; ([], a) when deg a < deg b."""
    n, lc = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c = r[i]
        if lc != 1:
            q = [lc * x for x in q]
            r = [lc * x for x in r[:i]]
        q[i - n] += c
        if c:
            for j in range(n):
                r[i - n + j] -= c * b[j]
    return q, _trim(r[:n])


def _divide(a: list, b: list):
    """a / b when b divides a over Z, else None."""
    n, lc = len(b) - 1, b[-1]
    if len(a) <= n:
        return [] if not a else None
    r = list(a)
    q = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c, m = divmod(r[i], lc)
        if m:
            return None
        q[i - n] = c
        if c:
            for j in range(n):
                r[i - n + j] -= c * b[j]
    return q if not any(r[:n]) else None


def _derivative(a: list) -> list:
    return [i * c for i, c in enumerate(a)][1:]


def _gcd(a: list, b: list) -> list:
    """The primitive gcd, positive leading coefficient, of two nonzero
    integer polynomials, by the primitive remainder sequence."""
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while len(b) > 1:
        _, r = _pseudo_divmod(a, b)
        if not r:
            return b
        a, b = b, _primitive(r)
    return [1]


def _resultant(a: list, b: list) -> int:
    """Res(a, b) of two nonzero integer polynomials, by the sub-resultant
    algorithm (Cohen, algorithm 3.3.7)."""
    ca, cb = int_gcd(*a), int_gcd(*b)
    a, b = [c // ca for c in a], [c // cb for c in b]
    t = ca ** (len(b) - 1) * cb ** (len(a) - 1)
    s = 1
    if len(a) < len(b):
        a, b = b, a
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -1
    g = h = 1
    while len(b) > 1:
        delta = len(a) - len(b)
        if (len(a) - 1) * (len(b) - 1) % 2:
            s = -s
        _, r = _pseudo_divmod(a, b)
        if not r:
            return 0
        div = g * h ** delta
        a, b = b, [c // div for c in r]
        g = a[-1]
        h = g ** delta // h ** (delta - 1) if delta else h
    n = len(a) - 1
    if n == 0:
        return s * t
    return s * t * b[0] ** n // h ** (n - 1)


def _squarefree_part(a: list) -> list:
    """The primitive squarefree part of a primitive a of degree >= 1."""
    g = _gcd(a, _derivative(a))
    return a if len(g) == 1 else _primitive(_divide(a, g))


# -- the public Euclidean algorithms ---------------------------------------


def inverse_mod(a: Poly, m: Poly) -> Poly:
    """The inverse of a modulo m, of degree below deg m.

    m_F'(theta)^-1 for the root lifts of numberfield._lift_root, which run
    before the field has a Galois group.  The extended Euclidean algorithm
    runs on the primitive remainder sequence r_i = s_i A mod M of the
    primitive parts A and M, so that only integers grow.
    ZeroDivisionError when gcd(a, m) is not constant."""
    if m.degree < 1:
        return Poly()
    a = a % m
    if a.is_zero():
        raise ZeroDivisionError(
            "non-invertible modulo the polynomial (reducible modulus?)")
    ca, r1 = _primitive_ints(a)
    r0 = _primitive_ints(m)[1]
    s0, s1 = [], [1]
    while len(r1) > 1:
        lead = r1[-1] ** (len(r0) - len(r1) + 1)
        q, r = _pseudo_divmod(r0, r1)
        if not r:
            raise ZeroDivisionError(
                "non-invertible modulo the polynomial (reducible modulus?)")
        s = _sub([lead * c for c in s0], _mul(q, s1))
        g = int_gcd(*r, *s)
        r0, s0, r1, s1 = r1, s1, [c // g for c in r], [c // g for c in s]
    # s1 A = r1 mod M, with r1 a constant, and a = (ca / a.den) A
    return Poly.from_ints([c * a.den for c in s1], r1[0] * ca)


def lagrange_interpolate(points) -> Poly:
    """Unique polynomial of degree < len(points) through (x_i, y_i)."""
    result = Poly.zero()
    xs = [Fraction(x) for x, _ in points]
    for i, (_, y) in enumerate(points):
        if y == 0:
            continue
        num = Poly.one()
        den = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            num = num * Poly([-xj, 1])
            den *= xs[i] - xj
        result = result + num * (Fraction(y) / den)
    return result


def is_squarefree(p: Poly) -> bool:
    """True when p has no repeated factor over Q."""
    if p.degree < 1:
        return True
    f = _primitive_ints(p)[1]
    return len(_gcd(f, _derivative(f))) == 1


def squarefree_part(p: Poly) -> Poly:
    """Monic squarefree part of p."""
    if p.is_zero():
        return p
    if p.degree == 0:
        return Poly.one()
    f = _squarefree_part(_primitive_ints(p)[1])
    return Poly.from_ints(f, f[-1])


def resultant(a: Poly, b: Poly) -> Fraction:
    """Res(a, b), exact over Q; 0 when either is zero."""
    if a.is_zero() or b.is_zero():
        return Fraction(0)
    ca, fa = _primitive_ints(a)
    cb, fb = _primitive_ints(b)
    return Fraction(ca ** b.degree * cb ** a.degree * _resultant(fa, fb),
                    a.den ** b.degree * b.den ** a.degree)


def discriminant(p: Poly) -> Fraction:
    """disc(p) = (-1)^{d(d-1)/2} Res(p, p') / lc(p)."""
    if p.degree < 1:
        raise ValueError("discriminant needs degree >= 1")
    d = p.degree
    r = resultant(p, p.derivative()) / p.lc
    return -r if d * (d - 1) // 2 % 2 else r


def content_and_primitive(p: Poly):
    """Write p = c * P with c rational > 0 and P a primitive integer
    polynomial with positive leading coefficient."""
    g, ints = _primitive_ints(p)
    return Fraction(g, p.den), Poly(ints)


def real_root_count(p: Poly) -> int:
    """Number of distinct real roots, by Sturm's theorem (exact): the sign
    changes at -infinity less those at +infinity along the sequence
    f, f', -rem(f, f'), ..., with each remainder taken as a positive
    multiple of the pseudo-remainder."""
    if p.degree < 1:
        return 0
    f = _primitive_ints(p)[1]
    seq = [f, _derivative(f)]
    while len(seq[-1]) > 1:
        a, b = seq[-2], seq[-1]
        _, r = _pseudo_divmod(a, b)
        if not r:
            break
        # lc(b)^(deg a - deg b + 1) is negative when odd and lc(b) < 0
        if b[-1] < 0 and (len(a) - len(b)) % 2 == 0:
            r = [-c for c in r]
        g = int_gcd(*r)
        seq.append([-c // g for c in r])

    def changes(signs):
        return sum(x != y for x, y in zip(signs, signs[1:]))

    top = [1 if s[-1] > 0 else -1 for s in seq]
    bottom = [t if len(s) % 2 else -t for t, s in zip(top, seq)]
    return changes(bottom) - changes(top)


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> Poly:
    """The n-th cyclotomic polynomial: for each prime q dividing n,
    Phi_(mq)(x) = Phi_m(x^q) / Phi_m(x) when q does not divide m, and
    Phi_(m r^k)(x) = Phi_(m r)(x^(r^(k-1))) for the product m r of the
    distinct primes."""
    if n < 1:
        raise ValueError("n must be positive")
    h, radical = [-1, 1], 1
    for q in prime_factors(n):
        spread = [0] * (q * (len(h) - 1) + 1)
        spread[::q] = h
        h, radical = _divide(spread, h), radical * q
    k = n // radical
    out = [0] * (k * (len(h) - 1) + 1)
    out[::k] = h
    return Poly(out)


@functools.lru_cache(maxsize=None)
def _cyclotomic_orders(m: int) -> tuple:
    """The n with phi(n) = m.  Such n is m prod p/(p - 1) over the primes p
    dividing it, and p - 1 divides m for each, which bounds n."""
    num, den = m, 1
    for d in range(1, m + 1):
        if m % d == 0 and isprime(d + 1):
            num, den = num * (d + 1), den * d
    return tuple(n for n in range(1, num // den + 1) if euler_phi(n) == m)


def _is_cyclotomic(f: list) -> bool:
    """f, an integer polynomial of degree >= 2, is Phi_n for some n."""
    return f[-1] == 1 and f == f[::-1] and any(
        list(cyclotomic(n).num) == f for n in _cyclotomic_orders(len(f) - 1))


# -- factorization over Z --------------------------------------------------

# Zassenhaus tries this many primes p at which f mod p is squarefree, and
# lifts the factorization at the one with the fewest factors
_ZASSENHAUS_PRIMES = 5


def _hensel_step(m: int, f: list, g: list, h: list, s: list, t: list):
    """One quadratic Hensel step (von zur Gathen and Gerhard, Modern
    Computer Algebra, algorithm 15.10): from f = g h and s g + t h = 1 mod
    m, with h monic, the same mod m^2.  The _modp routines serve the
    composite modulus m^2, as the only divisor, h, is monic."""
    m2 = m * m
    e = _modp.reduce(_sub(f, _mul(g, h)), m2)
    q, r = _modp.quo_rem(_mul(s, e), h, m2)
    g2 = _modp.reduce(_add(_add(g, _mul(t, e)), _mul(q, g)), m2)
    h2 = _modp.reduce(_add(h, r), m2)
    b = _modp.reduce(_sub(_add(_mul(s, g2), _mul(t, h2)), [1]), m2)
    c, d = _modp.quo_rem(_mul(s, b), h2, m2)
    s2 = _modp.reduce(_sub(s, d), m2)
    t2 = _modp.reduce(_sub(_sub(t, _mul(t, b)), _mul(c, g2)), m2)
    return g2, h2, s2, t2


def _hensel_lift(p: int, f: list, factors: list, k: int) -> list:
    """Monic g_i with f = lc(f) g_1 ... g_r mod p^k, for the monic factors
    mod p of f with f mod p squarefree: the factors are split in two
    halves, each pair lifted quadratically, and each half in turn."""
    modulus = p ** k
    if len(factors) == 1:
        inv = pow(f[-1], -1, modulus)
        return [[c * inv % modulus for c in f]]
    half = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:half]:
        g = _modp.mul(g, u, p)
    h = [1]
    for u in factors[half:]:
        h = _modp.mul(h, u, p)
    s, t = _modp.gcdex(g, h, p)
    m = p
    while m < modulus:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return (_hensel_lift(p, g, factors[:half], k)
            + _hensel_lift(p, h, factors[half:], k))


def _symmetric(a: list, m: int) -> list:
    half = m // 2
    return _trim([c - m if c > half else c for c in (c % m for c in a)])


def _zassenhaus(f: list) -> list:
    """The irreducible factors over Z of the primitive squarefree f of
    degree >= 1 with f(0) != 0 and positive leading coefficient (Cohen,
    algorithm 3.5.7).

    Mod each of _ZASSENHAUS_PRIMES primes p prime to lc(f) with f mod p
    squarefree, distinct-degree factorization gives the degrees of the
    irreducible factors mod p, and so the degrees that a factor over Z can
    have, the sums of subsets of them; when no degree strictly between 0
    and deg f survives every prime, f is irreducible.  Otherwise the
    factorization at the prime with the fewest factors (the last such, as a
    larger p has more linear candidates to split with) is completed by
    equal-degree splitting and lifted to p^k > 2B, for
    B = lc(f) 2^n |f|_2 >= lc(f) |g|_1 |h|_1 for every f = g h (Mignotte).
    A set S of lifted factors gives G = lc(f) prod_S g_i and H the same
    over the rest, in the symmetric residues mod p^k, and |G|_1 |H|_1 <= B
    proves G H = lc(f) f (both sides agree mod p^k and are below p^k / 2);
    every factor over Z comes out of such a set.  Sets are tried by size,
    up to half of the factors left, after a test that G(0) divides
    lc(f) f(0).  A cyclotomic f is recognised first: the Galois group
    (Z/n)^* of Phi_n is not cyclic for most n, and then no degree pattern
    proves it irreducible."""
    n = len(f) - 1
    if n == 1:
        return [f]
    if _is_cyclotomic(f):
        return [f]
    lead = f[-1]
    degrees = (1 << (n + 1)) - 1
    best = None
    tried = 0
    p = 2
    while tried < _ZASSENHAUS_PRIMES:
        p = next_prime(p)
        if lead % p == 0:
            continue
        fp = _modp.monic(_modp.reduce(f, p), p)
        if len(_modp.gcd(fp, _modp.derivative(fp, p), p)) > 1:
            continue
        tried += 1
        parts, powers = _modp.distinct_degree_factors(fp, p)
        sums = 1
        count = 0
        for k, g in parts:
            for _ in range((len(g) - 1) // k):
                sums |= sums << k
                count += 1
        degrees &= sums
        if degrees == 1 | 1 << n:
            return [f]
        if best is None or count <= best[0]:
            best = (count, p, parts, powers)
    _, p, parts, powers = best
    modular = []
    for k, g in parts:
        modular += [g] if len(g) - 1 == k else _modp.equal_degree_factors(g, p, powers[:k])
    bound = lead * 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    k = 1
    while p ** k <= 2 * bound:
        k += 1
    modulus = p ** k
    lifted = _hensel_lift(p, f, modular, k)

    found = []
    size = 1
    while 2 * size <= len(lifted):
        for subset in itertools.combinations(range(len(lifted)), size):
            c = lead
            for i in subset:
                c = c * lifted[i][0] % modulus
            c = _symmetric([c], modulus)
            if not c or lead * f[0] % c[0]:
                continue
            g, h = [lead], [lead]
            for i, u in enumerate(lifted):
                if i in subset:
                    g = _symmetric(_mul(g, u), modulus)
                else:
                    h = _symmetric(_mul(h, u), modulus)
            if sum(map(abs, g)) * sum(map(abs, h)) > bound:
                continue
            found.append(_primitive(g))
            f = _primitive(h)
            lead = f[-1]
            lifted = [u for i, u in enumerate(lifted) if i not in subset]
            break
        else:
            size += 1
    return found + [f]


def factor_rational(p: Poly):
    """Factor a nonzero polynomial into rational irreducibles.

    Returns a deterministic list of (factor, multiplicity) with each factor
    a primitive integer polynomial with positive leading coefficient.  The
    product of the factors agrees with the input up to a rational constant.
    The factors are those of the squarefree part by _zassenhaus, after x,
    and the multiplicities come from repeated division.
    """
    if p.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return []
    f = _primitive_ints(p)[1]
    out = []
    zeros = next(i for i, c in enumerate(f) if c)
    if zeros:
        out.append((Poly([0, 1]), zeros))
        f = f[zeros:]
    if len(f) > 1:
        for g in _zassenhaus(_squarefree_part(f)):
            mult = 0
            while (q := _divide(f, g)) is not None:
                f, mult = q, mult + 1
            out.append((Poly(g), mult))
    out.sort(key=lambda fm: (fm[0].degree, fm[0].num))
    return out


def is_irreducible(p: Poly) -> bool:
    if p.degree < 1:
        return False
    if p.degree == 1:
        return True
    f = _primitive_ints(p)[1]
    if not f[0] or _squarefree_part(f) != f:
        return False
    return len(_zassenhaus(f)) == 1
