"""Certified complex roots of rational polynomials.

There are two routes to the roots.  certified_roots approximates all of
them by Durand-Kerner (Weierstrass) iteration: a global phase in binary64
from Newton-polygon starting points, then one sweep at each doubling
precision (quadratic convergence doubles the correct bits per sweep),
then sweeps at the working precision bits + 32.  The binary64 and the
working-precision sweeps stop by one rule: when the corrections fall
below a tolerance, or stop shrinking at the rounding level.  Polynomials
that binary64 cannot represent start from the same points at the working
precision instead.  verify's Mahler-measure oracle and the tests use it.

galois_roots serves make_field, whose defining polynomial p has a Galois
root field with known automorphisms t -> A_j(t).  It refines one root
theta_1, the first binary64 approximation that make_field computed for the
field, by Newton steps at doubling precision, and root j is the disk
about A_j(theta_1) that _bounded_eval proves; complex conjugation is one
of the automorphisms, so only one root of each conjugate pair is computed
and its partner is stored as the exact mirror image.

Henrici inclusion disks certify theta_1 and the roots of certified_roots:
for any z, the disk of radius d*|p(z)/p'(z)| centered at z contains at
least one root of p (Henrici, Applied and Computational Complex Analysis
I, 6.4).  p(z) and p'(z) are evaluated with a running error bound, so the
radius is an upper bound whatever the rounding.  When the d disks are
pairwise disjoint, each contains exactly one true root, which certifies
both the approximation error and the pairwise separation; one rule,
_meeting_disk, then tells which disk holds the conjugate of a root.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import functools
import math
import threading

import mpmath
from mpmath.libmp import (
    fone,
    from_float,
    from_int,
    fzero,
    mpc_abs,
    mpc_add,
    mpc_add_mpf,
    mpc_div,
    mpc_mul,
    mpc_sub,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_neg,
    mpf_sub,
    round_down,
    round_nearest,
    round_up,
)

from .errors import PrecisionExhausted
from .polynomials import Poly, _derivative, is_squarefree

DEFAULT_PRECISION_BITS = 256

# mpmath's working precision is global mutable state; serialize every
# precision-sensitive section so concurrent library reads stay safe
_MP_LOCK = threading.RLock()


@contextlib.contextmanager
def locked_workprec(bits: int):
    with _MP_LOCK:
        with mpmath.workprec(bits):
            yield


@dataclasses.dataclass(frozen=True)
class CertifiedRoot:
    value: complex  # mpmath.mpc, kept at working precision
    radius: float   # the true root lies within this distance
    is_real: bool


# binary64 sweeps allowed for the starting approximations; they stop early
# once the largest relative correction falls below _FLOAT_TOLERANCE, or
# stops shrinking below _FLOAT_FLOOR = 2^32 units of roundoff, the same
# margin as 2^-bits at the working precision bits + 32
_FLOAT_SWEEPS = 100
_FLOAT_TOLERANCE = 1e-12
_FLOAT_FLOOR = 2.0 ** (32 - 53)
# sweeps allowed at the working precision before the iteration is refused.
# Every certified case of the stress set in tests/test_roots.py (degree up
# to 24, 8 to 1100 bits) needs at most 22 multiprecision sweeps in all, the
# close pairs of Mignotte polynomials being the slowest; a refusal costs at
# most this many.
_MAX_SWEEPS = 100


def _dk_sweep(c, z):
    """One Durand-Kerner (Weierstrass) sweep for the monic polynomial with
    coefficients c, lowest degree first, in binary64 on floats or at the
    working precision on mpmath numbers.

    Each z_i is replaced in place by z_i - p(z_i) / prod_{j != i} (z_i - z_j),
    with p evaluated by Horner's rule; the return value is the largest
    correction relative to max(1, |z_i|).
    """
    worst = 0
    for i, zi in enumerate(z):
        num = c[-1]
        for a in reversed(c[:-1]):
            num = num * zi + a
        den = 1
        for j, zj in enumerate(z):
            if j != i:
                den *= zi - zj
        delta = num / den
        z[i] = zi - delta
        worst = max(worst, abs(delta) / max(1, abs(zi)))
    return worst


def _sweep_until_settled(sweep, sweeps: int, tolerance, floor) -> bool:
    """Durand-Kerner sweeps, each a call of sweep, until the largest
    relative correction it returns is below tolerance or, below floor,
    stops shrinking: there it is rounding noise of an ill-conditioned root,
    which the certificate judges.  False when all the sweeps ran without
    settling."""
    previous = math.inf
    for _ in range(sweeps):
        worst = sweep()
        if worst < tolerance or floor > worst >= previous:
            return True
        previous = worst
    return False


def _starts(p: Poly) -> list[tuple[float, float]]:
    """(log2 of the modulus, argument) of a starting point for each root.

    The moduli come from the upper convex hull of the points
    (i, log2 |c_i|), Bini's Newton-polygon start (Numer. Algorithms 13,
    1996): a hull edge from i to j stands for j - i roots of modulus about
    |c_i / c_j|^(1/(j - i)), so roots of very different sizes start near
    their own circles.  The points of one circle are spread evenly, turned
    by Bini's 0.7 radians so that the starts are not symmetric about the
    real axis; a zero root (c_0 = 0) starts at 0 itself.
    """
    d = p.degree
    # log2 |c_i| from the lowest terms of c_i = n / den
    points = [(i, math.log2(abs(n) // g) - math.log2(p.den // g))
              for i, n in enumerate(p.num) if n for g in [math.gcd(n, p.den)]]
    hull = []
    for q in points:
        # drop the last hull point while it lies on or below the chord to q
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (q[1] - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (q[0] - hull[-2][0])):
            hull.pop()
        hull.append(q)
    starts = [(-math.inf, 0.0)] * points[0][0]
    for (i, y), (j, w) in zip(hull, hull[1:]):
        m = j - i
        starts += [((y - w) / m, 2 * math.pi * (k / m + i / d) + 0.7) for k in range(m)]
    return starts


def _float_starts(p: Poly):
    """Durand-Kerner approximations in binary64 from the Newton-polygon
    starts, or None when a start or a monic coefficient lies outside the
    float range or the iteration does not settle to finite values."""
    lc = p.num[-1]
    try:
        # int / int rounds as float(Fraction) does; 0 / lc is -0.0 for lc < 0
        c = [a / lc if a else 0.0 for a in p.num]
        z = [cmath.rect(2.0 ** e, arg) for e, arg in _starts(p)]
    except OverflowError:
        return None
    if any(a and not f for a, f in zip(p.num, c)):
        return None  # a coefficient underflows to 0
    try:
        _sweep_until_settled(lambda: _dk_sweep(c, z), _FLOAT_SWEEPS,
                             _FLOAT_TOLERANCE, _FLOAT_FLOOR)
    except (ZeroDivisionError, OverflowError):
        return None
    if not all(cmath.isfinite(w) for w in z):
        return None
    return z


def _approximate_roots(p: Poly, monic, bits: int):
    """Durand-Kerner approximations of the roots of p to about bits + 32
    bits, from binary64 starts refined at doubling precision (one sweep per
    level, each with 32 guard bits) or, when binary64 cannot represent p,
    from the Newton-polygon starts at full precision; monic holds the raw
    mpf coefficients of p over its leading one.  Call under
    locked_workprec(bits + 32)."""
    starts = _float_starts(p)
    c = [mpmath.mp.make_mpf(a) for a in monic]
    try:
        if starts is None:
            z = [mpmath.mpf(2) ** e * mpmath.expj(arg) for e, arg in _starts(p)]
        else:
            z = [mpmath.mpc(w) for w in starts]
            level = 2 * 53
            while level < bits + 32:
                with mpmath.workprec(level + 32):
                    _dk_sweep(c, z)
                level *= 2
        if _sweep_until_settled(lambda: _dk_sweep(c, z), _MAX_SWEEPS,
                                mpmath.mpf(2) ** -(bits + 32), mpmath.mpf(2) ** -bits):
            return z
    except ZeroDivisionError:
        pass  # two approximations coincide
    raise PrecisionExhausted(f"root iteration did not converge at {bits} bits")


def _float_upper(x) -> float:
    """The least float >= the mpf x; never 0 for a positive x, so a radius
    below the float range stays a valid (if loose) bound."""
    r = float(x)
    return math.nextafter(r, math.inf) if r < x else r


@functools.lru_cache(maxsize=None)
def _gamma(k: int, prec: int):
    """Higham's gamma_k = k u / (1 - k u) at prec bits, where u = 2^(1-prec)
    is the unit roundoff, for k u < 1 (here k is about 8 times the degree
    and u at most 2^-32)."""
    with mpmath.workprec(prec):
        u = mpmath.mpf(2) ** (1 - prec)
        return k * u / (1 - k * u)


# raw libmp values: the analytic workload evaluates every embedding here
def _horner_with_bound(c, z, az, prec: int, slope: bool = False):
    """p(z) by Horner's rule for the mpf coefficients c (lowest degree
    first, each at most 3 roundings from its exact rational), a bound on its
    error and, when slope is set, sum i |c_i| az^(i-1) >= |p'(w)| for
    |w| <= az, az >= |z| (None otherwise).  The loop runs on the raw tuples
    c, z and az with the libmp operations that mpmath's operators would
    call at prec bits.

    The bound is gamma_{8n+16} sum |c_i| |z|^i for degree n (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., eq. 5.3 with
    the complex arithmetic of Lemma 3.5): each Horner step is a complex
    multiply, with relative error at most sqrt(2) gamma_2 <= gamma_3, and
    an add, u, so the evaluation contributes gamma_{4n} and the coefficient
    conversions gamma_3.  The sum of magnitudes is accumulated beside p(z)
    in rounded arithmetic from a rounded |z|, which can lose another
    gamma_{4n+3} of it; the constant covers that and the rounding of the
    bound itself.
    """
    rnd = round_nearest
    value = (fzero, fzero)
    magnitude = majorant = fzero
    for a in reversed(c):
        value = mpc_add_mpf(mpc_mul(value, z, prec, rnd), a, prec, rnd)
        if slope:
            majorant = mpf_add(mpf_mul(majorant, az, prec, rnd), magnitude, prec, rnd)
        magnitude = mpf_add(mpf_mul(magnitude, az, prec, rnd),
                            mpf_abs(a, prec, rnd), prec, rnd)
    return (mpmath.mp.make_mpc(value),
            _gamma(8 * (len(c) - 1) + 16, prec) * mpmath.mp.make_mpf(magnitude),
            mpmath.mp.make_mpf(majorant) if slope else None)


def _henrici_radius(cs, dcs, z, floor, prec: int):
    """An mpf upper bound on d |p(z)| / |p'(z)| + floor, the radius of
    Henrici's inclusion disk around z plus a precision floor.

    p and p' (raw mpf coefficients cs and dcs) are evaluated with running error
    bounds, so |p(z)| <= |p~| + e_p and |p'(z)| >= |p~'| - e_p'; the
    latter must be positive.  u is one unit in the last place at prec
    bits, which bounds the relative error of one rounding in any
    direction.  Call under locked_workprec(prec).
    """
    u = mpmath.mpf(2) ** (1 - prec)
    az = abs(z)._mpf_
    value, e_value, _ = _horner_with_bound(cs, z._mpc_, az, prec)
    slope, e_slope, _ = _horner_with_bound(dcs, z._mpc_, az, prec)
    # the factors 1 -+ 4u keep the two bounds on their safe side through
    # the rounding of abs and of the product; gamma_8 covers the rest
    upper = abs(value) * (1 + 4 * u) + e_value
    lower = abs(slope) * (1 - 4 * u) - e_slope
    if lower <= 0:
        raise PrecisionExhausted("derivative vanished at an approximate root")
    d = len(cs) - 1
    return (d * upper / lower + floor) * (1 + _gamma(8, prec))


# raw libmp values, through _horner_with_bound, on the analytic workload
def _bounded_eval(cs, z, radius, prec: int, floor=0):
    """(A(z), e) for the raw mpf coefficients cs of A (lowest degree
    first, each at most 3 roundings from its exact rational) and the mpc z:
    a float e >= |A(z) - A(w)| + floor for every w within radius of z.

    |A'| <= D there, so |A(z) - A(w)| <= D r; _horner_with_bound computes
    A(z) to within gamma_{8n+16} M, and D and M from rounded |c_k| and
    R = |z| + r, with at most 4n + 4 roundings along any term for A of
    degree n.  The bound (D r + gamma_{8n+16} M + floor) takes 5 more,
    1 + gamma_{4n+12} covers them, and e is rounded up to a float.  Call
    under locked_workprec(prec), with every gamma below 1.
    """
    reach = abs(z) + radius
    value, error, slope = _horner_with_bound(cs, z._mpc_, reach._mpf_, prec, slope=True)
    widen = 1 + _gamma(4 * (len(cs) - 1) + 12, prec)
    return value, _float_upper((slope * radius + error + floor) * widen)


# raw libmp values: converts the coefficients of each analytic evaluation
def _to_mpf(nums, den: int):
    """Raw mpf tuples of the rationals n/den (den > 0), for the integers n
    in nums, at the current precision: each is rounded as the Fraction n/den
    would be, its reduced numerator rounded to the precision and then
    divided by its reduced denominator."""
    prec = mpmath.mp.prec
    out = []
    for n in nums:
        g = math.gcd(n, den)
        x = from_int(n // g, prec, round_nearest)
        out.append(x if g == den else mpf_div(x, from_int(den // g), prec, round_nearest))
    return out


def _disk(value, radius: float):
    """The disk about the mpc value as raw values: (centre, radius)."""
    return value._mpc_, from_float(radius)


def _mirror(disk):
    """The complex-conjugate image of a disk, exactly."""
    (x, y), r = disk
    return (x, mpf_neg(y)), r


# raw libmp values: the test needs directed rounding
def _may_meet(a, b) -> bool:
    """False only when the disks a and b are certainly disjoint: each step
    rounds to 53 bits, the centres' distance down and the radii's sum up,
    and a coordinate gap beyond that sum rejects before the distance."""
    (za, ra), (zb, rb) = a, b
    reach = mpf_add(ra, rb, 53, round_up)
    dx = mpf_abs(mpf_sub(za[0], zb[0], 53, round_down))
    dy = mpf_abs(mpf_sub(za[1], zb[1], 53, round_down))
    if mpf_gt(dx, reach) or mpf_gt(dy, reach):
        return False
    distance2 = mpf_add(mpf_mul(dx, dx, 53, round_down),
                        mpf_mul(dy, dy, 53, round_down), 53, round_down)
    return not mpf_gt(distance2, mpf_mul(reach, reach, 53, round_up))


def _meeting_disk(disks, disk, refusal: str) -> int:
    """The index of the only one of disks that may meet disk, or
    PrecisionExhausted(refusal) when none or several may."""
    hits = [i for i, other in enumerate(disks) if _may_meet(disk, other)]
    if len(hits) != 1:
        raise PrecisionExhausted(refusal)
    return hits[0]


def _separated(disks, bits: int) -> None:
    """Refuse unless the disks are pairwise disjoint: then each of d disks
    that each hold a root of a polynomial of degree d holds exactly one."""
    for i, disk in enumerate(disks):  # disk i meets itself and no later disk
        _meeting_disk(disks[i:], disk, f"could not separate roots at {bits} bits")


def _conjugate_partners(disks) -> list[int]:
    """partner[i], the index of the disk that holds the complex conjugate
    of the root in separated disk i: the only disk that the mirror image of
    disk i meets.  The root is real exactly when that is disk i itself."""
    partner = {}
    for i, disk in enumerate(disks):
        if i not in partner:
            j = _meeting_disk(disks, _mirror(disk), "real/complex classification ambiguous")
            if j in partner:
                raise PrecisionExhausted("real/complex classification ambiguous")
            partner[i], partner[j] = j, i
    return [partner[i] for i in range(len(disks))]


def _sorted_roots(values, radii, partner):
    """The CertifiedRoots, a real one centred on the real axis, sorted by
    (real part, imaginary part), partner renumbered in that order, and
    order[k], the index in values of the k-th root."""
    out = [CertifiedRoot(mpmath.mpc(z.real) if partner[i] == i else z, r, partner[i] == i)
           for i, (z, r) in enumerate(zip(values, radii))]
    order = sorted(range(len(out)), key=lambda i: (out[i].value.real, out[i].value.imag))
    position = {i: k for k, i in enumerate(order)}
    return [out[i] for i in order], [position[partner[i]] for i in order], order


def certified_roots(p: Poly, bits: int = DEFAULT_PRECISION_BITS) -> list[CertifiedRoot]:
    """All complex roots of a squarefree polynomial, certified and sorted
    by (real part, imaginary part), from Durand-Kerner approximations of all
    of them.  A root is real exactly when the mirror image of its disk meets
    that disk alone."""
    if p.degree < 1:
        return []
    if not is_squarefree(p):
        raise ValueError("certified_roots requires a squarefree polynomial")
    prec = bits + 32
    with locked_workprec(prec):
        cs = _to_mpf(p.num, p.den)
        dcs = _to_mpf(_derivative(p.num), p.den)
        monic = [mpf_div(a, cs[-1], prec, round_nearest) for a in cs]
        approx = _approximate_roots(p, monic, bits)
        floor = mpmath.mpf(2) ** (-bits)
        radii = [_float_upper(_henrici_radius(cs, dcs, z, floor, prec)) for z in approx]
        disks = [_disk(z, r) for z, r in zip(approx, radii)]
        _separated(disks, bits)
        return _sorted_roots(approx, radii, _conjugate_partners(disks))[0]


# raw libmp values: refines theta_1 on every cold build (field-build)
def _newton_step(cs, z, prec: int):
    """z - p(z) / p'(z) at prec bits for the raw mpf coefficients cs of p
    and the raw mpc z, with p and p' from one Horner pass, and the
    correction relative to max(1, |z|) as an mpf."""
    rnd = round_nearest
    value = slope = (fzero, fzero)
    for a in reversed(cs):
        slope = mpc_add(mpc_mul(slope, z, prec, rnd), value, prec, rnd)
        value = mpc_add_mpf(mpc_mul(value, z, prec, rnd), a, prec, rnd)
    delta = mpc_div(value, slope, prec, rnd)
    scale = mpc_abs(z, prec, rnd)
    if not mpf_gt(scale, fone):
        scale = fone
    step = mpf_div(mpc_abs(delta, prec, rnd), scale, prec, rnd)
    return mpc_sub(z, delta, prec, rnd), mpmath.mp.make_mpf(step)


def _one_root(p: Poly, cs, bits: int, starts):
    """One root of p to about bits + 32 bits, as a raw mpc: starts[0], the
    first binary64 Durand-Kerner approximation of _float_starts(p), refined
    by one Newton step per doubling precision (each with 32 guard bits),
    then by Newton steps at bits + 32 until they settle as the sweeps of
    _approximate_roots do; the first of _approximate_roots when binary64
    cannot represent p (starts is None).  Call under
    locked_workprec(bits + 32)."""
    prec = bits + 32
    if starts is None:
        monic = [mpf_div(a, cs[-1], prec, round_nearest) for a in cs]
        return _approximate_roots(p, monic, bits)[0]._mpc_
    z = [mpmath.mpc(starts[0])._mpc_]

    def newton(level):
        z[0], step = _newton_step(cs, z[0], level)
        return step

    try:
        level = 2 * 53
        while level < prec:
            newton(level + 32)
            level *= 2
        if _sweep_until_settled(lambda: newton(prec), _MAX_SWEEPS,
                                mpmath.mpf(2) ** -prec, mpmath.mpf(2) ** -bits):
            return z[0]
    except ZeroDivisionError:
        pass  # the derivative vanished at an iterate
    raise PrecisionExhausted(f"root iteration did not converge at {bits} bits")


def galois_roots(p: Poly, images, comp, starts, bits: int = DEFAULT_PRECISION_BITS):
    """(roots, classes, labels): the certified roots of p as
    certified_roots sorts them, their archimedean classes, and labels[i] = j
    when roots[i] is A_j(theta_1), for an irreducible p whose field
    F = Q[t]/(p) is Galois with automorphisms sigma_j: t -> A_j(t), where
    images[j] = (nums, den) holds the coordinates of A_j as integers over
    one denominator, sigma_0 is the identity and
    comp[a][b] is the index of sigma_a after sigma_b; starts is
    _float_starts(p), which make_field computes once for the field.

    Every root of p is A_j(theta_1) for one root theta_1 (_one_root, from
    starts[0]): the embedding t -> theta_1 after sigma_j.  Root j is the disk that
    _bounded_eval proves to hold A_j(theta_1), from the Henrici radius of
    theta_1 without the floor.  When the disk of theta_1 meets its mirror
    image, theta_1 may be real, and then F is totally real: every root is
    enclosed and _conjugate_partners tells the real flags.  Otherwise
    complex conjugation acts on F as an involution c, guessed as the one
    whose image A_c(theta_1) lies nearest to the conjugate of theta_1; the
    conjugate of root j is then root comp[c][j], so only the first root of
    each pair is enclosed, and its partner is stored as the exact mirror
    image.

    The d disks must be pairwise disjoint, so that each holds exactly one
    root, and the disk about A_c(theta_1) must meet only the mirror of
    theta_1's disk, which holds the conjugate of theta_1 alone: that
    certifies c, and so every mirrored label.
    """
    d = p.degree
    prec = bits + 32
    with locked_workprec(prec):
        cs = _to_mpf(p.num, p.den)
        theta = mpmath.mp.make_mpc(_one_root(p, cs, bits, starts))
        r1 = _henrici_radius(cs, _to_mpf(_derivative(p.num), p.den), theta, 0, prec)
        floor = mpmath.mpf(2) ** (-bits)

        @functools.cache
        def enclosure(j):
            return _bounded_eval(_to_mpf(*images[j]), theta, r1, prec, floor)

        first = _disk(*enclosure(0))
        totally_real = _may_meet(first, _mirror(first))
        if totally_real:
            partner = range(d)
        else:
            involutions = [j for j in range(1, d) if comp[j][j] == 0]
            if not involutions:
                raise PrecisionExhausted("real/complex classification ambiguous")
            target = mpmath.conj(theta)
            c = min(involutions, key=lambda j: abs(enclosure(j)[0] - target))
            partner = comp[c]
        values, radii = [None] * d, [None] * d
        for j, k in enumerate(partner):
            if j <= k:
                values[j], radii[j] = enclosure(j)
                if k != j:
                    values[k], radii[k] = mpmath.conj(values[j]), radii[j]
        disks = [_disk(z, r) for z, r in zip(values, radii)]
        _separated(disks, bits)
        if totally_real:
            partner = _conjugate_partners(disks)
        elif _meeting_disk(disks, _disk(*enclosure(c)),
                           "real/complex classification ambiguous") != c:
            raise PrecisionExhausted("real/complex classification ambiguous")
        roots, partner, labels = _sorted_roots(values, radii, partner)
        return roots, archimedean_classes(roots, partner), labels


def archimedean_classes(roots: list[CertifiedRoot], partner) -> list[list[int]]:
    """Embedding indices grouped into real singletons and conjugate pairs,
    from partner[i], the index of the conjugate of roots[i]: each class
    in increasing order, the classes by the real part and then the modulus
    of the imaginary part of their first root."""
    classes = [[i] if j == i else [i, j] for i, j in enumerate(partner) if j >= i]
    classes.sort(key=lambda c: (float(mpmath.re(roots[c[0]].value)),
                                abs(float(mpmath.im(roots[c[0]].value)))))
    return classes
