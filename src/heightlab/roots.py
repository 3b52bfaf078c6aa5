"""Certified complex roots of rational polynomials.

Roots are approximated by Durand-Kerner (Weierstrass) iteration: a global
phase in binary64 from Newton-polygon starting points, then one sweep at
each doubling precision (quadratic convergence doubles the correct bits
per sweep), then sweeps at the working precision bits + 32.  The binary64
and the working-precision sweeps stop by one rule: when the corrections
fall below a tolerance, or stop shrinking at the rounding level.
Polynomials that binary64 cannot represent start from the same points at
the working precision instead.

The approximations are certified by Henrici inclusion disks: for any z,
the disk of radius d*|p(z)/p'(z)| centered at z contains at least one
root of p (Henrici, Applied and Computational Complex Analysis I, 6.4).
p(z) and p'(z) are evaluated with a running error bound, so the radius is
an upper bound whatever the rounding.  When the d disks around the d
approximations are pairwise disjoint, each contains exactly one true
root, which certifies both the approximation error and the pairwise
separation; one rule, _meeting_disk, then tells which disk holds the
conjugate of a root or the image of an embedding under an automorphism.
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
    fzero,
    mpc_abs,
    mpc_add_mpf,
    mpc_div,
    mpc_mul,
    mpc_mul_mpf,
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
from .polynomials import Poly, is_squarefree

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


def _dk_sweep(c, z) -> float:
    """One Durand-Kerner (Weierstrass) sweep in binary64 for the monic
    polynomial with coefficients c, lowest degree first.

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


def _mp_sweep(c, z, prec: int):
    """The sweep of _dk_sweep at prec bits on mpmath's raw values: the mpf
    tuples c and the mpc tuples z, updated in place.

    Each step is the libmp operation that mpmath's operators call for the
    same expression on mpf and mpc numbers, in the same order and rounded
    to nearest at prec bits, so the result is bit for bit theirs without
    the cost of the number objects.  Only the products by the integer 1
    that start the product of differences and divide a degree-1 correction
    are skipped: each returns its operand, which is already rounded to
    prec bits.  Returns the largest relative correction as an mpf.
    """
    rnd = round_nearest
    top = c[-1]
    rest = c[-2::-1]
    worst = fzero
    for i, zi in enumerate(z):
        num = mpc_mul_mpf(zi, top, prec, rnd)
        num = mpc_add_mpf(num, rest[0], prec, rnd)
        for a in rest[1:]:
            num = mpc_add_mpf(mpc_mul(num, zi, prec, rnd), a, prec, rnd)
        den = None
        for j, zj in enumerate(z):
            if j != i:
                diff = mpc_sub(zi, zj, prec, rnd)
                den = diff if den is None else mpc_mul(den, diff, prec, rnd)
        delta = num if den is None else mpc_div(num, den, prec, rnd)
        z[i] = mpc_sub(zi, delta, prec, rnd)
        scale = mpc_abs(zi, prec, rnd)
        if not mpf_gt(scale, fone):
            scale = fone
        step = mpf_div(mpc_abs(delta, prec, rnd), scale, prec, rnd)
        if mpf_gt(step, worst):
            worst = step
    return mpmath.mp.make_mpf(worst)


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
    points = [(i, math.log2(abs(c.numerator)) - math.log2(c.denominator))
              for i, c in enumerate(p.coeffs) if c]
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
    lc = p.coeffs[-1]
    try:
        c = [float(a / lc) for a in p.coeffs]
        z = [cmath.rect(2.0 ** e, arg) for e, arg in _starts(p)]
    except OverflowError:
        return None
    if any(a and not f for a, f in zip(p.coeffs, c)):
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
    tolerance = mpmath.mpf(2) ** -(bits + 32)
    try:
        if starts is None:
            z = [(mpmath.mpf(2) ** e * mpmath.expj(arg))._mpc_ for e, arg in _starts(p)]
        else:
            z = [mpmath.mpc(w)._mpc_ for w in starts]
            level = 2 * 53
            while level < bits + 32:
                _mp_sweep(monic, z, level + 32)
                level *= 2
        prec = bits + 32
        if _sweep_until_settled(lambda: _mp_sweep(monic, z, prec), _MAX_SWEEPS,
                                tolerance, mpmath.mpf(2) ** -bits):
            return [mpmath.mp.make_mpc(w) for w in z]
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


def _horner_with_bound(c, z, az, prec: int):
    """p(z) by Horner's rule for the mpf coefficients c (lowest degree
    first, each at most 3 roundings from its exact rational), a bound on its
    error, and sum i |c_i| az^(i-1) >= |p'(w)| for |w| <= az, az >= |z|.
    The loop runs on the raw tuples c, z and az with the libmp operations
    that mpmath's operators would call at prec bits.

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
    magnitude = slope = fzero
    for a in reversed(c):
        value = mpc_add_mpf(mpc_mul(value, z, prec, rnd), a, prec, rnd)
        slope = mpf_add(mpf_mul(slope, az, prec, rnd), magnitude, prec, rnd)
        magnitude = mpf_add(mpf_mul(magnitude, az, prec, rnd),
                            mpf_abs(a, prec, rnd), prec, rnd)
    return (mpmath.mp.make_mpc(value),
            _gamma(8 * (len(c) - 1) + 16, prec) * mpmath.mp.make_mpf(magnitude),
            mpmath.mp.make_mpf(slope))


def _henrici_radius(cs, dcs, z, bits: int, prec: int) -> float:
    """A float upper bound on d |p(z)| / |p'(z)| + 2^-bits, the radius of
    Henrici's inclusion disk around z plus the precision floor.

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
    radius = (d * upper / lower + mpmath.mpf(2) ** (-bits)) * (1 + _gamma(8, prec))
    return _float_upper(radius)


def _to_mpf(coeffs):
    """Raw mpf tuples of the rational coefficients at the current precision."""
    return [(mpmath.mpf(c.numerator) / c.denominator)._mpf_ for c in coeffs]


def _disk(value, radius: float):
    """The disk about the mpc value as raw values: (centre, radius)."""
    return value._mpc_, from_float(radius)


def _mirror(disk):
    """The complex-conjugate image of a disk, exactly."""
    (x, y), r = disk
    return (x, mpf_neg(y)), r


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


def certified_roots(p: Poly, bits: int = DEFAULT_PRECISION_BITS) -> list[CertifiedRoot]:
    """All complex roots of a squarefree polynomial, certified and sorted
    by (real part, imaginary part)."""
    if p.degree < 1:
        return []
    if not is_squarefree(p):
        raise ValueError("certified_roots requires a squarefree polynomial")
    return _certified_roots(p, bits)


def _certified_roots(p: Poly, bits: int) -> list[CertifiedRoot]:
    """certified_roots for a p of degree >= 1 already known to be
    squarefree, such as an irreducible defining polynomial.  A root is real
    exactly when the mirror image of its disk meets that disk alone."""
    prec = bits + 32
    with locked_workprec(prec):
        cs = _to_mpf(p.coeffs)
        dcs = _to_mpf(p.derivative().coeffs)
        monic = [mpf_div(a, cs[-1], prec, round_nearest) for a in cs]
        approx = _approximate_roots(p, monic, bits)
        radii = [_henrici_radius(cs, dcs, z, bits, prec) for z in approx]
        disks = [_disk(z, r) for z, r in zip(approx, radii)]
        for i, disk in enumerate(disks):  # disk i meets itself and no later disk
            _meeting_disk(disks[i:], disk, f"could not separate roots at {bits} bits")
        partner = {}
        for i, disk in enumerate(disks):
            if i not in partner:
                j = _meeting_disk(disks, _mirror(disk), "real/complex classification ambiguous")
                if j in partner:
                    raise PrecisionExhausted("real/complex classification ambiguous")
                partner[i], partner[j] = j, i
        out = [CertifiedRoot(mpmath.mpc(z.real) if partner[i] == i else z, r, partner[i] == i)
               for i, (z, r) in enumerate(zip(approx, radii))]
        out.sort(key=lambda cr: (mpmath.re(cr.value), mpmath.im(cr.value)))
        return out


def archimedean_classes(roots: list[CertifiedRoot]) -> list[list[int]]:
    """Group embedding indices into real singletons and conjugate pairs.

    Returns a list of index lists, each of size 1 (real) or 2 (conjugate
    pair), in a deterministic order.
    """
    refusal = "could not pair complex-conjugate embeddings"
    disks = [_disk(r.value, r.radius) for r in roots]
    classes, used = [], set()
    for i, r in enumerate(roots):
        if r.is_real:
            classes.append([i])
        elif i not in used:
            j = _meeting_disk(disks, _mirror(disks[i]), refusal)
            # a partner j <= i is i itself or was already classified
            if j <= i or j in used or roots[j].is_real:
                raise PrecisionExhausted(refusal)
            classes.append([i, j])
            used.add(j)
    classes.sort(key=lambda c: (float(mpmath.re(roots[c[0]].value)),
                                abs(float(mpmath.im(roots[c[0]].value)))))
    return classes
