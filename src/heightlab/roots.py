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
separation; the Sturm count then says which roots are real.
"""

from __future__ import annotations

import cmath
import contextlib
import dataclasses
import math
import threading

import mpmath
from mpmath.libmp import (
    fone,
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
    round_nearest,
)

from .errors import PrecisionExhausted
from .polynomials import Poly, is_squarefree, real_root_count

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


def _gamma(k: int, u):
    """Higham's gamma_k = k u / (1 - k u), for k u < 1 (here k is about 8
    times the degree and u at most 2^-32)."""
    return k * u / (1 - k * u)


def _horner_with_bound(c, z, az, u, prec: int):
    """p(z) by Horner's rule for the mpf coefficients c (lowest degree
    first, each at most 3 roundings from its exact rational), with a bound
    on the error of the computed value; az is |z| and u the unit roundoff.
    c, z and az are mpmath's raw tuples, and the loop runs on them with the
    libmp operations that mpmath's operators would call at prec bits, as
    in _mp_sweep.

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
    magnitude = fzero
    for a in reversed(c):
        value = mpc_add_mpf(mpc_mul(value, z, prec, rnd), a, prec, rnd)
        magnitude = mpf_add(mpf_mul(magnitude, az, prec, rnd),
                            mpf_abs(a, prec, rnd), prec, rnd)
    return (mpmath.mp.make_mpc(value),
            _gamma(8 * (len(c) - 1) + 16, u) * mpmath.mp.make_mpf(magnitude))


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
    value, e_value = _horner_with_bound(cs, z._mpc_, az, u, prec)
    slope, e_slope = _horner_with_bound(dcs, z._mpc_, az, u, prec)
    # the factors 1 -+ 4u keep the two bounds on their safe side through
    # the rounding of abs and of the product; gamma_8 covers the rest
    upper = abs(value) * (1 + 4 * u) + e_value
    lower = abs(slope) * (1 - 4 * u) - e_slope
    if lower <= 0:
        raise PrecisionExhausted("derivative vanished at an approximate root")
    d = len(cs) - 1
    radius = (d * upper / lower + mpmath.mpf(2) ** (-bits)) * (1 + _gamma(8, u))
    return _float_upper(radius)


def _to_mpf(coeffs):
    """Raw mpf tuples of the rational coefficients at the current precision."""
    return [(mpmath.mpf(c.numerator) / c.denominator)._mpf_ for c in coeffs]


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
    squarefree, such as an irreducible defining polynomial."""
    prec = bits + 32
    n_real = real_root_count(p)

    with locked_workprec(prec):
        cs = _to_mpf(p.coeffs)
        dcs = _to_mpf(p.derivative().coeffs)
        monic = [mpf_div(a, cs[-1], prec, round_nearest) for a in cs]
        approx = _approximate_roots(p, monic, bits)
        roots = [(z, _henrici_radius(cs, dcs, z, bits, prec)) for z in approx]

        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if abs(roots[i][0] - roots[j][0]) <= roots[i][1] + roots[j][1]:
                    raise PrecisionExhausted(
                        f"could not separate roots at {bits} bits")

        # Sturm count pins down exactly which approximations are real.
        order = sorted(range(len(roots)), key=lambda i: abs(mpmath.im(roots[i][0])))
        real_idx = set(order[:n_real])
        for i, (z, r) in enumerate(roots):
            im = abs(mpmath.im(z))
            if i in real_idx and im > r:
                raise PrecisionExhausted("real/complex classification ambiguous")
            if i not in real_idx and im <= r:
                raise PrecisionExhausted("real/complex classification ambiguous")

        out = []
        for i, (z, r) in enumerate(roots):
            if i in real_idx:
                z = mpmath.mpc(mpmath.re(z), 0)
            out.append(CertifiedRoot(value=z, radius=r, is_real=i in real_idx))
        out.sort(key=lambda cr: (mpmath.re(cr.value), mpmath.im(cr.value)))
        return out


def archimedean_classes(roots: list[CertifiedRoot]) -> list[list[int]]:
    """Group embedding indices into real singletons and conjugate pairs.

    Returns a list of index lists, each of size 1 (real) or 2 (conjugate
    pair), in a deterministic order.  Comparisons run at a precision fine
    enough that rounding stays below the certified radii.
    """
    min_radius = min((r.radius for r in roots), default=1.0)
    prec = max(64, int(-math.log2(min_radius)) + 64) if min_radius > 0 else 64

    with locked_workprec(prec):
        classes = []
        used = set()
        for i, r in enumerate(roots):
            if i in used:
                continue
            if r.is_real:
                classes.append([i])
                used.add(i)
                continue
            conj = None
            target = mpmath.conj(r.value)
            for j, s in enumerate(roots):
                if j == i or j in used or s.is_real:
                    continue
                if abs(s.value - target) <= r.radius + s.radius:
                    conj = j
                    break
            if conj is None:
                raise PrecisionExhausted("could not pair complex-conjugate embeddings")
            classes.append(sorted([i, conj]))
            used.update((i, conj))
        classes.sort(key=lambda c: (float(mpmath.re(roots[c[0]].value)),
                                    abs(float(mpmath.im(roots[c[0]].value)))))
        return classes
