"""Certified complex roots of rational polynomials.

Roots are approximated with mpmath at a configurable working precision and
certified by Henrici inclusion disks: for any z, the disk of radius
d*|p(z)/p'(z)| centered at z contains at least one root of p.  When the d
disks around the d approximations are pairwise disjoint, each contains
exactly one true root, which certifies both the approximation error and the
pairwise separation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import math
import threading

import mpmath

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


def _eval_exact_coeffs(coeffs, z):
    acc = mpmath.mpc(0)
    for c in reversed(coeffs):
        acc = acc * z + mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
    return acc


def _float_upper(x) -> float:
    """The least float >= the mpf x; never 0 for a positive x, so a radius
    below the float range stays a valid (if loose) bound."""
    r = float(x)
    return math.nextafter(r, math.inf) if r < x else r


def certified_roots(p: Poly, bits: int = DEFAULT_PRECISION_BITS) -> list[CertifiedRoot]:
    """All complex roots of a squarefree polynomial, certified and sorted
    by (real part, imaginary part)."""
    if p.degree < 1:
        return []
    if not is_squarefree(p):
        raise ValueError("certified_roots requires a squarefree polynomial")
    d = p.degree
    dp = p.derivative()
    n_real = real_root_count(p)

    with locked_workprec(bits + 32):
        try:
            approx = mpmath.polyroots(
                [mpmath.mpf(c.numerator) / mpmath.mpf(c.denominator)
                 for c in reversed(p.coeffs)],
                maxsteps=200, extraprec=bits // 2)
        except mpmath.libmp.libhyper.NoConvergence as exc:
            raise PrecisionExhausted(
                f"root iteration did not converge at {bits} bits") from exc

        roots = []
        for z in approx:
            z = mpmath.mpc(z)
            num = _eval_exact_coeffs(p.coeffs, z)
            den = _eval_exact_coeffs(dp.coeffs, z)
            if den == 0:
                raise PrecisionExhausted("derivative vanished at an approximate root")
            # factor 2 absorbs evaluation rounding at working precision
            radius = 2 * d * abs(num) / abs(den) + mpmath.mpf(2) ** (-bits)
            roots.append((z, _float_upper(radius)))

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
