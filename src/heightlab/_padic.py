"""Integer helpers for p-adic root finding: Hensel lifting, exact LLL
reduction and Babai's nearest plane.

All arithmetic is on Python integers.  The LLL reduction is the integral
version of Cohen, A Course in Computational Algebraic Number Theory
(GTM 138), Algorithm 2.6.7 with delta = 3/4: the Gram-Schmidt data are kept
as the integers d_i (Gram determinants) and lambda_ij = d_j mu_ij, and are
updated in place on each size reduction and swap.  The nearest plane step is
Babai, "On Lovasz' lattice reduction and the nearest lattice point
problem", Combinatorica 6 (1986).
"""

from __future__ import annotations


def eval_mod(coeffs, x: int, m: int) -> int:
    """coeffs (lowest degree first) at x, modulo m."""
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def hensel_lift(coeffs, r: int, p: int, k: int) -> int:
    """The root mod p^k above r, for r a simple root mod p of the integer
    polynomial coeffs (lowest degree first), by Newton doubling."""
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    steps = []
    while k > 1:
        steps.append(k)
        k = (k + 1) // 2
    for e in reversed(steps):
        m = p ** e
        r = (r - eval_mod(coeffs, r, m) * pow(eval_mod(deriv, r, m), -1, m)) % m
    return r


def _dot(u, v) -> int:
    return sum(x * y for x, y in zip(u, v))


class ReducedLattice:
    """An LLL-reduced basis of the lattice spanned by independent integer
    rows, with the Gram-Schmidt data that Babai's nearest plane needs."""

    __slots__ = ("basis", "_gs", "_dets")

    def __init__(self, rows):
        b = [list(r) for r in rows]
        n = len(b)
        dets = [1] + [0] * n  # dets[i + 1] = Gram determinant of b[0..i]
        lam = [[0] * n for _ in range(n)]

        def size_reduce(k, l):
            dl = dets[l + 1]
            if 2 * abs(lam[k][l]) > dl:
                q = (2 * lam[k][l] + dl) // (2 * dl)
                b[k] = [x - q * y for x, y in zip(b[k], b[l])]
                lam[k][l] -= q * dl
                for i in range(l):
                    lam[k][i] -= q * lam[l][i]

        def swap(k, kmax):
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            mu = lam[k][k - 1]
            dk1, dk, dk0 = dets[k + 1], dets[k], dets[k - 1]
            new = (dk0 * dk1 + mu * mu) // dk
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (dk1 * lam[i][k - 1] - mu * t) // dk
                lam[i][k - 1] = (new * t + mu * lam[i][k]) // dk1
            dets[k] = new

        dets[1] = _dot(b[0], b[0])
        k, kmax = 1, 0
        while k < n:
            if k > kmax:
                kmax = k
                for j in range(k + 1):
                    u = _dot(b[k], b[j])
                    for i in range(j):
                        u = (dets[i + 1] * u - lam[k][i] * lam[j][i]) // dets[i]
                    if j < k:
                        lam[k][j] = u
                    else:
                        dets[k + 1] = u
            size_reduce(k, k - 1)
            if 4 * dets[k + 1] * dets[k - 1] < 3 * dets[k] ** 2 - 4 * lam[k][k - 1] ** 2:
                swap(k, kmax)
                k = max(1, k - 1)
            else:
                for l in range(k - 2, -1, -1):
                    size_reduce(k, l)
                k += 1

        # gs[i] = dets[i] * b*_i, built fraction-free: after step j, v is
        # dets[j + 1] times b[i] minus its projection on b[0..j], an integer
        # vector by Cramer's rule, so every division is exact
        gs = []
        for i in range(n):
            v = b[i]
            for j in range(i):
                v = [(dets[j + 1] * x - lam[i][j] * y) // dets[j]
                     for x, y in zip(v, gs[j])]
            gs.append(v)
        self.basis = tuple(tuple(r) for r in b)
        self._gs = gs
        self._dets = dets

    def nearest_plane_residual(self, target) -> list[int]:
        """target - v for the lattice vector v that Babai's nearest plane
        picks: |target - v| <= 2^(n/2) times the distance from target to
        the lattice."""
        t = list(target)
        for i in range(len(self.basis) - 1, -1, -1):
            num, den = _dot(t, self._gs[i]), self._dets[i + 1]
            q = (2 * num + den) // (2 * den)
            if q:
                t = [x - q * y for x, y in zip(t, self.basis[i])]
        return t
