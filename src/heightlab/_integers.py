"""Primes and factors of Python integers.

isprime is deterministic Miller-Rabin on the first 13 prime bases below
3317044064679887385961981, the least strong pseudoprime to all of them,
and the Baillie-PSW test above (Baillie and Wagstaff, Lucas
pseudoprimes, Math. Comp. 35, 1980): Miller-Rabin to base 2 and the strong
Lucas test with Selfridge's parameters.  No composite that passes BPSW is
known.

factor_search splits an integer within a fixed budget, in this order:
trial division by the primes below a limit, a perfect-power test, three
Fermat steps, Pollard's p - 1 method on the prime powers up to the limit,
and Pollard's rho method in Brent's form (Cohen, A Course in Computational
Algebraic Number Theory, GTM 138, sections 8.5 and 8.8).  The p - 1 bound
and the rho iterations shrink in proportion to the bit length of a part
past _FULL_BUDGET_BITS, so the time they take grows linearly with its size
rather than quadratically.  Every split is deterministic.

prime_factors is the one factorization of the library, for field
construction and place vectors alike: the primes of factor_search with
the trial bound FACTOR_LIMIT, refused by FactorizationExhausted where the
budget leaves a composite.  valuation is the exponent of a prime in an
integer.
"""

from __future__ import annotations

import functools
from math import gcd, isqrt

from .errors import FactorizationExhausted

# the trial division bound of prime_factors; factor_search goes on past it
# with Pollard's methods on fixed budgets, which shrink with the size of a
# part past 256 bits, so that a product of two 25-digit primes is refused
# in well under a second and a larger composite in time linear in its size
FACTOR_LIMIT = 2 ** 16

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to every base in _MR_BASES
_MR_BOUND = 3317044064679887385961981

# the rho budget of factor_search, in iterations of x -> x^2 + c over all
# parts of one integer of at most _FULL_BUDGET_BITS bits: it split each of 200 products of two primes in
# [2^31, 2^32] (half of it missed 6), and with p - 1 up to 2^16 it refuses
# a product of two 25-digit primes in about 0.4 s on a 2-core x86-64 host
_RHO_STEPS = 2 ** 17
# parts up to this many bits get the whole p - 1 bound and rho budget; a
# part of b bits more gets _FULL_BUDGET_BITS / b of each.  Past about 256
# bits a product mod the part costs in proportion to b^2 (0.8 us at 256
# bits, 3.7 us at 1 024, 54 us at 4 555, pure Python 3.11, x86-64)
_FULL_BUDGET_BITS = 256
# iterations or prime powers between two gcds
_RHO_BATCH = 128
_PM1_BATCH = 64


@functools.lru_cache(maxsize=None)
def primes_below(n: int) -> tuple:
    """The primes below n, by the sieve of Eratosthenes."""
    if n < 3:
        return ()
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for p in range(2, isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i in range(n) if sieve[i])


def _strong_probable_prime(n: int, base: int) -> bool:
    """Miller-Rabin to one base, for odd n > 2."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                result = -result
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test with Selfridge's parameters:
    D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4.  For odd n > 2 that is not a perfect square."""
    D = 5
    while True:
        j = _jacobi(D, n)
        if j == -1:
            break
        if j == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_k, V_k and Q^k mod n along the bits of d, with P = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n: int) -> bool:
    """True when n is prime."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 43 * 43:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, b) for b in _MR_BASES)
    return (_strong_probable_prime(n, 2) and isqrt(n) ** 2 != n
            and _strong_lucas(n))


def next_prime(n: int) -> int:
    """The least prime above n."""
    n = max(n, 1) + 1
    while not isprime(n):
        n += 1
    return n


def prime_factors(n: int) -> list:
    """The distinct prime factors of the nonzero integer n, increasing.

    FactorizationExhausted when factor_search, held to FACTOR_LIMIT,
    leaves a composite factor."""
    out = sorted(factor_search(n, FACTOR_LIMIT))
    for p in out:
        if not isprime(p):
            raise FactorizationExhausted(
                f"{p} has no prime factor below {FACTOR_LIMIT} and is not prime")
    return out


def valuation(n: int, p: int) -> int:
    """The exponent of the prime p in the nonzero integer n."""
    if n == 0:
        raise ValueError("valuation of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def euler_phi(n: int) -> int:
    """Euler's totient of the positive integer n."""
    for p in prime_factors(n):
        n = n // p * (p - 1)
    return n


def _iroot(n: int, k: int) -> int:
    """The integer k-th root of n >= 1, by Newton's method from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(n: int, limit: int):
    """(b, k) with n = b^k for the least prime k that fits, or None, for n
    with no prime factor below limit (so b >= limit, which bounds k)."""
    for k in primes_below(n.bit_length() // max(limit.bit_length() - 1, 1) + 1):
        b = _iroot(n, k)
        if b ** k == n:
            return b, k
    return None


def _fermat(n: int):
    """A factor of the odd n found by three Fermat steps a^2 - n = b^2, or
    None.  a runs from above isqrt(n) over the parity that a^2 - n = b^2
    allows (a is odd exactly when n = 1 mod 4)."""
    a = isqrt(n) + 1
    if (n % 4 == 1) != (a & 1):
        a += 1
    for _ in range(3):
        b2 = a * a - n
        b = isqrt(b2)
        if b * b == b2 and a - b > 1:
            return a - b
        a += 2
    return None


def _pollard_pm1(n: int, bound: int) -> list:
    """Parts of n, their product n, that Pollard's p - 1 method to base 2
    separates with the prime powers up to bound, in one pass: a prime p
    comes out at the first prime power after which 2^M = 1 mod p, for M the
    product of the prime powers so far, and primes that come out at the
    same prime power stay together, as do those that never do.  The gcd is
    taken every _PM1_BATCH prime powers, and a batch where it is not 1 is
    replayed one prime at a time."""
    steps = []
    for q in primes_below(bound + 1):
        qe = q
        while qe * q <= bound:
            qe *= q
        steps.append((q, qe))
    parts, a = [], 2
    for i in range(0, len(steps), _PM1_BATCH):
        batch = steps[i:i + _PM1_BATCH]
        start = a
        for _, qe in batch:
            a = pow(a, qe, n)
        if gcd(a - 1, n) == 1:
            continue
        a = start
        for q, qe in batch:
            while qe > 1:
                a = pow(a, q, n)
                qe //= q
                g = gcd(a - 1, n)
                if g == n:
                    return parts + [n]
                if g > 1:
                    parts.append(g)
                    n //= g
                    a %= n
    return parts + [n]


def _pollard_rho(n: int, budget: int):
    """(f, budget left): a proper factor f of n from Pollard's rho method in
    Brent's form on x -> x^2 + c, c = 1, 2, ..., or None.  The budget is in
    iterations times max(bit length of n, _FULL_BUDGET_BITS).  The
    differences are multiplied together and one gcd taken every _RHO_BATCH
    iterations; when it jumps to n, the batch is replayed one difference at
    a time, and a cycle mod n moves on to the next c."""
    cost = max(n.bit_length(), _FULL_BUDGET_BITS)
    c = 0
    while budget > 0:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            budget -= 2 * r * cost
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g, budget
    return None, 0


def factor_search(n: int, limit: int) -> dict:
    """{factor: multiplicity} with product |n|, every factor prime except
    where the search ran out of budget, which leaves a composite factor
    with no prime factor below limit.  factor_search(0) is {0: 1}."""
    n = abs(n)
    if n == 0:
        return {0: 1}
    factors = {}
    for p in primes_below(limit):
        if p * p > n:
            break
        if n % p == 0:
            k = 0
            while n % p == 0:
                n //= p
                k += 1
            factors[p] = k
    if n > 1:
        for f, k in _split(n, limit).items():
            factors[f] = factors.get(f, 0) + k
    return factors


def _split(n: int, limit: int) -> dict:
    """factor_search of n > 1 with no prime factor below limit.

    Each composite part goes through the perfect-power test, Fermat, p - 1
    and rho in turn.  p - 1 runs to one bound, set by the size of n, and is
    skipped on a divisor of a number it ran on, where it would separate
    nothing more; the rho iterations are one budget for all the parts."""
    out, pending, sieved = {}, [(n, 1)], []
    bound = limit * _FULL_BUDGET_BITS // max(n.bit_length(), _FULL_BUDGET_BITS)
    budget = _RHO_STEPS * _FULL_BUDGET_BITS
    while pending:
        m, k = pending.pop()
        if m < limit * limit or isprime(m):
            out[m] = out.get(m, 0) + k
            continue
        power = _perfect_power(m, limit)
        if power is not None:
            pending.append((power[0], k * power[1]))
            continue
        f = _fermat(m)
        if f is None and not any(t % m == 0 for t in sieved):
            sieved.append(m)
            parts = _pollard_pm1(m, bound)
            if len(parts) > 1:
                pending += [(part, k) for part in parts]
                continue
        if f is None:
            f, budget = _pollard_rho(m, budget)
        if f is None:
            out[m] = out.get(m, 0) + k
        else:
            pending += [(f, k), (m // f, k)]
    return out
