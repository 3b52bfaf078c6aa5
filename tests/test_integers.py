"""The private integer module against sympy's number theory, the oracle."""

import random
import time
from math import isqrt

import pytest
import sympy
from sympy.ntheory.primetest import is_strong_lucas_prp

from heightlab import _integers
from heightlab._integers import euler_phi, factor_search, isprime, next_prime, prime_factors
from heightlab.errors import FactorizationExhausted
from heightlab.placespace import _FACTOR_LIMIT, prime_support

CARMICHAEL = [561, 1105, 1729, 2465, 2821, 6601, 8911, 10585, 15841, 29341,
              41041, 46657, 52633, 62745, 63973, 75361, 101101, 115921,
              126217, 162401, 172081, 188461, 252601, 278545, 294409,
              314821, 334153, 340561, 399001, 410041, 449065, 488881, 512461,
              9746347772161, 1436697831295441, 60977817398996785]
# the least strong pseudoprimes to the first 5, 9, 12 and 13 prime bases
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051,
                       318665857834031151167461, 3317044064679887385961981]


def test_isprime_matches_sympy_up_to_10_5():
    assert [n for n in range(-3, 10 ** 5 + 1) if isprime(n)] == \
        list(sympy.primerange(2, 10 ** 5 + 1))


@pytest.mark.parametrize("n", CARMICHAEL + STRONG_PSEUDOPRIMES + [2 ** 127 - 1])
def test_isprime_on_pseudoprimes(n):
    assert isprime(n) == sympy.isprime(n)


def test_isprime_on_large_integers():
    # above 3317044064679887385961981 the test is BPSW
    rng = random.Random(21)
    cases = [rng.getrandbits(rng.randint(82, 400)) | 1 for _ in range(600)]
    cases += [sympy.nextprime(rng.getrandbits(100)) for _ in range(100)]
    cases += [sympy.nextprime(rng.getrandbits(50)) * sympy.nextprime(rng.getrandbits(50))
              for _ in range(100)]
    cases += [sympy.nextprime(rng.getrandbits(45)) ** 2 for _ in range(20)]
    cases += [2 ** 521 - 1, 2 ** 607 - 1, (2 ** 89 - 1) * (2 ** 107 - 1)]
    assert [isprime(n) for n in cases] == [sympy.isprime(n) for n in cases]


def test_strong_lucas_matches_sympy():
    # the Lucas half of BPSW on its own, strong Lucas pseudoprimes included
    for n in range(5, 60000, 2):
        if isqrt(n) ** 2 == n:
            continue
        assert _integers._strong_lucas(n) == is_strong_lucas_prp(n), n


def test_next_prime_factors_and_phi():
    for n in range(0, 5000):
        assert next_prime(n) == sympy.nextprime(n)
    for n in range(1, 5000):
        assert prime_factors(n) == sympy.primefactors(n)
        assert euler_phi(n) == sympy.totient(n)


def _smooth_prime(rng, bits):
    """A prime p with p - 1 a product of primes below 2^16."""
    small = _integers.primes_below(2 ** 16)
    while True:
        m = 2
        while m.bit_length() < bits:
            m *= rng.choice(small)
        if sympy.isprime(m + 1):
            return m + 1


def _products(rng):
    small = _integers.primes_below(2 ** 16)
    out = []
    for _ in range(12):
        out.append(sympy.prod(rng.choice(small) for _ in range(rng.randint(1, 6))))
        out.append(sympy.prod(sympy.nextprime(rng.randrange(2 ** 16, 2 ** 32))
                              for _ in range(rng.randint(1, 3))))
        out.append(_smooth_prime(rng, rng.randint(40, 80))
                   * sympy.nextprime(rng.getrandbits(rng.randint(40, 80))))
        p = sympy.nextprime(rng.getrandbits(rng.randint(30, 80)))
        out.append(p * sympy.nextprime(p + rng.randint(1, 1000)) * rng.choice(small))
        out.append(sympy.nextprime(rng.randrange(2 ** 16, 2 ** 40)) ** rng.randint(2, 5)
                   * rng.randint(1, 1000))
    return [int(n) for n in out]


def test_factor_search_completes_what_sympy_completes():
    # products of primes below 2^16, of primes in [2^16, 2^32], a prime p
    # with 2^16-smooth p - 1 times another, close prime pairs and perfect
    # powers: wherever factorint(limit=2**16) finds every prime factor,
    # factor_search finds the same ones, and what it returns always
    # multiplies back to n
    completed = 0
    for n in _products(random.Random(21)):
        mine = factor_search(n, _FACTOR_LIMIT)
        assert sympy.prod(p ** k for p, k in mine.items()) == n
        try:
            theirs = sympy.factorint(n, limit=_FACTOR_LIMIT)
        except ValueError:
            # sympy 1.14 can raise on a composite found under a limit, as
            # on the product of the primes 3026295247, 3746156857 and 4014785471
            theirs = {n: 1}
        if all(sympy.isprime(p) for p in theirs):
            assert mine == theirs, n
        if all(sympy.isprime(p) for p in mine):
            completed += 1
            assert set(prime_support(n)) == set(mine)
    assert completed >= 55


def test_factor_search_reaches_past_trial_division_on_a_large_part():
    # a 2 203-bit part gets 256/2203 of the p - 1 bound and rho iterations;
    # that still splits off a 24-bit safe prime q, whose q - 1 is not smooth
    big = 2 ** 2203 - 1
    for q in (8389163, 8391743):
        assert isprime((q - 1) // 2)
        assert factor_search(big * q, _FACTOR_LIMIT) == {q: 1, big: 1}


def test_factor_search_leaves_a_composite_within_budget():
    # two 25-digit primes: no step splits them, and the product is left whole
    n = 10000000000000000000000083000000000000000000000091
    start = time.perf_counter()
    assert factor_search(n, _FACTOR_LIMIT) == {n: 1}
    with pytest.raises(FactorizationExhausted, match="has no prime factor below 65536"):
        prime_support(7 * n)
    assert time.perf_counter() - start < 2
    assert factor_search(0, _FACTOR_LIMIT) == {0: 1}
    assert factor_search(-12, _FACTOR_LIMIT) == {2: 2, 3: 1}
    assert factor_search(1, _FACTOR_LIMIT) == {}
