"""Dense polynomials over F_p, for p prime, on Python integers.

A polynomial is a list of residues in [0, p), lowest degree first, with no
trailing zeros; the zero polynomial is the empty list.  Products and
remainders run on unreduced integers and are reduced once at the end.
Equal-degree splitting is Cantor and Zassenhaus's (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, section 3.4), on the
quadratic character for odd p and on the trace for p = 2, with its random
elements replaced by a fixed sequence, so every result is deterministic.
"""

from __future__ import annotations


def reduce(ints, p: int) -> list:
    """An integer polynomial (lowest degree first) mod p."""
    return _trim([c % p for c in ints])


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def monic(a, p: int) -> list:
    """a divided by its leading coefficient."""
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def derivative(a, p: int) -> list:
    """The derivative a'."""
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def product(a, b) -> list:
    """a b over the integers, unreduced."""
    if not a or not b:
        return []
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                conv[k] += x * y
    return conv


def mul(a, b, p: int) -> list:
    """a b."""
    return reduce(product(a, b), p)


def sub(a, b, p: int) -> list:
    """a - b."""
    if len(a) < len(b):
        a = list(a) + [0] * (len(b) - len(a))
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _trim(out)


def quo_rem(a, b, p: int):
    """(quotient, remainder) of a, whose coefficients may be any integers,
    by the nonzero b."""
    n = len(b) - 1
    if len(a) <= n:
        return [], reduce(a, p)
    r = list(a)
    inv = pow(b[-1], -1, p)
    low = b[:n]
    q = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c = r[i] * inv % p
        if c:
            q[i - n] = c
            base = i - n
            for j in range(n):
                r[base + j] -= c * low[j]
    return q, _trim([c % p for c in r[:n]])


def rem(a, b, p: int) -> list:
    return quo_rem(a, b, p)[1]


def mulmod(a, b, m, p: int) -> list:
    """a b mod m."""
    return rem(product(a, b), m, p)


def powmod(a, n: int, m, p: int) -> list:
    """a^n mod m, for n >= 1."""
    base = rem(a, m, p)
    out = base
    for bit in bin(n)[3:]:
        out = mulmod(out, out, m, p)
        if bit == "1":
            out = mulmod(out, base, m, p)
    return out


def gcd(a, b, p: int) -> list:
    """The monic gcd (empty when both are zero)."""
    a, b = list(a), list(b)
    while b:
        a, b = b, rem(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def gcdex(a, b, p: int):
    """(s, t) with s a + t b = 1, for coprime a and b, by the extended
    Euclidean algorithm."""
    r0, r1, s0, s1 = list(a), list(b), [1], []
    while r1:
        q, r = quo_rem(r0, r1, p)
        r0, r1, s0, s1 = r1, r, s1, sub(s0, mul(q, s1, p), p)
    # r0 is a nonzero constant
    inv = pow(r0[0], -1, p)
    s = [c * inv % p for c in s0]
    t = quo_rem(sub([1], mul(s, a, p), p), b, p)[0]
    return s, t


def compose(g, h, m, p: int) -> list:
    """g(h) mod m, by Horner's rule."""
    h = rem(h, m, p)
    acc = []
    for c in reversed(g):
        acc = mulmod(acc, h, m, p) or [0]
        acc[0] = (acc[0] + c) % p
        acc = _trim(acc)
    return acc


def _digits(n: int, p: int) -> list:
    """The polynomial whose coefficients are the base-p digits of n."""
    out = []
    while n:
        n, c = divmod(n, p)
        out.append(c)
    return out


def frobenius_powers(m, p: int):
    """(r, [x, x^p, x^(p^2), ..., x^(p^(f-1))] mod m) for the monic m of
    degree at least 1, with f the least k >= 1 for which
    r = gcd(m, x^(p^k) - x) is not 1: r is the product of the distinct
    irreducible factors of m of the least degree f.  Each power is the
    previous one composed with h = x^p, as X(x)^p = X(x^p) mod p.  When
    x^(p^f) comes back to x, m is squarefree with every factor of degree f,
    and r = m is taken with no gcd."""
    x = rem([0, 1], m, p)
    power = h = powmod([0, 1], p, m, p)
    powers = [x]
    while power != x:
        r = gcd(m, sub(power, x, p), p)
        if len(r) > 1:
            return r, powers
        powers.append(power)
        power = compose(power, h, m, p)
    return m, powers


def _split(g, powers, p: int, n: int):
    """(h, n'): the first proper monic factor h of g over the candidates
    t = t_n, t_(n+1), ..., t_(n'-1).  g is monic, squarefree, a product of
    at least two irreducible factors of degree f, and powers is
    frobenius_powers of a multiple of g.

    The images t(x^(p^i)) = t^(p^i) mod g for i < f give, in the residue
    field F_(p^f) of each factor, the trace t + t^p + ... + t^(p^(f-1)) and
    the norm N(t) = t^(1 + p + ... + p^(f-1)), both in F_p.  A candidate
    splits g where it takes different values mod two factors of g.

    For odd p, h = gcd(g, N(t)^((p - 1)/2) - 1) collects the factors where
    t is a square, and t_n is the polynomial of the base-p digits of n:
    starting at n = p the candidates are x, x + 1, ..., x + p - 1, and then
    every polynomial of higher degree in turn.  By the Chinese remainder
    theorem some t of degree below deg g splits g.

    For p = 2, h = gcd(g, trace) collects the factors where the trace is 0,
    and t_n = x^(n - 1).  The trace is linear over F_2 and takes both
    values mod each factor, so by the Chinese remainder theorem it splits
    g at some power x^j with 0 < j < deg g (at 1 it is f mod 2 everywhere);
    a run through every polynomial in turn would try each one of lower
    degree first."""
    k = (p - 1) // 2
    xs = [rem(power, g, p) for power in powers]
    while True:
        t = _digits(n, p) if p > 2 else [0] * (n - 1) + [1]
        n += 1
        images = [compose(t, x, g, p) for x in xs]
        if p == 2:
            w = []
            for image in images:
                w = sub(w, image, p)  # minus is plus mod 2
        else:
            norm = [1]
            for image in images:
                norm = mulmod(norm, image, g, p)
            w = sub(powmod(norm, k, g, p), [1], p)
        h = gcd(g, w, p)
        if 0 < len(h) - 1 < len(g) - 1:
            return h, n


def equal_degree_factor(g, p: int, powers) -> list:
    """One irreducible factor of g, a monic squarefree product of
    irreducible factors of degree f = len(powers) mod the prime p, for
    powers the frobenius_powers of a multiple of g: each split keeps only
    the smaller of its two parts."""
    n = p
    while len(g) - 1 > len(powers):
        h, n = _split(g, powers, p, n)
        other = quo_rem(g, h, p)[0]
        g = h if len(h) <= len(other) else other
    return g


def equal_degree_factors(g, p: int, powers) -> list:
    """Every irreducible factor of g, for g and powers as in
    equal_degree_factor."""
    if len(g) - 1 == len(powers):
        return [g]
    h, _ = _split(g, powers, p, p)
    return (equal_degree_factors(h, p, powers)
            + equal_degree_factors(quo_rem(g, h, p)[0], p, powers))


def distinct_degree_factors(f, p: int):
    """([(k, g_k), ...], powers) for the monic squarefree f of degree at
    least 1: g_k is the product of the irreducible factors of f of degree
    k, for each k that has any (Cohen, GTM 138, algorithm 3.4.3), and
    powers[i] is x^(p^i) mod a multiple of every g_k with k > i, so that
    powers[:k] serve equal_degree_factors of g_k.  A last part of degree
    above 2 len(powers) - 2 is irreducible, and its k may exceed
    len(powers).  x^(p^k) comes from x^(p^(k-1)) by one power to the p,
    reduced by what is left of f."""
    x = rem([0, 1], f, p)
    parts, powers, h = [], [x], x
    while 2 * len(powers) <= len(f) - 1:
        h = powmod(h, p, f, p)
        g = gcd(f, sub(h, [0, 1], p), p)
        if len(g) > 1:
            parts.append((len(powers), g))
            f = quo_rem(f, g, p)[0]
            h = rem(h, f, p)
        powers.append(h)
    if len(f) > 1:
        parts.append((len(f) - 1, f))
    return parts, powers

