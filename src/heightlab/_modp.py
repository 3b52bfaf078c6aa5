"""Dense polynomials over F_p, for p prime, on Python integers.

A polynomial is a list of residues in [0, p), lowest degree first, with no
trailing zeros; the zero polynomial is the empty list.  Products and
remainders run on unreduced integers and are reduced once at the end.
Equal-degree splitting is Cantor and Zassenhaus's (Cohen, A Course in
Computational Algebraic Number Theory, GTM 138, section 3.4) for odd p,
with its random elements replaced by a fixed sequence, so every result is
deterministic.
"""

from __future__ import annotations


def reduce(ints, p: int) -> list:
    """An integer polynomial (lowest degree first) mod p."""
    return _trim([c % p for c in ints])


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


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
    if not a or not b:
        return []
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for k, y in enumerate(b, i):
                conv[k] += x * y
    return rem(conv, m, p)


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


def frobenius_powers(m, p: int) -> list:
    """[x, x^p, x^(p^2), ..., x^(p^(f-1))] mod m, for m a squarefree
    product of irreducible factors of one degree f, which is then the least
    k >= 1 with x^(p^k) = x mod m.  Each power is the previous one composed
    with h = x^p, as X(x)^p = X(x^p) mod p."""
    x = rem([0, 1], m, p)
    power = h = powmod([0, 1], p, m, p)
    powers = [x]
    while power != x:
        if len(powers) >= len(m):
            raise ValueError("the modulus is not squarefree of one factor degree")
        powers.append(power)
        power = compose(power, h, m, p)
    return powers


def _split(g, powers, p: int, n: int):
    """(h, n'): the first proper monic factor h = gcd(g, t^((p^f - 1)/2) - 1)
    of g over the candidates t = t_n, t_(n+1), ..., t_(n'-1), for t_n the
    polynomial of the base-p digits of n.  g is monic, squarefree, a
    product of at least two irreducible factors of degree f, p is odd, and
    powers is frobenius_powers of a multiple of g.

    The power is N(t)^((p - 1)/2), for N(t) the product of t(x^(p^i)) over
    i < f, which is t^(1 + p + ... + p^(f-1)) mod g.  Starting at n = p the
    candidates are x, x + 1, ..., x + p - 1, and then every polynomial of
    higher degree in turn.  By the Chinese remainder theorem some t of
    degree below deg g is a square mod one factor of g and not mod another,
    so a split is always found."""
    k = (p - 1) // 2
    xs = [rem(power, g, p) for power in powers]
    while True:
        t = _digits(n, p)
        n += 1
        norm = [1]
        for x in xs:
            norm = mulmod(norm, compose(t, x, g, p), g, p)
        h = gcd(g, sub(powmod(norm, k, g, p), [1], p), p)
        if 0 < len(h) - 1 < len(g) - 1:
            return h, n


def equal_degree_factor(g, p: int, powers) -> list:
    """One irreducible factor of g, a monic squarefree product of
    irreducible factors of degree f = len(powers) mod the odd prime p, for
    powers the frobenius_powers of a multiple of g: each split keeps only
    the smaller of its two parts."""
    n = p
    while len(g) - 1 > len(powers):
        h, n = _split(g, powers, p, n)
        other = quo_rem(g, h, p)[0]
        g = h if len(h) <= len(other) else other
    return g


def distinct_roots(g, p: int) -> list:
    """The roots of g, a monic product of distinct linear factors mod the
    odd prime p, in no particular order."""
    if len(g) == 2:
        return [-g[0] % p]
    h, _ = _split(g, [[0, 1]], p, p)
    return distinct_roots(h, p) + distinct_roots(quo_rem(g, h, p)[0], p)
