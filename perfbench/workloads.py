"""Seeded workload generators.

Each workload is an endless stream of blocks.  A block has a fixed
composition, shuffled by the seed, so that any whole number of blocks has
exactly the stated mix; the seed only draws the elements, scales and
subfields (and, for field-build, the family members).  The program under
test sees only the generated inputs: CLI argument dicts for the query
streams and defining polynomials for field-build.

Query inputs are written the way a CLI user writes them: an element is a
power-basis expression over the generator t, a scale is a "p/q" string.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

ANALYTIC_COMMANDS = ("height", "width", "vk-bounds", "orbit", "delta", "fvector")
K_COMMANDS = ("width", "vk-bounds", "orbit", "delta")
# the bundled scenarios have 1, 2 or 4 subfields
LATIN_ROUNDS = 4
MEMBER_SCENARIOS = ("sqrt2_sqrt3", "cbrt2_split", "zeta8")

# exact workload: per scenario, this many torsion queries of which one is a
# power of the torsion generator; per member scenario, this many member
# queries of which half are products of subfield elements
TORSION_PER_SCENARIO = 4
PROJECT_PER_SCENARIO_AND_OP = 2
MEMBER_PER_SCENARIO = 4
DECOMPOSE_PER_SCENARIO = 4

# torsion orders of the ladder, known independently of the library
LADDER_TORSION = {
    "rationals": 2, "sqrt2": 2, "zeta3": 6, "sqrt2_sqrt3": 2, "zeta5": 10,
    "cbrt2_split": 6, "zeta8": 8, "phi7": 14, "phi9": 18, "zeta13_plus": 2,
    "zeta17_plus": 2, "phi16": 16,
}
EXTRA_LADDER = {
    "phi7": (1, 1, 1, 1, 1, 1, 1),
    "phi9": (1, 0, 0, 1, 0, 0, 1),
    # minimal polynomials of 2cos(2pi/13) and 2cos(2pi/17)
    "zeta13_plus": (-1, 3, 6, -4, -5, 1, 1),
    "zeta17_plus": (1, -4, -10, 10, 15, -6, -7, 1, 1),
    "phi16": (1, 0, 0, 0, 0, 0, 0, 0, 1),
}
FAMILY_MEMBERS_PER_BLOCK = 4


@dataclasses.dataclass(frozen=True)
class Query:
    """One CLI query: command, bundled scenario name and argument dict."""

    qid: int
    command: str
    scenario: str
    args: tuple          # sorted (key, value) pairs of the run_command args
    expect: str | None = None   # an answer known by construction

    def arg_dict(self) -> dict:
        return dict(self.args)


@dataclasses.dataclass(frozen=True)
class Build:
    """One cold make_field call on an integer polynomial, low degree first."""

    qid: int
    label: str
    coeffs: tuple
    degree: int
    torsion_order: int


def element_expr(coords) -> str:
    """A power-basis expression for the given rational coordinates."""
    terms = []
    for i, c in enumerate(coords):
        if c == 0:
            continue
        mag = abs(c)
        body = str(mag.numerator) if mag.denominator == 1 else \
            f"{mag.numerator}/{mag.denominator}"
        if i:
            body += "*t" if i == 1 else f"*t^{i}"
        sign = "-" if c < 0 else "+"
        terms.append((sign, body))
    if not terms:
        return "0"
    first_sign, first = terms[0]
    out = ("-" if first_sign == "-" else "") + first
    for sign, body in terms[1:]:
        out += sign + body
    return out


def _random_coords(rng, degree, span, denominators):
    return tuple(Fraction(rng.randint(-span, span), rng.choice(denominators))
                 for _ in range(degree))


def fresh_coords(rng, degree, seen: set, key, span=3, denominators=(1, 1, 2, 3)):
    """Nonzero small rational coordinates never drawn before under key.

    The coordinate range doubles whenever twenty draws in a row collide,
    which only happens in low degree after many queries."""
    while True:
        for _ in range(20):
            coords = _random_coords(rng, degree, span, denominators)
            if any(coords) and (key, coords) not in seen:
                seen.add((key, coords))
                return coords
        span *= 2


def random_scale(rng) -> str:
    # larger numerators and denominators raise the bases to powers whose
    # coordinates pass Python's 4300-digit limit on int-to-str conversion,
    # so the CLI could not print the reports
    num = rng.choice((-1, 1)) * rng.randint(1, 2)
    return str(Fraction(num, rng.randint(1, 3)))


def _args(**kw):
    return tuple(sorted((k, v) for k, v in kw.items() if v is not None))


class AnalyticStream:
    """height, width, vk-bounds, orbit, delta and fvector queries.

    A round is every (scenario, command) pair once, shuffled, so scenarios
    are drawn uniformly over the seven bundled ones.  The cost of an orbit
    grows with [F:K], so the subfields K are dealt as a Latin square: a
    block is LATIN_ROUNDS rounds, and over a block every (scenario,
    K-taking command, K) triple occurs equally often, in an order fixed by
    a seeded permutation of each scenario's subfields.  Elements never
    repeat within a scenario."""

    def __init__(self, seed: int, corpus):
        self.rng = random.Random(f"analytic:{seed}")
        self.corpus = corpus
        self.seen = set()
        self.next_qid = 0
        self.subfield_orders = {}
        for name, sc in corpus.items():
            order = sorted(sc.subfields)
            self.rng.shuffle(order)
            self.subfield_orders[name] = order
        if any(LATIN_ROUNDS % len(o) for o in self.subfield_orders.values()):
            raise ValueError("LATIN_ROUNDS must be a multiple of every subfield count")

    def block(self):
        return [q for r in range(LATIN_ROUNDS) for q in self._round(r)]

    def _round(self, r):
        rng = self.rng
        plan = [(sc, cmd) for sc in self.corpus.values() for cmd in ANALYTIC_COMMANDS]
        rng.shuffle(plan)
        out = []
        for sc, cmd in plan:
            coords = fresh_coords(rng, sc.field.degree, self.seen, sc.name)
            k = None
            if cmd in K_COMMANDS:
                order = self.subfield_orders[sc.name]
                k = order[(K_COMMANDS.index(cmd) + r) % len(order)]
            args = _args(element=element_expr(coords), K=k,
                         scale=random_scale(rng) if cmd == "fvector" else None)
            out.append(Query(self.next_qid, cmd, sc.name, args))
            self.next_qid += 1
        return out


def subfield_element(k, rng, seen, key):
    """Nonzero element of K: the relative norm of a fresh element of F with
    integer coordinates in [-1, 1]."""
    field = k.field
    r = field.element(fresh_coords(rng, field.degree, seen, key, 1, (1,)))
    out = field.one()
    for sigma in k.fixing_group:
        out = out * sigma(r)
    return out


def _pairs(sc, galois_only):
    """Pairs of proper nontrivial subfields.  Membership answers are
    guaranteed only for pairs with the pairwise Galois condition, so member
    queries draw from those alone."""
    from heightlab.numberfield import galois_condition
    names = sorted(n for n, k in sc.subfields.items()
                   if 1 < k.degree_over_Q < sc.field.degree)
    return [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
            if not galois_only
            or galois_condition(sc.subfields[a], sc.subfields[b])]


class ExactStream:
    """torsion, project (s and t), member and decompose queries.

    Per block and scenario: TORSION_PER_SCENARIO torsion queries, one of
    them on a power of the torsion generator (answer yes); two s- and two
    t-projections, with K in a seeded cyclic order over the scenario's
    subfields.  Per block and member scenario (two or more proper
    nontrivial subfields): four member queries on two subfields that
    satisfy the pairwise Galois condition, the pairs taken in a seeded
    cyclic order like K, half of them on products of
    random subfield elements and a torsion power (answer yes, so the
    witness path runs), and four decompositions with one subfield on each
    side."""

    def __init__(self, seed: int, corpus):
        self.rng = random.Random(f"exact:{seed}")
        self.corpus = corpus
        self.cycles = {}
        self.seen = set()
        self.next_qid = 0

    def _plan(self):
        plan = []
        for name in sorted(self.corpus):
            plan += [(name, "torsion", i == 0) for i in range(TORSION_PER_SCENARIO)]
            for op in ("s", "t"):
                plan += [(name, "project", op)] * PROJECT_PER_SCENARIO_AND_OP
        for name in MEMBER_SCENARIOS:
            plan += [(name, "member", i % 2 == 0) for i in range(MEMBER_PER_SCENARIO)]
            plan += [(name, "decompose", None)] * DECOMPOSE_PER_SCENARIO
        return plan

    def _next(self, name, cmd, choices):
        """The next of the choices in a seeded cyclic order, so that every
        choice recurs equally often."""
        key = (name, cmd)
        if key not in self.cycles:
            order = list(choices)
            self.rng.shuffle(order)
            self.cycles[key] = itertools.cycle(order)
        return next(self.cycles[key])

    def block(self):
        rng = self.rng
        plan = self._plan()
        rng.shuffle(plan)
        out = []
        for name, cmd, variant in plan:
            sc = self.corpus[name]
            field = sc.field
            expect = None
            if cmd == "torsion" and variant:
                gen = field.torsion_generator ** rng.randrange(field.torsion_order)
                args = _args(element=element_expr(gen.coords))
                expect = "torsion"
            elif cmd == "torsion":
                coords = fresh_coords(rng, field.degree, self.seen, name)
                args = _args(element=element_expr(coords))
            elif cmd == "project":
                coords = fresh_coords(rng, field.degree, self.seen, name)
                args = _args(element=element_expr(coords), scale=random_scale(rng),
                             K=self._next(name, "project", sorted(sc.subfields)),
                             op=variant)
            else:
                pair = list(self._next(name, cmd, _pairs(sc, cmd == "member")))
                rng.shuffle(pair)
                if cmd == "member":
                    d_names, e_names = pair, None
                else:
                    d_names, e_names = pair[:1], pair[1:]
                if cmd == "member" and variant:
                    prod = field.one()
                    for n in d_names:
                        prod = prod * subfield_element(sc.subfields[n], rng,
                                                       self.seen, name)
                    prod = prod * field.torsion_generator ** rng.randrange(
                        field.torsion_order)
                    coords = prod.coords
                    expect = "member"
                else:
                    coords = fresh_coords(rng, field.degree, self.seen, name)
                args = _args(element=element_expr(coords), scale=random_scale(rng),
                             D=",".join(d_names),
                             E=",".join(e_names) if e_names else None)
            out.append(Query(self.next_qid, cmd, name, args, expect))
            self.next_qid += 1
        return out


def _squarefree(n: int) -> bool:
    n = abs(n)
    p = 2
    while p * p <= n:
        if n % (p * p) == 0:
            return False
        p += 1
    return True


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def _quadratic(rng):
    d = rng.choice([d for d in range(-60, 61) if d not in (0, 1) and _squarefree(d)])
    w = {-1: 4, -3: 6}.get(d, 2)
    return f"quadratic({d})", (-d, 0, 1), 2, w


def _simplest_cubic(rng):
    # Shanks: x^3 - a x^2 - (a+3) x - 1, cyclic and totally real
    a = rng.randint(0, 60)
    return f"simplest_cubic({a})", (-1, -(a + 3), -a, 1), 3, 2


def _real_biquadratic(rng):
    p, q = sorted(rng.sample(_PRIMES, 2))
    # minimal polynomial of sqrt(p) + sqrt(q)
    return (f"biquadratic({p},{q})",
            ((p - q) ** 2, 0, -2 * (p + q), 0, 1), 4, 2)


def _imaginary_biquadratic(rng):
    # Q(sqrt(-p), sqrt(q)) with p, q >= 5 contains neither i nor sqrt(-3),
    # so its only roots of unity are +-1
    p, q = rng.sample(_PRIMES[2:], 2)
    # minimal polynomial of sqrt(-p) + sqrt(q)
    return (f"biquadratic(-{p},{q})",
            ((p + q) ** 2, 0, 2 * (p - q), 0, 1), 4, 2)


FAMILIES = (_quadratic, _simplest_cubic, _real_biquadratic, _imaginary_biquadratic)


def ladder(corpus_documents):
    """The fixed ladder: the corpus polynomials, then the larger fields."""
    rungs = [(doc["name"], tuple(doc["field"])) for doc in corpus_documents]
    rungs += list(EXTRA_LADDER.items())
    return [(name, coeffs, len(coeffs) - 1, LADDER_TORSION[name])
            for name, coeffs in rungs]


class FieldBuildStream:
    """Cold make_field on the fixed ladder plus seed-drawn family members.

    A block is the whole ladder and FAMILY_MEMBERS_PER_BLOCK distinct
    members of each Galois family, shuffled."""

    def __init__(self, seed: int, corpus_documents):
        self.rng = random.Random(f"field-build:{seed}")
        self.rungs = ladder(corpus_documents)
        self.next_qid = 0

    def block(self):
        rng = self.rng
        items = list(self.rungs)
        for family in FAMILIES:
            drawn = set()
            while len(drawn) < FAMILY_MEMBERS_PER_BLOCK:
                member = family(rng)
                if member[0] not in drawn:
                    drawn.add(member[0])
                    items.append(member)
        rng.shuffle(items)
        out = []
        for label, coeffs, degree, w in items:
            out.append(Build(self.next_qid, label, coeffs, degree, w))
            self.next_qid += 1
        return out
