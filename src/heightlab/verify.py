"""Verification suites over the bundled corpus.

Each suite realizes one acceptance criterion; `run_all` is the whole
ledger.  Suites are deterministic: randomized sweeps derive their seeds
from the suite and scenario names.
"""

from __future__ import annotations

import dataclasses
import random
import time
import traceback
from fractions import Fraction
from pathlib import Path

import mpmath

from .corpus import bundled_corpus
from .heights import _FLOAT_SLACK, GElement, HeightValue, g_combine, g_equal, g_height
from .numberfield import FieldElement, Subfield, galois_condition, minimal_polynomial
from .orbits import degree_of_power, delta_K, orbit_mod_torsion, vk_bounds
from .placespace import (
    f_vector,
    integral,
    l1_norm,
    local_factorization,
    prime_support,
    vector_error_bound,
)
from .polynomials import Poly, content_and_primitive, resultant
from .projections import (
    ProjectionSpec,
    _maps_onto,
    check_commutes,
    check_conjugation,
    composite_project,
    is_member,
    s_project,
    t_project,
)
from .roots import certified_roots, locked_workprec

_MAX_REPORTED_FAILURES = 12

# sizes of the randomized sweeps, per subfield, pair or scenario
_ORBIT_ROUNDS = 15
_COMMUTES_PER_PAIR = 50
_MEMBERSHIP_PRODUCTS = 20
_DECOMPOSITION_COUNT = 50
_CONJUGATION_COUNT = 20


@dataclasses.dataclass
class SuiteResult:
    name: str
    criterion: int
    passed: bool
    checks: int
    failures: list
    notes: list
    seconds: float

    def summary(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        line = (f"{status} criterion {self.criterion:2d} [{self.name}] "
                f"{self.checks} checks in {self.seconds:.2f}s")
        if self.failures:
            line += f" ({len(self.failures)} failures)"
        return line


def _declared(scenarios, suite_name):
    for sc in scenarios:
        for check in sc.checks:
            if check["suite"] == suite_name:
                yield sc, check


def random_element(field, rng, span=3) -> FieldElement:
    while True:
        coords = [Fraction(rng.randint(-span, span), rng.choice((1, 1, 2)))
                  for _ in range(field.degree)]
        if any(coords):
            return field.element(coords)


def random_subfield_element(k: Subfield, rng) -> FieldElement:
    """Random nonzero element of K: a relative norm times a rational."""
    r = random_element(k.field, rng)
    q = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    return k.norm(r) * q


def _nonzero_named(sc):
    return [(name, el) for name, el in sc.elements.items() if not el.is_zero()]


# -- criterion 1 -----------------------------------------------------------


def _mahler_height(a: FieldElement) -> HeightValue:
    """Weil height of a nonzero element from the Mahler measure of its
    primitive integer minimal polynomial P: (log lead(P) + sum over the
    roots r of P of log+|r|) / deg P, with the roots certified afresh
    rather than taken from the field's embeddings."""
    field = a.field
    _, P = content_and_primitive(minimal_polynomial(a))
    roots = certified_roots(P, field.precision_bits)
    with locked_workprec(field.precision_bits):
        total = mpmath.log(P.num[-1])
        err = 0.0
        for r in roots:
            m = abs(r.value)
            if m > 1:
                total += mpmath.log(m)
            # log+ is 1-Lipschitz in |z|
            err += r.radius
        value = float(total) / P.degree
    return HeightValue(value, err / P.degree + _FLOAT_SLACK * (1.0 + abs(value)))


def suite_height_backend(scenarios, tolerance=1e-9, **_):
    """||f(a)||_1 = 2 h(a) against an independent height.

    weil_height and the archimedean part of f_vector both evaluate a at
    the field's embeddings, so each is compared with the Mahler-measure
    height h_M, computed from freshly certified roots of the minimal
    polynomial: one check per element requires both |l1 - 2 h_M| and
    |h - h_M| to lie within the tolerance plus the error bounds involved.
    """
    failures, checks = [], 0
    for sc, _params in _declared(scenarios, "height-backend"):
        for name, el in _nonzero_named(sc):
            u = GElement.of(el)
            h = g_height(u)
            h_m = _mahler_height(el)
            vec = f_vector(u)
            checks += 1
            bound = tolerance + 2 * h_m.abs_error + vector_error_bound(vec)
            gap = abs(l1_norm(vec) - 2 * h_m.value)
            if gap > bound:
                failures.append(f"{sc.name}.{name}: |l1 - 2h_M| = {gap:.3e} > {bound:.3e}")
            bound = tolerance + h.abs_error + h_m.abs_error
            gap = abs(h.value - h_m.value)
            if gap > bound:
                failures.append(f"{sc.name}.{name}: |h - h_M| = {gap:.3e} > {bound:.3e}")
    return checks, failures, []


# -- criterion 2 -----------------------------------------------------------


def suite_product_formula(scenarios, tolerance=1e-9, **_):
    failures, checks = [], 0
    for sc, _params in _declared(scenarios, "product-formula"):
        for name, el in _nonzero_named(sc):
            vec = f_vector(GElement.of(el))
            bound = tolerance + vector_error_bound(vec)
            gap = abs(integral(vec))
            checks += 1
            if gap > bound:
                failures.append(f"{sc.name}.{name}: |integral| = {gap:.3e} > {bound:.3e}")
    return checks, failures, []


# -- criterion 3 -----------------------------------------------------------


def suite_vk_sandwich(scenarios, tolerance=1e-9, **_):
    failures, checks = [], 0
    for sc, params in _declared(scenarios, "vk-sandwich"):
        anchor_el = params.get("anchor_element")
        for kname, k in sc.subfields.items():
            for name, el in _nonzero_named(sc):
                lo, hi = vk_bounds(el, k)
                checks += 1
                if lo.value > hi.value + lo.abs_error + hi.abs_error + tolerance:
                    failures.append(
                        f"{sc.name}.{name}/{kname}: lower {lo.value} > upper {hi.value}")
                if anchor_el == name and params.get("anchor_K") == kname:
                    expected = params["anchor_value"]
                    tol = params.get("anchor_tol", tolerance)
                    checks += 1
                    if abs(lo.value - expected) > tol or abs(hi.value - expected) > tol:
                        failures.append(
                            f"{sc.name}.{name}/{kname}: anchor bounds "
                            f"({lo.value}, {hi.value}) != {expected}")
    return checks, failures, []


# -- criterion 4 -----------------------------------------------------------


def suite_orbit_delta(scenarios, **_):
    failures, checks = [], 0
    for sc, _params in _declared(scenarios, "orbit-delta"):
        field = sc.field
        w = field.torsion_order
        gen = field.torsion_generator
        pool = [el for _n, el in _nonzero_named(sc)]
        for kname, k in sc.subfields.items():
            rng = random.Random(f"orbit-delta:{sc.name}:{kname}")
            for i in range(_ORBIT_ROUNDS):
                a = pool[i % len(pool)] if i % 2 == 0 else random_element(field, rng)
                ell = rng.choice([e for e in range(-6, 7) if e])
                zeta = gen ** rng.randrange(w)
                d0 = delta_K(a, k)
                checks += 1
                if not (delta_K(a ** ell, k) == d0 == delta_K(a * zeta, k)):
                    failures.append(f"{sc.name}/{kname}: delta invariance broke on {a!r}")
                    continue
                report = orbit_mod_torsion(a, k)
                if report.delta != degree_of_power(a, w, k):
                    failures.append(f"{sc.name}/{kname}: orbit count != degree oracle on {a!r}")
                if report.delta > report.conjugate_count:
                    failures.append(f"{sc.name}/{kname}: delta exceeds conjugate count on {a!r}")
    return checks, failures, []


# -- criterion 5 -----------------------------------------------------------


def suite_projection_laws(scenarios, tolerance=1e-9, **_):
    failures, checks = [], 0
    for sc, _params in _declared(scenarios, "projection-laws"):
        for kname, k in sc.subfields.items():
            for name, el in _nonzero_named(sc):
                u = GElement.of(el)
                su = s_project(u, k)
                tu = t_project(u, k)
                checks += 1
                label = f"{sc.name}.{name}/{kname}"
                if not g_equal(s_project(su, k), su):
                    failures.append(f"{label}: idempotence failed")
                if not g_equal(g_combine([su, tu]), u):
                    failures.append(f"{label}: complement sum failed")
                if not s_project(tu, k).is_zero():
                    failures.append(f"{label}: kernel annihilation failed")
                if not u.is_zero():
                    image_norm = l1_norm(f_vector(su))
                    input_norm = l1_norm(f_vector(u))
                    if image_norm > input_norm + tolerance:
                        failures.append(
                            f"{label}: contraction failed "
                            f"({image_norm} > {input_norm})")
    return checks, failures, []


# -- criterion 6 -----------------------------------------------------------


def suite_commutativity(scenarios, **_):
    failures, notes, checks = [], [], 0
    for sc, _params in _declared(scenarios, "commutativity"):
        names = list(sc.subfields)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                k1, k2 = sc.subfields[names[i]], sc.subfields[names[j]]
                rng = random.Random(f"commutes:{sc.name}:{names[i]}:{names[j]}")
                testset = [GElement.of(random_element(sc.field, rng))
                           for _ in range(_COMMUTES_PER_PAIR)]
                ok = check_commutes(k1, k2, testset)
                if not galois_condition(k1, k2):
                    notes.append(
                        f"{sc.name}: pair ({names[i]},{names[j]}) violates the "
                        f"Galois condition; observed commuting = {ok}")
                    continue
                checks += 1
                if not ok:
                    failures.append(f"{sc.name}: S_{names[i]} and S_{names[j]} "
                                    "do not commute")
                spec = ProjectionSpec.build([k1, k2])
                for u in testset:
                    checks += 1
                    s1, s2 = s_project(u, k1), s_project(u, k2)
                    termwise = g_combine([s1, s2, s_project(s2, k1).negate()])
                    if not g_equal(composite_project(u, spec), termwise):
                        failures.append(
                            f"{sc.name}: two-field expansion mismatch on "
                            f"({names[i]},{names[j]})")
                        break
    return checks, failures, notes


# -- criterion 7 -----------------------------------------------------------


def _verify_witness(u: GElement, spec: ProjectionSpec, witness) -> bool:
    exponent = witness.exponent * u.scale
    if exponent.denominator != 1:
        return False
    product = u.field.one()
    for factor, k in zip(witness.factors, spec.fields_D):
        if not k.contains(factor):
            return False
        product = product * factor
    return u.base ** int(exponent) == product


def suite_membership(scenarios, **_):
    failures, checks = [], 0
    for sc, params in _declared(scenarios, "membership"):
        fields = [sc.subfield_by_name(n) for n in params["D"]]
        spec = ProjectionSpec.build(fields)

        member = GElement.of(sc.elements[params["member"]])
        res = is_member(member, spec)
        checks += 1
        if not (res.is_member and res.witness
                and _verify_witness(member, spec, res.witness)):
            failures.append(f"{sc.name}: anchor member {params['member']} failed")

        non_member = GElement.of(sc.elements[params["non_member"]])
        checks += 1
        if is_member(non_member, spec).is_member:
            failures.append(f"{sc.name}: anchor non-member {params['non_member']} "
                            "was accepted")

        rng = random.Random(f"membership:{sc.name}")
        gen = sc.field.torsion_generator
        w = sc.field.torsion_order
        for _i in range(_MEMBERSHIP_PRODUCTS):
            prod = sc.field.one()
            for k in fields:
                prod = prod * random_subfield_element(k, rng)
            prod = prod * gen ** rng.randrange(w)
            u = GElement.of(prod)
            res = is_member(u, spec)
            checks += 1
            if u.is_zero():
                continue
            if not res.is_member:
                failures.append(f"{sc.name}: random product rejected")
            elif not (res.witness and _verify_witness(u, spec, res.witness)):
                failures.append(f"{sc.name}: random product witness failed")
    return checks, failures, []


# -- criterion 8 -----------------------------------------------------------


def suite_mixed_decomposition(scenarios, **_):
    failures, checks = [], 0
    for sc, params in _declared(scenarios, "mixed-decomposition"):
        spec = ProjectionSpec.build(
            [sc.subfield_by_name(n) for n in params["D"]],
            [sc.subfield_by_name(n) for n in params.get("E", [])])
        rng = random.Random(f"mixed:{sc.name}")
        for _i in range(_DECOMPOSITION_COUNT):
            u = GElement.of(random_element(sc.field, rng))
            res = is_member(u, spec)
            checks += 1
            if not g_equal(g_combine([res.d_part, res.e_part]), u):
                failures.append(f"{sc.name}: parts do not recombine")
            if not g_equal(composite_project(res.d_part, spec), res.d_part):
                failures.append(f"{sc.name}: d_part is not fixed by the composite")
            if not composite_project(res.e_part, spec).is_zero():
                failures.append(f"{sc.name}: e_part is not annihilated")
    return checks, failures, []


# -- criterion 9 -----------------------------------------------------------


def suite_conjugation(scenarios, **_):
    failures, checks = [], 0
    for sc, params in _declared(scenarios, "conjugation"):
        k = sc.subfield_by_name(params["K"])
        l = sc.subfield_by_name(params["L"])
        sigma = next((s for s in sc.field.automorphisms if _maps_onto(s, k, l)), None)
        if sigma is None:
            failures.append(f"{sc.name}: no automorphism maps {params['K']} "
                            f"onto {params['L']}")
            continue
        rng = random.Random(f"conjugation:{sc.name}")
        testset = [GElement.of(random_element(sc.field, rng))
                   for _ in range(_CONJUGATION_COUNT)]
        checks += _CONJUGATION_COUNT
        if not check_conjugation(k, l, sigma, testset):
            failures.append(f"{sc.name}: conjugation identity failed")
    return checks, failures, []


# -- criterion 10 ----------------------------------------------------------


def suite_valuations(scenarios, **_):
    """sum f v = v_p(N(a)) at every prime dividing the denominator of a or
    the numerator of N(a).

    The library's norm is the conjugate product that local_factorization
    already checks itself against, so N(a) is taken here from the
    resultant Res(m_F, A) of the coordinate polynomial A instead.
    """
    failures, checks = [], 0
    for sc, _params in _declared(scenarios, "valuations"):
        field = sc.field
        for name, el in _nonzero_named(sc):
            norm = resultant(field.defining_poly, Poly.from_ints(el.num, el.den))
            for p in sorted(prime_support(el.den, norm.numerator)):
                lf = local_factorization(field, el, p)
                total = sum(f.f * f.valuation for f in lf.factors)
                vnorm = 0
                num, dden = norm.numerator, norm.denominator
                while num % p == 0:
                    num //= p
                    vnorm += 1
                while dden % p == 0:
                    dden //= p
                    vnorm -= 1
                checks += 1
                if total != vnorm:
                    failures.append(
                        f"{sc.name}.{name}@{p}: sum f*v = {total} != v_p(Norm) = {vnorm}")
    return checks, failures, []


SUITES = {
    "height-backend": (1, suite_height_backend),
    "product-formula": (2, suite_product_formula),
    "vk-sandwich": (3, suite_vk_sandwich),
    "orbit-delta": (4, suite_orbit_delta),
    "projection-laws": (5, suite_projection_laws),
    "commutativity": (6, suite_commutativity),
    "membership": (7, suite_membership),
    "mixed-decomposition": (8, suite_mixed_decomposition),
    "conjugation": (9, suite_conjugation),
    "valuations": (10, suite_valuations),
}


def run_suite(name: str, scenarios=None, **options) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown verification suite {name!r}")
    criterion, fn = SUITES[name]
    if scenarios is None:
        scenarios = bundled_corpus()
    start = time.perf_counter()
    try:
        checks, failures, notes = fn(scenarios, **options)
    except Exception as exc:
        # a suite that raises fails on its own; the others still run
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        failure = (f"suite raised {type(exc).__name__}: {exc} (in {frame.name}, "
                   f"{Path(frame.filename).name}:{frame.lineno})")
        checks, failures, notes = 0, [failure], []
    elapsed = time.perf_counter() - start
    return SuiteResult(name=name, criterion=criterion,
                       passed=not failures, checks=checks,
                       failures=failures[:_MAX_REPORTED_FAILURES],
                       notes=notes, seconds=elapsed)


def run_all(scenarios=None, **options):
    return [run_suite(name, scenarios, **options) for name in SUITES]
