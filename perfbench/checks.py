"""Result checks, run after the timed interval.

Any seed: every result must satisfy the identities the paper and the
library promise, recomputed by a second route where one exists:

  * height     h = 0 exactly iff the element is torsion; ||f(a)||_1 = 2h(a)
  * fvector    ||f||_1 = 2h and the product formula sum_y w_y f_y = 0;
               archimedean weights sum to 1
  * width      W_K(a) = max over sigma of ||sigma.f(a) - f(a)||_1 / 2 (the
               Galois action permutes place vectors); W = 0 iff delta = 1
  * orbit, delta, vk-bounds
               delta = [K(a^w):K] (distinct conjugates of a^w); the
               representatives are pairwise torsion-inequivalent; the norm
               element is the conjugate product and lies in K; lower <= upper
               for V_K; membership in K^div has an exact witness
  * torsion    the answer equals membership in the set of powers of the
               torsion generator
  * project    the S_K image lies in K (so S_K fixes it); T_K lands in
               ker S_K and S_K(u) + T_K(u) = u
  * member, decompose
               d_part + e_part = u; is_member iff d_part = u; witnesses are
               re-verified by exact exponentiation
  * field-build  degree, automorphism group, torsion order and generator,
               real embeddings against a Sturm count
  * answers known by construction (torsion powers, subfield products) hold

Default seed: in addition, each result's exact fields must match the
recorded reference, and each real must lie within its own error bound plus
TOLERANCE of the reference value.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from heightlab.expressions import parse_element
from heightlab.heights import GElement, g_combine, g_equal, is_torsion
from heightlab.numberfield import eval_poly
from heightlab.orbits import degree_of_power
from heightlab.placespace import f_vector, permute_by_automorphism, vector_error_bound
from heightlab.polynomials import real_root_count
from heightlab.projections import ProjectionSpec, composite_project, s_project

TOLERANCE = 1e-9

# report keys holding reals whose error is the vector's total error bound
_VECTOR_REALS = ("l1_norm", "two_heights", "integral")


# -- reference comparison -------------------------------------------------


def split_report(report):
    """(exact part, reals) of a JSON report.  A real is (value, abs_error),
    with abs_error None where the report gives no per-value bound."""
    reals = []

    def walk(x):
        if isinstance(x, dict):
            has_real = "value" in x and "abs_error" in x
            if has_real:
                reals.append((float(x["value"]), float(x["abs_error"])))
            out = {}
            for key in sorted(x):
                if has_real and key in ("value", "abs_error"):
                    continue
                if key in _VECTOR_REALS:
                    reals.append((float(x[key]), None))
                elif key != "interval":  # restates lower and upper
                    out[key] = walk(x[key])
            return out
        if isinstance(x, list):
            return [walk(v) for v in x]
        return x

    exact = walk(report)
    return exact, reals


def digest(exact) -> str:
    text = json.dumps(exact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def reference_record(report) -> dict:
    exact, reals = split_report(report)
    return {"exact": digest(exact), "reals": [[v, e] for v, e in reals]}


def _vector_bound(report) -> float:
    return sum(float(Fraction(ent["weight"])) * float(ent["abs_error"])
               for part in ("arch", "finite") for ent in report.get(part, ()))


def compare_reference(report, ref) -> list:
    exact, reals = split_report(report)
    if digest(exact) != ref["exact"]:
        return ["exact fields differ from the reference"]
    if len(reals) != len(ref["reals"]):
        return ["number of reals differs from the reference"]
    vector_bound = _vector_bound(report)
    out = []
    for (value, err), (ref_value, _) in zip(reals, ref["reals"]):
        own = vector_bound if err is None else err
        if abs(value - ref_value) > own + TOLERANCE:
            out.append(f"real {value!r} is off the reference {ref_value!r}")
    return out


# -- query identities -----------------------------------------------------


def _element(field, coords):
    return field.element([Fraction(c) for c in coords])


def _gelement(field, doc):
    return GElement(field, Fraction(doc["scale"]), _element(field, doc["base"]))


def _real(doc):
    return float(doc["value"]), float(doc["abs_error"])


def _is_exact_zero(doc) -> bool:
    return float(doc["value"]) == 0.0 and float(doc["abs_error"]) == 0.0


def _torsion_set(field):
    gen = field.torsion_generator
    return {(gen ** k).coords for k in range(field.torsion_order)}


def _verify_witness(u, fields, witness) -> bool:
    exponent = witness["exponent"] * u.scale
    if exponent.denominator != 1 or len(witness["factors"]) != len(fields):
        return False
    product = u.field.one()
    for coords, k in zip(witness["factors"], fields):
        factor = _element(u.field, coords)
        if not k.contains(factor):
            return False
        product = product * factor
    return u.base ** int(exponent) == product


def _place_width(el, k):
    """max over sigma in Gal(F/K) of ||sigma.f(a) - f(a)||_1 / 2."""
    vec = f_vector(GElement.of(el))
    best = 0.0
    for sigma in k.fixing_group:
        moved = permute_by_automorphism(vec, sigma).entries
        total = 0.0
        for pid in set(vec.entries) | set(moved):
            a, b = vec.entries.get(pid), moved.get(pid)
            weight = (a or b).weight
            total += float(weight) * abs((b.value if b else 0.0)
                                         - (a.value if a else 0.0))
        best = max(best, total / 2)
    return best, vector_error_bound(vec)


def _check_height(el, report, fails):
    h, err = _real(report)
    if is_torsion(el) != _is_exact_zero(report):
        fails.append("exact zero height does not match the torsion test")
    vec = f_vector(GElement.of(el))
    bound = TOLERANCE + 2 * err + vector_error_bound(vec)
    l1 = sum(float(e.weight) * abs(e.value) for e in vec.entries.values())
    if abs(l1 - 2 * h) > bound:
        fails.append(f"||f||_1 = {l1!r} but 2h = {2 * h!r}")


def _check_fvector(report, fails):
    entries = list(report["arch"]) + list(report["finite"])
    bound = TOLERANCE + _vector_bound(report)
    l1 = sum(float(Fraction(e["weight"])) * abs(float(e["value"])) for e in entries)
    total = sum(float(Fraction(e["weight"])) * float(e["value"]) for e in entries)
    if abs(l1 - float(report["l1_norm"])) > bound:
        fails.append("reported l1 norm does not match its entries")
    if abs(l1 - float(report["two_heights"])) > bound:
        fails.append(f"||f||_1 = {l1!r} but 2h = {report['two_heights']}")
    if abs(total) > bound:
        fails.append(f"product formula fails: integral = {total!r}")
    if report["arch"] and sum(Fraction(e["weight"]) for e in report["arch"]) != 1:
        fails.append("archimedean weights do not sum to 1")


def _check_orbit(el, k, report, delta, fails):
    field = el.field
    reps = [_element(field, r) for r in report["representatives"]]
    if report["delta"] != len(reps) or report["delta"] != delta:
        fails.append(f"orbit count {report['delta']} != [K(a^w):K] = {delta}")
    for i in range(len(reps)):
        for j in range(i + 1, len(reps)):
            if is_torsion(reps[i] / reps[j]):
                fails.append("two orbit representatives are torsion-equivalent")
    conjugates = {s(el).coords: s(el) for s in k.fixing_group}
    count = report["conjugate_count"]
    if count != len(conjugates) or len(k.fixing_indices) % count or delta > count:
        fails.append("conjugate count is inconsistent")
    norm = field.one()
    for c in conjugates.values():
        norm = norm * c
    if _element(field, report["norm_element"]) != norm or not k.contains(norm):
        fails.append("norm element is not the conjugate product in K")
    if _is_exact_zero(report["width"]) != (delta == 1):
        fails.append("width is zero but delta > 1, or the reverse")


def _check_vk(el, k, report, delta, fails):
    lo, lo_err = _real(report["lower"])
    hi, hi_err = _real(report["upper"])
    if lo < 0 or lo > hi + lo_err + hi_err + TOLERANCE:
        fails.append(f"V_K bounds out of order: [{lo!r}, {hi!r}]")
    if report["in_kdiv"] != (delta == 1):
        fails.append("in_kdiv disagrees with [K(a^w):K] = 1")
    if report["in_kdiv"]:
        wit = report["kdiv_witness"]
        power = _element(el.field, wit["power"])
        if power != el ** wit["exponent"] or not k.contains(power):
            fails.append("K^div witness does not verify")
        if not (_is_exact_zero(report["lower"]) and _is_exact_zero(report["upper"])):
            fails.append("bounds are not exactly zero on K^div")


def check_query(query, report, corpus) -> list:
    """Failure messages for one query report (empty when it checks out)."""
    sc = corpus[query.scenario]
    field = sc.field
    args = query.arg_dict()
    el = parse_element(args["element"], field)
    cmd = query.command
    fails = []
    k = sc.subfield_by_name(args["K"]) if "K" in args else None

    if cmd == "height":
        _check_height(el, report, fails)
    elif cmd == "fvector":
        _check_fvector(report, fails)
    elif cmd in ("orbit", "delta", "width", "vk-bounds"):
        delta = degree_of_power(el, field.torsion_order, k)
        if cmd == "orbit":
            _check_orbit(el, k, report, delta, fails)
        elif cmd == "delta":
            if report["delta"] != delta:
                fails.append(f"delta {report['delta']} != [K(a^w):K] = {delta}")
        elif cmd == "vk-bounds":
            _check_vk(el, k, report, delta, fails)
        else:
            w, err = _real(report)
            if _is_exact_zero(report) != (delta == 1):
                fails.append("width is zero but delta > 1, or the reverse")
            other, bound = _place_width(el, k)
            if abs(w - other) > TOLERANCE + err + 2 * bound:
                fails.append(f"W_K = {w!r} but the place-vector width is {other!r}")
    elif cmd == "torsion":
        expected = el.coords in _torsion_set(field)
        if report["is_torsion"] != expected or (query.expect and not expected):
            fails.append(f"is_torsion = {report['is_torsion']}, expected {expected}")
    else:
        u = GElement(field, Fraction(args["scale"]), el)
        if cmd == "project":
            _check_project(u, k, args["op"], report, fails)
        else:
            _check_member(sc, u, args, query, report, fails)
    return fails


def _check_project(u, k, op, report, fails):
    field = u.field
    image = _gelement(field, report["image"])
    if report["input"] != {"scale": str(u.scale), "base": [str(c) for c in u.base.coords]}:
        fails.append("reported input differs from the query")
    if report["is_zero"] != image.is_zero():
        fails.append("is_zero does not match the image")
    if op == "s":
        # a base in K is fixed by Gal(F/K), so S_K maps the image to itself
        if not k.contains(image.base):
            fails.append("S_K image does not lie in K")
    else:
        if not s_project(image, k).is_zero():
            fails.append("T_K image is not in the kernel of S_K")
        if not g_equal(g_combine([image, s_project(u, k)]), u):
            fails.append("S_K(u) + T_K(u) != u")


def _check_member(sc, u, args, query, report, fails):
    field = u.field
    d_names = [n for n in args["D"].split(",") if n]
    e_names = [n for n in args.get("E", "").split(",") if n]
    d_part = _gelement(field, report["d_part"])
    e_part = _gelement(field, report["e_part"])
    if not g_equal(g_combine([d_part, e_part]), u):
        fails.append("d_part + e_part != u")
    # given d_part + e_part = u, d_part = u exactly when e_part = 0
    if report["is_member"] != e_part.is_zero():
        fails.append("is_member disagrees with e_part == 0")
    d_fields = [sc.subfield_by_name(n) for n in d_names]
    witness = report["witness"]
    if witness is not None and not _verify_witness(u, d_fields, witness):
        fails.append("membership witness does not verify")
    if report["is_member"] and not e_names and witness is None:
        fails.append("member without a witness")
    if query.expect == "member" and not report["is_member"]:
        fails.append("product of subfield elements was rejected")
    if e_names and report["condition_ok"]:
        spec = ProjectionSpec.build(d_fields, [sc.subfield_by_name(n) for n in e_names])
        if not g_equal(composite_project(d_part, spec), d_part):
            fails.append("composite projection is not idempotent")


# -- field construction ---------------------------------------------------


def build_record(field) -> dict:
    """Exact structure and certified embeddings of a constructed field,
    shaped like a query report for the reference comparison."""
    return {
        "degree": field.degree,
        "torsion_order": field.torsion_order,
        "torsion_generator": [str(c) for c in field.torsion_generator.coords],
        "automorphisms": sorted([str(c) for c in s.theta_image.coords]
                                for s in field.automorphisms),
        "embeddings": [
            {"re": {"value": repr(float(r.value.real)), "abs_error": repr(r.radius)},
             "im": {"value": repr(float(r.value.imag)), "abs_error": repr(r.radius)}}
            for r in field.embeddings],
    }


def check_build(build, field) -> list:
    fails = []
    d = build.degree
    if field.degree != d:
        fails.append(f"degree {field.degree} != {d}")
    autos = field.automorphisms
    if len(autos) != d:
        fails.append(f"{len(autos)} automorphisms for degree {d}")
    for s in autos:
        if not eval_poly(field.defining_poly, s.theta_image).is_zero():
            fails.append("an automorphism image is not a root of the defining polynomial")
    index = {s.theta_image.coords: s.index for s in autos}
    for s in autos:
        for t in autos:
            if index.get(s(t.theta_image).coords) != field._comp_table[s.index][t.index]:
                fails.append("composition table is wrong")
    w = build.torsion_order
    gen = field.torsion_generator
    if field.torsion_order != w or gen ** w != field.one():
        fails.append(f"torsion order {field.torsion_order} != {w}")
    for p in range(2, w + 1):
        if w % p == 0 and all(p % q for q in range(2, p)) and gen ** (w // p) == field.one():
            fails.append("torsion generator has a smaller order")
    if len(field.embeddings) != d or \
            sum(r.is_real for r in field.embeddings) != real_root_count(field.defining_poly):
        fails.append("embeddings disagree with the Sturm count")
    return fails
