"""Command-line interface.

    heightlab <command> [--scenario FILE-or-bundled-name] [options]

Commands: height, torsion, orbit, delta, width, vk-bounds, places,
fvector, project, member, decompose, commutes, verify.

Reports are deterministic JSON on stdout.  Exit codes: 0 success, 1
mathematical refusal (e.g. a reducible or non-Galois defining polynomial,
an index divisor, a failed verification suite), 2 usage or parse error.
Exact rationals appear as "num/den" strings; reals as decimal strings with
explicit absolute error bounds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

from . import verify as verify_mod
from .corpus import bundled_corpus, bundled_scenario, scenario_documents
from .errors import (
    ConditionViolated,
    FieldTooLarge,
    HeightlabError,
    InputError,
    MathRefusal,
    SchemaError,
    WitnessFailure,
    ZeroElement,
)
from .expressions import check_power_budget, format_rational, parse_element
from .heights import GElement, is_torsion, weil_height
from .numberfield import galois_condition
from .orbits import _bounds_and_membership, delta_K, orbit_mod_torsion, width_K
from .placespace import _vector_and_height, integral, l1_norm, places
from .projections import (
    ProjectionSpec,
    check_commutes,
    is_member,
    s_project,
    t_project,
)
from .roots import DEFAULT_PRECISION_BITS
from .scenario import Scenario, parse_scenario

COMMANDS = ("height", "torsion", "orbit", "delta", "width", "vk-bounds",
            "places", "fvector", "project", "member", "decompose",
            "commutes", "verify")

# the largest --precision (and HEIGHTLAB_PRECISION) accepted: places on the
# degree-6 bundled scenario cbrt2_split takes about 6 s at this cap on a
# 2-core x86-64 host, and about ten times as long at 2^16 bits
MAX_PRECISION_BITS = 1 << 14

# the largest --count accepted: commutes builds the whole test set before
# it checks a pair, and 1000 elements take about 3 s over the six subfield
# pairs of the bundled degree-6 scenario cbrt2_split on a 2-core x86-64 host
MAX_COUNT = 1000
DEFAULT_COUNT = 50

# the most subfield names accepted in --D and --E together, and in
# --field-list.  member's witness expands 2^N nested norms whose bases grow
# by |H| at each level: on the bundled scenarios 8 names take at most
# 0.07 s, and each further name multiplies that by 3 to 30 (12 names take
# about 90 s on cbrt2_split).  commutes checks N(N - 1)/2 pairs: 8 names
# take 0.5 s at the default count and 7.7 s at MAX_COUNT on cbrt2_split, on
# a 2-core x86-64 host
MAX_SUBFIELD_NAMES = 8


def _real(v: float) -> str:
    return f"{v:.15e}"


def _hv(h) -> dict:
    return {"value": _real(h.value), "abs_error": f"{h.abs_error:.3e}"}


def _coords(el) -> list:
    return [format_rational(n, el.den) for n in el.num]


def _gel(u: GElement) -> dict:
    return {"scale": format_rational(1, u.den), "base": _coords(u.base)}


def _precision(text: str) -> int:
    """Embedding precision in bits, from 1 to MAX_PRECISION_BITS."""
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if not 1 <= bits <= MAX_PRECISION_BITS:
        raise argparse.ArgumentTypeError(
            f"precision must be an integer from 1 to {MAX_PRECISION_BITS} "
            f"bits, not {text!r}")
    return bits


def _count(value) -> int:
    """A number of elements from 1 to MAX_COUNT, from the command line's
    text or run_command's int."""
    n = 0
    if isinstance(value, str):
        try:
            n = int(value)
        except ValueError:
            pass
    elif isinstance(value, int) and not isinstance(value, bool):
        n = value
    if not 1 <= n <= MAX_COUNT:
        raise argparse.ArgumentTypeError(
            f"count must be an integer from 1 to {MAX_COUNT}, not {value!r}")
    return n


def _tolerance(text: str) -> float:
    """A finite tolerance >= 0: NaN or infinity would pass every numeric
    check, and a negative one would fail exact agreement."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number >= 0, not {text!r}")
    return tol


def _default_precision() -> int:
    env = os.environ.get("HEIGHTLAB_PRECISION")
    if env:
        try:
            return _precision(env)
        except argparse.ArgumentTypeError as exc:
            raise SchemaError(f"bad HEIGHTLAB_PRECISION value: {exc}") from exc
    return DEFAULT_PRECISION_BITS


def load_scenario(ref: str, precision_bits: int | None = None) -> Scenario:
    """Load a scenario from a JSON file path or a bundled scenario name.

    Only a regular file is read, so a directory falls through to the
    bundled names; a file that cannot be read or is not UTF-8 is a
    SchemaError."""
    path = Path(ref)
    if path.is_file():
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise SchemaError(f"cannot read scenario file {ref!r}: {exc}") from exc
        return parse_scenario(text, precision_bits)
    try:
        if precision_bits in (None, DEFAULT_PRECISION_BITS):
            return bundled_scenario(ref)
        doc = next(d for d in scenario_documents() if d.get("name") == ref)
        return parse_scenario(doc, precision_bits)
    except (KeyError, StopIteration):
        raise SchemaError(f"no scenario file or bundled scenario named {ref!r}")


def _resolve_element(scenario: Scenario, ref: str):
    if ref in scenario.elements:
        return scenario.elements[ref]
    return parse_element(ref, scenario.field)


def _split_names(arg: str):
    return [n.strip() for n in arg.split(",") if n.strip()]


def _check_name_count(names, flags: str) -> None:
    if len(names) > MAX_SUBFIELD_NAMES:
        raise SchemaError(f"{flags} may name at most {MAX_SUBFIELD_NAMES} subfields, "
                          f"not {len(names)}")


def run_command(cmd: str, scenario: Scenario | None, args: dict) -> dict:
    """Dispatch a single command to the library and shape its JSON report."""
    report = {"command": cmd}
    if scenario is not None:
        report["scenario"] = scenario.name

    if cmd == "verify":
        names = list(verify_mod.SUITES) if args.get("suite") in (None, "all") \
            else [args["suite"]]
        scenarios = (bundled_corpus() if scenario is None else [scenario])
        options = {}
        if args.get("tolerance") is not None:
            options["tolerance"] = args["tolerance"]
        results = [verify_mod.run_suite(n, scenarios, **options) for n in names]
        report["suites"] = [
            {"name": r.name, "criterion": r.criterion, "passed": r.passed,
             "checks": r.checks, "failures": r.failures, "notes": r.notes}
            for r in results
        ]
        report["passed"] = all(r.passed for r in results)
        report["table"] = [
            f"{'PASS' if r.passed else 'FAIL'} criterion {r.criterion:2d} "
            f"[{r.name}] {r.checks} checks"
            for r in results
        ]
        return report

    if scenario is None:
        raise SchemaError(f"command {cmd!r} requires --scenario")

    if cmd == "places":
        table = []
        for pid, weight in places(scenario.field):
            # weight is 1/d for a real embedding, 2/d for a conjugate pair
            kind = "real" if weight == Fraction(1, scenario.field.degree) else "complex"
            table.append({"id": pid.index, "kind": kind, "weight": format_rational(weight)})
        report["degree"] = scenario.field.degree
        report["torsion_order"] = scenario.field.torsion_order
        report["archimedean"] = table
        report["finite"] = "enumerated per element (see fvector)"
        return report

    if cmd == "commutes":
        names = _split_names(args.get("field_list") or "")
        if len(names) < 2:
            raise SchemaError("commutes requires --field-list with at least two names")
        _check_name_count(names, "--field-list")
        count = args.get("count")
        try:
            count = DEFAULT_COUNT if count is None else _count(count)
        except argparse.ArgumentTypeError as exc:
            raise SchemaError(str(exc)) from exc
        rng = random.Random(f"cli-commutes:{scenario.name}")
        testset = [GElement.of(verify_mod.random_element(scenario.field, rng))
                   for _ in range(count)]
        pairs = []
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                k1 = scenario.subfield_by_name(names[i])
                k2 = scenario.subfield_by_name(names[j])
                pairs.append({
                    "pair": [names[i], names[j]],
                    "galois_condition": galois_condition(k1, k2),
                    "commutes": check_commutes(k1, k2, testset),
                })
        report["elements_tested"] = count
        report["pairs"] = pairs
        return report

    element_ref = args.get("element")
    if not element_ref:
        raise SchemaError(f"command {cmd!r} requires --element")
    el = _resolve_element(scenario, element_ref)
    report["element"] = element_ref

    if cmd == "height":
        report.update(_hv(weil_height(el)))
        return report

    if cmd == "torsion":
        report["is_torsion"] = is_torsion(el)
        return report

    if cmd in ("orbit", "delta", "width", "vk-bounds"):
        kname = args.get("K")
        if not kname:
            raise SchemaError(f"command {cmd!r} requires --K")
        k = scenario.subfield_by_name(kname)
        report["K"] = kname
        if cmd == "delta":
            report["delta"] = delta_K(el, k)
            return report
        if cmd == "width":
            report.update(_hv(width_K(el, k)))
            return report
        if cmd == "vk-bounds":
            lo, hi, member = _bounds_and_membership(el, k)
            report["lower"] = _hv(lo)
            report["upper"] = _hv(hi)
            report["interval"] = f"V_K ∈ [{_real(lo.value)}, {_real(hi.value)}]"
            report["in_kdiv"] = bool(member)
            if member:
                report["kdiv_witness"] = {
                    "exponent": member.exponent,
                    "power": _coords(member.power),
                }
            return report
        rep = orbit_mod_torsion(el, k)
        report["delta"] = rep.delta
        report["conjugate_count"] = rep.conjugate_count
        report["width"] = _hv(rep.width)
        report["representatives"] = [_coords(r) for r in rep.representatives]
        report["norm_element"] = _coords(rep.norm_element)
        return report

    scale_ref = args.get("scale")
    try:
        scale = Fraction(scale_ref or 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad --scale value {scale_ref!r}") from exc
    # GElement raises the element to the scale's numerator; without a
    # scale, only the element itself can be over the budget
    check_power_budget(el, scale.numerator,
                       f"--scale {scale_ref!r}" if scale_ref else f"--element {element_ref!r}")
    u = GElement(scenario.field, scale, el)

    if cmd == "fvector":
        vec, height = _vector_and_height(u)
        report.update(vec.as_dict())
        report["l1_norm"] = _real(l1_norm(vec))
        report["two_heights"] = _real(2 * height.value)
        report["integral"] = _real(integral(vec))
        return report

    if cmd == "project":
        kname = args.get("K")
        if not kname:
            raise SchemaError("project requires --K")
        k = scenario.subfield_by_name(kname)
        op = args.get("op") or "s"
        if op not in ("s", "t"):
            raise SchemaError("--op must be 's' or 't'")
        image = s_project(u, k) if op == "s" else t_project(u, k)
        report["K"] = kname
        report["op"] = op
        report["input"] = _gel(u)
        report["image"] = _gel(image)
        report["is_zero"] = image.is_zero()
        return report

    if cmd in ("member", "decompose"):
        d_names = _split_names(args.get("D") or "")
        e_names = _split_names(args.get("E") or "")
        if not d_names and not e_names:
            raise SchemaError(f"{cmd} requires --D (and optionally --E)")
        _check_name_count(d_names + e_names, "--D and --E together")
        spec = ProjectionSpec.build(
            [scenario.subfield_by_name(n) for n in d_names],
            [scenario.subfield_by_name(n) for n in e_names])
        if not spec.condition_ok and args.get("strict_condition"):
            raise ConditionViolated(
                "subfield collection violates the pairwise Galois condition")
        res = is_member(u, spec)
        report["D"] = d_names
        report["E"] = e_names
        report["condition_ok"] = res.condition_ok
        report["is_member"] = res.is_member
        report["d_part"] = _gel(res.d_part)
        report["e_part"] = _gel(res.e_part)
        if res.witness is not None:
            report["witness"] = {
                "exponent": res.witness.exponent,
                "factors": [_coords(f) for f in res.witness.factors],
            }
        else:
            report["witness"] = None
        return report

    raise SchemaError(f"unknown command {cmd!r}")  # pragma: no cover


_ELEMENT_COMMANDS = ("height", "torsion", "orbit", "delta", "width",
                     "vk-bounds", "fvector", "project", "member", "decompose")
_SUBFIELD_COMMANDS = ("orbit", "delta", "width", "vk-bounds", "project")
_SPEC_COMMANDS = ("member", "decompose")

# every option with the commands that read it; any other command refuses it
_OPTIONS = (
    ("--scenario", COMMANDS, {"help": "scenario JSON file or bundled name"}),
    ("--element", _ELEMENT_COMMANDS,
     {"help": "element name from the scenario, or an expression"}),
    ("--scale", ("fvector", "project") + _SPEC_COMMANDS,
     {"help": "rational scale for the group element (default 1)"}),
    ("--K", _SUBFIELD_COMMANDS, {"help": "subfield name"}),
    ("--D", _SPEC_COMMANDS, {"help": "comma-separated image-side subfield names"}),
    ("--E", _SPEC_COMMANDS, {"help": "comma-separated kernel-side subfield names"}),
    ("--strict-condition", _SPEC_COMMANDS,
     {"dest": "strict_condition", "action": "store_true",
      "help": "refuse condition-violating projection specs"}),
    ("--op", ("project",), {"help": "projection kind: s or t"}),
    ("--field-list", ("commutes",),
     {"dest": "field_list", "help": "comma-separated subfield names"}),
    ("--count", ("commutes",),
     {"type": _count, "help": f"random elements tested, 1 to {MAX_COUNT} "
                              f"(default {DEFAULT_COUNT})"}),
    ("--tolerance", ("verify",),
     {"type": _tolerance, "help": "verification tolerance (finite, >= 0)"}),
    ("--precision", COMMANDS,
     {"type": _precision,
      "help": f"embedding precision in bits, 1 to {MAX_PRECISION_BITS} "
              f"(default {DEFAULT_PRECISION_BITS})"}),
    ("--json", COMMANDS, {"action": "store_true", "help": "compact JSON output"}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heightlab",
        description="Exact Weil heights, Galois orbits, place vectors, and "
                    "field-norm projections in a fixed Galois number field.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd in COMMANDS:
        p = sub.add_parser(cmd)
        for flag, commands, kwargs in _OPTIONS:
            if cmd in commands:
                p.add_argument(flag, **kwargs)
        if cmd == "verify":
            p.add_argument("suite", nargs="?", default="all",
                           choices=("all", *verify_mod.SUITES), metavar="SUITE",
                           help="'all' or one of: " + ", ".join(verify_mod.SUITES))
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.command == "verify" and ns.precision is not None and not ns.scenario:
        # the bundled corpus is built at the default precision
        parser.error("verify --precision needs --scenario")
    compact = ns.json

    try:
        if ns.command == "verify" and not ns.scenario \
                and os.environ.get("HEIGHTLAB_PRECISION"):
            raise SchemaError("HEIGHTLAB_PRECISION needs --scenario with verify: "
                              "the bundled corpus is built at the default precision")
        precision = ns.precision if ns.precision is not None else _default_precision()
        scenario = None
        if ns.scenario:
            scenario = load_scenario(ns.scenario, precision)
        args = {k: getattr(ns, k, None) for k in
                ("element", "scale", "K", "D", "E", "field_list", "op",
                 "count", "tolerance", "strict_condition")}
        args["suite"] = getattr(ns, "suite", None)
        report = run_command(ns.command, scenario, args)
    except (InputError, FieldTooLarge) as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}}, compact)
        return 2
    except (MathRefusal, WitnessFailure) as exc:
        _emit({"error": {"kind": type(exc).__name__, "message": str(exc)}}, compact)
        return 1

    _emit(report, compact)
    if ns.command == "verify" and not report["passed"]:
        return 1
    return 0


def _emit(obj, compact: bool):
    if compact:
        sys.stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
    else:
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
