"""Span tracing of heightlab's layers, installed from outside the library.

Each instrumented function is replaced, in every heightlab module and class
that holds a reference to it, by a wrapper that records one span per call:
its name, start, end, parent span and query id.  Spans are kept in compact
arrays in memory and written out once, when the run ends.  `restore` puts
every original function back.

A layer's self time is its span's duration minus the time its child spans
cover.  The benchmark is single-threaded, so the children of a span are
disjoint intervals inside it and their durations simply add up.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (metric prefix, owner, attribute): the owner is a module path, or a
# module path plus a class name for methods.
INSTRUMENTED = (
    ("numberfield.mul", ("heightlab.numberfield", "FieldElement"), "__mul__"),
    ("numberfield.pow", ("heightlab.numberfield", "FieldElement"), "__pow__"),
    ("numberfield.inverse", ("heightlab.numberfield", "FieldElement"), "inverse"),
    ("numberfield.automorphism", ("heightlab.numberfield", "Automorphism"), "__call__"),
    ("numberfield.minimal_polynomial", "heightlab.numberfield", "minimal_polynomial"),
    ("roots.certified_roots", "heightlab.roots", "certified_roots"),
    ("roots.archimedean_classes", "heightlab.roots", "archimedean_classes"),
    ("heights.weil_height", "heightlab.heights", "weil_height"),
    ("heights.is_torsion", "heightlab.heights", "is_torsion"),
    ("heights.g_equal", "heightlab.heights", "g_equal"),
    ("heights.g_combine", "heightlab.heights", "g_combine"),
    ("orbits.orbit_mod_torsion", "heightlab.orbits", "orbit_mod_torsion"),
    ("orbits.vk_bounds", "heightlab.orbits", "vk_bounds"),
    ("orbits.in_kdiv", "heightlab.orbits", "in_kdiv"),
    ("placespace.f_vector", "heightlab.placespace", "f_vector"),
    ("placespace.local_factorization", "heightlab.placespace", "local_factorization"),
    ("projections.s_project", "heightlab.projections", "s_project"),
    ("projections.composite_project", "heightlab.projections", "composite_project"),
    ("projections.is_member", "heightlab.projections", "is_member"),
    ("numberfield.make_field", "heightlab.numberfield", "make_field"),
    ("numberfield.roots_in_field", "heightlab.numberfield", "roots_in_field"),
    ("polynomials.resultant", "heightlab.polynomials", "resultant"),
    ("polynomials.lagrange_interpolate", "heightlab.polynomials", "lagrange_interpolate"),
    ("polynomials.factor_rational", "heightlab.polynomials", "factor_rational"),
    ("polynomials.is_irreducible", "heightlab.polynomials", "is_irreducible"),
    ("expressions.parse_element", "heightlab.expressions", "parse_element"),
    ("scenario.parse_scenario", "heightlab.scenario", "parse_scenario"),
    ("cli.run_command", "heightlab.cli", "run_command"),
)

SPAN_NAMES = tuple(name for name, _, _ in INSTRUMENTED)

# counters recorded at the span boundaries, beside calls and self time
COUNTER_NAMES = (
    "roots.certified_roots.degree_sum",
    "roots.certified_roots.refusals",
    "placespace.local_factorization.cache_hits",
)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.name_id = array("i")
        self.parent = array("i")
        self.query = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        # spans are recorded only while active: the benchmark sets it around
        # each measured operation, so input generation and checks stay out
        self.active = False
        self.query_id = -1
        self._stack = [-1]
        self._saved = []  # (holder, attribute, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, nid: int, name: str, fn):
        clock = time.perf_counter
        stack = self._stack
        name_id, parent, query = self.name_id, self.parent, self.query
        start, end = self.start, self.end
        before = _BEFORE.get(name)
        refusal = _REFUSAL.get(name)
        counters = self.counters

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if before is not None:
                before(counters, args)
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            query.append(self.query_id)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if refusal is not None and isinstance(exc, refusal()):
                    counters[name + ".refusals"] += 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Rebind every instrumented function wherever heightlab holds it."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        holders = [m for n, m in sorted(sys.modules.items())
                   if n == "heightlab" or n.startswith("heightlab.")]
        for nid, (name, owner, attr) in enumerate(INSTRUMENTED):
            if isinstance(owner, tuple):
                home = getattr(sys.modules[owner[0]], owner[1])
            else:
                home = sys.modules[owner]
            original = vars(home)[attr]
            wrapper = self._wrap(nid, name, original)
            targets = list(holders)
            targets += [v for m in holders for v in vars(m).values()
                        if isinstance(v, type) and v.__module__.startswith("heightlab")]
            seen = set()
            for holder in targets:
                if id(holder) in seen:
                    continue
                seen.add(id(holder))
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self):
        """Put every original function back, in reverse order of install."""
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def spans(self):
        """(name, start, end, parent, query) for every recorded span."""
        return [(SPAN_NAMES[n], s, e, p, q) for n, s, e, p, q in
                zip(self.name_id, self.start, self.end, self.parent, self.query)]

    def write(self, path):
        """Write the spans as gzip'd CSV, one row per span."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name,start,end,parent,query\n")
            for n, s, e, p, q in zip(self.name_id, self.start, self.end,
                                     self.parent, self.query):
                out.write(f"{SPAN_NAMES[n]},{s:.9f},{e:.9f},{p},{q}\n")

    def layer_metrics(self) -> dict:
        """calls and self_s per instrumented function, plus the counters,
        as {name: {"value": ..., "unit": ...}}."""
        calls, self_s = layer_totals(
            zip(self.name_id, self.start, self.end, self.parent), len(SPAN_NAMES))
        out = {}
        for nid, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = {"value": calls[nid], "unit": "count"}
            out[f"{name}.self_s"] = {"value": self_s[nid], "unit": "s"}
        for name in ("roots.certified_roots.degree_sum",
                     "roots.certified_roots.refusals"):
            out[name] = {"value": self.counters[name], "unit": "count"}
        lf_calls = calls[SPAN_NAMES.index("placespace.local_factorization")]
        hits = self.counters["placespace.local_factorization.cache_hits"]
        out["placespace.local_factorization.cache_hit_ratio"] = {
            "value": hits / lf_calls if lf_calls else 0.0, "unit": "ratio"}
        return out


def layer_totals(spans, n_names: int):
    """Per-name call counts and self times from (name_id, start, end,
    parent) rows, where parent indexes an earlier row or is -1."""
    rows = list(spans)
    child_time = [0.0] * len(rows)
    for name_id, start, end, parent in rows:
        if parent >= 0:
            child_time[parent] += end - start
    calls = [0] * n_names
    self_s = [0.0] * n_names
    for i, (name_id, start, end, _parent) in enumerate(rows):
        calls[name_id] += 1
        self_s[name_id] += (end - start) - child_time[i]
    return calls, self_s


def _count_degree(counters, args):
    counters["roots.certified_roots.degree_sum"] += max(args[0].degree, 0)


def _count_place_hit(counters, args):
    field, _a, p = args[:3]
    if p in field._place_cache:
        counters["placespace.local_factorization.cache_hits"] += 1


def _precision_exhausted():
    from heightlab.errors import PrecisionExhausted
    return PrecisionExhausted


_BEFORE = {
    "roots.certified_roots": _count_degree,
    "placespace.local_factorization": _count_place_hit,
}
_REFUSAL = {"roots.certified_roots": _precision_exhausted}
