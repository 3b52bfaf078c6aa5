"""Scenario documents: a working field plus named subfields, elements, and
verification-suite declarations, serialized as JSON.

Schema (version 1):

    {
      "v": 1,
      "name": "...",                     # optional
      "field": [c0, c1, ..., 1],         # monic integer coefficients, low first
      "subfields": {"K1": ["expr", ...]},# optional, generator expressions
      "elements": {"a": "expr", ...},    # optional
      "checks": ["suite", {"suite": "...", ...params}, ...]   # optional
    }

All expressions are evaluated eagerly at parse time.
"""

from __future__ import annotations

import dataclasses
import json

from .errors import SchemaError
from .expressions import parse_element
from .numberfield import Subfield, WorkingField, make_field, subfield

_ALLOWED_KEYS = {"v", "name", "field", "subfields", "elements", "checks"}


@dataclasses.dataclass
class Scenario:
    name: str
    field: WorkingField
    field_coeffs: tuple
    subfields: dict
    elements: dict
    checks: list
    raw: dict

    def subfield_by_name(self, name: str) -> Subfield:
        if name not in self.subfields:
            raise SchemaError(f"unknown subfield {name!r} in scenario {self.name!r}")
        return self.subfields[name]


def _is_int(value) -> bool:
    """An integer, and not a boolean (bool is a subclass of int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_scenario(doc, precision_bits: int | None = None) -> Scenario:
    """Validate and evaluate a scenario document (JSON text or dict)."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:
            # also an integer beyond int_digit_limit() or too deep nesting
            raise SchemaError(f"scenario is not well-formed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("scenario document must be a JSON object")

    extra = set(doc) - _ALLOWED_KEYS
    if extra:
        raise SchemaError(f"unknown scenario fields: {sorted(extra)}")
    if not _is_int(doc.get("v")) or doc["v"] != 1:
        raise SchemaError('scenario requires schema version field "v": 1')
    if "field" not in doc:
        raise SchemaError('scenario is missing the "field" coefficient list')
    coeffs = doc["field"]
    if not isinstance(coeffs, list) or not coeffs or not all(map(_is_int, coeffs)):
        raise SchemaError('"field" must be a nonempty list of integers')

    field = make_field(coeffs, precision_bits)
    name = doc.get("name", "scenario")
    if not isinstance(name, str):
        raise SchemaError('"name" must be a string')

    subfields = {}
    raw_subfields = doc.get("subfields", {})
    if not isinstance(raw_subfields, dict):
        raise SchemaError('"subfields" must be an object')
    for key, gens in raw_subfields.items():
        if key in subfields:
            raise SchemaError(f"duplicate subfield name {key!r}")
        if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
            raise SchemaError(f"subfield {key!r} generators must be a list of "
                              "expression strings")
        subfields[key] = subfield(field, [parse_element(g, field) for g in gens])

    elements = {}
    raw_elements = doc.get("elements", {})
    if not isinstance(raw_elements, dict):
        raise SchemaError('"elements" must be an object')
    for key, expr in raw_elements.items():
        if not isinstance(expr, str):
            raise SchemaError(f"element {key!r} must be an expression string")
        elements[key] = parse_element(expr, field)

    checks = []
    for item in doc.get("checks", []):
        if isinstance(item, str):
            checks.append({"suite": item})
        elif isinstance(item, dict) and "suite" in item:
            checks.append(dict(item))
        else:
            raise SchemaError(f"bad check declaration: {item!r}")

    return Scenario(name=name, field=field, field_coeffs=tuple(coeffs),
                    subfields=subfields, elements=elements, checks=checks,
                    raw=doc)
