"""Golden outputs: sha256 digests of `heightlab verify all --json`, of
the CLI reports over the bundled corpus, of certified roots, of the
embeddings of constructed fields and of their Galois groups, so that a
change meant to keep every answer can show that it did.

If a change alters an answer on purpose, regenerate a digest with
`PYTHONPATH=src python tests/test_golden.py` from the repository root and
say in the change which reports moved.
"""

import hashlib
import json

from test_roots import PRECISIONS, STRESS

from heightlab.cli import run_command
from heightlab.corpus import bundled_corpus, scenario_documents
from heightlab.errors import HeightlabError, PrecisionExhausted
from heightlab.numberfield import make_field
from heightlab.polynomials import Poly, cyclotomic, euler_phi
from heightlab.roots import DEFAULT_PRECISION_BITS, certified_roots

VERIFY_ALL_SHA256 = "7190ccbccab0d779521f4a189dccbbb6b7958f15b90d61b1d595e996f94d5a05"
CLI_REPORTS_SHA256 = "4fe905a3c12706cbadbdf97c3cf20f094b074f53b464c391badd4b2178527ee0"
CERTIFIED_ROOTS_SHA256 = "bf7070912b6d576352f8308d61e10258094ad4b59dd74a01fe0e55d1c4985cdc"
FIELD_EMBEDDINGS_SHA256 = "c314b3b9e753f7b0e2b67377bce2a763558dffafd0823dbcfd28ea4fda4e4745"
GALOIS_TABLES_SHA256 = "7fc9c2334d1c3cbad5b02bfa82cdad84b4c59f51a2b2dfa92a9d6bc0e6760288"
SCALES = ("1", "-2/3")
# the larger fields of the field-build benchmark's ladder, after the corpus
LADDER = (
    (1, 1, 1, 1, 1, 1, 1),
    (1, 0, 0, 1, 0, 0, 1),
    (-1, 3, 6, -4, -5, 1, 1),
    (1, -4, -10, 10, 15, -6, -7, 1, 1),
    (1, 0, 0, 0, 0, 0, 0, 0, 1),
)


def _compact(obj) -> str:
    # the layout of `--json`, with keys sorted so the request is canonical
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def verify_all_digest(report) -> str:
    # the report has no timing fields; SuiteResult.seconds stays out of it
    return hashlib.sha256(_compact(report).encode()).hexdigest()


def _report(cmd, scenario, args) -> str:
    try:
        report = run_command(cmd, scenario, args)
    except HeightlabError as exc:
        report = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
    return _compact([cmd, scenario.name, args, report])


def _cli_reports():
    """Every command on every bundled scenario: each named element, with
    each subfield where the command takes one, at scales 1 and -2/3."""
    for sc in bundled_corpus():
        ks = list(sc.subfields)
        yield _report("places", sc, {})
        if len(ks) >= 2:
            yield _report("commutes", sc, {"field_list": ",".join(ks)})
        for el in sc.elements:
            yield _report("height", sc, {"element": el})
            yield _report("torsion", sc, {"element": el})
            for k in ks:
                for cmd in ("orbit", "delta", "width", "vk-bounds"):
                    yield _report(cmd, sc, {"element": el, "K": k})
            for scale in SCALES:
                yield _report("fvector", sc, {"element": el, "scale": scale})
                for k in ks:
                    for op in ("s", "t"):
                        yield _report("project", sc, {"element": el, "K": k,
                                                      "op": op, "scale": scale})
                    for cmd in ("member", "decompose"):
                        yield _report(cmd, sc, {"element": el, "D": k, "scale": scale})


def cli_reports_digest() -> str:
    return hashlib.sha256("\n".join(_cli_reports()).encode()).hexdigest()


def _records(found):
    """The raw mpmath tuples of each root's value, its radius and its real
    flag."""
    return [[[[s, int(m), e, b] for s, m, e, b in r.value._mpc_],
             r.radius.hex(), r.is_real] for r in found]


def _roots_record(p, bits):
    """Every bit of certified_roots(p, bits), or the refusal's message."""
    try:
        return _records(certified_roots(p, bits))
    except PrecisionExhausted as exc:
        return str(exc)


def _ladder():
    """The field-build ladder: the corpus fields, then LADDER."""
    return [tuple(doc["field"]) for doc in scenario_documents()] + list(LADDER)


def certified_roots_digest() -> str:
    """The stress set of test_roots at each of its precisions, then the
    field-build ladder at the default precision.  The two roots of a
    conjugate pair have real parts that tie up to the last bits of the
    approximations, which order them; make_field's embeddings, whose pairs
    tie exactly, are pinned by field_embeddings_digest instead."""
    cases = [[name, bits, _roots_record(p, bits)]
             for name, p in STRESS.items() for bits in PRECISIONS]
    cases += [[list(coeffs), _roots_record(Poly(coeffs), DEFAULT_PRECISION_BITS)]
              for coeffs in _ladder()]
    return hashlib.sha256(_compact(cases).encode()).hexdigest()


def _field_record(coeffs, bits):
    try:
        field = make_field(list(coeffs), bits)
    except PrecisionExhausted as exc:
        return str(exc)
    return [_records(field.embeddings), field.archimedean_classes]


def field_embeddings_digest() -> str:
    """Every bit of make_field's embeddings, in their order, and the
    archimedean classes, for the field-build ladder at 53 and 256 bits."""
    cases = [[list(coeffs), bits, _field_record(coeffs, bits)]
             for coeffs in _ladder() for bits in (53, 256)]
    return hashlib.sha256(_compact(cases).encode()).hexdigest()


def _fractions(coords):
    return [str(c) for c in coords]


def galois_tables_digest() -> str:
    """The Galois group and torsion of make_field at the default precision:
    the automorphisms' images of theta in their order, the composition and
    inverse tables, and the torsion order and generator, for the
    field-build ladder and every cyclotomic field of degree at most 24."""
    fields = _ladder() + [tuple(int(c) for c in cyclotomic(n).coeffs)
                          for n in range(1, 91) if euler_phi(n) <= 24]
    cases = []
    for coeffs in fields:
        field = make_field(list(coeffs))
        cases.append([list(coeffs),
                      [_fractions(s.theta_image.coords) for s in field.automorphisms],
                      field._comp_table, field._inv_table, field.torsion_order,
                      _fractions(field.torsion_generator.coords)])
    return hashlib.sha256(_compact(cases).encode()).hexdigest()


def test_verify_all_report_unchanged(verify_all):
    report, _ = verify_all
    assert verify_all_digest(report) == VERIFY_ALL_SHA256


def test_cli_reports_unchanged():
    assert cli_reports_digest() == CLI_REPORTS_SHA256


def test_certified_roots_unchanged():
    assert certified_roots_digest() == CERTIFIED_ROOTS_SHA256


def test_field_embeddings_unchanged():
    assert field_embeddings_digest() == FIELD_EMBEDDINGS_SHA256


def test_galois_tables_unchanged():
    assert galois_tables_digest() == GALOIS_TABLES_SHA256


if __name__ == "__main__":
    from conftest import run_verify_all
    print("VERIFY_ALL_SHA256 =", repr(verify_all_digest(run_verify_all()[0])))
    print("CLI_REPORTS_SHA256 =", repr(cli_reports_digest()))
    print("CERTIFIED_ROOTS_SHA256 =", repr(certified_roots_digest()))
    print("FIELD_EMBEDDINGS_SHA256 =", repr(field_embeddings_digest()))
    print("GALOIS_TABLES_SHA256 =", repr(galois_tables_digest()))
