"""Golden outputs: sha256 digests of `heightlab verify all --json` and of
the CLI reports over the bundled corpus, so that a change meant to keep
every answer can show that it did.

If a change alters an answer on purpose, regenerate a digest with
`python tests/test_golden.py` and say in the change which reports moved.
"""

import hashlib
import json

from heightlab.cli import run_command
from heightlab.corpus import bundled_corpus
from heightlab.errors import HeightlabError

VERIFY_ALL_SHA256 = "7190ccbccab0d779521f4a189dccbbb6b7958f15b90d61b1d595e996f94d5a05"
CLI_REPORTS_SHA256 = "4fe905a3c12706cbadbdf97c3cf20f094b074f53b464c391badd4b2178527ee0"
SCALES = ("1", "-2/3")


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


def test_verify_all_report_unchanged(verify_all):
    report, _ = verify_all
    assert verify_all_digest(report) == VERIFY_ALL_SHA256


def test_cli_reports_unchanged():
    assert cli_reports_digest() == CLI_REPORTS_SHA256


if __name__ == "__main__":
    from conftest import run_verify_all
    print("VERIFY_ALL_SHA256 =", repr(verify_all_digest(run_verify_all()[0])))
    print("CLI_REPORTS_SHA256 =", repr(cli_reports_digest()))
