"""Acceptance gate: one test per criterion, each reading its verification
suite's result over the full bundled corpus at the tolerance
VERIFY_TOLERANCE of conftest and printing a pass/fail line.  Each suite's
check count is pinned exactly, so a change that drops or adds checks on the
corpus shows here.  The ten suites run once per session, through
run_command's `verify all` (the `verify_all` fixture), and a suite that
raises fails only its own criterion.

Run `pytest tests/test_acceptance.py -v -s` for the per-criterion report,
or `heightlab verify all` for the CLI equivalent.
"""

import math

from heightlab.corpus import bundled_corpus


def _result(verify_all, name):
    _, results = verify_all
    result = results[name]
    print(result.summary())
    for failure in result.failures:
        print("   ", failure)
    for note in result.notes:
        print("    note:", note)
    assert result.passed, f"{name}: {result.failures}"
    return result


def test_criterion_01_height_backend_agreement(verify_all):
    corpus = bundled_corpus()
    n_elements = sum(len(sc.elements) for sc in corpus)
    assert n_elements >= 100
    result = _result(verify_all, "height-backend")
    assert result.checks == 160


def test_criterion_02_product_formula(verify_all):
    result = _result(verify_all, "product-formula")
    assert result.checks == 160


def test_criterion_03_vk_sandwich(verify_all):
    # anchor recomputed independently: V_Q(1+sqrt2) bounds pinch at
    # (1/2) log(1+sqrt2)
    expected = 0.5 * math.log(1 + math.sqrt(2))
    assert abs(expected - 0.4406867935097715 / 1) < 1e-15
    result = _result(verify_all, "vk-sandwich")
    assert result.checks == 416


def test_criterion_04_orbit_delta_invariance(verify_all):
    result = _result(verify_all, "orbit-delta")
    assert result.checks == 255


def test_criterion_05_projection_laws(verify_all):
    result = _result(verify_all, "projection-laws")
    assert result.checks == 393


def test_criterion_06_commutativity_and_expansion(verify_all):
    result = _result(verify_all, "commutativity")
    # the condition-satisfying pairs of the multi-subfield scenarios, 50
    # elements per pair, plus the termwise expansion checks
    assert result.checks == 918
    # the condition-violating cube-root pair is observed, not asserted
    assert any("violates the Galois condition" in n for n in result.notes)


def test_criterion_07_membership_with_witnesses(verify_all):
    result = _result(verify_all, "membership")
    assert result.checks == 22  # two anchors + 20 randomized products


def test_criterion_08_mixed_decomposition(verify_all):
    result = _result(verify_all, "mixed-decomposition")
    assert result.checks == 50


def test_criterion_09_conjugation_identity(verify_all):
    result = _result(verify_all, "conjugation")
    assert result.checks == 20


def test_criterion_10_valuation_consistency(verify_all):
    result = _result(verify_all, "valuations")
    assert result.checks == 134
