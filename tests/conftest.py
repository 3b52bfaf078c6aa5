import os

import pytest
from hypothesis import settings

from heightlab import verify
from heightlab.cli import run_command
from heightlab.numberfield import make_field, rational_subfield, subfield

# In CI every property test draws the same examples on every run and prints
# the blob that replays a failure, so a red build can be reproduced locally
# with CI=1.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")

VERIFY_TOLERANCE = 1e-9


def run_verify_all():
    """run_command's `verify all` report at VERIFY_TOLERANCE, and the
    SuiteResult behind each of its suites, by name."""
    results = {}
    run_suite = verify.run_suite

    def recording(name, *args, **options):
        results[name] = run_suite(name, *args, **options)
        return results[name]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "run_suite", recording)
        report = run_command("verify", None, {"suite": "all",
                                              "tolerance": VERIFY_TOLERANCE})
    return report, results


@pytest.fixture(scope="session")
def verify_all():
    """One run of the ten suites per session, shared by the acceptance
    criteria and the golden digest of the report."""
    return run_verify_all()


@pytest.fixture(scope="session")
def field_q():
    """Degree-1 working field (the rationals)."""
    return make_field([-1, 1])


@pytest.fixture(scope="session")
def field_sqrt2():
    return make_field([-2, 0, 1])


@pytest.fixture(scope="session")
def field_zeta3():
    return make_field([1, 1, 1])


@pytest.fixture(scope="session")
def field_biquad():
    """Q(sqrt2, sqrt3) with the monogenic generator (sqrt2+sqrt6)/2."""
    return make_field([1, 0, -4, 0, 1])


@pytest.fixture(scope="session")
def field_biquad_classic():
    """Q(sqrt2, sqrt3) with the classic generator sqrt2+sqrt3 (index 8 at 2)."""
    return make_field([1, 0, -10, 0, 1])


@pytest.fixture(scope="session")
def field_zeta8():
    return make_field([1, 0, 0, 0, 1])


@pytest.fixture(scope="session")
def field_cbrt2():
    """Splitting field of x^3 - 2 (degree 6, monogenic generator)."""
    return make_field([1, -3, 0, 5, 0, -3, 1])


@pytest.fixture(scope="session")
def corpus():
    from heightlab.corpus import bundled_corpus
    return bundled_corpus()
