import os

import pytest
from hypothesis import settings

from heightlab.numberfield import make_field, rational_subfield, subfield

# In CI every property test draws the same examples on every run and prints
# the blob that replays a failure, so a red build can be reproduced locally
# with CI=1.
settings.register_profile("ci", derandomize=True, deadline=None, print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


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
