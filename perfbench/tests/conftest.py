import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402

run.import_library()


@pytest.fixture(scope="session")
def corpus():
    _, scenarios = run.build_corpus()
    return scenarios
