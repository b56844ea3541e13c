"""Fixtures shared by the test modules."""

import functools

import pytest

from randcol.verify import run_suite


@pytest.fixture(scope="session")
def suite_report():
    """run_suite, memoised for the test session. A suite's report is a
    frozen value, so the tests that read its verdict, its battery size and
    its bytes share one run of the suite instead of running it again."""
    return functools.lru_cache(maxsize=None)(run_suite)
