"""Fixtures shared by the test modules."""

import pytest

from divcascade import pool


@pytest.fixture
def no_helpers():
    """No helper alive before or after the test.

    A helper runs the code it was forked with: one forked while a test
    patches what a scan runs keeps the patch, and one forked before
    lacks it.  Counts of forks start from none.
    """
    pool._reap(pool._helpers)
    yield
    pool._reap(pool._helpers)
